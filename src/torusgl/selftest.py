"""Built-in invariant suite: every module's structural identities checked on
small lattices.  Used by the `selftest` CLI subcommand and by the test suite.

Checks return (module, invariant, ok, measured) tuples; exact invariants are
seed-independent, random probes use a fixed seed.  Operator lookups go
through the module objects so a harness can inject faults (e.g. a sign error
in the codifferential) and watch the right invariant trip.
"""

from __future__ import annotations

import numpy as np

from . import bundle as bundle_mod
from . import fields as fields_mod
from . import gauge as gauge_mod
from . import hodge as hodge_mod
from . import lattice as lattice_mod
from . import solve as solve_mod
from . import vortex as vortex_mod

# measured once on the shipped selftest lattices (8^2 and 6^3) and frozen
# with margin: ||-Delta F + F - 2J||_L2 <= C_LONDON * sup-norm of the
# scale-free gauge-field gradient, on the approach to criticality
C_LONDON = 50.0


def _geometries():
    return (
        lattice_mod.TorusGeometry((8, 8), (1.0, 1.0)),
        lattice_mod.TorusGeometry((6, 6, 6), (1.0, 1.0, 1.0)),
    )


def _bundles(geom):
    n = geom.dim
    chern = np.zeros((n, n), dtype=int)
    chern[0, 1], chern[1, 0] = 1, -1
    return (
        bundle_mod.build_background(geom, np.zeros((n, n), dtype=int)),
        bundle_mod.build_background(geom, chern),
    )


def _random_pair(geom, rng, scale=1.0):
    u = bundle_mod.Section(
        geom,
        scale * (rng.standard_normal(geom.sites) + 1j * rng.standard_normal(geom.sites)),
    )
    A = lattice_mod.random_cochain(geom, 1, rng)
    return u, A


def check_lattice(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    for geom in _geometries():
        n = geom.dim
        tag = f"T{n}"
        dd_max = 0.0
        adj_max = 0.0
        comm_max = 0.0
        for k in range(n):
            c = lattice_mod.random_cochain(geom, k, rng)
            if k + 2 <= n:
                dd = lattice_mod.exterior_derivative(lattice_mod.exterior_derivative(c))
                dd_max = max(dd_max, float(np.abs(dd.values).max()))
            for _ in range(100):
                a = lattice_mod.random_cochain(geom, k, rng)
                b2 = lattice_mod.random_cochain(geom, k + 1, rng)
                lhs = lattice_mod.inner_product(lattice_mod.exterior_derivative(a), b2)
                rhs = lattice_mod.inner_product(a, lattice_mod.codifferential(b2))
                denom = max(lattice_mod.norm(a) * lattice_mod.norm(b2), 1e-300)
                adj_max = max(adj_max, abs(lhs - rhs) / denom)
        for k in range(n + 1):
            c = lattice_mod.random_cochain(geom, k, rng)
            lap = lattice_mod.laplacian(c)
            if k < n:
                lhs = lattice_mod.exterior_derivative(lap)
                rhs = lattice_mod.laplacian(lattice_mod.exterior_derivative(c))
                comm_max = max(
                    comm_max,
                    lattice_mod.norm(lhs - rhs) / max(lattice_mod.norm(rhs), 1e-300),
                )
            if k > 0:
                lhs = lattice_mod.codifferential(lap)
                rhs = lattice_mod.laplacian(lattice_mod.codifferential(c))
                comm_max = max(
                    comm_max,
                    lattice_mod.norm(lhs - rhs) / max(lattice_mod.norm(rhs), 1e-300),
                )
        kernel_ok = all(
            hodge_mod.harmonic_dimension(geom, k) == geom.shape(k)[0] for k in range(n + 1)
        )
        results += [
            ("lattice", f"{tag} d(d(.)) = 0", dd_max <= 1e-12, dd_max),
            ("lattice", f"{tag} adjointness <d a, b> = <a, d* b>", adj_max <= 1e-12, adj_max),
            ("lattice", f"{tag} laplacian commutes with d, d*", comm_max <= 1e-10, comm_max),
            ("lattice", f"{tag} kernel dim of -laplacian = C(n,k)", kernel_ok, float(kernel_ok)),
        ]
    return results


def check_bundle(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    for geom in _geometries():
        tag = f"T{geom.dim}"
        for b in _bundles(geom):
            res = float(np.abs(bundle_mod.holonomy_residuals(b)).max())
            results.append(("bundle", f"{tag} holonomy = flux mod 2pi (c={b.chern[0,1]})", res <= 1e-12, res))
            u, A = _random_pair(geom, rng)
            pairing = bundle_mod.flux_pairing(bundle_mod.curvature(A, b))
            dev = float(np.abs(pairing - b.chern).max())
            results.append(("bundle", f"{tag} Chern pairing of F (c={b.chern[0,1]})", dev <= 1e-10, dev))
            theta = gauge_mod.GaugePhase(geom, rng.standard_normal(geom.sites))
            u2, A2 = gauge_mod.apply_gauge(u, A, theta)
            D1 = bundle_mod.covariant_difference(u, A, b)
            D2 = bundle_mod.covariant_difference(u2, A2, b)
            cov = float(np.abs(D2 - np.exp(1j * theta.theta) * D1).max())
            results.append(("bundle", f"{tag} exact gauge covariance of D_A", cov <= 1e-12, cov))
    return results


def check_fields(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    for geom in _geometries():
        tag = f"T{geom.dim}"
        b = _bundles(geom)[1]
        inv_max = 0.0
        for _ in range(50):
            u, A = _random_pair(geom, rng)
            theta = gauge_mod.GaugePhase(geom, rng.standard_normal(geom.sites))
            u2, A2 = gauge_mod.apply_gauge(u, A, theta)
            e1 = fields_mod.g_energy(u, A, b, 0.3)
            e2 = fields_mod.g_energy(u2, A2, b, 0.3)
            inv_max = max(inv_max, abs(e1.total - e2.total) / max(e1.total, 1e-300))
        results.append(("fields", f"{tag} gauge invariance of g_energy", inv_max <= 1e-10, inv_max))

        trunc_ok = True
        for _ in range(50):
            u, A = _random_pair(geom, rng, scale=1.5)
            before = fields_mod.g_energy(u, A, b, 0.2).total
            after = fields_mod.g_energy(fields_mod.truncate(u), A, b, 0.2).total
            trunc_ok = trunc_ok and (after <= before)
        results.append(("fields", f"{tag} truncation never increases energy", trunc_ok, float(trunc_ok)))

        u, A = _random_pair(geom, rng)
        scaling_ok = True
        for _ in range(5):
            eps = float(rng.uniform(0.1, 0.9))
            p1 = fields_mod.g_energy(u, A, b, eps).potential
            p2 = fields_mod.g_energy(u, A, b, eps / 2.0).potential
            scaling_ok = scaling_ok and (p2 == 4.0 * p1)
        results.append(("fields", f"{tag} potential quadruples when eps halves", scaling_ok, float(scaling_ok)))

        fd_err = _gradient_fd_error(geom, b, rng, points=3)
        results.append(("fields", f"{tag} analytic gradient vs central differences", fd_err < 1e-6, fd_err))
    return results


def _gradient_fd_error(geom, b, rng, points=3, step=1e-5):
    worst = 0.0
    for _ in range(points):
        u, A = _random_pair(geom, rng)
        x0 = solve_mod._flat(u.values, A)
        gvec = solve_mod._flat(*fields_mod.g_gradient(u, A, b, 0.3))
        idx = rng.choice(len(x0), size=min(40, len(x0)), replace=False)
        fd = np.zeros(len(idx))
        for row, i in enumerate(idx):
            xp = x0.copy()
            xp[i] += step
            up, Ap = solve_mod._unpack(xp, geom)
            ep = fields_mod.g_energy(up, Ap, b, 0.3).total
            xm = x0.copy()
            xm[i] -= step
            um, Am = solve_mod._unpack(xm, geom)
            em = fields_mod.g_energy(um, Am, b, 0.3).total
            fd[row] = (ep - em) / (2.0 * step)
        worst = max(worst, float(np.abs(gvec[idx] - fd).max() / max(np.abs(fd).max(), 1e-300)))
    return worst


def check_vortex(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    for geom in _geometries():
        tag = f"T{geom.dim}"
        b = _bundles(geom)[1]
        gi_max = 0.0
        pairing_ok = True
        for _ in range(20):
            u, A = _random_pair(geom, rng)
            theta = gauge_mod.GaugePhase(geom, rng.standard_normal(geom.sites))
            u2, A2 = gauge_mod.apply_gauge(u, A, theta)
            j1 = vortex_mod.supercurrent(u, A, b)
            j2 = vortex_mod.supercurrent(u2, A2, b)
            J1 = vortex_mod.jacobian(u, A, b)
            J2 = vortex_mod.jacobian(u2, A2, b)
            gi_max = max(
                gi_max,
                float(np.abs(j1.values - j2.values).max()),
                float(np.abs(J1.values - J2.values).max()),
            )
            v1 = vortex_mod.vorticity(u, A, b)
            v2 = vortex_mod.vorticity(u2, A2, b)
            gi_max = max(gi_max, float(np.abs(v1.windings - v2.windings).max()))
            pairing_ok = pairing_ok and np.array_equal(vortex_mod.chern_pairing(v1), b.chern)
        results.append(("vortex", f"{tag} gauge invariance of j, J, vorticity", gi_max <= 1e-12, gi_max))
        results.append(("vortex", f"{tag} vorticity slice sums = Chern numbers", pairing_ok, float(pairing_ok)))

    # London identity on the approach to criticality (2-D lattice only)
    geom = _geometries()[0]
    b = _bundles(geom)[1]
    spec = solve_mod.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = solve_mod.vortex_ansatz(spec, b, geom, eps=0.3)
    w = geom.cell_volume
    ratio_max = 0.0
    for tol in (1e-2, 1e-4, 1e-6, 1e-8):
        res = solve_mod.minimize(u, A, b, 0.3, solve_mod.MinimizeOptions(tol=tol, max_iter=50000))
        u, A = res.section, res.gauge_field
        _, gA = fields_mod.g_gradient(u, A, b, 0.3)
        delta = float(np.abs(gA.values).max()) / w
        F = bundle_mod.curvature(A, b)
        defect = -1.0 * lattice_mod.laplacian(F) + F - 2.0 * vortex_mod.jacobian(u, A, b)
        ratio_max = max(ratio_max, lattice_mod.norm(defect) / max(delta, 1e-300))
    results.append(("vortex", "London defect <= C * grad on descent", ratio_max <= C_LONDON, ratio_max))
    final = vortex_mod.london_residual(u, A, b)
    results.append(("vortex", "London residual at converged minimizer", final <= 1e-6, final))
    return results


def solver_residuals(c):
    """Relative residuals of the Hodge solvers on the cochain c:
    (reconstruct, green, london, poisson), each a norm of the equation's
    defect over the norm of its source."""
    nc = lattice_mod.norm(c)
    mf = c - hodge_mod.harmonic_projection(c)
    lap = lattice_mod.laplacian
    london = hodge_mod.solve_london(c)
    return (
        lattice_mod.norm(hodge_mod.hodge_decompose(c).reconstruct() - c) / nc,
        lattice_mod.norm(lap(hodge_mod.green(c)) - mf) / nc,
        lattice_mod.norm(-1.0 * lap(london) + london - c) / nc,
        lattice_mod.norm(-1.0 * lap(hodge_mod.solve_poisson(mf)) - mf)
        / max(lattice_mod.norm(mf), 1e-300),
    )


def check_hodge(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    for geom in _geometries():
        n = geom.dim
        tag = f"T{n}"
        rec_max = orth_max = 0.0
        for k in range(n + 1):
            for _ in range(200):
                c = lattice_mod.random_cochain(geom, k, rng)
                parts = hodge_mod.hodge_decompose(c)
                rec = parts.reconstruct()
                nc = max(lattice_mod.norm(c), 1e-300)
                rec_max = max(rec_max, lattice_mod.norm(rec - c) / nc)
                terms = [parts.harmonic]
                if parts.exact_potential is not None:
                    terms.append(lattice_mod.exterior_derivative(parts.exact_potential))
                if parts.coexact_potential is not None:
                    terms.append(lattice_mod.codifferential(parts.coexact_potential))
                for i, t1 in enumerate(terms):
                    for t2 in terms[i + 1:]:
                        orth_max = max(
                            orth_max, abs(lattice_mod.inner_product(t1, t2)) / nc**2
                        )
        results.append(("hodge", f"{tag} decomposition reconstructs input", rec_max <= 1e-10, rec_max))
        results.append(("hodge", f"{tag} parts pairwise orthogonal", orth_max <= 1e-10, orth_max))

        solver_max = 0.0
        lin_max = 0.0
        for k in range(n + 1):
            c = lattice_mod.random_cochain(geom, k, rng)
            _, gre, lon, poi = solver_residuals(c)
            solver_max = max(solver_max, lon, poi, gre)
            c2 = lattice_mod.random_cochain(geom, k, rng)
            lhs = hodge_mod.solve_london(1.5 * c + 0.25 * c2)
            rhs = 1.5 * hodge_mod.solve_london(c) + 0.25 * hodge_mod.solve_london(c2)
            lin_max = max(lin_max, lattice_mod.norm(lhs - rhs) / max(lattice_mod.norm(rhs), 1e-300))
        results.append(("hodge", f"{tag} green/london/poisson residuals", solver_max <= 1e-10, solver_max))
        results.append(("hodge", f"{tag} solver linearity", lin_max <= 1e-10, lin_max))
    return results


def check_gauge(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    for geom in _geometries():
        tag = f"T{geom.dim}"
        b = _bundles(geom)[1]
        u, A = _random_pair(geom, rng)
        # g_energy's invariance is check_fields'; here the curvature's
        obs_max = 0.0
        for _ in range(20):
            theta = gauge_mod.GaugePhase(geom, rng.standard_normal(geom.sites))
            u2, A2 = gauge_mod.apply_gauge(u, A, theta)
            F1 = bundle_mod.curvature(A, b)
            F2 = bundle_mod.curvature(A2, b)
            obs_max = max(obs_max, float(np.abs(F1.values - F2.values).max()))
        results.append(("gauge", f"{tag} curvature invariant under apply_gauge", obs_max <= 1e-10, obs_max))

        u2, A2, _ = gauge_mod.coulomb_fix(u, A)
        u3, A3, _ = gauge_mod.coulomb_fix(u2, A2)
        drift = float(np.abs(A3.values - A2.values).max())
        results.append(("gauge", f"{tag} coulomb_fix idempotent", drift <= 1e-9, drift))
        dstar = float(np.abs(lattice_mod.codifferential(A2).values).max())
        results.append(("gauge", f"{tag} coulomb_fix kills d*A", dstar <= 1e-9 * (1 + lattice_mod.norm(A)), dstar))
    return results


def check_solve(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    geom = _geometries()[0]
    b = _bundles(geom)[1]
    spec = solve_mod.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
    u, A = solve_mod.vortex_ansatz(spec, b, geom, eps=0.3)

    energies = []

    def record_hook(x, fx, g):
        energies.append(float(fx))

    opts = solve_mod.MinimizeOptions(tol=1e-8, max_iter=20000, iterate_hook=record_hook)
    res = solve_mod.minimize(u, A, b, 0.3, opts)
    mono = all(b2 <= a2 for a2, b2 in zip(energies, energies[1:]))
    results.append(("solve", "accepted steps never increase energy", mono and res.converged, float(mono)))
    results.append(("solve", "converged grad norm <= tol", res.grad_norm <= 1e-8, res.grad_norm))
    v = vortex_mod.vorticity(res.section, res.gauge_field, b)
    ok = np.array_equal(vortex_mod.chern_pairing(v), b.chern)
    results.append(("solve", "minimizer vorticity pairing = Chern", ok, float(ok)))

    desc_ok = True
    for _ in range(5):
        uu, AA = _random_pair(geom, rng, scale=1.2)
        before = fields_mod.g_energy(uu, AA, b, 0.3).total
        vv, BB = solve_mod.optimised_pair(uu, AA, b, solve_mod.MinimizeOptions(tol=1e-6, max_iter=20000))
        desc_ok = desc_ok and fields_mod.g_energy(vv, BB, b, 0.3).total <= before
    results.append(("solve", "optimised_pair never increases energy", desc_ok, float(desc_ok)))
    return results


ALL_CHECKS = (
    check_lattice,
    check_bundle,
    check_fields,
    check_vortex,
    check_hodge,
    check_gauge,
    check_solve,
)


def run_selftest(seed=0, verbose=True):
    """Run every invariant; returns the list of (module, invariant, ok, value)."""
    all_results = []
    for fn in ALL_CHECKS:
        all_results.extend(fn(seed))
    if verbose:
        for module, name, ok, value in all_results:
            status = "PASS" if ok else "FAIL"
            print(f"{status}  [{module}] {name}  (measured {value:.3e})")
        n_fail = sum(1 for r in all_results if not r[2])
        print(f"{len(all_results) - n_fail}/{len(all_results)} invariants pass")
    return all_results
