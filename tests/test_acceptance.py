"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured values.

Criteria 8 and 9 assert the stated energy bands faithfully even though the
bands are unattainable for c = 1 on the unit torus: the total flux through
the torus is 2 pi, so the curvature term alone is bounded below by
(1/2)(2 pi)^2 / Vol = 2 pi^2 ~ 6.28 pi by Cauchy-Schwarz, which already
exceeds the 2 pi |log eps| budget for every listed epsilon.  The remaining
structural parts of those criteria (strict decrease, exact topology, loop
geometry) are asserted separately first, so the honest failure is confined
to the energy bands.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import torusgl as tg
from torusgl.lattice import (
    codifferential,
    exterior_derivative,
    inner_product,
    laplacian,
    norm,
    random_cochain,
)
from torusgl.fields import g_gradient
from torusgl.solve import _flat, _unpack
from torusgl.vortex import single_dual_loop

from conftest import random_section

PI = math.pi


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_gauge_invariance():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_energy = 0.0
    worst_field = 0.0
    for geom, chern in (
        (tg.TorusGeometry((16, 16), (1.0, 1.0)), [[0, 1], [-1, 0]]),
        (tg.TorusGeometry((8, 8, 8), (1.0, 1.0, 1.0)), [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
    ):
        b = tg.build_background(geom, chern)
        for _ in range(50):
            u = random_section(geom, rng)
            A = tg.Cochain(geom, 1, rng.standard_normal(geom.shape(1)))
            theta = tg.GaugePhase(geom, rng.standard_normal(geom.sites))
            u2, A2 = tg.apply_gauge(u, A, theta)
            e1 = tg.g_energy(u, A, b, 0.3)
            e2 = tg.g_energy(u2, A2, b, 0.3)
            worst_energy = max(worst_energy, abs(e2.total - e1.total) / e1.total)
            for fn in (tg.supercurrent, tg.jacobian):
                d = fn(u, A, b).values - fn(u2, A2, b).values
                worst_field = max(worst_field, float(np.abs(d).max()))
            dF = tg.curvature(A, b).values - tg.curvature(A2, b).values
            worst_field = max(worst_field, float(np.abs(dF).max()))
            dv = tg.vorticity(u, A, b).windings - tg.vorticity(u2, A2, b).windings
            worst_field = max(worst_field, float(np.abs(dv).max()))
    elapsed = time.time() - t0
    ok = worst_energy <= 1e-10 and worst_field <= 1e-12 and elapsed < 5.0
    assert _report(
        1,
        ok,
        f"relative energy change {worst_energy:.2e} (<=1e-10), observable change "
        f"{worst_field:.2e} (<=1e-12), {elapsed:.1f}s (<5s)",
    )


def test_criterion_02_calculus_identities():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst_dd = 0.0
    worst_adj = 0.0
    kernel_ok = True
    for geom in (
        tg.TorusGeometry((16, 16), (1.0, 1.0)),
        tg.TorusGeometry((8, 8, 8), (1.0, 1.0, 1.0)),
    ):
        n = geom.dim
        for k in range(n + 1):
            if k + 2 <= n:
                c = random_cochain(geom, k, rng)
                dd = exterior_derivative(exterior_derivative(c))
                worst_dd = max(worst_dd, float(np.abs(dd.values).max()))
            if k < n:
                for _ in range(20):
                    a = random_cochain(geom, k, rng)
                    b2 = random_cochain(geom, k + 1, rng)
                    lhs = inner_product(exterior_derivative(a), b2)
                    rhs = inner_product(a, codifferential(b2))
                    worst_adj = max(worst_adj, abs(lhs - rhs) / (norm(a) * norm(b2)))
            from torusgl.hodge import harmonic_dimension

            kernel_ok = kernel_ok and harmonic_dimension(geom, k) == math.comb(n, k)
    elapsed = time.time() - t0
    ok = worst_dd <= 1e-10 and worst_adj <= 1e-12 and kernel_ok and elapsed < 5.0
    assert _report(
        2,
        ok,
        f"max|dd| {worst_dd:.2e}, adjointness {worst_adj:.2e} (<=1e-12), "
        f"kernel dims C(n,k): {kernel_ok}, {elapsed:.1f}s (<5s)",
    )


def test_criterion_03_gradient_oracle():
    t0 = time.time()
    rng = np.random.default_rng(103)
    geom = tg.TorusGeometry((8, 8), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    step = 1e-5
    worst = 0.0
    for _ in range(20):
        u = random_section(geom, rng)
        A = tg.Cochain(geom, 1, rng.standard_normal(geom.shape(1)))
        eps = float(rng.uniform(0.15, 0.7))
        x0 = _flat(u.values, A)
        gvec = _flat(*g_gradient(u, A, b, eps))
        fd = np.zeros_like(x0)
        for i in range(len(x0)):
            xp = x0.copy()
            xp[i] += step
            up, Ap = _unpack(xp, geom)
            xm = x0.copy()
            xm[i] -= step
            um, Am = _unpack(xm, geom)
            fd[i] = (
                tg.g_energy(up, Ap, b, eps).total - tg.g_energy(um, Am, b, eps).total
            ) / (2 * step)
        worst = max(worst, float(np.abs(gvec - fd).max() / np.abs(fd).max()))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    assert _report(3, ok, f"max relative error {worst:.2e} (<1e-6), {elapsed:.1f}s (<10s)")


def test_criterion_04_hodge_suite():
    t0 = time.time()
    rng = np.random.default_rng(104)
    from torusgl.hodge import green, harmonic_projection, hodge_decompose, solve_london, solve_poisson

    worst = 0.0
    for geom in (
        tg.TorusGeometry((12, 12), (1.0, 1.0)),
        tg.TorusGeometry((6, 6, 6), (1.0, 1.0, 1.0)),
    ):
        n = geom.dim
        for k in range(n + 1):
            for _ in range(200):
                w = random_cochain(geom, k, rng)
                nw = norm(w)
                parts = hodge_decompose(w)
                worst = max(worst, norm(parts.reconstruct() - w) / nw)
                terms = [parts.harmonic]
                if parts.exact_potential is not None:
                    terms.append(exterior_derivative(parts.exact_potential))
                if parts.coexact_potential is not None:
                    terms.append(codifferential(parts.coexact_potential))
                for i, t1 in enumerate(terms):
                    for t2 in terms[i + 1:]:
                        worst = max(worst, abs(inner_product(t1, t2)) / nw**2)
            w = random_cochain(geom, k, rng)
            v = solve_london(w)
            worst = max(worst, norm(-1.0 * laplacian(v) + v - w) / norm(w))
            mf = w - harmonic_projection(w)
            vp = solve_poisson(mf)
            worst = max(worst, norm(-1.0 * laplacian(vp) - mf) / max(norm(mf), 1e-300))
            gw = green(w)
            worst = max(
                worst,
                norm(laplacian(gw) - (w - harmonic_projection(w))) / norm(w),
            )
    # eigenmode closed forms
    from test_hodge import fourier_mode

    geom = tg.TorusGeometry((12, 12), (1.0, 1.0))
    mode, lam = fourier_mode(geom, 1, (2, 3))
    worst = max(worst, norm(solve_london(mode) - (1.0 / (1.0 + lam)) * mode) / norm(mode))
    worst = max(worst, norm(solve_poisson(mode) - (1.0 / lam) * mode) / norm(mode))
    worst = max(worst, norm(green(mode) - (1.0 / -lam) * mode) / norm(mode))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 20.0
    assert _report(4, ok, f"worst residual {worst:.2e} (<=1e-10), {elapsed:.1f}s (<20s)")


def test_criterion_05_truncation():
    rng = np.random.default_rng(105)
    geom = tg.TorusGeometry((12, 12), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    violations = 0
    for _ in range(100):
        u = random_section(geom, rng, scale=1.5)
        A = tg.Cochain(geom, 1, rng.standard_normal(geom.shape(1)))
        eps = float(rng.uniform(0.1, 0.9))
        before = tg.g_energy(u, A, b, eps).total
        after = tg.g_energy(tg.truncate(u), A, b, eps).total
        if not after <= before:
            violations += 1
    ok = violations == 0
    assert _report(5, ok, f"{violations}/100 violations of exact energy non-increase")


def test_criterion_06_topology(min_t2_64, min_t3_28, sweep_quarter):
    checks = []
    # ansatz states
    geom2 = tg.TorusGeometry((32, 32), (1.0, 1.0))
    b2 = tg.build_background(geom2, [[0, 1], [-1, 0]])
    u, A = tg.vortex_ansatz(
        tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),)), b2, geom2, 0.1
    )
    checks.append(np.array_equal(tg.chern_pairing(tg.vorticity(u, A, b2)), b2.chern))
    geom3 = tg.TorusGeometry((16, 16, 16), (1.0, 1.0, 1.0))
    b3 = tg.build_background(geom3, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    u3, A3 = tg.vortex_ansatz(
        tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=2), b3, geom3, 0.1
    )
    checks.append(np.array_equal(tg.chern_pairing(tg.vorticity(u3, A3, b3)), b3.chern))
    # every converged minimizer
    for geom, b, eps, res in (min_t2_64, min_t3_28):
        assert res.converged
        v = tg.vorticity(res.section, res.gauge_field, b)
        checks.append(np.array_equal(tg.chern_pairing(v), b.chern))
    for rec in sweep_quarter:
        assert rec.result.converged
        checks.append(int(rec.chern_pairing[0, 1]) == 1)
    # trivial bundle: total winding 0
    geom_t = tg.TorusGeometry((16, 16), (1.0, 1.0))
    bt = tg.build_background(geom_t, [[0, 0], [0, 0]])
    from torusgl.solve import default_initial_pair

    u0, A0 = default_initial_pair(bt, 0.3, seed=11)
    res_t = tg.minimize(u0, A0, bt, 0.3, tg.MinimizeOptions(tol=1e-8, max_iter=50000))
    vt = tg.vorticity(res_t.section, res_t.gauge_field, bt)
    checks.append(vt.total() == 0)
    ok = all(checks)
    assert _report(6, ok, f"{sum(checks)}/{len(checks)} integer pairings exact")


def test_criterion_07_london_equation(min_t2_64, min_t3_28):
    t0 = time.time()
    details = []
    ok = True
    for geom, b, eps, res in (min_t2_64, min_t3_28):
        assert res.converged and res.grad_norm <= 1e-8
        F = tg.curvature(res.gauge_field, b)
        J = tg.jacobian(res.section, res.gauge_field, b)
        resid = norm(-1.0 * laplacian(F) + F - 2.0 * J) / (1.0 + norm(F))
        repro = norm(tg.solve_london(2.0 * J) - F) / (1.0 + norm(F))
        details.append(f"T{geom.dim}: residual {resid:.2e}, solve_london repro {repro:.2e}")
        ok = ok and resid <= 1e-6 and repro <= 1e-6
    assert _report(7, ok, "; ".join(details) + f" (both <=1e-6), {time.time()-t0:.1f}s")


def test_criterion_08_gamma_scaling_t2(sweep_quarter):
    ratios = [r.g_over_logeps / PI for r in sweep_quarter]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    in_band = all(0.7 <= r <= 2.0 for r in ratios)
    final_band = 0.7 <= ratios[-1] <= 1.5
    detail = (
        "G/|log eps| in pi units: "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + f"; strictly decreasing: {decreasing}; all in [0.7, 2.0]: {in_band}; "
        f"final in [0.7, 1.5]: {final_band}"
    )
    ok = decreasing and in_band and final_band
    _report(8, ok, detail)
    assert decreasing, "strict decrease failed: " + detail
    assert in_band and final_band, (
        "energy band unattainable: the flux through the torus is fixed at 2 pi, so "
        "the curvature term >= 2 pi^2 = 6.28 pi by Cauchy-Schwarz and "
        "G/|log eps| >= 6.28 pi / |log eps| > 2 pi for every listed epsilon. " + detail
    )


def test_criterion_09_gamma_geometry_t3(min_t3_28):
    geom, b, eps, res = min_t3_28
    assert res.converged
    v = tg.vorticity(res.section, res.gauge_field, b)
    loop_ok, length = single_dual_loop(v)
    mass = tg.vortex_mass(v)
    mass_ok = abs(mass - 1.0) <= 0.2
    ratio = res.energy.total / abs(math.log(eps)) / PI
    band_ok = 0.7 <= ratio <= 2.0
    detail = (
        f"single closed dual loop: {loop_ok} (length {length}), mass {mass} "
        f"(within 20% of 1.0: {mass_ok}), G/|log eps| = {ratio:.3f} pi "
        f"(in [0.7, 2.0]: {band_ok})"
    )
    ok = loop_ok and mass_ok and band_ok
    _report(9, ok, detail)
    assert loop_ok and mass_ok, detail
    assert band_ok, (
        "energy band unattainable: curvature >= 2 pi^2 = 6.28 pi by Cauchy-Schwarz "
        "(fixed 2 pi flux through every (0,1)-slice), so G/|log 0.08| >= 2.49 pi "
        "before counting the kinetic term. " + detail
    )


def test_criterion_10_upper_bound():
    t0 = time.time()
    eps = 0.05
    results = []
    geom2 = tg.TorusGeometry((80, 80), (1.0, 1.0))
    b2 = tg.build_background(geom2, [[0, 1], [-1, 0]])
    u2, A2 = tg.vortex_ansatz(
        tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),)), b2, geom2, eps
    )
    m2 = tg.vortex_mass(tg.vorticity(u2, A2, b2))
    r2 = tg.e_energy(u2, b2, eps).total / abs(math.log(eps))
    results.append(("T2 point", r2, m2, r2 <= 1.5 * PI * m2))

    geom3 = tg.TorusGeometry((80, 80, 80), (1.0, 1.0, 1.0))
    b3 = tg.build_background(geom3, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    u3, A3 = tg.vortex_ansatz(
        tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=2), b3, geom3, eps
    )
    m3 = tg.vortex_mass(tg.vorticity(u3, A3, b3))
    r3 = tg.e_energy(u3, b3, eps).total / abs(math.log(eps))
    results.append(("T3 line", r3, m3, r3 <= 1.5 * PI * m3))

    ok = all(okk for _, _, _, okk in results)
    detail = "; ".join(
        f"{name}: E/|log eps| = {r/PI:.3f} pi, mass {m}, bound 1.5 pi mass: {okk}"
        for name, r, m, okk in results
    )
    assert _report(10, ok, detail + f", {time.time()-t0:.1f}s")


def test_criterion_11_optimised_pair(sweep_quarter):
    rng = np.random.default_rng(111)
    geom = tg.TorusGeometry((12, 12), (1.0, 1.0))
    b = tg.build_background(geom, [[0, 1], [-1, 0]])
    violations = 0
    for _ in range(50):
        u = random_section(geom, rng, scale=1.4)
        A = tg.Cochain(geom, 1, rng.standard_normal(geom.shape(1)))
        eps = float(rng.uniform(0.15, 0.6))
        before = tg.g_energy(u, A, b, eps).total
        v, B = tg.optimised_pair(u, A, b, tg.MinimizeOptions(tol=1e-6, max_iter=30000))
        if not tg.g_energy(v, B, b, eps).total <= before:
            violations += 1

    # H^-1 Jacobian displacement along the sweep
    disp_ok = True
    disps = []
    for rec in sweep_quarter[:3]:
        bb = tg.build_background(rec.geom, [[0, 1], [-1, 0]])
        u, A = rec.result.section, rec.result.gauge_field
        v, B = tg.optimised_pair(u, A, bb, tg.MinimizeOptions(tol=1e-6, max_iter=20000))
        disp = tg.h_minus1_distance(tg.jacobian(u, A, bb), tg.jacobian(v, B, bb))
        bound = 10.0 * rec.epsilon * abs(math.log(rec.epsilon)) * (1.0 + norm(A))
        disps.append((rec.epsilon, disp, bound))
        disp_ok = disp_ok and disp <= bound
    ok = violations == 0 and disp_ok
    detail = (
        f"{violations}/50 energy-increase violations; displacements "
        + ", ".join(f"eps={e}: {d:.3e} (bound {bd:.2f})" for e, d, bd in disps)
    )
    assert _report(11, ok, detail)


def test_criterion_12_determinism(tmp_path):
    cfg = f"""
[geometry]
dim = 2
sites = 12 12
lengths = 1 1

[bundle]
chern_01 = 1

[run]
epsilons = 0.3 0.25
seed = 42
out = {tmp_path / 'out'}

[optimizer]
tol = 1e-8
max_iter = 50000

[ansatz]
windings = 1
positions = 0.5 0.5
"""
    path = tmp_path / "det.cfg"
    path.write_text(cfg)
    tables = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "torusgl.cli", "sweep", "--config", str(path)],
            capture_output=True,
            timeout=590,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        tables.append(proc.stdout)
    ok = tables[0] == tables[1]
    assert _report(12, ok, f"two runs byte-identical: {ok} ({len(tables[0])} bytes)")
