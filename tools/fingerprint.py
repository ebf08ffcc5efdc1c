"""Bit-level fingerprint of the solver and the command line.

    python3 tools/fingerprint.py > fingerprint.txt

Run from the root of a source checkout.  First, for one seeded random
cochain of every degree on the 12^2 and 6^3 lattices of acceptance
criterion 4, prints sha1 digests of `green`, `solve_london`, `solve_poisson`
on its mean-free part and the three `hodge_decompose` parts.  For one seeded
random state (u, A) and step (du, dA) on the 28^3 and 160^2 lattices it
prints the sha1 of both parts of `linearize(...).gradient()` and each part
of `LocalModel.change(du, dA)` as a float hex string, then the sha1 of the
state's `supercurrent`, `jacobian`, `energy_density` and `vorticity`
windings and the float hex of its `london_residual` and of each `g_energy`
part, so a kernel or observable rewrite shows directly, not only through
solve trajectories.  The same observables follow for a seeded random state
on the 256^2 and 40^3 lattices, whose phase factors `bundle._cis` splits
over the CPUs, with the sha1 of that state after `apply_gauge` by a seeded
random phase and after `coulomb_fix`, once as it is and once with a
winding added to each mean of A, which `coulomb_fix` must then remove.
The same gauge line follows for a seeded random state on 16^2, where numpy
elides no temporary, so that it pins the order in which `apply_gauge`
multiplies the phase factor into u.
On the same two lattices it prints the sha1 of `solve_london` of a seeded
random 1-cochain and of one apply of the `minimize` preconditioner, whose
component rows `hodge._spectral_multiply` splits over the CPUs.
For the bundles of `PLAQUETTE_BUNDLES` it prints the sha1 of
`holonomy_residuals`, and for one seeded random state on each the sha1 of
`vorticity_density`, `sparse_windings` and `flux_pairing` of both the
curvature and the vorticity density; on the T^2 bundle the same follow for
its centered vortex ansatz.
Then, for each
test fixture solve (tests/conftest.py) and each case that reaches the slide
of the Newton loop, prints the evaluation count, the stop reason, the energy
as a float hex string and sha1 digests of the final (u, A) and of its
vorticity windings; the same line follows for the solves of `BUDGET_CUTS`,
whose budgets run out while a slide settles.
Then runs `torusgl minimize`, `ansatz` and `sweep` on one T^2 quarter-rule
config and two T^3 line configs, one along axis 2 and one along axis 0, and
prints the sha1 of every file they write and, for each `.field` file, of the
values `read_field` returns.  The file sha1 pins the dump's bytes (its text
header line and `.npy` body), the `read_field` sha1 the values alone.
Last, the same solve line for the T^4 crossing class c_01 = c_23 = 1 on
12^4 at eps 0.2, started from the product of two copies of the T^2 12^2
minimizer, one in the (0,1) plane and one in the (2,3) plane (the
`t4_product_start` of tests/conftest.py, which the T^4 tests also use).
Then the same solve line for two classes with several nonzero Chern
entries, each started from `default_initial_pair`'s product of per-entry
ansatze: (c_01, c_02, c_12) = (1, 2, -1) on 18 x 14 x 10 with lengths
(1, 1.3, 2) at eps 0.45, and the diagonal class c_02 = c_12 = 1 on the
unit 16^3 at eps 0.2.
Last, for the seeded random states of the 256^2 and 40^3 observables
lines, drawn again from their seed, it prints the sha1 of the seven
observables in the order of perfbench's observe-large body (`g_energy`,
`g_gradient`, `supercurrent`, `jacobian`, `vorticity`, `london_residual`,
`energy_density`), then again after adding 1/8 in place to A's first
component, so links kept for the state before the change would show.
Finally, the observables line follows for a seeded random state on
50 x 36 x 36, whose per-site kernels split by axis-0 rows of 1296 entries,
not a whole number of 64-entry blocks.
Two checkouts whose outputs agree byte for byte compute the same numbers, so
a refactor that claims bit-identical results shows an empty diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import torusgl as tg  # noqa: E402
from torusgl import cli  # noqa: E402
from torusgl.fields import linearize  # noqa: E402
from torusgl.solve import _phase_aligned_preconditioner, default_initial_pair  # noqa: E402
from conftest import t4_product_start  # noqa: E402

CHERN_T2 = [[0, 1], [-1, 0]]
CHERN_T3 = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
OPTS = tg.MinimizeOptions(tol=1e-8, max_iter=200000)

# the unit-torus lattices of acceptance criterion 4, and the seed of their
# random cochains
HODGE_SITES = ((12, 12), (6, 6, 6))
HODGE_SEED = 104

# the lattices, seed and epsilon of the kernel digests
KERNEL_SITES = ((28, 28, 28), (160, 160))
KERNEL_SEED = 22
KERNEL_EPS = 0.1

# lattices with at least 2 * lattice._SPLIT_ENTRIES entries per axis, the
# seed of their states and gauge phases, and that of their spectral inputs
SPLIT_SITES = ((256, 256), (40, 40, 40))
SPLIT_SEED = 24
SPECTRAL_SEED = 26

# a lattice split by axis-0 rows that are not whole 64-entry blocks, and the
# seed of its state
ROW_SPLIT_SITES = (50, 36, 36)
ROW_SPLIT_SEED = 28

# a lattice below numpy's temporary elision size (128^2 complex sites), and
# the seed of its state and gauge phase
GAUGE_SITES = (16, 16)
GAUGE_SEED = 27

# (sites, lengths, chern) of the per-plaquette digests: the anisotropic T^3
# bundle of tests/conftest.py, with three nonzero Chern numbers, and a T^2
# bundle with c = 3, and the seed of their states
PLAQUETTE_BUNDLES = (
    ((9, 7, 5), (1.0, 1.3, 2.0), [[0, 1, 2], [-1, 0, -1], [-2, 1, 0]]),
    ((12, 10), (1.0, 1.0), [[0, 3], [-3, 0]]),
)
PLAQUETTE_SEED = 25

# (label, sites, eps, core position): the single solves.  min_t2_64 and
# min_t3_28 are the conftest fixtures; the other three reach the slide.
SOLVES = (
    ("min_t2_64", (64, 64), 0.1, (0.5, 0.5)),
    ("min_t3_28", (28, 28, 28), 0.08, (0.5, 0.5)),
    ("slide_t3_12", (12, 12, 12), 0.15, (0.52, 0.51)),
    ("slide_t3_20", (20, 20, 20), 0.08, (0.5, 0.5)),
    ("slide_t2_32", (32, 32), 0.0625, (0.31, 0.67)),
)

# max_iter of the solves cut while a slide settles: slide_t2_32 slides once,
# from 77 evaluations until it is kept at 115, and a budget of 90 ends it
# undone, one of 100 kept
BUDGET_CUTS = {"slide_t2_32": (90, 100)}

# lattice side and epsilon of the T^4 crossing-class solve
CROSSING_SITES = 12
CROSSING_EPS = 0.2

# (label, sites, lengths, chern, eps): the solves from the default start of
# a class with several nonzero Chern entries
DEFAULT_START_SOLVES = (
    ("default_t3_aniso", (18, 14, 10), (1.0, 1.3, 2.0), [[0, 1, 2], [-1, 0, -1], [-2, 1, 0]], 0.45),
    ("diagonal_t3_16", (16, 16, 16), (1.0, 1.0, 1.0), [[0, 0, 1], [0, 0, 1], [-1, -1, 0]], 0.2),
)

# (label, sites, eps list, mesh rule): the conftest sweep fixtures
SWEEPS = (
    ("sweep_quarter", (20, 20), (0.2, 0.1, 0.05, 0.025), "quarter"),
    ("sweep_fixed80", (80, 80), (0.2, 0.1, 0.05), "fixed"),
)

CONFIGS = {
    "t2_quarter": (
        "[geometry]\ndim = 2\nsites = 20 20\nlengths = 1 1\n\n[bundle]\nchern_01 = 1\n\n"
        "[run]\nepsilons = 0.2 0.1\nseed = 3\nmesh_rule = quarter\nout = {out}\n\n"
        "[optimizer]\ntol = 1e-8\nmax_iter = 200000\n\n"
        "[ansatz]\nwindings = 1\npositions = 0.5 0.5\n"
    ),
    "t3_line": (
        "[geometry]\ndim = 3\nsites = 14 14 14\nlengths = 1 1 1\n\n[bundle]\nchern_01 = 1\n\n"
        "[run]\nepsilons = 0.2 0.15\nseed = 3\nout = {out}\n\n"
        "[optimizer]\ntol = 1e-8\nmax_iter = 200000\n\n"
        "[ansatz]\nwindings = 1\npositions = 0.52 0.51\naxis = 2\n"
    ),
    "t3_line_axis0": (
        "[geometry]\ndim = 3\nsites = 14 14 14\nlengths = 1 1 1\n\n[bundle]\nchern_12 = 1\n\n"
        "[run]\nepsilons = 0.2 0.15\nseed = 3\nout = {out}\n\n"
        "[optimizer]\ntol = 1e-8\nmax_iter = 200000\n\n"
        "[ansatz]\nwindings = 1\npositions = 0.52 0.51\naxis = 0\n"
    ),
}


def sha1(*arrays) -> str:
    digest = hashlib.sha1()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


def line(label: str, res, b) -> str:
    u, A = res.section, res.gauge_field
    windings = tg.vorticity(u, A, b).windings
    return (f"{label} evaluations {res.iterations} stop {res.stop_reason} "
            f"energy {res.energy.total.hex()} state {sha1(u.values, A.values)} "
            f"windings {sha1(windings)}")


def bundle_for(sites):
    geom = tg.TorusGeometry(sites, (1.0,) * len(sites))
    return tg.build_background(geom, CHERN_T2 if len(sites) == 2 else CHERN_T3)


def observables(u, A, b) -> str:
    energy = tg.g_energy(u, A, b, KERNEL_EPS)
    parts = " ".join(f"{name} {getattr(energy, name).hex()}"
                     for name in ("kinetic", "potential", "curvature", "total"))
    return (f"observables {'x'.join(map(str, b.geom.sites))} "
            f"supercurrent {sha1(tg.supercurrent(u, A, b).values)} "
            f"jacobian {sha1(tg.jacobian(u, A, b).values)} "
            f"energy_density {sha1(tg.energy_density(u, A, b, KERNEL_EPS).values)} "
            f"windings {sha1(tg.vorticity(u, A, b).windings)} "
            f"london_residual {tg.london_residual(u, A, b).hex()} energy {parts}")


def gauge(u, A, theta) -> str:
    geom = theta.geom
    u2, A2 = tg.apply_gauge(u, A, theta)
    wound = tg.Cochain(geom, 1, [a + 2.0 * np.pi * (k + 1) / L
                                 for k, (a, L) in enumerate(zip(A2.values, geom.lengths))])
    fixed = [tg.coulomb_fix(u2, a) for a in (A2, wound)]
    return (f"gauge {'x'.join(map(str, geom.sites))} apply_gauge {sha1(u2.values, A2.values)} "
            + " ".join(f"coulomb_fix{tag} {sha1(u3.values, A3.values, phase.theta)}"
                       for tag, (u3, A3, phase) in zip(("", "_wound"), fixed)))


def observe_large(u, A, b) -> str:
    """sha1 of the seven observables of perfbench's observe-large body, in its order."""
    energy = tg.g_energy(u, A, b, KERNEL_EPS)
    grad_u, grad_A = tg.g_gradient(u, A, b, KERNEL_EPS)
    parts = [np.array([energy.kinetic, energy.potential, energy.curvature, energy.total]),
             grad_u, grad_A.values, tg.supercurrent(u, A, b).values, tg.jacobian(u, A, b).values,
             tg.vorticity(u, A, b).windings, np.array([tg.london_residual(u, A, b)]),
             tg.energy_density(u, A, b, KERNEL_EPS).values]
    return sha1(*parts)


def plaquettes(u, A, b) -> str:
    v = tg.vorticity(u, A, b)
    density = tg.vorticity_density(v)
    return (f"vorticity_density {sha1(density.values)} "
            f"sparse_windings {sha1(np.array(tg.vortex.sparse_windings(v)))} "
            f"flux_pairing {sha1(tg.flux_pairing(tg.curvature(A, b)), tg.flux_pairing(density))}")


def main() -> None:
    rng = np.random.default_rng(HODGE_SEED)
    for sites in HODGE_SITES:
        geom = tg.TorusGeometry(sites, (1.0,) * len(sites))
        for k in range(geom.dim + 1):
            w = tg.random_cochain(geom, k, rng)
            parts = tg.hodge_decompose(w)
            results = {
                "green": tg.green(w),
                "london": tg.solve_london(w),
                "poisson": tg.solve_poisson(w - tg.harmonic_projection(w)),
                "exact": parts.exact_potential,
                "coexact": parts.coexact_potential,
                "harmonic": parts.harmonic,
            }
            digests = " ".join(f"{name} {'none' if c is None else sha1(c.values)}"
                               for name, c in results.items())
            print(f"hodge {'x'.join(map(str, sites))} degree {k} {digests}", flush=True)

    rng = np.random.default_rng(KERNEL_SEED)
    for sites in KERNEL_SITES:
        b = bundle_for(sites)
        geom = b.geom
        u, du = (tg.Section(geom, rng.standard_normal(sites) + 1j * rng.standard_normal(sites))
                 for _ in range(2))
        A, dA = (tg.random_cochain(geom, 1, rng) for _ in range(2))
        model = linearize(u, A, b, KERNEL_EPS)
        grad_u, grad_A = model.gradient()
        change = model.change(du, dA)
        parts = " ".join(f"{name} {getattr(change, name).hex()}"
                         for name in ("kinetic", "potential", "curvature", "total"))
        print(f"kernel {'x'.join(map(str, sites))} gradient_u {sha1(grad_u)} "
              f"gradient_A {sha1(grad_A.values)} change {parts}", flush=True)
        print(observables(u, A, b), flush=True)

    rng = np.random.default_rng(SPLIT_SEED)
    for sites in SPLIT_SITES:
        b = bundle_for(sites)
        geom = b.geom
        u = tg.Section(geom, rng.standard_normal(sites) + 1j * rng.standard_normal(sites))
        A = tg.random_cochain(geom, 1, rng)
        print(observables(u, A, b), flush=True)
        print(gauge(u, A, tg.GaugePhase(geom, rng.uniform(-np.pi, np.pi, sites))), flush=True)

    rng = np.random.default_rng(GAUGE_SEED)
    geom = tg.TorusGeometry(GAUGE_SITES, (1.0, 1.0))
    u = tg.Section(geom, rng.standard_normal(GAUGE_SITES) + 1j * rng.standard_normal(GAUGE_SITES))
    A = tg.random_cochain(geom, 1, rng)
    print(gauge(u, A, tg.GaugePhase(geom, rng.uniform(-np.pi, np.pi, GAUGE_SITES))), flush=True)

    rng = np.random.default_rng(SPECTRAL_SEED)
    for sites in SPLIT_SITES:
        geom = tg.TorusGeometry(sites, (1.0,) * len(sites))
        w = tg.random_cochain(geom, 1, rng)
        u = rng.standard_normal(sites) + 1j * rng.standard_normal(sites)
        v = rng.standard_normal((2 + geom.dim) * geom.n_sites)
        precondition = _phase_aligned_preconditioner(geom, KERNEL_EPS)(u)
        print(f"spectral {'x'.join(map(str, sites))} solve_london {sha1(tg.solve_london(w).values)} "
              f"precondition {sha1(precondition(v))}", flush=True)

    rng = np.random.default_rng(PLAQUETTE_SEED)
    for sites, lengths, chern in PLAQUETTE_BUNDLES:
        b = tg.build_background(tg.TorusGeometry(sites, lengths), chern)
        u = tg.Section(b.geom, rng.standard_normal(sites) + 1j * rng.standard_normal(sites))
        A = tg.random_cochain(b.geom, 1, rng)
        print(f"plaquettes {'x'.join(map(str, sites))} "
              f"holonomy_residuals {sha1(tg.bundle.holonomy_residuals(b))} {plaquettes(u, A, b)}",
              flush=True)
        if b.geom.dim == 2:
            u, A = default_initial_pair(b, KERNEL_EPS, PLAQUETTE_SEED)
            print(f"plaquettes {'x'.join(map(str, sites))} ansatz {sha1(u.values)} "
                  f"{plaquettes(u, A, b)}", flush=True)

    for label, sites, eps, position in SOLVES:
        geom = tg.TorusGeometry(sites, (1.0,) * len(sites))
        b = tg.build_background(geom, CHERN_T2 if len(sites) == 2 else CHERN_T3)
        spec = tg.AnsatzSpec(windings=(1,), positions=(position,),
                             axis=2 if len(sites) == 3 else None)
        u, A = tg.vortex_ansatz(spec, b, geom, eps=eps)
        print(line(label, tg.minimize(u, A, b, eps, OPTS), b), flush=True)
        for cut in BUDGET_CUTS.get(label, ()):
            res = tg.minimize(u, A, b, eps, tg.MinimizeOptions(tol=OPTS.tol, max_iter=cut))
            print(line(f"{label}[max_iter={cut}]", res, b), flush=True)

    for label, sites, eps_list, rule in SWEEPS:
        geom = tg.TorusGeometry(sites, (1.0, 1.0))
        b = tg.build_background(geom, CHERN_T2)
        spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
        records = tg.epsilon_sweep(spec, b, geom, list(eps_list), OPTS, mesh_rule=rule, seed=3)
        for r in records:
            level_bundle = tg.build_background(r.geom, CHERN_T2)
            print(line(f"{label}[{r.epsilon}]", r.result, level_bundle), flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CONFIGS.items():
            for command in ("minimize", "ansatz", "sweep"):
                out = Path(tmp) / name / command
                config = Path(tmp) / f"{name}-{command}.cfg"
                config.write_text(text.format(out=out))
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main([command, "--config", str(config)])
                print(f"cli {name} {command} exit {status}")
                for path in sorted(out.iterdir()):
                    digest = hashlib.sha1(path.read_bytes()).hexdigest()
                    print(f"cli {name} {command} {path.name} {digest}", flush=True)
                    if path.suffix == ".field":
                        print(f"cli {name} {command} {path.name} read_field "
                              f"{sha1(tg.read_field(path)[2])}", flush=True)

    _, b, u, A = t4_product_start(CROSSING_SITES, CROSSING_EPS, [(0, 1), (2, 3)], OPTS)
    print(line("crossing_t4_12", tg.minimize(u, A, b, CROSSING_EPS, OPTS), b), flush=True)

    for label, sites, lengths, chern, eps in DEFAULT_START_SOLVES:
        b = tg.build_background(tg.TorusGeometry(sites, lengths), chern)
        u, A = default_initial_pair(b, eps, 0)
        print(line(label, tg.minimize(u, A, b, eps, OPTS), b), flush=True)

    rng = np.random.default_rng(SPLIT_SEED)
    for sites in SPLIT_SITES:
        b = bundle_for(sites)
        u = tg.Section(b.geom, rng.standard_normal(sites) + 1j * rng.standard_normal(sites))
        A = tg.random_cochain(b.geom, 1, rng)
        rng.uniform(-np.pi, np.pi, sites)  # the gauge phase of the observables lines
        before = observe_large(u, A, b)
        A.values[0] += 0.125
        print(f"observe_large {'x'.join(map(str, sites))} {before} "
              f"after_in_place_change {observe_large(u, A, b)}", flush=True)

    rng = np.random.default_rng(ROW_SPLIT_SEED)
    b = bundle_for(ROW_SPLIT_SITES)
    u = tg.Section(b.geom, rng.standard_normal(ROW_SPLIT_SITES) + 1j * rng.standard_normal(ROW_SPLIT_SITES))
    print(observables(u, tg.random_cochain(b.geom, 1, rng), b), flush=True)


if __name__ == "__main__":
    main()
