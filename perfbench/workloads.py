"""Benchmark workloads, each run in a fresh child process by run.py.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workloads.py --workload NAME --seed N --setup-only

The solve workloads are the tier-1 conftest fixtures exactly (same lattice,
bundle, ansatz, epsilon and tolerance), so their numbers line up with the
test suite; --seed does not change them.  observe-large draws its random
gauge transformation from --seed.

With --setup-only the worker builds the inputs, prints `ready` and exits.
Otherwise the last line of standard output is one JSON object with the
pass times, the peak resident set, the outcome of the output checks and,
with --trace 1, the per-layer metrics of one traced pass.  Untraced passes
repeat until --seconds have gone by, so the run length sets their count.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from math import log, pi
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import torusgl as tg  # noqa: E402
from torusgl import cli, fields, gauge, lattice, solve, vortex  # noqa: E402

import layertrace  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())["energies"]
ENERGY_RTOL = 1e-9       # converged energies against the seed-commit values
GAUGE_RTOL = 1e-10       # energies before and after a gauge transformation
LONDON_TOL = 1e-6        # London residual of a converged state
TOL = 1e-8               # the conftest fixtures' gradient tolerance
MAX_ITER = 200000
CHERN_01 = [[0, 1], [-1, 0]]
CHERN_01_T3 = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]


# ----------------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------------

@dataclass
class Outcome:
    """Operations attempted and failed, and what the checks found.

    An operation fails when its solve ends unconverged or any of its output
    checks fails; only a failed check makes the outputs incorrect."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    unconverged: list[str] = field(default_factory=list)

    def record(self, name: str, failures: list[str], converged: bool = True) -> None:
        self.attempted += 1
        if failures or not converged:
            self.failed += 1
        if not converged:
            self.unconverged.append(name)
        self.problems.extend(f"{name}: {msg}" for msg in failures)

    @property
    def correct(self) -> bool:
        return not self.problems


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def energy_failures(label: str, value: float, reference: float, rtol: float) -> list[str]:
    err = relative_error(value, reference)
    if err <= rtol:
        return []
    return [f"{label} {value!r} differs from {reference!r} by {err:.3e} relative (> {rtol:g})"]


def chern_failures(pairing, chern) -> list[str]:
    if np.array_equal(np.asarray(pairing), np.asarray(chern)):
        return []
    return [f"chern pairing {np.asarray(pairing).tolist()} != bundle {np.asarray(chern).tolist()}"]


def mass_failures(mass: float) -> list[str]:
    return [] if mass == 1.0 else [f"vortex mass {mass!r} != 1"]


def topology_failures(v: vortex.VorticityField) -> list[str]:
    """One unit vortex on T^2, one closed unit dual loop on T^3."""
    if v.geom.dim == 2:
        return mass_failures(vortex.vortex_mass(v))
    single, length = vortex.single_dual_loop(v)
    return [] if single else [f"vorticity is not a single dual loop ({length} edges)"]


def solve_failures(res: solve.MinimizerResult, pairing, chern, topology: list[str],
                   reference: float) -> list[str]:
    """Checks on one minimizer result; London and energy only when converged."""
    out = chern_failures(pairing, chern) + topology
    if res.converged:
        if not res.london_residual <= LONDON_TOL:
            out.append(f"London residual {res.london_residual:.3e} > {LONDON_TOL:g}")
        out += energy_failures("energy", res.energy.total, reference, ENERGY_RTOL)
    return out


# ----------------------------------------------------------------------------
# workloads: setup() builds the inputs, body() is the timed work,
# check() judges body()'s outputs
# ----------------------------------------------------------------------------

class SweepQuarter:
    """conftest sweep_quarter: T^2, c = 1, eps 0.2 -> 0.025, h = eps/4."""

    epsilons = (0.2, 0.1, 0.05, 0.025)

    def setup(self, seed: int, workdir: Path) -> None:
        self.geom = tg.TorusGeometry((20, 20), (1.0, 1.0))
        self.b = tg.build_background(self.geom, CHERN_01)
        self.spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),))
        tg.vortex_ansatz(self.spec, self.b, self.geom, eps=self.epsilons[0])

    def body(self):
        return tg.epsilon_sweep(
            self.spec, self.b, self.geom, list(self.epsilons),
            tg.MinimizeOptions(tol=TOL, max_iter=MAX_ITER), mesh_rule="quarter", seed=3,
        )

    def check(self, records, outcome: Outcome) -> None:
        for rec, ref in zip(records, REFERENCE["sweep-quarter"]):
            failures = solve_failures(
                rec.result, rec.chern_pairing, CHERN_01, mass_failures(rec.vortex_mass), ref)
            outcome.record(f"eps={rec.epsilon:g}", failures, rec.result.converged)
        if len(records) != len(self.epsilons):
            outcome.record("sweep", [f"{len(records)} records for {len(self.epsilons)} epsilons"])


class T3Line28:
    """conftest min_t3_28: T^3 28^3, c_01 = 1, line along axis 2, eps 0.08."""

    eps = 0.08

    def setup(self, seed: int, workdir: Path) -> None:
        self.geom = tg.TorusGeometry((28, 28, 28), (1.0, 1.0, 1.0))
        self.b = tg.build_background(self.geom, CHERN_01_T3)
        spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=2)
        self.u, self.A = tg.vortex_ansatz(spec, self.b, self.geom, eps=self.eps)

    def body(self):
        return tg.minimize(self.u, self.A, self.b, self.eps, tg.MinimizeOptions(tol=TOL, max_iter=MAX_ITER))

    def check(self, res, outcome: Outcome) -> None:
        v = vortex.vorticity(res.section, res.gauge_field, self.b)
        failures = solve_failures(
            res, vortex.chern_pairing(v), CHERN_01_T3, topology_failures(v), REFERENCE["t3-line-28"])
        outcome.record("28^3", failures, res.converged)


@dataclass
class ObserveCase:
    label: str
    dim: int
    n: int
    eps: float


class ObserveLarge:
    """Single-shot analysis at the large kernel sizes: CLI ansatz dump, field
    read-back, a seeded gauge transformation and every observable."""

    cases = (ObserveCase("256x256", 2, 256, 0.05), ObserveCase("64x64x64", 3, 64, 0.08))
    config_seed = 7

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.inputs = []
        for case in self.cases:
            geom = tg.TorusGeometry((case.n,) * case.dim, (1.0,) * case.dim)
            chern = CHERN_01 if case.dim == 2 else CHERN_01_T3
            b = tg.build_background(geom, chern)
            ansatz = "positions = 0.5 0.5\n" + ("axis = 2\n" if case.dim == 3 else "")
            text = (
                f"[geometry]\ndim = {case.dim}\nsites = {' '.join([str(case.n)] * case.dim)}\n"
                f"lengths = {' '.join(['1'] * case.dim)}\n\n[bundle]\nchern_01 = 1\n\n"
                f"[run]\nepsilons = {case.eps!r}\nseed = {self.config_seed}\n"
                f"out = {workdir / case.label}\n\n[ansatz]\nwindings = 1\n{ansatz}"
            )
            config = workdir / f"{case.label}.cfg"
            config.write_text(text)
            theta = tg.GaugePhase(geom, rng.uniform(-pi, pi, geom.sites))
            spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),),
                                 axis=2 if case.dim == 3 else None)
            self.inputs.append((case, config, geom, b, theta, spec))

    def body(self):
        out = []
        for case, config, geom, b, theta, _ in self.inputs:
            outdir = self.workdir / case.label
            status = cli.main(["ansatz", "--config", str(config)])
            _, _, u_vals = lattice.read_field(outdir / "u.field")
            _, _, a_vals = lattice.read_field(outdir / "A.field")
            u = tg.Section(geom, u_vals[0] + 1j * u_vals[1])
            A = tg.Cochain(geom, 1, a_vals)
            u2, A2 = gauge.apply_gauge(u, A, theta)
            energy = fields.g_energy(u2, A2, b, case.eps)
            fields.g_gradient(u2, A2, b, case.eps)
            vortex.supercurrent(u2, A2, b)
            jac = vortex.jacobian(u2, A2, b)
            v = vortex.vorticity(u2, A2, b)
            pairing = vortex.chern_pairing(v)
            vortex.london_residual(u2, A2, b)
            mu = fields.energy_density(u2, A2, b, case.eps)
            u3, A3, _ = gauge.coulomb_fix(u2, A2)
            fixed = fields.g_energy(u3, A3, b, case.eps)
            dist = vortex.h_minus1_distance((1.0 / pi) * jac, vortex.vorticity_density(v))
            out.append(dict(
                status=status, u_vals=u_vals, a_vals=a_vals, energy=energy.total,
                fixed=fixed.total, v=v, pairing=pairing, mu=mu, dist=dist,
            ))
        return out

    def check(self, results, outcome: Outcome) -> None:
        for (case, _, geom, b, _, spec), r in zip(self.inputs, results):
            failures = [] if r["status"] == 0 else [f"cli ansatz exited {r['status']}"]
            u0, a0 = solve.default_initial_pair(b, case.eps, self.config_seed, spec)
            if not (np.array_equal(r["u_vals"], np.stack([u0.values.real, u0.values.imag]))
                    and np.array_equal(r["a_vals"], a0.values)):
                failures.append("read_field did not return the written fields bit for bit")
            printed = _read_record(self.workdir / case.label / "ansatz.txt")["total"]
            failures += energy_failures("gauged energy", r["energy"], printed, GAUGE_RTOL)
            failures += energy_failures("Coulomb-fixed energy", r["fixed"], printed, GAUGE_RTOL)
            integral = lattice.inner_product(r["mu"], tg.constant_cochain(geom, 0, 1.0))
            failures += energy_failures(
                "<mu, 1> |log eps|", integral * abs(log(case.eps)), r["energy"], GAUGE_RTOL)
            failures += energy_failures(
                "ansatz energy", r["energy"], REFERENCE["observe-large"][case.label], ENERGY_RTOL)
            failures += chern_failures(r["pairing"], b.chern) + topology_failures(r["v"])
            if not np.isfinite(r["dist"]):
                failures.append(f"H^-1 distance {r['dist']!r} is not finite")
            outcome.record(case.label, failures)


def _read_record(path: Path) -> dict[str, float]:
    """`key = value` lines as written by `torusgl ansatz`."""
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = float(value)
    return out


WORKLOADS = {
    "sweep-quarter": SweepQuarter,
    "t3-line-28": T3Line28,
    "t3-line-28-serial": T3Line28,
    "observe-large": ObserveLarge,
}


# ----------------------------------------------------------------------------
# child entry point
# ----------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_body(work):
    t0 = time.perf_counter()
    result = work.body()
    return time.perf_counter() - t0, result


def run(name: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    work = WORKLOADS[name]()
    work.setup(seed, workdir)
    outcome = Outcome()
    times = []
    per_layer = None
    if traced:
        # the traced pass runs first, cold like the first pass of an untraced
        # run; the untraced pass after it is warm, so the overhead it yields
        # is an upper bound
        with layertrace.Tracer() as tracer:
            traced_s, result = timed_body(work)
        work.check(result, outcome)
        del result
        per_layer = tracer.summary()
    start = time.perf_counter()
    while not times or (not traced and time.perf_counter() - start < seconds):
        elapsed, result = timed_body(work)
        times.append(elapsed)
        work.check(result, outcome)
        del result  # so the next pass does not add to the peak resident set
    if traced:
        per_layer["trace.overhead_s"] = traced_s - times[0]
    return {
        "workload": name,
        "pass_s": times,
        "wall_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": outcome.correct,
        "problems": outcome.problems,
        "unconverged": outcome.unconverged,
        "per_layer": per_layer,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_version(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "torusgl": str(Path(tg.__file__).resolve().parent.relative_to(ROOT)),
    }


def _blas_version() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        if args.setup_only:
            WORKLOADS[args.workload]().setup(args.seed, Path(tmp))
            print("ready", flush=True)
            return 0
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
