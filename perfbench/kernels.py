"""Per-kernel timings at the ROADMAP sizes 64^2, 256^2, 28^3 and 64^3.

    PYTHONPATH=src python3 perfbench/kernels.py [--repeats 5]

Prints the best of --repeats calls, in ms, of g_gradient, g_energy_hi, the
spectral preconditioner of the minimizer and covariant_difference on the
vortex ansatz of each lattice.  The BLAS thread count is whatever the
environment sets.  BASELINE.md compares these against the ROADMAP table.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import torusgl as tg  # noqa: E402
from torusgl import solve  # noqa: E402

LATTICES = (((64, 64), 0.1), ((256, 256), 0.05), ((28, 28, 28), 0.08), ((64, 64, 64), 0.08))


def best_ms(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    print(f"nproc {len(os.sched_getaffinity(0))}  OPENBLAS_NUM_THREADS "
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(f"{'lattice':>10} {'g_gradient':>11} {'g_energy_hi':>12} {'precond':>9} {'cov_diff':>9}")
    for sites, eps in LATTICES:
        dim = len(sites)
        geom = tg.TorusGeometry(sites, (1.0,) * dim)
        chern = [[0, 1], [-1, 0]] if dim == 2 else [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
        b = tg.build_background(geom, chern)
        spec = tg.AnsatzSpec(windings=(1,), positions=((0.5, 0.5),), axis=2 if dim == 3 else None)
        u, A = tg.vortex_ansatz(spec, b, geom, eps=eps)
        # private helper, timed only because the ROADMAP table lists it
        precond = solve._spectral_preconditioner(geom)
        x = solve._pack(u, A)
        row = [
            best_ms(lambda: tg.g_gradient(u, A, b, eps), args.repeats),
            best_ms(lambda: tg.fields.g_energy_hi(u, A, b, eps), args.repeats),
            best_ms(lambda: precond(x), args.repeats),
            best_ms(lambda: tg.covariant_difference(u, A, b), args.repeats),
        ]
        print(f"{'x'.join(map(str, sites)):>10} " + " ".join(f"{v:>11.3f}" for v in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
