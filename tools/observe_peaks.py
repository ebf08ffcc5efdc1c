"""Peak memory of each step of perfbench's observe-large pass.

    python3 tools/observe_peaks.py [--seed 7] [--passes 2]
    taskset -c 0 python3 tools/observe_peaks.py

Run from the root of a source checkout.  Builds the observe-large inputs as
perfbench/workloads.py does and runs passes of `ObserveLarge.body`, one
lattice at a time, keeping each lattice's results as the body does and
dropping a pass's results before the next, as perfbench's worker does.  Every
public torusgl function is replaced for the pass by a wrapper at each module
binding that holds it, as perfbench/layertrace.py replaces the traced ones.
For each top-level call (one the body makes itself, not one made inside
another wrapped call) it prints the pass, the lattice, the function, the tracemalloc
peak above the traced memory at the call's start and the process's
ru_maxrss once the call returns, both in MB.  The step after which ru_maxrss
rises last sets the resident high-water that perfbench reports as
`peak_rss_mb`; tracemalloc's own records add a little to it.  Steps of split
kernels have peaks that depend on thread timing; under `taskset -c 0`
nothing splits over threads and the peaks repeat.  Nothing under perfbench/
is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

MODULES = ("lattice", "bundle", "fields", "gauge", "hodge", "vortex", "solve", "cli")


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def wrap_all(record) -> list:
    """Replace every function of the modules' __all__ at each torusgl binding
    that holds it; returns (module, attribute, original) to restore."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "torusgl" or name.startswith("torusgl."))]
    depth, patched = [0], []

    def wrapper_of(name, original):
        def wrapper(*args, **kwargs):
            if depth[0]:
                return original(*args, **kwargs)
            depth[0] += 1
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1
                record(name, (tracemalloc.get_traced_memory()[1] - start) / 2**20, rss_mb())

        return wrapper

    for layer in MODULES:
        owner = importlib.import_module(f"torusgl.{layer}")
        for fname in owner.__all__:
            original = getattr(owner, fname)
            if isinstance(original, type) or not callable(original):
                continue
            wrapper = wrapper_of(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    return patched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="seed of the random gauge transformation")
    parser.add_argument("--passes", type=int, default=2, help="passes of the body, each printed")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = workloads.ObserveLarge()
        work.setup(args.seed, Path(tmp))
        print(f"after set-up: ru_maxrss {rss_mb():.1f} MB")
        inputs, rows, where = work.inputs, [], [0, ""]
        patched = wrap_all(lambda name, peak, rss: rows.append((*where, name, peak, rss)))
        tracemalloc.start()
        try:
            # the command line's own record goes to a buffer, not between the rows
            with contextlib.redirect_stdout(io.StringIO()):
                for where[0] in range(1, args.passes + 1):
                    kept = []  # the results of a pass, dropped before the next as perfbench drops them
                    for case_inputs in inputs:
                        where[1], work.inputs = case_inputs[0].label, [case_inputs]
                        kept.append(work.body())
                    del kept
        finally:
            tracemalloc.stop()
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)
            work.inputs = inputs
    print(f"{'pass':>4} {'lattice':<10} {'call':<26} {'peak MB':>8} {'ru_maxrss MB':>13}")
    for row in rows:
        print("{:>4} {:<10} {:<26} {:8.2f} {:13.1f}".format(*row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
