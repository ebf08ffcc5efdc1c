"""torusgl benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the workers import the package
from ./src.  Each workload runs in fresh child processes whose BLAS/OpenMP
thread variables are set in their environment before the interpreter
starts (nproc threads, or 1 for the -serial workload).

With --trace 0 the result line carries the end-to-end metrics:
  wall_s       median seconds of one pass of the workload body
  setup_s      median over SETUP_REPEATS fresh processes of the time from
               process start until the worker reports its inputs built:
               interpreter start, import and geometry/bundle/initial-state
               construction (process exit is not counted); half of them run
               before the workload process and half after, so the median
               spans the whole run
  peak_rss_mb  peak resident set of the workload process
With --trace 1 it carries the per-layer metrics of one traced pass, and
their tracing overhead (traced minus untraced pass).  The failure fraction
is failed/attempted of the result line: an operation (one solve, or one
observed lattice) fails when its solve ends unconverged or an output
check fails; `correct` is false when any output check fails.

The lines before the last are a human-readable report and one `env` JSON
line recording the machine, versions, thread settings and commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"

# workload -> BLAS threads (None = every core the process may use)
THREADS = {
    "sweep-quarter": None,
    "t3-line-28": None,
    "t3-line-28-serial": 1,
    "observe-large": None,
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 8
TIME_LIMIT_S = 170.0   # set-up processes before the workload, and the workload


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(workload: str) -> dict[str, str]:
    threads = THREADS[workload] or nproc()
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env.pop("TORUSGL_THREADS", None)
    return env


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine() -> dict:
    """CPU model, cache sizes, core count and the commit of this checkout."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    commit = None  # a checkout without .git records no commit
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"cpu": model, "caches": caches, "nproc": nproc(), "commit": commit}


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def time_setup(workload: str, seed: int, env: dict, repeats: int) -> list[float]:
    """Seconds from starting a worker until it prints that its inputs are built."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"{workload} set-up worker exited {proc.returncode}")
    return times


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = child_env(workload)
    start = time.perf_counter()
    setup = time_setup(workload, seed, env, SETUP_REPEATS // 2)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - start)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    setup += time_setup(workload, seed, env, SETUP_REPEATS - SETUP_REPEATS // 2)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_samples"] = setup
    report["setup_s"] = statistics.median(setup)
    report["threads"] = int(env["OPENBLAS_NUM_THREADS"])
    return report


def print_report(r: dict) -> None:
    passes = r["pass_s"]
    tail = tail_percentile(passes)
    tail_text = f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no tail percentile (< 11 samples)"
    print(f"[{r['workload']}] threads {r['threads']}  wall_s median {r['wall_s']:.4f} "
          f"over {len(passes)} pass(es), {tail_text}")
    print(f"[{r['workload']}] setup_s median {r['setup_s']:.4f} over {len(r['setup_samples'])}  "
          f"peak_rss_mb {r['peak_rss_mb']:.1f}  fail_frac {r['failed']}/{r['attempted']}"
          f" = {r['failed'] / r['attempted']:.3f}")
    print(f"[{r['workload']}] checks: {'all passed' if r['correct'] else 'FAILED'}"
          + (f"; unconverged: {', '.join(r['unconverged'])}" if r["unconverged"] else ""))
    for problem in r["problems"]:
        print(f"[{r['workload']}]   {problem}")
    if r["per_layer"] is not None:
        print(f"[{r['workload']}] trace overhead {r['per_layer']['trace.overhead_s']:.4f} s")


def metrics(r: dict, trace: int) -> dict:
    if trace:
        return {k: {"value": r["per_layer"][k], "unit": u} for k, u in metric_units().items()}
    return {
        "wall_s": {"value": r["wall_s"], "unit": "s"},
        "setup_s": {"value": r["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="torusgl benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(THREADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "torusgl" / "__init__.py").is_file():
        print(f"no torusgl sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = sorted(THREADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    env = machine()
    env.update({k: reports[0][k] for k in ("python", "numpy", "blas")})
    env["thread_env"] = {r["workload"]: r["thread_env"] for r in reports}
    env["seed"] = args.seed
    print("env " + json.dumps(env))
    for r in reports:
        print_report(r)

    if len(reports) == 1:
        out_metrics = metrics(reports[0], args.trace)
    else:
        out_metrics = {f"{r['workload']}.{k}": v
                       for r in reports for k, v in metrics(r, args.trace).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
