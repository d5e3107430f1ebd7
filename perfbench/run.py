"""Benchmark of tzcode: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload plain-scan --seed 1 --seconds 30 [--trace 1]

Run from the repository root; the package is imported from ./src.  By
default (--trace 0) the run times set-up and a closed loop of trials with no
wrapper installed and reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 it traces set-up and half of the loop and reports the
per-layer metrics.  Both check every trial against its plant and the route
every decode must take.  Times are raw wall times of the calls made while
the host ran at full speed (speed.py).  The table on stdout is followed by
one JSON line; a self-describing record (and the spans) go to
perfbench/out/.  Exit code 0 means every check passed, 1 a failed check, 2
a missing package or bad BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from layers import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# numpy reads these when it is imported; the load stays single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def record_stem(workload: str, trace: int) -> str:
    """File stem of a run's record and spans under OUT; the latest run wins."""
    return f"{workload}-trace{trace}"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced pass and the per-layer metrics (default 0)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_tzcode():
    """Import tzcode from this checkout's src/, never from anywhere else."""
    if not (SRC / "tzcode" / "__init__.py").is_file():
        raise ImportError(f"no tzcode package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tzcode

    if Path(tzcode.__file__).resolve().parent != SRC / "tzcode":
        raise ImportError(f"tzcode was imported from {tzcode.__file__}, not {SRC}")
    return tzcode


def load_spec(end_to_end) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        {w["name"] for w in spec["workloads"]},
    )
    measured = (end_to_end, {k: unit for k, (unit, _) in LAYER_METRICS.items()}, set(WORKLOADS))
    if listed != measured:
        raise ValueError("BENCHMARK.json does not list the workloads and metrics measured here")
    return spec


def git_commit(root: Path):
    """HEAD of the checkout, read from .git directly; None outside a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np) -> dict:
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
        "load": "closed loop, one client, one thread",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        tz = load_tzcode()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # numpy, and the modules that import it, only after THREAD_VARS are set
    import numpy as np

    from loadgen import CheckFailed
    from measure import END_TO_END, measure

    try:
        spec = load_spec(END_TO_END)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"perfbench: bad BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    try:
        res, attempted, failures, tracer, probe = measure(tz, w, args.seed, args.seconds,
                                                          bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1

    units = ({k: (u, None) for k, u in END_TO_END.items()} if not args.trace
             else LAYER_METRICS)
    failed = sum(failures.values())
    metrics = {}
    for name, (unit, moves) in units.items():
        entry = {"value": res.values[name], "unit": unit, "samples": res.samples[name]}
        if name in res.full_speed:
            entry["full_speed"] = res.full_speed[name]
        if moves:
            entry["moves"] = moves
        metrics[name] = entry
    deciles = statistics.quantiles(probe.readings, n=10)
    record = {
        "workload": w.name,
        "why": next(x["why"] for x in spec["workloads"] if x["name"] == w.name),
        "params": w.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(np),
        # the host's load during the run: a busy host reads higher
        "speed_kernel_ms": {"min": min(probe.readings) * 1e3, "p10": deciles[0] * 1e3,
                            "p50": statistics.median(probe.readings) * 1e3,
                            "p90": deciles[-1] * 1e3},
        "timed_trials": res.trials,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = record_stem(w.name, args.trace)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    tracer.write(OUT / f"{stem}-spans.jsonl")

    print(f"{w.name}  seed={args.seed}  {w.params()}  trials={attempted}  failed={failed}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
