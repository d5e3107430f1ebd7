"""Run every workload untraced and traced, and add the results to the perf history.

    python3 perfbench/history.py --seed 1

Runs perfbench/run.py for each workload of BENCHMARK.json, once with
--trace 0 and once with --trace 1, each in a process of its own.  Prints
each run's table, then every end-to-end metric by name and unit for all
workloads, and writes the full records to
perfbench/history/BENCH_<commit>.json.  Exit code 0 when every run passed
its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT, ROOT, record_stem

HISTORY = Path(__file__).resolve().parent / "history"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    records = []
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
                   "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            print("\n".join(proc.stdout.splitlines()[:-1]))
            if proc.returncode != 0:
                ok = False
                print(f"{w['name']} --trace {trace} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                continue
            records.append(json.loads((OUT / f"{record_stem(w['name'], trace)}.json").read_text()))

    untraced = {r["workload"]: r["metrics"] for r in records if r["trace"] == 0}
    names = [w["name"] for w in spec["workloads"] if w["name"] in untraced]
    print("\nend to end (raw wall times of calls at full speed, see speed.py)")
    print(f"  {'metric':<16} {'unit':<6}" + "".join(f"{n:>16}" for n in names))
    for m in spec["end_to_end"]:
        row = "".join(f"{untraced[n][m['name']]['value']:>16.6g}" for n in names)
        print(f"  {m['name']:<16} {m['unit']:<6}{row}")

    if records:
        commit = records[0]["environment"]["commit"] or "unknown"
        HISTORY.mkdir(exist_ok=True)
        path = HISTORY / f"BENCH_{commit[:12]}.json"
        path.write_text(json.dumps({"commit": commit, "seed": args.seed,
                                    "seconds": args.seconds, "records": records},
                                   indent=1) + "\n")
        print(f"\nwrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
