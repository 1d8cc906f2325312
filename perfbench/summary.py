"""Print every end-to-end metric of every workload, with unit and samples.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Runs `perfbench/run.py --trace 0` once per workload named in
BENCHMARK.json, each in its own process (so `peak_rss_mb` is per
workload), one after another, and prints one row per metric. The
sample count is the number of timed passes behind a pass metric and
the number of set-ups behind `setup_s`. Exits 1 if any run fails or
any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    ok = True
    print(f"{'workload':<10} {'metric':<16} {'value':>14} {'unit':<6} {'samples':>7}  checks")
    for w in bench["workloads"]:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{w['name']:<10} run failed (exit {proc.returncode}): {proc.stderr.strip()}")
            ok = False
            continue
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        ok = ok and result["correct"]
        checks = f"{result['attempted'] - result['failed']}/{result['attempted']} passed"
        for m in bench["end_to_end"]:
            value = result["metrics"][m["name"]]
            n = meta["samples"]["setup_repeats" if m["name"] == "setup_s" else "passes"]
            print(f"{w['name']:<10} {m['name']:<16} {value['value']:>14.6g} {value['unit']:<6} "
                  f"{n:>7}  {checks}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
