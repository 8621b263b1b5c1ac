"""A/A self-check: two sets of runs of the same code must agree.

Usage (from the root of a checkout)::

    python3 perfbench/aa.py [--runs 5] [--workload W ...] [--seconds S]

Runs set A then set B, each ``--runs`` untraced runs per workload with
distinct seeds (set B's seeds follow set A's), using ``BENCHMARK.json``
for the command, metrics and bounds. It prints each run's metrics and
length on a ``#`` line as it goes; then, for every workload and
end-to-end metric, each set's median and quartiles, the spread (quartile
distance over median) of each set and of all runs together, and a
verdict:

- ``agree``      -- B's median is not worse than A's by more than the
                    bound, and both sets' spreads are within it;
- ``unresolved`` -- a set's spread is wider than the bound (``setup_s``
                    is exempt from the spread test: set-up is only
                    checked for a shift of its median);
- ``DISAGREE``   -- B's median is worse than A's by more than the bound.

Exits 1 when any metric disagrees or is unresolved, or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Set A uses seeds FIRST_SEED.., set B the next ``--runs`` seeds.
FIRST_SEED = 100


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(spec: Dict, workload: str, seed: int, seconds: int) -> Dict:
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=600, check=False)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"# {workload} seed {seed} ({time.perf_counter() - t0:.1f}s): "
          + " ".join(f"{k} {v:.5g}" for k, v in values.items()), flush=True)
    return values


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="A/A self-check")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bad = 0
    for workload in args.workload or names:
        sets: List[List[Dict]] = []
        for index in range(2):
            base = FIRST_SEED + index * args.runs
            sets.append([
                one_run(spec, workload, seed, args.seconds)
                for seed in range(base, base + args.runs)
            ])
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run[name] for run in sets[0]]
            b = [run[name] for run in sets[1]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (statistics.median(b) - statistics.median(a)) \
                / statistics.median(a)
            spreads = (spread(a), spread(b))
            if worse > bound:
                verdict = "DISAGREE"
            elif name != "setup_s" and max(spreads) > bound:
                verdict = "unresolved"
            else:
                verdict = "agree"
            bad += verdict != "agree"
            qa = statistics.quantiles(a, n=4)
            qb = statistics.quantiles(b, n=4)
            print(f"{workload:17s} {name:12s} "
                  f"A {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}] "
                  f"B {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] "
                  f"spread A {spreads[0]:.3f} B {spreads[1]:.3f} "
                  f"all {spread(a + b):.3f} bound {bound} "
                  f"worse {worse:+.3f} {verdict}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
