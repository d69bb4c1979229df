#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 benchmark/steady.py --workload cli --seeds 1-10 --seconds 40

For every metric it prints the median over the runs and the spread: the
distance between the first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median. Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} " + " ".join(line))

    print(f"failed share over runs: {sorted(shares)}")
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = f"{(q3 - q1) / median:.4f}"
        else:
            spread = "n/a"
        print(f"{name:32s} median {median:.6g}  spread {spread}  min {min(series):.6g}  max {max(series):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
