#!/usr/bin/env python3
"""Seeded random sweep: engine versus brute-force oracles, with timings.

Generates frameworks at a fixed attack density, labels them (point
probabilities by default, beta labels with --beta), runs both query modes
under every semantics, and reports the worst deviation from the
enumeration oracle plus circuit-size statistics. A deviation above the
tolerance makes the script exit nonzero.
"""

import argparse
import random
import sys
import time
from pathlib import Path

# allow running from a source checkout, from any directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pargue import (  # noqa: E402
    ProbabilisticGraph,
    Semantics,
    brute_force_prob,
    brute_force_prob_c,
    prob,
    prob_c,
)
from pargue.beta import BetaLabel  # noqa: E402


def random_framework(rng: random.Random, max_args: int, density: float):
    from pargue import ArgumentationFramework

    n = rng.randint(1, max_args)
    names = [chr(ord("a") + i) for i in range(n)]
    attacks = [(s, t) for s in names for t in names if rng.random() < density]
    return ArgumentationFramework(names, attacks)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=100, help="frameworks to draw")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-args", type=int, default=6)
    parser.add_argument("--density", type=float, default=0.3)
    parser.add_argument("--beta", action="store_true", help="use beta labels")
    parser.add_argument("--tolerance", type=float, default=1e-9)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    worst = 0.0
    worst_case = ""
    queries = 0
    node_total = 0
    node_peak = 0
    start = time.perf_counter()

    for index in range(args.count):
        af = random_framework(rng, args.max_args, args.density)
        if args.beta:
            labels = {
                name: BetaLabel(rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0))
                for name in af.arguments
            }
        else:
            labels = {name: rng.uniform(0.05, 0.95) for name in af.arguments}
        graph = ProbabilisticGraph(af, labels)
        for semantics in Semantics:
            for name in af.arguments:
                for run, oracle in (
                    (prob, brute_force_prob),
                    (prob_c, brute_force_prob_c),
                ):
                    result = run(graph, semantics, name)
                    exact = oracle(graph, semantics, name)
                    expected = exact.mean if args.beta else exact
                    deviation = abs(result.mean - expected)
                    queries += 1
                    node_total += result.circuit_nodes
                    node_peak = max(node_peak, result.circuit_nodes)
                    if deviation > worst:
                        worst = deviation
                        worst_case = (
                            f"#{index} {semantics.value} "
                            f"{result.mode}({name}) on {len(af.arguments)} args"
                        )
    elapsed = time.perf_counter() - start

    print(f"frameworks: {args.count} (seed {args.seed}, max {args.max_args} args, "
          f"density {args.density}, {'beta' if args.beta else 'point'} labels)")
    print(f"queries:    {queries} in {elapsed:.2f}s "
          f"({queries / elapsed:.0f} queries/s)")
    print(f"circuits:   mean {node_total / queries:.1f} nodes, peak {node_peak}")
    print(f"deviation:  worst {worst:.3e}" + (f" at {worst_case}" if worst_case else ""))
    if worst > args.tolerance:
        print(f"FAIL: deviation above {args.tolerance:g}")
        return 1
    print(f"ok: all queries within {args.tolerance:g} of the enumeration oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
