#!/usr/bin/env python3
"""Run every query mode on the running example and print a result table.

The framework has two arguments jointly attacking a third, which attacks a
fourth; labels mix a flat prior, two informative priors, and the reference
prior Beta(5, 1.5).
"""

import argparse
import sys
from pathlib import Path

# allow running from a source checkout, from any directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pargue import (  # noqa: E402
    ArgumentationFramework,
    BetaLabel,
    ProbabilisticGraph,
    Semantics,
    brute_force_prob,
    brute_force_prob_c,
    extensions,
    prob,
    prob_c,
)


def build_graph() -> ProbabilisticGraph:
    af = ArgumentationFramework("abcd", [("a", "c"), ("b", "c"), ("c", "d")])
    labels = {
        "a": BetaLabel(1.0, 1.0),
        "b": BetaLabel(17.0, 2.0),
        "c": BetaLabel(4.0, 15.0),
        "d": BetaLabel(5.0, 1.5),
    }
    return ProbabilisticGraph(af, labels)


def beta_text(label: BetaLabel) -> str:
    def side(x: float) -> str:
        return "inf" if x == float("inf") else f"{x:.4g}"

    return f"Beta({side(label.alpha)}, {side(label.beta)})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-s",
        "--semantics",
        default="AD",
        choices=[s.value for s in Semantics],
        help="acceptance semantics (default AD)",
    )
    args = parser.parse_args()
    semantics = Semantics(args.semantics)

    graph = build_graph()
    af = graph.framework

    print(f"extensions under {semantics.value}:")
    for group in extensions(af, semantics):
        print("  {" + ",".join(sorted(group)) + "}")

    header = (
        f"{'query':<10} {'mean':>9} {'variance':>9} {'exact var':>10} "
        f"{'matched':<22} fuzzy"
    )
    for mode, run, oracle in (
        ("prob", prob, brute_force_prob),
        ("prob_c", prob_c, brute_force_prob_c),
    ):
        print(f"\n{mode} queries:")
        print(header)
        for name in af.arguments:
            result = run(graph, semantics, name)
            exact = oracle(graph, semantics, name)
            print(
                f"{f'{mode}({name})':<10} {result.mean:>9.6f} {result.variance:>9.6f} "
                f"{exact.variance:>10.6f} {beta_text(result.matched):<22} "
                f"{result.fuzzy}"
            )


if __name__ == "__main__":
    main()
