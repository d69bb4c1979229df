#!/usr/bin/env python3
"""Print one sha256 digest of the engine's answers on the benchmark corpora.

Every op of the warm-table and prob-c corpora (``benchmark/corpus.py``) for
seeds 1-3 is answered in this one process, in corpus order. Each answer
contributes ``float.hex`` of its mean and variance, its circuit node count
and its model count, so two checkouts print the same digest exactly when
their answers are bit-identical and their circuits the same size.

    python3 scripts/answer_digest.py
"""

import hashlib
import sys
import time
from pathlib import Path

# allow running from a source checkout, from any directory
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import corpus  # noqa: E402
from pargue import ProbabilisticGraph, Semantics, cli, prob, prob_c  # noqa: E402

WORKLOADS = ("warm-table", "prob-c")
SEEDS = (1, 2, 3)


def answers(spec: dict):
    """Each op's ``QueryResult``, with the inputs built by the public parsers."""
    graphs = []
    for f in spec["frameworks"]:
        af = cli.parse_af(f["af"])
        given = ProbabilisticGraph(af, cli.parse_labels(f["labels"], af))
        graphs.append({"given": given, "point": ProbabilisticGraph(af, given.point_means())})
    run = {"prob": prob, "prob-c": prob_c}
    for op in spec["ops"]:
        graph = graphs[op["framework"]][op["labels"]]
        yield run[op["mode"]](graph, Semantics(op["semantics"]), op["argument"])


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    start = time.perf_counter()
    for workload in WORKLOADS:
        for seed in SEEDS:
            for result in answers(corpus.WORKLOADS[workload](seed)):
                digest.update(
                    f"{result.mean.hex()} {result.variance.hex()} "
                    f"{result.circuit_nodes} {result.model_count}\n".encode()
                )
                count += 1
    elapsed = time.perf_counter() - start
    print(f"answers: {count} ({', '.join(WORKLOADS)}; seeds {', '.join(map(str, SEEDS))}) "
          f"in {elapsed:.1f}s")
    print(f"digest:  {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
