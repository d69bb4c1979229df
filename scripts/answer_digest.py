#!/usr/bin/env python3
"""Print one sha256 digest of the engine's answers on the benchmark corpora.

Every op of the warm-table and prob-c corpora (``benchmark/corpus.py``) for
seeds 1-3 is answered in this one process, in corpus order. Each answer is
one line: ``float.hex`` of its mean and variance, its circuit node count and
its model count. The digest is the sha256 of those lines, so two checkouts
print the same digest exactly when their answers are bit-identical and their
circuits the same size. Every distinct circuit an answer is read from, as
``engine._compiled`` returns it, is also checked with ``validate``, and any
that fails makes the script exit 1. The ``nnf digest`` is the sha256 of
``format_nnf`` over those circuits in the order of first use, so two
checkouts print the same one exactly when they build byte-identical
circuits.

``--write FILE`` saves the lines; ``--compare FILE`` reads lines saved by an
earlier checkout and prints the largest change in mean and in variance, the
model-count mismatches and the node totals. It exits 1 on any model-count
mismatch, on a different number of answers, or on a change over 1e-12.

    python3 scripts/answer_digest.py
    python3 scripts/answer_digest.py --write before.txt   # in one checkout
    python3 scripts/answer_digest.py --compare before.txt # in another
"""

import argparse
import hashlib
import math
import sys
import time
from pathlib import Path

# allow running from a source checkout, from any directory
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import corpus  # noqa: E402
from pargue import (  # noqa: E402
    ProbabilisticGraph, Semantics, cli, engine, format_nnf, prob, prob_c, validate,
)

WORKLOADS = ("warm-table", "prob-c")
SEEDS = (1, 2, 3)
TOLERANCE = 1e-12


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


def recording(compiled_target, compiled: dict):
    """``engine._compiled``, keeping each circuit it returns in ``compiled``
    under its ``id``: a warm answer returns the same object, which is not
    hashed again."""

    def wrapper(*args, **kwargs):
        circuit, count = compiled_target(*args, **kwargs)
        compiled.setdefault(id(circuit), circuit)
        return circuit, count

    return wrapper


def invalid(compiled) -> int:
    """Print and count the circuits that fail one of ``validate``'s checks."""
    failed = 0
    for circuit in compiled:
        report = validate(circuit)
        if not (report.decomposable and report.deterministic and report.smooth):
            failed += 1
            print(f"invalid circuit over {', '.join(circuit.variables)}: {report}")
    return failed


def _fields(line: str) -> tuple[float, float, int, int]:
    mean, variance, nodes, count = line.split()
    return float.fromhex(mean), float.fromhex(variance), int(nodes), int(count)


def _largest_change(pairs) -> float:
    # A change that is not a number (inf - inf, nan) counts as infinite.
    changes = (0.0 if a == b else abs(a - b) for a, b in pairs)
    return max((d if d == d else math.inf for d in changes), default=0.0)


def compare(before: list[str], after: list[str]) -> int:
    """Report how ``after`` differs from ``before``; 1 if beyond tolerance."""
    if len(before) != len(after):
        print(f"answers differ in number: {len(before)} before, {len(after)} now")
        return 1
    old = [_fields(line) for line in before]
    new = [_fields(line) for line in after]
    mean = _largest_change((a[0], b[0]) for a, b in zip(old, new))
    variance = _largest_change((a[1], b[1]) for a, b in zip(old, new))
    mismatches = sum(a[3] != b[3] for a, b in zip(old, new))
    print(f"largest change: mean {mean:.3g}, variance {variance:.3g} (tolerance {TOLERANCE:g})")
    print(f"model-count mismatches: {mismatches}")
    print(f"circuit nodes, summed over answers: {sum(a[2] for a in old)} before, "
          f"{sum(b[2] for b in new)} now")
    return 1 if mismatches or max(mean, variance) > TOLERANCE else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", metavar="FILE", help="save one line per answer to FILE")
    parser.add_argument("--compare", metavar="FILE", help="compare with the lines saved in FILE")
    args = parser.parse_args(argv)
    lines = []
    compiled: dict = {}
    # Every circuit an answer reads, a theory or a constellation, is
    # returned by _compiled, which looks itself up here when it recurses.
    engine._compiled = recording(engine._compiled, compiled)
    start = time.perf_counter()
    for workload in WORKLOADS:
        for seed in SEEDS:
            for result in answers(corpus.WORKLOADS[workload](seed)):
                lines.append(
                    f"{result.mean.hex()} {result.variance.hex()} "
                    f"{result.circuit_nodes} {result.model_count}\n"
                )
    elapsed = time.perf_counter() - start
    text = "".join(lines)
    print(f"answers: {len(lines)} ({', '.join(WORKLOADS)}; seeds {', '.join(map(str, SEEDS))}) "
          f"in {elapsed:.1f}s")
    print(f"digest:  {hashlib.sha256(text.encode()).hexdigest()}")
    distinct = dict.fromkeys(compiled.values())
    failed = invalid(distinct)
    print(f"circuits validated: {len(distinct)} distinct, {failed} failing")
    nnf = "".join(map(format_nnf, distinct))
    print(f"nnf digest: {hashlib.sha256(nnf.encode()).hexdigest()}")
    if args.write:
        Path(args.write).write_text(text, encoding="utf-8")
    if args.compare:
        before = Path(args.compare).read_text(encoding="utf-8").splitlines()
        return max(compare(before, text.splitlines()), 1 if failed else 0)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
