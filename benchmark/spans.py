"""Layer spans recorded from outside ``pargue``.

``install`` replaces the functions that ``pargue.engine``, ``pargue.encode``,
``pargue.semiring``, ``pargue.propagate`` and ``pargue.cli`` look up at call
time with wrappers. Each call records a span (layer, start, end, parent) in
memory; a layer's self time is the span's duration minus the time covered
by its child spans. Counts are taken at the same boundaries. Work done to
take a count is recorded as a child span of its own, so it is not charged
to any layer.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable

# (module, attribute) -> layer. The engine's own ``extensions`` and
# ``_extension_masks`` serve only the brute-force oracles and stay unwrapped.
WRAPPED = {
    ("engine", "encode"): "encode.theory",
    ("engine", "encode_enumerative"): "encode.theory",
    ("engine", "encode_constellation"): "encode.theory",
    ("engine", "compile_formula"): "circuit.compile",
    ("engine", "condition"): "circuit.condition",
    ("engine", "model_count"): "circuit.model_count",
    ("engine", "evaluate"): "semiring.evaluate",
    ("engine", "propagate"): "propagate",
    ("engine", "moment_match"): "beta.render",
    ("engine", "to_fuzzy"): "beta.render",
    ("engine", "prob"): "engine",
    ("engine", "prob_c"): "engine",
    # The GR/PR theories enumerate extensions; the constellation theory asks
    # for the extensions of every induced subgraph.
    ("encode", "extensions"): "af.extensions",
    ("encode", "_extension_masks"): "af.extensions",
    # ``model_count`` imports ``evaluate`` from here at call time.
    ("semiring", "evaluate"): "semiring.evaluate",
    ("propagate", "moment_match"): "beta.render",
    ("propagate", "to_fuzzy"): "beta.render",
    ("cli", "parse_af"): "cli.parse",
    ("cli", "parse_labels"): "cli.parse",
    ("cli", "prob"): "engine",
    ("cli", "prob_c"): "engine",
}

TIMED_LAYERS = (
    "cli.parse",
    "af.extensions",
    "encode.theory",
    "circuit.compile",
    "circuit.condition",
    "circuit.model_count",
    "semiring.evaluate",
    "propagate",
    "beta.render",
    "engine",
)
_OVERHEAD = "trace"


def _formula_nodes(root: Any) -> int:
    seen = {id(root)}
    todo = [root]
    while todo:
        for child in getattr(todo.pop(), "children", ()):
            if id(child) not in seen:
                seen.add(id(child))
                todo.append(child)
    return len(seen)


def _count_extensions(counts: Counter, result: Any) -> None:
    counts["extensions_found"] += len(result)


def _count_theory(counts: Counter, result: Any) -> None:
    counts["theory_nodes"] += _formula_nodes(result)


def _count_compile(counts: Counter, result: Any) -> None:
    counts["compiles"] += 1
    counts["circuit_nodes"] += len(result.nodes)
    counts["circuit_edges"] += result.edge_count


def _count_evaluate(counts: Counter, result: Any) -> None:
    counts["evaluates"] += 1


def _count_answer(counts: Counter, result: Any) -> None:
    counts["answers"] += 1


COUNTERS: dict[str, Callable[[Counter, Any], None]] = {
    "af.extensions": _count_extensions,
    "encode.theory": _count_theory,
    "circuit.compile": _count_compile,
    "semiring.evaluate": _count_evaluate,
    "engine": _count_answer,
}


class Tracer:
    """In-memory spans and counts for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._open, self.counts
        count = COUNTERS.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((layer, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            # A theory encoded inside another (CO conjoins the CF theory) is
            # counted once, with its outermost span.
            if count is not None and (parent < 0 or spans[parent][0] != layer):
                count(counts, result)
                spans.append((_OVERHEAD, end, clock(), parent))
            return result

        return traced

    def self_ms(self) -> dict[str, float]:
        """Total self time per layer, in milliseconds."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = dict.fromkeys(TIMED_LAYERS, 0.0)
        for (layer, *_), seconds in zip(self.spans, own):
            if layer != _OVERHEAD:
                totals[layer] += seconds * 1000.0
        return totals

    def summary(self) -> dict:
        return {"self_ms": self.self_ms(), "counts": dict(self.counts)}


def install(tracer: Tracer) -> None:
    """Wrap every function in ``WRAPPED``; one wrapper per original function."""
    import importlib

    wrappers: dict[int, Callable] = {}
    for (module_name, attribute), layer in WRAPPED.items():
        module = importlib.import_module(f"pargue.{module_name}")
        original = getattr(module, attribute)
        if id(original) not in wrappers:
            wrappers[id(original)] = tracer.wrap(layer, original)
        setattr(module, attribute, wrappers[id(original)])
