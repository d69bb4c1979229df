"""Bottom-up circuit evaluation over commutative semirings.

On a smooth deterministic decomposable circuit, a single pass that maps
literals through a labelling function, disjunctions through the semiring
addition and conjunctions through its multiplication computes the algebraic
model count. The probability and counting instances are provided. A query
conditions the same compiled circuit through the labelling: each literal
that contradicts the query is labelled with the semiring zero, so no node is
rebuilt.

``_walk`` is the package's one forward pass over circuit nodes. Besides
``evaluate`` it serves the moment propagation (probability semiring at the
label means), the Monte-Carlo oracle (probability semiring over numpy draw
arrays) and the determinism validator (truth tables as bitsets under or/and).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from .circuit import Circuit, _normalize_literals
from .errors import InputError


@dataclass(frozen=True)
class Semiring:
    """Commutative semiring: (plus, zero) and (times, one), times distributing."""

    name: str
    plus: Callable[[Any, Any], Any]
    times: Callable[[Any, Any], Any]
    zero: Any
    one: Any


PROBABILITY = Semiring("probability", operator.add, operator.mul, 0.0, 1.0)
COUNTING = Semiring("counting", operator.add, operator.mul, 0, 1)


def _missing_label(var: str, positive: bool) -> InputError:
    sign = "" if positive else "~"
    return InputError(f"missing label for literal {sign}{var}")


class Labelling:
    """Total map from literals to semiring values."""

    def __init__(self, values: Mapping[tuple[str, bool], Any]):
        self._values = dict(values)

    def __call__(self, var: str, positive: bool) -> Any:
        try:
            return self._values[(var, positive)]
        except KeyError:
            raise _missing_label(var, positive) from None

    @classmethod
    def from_point_probabilities(cls, weights: Mapping[str, float]) -> "Labelling":
        """Probability labelling with complementary negative literals."""
        values: dict[tuple[str, bool], float] = {}
        for name, p in weights.items():
            p = float(p)
            if not 0.0 <= p <= 1.0:
                raise InputError(f"probability for {name!r} out of [0,1]: {p}")
            values[(name, True)] = p
            values[(name, False)] = 1.0 - p
        return cls(values)

    @classmethod
    def constant(cls, variables: Iterable[str], value: Any) -> "Labelling":
        """Label every literal of the given variables with one value."""
        return cls({(v, s): value for v in variables for s in (True, False)})

    def conditioned(self, forced: Mapping[str, bool], zero: Any) -> "Labelling":
        """Copy with every literal that contradicts ``forced`` labelled ``zero``."""
        copy = Labelling(self._values)
        for var, value in forced.items():
            copy._values[(var, not value)] = zero
        return copy


def _walk(
    circuit: Circuit,
    semiring: Semiring,
    table: Mapping[tuple[str, bool], Any],
    ids: Iterable[int] | None = None,
) -> list[Any]:
    """Value of every node, read bottom-up; children precede parents.

    ``table`` maps literals to values. With ``ids``, a child-closed set of
    node indices, only those nodes are valued and the rest stay ``None``.
    """
    nodes = circuit.nodes
    plus, times, zero, one = semiring.plus, semiring.times, semiring.zero, semiring.one
    values: list[Any] = [None] * len(nodes)
    for i in range(len(nodes)) if ids is None else sorted(ids):
        node = nodes[i]
        kind = node.kind
        if kind == "lit":
            try:
                value = table[node.var, node.positive]
            except KeyError:
                raise _missing_label(node.var, node.positive) from None
        elif kind == "and":
            value = one
            for c in node.children:
                value = times(value, values[c])
        elif kind == "or":
            value = zero
            for c in node.children:
                value = plus(value, values[c])
        else:
            value = one if kind == "true" else zero
        values[i] = value
    return values


def evaluate(circuit: Circuit, semiring: Semiring, labelling: Labelling) -> Any:
    """Algebraic model count: the root's value after one bottom-up pass."""
    return _walk(circuit, semiring, labelling._values)[circuit.root]


def amc_query(
    circuit: Circuit,
    query: Mapping[str, bool] | Iterable[tuple[str, bool]],
    semiring: Semiring,
    labelling: Labelling,
) -> Any:
    """Evaluate with the query literals forced true (their negations zeroed).

    On a deterministic decomposable circuit this equals evaluating
    ``condition(circuit, query)``, because dropping a zero disjunct and
    collapsing a conjunction with a zero factor are semiring identities.
    """
    forced = _normalize_literals(query, circuit.variables)
    return evaluate(circuit, semiring, labelling.conditioned(forced, semiring.zero))
