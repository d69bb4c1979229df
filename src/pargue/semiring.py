"""Bottom-up circuit evaluation over commutative semirings.

On a smooth deterministic decomposable circuit, a single pass that maps
literals through a labelling function, disjunctions through the semiring
addition and conjunctions through its multiplication computes the algebraic
model count. The probability and counting instances are provided. A query
conditions the same compiled circuit through the labelling: each literal
that contradicts the query is labelled with the semiring zero, so no node is
rebuilt.
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


class Labelling:
    """Total map from literals to semiring values."""

    def __init__(self, values: Mapping[tuple[str, bool], Any]):
        self._values = dict(values)

    def __call__(self, var: str, positive: bool) -> Any:
        try:
            return self._values[(var, positive)]
        except KeyError:
            sign = "" if positive else "~"
            raise InputError(f"missing label for literal {sign}{var}") from None

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
        values = dict(self._values)
        for var, value in forced.items():
            values[(var, not value)] = zero
        return Labelling(values)


def evaluate(circuit: Circuit, semiring: Semiring, labelling: Labelling) -> Any:
    """One bottom-up pass; children precede parents in circuit storage."""
    values: list[Any] = []
    plus, times = semiring.plus, semiring.times
    for node in circuit.nodes:
        if node.kind == "true":
            values.append(semiring.one)
        elif node.kind == "false":
            values.append(semiring.zero)
        elif node.kind == "lit":
            values.append(labelling(node.var, node.positive))
        elif node.kind == "and":
            acc = semiring.one
            for c in node.children:
                acc = times(acc, values[c])
            values.append(acc)
        else:
            acc = semiring.zero
            for c in node.children:
                acc = plus(acc, values[c])
            values.append(acc)
    return values[circuit.root]


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
