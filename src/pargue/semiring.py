"""Bottom-up circuit evaluation over commutative semirings.

On a smooth deterministic decomposable circuit, a single pass that maps
literals through a labelling function, disjunctions through the semiring
addition and conjunctions through its multiplication computes the algebraic
model count. The probability and counting instances are provided. A query
conditions the same compiled circuit through the labels: each literal that
contradicts the query is valued with the semiring zero, so no node is
rebuilt. On a deterministic decomposable circuit the value equals that of
``condition(circuit, query)``, since dropping a zero disjunct and collapsing
a conjunction with a zero factor are semiring identities.

``_walk`` is the package's one forward pass over circuit nodes. It reads the
circuit's index (``circuit._Index``), built once per circuit: it seeds the
literal positions from the labelling, which holds one map from variable
names per polarity, values the query's contradicting literals zero, and then
values the gates, children first. Where the semiring's operations are
``operator.add`` and ``operator.mul`` it applies them inline. Besides
``evaluate`` it serves the moment propagation (probability semiring at the
label means), the Monte-Carlo oracle (probability semiring over numpy draw
arrays), the determinism validator (truth tables as bitsets under or/and)
and model enumeration (``model_masks``: tuples of bit masks, or antichains
of them for the subset-maximal models).
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import reduce

from .circuit import Circuit
from .errors import InputError


class Semiring(namedtuple("Semiring", "name plus times zero one")):
    """Commutative semiring: (plus, zero) and (times, one), times distributing.
    ``plus`` and ``times`` are binary functions on its values."""

    __slots__ = ()


PROBABILITY = Semiring("probability", operator.add, operator.mul, 0.0, 1.0)
COUNTING = Semiring("counting", operator.add, operator.mul, 0, 1)


def _cross_or(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # A conjunction's children share no variables, so the pairwise unions
    # are distinct, and an antichain on each side gives an antichain.
    return tuple(x | y for x in a for y in b)


def _antichain_union(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Union of two antichains of bit masks, keeping the maximal masks only.

    A mask with a bit outside the other side's span is no subset of any mask
    there. Under a decision node, the branch on the positive literal is
    therefore kept without comparison.
    """
    span_a = reduce(operator.or_, a, 0)
    span_b = reduce(operator.or_, b, 0)
    kept = [m for m in a if m & ~span_b or not any(m | o == o and m != o for o in b)]
    kept.extend(o for o in b if o & ~span_a or not any(o | m == m for m in a))
    return tuple(kept)


# Values are tuples of bit masks, one per model. On a deterministic circuit
# the disjuncts share no model, so a plain concatenation is the union.
MODELS = Semiring("models", operator.add, _cross_or, (), (0,))
MAXIMAL_MODELS = Semiring("maximal models", _antichain_union, _cross_or, (), (0,))


def _missing_label(var: str, positive: bool) -> InputError:
    sign = "" if positive else "~"
    return InputError(f"missing label for literal {sign}{var}")


class Labelling:
    """Total map from literals to semiring values, held as one map from
    variable names per polarity, which ``_walk`` reads directly."""

    def __init__(self, values: Mapping[tuple[str, bool], object]):
        self._positive: dict[str, object] = {}
        self._negative: dict[str, object] = {}
        for (var, positive), value in values.items():
            (self._positive if positive else self._negative)[var] = value

    def __call__(self, var: str, positive: bool) -> object:
        try:
            return (self._positive if positive else self._negative)[var]
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
    def constant(cls, variables: Iterable[str], value: object) -> "Labelling":
        """Label every literal of the given variables with one value."""
        return cls({(v, s): value for v in variables for s in (True, False)})

    def conditioned(self, forced: Mapping[str, bool], zero: object) -> "Labelling":
        """Copy with every literal that contradicts ``forced`` labelled ``zero``."""
        copy = Labelling({})
        copy._positive, copy._negative = dict(self._positive), dict(self._negative)
        for var, value in forced.items():
            (copy._negative if value else copy._positive)[var] = zero
        return copy


def _walk(
    circuit: Circuit,
    semiring: Semiring,
    labelling: Labelling,
    ids: Iterable[int] | None = None,
    forced: Mapping[str, bool] | None = None,
) -> list[object]:
    """Value of every node, read bottom-up from the circuit's index.

    Each literal takes its value from ``labelling``, or zero where it
    contradicts ``forced``. With ``ids``, a child-closed set of
    node indices, only those nodes are valued and the rest stay ``None``.
    Each sum and product runs over a node's children in their stored order,
    starting from zero or one.
    """
    index = circuit.nodes._index
    zero, one = semiring.zero, semiring.one
    literals, trues, gates = index.literals, index.trues, index.gates
    values: list[object] = [zero] * len(circuit.nodes)
    if ids is not None:
        keep = set(ids)
        # A further node of a literal reads the literal's first node.
        keep.update(c for i, _, children in gates if i in keep for c in children)
        values = [zero if i in keep else None for i in range(len(values))]
        literals = [entry for entry in literals if entry[0] in keep]
        trues = [i for i in trues if i in keep]
        gates = [entry for entry in gates if entry[0] in keep]
    for i in trues:
        values[i] = one
    on, off = labelling._positive, labelling._negative
    for i, var, positive in literals:
        try:
            values[i] = on[var] if positive else off[var]
        except KeyError:
            raise _missing_label(var, positive) from None
    if forced:
        pairs = index.pairs
        for var, value in forced.items():
            if var in pairs:
                i = pairs[var][1] if value else pairs[var][0]
                if i < len(values) and values[i] is not None:
                    values[i] = zero
    if semiring.plus is operator.add and semiring.times is operator.mul:
        # Numbers, or numpy arrays: the operators inline, never in place,
        # so no step changes a child's value or the semiring's zero or one.
        for i, is_and, children in gates:
            if is_and:
                value = one
                for c in children:
                    value = value * values[c]
            else:
                value = zero
                for c in children:
                    value = value + values[c]
            values[i] = value
    else:
        plus, times = semiring.plus, semiring.times
        for i, is_and, children in gates:
            if is_and:
                value = one
                for c in children:
                    value = times(value, values[c])
            else:
                value = zero
                for c in children:
                    value = plus(value, values[c])
            values[i] = value
    return values


def evaluate(circuit: Circuit, semiring: Semiring, labelling: Labelling) -> object:
    """Algebraic model count: the root's value after one bottom-up pass."""
    return _walk(circuit, semiring, labelling)[circuit.root]


def model_masks(circuit: Circuit, semiring: Semiring = MODELS) -> tuple[int, ...]:
    """The circuit's models as bit masks over ``circuit.variables`` (bit i for
    the i-th variable), in no particular order.

    ``MODELS`` lists every model of a smooth deterministic decomposable
    circuit, ``MAXIMAL_MODELS`` only the subset-maximal ones. Either costs
    time proportional to the models listed at each node, not 2^n.
    """
    table: dict[tuple[str, bool], tuple[int, ...]] = {}
    for i, name in enumerate(circuit.variables):
        table[name, True] = (1 << i,)
        table[name, False] = (0,)
    return _walk(circuit, semiring, Labelling(table))[circuit.root]

