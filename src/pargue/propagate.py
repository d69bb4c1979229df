"""First-order moment propagation through a compiled circuit.

The circuit's probability-semiring value, as a function of the per-argument
probabilities, is a multilinear polynomial. Evaluating it at the label
means gives the exact query mean. The delta method approximates the query
variance as g' Sigma g, where g is the gradient at the means and Sigma
holds the label variances plus any declared covariances. The forward sweep
is the semiring module's one node walker in the probability semiring,
labelled with the means; the backward sweep here reads the same circuit
index, gates in reverse, and turns the node values into the partial
derivative of every node (Darwiche, JACM 2003). Both literals of an
argument are functions of the same underlying probability, so an
argument's gradient is its positive literal's partial less its negative
literal's.

A query conditions the circuit through its labels: each literal that
contradicts a forced query literal takes the value 0. That literal is a
constant of the conditioned function, so its partial is 0.

``_answer`` serves point and beta labels alike, a point probability being
a label of variance zero, and returns the mean and variance only: the
engine's queries and ``propagate`` each render their own result. With no
nonzero variance or covariance it skips the backward sweep, whose every
term would be multiplied by zero, and otherwise adds a variance term for
each nonzero variance alone.
"""

from __future__ import annotations

import io
import math
import warnings
from collections import namedtuple
from collections.abc import Iterable, Mapping

from .beta import BetaLabel, LabelConfig, MomentPair, moment_match, to_fuzzy
from .circuit import Circuit
from .errors import InputError
from .results import QueryResult
from .semiring import PROBABILITY, Labelling, _walk


class CovarianceSpec(namedtuple("CovarianceSpec", "arguments off_diagonal")):
    """Off-diagonal covariances between argument probabilities: the sorted
    argument ids, and a map from (a, b) pairs with a < b to covariances.

    The diagonal always comes from the labels themselves and is never
    user-supplied.
    """

    __slots__ = ()

    @classmethod
    def from_pairs(
        cls,
        arguments: Iterable[str],
        pairs: Mapping[tuple[str, str], float],
    ) -> "CovarianceSpec":
        names = tuple(sorted(set(arguments)))
        known = set(names)
        entries: dict[tuple[str, str], float] = {}
        for (a, b), value in pairs.items():
            if a not in known or b not in known:
                raise InputError(f"covariance references unknown argument in ({a},{b})")
            if a == b:
                raise InputError(f"diagonal covariance for {a!r} is not user-supplied")
            key = (a, b) if a < b else (b, a)
            value = float(value)
            if not math.isfinite(value):
                raise InputError(f"covariance ({a},{b}) must be finite, got {value}")
            if key in entries and entries[key] != value:
                raise InputError(f"conflicting covariance entries for {key}")
            entries[key] = value
        return cls(names, entries)


def load_covariance_csv(text: str) -> CovarianceSpec:
    """Parse a symmetric covariance matrix with ids in the first row/column.

    Diagonal cells are ignored (a nonzero one draws a warning) because the
    diagonal is recomputed from the labels at propagation time.
    """
    # Imported here so that importing pargue skips the CSV parser.
    import csv

    try:
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
    except csv.Error as exc:
        raise InputError(f"covariance matrix is not valid CSV: {exc}") from None
    if not rows:
        raise InputError("empty covariance matrix")
    header = [cell.strip() for cell in rows[0][1:]]
    if len(set(header)) != len(header) or not header:
        raise InputError("covariance header must list distinct argument ids")
    body = rows[1:]
    if len(body) != len(header):
        raise InputError(
            f"covariance matrix must be square: {len(header)} columns, {len(body)} rows"
        )
    values: list[list[float]] = []
    for i, row in enumerate(body):
        cells = [cell.strip() for cell in row]
        if cells[0] != header[i]:
            raise InputError(
                f"covariance row ids must match column ids: {cells[0]!r} vs {header[i]!r}"
            )
        if len(cells) != len(header) + 1:
            raise InputError(f"covariance row {cells[0]!r} has {len(cells) - 1} entries")
        try:
            row_values = [float(cell) for cell in cells[1:]]
        except ValueError as exc:
            raise InputError(f"covariance row {cells[0]!r}: {exc}") from None
        if not all(map(math.isfinite, row_values)):
            raise InputError(f"covariance row {cells[0]!r}: entries must be finite")
        values.append(row_values)

    pairs: dict[tuple[str, str], float] = {}
    noisy_diagonal = False
    for i, a in enumerate(header):
        for j, b in enumerate(header):
            if i == j:
                noisy_diagonal = noisy_diagonal or values[i][j] != 0.0
            elif i < j:
                if not math.isclose(values[i][j], values[j][i], rel_tol=1e-9, abs_tol=1e-12):
                    raise InputError(
                        f"covariance matrix is not symmetric at ({a},{b}): "
                        f"{values[i][j]} vs {values[j][i]}"
                    )
                pairs[(a, b)] = values[i][j]
    if noisy_diagonal:
        warnings.warn(
            "covariance diagonal entries are ignored; variances come from the labels",
            stacklevel=2,
        )
    return CovarianceSpec.from_pairs(header, pairs)


def _means(circuit: Circuit, labels: Mapping[str, BetaLabel]) -> Labelling:
    """Probability labelling of the circuit's literals at the label means."""
    missing = [v for v in circuit.variables if v not in labels]
    if missing:
        raise InputError(f"missing labels for arguments: {', '.join(missing)}")
    return Labelling.from_point_probabilities({v: labels[v].mean for v in circuit.variables})


def _backward(circuit: Circuit, values: list[float], forced: Mapping[str, bool]) -> list[float]:
    """The root's partial derivative by each node's value, from the
    forward values of ``_walk``. One more slot at the end stays 0.0: it is
    where ``_Index.pairs`` points for a missing literal.

    The gates are read in reverse, parents first. A literal that contradicts
    ``forced`` is a constant, so its partial is 0.0.
    """
    index = circuit.nodes._index
    partials = [0.0] * (len(circuit.nodes) + 1)
    partials[circuit.root] = 1.0
    for i, is_and, children in reversed(index.gates):
        p = partials[i]
        if p == 0.0:
            continue
        if not is_and:
            for c in children:
                partials[c] += p
        elif len(children) == 2:
            a, b = children
            partials[b] += p * values[a]
            partials[a] += p * values[b]
        else:
            prefix = [1.0]
            product = 1.0
            for c in children:
                product *= values[c]
                prefix.append(product)
            suffix = 1.0
            for t in range(len(children) - 1, -1, -1):
                c = children[t]
                partials[c] += p * prefix[t] * suffix
                suffix *= values[c]
    pairs = index.pairs
    for var, value in forced.items():
        if var in pairs:
            partials[pairs[var][1] if value else pairs[var][0]] = 0.0
    return partials


def _gradients(circuit: Circuit, partials: list[float]) -> dict[str, float]:
    """Each variable's gradient from ``_backward``'s partials: its positive
    literal's partial less its negative literal's, 0.0 where it has none."""
    pairs = circuit.nodes._index.pairs
    missing = (len(circuit.nodes), len(circuit.nodes))
    grads = {}
    for var in circuit.variables:
        pos, neg = pairs.get(var, missing)
        grads[var] = partials[pos] - partials[neg]
    return grads


def _answer(
    circuit: Circuit,
    means: Labelling,
    variances: Mapping[str, float],
    covariance: CovarianceSpec | None,
    forced: Mapping[str, bool],
) -> MomentPair:
    """One answer's moments: the mean and the delta-method variance.

    ``means`` labels each literal at the label means; ``variances`` maps
    every argument to its label variance.
    """
    values = _walk(circuit, PROBABILITY, means, forced=forced)
    mean = min(max(values[circuit.root], 0.0), 1.0)
    variance = 0.0
    if covariance is not None or any(map(variances.__getitem__, circuit.variables)):
        grads = _gradients(circuit, _backward(circuit, values, forced))
        for var, g in grads.items():
            sigma = variances[var]
            if sigma:
                variance += g * g * sigma
        if covariance is not None:
            variance = _with_covariance(variance, grads, variances, covariance)
        variance = max(variance, 0.0)
    return MomentPair(mean, variance)


def _with_covariance(
    variance: float,
    grads: Mapping[str, float],
    variances: Mapping[str, float],
    covariance: CovarianceSpec,
) -> float:
    """``variance`` plus the delta method's cross terms 2 g_a g_b cov(a, b).

    Refuses a covariance over arguments that ``variances`` does not label,
    and warns on one past the Cauchy-Schwarz bound of the two label
    variances. A variable missing from ``grads`` has gradient zero.
    """
    unknown = [a for a in covariance.arguments if a not in variances]
    if unknown:
        raise InputError(f"covariance over unknown arguments: {', '.join(unknown)}")
    for (a, b), value in sorted(covariance.off_diagonal.items()):
        bound = math.sqrt(variances[a] * variances[b])
        if abs(value) > bound + 1e-12:
            warnings.warn(
                f"covariance ({a},{b})={value} exceeds the Cauchy-Schwarz "
                f"bound {bound:.6g}",
                stacklevel=4,
            )
        variance += 2.0 * grads.get(a, 0.0) * grads.get(b, 0.0) * value
    return variance


def propagate(
    circuit: Circuit,
    labels: Mapping[str, BetaLabel],
    covariance: CovarianceSpec | None = None,
    config: LabelConfig | None = None,
) -> QueryResult:
    """Delta-method moments for the circuit under beta labels."""
    means = _means(circuit, labels)
    variances = {v: labels[v].variance for v in circuit.variables}
    moments = _answer(circuit, means, variances, covariance, {})
    matched = moment_match(moments)
    return QueryResult(
        mean=moments.mean,
        variance=moments.variance,
        matched=matched,
        fuzzy=to_fuzzy(matched, config),
        circuit_nodes=len(circuit.nodes),
    )
