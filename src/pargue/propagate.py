"""First-order moment propagation through a compiled circuit.

The circuit's probability-semiring value, as a function of the per-argument
probabilities, is a multilinear polynomial. Evaluating it at the label
means gives the exact query mean. The delta method approximates the query
variance as g' Sigma g, where g is the gradient at the means and Sigma
holds the label variances plus any declared covariances. The forward sweep
is the semiring module's one node walker in the probability semiring,
labelled with the means; the backward sweep here turns its node values
into partial derivatives. Both literals of an argument are functions of
the same underlying probability, so a negative literal contributes its
partial derivative with opposite sign.

A query conditions the circuit through its labels: each literal that
contradicts a forced query literal takes the value 0. That literal is a
constant of the conditioned function, so it adds no partial derivative.

``_answer`` serves point and beta labels alike, a point probability being
a label of variance zero, and returns the mean and variance only: the
engine's queries and ``propagate`` each render their own result. With no
nonzero variance or covariance it skips the backward sweep, whose every
term would be multiplied by zero.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

from .beta import BetaLabel, LabelConfig, MomentPair, moment_match, to_fuzzy
from .circuit import Circuit, _normalize_literals
from .errors import InputError
from .results import QueryResult
from .semiring import PROBABILITY, Labelling, _walk


@dataclass(frozen=True)
class CovarianceSpec:
    """Off-diagonal covariances between argument probabilities.

    The diagonal always comes from the labels themselves and is never
    user-supplied.
    """

    arguments: tuple[str, ...]
    off_diagonal: Mapping[tuple[str, str], float]

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

    def get(self, a: str, b: str) -> float:
        key = (a, b) if a < b else (b, a)
        return self.off_diagonal.get(key, 0.0)


def load_covariance_csv(text: str) -> CovarianceSpec:
    """Parse a symmetric covariance matrix with ids in the first row/column.

    Diagonal cells are ignored (a nonzero one draws a warning) because the
    diagonal is recomputed from the labels at propagation time.
    """
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
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


def _backward(
    circuit: Circuit, values: list[float], forced: Mapping[str, bool]
) -> dict[str, float]:
    partials = [0.0] * len(circuit.nodes)
    partials[circuit.root] = 1.0
    for i in range(len(circuit.nodes) - 1, -1, -1):
        p = partials[i]
        if p == 0.0:
            continue
        node = circuit.nodes[i]
        if node.kind == "or":
            for c in node.children:
                partials[c] += p
        elif node.kind == "and":
            k = len(node.children)
            prefix = [1.0] * (k + 1)
            for t, c in enumerate(node.children):
                prefix[t + 1] = prefix[t] * values[c]
            suffix = 1.0
            for t in range(k - 1, -1, -1):
                partials[node.children[t]] += p * prefix[t] * suffix
                suffix *= values[node.children[t]]
    grads = dict.fromkeys(circuit.variables, 0.0)
    for i, node in enumerate(circuit.nodes):
        if (
            node.kind == "lit"
            and partials[i] != 0.0
            and forced.get(node.var, node.positive) == node.positive
        ):
            grads[node.var] += partials[i] if node.positive else -partials[i]
    return grads


def eval_mean(circuit: Circuit, labels: Mapping[str, BetaLabel]) -> float:
    """Exact query mean: probability-semiring value at the label means."""
    value = _walk(circuit, PROBABILITY, _means(circuit, labels)._values)[circuit.root]
    return min(max(value, 0.0), 1.0)


def gradients(circuit: Circuit, labels: Mapping[str, BetaLabel]) -> dict[str, float]:
    """Partial derivatives of the circuit value at the label means."""
    values = _walk(circuit, PROBABILITY, _means(circuit, labels)._values)
    return _backward(circuit, values, {})


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
    values = _walk(circuit, PROBABILITY, means.conditioned(forced, PROBABILITY.zero)._values)
    mean = min(max(values[circuit.root], 0.0), 1.0)
    variance = 0.0
    if covariance is not None or any(variances[v] for v in circuit.variables):
        grads = _backward(circuit, values, forced)
        variance = sum(grads[v] * grads[v] * variances[v] for v in circuit.variables)
        if covariance is not None:
            unknown = [a for a in covariance.arguments if a not in circuit.variables]
            if unknown:
                raise InputError(f"covariance over unknown arguments: {', '.join(unknown)}")
            for (a, b), value in sorted(covariance.off_diagonal.items()):
                bound = math.sqrt(variances[a] * variances[b])
                if abs(value) > bound + 1e-12:
                    warnings.warn(
                        f"covariance ({a},{b})={value} exceeds the Cauchy-Schwarz "
                        f"bound {bound:.6g}",
                        stacklevel=3,
                    )
                variance += 2.0 * grads[a] * grads[b] * value
        variance = max(variance, 0.0)
    return MomentPair(mean, variance)


def propagate(
    circuit: Circuit,
    labels: Mapping[str, BetaLabel],
    covariance: CovarianceSpec | None = None,
    config: LabelConfig | None = None,
    forced: Mapping[str, bool] | Iterable[tuple[str, bool]] = (),
) -> QueryResult:
    """Delta-method moments for the circuit under beta labels.

    ``forced`` conditions on query literals through the labels; the moments
    equal those of ``condition(circuit, forced)`` up to float rounding.
    """
    means = _means(circuit, labels)
    forced = _normalize_literals(forced, circuit.variables)
    variances = {v: labels[v].variance for v in circuit.variables}
    moments = _answer(circuit, means, variances, covariance, forced)
    matched = moment_match(moments)
    return QueryResult(
        mean=moments.mean,
        variance=moments.variance,
        matched=matched,
        fuzzy=to_fuzzy(matched, config),
        circuit_nodes=len(circuit.nodes),
    )
