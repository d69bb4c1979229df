"""Acceptance queries over probabilistic argumentation frameworks.

Two query modes share one pipeline (encode, compile once, evaluate many):

* ``prob``: arguments are kept or dropped independently and the query asks
  for the probability that the argument sits in some extension of the full
  framework's theory, conditioned by labelling the negated query literal
  zero on the shared, unconditioned theory circuit.
* ``prob_c``: each subset of arguments induces a subgraph; the query asks
  for the total probability of the subgraphs that credulously accept the
  argument.

Point labels evaluate in the probability semiring; beta labels go through
first-order moment propagation. Every route has an independent oracle:
exact enumeration over extensions or subgraphs (with the exact mixture
variance), and a vectorized Monte-Carlo estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping

from .af import ArgumentationFramework, Semantics, _extension_masks, extensions
from .beta import BetaLabel, LabelConfig, MomentPair, moment_match, to_fuzzy
from .circuit import Circuit, compile_formula, condition, model_count
from .encode import encode, encode_constellation, encode_enumerative
from .errors import CapacityError, InputError
from .formula import Formula
from .propagate import CovarianceSpec, propagate
from .results import QueryResult
from .semiring import PROBABILITY, Labelling, evaluate

MAX_BRUTE_FORCE_ARGUMENTS = 12
_MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class ProbabilisticGraph:
    """Framework plus one label (point probability or beta) per argument."""

    framework: ArgumentationFramework
    labels: Mapping[str, float | BetaLabel]

    def __post_init__(self) -> None:
        names = set(self.framework.arguments)
        given = dict(self.labels)
        missing = [a for a in self.framework.arguments if a not in given]
        if missing:
            raise InputError(f"unlabeled arguments: {', '.join(missing)}")
        extra = sorted(set(given) - names)
        if extra:
            raise InputError(f"labels for unknown arguments: {', '.join(extra)}")
        for name, label in given.items():
            if isinstance(label, BetaLabel):
                continue
            p = float(label)
            if not 0.0 <= p <= 1.0:
                raise InputError(f"probability for {name!r} out of [0,1]: {p}")
            given[name] = p
        object.__setattr__(self, "labels", given)

    @property
    def beta_mode(self) -> bool:
        return any(isinstance(v, BetaLabel) for v in self.labels.values())

    def beta_labels(self) -> dict[str, BetaLabel]:
        """All labels as beta labels; point entries become point masses."""
        return {
            name: label if isinstance(label, BetaLabel) else BetaLabel.from_point(label)
            for name, label in self.labels.items()
        }

    def point_means(self) -> dict[str, float]:
        return {
            name: label.mean if isinstance(label, BetaLabel) else label
            for name, label in self.labels.items()
        }


def _theory(af: ArgumentationFramework, semantics: Semantics) -> Formula:
    """The framework's theory: GR and PR by enumeration, the rest directly."""
    if semantics in (Semantics.GR, Semantics.PR):
        return encode_enumerative(af, semantics)
    return encode(af, semantics)


@lru_cache(maxsize=None)
def _theory_circuit(af: ArgumentationFramework, semantics: Semantics) -> Circuit:
    """Compiled theory of the full framework, shared by all its queries."""
    return compile_formula(_theory(af, semantics), variables=af.arguments)


@lru_cache(maxsize=256)
def _constellation_circuit(
    af: ArgumentationFramework, semantics: Semantics, argument: str
) -> Circuit:
    return compile_formula(
        encode_constellation(af, semantics, argument), variables=af.arguments
    )


# The model counts are cached under the circuits' own keys: a Circuit's
# dataclass hash walks every node, so it must not key a cache.
@lru_cache(maxsize=None)
def _theory_count(af: ArgumentationFramework, semantics: Semantics) -> int:
    return model_count(_theory_circuit(af, semantics))


@lru_cache(maxsize=256)
def _constellation_count(
    af: ArgumentationFramework, semantics: Semantics, argument: str
) -> int:
    return model_count(_constellation_circuit(af, semantics, argument))


def _finish_point(
    mean: float,
    config: LabelConfig | None,
    circuit: Circuit,
) -> QueryResult:
    mean = min(max(mean, 0.0), 1.0)
    matched = moment_match(MomentPair(mean, 0.0))
    return QueryResult(
        mean=mean,
        variance=0.0,
        matched=matched,
        fuzzy=to_fuzzy(matched, config),
        circuit_nodes=len(circuit.nodes),
    )


def _run_query(
    graph: ProbabilisticGraph,
    circuit: Circuit,
    covariance: CovarianceSpec | None,
    config: LabelConfig | None,
    forced: Mapping[str, bool],
) -> QueryResult:
    if graph.beta_mode:
        return propagate(circuit, graph.beta_labels(), covariance, config, forced)
    if covariance is not None:
        raise InputError("covariances require beta labels")
    labelling = Labelling.from_point_probabilities(graph.point_means())
    labelling = labelling.conditioned(forced, PROBABILITY.zero)
    return _finish_point(evaluate(circuit, PROBABILITY, labelling), config, circuit)


def prob(
    graph: ProbabilisticGraph,
    semantics: Semantics,
    argument: str,
    covariance: CovarianceSpec | None = None,
    config: LabelConfig | None = None,
) -> QueryResult:
    """Probability that the argument is in some extension of the framework."""
    af = graph.framework
    af._require(argument)
    circuit = _theory_circuit(af, semantics)
    result = _run_query(graph, circuit, covariance, config, {argument: True})
    return replace(
        result,
        argument=argument,
        semantics=semantics,
        mode="prob",
        model_count=_theory_count(af, semantics),
    )


def prob_c(
    graph: ProbabilisticGraph,
    semantics: Semantics,
    argument: str,
    covariance: CovarianceSpec | None = None,
    config: LabelConfig | None = None,
) -> QueryResult:
    """Total probability of the induced subgraphs accepting the argument."""
    af = graph.framework
    af._require(argument)
    circuit = _constellation_circuit(af, semantics, argument)
    result = _run_query(graph, circuit, covariance, config, {})
    return replace(
        result,
        argument=argument,
        semantics=semantics,
        mode="prob-c",
        model_count=_constellation_count(af, semantics, argument),
    )


def _check_brute_capacity(af: ArgumentationFramework) -> None:
    if len(af.arguments) > MAX_BRUTE_FORCE_ARGUMENTS:
        raise CapacityError(
            f"brute-force oracles support at most {MAX_BRUTE_FORCE_ARGUMENTS} "
            f"arguments, got {len(af.arguments)}"
        )


def _mask_weight(af: ArgumentationFramework, mask: int, means: Mapping[str, float]) -> float:
    weight = 1.0
    for i, name in enumerate(af.arguments):
        m = means[name]
        weight *= m if mask >> i & 1 else 1.0 - m
    return weight


def _mixture_moments(
    af: ArgumentationFramework, masks: list[int], labels: Mapping[str, BetaLabel]
) -> MomentPair:
    """Exact mean and variance of the indicator mixture over member sets.

    The second moment pairs every two member sets and multiplies per-argument
    cross moments E[p^2], E[(1-p)^2] or E[p(1-p)].
    """
    names = af.arguments
    means = [labels[n].mean for n in names]
    seconds = [labels[n].second_moment for n in names]

    mean = 0.0
    for mask in masks:
        w = 1.0
        for i in range(len(names)):
            w *= means[i] if mask >> i & 1 else 1.0 - means[i]
        mean += w

    square = 0.0
    for x, mask_a in enumerate(masks):
        for mask_b in masks[x:]:
            w = 1.0
            for i in range(len(names)):
                a_in = mask_a >> i & 1
                b_in = mask_b >> i & 1
                if a_in and b_in:
                    w *= seconds[i]
                elif a_in or b_in:
                    w *= means[i] - seconds[i]
                else:
                    w *= 1.0 - 2.0 * means[i] + seconds[i]
            square += w if mask_a == mask_b else 2.0 * w
    mean = min(max(mean, 0.0), 1.0)
    return MomentPair(mean, max(square - mean * mean, 0.0))


def brute_force_prob(
    graph: ProbabilisticGraph, semantics: Semantics, argument: str
) -> float | MomentPair:
    """Oracle for ``prob``: sum over extensions containing the argument.

    Returns the mean alone under point labels, exact mean and mixture
    variance under beta labels.
    """
    af = graph.framework
    _check_brute_capacity(af)
    bit = 1 << af._require(argument)
    masks = [af._mask(e) for e in extensions(af, semantics)]
    masks = sorted(m for m in masks if m & bit)
    if not graph.beta_mode:
        means = graph.point_means()
        return sum(_mask_weight(af, m, means) for m in masks)
    return _mixture_moments(af, masks, graph.beta_labels())


def brute_force_prob_c(
    graph: ProbabilisticGraph, semantics: Semantics, argument: str
) -> float | MomentPair:
    """Oracle for ``prob_c``: scan all subgraphs, test credulous acceptance."""
    af = graph.framework
    _check_brute_capacity(af)
    bit = 1 << af._require(argument)
    masks = [
        sub
        for sub in range(1 << len(af.arguments))
        if sub & bit and any(m & bit for m in _extension_masks(af, sub, semantics))
    ]
    if not graph.beta_mode:
        means = graph.point_means()
        return sum(_mask_weight(af, m, means) for m in masks)
    return _mixture_moments(af, masks, graph.beta_labels())


def mc_oracle(
    graph: ProbabilisticGraph,
    semantics: Semantics,
    argument: str,
    mode: str,
    samples: int,
    seed: int,
) -> MomentPair:
    """Monte-Carlo moments: sample label draws, evaluate the circuit on each.

    Deterministic for a fixed seed; draws are consumed in sorted argument
    order in fixed-size chunks. The circuit is conditioned by rebuilding it,
    independently of the labelling route the queries take.
    """
    # Imported here so that importing pargue, and every query, skips numpy.
    import numpy as np

    if samples < 1:
        raise InputError(f"sample count must be positive, got {samples}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if mode not in ("prob", "prob-c"):
        raise InputError(f"unknown query mode {mode!r}")
    af = graph.framework
    af._require(argument)
    if mode == "prob":
        circuit = condition(_theory_circuit(af, semantics), {argument: True})
    else:
        circuit = _constellation_circuit(af, semantics, argument)
    labels = graph.beta_labels()

    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        chunk = min(_MC_CHUNK, samples - done)
        draws = {}
        for name in af.arguments:
            label = labels[name]
            if label.is_degenerate:
                draws[name] = np.full(chunk, label.point)
            else:
                draws[name] = rng.beta(label.alpha, label.beta, size=chunk)
        labelling = Labelling(
            {(v, s): d if s else 1.0 - d for v, d in draws.items() for s in (True, False)}
        )
        value = evaluate(circuit, PROBABILITY, labelling)
        root = np.broadcast_to(np.asarray(value, dtype=float), (chunk,))
        total += float(root.sum())
        total_sq += float(np.square(root).sum())
        done += chunk

    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0)
    return MomentPair(min(max(mean, 0.0), 1.0), variance)
