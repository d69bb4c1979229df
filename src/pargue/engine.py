"""Acceptance queries over probabilistic argumentation frameworks.

Two query modes share one pipeline (encode, compile once, evaluate many):

* ``prob``: arguments are kept or dropped independently and the query asks
  for the probability that the argument sits in some extension of the full
  framework's theory, conditioned by valuing the negated query literal
  zero within the pass over the shared, unconditioned theory circuit.
* ``prob_c``: each subset of arguments induces a subgraph; the query asks
  for the total probability of the subgraphs that credulously accept the
  argument. CO and PR share AD's constellation, compiled like ST's from an
  existential theory with its membership variables projected away; GR's
  is built from its truth table, the grounded labelling of every subgraph
  computed at once. With no attack cycle every subgraph has
  one complete extension, which is grounded, preferred and stable (Dung
  1995, Thm 30), so GR on an acyclic cone, and ST on an acyclic framework,
  share AD's too. ``_compiled`` alone decides what a constellation covers:
  the argument's relevance cone, or under ST the whole framework. The cone
  is a mask of the framework, the scope of its family's search or of GR's
  table, and no cone subgraph is built. A cone's circuit mentions the
  cone's arguments alone: each argument outside it is a factor
  p + (1 - p) = 1 of the mean, with no gradient, and doubles the model
  count. CF's is answered in closed form, with no circuit: the argument's
  own label, or 0 if it attacks itself.

Both modes answer through ``_query``. Apart from CF's closed form, it takes
the circuit and its model count from ``_compiled``, one bounded cache of
compiled targets (a framework's theory, or one argument's constellation,
which ``mc_oracle`` still compiles under CF too). PR's theory (the maximal
models of the cached CO circuit) is a listed set, and GR's constellation on
a cyclic cone a truth table; ``circuit._diagram`` builds both. A theory is
encoded as a clause set and compiled. The constellations of one (framework,
semantics) family share one encoded theory and one search (``_compiler``),
each argument's membership bit an assumption and its cone the scope.
Circuits are numbered from their root, so a target compiles to the same
circuit whatever the process built before, and the pass that numbers a
circuit's nodes also counts its models. A point probability is a beta
label of zero variance, so both label kinds get their moments from the one
path in ``propagate``; ``_query`` renders them into a ``QueryResult``.
Every route has an independent oracle: enumeration over extensions or every
subgraph (CF included) with the exact mixture variance, and a Monte-Carlo
estimate.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache, reduce

from .af import (
    ArgumentationFramework, Semantics, _acyclic, _all_extension_masks, _bits, _cone_mask,
    _extension_masks, _semantics,
)
from .beta import BetaLabel, LabelConfig, MomentPair, moment_match, to_fuzzy
from .circuit import (
    Circuit, Compiler, _diagram, _require_width, _table_halves, compile_formula, condition,
    encode_enumerative, model_count,
)
from .encode import _grounded_table, encode, encode_constellation
from .errors import CapacityError, InputError
# propagate is not called here, but must resolve: benchmark/spans.py wraps
# it in this module.
from .propagate import CovarianceSpec, _answer, _with_covariance, propagate  # noqa: F401
from .results import QueryResult
from .semiring import MAXIMAL_MODELS, PROBABILITY, Labelling, evaluate, model_masks

MAX_BRUTE_FORCE_ARGUMENTS = 12
_MC_CHUNK = 1 << 16


class ProbabilisticGraph:
    """Framework plus one label (point probability or beta) per argument.

    Label moments are derived once: ``means``, the literal probabilities at
    the label means, and ``variances``, each label's variance (zero for a
    point probability). Two graphs are equal only if they are the same
    object.
    """

    def __init__(
        self, framework: ArgumentationFramework, labels: Mapping[str, float | BetaLabel]
    ) -> None:
        self.framework = framework
        names = set(framework.arguments)
        given = dict(labels)
        missing = [a for a in framework.arguments if a not in given]
        if missing:
            raise InputError(f"unlabeled arguments: {', '.join(missing)}")
        extra = sorted(set(given) - names)
        if extra:
            raise InputError(f"labels for unknown arguments: {', '.join(extra)}")
        for name, label in given.items():
            if not isinstance(label, BetaLabel):
                try:
                    given[name] = float(label)
                except (TypeError, ValueError):
                    raise InputError(f"label of {name!r} is not a number: {label!r}") from None
        self.labels = given
        # Rejects a point probability outside [0,1].
        self.means = Labelling.from_point_probabilities(self.point_means())
        self.variances = {
            name: label.variance if isinstance(label, BetaLabel) else 0.0
            for name, label in given.items()
        }

    def __repr__(self) -> str:
        return f"ProbabilisticGraph(framework={self.framework!r}, labels={self.labels!r})"

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


@lru_cache(maxsize=256)
def _compiled(
    af: ArgumentationFramework, semantics: Semantics, argument: str | None
) -> tuple[Circuit, int]:
    """Compiled circuit and its model count, shared by all queries on it.

    ``argument=None`` gives the framework's theory, an argument name that
    argument's constellation. Always pass all three arguments, so that each
    target has one cache key. A constellation's scope is the whole
    framework under ST, the argument's relevance cone otherwise: whether a
    subgraph accepts the argument depends only on its part inside the cone
    (Baroni & Giacomin 2007). The family's search, or GR's table, is run
    on that scope of the framework itself, so the circuit mentions the
    scope's arguments alone, and its model count is shifted by the
    arguments outside. A target takes one of the 256 entries; only GR's
    and ST's acyclic redirect to AD's takes a second.
    """
    n = len(af.arguments)
    if argument is not None:
        scope = af._full_mask if semantics is Semantics.ST else _cone_mask(af, argument)
        # With no attack cycle the constellation is AD's (Dung 1995, Thm 30):
        # GR's needs its cone acyclic, ST's the whole framework, checked
        # once per framework.
        if semantics is Semantics.ST and af._is_acyclic or (
            semantics is Semantics.GR and _acyclic(af, scope)
        ):
            return _compiled(af, Semantics.AD, argument)
        # Refused before encoding: the search eliminates one membership
        # variable per argument of the scope.
        _require_width(scope.bit_count())
        if semantics is Semantics.GR:
            place = (scope & (1 << af._index[argument]) - 1).bit_count()
            names = tuple(af.arguments[i] for i in _bits(scope))
            circuit = _diagram(names, _grounded_table(af, scope)[place], _table_halves)
        else:
            member = 1 << n + af._index[argument]
            circuit = _compiler(af, semantics).circuit(member, scope | scope << n)
        return circuit, model_count(circuit) << n - scope.bit_count()
    # Refused before encoding; a theory eliminates at most one auxiliary
    # per argument.
    _require_width(n)
    if semantics is Semantics.PR:
        complete = _compiled(af, Semantics.CO, None)[0]
        circuit = encode_enumerative(af.arguments, model_masks(complete, MAXIMAL_MODELS))
    else:
        circuit = compile_formula(encode(af, semantics))
    return circuit, model_count(circuit)


@lru_cache(maxsize=16)
def _compiler(af: ArgumentationFramework, semantics: Semantics) -> Compiler:
    """The search shared by every argument's constellation on the framework,
    each scoped to its own cone (ST's to the whole framework): each asks it
    for the shared theory with its own membership bit assumed true.

    At most 16 compilers are kept. Each holds the nodes and cached
    components of every circuit compiled from it, at most one per argument
    of its framework, so its worst case is the sum of those compiles'
    searches; ``_compiled`` keeps the circuits themselves. A cold seed-1
    prob-c benchmark pass builds 12 compilers, one per (framework,
    semantics) family that compiles, and they hold about 0.35 MB. A
    compiler holds no reference cycle, so one dropped from the cache is
    freed at once.
    """
    return Compiler(encode_constellation(af, semantics))


def _target(
    af: ArgumentationFramework, semantics: Semantics, argument: str, mode: str
) -> tuple[Circuit, int]:
    """The theory for ``prob``, the argument's constellation for ``prob-c``:
    AD's under CO and PR too, whose credulous acceptance is AD's (Dung 1995),
    and under GR and ST where ``_compiled`` finds no attack cycle."""
    if mode == "prob":
        return _compiled(af, semantics, None)
    shared = Semantics.AD if semantics in (Semantics.CO, Semantics.PR) else semantics
    return _compiled(af, shared, argument)


def _query(
    graph: ProbabilisticGraph,
    semantics: Semantics,
    argument: str,
    mode: str,
    covariance: CovarianceSpec | None,
    config: LabelConfig | None,
) -> QueryResult:
    af = graph.framework
    af._require(argument)
    semantics = _semantics(semantics)
    if covariance is not None and not graph.beta_mode:
        raise InputError("covariances require beta labels")
    if mode == "prob-c" and semantics is Semantics.CF:
        moments, count = _conflict_free_c(graph, argument, covariance)
        nodes = 0
    else:
        circuit, count = _target(af, semantics, argument, mode)
        forced = {argument: True} if mode == "prob" else {}
        moments = _answer(circuit, graph.means, graph.variances, covariance, forced)
        nodes = len(circuit.nodes)
    matched = moment_match(moments)
    return QueryResult(
        mean=moments.mean,
        variance=moments.variance,
        matched=matched,
        fuzzy=to_fuzzy(matched, config),
        argument=argument,
        semantics=semantics,
        mode=mode,
        circuit_nodes=nodes,
        model_count=count,
    )


def _conflict_free_c(
    graph: ProbabilisticGraph, argument: str, covariance: CovarianceSpec | None
) -> tuple[MomentPair, int]:
    """CF's ``prob_c`` in closed form, with its model count.

    Every subgraph holding the argument accepts it, unless it attacks
    itself: the answer is the argument's own label, or 0. As a function of
    the label probabilities it is p(a), whose only gradient is 1 at a.
    """
    af = graph.framework
    accepted = (argument, argument) not in af.attacks
    grads = {argument: 1.0} if accepted else {}
    mean = graph.means(argument, True) if accepted else 0.0
    variance = graph.variances[argument] if accepted else 0.0
    if covariance is not None:
        variance = _with_covariance(variance, grads, graph.variances, covariance)
    count = 1 << len(af.arguments) - 1 if accepted else 0
    return MomentPair(mean, variance), count


def prob(
    graph: ProbabilisticGraph,
    semantics: Semantics,
    argument: str,
    covariance: CovarianceSpec | None = None,
    config: LabelConfig | None = None,
) -> QueryResult:
    """Probability that the argument is in some extension of the framework."""
    return _query(graph, semantics, argument, "prob", covariance, config)


def prob_c(
    graph: ProbabilisticGraph,
    semantics: Semantics,
    argument: str,
    covariance: CovarianceSpec | None = None,
    config: LabelConfig | None = None,
) -> QueryResult:
    """Total probability of the induced subgraphs accepting the argument."""
    return _query(graph, semantics, argument, "prob-c", covariance, config)


def _require_enumerable(af: ArgumentationFramework) -> None:
    if len(af.arguments) > MAX_BRUTE_FORCE_ARGUMENTS:
        raise CapacityError(
            f"brute-force oracles support at most {MAX_BRUTE_FORCE_ARGUMENTS} "
            f"arguments, got {len(af.arguments)}"
        )


def _brute_bit(af: ArgumentationFramework, argument: str) -> int:
    """The argument's bit mask, on a framework small enough to enumerate."""
    _require_enumerable(af)
    return 1 << af._require(argument)


def _oracle_answer(graph: ProbabilisticGraph, masks: list[int]) -> float | MomentPair:
    """Total probability of the member sets; the mean alone under point labels.

    Under beta labels, the exact mean and variance of the indicator mixture:
    the second moment pairs every two member sets and multiplies
    per-argument cross moments E[p^2], E[(1-p)^2] or E[p(1-p)].
    """
    names = graph.framework.arguments
    point = graph.point_means()
    means = [point[n] for n in names]
    mean = 0.0
    for mask in masks:
        weight = 1.0
        for i, m in enumerate(means):
            weight *= m if mask >> i & 1 else 1.0 - m
        mean += weight
    if not graph.beta_mode:
        return mean
    labels = graph.beta_labels()
    seconds = [labels[n].second_moment for n in names]
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
    Returns the mean under point labels, exact moments under beta labels."""
    bit = _brute_bit(graph.framework, argument)
    masks = _all_extension_masks(graph.framework, _semantics(semantics))
    return _oracle_answer(graph, [m for m in masks if m & bit])


def brute_force_prob_c(
    graph: ProbabilisticGraph, semantics: Semantics, argument: str
) -> float | MomentPair:
    """Oracle for ``prob_c``: scan all subgraphs, CF too, for acceptance."""
    bit = _brute_bit(graph.framework, argument)
    table = _accepted(graph.framework, _semantics(semantics))
    return _oracle_answer(graph, [sub for sub, union in enumerate(table) if union & bit])


# The brute-force prob-c oracle's table, keyed on the whole framework; no
# query answers from it. The process that checks the engine against the
# oracles builds 36 (framework, semantics) tables; each fits.
@lru_cache(maxsize=64)
def _accepted(af: ArgumentationFramework, semantics: Semantics) -> tuple[int, ...]:
    """Per subgraph mask, the union of the induced subgraph's extensions:
    the arguments credulously accepted there."""
    _require_enumerable(af)
    return tuple(
        reduce(int.__or__, _extension_masks(af, sub, semantics), 0)
        for sub in range(1 << len(af.arguments))
    )


def mc_oracle(
    graph: ProbabilisticGraph,
    semantics: Semantics,
    argument: str,
    mode: str,
    samples: int,
    seed: int,
) -> MomentPair:
    """Monte-Carlo moments: sample label draws, evaluate the circuit on each.

    Deterministic for a fixed seed; draws are consumed in fixed-size chunks
    for the circuit's variables alone, in their sorted order, so a
    constellation draws for its cone's arguments only. The circuit is
    conditioned by rebuilding it, independently of the labelling route the
    queries take.
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
    circuit = _target(af, _semantics(semantics), argument, mode)[0]
    if mode == "prob":
        circuit = condition(circuit, {argument: True})
    labels = graph.beta_labels()

    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        chunk = min(_MC_CHUNK, samples - done)
        draws = {}
        for name in circuit.variables:
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
