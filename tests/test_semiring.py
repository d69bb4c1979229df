"""Semiring axioms, circuit evaluation, query conditioning."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pargue import (
    COUNTING,
    PROBABILITY,
    Circuit,
    ClauseSet,
    InputError,
    Labelling,
    Node,
    Semantics,
    compile_formula,
    condition,
    encode,
    evaluate,
)

from conftest import clause_sets, frameworks, models
from pargue.af import _extension_masks
from pargue.engine import _compiled
from pargue.semiring import MAXIMAL_MODELS, model_masks

NAMES = ("a", "b", "c", "d")

# Label means of the worked example's four reference priors.
REFERENCE_MEANS = {"a": 0.5, "b": 17 / 19, "c": 4 / 19, "d": 10 / 13}


def _example_circuit(example_af):
    return compile_formula(encode(example_af, Semantics.AD))


class TestAxioms:
    values = {
        PROBABILITY.name: [0.0, 1.0, 0.25, 0.5, 0.875],
        COUNTING.name: [0, 1, 2, 3, 7],
    }

    @pytest.mark.parametrize("semiring", [PROBABILITY, COUNTING], ids=lambda s: s.name)
    def test_sampled_axioms(self, semiring):
        vals = self.values[semiring.name]
        plus, times = semiring.plus, semiring.times
        for x in vals:
            assert plus(x, semiring.zero) == x
            assert times(x, semiring.one) == x
            assert times(x, semiring.zero) == semiring.zero
            for y in vals:
                assert plus(x, y) == plus(y, x)
                assert times(x, y) == times(y, x)
                for z in vals:
                    assert plus(plus(x, y), z) == pytest.approx(plus(x, plus(y, z)))
                    assert times(times(x, y), z) == pytest.approx(times(x, times(y, z)))
                    assert times(x, plus(y, z)) == pytest.approx(
                        plus(times(x, y), times(x, z))
                    )


class TestLabelling:
    def test_point_probabilities_complement(self):
        labelling = Labelling.from_point_probabilities({"a": 0.3})
        assert labelling("a", True) == 0.3
        assert labelling("a", False) == 0.7

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Labelling.from_point_probabilities({"a": 1.5})

    def test_missing_label_rejected(self, example_af):
        c = _example_circuit(example_af)
        with pytest.raises(InputError):
            evaluate(c, PROBABILITY, Labelling.from_point_probabilities({"a": 0.5}))


class TestEvaluate:
    def test_half_labels(self, example_af):
        c = _example_circuit(example_af)
        labelling = Labelling.from_point_probabilities(dict.fromkeys(NAMES, 0.5))
        assert evaluate(c, PROBABILITY, labelling) == 7 / 16

    def test_counting(self, example_af):
        assert evaluate(_example_circuit(example_af), COUNTING, Labelling.constant(NAMES, 1)) == 7

    @given(clause_sets(), st.lists(st.floats(0.01, 0.99), min_size=4, max_size=4))
    def test_matches_weighted_truth_table(self, f, weights):
        c = compile_formula(f)
        points = dict(zip(NAMES, weights))
        got = evaluate(c, PROBABILITY, Labelling.from_point_probabilities(points))
        want = 0.0
        for m in models(f):
            w = 1.0
            for name in NAMES:
                w *= points[name] if name in m else 1.0 - points[name]
            want += w
        assert got == pytest.approx(want, abs=1e-12)

    def test_order_independence(self, example_af):
        c = _example_circuit(example_af)
        reversed_nodes = tuple(
            Node(n.kind, n.var, n.positive, tuple(reversed(n.children)), n.decision)
            for n in c.nodes
        )
        flipped = Circuit(reversed_nodes, c.root, c.variables)
        labelling = Labelling.from_point_probabilities(REFERENCE_MEANS)
        assert evaluate(c, PROBABILITY, labelling) == pytest.approx(
            evaluate(flipped, PROBABILITY, labelling), abs=1e-12
        )


def _conditioned_value(circuit, forced, semiring, labelling):
    """Query value through the labelling, as the engine conditions, checked
    against evaluating the circuit that ``condition`` rebuilds."""
    got = evaluate(circuit, semiring, labelling.conditioned(forced, semiring.zero))
    rebuilt = evaluate(condition(circuit, forced), semiring, labelling)
    if semiring is COUNTING:
        assert got == rebuilt
    else:
        assert got == pytest.approx(rebuilt, abs=1e-12)
    return got


class TestAmcQuery:
    """Algebraic model counting queries: the query's contradicting literals
    labelled with the semiring zero."""

    def test_reference_query_on_d(self, example_af):
        # oracle: the three admissible-theory models containing d, weighted
        c = _example_circuit(example_af)
        labelling = Labelling.from_point_probabilities(REFERENCE_MEANS)
        got = _conditioned_value(c, {"d": True}, PROBABILITY, labelling)
        oracle = 0.0
        for m in models(encode(example_af, Semantics.AD)):
            if "d" not in m:
                continue
            w = 1.0
            for name in NAMES:
                w *= REFERENCE_MEANS[name] if name in m else 1.0 - REFERENCE_MEANS[name]
            oracle += w
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.5753249520562539, abs=1e-12)

    def test_contradicted_query_is_zero(self, example_af):
        c = _example_circuit(example_af)
        labelling = Labelling.from_point_probabilities(REFERENCE_MEANS)
        assert _conditioned_value(c, {"c": True}, PROBABILITY, labelling) == 0.0

    def test_empty_query_is_plain_evaluation(self, example_af):
        c = _example_circuit(example_af)
        labelling = Labelling.from_point_probabilities(REFERENCE_MEANS)
        assert _conditioned_value(c, {}, PROBABILITY, labelling) == evaluate(
            c, PROBABILITY, labelling
        )

    def test_counting_query(self, example_af):
        c = _example_circuit(example_af)
        assert _conditioned_value(c, {"d": True}, COUNTING, Labelling.constant(NAMES, 1)) == 3

    @given(frameworks(max_args=5))
    def test_neutral_fresh_variable(self, af):
        # declaring a fresh variable z adds a (z | ~z) gap during smoothing;
        # labelled 1.0/0.0 it must not change any query value
        theory = encode(af, Semantics.AD)
        base = compile_formula(theory)
        fresh = "z"
        assert fresh not in af.arguments
        # The fresh name is declared after the ids: bit n, which no clause uses.
        names = (*af.arguments, fresh)
        extended = compile_formula(ClauseSet(names, len(names), theory.clauses))
        points = {name: 0.35 for name in af.arguments}
        labelling = Labelling.from_point_probabilities(points)
        wide = Labelling(
            {
                **{(n, s): labelling(n, s) for n in af.arguments for s in (True, False)},
                (fresh, True): 1.0,
                (fresh, False): 0.0,
            }
        )
        for name in af.arguments:
            assert _conditioned_value(base, {name: True}, PROBABILITY, labelling) == pytest.approx(
                _conditioned_value(extended, {name: True}, PROBABILITY, wide), abs=1e-12
            )


class TestModelEnumeration:
    """Walks that list a circuit's models as bit masks over its variables."""

    @given(frameworks(max_args=8))
    def test_models_are_extensions(self, af):
        complete = compile_formula(encode(af, Semantics.CO))
        maximal = model_masks(complete, MAXIMAL_MODELS)
        assert sorted(maximal) == list(_extension_masks(af, af._full_mask, Semantics.PR))
        for semantics in Semantics:
            circuit, _ = _compiled(af, semantics, None)
            want = _extension_masks(af, af._full_mask, semantics)
            assert sorted(model_masks(circuit)) == list(want), semantics

    def test_maximal_union_keeps_a_shared_model(self):
        # a | a is not deterministic: both disjuncts hold the model {a}
        nodes = (Node("lit", var="a"), Node("lit", var="a"), Node("or", children=(0, 1)))
        c = Circuit(nodes, 2, ("a",))
        assert model_masks(c, MAXIMAL_MODELS) == (0b1,)
