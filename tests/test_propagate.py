"""Delta-method moment propagation and covariance handling."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import backward_gradients, clause_sets, frameworks
from pargue import (
    PROBABILITY,
    BetaLabel,
    Circuit,
    CovarianceSpec,
    InputError,
    Labelling,
    Node,
    Semantics,
    compile_formula,
    condition,
    encode,
    evaluate,
    load_covariance_csv,
    propagate,
)
from pargue.propagate import _answer, _means


@pytest.fixture
def theory(example_af):
    return compile_formula(encode(example_af, Semantics.AD))


@pytest.fixture
def query_a(theory):
    return condition(theory, {"a": True})


@pytest.fixture
def query_d(theory):
    return condition(theory, {"d": True})


# label means for the running example: a=1/2, b=17/19, c=4/19, d=10/13
MA, MB, MC, MD = 0.5, 17.0 / 19.0, 4.0 / 19.0, 10.0 / 13.0


def mean(circuit, labels):
    return propagate(circuit, labels).mean


class TestEvalMean:
    def test_query_a_formula(self, query_a, example_labels):
        # admissible sets containing a sum to w_a * (1 - w_c)
        assert mean(query_a, example_labels) == pytest.approx(MA * (1.0 - MC), abs=1e-12)

    def test_query_d_formula(self, query_d, example_labels):
        expected = (1.0 - MC) * MD * (MA + MB - MA * MB)
        assert mean(query_d, example_labels) == pytest.approx(expected, abs=1e-12)
        assert mean(query_d, example_labels) == pytest.approx(0.5753249520562539, abs=1e-12)

    def test_contradicted_query_is_zero(self, theory, example_labels):
        assert mean(condition(theory, {"c": True}), example_labels) == 0.0

    def test_split_on_one_variable_is_additive(self, theory, example_labels):
        whole = mean(theory, example_labels)
        accepted = mean(condition(theory, {"d": True}), example_labels)
        rejected = mean(condition(theory, {"d": False}), example_labels)
        assert accepted + rejected == pytest.approx(whole, abs=1e-12)

    def test_missing_labels_rejected(self, query_a, example_labels):
        partial = {k: v for k, v in example_labels.items() if k != "b"}
        with pytest.raises(InputError, match="missing labels"):
            propagate(query_a, partial)


class TestGradients:
    def test_query_a_hand_values(self, query_a, example_labels):
        grads = backward_gradients(query_a, example_labels)
        # d/dw_a [w_a (1 - w_c)] and d/dw_c; b and d do not appear
        assert grads["a"] == pytest.approx(1.0 - MC, abs=1e-12)
        assert grads["c"] == pytest.approx(-MA, abs=1e-12)
        assert grads["b"] == pytest.approx(0.0, abs=1e-12)
        assert grads["d"] == pytest.approx(0.0, abs=1e-12)

    def test_query_d_hand_values(self, query_d, example_labels):
        grads = backward_gradients(query_d, example_labels)
        assert grads["a"] == pytest.approx((1.0 - MC) * MD * (1.0 - MB), abs=1e-12)
        assert grads["b"] == pytest.approx((1.0 - MC) * MD * (1.0 - MA), abs=1e-12)
        assert grads["c"] == pytest.approx(-MD * (MA + MB - MA * MB), abs=1e-12)
        assert grads["d"] == pytest.approx((1.0 - MC) * (MA + MB - MA * MB), abs=1e-12)

    @given(frameworks(max_args=5))
    def test_matches_central_differences(self, af):
        theory = compile_formula(encode(af, Semantics.AD))
        circuit = condition(theory, {af.arguments[0]: True})
        means = {
            name: 0.15 + 0.7 * (i + 1) / (len(af.arguments) + 1)
            for i, name in enumerate(af.arguments)
        }
        labels = {name: BetaLabel.from_point(m) for name, m in means.items()}
        grads = backward_gradients(circuit, labels)
        step = 1e-5
        for name in af.arguments:
            up = dict(labels)
            down = dict(labels)
            up[name] = BetaLabel.from_point(means[name] + step)
            down[name] = BetaLabel.from_point(means[name] - step)
            numeric = (mean(circuit, up) - mean(circuit, down)) / (2.0 * step)
            assert grads[name] == pytest.approx(numeric, abs=1e-6)


class TestPropagate:
    def test_query_a_moments(self, query_a, example_labels):
        result = propagate(query_a, example_labels)
        var_a = example_labels["a"].variance
        var_c = example_labels["c"].variance
        expected_var = (1.0 - MC) ** 2 * var_a + MA**2 * var_c
        assert result.mean == pytest.approx(MA * (1.0 - MC), abs=1e-12)
        assert result.variance == pytest.approx(expected_var, abs=1e-12)
        assert str(result.fuzzy) == "somewhat_unlikely/low_confidence"

    def test_query_d_moments(self, query_d, example_labels):
        result = propagate(query_d, example_labels)
        grads = backward_gradients(query_d, example_labels)
        expected_var = sum(
            grads[name] ** 2 * example_labels[name].variance for name in "abcd"
        )
        assert result.mean == pytest.approx(0.5753249520562539, abs=1e-12)
        assert result.variance == pytest.approx(expected_var, abs=1e-12)
        assert str(result.fuzzy) == "somewhat_likely/some_confidence"
        assert result.matched.alpha == pytest.approx(7.05, abs=0.01)
        assert result.matched.beta == pytest.approx(5.21, abs=0.01)

    def test_reports_circuit_size(self, query_d, example_labels):
        result = propagate(query_d, example_labels)
        assert result.circuit_nodes == len(query_d.nodes)

    def test_point_labels_give_zero_variance(self, theory):
        labels = {name: BetaLabel.from_point(m) for name, m in zip("abcd", (0.5, 0.9, 0.2, 0.8))}
        result = propagate(condition(theory, {"a": True}), labels)
        assert result.variance == 0.0
        assert result.mean == pytest.approx(0.5 * 0.8, abs=1e-12)
        assert result.matched.is_degenerate

    def test_custom_config_changes_words(self, query_d, example_labels):
        from pargue import LabelConfig

        shifted = LabelConfig.build(
            aleatory_edges=(0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 1.0)
        )
        result = propagate(query_d, example_labels, config=shifted)
        assert result.fuzzy.aleatory == "absolutely_likely"


class TestCovarianceSpec:
    def test_pairs_are_order_insensitive(self):
        spec = CovarianceSpec.from_pairs(["a", "b"], {("b", "a"): 0.01})
        assert spec.off_diagonal == {("a", "b"): 0.01}

    def test_unknown_argument_rejected(self):
        with pytest.raises(InputError, match="unknown argument"):
            CovarianceSpec.from_pairs(["a", "b"], {("a", "z"): 0.01})

    def test_diagonal_rejected(self):
        with pytest.raises(InputError, match="diagonal"):
            CovarianceSpec.from_pairs(["a", "b"], {("a", "a"): 0.01})

    def test_conflicting_entries_rejected(self):
        with pytest.raises(InputError, match="conflicting"):
            CovarianceSpec.from_pairs(["a", "b"], {("a", "b"): 0.01, ("b", "a"): 0.02})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, value):
        with pytest.raises(InputError, match="finite"):
            CovarianceSpec.from_pairs(["a", "b"], {("a", "b"): value})


class TestCovarianceCsv:
    def test_parse_symmetric_matrix(self):
        text = "id,a,b\na,0,0.003\nb,0.003,0\n"
        spec = load_covariance_csv(text)
        assert spec.arguments == ("a", "b")
        assert spec.off_diagonal == {("a", "b"): 0.003}

    def test_nonzero_diagonal_warns_once(self):
        text = "id,a,b\na,0.08,0.003\nb,0.003,0.01\n"
        with pytest.warns(UserWarning, match="diagonal entries are ignored") as record:
            spec = load_covariance_csv(text)
        assert len(record) == 1
        assert spec.off_diagonal == {("a", "b"): 0.003}

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError, match="not symmetric"):
            load_covariance_csv("id,a,b\na,0,0.003\nb,0.004,0\n")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_rejected(self, cell):
        with pytest.raises(InputError, match="finite"):
            load_covariance_csv(f"id,a,b\na,0,{cell}\nb,{cell},0\n")

    def test_shape_and_id_mismatches_rejected(self):
        with pytest.raises(InputError, match="square"):
            load_covariance_csv("id,a,b\na,0,0.003\n")
        with pytest.raises(InputError, match="row ids"):
            load_covariance_csv("id,a,b\nb,0,0.003\na,0.003,0\n")
        with pytest.raises(InputError):
            load_covariance_csv("id,a,b\na,0,x\nb,0.003,0\n")
        with pytest.raises(InputError):
            load_covariance_csv("")


class TestPropagateWithCovariance:
    def test_off_diagonal_shifts_variance(self, query_d, example_labels):
        base = propagate(query_d, example_labels).variance
        grads = backward_gradients(query_d, example_labels)
        spec = CovarianceSpec.from_pairs("abcd", {("a", "b"): 0.003})
        got = propagate(query_d, example_labels, covariance=spec).variance
        assert got == pytest.approx(base + 2.0 * grads["a"] * grads["b"] * 0.003, abs=1e-12)

    def test_negative_covariance_tightens(self, query_d, example_labels):
        base = propagate(query_d, example_labels).variance
        spec = CovarianceSpec.from_pairs("abcd", {("a", "c"): -0.002})
        got = propagate(query_d, example_labels, covariance=spec).variance
        # both gradients nonzero with opposite signs: -2 g_a g_c cov > 0 flips
        grads = backward_gradients(query_d, example_labels)
        assert got == pytest.approx(base + 2.0 * grads["a"] * grads["c"] * -0.002, abs=1e-12)

    def test_variance_never_negative(self, query_a, example_labels):
        # drive the quadratic form below zero, then observe the floor
        var_a = example_labels["a"].variance
        var_c = example_labels["c"].variance
        spec = CovarianceSpec.from_pairs("abcd", {("a", "c"): 1.0})
        with pytest.warns(UserWarning, match="Cauchy-Schwarz"):
            result = propagate(query_a, example_labels, covariance=spec)
        assert result.variance >= 0.0
        raw = (
            (1.0 - MC) ** 2 * var_a
            + MA**2 * var_c
            + 2.0 * (1.0 - MC) * (-MA) * 1.0
        )
        assert raw < 0.0
        assert result.variance == 0.0

    def test_cauchy_schwarz_warning_threshold(self, query_d, example_labels):
        import warnings

        bound = math.sqrt(example_labels["a"].variance * example_labels["b"].variance)
        fine = CovarianceSpec.from_pairs("abcd", {("a", "b"): bound * 0.99})
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            propagate(query_d, example_labels, covariance=fine)
        assert not any("Cauchy-Schwarz" in str(w.message) for w in record)
        loud = CovarianceSpec.from_pairs("abcd", {("a", "b"): bound * 1.01})
        with pytest.warns(UserWarning, match="Cauchy-Schwarz"):
            propagate(query_d, example_labels, covariance=loud)

    def test_unknown_covariance_argument_rejected(self, query_a, example_labels):
        spec = CovarianceSpec.from_pairs(["a", "z"], {("a", "z"): 0.0})
        with pytest.raises(InputError, match="unknown arguments"):
            propagate(query_a, example_labels, covariance=spec)


class TestIndexedKernel:
    """``_answer`` reads the circuit's index, conditions through the labels
    and takes the gradient in one backward pass. ``condition`` rebuilds the
    circuit instead, so it judges both passes."""

    @given(clause_sets(), st.randoms(use_true_random=False))
    def test_moments_match_the_rebuilt_circuit(self, theory, rng):
        # Every literal forced in turn, and none, under point and beta labels.
        circuit = compile_formula(theory)
        names = circuit.variables
        betas = {}
        for name in names:
            m, strength = rng.uniform(0.05, 0.95), rng.uniform(0.5, 30.0)
            betas[name] = BetaLabel(m * strength, (1.0 - m) * strength)
        points = {name: label.mean for name, label in betas.items()}
        step = 1e-5
        for forced in ({}, *({name: value} for name in names for value in (True, False))):
            judge = condition(circuit, forced)

            def mean_at(p):
                return evaluate(judge, PROBABILITY, Labelling.from_point_probabilities(p))

            slopes = {}
            for name in names:
                up, down = dict(points), dict(points)
                up[name] += step
                down[name] -= step
                slopes[name] = (mean_at(up) - mean_at(down)) / (2.0 * step)
            want_mean = min(max(mean_at(points), 0.0), 1.0)
            for labels in (betas, {n: BetaLabel.from_point(m) for n, m in points.items()}):
                variances = {name: labels[name].variance for name in names}
                got = _answer(circuit, _means(circuit, labels), variances, None, forced)
                assert got.mean == pytest.approx(want_mean, abs=1e-12)
                want = sum(slopes[n] * slopes[n] * variances[n] for n in names)
                assert got.variance == pytest.approx(want, abs=1e-6)

    def test_a_further_node_of_a_literal_shares_its_value_and_partial(self):
        # a or a, with a's literal built twice: the value and gradient of 2p.
        nodes = (Node("lit", var="a"), Node("lit", var="a"), Node("or", children=(0, 1)))
        c = Circuit(nodes, 2, ("a",))
        labels = {"a": BetaLabel(3.0, 7.0)}
        assert backward_gradients(c, labels) == {"a": pytest.approx(2.0, abs=1e-12)}
        got = _answer(c, _means(c, labels), {"a": 0.01}, None, {})
        assert got.mean == pytest.approx(0.6, abs=1e-12)
        assert got.variance == pytest.approx(4.0 * 0.01, abs=1e-12)
        assert _answer(c, _means(c, labels), {"a": 0.01}, None, {"a": False}) == (0.0, 0.0)
