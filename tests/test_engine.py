"""End-to-end acceptance queries and their independent oracles."""

import ast
import importlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import pargue
from conftest import frameworks
from pargue import (
    ArgumentationFramework,
    BetaLabel,
    CapacityError,
    CovarianceSpec,
    InputError,
    MomentPair,
    ProbabilisticGraph,
    Semantics,
    brute_force_prob,
    brute_force_prob_c,
    condition,
    gradients,
    mc_oracle,
    model_count,
    prob,
    prob_c,
    propagate,
)
from pargue import engine
from pargue.engine import _compiled
from pargue.semiring import PROBABILITY, Labelling, evaluate

CHAIN = ArgumentationFramework("abc", [("a", "b"), ("b", "c")])

# label means for the running example: a=1/2, b=17/19, c=4/19, d=10/13
MA, MB, MC, MD = 0.5, 17.0 / 19.0, 4.0 / 19.0, 10.0 / 13.0


@pytest.fixture
def example_graph(example_af, example_labels):
    return ProbabilisticGraph(example_af, example_labels)


class TestProbabilisticGraph:
    def test_missing_labels_rejected(self, example_af):
        with pytest.raises(InputError, match="unlabeled arguments: c, d"):
            ProbabilisticGraph(example_af, {"a": 0.5, "b": 0.5})

    def test_unknown_labels_rejected(self, example_af):
        labels = {name: 0.5 for name in "abcd"} | {"z": 0.5}
        with pytest.raises(InputError, match="unknown arguments: z"):
            ProbabilisticGraph(example_af, labels)

    def test_out_of_range_probability_rejected(self, example_af):
        labels = {name: 0.5 for name in "abcd"} | {"b": 1.5}
        with pytest.raises(InputError, match="out of \\[0,1\\]"):
            ProbabilisticGraph(example_af, labels)

    def test_mode_detection(self, example_af):
        points = ProbabilisticGraph(example_af, {name: 0.5 for name in "abcd"})
        assert not points.beta_mode
        mixed = ProbabilisticGraph(
            example_af, {"a": 0.5, "b": 0.5, "c": BetaLabel(2.0, 2.0), "d": 1.0}
        )
        assert mixed.beta_mode

    def test_label_views(self, example_af):
        graph = ProbabilisticGraph(
            example_af, {"a": 0.25, "b": BetaLabel(17.0, 2.0), "c": 0.0, "d": 1.0}
        )
        beta = graph.beta_labels()
        assert beta["a"] == BetaLabel.from_point(0.25)
        assert beta["b"] == BetaLabel(17.0, 2.0)
        assert graph.point_means() == {"a": 0.25, "b": pytest.approx(MB), "c": 0.0, "d": 1.0}


class TestProbWorkedExample:
    """Distribution-semantics queries under the reference beta labels."""

    def test_argument_a(self, example_graph):
        result = prob(example_graph, Semantics.AD, "a")
        assert result.mean == pytest.approx(MA * (1.0 - MC), abs=1e-12)
        assert result.variance == pytest.approx(0.0540166, abs=1e-6)
        assert str(result.fuzzy) == "somewhat_unlikely/low_confidence"
        assert result.matched.alpha == pytest.approx(1.3512, abs=1e-3)
        assert result.matched.beta == pytest.approx(2.0719, abs=1e-3)

    def test_argument_b(self, example_graph):
        result = prob(example_graph, Semantics.AD, "b")
        assert result.mean == pytest.approx(MB * (1.0 - MC), abs=1e-12)
        assert result.variance == pytest.approx(0.0095879, abs=1e-6)
        assert str(result.fuzzy) == "likely/high_confidence"

    def test_argument_c_is_impossible(self, example_graph):
        result = prob(example_graph, Semantics.AD, "c")
        assert result.mean == 0.0
        assert result.variance == 0.0
        assert result.matched.is_degenerate
        assert str(result.fuzzy) == "absolutely_not_likely/total_confidence"

    def test_argument_d(self, example_graph):
        result = prob(example_graph, Semantics.AD, "d")
        assert result.mean == pytest.approx(0.5753249520562539, abs=1e-12)
        assert result.variance == pytest.approx(0.0184280, abs=1e-6)
        assert str(result.fuzzy) == "somewhat_likely/some_confidence"

    def test_result_metadata(self, example_graph):
        result = prob(example_graph, Semantics.AD, "d")
        assert result.argument == "d"
        assert result.semantics is Semantics.AD
        assert result.mode == "prob"
        assert result.model_count == 7
        assert result.circuit_nodes > 0

    def test_repeat_calls_are_stable(self, example_graph):
        assert prob(example_graph, Semantics.AD, "d") == prob(example_graph, Semantics.AD, "d")


SELF_ATTACKER = ArgumentationFramework("abc", [("a", "a"), ("a", "b"), ("b", "c")])


def _conditioning_frameworks(rng: random.Random) -> list[ArgumentationFramework]:
    """Seeded frameworks of up to 10 arguments, then one with a self-attacker."""
    cases = []
    for _ in range(10):
        names = [f"x{i}" for i in range(rng.randint(1, 10))]
        attacks = [(s, t) for s in names for t in names if rng.random() < 0.25]
        cases.append(ArgumentationFramework(names, attacks))
    return cases + [SELF_ATTACKER]


class TestLabellingConditioning:
    """``prob`` labels the negated query literal zero on the shared theory
    circuit; rebuilding the circuit with ``condition`` is the reference."""

    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_matches_rebuilt_circuit(self, semantics):
        rng = random.Random(2208)
        for af in _conditioning_frameworks(rng):
            points = {n: rng.choice([0.0, 1.0, rng.random()]) for n in af.arguments}
            betas = {
                n: BetaLabel(rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0))
                for n in af.arguments
            }
            names = af.arguments
            covariance = CovarianceSpec.from_pairs(
                names,
                {
                    (a, b): rng.uniform(-0.9, 0.9)
                    * math.sqrt(betas[a].variance * betas[b].variance)
                    for i, a in enumerate(names)
                    for b in names[i + 1 :]
                },
            )
            point_graph = ProbabilisticGraph(af, points)
            beta_graph = ProbabilisticGraph(af, betas)
            theory = _compiled(af, semantics, None)[0]
            for name in names:
                rebuilt = condition(theory, {name: True})
                got = prob(point_graph, semantics, name)
                want = evaluate(
                    rebuilt, PROBABILITY, Labelling.from_point_probabilities(points)
                )
                assert got.mean == pytest.approx(min(max(want, 0.0), 1.0), abs=1e-12)
                assert got.model_count == model_count(theory)
                assert got.circuit_nodes == len(theory.nodes)
                for spec in (None, covariance):
                    got = prob(beta_graph, semantics, name, covariance=spec)
                    want = propagate(rebuilt, betas, spec)
                    assert got.mean == pytest.approx(want.mean, abs=1e-12)
                    assert got.variance == pytest.approx(want.variance, abs=1e-12)

    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_self_attacker_is_exactly_zero(self, semantics):
        labels = {"a": BetaLabel(5.0, 1.5), "b": BetaLabel(2.0, 2.0), "c": 0.9}
        for graph in (
            ProbabilisticGraph(SELF_ATTACKER, labels),
            ProbabilisticGraph(SELF_ATTACKER, {"a": 0.8, "b": 0.5, "c": 0.9}),
        ):
            result = prob(graph, semantics, "a")
            assert result.mean == 0.0
            assert result.variance == 0.0


class TestOneAnswerPath:
    """A point probability is a beta label of zero variance: both kinds of
    label answer through the same path."""

    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_point_graph_equals_degenerate_beta_twin(self, semantics):
        rng = random.Random(5150)
        for af in _conditioning_frameworks(rng)[:6]:
            points = {n: rng.choice([0.0, 1.0, rng.random()]) for n in af.arguments}
            twin = {n: BetaLabel.from_point(p) for n, p in points.items()}
            point_graph = ProbabilisticGraph(af, points)
            beta_graph = ProbabilisticGraph(af, twin)
            for query in (prob, prob_c):
                for name in af.arguments[:4]:
                    got = query(point_graph, semantics, name)
                    want = query(beta_graph, semantics, name)
                    assert got.mean == want.mean
                    assert got.variance == want.variance == 0.0
                    assert got.matched == want.matched
                    assert got.fuzzy == want.fuzzy

    def test_covariance_on_degenerate_labels_runs_delta_method(self, example_af):
        labels = {n: BetaLabel.from_point(p) for n, p in zip("abcd", (0.5, 0.6, 0.7, 0.8))}
        graph = ProbabilisticGraph(example_af, labels)
        spec = CovarianceSpec.from_pairs("abcd", {("a", "b"): 0.01})
        with pytest.warns(UserWarning, match="Cauchy-Schwarz"):
            result = prob(graph, Semantics.AD, "d", covariance=spec)
        rebuilt = condition(_compiled(example_af, Semantics.AD, None)[0], {"d": True})
        grads = gradients(rebuilt, labels)
        assert grads["a"] > 0.0 and grads["b"] > 0.0
        assert result.variance == pytest.approx(2.0 * grads["a"] * grads["b"] * 0.01, abs=1e-15)
        assert prob(graph, Semantics.AD, "d").variance == 0.0

    def test_prob_c_shares_the_admissible_circuit(self, monkeypatch):
        # Credulous acceptance is the same under AD, CO and PR.
        compiles = []
        real = engine.compile_formula

        def counting(*args, **kwargs):
            compiles.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "compile_formula", counting)
        rng = random.Random(77)
        for af in _conditioning_frameworks(rng)[:6]:
            labels = {
                n: BetaLabel(rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0))
                for n in af.arguments
            }
            graph = ProbabilisticGraph(af, labels)
            name = af.arguments[-1]
            engine._compiled.cache_clear()
            compiles.clear()
            answers = {s: prob_c(graph, s, name) for s in (Semantics.AD, Semantics.CO, Semantics.PR)}
            assert len(compiles) == 1
            ad = answers[Semantics.AD]
            for semantics, result in answers.items():
                assert result.semantics is semantics
                assert result.mean.hex() == ad.mean.hex()
                assert result.variance.hex() == ad.variance.hex()
                assert (result.matched, result.fuzzy) == (ad.matched, ad.fuzzy)
                assert (result.model_count, result.circuit_nodes) == (
                    ad.model_count,
                    ad.circuit_nodes,
                )



class TestCompiledCache:
    """One bounded cache holds each compiled target with its model count."""

    def test_warm_queries_neither_compile_nor_count(self, monkeypatch, example_graph):
        calls = {"compile_formula": 0, "model_count": 0}
        for name in calls:
            real = getattr(engine, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(engine, name, counting)
        engine._compiled.cache_clear()
        for query in (prob, prob_c):
            for semantics in Semantics:
                cold = query(example_graph, semantics, "d")
                before = dict(calls)
                warm = query(example_graph, semantics, "d")
                assert calls == before, (query.__name__, semantics)
                assert warm == cold
        # Six theories, plus four constellations: CO and PR share AD's.
        assert calls == {"compile_formula": 10, "model_count": 10}

    def test_cache_stays_bounded(self):
        engine._compiled.cache_clear()
        pairs = 0
        for i in range(50):
            af = ArgumentationFramework([f"a{i}", f"b{i}"], [(f"a{i}", f"b{i}")])
            graph = ProbabilisticGraph(af, {f"a{i}": 0.5, f"b{i}": 0.25})
            for semantics in Semantics:
                prob(graph, semantics, f"b{i}")
                pairs += 1
        info = engine._compiled.cache_info()
        assert pairs > 256 and info.misses == pairs
        assert info.currsize <= 256

def test_import_skips_numpy():
    # numpy serves the Monte-Carlo oracle alone; queries must not pay for it.
    src = str(Path(pargue.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, pargue, pargue.cli; assert 'numpy' not in sys.modules"
    subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=60,
    )


def test_benchmark_wrapped_names_resolve():
    # benchmark/spans.py wraps these (module, attribute) pairs at run time;
    # a renamed function would silently drop a layer from the traces.
    spans = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    wrapped = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED"
    )
    pairs = ast.literal_eval(wrapped)
    assert pairs
    for module_name, attribute in pairs:
        module = importlib.import_module(f"pargue.{module_name}")
        assert callable(getattr(module, attribute, None)), (module_name, attribute)


class TestProbCWorkedExample:
    """Constellation queries under the reference beta labels."""

    def test_unattacked_arguments_recover_their_labels(self, example_graph, example_labels):
        # a and b sit in an extension of every subgraph containing them, so
        # the query distribution is the label itself
        for name in ("a", "b"):
            result = prob_c(example_graph, Semantics.AD, name)
            label = example_labels[name]
            assert result.mean == pytest.approx(label.mean, abs=1e-12)
            assert result.variance == pytest.approx(label.variance, abs=1e-12)
            assert result.matched.alpha == pytest.approx(label.alpha, abs=1e-9)
            assert result.matched.beta == pytest.approx(label.beta, abs=1e-9)

    def test_argument_a_words(self, example_graph):
        result = prob_c(example_graph, Semantics.AD, "a")
        assert str(result.fuzzy) == "chances_about_even/no_confidence"

    def test_argument_b_words(self, example_graph):
        result = prob_c(example_graph, Semantics.AD, "b")
        assert str(result.fuzzy) == "very_likely/high_confidence"

    def test_argument_c(self, example_graph):
        result = prob_c(example_graph, Semantics.AD, "c")
        assert result.mean == pytest.approx(0.0110803, abs=1e-6)
        assert result.variance == pytest.approx(0.0001161, abs=1e-7)
        assert str(result.fuzzy) == "very_unlikely/total_confidence"
        assert result.matched.alpha == pytest.approx(1.0345, abs=1e-3)
        assert result.matched.beta == pytest.approx(92.3268, abs=1e-2)

    def test_argument_d(self, example_graph):
        result = prob_c(example_graph, Semantics.AD, "d")
        assert result.mean == pytest.approx(0.7607074, abs=1e-6)
        assert result.variance == pytest.approx(0.0232157, abs=1e-6)
        assert str(result.fuzzy) == "likely/some_confidence"

    def test_result_metadata(self, example_graph):
        result = prob_c(example_graph, Semantics.AD, "c")
        assert result.mode == "prob-c"
        assert result.argument == "c"
        assert result.semantics is Semantics.AD


class TestChainDivergence:
    """The two query modes answer different questions on a -> b -> c."""

    def test_half_labels(self):
        graph = ProbabilisticGraph(CHAIN, {name: 0.5 for name in "abc"})
        assert prob(graph, Semantics.GR, "c").mean == pytest.approx(0.125, abs=1e-12)
        assert prob_c(graph, Semantics.GR, "c").mean == pytest.approx(0.375, abs=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_symbolic_laws(self, wa, wb, wc):
        graph = ProbabilisticGraph(CHAIN, {"a": wa, "b": wb, "c": wc})
        # prob: the grounded extension must contain c, forcing a in, b out
        assert prob(graph, Semantics.GR, "c").mean == pytest.approx(
            wa * (1.0 - wb) * wc, abs=1e-12
        )
        # prob-c: subgraphs {c}, {a,c}, {a,b,c} accept c; {b,c} does not
        assert prob_c(graph, Semantics.GR, "c").mean == pytest.approx(
            wc * ((1.0 - wb) + wa * wb), abs=1e-12
        )


class TestOracleAgreement:
    @given(frameworks(max_args=4))
    def test_point_queries_match_brute_force(self, af):
        means = {
            name: 0.15 + 0.7 * (i + 1) / (len(af.arguments) + 1)
            for i, name in enumerate(af.arguments)
        }
        graph = ProbabilisticGraph(af, means)
        for semantics in Semantics:
            for name in af.arguments[:2]:
                assert prob(graph, semantics, name).mean == pytest.approx(
                    brute_force_prob(graph, semantics, name), abs=1e-9
                )
                assert prob_c(graph, semantics, name).mean == pytest.approx(
                    brute_force_prob_c(graph, semantics, name), abs=1e-9
                )

    @given(frameworks(max_args=4))
    def test_beta_means_match_brute_force(self, af):
        labels = {
            name: BetaLabel(1.0 + i, 1.5 + 0.5 * i) for i, name in enumerate(af.arguments)
        }
        graph = ProbabilisticGraph(af, labels)
        for semantics in (Semantics.AD, Semantics.GR, Semantics.ST):
            for name in af.arguments[:2]:
                exact = brute_force_prob(graph, semantics, name)
                assert isinstance(exact, MomentPair)
                assert prob(graph, semantics, name).mean == pytest.approx(exact.mean, abs=1e-9)
                exact_c = brute_force_prob_c(graph, semantics, name)
                assert prob_c(graph, semantics, name).mean == pytest.approx(
                    exact_c.mean, abs=1e-9
                )

    def test_unattacked_argument_exact_variance(self, example_graph):
        # for unattacked arguments the delta method is exact, and the exact
        # mixture oracle must agree to machine precision
        exact = brute_force_prob_c(example_graph, Semantics.AD, "b")
        result = prob_c(example_graph, Semantics.AD, "b")
        assert result.mean == pytest.approx(exact.mean, abs=1e-12)
        assert result.variance == pytest.approx(exact.variance, abs=1e-12)


class TestMonteCarlo:
    def test_fixed_seed_is_deterministic(self, example_graph):
        first = mc_oracle(example_graph, Semantics.AD, "a", "prob", 5000, seed=7)
        second = mc_oracle(example_graph, Semantics.AD, "a", "prob", 5000, seed=7)
        assert first == second
        # the exact moments of this seed, so a change in the draws or in the
        # circuit evaluation shows up here
        assert first == MomentPair(
            float.fromhex("0x1.9176c578ff5bap-2"), float.fromhex("0x1.c3d8428e43ab0p-5")
        )
        third = mc_oracle(example_graph, Semantics.AD, "a", "prob", 5000, seed=8)
        assert third != first

    def test_estimates_near_exact_moments(self, example_graph):
        exact = brute_force_prob(example_graph, Semantics.AD, "a")
        got = mc_oracle(example_graph, Semantics.AD, "a", "prob", 20000, seed=0)
        assert got.mean == pytest.approx(exact.mean, abs=0.01)
        assert got.variance == pytest.approx(exact.variance, rel=0.1)

    def test_constellation_mode(self, example_graph):
        exact = brute_force_prob_c(example_graph, Semantics.AD, "c")
        got = mc_oracle(example_graph, Semantics.AD, "c", "prob-c", 20000, seed=0)
        assert got.mean == pytest.approx(exact.mean, abs=0.005)

    def test_point_labels_collapse_to_exact_value(self, example_af):
        graph = ProbabilisticGraph(example_af, {name: 0.5 for name in "abcd"})
        got = mc_oracle(graph, Semantics.AD, "d", "prob", 1000, seed=3)
        assert got.mean == pytest.approx(prob(graph, Semantics.AD, "d").mean, abs=1e-12)
        assert got.variance == pytest.approx(0.0, abs=1e-15)

    def test_sampling_across_chunk_boundary(self, example_graph):
        # a request above the internal chunk size still behaves: repeatable
        # and close to the exact mean
        exact = brute_force_prob(example_graph, Semantics.AD, "a")
        big = mc_oracle(example_graph, Semantics.AD, "a", "prob", (1 << 16) + 17, seed=1)
        again = mc_oracle(example_graph, Semantics.AD, "a", "prob", (1 << 16) + 17, seed=1)
        assert big == again
        assert big.mean == pytest.approx(exact.mean, abs=0.01)

    def test_invalid_requests(self, example_graph):
        with pytest.raises(InputError, match="sample count"):
            mc_oracle(example_graph, Semantics.AD, "a", "prob", 0, seed=0)
        with pytest.raises(InputError, match="unknown query mode"):
            mc_oracle(example_graph, Semantics.AD, "a", "exact", 100, seed=0)


class TestGuards:
    def test_unknown_argument(self, example_graph):
        with pytest.raises(InputError):
            prob(example_graph, Semantics.AD, "z")
        with pytest.raises(InputError):
            prob_c(example_graph, Semantics.AD, "z")

    def test_covariance_requires_beta_labels(self, example_af):
        graph = ProbabilisticGraph(example_af, {name: 0.5 for name in "abcd"})
        spec = CovarianceSpec.from_pairs("abcd", {("a", "b"): 0.001})
        with pytest.raises(InputError, match="beta labels"):
            prob(graph, Semantics.AD, "a", covariance=spec)

    def test_brute_force_capacity(self):
        names = [f"n{i}" for i in range(13)]
        af = ArgumentationFramework(names)
        graph = ProbabilisticGraph(af, {name: 0.5 for name in names})
        with pytest.raises(CapacityError, match="brute-force"):
            brute_force_prob(graph, Semantics.AD, "n0")
        with pytest.raises(CapacityError, match="brute-force"):
            brute_force_prob_c(graph, Semantics.AD, "n0")

    def test_constellation_capacity(self):
        names = [f"n{i}" for i in range(21)]
        af = ArgumentationFramework(names)
        graph = ProbabilisticGraph(af, {name: 0.5 for name in names})
        with pytest.raises(CapacityError):
            prob_c(graph, Semantics.AD, "n0")

    def test_compile_capacity(self):
        names = [f"n{i}" for i in range(26)]
        af = ArgumentationFramework(names)
        graph = ProbabilisticGraph(af, {name: 0.5 for name in names})
        with pytest.raises(CapacityError):
            prob(graph, Semantics.AD, "n0")
