"""End-to-end acceptance queries and their independent oracles."""

import importlib
import importlib.util
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import pargue
from conftest import (
    backward_gradients, constellation, frameworks, lifted_models, passed, random_beta_labels
)
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
    encode_enumerative,
    format_nnf,
    mc_oracle,
    model_count,
    prob,
    prob_c,
    propagate,
)
from pargue import encode, engine, extensions, subgraph
from pargue.af import _acyclic, _cone_mask
from pargue.circuit import Compiler, validate
from pargue.encode import _grounded_table
from pargue.engine import _accepted, _compiled
from pargue.semiring import PROBABILITY, Labelling, evaluate

CHAIN = ArgumentationFramework("abc", [("a", "b"), ("b", "c")])

# label means for the running example: a=1/2, b=17/19, c=4/19, d=10/13
MA, MB, MC, MD = 0.5, 17.0 / 19.0, 4.0 / 19.0, 10.0 / 13.0


@pytest.fixture
def example_graph(example_af, example_labels):
    return ProbabilisticGraph(example_af, example_labels)


def count_calls(monkeypatch, calls, owners):
    """Patch each (owner, name) of ``owners`` to append its name to
    ``calls`` before running. A constellation is built by a ``Compiler``'s
    ``circuit``, a theory by ``engine.compile_formula``."""
    for owner, name in owners:
        real = getattr(owner, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)


def clear_caches():
    engine._compiled.cache_clear()
    engine._compiler.cache_clear()


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
        grads = backward_gradients(rebuilt, labels)
        assert grads["a"] > 0.0 and grads["b"] > 0.0
        assert result.variance == pytest.approx(2.0 * grads["a"] * grads["b"] * 0.01, abs=1e-15)
        assert prob(graph, Semantics.AD, "d").variance == 0.0

    def test_prob_c_shares_the_admissible_circuit(self, monkeypatch):
        # Credulous acceptance is the same under AD, CO and PR.
        compiles = []
        count_calls(
            monkeypatch, compiles,
            ((engine, "compile_formula"), (engine, "encode_constellation"), (Compiler, "circuit")),
        )
        rng = random.Random(77)
        for af in _conditioning_frameworks(rng)[:6]:
            labels = {
                n: BetaLabel(rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0))
                for n in af.arguments
            }
            graph = ProbabilisticGraph(af, labels)
            name = af.arguments[-1]
            clear_caches()
            compiles.clear()
            answers = {s: prob_c(graph, s, name) for s in (Semantics.AD, Semantics.CO, Semantics.PR)}
            assert compiles == ["encode_constellation", "circuit"]
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
        calls = []
        builders = ("compile_formula", "encode_constellation", "encode_enumerative", "model_count")
        count_calls(
            monkeypatch, calls, [(engine, name) for name in builders] + [(Compiler, "circuit")]
        )
        clear_caches()
        for query in (prob, prob_c):
            for semantics in Semantics:
                cold = query(example_graph, semantics, "d")
                before = list(calls)
                warm = query(example_graph, semantics, "d")
                assert calls == before, (query.__name__, semantics)
                assert warm == cold
        # Six theories, five compiled and PR's a listed model set, plus one
        # constellation: CO and PR share AD's, the framework is acyclic, so
        # GR and ST do too, and CF's has a closed form. A compiler's circuit
        # builds each of the six compiled circuits.
        counts = {name: calls.count(name) for name in (*builders, "circuit")}
        assert counts == {
            "compile_formula": 5, "encode_constellation": 1, "encode_enumerative": 1,
            "model_count": 7, "circuit": 6,
        }

    def test_preferred_reuses_the_complete_circuit(self, monkeypatch, example_graph):
        calls = []
        # Count circuit builds wherever a module looks a builder up.
        for module in (engine, importlib.import_module("pargue.encode")):
            for name in ("compile_formula", "encode_enumerative"):
                real = getattr(module, name, None)
                if real is not None:

                    def counting(*args, _name=name, _real=real, **kwargs):
                        calls.append(_name)
                        return _real(*args, **kwargs)

                    monkeypatch.setattr(module, name, counting)
        engine._compiled.cache_clear()
        prob(example_graph, Semantics.CO, "d")
        prob(example_graph, Semantics.PR, "d")
        assert calls == ["compile_formula", "encode_enumerative"]

    def test_mc_oracle_shares_the_admissible_constellation(self, monkeypatch, example_graph):
        compiles = []
        count_calls(
            monkeypatch, compiles,
            ((engine, "compile_formula"), (engine, "encode_constellation"), (Compiler, "circuit")),
        )
        clear_caches()
        prob_c(example_graph, Semantics.AD, "d")
        estimates = {
            s: mc_oracle(example_graph, s, "d", "prob-c", samples=200, seed=3)
            for s in (Semantics.AD, Semantics.CO, Semantics.PR)
        }
        assert compiles == ["encode_constellation", "circuit"]
        assert estimates[Semantics.CO] == estimates[Semantics.PR] == estimates[Semantics.AD]

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

class TestPreferredTheory:
    """PR's theory comes from the maximal models of the compiled CO theory."""

    def test_compiles_without_a_subset_scan(self, monkeypatch):
        calls = []
        for name in ("pargue.af", "pargue.encode"):
            module = importlib.import_module(name)
            real = module._extension_masks

            def counting(*args, _real=real):
                calls.append(args)
                return _real(*args)

            monkeypatch.setattr(module, "_extension_masks", counting)
        rng = random.Random(10)
        names = [f"n{i:02d}" for i in range(14)]
        pairs = [(s, t) for s in names for t in names]
        af = ArgumentationFramework(names, rng.sample(pairs, 21))
        engine._compiled.cache_clear()
        _, count = _compiled(af, Semantics.PR, None)
        assert calls == []
        assert count == len(pargue.extensions(af, Semantics.PR)) and calls

    def test_mutual_pairs_closed_form(self):
        # 12 mutually attacking pairs: 3^12 complete extensions, and 2^12
        # preferred ones that take exactly one argument of each pair.
        rng = random.Random(24)
        pairs = [(f"p{i:02d}a", f"p{i:02d}b") for i in range(12)]
        attacks = [edge for u, v in pairs for edge in ((u, v), (v, u))]
        af = ArgumentationFramework([x for pair in pairs for x in pair], attacks)
        weights = {name: rng.uniform(0.05, 0.95) for name in af.arguments}
        graph = ProbabilisticGraph(af, weights)
        either = {
            (u, v): weights[u] * (1 - weights[v]) + weights[v] * (1 - weights[u])
            for u, v in pairs
        }
        for pair in pairs:
            rest = math.prod(either[other] for other in pairs if other != pair)
            for x, y in (pair, pair[::-1]):
                result = prob(graph, Semantics.PR, x)
                assert result.model_count == 2**12
                assert result.mean == pytest.approx(weights[x] * (1 - weights[y]) * rest, abs=1e-12)


class TestConstellationScan:
    """One bounded acceptance table per framework for GR; none for the rest."""

    def test_table_cache_stays_bounded(self):
        scan = importlib.import_module("pargue.encode")._grounded_table
        scan.cache_clear()
        pairs = 0
        for i in range(70):
            # a and b attack each other, and b attacks c: every cone is cyclic.
            a, b, c = f"a{i}", f"b{i}", f"c{i}"
            af = ArgumentationFramework([a, b, c], [(a, b), (b, a), (b, c)])
            graph = ProbabilisticGraph(af, {a: 0.5, b: 0.25, c: 0.75})
            prob_c(graph, Semantics.GR, c)
            prob_c(graph, Semantics.GR, a)
            prob_c(graph, Semantics.GR, b)
            pairs += 1
        # Tables are keyed on the cone's subgraph: {a, b, c} for c, {a, b}
        # for a and b.
        info = scan.cache_info()
        assert pairs > info.maxsize and info.misses == 2 * pairs
        assert info.currsize <= info.maxsize

    def test_cf_encodes_without_a_scan(self, monkeypatch, example_af):
        encode_module = importlib.import_module("pargue.encode")
        calls = []
        real = encode_module._extension_masks

        def counting(*args):
            calls.append(args)
            return real(*args)

        for module in (encode_module, engine):
            monkeypatch.setattr(module, "_extension_masks", counting)
        engine._accepted.cache_clear()
        encode_module._grounded_table.cache_clear()
        clear_caches()
        loop = ArgumentationFramework("ab", [("a", "a"), ("a", "b")])
        for af in (example_af, loop):
            for name in af.arguments:
                constellation(af, Semantics.CF, name)
                # AD, CO, PR and ST compile a projected theory instead.
                for semantics in (Semantics.AD, Semantics.CO, Semantics.PR, Semantics.ST):
                    _compiled(af, semantics, name)
        assert encode_module._grounded_table.cache_info().misses == 0
        # A cyclic cone: GR labels every subgraph at once, in the bit-parallel
        # table, and still runs no per-subgraph fixed point.
        _compiled(loop, Semantics.GR, "b")
        assert encode_module._grounded_table.cache_info().misses == 1
        assert calls == []

    @given(frameworks(max_args=10, names="abcdefghij"))
    def test_grounded_table_is_the_fixed_point_scan(self, af):
        # Bit S of argument x's entry is whether x is in the grounded
        # extension of the subgraph holding each argument y with bit n-1-y of
        # S set, as that subgraph's own fixed point says. The scan's subgraph
        # masks hold argument y at bit y.
        n = len(af.arguments)
        scan = _accepted(af, Semantics.GR)

        def position(sub):
            return sum(1 << n - 1 - y for y in range(n) if sub >> y & 1)

        want = tuple(
            sum(1 << position(sub) for sub, accepted in enumerate(scan) if accepted >> x & 1)
            for x in range(n)
        )
        assert _grounded_table(af, af._full_mask) == want

    @given(frameworks(max_args=8))
    def test_grounded_constellation_is_the_listed_scan(self, af):
        # On a cyclic cone GR's constellation is built from its truth table.
        # Listing the accepting subgraphs the per-subgraph scan finds builds
        # the same circuit, node for node.
        cyclic = [x for x in af.arguments if not _acyclic(af, _cone_mask(af, x))]
        assume(cyclic)
        for name in cyclic:
            cone = subgraph(af, af._members(_cone_mask(af, name)))
            bit = 1 << cone._index[name]
            masks = [sub for sub, union in enumerate(_accepted(cone, Semantics.GR)) if union & bit]
            circuit, count = _compiled(cone, Semantics.GR, name)
            assert format_nnf(circuit) == format_nnf(encode_enumerative(cone.arguments, masks))
            assert passed(validate(circuit))
            table = _grounded_table(cone, cone._full_mask)[cone._index[name]]
            assert count == model_count(circuit) == bin(table).count("1") == len(masks)

    def test_grounded_prob_c_runs_no_fixed_point_scan(self, monkeypatch):
        # The per-subgraph scan serves the brute-force oracle alone.
        def refuse(*args):
            raise AssertionError("_accepted called")

        monkeypatch.setattr(engine, "_accepted", refuse)
        clear_caches()
        # a and b attack each other, b attacks c, c attacks itself: every
        # cone is cyclic.
        af = ArgumentationFramework("abc", [("a", "b"), ("b", "a"), ("b", "c"), ("c", "c")])
        graph = ProbabilisticGraph(af, {"a": 0.5, "b": 0.25, "c": 0.75})
        assert [prob_c(graph, Semantics.GR, name).mean for name in "abc"] == [0.5 * 0.75, 0.25 * 0.5, 0.0]
        with pytest.raises(AssertionError, match="_accepted called"):
            brute_force_prob_c(graph, Semantics.GR, "a")

    def test_cf_closed_form_past_the_scan_limit(self):
        names = [f"n{i:02d}" for i in range(21)]
        af = ArgumentationFramework(names, [("n00", "n00"), ("n00", "n01")])
        graph = ProbabilisticGraph(af, {name: 0.25 + i / 100 for i, name in enumerate(names)})
        loop = prob_c(graph, Semantics.CF, "n00")
        assert loop.mean == 0.0 and loop.model_count == 0
        attacked = prob_c(graph, Semantics.CF, "n01")
        assert attacked.mean == pytest.approx(0.26, abs=1e-15)
        assert attacked.model_count == 2**20


class TestProjectedConstellation:
    """AD/CO/PR/ST constellations compile an existential theory; GR's lists
    the scanned subgraphs. Both must agree with the scan."""

    @given(frameworks(max_args=6), st.randoms(use_true_random=False))
    def test_circuits_match_the_scan(self, af, rng):
        # A cone's circuit, lifted by the free arguments outside it, has the
        # accepting subgraphs of the whole framework as its models.
        graph = ProbabilisticGraph(af, random_beta_labels(rng, af))
        for semantics in Semantics:
            table = _accepted(af, semantics)
            for name in af.arguments:
                bit = 1 << af.arguments.index(name)
                circuit, count = _compiled(af, semantics, name)
                assert passed(validate(circuit))
                want = sorted(sub for sub, union in enumerate(table) if union & bit)
                assert sorted(lifted_models(af, circuit)) == want and count == len(want)
                exact = brute_force_prob_c(graph, semantics, name)
                assert prob_c(graph, semantics, name).mean == pytest.approx(
                    exact.mean, abs=1e-12
                )


class TestRelevanceCone:
    """AD and GR constellations (and CO's and PR's, which are AD's) are
    encoded on the argument's relevance cone; CF's prob_c is a closed form."""

    # The beta oracle pairs every two accepting subgraphs; 40 examples keep
    # this near a second.
    @settings(max_examples=40)
    @given(frameworks(max_args=8), st.booleans(), st.randoms(use_true_random=False))
    def test_prob_c_matches_brute_force(self, af, beta, rng):
        labels = (
            random_beta_labels(rng, af) if beta
            else {name: rng.choice([0.0, 1.0, rng.random()]) for name in af.arguments}
        )
        graph = ProbabilisticGraph(af, labels)
        for semantics in Semantics:
            for name in af.arguments:
                assert passed(validate(engine._target(af, semantics, name, "prob-c")[0]))
                exact = brute_force_prob_c(graph, semantics, name)
                got = prob_c(graph, semantics, name)
                assert got.mean == pytest.approx(getattr(exact, "mean", exact), abs=1e-12)
                if not beta:
                    assert got.variance == 0.0

    @given(frameworks(max_args=8))
    def test_cone_tables_match_the_whole_framework_scan(self, af):
        for name in af.arguments:
            cone = subgraph(af, af._members(_cone_mask(af, name)))
            # Bit j of a cone mask is the whole framework's bit at[j].
            at = [af.arguments.index(x) for x in cone.arguments]
            bit = 1 << cone.arguments.index(name)
            for semantics in (Semantics.AD, Semantics.GR):
                whole, part = _accepted(af, semantics), _accepted(cone, semantics)
                for sub, union in enumerate(whole):
                    inside = sum(1 << j for j, i in enumerate(at) if sub >> i & 1)
                    want = bool(union >> af.arguments.index(name) & 1)
                    assert bool(part[inside] & bit) == want, (semantics, name, sub)

    def test_grounded_past_twenty_arguments(self):
        # x00's cone is the 3-cycle x00 <- x01 <- x02 <- x00; x00 attacks
        # into a 20-argument chain that stays outside it.
        names = [f"x{i:02d}" for i in range(23)]
        attacks = [("x01", "x00"), ("x02", "x01"), ("x00", "x02"), ("x00", "x03")]
        attacks += list(zip(names[3:], names[4:]))
        af = ArgumentationFramework(names, attacks)
        labels = {name: 0.2 + i / 40 for i, name in enumerate(names)}
        result = prob_c(ProbabilisticGraph(af, labels), Semantics.GR, "x00")
        cone = subgraph(af, ["x00", "x01", "x02"])
        alone = ProbabilisticGraph(cone, {name: labels[name] for name in cone.arguments})
        exact = brute_force_prob_c(alone, Semantics.GR, "x00")
        assert result.mean == pytest.approx(exact, abs=1e-15)
        # {x00} and {x00, x02} accept x00, each beside any of the other 20.
        assert result.model_count == 2 * 2**20
        # The chain's end has all 23 arguments in its cone, past the table's 22.
        with pytest.raises(CapacityError):
            prob_c(ProbabilisticGraph(af, labels), Semantics.GR, "x22")

    def test_small_cones_of_a_long_chain(self):
        # n_i attacks n_{i+1}: the cone of n_k is n_0..n_k, so a query
        # compiles k + 1 arguments whatever the chain's length. A subgraph
        # accepts n_k when n_k is present and n_{k-1} is not accepted, so
        # its probability is q_k = p_k (1 - q_{k-1}).
        names = [f"n{i:04d}" for i in range(1200)]
        af = ArgumentationFramework(names, list(zip(names, names[1:])))
        p = [0.3 + (i % 7) / 10 for i in range(1200)]
        graph = ProbabilisticGraph(af, dict(zip(names, p)))
        q = [p[0]]
        for i in range(1, 20):
            q.append(p[i] * (1.0 - q[-1]))
        for k in (0, 9, 19):
            cone = subgraph(af, names[: k + 1])
            for semantics in (Semantics.AD, Semantics.GR):
                result = prob_c(graph, semantics, names[k])
                assert result.mean == pytest.approx(q[k], abs=1e-12)
                circuit, count = _compiled(af, semantics, names[k])
                assert circuit.variables == cone.arguments
                inside = _compiled(cone, semantics, names[k])[1]
                assert count == result.model_count == inside << 1199 - k

    @given(frameworks(max_args=7))
    def test_circuits_stay_inside_the_scope(self, af):
        # A constellation circuit mentions its scope's arguments alone: the
        # cone, or under ST the whole framework unless it is acyclic.
        for name in af.arguments:
            cone = af._members(_cone_mask(af, name))
            for semantics in Semantics:
                circuit = _compiled(af, semantics, name)[0]
                scope = cone
                if semantics is Semantics.ST and not _acyclic(af, af._full_mask):
                    scope = set(af.arguments)
                assert set(circuit.variables) == scope, (semantics, name)
                assert {node.var for node in circuit.nodes if node.var} <= scope

    def test_covariance_outside_the_cone_changes_nothing(self):
        # c's cone is {a, b, c}; d, e and f lie outside it.
        af = ArgumentationFramework("abcdef", [("a", "c"), ("b", "c"), ("c", "d")])
        labels = {name: BetaLabel(2.0 + i, 3.0) for i, name in enumerate("abcdef")}
        graph = ProbabilisticGraph(af, labels)
        inside = CovarianceSpec.from_pairs("abcdef", {("a", "b"): 0.001})
        both = CovarianceSpec.from_pairs("abcdef", {("a", "b"): 0.001, ("d", "e"): 0.002})
        for semantics in (Semantics.AD, Semantics.GR, Semantics.CO):
            want = prob_c(graph, semantics, "c", covariance=inside)
            assert prob_c(graph, semantics, "c", covariance=both) == want
            assert want.variance != prob_c(graph, semantics, "c").variance

    def test_cf_prob_c_builds_no_circuit(self, monkeypatch, example_af, example_labels):
        calls = []
        count_calls(
            monkeypatch, calls,
            ((engine, "encode_constellation"), (engine, "compile_formula"), (Compiler, "circuit")),
        )
        clear_caches()
        graph = ProbabilisticGraph(example_af, example_labels)
        for name, label in example_labels.items():
            result = prob_c(graph, Semantics.CF, name)
            assert (result.mean, result.variance) == (label.mean, label.variance)
            assert (result.model_count, result.circuit_nodes) == (2**3, 0)
        loop = ArgumentationFramework("ab", [("a", "a"), ("a", "b")])
        result = prob_c(ProbabilisticGraph(loop, {"a": 0.7, "b": 0.4}), Semantics.CF, "a")
        assert (result.mean, result.variance, result.model_count) == (0.0, 0.0, 0)
        assert calls == []
        # A covariance meets the same checks as on every other route.
        spec = CovarianceSpec.from_pairs("abcd", {("a", "b"): 0.5})
        with pytest.warns(UserWarning, match="Cauchy-Schwarz"):
            widened = prob_c(graph, Semantics.CF, "a", covariance=spec)
        assert widened.variance == example_labels["a"].variance
        points = ProbabilisticGraph(example_af, {name: 0.5 for name in "abcd"})
        with pytest.raises(InputError, match="beta labels"):
            prob_c(points, Semantics.CF, "a", covariance=spec)
        # mc_oracle stays an independent route: it compiles CF's constellation.
        mc_oracle(graph, Semantics.CF, "a", "prob-c", samples=10, seed=0)
        assert calls == ["encode_constellation", "circuit"]


@st.composite
def acyclic_frameworks(draw, max_args: int = 7) -> ArgumentationFramework:
    """Frameworks whose attacks all run forward along a drawn order."""
    n = draw(st.integers(1, max_args))
    order = draw(st.permutations("abcdefgh"[:n]))
    forward = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    attacks = draw(st.sets(st.sampled_from(forward))) if forward else ()
    return ArgumentationFramework(order, attacks)


class TestAcyclicConstellation:
    """With no attack cycle every subgraph has one complete extension, which
    is grounded, preferred and stable (Dung 1995, Thm 30): GR's prob-c on an
    acyclic cone, and ST's on an acyclic framework, read AD's circuit."""

    @settings(max_examples=40)
    @given(acyclic_frameworks(), st.randoms(use_true_random=False))
    def test_prob_c_matches_brute_force(self, af, rng):
        graph = ProbabilisticGraph(af, {name: rng.random() for name in af.arguments})
        for name in af.arguments:
            shared = _compiled(af, Semantics.AD, name)
            for semantics in (Semantics.GR, Semantics.CO, Semantics.PR, Semantics.ST):
                assert engine._target(af, semantics, name, "prob-c") is shared
                exact = brute_force_prob_c(graph, semantics, name)
                assert prob_c(graph, semantics, name).mean == pytest.approx(exact, abs=1e-12)

    def test_grounded_chain_past_the_table(self):
        # x{i+1} attacks x{i}: the cone of x00 is all 24 arguments, past the
        # 20 of GR's acceptance table, and has no cycle.
        names = [f"x{i:02d}" for i in range(24)]
        af = ArgumentationFramework(names, list(zip(names[1:], names)))
        graph = ProbabilisticGraph(af, {name: 0.2 + i / 40 for i, name in enumerate(names)})
        grounded = prob_c(graph, Semantics.GR, "x00")
        admissible = prob_c(graph, Semantics.AD, "x00")
        assert grounded.semantics is Semantics.GR
        for field in ("mean", "variance", "model_count", "circuit_nodes"):
            assert getattr(grounded, field) == getattr(admissible, field)
        # The cycle-free chain's stable and grounded answers agree as well.
        assert prob_c(graph, Semantics.ST, "x00").mean == grounded.mean

    @pytest.mark.parametrize(
        "attacks", [[("a", "b"), ("b", "c")], [("a", "b"), ("b", "a"), ("b", "c")]]
    )
    def test_stable_checks_the_framework_for_a_cycle_once(self, monkeypatch, attacks):
        # Every argument's ST constellation spans the whole framework, whose
        # cycle check is kept with the framework.
        af_module = importlib.import_module("pargue.af")
        scopes = []
        real = af_module._acyclic

        def counting(af, universe):
            scopes.append(universe)
            return real(af, universe)

        monkeypatch.setattr(af_module, "_acyclic", counting)
        monkeypatch.setattr(engine, "_acyclic", counting)
        clear_caches()
        af = ArgumentationFramework("abc", attacks)
        graph = ProbabilisticGraph(af, dict.fromkeys(af.arguments, 0.4))
        for name in af.arguments:
            assert prob_c(graph, Semantics.ST, name).mean == pytest.approx(
                brute_force_prob_c(graph, Semantics.ST, name), abs=1e-12
            )
        assert scopes == [af._full_mask]


class TestFormulaSessions:
    """Each compile target is built from its own encoding alone."""

    @staticmethod
    def _framework(prefix):
        rng = random.Random(3)
        names = [f"{prefix}{i:02d}" for i in range(10)]
        return ArgumentationFramework(
            names, rng.sample([(s, t) for s in names for t in names], 15)
        )

    def test_circuits_do_not_depend_on_earlier_compiles(self):
        # Two copies of one framework under fresh names that sort alike:
        # the first compiles PR cold, the second after other targets.
        cold, warm = self._framework("rc"), self._framework("rw")
        engine._compiled.cache_clear()
        first = _compiled(cold, Semantics.PR, None)[0]
        for semantics in (Semantics.AD, Semantics.GR, Semantics.ST, Semantics.CO):
            _compiled(warm, semantics, None)
            _compiled(warm, semantics, "rw00")
        engine._compiled.cache_clear()
        second = _compiled(warm, Semantics.PR, None)[0]
        assert repr(first.nodes).replace("'rc", "'rw") == repr(second.nodes)
        _compiled(cold, Semantics.CO, None)
        engine._compiled.cache_clear()
        assert _compiled(cold, Semantics.PR, None)[0].nodes == first.nodes


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


def test_benchmark_wrapped_names_resolve(monkeypatch):
    # benchmark/spans.py wraps these (module, attribute) pairs at run time;
    # a renamed function would silently drop a layer from the traces. The
    # module is loaded by path, writing no bytecode next to it.
    path = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module_name, attribute in spans.WRAPPED:
        module = importlib.import_module(f"pargue.{module_name}")
        assert callable(getattr(module, attribute, None)), (module_name, attribute)


def test_public_names_are_consistent():
    # A name deleted from its module but left in __all__ fails here.
    names = pargue.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(pargue, name), name
    namespace = {}
    exec("from pargue import *", namespace)
    assert set(names) <= set(namespace)


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

    def test_constellation_draws_for_its_cone_alone(self):
        # n0000 heads a 1,200-argument chain, so its cone is itself: the
        # estimate takes the same draws as on n0000 alone, and no others.
        names = [f"n{i:04d}" for i in range(1200)]
        chain = ArgumentationFramework(names, list(zip(names, names[1:])))
        label = BetaLabel(2.0, 3.0)
        graph = ProbabilisticGraph(chain, dict.fromkeys(names, label))
        alone = ProbabilisticGraph(ArgumentationFramework(["n0000"]), {"n0000": label})
        got = mc_oracle(graph, Semantics.AD, "n0000", "prob-c", 1000, seed=5)
        assert got == mc_oracle(alone, Semantics.AD, "n0000", "prob-c", 1000, seed=5)

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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ArgumentationFramework(["a", 1]),
            lambda: ArgumentationFramework(["a"], [("a", "a", "a")]),
            lambda: ProbabilisticGraph(ArgumentationFramework(["a"]), {"a": None}),
            lambda: ProbabilisticGraph(ArgumentationFramework(["a"]), {"a": "x"}),
        ],
        ids=["non-string id", "attack triple", "None label", "text label"],
    )
    def test_library_inputs_raise_input_error(self, build):
        with pytest.raises(InputError):
            build()

    def test_semantics_given_by_name(self, monkeypatch, example_af, example_graph):
        # Semantics is a str enum: every entry point takes a member's name as
        # that member, and refuses a name that is none.
        assert extensions(example_af, "GR") == (frozenset("abd"),)
        assert encode(example_af, "CF") == encode(example_af, Semantics.CF)
        result = prob(example_graph, "AD", "a")
        assert result.semantics is Semantics.AD
        assert result == prob(example_graph, Semantics.AD, "a")
        monkeypatch.setattr(engine, "compile_formula", None)  # CF's closed form compiles nothing
        assert prob_c(example_graph, "CF", "a").circuit_nodes == 0
        monkeypatch.undo()
        points = ProbabilisticGraph(example_af, example_graph.point_means())
        assert brute_force_prob(points, "PR", "d") == brute_force_prob(points, Semantics.PR, "d")
        assert brute_force_prob_c(points, "GR", "d") == brute_force_prob_c(points, Semantics.GR, "d")
        estimate = mc_oracle(example_graph, "CO", "d", "prob", samples=20, seed=1)
        assert estimate == mc_oracle(example_graph, Semantics.CO, "d", "prob", samples=20, seed=1)
        for call in (
            lambda s: extensions(example_af, s),
            lambda s: encode(example_af, s),
            lambda s: constellation(example_af, s, "a"),
            lambda s: prob(example_graph, s, "a"),
            lambda s: prob_c(example_graph, s, "a"),
            lambda s: brute_force_prob(points, s, "a"),
            lambda s: brute_force_prob_c(points, s, "a"),
            lambda s: mc_oracle(example_graph, s, "a", "prob", samples=1, seed=0),
        ):
            with pytest.raises(InputError, match="unknown semantics 'XX'"):
                call("XX")

    def test_brute_force_capacity(self):
        names = [f"n{i}" for i in range(13)]
        af = ArgumentationFramework(names)
        graph = ProbabilisticGraph(af, {name: 0.5 for name in names})
        with pytest.raises(CapacityError, match="brute-force"):
            brute_force_prob(graph, Semantics.AD, "n0")
        with pytest.raises(CapacityError, match="brute-force"):
            brute_force_prob_c(graph, Semantics.AD, "n0")

    def test_constellation_capacity(self):
        # Only GR's constellation labels every subgraph, of the argument's
        # cyclic cone: 21 unattacked arguments answer, and so does a
        # 21-cycle; a 23-cycle is refused.
        names = [f"n{i:02d}" for i in range(21)]
        graph = ProbabilisticGraph(ArgumentationFramework(names), {name: 0.5 for name in names})
        assert prob_c(graph, Semantics.GR, "n00").mean == 0.5
        cycle = ArgumentationFramework(names, list(zip(names, names[1:] + names[:1])))
        graph = ProbabilisticGraph(cycle, {name: 0.5 for name in names})
        # n{i} attacks n{i+1}. n00 is grounded where it and the r arguments
        # before it (n20, n19, ...) are present and the next one back is
        # not, for an even r up to 19, whatever the other 19 - r are.
        count = sum(2 ** (19 - r) for r in range(0, 20, 2))
        result = prob_c(graph, Semantics.GR, "n00")
        assert (result.mean, result.model_count) == (count / 2**21, count)
        names = [f"n{i:02d}" for i in range(23)]
        cycle = ArgumentationFramework(names, list(zip(names, names[1:] + names[:1])))
        graph = ProbabilisticGraph(cycle, {name: 0.5 for name in names})
        with pytest.raises(CapacityError, match="at most 22 arguments, got 23"):
            prob_c(graph, Semantics.GR, "n00")

    def test_compile_capacity(self):
        names = [f"n{i}" for i in range(26)]
        af = ArgumentationFramework(names)
        graph = ProbabilisticGraph(af, {name: 0.5 for name in names})
        with pytest.raises(CapacityError):
            prob(graph, Semantics.AD, "n0")

    def test_compile_capacity_refuses_before_encoding(self, monkeypatch):
        # A 1,200-argument chain: GR's fixed point alone takes 600 rounds.
        # n_i attacks n_{i+1}, so the last argument's cone is the whole chain.
        calls = []
        encode_module = importlib.import_module("pargue.encode")
        for module, name in ((engine, "encode"), (engine, "encode_constellation"),
                             (engine, "encode_enumerative"), (encode_module, "extensions"),
                             (encode_module, "_extension_masks")):
            monkeypatch.setattr(module, name, lambda *args, _name=name: calls.append(_name))
        names = [f"n{i:04d}" for i in range(1200)]
        af = ArgumentationFramework(names, list(zip(names, names[1:])))
        graph = ProbabilisticGraph(af, {name: 0.5 for name in names})
        for semantics in Semantics:
            for query, argument in ((prob, "n0000"), (prob_c, names[-1])):
                if (query, semantics) == (prob_c, Semantics.CF):
                    continue
                with pytest.raises(CapacityError, match="at most 25 variables, got 1200"):
                    query(graph, semantics, argument)
        # CF's prob_c has a closed form with no size limit.
        result = prob_c(graph, Semantics.CF, "n0000")
        assert (result.mean, result.model_count, result.circuit_nodes) == (0.5, 2**1199, 0)
        with pytest.raises(CapacityError, match="at most 25 variables, got 1200"):
            mc_oracle(graph, Semantics.GR, names[-1], "prob-c", samples=1, seed=0)
        assert calls == []
