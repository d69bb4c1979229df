"""Acceptance gate: eight criteria, one recorded pass/fail line each.

Every expected number below was frozen from an independent derivation
(closed forms over the enumerated extension sets, the exact mixture
oracle, or a seeded Monte-Carlo run) before being pinned here, together
with an explicit tolerance.
"""

import random
import time

import pytest

from conftest import ACCEPTANCE_LINES, random_beta_labels, random_framework
from pargue import (
    ArgumentationFramework,
    BetaLabel,
    FuzzyLabel,
    ProbabilisticGraph,
    Semantics,
    brute_force_prob,
    brute_force_prob_c,
    compile_formula,
    condition,
    encode,
    eval_mean,
    extensions,
    from_fuzzy,
    gradients,
    mc_oracle,
    model_count,
    moment_match,
    moments,
    prob,
    prob_c,
    to_fuzzy,
    validate,
)
from pargue.engine import _compiled


def _record(number: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {number}: FAIL - {description}")
        raise
    ACCEPTANCE_LINES.append(f"criterion {number}: PASS - {description}")


EXAMPLE_AF = ArgumentationFramework("abcd", [("a", "c"), ("b", "c"), ("c", "d")])
EXAMPLE_LABELS = {
    "a": BetaLabel(1.0, 1.0),
    "b": BetaLabel(17.0, 2.0),
    "c": BetaLabel(4.0, 15.0),
    "d": BetaLabel(5.0, 1.5),
}
CHAIN = ArgumentationFramework("abc", [("a", "b"), ("b", "c")])


@pytest.fixture
def graph():
    return ProbabilisticGraph(EXAMPLE_AF, EXAMPLE_LABELS)


# matched Beta(alpha, beta) parameters for the reference distribution queries
PROB_PARAMS = {
    "a": (1.3512, 2.0719),
    "b": (14.5743, 6.0583),
    "d": (7.0526, 5.2058),
}
PROB_WORDS = {
    "a": "somewhat_unlikely/low_confidence",
    "b": "likely/high_confidence",
    "c": "absolutely_not_likely/total_confidence",
    "d": "somewhat_likely/some_confidence",
}
PROB_C_PARAMS = {
    "c": (1.0345, 92.3268),
    "d": (5.2039, 1.6370),
}
# exact mixture variances from the enumeration oracle
EXACT_VARIANCES = {
    ("prob", "a"): 0.0547091,
    ("prob", "b"): 0.0096270,
    ("prob", "d"): 0.0187988,
    ("prob-c", "c"): 0.0001542,
    ("prob-c", "d"): 0.0232419,
}


def test_criterion_1_distribution_query_parameters(graph):
    def check():
        _compiled.cache_clear()
        start = time.perf_counter()
        results = {name: prob(graph, Semantics.AD, name) for name in "abcd"}
        elapsed = time.perf_counter() - start
        for name, (alpha, beta) in PROB_PARAMS.items():
            matched = results[name].matched
            assert matched.alpha == pytest.approx(alpha, abs=0.02), name
            assert matched.beta == pytest.approx(beta, abs=0.02), name
        assert results["c"].mean == 0.0
        assert results["c"].matched.is_degenerate
        assert elapsed < 1.0, f"four queries took {elapsed:.3f}s"

    _record(
        1,
        "distribution queries reproduce the reference beta parameters "
        "(+/-0.02) in under 1s",
        check,
    )


def test_criterion_2_constellation_queries_and_oracles(graph):
    def check():
        # unattacked arguments return their own label, exactly
        for name, label in (("a", EXAMPLE_LABELS["a"]), ("b", EXAMPLE_LABELS["b"])):
            result = prob_c(graph, Semantics.AD, name)
            assert result.mean == pytest.approx(label.mean, abs=1e-9), name
            assert result.matched.alpha == pytest.approx(label.alpha, abs=1e-6)
            assert result.matched.beta == pytest.approx(label.beta, abs=1e-6)
            exact = brute_force_prob_c(graph, Semantics.AD, name)
            assert exact.mean == pytest.approx(label.mean, abs=1e-9)
            estimate = mc_oracle(graph, Semantics.AD, name, "prob-c", 200_000, seed=0)
            assert estimate.mean == pytest.approx(label.mean, abs=0.003)
        for name, (alpha, beta) in PROB_C_PARAMS.items():
            matched = prob_c(graph, Semantics.AD, name).matched
            assert matched.alpha == pytest.approx(alpha, abs=0.05), name
            assert matched.beta == pytest.approx(beta, abs=0.05), name

    _record(
        2,
        "constellation queries recover unattacked labels exactly (1e-9, "
        "MC +/-0.003 at 200k) and pin the attacked rows (+/-0.05)",
        check,
    )


def test_criterion_3_fuzzy_words(graph):
    def check():
        for name, expected in PROB_WORDS.items():
            assert str(prob(graph, Semantics.AD, name).fuzzy) == expected, name

    _record(3, "distribution queries render the expected likelihood and "
               "confidence words", check)


def test_criterion_4_label_moments_and_word_roundtrip():
    def check():
        m = moments(BetaLabel(5.0, 1.5))
        assert round(m.mean, 4) == 0.7692
        assert round(m.variance, 4) == 0.0237
        back = from_fuzzy(to_fuzzy(BetaLabel(5.0, 1.5)))
        assert back.alpha == pytest.approx(5.0, abs=0.01)
        assert back.beta == pytest.approx(1.5, abs=0.01)

    _record(4, "reference label moments round to (0.7692, 0.0237) and survive "
               "the fuzzy roundtrip (+/-0.01)", check)


def test_criterion_5_theory_circuit_validity():
    def check():
        theory = encode(EXAMPLE_AF, Semantics.AD)
        from pargue import models

        expected = set(extensions(EXAMPLE_AF, Semantics.AD))
        assert set(models(theory, EXAMPLE_AF.arguments)) == expected
        assert len(expected) == 7
        circuit = compile_formula(theory, variables=EXAMPLE_AF.arguments)
        report = validate(circuit)
        assert report.decomposable
        assert report.deterministic
        assert report.smooth
        assert model_count(circuit) == 7

    _record(5, "the admissibility theory matches its 7 extensions and "
               "compiles to a decomposable, deterministic, smooth circuit", check)


def test_criterion_6_chain_closed_forms():
    def check():
        half = ProbabilisticGraph(CHAIN, {name: 0.5 for name in "abc"})
        assert prob(half, Semantics.GR, "c").mean == 0.125
        assert prob_c(half, Semantics.GR, "c").mean == 0.375
        rng = random.Random(1806)
        for _ in range(100):
            wa, wb, wc = (rng.uniform(0.05, 0.95) for _ in range(3))
            g = ProbabilisticGraph(CHAIN, {"a": wa, "b": wb, "c": wc})
            assert prob(g, Semantics.GR, "c").mean == pytest.approx(
                wa * (1.0 - wb) * wc, abs=1e-12
            )
            assert prob_c(g, Semantics.GR, "c").mean == pytest.approx(
                wc * ((1.0 - wb) + wa * wb), abs=1e-12
            )

    _record(6, "chain queries equal their closed forms (0.125 / 0.375 exactly; "
               "1e-12 on 100 seeded triples)", check)


def test_criterion_7_brute_force_agreement():
    def check():
        rng = random.Random(2025)
        start = time.perf_counter()
        for _ in range(200):
            af = random_framework(rng, max_args=6, density=0.3)
            labels = {name: rng.uniform(0.05, 0.95) for name in af.arguments}
            graph = ProbabilisticGraph(af, labels)
            by_semantics = {s: set(extensions(af, s)) for s in Semantics}
            assert by_semantics[Semantics.ST] <= by_semantics[Semantics.PR]
            assert by_semantics[Semantics.PR] <= by_semantics[Semantics.CO]
            assert by_semantics[Semantics.CO] <= by_semantics[Semantics.AD]
            assert by_semantics[Semantics.AD] <= by_semantics[Semantics.CF]
            assert by_semantics[Semantics.GR] <= by_semantics[Semantics.CO]
            name = af.arguments[0]
            for semantics in Semantics:
                assert prob(graph, semantics, name).mean == pytest.approx(
                    brute_force_prob(graph, semantics, name), abs=1e-9
                ), (af, semantics)
                assert prob_c(graph, semantics, name).mean == pytest.approx(
                    brute_force_prob_c(graph, semantics, name), abs=1e-9
                ), (af, semantics)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"

    _record(7, "engine equals brute force on 200 seeded frameworks across all "
               "six semantics (1e-9) with nested extension families, in "
               "under 60s", check)


def test_criterion_8_moment_propagation_accuracy(graph):
    def check():
        # gradients against central finite differences
        rng = random.Random(77)
        for _ in range(50):
            af = random_framework(rng, max_args=5, density=0.3)
            labels = random_beta_labels(rng, af)
            theory = _compiled(af, Semantics.AD, None)[0]
            circuit = condition(theory, {af.arguments[0]: True})
            grads = gradients(circuit, labels)
            step = 1e-5
            for name in af.arguments:
                up = dict(labels)
                down = dict(labels)
                up[name] = BetaLabel.from_point(
                    min(labels[name].mean + step, 1.0)
                )
                down[name] = BetaLabel.from_point(
                    max(labels[name].mean - step, 0.0)
                )
                numeric = (eval_mean(circuit, up) - eval_mean(circuit, down)) / (
                    2.0 * step
                )
                assert grads[name] == pytest.approx(numeric, abs=1e-6)

        # delta variance within 25% of the exact mixture variance
        for (mode, name), frozen in EXACT_VARIANCES.items():
            if mode == "prob":
                exact = brute_force_prob(graph, Semantics.AD, name)
                delta = prob(graph, Semantics.AD, name).variance
            else:
                exact = brute_force_prob_c(graph, Semantics.AD, name)
                delta = prob_c(graph, Semantics.AD, name).variance
            assert exact.variance == pytest.approx(frozen, abs=1e-6), (mode, name)
            gap = abs(delta - exact.variance) / exact.variance
            assert gap <= 0.25, f"{mode} {name}: relative gap {gap:.3f}"

        # moment matching inverts the moment map
        for _ in range(50):
            label = BetaLabel(rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0))
            m = moments(label)
            back = moments(moment_match(m))
            assert back.mean == pytest.approx(m.mean, abs=1e-9)
            assert back.variance == pytest.approx(m.variance, abs=1e-9)

    _record(8, "gradients match finite differences (1e-6), delta variances sit "
               "within 25% of the exact mixture oracle, and moment matching "
               "inverts the moment map (1e-9)", check)
