"""Beta labels: moments, moment matching, fuzzy rendering."""

import json
import math

import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats

from pargue import (
    ALEATORY_LABELS,
    EPISTEMIC_LABELS,
    BetaLabel,
    FuzzyLabel,
    InputError,
    LabelConfig,
    MomentPair,
    from_fuzzy,
    moment_match,
    moments,
    to_fuzzy,
)
from pargue.beta import DEFAULT_LABEL_CONFIG, MIN_STRENGTH, VARIANCE_HEADROOM


class TestBetaLabel:
    def test_reference_prior_moments(self):
        label = BetaLabel(5.0, 1.5)
        m = moments(label)
        assert round(m.mean, 4) == 0.7692
        assert round(m.variance, 4) == 0.0237
        assert m.mean == pytest.approx(10.0 / 13.0, abs=1e-12)

    def test_uniform_label(self):
        label = BetaLabel(1.0, 1.0)
        assert label.mean == pytest.approx(0.5)
        assert label.variance == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert label.second_moment == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_second_moment_closed_form(self):
        label = BetaLabel(17.0, 2.0)
        # E[p^2] = a(a+1) / ((a+b)(a+b+1))
        assert label.second_moment == pytest.approx(17.0 * 18.0 / (19.0 * 20.0), abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-1.0, 2.0), (2.0, -0.5), (math.inf, 2.0)])
    def test_invalid_parameters(self, alpha, beta):
        with pytest.raises(InputError):
            BetaLabel(alpha, beta)

    def test_overflowing_strength_rejected(self):
        # alpha + beta overflows, so the mean would read 0 instead of 0.5
        with pytest.raises(InputError, match="finite"):
            BetaLabel(1e308, 1e308)

    def test_point_mass_endpoints(self):
        zero = BetaLabel.from_point(0.0)
        one = BetaLabel.from_point(1.0)
        assert (zero.alpha, zero.beta) == (1.0, math.inf)
        assert (one.alpha, one.beta) == (math.inf, 1.0)
        assert zero.is_degenerate and one.is_degenerate
        assert zero.mean == 0.0 and one.mean == 1.0
        assert zero.variance == 0.0 and zero.second_moment == 0.0

    def test_point_mass_interior(self):
        label = BetaLabel.from_point(0.3)
        assert (label.alpha, label.beta) == (math.inf, math.inf)
        assert label.mean == 0.3
        assert label.variance == 0.0
        assert label.second_moment == pytest.approx(0.09)

    def test_point_mass_out_of_range(self):
        with pytest.raises(InputError):
            BetaLabel.from_point(1.5)
        with pytest.raises(InputError):
            BetaLabel(1.0, 1.0, point=-0.2)

    @pytest.mark.parametrize("alpha,beta", [(5.0, 1.5), (17.0, 2.0), (4.0, 15.0), (2.0, 2.0), (1.0, 1.0)])
    def test_moments_against_numeric_integration(self, alpha, beta):
        pdf = stats.beta(alpha, beta).pdf
        mean, _ = integrate.quad(lambda x: x * pdf(x), 0.0, 1.0)
        second, _ = integrate.quad(lambda x: x * x * pdf(x), 0.0, 1.0)
        label = BetaLabel(alpha, beta)
        assert label.mean == pytest.approx(mean, abs=1e-9)
        assert label.second_moment == pytest.approx(second, abs=1e-9)
        assert label.variance == pytest.approx(second - mean * mean, abs=1e-9)


class TestMomentMatch:
    def test_recovers_reference_prior(self):
        label = moment_match(MomentPair(10.0 / 13.0, (10.0 / 13.0) * (3.0 / 13.0) / 7.5))
        assert label.alpha == pytest.approx(5.0, abs=1e-9)
        assert label.beta == pytest.approx(1.5, abs=1e-9)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=1e-4, max_value=0.9),
    )
    def test_roundtrip_identity(self, mean, fraction):
        target = MomentPair(mean, fraction * mean * (1.0 - mean))
        back = moments(moment_match(target))
        assert back.mean == pytest.approx(target.mean, abs=1e-9)
        assert back.variance == pytest.approx(target.variance, rel=1e-9)

    def test_zero_variance_yields_degenerate(self):
        assert moment_match(MomentPair(0.0, 0.0)) == BetaLabel.from_point(0.0)
        assert moment_match(MomentPair(1.0, 0.0)) == BetaLabel.from_point(1.0)
        interior = moment_match(MomentPair(0.3, 0.0))
        assert interior.is_degenerate and interior.mean == 0.3

    def test_subnormal_variance_yields_degenerate(self):
        # the strength bound/variance - 1 overflows to inf
        assert moment_match(MomentPair(0.25, 1e-310)) == BetaLabel.from_point(0.25)

    def test_underflowing_parameter_yields_degenerate(self):
        # alpha = mean * strength underflows to 0 for a subnormal mean
        assert moment_match(MomentPair(5e-324, 4e-324)) == BetaLabel.from_point(5e-324)

    def test_infeasible_variance_clamped(self):
        # no beta distribution reaches variance mean*(1-mean); the match
        # clamps and then floors the strength instead of failing
        label = moment_match(MomentPair(0.5, 0.25))
        assert not label.is_degenerate
        assert label.mean == pytest.approx(0.5)
        assert label.strength == pytest.approx(MIN_STRENGTH)
        assert label.variance <= VARIANCE_HEADROOM * 0.25

    def test_strength_floor(self):
        label = moment_match(MomentPair(0.5, 0.2499))
        assert label.strength == pytest.approx(MIN_STRENGTH)

    def test_moment_pair_validation(self):
        with pytest.raises(InputError):
            MomentPair(1.5, 0.0)
        with pytest.raises(InputError):
            MomentPair(0.5, -1e-9)


class TestFuzzyRendering:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [
            (5.0, 1.5, "likely/some_confidence"),
            (1.0, 1.0, "chances_about_even/no_confidence"),
            (17.0, 2.0, "very_likely/high_confidence"),
            (4.0, 15.0, "unlikely/high_confidence"),
        ],
    )
    def test_reference_labels(self, alpha, beta, expected):
        assert str(to_fuzzy(BetaLabel(alpha, beta))) == expected

    def test_degenerate_labels(self):
        assert str(to_fuzzy(BetaLabel.from_point(0.0))) == "absolutely_not_likely/total_confidence"
        assert str(to_fuzzy(BetaLabel.from_point(1.0))) == "absolutely_likely/total_confidence"
        assert str(to_fuzzy(BetaLabel.from_point(0.3))) == "unlikely/total_confidence"

    def test_interior_bin_edges_go_up(self):
        # half-open bins: a mean exactly on an interior edge joins the bin above
        assert to_fuzzy(BetaLabel.from_point(0.005)).aleatory == "very_unlikely"
        assert to_fuzzy(BetaLabel.from_point(0.54)).aleatory == "somewhat_likely"

    def test_outer_edges_closed(self):
        assert to_fuzzy(BetaLabel.from_point(1.0)).aleatory == "absolutely_likely"
        # variance 0.25 is the ceiling for a [0,1] variable: widest-spread word
        wide = moment_match(MomentPair(0.5, 0.25))
        assert to_fuzzy(BetaLabel(0.01, 0.01)).epistemic == "no_confidence"
        assert wide.variance < 0.25  # clamped, still lands in the widest bin

    def test_confidence_orders_inversely_to_variance(self):
        # increasing strength at fixed mean walks the confidence words upward
        words = [to_fuzzy(BetaLabel(0.5 * s, 0.5 * s)).epistemic for s in (1.4, 3.5, 8, 150, 3000)]
        assert words == list(EPISTEMIC_LABELS)

    def test_unknown_words_rejected(self):
        with pytest.raises(InputError):
            FuzzyLabel("likely", "certain")
        with pytest.raises(InputError):
            FuzzyLabel("probable", "no_confidence")


class TestFromFuzzy:
    def test_calibrated_cell_recovers_reference_prior(self):
        label = from_fuzzy(FuzzyLabel("likely", "some_confidence"))
        assert label.alpha == pytest.approx(5.0, abs=1e-6)
        assert label.beta == pytest.approx(1.5, abs=1e-6)

    def test_certain_corners_are_exact(self):
        assert from_fuzzy(FuzzyLabel("absolutely_not_likely", "total_confidence")) == BetaLabel.from_point(0.0)
        assert from_fuzzy(FuzzyLabel("absolutely_likely", "total_confidence")) == BetaLabel.from_point(1.0)

    def test_reference_roundtrip_through_words(self):
        original = BetaLabel(5.0, 1.5)
        back = from_fuzzy(to_fuzzy(original))
        assert back.alpha == pytest.approx(original.alpha, abs=0.01)
        assert back.beta == pytest.approx(original.beta, abs=0.01)

    def test_word_roundtrip_feasible_pairs(self):
        # the six extreme-mean cells ask for more variance than any beta
        # distribution with that mean can carry; every other pair returns
        # to itself through moments
        expected_infeasible = {
            (a, e)
            for a in ("absolutely_not_likely", "absolutely_likely")
            for e in ("no_confidence", "low_confidence", "some_confidence")
        }
        for a_word in ALEATORY_LABELS:
            for e_word in EPISTEMIC_LABELS:
                fuzzy = FuzzyLabel(a_word, e_word)
                back = to_fuzzy(from_fuzzy(fuzzy))
                if (a_word, e_word) in expected_infeasible:
                    mean, variance = DEFAULT_LABEL_CONFIG.representative(a_word, e_word)
                    assert variance > VARIANCE_HEADROOM * mean * (1.0 - mean)
                    assert back.aleatory == a_word  # the mean survives the clamp
                else:
                    assert back == fuzzy


class TestLabelConfig:
    def test_default_covers_all_pairs(self):
        assert len(DEFAULT_LABEL_CONFIG.representatives) == len(ALEATORY_LABELS) * len(EPISTEMIC_LABELS)

    def test_uncalibrated_cells_use_bin_centres(self):
        mean, variance = DEFAULT_LABEL_CONFIG.representative("chances_about_even", "no_confidence")
        assert mean == pytest.approx((0.44 + 0.54) / 2.0)
        assert variance == pytest.approx((0.066 + 0.25) / 2.0)

    def test_edge_count_enforced(self):
        with pytest.raises(InputError):
            LabelConfig.build(aleatory_edges=(0.0, 0.5, 1.0))
        with pytest.raises(InputError):
            LabelConfig.build(epistemic_edges=(0.0, 0.1, 0.25))

    def test_edge_span_enforced(self):
        bad = (0.01,) + DEFAULT_LABEL_CONFIG.aleatory_edges[1:]
        with pytest.raises(InputError):
            LabelConfig.build(aleatory_edges=bad)
        with pytest.raises(InputError):
            LabelConfig.build(epistemic_edges=(0.0, 0.001, 0.0119, 0.049, 0.066, 0.3))

    def test_monotone_edges_enforced(self):
        edges = list(DEFAULT_LABEL_CONFIG.aleatory_edges)
        edges[3], edges[4] = edges[4], edges[3]
        with pytest.raises(InputError):
            LabelConfig.build(aleatory_edges=tuple(edges))

    def test_override_validation(self):
        with pytest.raises(InputError):
            LabelConfig.build(overrides={("likely", "certain"): (0.5, 0.01)})
        with pytest.raises(InputError):
            LabelConfig.build(overrides={("likely", "some_confidence"): (2.0, 0.01)})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(InputError, match="finite"):
            LabelConfig.build(epistemic_edges=(0.0, 0.001, 0.0119, value, 0.066, 0.25))
        edges = list(DEFAULT_LABEL_CONFIG.aleatory_edges)
        edges[4] = value
        with pytest.raises(InputError, match="finite"):
            LabelConfig.build(aleatory_edges=edges)
        with pytest.raises(InputError, match="finite"):
            LabelConfig.build(overrides={("likely", "some_confidence"): (0.7, value)})

    def test_from_json_overrides_representative(self):
        config = LabelConfig.from_json(
            json.dumps({"representatives": {"unlikely/high_confidence": [0.2, 0.004]}})
        )
        assert config.representative("unlikely", "high_confidence") == (0.2, 0.004)
        # a file defines the whole table: cells it does not mention fall back
        # to bin centres, not to the built-in calibrated values
        assert config.representative("likely", "some_confidence") == (
            pytest.approx((0.665 + 0.855) / 2.0),
            pytest.approx((0.0119 + 0.049) / 2.0),
        )

    def test_from_json_replaces_edges(self):
        config = LabelConfig.from_json(
            json.dumps({"epistemic_edges": [0.0, 0.0005, 0.001, 0.01, 0.1, 0.25]})
        )
        # Beta(1,1) variance 1/12 sits in the fourth bin of the new grid
        assert to_fuzzy(BetaLabel(1.0, 1.0), config).epistemic == "low_confidence"

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            json.dumps({"representatives": {"likely": [0.5, 0.01]}}),
            json.dumps({"representatives": {"likely/some_confidence": [0.5]}}),
        ],
    )
    def test_from_json_rejects_malformed(self, text):
        with pytest.raises(InputError):
            LabelConfig.from_json(text)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"representatives": {"likely/some_confidence": [0.7, 0.02]}}))
        config = LabelConfig.load(str(path))
        assert config.representative("likely", "some_confidence") == (0.7, 0.02)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            LabelConfig.load(str(tmp_path / "absent.json"))
