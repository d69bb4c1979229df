"""Beta-distributed argument probabilities and their fuzzy rendering.

A label is either a regular Beta(alpha, beta) distribution or a degenerate
point mass, used both for certain inputs and for query outputs whose
variance vanishes. Degenerate labels render with an infinite parameter:
point mass at 0 is shown as Beta(1, +inf), at 1 as Beta(+inf, 1), interior
points carry +inf on both sides.

Fuzzy rendering bins the mean into a nine-word likelihood vocabulary and
the variance into a five-word confidence vocabulary. Bin edges and the
representative moments used to read fuzzy labels back are configuration
data; a JSON file can replace the defaults.

Labels, moment pairs, fuzzy pairs and label configurations are named
tuples; the first three check their fields when built.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Mapping

from .errors import InputError

ALEATORY_LABELS = (
    "absolutely_not_likely",
    "very_unlikely",
    "unlikely",
    "somewhat_unlikely",
    "chances_about_even",
    "somewhat_likely",
    "likely",
    "very_likely",
    "absolutely_likely",
)

# Ordered by decreasing variance: the first bin above holds the widest spread.
EPISTEMIC_LABELS = (
    "no_confidence",
    "low_confidence",
    "some_confidence",
    "high_confidence",
    "total_confidence",
)

DEFAULT_ALEATORY_EDGES = (0.0, 0.005, 0.15, 0.35, 0.44, 0.54, 0.665, 0.855, 0.995, 1.0)
DEFAULT_EPISTEMIC_EDGES = (0.0, 0.001, 0.0119, 0.049, 0.066, 0.25)

# Moment matching floors the strength here instead of producing alpha or
# beta of zero when the requested variance nearly exhausts mean*(1-mean).
MIN_STRENGTH = 0.02
VARIANCE_HEADROOM = 0.999


class BetaLabel(namedtuple("BetaLabel", "alpha beta point")):
    """Beta distribution over a probability, or a degenerate point mass."""

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, point: float | None = None) -> "BetaLabel":
        if point is None:
            # The mean and variance divide by alpha + beta, which overflows
            # to inf (and the mean to 0) for two finite parameters near 1e308.
            if not (math.isfinite(alpha + beta) and alpha > 0 and beta > 0):
                raise InputError(
                    f"beta parameters must be finite and positive with a finite "
                    f"sum, got ({alpha}, {beta})"
                )
        elif not 0.0 <= point <= 1.0:
            raise InputError(f"point mass out of [0,1]: {point}")
        return super().__new__(cls, alpha, beta, point)

    @classmethod
    def from_point(cls, mean: float) -> "BetaLabel":
        mean = float(mean)
        if not 0.0 <= mean <= 1.0:
            raise InputError(f"point mass out of [0,1]: {mean}")
        if mean == 0.0:
            return cls(1.0, math.inf, 0.0)
        if mean == 1.0:
            return cls(math.inf, 1.0, 1.0)
        return cls(math.inf, math.inf, mean)

    @property
    def is_degenerate(self) -> bool:
        return self.point is not None

    @property
    def strength(self) -> float:
        return self.alpha + self.beta

    @property
    def mean(self) -> float:
        if self.point is not None:
            return self.point
        return self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        if self.point is not None:
            return 0.0
        m = self.mean
        return m * (1.0 - m) / (self.strength + 1.0)

    @property
    def second_moment(self) -> float:
        """E[p^2]; used by the exact mixture-variance oracle."""
        if self.point is not None:
            return self.point * self.point
        return self.mean * (self.mean * self.strength + 1.0) / (self.strength + 1.0)


class MomentPair(namedtuple("MomentPair", "mean variance")):
    __slots__ = ()

    def __new__(cls, mean: float, variance: float) -> "MomentPair":
        if not 0.0 <= mean <= 1.0:
            raise InputError(f"mean out of [0,1]: {mean}")
        if variance < 0.0:
            raise InputError(f"negative variance: {variance}")
        return super().__new__(cls, mean, variance)


class FuzzyLabel(namedtuple("FuzzyLabel", "aleatory epistemic")):
    __slots__ = ()

    def __new__(cls, aleatory: str, epistemic: str) -> "FuzzyLabel":
        if aleatory not in ALEATORY_LABELS:
            raise InputError(f"unknown likelihood word {aleatory!r}")
        if epistemic not in EPISTEMIC_LABELS:
            raise InputError(f"unknown confidence word {epistemic!r}")
        return super().__new__(cls, aleatory, epistemic)

    def __str__(self) -> str:
        return f"{self.aleatory}/{self.epistemic}"


def moments(label: BetaLabel) -> MomentPair:
    return MomentPair(label.mean, label.variance)


def moment_match(m: MomentPair) -> BetaLabel:
    """Beta label with the given mean and variance.

    The variance is first clamped under mean*(1-mean) (it cannot be reached
    by any beta distribution); zero variance, or one so small that the
    strength overflows, yields a degenerate label, and so does a mean so
    close to 0 or 1 that a parameter underflows to zero.
    """
    bound = m.mean * (1.0 - m.mean)
    variance = min(m.variance, VARIANCE_HEADROOM * bound)
    if variance <= 0.0:
        return BetaLabel.from_point(m.mean)
    strength = max(bound / variance - 1.0, MIN_STRENGTH)
    alpha, beta = m.mean * strength, (1.0 - m.mean) * strength
    if not (math.isfinite(alpha + beta) and alpha > 0.0 and beta > 0.0):
        return BetaLabel.from_point(m.mean)
    return BetaLabel(alpha, beta)


def _bin(value: float, edges: tuple[float, ...]) -> int:
    index = bisect_right(edges, value) - 1
    return min(max(index, 0), len(edges) - 2)


def _bin_centres(edges: tuple[float, ...]) -> tuple[float, ...]:
    return tuple((lo + hi) / 2.0 for lo, hi in zip(edges, edges[1:]))


class LabelConfig(namedtuple("LabelConfig", "aleatory_edges epistemic_edges representatives")):
    """Bin edges plus the representative moments behind each fuzzy pair:
    ``aleatory_edges`` and ``epistemic_edges`` are tuples of floats,
    ``representatives`` maps each (likelihood, confidence) word pair to a
    (mean, variance) pair."""

    __slots__ = ()

    def representative(self, aleatory: str, epistemic: str) -> tuple[float, float]:
        return self.representatives[(aleatory, epistemic)]

    @classmethod
    def build(
        cls,
        aleatory_edges=DEFAULT_ALEATORY_EDGES,
        epistemic_edges=DEFAULT_EPISTEMIC_EDGES,
        overrides: Mapping[tuple[str, str], tuple[float, float]] | None = None,
    ) -> "LabelConfig":
        aleatory_edges = _numbers("aleatory edges", aleatory_edges)
        epistemic_edges = _numbers("epistemic edges", epistemic_edges)
        _check_edges("aleatory", aleatory_edges, len(ALEATORY_LABELS), 0.0, 1.0)
        _check_edges("epistemic", epistemic_edges, len(EPISTEMIC_LABELS), 0.0, 0.25)

        means = _bin_centres(aleatory_edges)
        variances = _bin_centres(epistemic_edges)
        representatives: dict[tuple[str, str], tuple[float, float]] = {}
        for i, a_word in enumerate(ALEATORY_LABELS):
            for j, variance in enumerate(variances):
                e_word = EPISTEMIC_LABELS[len(EPISTEMIC_LABELS) - 1 - j]
                representatives[(a_word, e_word)] = (means[i], variance)
        for key, value in (overrides or {}).items():
            a_word, e_word = key
            if a_word not in ALEATORY_LABELS or e_word not in EPISTEMIC_LABELS:
                raise InputError(f"unknown fuzzy pair {key!r}")
            pair = _numbers(f"representative moments for {key!r}", value)
            if len(pair) != 2 or not 0.0 <= pair[0] <= 1.0 or pair[1] < 0.0:
                raise InputError(f"invalid representative moments for {key!r}: {value}")
            representatives[(a_word, e_word)] = pair
        return cls(aleatory_edges, epistemic_edges, representatives)

    @classmethod
    def from_json(cls, text: str) -> "LabelConfig":
        # Imported here so that importing pargue skips the JSON parser.
        import json

        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # ValueError: an int past the digit limit
            raise InputError(f"label config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise InputError("label config must be a JSON object")
        overrides: dict[tuple[str, str], tuple[float, float]] = {}
        entries = data.get("representatives", {})
        if not isinstance(entries, dict):
            raise InputError("label config representatives must be a JSON object")
        for key, value in entries.items():
            parts = key.split("/")
            if len(parts) != 2:
                raise InputError(f"representative key must look like 'word/word': {key!r}")
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise InputError(f"representative value must be [mean, variance]: {key!r}")
            overrides[(parts[0], parts[1])] = (value[0], value[1])
        return cls.build(
            data.get("aleatory_edges", DEFAULT_ALEATORY_EDGES),
            data.get("epistemic_edges", DEFAULT_EPISTEMIC_EDGES),
            overrides,
        )

    @classmethod
    def load(cls, path: str) -> "LabelConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read label config {path!r}: {exc}") from None
        return cls.from_json(text)


def _numbers(what: str, values) -> tuple[float, ...]:
    try:
        numbers = tuple(float(v) for v in values)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be a list of numbers, got {values!r}") from None
    # NaN passes no comparison, so it would slip through every range check.
    if not all(map(math.isfinite, numbers)):
        raise InputError(f"{what} must be finite, got {values!r}")
    return numbers


def _check_edges(kind: str, edges: tuple[float, ...], bins: int, lo: float, hi: float) -> None:
    if len(edges) != bins + 1:
        raise InputError(f"{kind} edges must have {bins + 1} entries, got {len(edges)}")
    if edges[0] != lo or edges[-1] != hi:
        raise InputError(f"{kind} edges must span [{lo}, {hi}]")
    if any(a >= b for a, b in zip(edges, edges[1:])):
        raise InputError(f"{kind} edges must be strictly increasing")


# Calibrated representatives: the reference prior Beta(5, 1.5) stands for
# likely/some_confidence, and the two certain corners are exact.
_CALIBRATED = {
    ("likely", "some_confidence"): (10.0 / 13.0, (10.0 / 13.0) * (3.0 / 13.0) / 7.5),
    ("absolutely_not_likely", "total_confidence"): (0.0, 0.0),
    ("absolutely_likely", "total_confidence"): (1.0, 0.0),
}

DEFAULT_LABEL_CONFIG = LabelConfig.build(overrides=_CALIBRATED)


def to_fuzzy(label: BetaLabel, config: LabelConfig | None = None) -> FuzzyLabel:
    """Render a label as likelihood and confidence words."""
    cfg = config or DEFAULT_LABEL_CONFIG
    m = moments(label)
    a_index = _bin(m.mean, cfg.aleatory_edges)
    e_index = _bin(m.variance, cfg.epistemic_edges)
    return FuzzyLabel(
        ALEATORY_LABELS[a_index],
        EPISTEMIC_LABELS[len(EPISTEMIC_LABELS) - 1 - e_index],
    )


def from_fuzzy(fuzzy: FuzzyLabel, config: LabelConfig | None = None) -> BetaLabel:
    """Beta label carrying the representative moments of a fuzzy pair."""
    cfg = config or DEFAULT_LABEL_CONFIG
    mean, variance = cfg.representative(fuzzy.aleatory, fuzzy.epistemic)
    return moment_match(MomentPair(mean, variance))
