"""Shared fixtures: the worked example, reference labels, random generators,
and the clause evaluator that compiled circuits are checked against."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from pargue import ArgumentationFramework, BetaLabel, ClauseSet

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

_NAMES = "abcdefgh"

# one line per acceptance criterion, printed after the run (see test_acceptance)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def example_af() -> ArgumentationFramework:
    """Two arguments jointly attacking a third, which attacks a fourth."""
    return ArgumentationFramework(
        ["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("c", "d")]
    )


@pytest.fixture
def example_labels() -> dict[str, BetaLabel]:
    return {
        "a": BetaLabel(1.0, 1.0),
        "b": BetaLabel(17.0, 2.0),
        "c": BetaLabel(4.0, 15.0),
        "d": BetaLabel(5.0, 1.5),
    }


@pytest.fixture
def chain_af() -> ArgumentationFramework:
    return ArgumentationFramework(["a", "b", "c"], [("a", "b"), ("b", "c")])


@st.composite
def frameworks(
    draw, min_args: int = 1, max_args: int = 6, names: str = _NAMES
) -> ArgumentationFramework:
    n = draw(st.integers(min_args, max_args))
    names = list(names[:n])
    pairs = [(s, t) for s in names for t in names]
    attacks = draw(st.sets(st.sampled_from(pairs)))
    return ArgumentationFramework(names, attacks)


def clause_set(kept, hidden, clauses) -> ClauseSet:
    """The clause set declaring ``kept`` and eliminating ``hidden``, from
    clauses given as lists of (name, positive) literals."""
    names = (*kept, *hidden)
    bit = {name: 1 << i for i, name in enumerate(names)}
    masks = []
    for clause in clauses:
        pos = neg = 0
        for name, positive in clause:
            if positive:
                pos |= bit[name]
            else:
                neg |= bit[name]
        masks.append((pos, neg))
    return ClauseSet(names, len(kept), masks)


def constellation(af: ArgumentationFramework, semantics, argument: str) -> ClauseSet:
    """One argument's constellation theory: its family's shared theory with
    the argument's membership variable as a unit clause, first."""
    from pargue import encode_constellation

    theory = encode_constellation(af, semantics)
    unit = (1 << len(af.arguments) + af._require(argument), 0)
    return ClauseSet(theory.names, theory.declared, (unit, *theory.clauses))


def literal_clauses(names):
    """Up to six clauses of up to three literals over ``names``; an empty
    list is the empty clause."""
    literal = st.tuples(st.sampled_from(list(names)), st.booleans())
    return st.lists(st.lists(literal, max_size=3), max_size=6)


@st.composite
def clause_sets(draw, kept=("a", "b", "c", "d"), hidden=()) -> ClauseSet:
    return clause_set(kept, hidden, draw(literal_clauses((*kept, *hidden))))


def satisfies(clauses, on: int) -> bool:
    """Whether the assignment setting exactly the bits of ``on`` true
    satisfies every (positive, negative) mask clause."""
    return all(pos & on or neg & ~on for pos, neg in clauses)


def models(theory: ClauseSet) -> set[frozenset[str]]:
    """Truth table: the sets of declared names that extend to a model of the
    clauses over the eliminated names."""
    declared, width = theory.declared, len(theory.names)
    plain = [c for c in theory.clauses if not (c[0] | c[1]) >> declared]
    rest = [c for c in theory.clauses if (c[0] | c[1]) >> declared]
    return {
        frozenset(theory.names[i] for i in range(declared) if on >> i & 1)
        for on in range(1 << declared)
        if satisfies(plain, on)
        and any(satisfies(rest, on | h << declared) for h in range(1 << width - declared))
    }


def random_framework(
    rng: random.Random, max_args: int = 6, density: float = 0.3
) -> ArgumentationFramework:
    """Seeded random framework: edge count binomial at the given density."""
    n = rng.randint(1, max_args)
    names = list(_NAMES[:n])
    attacks = [
        (s, t) for s in names for t in names if rng.random() < density
    ]
    return ArgumentationFramework(names, attacks)


def format_af(af: ArgumentationFramework) -> str:
    """Render back as facts; parse_af(format_af(af)) == af."""
    lines = [f"arg({name})." for name in af.arguments]
    lines.extend(f"att({s},{t})." for s, t in sorted(af.attacks))
    return "\n".join(lines) + "\n"


def passed(report) -> bool:
    """Whether a ``ValidationReport`` passes all three structural checks."""
    return report.decomposable and report.deterministic and report.smooth


def lifted_models(af: ArgumentationFramework, circuit) -> list[int]:
    """The circuit's models as masks over the framework's ids, each lifted by
    every subset of the framework's arguments the circuit does not mention."""
    from pargue.semiring import model_masks

    at = [af._index[v] for v in circuit.variables]
    outside = af._full_mask & ~sum(1 << i for i in at)
    lifted = []
    for m in model_masks(circuit):
        inside = sum(1 << i for j, i in enumerate(at) if m >> j & 1)
        free = outside
        while True:  # every subset of outside, free included
            lifted.append(inside | free)
            if not free:
                break
            free = free - 1 & outside
    return lifted


def random_beta_labels(
    rng: random.Random, af: ArgumentationFramework
) -> dict[str, BetaLabel]:
    return {
        name: BetaLabel(rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0))
        for name in af.arguments
    }


def backward_gradients(circuit, labels: dict[str, BetaLabel]) -> dict[str, float]:
    """Partial derivatives of the circuit value at the label means: the
    engine's backward sweep over its forward walk, with no literal forced."""
    from pargue.propagate import _backward, _gradients, _means
    from pargue.semiring import PROBABILITY, _walk

    values = _walk(circuit, PROBABILITY, _means(circuit, labels))
    return _gradients(circuit, _backward(circuit, values, {}))
