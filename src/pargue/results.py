"""Result record shared by the query engine and the propagation layer."""

from __future__ import annotations

from dataclasses import dataclass

from .af import Semantics
from .beta import BetaLabel, FuzzyLabel


@dataclass(frozen=True)
class QueryResult:
    """Moments of one acceptance query plus its rendered labels.

    ``matched`` is the moment-matched beta label (degenerate when the
    variance vanishes). The engine's queries set the identity and diagnostic
    fields: ``model_count`` counts the target circuit, exact since every
    compiled circuit passes ``validate``, or is CF's closed-form ``prob_c``
    count, with ``circuit_nodes`` 0. ``propagate`` knows only the circuit and
    sets ``circuit_nodes`` alone.
    """

    mean: float
    variance: float
    matched: BetaLabel
    fuzzy: FuzzyLabel
    argument: str | None = None
    semantics: Semantics | None = None
    mode: str | None = None
    circuit_nodes: int | None = None
    model_count: int | None = None
