"""Result record shared by the query engine and the propagation layer, a
named tuple."""

from __future__ import annotations

from collections import namedtuple

_FIELDS = "mean variance matched fuzzy argument semantics mode circuit_nodes model_count"


class QueryResult(namedtuple("QueryResult", _FIELDS, defaults=(None,) * 5)):
    """Moments of one acceptance query plus its rendered labels.

    ``mean`` and ``variance`` are floats, ``matched`` is the moment-matched
    ``BetaLabel`` (degenerate when the variance vanishes) and ``fuzzy`` its
    ``FuzzyLabel``. The engine's queries set the identity and diagnostic
    fields, which default to None: ``argument``, ``semantics`` and ``mode``,
    ``model_count``, which counts the target circuit, exact since every
    compiled circuit passes ``validate``, or is CF's closed-form ``prob_c``
    count, with ``circuit_nodes`` 0. ``propagate`` knows only the circuit and
    sets ``circuit_nodes`` alone.
    """

    __slots__ = ()
