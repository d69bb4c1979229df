"""Hash-consed propositional formulas in negation normal form.

Both connectives are built by one factory (``_join``) that flattens nested
operators, drops neutral elements, deduplicates children and collapses
complementary literal pairs, so structurally equal formulas are one object.
The encoders build their theories here; the compiler reads a formula once,
converting it into clauses, and builds none.

The intern tables and the serial counter belong to a session. Formulas
built outside any ``session()`` block live in the default session, which
lasts as long as the process. A ``session()`` block swaps in empty tables
and a counter that starts again at zero, and drops them when it ends, so
what one compile target builds is neither kept nor seen by the next, the
tables stay bounded, and the same input gives the same formulas in any
process. Intern keys are tuples of child serials, so a formula must never
be combined with one from another session: the serials would alias
different nodes.
"""

from __future__ import annotations

import itertools
import operator
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

_serial = itertools.count()


class Formula:
    __slots__ = ("serial", "vars")

    serial: int
    vars: frozenset[str]

    def _init(self, vars_: frozenset[str]) -> None:
        self.serial = next(_serial)
        self.vars = vars_


class _Const(Formula):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self._init(frozenset())
        self.value = value

    def __repr__(self) -> str:
        return "true" if self.value else "false"


class Lit(Formula):
    __slots__ = ("var", "positive")

    def __init__(self, var: str, positive: bool):
        self._init(frozenset((var,)))
        self.var = var
        self.positive = positive

    def __repr__(self) -> str:
        return self.var if self.positive else "~" + self.var


class And(Formula):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Formula, ...]):
        self._init(frozenset().union(*(c.vars for c in children)))
        self.children = children

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.children)) + ")"


class Or(Formula):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Formula, ...]):
        self._init(frozenset().union(*(c.vars for c in children)))
        self.children = children

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.children)) + ")"


TRUE = _Const(True)
FALSE = _Const(False)

_LITERALS: dict[tuple[str, bool], Lit] = {}
_ANDS: dict[tuple[int, ...], And] = {}
_ORS: dict[tuple[int, ...], Or] = {}


@contextmanager
def session() -> Iterator[None]:
    """Build formulas in fresh tables inside the block; sessions may nest."""
    global _LITERALS, _ANDS, _ORS, _serial
    saved = _LITERALS, _ANDS, _ORS, _serial
    _LITERALS, _ANDS, _ORS, _serial = {}, {}, {}, itertools.count()
    try:
        yield
    finally:
        _LITERALS, _ANDS, _ORS, _serial = saved


def lit(name: str, positive: bool = True) -> Formula:
    key = (name, positive)
    node = _LITERALS.get(key)
    if node is None:
        node = _LITERALS[key] = Lit(name, positive)
    return node


def var(name: str) -> Formula:
    return lit(name, True)


def not_(f: Formula) -> Formula:
    if f is TRUE:
        return FALSE
    if f is FALSE:
        return TRUE
    if isinstance(f, Lit):
        return lit(f.var, not f.positive)
    if isinstance(f, And):
        return or_(not_(c) for c in f.children)
    return and_(not_(c) for c in f.children)


_by_serial = operator.attrgetter("serial")


def _join(items: Iterable[Formula], kind: type, table: dict, absorbing: Formula,
          neutral: Formula) -> Formula:
    """The interned ``kind`` connective of ``items``: nested ``kind`` children
    flattened, ``neutral`` dropped, duplicates dropped (interning makes
    identity comparisons sound), the rest sorted by serial; ``absorbing`` if
    it occurs or a literal meets its complement."""
    flat: list[Formula] = []
    for f in items:
        if f is neutral:
            continue
        if f is absorbing:
            return absorbing
        if isinstance(f, kind):
            flat.extend(f.children)
        else:
            flat.append(f)
    # Children mostly arrive in serial order already, which the sort exploits.
    unique = sorted(dict.fromkeys(flat), key=_by_serial)
    polarity: dict[str, bool] = {}
    for f in unique:
        if isinstance(f, Lit) and polarity.setdefault(f.var, f.positive) != f.positive:
            return absorbing
    if len(unique) < 2:
        return unique[0] if unique else neutral
    key = tuple(f.serial for f in unique)
    node = table.get(key)
    if node is None:
        node = table[key] = kind(tuple(unique))
    return node


def and_(items: Iterable[Formula]) -> Formula:
    return _join(items, And, _ANDS, FALSE, TRUE)


def or_(items: Iterable[Formula]) -> Formula:
    return _join(items, Or, _ORS, TRUE, FALSE)


def satisfies(f: Formula, true_vars: Iterable[str]) -> bool:
    """Evaluate under the assignment that sets exactly ``true_vars`` to true."""
    on = frozenset(true_vars)
    if isinstance(f, _Const):
        return f.value
    if isinstance(f, Lit):
        return (f.var in on) == f.positive
    if isinstance(f, And):
        return all(satisfies(c, on) for c in f.children)
    return any(satisfies(c, on) for c in f.children)


def models(f: Formula, variables: Sequence[str]) -> Iterator[frozenset[str]]:
    """Enumerate satisfying assignments over the given variables (truth table)."""
    names = sorted(set(variables))
    if not set(f.vars) <= set(names):
        from .errors import InputError

        raise InputError(f"formula mentions variables outside {names}")
    for mask in range(1 << len(names)):
        on = frozenset(names[i] for i in range(len(names)) if mask >> i & 1)
        if satisfies(f, on):
            yield on
