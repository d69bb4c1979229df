"""Compilation of clause sets and listed model sets into smooth d-DNNF circuits.

A clause set (``ClauseSet``) holds each clause as a pair of integer bit
masks, the positive and the negative variables, and is compiled by a
component-caching search in the manner of sharpSAT (Thurley, SAT 2006) and
of decision-DNNF compilers (Darwiche, ECAI 2004; Lagniez & Marquis, IJCAI
2017). After each decision it assigns unit literals, splits the residual
clauses into components that share no variable, and decides, in each, the
kept variable in the most residual clauses, the lowest bit on ties. A cache
keyed on each component's clauses and variables turns shared subproblems
into shared circuit nodes. Disjunctions always branch on a decision
variable, which gives determinism by construction; decomposability falls
out of conditioning and splitting; smoothness comes from padding, during
the same search, each branch with (v or not v) gap nodes for the variables
that simplification dropped.

The names past a clause set's declared ones are projected away
existentially, in the manner of projected model counting (Lagniez &
Marquis, AAAI 2019), within the same search: kept variables are decided
first; eliminated variables are assigned, not emitted, when a clause makes
them unit or they occur with one polarity only; components are split on
all variables, eliminated ones included; and a component that mentions no
kept variable is decided by the same branch step, which emits nothing for
an eliminated variable, so the component is the true or the false node.
Only kept variables make disjunctions, so the circuit stays deterministic.

The search is a ``Compiler``, which keeps its arena and component cache
across circuits: each circuit assumes a set of variables true, as if they
were unit clauses, and shares every component the earlier ones met. Each
also has a scope, a set of names: the circuit is over the scope's declared
names, from the clauses whose names all lie in it, and the width caps count
the scope alone. A scope that keeps each name's relative order compiles to
the circuit of its own clause set, since the lowest bit breaks every tie
alike. ``compile_formula`` is a compiler's one circuit with nothing assumed
and every name in scope. Each circuit is renumbered in depth-first
post-order from its root, so it is the same whatever else the arena holds.
No compile path makes a reference cycle.

A listed model set (``encode_enumerative``) or a truth table needs no
search: deciding its names in order, equal tails sharing a node, builds a
reduced ordered decision diagram (Bryant, IEEE ToC 1986) straight into
circuit nodes, the same from either form of one function (``_diagram``).

Circuits are immutable node arrays where children precede parents, the
format used by the standard `.nnf` file layout this module also emits.
``Circuit``, ``ClauseSet`` and ``ValidationReport`` are named tuples, whose
constructors check their fields; ``Node`` is a slotted class. A circuit's
nodes are held in a ``_Nodes`` tuple, however the circuit is built, which
keeps the circuit's ``_Index``, the literal and gate positions that the
forward and backward passes read instead of each node's kind, and each
node's model count, which ``model_count`` reads. Every circuit built here
ends in ``_reachable``, whose one post-order pass renumbers the kept nodes
and hands over both; a circuit built by hand computes them on first use.
Both live and die with the circuit.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from functools import cached_property

from .af import _bits
from .errors import CapacityError, InputError

MAX_COMPILE_VARIABLES = 25
# Determinism validation builds a disjunction's truth table up to this width.
MAX_EXACT_CHECK_VARIABLES = 20


class Node:
    """One circuit node; ``children`` are indices of earlier nodes.

    ``kind`` is "true", "false", "lit", "and" or "or". ``var``/``positive``
    are used by literal nodes, ``decision`` records the branch variable of
    disjunctions introduced by Shannon expansion. Nodes compare and hash by
    their five fields, and are not changed once built. On CPython 3.11 a
    slot read costs about a third of a named tuple's field read; the
    compiler, ``condition`` and ``validate`` read the fields, while the
    evaluators read the circuit's index instead.
    """

    __slots__ = ("kind", "var", "positive", "children", "decision")

    def __init__(
        self,
        kind: str,
        var: str | None = None,
        positive: bool = True,
        children: tuple[int, ...] = (),
        decision: str | None = None,
    ) -> None:
        self.kind = kind
        self.var = var
        self.positive = positive
        self.children = children
        self.decision = decision

    def _key(self) -> tuple:
        return (self.kind, self.var, self.positive, self.children, self.decision)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"Node({fields})"


class _Index(namedtuple("_Index", "literals pairs trues gates")):
    """The nodes of a circuit as the evaluators read them, by position.

    ``literals`` holds an ``(index, variable, polarity)`` triple per
    literal, at its first node. ``pairs`` maps each variable to the first
    nodes of its positive and negative literal, the node count standing
    for a missing one. ``trues`` lists the true nodes. ``gates`` holds an
    ``(index, is_and, children)`` triple per conjunction and disjunction,
    children first. A further node of a literal, which no compiled circuit
    has, is a gate too: the disjunction of the literal's first node alone.
    """

    __slots__ = ()


class _Nodes(tuple):
    """A circuit's node tuple, with its ``_Index`` and the model count of
    each node over the variables it mentions, kept for as long as the tuple
    lives. ``_reachable`` sets both in the pass that builds the tuple; a
    tuple built otherwise computes each on first use."""

    @cached_property
    def _index(self) -> _Index:
        return _indexed(self, range(len(self)))._index

    @cached_property
    def _counts(self) -> list[int]:
        return _indexed(self, range(len(self)))._counts


def _indexed(nodes: Sequence[Node], position: Mapping[int, int] | range) -> _Nodes:
    """The nodes that ``position`` numbers, children first, renumbered by
    it, as a ``_Nodes`` tuple whose index and per-node counts are set in
    the same pass. A count is the counting semiring's value, every literal
    valued 1."""
    missing = len(position)
    kept: list[Node] = []
    counts: list[int] = []
    literals, trues, gates = [], [], []
    pairs: dict[str, tuple[int, int]] = {}
    for old in position:
        node = nodes[old]
        i, kind = len(kept), node.kind
        if kind == "and" or kind == "or":
            children = tuple([position[c] for c in node.children])
            node = Node(kind, node.var, node.positive, children, node.decision)
            gates.append((i, kind == "and", children))
            if kind == "and":
                count = 1
                for c in children:
                    count *= counts[c]
            else:
                count = sum([counts[c] for c in children])
        elif kind == "lit":
            count = 1
            var, positive = node.var, node.positive
            pos, neg = pairs.get(var, (missing, missing))
            first = pos if positive else neg
            if first == missing:
                literals.append((i, var, positive))
                pairs[var] = (i, neg) if positive else (pos, i)
            else:
                gates.append((i, False, (first,)))
        else:
            count = 1 if kind == "true" else 0
            if count:
                trues.append(i)
        kept.append(node)
        counts.append(count)
    reached = _Nodes(kept)
    # cached_property has no setter: from here on it returns these attributes.
    reached._index = _Index(tuple(literals), pairs, tuple(trues), tuple(gates))
    reached._counts = counts
    return reached


class Circuit(namedtuple("Circuit", "nodes root variables")):
    """A tuple of ``Node`` where children precede parents, the index of the
    root, and the declared variable names.

    However it is built, ``nodes`` is held as a ``_Nodes`` tuple, so each
    circuit's index and counts are built once: by the pass that built the
    circuit, or for a circuit built by hand on first use.
    """

    __slots__ = ()

    def __new__(cls, nodes: Iterable[Node], root: int, variables: tuple[str, ...]) -> "Circuit":
        if type(nodes) is not _Nodes:
            nodes = _Nodes(nodes)
        return super().__new__(cls, nodes, root, variables)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Circuit":
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)

    @property
    def edge_count(self) -> int:
        return sum(len(n.children) for n in self.nodes)


class ClauseSet(namedtuple("ClauseSet", "names declared clauses")):
    """A propositional theory in clause form, the input of ``compile_formula``.

    Bit i of a mask stands for ``names[i]``. The first ``declared`` names are
    the circuit's variables; the rest are projected away. Each clause is a
    ``(positive, negative)`` pair of masks, satisfied when a positive
    variable is true or a negative one false; the empty clause ``(0, 0)`` is
    false. Tautologies and repeated clauses are dropped on construction.
    """

    __slots__ = ()

    def __new__(
        cls, names: Iterable[str], declared: int, clauses: Iterable[tuple[int, int]]
    ) -> "ClauseSet":
        names = tuple(names)
        if not all(isinstance(n, str) for n in names) or len(set(names)) < len(names):
            raise InputError(f"names must be distinct strings, got {list(names)!r}")
        if not isinstance(declared, int) or not 0 <= declared <= len(names):
            raise InputError(f"declared must count 0 to {len(names)} names, got {declared!r}")
        kept: dict[tuple[int, int], None] = {}
        used = 0
        try:
            for pos, neg in clauses:
                used |= pos | neg
                if not pos & neg:
                    kept[pos, neg] = None
        except (TypeError, ValueError):
            raise InputError("clauses must be (positive, negative) pairs of integer masks") from None
        if used < 0 or used >> len(names):
            raise InputError(f"clause masks must be non-negative integers below 2**{len(names)}")
        return super().__new__(cls, names, declared, tuple(kept))


class _Builder:
    """Append-only node arena with structural hash-consing on the tuple of a
    node's five fields, so a repeat builds no node. Literal and gap nodes
    are also interned on their variable."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._memo: dict[tuple, int] = {}
        self._literals: dict[tuple[str, bool], int] = {}
        self._gaps: dict[str, int] = {}

    def _add(self, key: tuple) -> int:
        # key: (kind, var, positive, children, decision), the fields of Node.
        index = self._memo.get(key)
        if index is None:
            index = len(self.nodes)
            self.nodes.append(Node(*key))
            self._memo[key] = index
        return index

    def true(self) -> int:
        return self._add(("true", None, True, (), None))

    def false(self) -> int:
        return self._add(("false", None, True, (), None))

    def literal(self, var: str, positive: bool) -> int:
        index = self._literals.get((var, positive))
        if index is None:
            index = self._literals[var, positive] = self._add(("lit", var, positive, (), None))
        return index

    def gap(self, var: str) -> int:
        """The (v or not v) node, so a node mentions a variable that
        simplification dropped."""
        index = self._gaps.get(var)
        if index is None:
            index = self._gaps[var] = self.disj(
                [self.literal(var, True), self.literal(var, False)], decision=var
            )
        return index

    def conj(self, children: Iterable[int]) -> int:
        flat: list[int] = []
        for c in children:
            node = self.nodes[c]
            if node.kind == "true":
                continue
            if node.kind == "false":
                return self.false()
            if node.kind == "and":
                flat.extend(node.children)
            else:
                flat.append(c)
        flat = list(dict.fromkeys(flat))
        if not flat:
            return self.true()
        if len(flat) == 1:
            return flat[0]
        return self._add(("and", None, True, tuple(flat), None))

    def disj(self, children: Iterable[int], decision: str | None = None) -> int:
        kept: list[int] = []
        for c in children:
            node = self.nodes[c]
            if node.kind == "false":
                continue
            if node.kind == "true":
                return self.true()
            kept.append(c)
        kept = list(dict.fromkeys(kept))
        if not kept:
            return self.false()
        if len(kept) == 1:
            return kept[0]
        return self._add(("or", None, True, tuple(kept), decision))


def _require_width(variables: int, eliminated: int = 0) -> None:
    """Refuse more than ``MAX_COMPILE_VARIABLES`` kept or eliminated variables."""
    for count, kind in ((variables, "variables"), (eliminated, "eliminated variables")):
        if count > MAX_COMPILE_VARIABLES:
            raise CapacityError(f"compilation supports at most {MAX_COMPILE_VARIABLES} {kind}, got {count}")


class Compiler:
    """One clause set's search, kept across the circuits compiled from it.

    ``circuit(assume, scope)`` compiles the clauses whose names all lie in
    ``scope``, over the scope's names alone, with the bits of ``assume`` set
    true, as if each were a unit clause. The occurrence lists, the node
    arena and the component cache are built once and serve every assumption
    and scope: a component's (clause-id mask, variable mask) key names its
    residual whatever was assumed or scoped, so each cache hit is sound. A
    circuit equals ``compile_formula`` of the scope's clauses, renumbered
    over its names, with the assumed unit clauses added, node for node,
    whatever the compiler built before. ``component`` and ``expand``
    recurse, two frames per decided variable, kept or eliminated: at most
    101 under the caps. A compiler holds no reference cycle, so a dropped
    one is freed at once.

    The arena and the cache only grow: a compiler holds every node and
    component of every circuit compiled from it, so its memory is at most
    the sum of those compiles' searches. Whoever keeps compilers bounds
    how many.
    """

    def __init__(self, theory: ClauseSet) -> None:
        names, clauses = theory.names, theory.clauses
        self.names = names
        # Bit masks of the kept (declared) and the eliminated variables.
        self.kept = (1 << theory.declared) - 1
        self.hidden = ((1 << len(names)) - 1) ^ self.kept
        self.pos_occ, self.neg_occ = [0] * len(names), [0] * len(names)
        for i, (p, n) in enumerate(clauses):
            for m, occ in ((p, self.pos_occ), (n, self.neg_occ)):
                while m:
                    low = m & -m
                    m ^= low
                    occ[low.bit_length() - 1] |= 1 << i
        self.occ = [p | n for p, n in zip(self.pos_occ, self.neg_occ)]
        self.cpos = [p for p, _ in clauses]
        self.cvars = [p | n for p, n in clauses]
        self.builder = _Builder()
        self.false, self.true = self.builder.false(), self.builder.true()
        self.cache: dict[tuple[int, int], int] = {}
        # Unit clauses are assigned with every circuit's assumptions.
        on = off = 0
        for p, n in clauses:
            if not (p | n) & (p | n) - 1:
                if not p | n:  # the empty clause: a conflict, each bit true and false
                    on = off = -1
                on |= p
                off |= n
        self.units = on, off

    def circuit(self, assume: int = 0, scope: int | None = None) -> Circuit:
        """The circuit over the declared names in ``scope`` (every name by
        default), in their order, of the clauses whose names all lie in it,
        with the bits of ``assume`` true, kept or eliminated ones alike.
        At most ``MAX_COMPILE_VARIABLES`` declared names of the scope, and
        as many others, are compiled."""
        width = len(self.names)
        full = (1 << width) - 1
        if scope is None:
            scope = full
        elif not isinstance(scope, int) or scope & ~full:
            raise InputError(f"a scope must be a mask below 2**{width}, got {scope!r}")
        if not isinstance(assume, int) or assume & ~scope:
            raise InputError(f"assumptions must be a mask within the scope, got {assume!r}")
        kept = scope & self.kept
        _require_width(kept.bit_count(), (scope & self.hidden).bit_count())
        # The clauses the scope's names touch, less those reaching past it:
        # the cost follows the scope, not the clause set.
        live, m = 0, scope
        while m:
            low = m & -m
            m ^= low
            live |= self.occ[low.bit_length() - 1]
        m = live
        while m:
            low = m & -m
            m ^= low
            if self.cvars[low.bit_length() - 1] & ~scope:
                live ^= low
        # Unit clauses outside the scope drop out. The empty clause touches
        # no name, but its conflict also sets the bits past every name,
        # which stay.
        on, off = (units & (scope | ~full) for units in self.units)
        root = self.expand(live, scope, kept, 0, on | assume, off)
        return _reachable(self.builder.nodes, root, tuple(self.names[v] for v in _bits(kept)))

    def propagate(
        self, live: int, free: int, on: int, off: int
    ) -> tuple[int, int, int, int] | None:
        """Assign the bits of ``on`` true and of ``off`` false, then unit
        literals and pure literals of eliminated variables, to a fixed
        point: the live clauses, free variables and all bits set true and
        false, or None on a conflict. A pure literal keeps a model only
        under projection. The set-bit loops here and in the other steps
        are written out, as they run once per search frame."""
        pos_occ, neg_occ, cpos, cvars = self.pos_occ, self.neg_occ, self.cpos, self.cvars
        on_all = off_all = 0
        while True:
            if not on | off:
                m = free & self.hidden
                while m:
                    low = m & -m
                    m ^= low
                    v = low.bit_length() - 1
                    if not neg_occ[v] & live:
                        if pos_occ[v] & live:
                            on |= low
                    elif not pos_occ[v] & live:
                        off |= low
                if not on | off:
                    return live, free, on_all, off_all
            if on & off:
                return None
            on_all |= on
            off_all |= off
            free &= ~(on | off)
            satisfied = shrunk = 0
            for m, yes, no in ((on, pos_occ, neg_occ), (off, neg_occ, pos_occ)):
                while m:
                    low = m & -m
                    m ^= low
                    v = low.bit_length() - 1
                    satisfied |= yes[v]
                    shrunk |= no[v]
            live &= ~satisfied
            on = off = 0
            m = shrunk & live
            while m:
                low = m & -m
                m ^= low
                c = low.bit_length() - 1
                rest = cvars[c] & free
                if not rest & (rest - 1):
                    if not rest:
                        return None
                    if cpos[c] & rest:
                        on |= rest
                    else:
                        off |= rest

    def split(self, live: int, free: int) -> list[tuple[int, int]]:
        """The live clauses grouped by shared free variables, as (clause
        mask, variable mask) pairs in the order of their least variable."""
        occ, cvars = self.occ, self.cvars
        parts = []
        while live:
            clauses = live & -live
            variables = frontier = cvars[clauses.bit_length() - 1] & free
            while frontier:
                reached = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    reached |= occ[low.bit_length() - 1]
                reached &= live & ~clauses
                clauses |= reached
                while reached:
                    low = reached & -reached
                    reached ^= low
                    frontier |= cvars[low.bit_length() - 1]
                frontier &= free & ~variables
                variables |= frontier
            live &= ~clauses
            parts.append((clauses, variables))
        parts.sort(key=lambda part: part[1] & -part[1])
        return parts

    def expand(self, live: int, free: int, span: int, decision: int, on: int, off: int) -> int:
        """The node of the residual once ``on`` and ``off`` are assigned:
        the kept decision literal first, then the other kept literals set,
        the components and gap nodes for the kept variables of ``span``
        left uncovered."""
        state = self.propagate(live, free, on, off)
        if state is None:
            return self.false
        live, free, on, off = state
        builder, names = self.builder, self.names
        covered = (on | off) & self.kept
        parts = []
        for m in (decision, covered & ~decision):
            while m:
                low = m & -m
                m ^= low
                parts.append(builder.literal(names[low.bit_length() - 1], bool(on & low)))
        for clauses, variables in self.split(live, free):
            node = self.component(clauses, variables)
            if node == self.false:
                return node
            parts.append(node)
            covered |= variables
        m = span & ~covered
        while m:
            low = m & -m
            m ^= low
            parts.append(builder.gap(names[low.bit_length() - 1]))
        return builder.conj(parts)

    def component(self, clauses: int, variables: int) -> int:
        """The node of one component, which mentions exactly its kept
        variables: the branch on its kept variable, or with none its
        eliminated one, in the most clauses, the lowest bit on ties."""
        key = (clauses, variables)
        node = self.cache.get(key)
        if node is None:
            occ, span = self.occ, variables & self.kept
            best, m = -1, span or variables
            while m:
                low = m & -m
                m ^= low
                count = (occ[low.bit_length() - 1] & clauses).bit_count()
                if count > best:
                    best, pick = count, low
            rest, decided = variables & ~pick, pick & span
            node = self.expand(clauses, rest, span, decided, pick, 0)
            # Only an eliminated variable's true branch can be true, and
            # then so is the component.
            if node != self.true:
                node = self.builder.disj(
                    (node, self.expand(clauses, rest, span, decided, 0, pick)),
                    decision=self.names[pick.bit_length() - 1],
                )
            self.cache[key] = node
        return node


def compile_formula(theory: ClauseSet) -> Circuit:
    """Compile a clause set to a smooth deterministic decomposable circuit
    over its declared names.

    The names past the declared ones are projected away: the circuit's
    models are the assignments to the declared names that extend to a model
    of the clauses. At most ``MAX_COMPILE_VARIABLES`` declared names, and as
    many others, are compiled; ``Compiler.circuit`` checks both.

    The search caches each component on its (clause-id mask, variable mask)
    pair: every live clause of a component is the original clause cut down
    to the component's variables, so the pair names the residual. Eliminated
    variables are assigned by propagation, or decided, emitting nothing, in
    a component with no kept variable left.
    """
    return Compiler(theory).circuit(0)


def encode_enumerative(names: Sequence[str], masks: Iterable[int]) -> Circuit:
    """The circuit over ``names`` whose models are exactly ``masks``, bit i
    for ``names[i]``: PR's theory. At most ``MAX_COMPILE_VARIABLES`` names
    are declared."""
    if not all(isinstance(n, str) for n in names) or len(set(names)) < len(names):
        raise InputError(f"names must be distinct strings, got {list(names)!r}")
    declared = tuple(names)
    _require_width(len(declared))
    tails = frozenset(masks)
    if not all(isinstance(m, int) and 0 <= m < 1 << len(names) for m in tails):
        raise InputError(f"masks must be non-negative integers below 2**{len(names)}")
    return _diagram(declared, tails, _mask_halves)


def _mask_halves(width: int, tails: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    # Masks whose bit 0 is the name decided: those with it set, then clear, past it.
    return frozenset(m >> 1 for m in tails if m & 1), frozenset(m >> 1 for m in tails if not m & 1)


def _table_halves(width: int, table: int) -> tuple[int, int]:
    # A 2^width-bit truth table, the name decided its highest index bit: high half, then low.
    half = 1 << width - 1
    return table >> half, table & (1 << half) - 1


def _diagram(
    names: tuple[str, ...],
    tails: Hashable,
    split: Callable[[int, Hashable], tuple[Hashable, Hashable]],
) -> Circuit:
    """The decision diagram of the function ``tails`` over ``names``.
    ``split(width, tails)``, with ``width`` names left, gives the tails of
    the first one's true and false branches; empty tails are false. Each
    name in turn is decided by ``_decide``, and the root is padded with gap
    nodes up to ``names``."""
    builder = _Builder()
    root, span = _decide(builder, {}, names, split, 0, tails)
    mentioned = {names[v] for v in _bits(span)}
    root = builder.conj([root, *(builder.gap(v) for v in names if v not in mentioned)])
    return _reachable(builder.nodes, root, names)


def _decide(
    builder: _Builder, memo: dict, names: tuple[str, ...], split: Callable, i: int, tails: Hashable
) -> tuple[int, int]:
    """The node of ``tails`` over ``names[i:]``, and the bit mask of the
    names it mentions. Each name is decided true branch first, memoised so
    equal tails share one node, and skipped where both branches give one
    node. A branch is its decision literal, its child and gap nodes up to
    the decision's variables."""
    if not tails or i == len(names):
        return (builder.true() if tails else builder.false()), 0
    hit = memo.get((i, tails))
    if hit is None:
        high, low = (
            _decide(builder, memo, names, split, i + 1, t) for t in split(len(names) - i, tails)
        )
        hit = high
        if high[0] != low[0]:
            false, span = builder.false(), 1 << i | high[1] | low[1]
            branches = []
            for positive, (child, mentions) in ((True, high), (False, low)):
                if child != false:  # a branch with no model gets no gap nodes
                    parts = [builder.literal(names[i], positive), child]
                    m = span & ~(1 << i | mentions)
                    while m:
                        low = m & -m
                        m ^= low
                        parts.append(builder.gap(names[low.bit_length() - 1]))
                    branches.append(builder.conj(parts))
            hit = builder.disj(branches, decision=names[i]), span
        memo[i, tails] = hit
    return hit


def _reachable(nodes: Sequence[Node], root: int, variables: tuple[str, ...]) -> Circuit:
    """The circuit over ``variables`` of the nodes ``root`` reaches,
    renumbered in depth-first post-order.

    Simplification, and every other circuit built in the same arena, leave
    nodes the root does not reach. Post-order from the root, children in
    their stored order, keeps children before parents, puts the root last,
    and numbers a circuit the same whatever else the arena holds. The pass
    that renumbers the kept nodes also hands the circuit its index and its
    counts (``_indexed``), so neither takes a second walk.
    """
    position: dict[int, int] = {}
    stack = [(root, iter(nodes[root].children))]
    while stack:
        index, children = stack[-1]
        for c in children:
            # A child still on the stack would close a cycle, so a child
            # without a position is new.
            if c not in position:
                stack.append((c, iter(nodes[c].children)))
                break
        else:
            stack.pop()
            position[index] = len(position)
    reached = _indexed(nodes, position)
    return Circuit(reached, len(reached) - 1, variables)


def _varsets(circuit: Circuit, ids: Iterable[int]) -> list[frozenset[str]]:
    """Variables each node of ``ids`` mentions, as one walk in a set-union semiring."""
    from .semiring import Labelling, Semiring, _walk

    union = Semiring("variable sets", frozenset.union, frozenset.union, frozenset(), frozenset())
    table = {(n.var, n.positive): frozenset((n.var,)) for n in circuit.nodes if n.kind == "lit"}
    return _walk(circuit, union, Labelling(table), ids)


def _variable_pattern(position: int, width: int) -> int:
    # Truth-table mask (one bit per assignment) of "variable <position> is true".
    block = 1 << position
    total = 1 << width
    mask = ((1 << block) - 1) << block
    span = 2 * block
    while span < total:
        mask |= mask << span
        span *= 2
    return mask


def _truth_masks(circuit: Circuit, order: dict[str, int], ids: Iterable[int]) -> list[int | None]:
    """Truth table of each node: one bit per assignment of the ordered variables."""
    from .semiring import Labelling, Semiring, _walk

    width = len(order)
    full = (1 << (1 << width)) - 1
    table: dict[tuple[str, bool], int] = {}
    for var, position in order.items():
        pattern = _variable_pattern(position, width)
        table[var, True] = pattern
        table[var, False] = full ^ pattern
    truth = Semiring("truth table", operator.or_, operator.and_, 0, full)
    return _walk(circuit, truth, Labelling(table), ids)


def _closure(nodes: Sequence[Node], start: int) -> list[int]:
    seen = {start}
    stack = [start]
    while stack:
        for c in nodes[stack.pop()].children:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return sorted(seen)


def _guard_polarity(circuit: Circuit, index: int) -> dict[str, bool]:
    node = circuit.nodes[index]
    if node.kind == "lit":
        return {node.var: node.positive}
    guards: dict[str, bool] = {}
    if node.kind == "and":
        for c in node.children:
            child = circuit.nodes[c]
            if child.kind == "lit":
                guards[child.var] = child.positive
    return guards


_REPORT_FIELDS = (
    "decomposable deterministic smooth "
    "first_nondecomposable first_nondeterministic first_unsmooth"
)


class ValidationReport(namedtuple("ValidationReport", _REPORT_FIELDS, defaults=(None,) * 3)):
    """Outcome of the three structural checks, as booleans, with the index
    of the first offending node of each, or None."""

    __slots__ = ()


def validate(circuit: Circuit) -> ValidationReport:
    """Check decomposability, determinism and smoothness in one pass.

    A disjunction is deterministic when each pair of its children carries
    clashing guards, the literals a child implies directly (the compiler
    guards every branch and gap node with its decision literal). A
    disjunction the guards cannot settle is decided exactly by truth tables
    over its own variables, up to 20; past that a capacity error is raised
    rather than guessing. Smoothness also needs the root to mention exactly
    the declared variables, unless it is the false node (a contradicting
    ``condition`` leaves one), so that counts range over all of them.
    """
    reach = _closure(circuit.nodes, circuit.root)
    sets = _varsets(circuit, reach)
    bad_and = bad_or = bad_smooth = None
    for i in reach:
        node = circuit.nodes[i]
        if node.kind == "and":
            if bad_and is None and sum(len(sets[c]) for c in node.children) > len(sets[i]):
                bad_and = i
        elif node.kind == "or":
            if bad_smooth is None and len({sets[c] for c in node.children}) > 1:
                bad_smooth = i
            if bad_or is None and not _deterministic(circuit, i, sets[i]):
                bad_or = i
    root = circuit.root
    if bad_smooth is None and circuit.nodes[root].kind != "false":
        if sets[root] != frozenset(circuit.variables):
            bad_smooth = root
    return ValidationReport(
        decomposable=bad_and is None,
        deterministic=bad_or is None,
        smooth=bad_smooth is None,
        first_nondecomposable=bad_and,
        first_nondeterministic=bad_or,
        first_unsmooth=bad_smooth,
    )


def _deterministic(circuit: Circuit, index: int, variables: frozenset[str]) -> bool:
    """Whether no two children of disjunction ``index`` share a model."""
    children = circuit.nodes[index].children
    guards = [_guard_polarity(circuit, c) for c in children]
    if all(
        any(second.get(v, p) != p for v, p in first.items())
        for first, second in itertools.combinations(guards, 2)
    ):
        return True
    if len(variables) > MAX_EXACT_CHECK_VARIABLES:
        raise CapacityError(
            "determinism validation needs at most "
            f"{MAX_EXACT_CHECK_VARIABLES} variables per disjunction"
        )
    order = {v: p for p, v in enumerate(sorted(variables))}
    masks = _truth_masks(circuit, order, _closure(circuit.nodes, index))
    seen = 0
    for c in children:
        if masks[c] & seen:
            return False
        seen |= masks[c]
    return True


def model_count(circuit: Circuit) -> int:
    """Number of satisfying assignments over the declared variables.

    Exact on any circuit that ``validate`` passes, as every compiled and
    conditioned circuit does; on another circuit the count is not checked.
    It is the counting semiring's value of the root, which the circuit's
    nodes hold from the pass that built them.
    """
    return circuit.nodes._counts[circuit.root]


def _normalize_literals(
    fixed: Mapping[str, bool] | Iterable[tuple[str, bool]], variables: tuple[str, ...]
) -> dict[str, bool]:
    items = fixed.items() if isinstance(fixed, Mapping) else fixed
    known = set(variables)
    out: dict[str, bool] = {}
    for entry in items:
        try:
            name, value = entry
        except (TypeError, ValueError):
            name = value = None
        if not isinstance(name, str) or not isinstance(value, bool):
            raise InputError(f"literal must be a (variable, bool) pair, got {entry!r}")
        if name not in known:
            raise InputError(f"unknown variable {name!r}")
        if name in out and out[name] != value:
            raise InputError(f"inconsistent literals for {name!r}")
        out[name] = value
    return out


def condition(
    circuit: Circuit, fixed: Mapping[str, bool] | Iterable[tuple[str, bool]]
) -> Circuit:
    """Replace literals contradicting ``fixed`` by false and simplify.

    Only the nodes the new root reaches are kept. The declared variable set
    is unchanged, so counts and probabilities stay comparable with the
    unconditioned circuit.
    """
    forced = _normalize_literals(fixed, circuit.variables)
    if not forced:
        return circuit
    builder = _Builder()
    mapped: list[int] = []
    for node in circuit.nodes:
        if node.kind == "true":
            mapped.append(builder.true())
        elif node.kind == "false":
            mapped.append(builder.false())
        elif node.kind == "lit":
            want = forced.get(node.var)
            if want is not None and node.positive != want:
                mapped.append(builder.false())
            else:
                mapped.append(builder.literal(node.var, node.positive))
        elif node.kind == "and":
            mapped.append(builder.conj([mapped[c] for c in node.children]))
        else:
            mapped.append(builder.disj([mapped[c] for c in node.children], decision=node.decision))
    return _reachable(builder.nodes, mapped[circuit.root], circuit.variables)


def format_nnf(circuit: Circuit) -> str:
    """Render in the standard text format for NNF circuits.

    Header ``nnf <nodes> <edges> <vars>``; one node per line (``L``, ``A``,
    ``O``, ``T``, ``F``), children referenced by line position; variable ids
    recorded up front as ``c var <index> <id>`` comments.
    """
    index = {name: i + 1 for i, name in enumerate(circuit.variables)}
    lines = [f"nnf {len(circuit.nodes)} {circuit.edge_count} {len(circuit.variables)}"]
    lines.extend(f"c var {i + 1} {name}" for i, name in enumerate(circuit.variables))
    for node in circuit.nodes:
        if node.kind == "true":
            lines.append("T")
        elif node.kind == "false":
            lines.append("F")
        elif node.kind == "lit":
            lines.append(f"L {index[node.var] if node.positive else -index[node.var]}")
        elif node.kind == "and":
            lines.append(f"A {len(node.children)} " + " ".join(map(str, node.children)))
        else:
            decision = index[node.decision] if node.decision is not None else 0
            lines.append(
                f"O {decision} {len(node.children)} " + " ".join(map(str, node.children))
            )
    return "\n".join(lines) + "\n"


def write_nnf(circuit: Circuit, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_nnf(circuit))
