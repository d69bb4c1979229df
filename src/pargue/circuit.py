"""Compilation of formulas into smooth deterministic decomposable circuits.

The compiler is a component-caching search in the manner of decision-DNNF
compilers (Darwiche, ECAI 2004; Lagniez & Marquis, IJCAI 2017). It peels
unit literals; it splits a conjunction whose children fall into groups that
share no variable and compiles each group apart, which makes a decomposable
conjunction; otherwise it runs Shannon expansion on the variable that occurs
in the most of the residual's top-level children, the least name on ties. A
cache keyed on the simplified subformula, components included, turns shared
subproblems into shared circuit nodes. Disjunctions always branch on a
decision variable, which gives determinism by construction; decomposability
falls out of conditioning and splitting; smoothness comes from padding,
during the same search, each branch with (v or not v) gap nodes for the
variables that simplification dropped.

Variables named to be eliminated are projected away existentially, in the
manner of projected model counting (Lagniez & Marquis, AAAI 2019), within
the same search: kept variables are decided first, an eliminated unit
literal is assigned without being emitted, components are split on all
variables, eliminated ones included, and a residual that mentions no kept
variable decides its most shared eliminated variable, true first, trying
false only when true fails, so it becomes the true or the false node. Only
kept variables make disjunctions, so the circuit stays deterministic.

Circuits are immutable node arrays where children precede parents, the
format used by the standard `.nnf` file layout this module also emits.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError, InputError
from .formula import FALSE, TRUE, And, Formula, Lit, and_, assign

MAX_COMPILE_VARIABLES = 25
# Determinism validation builds a disjunction's truth table up to this width.
MAX_EXACT_CHECK_VARIABLES = 20


@dataclass(frozen=True)
class Node:
    """One circuit node; ``children`` are indices of earlier nodes.

    ``var``/``positive`` are used by literal nodes, ``decision`` records the
    branch variable of disjunctions introduced by Shannon expansion.
    """

    kind: str  # "true" | "false" | "lit" | "and" | "or"
    var: str | None = None
    positive: bool = True
    children: tuple[int, ...] = ()
    decision: str | None = None


@dataclass(frozen=True)
class Circuit:
    nodes: tuple[Node, ...]
    root: int
    variables: tuple[str, ...]

    @property
    def edge_count(self) -> int:
        return sum(len(n.children) for n in self.nodes)


class _Builder:
    """Append-only node arena with structural hash-consing."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._memo: dict[Node, int] = {}

    def _add(self, node: Node) -> int:
        index = self._memo.get(node)
        if index is None:
            index = len(self.nodes)
            self.nodes.append(node)
            self._memo[node] = index
        return index

    def true(self) -> int:
        return self._add(Node("true"))

    def false(self) -> int:
        return self._add(Node("false"))

    def literal(self, var: str, positive: bool) -> int:
        return self._add(Node("lit", var=var, positive=positive))

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
        return self._add(Node("and", children=tuple(flat)))

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
        return self._add(Node("or", children=tuple(kept), decision=decision))


def _require_width(variables: int, eliminated: int = 0) -> None:
    """Refuse more than ``MAX_COMPILE_VARIABLES`` kept or eliminated variables."""
    for count, kind in ((variables, "variables"), (eliminated, "eliminated variables")):
        if count > MAX_COMPILE_VARIABLES:
            raise CapacityError(f"compilation supports at most {MAX_COMPILE_VARIABLES} {kind}, got {count}")


def compile_formula(
    f: Formula, variables: Iterable[str] | None = None, eliminate: Iterable[str] = ()
) -> Circuit:
    """Compile to a smooth deterministic decomposable circuit.

    ``variables`` widens the declared variable set beyond vars(f); the root
    is padded with gap nodes for the extras, so model counts range over the
    full set. ``eliminate`` names variables to project away: the circuit's
    models are the assignments to the declared variables that extend to a
    model of ``f``. At most ``MAX_COMPILE_VARIABLES`` declared variables, and
    as many eliminated ones, are compiled. The search recurses at most two
    frames per variable it decides or assigns, one more at the bottom: a
    frame that splits a conjunction is followed by one that decides.
    """
    hidden = frozenset(eliminate)
    kept = f.vars - hidden
    declared = tuple(sorted(set(variables))) if variables is not None else tuple(sorted(kept))
    extra = kept - set(declared)
    if extra:
        raise InputError(f"formula mentions undeclared variables {sorted(extra)}")
    both = hidden.intersection(declared)
    if both:
        raise InputError(f"variables both kept and eliminated: {sorted(both)}")
    _require_width(len(declared), len(f.vars & hidden))

    builder = _Builder()
    seen: dict[Formula, int] = {}

    def scope(g: Formula) -> frozenset[str]:
        return g.vars - hidden if hidden else g.vars

    def padded(parts: list[int], covered: Iterable[str], span: frozenset[str]) -> int:
        # Conjoin a (v or not v) gap node for each variable of ``span`` that
        # simplification dropped, so the result mentions exactly ``span``.
        for v in sorted(span.difference(covered)):
            parts.append(
                builder.disj([builder.literal(v, True), builder.literal(v, False)], decision=v)
            )
        return builder.conj(parts)

    def build(g: Formula) -> int:
        # The node mentions exactly scope(g), or is the false node.
        if g is TRUE:
            return builder.true()
        if g is FALSE:
            return builder.false()
        cached = seen.get(g)
        if cached is not None:
            return cached
        span = scope(g)
        if isinstance(g, Lit):
            # An eliminated literal is satisfiable, so it projects to true.
            result = builder.literal(g.var, g.positive) if span else builder.true()
        else:
            units, rest = _peel_units(g)
            if units:
                # An eliminated literal is assigned but not emitted.
                shown = [u for u in units if u.var not in hidden]
                parts = [builder.literal(u.var, u.positive) for u in shown]
                parts.append(build(rest))
                result = padded(parts, scope(rest).union(u.var for u in shown), span)
            elif isinstance(g, And) and len(groups := _components(g.children)) > 1:
                # Conjuncts sharing no variable, eliminated ones included,
                # compile apart; the parts together mention exactly span.
                result = builder.conj([build(and_(group)) for group in groups])
            elif not span:
                # Projection: the most shared eliminated variable true, else false.
                v = _most_shared(g.children, g.vars)
                result = build(assign(g, v, True))
                if builder.nodes[result].kind == "false":
                    result = build(assign(g, v, False))
            else:
                v = _most_shared(g.children, span)
                branches = []
                for value in (True, False):
                    sub = assign(g, v, value)
                    parts = [builder.literal(v, value), build(sub)]
                    branches.append(padded(parts, scope(sub) | {v}, span))
                result = builder.disj(branches, decision=v)
        seen[g] = result
        return result

    nodes = _reachable(builder.nodes, padded([build(f)], kept, frozenset(declared)))
    return Circuit(nodes, len(nodes) - 1, declared)


def _peel_units(g: Formula) -> tuple[list[Lit], Formula]:
    """Unit propagation: a conjunction's literal children, and the rest of
    it conditioned on them."""
    if not isinstance(g, And):
        return [], g
    units = [c for c in g.children if isinstance(c, Lit)]
    if not units:
        return units, g
    rest = and_(c for c in g.children if not isinstance(c, Lit))
    for u in units:
        rest = assign(rest, u.var, u.positive)
    return units, rest


def _components(children: Sequence[Formula]) -> list[list[Formula]]:
    """``children`` grouped into the connected components of shared variables,
    each group and the groups in child order."""
    groups: list[tuple[set[str], list[int]]] = []
    for i, c in enumerate(children):
        joined, members, apart = set(c.vars), [i], []
        for group in groups:
            if joined.isdisjoint(group[0]):
                apart.append(group)
            else:
                joined |= group[0]
                members += group[1]
        apart.append((joined, members))
        groups = apart
    ordered = sorted(sorted(members) for _, members in groups)
    return [[children[i] for i in members] for members in ordered]


def _most_shared(children: Sequence[Formula], pool: frozenset[str]) -> str:
    """The variable of ``pool`` in the most ``children``, the least name on ties."""
    counts = dict.fromkeys(pool, 0)
    for c in children:
        for v in c.vars:
            if v in counts:
                counts[v] += 1
    return min(counts, key=lambda v: (-counts[v], v))


def _reachable(nodes: Sequence[Node], root: int) -> tuple[Node, ...]:
    """The nodes ``root`` reaches, renumbered in arena order.

    Simplification leaves nodes the root no longer reaches; arena order keeps
    children before parents and puts the root last.
    """
    keep = _closure(nodes, root)
    position = {old: new for new, old in enumerate(keep)}
    return tuple(
        Node(n.kind, n.var, n.positive, tuple(position[c] for c in n.children), n.decision)
        if n.children
        else n
        for n in (nodes[i] for i in keep)
    )


def _varsets(circuit: Circuit, ids: Iterable[int]) -> list[frozenset[str]]:
    """Variables each node of ``ids`` mentions, as one walk in a set-union semiring."""
    from .semiring import Semiring, _walk

    union = Semiring("variable sets", frozenset.union, frozenset.union, frozenset(), frozenset())
    table = {(n.var, n.positive): frozenset((n.var,)) for n in circuit.nodes if n.kind == "lit"}
    return _walk(circuit, union, table, ids)


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
    from .semiring import Semiring, _walk

    width = len(order)
    full = (1 << (1 << width)) - 1
    table: dict[tuple[str, bool], int] = {}
    for var, position in order.items():
        pattern = _variable_pattern(position, width)
        table[var, True] = pattern
        table[var, False] = full ^ pattern
    truth = Semiring("truth table", operator.or_, operator.and_, 0, full)
    return _walk(circuit, truth, table, ids)


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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the three structural checks, with first offending nodes."""

    decomposable: bool
    deterministic: bool
    smooth: bool
    first_nondecomposable: int | None = None
    first_nondeterministic: int | None = None
    first_unsmooth: int | None = None

    @property
    def all_passed(self) -> bool:
        return self.decomposable and self.deterministic and self.smooth


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
    """
    from .semiring import COUNTING, Labelling, evaluate

    return evaluate(circuit, COUNTING, Labelling.constant(circuit.variables, 1))


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
            raise InputError(f"literal must be a (variable, polarity) pair, got {entry!r}")
        if name not in known:
            raise InputError(f"unknown variable {name!r}")
        value = bool(value)
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
    nodes = _reachable(builder.nodes, mapped[circuit.root])
    return Circuit(nodes, len(nodes) - 1, circuit.variables)


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
