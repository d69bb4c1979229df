"""Clause sets whose models are exactly a framework's extensions.

Every theory is written straight into a ``ClauseSet`` of bit-mask clauses,
bit i for the framework's i-th argument id, which is what the compiler
searches. Conflict-free, admissible and stable semantics are clauses as
written. Complete semantics adds reinstatement: an argument attacked by b,
whose attackers C_b include no member, must be out, which takes one
eliminated auxiliary per distinct attacker set C_b wherever a clause needs
two or more of them. Grounded has one extension, found by its fixed point,
so its theory is one unit clause per argument. Preferred is not closed
under the model set of any such theory: PR's extensions are the
subset-maximal models of the compiled complete-semantics circuit, since the
preferred extensions are exactly the maximal complete ones (Dung 1995), and
the engine builds their listed set straight into a circuit with
``circuit.encode_enumerative``, so ``encode`` has no PR case.

The constellation encoding describes, for every argument of the framework
it is handed at once, the induced subgraphs in which that argument is
credulously accepted. Under CF, AD, CO, PR and ST the theory is
existential: beside the presence variables (the framework's ids, which are
declared) it has one membership variable per argument (``_member``), for an
extension of the present subgraph; one argument's constellation is the
theory with its membership variable set true, and compiling it projects
the membership variables away and leaves the accepting subgraphs. GR has
no such form: ``_grounded_table`` labels every subgraph at once on
bit-sliced ints, and each argument's int is the truth table of its
constellation, from which the engine builds the circuit. Which arguments
a constellation covers is the engine's choice (``engine._compiled`` scopes
the search, or the table, to the argument's relevance cone wherever
acceptance depends on nothing else), so every theory here covers the whole
framework it is given.

``pargue/__init__.py`` re-exports the function ``encode`` under this
module's name, so ``import pargue.encode as E`` binds the function, and an
attribute set on it patches nothing. Reach the module itself with
``importlib.import_module("pargue.encode")``.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .af import (
    ArgumentationFramework,
    Semantics,
    _bits,
    _extension_masks,  # noqa: F401  benchmark/spans.py wraps it in this module
    _semantics,
    extensions,
)
from .circuit import ClauseSet, _variable_pattern
from .errors import CapacityError, InputError

# GR's constellation on a cyclic cone of n arguments builds a 2^n-bit truth
# table per argument, 11.7 MB in all at n = 22: a query on the 22-cycle peaks
# at 68 MB RSS, and one on a 24-cycle would at 233 MB.
MAX_CONSTELLATION_ARGUMENTS = 22


def _conflict_free(af: ArgumentationFramework) -> list[tuple[int, int]]:
    """No attack between two members: not (s and t) per attack (s, t)."""
    return [
        (0, 1 << s | 1 << t) for t, sources in enumerate(af._attacker_masks) for s in _bits(sources)
    ]


def _reinstatement(af: ArgumentationFramework) -> tuple[list[tuple[int, int]], int]:
    """The clauses of x <-> (for every attacker b of x, some member attacks
    b), with their auxiliaries, and the number of auxiliaries. Auxiliary k,
    bit n + k, stands for "no member attacks b" for one distinct attacker
    set C_b; one is made only for a clause that needs two or more."""
    n = len(af.arguments)
    attackers = af._attacker_masks
    auxiliary: dict[int, int] = {}
    clauses = []
    for x, attacked_by in enumerate(attackers):
        p = 1 << x
        defence = {attackers[b] for b in _bits(attacked_by)}
        if 0 in defence:  # an unattacked attacker: x is out
            clauses.append((0, p))
            continue
        clauses += ((c, p) for c in defence)  # x -> some member attacks each b
        if p in defence:  # some b has x as its only attacker, so the clause holds
            continue
        # (every b is attacked by a member) -> x, one disjunct per C_b.
        single = [c for c in defence if not c & c - 1]
        multiple = [c for c in defence if c & c - 1]
        negative = reduce(int.__or__, single, 0)
        if len(multiple) == 1:
            clauses += ((p, negative | 1 << c) for c in _bits(multiple[0]))
            continue
        positive = p
        for c in multiple:
            t = auxiliary.get(c)
            if t is None:
                t = auxiliary[c] = 1 << n + len(auxiliary)
                clauses += ((0, t | 1 << a) for a in _bits(c))  # t -> no member in C_b
            positive |= t
        clauses.append((positive, negative))
    return clauses, len(auxiliary)


def encode(af: ArgumentationFramework, semantics: Semantics) -> ClauseSet:
    """Theory of CF, AD, CO or ST by structure, and of GR by its fixed point."""
    semantics = _semantics(semantics)
    n, attackers, auxiliaries = len(af.arguments), af._attacker_masks, 0
    if semantics is Semantics.CF:
        clauses = _conflict_free(af)
    elif semantics is Semantics.AD:
        clauses = _conflict_free(af)
        for x, attacked_by in enumerate(attackers):
            defence = [attackers[b] for b in _bits(attacked_by)]
            clauses += [(0, 1 << x)] if 0 in defence else ((c, 1 << x) for c in defence)
    elif semantics is Semantics.ST:
        clauses = _conflict_free(af)
        clauses += ((attacked_by | 1 << x, 0) for x, attacked_by in enumerate(attackers))
    elif semantics is Semantics.CO:
        reinstatement, auxiliaries = _reinstatement(af)
        clauses = _conflict_free(af) + reinstatement
    elif semantics is Semantics.GR:
        (grounded,) = extensions(af, semantics)
        clauses = [
            (1 << i, 0) if a in grounded else (0, 1 << i) for i, a in enumerate(af.arguments)
        ]
    else:
        raise InputError(
            f"no direct encoding for {semantics.value}; list its extensions with encode_enumerative"
        )
    names = (*af.arguments, *(f"t.{k}" for k in range(auxiliaries)))
    return ClauseSet(names, n, tuple(clauses))


# Keyed on the framework and the cyclic cone (a mask of its arguments) GR's
# constellation is built for. A 22-argument table holds 11.7 MB, so the 16
# kept hold at most 187 MB.
@lru_cache(maxsize=16)
def _grounded_table(af: ArgumentationFramework, scope: int) -> tuple[int, ...]:
    """Per argument x of ``scope``, in id order, the truth table of x's
    grounded acceptance among the scope's subgraphs: bit S is set iff x is
    in the grounded extension of the subgraph that holds the scope's k-th
    argument wherever bit n - 1 - k of S is set, n being the scope's size.
    The scope's first argument is the highest bit, so halving the table
    decides the arguments in order. Attacks from outside the scope are not
    read; a relevance cone has none.

    Every subgraph's grounded labelling is computed at once on bit-sliced
    ints, one bit per subgraph (Caminada, JELIA 2006). From all arguments
    undecided, x is labelled IN where it is present and every present
    attacker is OUT, and OUT where it is present and some present attacker
    is IN, until nothing changes: the least fixed point, which is the
    grounded labelling of each subgraph.
    """
    members = list(_bits(scope))
    n = len(members)
    if n > MAX_CONSTELLATION_ARGUMENTS:
        raise CapacityError(
            f"subgraph acceptance table supports at most {MAX_CONSTELLATION_ARGUMENTS} "
            f"arguments, got {n}"
        )
    place = {x: k for k, x in enumerate(members)}
    present = [_variable_pattern(n - 1 - k, n) for k in range(n)]
    full = (1 << (1 << n)) - 1
    absent = [full ^ p for p in present]
    attackers = [[place[b] for b in _bits(af._attacker_masks[x] & scope)] for x in members]
    labelled_in, labelled_out = [0] * n, [0] * n
    changed = True
    while changed:
        changed = False
        for x in range(n):
            inside, hit = present[x], 0
            for b in attackers[x]:
                inside &= absent[b] | labelled_out[b]
                hit |= labelled_in[b]
            outside = present[x] & hit
            if inside != labelled_in[x] or outside != labelled_out[x]:
                labelled_in[x], labelled_out[x] = inside, outside
                changed = True
    return tuple(labelled_in)


def _member(name: str) -> str:
    """Membership variable of an argument. The dot lies outside the
    argument-id alphabet, so it never names an argument."""
    return "m." + name


def encode_constellation(af: ArgumentationFramework, semantics: Semantics) -> ClauseSet:
    """Theory shared by every argument's constellation on the framework.

    The framework's ids are declared, then argument x's membership variable
    follows as bit n + x. Argument x's constellation, the induced subgraphs
    that credulously accept it, is this theory with bit n + x set true (the
    engine passes it to ``circuit.Compiler`` as an assumption). Its models,
    projected onto the argument ids, name the arguments present in one
    accepting subgraph: the membership variables describe an extension of
    that subgraph holding x, which is conflict-free and inside the subgraph;
    under AD (and CO and PR, whose credulous acceptance is the same, Dung
    1995) it attacks every present attacker of a member, and under ST every
    present non-member. GR has no theory: the engine builds its
    constellation from ``_grounded_table``.
    """
    semantics = _semantics(semantics)
    if semantics is Semantics.GR:
        raise InputError(
            "no constellation theory for GR; list its accepting subgraphs with encode_enumerative"
        )
    n, attackers = len(af.arguments), af._attacker_masks
    clauses = []
    for x, attacked_by in enumerate(attackers):
        m = 1 << n + x
        clauses.append((1 << x, m))  # a member is present
        clauses += ((0, m | 1 << n + s) for s in _bits(attacked_by))  # members conflict-free
        if semantics is Semantics.ST:
            # A present argument is a member or attacked by one.
            clauses.append((m | attacked_by << n, 1 << x))
        elif semantics is not Semantics.CF:
            # A present attacker b of a member is attacked by a member.
            clauses += ((attackers[b] << n, m | 1 << b) for b in _bits(attacked_by))
    names = (*af.arguments, *map(_member, af.arguments))
    return ClauseSet(names, n, tuple(clauses))
