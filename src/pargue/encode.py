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

The constellation encoding describes, for one query argument, every induced
subgraph of the framework it is handed in which that argument is
credulously accepted. Under CF it is a closed form. Under AD, CO, PR and
ST the theory is existential: beside the presence variables (the
framework's ids, which are declared) it has one membership variable per
argument (``_member``), for an extension of the present subgraph that
holds the query argument; compiling it projects the membership variables
away and leaves the accepting subgraphs. GR has no such form: the engine
lists its accepting subgraphs from a scan of every subgraph's fixed point
(``_accepted``). Which arguments a constellation covers is the engine's
choice (``engine._compiled`` hands over the argument's relevance cone
wherever acceptance depends on nothing else), so every encoding here
covers the whole framework it is given.

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
    _extension_masks,
    _semantics,
    extensions,
)
from .circuit import ClauseSet
from .errors import CapacityError, InputError

# The acceptance table visits every subgraph of the framework it is built
# for: 2^n fixed points under GR, where GR's constellation builds it for the
# argument's cone, so n counts cone arguments; 3^n (subgraph, subset) pairs
# under the other semantics (the prob-c oracle, on the whole framework).
MAX_CONSTELLATION_ARGUMENTS = 20


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


# Keyed on the framework the table is built for: an argument's cone subgraph
# for GR's constellation, the whole framework for the prob-c oracle. One
# prob-c benchmark pass builds at most one GR table per argument (57), and
# the process that checks it against the oracles 36 (framework, semantics)
# tables; each fits.
@lru_cache(maxsize=64)
def _accepted(af: ArgumentationFramework, semantics: Semantics) -> tuple[int, ...]:
    """Per subgraph mask, the union of the induced subgraph's extensions:
    the arguments credulously accepted there."""
    if len(af.arguments) > MAX_CONSTELLATION_ARGUMENTS:
        raise CapacityError(
            f"subgraph acceptance table supports at most {MAX_CONSTELLATION_ARGUMENTS} "
            f"arguments, got {len(af.arguments)}"
        )
    return tuple(
        reduce(int.__or__, _extension_masks(af, sub, semantics), 0)
        for sub in range(1 << len(af.arguments))
    )


def _member(name: str) -> str:
    """Membership variable of an argument. The dot lies outside the
    argument-id alphabet, so it never names an argument."""
    return "m." + name


def encode_constellation(
    af: ArgumentationFramework, semantics: Semantics, argument: str
) -> ClauseSet:
    """Theory of the induced subgraphs that credulously accept the argument.

    The framework's ids are declared, then argument x's membership variable
    follows as bit n + x. Under CF the argument's singleton is conflict-free
    unless it attacks itself, so the theory is the argument itself, or
    false. GR has no theory: the engine lists its accepting subgraphs. Under
    AD, CO, PR and ST the models, projected onto the argument ids, name the
    arguments present in one accepting subgraph: the membership variables
    describe an extension of that subgraph holding the argument, which is
    conflict-free and inside the subgraph; under AD (and CO and PR, whose
    credulous acceptance is the same, Dung 1995) it attacks every present
    attacker of a member, and under ST every present non-member.
    """
    semantics = _semantics(semantics)
    index = af._require(argument)
    n, attackers = len(af.arguments), af._attacker_masks
    if semantics is Semantics.CF:
        clause = (0, 0) if attackers[index] >> index & 1 else (1 << index, 0)
        return ClauseSet(af.arguments, n, (clause,))
    if semantics is Semantics.GR:
        raise InputError(
            "no constellation theory for GR; list its accepting subgraphs with encode_enumerative"
        )
    clauses = [(1 << n + index, 0)]
    for x, attacked_by in enumerate(attackers):
        m = 1 << n + x
        clauses.append((1 << x, m))  # a member is present
        clauses += ((0, m | 1 << n + s) for s in _bits(attacked_by))  # members conflict-free
        if semantics is Semantics.ST:
            # A present argument is a member or attacked by one.
            clauses.append((m | attacked_by << n, 1 << x))
        else:
            # A present attacker b of a member is attacked by a member.
            clauses += ((attackers[b] << n, m | 1 << b) for b in _bits(attacked_by))
    names = (*af.arguments, *map(_member, af.arguments))
    return ClauseSet(names, n, tuple(clauses))
