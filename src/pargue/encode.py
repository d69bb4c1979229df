"""Propositional theories whose models are exactly a framework's extensions.

Conflict-free, admissible, complete and stable semantics have direct
structural encodings. Grounded has one extension, found by its fixed point,
so its theory is the conjunction of one literal per argument. Preferred is
not closed under the model set of any such formula shape: PR's extensions
are the subset-maximal models of the compiled complete-semantics circuit,
since the preferred extensions are exactly the maximal complete ones (Dung
1995), and the engine builds their listed set straight into a circuit with
``circuit.encode_enumerative``, so ``encode`` has no PR case.

The constellation encoding describes, for one query argument, every induced
subgraph in which that argument is credulously accepted. Under CF it is a
closed form. Under AD, CO, PR and GR, whether a subgraph accepts the
argument depends only on the part of it inside the argument's relevance
cone, the argument and every argument with an attack path to it: an
admissible set holding the argument stays admissible when cut down to the
cone, and for GR this is directionality (Baroni & Giacomin, AIJ 2007).
Those constellations are therefore encoded over the cone's subgraph alone,
and the arguments outside it stay free; the engine compiles them over all
of the framework's ids, so the free ones become gap nodes. ST keeps the
whole framework, since a stable extension must attack every present
argument outside it. Under AD, CO, PR and ST the theory is existential:
beside the presence variables (the argument ids) it has one membership
variable per argument (``_member``), for an extension of the present
subgraph that holds the query argument; compiling it with the membership
variables eliminated leaves the accepting subgraphs. GR has no such form:
``_grounded_constellation`` lists them from a scan of every cone subgraph's
fixed point (``_accepted``), a table that arguments with one cone share.

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
    _cone_mask,
    _extension_masks,
    _semantics,
    attackers,
    extensions,
    subgraph,
)
from .errors import CapacityError, InputError
from .formula import FALSE, Formula, and_, lit, not_, or_, var

# The acceptance table visits every subgraph of the framework it is built
# for: 2^n fixed points under GR, where GR's constellation builds it for the
# argument's cone, so n counts cone arguments; 3^n (subgraph, subset) pairs
# under the other semantics (the prob-c oracle, on the whole framework).
MAX_CONSTELLATION_ARGUMENTS = 20


def _implies(p: Formula, q: Formula) -> Formula:
    return or_((not_(p), q))


def _iff(p: Formula, q: Formula) -> Formula:
    return and_((_implies(p, q), _implies(q, p)))


def _no_attacker(af: ArgumentationFramework, name: str) -> Formula:
    return and_(lit(b, False) for b in sorted(attackers(af, name)))


def _some_defender(af: ArgumentationFramework, name: str) -> Formula:
    # One disjunct per attacker; an unattacked attacker contributes an empty
    # disjunction, i.e. false, which is what makes defence impossible.
    return and_(
        or_(var(c) for c in sorted(attackers(af, b)))
        for b in sorted(attackers(af, name))
    )


def encode(af: ArgumentationFramework, semantics: Semantics) -> Formula:
    """Theory of CF, AD, CO or ST by structure, and of GR by its fixed point."""
    semantics = _semantics(semantics)
    if semantics is Semantics.CF:
        return and_(
            or_((lit(source, False), lit(target, False)))
            for source, target in sorted(af.attacks)
        )
    if semantics is Semantics.AD:
        parts = []
        for name in af.arguments:
            parts.append(_implies(var(name), _no_attacker(af, name)))
            parts.append(_implies(var(name), _some_defender(af, name)))
        return and_(parts)
    if semantics is Semantics.ST:
        return and_(_iff(var(name), _no_attacker(af, name)) for name in af.arguments)
    if semantics is Semantics.CO:
        reinstatement = (
            _iff(var(name), _some_defender(af, name)) for name in af.arguments
        )
        return and_((encode(af, Semantics.CF), *reinstatement))
    if semantics is Semantics.GR:
        (grounded,) = extensions(af, semantics)
        return and_(lit(name, name in grounded) for name in af.arguments)
    raise InputError(
        f"no direct encoding for {semantics.value}; list its extensions with encode_enumerative"
    )


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


def _grounded_constellation(
    af: ArgumentationFramework, argument: str
) -> tuple[tuple[str, ...], list[int]]:
    """The ids of the argument's relevance cone, and the masks over them of
    the cone's subgraphs whose grounded extension holds the argument."""
    cone = subgraph(af, af._members(_cone_mask(af, argument)))
    bit = 1 << cone._index[argument]
    table = _accepted(cone, Semantics.GR)
    return cone.arguments, [sub for sub, union in enumerate(table) if union & bit]


def _member(name: str) -> str:
    """Membership variable of an argument. The dot lies outside the
    argument-id alphabet, so it never names an argument."""
    return "m." + name


def encode_constellation(
    af: ArgumentationFramework, semantics: Semantics, argument: str
) -> Formula:
    """Theory of the induced subgraphs that credulously accept the argument.

    Under CF the argument's singleton is conflict-free unless it attacks
    itself, so the theory is the argument itself, or FALSE. Every other
    semantics but ST is encoded on the subgraph of the argument's relevance
    cone, and its theory leaves the arguments outside the cone free. GR has
    no theory: its accepting subgraphs are listed by
    ``_grounded_constellation``. Under AD, CO, PR and ST the models,
    projected onto the argument ids, name the arguments present in one
    accepting subgraph: the membership variables describe an extension of
    that subgraph holding the argument, which is conflict-free and inside
    the subgraph; under AD (and CO and PR, whose credulous acceptance is the
    same, Dung 1995) it attacks every present attacker of a member, and
    under ST every present non-member.
    """
    semantics = _semantics(semantics)
    af._require(argument)
    if semantics is Semantics.CF:
        return FALSE if (argument, argument) in af.attacks else var(argument)
    if semantics is Semantics.GR:
        raise InputError(
            "no constellation theory for GR; list its accepting subgraphs with encode_enumerative"
        )
    if semantics is not Semantics.ST:
        af = subgraph(af, af._members(_cone_mask(af, argument)))
    member = {name: var(_member(name)) for name in af.arguments}
    parts = [member[argument]]
    parts += (_implies(member[x], var(x)) for x in af.arguments)
    parts += (
        or_((not_(member[s]), not_(member[t]))) for s, t in sorted(af.attacks)
    )
    if semantics is Semantics.ST:
        parts += (
            _implies(var(x), or_((member[x], *(member[b] for b in sorted(attackers(af, x))))))
            for x in af.arguments
        )
    else:
        parts += (
            _implies(
                and_((member[c], var(b))),
                or_(member[d] for d in sorted(attackers(af, b))),
            )
            for b, c in sorted(af.attacks)
        )
    return and_(parts)
