"""Propositional theories whose models are exactly a framework's extensions.

Conflict-free, admissible, complete and stable semantics have direct
structural encodings. Grounded and preferred are not closed under the model
set of any such formula shape, so they go through the enumerative encoding:
grounded lists its one extension, found by its fixed point; preferred lists
the subset-maximal models of the compiled complete-semantics circuit, since
the preferred extensions are exactly the maximal complete ones (Dung 1995).
The constellation encoding describes, for one query argument, every induced
subgraph in which that argument is credulously accepted: by a closed form
under CF, else by a scan of every subgraph's extensions (``_accepted``).
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .af import (
    ArgumentationFramework,
    Semantics,
    _extension_masks,
    attackers,
    extensions,
)
from .circuit import compile_formula
from .errors import CapacityError, InputError
from .formula import FALSE, Formula, and_, lit, not_, or_, var
from .semiring import MAXIMAL_MODELS, model_masks

# The constellation scan visits all 3^n (subgraph, subset) pairs.
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
    """Direct structural theory for CF, AD, CO or ST."""
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
    raise InputError(
        f"no direct encoding for {semantics.value}; use encode_enumerative"
    )


def _assignment_conjunction(af: ArgumentationFramework, mask: int) -> Formula:
    return and_(
        lit(name, bool(mask >> i & 1)) for i, name in enumerate(af.arguments)
    )


def encode_enumerative(af: ArgumentationFramework, semantics: Semantics) -> Formula:
    """Disjunction of complete assignment conjunctions, one per extension.

    Works for every semantics; it is the only route for GR and PR. PR takes
    the maximal models of the compiled CO theory, with no subset scan; the
    others list ``extensions``.
    """
    if semantics is Semantics.PR:
        circuit = compile_formula(encode(af, Semantics.CO), variables=af.arguments)
        inside = model_masks(circuit, MAXIMAL_MODELS)
    else:
        inside = {af._mask(e) for e in extensions(af, semantics)}
    return or_(_assignment_conjunction(af, m) for m in sorted(inside))


# One prob-c benchmark corpus touches 36 (framework, semantics) pairs, in the
# process that checks it against the oracles; this holds them with room.
@lru_cache(maxsize=64)
def _accepted(af: ArgumentationFramework, semantics: Semantics) -> tuple[int, ...]:
    """Per subgraph mask, the union of the induced subgraph's extensions:
    the arguments credulously accepted there."""
    if len(af.arguments) > MAX_CONSTELLATION_ARGUMENTS:
        raise CapacityError(
            f"constellation encoding supports at most {MAX_CONSTELLATION_ARGUMENTS} "
            f"arguments, got {len(af.arguments)}"
        )
    return tuple(
        reduce(int.__or__, _extension_masks(af, sub, semantics), 0)
        for sub in range(1 << len(af.arguments))
    )


def encode_constellation(
    af: ArgumentationFramework, semantics: Semantics, argument: str
) -> Formula:
    """Theory of the induced subgraphs that credulously accept the argument.

    Each model names the arguments present in one accepting subgraph. Under
    CF the argument's singleton is conflict-free unless it attacks itself,
    so the theory is the argument itself, or FALSE.
    """
    bit = 1 << af._require(argument)
    if semantics is Semantics.CF:
        return FALSE if (argument, argument) in af.attacks else var(argument)
    return or_(
        _assignment_conjunction(af, sub)
        for sub, union in enumerate(_accepted(af, semantics))
        if union & bit
    )
