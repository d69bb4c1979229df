"""Abstract argumentation frameworks and their extension-based semantics.

A framework is a finite directed attack graph over string-named arguments.
Extensions are computed by explicit enumeration over subsets (the grounded
extension by its fixed point, which has no size limit), which keeps this
module simple enough to act as the ground truth that every encoding and
circuit is validated against. Subsets are bit masks over the sorted ids.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from enum import Enum
from functools import cached_property

from .errors import CapacityError, InputError

# Enumeration over 2^n subsets (every semantics but GR); refuse anything past this.
MAX_ENUMERATION_ARGUMENTS = 25

_ID_PATTERN = re.compile(r"[A-Za-z0-9_]+\Z")


class Semantics(str, Enum):
    """Extension-based acceptance criteria."""

    CF = "CF"  # conflict-free
    AD = "AD"  # admissible
    CO = "CO"  # complete
    GR = "GR"  # grounded
    ST = "ST"  # stable
    PR = "PR"  # preferred


def _semantics(value: object) -> Semantics:
    """``value`` as a ``Semantics``, which also accepts its name as a string."""
    if isinstance(value, Semantics):  # every query passes here
        return value
    try:
        return Semantics(value)
    except ValueError:
        raise InputError(f"unknown semantics {value!r}") from None


class ArgumentationFramework:
    """Finite set of arguments together with a directed attack relation.

    ``arguments`` is a tuple of ids and ``attacks`` a frozenset of (source,
    target) pairs. Arguments are stored sorted, so equal frameworks compare
    and hash equal regardless of construction order. A framework is
    immutable, and its hash is computed once: every compiled-circuit cache
    lookup hashes it.
    """

    def __init__(self, arguments: Iterable[str], attacks: Iterable[tuple[str, str]] = ()):
        # key=str sorts strings as they are, and lets a non-string id reach the check.
        names = tuple(sorted(dict.fromkeys(arguments), key=str))
        for name in names:
            if not isinstance(name, str) or not _ID_PATTERN.match(name):
                raise InputError(f"invalid argument id {name!r}")
        known = set(names)
        pairs = set()
        for pair in attacks:
            try:
                source, target = pair
                declared = {source, target} <= known
            except (TypeError, ValueError):
                raise InputError(f"attack {pair!r} is not a (source, target) pair") from None
            if not declared:
                raise InputError(f"attack ({source},{target}) references an undeclared argument")
            pairs.add((source, target))
        attacks = frozenset(pairs)
        object.__setattr__(self, "arguments", names)
        object.__setattr__(self, "attacks", attacks)
        object.__setattr__(self, "_hash", hash((names, attacks)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an ArgumentationFramework")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an ArgumentationFramework")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArgumentationFramework):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.arguments == other.arguments
            and self.attacks == other.attacks
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ArgumentationFramework(arguments={self.arguments!r}, attacks={self.attacks!r})"

    def __contains__(self, name: object) -> bool:
        return name in self._index

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.arguments)}

    @cached_property
    def _attacker_masks(self) -> tuple[int, ...]:
        masks = [0] * len(self.arguments)
        for source, target in self.attacks:
            masks[self._index[target]] |= 1 << self._index[source]
        return tuple(masks)

    @cached_property
    def _attacked_masks(self) -> tuple[int, ...]:
        masks = [0] * len(self.arguments)
        for source, target in self.attacks:
            masks[self._index[source]] |= 1 << self._index[target]
        return tuple(masks)

    @cached_property
    def _is_acyclic(self) -> bool:
        """``_acyclic`` of the whole framework, computed once."""
        return _acyclic(self, self._full_mask)

    @property
    def _full_mask(self) -> int:
        return (1 << len(self.arguments)) - 1

    def _mask(self, group: Iterable[str]) -> int:
        mask = 0
        for name in group:
            index = self._index.get(name)
            if index is None:
                raise InputError(f"unknown argument {name!r}")
            mask |= 1 << index
        return mask

    def _members(self, mask: int) -> frozenset[str]:
        return frozenset(self.arguments[i] for i in _bits(mask))

    def _require(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            raise InputError(f"unknown argument {name!r}")
        return index


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, least first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def attackers(af: ArgumentationFramework, argument: str) -> frozenset[str]:
    """Arguments attacking the given one."""
    return af._members(af._attacker_masks[af._require(argument)])


def _attacked_by(af: ArgumentationFramework, universe: int, mask: int) -> int:
    hit = 0
    for i in _bits(mask):
        hit |= af._attacked_masks[i]
    return hit & universe


def _characteristic_mask(af: ArgumentationFramework, universe: int, mask: int) -> int:
    hit = _attacked_by(af, universe, mask)
    out = 0
    for i in _bits(universe):
        if af._attacker_masks[i] & universe & ~hit == 0:
            out |= 1 << i
    return out


def _extension_masks(af: ArgumentationFramework, universe: int, semantics: Semantics) -> tuple[int, ...]:
    """Extensions of the subgraph induced by ``universe``, as sorted bit masks."""
    if semantics is Semantics.GR:
        current = 0
        while True:
            after = _characteristic_mask(af, universe, current)
            if after == current:
                return (current,)
            current = after

    found = []
    subset = universe
    while True:
        hit = _attacked_by(af, universe, subset)
        if hit & subset == 0:  # conflict-free
            if semantics is Semantics.CF:
                found.append(subset)
            elif semantics is Semantics.ST:
                if subset | hit == universe:
                    found.append(subset)
            elif semantics is Semantics.CO:
                if _characteristic_mask(af, universe, subset) == subset:
                    found.append(subset)
            else:  # AD or PR: admissibility first
                defended = True
                for i in _bits(subset):
                    if af._attacker_masks[i] & universe & ~hit:
                        defended = False
                        break
                if defended:
                    found.append(subset)
        if subset == 0:
            break
        subset = (subset - 1) & universe

    if semantics is Semantics.PR:
        found = [m for m in found if not any(m != o and m & o == m for o in found)]
    return tuple(sorted(found))


def _sorted_sets(af: ArgumentationFramework, masks: Iterable[int]) -> tuple[frozenset[str], ...]:
    groups = [af._members(m) for m in masks]
    return tuple(sorted(groups, key=lambda g: tuple(sorted(g))))


def _all_extension_masks(af: ArgumentationFramework, semantics: Semantics) -> tuple[int, ...]:
    if semantics is not Semantics.GR and len(af.arguments) > MAX_ENUMERATION_ARGUMENTS:
        raise CapacityError(
            f"extension enumeration supports at most {MAX_ENUMERATION_ARGUMENTS} arguments, "
            f"got {len(af.arguments)}"
        )
    return _extension_masks(af, af._full_mask, semantics)


def extensions(af: ArgumentationFramework, semantics: Semantics) -> tuple[frozenset[str], ...]:
    """All extensions under the given semantics, sorted for determinism."""
    return _sorted_sets(af, _all_extension_masks(af, _semantics(semantics)))


def _cone_mask(af: ArgumentationFramework, argument: str) -> int:
    """The argument's relevance cone as a mask: the argument and every
    argument with an attack path to it, found by a reverse search."""
    cone = frontier = 1 << af._require(argument)
    while frontier:
        reached = 0
        for i in _bits(frontier):
            reached |= af._attacker_masks[i]
        frontier = reached & ~cone
        cone |= frontier
    return cone


def _acyclic(af: ArgumentationFramework, universe: int) -> bool:
    """Whether the subgraph induced by ``universe`` has no attack cycle, a
    self-attack included: removing unattacked arguments one at a time, each
    lowering its targets' counts of remaining attackers (Kahn's algorithm),
    empties it. Linear in the subgraph's attacks."""
    left = {i: (af._attacker_masks[i] & universe).bit_count() for i in _bits(universe)}
    ready = [i for i, count in left.items() if not count]
    for i in ready:
        for t in _bits(af._attacked_masks[i] & universe):
            left[t] -= 1
            if not left[t]:
                ready.append(t)
    return len(ready) == len(left)


def subgraph(af: ArgumentationFramework, members: Iterable[str]) -> ArgumentationFramework:
    """Framework induced by a subset of the arguments."""
    mask = af._mask(members)
    kept = [af.arguments[i] for i in _bits(mask)]
    inside = set(kept)
    return ArgumentationFramework(
        kept, [(s, t) for s, t in af.attacks if s in inside and t in inside]
    )
