"""Triplet symmetry groups and their orbit schemes, as one table per group.

Supported groups are a closed enumeration: the trivial group, <cyc>,
<cyc, transpose>, and <cyc, conjugation by F> with F fixed to the
involutive matrix 110;010;001.  Each group has a single image op
(transposition for cyc-t, conjugation by F for cyc-sw) and a table of
orbit kinds.  A kind lists its roles with their side conditions, its
expansion as data over role indices and the image op, and the two
lex-ordering fields of the canonical form.

Concrete orbit expansion, side-condition checks, the encoder's symbolic
expansion and symmetry breaking, check_canonical and canonicalize all
read the same table: expansion and the ordering constraints are written
once over an arbitrary image op, so concrete matrices and the encoder's
symbolic ones flow through the same code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

from .gf2 import Gf2Matrix, conjugate
from .tensor import Decomposition, Triplet


class GroupId(Enum):
    TRIVIAL = "none"
    CYCLIC = "cyc"
    CYCLIC_TRANSPOSE = "cyc-t"
    CYCLIC_SANDWICH = "cyc-sw"

    @classmethod
    def from_name(cls, name: str) -> "GroupId":
        for g in cls:
            if g.value == name:
                return g
        raise ValueError(f"unknown group {name!r}; expected one of "
                         f"{[g.value for g in cls]}")


# The fixed sandwich matrix for CYCLIC_SANDWICH; F * F = I over GF(2).
F_SANDWICH = Gf2Matrix.parse("110;010;001")


class ConstraintError(ValueError):
    """An orbit representative violates its side condition."""


def f_conjugate(m: Gf2Matrix) -> Gf2Matrix:
    """F * m * F^{-1}, the image op of CYCLIC_SANDWICH."""
    return conjugate(m, F_SANDWICH)


# Side conditions on a role's matrix.  Each non-free condition asks the
# matrix to be fixed by a GF(2)-linear map; the encoder inlines SYMMETRIC
# as shared upper-triangle variables and emits the others as equations.
FREE = "free"
SYMMETRIC = "symmetric"
F_COMMUTING = "F-commuting"

CONDITION_OPS: dict[str, Callable[[Gf2Matrix], Gf2Matrix] | None] = {
    FREE: None,
    SYMMETRIC: Gf2Matrix.transpose,
    F_COMMUTING: f_conjugate,
}

# One matrix of a triplet: (role index, whether the image op is applied).
Slot = tuple[int, bool]
Row = tuple[Slot, Slot, Slot]


def _row(word: str, roles: str) -> Row:
    """Parse a triplet word such as "C'B'A'" over single-letter roles;
    a prime applies the group's image op to the preceding role."""
    slots: list[Slot] = []
    for ch in word:
        if ch == "'":
            slots[-1] = (slots[-1][0], True)
        else:
            slots.append((roles.index(ch), False))
    if len(slots) != 3:
        raise ValueError(f"triplet word {word!r} does not have three matrices")
    return tuple(slots)


@dataclass(frozen=True)
class OrbitKind:
    """One orbit shape of a group.

    `expansion` lists the orbit's triplets over the representative's
    roles.  The canonical form orders representatives by two fields:
    the first `min_width` matrices of expansion[0] must be strictly
    lex-below those of every other triplet in the expansion (0 = no
    constraint), and the concatenated `chain` roles must strictly
    increase across adjacent representatives.  At most one role lies
    outside the chain; every triplet is linear in it, so representatives
    sharing a chain key merge by adding that role.
    """
    tag: str
    weight: int
    roles: tuple[str, ...]
    conditions: tuple[str, ...]
    expansion: tuple[Row, ...]
    min_width: int
    chain: tuple[int, ...]

    def __post_init__(self):
        if self.arity - len(self.chain) > 1:
            raise ValueError(f"kind {self.tag!r}: more than one role outside the chain")

    @property
    def arity(self) -> int:
        return len(self.roles)


def _kind(tag: str, weight: int, roles: str, expansion: str, min_width: int,
          chain: str, **conditions: str) -> OrbitKind:
    return OrbitKind(tag, weight, tuple(roles),
                     tuple(conditions.get(r, FREE) for r in roles),
                     tuple(_row(w, roles) for w in expansion.split()),
                     min_width, tuple(roles.index(r) for r in chain))


@dataclass(frozen=True)
class GroupScheme:
    image: Callable[[Gf2Matrix], Gf2Matrix] | None
    generators: tuple[Row, ...]  # over a triplet's matrices A, B, C
    kinds: tuple[OrbitKind, ...]


_ROTATE = _row("BCA", "ABC")

_SCHEMES: dict[GroupId, GroupScheme] = {
    GroupId.TRIVIAL: GroupScheme(None, (), (
        _kind("id", 1, "ABC", "ABC", 0, "ABC"),
    )),
    GroupId.CYCLIC: GroupScheme(None, (_ROTATE,), (
        _kind("id", 3, "ABC", "ABC BCA CAB", 3, "AB"),
        _kind("delta", 1, "D", "DDD", 0, "D"),
    )),
    GroupId.CYCLIC_TRANSPOSE: GroupScheme(
        Gf2Matrix.transpose, (_ROTATE, _row("C'B'A'", "ABC")), (
            _kind("id", 6, "ABC", "ABC BCA CAB C'B'A' B'A'C' A'C'B'", 3, "AB"),
            _kind("t", 3, "SH", "SHH' HH'S H'SH", 0, "H", S=SYMMETRIC),
            _kind("delta", 2, "D", "DDD D'D'D'", 1, "D"),
            _kind("full", 1, "Z", "ZZZ", 0, "Z", Z=SYMMETRIC),
        )),
    GroupId.CYCLIC_SANDWICH: GroupScheme(
        f_conjugate, (_ROTATE, _row("A'B'C'", "ABC")), (
            _kind("id", 6, "ABC", "ABC BCA CAB A'B'C' B'C'A' C'A'B'", 3, "AB"),
            _kind("sw", 3, "XYZ", "XYZ YZX ZXY", 3, "XY",
                  X=F_COMMUTING, Y=F_COMMUTING, Z=F_COMMUTING),
            _kind("delta", 2, "D", "DDD D'D'D'", 1, "D"),
            _kind("full", 1, "U", "UUU", 0, "U", U=F_COMMUTING),
        )),
}


def scheme(group: GroupId) -> GroupScheme:
    return _SCHEMES[group]


def orbit_kinds(group: GroupId) -> tuple[OrbitKind, ...]:
    return _SCHEMES[group].kinds


def kind_by_tag(group: GroupId, tag: str) -> OrbitKind:
    for k in _SCHEMES[group].kinds:
        if k.tag == tag:
            return k
    raise ValueError(f"group {group.value} has no orbit kind {tag!r}")


def total_rank(group: GroupId, combo: dict[str, int]) -> int:
    """Rank of the expanded decomposition as a linear form in orbit counts."""
    kinds = {k.tag: k for k in _SCHEMES[group].kinds}
    for tag in combo:
        if tag not in kinds:
            raise ValueError(f"group {group.value} has no orbit kind {tag!r}")
    return sum(kinds[tag].weight * c for tag, c in combo.items())


# -- expansion ----------------------------------------------------------------


def _substitute(rows: Sequence[Row], mats: Sequence, image) -> list[tuple]:
    images = {r: image(mats[r]) for r in {r for row in rows for r, im in row if im}}
    return [tuple(images[r] if im else mats[r] for r, im in row) for row in rows]


def expand(kind: OrbitKind, rep: Sequence, image) -> list[tuple]:
    """The orbit's triplets as tuples of rep's matrices and their images.

    `image` is the group's image op on whatever values rep holds: concrete
    Gf2Matrix values, or the encoder's symbolic matrices.
    """
    return _substitute(kind.expansion, rep, image)


def lex_constraints(kind: OrbitKind, reps: Sequence, image
                    ) -> Iterator[tuple[int, str, tuple, tuple]]:
    """Every lex-order constraint of the canonical form on one kind's
    representatives, as (index, description, lhs, rhs): the matrices of
    lhs, flattened row-major and concatenated, must be strictly lex-below
    those of rhs."""
    w = kind.min_width
    if w:
        for i, rep in enumerate(reps):
            first, *others = expand(kind, rep, image)
            for other in others:
                yield (i, "representative not the strict lex minimum of its orbit",
                       first[:w], other[:w])
    what = "".join(kind.roles[r] for r in kind.chain) + " key not strictly lex increasing"
    for i in range(len(reps) - 1):
        yield (i, what, tuple(reps[i][r] for r in kind.chain),
               tuple(reps[i + 1][r] for r in kind.chain))


def validate_reps(group: GroupId, tag: str, reps: tuple[Gf2Matrix, ...]) -> None:
    """Raise ConstraintError when a representative breaks its side condition."""
    kind = kind_by_tag(group, tag)
    if len(reps) != kind.arity:
        raise ConstraintError(f"{group.value}/{tag} expects {kind.arity} matrices, "
                              f"got {len(reps)}")
    for role, condition, mat in zip(kind.roles, kind.conditions, reps):
        op = CONDITION_OPS[condition]
        if op is not None and op(mat) != mat:
            raise ConstraintError(f"{role} must be {condition}")


def expand_orbit(group: GroupId, tag: str, reps: tuple[Gf2Matrix, ...]) -> list[Triplet]:
    """Expand an orbit representative to its full triplet list."""
    validate_reps(group, tag, reps)
    return [Triplet(*t) for t in
            expand(kind_by_tag(group, tag), reps, _SCHEMES[group].image)]


# -- generators ---------------------------------------------------------------


@dataclass(frozen=True)
class Transform:
    """A group generator: one triplet word over (A, B, C) and the image op."""
    row: Row
    image: Callable[[Gf2Matrix], Gf2Matrix] | None

    def apply(self, trip: Triplet) -> Triplet:
        return Triplet(*_substitute((self.row,), (trip.a, trip.b, trip.c),
                                    self.image)[0])


def generators(group: GroupId, n: int) -> list[Transform]:
    s = _SCHEMES[group]
    if s.image is f_conjugate and n != F_SANDWICH.rows:
        raise ValueError(f"group {group.value} is only defined for n = {F_SANDWICH.rows}")
    return [Transform(row, s.image) for row in s.generators]


def is_group_symmetric(d: Decomposition, group: GroupId) -> bool:
    """True iff every group generator permutes the triplet multiset."""
    if d.n != d.k or d.k != d.m:
        raise ValueError("symmetry groups apply to square <n,n,n> tensors only")
    base = Counter(t.flat_bits() for t in d.triplets)
    for g in generators(group, d.n):
        mapped = Counter(g.apply(t).flat_bits() for t in d.triplets)
        if mapped != base:
            return False
    return True
