"""Triplet symmetry groups and their orbit schemes, as one table per group.

Supported groups are a closed enumeration: the trivial group, <cyc>,
<cyc, transpose>, and <cyc, conjugation by F> with F fixed to the
involutive matrix 110;010;001.  Each group has a single image op
(transposition for cyc-t, conjugation by F for cyc-sw, both
involutions), its generators as triplet words over A, B, C, and its
orbit kinds.  A kind is given by its first triplet word, the roles the
image op fixes (its side conditions), the two lex-ordering fields of
the canonical form and the roles that must differ (its degenerate
case); its expansion, the generators' orbit of the first triplet, and
its weight are derived.

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
from .tensor import MAX_TENSOR_DIM, Decomposition, Triplet


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
    return tuple(slots)


def _substitute(rows: Sequence[Row], mats: Sequence, image) -> list[tuple]:
    images = {r: image(mats[r]) for r in {r for row in rows for r, im in row if im}}
    return [tuple(images[r] if im else mats[r] for r, im in row) for row in rows]


@dataclass(frozen=True)
class OrbitKind:
    """One orbit shape of a group.

    `expansion` lists the orbit's triplets over the representative's
    roles, derived by _kind.  A role flagged in `fixed` holds a matrix
    that the group's image op fixes; the other roles are free.  The
    canonical form orders representatives by two fields: the first
    `min_width` matrices of expansion[0] must be strictly lex-below
    those of every other triplet in the expansion (0 = no constraint),
    and the concatenated `chain` roles must strictly increase across
    adjacent representatives.  At most one role lies outside the chain;
    every triplet is linear in it, so representatives sharing a chain
    key merge by adding that role.  The roles in `distinct` (none, or
    two) must hold different matrices: where they are equal the orbit
    is degenerate, a smaller orbit of another kind listed more than once.
    """
    tag: str
    roles: tuple[str, ...]
    fixed: tuple[bool, ...]
    expansion: tuple[Row, ...]
    min_width: int
    chain: tuple[int, ...]
    distinct: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.roles)

    @property
    def weight(self) -> int:
        return len(self.expansion)


def _kind(generators: tuple[Row, ...], tag: str, first: str, min_width: int,
          chain: str, fixed: str = "", distinct: str = "") -> OrbitKind:
    """A kind from its first triplet word, the roles the image op fixes
    and the roles that must differ.

    The expansion is the closure of the first triplet under the generator
    rows.  A generator slot (r, primed) takes matrix r of the triplet and
    toggles its prime, which is right only because both image ops are
    involutions (transposition, and conjugation by F with F * F = I); a
    prime on a fixed role is dropped.  Each new triplet is followed by
    its cycle under the first generator, the rotation.
    """
    roles = "".join(dict.fromkeys(first.replace("'", "")))
    flags = tuple(r in fixed for r in roles)

    def toggle(slot: Slot) -> Slot:
        return slot[0], not slot[1] and not flags[slot[0]]

    out = [_row(first, roles)]
    for row in out:
        for new in _substitute(generators, row, toggle):
            while new not in out:
                out.append(new)
                (new,) = _substitute(generators[:1], new, toggle)
    return OrbitKind(tag, tuple(roles), flags, tuple(out), min_width,
                     tuple(roles.index(r) for r in chain),
                     tuple(roles.index(r) for r in distinct))


@dataclass(frozen=True)
class GroupScheme:
    image: Callable[[Gf2Matrix], Gf2Matrix] | None
    generators: tuple[Row, ...]  # over a triplet's matrices A, B, C
    kinds: tuple[OrbitKind, ...]


def _scheme(image, generators: str, *kinds: tuple) -> GroupScheme:
    """A group from its image op, its generator words over ABC (the
    rotation first) and, per orbit kind, (tag, first triplet word,
    min_width, chain roles, roles the image op fixes, roles that must
    differ)."""
    rows = tuple(_row(w, "ABC") for w in generators.split())
    return GroupScheme(image, rows, tuple(_kind(rows, *k) for k in kinds))


_SCHEMES: dict[GroupId, GroupScheme] = {
    GroupId.TRIVIAL: _scheme(None, "", ("id", "ABC", 0, "ABC")),
    GroupId.CYCLIC: _scheme(None, "BCA",
                            ("id", "ABC", 3, "AB"), ("delta", "DDD", 0, "D")),
    GroupId.CYCLIC_TRANSPOSE: _scheme(
        Gf2Matrix.transpose, "BCA C'B'A'",
        # A t orbit with H = S lists (S, S, S) three times: one full orbit.
        ("id", "ABC", 3, "AB"), ("t", "SHH'", 0, "H", "S", "SH"),
        ("delta", "DDD", 1, "D"), ("full", "ZZZ", 0, "Z", "Z")),
    GroupId.CYCLIC_SANDWICH: _scheme(
        f_conjugate, "BCA A'B'C'",
        ("id", "ABC", 3, "AB"), ("sw", "XYZ", 3, "XY", "XYZ"),
        ("delta", "DDD", 1, "D"), ("full", "UUU", 0, "U", "U")),
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
    """Rank of the expanded decomposition as a linear form in orbit counts;
    ValueError for a negative count."""
    if any(c < 0 for c in combo.values()):
        raise ValueError("orbit counts must be nonnegative")
    return sum(kind_by_tag(group, tag).weight * c for tag, c in combo.items())


# -- expansion ----------------------------------------------------------------


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
    """Raise ConstraintError when the image op moves a fixed role's matrix."""
    kind = kind_by_tag(group, tag)
    if len(reps) != kind.arity:
        raise ConstraintError(f"{group.value}/{tag} expects {kind.arity} matrices, "
                              f"got {len(reps)}")
    image = _SCHEMES[group].image
    for role, fixed, mat in zip(kind.roles, kind.fixed, reps):
        if fixed and image(mat) != mat:
            raise ConstraintError(f"{role} must be fixed by {image.__name__}")


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


def check_n(group: GroupId, n: int) -> None:
    """ValueError unless <n,n,n> is in range and the group is defined at n."""
    if not 1 <= n <= MAX_TENSOR_DIM:
        raise ValueError(f"n = {n} out of range 1..{MAX_TENSOR_DIM}")
    if _SCHEMES[group].image is f_conjugate and n != F_SANDWICH.rows:
        raise ValueError(f"group {group.value} is only defined for n = {F_SANDWICH.rows}")


def generators(group: GroupId, n: int) -> list[Transform]:
    check_n(group, n)
    s = _SCHEMES[group]
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
