"""Span and count certificates: combos that their orbit kinds or counts
alone rule out.

A decomposition with given orbit counts is the XOR of one orbit tensor
per representative, so its tensor lies in the sum of the spans S_k of
the orbit tensors of its present kinds.  When the target <n,n,n> lies
outside that sum, some set φ of tensor entries has odd parity on the
target and even parity on every orbit tensor of every present kind.
The XOR of the tensor equations at φ's entries then reads 0 = 1 for any
counts and any representatives, so the combo has no model.  `certificate`
gives φ for a set of present kinds, or None when the target lies in the
sum.

Over a basis of a kind's representative space (each fixed role a basis
of its fixed space, each free role the unit matrices), every matrix of
every triplet of the orbit is linear in the coordinates, so each entry
of the orbit tensor is a polynomial of degree at most 3 in them.  The
coefficients of such a polynomial are XORs of its values at the points
of Hamming weight at most 3, so the orbit tensors at those points span
S_k.  `kind_span` builds that basis once per (group, n, kind), on first
use.

Counts refine this.  Modulo the sum M of the spans of the other present
kinds, the c orbit tensors of a present kind k must sum to the target.
`count_refutes` enumerates every representative of k that the encoder
allows, keeps the set of their orbit tensors' images modulo M, once per
(group, n, present kinds, k) and on first use, until the set holds
every value of the quotient, and rules a count of 1 or 2 out when no 1
or 2 images sum to the target's image.  The canonical form's ordering
constraints are dropped, so this is a relaxation and sound.

`refute` alone decides that a combo is ruled out without a solver:
by `certificate`, else by `count_refutes` on each present kind of at
most MAX_REP_SPACE representatives.  The encoder, the driver and
tools/cnf_sizes.py all read its record.

Tensors are ints in Tensor6's flat row-major entry order, and every
basis is `gf2.echelon`'s fully reduced form, each row keyed by its
lowest bit, the only pivot it has a 1 at.  Every orbit tensor and the
target are invariant under the group, and the lowest bit of a nonzero
invariant tensor is an entry whose value on invariant tensors does not
follow from the entries before it, which is an entry the encoder keeps
an equation for.  So φ, made of pivots and the lowest bit of the
target's residue, names kept entries only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product
from operator import xor

from .gf2 import echelon, entry_terms, fixed_space, residue
from .symmetry import GroupId, expand, kind_by_tag, orbit_kinds, scheme
from .tensor import mm_tensor, outer_bits

Entry = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

# The most representatives a count check enumerates for one kind.  At
# n=3 this takes in every kind but id, whose 2^27 representatives are far
# too many to enumerate in Python; at n=2 every kind (id has 2^12).
MAX_REP_SPACE = 1 << 15


@lru_cache
def _role_bases(group: GroupId, n: int, tag: str) -> tuple[tuple[int, ...], ...]:
    """Per role of kind tag, a basis of its matrices as bit fields: the
    unit matrices for a free role, a basis of its fixed space for a
    fixed one."""
    cells = tuple(product(range(n), repeat=2))
    bases = []
    for fixed in kind_by_tag(group, tag).fixed:
        free, basis = fixed_space(cells, (entry_terms(scheme(group).image, n),) if fixed else ())
        bases.append(tuple(sum(1 << k for k, terms in enumerate(basis) if f in terms)
                           for f in free))
    return tuple(bases)


def _rep_space_bits(group: GroupId, n: int, tag: str) -> int:
    """log2 of the number of points of kind tag's representative space."""
    return sum(map(len, _role_bases(group, n, tag)))


@lru_cache
def _image_op(group: GroupId, n: int):
    """The group's image op on matrix bit fields."""
    op = scheme(group).image
    if op is None:
        return None
    masks = [sum(1 << k * n + l for k, l in terms) for terms in entry_terms(op, n)]
    return lambda bits: sum(((bits & m).bit_count() & 1) << c for c, m in enumerate(masks))


def _orbit_tensor(group: GroupId, n: int, tag: str, rep) -> int:
    """The orbit tensor of a representative given as matrix bit fields."""
    return reduce(xor, (outer_bits(a, b, c, n, n, n) for a, b, c in
                        expand(kind_by_tag(group, tag), rep, _image_op(group, n))), 0)


def _points(basis) -> list[int]:
    """Every XOR of a subset of basis, the subsets in binary order."""
    points = [0]
    for b in basis:
        points += [p ^ b for p in points]
    return points


@lru_cache
def kind_span(group: GroupId, n: int, tag: str) -> tuple[int, ...]:
    """The fully reduced echelon basis of the span of the orbit tensors of
    kind tag."""
    bases = _role_bases(group, n, tag)
    coords = [(role, bits) for role, basis in enumerate(bases) for bits in basis]

    def tensors():
        for weight in (1, 2, 3):
            for point in combinations(coords, weight):
                rep = [0] * len(bases)
                for role, bits in point:
                    rep[role] ^= bits
                yield _orbit_tensor(group, n, tag, rep)
    return tuple(echelon(tensors()).values())


@lru_cache
def certificate(group: GroupId, n: int, tags: tuple[str, ...]) -> tuple[Entry, ...] | None:
    """For a combo whose present kinds are tags: the entries, in
    row-major order, on which the target has odd parity and every orbit
    tensor of those kinds even parity; None when there are none.

    The target is reduced against the fully reduced basis of the sum of
    the kinds' spans.  A nonzero residue has a 1 at an entry j that is
    no pivot, and φ is j with the pivots of the rows that have a 1 at j:
    each row then has even parity on φ, and the target that of the
    residue, which is 0 at every pivot.
    """
    rows = echelon(row for tag in tags for row in kind_span(group, n, tag))
    rest = residue(rows, mm_tensor(n, n, n).bits)
    if not rest:
        return None
    j = rest & -rest
    phi = j | sum(p for p, row in rows.items() if row & j)
    entries = tuple(product(product(range(n), repeat=2), repeat=3))  # flat order
    return tuple(entries[x] for x in range(phi.bit_length()) if phi >> x & 1)


@lru_cache
def _quotient_images(group: GroupId, n: int, tags: tuple[str, ...],
                     tag: str) -> tuple[int, frozenset[int]]:
    """The target's image, and the set of images of the orbit tensors of
    every representative of kind tag that the encoder allows (nonzero,
    its distinct roles different), modulo the sum M of the spans of the
    other kinds in tags.

    The residues modulo M of the target and of the kind's span are kept
    in echelon form; a residue of their span is fixed by its bits at
    that form's pivots J, and its bit at j is the parity of the tensor on
    j and the pivots of M's rows that have a 1 at j.  So an image is
    those |J| parities, as an int.  A kind's orbit tensor is linear in
    its role outside the chain, if it has one, so over that role the
    images are XORs of those at the role's basis.  The enumeration stops
    once the images take all 2^|J| values.
    """
    kind = kind_by_tag(group, tag)
    rows = echelon(row for other in tags if other != tag for row in kind_span(group, n, other))
    target = mm_tensor(n, n, n).bits
    pivots = echelon(residue(rows, v) for v in (target, *kind_span(group, n, tag)))
    masks = [j | sum(p for p, row in rows.items() if row & j) for j in pivots]

    def image(v: int) -> int:
        return sum(((v & m).bit_count() & 1) << i for i, m in enumerate(masks))

    def allowed(rep) -> bool:
        return any(rep) and not (kind.distinct and rep[kind.distinct[0]] == rep[kind.distinct[1]])

    bases = _role_bases(group, n, tag)
    linear = next((r for r in range(kind.arity) if r not in kind.chain), None)
    images = set()
    for rep in product(*([0] if r == linear else _points(b) for r, b in enumerate(bases))):
        if len(images) == 1 << len(masks):  # every image: no count is refuted
            break
        rep = list(rep)
        if linear is None:
            if allowed(rep):
                images.add(image(_orbit_tensor(group, n, tag, rep)))
            continue
        columns = []
        for bits in bases[linear]:
            rep[linear] = bits
            columns.append(image(_orbit_tensor(group, n, tag, rep)))
        for bits, v in zip(_points(bases[linear]), _points(columns)):
            rep[linear] = bits
            if allowed(rep):
                images.add(v)
    return image(target), frozenset(images)


def count_refutes(group: GroupId, n: int, tags: tuple[str, ...], tag: str,
                  count: int) -> int | None:
    """For count orbits of kind tag among present kinds tags: the number
    of distinct images modulo the other kinds' spans when no count of
    them sum to the target's image there; None when some do, or when
    count is above 2."""
    if count > 2:
        return None
    target, images = _quotient_images(group, n, tags, tag)
    if target in images if count == 1 else any(target ^ x in images for x in images):
        return None
    return len(images)


@dataclass(frozen=True)
class Refutation:
    """Why a combo has no model: its rule, "span" or "count", and how."""
    rule: str
    detail: str


def refute(group: GroupId, n: int, combo: dict[str, int]) -> Refutation | None:
    """The span rule's refutation of a combo, else the count rule's for
    its first present kind, smallest representative space first, that
    `count_refutes` rules out; None when neither refutes it.  Cached per
    present counts, so the encoder and the driver pay for one decision."""
    return _refute(group, n, tuple((kind.tag, combo[kind.tag]) for kind in orbit_kinds(group)
                                   if combo.get(kind.tag, 0) > 0))


@lru_cache
def _refute(group: GroupId, n: int, counts: tuple[tuple[str, int], ...]) -> Refutation | None:
    tags = tuple(tag for tag, _ in counts)
    phi = certificate(group, n, tags)
    if phi is not None:
        return Refutation("span", f"the tensor equations at entries {', '.join(map(str, phi))} "
                          "XOR to 0 = 1: every orbit tensor of the present kinds has even "
                          "parity there, the target odd")
    for tag, count in sorted(counts, key=lambda tc: _rep_space_bits(group, n, tc[0])):
        if 1 << _rep_space_bits(group, n, tag) <= MAX_REP_SPACE:
            images = count_refutes(group, n, tags, tag, count)
            if images is not None:
                others = ", ".join(t for t in tags if t != tag) or "none"
                return Refutation("count", f"modulo the spans of the other present kinds "
                                  f"({others}), no {count} of the {images} distinct images "
                                  f"of {tag} orbit tensors sum to the target's")
    return None
