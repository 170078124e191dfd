"""Span certificates: combos that their orbit kinds alone rule out.

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

Tensors are ints in Tensor6's flat row-major entry order, and a basis is
kept in echelon form, each row keyed by its lowest bit.  Every orbit
tensor and the target are invariant under the group, and the lowest bit
of a nonzero invariant tensor is an entry whose value on invariant
tensors does not follow from the entries before it, which is an entry
the encoder keeps an equation for.  So φ, made of pivots and the
lowest bit of the target's residue, names kept entries only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .gf2 import Gf2Matrix, entry_terms, fixed_space
from .symmetry import GroupId, expand_orbit, kind_by_tag, scheme
from .tensor import Decomposition, evaluate, mm_tensor

Entry = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def _add_row(rows: dict[int, int], v: int) -> None:
    """Reduce v against the echelon rows and keep what is left, if
    anything, under its lowest bit."""
    while v:
        low = v & -v
        if low not in rows:
            rows[low] = v
            return
        v ^= rows[low]


@lru_cache
def kind_span(group: GroupId, n: int, tag: str) -> tuple[int, ...]:
    """An echelon basis of the span of the orbit tensors of kind tag."""
    kind = kind_by_tag(group, tag)
    cells = tuple(product(range(n), repeat=2))
    coords = []  # (role, basis matrix bits) of the representative space
    for role, fixed in enumerate(kind.fixed):
        free, basis = fixed_space(cells, (entry_terms(scheme(group).image, n),) if fixed else ())
        coords += [(role, sum(1 << k for k, terms in enumerate(basis) if f in terms))
                   for f in free]
    rows: dict[int, int] = {}
    for weight in (1, 2, 3):
        for point in combinations(coords, weight):
            rep = [0] * kind.arity
            for role, bits in point:
                rep[role] ^= bits
            orbit = expand_orbit(group, tag, tuple(Gf2Matrix(n, n, bits) for bits in rep))
            _add_row(rows, evaluate(Decomposition(n, n, n, tuple(orbit))).bits)
    return tuple(rows.values())


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
    residue = mm_tensor(n, n, n).bits  # raises for an n out of range, before any work
    rows: dict[int, int] = {}
    for tag in tags:
        for row in kind_span(group, n, tag):
            _add_row(rows, row)
    pivots = sorted(rows)
    for p in pivots:
        if residue & p:
            residue ^= rows[p]
    if not residue:
        return None
    j = residue & -residue
    phi = j
    for i in reversed(range(len(pivots))):  # each row cleared at the later pivots
        row = rows[pivots[i]]
        for q in pivots[i + 1:]:
            if row & q:
                row ^= rows[q]
        rows[pivots[i]] = row
        if row & j:
            phi |= pivots[i]
    entries = tuple(product(product(range(n), repeat=2), repeat=3))  # flat order
    return tuple(entries[x] for x in range(phi.bit_length()) if phi >> x & 1)
