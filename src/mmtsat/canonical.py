"""Canonical forms for symmetric decompositions.

canonicalize() rewrites a symmetric decomposition into the lex-min,
merged, strictly sorted normal form that the SAT encoder also enforces;
check_canonical() reports every violated constraint.  Both read each
kind's expansion, min_width and chain from the same table in symmetry
that the encoder reads, so the three agree by construction.  The
rewrite always preserves the evaluated tensor and never increases total
rank.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .gf2 import Gf2Matrix
from .symmetry import (
    ConstraintError,
    GroupId,
    OrbitKind,
    check_n,
    expand_orbit,
    kind_by_tag,
    lex_constraints,
    orbit_kinds,
    scheme,
    total_rank,
    validate_reps,
)
from .tensor import (
    Decomposition,
    Triplet,
    json_dims,
    json_fields,
    json_typed,
)

Rep = tuple[Gf2Matrix, ...]


@dataclass(frozen=True)
class SymmetricDecomposition:
    group: GroupId
    n: int
    orbits: dict[str, tuple[Rep, ...]]

    def __post_init__(self):
        check_n(self.group, self.n)
        tags = {k.tag for k in orbit_kinds(self.group)}
        for tag, reps in self.orbits.items():
            if tag not in tags:
                raise ValueError(f"group {self.group.value} has no orbit kind {tag!r}")
            for rep in reps:
                validate_reps(self.group, tag, rep)
                for mat in rep:
                    if (mat.rows, mat.cols) != (self.n, self.n):
                        raise ValueError("representative shape disagrees with n")

    def counts(self) -> dict[str, int]:
        return {k.tag: len(self.orbits.get(k.tag, ())) for k in orbit_kinds(self.group)}

    def total_rank(self) -> int:
        return total_rank(self.group, self.counts())

    def expand(self) -> Decomposition:
        triplets: list[Triplet] = []
        for kind in orbit_kinds(self.group):
            for rep in self.orbits.get(kind.tag, ()):
                triplets.extend(expand_orbit(self.group, kind.tag, rep))
        return Decomposition(self.n, self.n, self.n, tuple(triplets))


def _rep_key(rep: Rep) -> tuple[int, ...]:
    out: tuple[int, ...] = ()
    for m in rep:
        out += m.flat_bits()
    return out


def _orbit_of(group: GroupId, triplets: list[Triplet]) -> tuple[str, Rep]:
    """The kind and representative whose expansion is exactly `triplets`."""
    want = Counter(triplets)
    first = triplets[0]
    for kind in orbit_kinds(group):
        rep = (first.a, first.b, first.c)[:kind.arity]
        try:
            if Counter(expand_orbit(group, kind.tag, rep)) == want:
                return kind.tag, rep
        except ConstraintError:
            continue
    raise AssertionError(f"no {group.value} orbit kind expands to {triplets}")


def _merge(kind: OrbitKind, reps: list[Rep]) -> list[Rep]:
    """Representatives sharing a chain key add their one free role (each
    triplet is linear in it), or cancel in pairs when the chain covers
    every role; zero sums vanish.  Sorted by chain key."""
    f = kind.linear
    groups: dict[Rep, list[Rep]] = {}
    for rep in reps:
        groups.setdefault(tuple(rep[r] for r in kind.chain), []).append(rep)
    out = []
    for same in groups.values():
        rep = same[0]
        if f is not None:
            total = rep[f]
            for other in same[1:]:
                total = total + other[f]
            if total.is_zero():
                continue
            rep = rep[:f] + (total,) + rep[f + 1:]
        elif len(same) % 2 == 0:
            continue
        out.append(rep)
    return sorted(out, key=lambda rep: _rep_key(tuple(rep[r] for r in kind.chain)))


def _canonical_pass(group: GroupId, orbits: dict[str, list[Rep]]) -> dict[str, list[Rep]]:
    kinds = orbit_kinds(group)
    new: dict[str, list[Rep]] = {k.tag: [] for k in kinds}
    for kind in kinds:
        for rep in orbits.get(kind.tag, []):
            if any(m.is_zero() for m in rep):
                continue  # every triplet holds every role, so all vanish
            expansion = expand_orbit(group, kind.tag, rep)
            odd = [t for t, c in Counter(expansion).items() if c % 2]
            if len(odd) < len(expansion):
                # The representative has a nontrivial stabilizer.  Triplets of
                # even multiplicity cancel mod 2; odd ones leave a smaller orbit.
                if odd:
                    tag, small = _orbit_of(group, odd)
                    new[tag].append(small)
                continue
            if kind.min_width:
                best = min(expansion, key=lambda t: _rep_key(
                    (t.a, t.b, t.c)[:kind.min_width]))
                rep = (best.a, best.b, best.c)[:kind.arity]
            new[kind.tag].append(rep)
    return {k.tag: _merge(k, new[k.tag]) for k in kinds}


def canonicalize(sd: SymmetricDecomposition) -> SymmetricDecomposition:
    """Normal form: lex-min representatives, merged, strictly sorted.

    Merging can re-open the lex-min step (and vice versa), so the passes
    run to a fixed point; each structural change strictly reduces rank,
    which bounds the iteration.
    """
    orbits = {k.tag: list(sd.orbits.get(k.tag, ())) for k in orbit_kinds(sd.group)}
    for _ in range(sd.total_rank() + 2):
        new = _canonical_pass(sd.group, orbits)
        if new == orbits:
            break
        orbits = new
    else:
        raise AssertionError("canonicalize failed to reach a fixed point")
    return SymmetricDecomposition(sd.group, sd.n,
                                  {tag: tuple(reps) for tag, reps in orbits.items()})


def check_canonical(sd: SymmetricDecomposition) -> list[str]:
    """All violated constraints of the encoder's canonical form: empty
    iff the encoder's non-zero and ordering constraints hold.

    A representative whose matrices are all zero breaks the non-zero
    clause; one with only some zero roles is admitted, as in the CNF.
    One whose distinct roles hold equal matrices breaks the encoder's
    distinct-roles clause.  The ordering constraints come from
    lex_constraints, the same function the encoder compiles to CNF.
    """
    v: list[str] = []
    image = scheme(sd.group).image
    for kind in orbit_kinds(sd.group):
        reps = sd.orbits.get(kind.tag, ())
        v.extend(f"{kind.tag}[{i}]: representative is zero"
                 for i, rep in enumerate(reps) if all(m.is_zero() for m in rep))
        if kind.distinct:
            r, s = kind.distinct
            v.extend(f"{kind.tag}[{i}]: {kind.roles[r]} equals {kind.roles[s]}, "
                     "a degenerate orbit" for i, rep in enumerate(reps) if rep[r] == rep[s])
        for i, what, lhs, rhs in lex_constraints(kind, reps, image):
            if not _rep_key(lhs) < _rep_key(rhs):
                v.append(f"{kind.tag}[{i}]: {what}")
    return list(dict.fromkeys(v))


# -- JSON interchange --------------------------------------------------------


def symmetric_to_json(sd: SymmetricDecomposition) -> dict:
    return {
        "group": sd.group.value,
        "n": sd.n,
        "orbits": {tag: [[m.format() for m in rep] for rep in reps]
                   for tag, reps in sd.orbits.items()},
    }


def symmetric_from_json(obj) -> SymmetricDecomposition:
    name, n, tagged = json_fields(obj, "symmetric decomposition", "group", "n", "orbits")
    group = GroupId.from_name(name)
    json_dims((n,), "symmetric decomposition")
    orbits = {}
    for tag, reps in json_typed(tagged, dict, "orbits").items():
        kind_by_tag(group, tag)
        orbits[tag] = tuple(tuple(Gf2Matrix.parse(s) for s in json_typed(rep, list, tag))
                            for rep in json_typed(reps, list, tag))
    return SymmetricDecomposition(group, n, orbits)


def dump_symmetric(sd: SymmetricDecomposition, path) -> None:
    with open(path, "w") as fh:
        json.dump(symmetric_to_json(sd), fh)
        fh.write("\n")


def load_symmetric(path) -> SymmetricDecomposition:
    with open(path) as fh:
        return symmetric_from_json(json.load(fh))
