"""Solver-free checks of CNF semantics against known decompositions.

A known decomposition is encoded for its canonical combo, its primary
variables are fixed from its canonical form, and unit propagation runs
to a fixpoint.  A sound and complete Tseitin encoding then assigns every
variable without conflict (the decomposition is a model), and flipping
any primary bit either hits a conflict or yields another decomposition
that independently verifies as canonical and symmetric.

The same propagation builds the replay stub's full model.
"""

from __future__ import annotations

import random
from itertools import product

from mmtsat.canonical import SymmetricDecomposition, canonicalize, check_canonical
from mmtsat.encoder import VarMap, decode, encode
from mmtsat.gf2 import Gf2Matrix
from mmtsat.symmetry import (
    F_SANDWICH,
    GroupId,
    expand_orbit,
    generators,
    is_group_symmetric,
    orbit_kinds,
)
from mmtsat.tensor import Decomposition, Triplet, verify


class ModelCheckError(AssertionError):
    """The CNF disagrees with a known decomposition."""


# -- known decompositions ----------------------------------------------------


def _m(text: str) -> Gf2Matrix:
    return Gf2Matrix.parse(text)


# Strassen's rank-7 algorithm for <2,2,2>, coefficients reduced mod 2.
STRASSEN_MOD2 = Decomposition(2, 2, 2, (
    Triplet(_m("10;01"), _m("10;01"), _m("10;01")),
    Triplet(_m("00;11"), _m("10;00"), _m("01;01")),
    Triplet(_m("10;00"), _m("01;01"), _m("00;11")),
    Triplet(_m("00;01"), _m("10;10"), _m("11;00")),
    Triplet(_m("11;00"), _m("00;01"), _m("10;10")),
    Triplet(_m("10;10"), _m("11;00"), _m("00;01")),
    Triplet(_m("01;01"), _m("00;11"), _m("10;00")),
))


def _unit(n: int, i: int, j: int) -> Gf2Matrix:
    return Gf2Matrix(n, n, 1 << (i * n + j))


def naive(n: int) -> Decomposition:
    """The n^3 triplets (E_ij, E_jl, E_li) of schoolbook multiplication."""
    return Decomposition(n, n, n, tuple(
        Triplet(_unit(n, i, j), _unit(n, j, l), _unit(n, l, i))
        for i, j, l in product(range(n), repeat=3)))


def conjugators(group: GroupId, n: int) -> list[Gf2Matrix]:
    """Matrices Q whose simultaneous conjugation maps the group's known
    decomposition to another group-symmetric one.

    Any invertible Q commutes with the rotation; the transpose also needs
    Q orthogonal; for cyc-sw, Q carries the coordinate swap P (under which
    the naive algorithm is invariant) to F, so Q.P.Q^-1 = F.
    """
    ident = Gf2Matrix.identity(n)
    swap = Gf2Matrix.parse("010;100;001")
    out = []
    for bits in range(1 << (n * n)):
        q = Gf2Matrix(n, n, bits)
        q_inv = q.inverse()
        if q_inv is None:
            continue
        if group is GroupId.CYCLIC_TRANSPOSE and q * q.transpose() != ident:
            continue
        if group is GroupId.CYCLIC_SANDWICH and q * swap * q_inv != F_SANDWICH:
            continue
        out.append(q)
    return out


def conjugate_decomposition(d: Decomposition, q: Gf2Matrix) -> Decomposition:
    q_inv = q.inverse()
    return Decomposition(d.n, d.k, d.m, tuple(
        Triplet(q * t.a * q_inv, q * t.b * q_inv, q * t.c * q_inv)
        for t in d.triplets))


def _orbit(group: GroupId, n: int, t: Triplet) -> list[Triplet]:
    gens = generators(group, n)
    seen = {t}
    todo = [t]
    while todo:
        cur = todo.pop()
        for g in gens:
            nxt = g.apply(cur)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return sorted(seen, key=lambda x: x.flat_bits())


def _orbit_rep(group: GroupId, orbit: list[Triplet]):
    """(tag, rep) whose expansion is exactly this orbit."""
    want = sorted(t.flat_bits() for t in orbit)
    for kind in orbit_kinds(group):
        for t in orbit:
            rep = (t.a, t.b, t.c)[:kind.arity]
            try:
                got = expand_orbit(group, kind.tag, rep)
            except ValueError:
                continue
            if sorted(x.flat_bits() for x in got) == want:
                return kind.tag, rep
    raise ModelCheckError(f"no {group.value} orbit kind expands to {orbit}")


def to_symmetric(d: Decomposition, group: GroupId) -> SymmetricDecomposition:
    """Split a group-symmetric decomposition into orbits, then canonicalize."""
    if not is_group_symmetric(d, group):
        raise ModelCheckError(f"decomposition is not {group.value}-symmetric")
    orbits: dict[str, list] = {k.tag: [] for k in orbit_kinds(group)}
    left = list(d.triplets)
    while left:
        orbit = _orbit(group, d.n, left[0])
        for t in orbit:
            left.remove(t)
        tag, rep = _orbit_rep(group, orbit)
        orbits[tag].append(rep)
    sd = SymmetricDecomposition(group, d.n, {t: tuple(r) for t, r in orbits.items()})
    return canonicalize(sd)


# (group, n, base decomposition) for every known decomposition checked.
KNOWN = [
    (GroupId.TRIVIAL, 2, STRASSEN_MOD2),
    (GroupId.CYCLIC, 2, STRASSEN_MOD2),
    (GroupId.CYCLIC_TRANSPOSE, 2, STRASSEN_MOD2),
    (GroupId.TRIVIAL, 3, naive(3)),
    (GroupId.CYCLIC, 3, naive(3)),
    (GroupId.CYCLIC_TRANSPOSE, 3, naive(3)),
    # Conjugated into cyc-sw symmetry by every Q that conjugators() yields.
    (GroupId.CYCLIC_SANDWICH, 3, naive(3)),
]


def known_symmetric(group: GroupId, n: int, base: Decomposition,
                    rng: random.Random) -> SymmetricDecomposition:
    """Canonical form of a seed-chosen symmetric conjugate of base."""
    q = rng.choice(conjugators(group, n))
    d = conjugate_decomposition(base, q)
    if not verify(d):
        raise ModelCheckError("conjugated decomposition does not verify")
    return to_symmetric(d, group)


# -- unit propagation --------------------------------------------------------


class Propagator:
    """Unit propagation to a fixpoint with two watched literals.

    The clause database is prepared once; each run() works on a copy, so
    one CNF can be propagated under several primary assignments.
    """

    def __init__(self, num_vars: int, clauses):
        self.num_vars = num_vars
        self.units: list[int] = []
        self.kept: list[list[int]] = []
        self.empty = False
        off = num_vars
        self.watches: list[list[int]] = [[] for _ in range(2 * num_vars + 1)]
        for clause in clauses:
            lits = list(clause)
            seen = set(lits)
            if len(seen) < len(lits):
                lits = list(dict.fromkeys(lits))
            if not seen.isdisjoint([-lit for lit in lits]):
                continue  # tautology
            if len(lits) < 2:
                if lits:
                    self.units.append(lits[0])
                else:
                    self.empty = True
                continue
            self.watches[off + lits[0]].append(len(self.kept))
            self.watches[off + lits[1]].append(len(self.kept))
            self.kept.append(lits)

    def run(self, fixed: dict[int, bool]):
        """Returns (values, conflict): values[v] is 1, -1 or 0 (unassigned)
        for v in 1..num_vars, and conflict is None or a description."""
        off = self.num_vars
        lv = [0] * (2 * off + 1)  # literal value, indexed by off + lit
        trail: list[int] = []

        def assign(lit: int) -> bool:
            if lv[off + lit] == 0:
                lv[off + lit] = 1
                lv[off - lit] = -1
                trail.append(lit)
                return True
            return lv[off + lit] == 1

        if self.empty:
            return lv[off:], "empty clause"
        for lit in self.units:
            if not assign(lit):
                return lv[off:], f"unit clause {lit} contradicts"
        for v, b in fixed.items():
            if not assign(v if b else -v):
                return lv[off:], f"fixed variable {v} contradicts a unit clause"

        kept = [c[:] for c in self.kept]
        watches = [w[:] for w in self.watches]
        head = 0
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            wl = watches[off + false_lit]
            keep: list[int] = []
            for pos, ci in enumerate(wl):
                c = kept[ci]
                if c[0] == false_lit:
                    c[0], c[1] = c[1], c[0]
                other = c[0]
                ov = lv[off + other]
                if ov == 1:
                    keep.append(ci)
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if lv[off + lit] != -1:
                        c[1], c[k] = lit, false_lit
                        watches[off + lit].append(ci)
                        break
                else:
                    keep.append(ci)
                    if ov == -1:
                        return lv[off:], f"clause {c} falsified"
                    assign(other)
            watches[off + false_lit] = keep
        return lv[off:], None


def fixed_primaries(sd: SymmetricDecomposition, varmap: VarMap) -> dict[int, bool]:
    """Primary variable values that spell out sd's representatives."""
    kinds = {k.tag: k for k in orbit_kinds(sd.group)}
    return {e.var: bool(sd.orbits[e.orbit][e.index]
                        [kinds[e.orbit].roles.index(e.mat)].get(e.row, e.col))
            for e in varmap.primary}


def full_model(prop: Propagator, fixed: dict[int, bool]) -> list[int]:
    """Every variable's value, as DIMACS literals, forced by the fixed
    primaries.  Raises ModelCheckError on a conflict or an unassigned
    variable."""
    val, conflict = prop.run(fixed)
    if conflict:
        raise ModelCheckError(f"propagation hits a conflict: {conflict}")
    unassigned = [v for v in range(1, prop.num_vars + 1) if val[v] == 0]
    if unassigned:
        raise ModelCheckError(f"{len(unassigned)} variables left unassigned, "
                              f"first {unassigned[:5]}")
    return [v if val[v] == 1 else -v for v in range(1, prop.num_vars + 1)]


def check_model(clauses, model: list[int]) -> None:
    """Raise unless every clause has a true literal under the model."""
    true = set(model)
    for clause in clauses:
        if true.isdisjoint(clause):
            raise ModelCheckError(f"clause {clause} falsified by the model")


def _flip_is_rejected(prop: Propagator, varmap: VarMap,
                      sd: SymmetricDecomposition, var: int) -> bool:
    """True if flipping primary `var` conflicts; False if the flipped
    assignment is another genuine canonical decomposition; raises if the
    CNF accepts a flipped assignment that is not one."""
    fixed = fixed_primaries(sd, varmap)
    fixed[var] = not fixed[var]
    _, conflict = prop.run(fixed)
    if conflict:
        return True
    try:
        other, d = decode(fixed, varmap, sd.group, sd.n)
        genuine = verify(d) and is_group_symmetric(d, sd.group) \
            and not check_canonical(other)
    except ValueError:
        genuine = False
    if not genuine:
        raise ModelCheckError(f"flipping primary {var} propagates without "
                              f"conflict but is not a valid decomposition")
    return False


def check_known(sd: SymmetricDecomposition, rng: random.Random,
                cnf=None, varmap: VarMap | None = None) -> dict:
    """Model-check one canonical decomposition; returns a summary.

    cnf/varmap default to encode() of sd's own combo; passing them lets a
    test feed in a doctored CNF.
    """
    violations = check_canonical(sd)
    if violations:
        raise ModelCheckError(f"not canonical: {violations}")
    if cnf is None:
        cnf, varmap = encode(sd.group, sd.n, sd.counts())
    prop = Propagator(cnf.num_vars, cnf.clauses)
    check_model(cnf.clauses, full_model(prop, fixed_primaries(sd, varmap)))
    primaries = [e.var for e in varmap.primary]
    start = rng.randrange(len(primaries))
    for k in range(len(primaries)):
        if _flip_is_rejected(prop, varmap, sd, primaries[(start + k) % len(primaries)]):
            break
    else:
        raise ModelCheckError("no single primary flip is rejected")
    return {"group": sd.group.value, "n": sd.n, "combo": sd.counts(),
            "vars": cnf.num_vars, "clauses": len(cnf.clauses)}
