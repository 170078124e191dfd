import random
from collections import Counter
from itertools import product

import pytest

from mmtsat.canonical import SymmetricDecomposition, canonicalize
from mmtsat.gf2 import Gf2Matrix
from mmtsat.symmetry import (
    ConstraintError,
    F_SANDWICH,
    GroupId,
    expand_orbit,
    f_conjugate,
    generators,
    is_group_symmetric,
    kind_by_tag,
    orbit_kinds,
    total_rank,
)
from mmtsat.tensor import Decomposition, Triplet, evaluate, verify

from conftest import (
    STRASSEN_MOD2,
    random_fixed_matrix,
    random_matrix,
    random_rep,
    random_triplet,
)


def _unit(n, i, j):
    return Gf2Matrix(n, n, 1 << (i * n + j))


# The schoolbook algorithm: n^3 triplets (E_ij, E_jl, E_li).
def naive(n):
    return Decomposition(n, n, n, tuple(
        Triplet(_unit(n, i, j), _unit(n, j, l), _unit(n, l, i))
        for i, j, l in product(range(n), repeat=3)))


def test_group_names_round_trip():
    for g in GroupId:
        assert GroupId.from_name(g.value) is g
    with pytest.raises(ValueError):
        GroupId.from_name("dihedral")


def test_orbit_kind_tables():
    def table(group):
        return [(k.tag, k.arity, k.weight) for k in orbit_kinds(group)]
    assert table(GroupId.TRIVIAL) == [("id", 3, 1)]
    assert table(GroupId.CYCLIC) == [("id", 3, 3), ("delta", 1, 1)]
    assert table(GroupId.CYCLIC_TRANSPOSE) == [
        ("id", 3, 6), ("t", 2, 3), ("delta", 1, 2), ("full", 1, 1)]
    assert table(GroupId.CYCLIC_SANDWICH) == [
        ("id", 3, 6), ("sw", 3, 3), ("delta", 1, 2), ("full", 1, 1)]
    assert kind_by_tag(GroupId.CYCLIC, "delta").roles == ("D",)
    with pytest.raises(ValueError):
        kind_by_tag(GroupId.CYCLIC, "t")

    def order(group):
        return [(k.tag, k.min_width, "".join(k.roles[r] for r in k.chain))
                for k in orbit_kinds(group)]
    assert order(GroupId.TRIVIAL) == [("id", 0, "ABC")]
    assert order(GroupId.CYCLIC) == [("id", 3, "AB"), ("delta", 0, "D")]
    assert order(GroupId.CYCLIC_TRANSPOSE) == [
        ("id", 3, "AB"), ("t", 0, "H"), ("delta", 1, "D"), ("full", 0, "Z")]
    assert order(GroupId.CYCLIC_SANDWICH) == [
        ("id", 3, "AB"), ("sw", 3, "XY"), ("delta", 1, "D"), ("full", 0, "U")]

    # Each expansion is derived from the generators; these words are the
    # reference it must reproduce, in order.  A prime applies the group's
    # image op.  The second field lists the roles the image op fixes.
    def words(group):
        return [(k.tag, " ".join("".join(k.roles[r] + "'" * im for r, im in row)
                                 for row in k.expansion),
                 "".join(r for r, f in zip(k.roles, k.fixed) if f))
                for k in orbit_kinds(group)]
    assert words(GroupId.TRIVIAL) == [("id", "ABC", "")]
    assert words(GroupId.CYCLIC) == [("id", "ABC BCA CAB", ""), ("delta", "DDD", "")]
    assert words(GroupId.CYCLIC_TRANSPOSE) == [
        ("id", "ABC BCA CAB C'B'A' B'A'C' A'C'B'", ""),
        ("t", "SHH' HH'S H'SH", "S"),
        ("delta", "DDD D'D'D'", ""),
        ("full", "ZZZ", "Z")]
    assert words(GroupId.CYCLIC_SANDWICH) == [
        ("id", "ABC BCA CAB A'B'C' B'C'A' C'A'B'", ""),
        ("sw", "XYZ YZX ZXY", "XYZ"),
        ("delta", "DDD D'D'D'", ""),
        ("full", "UUU", "U")]

    # Only t names roles that must differ: H = S is a degenerate orbit.
    assert [(g.value, k.tag, "".join(k.roles[r] for r in k.distinct))
            for g in GroupId for k in orbit_kinds(g) if k.distinct] == [("cyc-t", "t", "SH")]


def test_total_rank_is_weighted_sum():
    assert total_rank(GroupId.CYCLIC, {"id": 2, "delta": 1}) == 7
    assert total_rank(GroupId.CYCLIC_TRANSPOSE,
                      {"id": 1, "t": 1, "delta": 1, "full": 1}) == 12
    assert total_rank(GroupId.CYCLIC_SANDWICH, {"sw": 4, "delta": 1}) == 14
    with pytest.raises(ValueError):
        total_rank(GroupId.CYCLIC, {"t": 1})


def test_transform_apply_examples():
    rng = random.Random(0)
    t = random_triplet(rng, 3)
    (c,) = generators(GroupId.CYCLIC, 3)
    assert c.apply(t) == Triplet(t.b, t.c, t.a)
    _, tt = generators(GroupId.CYCLIC_TRANSPOSE, 3)
    assert tt.apply(t) == Triplet(t.c.transpose(), t.b.transpose(), t.a.transpose())
    _, sw = generators(GroupId.CYCLIC_SANDWICH, 3)
    f, finv = F_SANDWICH, F_SANDWICH.inverse()
    assert sw.apply(t) == Triplet(f * t.a * finv, f * t.b * finv, f * t.c * finv)


def test_group_laws_on_random_triplets():
    rng = random.Random(42)
    cyc, tt = generators(GroupId.CYCLIC_TRANSPOSE, 3)
    _, sw = generators(GroupId.CYCLIC_SANDWICH, 3)
    for _ in range(1000):
        t = random_triplet(rng, 3)
        # cyc^3 = id and transpose^2 = id
        assert cyc.apply(cyc.apply(cyc.apply(t))) == t
        assert tt.apply(tt.apply(t)) == t
        # cyc o transpose = transpose o cyc^-1
        lhs = cyc.apply(tt.apply(t))
        rhs = tt.apply(cyc.apply(cyc.apply(t)))
        assert lhs == rhs
        # conjugation by F is an involution since F*F = I, and commutes
        # with the rotation
        assert sw.apply(sw.apply(t)) == t
        assert sw.apply(cyc.apply(t)) == cyc.apply(sw.apply(t))


def test_expansion_lengths():
    rng = random.Random(45)
    a, b, c = (random_matrix(rng, 3) for _ in range(3))
    s = random_fixed_matrix(rng, Gf2Matrix.transpose, 3)
    x = random_fixed_matrix(rng, f_conjugate, 3)
    lengths = {
        (GroupId.TRIVIAL, "id", (a, b, c)): 1,
        (GroupId.CYCLIC, "id", (a, b, c)): 3,
        (GroupId.CYCLIC, "delta", (a,)): 1,
        (GroupId.CYCLIC_TRANSPOSE, "id", (a, b, c)): 6,
        (GroupId.CYCLIC_TRANSPOSE, "t", (s, b)): 3,
        (GroupId.CYCLIC_TRANSPOSE, "delta", (a,)): 2,
        (GroupId.CYCLIC_TRANSPOSE, "full", (s,)): 1,
        (GroupId.CYCLIC_SANDWICH, "id", (a, b, c)): 6,
        (GroupId.CYCLIC_SANDWICH, "sw", (x, x, x)): 3,
        (GroupId.CYCLIC_SANDWICH, "delta", (a,)): 2,
        (GroupId.CYCLIC_SANDWICH, "full", (x,)): 1,
    }
    for (group, tag, reps), want in lengths.items():
        assert len(expand_orbit(group, tag, reps)) == want


def test_expansion_side_conditions():
    rng = random.Random(46)
    not_sym = Gf2Matrix.parse("010;000;000")
    with pytest.raises(ConstraintError, match="S must be fixed by transpose"):
        expand_orbit(GroupId.CYCLIC_TRANSPOSE, "t",
                     (not_sym, random_matrix(rng, 3)))
    with pytest.raises(ConstraintError):
        expand_orbit(GroupId.CYCLIC_TRANSPOSE, "full", (not_sym,))
    not_comm = Gf2Matrix.parse("100;000;000")
    with pytest.raises(ConstraintError, match="U must be fixed by f_conjugate"):
        expand_orbit(GroupId.CYCLIC_SANDWICH, "full", (not_comm,))
    with pytest.raises(ConstraintError):
        expand_orbit(GroupId.CYCLIC, "id", (not_sym,))  # wrong arity


def test_orbit_tensor_invariance():
    # The XOR of an orbit's outer products is fixed by every generator.
    rng = random.Random(47)
    for group in (GroupId.CYCLIC, GroupId.CYCLIC_TRANSPOSE,
                  GroupId.CYCLIC_SANDWICH):
        for _ in range(100):
            for kind in orbit_kinds(group):
                triplets = expand_orbit(group, kind.tag, random_rep(rng, group, kind, 3))
                base = evaluate(Decomposition(3, 3, 3, tuple(triplets)))
                for g in generators(group, 3):
                    mapped = tuple(g.apply(t) for t in triplets)
                    assert evaluate(Decomposition(3, 3, 3, mapped)).bits == base.bits


def test_generators_preserve_validity(strassen):
    cases = [(strassen, GroupId.CYCLIC_TRANSPOSE, 2),
             (naive(3), GroupId.CYCLIC_TRANSPOSE, 3),
             (naive(3), GroupId.CYCLIC_SANDWICH, 3)]
    for d, group, n in cases:
        assert verify(d)
        for g in generators(group, n):
            assert verify(Decomposition(n, n, n, tuple(g.apply(t) for t in d.triplets)))


def test_delta_degenerate():
    # A delta orbit degenerates -- its triplets repeat with even
    # multiplicity and cancel mod 2 -- exactly when D is fixed by the
    # group's image op; canonicalize then drops it.
    def degenerate(group, d):
        counts = Counter(expand_orbit(group, "delta", (d,))).values()
        return any(c % 2 == 0 for c in counts)
    sym = Gf2Matrix.parse("010;100;000")
    assert degenerate(GroupId.CYCLIC_TRANSPOSE, sym)
    assert not degenerate(GroupId.CYCLIC_TRANSPOSE, Gf2Matrix.parse("010;000;000"))
    comm = Gf2Matrix.identity(3)
    assert degenerate(GroupId.CYCLIC_SANDWICH, comm)
    assert not degenerate(GroupId.CYCLIC_SANDWICH, Gf2Matrix.parse("100;000;000"))
    assert not degenerate(GroupId.CYCLIC, comm)
    for group, d in [(GroupId.CYCLIC_TRANSPOSE, sym), (GroupId.CYCLIC_SANDWICH, comm)]:
        sd = SymmetricDecomposition(group, 3, {"delta": ((d,),)})
        assert canonicalize(sd).counts()["delta"] == 0


def test_is_group_symmetric():
    # Strassen's mod-2 decomposition is cyclic symmetric as listed.
    assert is_group_symmetric(STRASSEN_MOD2, GroupId.CYCLIC)
    assert is_group_symmetric(STRASSEN_MOD2, GroupId.TRIVIAL)
    # A single asymmetric triplet is not cyclic symmetric.
    t = Triplet(Gf2Matrix.parse("10;00"), Gf2Matrix.parse("01;00"),
                Gf2Matrix.parse("00;10"))
    d = Decomposition(2, 2, 2, (t,))
    assert not is_group_symmetric(d, GroupId.CYCLIC)
    with pytest.raises(ValueError):
        is_group_symmetric(Decomposition(2, 1, 2, ()), GroupId.CYCLIC)


def test_sandwich_group_needs_n3():
    with pytest.raises(ValueError):
        generators(GroupId.CYCLIC_SANDWICH, 2)
    assert len(generators(GroupId.CYCLIC_SANDWICH, 3)) == 2
    assert generators(GroupId.TRIVIAL, 2) == []
