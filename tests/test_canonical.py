import random

import pytest

from mmtsat.canonical import (
    SymmetricDecomposition,
    canonicalize,
    check_canonical,
    dump_symmetric,
    load_symmetric,
    symmetric_from_json,
    symmetric_to_json,
)
from mmtsat.gf2 import Gf2Matrix
from mmtsat.symmetry import GroupId
from mmtsat.tensor import evaluate

from conftest import random_symmetric_decomposition


def _m(text):
    return Gf2Matrix.parse(text)


def test_counts_total_rank_and_expand():
    sd = SymmetricDecomposition(GroupId.CYCLIC, 2, {
        "id": (( _m("10;00"), _m("01;00"), _m("00;10")),),
        "delta": ((_m("10;01"),),),
    })
    assert sd.counts() == {"id": 1, "delta": 1}
    assert sd.total_rank() == 4
    d = sd.expand()
    assert d.rank == 4 and (d.n, d.k, d.m) == (2, 2, 2)


def test_rejects_bad_orbits():
    with pytest.raises(ValueError):
        SymmetricDecomposition(GroupId.CYCLIC, 2, {"t": ()})
    with pytest.raises(ValueError):
        SymmetricDecomposition(GroupId.CYCLIC, 2,
                               {"delta": ((_m("100;010;001"),),)})


def test_merge_identity_same_ab_key():
    # Two id orbits sharing (A, B) merge by adding their C parts.
    a, b = _m("01;00"), _m("10;00")
    c1, c2 = _m("11;00"), _m("10;01")
    sd = SymmetricDecomposition(GroupId.CYCLIC, 2,
                                {"id": ((a, b, c1), (a, b, c2)), "delta": ()})
    out = canonicalize(sd)
    merged = SymmetricDecomposition(GroupId.CYCLIC, 2,
                                    {"id": ((a, b, c1 + c2),), "delta": ()})
    assert evaluate(out.expand()) == evaluate(sd.expand())
    assert evaluate(merged.expand()) == evaluate(sd.expand())
    assert out.counts()["id"] == 1


def test_merge_cancels_to_nothing():
    a, b, c = _m("01;00"), _m("10;00"), _m("00;01")
    sd = SymmetricDecomposition(GroupId.CYCLIC, 2,
                                {"id": ((a, b, c), (a, b, c)), "delta": ()})
    out = canonicalize(sd)
    assert out.counts() == {"id": 0, "delta": 0}
    assert evaluate(out.expand()) == 0


def test_fixed_id_orbit_collapses_to_delta():
    # (D, D, D) lists each triplet of the delta orbit of D three times.
    # Under cyc-t, the t kind, tried before delta, needs a symmetric S, so
    # it is skipped for a D that is not.
    for group, d in ((GroupId.CYCLIC, _m("10;01")), (GroupId.CYCLIC_TRANSPOSE, _m("10;10"))):
        sd = SymmetricDecomposition(group, 2, {"id": ((d, d, d),)})
        out = canonicalize(sd)
        assert {tag: reps for tag, reps in out.orbits.items() if reps} == {"delta": ((d,),)}
        assert evaluate(out.expand()) == evaluate(sd.expand())


def test_t_orbit_with_s_equal_h_collapses_to_full():
    s = _m("11;10")
    sd = SymmetricDecomposition(GroupId.CYCLIC_TRANSPOSE, 2,
                                {"t": ((s, s),)})
    assert check_canonical(sd) == ["t[0]: S equals H, a degenerate orbit"]
    out = canonicalize(sd)
    assert out.counts()["t"] == 0 and out.counts()["full"] == 1
    assert check_canonical(out) == []
    assert evaluate(out.expand()) == evaluate(sd.expand())


def test_degenerate_delta_cancels():
    sym = _m("01;10")  # equal to its transpose: the two triplets cancel
    sd = SymmetricDecomposition(GroupId.CYCLIC_TRANSPOSE, 2,
                                {"delta": ((sym,),)})
    out = canonicalize(sd)
    assert out.counts()["delta"] == 0
    assert evaluate(sd.expand()) == 0


def test_delta_normalized_below_transpose():
    d = _m("01;00")  # transpose 00;10 is lex smaller
    sd = SymmetricDecomposition(GroupId.CYCLIC_TRANSPOSE, 2,
                                {"delta": ((d,),)})
    out = canonicalize(sd)
    assert out.orbits["delta"] == ((_m("00;10"),),)
    assert check_canonical(out) == []


def test_check_canonical_flags_violations():
    # Representative that is not the lex minimum of its cyclic orbit.
    a, b, c = _m("00;10"), _m("10;00"), _m("01;00")
    good = SymmetricDecomposition(GroupId.CYCLIC, 2, {"id": ((a, b, c),)})
    assert check_canonical(good) == []
    rotated = SymmetricDecomposition(GroupId.CYCLIC, 2, {"id": ((b, c, a),)})
    assert any("lex minimum" in msg for msg in check_canonical(rotated))
    # Unsorted delta chain.
    unsorted = SymmetricDecomposition(GroupId.CYCLIC, 2, {
        "delta": ((_m("10;00"),), (_m("01;00"),))})
    assert any("increasing" in msg for msg in check_canonical(unsorted))
    # An all-zero representative breaks the encoder's non-zero clause even
    # where the lex order holds; one with only some zero roles does not.
    zero, a, b = _m("00;00"), _m("10;00"), _m("01;00")
    with_zero = SymmetricDecomposition(GroupId.TRIVIAL, 2,
                                       {"id": ((zero, zero, zero), (a, b, a))})
    assert check_canonical(with_zero) == ["id[0]: representative is zero"]
    partly_zero = SymmetricDecomposition(GroupId.TRIVIAL, 2, {"id": ((zero, b, a),)})
    assert check_canonical(partly_zero) == []


@pytest.mark.parametrize("group,n", [
    (GroupId.TRIVIAL, 3),
    (GroupId.CYCLIC, 3),
    (GroupId.CYCLIC_TRANSPOSE, 3),
    (GroupId.CYCLIC_SANDWICH, 3),
])
def test_canonicalize_properties_random(group, n):
    rng = random.Random(sum(map(ord, group.value)))
    for _ in range(1000):
        sd = random_symmetric_decomposition(rng, group, n)
        out = canonicalize(sd)
        # Preservation: same evaluated tensor.
        assert evaluate(out.expand()) == evaluate(sd.expand())
        # Monotonicity: rank never increases.
        assert out.total_rank() <= sd.total_rank()
        # Output satisfies every canonical-form constraint.
        assert check_canonical(out) == []
        # Idempotence.
        assert canonicalize(out) == out


def test_json_round_trip(tmp_path):
    rng = random.Random(9)
    sd = random_symmetric_decomposition(rng, GroupId.CYCLIC_TRANSPOSE, 3)
    obj = symmetric_to_json(sd)
    assert obj["group"] == "cyc-t" and obj["n"] == 3
    assert symmetric_from_json(obj) == sd
    path = tmp_path / "sd.json"
    dump_symmetric(sd, path)
    assert load_symmetric(path) == sd


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        symmetric_from_json({"group": "cyc", "n": 2, "orbits": {"t": []}})
