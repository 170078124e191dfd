import hashlib
import random
from collections import Counter
from itertools import product

import pytest

from mmtsat import boolexpr as bx
from mmtsat.canonical import canonicalize, check_canonical
from mmtsat.encoder import (
    DecodeError,
    VarMap,
    _equation_entries,
    _lift,
    build_symbolic_orbits,
    decode,
    encode,
    symmetry_breaking,
)
from mmtsat.symmetry import GroupId, expand, kind_by_tag, orbit_kinds, scheme
from mmtsat.tensor import mm_tensor, verify

from conftest import random_symmetric_decomposition


def test_primary_variable_counts():
    # cyc-t full orbit: one symmetric 3x3 matrix = 6 triangle variables.
    _, varmap, _ = build_symbolic_orbits(GroupId.CYCLIC_TRANSPOSE, 3, {"full": 1})
    assert len(varmap.primary) == 6
    # cyc delta orbit: one free 3x3 matrix.
    _, varmap, _ = build_symbolic_orbits(GroupId.CYCLIC, 3, {"delta": 1})
    assert len(varmap.primary) == 9
    # cyc id orbit: three free 3x3 matrices.
    _, varmap, _ = build_symbolic_orbits(GroupId.CYCLIC, 3, {"id": 1})
    assert len(varmap.primary) == 27
    # cyc-t t orbit: symmetric S (6) plus free H (9).
    _, varmap, _ = build_symbolic_orbits(GroupId.CYCLIC_TRANSPOSE, 3, {"t": 1})
    assert len(varmap.primary) == 15


def test_variable_numbering_deterministic_order():
    _, varmap, _ = build_symbolic_orbits(GroupId.CYCLIC, 2,
                                         {"id": 1, "delta": 2})
    assert [e.var for e in varmap.primary] == list(range(1, len(varmap.primary) + 1))
    # Kinds appear in group order (id before delta), roles row-major.
    labels = [(e.orbit, e.index, e.mat, e.row, e.col) for e in varmap.primary]
    assert labels[0] == ("id", 0, "A", 0, 0)
    assert labels[1] == ("id", 0, "A", 0, 1)
    assert labels[4] == ("id", 0, "B", 0, 0)
    assert labels[12] == ("delta", 0, "D", 0, 0)
    assert labels[16] == ("delta", 1, "D", 0, 0)
    assert varmap.aux_start == len(varmap.primary) + 1


def test_f_commutation_side_constraints_emitted():
    _, _, side = build_symbolic_orbits(GroupId.CYCLIC_SANDWICH, 3, {"full": 1})
    assert len(side) == 9  # one equation per matrix entry
    _, _, side = build_symbolic_orbits(GroupId.CYCLIC_SANDWICH, 3, {"sw": 1})
    assert len(side) == 27
    _, _, side = build_symbolic_orbits(GroupId.CYCLIC, 2, {"id": 1})
    assert side == []


def test_encode_rejects_empty_combo():
    with pytest.raises(ValueError):
        encode(GroupId.CYCLIC, 2, {})
    with pytest.raises(ValueError):
        encode(GroupId.CYCLIC, 2, {"id": -1})


def test_encode_is_deterministic():
    combo = {"id": 1, "delta": 2}
    cnf1, vm1 = encode(GroupId.CYCLIC, 2, combo)
    cnf2, vm2 = encode(GroupId.CYCLIC, 2, combo)
    assert cnf1.to_dimacs() == cnf2.to_dimacs()
    assert vm1.to_json() == vm2.to_json()


def test_comment_legend_names_primary_variables():
    cnf, varmap = encode(GroupId.CYCLIC, 2, {"delta": 1})
    text = cnf.to_dimacs()
    assert "c var 1 = delta[0].D[0][0]" in text
    assert f"c aux vars start at {varmap.aux_start}" in text


def test_varmap_json_round_trip(tmp_path):
    _, varmap = encode(GroupId.CYCLIC_TRANSPOSE, 2, {"t": 1, "full": 1})
    path = tmp_path / "vm.json"
    varmap.write(path)
    back = VarMap.load(path)
    assert back.to_json() == varmap.to_json()
    obj = varmap.to_json()
    assert set(obj) == {"primary", "aux_start"}
    assert set(obj["primary"][0]) == {"var", "orbit", "index", "mat", "row", "col"}


def _model_from_symmetric(sd, varmap):
    model = {}
    for e in varmap.primary:
        mat_index = kind_by_tag(sd.group, e.orbit).roles.index(e.mat)
        rep = sd.orbits[e.orbit][e.index]
        model[e.var] = bool(rep[mat_index].get(e.row, e.col))
    return model


def test_decode_round_trip_through_primary_variables():
    rng = random.Random(77)
    for group, n in [(GroupId.CYCLIC, 2), (GroupId.CYCLIC_TRANSPOSE, 3),
                     (GroupId.CYCLIC_SANDWICH, 3), (GroupId.TRIVIAL, 2)]:
        for _ in range(20):
            sd = random_symmetric_decomposition(rng, group, n)
            counts = {tag: c for tag, c in sd.counts().items() if c}
            if not counts:
                continue
            _, varmap, _ = build_symbolic_orbits(group, n, counts)
            model = _model_from_symmetric(sd, varmap)
            back_sd, back_d = decode(model, varmap, group, n)
            assert back_sd == sd
            assert back_d == sd.expand()


def test_decode_requires_all_primaries():
    _, varmap = encode(GroupId.CYCLIC, 2, {"delta": 1})
    with pytest.raises(DecodeError):
        decode({}, varmap, GroupId.CYCLIC, 2)


def test_decode_rejects_a_varmap_of_another_layout():
    _, varmap = encode(GroupId.CYCLIC_TRANSPOSE, 2, {"t": 1})
    model = {e.var: True for e in varmap.primary}
    with pytest.raises(DecodeError, match="layout"):
        decode(model, varmap, GroupId.CYCLIC, 2)
    varmap.primary.pop()
    with pytest.raises(DecodeError, match="layout"):
        decode(model, varmap, GroupId.CYCLIC_TRANSPOSE, 2)


def test_decode_rejects_a_broken_side_condition():
    # The all-ones U is not F-commuting: a solver fault, not an encoder one.
    _, varmap = encode(GroupId.CYCLIC_SANDWICH, 3, {"full": 1})
    model = {e.var: True for e in varmap.primary}
    with pytest.raises(DecodeError, match="U must be F-commuting"):
        decode(model, varmap, GroupId.CYCLIC_SANDWICH, 3)


def _entries(n):
    return list(product(product(range(n), repeat=2), repeat=3))


def test_equation_entries_counts_and_order():
    kept = {g: [x for x, rep in _equation_entries(g, 3).items() if x == rep]
            for g in GroupId}
    assert {g.value: len(k) for g, k in kept.items()} == \
        {"none": 729, "cyc": 249, "cyc-t": 138, "cyc-sw": 249}
    for n in (2, 3):
        assert list(_equation_entries(GroupId.TRIVIAL, n).items()) == \
            [(x, x) for x in _entries(n)]
    for g in GroupId:
        # Kept entries come in row-major order, each first in its orbit.
        assert kept[g] == sorted(kept[g])
        assert all(rep <= x for x, rep in _equation_entries(g, 3).items())


def _equation_key(triplets, target, entry):
    """The target bit and the multiset of AND-term cell multisets."""
    (a, b), (c, d), (e, f) = entry
    return (target.get(a, b, c, d, e, f),
            Counter(tuple(sorted(map(repr, (ta[a][b], tb[c][d], tc[e][f]))))
                    for ta, tb, tc in triplets))


@pytest.mark.parametrize("group,n", [
    (GroupId.TRIVIAL, 2), (GroupId.CYCLIC, 2), (GroupId.CYCLIC_TRANSPOSE, 2),
    (GroupId.TRIVIAL, 3), (GroupId.CYCLIC, 3), (GroupId.CYCLIC_TRANSPOSE, 3),
    (GroupId.CYCLIC_SANDWICH, 3),
])
def test_equation_quotient_drops_only_repeated_equations(group, n):
    # Each entry's tensor equation over the expanded symbolic triplets is
    # the equation of its orbit representative, so the quotient CNF has
    # the same models as the full one.
    tags = [kind.tag for kind in orbit_kinds(group)]
    combos = [{tag: 1} for tag in tags]
    combos.append({tag: 2 if i == 0 else 1 for i, tag in enumerate(tags)})
    image = _lift(scheme(group).image, n)
    target = mm_tensor(n, n, n)
    quotient = _equation_entries(group, n)
    for combo in combos:
        reps, _, _ = build_symbolic_orbits(group, n, combo)
        triplets = [trip for kind in orbit_kinds(group) for rep in reps[kind.tag]
                    for trip in expand(kind, rep, image)]
        for entry, rep in quotient.items():
            assert _equation_key(triplets, target, entry) == \
                _equation_key(triplets, target, rep), (combo, entry, rep)


@pytest.mark.parametrize("group,n", [
    (GroupId.TRIVIAL, 2),
    (GroupId.CYCLIC, 2),
    (GroupId.CYCLIC_TRANSPOSE, 3),
    (GroupId.CYCLIC_SANDWICH, 3),
])
def test_symmetry_breaking_agrees_with_check_canonical(group, n):
    # A decomposition passes check_canonical exactly when its primaries
    # satisfy every symmetry-breaking constraint the encoder emits.
    rng = random.Random(sum(map(ord, group.value)) + 5)
    seen = set()
    for _ in range(150):
        raw = random_symmetric_decomposition(rng, group, n, max_per_kind=3)
        for sd in (raw, canonicalize(raw)):
            reps, varmap, _ = build_symbolic_orbits(group, n, sd.counts())
            model = _model_from_symmetric(sd, varmap)
            encoded = all(bx.evaluate(e, model)
                          for e in symmetry_breaking(group, n, reps))
            canonical = check_canonical(sd) == []
            assert encoded == canonical, sd
            seen.add(canonical)
    assert seen == {True, False}


# SHA-256 of the DIMACS text, one combo per group.  A deliberate change
# to the CNF updates these pins.
@pytest.mark.parametrize("group,n,combo,digest", [
    (GroupId.TRIVIAL, 2, {"id": 7},
     "af3dd8e1c9b58254726cf3efcf49eeb8cb4b2207eb8c08d89406418c8cadf128"),
    (GroupId.CYCLIC, 2, {"id": 2, "delta": 1},
     "9de621b75a66e959e3d126d714599e70b30409b659c788f0b6836220b79e570a"),
    (GroupId.CYCLIC_TRANSPOSE, 3, {"id": 1, "t": 1, "delta": 1, "full": 1},
     "d3d8847bbac7e5121aabb44be7fb95c035cb2e18c7bced8ea893e2a648ed042d"),
    (GroupId.CYCLIC_SANDWICH, 3, {"id": 1, "sw": 1, "delta": 1, "full": 1},
     "6b3fe966213219e1ddb80e54942c96efd60eedcfe4c1c089dd7961fa383278ae"),
], ids=["none", "cyc", "cyc-t", "cyc-sw"])
def test_cnf_pinned(group, n, combo, digest):
    cnf, _ = encode(group, n, combo)
    assert hashlib.sha256(cnf.to_dimacs().encode()).hexdigest() == digest


@pytest.mark.parametrize("group,n,combo", [
    (GroupId.CYCLIC, 2, {"id": 2, "delta": 1}),
    (GroupId.TRIVIAL, 2, {"id": 7}),
])
def test_solver_model_decodes_to_valid_decomposition(group, n, combo, solver_cmd, tmp_path):
    from mmtsat.driver import run_solver
    from mmtsat.symmetry import is_group_symmetric

    cnf, varmap = encode(group, n, combo)
    path = tmp_path / "inst.cnf"
    cnf.write(path)
    result, model = run_solver(solver_cmd, str(path), timeout=300)
    assert result == "sat"
    sd, d = decode(model, varmap, group, n)
    assert verify(d)
    assert is_group_symmetric(d, group)
    assert check_canonical(sd) == []
    assert d.rank == 7
