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
    _fixed_space,
    _lift,
    build_symbolic_orbits,
    decode,
    encode,
    symmetry_breaking,
)
from mmtsat.gf2 import Gf2Matrix
from mmtsat.symmetry import (
    CONDITION_OPS,
    F_COMMUTING,
    FREE,
    SYMMETRIC,
    GroupId,
    expand,
    kind_by_tag,
    orbit_kinds,
    scheme,
)
from mmtsat.tensor import mm_tensor, verify

from conftest import random_symmetric_decomposition


def test_primary_variable_counts():
    # cyc-t full orbit: one symmetric 3x3 matrix = 6 triangle variables.
    _, varmap = build_symbolic_orbits(GroupId.CYCLIC_TRANSPOSE, 3, {"full": 1})
    assert len(varmap.primary) == 6
    # cyc delta orbit: one free 3x3 matrix.
    _, varmap = build_symbolic_orbits(GroupId.CYCLIC, 3, {"delta": 1})
    assert len(varmap.primary) == 9
    # cyc id orbit: three free 3x3 matrices.
    _, varmap = build_symbolic_orbits(GroupId.CYCLIC, 3, {"id": 1})
    assert len(varmap.primary) == 27
    # cyc-t t orbit: symmetric S (6) plus free H (9).
    _, varmap = build_symbolic_orbits(GroupId.CYCLIC_TRANSPOSE, 3, {"t": 1})
    assert len(varmap.primary) == 15
    # cyc-sw full orbit: one F-commuting matrix = 5 free cells; sw: three.
    _, varmap = build_symbolic_orbits(GroupId.CYCLIC_SANDWICH, 3, {"full": 1})
    assert len(varmap.primary) == 5
    _, varmap = build_symbolic_orbits(GroupId.CYCLIC_SANDWICH, 3, {"sw": 1})
    assert len(varmap.primary) == 15


def test_variable_numbering_deterministic_order():
    _, varmap = build_symbolic_orbits(GroupId.CYCLIC, 2, {"id": 1, "delta": 2})
    assert [e.var for e in varmap.primary] == list(range(1, len(varmap.primary) + 1))
    # Kinds appear in group order (id before delta), roles row-major.
    labels = [(e.orbit, e.index, e.mat, e.row, e.col) for e in varmap.primary]
    assert labels[0] == ("id", 0, "A", 0, 0)
    assert labels[1] == ("id", 0, "A", 0, 1)
    assert labels[4] == ("id", 0, "B", 0, 0)
    assert labels[12] == ("delta", 0, "D", 0, 0)
    assert labels[16] == ("delta", 1, "D", 0, 0)
    assert varmap.aux_start == len(varmap.primary) + 1


@pytest.mark.parametrize("condition,n", [
    (FREE, 2), (FREE, 3), (SYMMETRIC, 2), (SYMMETRIC, 3), (F_COMMUTING, 3),
])
def test_role_spans_exactly_its_fixed_space(condition, n):
    # A one-role orbit kind with this side condition: over every
    # assignment of its primaries the role's matrix runs through each
    # matrix the condition's map fixes exactly once, and each primary's
    # labelled cell equals that primary.
    group, kind = next((g, k) for g in GroupId for k in orbit_kinds(g)
                       if k.conditions == (condition,))
    reps, varmap = build_symbolic_orbits(group, n, {kind.tag: 1})
    mat = reps[kind.tag][0][0]
    span = set()
    for values in product((False, True), repeat=len(varmap.primary)):
        model = {e.var: v for e, v in zip(varmap.primary, values)}
        m = Gf2Matrix.from_rows([[int(bx.evaluate(c, model)) for c in row]
                                 for row in mat])
        assert all(m.get(e.row, e.col) == model[e.var] for e in varmap.primary)
        span.add(m.bits)
    assert span == _fixed_matrices(CONDITION_OPS[condition], n)
    assert len(span) == 1 << len(varmap.primary)


def test_fixed_space_reduces_equations_that_share_cells():
    # m -> A m A^T: its equations share pivot cells, so both the forward
    # and the back elimination of _fixed_space matter here.
    a = Gf2Matrix.parse("110;011;001")

    def op(m):
        return a * m * a.transpose()

    free, basis = _fixed_space(op, 3)
    span = set()
    for values in product((0, 1), repeat=len(free)):
        x = dict(zip(free, values))
        m = Gf2Matrix.from_rows([[sum(x[f] for f in terms) % 2 for terms in row]
                                 for row in basis])
        assert all(m.get(*f) == x[f] for f in free)
        span.add(m.bits)
    assert span == _fixed_matrices(op, 3)
    assert len(span) == 1 << len(free)


def _fixed_matrices(op, n):
    return {b for b in range(1 << n * n)
            if op is None or op(Gf2Matrix(n, n, b)) == Gf2Matrix(n, n, b)}


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
            _, varmap = build_symbolic_orbits(group, n, counts)
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
        reps, _ = build_symbolic_orbits(group, n, combo)
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
            reps, varmap = build_symbolic_orbits(group, n, sd.counts())
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
     "afb11f8ffe052a905d13dfff11205341a828d9ee0e020958de2378d6b8e7997b"),
    (GroupId.CYCLIC, 2, {"id": 2, "delta": 1},
     "536292cd22a9e5202237f6a07c75cdbca180e2128f1f8e54ee97f9c1ab6e0e3d"),
    (GroupId.CYCLIC_TRANSPOSE, 3, {"id": 1, "t": 1, "delta": 1, "full": 1},
     "656c89af675959ec366688336c2275eef1acad17266d7a02591b5e21a85d607e"),
    (GroupId.CYCLIC_SANDWICH, 3, {"id": 1, "sw": 1, "delta": 1, "full": 1},
     "6ab8db9fa40287acb03b1731aeb9f438d966d0a4448f5c1f9d3a195bbcf3ad44"),
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
