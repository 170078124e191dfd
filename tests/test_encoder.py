import dataclasses
import hashlib
import importlib.util
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from itertools import product
from pathlib import Path

import pytest

from mmtsat import boolexpr
from mmtsat.boolexpr import CnfBuilder, CnfInstance, fold_products
from mmtsat.canonical import SymmetricDecomposition, canonicalize, check_canonical
from mmtsat.encoder import (
    DecodeError,
    VarMap,
    _block,
    _equation_entries,
    _lift,
    _support,
    build_symbolic_orbits,
    cell_literals,
    decode,
    encode,
    nonzero_representatives,
    symmetry_breaking,
    tensor_equations,
)
from mmtsat.driver import enumerate_combos
from mmtsat.gf2 import Gf2Matrix, entry_terms, fixed_space
from mmtsat.span import certificate, refute
from mmtsat.symmetry import (
    GroupId,
    expand,
    kind_by_tag,
    orbit_kinds,
    scheme,
)
from mmtsat.tensor import evaluate, flat_index, mm_tensor, verify

from conftest import (
    present_kinds,
    propagate,
    random_symmetric_decomposition,
)


def _read(mask, model):
    """A cell's value under a model: the parity of its mask's primaries
    that are true."""
    bits = sum(1 << v for v, value in model.items() if value)
    return (mask & bits).bit_count() & 1


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


@pytest.mark.parametrize("group,tag,n", [
    pytest.param(GroupId.CYCLIC, "delta", 2, id="free-2"),
    pytest.param(GroupId.CYCLIC, "delta", 3, id="free-3"),
    pytest.param(GroupId.CYCLIC_TRANSPOSE, "full", 2, id="symmetric-2"),
    pytest.param(GroupId.CYCLIC_TRANSPOSE, "full", 3, id="symmetric-3"),
    pytest.param(GroupId.CYCLIC_SANDWICH, "full", 3, id="F-commuting-3"),
])
def test_role_spans_exactly_its_fixed_space(group, tag, n):
    # A one-role orbit kind: over every assignment of its primaries the
    # role's matrix runs through each matrix of its space exactly once
    # (all of them for a free role, those the group's image op fixes for
    # a fixed one), and each primary's labelled cell equals that primary.
    (fixed,) = kind_by_tag(group, tag).fixed
    reps, varmap = build_symbolic_orbits(group, n, {tag: 1})
    mat = reps[tag][0][0]
    span = set()
    for values in product((False, True), repeat=len(varmap.primary)):
        model = {e.var: v for e, v in zip(varmap.primary, values)}
        m = Gf2Matrix.from_rows([[_read(c, model) for c in row] for row in mat])
        assert all(m.get(e.row, e.col) == model[e.var] for e in varmap.primary)
        span.add(m.bits)
    assert span == _fixed_matrices(scheme(group).image if fixed else None, n)
    assert len(span) == 1 << len(varmap.primary)


def test_fixed_space_reduces_equations_that_share_cells():
    # m -> A m A^T: its equations share pivot cells, so both the forward
    # and the back elimination of fixed_space matter here.
    a = Gf2Matrix.parse("110;011;001")

    def op(m):
        return a * m * a.transpose()

    free, basis = fixed_space(tuple(product(range(3), repeat=2)), (entry_terms(op, 3),))
    span = set()
    for values in product((0, 1), repeat=len(free)):
        x = dict(zip(free, values))
        m = Gf2Matrix.from_rows([[sum(x[f] for f in basis[i * 3 + j]) % 2
                                  for j in range(3)] for i in range(3)])
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


def test_encode_rejects_a_negative_count():
    # The total rank is positive, so only the count check stands between
    # this combo and blocks stamped a negative number of times.
    with pytest.raises(ValueError, match="nonnegative"):
        encode(GroupId.CYCLIC, 2, {"id": 2, "delta": -1})


def test_encode_rejects_an_n_the_group_is_not_defined_at():
    with pytest.raises(ValueError, match="only defined for n = 3"):
        encode(GroupId.CYCLIC_SANDWICH, 2, {"id": 1})


def test_encode_is_deterministic():
    combo = {"id": 1, "delta": 2}
    cnf1, vm1 = encode(GroupId.CYCLIC, 2, combo)
    cnf2, vm2 = encode(GroupId.CYCLIC, 2, combo)
    assert cnf1.to_dimacs() == cnf2.to_dimacs()
    assert vm1.primary == vm2.primary


def test_comment_legend_names_primary_variables():
    # id=1,delta=1 is not refuted, so its CNF has primaries to name.
    cnf, varmap = encode(GroupId.CYCLIC, 2, {"id": 1, "delta": 1})
    text = cnf.to_dimacs()
    assert "c var 1 = id[0].A[0][0]" in text
    assert "c var 16 = delta[0].D[1][1]" in text
    assert f"c aux vars start at {varmap.aux_start}" in text


def test_a_refuted_combo_builds_no_orbit(monkeypatch):
    # The refutation comes first: a refuted combo's encode never builds
    # symbolic orbits, while a live combo's does.
    import mmtsat.encoder as encoder

    def boom(*args):
        raise AssertionError("build_symbolic_orbits called")

    monkeypatch.setattr(encoder, "build_symbolic_orbits", boom)
    cnf, varmap = encode(GroupId.CYCLIC, 2, {"delta": 1})
    assert (cnf.num_vars, varmap.primary) == (0, [])
    with pytest.raises(AssertionError, match="build_symbolic_orbits called"):
        encode(GroupId.CYCLIC, 2, {"id": 1, "delta": 1})


def test_header_spells_every_kind_of_the_group():
    # One combo, one DIMACS text: the header names every kind, sorted by
    # tag, whether or not its zero count is given.
    short = encode(GroupId.CYCLIC_TRANSPOSE, 2, {"t": 2, "full": 1})[0].to_dimacs()
    spelled = encode(GroupId.CYCLIC_TRANSPOSE, 2,
                     {"id": 0, "t": 2, "delta": 0, "full": 1})[0].to_dimacs()
    assert short == spelled
    assert short.startswith("c mmtsat group=cyc-t n=2 combo=delta=0,full=1,id=0,t=2 rank=7\n")


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
    _, varmap = encode(GroupId.CYCLIC, 2, {"id": 1, "delta": 1})
    with pytest.raises(DecodeError):
        decode({}, varmap, GroupId.CYCLIC, 2)


def test_decode_rejects_a_varmap_of_another_layout():
    _, varmap = encode(GroupId.CYCLIC_TRANSPOSE, 2, {"t": 1, "delta": 1, "full": 1})
    model = {e.var: True for e in varmap.primary}
    with pytest.raises(DecodeError, match="layout"):
        decode(model, varmap, GroupId.CYCLIC, 2)
    varmap.primary.pop()
    with pytest.raises(DecodeError, match="layout"):
        decode(model, varmap, GroupId.CYCLIC_TRANSPOSE, 2)
    # The same labels, each one variable further on: a model read through
    # it would give every cell its neighbour's value.
    _, varmap = encode(GroupId.CYCLIC, 2, {"id": 1, "delta": 1})
    shifted = VarMap([dataclasses.replace(e, var=e.var + 1) for e in varmap.primary])
    with pytest.raises(DecodeError, match="^variable map does not match the encoder's layout$"):
        decode({e.var: True for e in shifted.primary}, shifted, GroupId.CYCLIC, 2)


def _entries(n):
    return tuple(product(product(range(n), repeat=2), repeat=3))


def test_equation_entries_counts_and_order():
    free = {g: _equation_entries(g, 3)[0] for g in GroupId}
    assert {g.value: len(f) for g, f in free.items()} == \
        {"none": 729, "cyc": 249, "cyc-t": 138, "cyc-sw": 125}
    for n in (2, 3):
        assert _equation_entries(GroupId.TRIVIAL, n) == \
            (_entries(n), tuple((x,) for x in _entries(n)))
    for g in GroupId:
        # Kept entries come in row-major order, and every entry is the
        # XOR of kept entries no later than itself.
        kept, basis = _equation_entries(g, 3)
        assert list(kept) == sorted(kept)
        assert all(f in kept and f <= x
                   for x, fs in zip(_entries(3), basis) for f in fs)


def _monomials(mask):
    """A cell's terms as monomials: 1 << v for primary v, 0 for the constant."""
    return [1 << v for v in range(1, mask.bit_length()) if mask >> v & 1] + [0] * (mask & 1)


def _equation_anf(triplets, target, n, entry):
    """The residual at `entry` in algebraic normal form: the set of
    monomials, each a mask of primaries (0 is the constant 1)."""
    (a, b), (c, d), (e, f) = entry
    terms = Counter(x | y | z for ta, tb, tc in triplets
                    for x in _monomials(ta[a][b]) for y in _monomials(tb[c][d])
                    for z in _monomials(tc[e][f]))
    terms[0] += target >> flat_index(n, n, n, a, b, c, d, e, f) & 1
    return frozenset(m for m, k in terms.items() if k % 2)


@pytest.mark.parametrize("group,n", [
    (GroupId.TRIVIAL, 2), (GroupId.CYCLIC, 2), (GroupId.CYCLIC_TRANSPOSE, 2),
    (GroupId.TRIVIAL, 3), (GroupId.CYCLIC, 3), (GroupId.CYCLIC_TRANSPOSE, 3),
    (GroupId.CYCLIC_SANDWICH, 3),
])
def test_equation_quotient_drops_only_repeated_equations(group, n):
    # Each dropped equation repeats kept ones linearly: over the expanded
    # symbolic triplets, each entry's tensor equation, as a polynomial in
    # the primaries, is the XOR of the equations at the kept entries its
    # basis names, so the kept equations have the same models as the
    # full set.
    tags = [kind.tag for kind in orbit_kinds(group)]
    combos = [{tag: 1} for tag in tags]
    combos.append({tag: 2 if i == 0 else 1 for i, tag in enumerate(tags)})
    image = _lift(scheme(group).image, n)
    target = mm_tensor(n, n, n)
    _, basis = _equation_entries(group, n)
    for combo in combos:
        reps, _ = build_symbolic_orbits(group, n, combo)
        triplets = [trip for kind in orbit_kinds(group) for rep in reps[kind.tag]
                    for trip in expand(kind, rep, image)]
        anf = {x: _equation_anf(triplets, target, n, x) for x in _entries(n)}
        for x, fs in zip(_entries(n), basis):
            assert anf[x] == reduce(frozenset.symmetric_difference,
                                    (anf[f] for f in fs), frozenset()), (combo, x)


def _gf2_rank(vectors):
    rows = {}  # top bit -> reduced vector
    for v in vectors:
        while v and v.bit_length() in rows:
            v ^= rows[v.bit_length()]
        if v:
            rows[v.bit_length()] = v
    return len(rows)


@pytest.mark.parametrize("group", list(GroupId), ids=lambda g: g.value)
def test_residuals_span_exactly_the_kept_entries(group):
    # The residuals of symmetric decompositions span a space of dimension
    # len(kept), and projecting them onto the kept entries keeps that
    # rank: the kept equations are zero only where the residual is.
    # A third of the `none` samples have no orbit and repeat the bare
    # target, so twice as many samples as kept entries are drawn.
    rng = random.Random(sum(map(ord, group.value)) + 11)
    kept, _ = _equation_entries(group, 3)
    target = mm_tensor(3, 3, 3)
    on_kept = sum(1 << flat_index(3, 3, 3, a, b, c, d, e, f)
                  for (a, b), (c, d), (e, f) in kept)
    residuals = [evaluate(random_symmetric_decomposition(rng, group, 3).expand())
                 ^ target for _ in range(2 * len(kept) + 64)]
    assert _gf2_rank(residuals) == len(kept)
    assert _gf2_rank(r & on_kept for r in residuals) == len(kept)


@pytest.mark.parametrize("group", list(GroupId), ids=lambda g: g.value)
def test_kept_equation_holds_exactly_where_the_residual_is_zero(group):
    # Each kept entry's equation alone, compiled to clauses: under random
    # primaries of the mixed combo, propagation hits a conflict exactly
    # where the decoded decomposition's residual has a 1.
    rng = random.Random(sum(map(ord, group.value)) + 17)
    tags = [kind.tag for kind in orbit_kinds(group)]
    combo = {tag: 2 if i == 0 else 1 for i, tag in enumerate(tags)}
    reps, varmap = build_symbolic_orbits(group, 3, combo)
    equations = list(tensor_equations(group, 3, reps))
    target = mm_tensor(3, 3, 3)
    outcomes = Counter()
    for _ in range(8):
        model = {e.var: rng.random() < 0.5 for e in varmap.primary}
        _, d = decode(model, varmap, group, 3)
        residual = evaluate(d) ^ target
        for entry, products, bit in equations:
            builder = CnfBuilder(varmap.aux_start - 1)
            lit = cell_literals(builder)
            builder.assert_parity([tuple(map(lit, p)) for p in products], bit)
            conflict = not propagate(builder.clauses, model)
            assert conflict == bool(residual >> flat_index(3, 3, 3, *sum(entry, ())) & 1)
            outcomes[conflict] += 1
    assert min(outcomes.values()) >= 100, outcomes


@pytest.mark.parametrize("group,n", [
    (GroupId.TRIVIAL, 2),
    (GroupId.CYCLIC, 2),
    (GroupId.CYCLIC_TRANSPOSE, 3),
    (GroupId.CYCLIC_SANDWICH, 3),
])
def test_symmetry_breaking_agrees_with_check_canonical(group, n):
    # A decomposition passes check_canonical exactly when its primaries
    # satisfy the non-zero clauses and every symmetry-breaking constraint
    # the encoder emits.
    rng = random.Random(sum(map(ord, group.value)) + 5)
    seen = set()
    degenerate = 0
    for _ in range(150):
        raw = random_symmetric_decomposition(rng, group, n, max_per_kind=3)
        for sd in (raw, canonicalize(raw), *_with_equal_distinct_roles(raw)):
            reps, varmap = build_symbolic_orbits(group, n, sd.counts())
            model = _model_from_symmetric(sd, varmap)
            builder = CnfBuilder(varmap.aux_start - 1)
            nonzero_representatives(builder, varmap)
            symmetry_breaking(builder, group, n, reps)
            encoded = propagate(builder.clauses, model)
            violations = check_canonical(sd)
            assert encoded == (violations == []), sd
            seen.add(violations == [])
            degenerate += any("degenerate" in v for v in violations)
    assert seen == {True, False}
    assert (degenerate > 0) == any(kind.distinct for kind in orbit_kinds(group))


def _with_equal_distinct_roles(sd):
    """sd and its canonical form with the first representative of a kind
    with distinct roles given equal matrices there (the first role's,
    whose side condition the second role's space contains), or nothing
    when it has no such representative: random draws never give one."""
    for kind in orbit_kinds(sd.group):
        reps = sd.orbits.get(kind.tag, ())
        if kind.distinct and reps:
            r, s = kind.distinct
            rep = list(reps[0])
            rep[s] = rep[r]
            sd = dataclasses.replace(sd, orbits={**sd.orbits,
                                                 kind.tag: (tuple(rep), *reps[1:])})
            return [sd, canonicalize(sd)]
    return []


def test_degenerate_t_orbit_conflicts():
    # Strassen's cyc-t canonical form (t=2, full=1) with its full orbit Z
    # written as the t orbit (Z, Z): the same tensor in combo t=3, with
    # (Z, Z, Z) listed three times.  Its primaries must conflict, and
    # check_canonical must name the degenerate orbit.
    m, group = Gf2Matrix.parse, GroupId.CYCLIC_TRANSPOSE
    z = m("10;01")
    strassen = SymmetricDecomposition(group, 2, {
        "t": ((m("10;00"), m("01;01")), (m("00;01"), m("10;10"))), "full": ((z,),)})
    rewritten = SymmetricDecomposition(group, 2, {
        "t": ((m("10;00"), m("01;01")), (z, z), (m("00;01"), m("10;10")))})
    assert verify(strassen.expand()) and verify(rewritten.expand())
    assert check_canonical(strassen) == []
    assert check_canonical(rewritten) == ["t[1]: S equals H, a degenerate orbit"]
    assert canonicalize(rewritten) == canonicalize(strassen)
    for sd, canonical in ((strassen, True), (rewritten, False)):
        cnf, varmap = encode(group, 2, sd.counts())
        assert propagate(cnf.clauses, _model_from_symmetric(sd, varmap)) == canonical


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


# -- blocks: each kind compiled once, stamped per representative -------------


def _direct_tensor_equations(group, n, combo):
    """A builder holding the tensor equations compiled entry by entry,
    each through assert_parity, over the whole combo."""
    reps, varmap = build_symbolic_orbits(group, n, combo)
    builder = CnfBuilder(varmap.aux_start - 1)
    lit = cell_literals(builder)
    for _, products, bit in tensor_equations(group, n, reps):
        builder.assert_parity([tuple(map(lit, p)) for p in products], bit)
    return builder, reps, varmap


def _direct_encode(group, n, combo, comments):
    builder, reps, varmap = _direct_tensor_equations(group, n, combo)
    nonzero_representatives(builder, varmap)
    symmetry_breaking(builder, group, n, reps)
    return CnfInstance(builder.num_vars, builder.clauses, comments)


def _solo_entries(group, n, combo):
    """Per kind, the kept entries where exactly one product of the whole
    combo survives folding and it belongs to that kind."""
    reps, varmap = build_symbolic_orbits(group, n, combo)
    orbit = {e.var: e.orbit for e in varmap.primary}
    solo = {tag: set() for tag, count in combo.items() if count}
    for i, (_, products, _) in enumerate(tensor_equations(group, n, reps)):
        odd, _ = fold_products(products, 0)  # cell masks, one bit per primary
        if len(odd) == 1:
            mask = odd[0][0]
            solo[orbit[(mask & -mask).bit_length() - 1]].add(i)
    return {tag: frozenset(entries) for tag, entries in solo.items()}


def _lex_reuses_a_gate(group, n, combo):
    """Whether the symmetry-breaking constraints use a gate the tensor
    equations built: they then allocate fewer variables after them."""
    builder, reps, _ = _direct_tensor_equations(group, n, combo)
    fresh = CnfBuilder(builder.num_vars)
    before = builder.num_vars
    symmetry_breaking(builder, group, n, reps)
    symmetry_breaking(fresh, group, n, reps)
    return builder.num_vars - before < fresh.num_vars - before


def _stamping_combos():
    rng = random.Random(12)
    out = []
    for group in GroupId:
        combos = [s.counts_dict() for s in enumerate_combos(group, 12) if s.total_rank()]
        picked = rng.sample(combos, 4)
        picked.append(rng.choice([c for c in combos if 1 in c.values()]))
        picked.append(rng.choice([c for c in combos if sum(c.values()) == 1]))
        for c in picked:
            if (group, c) not in out:
                out.append((group, c))
    return out


# Combos that no span certificate refutes in each cyc group at n=3.  A
# count certificate refutes the cyc-t ones with t=1 or t=2 and no full,
# so they are checked as such, and cyc-t id=1,t=2,full=1 is compiled.
# Of the compiled ones, cyc-sw sw=1 with delta=1 has solo entries beside
# other kinds' products.  The random picks above lack id in most, so they
# compile their tensor equations only for none, cyc id=1 and cyc-sw id=1.
_STAMPING_COMBOS = _stamping_combos() + [
    (GroupId.CYCLIC, {"id": 3, "delta": 1}),
    (GroupId.CYCLIC_TRANSPOSE, {"id": 1, "t": 1, "delta": 1, "full": 0}),
    (GroupId.CYCLIC_TRANSPOSE, {"id": 1, "t": 2, "delta": 0, "full": 0}),
    (GroupId.CYCLIC_TRANSPOSE, {"id": 1, "t": 2, "delta": 0, "full": 1}),
    (GroupId.CYCLIC_SANDWICH, {"id": 1, "sw": 1, "delta": 1, "full": 0}),
]


def test_stamping_combos_cover_solo_entries_and_shared_gates():
    # Among the combos that are compiled: solo entries, also beside other
    # kinds' products, and symmetry breaking that reuses a stamped
    # cell-XOR gate.  Only cyc-sw has such gates: transposition permutes
    # cells, so every cell of the other groups is one primary.
    compiled = [(g, c) for g, c in _STAMPING_COMBOS if refute(g, 3, c) is None]
    assert (GroupId.CYCLIC_TRANSPOSE, {"id": 1, "t": 2, "delta": 0, "full": 1}) in compiled
    solo = [(g, c) for g, c in compiled if any(_solo_entries(g, 3, c).values())]
    assert any(sum(map(bool, c.values())) > 1 for _, c in solo)
    assert any(_lex_reuses_a_gate(g, 3, c) for g, c in compiled
               if g is GroupId.CYCLIC_SANDWICH)


def _assert_lone_empty_clause(cnf, varmap, group, n, combo):
    """The CNF of a combo that `span.refute` rules out: four lines, the
    header, a comment giving the refutation's detail, and the empty
    clause over no variable, with an empty varmap.
    A span certificate's entries are kept entries, and the XOR of the
    combo's own tensor equations there, as polynomials in its primaries,
    is 0 = 1; `tests/test_span.py` re-derives each count certificate."""
    refutation = refute(group, n, combo)
    assert refutation is not None
    if refutation.rule == "span":
        phi = certificate(group, n, present_kinds(group, combo))
        assert set(phi) <= set(_equation_entries(group, n)[0])
        reps, _ = build_symbolic_orbits(group, n, combo)
        image = _lift(scheme(group).image, n)
        triplets = [trip for kind in orbit_kinds(group) for rep in reps[kind.tag]
                    for trip in expand(kind, rep, image)]
        target = mm_tensor(n, n, n)
        assert reduce(frozenset.symmetric_difference,
                      (_equation_anf(triplets, target, n, entry) for entry in phi)) == {0}
    assert list(cnf.clauses) == [()]
    assert cnf.num_vars == len(varmap.primary) == 0
    header, *rest = cnf.to_dimacs().splitlines()
    assert header.startswith(f"c mmtsat group={group.value} n={n} combo=")
    assert rest == ["c empty clause: " + refutation.detail, "p cnf 0 1", "0"]


@pytest.mark.parametrize("group,combo", _STAMPING_COMBOS,
                         ids=[f"{g.value}-{','.join(f'{k}={v}' for k, v in c.items())}"
                              for g, c in _STAMPING_COMBOS])
def test_stamped_cnf_equals_direct_compilation(group, combo):
    # The same variables and the same clauses; only their order differs.
    # A combo that the span rule refutes (here every id=0 combo of the
    # cyc groups, and cyc-t id=1) or the count rule refutes (cyc-t t=1 or
    # t=2 without full) is the empty clause alone, checked as such
    # instead.
    cnf, varmap = encode(group, 3, combo)
    if refute(group, 3, combo) is not None:
        _assert_lone_empty_clause(cnf, varmap, group, 3, combo)
        return
    direct = _direct_encode(group, 3, combo, cnf.comments)
    text, direct_text = cnf.to_dimacs(), direct.to_dimacs()
    assert text[:text.index("p cnf ")] == direct_text[:direct_text.index("p cnf ")]
    assert cnf.num_vars == direct.num_vars
    assert (() in cnf.clauses) == (() in direct.clauses)
    assert sorted(cnf.clauses) == sorted(direct.clauses)


def _census_combos():
    spec = importlib.util.spec_from_file_location(
        "cnf_sizes", Path(__file__).resolve().parent.parent / "tools" / "cnf_sizes.py")
    cnf_sizes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cnf_sizes)
    return [(group, n, s.counts_dict()) for group, n, max_rank in cnf_sizes.CENSUS
            for s in enumerate_combos(group, max_rank) if s.total_rank()]


def test_span_check_agrees_with_direct_compilation():
    # On every census combo, encode gives the lone empty clause exactly
    # when `span.refute` rules the combo out, and the
    # combos each rule decides are pinned.  Every other combo has no
    # target-1 entry where no product survives, so its entry-major
    # assert_parity reference holds no empty clause either, and its solo
    # entries read from the blocks' widths are those of folding the whole
    # combo's cell masks.
    combos = _census_combos()
    assert len(combos) == 456
    decided = Counter()
    for group, n, combo in combos:
        cnf, varmap = encode(group, n, combo)
        tags = present_kinds(group, combo)
        refutation = refute(group, n, combo)
        if refutation is not None:
            _assert_lone_empty_clause(cnf, varmap, group, n, combo)
            decided[group.value, n, refutation.rule] += 1
            continue
        assert () not in cnf.clauses, (group, n, combo)
        assert () not in _direct_encode(group, n, combo, cnf.comments).clauses
        expected = _solo_entries(group, n, combo)
        assert {tag: solo for tag, solo in zip(tags, _support(group, n, tags))
                if combo[tag] == 1} == \
            {tag: expected[tag] for tag in tags if combo[tag] == 1}, (group, n, combo)
    assert decided == {("cyc", 2, "span"): 7, ("cyc", 3, "span"): 7,
                       ("cyc-t", 2, "span"): 35, ("cyc-t", 3, "span"): 209,
                       ("cyc-sw", 3, "span"): 106,
                       ("none", 2, "count"): 2, ("cyc", 2, "count"): 2,
                       ("cyc-t", 2, "count"): 13, ("cyc-t", 3, "count"): 19}


def _immutable(value):
    if isinstance(value, (tuple, frozenset)):
        return all(map(_immutable, value))
    return type(value) is int


def test_blocks_are_built_once_and_immutable(monkeypatch):
    group, n = GroupId.CYCLIC_TRANSPOSE, 2
    combos = [s.counts_dict() for s in enumerate_combos(group, 9) if s.total_rank()]
    assert len(combos) == 59
    pairs = set()
    for combo in combos:
        solo = _solo_entries(group, n, combo)
        pairs |= {(tag, frozenset()) for tag in solo}
        pairs |= {(tag, entries) for tag, entries in solo.items() if combo[tag] == 1}
    _block.cache_clear()
    digests = [hashlib.sha256(encode(group, n, c)[0].to_dimacs().encode()).digest()
               for c in combos]
    assert 0 < _block.cache_info().misses <= len(pairs)
    for tag, solo in pairs:
        block = _block(group, n, tag, solo)
        assert all(_immutable(getattr(block, f.name)) for f in dataclasses.fields(block))
    with pytest.raises(dataclasses.FrozenInstanceError):
        block.lits = ()
    # Campaign workers share the cache and the DIMACS literal table:
    # threads that build and stamp the same blocks and grow the table at
    # once, switching often, give the same CNFs.
    _block.cache_clear()
    monkeypatch.setattr(boolexpr, "_LIT_TEXT", ["0\n"])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(
                lambda c: hashlib.sha256(encode(group, n, c)[0].to_dimacs().encode()).digest(),
                combos, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == digests


@pytest.mark.parametrize("group,n,combo", [
    (GroupId.TRIVIAL, 2, {"id": 7}),
    (GroupId.CYCLIC_SANDWICH, 3, {"id": 1, "sw": 1, "delta": 1, "full": 1}),
    # The target has a 1 at kept entries where the lone id representative
    # has no surviving product, so a span certificate refutes this combo
    # and its CNF is the empty clause.
    (GroupId.CYCLIC_TRANSPOSE, 2, {"id": 1, "t": 0, "delta": 0, "full": 0}),
], ids=["none", "cyc-sw", "cyc-t-empty-clause"])
def test_clause_view_rebuilds_the_same_instance(group, n, combo):
    inst, varmap = encode(group, n, combo)
    text = inst.to_dimacs()
    header = next(line for line in text.splitlines() if line.startswith("p cnf "))
    assert len(inst.clauses) == int(header.split()[3])
    clauses = list(inst.clauses)
    assert all(type(c) is tuple for c in clauses) and len(clauses) == len(inst.clauses)
    if () in clauses:
        # Refuted by a span certificate, so the empty clause is all it holds.
        _assert_lone_empty_clause(inst, varmap, group, n, combo)
        assert () in _direct_encode(group, n, combo, inst.comments).clauses
        assert inst.clauses[0:1] == clauses and inst.clauses.index(()) == 0
    else:
        assert inst.clauses[3:7] == clauses[3:7] and inst.clauses[-1] == clauses[-1]
        assert inst.clauses.index(clauses[5]) == clauses.index(clauses[5])
    rebuilt = CnfInstance(inst.num_vars, inst.clauses, inst.comments)
    assert rebuilt.to_dimacs() == text
    assert list(rebuilt.clauses) == clauses
    assert (() in clauses) == ("\n0\n" in text)
