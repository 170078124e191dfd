import importlib.util
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import pytest

from mmtsat import span
from mmtsat.driver import enumerate_combos
from mmtsat.gf2 import Gf2Matrix
from mmtsat.oracle import brute_symmetric_feasible
from mmtsat.span import Refutation, certificate, count_refutes, kind_span, refute
from mmtsat.symmetry import GroupId, expand_orbit, kind_by_tag, orbit_kinds, scheme
from mmtsat.tensor import Decomposition, evaluate, flat_index, mm_tensor

from conftest import present_kinds

ROOT = Path(__file__).resolve().parent.parent

CASES = [(GroupId.TRIVIAL, 2), (GroupId.CYCLIC, 2), (GroupId.CYCLIC_TRANSPOSE, 2),
         (GroupId.TRIVIAL, 3), (GroupId.CYCLIC, 3), (GroupId.CYCLIC_TRANSPOSE, 3),
         (GroupId.CYCLIC_SANDWICH, 3)]


def _kind_sets(group):
    """Every nonempty set of the group's kinds, in the group's order."""
    tags = [kind.tag for kind in orbit_kinds(group)]
    return [s for size in range(1, len(tags) + 1) for s in combinations(tags, size)]


# -- the independent checker: no elimination, no encoder ----------------------


def _role_basis(group, n, fixed):
    """A basis of a role's matrices: the unit matrices for a free role;
    for a fixed one, each matrix the image op fixes that the ones taken
    before it do not span, the span held as a set of all its matrices."""
    if not fixed:
        return [Gf2Matrix(n, n, 1 << k) for k in range(n * n)]
    image = scheme(group).image
    basis, span = [], {0}
    for bits in range(1 << n * n):
        m = Gf2Matrix(n, n, bits)
        if image(m) == m and bits not in span:
            basis.append(m)
            span |= {x ^ bits for x in span}
    return basis


@lru_cache
def _orbit_tensors(group, n, tag):
    """The orbit tensor at every point of Hamming weight 1 to 3 over a
    basis of kind tag's representative space."""
    kind = kind_by_tag(group, tag)
    coords = [(role, m) for role, fixed in enumerate(kind.fixed)
              for m in _role_basis(group, n, fixed)]
    tensors = []
    for weight in (1, 2, 3):
        for point in combinations(coords, weight):
            rep = [Gf2Matrix(n, n, 0)] * kind.arity
            for role, m in point:
                rep[role] = rep[role] + m
            orbit = expand_orbit(group, tag, tuple(rep))
            tensors.append(evaluate(Decomposition(n, n, n, tuple(orbit))))
    return tuple(tensors)


def _certifies(group, n, tags, phi):
    """Whether phi has odd parity on the target and even parity on the
    orbit tensor at every weight-3-or-less point of every kind in tags.
    Each entry of an orbit tensor is a polynomial of degree at most 3 in
    the point's coordinates, so then phi has even parity on every orbit
    tensor of those kinds."""
    target = mm_tensor(n, n, n)
    mask = sum(1 << flat_index(n, n, n, *sum(entry, ())) for entry in set(phi))
    return ((target & mask).bit_count() % 2 == 1
            and all((t & mask).bit_count() % 2 == 0
                    for tag in tags for t in _orbit_tensors(group, n, tag)))


# -- the rule, pinned -------------------------------------------------------------


def _spans_target(group, n, tags):
    """The kind sets whose orbit tensors span <n,n,n>, per group and n."""
    tags = set(tags)
    if group is GroupId.TRIVIAL:
        return True
    if group is GroupId.CYCLIC:
        return "id" in tags
    if group is GroupId.CYCLIC_TRANSPOSE:
        return {"t"} <= tags if n == 2 else {"id", "t"} <= tags
    return "id" in tags and bool(tags & {"sw", "full"})


@pytest.mark.parametrize("group,n", CASES)
def test_refuted_kind_sets_are_pinned(group, n):
    refuted = [tags for tags in _kind_sets(group) if certificate(group, n, tags) is not None]
    assert refuted == [tags for tags in _kind_sets(group)
                       if not _spans_target(group, n, tags)]


def test_span_dimensions_at_n3():
    dims = {(g.value, kind.tag): len(kind_span(g, 3, kind.tag))
            for g in (GroupId.CYCLIC, GroupId.CYCLIC_TRANSPOSE, GroupId.CYCLIC_SANDWICH)
            for kind in orbit_kinds(g)}
    assert dims == {("cyc", "id"): 249, ("cyc", "delta"): 129,
                    ("cyc-t", "id"): 111, ("cyc-t", "t"): 137,
                    ("cyc-t", "delta"): 55, ("cyc-t", "full"): 41,
                    ("cyc-sw", "id"): 124, ("cyc-sw", "sw"): 45,
                    ("cyc-sw", "delta"): 60, ("cyc-sw", "full"): 25}


@pytest.mark.parametrize("group,n", CASES)
def test_every_certificate_passes_the_independent_checker(group, n):
    for tags in _kind_sets(group):
        phi = certificate(group, n, tags)
        if phi is not None:
            assert phi == tuple(sorted(set(phi))), tags
            assert _certifies(group, n, tags, phi), tags


@pytest.mark.parametrize("group,n", [case for case in CASES if case[0] is not GroupId.TRIVIAL])
def test_a_span_sum_that_drops_a_kind_fails_the_checker(group, n):
    # Where a kind set spans the target, the certificate of the sum
    # without one of its kinds holds for that sum only: checked against
    # the whole set, it must fail on the dropped kind's orbit tensors.
    mutants = 0
    for tags in _kind_sets(group):
        if certificate(group, n, tags) is not None:
            continue
        for dropped in tags:
            rest = tuple(tag for tag in tags if tag != dropped)
            phi = certificate(group, n, rest) if rest else None
            if phi is not None:
                assert _certifies(group, n, rest, phi)
                assert not _certifies(group, n, tags, phi), (tags, dropped)
                mutants += 1
    assert mutants


# -- the count rule, checked independently ------------------------------------


@lru_cache
def _every_orbit_tensor(group, n, tag):
    """The distinct orbit tensors of every representative of kind tag
    that the encoder allows: each fixed role a matrix the image op fixes,
    not every role zero, its distinct roles different."""
    kind = kind_by_tag(group, tag)
    image = scheme(group).image
    matrices = [Gf2Matrix(n, n, bits) for bits in range(1 << n * n)]
    spaces = [[m for m in matrices if not fixed or image(m) == m] for fixed in kind.fixed]
    return frozenset(
        evaluate(Decomposition(n, n, n, tuple(expand_orbit(group, tag, rep))))
        for rep in product(*spaces)
        if any(not m.is_zero() for m in rep)
        and not (kind.distinct and rep[kind.distinct[0]] == rep[kind.distinct[1]]))


def _remainder(vectors):
    """The map from a tensor to its remainder modulo the span of vectors,
    through an echelon basis keyed by each row's highest bit and cleared
    from the highest pivot down."""
    rows = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in rows:
                rows[top] = v
                break
            v ^= rows[top]
    pivots = sorted(rows.items(), reverse=True)

    def remainder(v):
        for p, row in pivots:
            if v >> p & 1:
                v ^= row
        return v
    return remainder


def _count_refutation_holds(group, n, tags, tag, count):
    """Whether no sum of count or fewer (count at most 2) orbit tensors of
    kind tag equals the target modulo the span of the other kinds' orbit
    tensors, and in how many classes there the tensors of kind tag fall."""
    remainder = _remainder([t for other in tags if other != tag
                            for t in _orbit_tensors(group, n, other)])
    target = remainder(mm_tensor(n, n, n))
    classes = {remainder(t) for t in _every_orbit_tensor(group, n, tag)}
    reached = target == 0 or target in classes or (
        count == 2 and any(target ^ x in classes for x in classes))
    return not reached, len(classes)


def _count_refuted(cases):
    """(group, n, present kinds, kind, count, images), once each, of every
    combo of cases, (group, n, max rank) each, that the count rule
    refutes, and every kind of at most MAX_REP_SPACE representatives
    whose count `count_refutes` rules out there."""
    out = set()
    for group, n, max_rank in cases:
        for spec in enumerate_combos(group, max_rank):
            combo = spec.counts_dict()
            refutation = refute(group, n, combo) if spec.total_rank() else None
            if refutation is None or refutation.rule != "count":
                continue
            tags = present_kinds(group, combo)
            found = [(group, n, tags, tag, combo[tag], images) for tag in tags
                     if 1 << span._rep_space_bits(group, n, tag) <= span.MAX_REP_SPACE
                     for images in [count_refutes(group, n, tags, tag, combo[tag])]
                     if images is not None]
            assert found, (group, n, combo)
            out.update(found)
    return sorted(out, key=str)


@pytest.mark.parametrize("cases,pinned", [
    ([(GroupId.TRIVIAL, 2, 7), (GroupId.CYCLIC, 2, 7), (GroupId.CYCLIC_TRANSPOSE, 2, 12)], {
        ("none", ("id",), "id", 1), ("none", ("id",), "id", 2),
        ("cyc", ("id",), "id", 1), ("cyc", ("id",), "id", 2),
        ("cyc-t", ("t",), "t", 1), ("cyc-t", ("t",), "t", 2),
        ("cyc-t", ("id", "t"), "t", 1), ("cyc-t", ("t", "delta"), "t", 1),
        ("cyc-t", ("t", "delta"), "t", 2), ("cyc-t", ("t", "full"), "t", 1),
        ("cyc-t", ("id", "t", "delta"), "t", 1)}),
    # the census sets at n=3
    ([(GroupId.CYCLIC, 3, 7), (GroupId.CYCLIC_TRANSPOSE, 3, 15),
      (GroupId.CYCLIC_SANDWICH, 3, 12)], {
        ("cyc-t", ("id", "t"), "t", 1), ("cyc-t", ("id", "t"), "t", 2),
        ("cyc-t", ("id", "t", "delta"), "t", 1), ("cyc-t", ("id", "t", "delta"), "t", 2),
        ("cyc-t", ("id", "t", "full"), "t", 1),
        ("cyc-t", ("id", "t", "delta", "full"), "t", 1)}),
], ids=["n2", "n3"])
def test_every_count_certificate_passes_the_independent_checker(cases, pinned):
    refuted = _count_refuted(cases)
    for group, n, tags, tag, count, images in refuted:
        assert _count_refutation_holds(group, n, tags, tag, count) == (True, images), \
            (group, n, tags, tag, count)
    assert {(g.value, tags, tag, count) for g, _, tags, tag, count, _ in refuted} == pinned


# -- no known decomposition and no oracle-feasible combo is refuted ---------------


def _modelcheck():
    spec = importlib.util.spec_from_file_location(
        "modelcheck", ROOT / "perfbench" / "modelcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_known_decomposition_is_refuted():
    # Strassen's decomposition in each group at n=2 and the schoolbook
    # rank-27 one at n=3, conjugated into each group by every conjugator,
    # by neither rule.
    modelcheck = _modelcheck()
    seen = {}
    for group, n, base in modelcheck.KNOWN:
        for q in modelcheck.conjugators(group, n):
            sd = modelcheck.to_symmetric(modelcheck.conjugate_decomposition(base, q), group)
            tags = present_kinds(group, sd.counts())
            assert refute(group, n, sd.counts()) is None, (group, n, sd.counts())
            seen.setdefault((group.value, n), set()).add(tags)
    assert seen == {("none", 2): {("id",)}, ("cyc", 2): {("id", "delta")},
                    ("cyc-t", 2): {("t", "full")}, ("none", 3): {("id",)},
                    ("cyc", 3): {("id", "delta")}, ("cyc-t", 3): {("id", "t", "full")},
                    ("cyc-sw", 3): {("id", "delta", "full")}}


def test_refute_names_its_rule_and_says_why():
    # One pinned detail per rule, so that a change of wording shows up.
    assert refute(GroupId.CYCLIC_TRANSPOSE, 2, {"id": 1}) == Refutation(
        "span", "the tensor equations at entries ((0, 0), (0, 0), (0, 0)) XOR to 0 = 1: "
        "every orbit tensor of the present kinds has even parity there, the target odd")
    assert refute(GroupId.CYCLIC_TRANSPOSE, 2, {"t": 2, "delta": 1}) == Refutation(
        "count", "modulo the spans of the other present kinds (delta), no 2 of the 92 "
        "distinct images of t orbit tensors sum to the target's")
    assert refute(GroupId.CYCLIC_TRANSPOSE, 2, {"t": 2, "full": 1}) is None


def _refuting_rule(group, n, combo):
    """Which rule refutes a combo: "span", "count" or None."""
    refutation = refute(group, n, combo)
    return refutation and refutation.rule


def _oracle_tally(group, max_rank):
    """Over every n=2 combo of positive rank: how many each rule refutes
    and the oracle finds feasible, and the refuted combos it finds
    feasible."""
    tally, wrong = Counter(), []
    for spec in enumerate_combos(group, max_rank):
        combo = spec.counts_dict()
        if not spec.total_rank():
            continue
        rule = _refuting_rule(group, 2, combo)
        feasible = brute_symmetric_feasible(group, 2, combo)
        if rule and feasible:
            wrong.append(combo)
        if rule:
            tally[rule] += 1
        tally["feasible"] += feasible
    return dict(tally), wrong


@pytest.mark.parametrize("group,max_rank,refuted", [
    (GroupId.CYCLIC, 7, {"span": 7, "count": 2, "feasible": 2}),
    (GroupId.CYCLIC_TRANSPOSE, 9, {"span": 35, "count": 13, "feasible": 5}),
    (GroupId.CYCLIC_TRANSPOSE, 12, {"span": 65, "count": 20, "feasible": 21}),
], ids=["cyc-r7", "cyc-t-r9", "cyc-t-r12"])
def test_no_oracle_feasible_combo_is_refuted(group, max_rank, refuted):
    # Every n=2 combo of positive rank; the counts per rule are pinned so
    # that a rule that quietly weakens, or an oracle that changes, shows up.
    tally, wrong = _oracle_tally(group, max_rank)
    assert wrong == []
    assert tally == refuted


def test_a_count_modulus_that_drops_a_kind_refutes_a_feasible_combo(monkeypatch):
    # The count rule with one other present kind left out of the modulus
    # refutes Strassen's cyc-t combo t=2,full=1, and the oracle check
    # above catches it, as does the independent checker.  refute's cache
    # is emptied around the weakened rule, so no test sees its verdicts.
    def dropping_one(group, n, tags, tag, count):
        return next((images for dropped in tags if dropped != tag
                     for images in [count_refutes(group, n, tuple(t for t in tags if t != dropped),
                                                  tag, count)]
                     if images is not None), None)

    monkeypatch.setattr(span, "count_refutes", dropping_one)
    span._refute.cache_clear()
    try:
        _, wrong = _oracle_tally(GroupId.CYCLIC_TRANSPOSE, 7)
    finally:
        span._refute.cache_clear()
    assert {"id": 0, "t": 2, "delta": 0, "full": 1} in wrong
    assert count_refutes(GroupId.CYCLIC_TRANSPOSE, 2, ("t",), "t", 2) is not None
    holds, _ = _count_refutation_holds(GroupId.CYCLIC_TRANSPOSE, 2, ("t", "full"), "t", 2)
    assert not holds
