import importlib.util
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest

from mmtsat.driver import enumerate_combos
from mmtsat.gf2 import Gf2Matrix
from mmtsat.oracle import brute_symmetric_feasible
from mmtsat.span import certificate, kind_span
from mmtsat.symmetry import GroupId, expand_orbit, kind_by_tag, orbit_kinds, scheme
from mmtsat.tensor import Decomposition, evaluate, mm_tensor

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
            rep = [Gf2Matrix.zero(n, n)] * kind.arity
            for role, m in point:
                rep[role] = rep[role] + m
            orbit = expand_orbit(group, tag, tuple(rep))
            tensors.append(evaluate(Decomposition(n, n, n, tuple(orbit))).bits)
    return tuple(tensors)


def _certifies(group, n, tags, phi):
    """Whether phi has odd parity on the target and even parity on the
    orbit tensor at every weight-3-or-less point of every kind in tags.
    Each entry of an orbit tensor is a polynomial of degree at most 3 in
    the point's coordinates, so then phi has even parity on every orbit
    tensor of those kinds."""
    target = mm_tensor(n, n, n)
    mask = sum(1 << target.flat_index(*sum(entry, ())) for entry in set(phi))
    return ((target.bits & mask).bit_count() % 2 == 1
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


# -- no known decomposition and no oracle-feasible combo is refuted ---------------


def _modelcheck():
    spec = importlib.util.spec_from_file_location(
        "modelcheck", ROOT / "perfbench" / "modelcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_known_decomposition_is_refuted():
    # Strassen's decomposition in each group at n=2 and the schoolbook
    # rank-27 one at n=3, conjugated into each group by every conjugator.
    modelcheck = _modelcheck()
    seen = {}
    for group, n, base in modelcheck.KNOWN:
        for q in modelcheck.conjugators(group, n):
            sd = modelcheck.to_symmetric(modelcheck.conjugate_decomposition(base, q), group)
            tags = present_kinds(group, sd.counts())
            assert certificate(group, n, tags) is None, (group, n, sd.counts())
            seen.setdefault((group.value, n), set()).add(tags)
    assert seen == {("none", 2): {("id",)}, ("cyc", 2): {("id", "delta")},
                    ("cyc-t", 2): {("t", "full")}, ("none", 3): {("id",)},
                    ("cyc", 3): {("id", "delta")}, ("cyc-t", 3): {("id", "t", "full")},
                    ("cyc-sw", 3): {("id", "delta", "full")}}


@pytest.mark.parametrize("group,max_rank,refuted,feasible", [
    (GroupId.CYCLIC, 7, 7, 2),
    (GroupId.CYCLIC_TRANSPOSE, 9, 35, 5),
])
def test_no_oracle_feasible_combo_is_refuted(group, max_rank, refuted, feasible):
    # Every n=2 combo of positive rank; the counts are pinned so that a
    # rule that quietly weakens, or an oracle that changes, shows up.
    counts = {"refuted": 0, "feasible": 0}
    for spec in enumerate_combos(group, max_rank):
        combo = spec.counts_dict()
        if not spec.total_rank():
            continue
        is_refuted = certificate(group, 2, present_kinds(group, combo)) is not None
        is_feasible = brute_symmetric_feasible(group, 2, combo)
        assert not (is_refuted and is_feasible), combo
        counts["refuted"] += is_refuted
        counts["feasible"] += is_feasible
    assert counts == {"refuted": refuted, "feasible": feasible}
