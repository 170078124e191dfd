import pytest

from mmtsat.canonical import SymmetricDecomposition, check_canonical
from mmtsat.gf2 import Gf2Matrix
from mmtsat.oracle import (
    BudgetExceeded,
    SearchBudget,
    _kind_candidates,
    brute_min_rank,
    brute_symmetric_feasible,
)
from mmtsat.symmetry import GroupId


def test_scalar_and_vector_ranks():
    budget = SearchBudget(max_rank=5)
    assert brute_min_rank(1, 1, 1, budget) == 1
    assert brute_min_rank(1, 2, 1, budget) == 2
    assert brute_min_rank(2, 1, 1, budget) == 2
    assert brute_min_rank(1, 1, 2, budget) == 2


def test_outer_product_dims_rank_nm():
    # <n,1,m> has rank exactly n*m over GF(2).
    for n in (1, 2):
        for m in (1, 2):
            budget = SearchBudget(max_rank=n * m)
            assert brute_min_rank(n, 1, m, budget) == n * m
            if n * m > 1:
                tight = SearchBudget(max_rank=n * m - 1)
                assert brute_min_rank(n, 1, m, tight) is None


def test_rank_bound_none_means_ruled_out():
    assert brute_min_rank(1, 2, 2, SearchBudget(max_rank=3)) is None
    assert brute_min_rank(1, 2, 2, SearchBudget(max_rank=4)) == 4


def test_node_budget_raises():
    with pytest.raises(BudgetExceeded):
        brute_min_rank(2, 2, 1, SearchBudget(max_rank=4, max_nodes=5))


def test_dims_guard():
    with pytest.raises(ValueError):
        brute_min_rank(2, 3, 2, SearchBudget(max_rank=1))


def test_symmetric_feasibility_examples():
    # <2,2,2> with cyclic symmetry: rank 7 = 3*2 + 1 is achievable
    # (Strassen's decomposition is cyclic), rank <= 6 is not.
    assert brute_symmetric_feasible(GroupId.CYCLIC, 2, {"id": 2, "delta": 1})
    assert not brute_symmetric_feasible(GroupId.CYCLIC, 2, {"id": 2})
    assert not brute_symmetric_feasible(GroupId.CYCLIC, 2, {"id": 1, "delta": 3})
    assert not brute_symmetric_feasible(GroupId.CYCLIC, 2, {})
    assert not brute_symmetric_feasible(GroupId.CYCLIC, 2, {"delta": 7})


def test_t_candidates_are_the_canonical_lone_representatives():
    # The oracle's own t loop admits exactly the (S, H) that
    # check_canonical accepts as a lone representative: S symmetric and
    # H != S, so no degenerate orbit and no zero one.
    group = GroupId.CYCLIC_TRANSPOSE
    got = {tuple(m.bits for m in rep) for rep, _, _ in _kind_candidates(group, "t", 2)}
    want = set()
    for s in range(16):
        for h in range(16):
            rep = (Gf2Matrix(2, 2, s), Gf2Matrix(2, 2, h))
            if rep[0] == rep[0].transpose() and \
                    not check_canonical(SymmetricDecomposition(group, 2, {"t": (rep,)})):
                want.add((s, h))
    assert got == want and len(got) == 8 * 15


def test_symmetric_feasibility_guard():
    # The oracle answers cyc and cyc-t at n = 2 only, and only for the
    # kinds it has a candidate loop of for the group.
    with pytest.raises(ValueError):
        brute_symmetric_feasible(GroupId.CYCLIC, 3, {"delta": 1})
    for group, n in ((GroupId.CYCLIC_SANDWICH, 2), (GroupId.CYCLIC_SANDWICH, 3),
                     (GroupId.TRIVIAL, 2)):
        with pytest.raises(ValueError, match=f"^symmetric brute force covers cyc and cyc-t "
                                             f"at n = 2, not {group.value} at n = {n}$"):
            brute_symmetric_feasible(group, n, {"id": 1})
    for combo, tag in (({"id": 2, "full": 1}, "full"), ({"t": 1}, "t"), ({"t": 0}, "t")):
        with pytest.raises(ValueError, match=f"^group cyc has no orbit kind '{tag}'$"):
            brute_symmetric_feasible(GroupId.CYCLIC, 2, combo)
    with pytest.raises(ValueError, match="^group cyc-t has no orbit kind 'sw'$"):
        brute_symmetric_feasible(GroupId.CYCLIC_TRANSPOSE, 2, {"sw": 1})
