"""Brute-force ground truth on tiny instances.

Everything here recomputes from first principles: orbit expansion is
re-derived from the printed triplet lists rather than shared with the
symmetry module, so agreement with the SAT pipeline is a real check
and not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import Gf2Matrix, conjugate
from .symmetry import F_SANDWICH, GroupId
from .tensor import Triplet, mm_tensor, outer


@dataclass(frozen=True)
class SearchBudget:
    max_rank: int
    max_nodes: int | None = None


class BudgetExceeded(Exception):
    """The search space is larger than the configured budget allows."""


def _all_matrices(rows: int, cols: int, include_zero: bool = False):
    out = []
    for bits in range(0 if include_zero else 1, 1 << (rows * cols)):
        out.append(Gf2Matrix(rows, cols, bits))
    return out


def brute_min_rank(n: int, k: int, m: int, budget: SearchBudget) -> int | None:
    """Smallest decomposition rank <= budget.max_rank, or None if exceeded.

    DFS over strictly lex-increasing nonzero triplets; prunes when the
    residual's remaining ones cannot be covered, or when no remaining
    triplet touches the residual's lowest set entry.
    """
    if n * k > 4 or k * m > 4 or m * n > 4:
        raise ValueError("brute force is limited to nk, km, mn <= 4")

    tensors = []
    for a in _all_matrices(n, k):
        for b in _all_matrices(k, m):
            for c in _all_matrices(m, n):
                tensors.append(outer(Triplet(a, b, c)).bits)
    target = mm_tensor(n, k, m).bits
    max_cover = (n * k) * (k * m) * (m * n)
    # Highest triplet index covering each tensor entry; once the DFS has
    # moved past that index the entry can never be toggled again.
    cover_max: dict[int, int] = {}
    for i, t in enumerate(tensors):
        while t:
            bit = t & -t
            cover_max[bit] = i
            t ^= bit
    nodes = 0

    def dfs(residual: int, start: int, remaining: int) -> bool:
        nonlocal nodes
        if residual == 0:
            return True
        if remaining == 0:
            return False
        if residual.bit_count() > remaining * max_cover:
            return False
        low = residual & -residual
        if cover_max.get(low, -1) < start:
            return False
        for i in range(start, len(tensors)):
            nodes += 1
            if budget.max_nodes is not None and nodes > budget.max_nodes:
                raise BudgetExceeded(f"node limit {budget.max_nodes} reached")
            if dfs(residual ^ tensors[i], i + 1, remaining - 1):
                return True
        return False

    for rank in range(0, budget.max_rank + 1):
        if dfs(target, 0, rank):
            return rank
    return None


# -- symmetric feasibility ----------------------------------------------------
#
# Orbit tensors are precomputed from the printed per-group triplet lists;
# a combo is feasible iff some strictly ordered choice of canonical-form
# representatives XORs to the target tensor.


def _orbit_tensor(triplets: list[Triplet]) -> int:
    acc = 0
    for t in triplets:
        acc ^= outer(t).bits
    return acc


def _fc(mat: Gf2Matrix) -> Gf2Matrix:
    return conjugate(mat, F_SANDWICH)


def _id_candidates(group: GroupId, n: int):
    """Canonical id representatives: strict lex min of the orbit list."""
    mats = _all_matrices(n, n, include_zero=True)
    out = []
    for a in mats:
        for b in mats:
            for c in mats:
                if group is GroupId.TRIVIAL:
                    orbit = [(a, b, c)]
                elif group is GroupId.CYCLIC:
                    orbit = [(a, b, c), (b, c, a), (c, a, b)]
                elif group is GroupId.CYCLIC_TRANSPOSE:
                    at, bt, ct = a.transpose(), b.transpose(), c.transpose()
                    orbit = [(a, b, c), (b, c, a), (c, a, b),
                             (ct, bt, at), (bt, at, ct), (at, ct, bt)]
                else:
                    af, bf, cf = _fc(a), _fc(b), _fc(c)
                    orbit = [(a, b, c), (b, c, a), (c, a, b),
                             (af, bf, cf), (bf, cf, af), (cf, af, bf)]
                keys = [x.flat_bits() + y.flat_bits() + z.flat_bits()
                        for (x, y, z) in orbit]
                if group is not GroupId.TRIVIAL and any(keys[0] >= kk for kk in keys[1:]):
                    continue
                if group is GroupId.TRIVIAL and (a.is_zero() and b.is_zero() and c.is_zero()):
                    continue
                tensor = _orbit_tensor([Triplet(*t) for t in orbit])
                key = keys[0][:2 * n * n]  # the (A,B) merge key
                if group is GroupId.TRIVIAL:
                    key = keys[0]
                out.append(((a, b, c), key, tensor))
    return out


def _kind_candidates(group: GroupId, tag: str, n: int):
    """(rep, sort key, orbit tensor) for every canonical representative."""
    if tag == "id":
        return _id_candidates(group, n)
    mats = _all_matrices(n, n, include_zero=True)
    out = []
    if tag == "delta":
        for d in mats:
            if d.is_zero():
                continue
            if group is GroupId.CYCLIC:
                orbit = [(d, d, d)]
            elif group is GroupId.CYCLIC_TRANSPOSE:
                dt = d.transpose()
                if not d.flat_bits() < dt.flat_bits():
                    continue
                orbit = [(d, d, d), (dt, dt, dt)]
            else:
                df = _fc(d)
                if not d.flat_bits() < df.flat_bits():
                    continue
                orbit = [(d, d, d), (df, df, df)]
            out.append(((d,), d.flat_bits(),
                        _orbit_tensor([Triplet(*t) for t in orbit])))
    elif tag == "t":
        for s in mats:
            if s.bits != s.transpose().bits:
                continue
            for h in mats:
                if h.bits == s.bits:
                    continue  # H = S, zero or not, lists (S,S,S) thrice; S=0 alone is allowed
                ht = h.transpose()
                orbit = [(s, h, ht), (h, ht, s), (ht, s, h)]
                out.append(((s, h), h.flat_bits(),
                            _orbit_tensor([Triplet(*t) for t in orbit])))
    elif tag == "sw":
        comm = [m for m in mats if _fc(m).bits == m.bits]
        for x in comm:
            for y in comm:
                for z in comm:
                    rots = [(x, y, z), (y, z, x), (z, x, y)]
                    keys = [a.flat_bits() + b.flat_bits() + c.flat_bits()
                            for (a, b, c) in rots]
                    if any(keys[0] >= kk for kk in keys[1:]):
                        continue
                    out.append(((x, y, z), keys[0][:2 * n * n],
                                _orbit_tensor([Triplet(*t) for t in rots])))
    elif tag == "full":
        for z in mats:
            if z.is_zero():
                continue
            if group is GroupId.CYCLIC_TRANSPOSE and z.bits != z.transpose().bits:
                continue
            if group is GroupId.CYCLIC_SANDWICH and _fc(z).bits != z.bits:
                continue
            out.append(((z,), z.flat_bits(),
                        _orbit_tensor([Triplet(z, z, z)])))
    else:
        raise ValueError(f"unknown orbit kind {tag!r}")
    return out


def brute_symmetric_feasible(group: GroupId, n: int,
                             combo: dict[str, int]) -> bool:
    """True iff some canonical-form representative choice hits the target.

    Enumerates strictly key-increasing representative tuples kind by
    kind; the last kind is resolved by hash lookup on the needed
    residual tensor instead of a full scan.
    """
    if n != 2:
        raise ValueError("symmetric brute force is limited to n = 2")
    kind_order = [tag for tag, cnt in sorted(combo.items()) if cnt > 0]
    target = mm_tensor(n, n, n).bits
    if not kind_order:
        return target == 0

    candidates = {tag: _kind_candidates(group, tag, n) for tag in kind_order}

    # Per kind, all XOR values achievable by `count` strictly increasing
    # candidates, folded left to right across kinds.
    achievable = {target}
    for pos, tag in enumerate(kind_order):
        cands = candidates[tag]
        count = combo[tag]
        if pos == len(kind_order) - 1:
            lookup = _subset_xors(cands, count)
            return any(resid in lookup for resid in achievable)
        vals = set()
        for combo_xor in _subset_xors(cands, count):
            for resid in achievable:
                vals.add(resid ^ combo_xor)
        achievable = vals
        if not achievable:
            return False
    raise AssertionError("unreachable")


def _subset_xors(cands: list, count: int) -> set[int]:
    """XOR values over strictly key-increasing `count`-subsets."""
    ordered = sorted(cands, key=lambda it: it[1])
    out: set[int] = set()

    def rec(start: int, left: int, acc: int, prev_key) -> None:
        if left == 0:
            out.add(acc)
            return
        for i in range(start, len(ordered) - left + 1):
            _, key, tensor = ordered[i]
            if prev_key is not None and not prev_key < key:
                continue
            rec(i + 1, left - 1, acc ^ tensor, key)

    rec(0, count, 0, None)
    return out
