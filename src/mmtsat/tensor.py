"""Matrix-multiplication tensors over GF(2) and decomposition checking.

The <n,k,m> tensor is 6-dimensional with shape (n,k,k,m,m,n) and is
stored as one flat bit field in row-major index order, so whole-tensor
XOR and equality are single integer operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .gf2 import Gf2Matrix, ShapeError

MAX_TENSOR_DIM = 4


@dataclass(frozen=True)
class Tensor6:
    n: int
    k: int
    m: int
    bits: int

    def flat_index(self, a: int, b: int, c: int, d: int, e: int, f: int) -> int:
        n, k, m = self.n, self.k, self.m
        return ((((a * k + b) * k + c) * m + d) * m + e) * n + f

    def get(self, a: int, b: int, c: int, d: int, e: int, f: int) -> int:
        return (self.bits >> self.flat_index(a, b, c, d, e, f)) & 1

    def popcount(self) -> int:
        return self.bits.bit_count()

    def __xor__(self, other: "Tensor6") -> "Tensor6":
        if (self.n, self.k, self.m) != (other.n, other.k, other.m):
            raise ShapeError("tensor shape mismatch")
        return Tensor6(self.n, self.k, self.m, self.bits ^ other.bits)

    def is_zero(self) -> bool:
        return self.bits == 0


@dataclass(frozen=True)
class Triplet:
    a: Gf2Matrix
    b: Gf2Matrix
    c: Gf2Matrix

    def dims(self) -> tuple[int, int, int]:
        n, k = self.a.rows, self.a.cols
        m = self.b.cols
        if (self.b.rows, self.c.rows, self.c.cols) != (k, m, n):
            raise ShapeError("inconsistent triplet shapes")
        return (n, k, m)

    def flat_bits(self) -> tuple[int, ...]:
        """Row-major flattening A || B || C, the triplet comparison key."""
        return self.a.flat_bits() + self.b.flat_bits() + self.c.flat_bits()

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero() and self.c.is_zero()


@dataclass(frozen=True)
class Decomposition:
    n: int
    k: int
    m: int
    triplets: tuple[Triplet, ...]

    def __post_init__(self):
        for t in self.triplets:
            if t.dims() != (self.n, self.k, self.m):
                raise ShapeError("triplet dims disagree with decomposition dims")

    @property
    def rank(self) -> int:
        return len(self.triplets)


def mm_tensor(n: int, k: int, m: int) -> Tensor6:
    """The <n,k,m> matrix-multiplication tensor: entry (i,j,j,l,l,i) = 1."""
    if not (1 <= n <= MAX_TENSOR_DIM and 1 <= k <= MAX_TENSOR_DIM and 1 <= m <= MAX_TENSOR_DIM):
        raise ShapeError(f"dims ({n},{k},{m}) out of range 1..{MAX_TENSOR_DIM}")
    t = Tensor6(n, k, m, 0)
    bits = 0
    for i in range(n):
        for j in range(k):
            for l in range(m):
                bits |= 1 << t.flat_index(i, j, j, l, l, i)
    return Tensor6(n, k, m, bits)


def outer(t: Triplet) -> Tensor6:
    """Outer product A x B x C as a 6-index GF(2) tensor."""
    n, k, m = t.dims()
    res = Tensor6(n, k, m, 0)
    a_ones = [(i, j) for i in range(n) for j in range(k) if t.a.get(i, j)]
    b_ones = [(i, j) for i in range(k) for j in range(m) if t.b.get(i, j)]
    c_ones = [(i, j) for i in range(m) for j in range(n) if t.c.get(i, j)]
    bits = 0
    for (a, b) in a_ones:
        for (c, d) in b_ones:
            for (e, f) in c_ones:
                bits |= 1 << res.flat_index(a, b, c, d, e, f)
    return Tensor6(n, k, m, bits)


def evaluate(d: Decomposition) -> Tensor6:
    """XOR of the outer products of all triplets."""
    acc = Tensor6(d.n, d.k, d.m, 0)
    for t in d.triplets:
        acc = acc ^ outer(t)
    return acc


def verify(d: Decomposition) -> bool:
    """True iff the decomposition evaluates to the <n,k,m> tensor."""
    return evaluate(d).bits == mm_tensor(d.n, d.k, d.m).bits


# -- JSON interchange --------------------------------------------------------


def _matrix_to_json(m: Gf2Matrix) -> list[list[int]]:
    return m.to_rows()


def _matrix_from_json(rows, what: str) -> Gf2Matrix:
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{what}: expected a non-empty list of rows")
    for row in rows:
        if not isinstance(row, list):
            raise ValueError(f"{what}: expected a list of rows")
        for v in row:
            if v not in (0, 1):
                raise ValueError(f"{what}: entry {v!r} outside {{0,1}}")
    return Gf2Matrix.from_rows(rows)


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "n": d.n, "k": d.k, "m": d.m,
        "triplets": [
            {"A": _matrix_to_json(t.a), "B": _matrix_to_json(t.b), "C": _matrix_to_json(t.c)}
            for t in d.triplets
        ],
    }


def decomposition_from_json(obj: dict) -> Decomposition:
    n, k, m = obj["n"], obj["k"], obj["m"]
    triplets = tuple(
        Triplet(
            _matrix_from_json(t["A"], "A"),
            _matrix_from_json(t["B"], "B"),
            _matrix_from_json(t["C"], "C"),
        )
        for t in obj["triplets"]
    )
    return Decomposition(n, k, m, triplets)


def dump_decomposition(d: Decomposition, path) -> None:
    with open(path, "w") as fh:
        json.dump(decomposition_to_json(d), fh)
        fh.write("\n")


def load_decomposition(path) -> Decomposition:
    with open(path) as fh:
        return decomposition_from_json(json.load(fh))
