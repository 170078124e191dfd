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

    def __xor__(self, other: "Tensor6") -> "Tensor6":
        if (self.n, self.k, self.m) != (other.n, other.k, other.m):
            raise ShapeError("tensor shape mismatch")
        return Tensor6(self.n, self.k, self.m, self.bits ^ other.bits)


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


def _spread(x: int, block: int, stride: int) -> int:
    """block copied to bit i * stride for each set bit i of x."""
    bits = 0
    while x:
        low = x & -x
        bits |= block << (low.bit_length() - 1) * stride
        x ^= low
    return bits


def outer_bits(a: int, b: int, c: int, n: int, k: int, m: int) -> int:
    """The bits of A x B x C from the bit fields of an n x k A, a k x m
    B and an m x n C: entry (a,b,c,d,e,f) sits at bit
    (a*k+b) * k*m*m*n + (c*m+d) * m*n + e*n+f, so the product is C's
    bits at each set bit of B, and that block at each set bit of A."""
    return _spread(a, _spread(b, c, m * n), k * m * m * n)


def outer(t: Triplet) -> Tensor6:
    """Outer product A x B x C as a 6-index GF(2) tensor."""
    n, k, m = t.dims()
    return Tensor6(n, k, m, outer_bits(t.a.bits, t.b.bits, t.c.bits, n, k, m))


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


def json_typed(value, kind: type, what: str):
    """value, or ValueError if it is not a JSON object (kind dict) or
    array (kind list)."""
    if not isinstance(value, kind):
        raise ValueError(f"{what}: expected a JSON {'object' if kind is dict else 'array'}, "
                         f"not {type(value).__name__}")
    return value


def json_fields(obj, what: str, *names: str) -> list:
    """The named fields of obj; ValueError unless obj is a JSON object
    that has them all."""
    missing = [name for name in names if name not in json_typed(obj, dict, what)]
    if missing:
        raise ValueError(f"{what}: missing {', '.join(map(repr, missing))}")
    return [obj[name] for name in names]


def json_dims(dims, what: str) -> None:
    if not all(type(d) is int for d in dims):  # bool and float are not dims
        raise ValueError(f"{what}: dimensions {dims!r} are not all integers")


def _matrix_from_json(rows, what: str) -> Gf2Matrix:
    if not json_typed(rows, list, what):
        raise ValueError(f"{what}: expected a non-empty list of rows")
    for row in rows:
        for v in json_typed(row, list, what):
            if type(v) is not int or v not in (0, 1):  # not 1.0, not true
                raise ValueError(f"{what}: entry {v!r} is not the integer 0 or 1")
    return Gf2Matrix.from_rows(rows)


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "n": d.n, "k": d.k, "m": d.m,
        "triplets": [
            {"A": _matrix_to_json(t.a), "B": _matrix_to_json(t.b), "C": _matrix_to_json(t.c)}
            for t in d.triplets
        ],
    }


def decomposition_from_json(obj) -> Decomposition:
    n, k, m, trips = json_fields(obj, "decomposition", "n", "k", "m", "triplets")
    json_dims((n, k, m), "decomposition")
    triplets = tuple(
        Triplet(*(_matrix_from_json(rows, role)
                  for role, rows in zip("ABC", json_fields(t, "triplet", "A", "B", "C"))))
        for t in json_typed(trips, list, "triplets")
    )
    return Decomposition(n, k, m, triplets)


def dump_decomposition(d: Decomposition, path) -> None:
    with open(path, "w") as fh:
        json.dump(decomposition_to_json(d), fh)
        fh.write("\n")


def load_decomposition(path) -> Decomposition:
    with open(path) as fh:
        return decomposition_from_json(json.load(fh))
