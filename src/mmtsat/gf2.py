"""Dense GF(2) matrix arithmetic on small bit-packed matrices.

Matrices are capped at 8x8 so the whole bit field fits in one machine
word; entry (i, j) lives at bit i*cols + j (row-major).  All operations
return new values; nothing is mutated in place.  `entry_terms` and
`fixed_space` give a linear map on matrices cell by cell and the space
a set of such maps fixes, which the encoder and the span certificates
both build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

MAX_DIM = 8


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


@dataclass(frozen=True, order=False)
class Gf2Matrix:
    rows: int
    cols: int
    bits: int

    def __post_init__(self):
        if not (1 <= self.rows <= MAX_DIM and 1 <= self.cols <= MAX_DIM):
            raise ShapeError(f"dimensions {self.rows}x{self.cols} out of range 1..{MAX_DIM}")
        if self.bits < 0 or self.bits >> (self.rows * self.cols):
            raise ValueError("bit field has bits beyond rows*cols")

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Gf2Matrix":
        return cls(rows, cols, 0)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        bits = 0
        for i in range(n):
            bits |= 1 << (i * n + i)
        return cls(n, n, bits)

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "Gf2Matrix":
        r = len(rows)
        if r == 0:
            raise ShapeError("empty matrix")
        c = len(rows[0])
        bits = 0
        for i, row in enumerate(rows):
            if len(row) != c:
                raise ShapeError("ragged rows")
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError(f"entry {v!r} not in {{0,1}}")
                bits |= v << (i * c + j)
        return cls(r, c, bits)

    @classmethod
    def parse(cls, text: str) -> "Gf2Matrix":
        """Parse the row text format, e.g. ``110;010;001``."""
        if not isinstance(text, str):
            raise ValueError(f"bad matrix literal {text!r}")
        rows = []
        for part in text.strip().split(";"):
            if not part or any(ch not in "01" for ch in part):
                raise ValueError(f"bad matrix literal {text!r}")
            rows.append([int(ch) for ch in part])
        return cls.from_rows(rows)

    # -- access ------------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        return (self.bits >> (i * self.cols + j)) & 1

    def to_rows(self) -> list[list[int]]:
        return [[self.get(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def flat_bits(self) -> tuple[int, ...]:
        """Row-major flattening of the entries."""
        n = self.rows * self.cols
        return tuple((self.bits >> p) & 1 for p in range(n))

    def format(self) -> str:
        return ";".join("".join(str(self.get(i, j)) for j in range(self.cols))
                        for i in range(self.rows))

    def is_zero(self) -> bool:
        return self.bits == 0

    def __str__(self) -> str:
        return self.format()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}")
        return Gf2Matrix(self.rows, self.cols, self.bits ^ other.bits)

    def __mul__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        bits = 0
        for i in range(self.rows):
            row_acc = 0
            for k in range(self.cols):
                if (self.bits >> (i * self.cols + k)) & 1:
                    row_acc ^= (other.bits >> (k * other.cols)) & ((1 << other.cols) - 1)
            bits |= row_acc << (i * other.cols)
        return Gf2Matrix(self.rows, other.cols, bits)

    def transpose(self) -> "Gf2Matrix":
        bits = 0
        for i in range(self.rows):
            for j in range(self.cols):
                bits |= self.get(i, j) << (j * self.rows + i)
        return Gf2Matrix(self.cols, self.rows, bits)

    def inverse(self) -> "Gf2Matrix | None":
        """Gauss-Jordan inverse, or None when singular."""
        if self.rows != self.cols:
            raise ShapeError("inverse of non-square matrix")
        n = self.rows
        # Augmented rows [M | I] packed as 2n-bit ints.
        aug = []
        for i in range(n):
            left = (self.bits >> (i * n)) & ((1 << n) - 1)
            aug.append(left | (1 << (n + i)))
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if (aug[r] >> col) & 1:
                    pivot = r
                    break
            if pivot is None:
                return None
            aug[col], aug[pivot] = aug[pivot], aug[col]
            for r in range(n):
                if r != col and ((aug[r] >> col) & 1):
                    aug[r] ^= aug[col]
        bits = 0
        for i in range(n):
            bits |= (aug[i] >> n) << (i * n)
        return Gf2Matrix(n, n, bits)


def conjugate(m: Gf2Matrix, f: Gf2Matrix) -> Gf2Matrix:
    """f * m * f^{-1}; raises on singular f."""
    if m.rows != m.cols or (f.rows, f.cols) != (m.rows, m.cols):
        raise ShapeError("conjugation needs square matrices of equal size")
    f_inv = f.inverse()
    if f_inv is None:
        raise ShapeError("conjugating matrix is singular")
    return f * m * f_inv


@lru_cache
def entry_terms(op, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For a GF(2)-linear map on n x n matrices: for each output cell, in
    row-major order, the input cells whose XOR gives it."""
    units = {(k, l): op(Gf2Matrix(n, n, 1 << (k * n + l)))
             for k in range(n) for l in range(n)}
    return tuple(tuple(kl for kl, u in units.items() if u.get(i, j))
                 for i in range(n) for j in range(n))


@lru_cache
def fixed_space(coords: tuple, maps: tuple) -> tuple[tuple, tuple]:
    """The vectors over `coords` that every GF(2)-linear map in `maps` fixes.

    A map gives, for each coordinate, the coordinates whose XOR is its
    image there.  The equations map(v)[c] + v[c] = 0 are reduced over
    GF(2), each pivoting on its last coordinate.  Returns the coordinates
    without a pivot, in order, and for each coordinate the free
    coordinates whose XOR gives it; a free coordinate is given by itself.
    Each pivot is given by earlier free coordinates, so a coordinate is
    free exactly when its value on the fixed space is independent of the
    values of the coordinates before it.
    """
    bit = {c: 1 << k for k, c in enumerate(coords)}
    rows: dict[int, int] = {}  # pivot bit -> its reduced equation, as a mask
    for m in maps:
        for c, terms in zip(coords, m):
            eq = bit[c]
            for t in terms:
                eq ^= bit[t]
            for p, row in rows.items():
                if eq & p:
                    eq ^= row
            if eq:
                pivot = 1 << (eq.bit_length() - 1)
                for p, row in rows.items():
                    if row & pivot:
                        rows[p] = row ^ eq
                rows[pivot] = eq
    free = tuple(c for c in coords if bit[c] not in rows)
    return free, tuple(tuple(f for f in free if rows[bit[c]] & bit[f])
                       if bit[c] in rows else (c,) for c in coords)
