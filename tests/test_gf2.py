from functools import reduce
from itertools import combinations
from operator import xor

import pytest
from hypothesis import given, strategies as st

from mmtsat.gf2 import Gf2Matrix, ShapeError, echelon, residue
from mmtsat.symmetry import f_conjugate

F = Gf2Matrix.parse("110;010;001")


def matrices(n):
    return st.integers(min_value=0, max_value=(1 << (n * n)) - 1).map(
        lambda b: Gf2Matrix(n, n, b))


def test_parse_format_round_trip():
    text = "110;010;001"
    m = Gf2Matrix.parse(text)
    assert m.format() == text
    assert m.to_rows() == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    assert m.get(0, 1) == 1 and m.get(1, 0) == 0


def test_parse_rejects_bad_literals():
    for bad in ("", "10;1", "12;01", "1a;01", ";;"):
        with pytest.raises(ValueError):
            Gf2Matrix.parse(bad)


def test_shape_limits():
    with pytest.raises(ShapeError):
        Gf2Matrix(9, 2, 0)
    with pytest.raises(ShapeError):
        Gf2Matrix(0, 2, 0)
    with pytest.raises(ValueError):
        Gf2Matrix(2, 2, 1 << 4)


def test_addition_is_xor():
    a = Gf2Matrix.parse("10;11")
    b = Gf2Matrix.parse("01;11")
    assert (a + b).format() == "11;00"
    assert (a + a).is_zero()
    with pytest.raises(ShapeError):
        a + Gf2Matrix(3, 3, 0)


def test_multiplication_example():
    a = Gf2Matrix.parse("11;01")
    b = Gf2Matrix.parse("10;11")
    # (1*1^1*1, 1*0^1*1; 0^1*1, 0^1*1) over GF(2)
    assert (a * b).format() == "01;11"
    i = Gf2Matrix.identity(2)
    assert (a * i).bits == a.bits and (i * a).bits == a.bits


def test_rectangular_multiplication_shapes():
    a = Gf2Matrix.parse("110;011")      # 2x3
    b = Gf2Matrix.parse("10;01;11")     # 3x2
    assert (a * b).format() == "11;10"
    with pytest.raises(ShapeError):
        b * Gf2Matrix(2, 2, 0) * b


def test_transpose_involution_and_example():
    m = Gf2Matrix.parse("110;001")
    assert m.transpose().format() == "10;10;01"
    assert m.transpose().transpose().bits == m.bits


def test_f_is_an_involution():
    assert (F * F).bits == Gf2Matrix.identity(3).bits
    assert F.inverse().bits == F.bits
    m = Gf2Matrix.parse("101;110;011")
    assert f_conjugate(f_conjugate(m)) == m


def test_inverse_all_invertible_2x2():
    inv_count = 0
    for bits in range(16):
        m = Gf2Matrix(2, 2, bits)
        inv = m.inverse()
        if inv is None:
            continue
        inv_count += 1
        assert (m * inv).bits == Gf2Matrix.identity(2).bits
        assert (inv * m).bits == Gf2Matrix.identity(2).bits
    assert inv_count == 6  # |GL(2, GF(2))|


def test_inverse_all_invertible_3x3():
    inv_count = 0
    ident = Gf2Matrix.identity(3).bits
    for bits in range(1 << 9):
        m = Gf2Matrix(3, 3, bits)
        inv = m.inverse()
        if inv is None:
            continue
        inv_count += 1
        assert (m * inv).bits == ident and (inv * m).bits == ident
    assert inv_count == 168  # |GL(3, GF(2))|


def test_inverse_of_a_singular_4x4_is_none():
    # Its rows sum to 0 and any three are independent, so the elimination
    # of [M | I] has three pivots in M and one in I.
    m = Gf2Matrix.parse("1100;0110;0011;1001")
    assert m.inverse() is None
    m = Gf2Matrix.parse("1100;0110;0011;0001")
    assert (m * m.inverse()).bits == Gf2Matrix.identity(4).bits


@given(matrices(3), matrices(3), matrices(3))
def test_multiplication_associative(a, b, c):
    assert ((a * b) * c).bits == (a * (b * c)).bits


@given(matrices(3), matrices(3))
def test_transpose_antihomomorphism(a, b):
    assert (a * b).transpose().bits == (b.transpose() * a.transpose()).bits


@given(matrices(3), matrices(3), matrices(3))
def test_multiplication_distributes(a, b, c):
    assert (a * (b + c)).bits == ((a * b) + (a * c)).bits


def test_flat_bits_row_major():
    m = Gf2Matrix.parse("01;10")
    assert m.flat_bits() == (0, 1, 1, 0)
    assert m.bits.bit_count() == 2


def _subset_xors(vectors):
    """The XOR of every subset of vectors, by enumeration."""
    return {reduce(xor, subset, 0) for size in range(len(vectors) + 1)
            for subset in combinations(vectors, size)}


@given(st.lists(st.integers(min_value=0, max_value=(1 << 7) - 1), max_size=7))
def test_echelon_and_residue_against_subset_enumeration(vectors):
    rows = echelon(vectors)
    for p, row in rows.items():
        assert p == row & -row
        assert all(not other & p for q, other in rows.items() if q != p)
    span = _subset_xors(vectors)
    assert _subset_xors(list(rows.values())) == span
    assert len(span) == 1 << len(rows)
    for v in range(1 << 7):
        assert (residue(rows, v) == 0) == (v in span)
