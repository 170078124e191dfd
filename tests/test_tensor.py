import json
import random
from itertools import product

import pytest

from mmtsat.gf2 import Gf2Matrix, ShapeError
from mmtsat.tensor import (
    Decomposition,
    Triplet,
    decomposition_from_json,
    decomposition_to_json,
    dump_decomposition,
    evaluate,
    flat_index,
    load_decomposition,
    mm_tensor,
    outer,
    verify,
)

from conftest import random_matrix, random_triplet


def test_mm_tensor_entries_and_popcount():
    for (n, k, m) in [(1, 1, 1), (2, 2, 2), (2, 1, 3), (3, 3, 3)]:
        t = mm_tensor(n, k, m)
        assert t.bit_count() == n * k * m
        for i in range(n):
            for j in range(k):
                for l in range(m):
                    assert t >> flat_index(n, k, m, i, j, j, l, l, i) & 1
        assert t >> flat_index(n, k, m, 0, 0, 0, 0, 0, 0) & 1


def test_mm_tensor_rejects_large_dims():
    with pytest.raises(ShapeError):
        mm_tensor(5, 1, 1)


def test_outer_popcount_is_product():
    rng = random.Random(3)
    for _ in range(50):
        t = random_triplet(rng, 3)
        assert outer(t).bit_count() == \
            t.a.bits.bit_count() * t.b.bits.bit_count() * t.c.bits.bit_count()


def test_outer_entry_formula():
    rng = random.Random(4)
    t = random_triplet(rng, 2)
    o = outer(t)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    for e in range(2):
                        for f in range(2):
                            assert o >> flat_index(2, 2, 2, a, b, c, d, e, f) & 1 == \
                                t.a.get(a, b) & t.b.get(c, d) & t.c.get(e, f)


def test_outer_matches_a_per_cell_reference_on_random_shapes():
    # The bit-field spreads against one bit per triple of set cells,
    # placed by the row-major index formula, on <n,k,m> shapes up to 4;
    # flat_index must give that formula's bit at every entry.
    rng = random.Random(6)
    for _ in range(300):
        n, k, m = (rng.randint(1, 4) for _ in range(3))
        t = Triplet(Gf2Matrix(n, k, rng.getrandbits(n * k)),
                    Gf2Matrix(k, m, rng.getrandbits(k * m)),
                    Gf2Matrix(m, n, rng.getrandbits(m * n)))
        want = 0
        for (a, b), (c, d), (e, f) in product(product(range(n), range(k)),
                                              product(range(k), range(m)),
                                              product(range(m), range(n))):
            bit = ((((a * k + b) * k + c) * m + d) * m + e) * n + f
            assert flat_index(n, k, m, a, b, c, d, e, f) == bit
            if t.a.get(a, b) and t.b.get(c, d) and t.c.get(e, f):
                want |= 1 << bit
        assert outer(t) == want, (n, k, m)


def test_evaluate_duplicate_triplets_cancel():
    rng = random.Random(5)
    t = random_triplet(rng, 2)
    d = Decomposition(2, 2, 2, (t, t))
    assert evaluate(d) == 0


def test_strassen_mod2_verifies(strassen):
    assert strassen.rank == 7
    assert verify(strassen)


def test_strassen_mod2_against_scalar_products(strassen):
    # Independent check: compute each entry of the product C = A*B with
    # the bilinear forms sum_r (sum A_ab a_ab)(sum B_cd b_cd) directly.
    rng = random.Random(11)
    for _ in range(30):
        x = random_matrix(rng, 2)
        y = random_matrix(rng, 2)
        want = x * y
        got = [[0, 0], [0, 0]]
        for t in strassen.triplets:
            left = 0
            for i in range(2):
                for j in range(2):
                    left ^= t.a.get(i, j) & x.get(i, j)
            right = 0
            for i in range(2):
                for j in range(2):
                    right ^= t.b.get(i, j) & y.get(i, j)
            prod = left & right
            for i in range(2):
                for j in range(2):
                    # C holds the coefficients of the output transposed.
                    got[j][i] ^= t.c.get(i, j) & prod
        assert got == want.to_rows()


def test_verify_catches_a_flipped_bit(strassen):
    bad = Triplet(strassen.triplets[0].a + Gf2Matrix.parse("01;00"),
                  strassen.triplets[0].b, strassen.triplets[0].c)
    d = Decomposition(2, 2, 2, (bad,) + strassen.triplets[1:])
    assert not verify(d)


def test_triplet_dims_checked():
    with pytest.raises(ShapeError):
        Triplet(Gf2Matrix(2, 2, 0), Gf2Matrix(2, 2, 0),
                Gf2Matrix(2, 3, 0)).dims()
    with pytest.raises(ShapeError):
        Decomposition(2, 2, 2, (Triplet(Gf2Matrix(2, 3, 0),
                                        Gf2Matrix(3, 2, 0),
                                        Gf2Matrix(2, 2, 0)),))


def test_json_round_trip(strassen, tmp_path):
    obj = decomposition_to_json(strassen)
    back = decomposition_from_json(obj)
    assert back == strassen
    path = tmp_path / "d.json"
    dump_decomposition(strassen, path)
    assert load_decomposition(path) == strassen
    # File is plain JSON with the documented keys.
    raw = json.loads(path.read_text())
    assert set(raw) == {"n", "k", "m", "triplets"}
    assert set(raw["triplets"][0]) == {"A", "B", "C"}


def test_json_rejects_non_bits():
    obj = {"n": 1, "k": 1, "m": 1, "triplets": [{"A": [[2]], "B": [[1]], "C": [[1]]}]}
    with pytest.raises(ValueError):
        decomposition_from_json(obj)
    obj["triplets"][0]["A"] = [["1"]]
    with pytest.raises(ValueError):
        decomposition_from_json(obj)
