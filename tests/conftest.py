import random
import shutil

import pytest

from mmtsat.canonical import SymmetricDecomposition
from mmtsat.gf2 import Gf2Matrix
from mmtsat.symmetry import CONDITION_OPS, GroupId, orbit_kinds
from mmtsat.tensor import Decomposition, Triplet

# Default external solver; any DIMACS solver printing s/v lines works.
SOLVER_CMD = "splr -q -C -r - {cnf}"


def solver_available() -> bool:
    return shutil.which(SOLVER_CMD.split()[0]) is not None


requires_solver = pytest.mark.skipif(
    not solver_available(), reason="no DIMACS solver on PATH")


@pytest.fixture
def solver_cmd():
    if not solver_available():
        pytest.skip("no DIMACS solver on PATH")
    return SOLVER_CMD


def _m(text: str) -> Gf2Matrix:
    return Gf2Matrix.parse(text)


# Strassen's rank-7 decomposition of <2,2,2>, coefficients reduced mod 2.
STRASSEN_MOD2 = Decomposition(2, 2, 2, (
    Triplet(_m("10;01"), _m("10;01"), _m("10;01")),
    Triplet(_m("00;11"), _m("10;00"), _m("01;01")),
    Triplet(_m("10;00"), _m("01;01"), _m("00;11")),
    Triplet(_m("00;01"), _m("10;10"), _m("11;00")),
    Triplet(_m("11;00"), _m("00;01"), _m("10;10")),
    Triplet(_m("10;10"), _m("11;00"), _m("00;01")),
    Triplet(_m("01;01"), _m("00;11"), _m("10;00")),
))


@pytest.fixture
def strassen():
    return STRASSEN_MOD2


def random_matrix(rng: random.Random, n: int) -> Gf2Matrix:
    return Gf2Matrix(n, n, rng.getrandbits(n * n))


def random_invertible(rng: random.Random, n: int) -> Gf2Matrix:
    while True:
        m = random_matrix(rng, n)
        if m.is_invertible():
            return m


def random_triplet(rng: random.Random, n: int) -> Triplet:
    return Triplet(random_matrix(rng, n), random_matrix(rng, n),
                   random_matrix(rng, n))


def random_fixed_matrix(rng: random.Random, condition: str, n: int) -> Gf2Matrix:
    """A uniform random matrix meeting a side condition: drawn until the
    condition's map is None or fixes it."""
    op = CONDITION_OPS[condition]
    while True:
        m = random_matrix(rng, n)
        if op is None or op(m) == m:
            return m


def random_rep(rng: random.Random, kind, n: int) -> tuple[Gf2Matrix, ...]:
    """One representative of `kind`, each matrix drawn to meet its role's
    side condition."""
    return tuple(random_fixed_matrix(rng, c, n) for c in kind.conditions)


def random_symmetric_decomposition(rng: random.Random, group: GroupId,
                                   n: int, max_per_kind: int = 2
                                   ) -> SymmetricDecomposition:
    orbits = {}
    for kind in orbit_kinds(group):
        orbits[kind.tag] = tuple(random_rep(rng, kind, n)
                                 for _ in range(rng.randint(0, max_per_kind)))
    return SymmetricDecomposition(group, n, orbits)
