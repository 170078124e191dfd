import random
import shutil
import stat

import pytest

from mmtsat.canonical import SymmetricDecomposition, canonicalize
from mmtsat.encoder import encode
from mmtsat.gf2 import Gf2Matrix
from mmtsat.symmetry import GroupId, kind_by_tag, orbit_kinds, scheme
from mmtsat.tensor import Decomposition, Triplet

# Default external solver; any DIMACS solver printing s/v lines works.
SOLVER_CMD = "splr -q -C -r - {cnf}"


def solver_available() -> bool:
    return shutil.which(SOLVER_CMD.split()[0]) is not None


requires_solver = pytest.mark.skipif(
    not solver_available(), reason="no DIMACS solver on PATH")


def unit_closure(clauses, assignment) -> dict | None:
    """The assignment of variable ids to bools that unit propagation
    reaches from a partial one; None when it falsifies a clause."""
    assignment = dict(assignment)
    clauses = list(clauses)  # read once per round
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            unassigned = []
            for lit in cl:
                val = assignment.get(abs(lit))
                if val is None:
                    unassigned.append(lit)
                elif (lit > 0) == val:
                    break
            else:
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    lit = unassigned[0]
                    assignment[abs(lit)] = lit > 0
                    changed = True
    return assignment


def propagate(clauses, assignment) -> bool:
    """False when unit propagation from a partial assignment falsifies a
    clause.

    Tseitin auxiliaries are functionally determined by the primary
    inputs, so once the primaries are fixed propagation alone decides
    the CNF.
    """
    return unit_closure(clauses, assignment) is not None


def fake_solver(tmp_path, script_body: str) -> str:
    """A solver command template that runs script_body as a shell script,
    written to tmp_path, with the CNF path as $1."""
    path = tmp_path / "fakesolver.sh"
    path.write_text("#!/bin/sh\n" + script_body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return f"{path} {{cnf}}"


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


def strassen_literals() -> list[int]:
    """A complete model of the cyc n=2 id=2,delta=1 CNF, one literal per
    variable: its primaries set to Strassen's decomposition mod 2, which
    is cyc-symmetric, in canonical form, and its auxiliaries as unit
    propagation from them decides them."""
    t = STRASSEN_MOD2.triplets
    sd = canonicalize(SymmetricDecomposition(GroupId.CYCLIC, 2, {
        "id": ((t[1].a, t[1].b, t[1].c), (t[3].a, t[3].b, t[3].c)), "delta": ((t[0].a,),)}))
    cnf, varmap = encode(GroupId.CYCLIC, 2, sd.counts())
    primaries = {}
    for e in varmap.primary:
        m = sd.orbits[e.orbit][e.index][kind_by_tag(GroupId.CYCLIC, e.orbit).roles.index(e.mat)]
        primaries[e.var] = bool(m.get(e.row, e.col))
    model = unit_closure(cnf.clauses, primaries)
    assert model is not None and len(model) == cnf.num_vars
    return [v if model[v] else -v for v in sorted(model)]


def present_kinds(group: GroupId, counts: dict) -> tuple[str, ...]:
    """The tags of the kinds with a nonzero count, in the group's order."""
    return tuple(kind.tag for kind in orbit_kinds(group) if counts.get(kind.tag))


def random_matrix(rng: random.Random, n: int) -> Gf2Matrix:
    return Gf2Matrix(n, n, rng.getrandbits(n * n))


def random_invertible(rng: random.Random, n: int) -> Gf2Matrix:
    while True:
        m = random_matrix(rng, n)
        if m.inverse() is not None:
            return m


def random_triplet(rng: random.Random, n: int) -> Triplet:
    return Triplet(random_matrix(rng, n), random_matrix(rng, n),
                   random_matrix(rng, n))


def random_fixed_matrix(rng: random.Random, op, n: int) -> Gf2Matrix:
    """A uniform random matrix that the linear map `op` fixes (any
    matrix when op is None), drawn until one is."""
    while True:
        m = random_matrix(rng, n)
        if op is None or op(m) == m:
            return m


def random_rep(rng: random.Random, group: GroupId, kind,
               n: int) -> tuple[Gf2Matrix, ...]:
    """One representative of `kind`, each role drawn from the matrices
    the group's image op fixes when the role is flagged fixed."""
    image = scheme(group).image
    return tuple(random_fixed_matrix(rng, image if fixed else None, n)
                 for fixed in kind.fixed)


def random_symmetric_decomposition(rng: random.Random, group: GroupId,
                                   n: int, max_per_kind: int = 2
                                   ) -> SymmetricDecomposition:
    orbits = {}
    for kind in orbit_kinds(group):
        orbits[kind.tag] = tuple(random_rep(rng, group, kind, n)
                                 for _ in range(rng.randint(0, max_per_kind)))
    return SymmetricDecomposition(group, n, orbits)
