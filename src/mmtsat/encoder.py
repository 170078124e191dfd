"""CNF compilation of symmetric tensor-decomposition existence questions.

Each role of an orbit representative spans the fixed space
{m : op(m) == m} of its side condition's linear map: one SAT variable per
free cell, every other cell the XOR of free-cell variables.  Each fixed
matrix is the image of exactly one assignment, so no side equations are
emitted; a free cell equals its variable, so a primary's (mat, row, col)
label names its cell.  The encoder expands orbits with the same
expansion function the concrete expander uses, emits the per-entry
tensor equations plus the lexicographic symmetry-breaking constraints,
and can decode any model back into a verified decomposition.  Roles,
side conditions, expansions and ordering constraints are all read from
the same table in symmetry that check_canonical reads.

Tensor equations are emitted once per orbit of tensor entries.  A group
generator that permutes a triplet's matrices, applying an image op that
permutes matrix cells (transposition; conjugation by F does not), maps
the entry (x0, x1, x2) of cells to y with y[r] = pi(x_k) for the k-th
slot (r, primed) of the generator row.  Because the expanded symbolic
decomposition is invariant under the generator and so is the target
tensor, the equation at y is the same XOR of the same AND terms as the
equation at x.  The emitted equations are a subset of the full set, so
an UNSAT answer still rules the combo out; and since each dropped
equation repeats an emitted one, no model is added.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby, product

from . import boolexpr as bx
from .boolexpr import CnfBuilder, CnfInstance, Expr, lex_less
from .canonical import SymmetricDecomposition
from .gf2 import Gf2Matrix
from .symmetry import (
    CONDITION_OPS,
    GroupId,
    expand,
    lex_constraints,
    orbit_kinds,
    scheme,
    total_rank,
)
from .tensor import Decomposition, mm_tensor

SymMatrix = tuple[tuple[Expr, ...], ...]
Cell = tuple[int, int]
Entry = tuple[Cell, Cell, Cell]  # ((a, b), (c, d), (e, f)) of the tensor


@dataclass(frozen=True)
class VarEntry:
    var: int
    orbit: str
    index: int
    mat: str
    row: int
    col: int


@dataclass
class VarMap:
    primary: list[VarEntry] = field(default_factory=list)
    aux_start: int = 0

    def to_json(self) -> dict:
        return {
            "primary": [
                {"var": e.var, "orbit": e.orbit, "index": e.index,
                 "mat": e.mat, "row": e.row, "col": e.col}
                for e in self.primary
            ],
            "aux_start": self.aux_start,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VarMap":
        return cls(
            primary=[VarEntry(e["var"], e["orbit"], e["index"],
                              e["mat"], e["row"], e["col"])
                     for e in obj["primary"]],
            aux_start=obj["aux_start"],
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "VarMap":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


# -- symbolic matrix algebra -------------------------------------------------


@lru_cache
def _entry_terms(op, n: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """For a GF(2)-linear map on n x n matrices: the input entries, in
    row-major order, whose XOR gives each output entry."""
    units = {(k, l): op(Gf2Matrix(n, n, 1 << (k * n + l)))
             for k in range(n) for l in range(n)}
    return tuple(tuple(tuple(kl for kl, u in units.items() if u.get(i, j))
                       for j in range(n)) for i in range(n))


def _lift(op, n: int):
    """A GF(2)-linear map on concrete matrices, as a map on SymMatrix."""
    if op is None:
        return None
    terms = _entry_terms(op, n)
    return lambda m: tuple(tuple(bx.xor(*(m[k][l] for k, l in terms[i][j]))
                                 for j in range(n)) for i in range(n))


@lru_cache
def _fixed_space(op, n: int) -> tuple[tuple[Cell, ...], tuple[tuple[tuple[Cell, ...], ...], ...]]:
    """The n x n matrices m with op(m) == m (every matrix when op is None),
    parametrized by free cells.

    The equations op(m)[c] + m[c] = 0 are reduced over GF(2), each pivoting
    on its last cell in row-major order.  Returns the cells without a
    pivot, row-major, and for each cell the free cells whose XOR gives it;
    a free cell is given by itself.
    """
    cells = list(product(range(n), repeat=2))
    bit = {c: 1 << k for k, c in enumerate(cells)}
    rows: dict[Cell, int] = {}  # pivot cell -> its reduced equation, as a cell mask
    for i, j in cells if op is not None else ():
        eq = bit[i, j]
        for t in _entry_terms(op, n)[i][j]:
            eq ^= bit[t]
        for p, row in rows.items():
            if eq & bit[p]:
                eq ^= row
        if eq:
            pivot = cells[eq.bit_length() - 1]
            for p, row in rows.items():
                if row & bit[pivot]:
                    rows[p] = row ^ eq
            rows[pivot] = eq
    free = tuple(c for c in cells if c not in rows)
    return free, tuple(tuple(tuple(f for f in free if rows[i, j] & bit[f])
                             if (i, j) in rows else ((i, j),)
                             for j in range(n)) for i in range(n))


@lru_cache
def _equation_entries(group: GroupId, n: int) -> dict[Entry, Entry]:
    """Every tensor entry, in row-major a..f order, mapped to the first
    entry of its orbit under the generators that permute cells."""
    s = scheme(group)
    cells = list(product(range(n), repeat=2))
    # The image op's cell permutation, if it is one: image(m)[i][j] == m[pi[i, j]].
    pi = {}
    if s.image is not None:
        terms = _entry_terms(s.image, n)
        pi = {(i, j): terms[i][j][0] for i, j in cells if len(terms[i][j]) == 1}
    moves = [row for row in s.generators
             if len(pi) == n * n or not any(im for _, im in row)]
    reps: dict[Entry, Entry] = {}
    for x in product(cells, repeat=3):
        if x in reps:
            continue
        reps[x] = x
        todo = [x]
        while todo:
            src = todo.pop()
            for row in moves:
                y = [None] * 3
                for (r, im), cell in zip(row, src):
                    y[r] = pi[cell] if im else cell
                y = tuple(y)
                if y not in reps:
                    reps[y] = x
                    todo.append(y)
    return {x: reps[x] for x in product(cells, repeat=3)}


def _flatten(mats) -> list[Expr]:
    return [e for m in mats for row in m for e in row]


# -- variable allocation -----------------------------------------------------


def build_symbolic_orbits(group: GroupId, n: int, combo: dict[str, int]):
    """Allocate primary variables and build symbolic representatives.

    Each role gets one variable per free cell of its side condition's
    fixed space, and every cell is the XOR of the variables
    `_fixed_space` names.  Returns (reps, varmap) where reps maps each
    orbit tag to its list of representative SymMatrix tuples.
    """
    varmap = VarMap()
    next_var = 0
    reps: dict[str, list[tuple[SymMatrix, ...]]] = {}

    for kind in orbit_kinds(group):
        count = combo.get(kind.tag, 0)
        if count < 0:
            raise ValueError("orbit counts must be nonnegative")
        reps[kind.tag] = []
        for idx in range(count):
            rep = []
            for role, condition in zip(kind.roles, kind.conditions):
                free, basis = _fixed_space(CONDITION_OPS[condition], n)
                cells: dict[Cell, Expr] = {}
                for i, j in free:
                    next_var += 1
                    varmap.primary.append(
                        VarEntry(next_var, kind.tag, idx, role, i, j))
                    cells[i, j] = bx.var(next_var)
                rep.append(tuple(tuple(bx.xor(*(cells[c] for c in terms))
                                       for terms in row) for row in basis))
            reps[kind.tag].append(tuple(rep))
    varmap.aux_start = next_var + 1
    return reps, varmap


# -- encoding ----------------------------------------------------------------


def symmetry_breaking(group: GroupId, n: int, reps) -> list[Expr]:
    """The canonical form's lex-order constraints on symbolic representatives."""
    image = _lift(scheme(group).image, n)
    return [lex_less(_flatten(lhs), _flatten(rhs))
            for kind in orbit_kinds(group)
            for _, _, lhs, rhs in lex_constraints(kind, reps[kind.tag], image)]


def encode(group: GroupId, n: int, combo: dict[str, int]) -> tuple[CnfInstance, VarMap]:
    """CNF whose models are exactly the canonical-form symmetric
    decompositions of <n,n,n> with the given orbit counts."""
    rank = total_rank(group, combo)
    if rank < 1:
        raise ValueError("total rank must be at least 1")
    reps, varmap = build_symbolic_orbits(group, n, combo)
    builder = CnfBuilder(varmap.aux_start - 1)

    # Tensor equations: for one entry per orbit of entries, the XOR of
    # the per-triplet AND terms over the fully expanded decomposition
    # equals the target bit.
    image = _lift(scheme(group).image, n)
    triplets = [trip for kind in orbit_kinds(group) for rep in reps[kind.tag]
                for trip in expand(kind, rep, image)]
    target = mm_tensor(n, n, n)
    for entry, rep in _equation_entries(group, n).items():
        if entry != rep:
            continue
        (a, b), (c, d), (e, f) = entry
        expr = bx.xor(*(bx.and_(ta[a][b], tb[c][d], tc[e][f])
                        for ta, tb, tc in triplets))
        if not target.get(a, b, c, d, e, f):
            expr = bx.not_(expr)
        builder.assert_expr(expr)

    # Non-zero representatives: some primary variable of each is true.
    for _, entries in groupby(varmap.primary, lambda e: (e.orbit, e.index)):
        builder.add_clause(e.var for e in entries)

    for expr in symmetry_breaking(group, n, reps):
        builder.assert_expr(expr)

    comments = [f"mmtsat group={group.value} n={n} "
                f"combo={','.join(f'{k}={v}' for k, v in sorted(combo.items()))} "
                f"rank={rank}"]
    comments.extend(f"var {e.var} = {e.orbit}[{e.index}].{e.mat}[{e.row}][{e.col}]"
                    for e in varmap.primary)
    comments.append(f"aux vars start at {varmap.aux_start}")
    return builder.build(comments), varmap


# -- decoding ----------------------------------------------------------------


class DecodeError(ValueError):
    pass


def decode(model: dict[int, bool], varmap: VarMap, group: GroupId,
           n: int) -> tuple[SymmetricDecomposition, Decomposition]:
    """Reconstruct representatives from a model's primary variables,
    read through the symbolic representatives the encoder builds."""
    counts: dict[str, int] = {}
    for e in varmap.primary:
        counts[e.orbit] = max(counts.get(e.orbit, 0), e.index + 1)
    reps, layout = build_symbolic_orbits(group, n, counts)
    if layout.primary != varmap.primary:
        raise DecodeError("variable map does not match the encoder's layout")
    for e in varmap.primary:
        if e.var not in model:
            raise DecodeError(f"incomplete model: model does not assign variable {e.var}")
    orbits = {tag: tuple(tuple(Gf2Matrix.from_rows(
                  [[int(bx.evaluate(cell, model)) for cell in row] for row in mat])
                  for mat in rep) for rep in tag_reps)
              for tag, tag_reps in reps.items()}
    sd = SymmetricDecomposition(group, n, orbits)
    return sd, sd.expand()
