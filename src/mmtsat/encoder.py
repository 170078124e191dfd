"""CNF compilation of symmetric tensor-decomposition existence questions.

Each role of an orbit representative is free, or fixed by the group's
image op and then spans {m : image(m) == m}: one SAT variable per free
cell of its space, every other cell the XOR of free-cell variables.
Each matrix of the space is the image of exactly one assignment, so no
side equations are emitted; a free cell equals its variable, so a
primary's (mat, row, col) label names its cell.  Every symbolic cell is
a linear form of the primaries, held as an int mask (bit v is primary v;
no cell has a constant term), so the linear image ops act on cells by
XOR of masks, and a model gives a cell the parity of its mask's true
bits.  The encoder expands orbits with the same expansion function the
concrete expander uses, compiles each cell it needs to one literal of a
`CnfBuilder`, emits the per-entry tensor equations plus the
lexicographic symmetry-breaking constraints, and can decode any model
back into a verified decomposition.  Roles, side conditions, expansions
and ordering constraints are all read from the same table in symmetry
that check_canonical reads.

Tensor equations are kept only at the free entries of one GF(2)
elimination.  The expanded symbolic decomposition is invariant under
every group generator, and so is the target tensor, so for every
assignment the residual (the decomposition's tensor XOR the target)
lies in the space W of tensors the generators' linear action on entries
fixes.  `gf2.fixed_space` reduces that action and names, for each entry,
the free entries whose XOR gives it on W.  So each dropped equation is
the XOR of the kept equations its basis names, for every assignment:
the residual is zero exactly when it is zero at the free entries.  The
kept equations are a subset of the full set, so an UNSAT answer still
rules the combo out, and no model is added.

The tensor equations are not compiled per combo.  Products of different
representatives share no variable, so every representative of a kind
compiles to the same gates up to a renaming of its variables.  Each
kind's block (a single representative's cell-XOR gates, AND gates and,
per kept entry, the literals whose XOR is its part of the equation) is
built once per (group, n) and cached.  It holds its clauses as the
builder does, one flat list of literals with a 0 after each clause.
`encode` numbers every variable as compiling every entry's products
through `assert_parity` does, so the variables and the clause set are
the same; only the clause order differs.  Each run of gates of that
numbering has a length known before any clause is emitted, so one
accumulate gives every run's first variable and each representative's
renaming list comes from the previous one by adding the block's run
lengths.  `encode` stamps each representative's block as one copy,
renaming every literal with one `itemgetter` over its renaming list (0
renames to 0, so terminators stay), and then asserts the entries'
combined XORs a batch at a time, one batch per (number of literals,
parity).

Whether a product survives at a kept entry depends only on which kinds
are present, since products of different representatives never cancel.
So each kind's solo-free block, which records how many products survive
at every entry, gives per set of present kinds the entries where a
count-1 kind's lone product is the only one (its solo entries, see
`_stamp_equations`), cached in `_support`.

Before any of this, once the counts are checked, `encode` asks
`span.refute`, which holds the rules, whether the combo's orbit kinds or
counts alone rule it out.  A refuted combo has no model, and `encode`
then builds no orbit, no gate and no legend: its CNF is four lines, the
header comment, a comment saying why, `p cnf 0 1` and the empty clause,
and its varmap is empty, so both say it has no variable.  Every other
combo is compiled as above, and the rules add no clause to it; `encode`
returns its builder, which is the CNF instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate, chain, groupby, product, repeat
from operator import add, itemgetter, mul, neg, xor

from .boolexpr import CnfBuilder, CnfInstance, Lit, _selector, _xor_layout, fold_products
from .canonical import SymmetricDecomposition
from .gf2 import Gf2Matrix, entry_terms, fixed_space
from .span import Refutation, refute
from .symmetry import (
    GroupId,
    check_n,
    expand,
    lex_constraints,
    orbit_kinds,
    scheme,
    total_rank,
)
from .tensor import Decomposition, mm_tensor

SymMatrix = tuple[tuple[int, ...], ...]
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
    """The primaries 1..len(primary), each with its label; the CNF's
    comments name the same labels."""
    primary: list[VarEntry] = field(default_factory=list)

    @property
    def aux_start(self) -> int:
        return len(self.primary) + 1


# -- symbolic matrix algebra -------------------------------------------------


def _lift(op, n: int):
    """A GF(2)-linear map on concrete matrices, as a map on SymMatrix."""
    if op is None:
        return None
    terms = entry_terms(op, n)
    return lambda m: tuple(tuple(reduce(xor, (m[k][l] for k, l in terms[i * n + j]), 0)
                                 for j in range(n)) for i in range(n))


@lru_cache
def _equation_entries(group: GroupId, n: int) -> tuple[tuple[Entry, ...], tuple]:
    """The fixed space of the group generators' action on tensor entries,
    in row-major a..f order.

    A generator row sends the entry y to the XOR of the entries x with
    x[r] running over the image op's terms of y[k] for the k-th slot
    (r, primed), or equal to y[k] for an unprimed slot.
    """
    s = scheme(group)
    cells = tuple(product(range(n), repeat=2))
    terms = dict(zip(cells, entry_terms(s.image, n))) if s.image else {}
    entries = tuple(product(cells, repeat=3))

    def image_terms(row, y):
        choices = [None] * 3
        for (r, im), cell in zip(row, y):
            choices[r] = terms[cell] if im else (cell,)
        return tuple(product(*choices))

    return fixed_space(entries, tuple(tuple(image_terms(row, y) for y in entries)
                                      for row in s.generators))


def cell_literals(builder: CnfBuilder):
    """A map from cell masks to their literals in builder, cached per mask."""
    lits: dict[int, Lit] = {}

    def lit(mask: int) -> Lit:
        if mask not in lits:
            args, rest = [], mask
            while rest:
                low = rest & -rest
                rest ^= low
                args.append(low.bit_length() - 1)
            lits[mask] = builder.xor(*args)
        return lits[mask]
    return lit


# -- variable allocation -----------------------------------------------------


def build_symbolic_orbits(group: GroupId, n: int, combo: dict[str, int]):
    """Allocate primary variables and build symbolic representatives.

    Each role gets one variable per free cell of its space (all matrices,
    or those the image op fixes), and every cell is the XOR of the
    variables `gf2.fixed_space` names.  Returns (reps, varmap) where reps
    maps each orbit tag to its list of representative SymMatrix tuples.
    """
    image = scheme(group).image
    varmap = VarMap()
    next_var = 0
    reps: dict[str, list[tuple[SymMatrix, ...]]] = {}

    for kind in orbit_kinds(group):
        count = combo.get(kind.tag, 0)
        reps[kind.tag] = []
        for idx in range(count):
            rep = []
            for role, fixed in zip(kind.roles, kind.fixed):
                free, basis = fixed_space(tuple(product(range(n), repeat=2)),
                                          (entry_terms(image, n),) if fixed else ())
                cells: dict[Cell, int] = {}
                for i, j in free:
                    next_var += 1
                    varmap.primary.append(
                        VarEntry(next_var, kind.tag, idx, role, i, j))
                    cells[i, j] = 1 << next_var
                rep.append(tuple(tuple(reduce(xor, (cells[c] for c in basis[i * n + j]), 0)
                                       for j in range(n)) for i in range(n)))
            reps[kind.tag].append(tuple(rep))
    return reps, varmap


# -- encoding ----------------------------------------------------------------


def tensor_equations(group: GroupId, n: int, reps):
    """The tensor equation at each free entry of the invariant space, as
    (entry, products, bit): the XOR of the products of cell masks, one
    per triplet of the expanded decomposition, equals the target bit.
    Products with a zero cell are left out."""
    image = _lift(scheme(group).image, n)
    triplets = [trip for kind in orbit_kinds(group) for rep in reps[kind.tag]
                for trip in expand(kind, rep, image)]
    target = mm_tensor(n, n, n)
    for entry in _equation_entries(group, n)[0]:
        (a, b), (c, d), (e, f) = entry
        products = [(ta[a][b], tb[c][d], tc[e][f]) for ta, tb, tc in triplets
                    if ta[a][b] and tb[c][d] and tc[e][f]]
        yield entry, products, target.get(a, b, c, d, e, f)


def nonzero_representatives(builder: CnfBuilder, varmap: VarMap) -> None:
    """Assert that some primary variable of each representative is true."""
    for _, entries in groupby(varmap.primary, lambda e: (e.orbit, e.index)):
        builder.add_clause(e.var for e in entries)


def symmetry_breaking(builder: CnfBuilder, group: GroupId, n: int, reps) -> None:
    """Assert the canonical form's lex-order constraints on symbolic
    representatives, and that a kind's distinct roles differ: one clause
    per representative over their cells' XORs.  Roles have disjoint
    primaries, so a cell XOR is constant only where both cells are 0,
    where the roles never differ."""
    lit = cell_literals(builder)

    def flat(mats):
        return [lit(cell) for m in mats for row in m for cell in row]

    image = _lift(scheme(group).image, n)
    for kind in orbit_kinds(group):
        for _, _, lhs, rhs in lex_constraints(kind, reps[kind.tag], image):
            builder.assert_parity([(builder.lex_less(flat(lhs), flat(rhs)),)], 1)
        if kind.distinct:
            r, s = kind.distinct
            for rep in reps[kind.tag]:
                builder.add_clause([lit(x ^ y) for rx, sx in zip(rep[r], rep[s])
                                    for x, y in zip(rx, sx) if x ^ y])


@dataclass(frozen=True)
class _Block:
    """One representative's share of the tensor equations, compiled once.

    Variables 1..primaries are the representative's primaries, the rest
    its gates in the order they were allocated.  `lits` holds its
    clauses as a builder does, each clause's literals followed by a 0.
    At kept entry i (the i-th of `_equation_entries`), the block
    allocates new_vars[2i] cell-XOR gate variables, then new_vars[2i + 1]
    AND gate variables, and at each solo entry it was built for it
    asserts its lone surviving product.  `survivors` lists, entry by
    entry, the literals whose XOR is its part of each other entry's
    equation, `entries` the entry of each and `widths` how many each
    entry has.  `xor_gates` is the block builder's XOR gate table, as
    (sorted variables, variable) pairs, which each copy hands the combo's
    builder renamed (`CnfBuilder.share_xor`).  A stamped copy
    numbers its primaries and each entry's gates as consecutive runs,
    and the next representative's runs follow right after them, so
    `steps[l]` is how far each copy's number for literal l (negative
    from the end) lies from the previous copy's.
    """
    primaries: int
    lits: tuple[int, ...]
    new_vars: tuple[int, ...]
    steps: tuple[int, ...]
    survivors: tuple[int, ...]
    entries: tuple[int, ...]
    widths: tuple[int, ...]
    xor_gates: tuple[tuple[tuple[int, ...], int], ...]


@lru_cache
def _block(group: GroupId, n: int, tag: str, solo: frozenset[int]) -> _Block:
    """The block of one representative of kind tag, with the lone
    surviving product asserted at each entry in solo.  The solo-free
    block's widths count the products that survive at every kept entry,
    which is what `_support` reads."""
    reps, varmap = build_symbolic_orbits(group, n, {tag: 1})
    primaries = len(varmap.primary)
    builder = CnfBuilder(primaries)
    lit = cell_literals(builder)
    new_vars, survivors = [], []
    for i, (_, products, bit) in enumerate(tensor_equations(group, n, reps)):
        start = builder.num_vars
        products = [tuple(map(lit, p)) for p in products]
        gated = builder.num_vars
        if i in solo:
            builder.assert_parity(products, bit)
            survivors.append(())
        else:
            odd, _ = fold_products(products, bit)
            survivors.append(tuple(builder.and_(*p) for p in odd))
        new_vars += gated - start, builder.num_vars - gated
    steps = [primaries] * primaries
    for k in new_vars:
        steps += [k] * k
    return _Block(
        primaries, tuple(builder.lits), tuple(new_vars),
        (0, *steps, *map(neg, reversed(steps))),
        tuple(chain.from_iterable(survivors)),
        tuple(i for i, odd in enumerate(survivors) for _ in odd),
        tuple(map(len, survivors)),
        tuple((odd, v) for (kind, odd), v in builder._gates.items() if kind == "xor"))


@lru_cache
def _target_bits(group: GroupId, n: int) -> tuple[int, ...]:
    """The target tensor's bit at each kept entry."""
    target = mm_tensor(n, n, n)
    return tuple(target.get(*sum(entry, ())) for entry in _equation_entries(group, n)[0])


@lru_cache
def _support(group: GroupId, n: int, tags: tuple[str, ...]) -> tuple[frozenset[int], ...]:
    """For a combo whose present kinds are tags: per kind its solo
    entries, where one product survives in all and it is that kind's.
    Products of different representatives never cancel, so the counts do
    not matter: they are read from each kind's solo-free block widths."""
    widths = [_block(group, n, tag, frozenset()).widths for tag in tags]
    total = list(map(sum, zip(*widths)))
    return tuple(frozenset(i for i, (w, t) in enumerate(zip(ws, total)) if w == t == 1)
                 for ws in widths)


def _stamp_equations(builder: CnfBuilder, group: GroupId, n: int, present) -> None:
    """Assert the tensor equation at every kept entry, with the variables
    and clauses assert_parity gives it, from one block per kind; present
    holds (tag, count, solo entries) of each kind of nonzero count, in
    the group's order.

    Products of different representatives share no variable, so they
    never cancel or share a gate, and each representative's gates are
    its kind's block renamed.  An entry is solo when one product survives
    in the whole combo (`_support` names them); the block of its kind,
    of count 1, asserts that product there.  Variables are numbered as
    assert_parity allocates them, entry by entry: cell-XOR gates of each
    representative in turn, then AND gates, then the chain of the entry's
    combined XOR.  A cell has no constant term, so folding never flips a
    parity.

    Every run of that numbering has a known length, so one accumulate
    numbers them all.  Clauses come in another order: each
    representative's block as one copy, then the chains, a batch per
    (number of literals, parity) and entry by entry within it.  Each
    copy appends its XOR literals to one flat list of ints as it is
    stamped, each literal l of entry i as i * scale + l, where scale
    exceeds every variable; one sort then gives every entry's literals in
    ascending order, and each batch is asserted from one flat list.  So
    an encode allocates no list per entry: at n=3, 729 live lists would
    cross CPython's gen-0 collection threshold on every encode.
    """
    # (block, count), in variable order
    kinds = [(_block(group, n, tag, solo if count == 1 else frozenset()), count)
             for tag, count, solo in present]
    bits = _target_bits(group, n)
    size = len(bits)
    xor_lits = [0] * size  # each entry's number of XOR literals
    for block, count in kinds:
        xor_lits = list(map(add, xor_lits, map(mul, block.widths, repeat(count))))
    # Per entry, the runs of each kind's cell-XOR gates, each kind's AND
    # gates and the chain's auxiliaries, and the first variable of each.
    runs = [map(mul, block.new_vars[phase::2], repeat(count))
            for phase in (0, 1) for block, count in kinds]
    runs.append(map(itemgetter(0), map(_xor_layout, xor_lits, bits)))
    width = len(runs)
    heads = list(accumulate(chain.from_iterable(zip(*runs)), initial=builder.num_vars + 1))
    builder.num_vars = heads.pop() - 1
    scale = builder.num_vars + 1
    keys: list[int] = []  # entry * scale + literal, for every entry's XOR literals
    primary = 1
    for x, (block, count) in enumerate(kinds):
        gates = [0] * (2 * size)
        gates[0::2] = heads[x::width]
        gates[1::2] = heads[len(kinds) + x::width]
        run = [*range(primary, primary + block.primaries),
               *chain.from_iterable(map(range, gates, map(add, gates, block.new_vars)))]
        primary += count * block.primaries
        rename = _selector(block.lits)
        offsets = [i * scale for i in block.entries]
        ren = [0, *run, *map(neg, reversed(run))]
        for j in range(count):
            if j:  # each copy's runs follow the previous copy's
                ren = list(map(add, ren, block.steps))
            builder.share_xor((tuple(map(ren.__getitem__, odd)), ren[v])
                              for odd, v in block.xor_gates)
            keys += map(add, offsets, map(ren.__getitem__, block.survivors))
            builder.lits += rename(ren)
    auxes = heads[width - 1::width]
    # An entry with no XOR literal is solo, or its XOR of nothing is 0
    # (the span check rules out 1).  The sort is stable, so each batch
    # keeps its entries in order.
    batch_of = list(zip(xor_lits, bits)).__getitem__
    kept = sorted(filter(xor_lits.__getitem__, range(size)), key=batch_of)
    keys.sort()
    starts = list(accumulate(xor_lits, initial=0))  # where each entry's literals begin
    for (k, parity), batch in groupby(kept, batch_of):
        batch = list(batch)
        builder.assert_xors([key % scale for i in batch for key in keys[starts[i]:starts[i] + k]],
                            k, parity, [auxes[i] for i in batch])


def empty_clause_comment(refutation: Refutation) -> str:
    """The last comment of a refuted combo's CNF, saying why it holds
    the empty clause."""
    return "empty clause: " + refutation.detail


def encode(group: GroupId, n: int, combo: dict[str, int]) -> tuple[CnfInstance, VarMap]:
    """CNF whose models are exactly the canonical-form symmetric
    decompositions of <n,n,n> with the given orbit counts.

    A combo that `span.refute` rules out has no model.  It is decided
    before any orbit is built: its CNF is the header comment, a comment
    saying why, and the empty clause over no variable, and its varmap is
    empty.
    """
    check_n(group, n)
    rank = total_rank(group, combo)
    if rank < 1:
        raise ValueError("total rank must be at least 1")
    # Every kind of the group, zeros included: one combo, one header.
    counts = sorted((kind.tag, combo.get(kind.tag, 0)) for kind in orbit_kinds(group))
    header = (f"mmtsat group={group.value} n={n} "
              f"combo={','.join(f'{k}={v}' for k, v in counts)} rank={rank}")
    refutation = refute(group, n, combo)
    if refutation is not None:
        return CnfInstance(0, [()], [header, empty_clause_comment(refutation)]), VarMap()
    reps, varmap = build_symbolic_orbits(group, n, combo)
    builder = CnfBuilder(varmap.aux_start - 1)
    builder.comments = [header, *(f"var {e.var} = {e.orbit}[{e.index}].{e.mat}[{e.row}][{e.col}]"
                                  for e in varmap.primary),
                        f"aux vars start at {varmap.aux_start}"]
    tags = tuple(kind.tag for kind in orbit_kinds(group) if combo.get(kind.tag, 0) > 0)
    _stamp_equations(builder, group, n, [(tag, combo[tag], solo) for tag, solo
                                         in zip(tags, _support(group, n, tags))])
    nonzero_representatives(builder, varmap)
    symmetry_breaking(builder, group, n, reps)
    return builder, varmap


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
    bits = sum(1 << e.var for e in varmap.primary if model[e.var])
    orbits = {tag: tuple(tuple(Gf2Matrix.from_rows(
                  [[(cell & bits).bit_count() & 1 for cell in row] for row in mat])
                  for mat in rep) for rep in tag_reps)
              for tag, tag_reps in reps.items()}
    sd = SymmetricDecomposition(group, n, orbits)
    return sd, sd.expand()
