"""Tseitin compilation of gates over DIMACS literals to CNF.

A literal is a non-zero int (a negative one is the negated variable) or a
Python bool, which is a constant.  The gates `and_`, `or_`, `xor` and the
majority `maj` fold constants and repeated or complementary arguments
before they allocate a variable (MAJ of an equal pair is that literal, of
a complementary pair its third argument, with True the OR and with False
the AND of the other two), and share one gate per sorted argument set.
An XOR gate allocates its variable v and asserts XOR(inputs, v) = 0
as any other XOR is asserted (a gate of w <= XOR_WIDTH inputs is one
block of 2^w clauses); the others are standard Tseitin gates.

`lex_less` compiles a lexicographic comparison to one literal, a chain of
MAJ gates.  The top-level constraint `assert_parity` takes products,
tuples of literals that are conjoined, and asserts their XOR; a comparison
is asserted as the lone product of its literal.  Products are folded
first, so a lone product becomes unit clauses or one clause, never a gate.
Otherwise the XOR of k literals is asserted directly as one block when
k <= XOR_WIDTH + 1 (2^(k-1) clauses), and else as a chain of the fewest
blocks that define a variable each, with the root block asserted: this
uses fewer variables and clauses than reducing it by a balanced tree of
blocks and asserting that literal, and propagation still forces the
last free input.  `fold_products` and `assert_xor` are the two halves of
`assert_parity`, for callers that gate products themselves, and
`share_xor` hands the builder XOR gates built elsewhere.

A `CnfBuilder` is the `CnfInstance` it builds: it adds the gate table
to the instance's fields, and a caller hands it on as the CNF with its
comments set.  Clauses are kept in one flat list of ints, `lits`, in
DIMACS order with a 0 after each clause, from the gates to the DIMACS
text: a gate appends its literals and terminators directly.  An
asserted XOR picks all of its clauses, terminators included, out of the
pool (l_0, -l_0, ..., l_{k-1}, -l_{k-1}, a_0, -a_0, ..., 0) of its
variables and auxiliaries with one `itemgetter`: `_xor_layout`, the one
layout compiler, writes it once per (k, parity) straight over pool
slots, block by block and each block's clauses in mask order.
`assert_xors` applies that selector once to many XORs of the same k and
parity, given as one flat list of their literals, XOR by XOR, whose
every k-th item from j on is a column, one pool position across all of
them; `assert_xor` is its call for one XOR.
`clauses` is a read-only view of the list as tuples.  `to_dimacs`
renders it with one join over a shared table of literal strings ("v "
at v, "-v " at -v from the end, "0\n" at 0), so a clause's line ends
where its terminator is, and an empty clause's line is its terminator's
"0" alone.
"""

from __future__ import annotations

import operator
import os
from functools import lru_cache
from itertools import chain, repeat
from operator import add, itemgetter

Lit = int | bool


def neg(x: Lit) -> Lit:
    # -True is -1, a variable: test for a bool first.
    return not x if isinstance(x, bool) else -x


def _same(x: Lit, y: Lit) -> bool:
    # True == 1: a constant and a variable are never the same.
    return type(x) is type(y) and x == y


def _product(args) -> tuple[int, ...] | bool:
    """The conjunction of args: False, or its distinct literals sorted
    (the empty tuple is True)."""
    if False in args:  # no literal is 0, so this finds only the constant
        return False
    lits = {x for x in args if x is not True}
    if not lits.isdisjoint([-x for x in lits]):
        return False
    return tuple(sorted(lits))


def fold_products(products, parity: int) -> tuple[list[tuple[int, ...]], int]:
    """Fold each product and cancel equal ones in pairs: the survivors in
    first-seen order, and parity flipped once per product folded to True."""
    odd: dict[tuple[int, ...], None] = {}
    for p in map(_product, products):
        if p is False:
            continue
        if not p:
            parity ^= 1
        elif p in odd:
            del odd[p]
        else:
            odd[p] = None
    return list(odd), parity


def _parity(args) -> tuple[bool, tuple[int, ...]]:
    """The XOR of args as (constant, variables of odd multiplicity sorted)."""
    parity = False
    odd: set[int] = set()
    for x in args:
        if isinstance(x, bool):
            parity ^= x
        else:
            parity ^= x < 0
            odd ^= {abs(x)}
    return parity, tuple(sorted(odd))


class Clauses:
    """A read-only view of a flat, zero-terminated literal list as clause
    tuples: it supports len, iteration, indexing, slicing (to a list of
    tuples) and index, and stores nothing but the list."""

    __slots__ = ("_lits",)

    def __init__(self, lits: list[int]):
        self._lits = lits

    def __len__(self) -> int:
        return self._lits.count(0)

    def __iter__(self):
        lits = self._lits
        find = lits.index
        start = 0
        for _ in range(len(self)):
            end = find(0, start)
            yield tuple(lits[start:end])
            start = end + 1

    def __getitem__(self, i):
        return list(self)[i]

    def index(self, clause) -> int:
        return list(self).index(tuple(clause))


# The DIMACS text of each literal: "0\n" at 0, "v " at v and "-v " at -v
# (from the end) for v = 1..(len - 1) // 2.  Shared by every instance and
# only ever replaced by a larger table, never changed in place, so a table
# already handed out stays valid.
_LIT_TEXT: list[str] = ["0\n"]
# Instances with more variables render through a table of their own
# literals, so one instance cannot make the shared table arbitrarily large.
_LIT_TEXT_MAX = 1 << 16


def _lit_text(num_vars: int, lits: list[int]):
    """A map from every literal of lits to its DIMACS text."""
    global _LIT_TEXT
    if num_vars > _LIT_TEXT_MAX:
        return {l: f"{l} " if l else "0\n" for l in set(lits)}
    table = _LIT_TEXT
    size = (len(table) - 1) // 2
    if size < num_vars:
        size = min(max(num_vars, 2 * size), _LIT_TEXT_MAX)
        pos = [f"{v} " for v in range(1, size + 1)]
        table = _LIT_TEXT = ["0\n", *pos, *[f"-{v} " for v in range(size, 0, -1)]]
    return table


class CnfInstance:
    """A CNF over variables 1..num_vars, built from clause tuples.

    It holds its clauses as `lits`, each clause's literals followed by a
    0; `clauses` is a view of them as tuples.
    """

    def __init__(self, num_vars: int, clauses, comments: list[str] | None = None):
        lits: list[int] = []
        count = 0
        for clause in clauses:
            lits += clause
            lits.append(0)
            count += 1
        if lits.count(0) != count or max(lits, default=0) > num_vars \
                or -min(lits, default=0) > num_vars:
            raise ValueError("a literal is 0 or names a variable past num_vars")
        self.num_vars = num_vars
        self.lits = lits
        self.comments = comments if comments is not None else []

    @property
    def clauses(self) -> Clauses:
        return Clauses(self.lits)

    def to_dimacs(self) -> str:
        lits = self.lits
        # One literal gives its bare string, which joins to itself.
        body = "".join(itemgetter(*lits)(_lit_text(self.num_vars, lits))) if lits else ""
        count = body.count("\n")  # only a terminator's text holds one
        head = "".join(f"c {c}\n" for c in self.comments)
        return head + f"p cnf {self.num_vars} {count}\n" + body

    def write(self, path) -> None:
        write_bytes(path, self.to_dimacs().encode())


def write_bytes(path, data: bytes) -> None:
    """Create or truncate path and write data to it, with no buffering
    or newline translation between."""
    view = memoryview(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


# Widest parity block that XOR chains are split into.
XOR_WIDTH = 4


def _selector(picks: list[int]) -> itemgetter:
    """An itemgetter giving the tuple of the items at picks."""
    if len(picks) < 2:  # it would give a bare item or fail; a slice gives a tuple
        return itemgetter(slice(picks[0], picks[0] + 1) if picks else slice(0, 0))
    return itemgetter(*picks)


@lru_cache(maxsize=None)
def _xor_layout(k: int, parity: int) -> tuple[int, itemgetter]:
    """How an XOR of k variables is asserted to parity, compiled once:
    the number m of auxiliaries it needs, and one selector of all its
    clauses over the pool (l_0, -l_0, ..., l_{k-1}, -l_{k-1}, a_0, -a_0,
    ..., a_{m-1}, -a_{m-1}, 0), where a_j is the j-th auxiliary: slot s
    < k + m holds variable s at 2s and its negation at 2s + 1, and the
    terminator is at 2(k + m).  assert_xors applies the selector to
    columns of that pool, and callers that number auxiliaries ahead of
    it read m here.

    Up to XOR_WIDTH + 1 variables the layout is one block.  Past that it
    is a chain of the fewest blocks, each defining one auxiliary as the
    XOR of at most XOR_WIDTH inputs, the previous block's auxiliary
    first, and then the asserted root.  The k + m - 1 inputs that are
    not the last auxiliary are spread as evenly as possible over the
    blocks and the root, so no block costs more than it must (2^w
    clauses for w inputs, 2^(w-1) for the root, which takes the last
    auxiliary on top).  A block over slots forbids each truth-value
    pattern of the wrong parity (mask bit i set: the i-th slot's
    variable is true) by one clause, in mask order.
    """
    m = max(0, -(-(k - XOR_WIDTH - 1) // (XOR_WIDTH - 1)))
    share, extra = divmod(k + m - 1, m + 1)
    blocks = []
    carry: list[int] = []
    start = 0
    for a in range(k, k + m):
        end = start + share + (a - k < extra) - len(carry)
        blocks.append(([*carry, *range(start, end), a], 0))
        carry, start = [a], end
    blocks.append(([*carry, *range(start, k)], parity))
    picks = []
    for slots, odd in blocks:
        for mask in range(1 << len(slots)):
            if bin(mask).count("1") % 2 != odd:
                picks += [2 * s + (mask >> i & 1) for i, s in enumerate(slots)]
                picks.append(2 * (k + m))
    return m, _selector(picks)


class CnfBuilder(CnfInstance):
    """An instance grown by folding Tseitin gates, with one gate per kind
    and sorted arguments."""

    def __init__(self, num_primary: int):
        super().__init__(num_primary, ())
        self._gates: dict[tuple, int] = {}  # (kind, sorted args) -> variable

    def fresh_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits) -> None:
        self.lits += lits
        self.lits.append(0)

    def _and_gate(self, lits: tuple[int, ...]) -> int:
        v = self._gates.get(("and", lits))
        if v is None:
            v = self._gates["and", lits] = self.fresh_var()
            self.lits += [x for l in lits for x in (-v, l, 0)]
            self.lits += [v, *[-l for l in lits], 0]
        return v

    def and_(self, *args: Lit) -> Lit:
        p = _product(args)
        if p is False:
            return False
        if len(p) < 2:
            return p[0] if p else True
        return self._and_gate(p)

    def or_(self, *args: Lit) -> Lit:
        return neg(self.and_(*map(neg, args)))

    def xor(self, *args: Lit) -> Lit:
        parity, odd = _parity(args)
        if not odd:
            return parity
        if len(odd) == 1:
            v = odd[0]
        else:
            v = self._gates.get(("xor", odd))
            if v is None:
                v = self._gates["xor", odd] = self.fresh_var()
                self.assert_xor([*odd, v], 0)
        return -v if parity else v

    def maj(self, x: Lit, y: Lit, z: Lit) -> Lit:
        """At least two of x, y, z."""
        for p, q, r in ((x, y, z), (x, z, y), (y, z, x)):
            if _same(p, q):
                return p
            if _same(p, neg(q)):
                return r
            if isinstance(r, bool):
                return self.or_(p, q) if r else self.and_(p, q)
        key = tuple(sorted((x, y, z)))
        v = self._gates.get(("maj", key))
        if v is None:
            v = self._gates["maj", key] = self.fresh_var()
            self.lits += (-x, -y, v, 0, x, y, -v, 0, -x, -z, v, 0, x, z, -v, 0,
                          -y, -z, v, 0, y, z, -v, 0)
        return v

    def lex_less(self, a, b) -> Lit:
        """a < b for equal-length literal vectors, most significant first.

        This is the borrow out of a - b: from the last position on,
        borrow = MAJ(not a_i, b_i, borrow), starting from False.  A
        position where a_i is b_i passes the borrow on unchanged, so
        equal vectors give False and equal leading positions cost nothing.
        """
        if len(a) != len(b):
            raise ValueError(f"lex_less length mismatch: {len(a)} vs {len(b)}")
        borrow: Lit = False
        for x, y in zip(reversed(a), reversed(b)):
            borrow = self.maj(neg(x), y, borrow)
        return borrow

    def assert_parity(self, products, parity: int) -> None:
        """The XOR of the products equals parity."""
        odd, parity = fold_products(products, parity)
        if len(odd) == 1:
            (p,) = odd
            if parity:
                self.lits += [x for l in p for x in (l, 0)]
            else:
                self.lits += [*[-l for l in p], 0]
            return
        # Each p is folded already: and_(*p) would fold it again.
        flip, lits = _parity(p[0] if len(p) == 1 else self._and_gate(p) for p in odd)
        self.assert_xor(lits, parity ^ flip)

    def assert_xor(self, lits: list[int], parity: int) -> None:
        """The XOR of distinct variables, in ascending order, equals parity:
        one block, or a chain of blocks past XOR_WIDTH + 1 variables, whose
        auxiliaries it allocates next; no variable and odd parity is the
        empty clause.  `assert_xors` of this one XOR."""
        first = self.num_vars + 1
        self.num_vars += _xor_layout(len(lits), parity)[0]
        self.assert_xors(lits, len(lits), parity, [first])

    def assert_xors(self, lits: list[int], k: int, parity: int, firsts: list[int]) -> None:
        """For each i, the XOR of the k ascending variables
        lits[i * k:(i + 1) * k] equals parity, laid out by `_xor_layout`
        with its auxiliaries numbered from firsts[i] on; the caller has
        allocated them.  One selection over the columns, each a pool
        position across all the XORs, picks every XOR's clauses, which
        are emitted XOR by XOR."""
        aux, select = _xor_layout(k, parity)
        pool = []
        for col in (*(lits[j::k] for j in range(k)),
                    *(list(map(add, firsts, repeat(a))) for a in range(aux))):
            pool += col, list(map(operator.neg, col))
        pool.append([0] * len(firsts))
        self.lits += chain.from_iterable(zip(*select(pool)))

    def share_xor(self, gates) -> None:
        """Reuse gates built elsewhere: each (sorted variables, literal)
        stands for their XOR, as if xor() had built it here."""
        self._gates.update((("xor", odd), v) for odd, v in gates)
