"""Tseitin compilation of gates over DIMACS literals to CNF.

A literal is a non-zero int (a negative one is the negated variable) or a
Python bool, which is a constant.  The gates `and_`, `or_`, `xor` and the
majority `maj` fold constants and repeated or complementary arguments
before they allocate a variable (MAJ of an equal pair is that literal, of
a complementary pair its third argument, with True the OR and with False
the AND of the other two), and share one gate per sorted argument set.
An XOR gate is a balanced tree of parity blocks of at most XOR_WIDTH
inputs, each defining one variable (a block of w inputs costs 2^w
clauses); the others are standard Tseitin gates.

`lex_less` compiles a lexicographic comparison to one literal, a chain of
MAJ gates.  The top-level constraint `assert_parity` takes products,
tuples of literals that are conjoined, and asserts their XOR; a comparison
is asserted as the lone product of its literal.  Products are folded
first, so a lone product becomes unit clauses or one clause, never a gate.
Otherwise the XOR of k literals is asserted directly as one block when
k <= XOR_WIDTH + 1 (2^(k-1) clauses), and else as a chain of the fewest
blocks that define a variable each, with the root block asserted: this
uses fewer variables and clauses than reducing it by the XOR gate's
tree and asserting that literal, and propagation still forces the last
free input.  `fold_products` and `assert_xor` are the two halves of
`assert_parity`, for callers that gate products themselves, and
`share_xor` hands the builder XOR gates built elsewhere.

Clauses are appended to `CnfBuilder.clauses` as finished tuples of ints:
a gate writes its tuples directly, and a parity block picks each of its
clauses out of (l_0, -l_0, l_1, -l_1, ...) with one precomputed
`itemgetter` per forbidden pattern, in mask order.  `CnfInstance.to_dimacs`
renders the whole clause list with one `%`: its format is the join of
one `"%d " * k + "0\n"` per clause of width k (" 0\n" for the empty
clause), applied to every literal in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

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


@dataclass
class CnfInstance:
    num_vars: int
    clauses: list[tuple[int, ...]]
    comments: list[str] = field(default_factory=list)

    def to_dimacs(self) -> str:
        head = "".join(f"c {c}\n" for c in self.comments)
        head += f"p cnf {self.num_vars} {len(self.clauses)}\n"
        # One "%d " per literal: the body is a single % over all literals.
        widths = list(map(len, self.clauses))
        formats = [" 0\n"] + ["%d " * k + "0\n" for k in range(1, max(widths, default=0) + 1)]
        body = "".join(map(formats.__getitem__, widths))
        return head + body % tuple(chain.from_iterable(self.clauses))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_dimacs())


# Widest parity block that XOR chains are split into.
XOR_WIDTH = 4


def _parity_selectors(k: int, parity: int) -> tuple[itemgetter, ...]:
    """The clauses forcing the XOR of k literals to parity, one per
    forbidden truth-value pattern (mask bit i set: l_i is true), as
    selectors over (l_0, -l_0, l_1, -l_1, ...)."""
    out = []
    for mask in range(1 << k):
        if bin(mask).count("1") % 2 != parity:
            picks = [2 * i + (mask >> i & 1) for i in range(k)]
            if k > 1:
                out.append(itemgetter(*picks))
            else:  # one index would give a bare item; a slice gives a tuple
                start = sum(picks)
                out.append(itemgetter(slice(start, start + k)))
    return tuple(out)


_PARITY_SELECTORS = {(k, parity): _parity_selectors(k, parity)
                     for k in range(XOR_WIDTH + 2) for parity in (0, 1)}


class CnfBuilder:
    """Folding Tseitin gates with one gate per kind and sorted arguments."""

    def __init__(self, num_primary: int):
        self.num_vars = num_primary
        self.clauses: list[tuple[int, ...]] = []
        self._gates: dict[tuple, int] = {}  # (kind, sorted args) -> variable

    def fresh_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits) -> None:
        self.clauses.append(tuple(lits))

    def _parity_clauses(self, lits, parity: int) -> None:
        """Clauses forcing XOR of lits == parity (at most XOR_WIDTH + 1)."""
        pool = tuple([x for l in lits for x in (l, -l)])
        self.clauses += [select(pool) for select in _PARITY_SELECTORS[len(lits), parity]]

    def _xor_to_lit(self, lits) -> int:
        """Balanced reduction of an XOR chain to a single literal."""
        while len(lits) > 1:
            nxt = []
            for i in range(0, len(lits), XOR_WIDTH):
                chunk = list(lits[i:i + XOR_WIDTH])
                if len(chunk) == 1:
                    nxt.append(chunk[0])
                    continue
                v = self.fresh_var()
                self._parity_clauses(chunk + [v], 0)
                nxt.append(v)
            lits = nxt
        return lits[0]

    def _and_gate(self, lits: tuple[int, ...]) -> int:
        v = self._gates.get(("and", lits))
        if v is None:
            v = self._gates["and", lits] = self.fresh_var()
            self.clauses += [(-v, l) for l in lits]
            self.clauses.append((v, *[-l for l in lits]))
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
                v = self._gates["xor", odd] = self._xor_to_lit(odd)
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
            self.clauses += [(-x, -y, v), (x, y, -v), (-x, -z, v), (x, z, -v),
                             (-y, -z, v), (y, z, -v)]
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
                self.clauses += [(l,) for l in p]
            else:
                self.clauses.append(tuple([-l for l in p]))
            return
        # Each p is folded already: and_(*p) would fold it again.
        flip, lits = _parity(p[0] if len(p) == 1 else self._and_gate(p) for p in odd)
        self.assert_xor(lits, parity ^ flip)

    def assert_xor(self, lits: list[int], parity: int) -> None:
        """The XOR of distinct variables, in ascending order, equals parity:
        one block, or a chain of blocks past XOR_WIDTH + 1 variables."""
        if len(lits) > XOR_WIDTH + 1:
            lits = self._chain_blocks(lits)
        self._parity_clauses(lits, parity)

    def share_xor(self, gates) -> None:
        """Reuse gates built elsewhere: each (sorted variables, literal)
        stands for their XOR, as if xor() had built it here."""
        self._gates.update((("xor", odd), v) for odd, v in gates)

    def _chain_blocks(self, lits) -> list:
        """Chain the fewest auxiliary blocks over lits; returns the root's
        literals (at most XOR_WIDTH + 1), whose XOR is that of lits.

        Each of the m blocks defines one auxiliary as the XOR of at most
        XOR_WIDTH inputs, the previous block's auxiliary first.  The
        k + m - 1 inputs that are not the last auxiliary are spread as
        evenly as possible over the blocks and the root, so no block
        costs more than it must (2^w clauses for w inputs, 2^(w-1) for
        the asserted root, which takes the last auxiliary on top).
        """
        m = -(-(len(lits) - XOR_WIDTH - 1) // (XOR_WIDTH - 1))
        share, extra = divmod(len(lits) + m - 1, m + 1)
        carry: list = []
        start = 0
        for i in range(m):
            end = start + share + (i < extra) - len(carry)
            v = self.fresh_var()
            self._parity_clauses([*carry, *lits[start:end], v], 0)
            carry, start = [v], end
        return [*carry, *lits[start:]]

    def build(self, comments: list[str] | None = None) -> CnfInstance:
        return CnfInstance(self.num_vars, self.clauses, comments or [])
