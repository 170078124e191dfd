"""Boolean expression DAGs and Tseitin conversion to CNF.

Expressions are immutable; the smart constructors fold constants so that
only satisfiable structure reaches the converter.  The converter shares
one gate per distinct subexpression, and one AND gate per set of
argument literals whatever their order.  XOR nodes are split
into balanced trees of bounded-width parity blocks (a width-w block
costs 2^w clauses), everything else uses the standard Tseitin gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: bool


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based DIMACS variable id


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr


@dataclass(frozen=True)
class And(Expr):
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Or(Expr):
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Xor(Expr):
    args: tuple[Expr, ...]


TRUE = Const(True)
FALSE = Const(False)


def var(index: int) -> Var:
    return Var(index)


def not_(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(not e.value)
    if isinstance(e, Not):
        return e.arg
    return Not(e)


def and_(*exprs: Expr) -> Expr:
    args = []
    for e in exprs:
        if isinstance(e, Const):
            if not e.value:
                return FALSE
        else:
            args.append(e)
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return And(tuple(args))


def or_(*exprs: Expr) -> Expr:
    args = []
    for e in exprs:
        if isinstance(e, Const):
            if e.value:
                return TRUE
        else:
            args.append(e)
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return Or(tuple(args))


def xor(*exprs: Expr) -> Expr:
    parity = False
    args = []
    for e in exprs:
        if isinstance(e, Const):
            parity ^= e.value
        else:
            args.append(e)
    if not args:
        return Const(parity)
    core: Expr = args[0] if len(args) == 1 else Xor(tuple(args))
    return not_(core) if parity else core


def evaluate(e: Expr, assignment: dict[int, bool]) -> bool:
    """Evaluate against a total assignment of variable ids."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return assignment[e.index]
    if isinstance(e, Not):
        return not evaluate(e.arg, assignment)
    if isinstance(e, And):
        return all(evaluate(a, assignment) for a in e.args)
    if isinstance(e, Or):
        return any(evaluate(a, assignment) for a in e.args)
    if isinstance(e, Xor):
        acc = False
        for a in e.args:
            acc ^= evaluate(a, assignment)
        return acc
    raise TypeError(f"unknown expression {e!r}")


def lex_less(a: list[Expr], b: list[Expr]) -> Expr:
    """Strict lexicographic less-than on equal-length bit vectors.

    Empty-vs-empty is FALSE; otherwise (not a0 and b0) or
    (a0 == b0 and rest-less-than), built back to front so the
    suffix comparison is shared.
    """
    if len(a) != len(b):
        raise ValueError(f"lex_less length mismatch: {len(a)} vs {len(b)}")
    result: Expr = FALSE
    for x, y in zip(reversed(a), reversed(b)):
        result = or_(and_(not_(x), y), and_(not_(xor(x, y)), result))
    return result


@dataclass
class CnfInstance:
    num_vars: int
    clauses: list[tuple[int, ...]]
    comments: list[str] = field(default_factory=list)

    def to_dimacs(self) -> str:
        lines = [f"c {c}" for c in self.comments]
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        lines.extend(" ".join(str(lit) for lit in cl) + " 0" for cl in self.clauses)
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_dimacs())


# Widest parity block that XOR chains are split into.
XOR_WIDTH = 4


class CnfBuilder:
    """Tseitin converter with structural sharing and bounded-width XOR."""

    def __init__(self, num_primary: int):
        self.num_vars = num_primary
        self.clauses: list[tuple[int, ...]] = []
        self._cache: dict[Expr, int] = {}
        # AND gates by their sorted literals: And(x, y) and And(y, x)
        # are different Exprs but one gate.
        self._and_gates: dict[tuple[int, ...], int] = {}

    def fresh_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits) -> None:
        self.clauses.append(tuple(lits))

    def _parity_clauses(self, lits: list[int], parity: int) -> None:
        """Clauses forcing XOR of lits == parity (lits must be few)."""
        k = len(lits)
        for mask in range(1 << k):
            if bin(mask).count("1") % 2 != parity:
                # This truth-value pattern is forbidden.
                self.add_clause(-lits[i] if (mask >> i) & 1 else lits[i]
                                for i in range(k))

    def _xor_to_lit(self, lits: list[int]) -> int:
        """Balanced reduction of an XOR chain to a single literal."""
        while len(lits) > 1:
            nxt = []
            for i in range(0, len(lits), XOR_WIDTH):
                chunk = lits[i:i + XOR_WIDTH]
                if len(chunk) == 1:
                    nxt.append(chunk[0])
                    continue
                v = self.fresh_var()
                self._parity_clauses(chunk + [v], 0)
                nxt.append(v)
            lits = nxt
        return lits[0]

    def lit(self, e: Expr) -> int:
        if isinstance(e, Var):
            return e.index
        if isinstance(e, Not):
            return -self.lit(e.arg)
        if isinstance(e, Const):
            raise ValueError("constants must be folded before conversion; "
                             "assert them at the top level instead")
        cached = self._cache.get(e)
        if cached is not None:
            return cached
        if isinstance(e, And):
            lits = [self.lit(a) for a in e.args]
            key = tuple(sorted(lits))
            v = self._and_gates.get(key)
            if v is None:
                v = self._and_gates[key] = self.fresh_var()
                for l in lits:
                    self.add_clause((-v, l))
                self.add_clause([v] + [-l for l in lits])
        elif isinstance(e, Or):
            lits = [self.lit(a) for a in e.args]
            v = self.fresh_var()
            for l in lits:
                self.add_clause((v, -l))
            self.add_clause([-v] + lits)
        elif isinstance(e, Xor):
            lits = [self.lit(a) for a in e.args]
            v = self._xor_to_lit(lits)
        else:
            raise TypeError(f"unknown expression {e!r}")
        self._cache[e] = v
        return v

    def assert_expr(self, e: Expr) -> None:
        if isinstance(e, Const):
            if not e.value:
                self.add_clause(())  # trivially UNSAT by construction
            return
        if isinstance(e, And):
            for a in e.args:
                self.assert_expr(a)
            return
        if isinstance(e, Or):
            self.add_clause(self.lit(a) for a in e.args)
            return
        parity = 1
        if isinstance(e, Not) and isinstance(e.arg, Xor):
            e, parity = e.arg, 0
        if isinstance(e, Xor):
            lits = [self.lit(a) for a in e.args]
            if len(lits) <= XOR_WIDTH:
                self._parity_clauses(lits, parity)
            else:
                v = self._xor_to_lit(lits)
                self.add_clause((v if parity else -v,))
            return
        self.add_clause((self.lit(e),))

    def build(self, comments: list[str] | None = None) -> CnfInstance:
        return CnfInstance(self.num_vars, self.clauses, comments or [])
