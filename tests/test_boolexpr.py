import itertools
import random

import pytest

from mmtsat import boolexpr as bx


def test_smart_constructors_fold_constants():
    v = bx.var(1)
    assert bx.and_(bx.TRUE, v) == v
    assert bx.and_(bx.FALSE, v) == bx.FALSE
    assert bx.or_(bx.TRUE, v) == bx.TRUE
    assert bx.or_(bx.FALSE, v) == v
    assert bx.xor(bx.TRUE, v) == bx.not_(v)
    assert bx.xor(v, v, bx.TRUE) == bx.not_(bx.Xor((v, v)))
    assert bx.not_(bx.not_(v)) == v
    assert bx.equiv(bx.TRUE, v) == v
    assert bx.equiv(v, bx.FALSE) == bx.not_(v)
    assert bx.and_() == bx.TRUE and bx.or_() == bx.FALSE
    assert bx.xor() == bx.FALSE


def test_evaluate():
    e = bx.or_(bx.and_(bx.var(1), bx.not_(bx.var(2))),
               bx.xor(bx.var(2), bx.var(3)))
    assert bx.evaluate(e, {1: True, 2: False, 3: False})
    assert not bx.evaluate(e, {1: False, 2: True, 3: True})
    assert bx.evaluate(bx.equiv(bx.var(1), bx.var(2)), {1: False, 2: False})


def test_lex_less_circuit_matches_comparison_exhaustively():
    # All constant vectors up to length 6, evaluated through variables.
    for length in range(0, 7):
        a_vars = [bx.var(i + 1) for i in range(length)]
        b_vars = [bx.var(length + i + 1) for i in range(length)]
        circuit = bx.lex_less(a_vars, b_vars)
        for a_bits in itertools.product((0, 1), repeat=length):
            for b_bits in itertools.product((0, 1), repeat=length):
                assignment = {i + 1: bool(v) for i, v in enumerate(a_bits)}
                assignment.update({length + i + 1: bool(v)
                                   for i, v in enumerate(b_bits)})
                want = a_bits < b_bits
                assert bx.evaluate(circuit, assignment) == want


def test_lex_less_rejects_length_mismatch():
    with pytest.raises(ValueError):
        bx.lex_less([bx.var(1)], [])


def test_dimacs_format():
    inst = bx.CnfInstance(3, [(1, -2), (3,)], comments=["hello"])
    assert inst.to_dimacs() == "c hello\np cnf 3 2\n1 -2 0\n3 0\n"


# -- CNF conversion ----------------------------------------------------------
#
# Tseitin auxiliaries are functionally determined by the primary inputs,
# so unit propagation alone decides the CNF once the primaries are fixed.


def _propagate(clauses, assignment):
    """Unit-propagate; returns True (sat), False (conflict)."""
    assignment = dict(assignment)
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            unassigned = []
            satisfied = False
            for lit in cl:
                val = assignment.get(abs(lit))
                if val is None:
                    unassigned.append(lit)
                elif (lit > 0) == val:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return False
            if len(unassigned) == 1:
                lit = unassigned[0]
                assignment[abs(lit)] = lit > 0
                changed = True
    return True


def _random_expr(rng, num_vars, depth):
    if depth == 0 or rng.random() < 0.3:
        return bx.var(rng.randint(1, num_vars))
    op = rng.choice(["and", "or", "xor", "not", "equiv"])
    if op == "not":
        return bx.not_(_random_expr(rng, num_vars, depth - 1))
    if op == "equiv":
        return bx.equiv(_random_expr(rng, num_vars, depth - 1),
                        _random_expr(rng, num_vars, depth - 1))
    args = [_random_expr(rng, num_vars, depth - 1)
            for _ in range(rng.randint(2, 4))]
    return {"and": bx.and_, "or": bx.or_, "xor": bx.xor}[op](*args)


def test_tseitin_cnf_matches_evaluation():
    rng = random.Random(20)
    for _ in range(200):
        num_vars = rng.randint(2, 10)
        expr = _random_expr(rng, num_vars, rng.randint(1, 4))
        builder = bx.CnfBuilder(num_vars)
        builder.assert_expr(expr)
        clauses = builder.clauses
        # Sample assignments exhaustively for small var counts.
        for bits in range(1 << num_vars):
            assignment = {i + 1: bool((bits >> i) & 1) for i in range(num_vars)}
            want = bx.evaluate(expr, assignment)
            assert _propagate(clauses, assignment) == want


def test_xor_width_splitting_is_sound():
    # Long parity constraints decompose into blocks of at most XOR_WIDTH.
    n = 2 * bx.XOR_WIDTH + 1
    chain = bx.xor(*[bx.var(i + 1) for i in range(n)])
    for expr, parity in ((chain, 1), (bx.not_(chain), 0)):
        builder = bx.CnfBuilder(n)
        builder.assert_expr(expr)
        assert max(len(cl) for cl in builder.clauses) == bx.XOR_WIDTH + 1
        for bits in range(1 << n):
            assignment = {i + 1: bool((bits >> i) & 1) for i in range(n)}
            want = bin(bits).count("1") % 2 == parity
            assert _propagate(builder.clauses, assignment) == want


def test_structural_sharing_caches_subterms():
    shared = bx.and_(bx.var(1), bx.var(2))
    expr = bx.or_(shared, bx.and_(shared, bx.var(3)))
    builder = bx.CnfBuilder(3)
    builder.assert_expr(expr)
    aux_for_and = [v for e, v in builder._cache.items() if e == shared]
    assert len(aux_for_and) == 1


def test_and_gates_shared_across_argument_order():
    x, y, z = bx.var(1), bx.var(2), bx.var(3)
    expr = bx.xor(bx.and_(x, y, z), bx.and_(z, x, y), bx.var(4))
    builder = bx.CnfBuilder(4)
    builder.assert_expr(expr)
    assert builder._cache[bx.and_(x, y, z)] == builder._cache[bx.and_(z, x, y)]
    assert builder.num_vars == 5  # one gate for both orders
    for bits in range(1 << 4):
        assignment = {i + 1: bool((bits >> i) & 1) for i in range(4)}
        assert _propagate(builder.clauses, assignment) == bx.evaluate(expr, assignment)


def test_constants_rejected_inside_conversion():
    builder = bx.CnfBuilder(1)
    with pytest.raises(ValueError):
        builder.lit(bx.TRUE)
    builder.assert_expr(bx.FALSE)
    assert () in builder.clauses  # unsatisfiable marker clause
