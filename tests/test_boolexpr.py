import itertools
import random
from collections import Counter

import pytest

from mmtsat import boolexpr
from mmtsat.boolexpr import XOR_WIDTH, Clauses, CnfBuilder, CnfInstance, neg

from conftest import propagate, unit_closure


def _same(x, y):
    # True == 1: compare types too, so a constant never passes for variable 1.
    return type(x) is type(y) and x == y


def _assignments(num_vars):
    for bits in range(1 << num_vars):
        yield {i + 1: bool(bits >> i & 1) for i in range(num_vars)}


def test_gates_fold_constants_and_repeated_arguments():
    b = CnfBuilder(2)
    assert _same(b.and_(True, 1), 1) and _same(b.and_(False, 1), False)
    assert _same(b.and_(1, -1), False) and _same(b.and_(1, 1, True), 1)
    assert _same(b.or_(True, 1), True) and _same(b.or_(False, -1), -1)
    assert _same(b.or_(1, -1), True) and _same(b.or_(2, 2), 2)
    assert _same(b.xor(True, 1), -1) and _same(b.xor(1, 1), False)
    assert _same(b.xor(1, -1), True) and _same(b.xor(1, 2, -1), -2)
    assert _same(b.and_(), True) and _same(b.or_(), False) and _same(b.xor(), False)
    assert _same(b.maj(1, 2, 1), 1) and _same(b.maj(True, 1, True), True)
    assert _same(b.maj(1, 2, -1), 2) and _same(b.maj(True, -2, False), -2)
    assert _same(b.maj(-2, True, 2), True)
    assert _same(b.maj(True, 1, -1), True) and _same(b.maj(2, False, -2), False)
    assert _same(neg(True), False) and _same(neg(-2), 2)
    assert b.num_vars == 2 and list(b.clauses) == []


def _value(x, assignment):
    return x if isinstance(x, bool) else assignment[abs(x)] == (x > 0)


def test_lex_less_circuit_matches_comparison_exhaustively():
    # Up to length 6: every entry a variable of its own, then random mixes
    # of variables, their repeats and negations, and constants.  From every
    # full assignment, propagation gives the comparator its value and
    # every auxiliary variable one.
    rng = random.Random(6)
    pool = [1, -1, 2, -2, 3, True, False]
    for length in range(0, 7):
        patterns = [(list(range(1, length + 1)),
                     list(range(length + 1, 2 * length + 1)))]
        for _ in range(6):
            patterns.append(tuple([rng.choice(pool) for _ in range(length)]
                                  for _ in range(2)))
        for a, b in patterns:
            num_vars = max([abs(x) for x in a + b if not isinstance(x, bool)],
                           default=0)
            builder = CnfBuilder(num_vars)
            less = builder.lex_less(a, b)
            for assignment in _assignments(num_vars):
                value = [_value(x, assignment) for x in a + b]
                closure = unit_closure(builder.clauses, assignment)
                assert closure is not None and len(closure) == builder.num_vars, (a, b)
                want = value[:length] < value[length:]
                assert _value(less, closure) == want, (a, b)


def test_lex_less_propagation_is_complete():
    # a < b asserted over distinct variables, lengths 1 to 4: from every
    # partial assignment, propagation conflicts exactly when no completion
    # has a < b and otherwise fixes every variable that all such
    # completions agree on.
    for length in range(1, 5):
        num_vars = 2 * length
        builder = CnfBuilder(num_vars)
        less = builder.lex_less(range(1, length + 1), range(length + 1, num_vars + 1))
        builder.assert_parity([(less,)], 1)
        # The values each variable takes over the completions with a < b,
        # for every partial assignment that has such a completion.
        values = {}
        for bits in itertools.product((False, True), repeat=num_vars):
            if bits[:length] < bits[length:]:
                for keep in itertools.product((False, True), repeat=num_vars):
                    partial = tuple(x if k else None for x, k in zip(bits, keep))
                    for seen, x in zip(values.setdefault(partial, [set() for _ in bits]), bits):
                        seen.add(x)
        for partial in itertools.product((None, False, True), repeat=num_vars):
            closure = unit_closure(builder.clauses, {i + 1: x for i, x in enumerate(partial)
                                                     if x is not None})
            if partial not in values:
                assert closure is None, partial
                continue
            assert closure is not None, partial
            for i, seen in enumerate(values[partial]):
                if len(seen) == 1:
                    assert closure.get(i + 1) in seen, (partial, i + 1)


def test_lex_less_rejects_length_mismatch():
    with pytest.raises(ValueError):
        CnfBuilder(1).lex_less([1], [])


def _reference_dimacs(inst):
    # One string per clause: the rendering to_dimacs must reproduce.
    lines = [f"c {c}" for c in inst.comments]
    lines.append(f"p cnf {inst.num_vars} {len(inst.clauses)}")
    lines.extend(" ".join([*map(str, cl), "0"]) for cl in inst.clauses)
    return "\n".join(lines) + "\n"


def test_dimacs_format():
    inst = CnfInstance(3, [(1, -2), (3,)], comments=["hello"])
    assert inst.to_dimacs() == "c hello\np cnf 3 2\n1 -2 0\n3 0\n"
    assert CnfInstance(0, []).to_dimacs() == "p cnf 0 0\n"
    # An empty clause's line is its terminator alone, first or adjacent.
    assert CnfInstance(2, [(), (1,), (), (), (-2,)]).to_dimacs() == \
        "p cnf 2 5\n0\n1 0\n0\n0\n-2 0\n"
    rng = random.Random(10)
    for trial in range(50):
        num_vars = rng.choice((5, 1000, 2**31 - 1))
        widths = rng.choices((0, 1, 2, 3, 5, 27, rng.randint(1, 40)), k=rng.randint(0, 300))
        clauses = [tuple(rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(w))
                   for w in widths]
        comments = [] if trial % 2 else ["100% of %d", "var 1 = id[0].A[0][0]"]
        inst = CnfInstance(num_vars, clauses, comments)
        assert inst.to_dimacs() == _reference_dimacs(inst)


def test_instance_rejects_a_literal_it_cannot_render():
    # A 0 would end its clause early; a variable past num_vars has no
    # entry in the literal table.
    for clauses in ([(1, 0, 2)], [(3,)], [(-3, 1)]):
        with pytest.raises(ValueError):
            CnfInstance(2, clauses)


def test_literal_table_is_shared_and_bounded(monkeypatch):
    # Instances share one table that grows to their variable count, at
    # least doubling but never past a bound; a larger instance renders
    # through its own literals and leaves the table as it is.
    monkeypatch.setattr(boolexpr, "_LIT_TEXT", ["0\n"])
    assert CnfInstance(3, [(1, -3), ()]).to_dimacs() == "p cnf 3 2\n1 -3 0\n0\n"
    assert len(boolexpr._LIT_TEXT) == 2 * 3 + 1
    half = boolexpr._LIT_TEXT_MAX // 2 + 1
    for num_vars in (half, half + 1):
        assert CnfInstance(num_vars, [(-num_vars, 1)]).to_dimacs() == \
            f"p cnf {num_vars} 1\n-{num_vars} 1 0\n"
    table = boolexpr._LIT_TEXT
    assert len(table) == 2 * boolexpr._LIT_TEXT_MAX + 1
    big = boolexpr._LIT_TEXT_MAX + 1
    assert CnfInstance(big, [(-big, 2)]).to_dimacs() == f"p cnf {big} 1\n-{big} 2 0\n"
    assert boolexpr._LIT_TEXT is table


def test_builder_records_the_empty_clause():
    # From add_clause, also given an iterator, and from an asserted XOR
    # of no variable with odd parity; the builder is the instance, so its
    # DIMACS text shows the empty clause.
    b = CnfBuilder(2)
    b.add_clause(x for x in (1, 2))
    b.assert_xor([], 0)
    b.assert_xor([1, 2], 1)
    assert () not in b.clauses
    b.add_clause(iter(()))
    assert list(b.clauses)[-1] == () and b.to_dimacs().endswith("\n-1 -2 0\n0\n")
    c = CnfBuilder(0)
    c.assert_xor([], 1)
    assert list(c.clauses) == [()] and c.to_dimacs() == "p cnf 0 1\n0\n"


def _reference_parity_clauses(lits, parity):
    # One clause per forbidden truth-value pattern, in mask order.
    k = len(lits)
    return [tuple(-lits[i] if mask >> i & 1 else lits[i] for i in range(k))
            for mask in range(1 << k) if bin(mask).count("1") % 2 != parity]


def test_parity_blocks_match_the_mask_loop():
    for k in range(XOR_WIDTH + 2):
        lits = [(-1) ** i * (3 * i + 2) for i in range(k)]
        for parity in (0, 1):
            b = CnfBuilder(3 * k + 2)
            b.assert_xor(lits, parity)
            assert list(b.clauses) == _reference_parity_clauses(lits, parity), (k, parity)


# -- CNF conversion ----------------------------------------------------------


def _random_circuit(rng, num_vars, depth, seen):
    """A circuit as nested (op, args) tuples over literals and bools.
    Leaves and subcircuits are drawn again from `seen`, plain or negated,
    so arguments repeat and contradict each other."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.15:
            return rng.choice((True, False))
        if seen and roll < 0.5:
            node = rng.choice(seen)
            return node if rng.random() < 0.5 else ("not", (node,))
        node = rng.choice((1, -1)) * rng.randint(1, num_vars)
    else:
        op = rng.choice(["and", "or", "xor", "maj", "not"])
        arity = {"not": 1, "maj": 3}.get(op) or rng.randint(2, 4)
        node = (op, tuple(_random_circuit(rng, num_vars, depth - 1, seen)
                          for _ in range(arity)))
    seen.append(node)
    return node


def _evaluate(node, assignment):
    if isinstance(node, bool):
        return node
    if isinstance(node, int):
        return assignment[abs(node)] == (node > 0)
    op, args = node
    values = [_evaluate(a, assignment) for a in args]
    if op == "not":
        return not values[0]
    if op == "and":
        return all(values)
    if op == "or":
        return any(values)
    if op == "maj":
        return sum(values) >= 2
    return sum(values) % 2 == 1


def _compile(builder, node):
    if not isinstance(node, tuple):
        return node
    op, args = node
    lits = [_compile(builder, a) for a in args]
    if op == "not":
        return neg(lits[0])
    return {"and": builder.and_, "or": builder.or_, "xor": builder.xor,
            "maj": builder.maj}[op](*lits)


def test_tseitin_cnf_matches_evaluation():
    # Each circuit is a list of products of random subcircuits, asserted
    # to have a given parity.
    rng = random.Random(20)
    for _ in range(200):
        num_vars = rng.randint(2, 10)
        seen: list = []
        products = [tuple(_random_circuit(rng, num_vars, rng.randint(0, 3), seen)
                          for _ in range(rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 4))]
        builder = CnfBuilder(num_vars)
        compiled = [tuple(_compile(builder, x) for x in p) for p in products]
        parity = rng.choice((0, 1))
        builder.assert_parity(compiled, parity)
        for assignment in _assignments(num_vars):
            held = [all(_evaluate(x, assignment) for x in p) for p in products]
            want = sum(held) % 2 == parity
            assert propagate(builder.clauses, assignment) == want, products


def test_xor_width_splitting_is_sound():
    # Long parity constraints decompose into blocks of at most XOR_WIDTH.
    n = 2 * XOR_WIDTH + 1
    for parity in (0, 1):
        builder = CnfBuilder(n)
        builder.assert_parity([(i + 1,) for i in range(n)], parity)
        assert max(len(cl) for cl in builder.clauses) == XOR_WIDTH + 1
        for assignment in _assignments(n):
            want = sum(assignment.values()) % 2 == parity
            assert propagate(builder.clauses, assignment) == want
    # An xor() gate v asserts XOR(inputs, v) = 0 as any XOR is asserted:
    # up to XOR_WIDTH inputs that is the one block the balanced tree it
    # replaced gave, and past that a chain, whose v propagation fixes to
    # the inputs' parity.
    for k in range(2, 2 * XOR_WIDTH + 2):
        args = [-(i + 1) if i % 3 == 0 else i + 1 for i in range(k)]
        builder = CnfBuilder(k)
        g = builder.xor(*args)
        v = abs(g)
        assert v == k + 1 and (g < 0) == (len(args[::3]) % 2 == 1)
        if k <= XOR_WIDTH:
            assert list(builder.clauses) == _reference_parity_clauses([*range(1, k + 1), v], 0)
            continue
        assert max(map(len, builder.clauses)) <= XOR_WIDTH + 1
        for assignment in _assignments(k):
            closure = unit_closure(builder.clauses, assignment)
            assert closure is not None and len(closure) == builder.num_vars, k
            assert _value(g, closure) == (sum(_value(x, assignment) for x in args) % 2 == 1)


def _layout_sizes(k):
    # (auxiliaries, clauses): m = the fewest blocks, and the k + m - 1
    # inputs other than the root's auxiliary spread evenly over the m
    # blocks and the root, a part of w of them costing 2^w clauses.
    m = max(0, -(-(k - XOR_WIDTH - 1) // (XOR_WIDTH - 1)))
    q, r = divmod(k + m - 1, m + 1)
    return m, r * 2 ** (q + 1) + (m + 1 - r) * 2 ** q


def _balanced_tree_reference(builder, lits, parity):
    # The layout the chain replaced: up to XOR_WIDTH literals in one
    # block, else reduced to one literal by a balanced tree of blocks of
    # XOR_WIDTH and asserted by a unit clause.
    if len(lits) <= XOR_WIDTH:
        builder.assert_xor(lits, parity)
        return
    while len(lits) > 1:
        nxt = []
        for i in range(0, len(lits), XOR_WIDTH):
            chunk = lits[i:i + XOR_WIDTH]
            if len(chunk) == 1:
                nxt.append(chunk[0])
                continue
            v = builder.fresh_var()
            builder.assert_xor([*chunk, v], 0)
            nxt.append(v)
        lits = nxt
    builder.add_clause((lits[0] if parity else -lits[0],))


def test_asserted_parity_uses_the_fewest_blocks():
    for k in range(1, 65):
        for parity in (0, 1):
            b = CnfBuilder(k)
            b.assert_parity([(i + 1,) for i in range(k)], parity)
            size = (b.num_vars - k, len(b.clauses))
            assert size == _layout_sizes(k), (k, parity)
            tree = CnfBuilder(k)
            _balanced_tree_reference(tree, list(range(1, k + 1)), parity)
            assert size[0] <= tree.num_vars - k and size[1] <= len(tree.clauses), (k, parity)
            assert max(map(len, b.clauses)) <= XOR_WIDTH + 1


def _reference_chain(k, parity):
    # The chain over variables 1..k: the fewest blocks, block j defining
    # auxiliary k + 1 + j from the previous auxiliary and its share of
    # the inputs, then the asserted root over the last auxiliary and the
    # rest; the k + m - 1 inputs other than the last auxiliary are split
    # as evenly as possible, the larger shares first.
    m, _ = _layout_sizes(k)
    q, r = divmod(k + m - 1, m + 1)
    inputs = iter(range(1, k + 1))
    clauses: list = []
    carry: list = []
    for j in range(m):
        v = k + 1 + j
        block = [*carry, *itertools.islice(inputs, q + (j < r) - len(carry)), v]
        clauses += _reference_parity_clauses(block, 0)
        carry = [v]
    return m, clauses + _reference_parity_clauses([*carry, *inputs], parity)


def test_asserted_xor_is_the_chain_clause_for_clause():
    for k in range(65):
        for parity in (0, 1):
            b = CnfBuilder(k)
            b.assert_xor(list(range(1, k + 1)), parity)
            m, clauses = _reference_chain(k, parity)
            assert (b.num_vars - k, list(b.clauses)) == (m, clauses), (k, parity)


def test_asserted_parity_propagates_like_the_xor():
    # From every partial assignment of k <= 9 inputs: a conflict exactly
    # when all are set to the wrong parity, the last free input forced,
    # no input fixed while two are free, and every auxiliary assigned
    # once all inputs are set.
    for k in range(1, 10):
        for parity in (0, 1):
            b = CnfBuilder(k)
            b.assert_parity([(i + 1,) for i in range(k)], parity)
            for partial in itertools.product((None, False, True), repeat=k):
                given = {i + 1: x for i, x in enumerate(partial) if x is not None}
                free = [i + 1 for i, x in enumerate(partial) if x is None]
                closure = unit_closure(b.clauses, given)
                wrong = sum(given.values()) % 2 != parity
                if not free and wrong:
                    assert closure is None, (k, parity, partial)
                    continue
                assert closure is not None, (k, parity, partial)
                if not free:
                    assert len(closure) == b.num_vars, (k, parity, partial)
                elif len(free) == 1:
                    assert closure.get(free[0]) == wrong, (k, parity, partial)
                else:
                    assert not any(v in closure for v in free), (k, parity, partial)


def test_batched_xors_equal_one_assert_xor_each():
    # Random sorted variable lists, each asserted through assert_xor on one
    # builder and all at once through assert_xors, given the auxiliaries
    # assert_xor allocated: per XOR the same clauses (so the same
    # auxiliaries), and the same empty-clause record.
    rng = random.Random(14)
    for k, parity, count in itertools.product(range(13), (0, 1), (1, 3, 20)):
        rows = [sorted(rng.sample(range(1, 41), k)) for _ in range(count)]
        one = CnfBuilder(40)
        firsts, each = [], []
        for row in rows:
            firsts.append(one.num_vars + 1)
            start = len(one.lits)
            one.assert_xor(row, parity)
            each.append(Counter(Clauses(one.lits[start:])))
        batch = CnfBuilder(one.num_vars)
        batch.assert_xors([l for row in rows for l in row], k, parity, firsts)
        clauses = list(batch.clauses)
        per = len(clauses) // len(rows)
        assert len(clauses) == per * len(rows) == len(one.clauses), (k, parity, count)
        assert [Counter(clauses[i * per:(i + 1) * per]) for i in range(len(rows))] \
            == each, (k, parity, count)
        assert batch.num_vars == one.num_vars
        assert (() in batch.clauses) == (() in one.clauses) == (k == 0 and parity == 1)


def test_structural_sharing_caches_subterms():
    b = CnfBuilder(3)
    g = b.or_(b.and_(1, 2), b.xor(2, -3))
    size = (b.num_vars, len(b.clauses))
    # The same gates in another argument order, and an OR that is the
    # negated AND of the negated arguments.
    assert _same(b.or_(b.xor(-3, 2), b.and_(2, 1)), g)
    assert _same(b.and_(-b.and_(1, 2), -b.xor(3, 2, True)), -g)
    assert (b.num_vars, len(b.clauses)) == size


def test_and_gates_shared_across_argument_order():
    b = CnfBuilder(4)
    g = b.and_(1, 2, 3)
    assert b.num_vars == 5
    assert _same(b.and_(3, 1, 2), g) and _same(b.and_(2, True, 3, 1, 2), g)
    assert b.num_vars == 5  # one gate for every order
    m = b.maj(1, -2, 4)
    assert b.num_vars == 6
    assert _same(b.maj(4, 1, -2), m) and _same(b.maj(-2, 4, 1), m)
    assert b.num_vars == 6 and len(b.clauses) == 4 + 6
    b.assert_parity([(g,), (b.and_(3, 2, 1), 4), (4,), (m,)], 1)
    for assignment in _assignments(4):
        x = [assignment[i] for i in range(1, 5)]
        want = ((x[0] and x[1] and x[2]) ^ (x[0] and x[1] and x[2] and x[3]) ^ x[3]
                ^ (x[0] + (not x[1]) + x[3] >= 2))
        assert propagate(b.clauses, assignment) == want


def test_lone_products_and_constants_need_no_gate():
    b = CnfBuilder(2)
    b.assert_parity([(True, 1, 1), (False, 2)], 1)
    b.assert_parity([(1, 2), (2, 1, True), (-2,)], 0)
    b.assert_parity([(2, 1)], 1)
    b.assert_parity([(True,), (1, -1)], 1)
    assert b.num_vars == 2
    assert list(b.clauses) == [(1,), (2,), (1,), (2,)]
    b.assert_parity([(False,)], 1)
    b.assert_parity([(True,)], 0)
    assert b.clauses[-2:] == [(), ()]  # unsatisfiable marker clauses
