import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (CAR_STATEMENT, CAR_TABLE, all_assignments,
                     exhaustive_minimum_size, random_statement,
                     reference_minimize, reference_prime_implicants)
from zkfabric.errors import (
    EmptyClause,
    TooManyVariables,
    UnknownOperator,
    VarIndexOutOfRange,
)
from zkfabric.syntax import (
    And,
    Const,
    MinimizedExpr,
    Not,
    OperatorKind,
    Or,
    TruthTable,
    Var,
    Xor,
    _prime_implicants,
    build_expression,
    eval_expr,
    expr_to_str,
    expression_to_truth_table,
    extract,
    hash_substatement,
    minimize,
    rejoin,
    syn_gen,
)

SHA256_A = "559aead08264d5795d3909718cdd05abd49572e84fe55590eef31a88a08fdffd"


def test_extract_car_statement():
    statement = extract(CAR_STATEMENT)
    assert statement.n_vars == 3
    assert [c.text for c in statement.clauses] == [
        "The car only starts",
        'the "start" button is pressed',
        "the brake pedal is pressed",
    ]
    assert list(statement.operators) == [OperatorKind.IF, OperatorKind.AND]
    assert [c.var_index for c in statement.clauses] == [0, 1, 2]


def test_extract_two_clauses():
    statement = extract("A [and] B")
    assert [c.text for c in statement.clauses] == ["A", "B"]
    assert list(statement.operators) == [OperatorKind.AND]


def test_extract_single_clause_no_markers():
    statement = extract("just one plain clause")
    assert statement.n_vars == 1
    assert statement.operators == ()


def test_extract_marker_case_and_spacing():
    statement = extract("A [ AND ] B [Xor] C")
    assert list(statement.operators) == [OperatorKind.AND, OperatorKind.XOR]


def test_extract_unknown_operator():
    with pytest.raises(UnknownOperator) as err:
        extract("A [nand] B")
    assert err.value.word == "nand"


def test_extract_empty_clause():
    with pytest.raises(EmptyClause):
        extract("A [and]  ")
    with pytest.raises(EmptyClause):
        extract(" [and] B")
    with pytest.raises(EmptyClause):
        extract("A [and] [or] B")


def test_extract_too_many_clauses():
    text = " [or] ".join(f"clause number {i}" for i in range(7))
    with pytest.raises(TooManyVariables):
        extract(text)


def test_hash_substatement_golden():
    assert hash_substatement("A").hex() == SHA256_A
    assert hash_substatement("A", 128).hex() == SHA256_A[:32]


def test_hash_substatement_matches_reference():
    for text in ("A", "B", "the brake pedal is pressed"):
        want = hashlib.sha256(text.encode("utf-8")).digest()
        assert hash_substatement(text, 256) == want
        assert hash_substatement(text, 128) == want[:16]


def test_hash_substatement_determinism_and_separation():
    assert hash_substatement("A") == hash_substatement("A")
    assert hash_substatement("A") != hash_substatement("B")


def test_hash_substatement_bad_width():
    with pytest.raises(ValueError):
        hash_substatement("A", 200)


def test_extract_assigns_digests():
    statement = extract(CAR_STATEMENT, 128)
    for clause in statement.clauses:
        assert clause.digest == hash_substatement(clause.text, 128)
        assert len(clause.digest) == 16


def test_build_expression_car():
    expr = build_expression(extract(CAR_STATEMENT))
    assert expr == Or(Not(And(Var(1), Var(2))), Var(0))


def test_build_expression_single_var():
    assert build_expression(extract("alone")) == Var(0)


def test_build_expression_precedence():
    cases = {
        "A [and] B [or] C": Or(And(Var(0), Var(1)), Var(2)),
        "A [or] B [and] C": Or(Var(0), And(Var(1), Var(2))),
        "A [if] B [xor] C": Or(Not(Xor(Var(1), Var(2))), Var(0)),
        "A [xor] B [or] C": Or(Xor(Var(0), Var(1)), Var(2)),
        "A [not] B": And(Var(0), Not(Var(1))),
        "A [and] B [and] C": And(And(Var(0), Var(1)), Var(2)),
        "A [or] B [or] C [or] D": Or(Or(Or(Var(0), Var(1)), Var(2)), Var(3)),
    }
    for text, want in cases.items():
        assert build_expression(extract(text)) == want


def test_eval_expr_var_out_of_range():
    with pytest.raises(VarIndexOutOfRange):
        eval_expr(Var(2), (0, 1))


def test_expr_to_str():
    expr = Or(Not(And(Var(1), Var(2))), Var(0))
    assert expr_to_str(expr) == "(~(v1 & v2) | v0)"
    assert expr_to_str(Const(1)) == "1"


def test_truth_table_xor():
    table = expression_to_truth_table(Xor(Var(0), Var(1)), 2)
    assert table.outputs == (0, 1, 1, 0)


def test_truth_table_const():
    table = expression_to_truth_table(Const(1), 1)
    assert table.outputs == (1, 1)


def test_truth_table_car():
    """Variable 0 is the most significant bit of the row index."""
    expr = build_expression(extract(CAR_STATEMENT))
    table = expression_to_truth_table(expr, 3)
    assert table.outputs == CAR_TABLE


def expressions(n_vars):
    """BooleanExpr trees over variables 0 to n_vars - 1."""
    leaves = st.builds(Var, st.integers(0, n_vars - 1)) | st.builds(Const, st.integers(0, 3))
    return st.recursive(leaves, lambda sub: (
        st.builds(Not, sub) | st.builds(And, sub, sub)
        | st.builds(Or, sub, sub) | st.builds(Xor, sub, sub)), max_leaves=12)


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), expressions(n))))
def test_truth_table_matches_eval_expr_row_by_row(case):
    n, expr = case
    table = expression_to_truth_table(expr, n)
    assert table.outputs == tuple(eval_expr(expr, bits) for bits in all_assignments(n))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), expressions(n),
    st.integers(-3, -1) | st.integers(n, n + 3), st.booleans())))
def test_truth_table_refuses_a_var_out_of_range(case):
    n, expr, index, left = case
    bad = Not(Var(index))
    with pytest.raises(VarIndexOutOfRange):
        expression_to_truth_table(And(bad, expr) if left else Or(expr, bad), n)


def test_truth_table_validation():
    with pytest.raises(VarIndexOutOfRange):
        TruthTable(0, ())
    with pytest.raises(VarIndexOutOfRange):
        TruthTable(7, (0,) * 128)
    with pytest.raises(VarIndexOutOfRange):
        TruthTable(2, (0, 1, 1))
    for n_vars in (0, 7):
        with pytest.raises(VarIndexOutOfRange):
            expression_to_truth_table(Const(1), n_vars)


def test_minimize_xor_pair():
    reduced = minimize(TruthTable(2, (0, 1, 1, 0)))
    assert reduced.implicants == ((0, 1), (1, 0))
    assert reduced.canonical() == "01 + 10"


def test_minimize_tautology_and_contradiction():
    ones = minimize(TruthTable(2, (1, 1, 1, 1)))
    assert ones.implicants == ((None, None),)
    assert ones.canonical() == "--"
    zeros = minimize(TruthTable(2, (0, 0, 0, 0)))
    assert zeros.implicants == ()
    assert zeros.canonical() == "0"
    for bits in all_assignments(2):
        assert ones.evaluate(bits) == 1
        assert zeros.evaluate(bits) == 0


def test_minimize_car_table():
    reduced = minimize(TruthTable(3, CAR_TABLE))
    assert reduced.canonical() == "--0 + -0- + 1--"
    for i, bits in enumerate(all_assignments(3)):
        assert reduced.evaluate(bits) == CAR_TABLE[i]


def test_minimize_is_deterministic_and_sorted():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 4)
        outputs = tuple(rng.randint(0, 1) for _ in range(1 << n))
        table = TruthTable(n, outputs)
        first = minimize(table)
        second = minimize(table)
        assert first == second
        strings = first.implicant_strings()
        assert list(strings) == sorted(strings)


def test_minimize_equivalence_random_tables():
    rng = random.Random(4321)
    for _ in range(150):
        n = rng.randint(1, 5)
        outputs = tuple(rng.randint(0, 1) for _ in range(1 << n))
        table = TruthTable(n, outputs)
        reduced = minimize(table)
        for i, bits in enumerate(all_assignments(n)):
            assert reduced.evaluate(bits) == outputs[i]


def test_minimize_matches_exhaustive_minimum_two_vars():
    """All 16 two-variable functions get a provably minimal cover."""
    for code in range(16):
        outputs = tuple(code >> i & 1 for i in range(4))
        table = TruthTable(2, outputs)
        assert len(minimize(table).implicants) == exhaustive_minimum_size(table)


def _assert_matches_reference(table):
    on = [i for i, b in enumerate(table.outputs) if b]
    assert (_prime_implicants(table.n_vars, on)
            == reference_prime_implicants(table.n_vars, on))
    assert minimize(table) == reference_minimize(table)


def test_minimize_equals_reference_on_every_small_table():
    """Every one of the 276 functions of 1-3 variables gets the same primes
    and the same MinimizedExpr, implicant order included, as the reference."""
    tables = [TruthTable(n, tuple(code >> i & 1 for i in range(1 << n)))
              for n in (1, 2, 3) for code in range(1 << (1 << n))]
    assert len(tables) == 276
    for table in tables:
        _assert_matches_reference(table)


def _tables(n):
    # a code drawn as one integer leans to sparse on-sets, a list of
    # independent bits to on-sets near half the rows
    sparse = st.integers(0, (1 << (1 << n)) - 1).map(
        lambda code: tuple(code >> i & 1 for i in range(1 << n)))
    balanced = st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n)
    return st.one_of(sparse, balanced).map(lambda bits: TruthTable(n, tuple(bits)))


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 6).flatmap(_tables))
def test_minimize_equals_reference_on_random_tables(table):
    _assert_matches_reference(table)


def test_minimized_expr_to_expr_round_trip():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 4)
        outputs = tuple(rng.randint(0, 1) for _ in range(1 << n))
        reduced = minimize(TruthTable(n, outputs))
        tree = reduced.to_expr()
        for i, bits in enumerate(all_assignments(n)):
            assert eval_expr(tree, bits) == outputs[i]


def test_round_trip_expression_minimize():
    rng = random.Random(2024)
    for _ in range(60):
        text = random_statement(rng, 2, 4)
        statement = extract(text)
        expr = build_expression(statement)
        table = expression_to_truth_table(expr, statement.n_vars)
        reduced = minimize(table)
        for bits in all_assignments(statement.n_vars):
            assert reduced.evaluate(bits) == eval_expr(expr, bits)


def test_rejoin_round_trip():
    rng = random.Random(5)
    texts = [random_statement(rng) for _ in range(30)] + [CAR_STATEMENT]
    for text in texts:
        statement = extract(text)
        again = extract(rejoin(statement))
        assert [c.text for c in again.clauses] == [c.text for c in statement.clauses]
        assert again.operators == statement.operators


def test_syn_gen_car():
    reduced, statement = syn_gen(CAR_STATEMENT)
    assert reduced.canonical() == "--0 + -0- + 1--"
    assert statement.n_vars == 3
    assert statement.clauses[0].digest == hash_substatement("The car only starts")


def test_syn_gen_single_positive_literal():
    reduced, statement = syn_gen("just a single clause")
    assert statement.n_vars == 1
    assert reduced.implicants == ((1,),)


def test_syn_gen_no_variable_aliasing():
    """The same clause text twice still makes two distinct variables."""
    reduced, statement = syn_gen("same words [xor] same words")
    assert statement.n_vars == 2
    table = expression_to_truth_table(build_expression(statement), 2)
    assert table.outputs == (0, 1, 1, 0)
    assert reduced.canonical() == "01 + 10"


def test_minimized_expr_arity_check():
    reduced = minimize(TruthTable(2, (0, 1, 1, 0)))
    with pytest.raises(VarIndexOutOfRange):
        reduced.evaluate((0, 1, 1))
