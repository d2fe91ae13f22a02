"""Composite statements: extraction, boolean semantics, and exact minimization.

A statement is free text with bracketed operator markers:

    The car only starts [if] the "start" button is pressed [and] the
    brake pedal is pressed

Each clause between markers becomes one boolean variable (identical texts
stay distinct variables), the markers become operators, and the whole
statement compiles to a truth table and then to a minimal sum-of-products
form via Quine-McCluskey with exact branch-and-bound cover resolution.
The table is computed with one walk of the expression tree, each node
giving its values in all rows at once as the bits of one int.

Public surface:
    extract, hash_substatement, build_expression, expression_to_truth_table,
    minimize, syn_gen, eval_expr
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import (
    EmptyClause,
    TooManyVariables,
    UnknownOperator,
    VarIndexOutOfRange,
)
from .hashing import sha256, truncate_bits

MAX_VARS = 6

_MARKER = re.compile(r"\[([^\[\]]*)\]")


class OperatorKind(Enum):
    IF = "if"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"


# binding strength, tightest first; all levels associate left
_PRECEDENCE = {
    OperatorKind.NOT: 5,
    OperatorKind.AND: 4,
    OperatorKind.XOR: 3,
    OperatorKind.OR: 2,
    OperatorKind.IF: 1,
}


@dataclass(frozen=True)
class SubStatement:
    text: str
    digest: bytes
    var_index: int


@dataclass(frozen=True)
class Statement:
    raw_text: str
    clauses: tuple[SubStatement, ...]
    operators: tuple[OperatorKind, ...]

    @property
    def n_vars(self) -> int:
        return len(self.clauses)


# boolean expression nodes

@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Not:
    operand: "BooleanExpr"


@dataclass(frozen=True)
class And:
    left: "BooleanExpr"
    right: "BooleanExpr"


@dataclass(frozen=True)
class Or:
    left: "BooleanExpr"
    right: "BooleanExpr"


@dataclass(frozen=True)
class Xor:
    left: "BooleanExpr"
    right: "BooleanExpr"


BooleanExpr = Var | Const | Not | And | Or | Xor


def eval_expr(expr: BooleanExpr, bits: tuple[int, ...]) -> int:
    if isinstance(expr, Var):
        if not 0 <= expr.index < len(bits):
            raise VarIndexOutOfRange(f"v{expr.index} with {len(bits)} variables")
        return bits[expr.index]
    if isinstance(expr, Const):
        return expr.value & 1
    if isinstance(expr, Not):
        return 1 - eval_expr(expr.operand, bits)
    a = eval_expr(expr.left, bits)
    b = eval_expr(expr.right, bits)
    if isinstance(expr, And):
        return a & b
    if isinstance(expr, Or):
        return a | b
    return a ^ b


def expr_to_str(expr: BooleanExpr) -> str:
    if isinstance(expr, Var):
        return f"v{expr.index}"
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Not):
        return f"~{expr_to_str(expr.operand)}"
    sym = {And: "&", Or: "|", Xor: "^"}[type(expr)]
    return f"({expr_to_str(expr.left)} {sym} {expr_to_str(expr.right)})"


@dataclass(frozen=True)
class TruthTable:
    n_vars: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n_vars <= MAX_VARS:
            raise VarIndexOutOfRange(f"n_vars={self.n_vars}")
        if len(self.outputs) != 1 << self.n_vars:
            raise VarIndexOutOfRange("output vector length mismatch")


@dataclass(frozen=True)
class MinimizedExpr:
    """Sum of products; each implicant maps a variable to 0, 1 or None (free)."""

    n_vars: int
    implicants: tuple[tuple[int | None, ...], ...]

    def evaluate(self, bits: tuple[int, ...]) -> int:
        if len(bits) != self.n_vars:
            raise VarIndexOutOfRange("assignment length mismatch")
        for imp in self.implicants:
            if all(v is None or v == b for v, b in zip(imp, bits)):
                return 1
        return 0

    def implicant_strings(self) -> tuple[str, ...]:
        return tuple(_implicant_str(imp) for imp in self.implicants)

    def canonical(self) -> str:
        if not self.implicants:
            return "0"
        return " + ".join(self.implicant_strings())

    def to_expr(self) -> BooleanExpr:
        if not self.implicants:
            return Const(0)
        terms = []
        for imp in self.implicants:
            lits: list[BooleanExpr] = []
            for j, v in enumerate(imp):
                if v == 1:
                    lits.append(Var(j))
                elif v == 0:
                    lits.append(Not(Var(j)))
            terms.append(Const(1) if not lits else balance(lits, And))
        return balance(terms, Or)


def balance(nodes: list, ctor) -> "BooleanExpr":
    """Fold a list into a tree by pairing adjacent items left to right."""
    if not nodes:
        raise ValueError("nothing to combine")
    layer = list(nodes)
    while len(layer) > 1:
        nxt = [ctor(layer[i], layer[i + 1]) for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def _implicant_str(imp: tuple[int | None, ...]) -> str:
    return "".join("-" if v is None else str(v) for v in imp)


def hash_substatement(text: str, lambda_h: int = 256) -> bytes:
    """Clause commitment: the standard hash of the UTF-8 text, truncated."""
    if lambda_h not in (128, 256):
        raise ValueError(f"lambda_h={lambda_h}")
    return truncate_bits(sha256(text.encode("utf-8")), lambda_h)


def extract(raw_text: str, lambda_h: int = 256) -> Statement:
    """Split raw text into clauses and operator markers.

    Clauses are the maximal runs between [markers], trimmed; a run that
    trims to nothing is an error, as is an unknown marker word.
    """
    operators = []
    clause_texts = []
    pos = 0
    for m in _MARKER.finditer(raw_text):
        word = m.group(1).strip().lower()
        try:
            operators.append(OperatorKind(word))
        except ValueError:
            raise UnknownOperator(m.group(1).strip()) from None
        clause_texts.append(raw_text[pos:m.start()])
        pos = m.end()
    clause_texts.append(raw_text[pos:])

    clauses = []
    for i, text in enumerate(clause_texts):
        stripped = text.strip()
        if not stripped:
            raise EmptyClause(f"clause {i} is empty")
        clauses.append(SubStatement(stripped, hash_substatement(stripped, lambda_h), i))
    if len(clauses) > MAX_VARS:
        raise TooManyVariables(len(clauses))
    return Statement(raw_text, tuple(clauses), tuple(operators))


def rejoin(statement: Statement) -> str:
    """Inverse of extract up to whitespace, for round-trip checking."""
    parts = [statement.clauses[0].text]
    for op, clause in zip(statement.operators, statement.clauses[1:]):
        parts.append(f"[{op.value}]")
        parts.append(clause.text)
    return " ".join(parts)


def build_expression(statement: Statement) -> BooleanExpr:
    """Parse the operator sequence by precedence climbing.

    `L [if] R` reads as R implies L.  `L [not] R` reads as L and not R,
    the one binary reading of the marker that puts its negation to work.
    """
    ops = statement.operators
    n = statement.n_vars

    def parse(var_pos: int, min_prec: int) -> tuple[BooleanExpr, int]:
        node: BooleanExpr = Var(var_pos)
        pos = var_pos
        while pos < len(ops) and _PRECEDENCE[ops[pos]] >= min_prec:
            op = ops[pos]
            rhs, pos = parse(pos + 1, _PRECEDENCE[op] + 1)
            node = _combine(op, node, rhs)
        return node, pos

    expr, consumed = parse(0, 1)
    assert consumed == len(ops) == n - 1
    return expr


def _combine(op: OperatorKind, left: BooleanExpr, right: BooleanExpr) -> BooleanExpr:
    if op is OperatorKind.AND:
        return And(left, right)
    if op is OperatorKind.OR:
        return Or(left, right)
    if op is OperatorKind.XOR:
        return Xor(left, right)
    if op is OperatorKind.IF:
        return Or(Not(right), left)
    return And(left, Not(right))


def expression_to_truth_table(expr: BooleanExpr, n_vars: int) -> TruthTable:
    """The value of expr in each row i of the table, variable 0 being the
    most significant bit of i, as eval_expr gives it row by row.

    Each node is evaluated once for all 2**n_vars rows, as an int whose bit
    i is the node's value in row i.  Variable j is the pattern of the rows
    whose bit k = n_vars-1-j is set: from row 0 up, a run of 2**k zeros and
    a run of 2**k ones, repeated.  One such pair of runs times
    ones // (2**(2**(k+1)) - 1), which has a 1 at the start of every pair,
    repeats it over the table.  A Const is all ones or 0, Not XORs with all
    ones, and And, Or and Xor are the bitwise operators.
    """
    # the table is a 2**n_vars-bit int: refuse a size before building it
    if not 1 <= n_vars <= MAX_VARS:
        raise VarIndexOutOfRange(f"n_vars={n_vars}")
    n_rows = 1 << n_vars
    ones = (1 << n_rows) - 1

    def rows(node: BooleanExpr) -> int:
        if isinstance(node, Var):
            if not 0 <= node.index < n_vars:
                raise VarIndexOutOfRange(f"v{node.index} with {n_vars} variables")
            run = 1 << (n_vars - 1 - node.index)
            return ones // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
        if isinstance(node, Const):
            return ones if node.value & 1 else 0
        if isinstance(node, Not):
            return rows(node.operand) ^ ones
        a, b = rows(node.left), rows(node.right)
        if isinstance(node, And):
            return a & b
        if isinstance(node, Or):
            return a | b
        return a ^ b

    table = rows(expr)
    return TruthTable(n_vars, tuple(table >> i & 1 for i in range(n_rows)))


# Quine-McCluskey with exact cover resolution

def minimize(table: TruthTable) -> MinimizedExpr:
    """Exact minimal sum-of-products for up to 6 variables.

    Ties between minimum-size covers break toward the lexicographically
    smallest sorted tuple of implicant strings, so the result is unique.
    """
    n = table.n_vars
    on = [i for i, b in enumerate(table.outputs) if b]
    if not on:
        return MinimizedExpr(n, ())
    if len(on) == len(table.outputs):
        return MinimizedExpr(n, ((None,) * n,))
    primes = _prime_implicants(n, on)
    cover = _minimum_cover(primes, on)
    return MinimizedExpr(n, tuple(sorted(cover, key=_implicant_str)))


def _prime_implicants(n: int, on: list[int]) -> list[tuple]:
    """All prime implicants of the on-set, sorted by implicant string.

    A cube is held as a pair of ints `(value, free)` over n bits, variable
    0 being the most significant bit, as in a table's row index: a bit set in
    `free` is a free variable, and `value` holds the fixed variables' bits,
    0 wherever `free` has a 1.  Two cubes merge only when they have the
    same free bits and differ in one fixed bit (McCluskey's rule), so the
    partner of `(value, free)` across a fixed 0 bit is `(value | bit,
    free)`, found with one set lookup, and the merged cube is
    `(value, free | bit)`.  A cube that merges with no partner is prime.
    """
    full = (1 << n) - 1
    current = {(m, 0) for m in on}
    primes: set[tuple[int, int]] = set()
    while current:
        merged_from: set[tuple[int, int]] = set()
        nxt: set[tuple[int, int]] = set()
        for value, free in current:
            zeros = full & ~free & ~value
            while zeros:
                bit = zeros & -zeros
                zeros ^= bit
                partner = (value | bit, free)
                if partner in current:
                    nxt.add((value, free | bit))
                    merged_from.add((value, free))
                    merged_from.add(partner)
        primes |= current - merged_from
        current = nxt
    cubes = [
        tuple(None if free >> k & 1 else value >> k & 1
              for k in range(n - 1, -1, -1))
        for value, free in primes
    ]
    return sorted(cubes, key=_implicant_str)


def _minimum_cover(primes: list[tuple], on: list[int]) -> list[tuple]:
    """Exact minimum set cover of the on-set by prime implicants.

    Essential primes (the sole coverer of some minterm) are peeled off
    first; the cyclic remainder is solved by iterative-deepening search
    that tries candidate primes in implicant-string order, so the first
    cover found at the minimum size is also the lexicographically
    smallest one.
    """
    n_on = len(on)
    full = (1 << n_on) - 1
    masks = []
    for p in primes:
        value = free = 0
        for v in p:
            value = value << 1 | (v == 1)
            free = free << 1 | (v is None)
        fixed = ~free
        m = 0
        for j, minterm in enumerate(on):
            if minterm & fixed == value:
                m |= 1 << j
        masks.append(m)

    essential: set[int] = set()
    for j in range(n_on):
        cands = [i for i in range(len(primes)) if masks[i] >> j & 1]
        if len(cands) == 1:
            essential.add(cands[0])
    covered = 0
    for i in essential:
        covered |= masks[i]

    remaining = full & ~covered
    if remaining == 0:
        return [primes[i] for i in sorted(essential)]

    cand = sorted((i for i in range(len(primes)) if masks[i] & remaining),
                  key=lambda i: _implicant_str(primes[i]))
    cmasks = [masks[i] & remaining for i in cand]
    n_cand = len(cand)
    suffix_or = [0] * (n_cand + 1)
    suffix_max = [0] * (n_cand + 1)
    for i in range(n_cand - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | cmasks[i]
        suffix_max[i] = max(suffix_max[i + 1], cmasks[i].bit_count())

    def dfs(start: int, uncov: int, left: int):
        if uncov == 0:
            return []
        if left == 0 or uncov & ~suffix_or[start]:
            return None
        if left * suffix_max[start] < uncov.bit_count():
            return None
        for i in range(start, n_cand):
            if cmasks[i] & uncov == 0:
                continue
            tail = dfs(i + 1, uncov & ~cmasks[i], left - 1)
            if tail is not None:
                return [i] + tail
        return None

    lower = -(-remaining.bit_count() // suffix_max[0])
    for k in range(lower, n_cand + 1):
        sol = dfs(0, remaining, k)
        if sol is not None:
            chosen = essential | {cand[i] for i in sol}
            return [primes[i] for i in sorted(chosen)]
    raise AssertionError("unreachable: minterm cubes alone form a cover")


def syn_gen(raw_text: str, lambda_h: int = 256) -> tuple[MinimizedExpr, Statement]:
    """Full front pipeline: extract, hash, build, tabulate, minimize."""
    statement = extract(raw_text, lambda_h)
    expr = build_expression(statement)
    table = expression_to_truth_table(expr, statement.n_vars)
    return minimize(table), statement
