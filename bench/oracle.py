"""Independent verdict oracle for bracketed statements.

Written from the statement grammar the README and the zkfabric.syntax
docstring describe, without importing the program, so that a fault in the
program's parser or minimiser cannot hide behind the same code here:

  - clauses are the runs of text between [operator] markers
  - precedence, tightest first: not > and > xor > or > if, all left-associative
  - L [if] R means R -> L, and L [not] R means L and not R

Witness bits map to clauses in statement order, and truth-table rows read
clause 0 as the most significant bit of the row index.
"""

from __future__ import annotations

import re

_MARKER = re.compile(r"\[\s*(if|and|or|xor|not)\s*\]", re.IGNORECASE)

PRECEDENCE = {"not": 5, "and": 4, "xor": 3, "or": 2, "if": 1}

_APPLY = {
    "not": lambda left, right: left & (1 - right),
    "and": lambda left, right: left & right,
    "xor": lambda left, right: left ^ right,
    "or": lambda left, right: left | right,
    "if": lambda left, right: left | (1 - right),
}


def split_statement(text: str) -> tuple[list[str], list[str]]:
    """Return (clause texts, operator words) of a bracketed statement."""
    pieces = _MARKER.split(text)
    clauses = [piece.strip() for piece in pieces[0::2]]
    operators = [word.lower() for word in pieces[1::2]]
    return clauses, operators


def evaluate(operators: list[str], values: list[int]) -> int:
    """Value of v0 op0 v1 op1 v2 ... under the precedence above.

    Repeatedly applies the leftmost operator of the highest remaining
    precedence to its two neighbours, which is exactly left-associative
    binding with strict precedence levels.
    """
    if len(values) != len(operators) + 1:
        raise ValueError(f"{len(values)} values for {len(operators)} operators")
    values = list(values)
    operators = list(operators)
    while operators:
        top = max(PRECEDENCE[op] for op in operators)
        i = next(k for k, op in enumerate(operators) if PRECEDENCE[op] == top)
        values[i:i + 2] = [_APPLY[operators[i]](values[i], values[i + 1])]
        del operators[i]
    return values[0]


def statement_value(text: str, witness: str) -> int:
    """Value of the statement when clause i takes witness bit i."""
    clauses, operators = split_statement(text)
    if len(witness) != len(clauses):
        raise ValueError(f"witness {witness!r} for {len(clauses)} clauses")
    return evaluate(operators, [int(bit) for bit in witness])


def truth_table(text: str) -> tuple[int, ...]:
    clauses, operators = split_statement(text)
    n = len(clauses)
    return tuple(evaluate(operators, [row >> (n - 1 - j) & 1 for j in range(n)])
                 for row in range(1 << n))


def sop_table(sop: str, n_vars: int) -> tuple[int, ...]:
    """Truth table of a sum of products written as cubes over 0/1/- joined
    by ' + ' (the empty sum is '0')."""
    cubes = [] if sop == "0" else sop.split(" + ")
    for cube in cubes:
        if len(cube) != n_vars or set(cube) - set("01-"):
            raise ValueError(f"bad cube {cube!r} for {n_vars} variables")
    rows = []
    for row in range(1 << n_vars):
        bits = [str(row >> (n_vars - 1 - j) & 1) for j in range(n_vars)]
        rows.append(int(any(all(c in ("-", b) for c, b in zip(cube, bits))
                            for cube in cubes)))
    return tuple(rows)


def expected_verdict(text: str, witness: str, claim: int) -> str:
    """The verdict a correct session must reach: accept exactly when the
    claim equals the statement's value under the witness."""
    return "accept" if statement_value(text, witness) == claim else "reject"
