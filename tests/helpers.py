"""Shared generators and fixtures for the test suite."""

from pathlib import Path

from zkfabric.circuit import CircuitBuilder
from zkfabric.repository import Repository, make_record

GOLDEN_BOARD = Path(__file__).parent / "golden" / "car_toy23.board"

CAR_STATEMENT = ('The car only starts [if] the "start" button is pressed '
                 '[and] the brake pedal is pressed')

# truth table of the car statement, row index read as v0 v1 v2 (v0 MSB)
CAR_TABLE = (1, 1, 1, 0, 1, 1, 1, 1)

GATE_OPS = ("AND", "OR", "XOR")

# words with characters outside [0-9a-f], so clause text can never be a
# substring of a lowercase hex digest by accident
WORDS = ("zero", "night", "quill", "wolf", "storm", "grove", "tower",
         "zinc", "plume", "ridge", "whisk", "onyx")


def random_circuit(rng, max_inputs=6, max_depth=5, max_gates=9, n_inputs=None):
    """A random layered circuit; operands may be inputs, constants, or gates."""
    n = n_inputs if n_inputs is not None else rng.randint(1, max_inputs)
    b = CircuitBuilder(n)
    layer = {w: 0 for w in range(n + 2)}
    pool = list(range(n + 2))
    out = None
    for _ in range(rng.randint(1, max_gates)):
        usable = [w for w in pool if layer[w] < max_depth]
        left = rng.choice(usable)
        right = rng.choice(usable)
        out = b.gate(rng.choice(GATE_OPS), left, right)
        layer[out] = max(layer[left], layer[right]) + 1
        pool.append(out)
    return b.finish(out)


def random_partitionable_circuit(rng, max_parts=6, **kw):
    """Random circuit with at most max_parts first-layer gates."""
    while True:
        c = random_circuit(rng, **kw)
        if len(c.layer_gates(1)) <= max_parts:
            return c


def random_statement(rng, min_clauses=2, max_clauses=6):
    """Bracketed statement over word clauses that cannot alias hex digests."""
    n = rng.randint(min_clauses, max_clauses)
    clauses = [f"{rng.choice(WORDS)} {rng.choice(WORDS)} {i}" for i in range(n)]
    ops = [rng.choice(("if", "and", "or", "xor", "not")) for _ in range(n - 1)]
    parts = [clauses[0]]
    for op, clause in zip(ops, clauses[1:]):
        parts.append(f"[{op}]")
        parts.append(clause)
    return " ".join(parts)


def all_assignments(n):
    for idx in range(1 << n):
        yield tuple(idx >> (n - 1 - j) & 1 for j in range(n))


def scan_fetch(records, session=None, kind=None, since=0):
    """Linear-scan oracle for Repository.fetch: every record of the board in
    seq order, kept when it matches `session` and `kind` (None matches all)
    and its seq is at least `since`."""
    return [r for r in records
            if (session is None or r.session == session)
            and (kind is None or r.kind == kind)
            and r.seq >= since]


def edited_golden(kind, field, value):
    """The golden board's records with one field of the first `kind`
    record set to `value` and that record's digest recomputed, so only
    replay's reading of the field can notice the edit."""
    records = list(Repository(GOLDEN_BOARD))
    i, target = next((i, r) for i, r in enumerate(records) if r.kind == kind)
    records[i] = make_record(target.seq, target.session, target.author,
                             target.kind, {**target.body, field: value})
    return records, target
