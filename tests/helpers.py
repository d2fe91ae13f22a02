"""Shared generators and fixtures for the test suite."""

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from zkfabric.circuit import CircuitBuilder, evaluate_plain, evaluate_wires
from zkfabric.protocol import ProverEngine, SessionParams, Transcript, run_session
from zkfabric.hashing import sha256
from zkfabric.repository import Repository, RepositoryRecord, make_record
from zkfabric.syntax import MinimizedExpr, TruthTable, _implicant_str

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


def assignment(index, n):
    """Row `index` of an n-variable truth table as bits, variable 0 being
    the most significant bit of the index."""
    return tuple(index >> (n - 1 - j) & 1 for j in range(n))


def all_assignments(n):
    for idx in range(1 << n):
        yield assignment(idx, n)


def scan_fetch(records, session=None, kind=None):
    """Linear-scan oracle for Repository.fetch: every record of the board in
    seq order, kept when it matches `session` and `kind` (None matches all)."""
    return [r for r in records
            if (session is None or r.session == session)
            and (kind is None or r.kind == kind)]


def reference_canonical(obj) -> bytes:
    """The board's canonical JSON, one whole `json.dumps` per object: the
    reference the record encoding is compared against."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode()


def reference_digest(seq, session, author, kind, body) -> str:
    """Reference digest: over the canonical encoding of the five fields."""
    payload = reference_canonical({"seq": seq, "session": session, "author": author,
                                   "kind": kind, "body": body})
    return sha256(payload).hex()


def reference_encode(record: RepositoryRecord) -> bytes:
    """Reference line: the canonical encoding of all six fields."""
    return reference_canonical({
        "seq": record.seq,
        "session": record.session,
        "author": record.author,
        "kind": record.kind,
        "body": record.body,
        "digest": record.digest,
    })


def raw_line(**texts) -> bytes:
    """A board line built from JSON texts, one per field (defaults: an
    empty session_init of session "s" at seq 0), with the digest taken
    over the other five as the board takes it; so a test can write values
    the encoder never would."""
    fields = {"author": '"prover"', "body": "{}", "kind": '"session_init"',
              "seq": "0", "session": '"s"', **texts}

    def line(items):
        return "{" + ",".join(f'"{k}":{v}' for k, v in sorted(items.items())) + "}"

    digest = sha256(line(fields).encode()).hex()
    return line({**fields, "digest": f'"{digest}"'}).encode()


# boards whose last line a hostile poster could write, its digest valid;
# the seq case's first line opens the session the last one names
HOSTILE_BOARDS = {
    "kind_list": [raw_line(kind='["session_init"]')],
    "session_list": [raw_line(session='["s"]')],
    "long_number": [raw_line(body='{"n":' + "9" * 5000 + "}")],
    "deep_nesting": [raw_line(body='{"n":' + "[" * 200_000 + "]" * 200_000 + "}")],
    "seq_true": [raw_line(), raw_line(seq="true", kind='"mask_commit"')],
    # what I-JSON (RFC 7493 section 2.1) forbids and Python's json reads
    "nan": [raw_line(body='{"x":NaN}')],
    "infinity": [raw_line(body='{"x":Infinity}')],
    "lone_high_surrogate": [raw_line(body='{"x":"\\ud800"}')],
    "lone_low_surrogate": [raw_line(session='"\\udc00"')],
}


def board_of(records) -> Repository:
    """A fresh in-memory board holding `records`, each appended (and so
    checked) in turn: what replay_board audits."""
    board = Repository()
    for rec in records:
        board.append(rec)
    return board


def edited_golden(kind, field, value):
    """The golden board with one field of the first `kind` record set to
    `value` and that record's digest recomputed, so only replay's reading
    of the field can notice the edit."""
    records = list(Repository(GOLDEN_BOARD))
    i, target = next((i, r) for i, r in enumerate(records) if r.kind == kind)
    records[i] = make_record(target.seq, target.session, target.author,
                             target.kind, {**target.body, field: value})
    return board_of(records), target


@dataclass
class ProverAudit:
    """The prover's private view of a settled session, for leak scans."""

    witness: tuple[int, ...]
    clause_texts: tuple[str, ...]
    f_value: int
    inactive_labels: tuple[str, ...]


@dataclass
class AuditedTranscript(Transcript):
    audit: ProverAudit | None = None


def audited_session(params, statement_text, witness, repo=None,
                    engine_overrides=None) -> AuditedTranscript:
    """run_session, with the prover's audit attached as `audit`.  The
    prover engine is caught by a subclass that records itself when it
    bootstraps, so the audit is built from the engine's own state."""
    overrides = dict(engine_overrides or {})
    provers = []

    class RecordingProver(overrides.get("prover", ProverEngine)):
        def bootstrap(self):
            provers.append(self)
            super().bootstrap()

    overrides["prover"] = RecordingProver
    transcript = run_session(params, statement_text, witness, repo, overrides)
    return AuditedTranscript(**vars(transcript),
                             audit=prover_audit(provers[0], transcript))


def audited_simulation(statement, witness, y_claim, seed=0, **params):
    """run_simulation on an in-memory board, through audited_session."""
    return audited_session(
        SessionParams.from_master(seed, y_claim=y_claim, **params),
        statement, witness)


def prover_audit(prover, transcript) -> ProverAudit | None:
    """Collect every label the published run left inactive; None unless
    the session settled on accept or reject."""
    if transcript.verdict not in ("accept", "reject"):
        return None
    posted_y = next(int(r.body["y"]) for r in transcript.records
                    if r.kind == "aggregate_output")
    witness = prover.witness
    inactive: list[str] = []

    def collect(res, bits) -> None:
        values = evaluate_wires(res.garbled.circuit, bits)
        for wire, pair in enumerate(res.wire_labels):
            inactive.append(pair[1 - values[wire]].hex())

    for part, res, r_bit in zip(prover.pset.parts, prover.part_results, prover.masks):
        collect(res, tuple(witness[w] for w in part.parent_inputs) + (r_bit,))
    agg = prover.pset.aggregate
    x_m = posted_y ^ prover.f_value
    part_bits = tuple(
        evaluate_plain(p.circuit, tuple(witness[w] for w in p.parent_inputs) + (r,))
        for p, r in zip(prover.pset.parts, prover.masks))
    agg_bits = (part_bits
                + tuple(witness[w] for w in agg.passthrough_parents)
                + tuple(prover.masks) + (x_m,))
    collect(prover.agg_result, agg_bits)
    return ProverAudit(
        witness=witness,
        clause_texts=tuple(c.text for c in prover.statement.clauses),
        f_value=prover.f_value,
        inactive_labels=tuple(inactive),
    )


# A tuple-walking Quine-McCluskey that shares no merge or cover logic with
# zkfabric.syntax's bitmask cubes: the reference that minimize must match
# byte for byte (same primes, same cover, same order), since the committed
# SOP of every board is its output.

def reference_minimize(table: TruthTable) -> MinimizedExpr:
    n = table.n_vars
    on = [i for i, b in enumerate(table.outputs) if b]
    if not on:
        return MinimizedExpr(n, ())
    if len(on) == len(table.outputs):
        return MinimizedExpr(n, ((None,) * n,))
    primes = reference_prime_implicants(n, on)
    cover = _reference_minimum_cover(primes, on, n)
    return MinimizedExpr(n, tuple(sorted(cover, key=_implicant_str)))


def _cube_of(minterm: int, n: int) -> tuple[int | None, ...]:
    return assignment(minterm, n)


def _merge(a: tuple, b: tuple) -> tuple | None:
    diff = None
    for j, (x, y) in enumerate(zip(a, b)):
        if x != y:
            if x is None or y is None or diff is not None:
                return None
            diff = j
    if diff is None:
        return None
    return a[:diff] + (None,) + a[diff + 1:]


def reference_prime_implicants(n: int, on: list[int]) -> list[tuple]:
    current = {_cube_of(m, n) for m in on}
    primes: set[tuple] = set()
    while current:
        merged_from: set[tuple] = set()
        nxt: set[tuple] = set()
        grouped: dict[int, list[tuple]] = {}
        for cube in current:
            grouped.setdefault(sum(v == 1 for v in cube), []).append(cube)
        for ones, group in grouped.items():
            for cube in group:
                for other in grouped.get(ones + 1, []):
                    m = _merge(cube, other)
                    if m is not None:
                        nxt.add(m)
                        merged_from.add(cube)
                        merged_from.add(other)
        primes |= current - merged_from
        current = nxt
    return sorted(primes, key=_implicant_str)


def _covers(cube: tuple, minterm: int, n: int) -> bool:
    bits = assignment(minterm, n)
    return all(v is None or v == b for v, b in zip(cube, bits))


def _reference_minimum_cover(primes: list[tuple], on: list[int], n: int) -> list[tuple]:
    n_on = len(on)
    full = (1 << n_on) - 1
    masks = []
    for p in primes:
        m = 0
        for j, minterm in enumerate(on):
            if _covers(p, minterm, n):
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


def exhaustive_minimum_size(table: TruthTable) -> int:
    """Brute-force reference: smallest number of cubes covering the on-set.

    Only feasible for tiny n; used to audit minimize() on 2-variable
    functions where all 9 cubes and all subsets can be enumerated.
    """
    n = table.n_vars
    on = [i for i, b in enumerate(table.outputs) if b]
    if not on:
        return 0
    values: list[int | None] = [0, 1, None]
    cubes = []
    for combo in _all_cubes(n, values):
        covered = {m for m in range(1 << n) if _covers(combo, m, n)}
        if covered <= set(on):
            cubes.append((combo, covered))
    for size in range(1, len(cubes) + 1):
        for subset in combinations(cubes, size):
            hit = set()
            for _, cov in subset:
                hit |= cov
            if hit == set(on):
                return size
    raise AssertionError("unreachable: minterm cubes always cover")


def _all_cubes(n: int, values: list) -> list[tuple]:
    cubes = [()]
    for _ in range(n):
        cubes = [c + (v,) for c in cubes for v in values]
    return cubes
