"""Acceptance checklist: one test per shipped guarantee.

Run `pytest -v tests/test_acceptance.py` to get a single pass/fail
line per criterion.  Loop counts are the advertised ones, not smoke
reductions, and every tolerance lives in an assert.  Each test also
prints a one-line summary that `pytest -s` makes visible.
"""

import json
import random
import time

from helpers import (CAR_STATEMENT, CAR_TABLE, GOLDEN_BOARD, all_assignments,
                     audited_session, audited_simulation,
                     exhaustive_minimum_size, random_circuit,
                     random_partitionable_circuit, random_statement)
from zkfabric.circuit import (compose_evaluate, evaluate_plain, pad_inputs,
                              partition)
from zkfabric.errors import ConsistencyCheckFailed
from zkfabric.garble import decode_output, evaluate_garbled, garble_circuit
from zkfabric.hashing import HashDrbg
from zkfabric.ot import (group_by_name, ot_receiver_choose,
                         ot_receiver_recover, ot_sender_init,
                         ot_sender_transfer)
from zkfabric.protocol import SessionParams, replay_board, run_simulation
from zkfabric.repository import Repository, encode_record
from zkfabric.syntax import TruthTable, extract, minimize


def test_criterion_1_garbled_equals_plain():
    """1000 random circuits (up to 6 inputs, depth 5): garbled evaluation
    decodes to the plain value on every assignment, within 60 seconds."""
    rng = random.Random(100)
    t0 = time.perf_counter()
    checked = 0
    for trial in range(1000):
        c = random_circuit(rng)
        gc, enc, dec = garble_circuit(c, seed=trial, digest_bits=128)
        for bits in all_assignments(c.n_inputs):
            labels = {w: enc.label_for(w, bits[w]) for w in range(c.n_inputs)}
            out = evaluate_garbled(gc, labels)
            assert decode_output(dec, out) == evaluate_plain(c, bits)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 1: 1000 circuits, {checked} assignments, "
          f"{elapsed:.2f}s < 60s")


def test_criterion_2_minimization_exact_and_equivalent():
    """Every minimized expression matches its source table, and on the
    fully enumerable 2-variable space the cover size is provably minimal."""
    checked = 0
    for code in range(256):
        outputs = tuple(code >> i & 1 for i in range(8))
        table = TruthTable(3, outputs)
        expr = minimize(table)
        for i, bits in enumerate(all_assignments(3)):
            assert expr.evaluate(bits) == outputs[i]
        checked += 1
    rng = random.Random(200)
    for _ in range(500):
        n = rng.randrange(4, 7)
        outputs = tuple(rng.randrange(2) for _ in range(1 << n))
        table = TruthTable(n, outputs)
        expr = minimize(table)
        for i, bits in enumerate(all_assignments(n)):
            assert expr.evaluate(bits) == outputs[i]
        checked += 1
    for code in range(16):
        outputs = tuple(code >> i & 1 for i in range(4))
        table = TruthTable(2, outputs)
        assert len(minimize(table).implicants) == exhaustive_minimum_size(table)
    print(f"criterion 2: {checked} tables equivalent, "
          f"16/16 two-variable covers minimal")


def test_criterion_3_ot_correctness_and_probe_rejection():
    """1000 transfers per choice bit recover exactly the chosen message,
    and 1000 inconsistent receiver keys are all rejected by the sender."""
    toy = group_by_name("toy23")
    rng = random.Random(300)
    for choice in (0, 1):
        for trial in range(1000):
            drbg = HashDrbg(rng.randrange(1 << 48), context="acceptance-ot")
            m0 = drbg.random_bytes(16)
            m1 = drbg.random_bytes(16)
            c, sender = ot_sender_init(toy, drbg)
            choose, receiver = ot_receiver_choose(toy, c, choice, drbg)
            transfer = ot_sender_transfer(sender, choose.y0, choose.y1,
                                          m0, m1, drbg)
            assert ot_receiver_recover(receiver, transfer) == (m0, m1)[choice]
    prod = group_by_name("modp2048")
    for trial in range(20):
        drbg = HashDrbg(trial, context="acceptance-ot-prod")
        m0 = drbg.random_bytes(16)
        m1 = drbg.random_bytes(16)
        choice = trial & 1
        c, sender = ot_sender_init(prod, drbg)
        choose, receiver = ot_receiver_choose(prod, c, choice, drbg)
        transfer = ot_sender_transfer(sender, choose.y0, choose.y1,
                                      m0, m1, drbg)
        assert ot_receiver_recover(receiver, transfer) == (m0, m1)[choice]
    subgroup = sorted({pow(toy.g, e, toy.p) for e in range(toy.q)})
    rejected = 0
    probes = 0
    while probes < 1000:
        drbg = HashDrbg(5000 + probes, context="acceptance-ot-probe")
        c, sender = ot_sender_init(toy, drbg)
        y0 = subgroup[rng.randrange(len(subgroup))]
        y1 = subgroup[rng.randrange(len(subgroup))]
        if y0 * y1 % toy.p == c:
            continue
        probes += 1
        try:
            ot_sender_transfer(sender, y0, y1, b"m0", b"m1", drbg)
        except ConsistencyCheckFailed:
            rejected += 1
    assert rejected == 1000
    print("criterion 3: 2000/2000 toy + 20/20 production transfers correct, "
          "1000/1000 inconsistent probes rejected")


def test_criterion_4_masked_composition_unmasks():
    """200 random partitioned circuits: composing the masked parts equals
    the plain value XOR the blind bit, for every assignment, every mask
    vector and both blind-bit settings."""
    rng = random.Random(8400)
    checked = 0
    for trial in range(200):
        c = random_partitionable_circuit(rng, max_parts=6)
        ps = partition(c)
        m1 = len(ps.parts)
        for bits in all_assignments(c.n_inputs):
            want = evaluate_plain(c, bits)
            for mask_idx in range(1 << m1):
                masks = tuple(mask_idx >> j & 1 for j in range(m1))
                for blind in (0, 1):
                    got = compose_evaluate(ps, bits, masks, blind)
                    assert got == want ^ blind
                    checked += 1
    print(f"criterion 4: 200 circuits, {checked} compositions unmask "
          f"correctly")


def _aggregator_seed_for(session_id: str, want: int) -> int:
    for seed in range(10000):
        drbg = HashDrbg(seed, context=f"{session_id}/aggregator")
        if drbg.randbit() == want:
            return seed
    raise AssertionError(f"no aggregator seed found for bit {want}")


def test_criterion_5_car_statement_exhaustive_production_group():
    """All 8 witnesses x 2 claims x both blind bits on the production
    group: the session accepts exactly when the circuit value matches the
    claim, and every session finishes in under a second."""
    sessions = 0
    worst = 0.0
    for code in range(8):
        witness = format(code, "03b")
        f_value = CAR_TABLE[code]
        for claim in (0, 1):
            for want_xm in (0, 1):
                sid = f"car-w{witness}-c{claim}-x{want_xm}"
                params = SessionParams(
                    session_id=sid,
                    y_claim=claim,
                    group="modp2048",
                    prover_seed=1,
                    aggregator_seed=_aggregator_seed_for(sid, want_xm),
                    verifier_seed_base=1,
                )
                t0 = time.perf_counter()
                transcript = audited_session(params, CAR_STATEMENT, witness,
                                             Repository())
                elapsed = time.perf_counter() - t0
                worst = max(worst, elapsed)
                assert elapsed < 1.0
                expected = "accept" if f_value == claim else "reject"
                assert transcript.verdict == expected
                posted_y = next(r.body["y"] for r in transcript.records
                                if r.kind == "aggregate_output")
                assert posted_y ^ transcript.audit.f_value == want_xm
                sessions += 1
    assert sessions == 32
    print(f"criterion 5: 32/32 production sessions correct, "
          f"worst {worst:.3f}s < 1s")


def _string_fields(records):
    """Map (record index, kind, path...) to every string value on a board.

    Dict keys named "witness" are rejected outright while walking.
    """
    fields = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                assert key != "witness"
                walk(value, path + (key,))
        elif isinstance(node, list):
            for j, value in enumerate(node):
                walk(value, path + (j,))
        elif isinstance(node, str):
            fields[path] = node

    for idx, rec in enumerate(records):
        walk(rec.body, (idx, rec.kind))
    return fields


def test_criterion_6_boards_do_not_leak():
    """100 random sessions: the public board never contains a clause text,
    an inactive wire label, or any witness-dependent field equal to the
    witness bitstring.

    Short witnesses collide with honest public strings (a two-variable
    sum-of-products implicant can literally be "01"), so the witness scan
    is differential: rerun the session with the complement witness and
    flag a matching field only if it changed between the two runs.
    """
    rng = random.Random(600)
    scanned = 0
    for trial in range(100):
        statement = random_statement(rng)
        n = extract(statement).n_vars
        witness = "".join(str(rng.randrange(2)) for _ in range(n))
        claim = rng.randrange(2)
        transcript = audited_simulation(statement, witness, claim,
                                        seed=trial, group="toy23")
        assert transcript.verdict in ("accept", "reject")
        board_text = b"".join(
            encode_record(r) + b"\n" for r in transcript.records
        ).decode("ascii")
        audit = transcript.audit
        assert audit.witness == tuple(int(b) for b in witness)
        for clause in audit.clause_texts:
            assert clause not in board_text
        for label_hex in audit.inactive_labels:
            assert label_hex not in board_text
        flipped = "".join("1" if b == "0" else "0" for b in witness)
        control = run_simulation(statement, flipped, claim,
                                 seed=trial, group="toy23")
        kinds = [r.kind for r in transcript.records]
        assert kinds == [r.kind for r in control.records]
        fields = _string_fields(transcript.records)
        control_fields = _string_fields(control.records)
        for path, value in fields.items():
            if value == witness:
                assert control_fields.get(path) == value
        scanned += 1
    print(f"criterion 6: {scanned} boards scanned, no clause text, "
          f"inactive label or witness-valued field found")


def test_criterion_7_determinism_golden_and_replay(tmp_path):
    """Fixed seeds reproduce byte-identical boards that match the checked-in
    golden file, and replaying a board re-derives its verdict."""
    board_a = tmp_path / "a.board"
    board_b = tmp_path / "b.board"
    for path in (board_a, board_b):
        transcript = run_simulation(CAR_STATEMENT, "111", 1,
                                    seed=20260818, group="toy23",
                                    board_path=path)
        assert transcript.verdict == "accept"
    raw = board_a.read_bytes()
    assert raw == board_b.read_bytes()
    assert raw == GOLDEN_BOARD.read_bytes()

    reports = replay_board(Repository(board_a))
    assert len(reports) == 1
    assert reports[0].ok
    assert reports[0].verdict == "accept"
    assert all(ok for _, ok, _ in reports[0].checks)

    reject_board = tmp_path / "reject.board"
    transcript = run_simulation(CAR_STATEMENT, "011", 1,
                                seed=20260818, group="toy23",
                                board_path=reject_board)
    assert transcript.verdict == "reject"
    reports = replay_board(Repository(reject_board))
    assert len(reports) == 1
    assert reports[0].ok
    assert reports[0].verdict == "reject"
    print("criterion 7: boards byte-identical to golden, replay re-derives "
          "accept and reject verdicts")


def test_criterion_8_odd_input_padding_preserves_function():
    """Odd input counts 1, 3 and 5: the padded circuit computes the original
    function for all four settings of the auxiliary input pair."""
    rng = random.Random(800)
    checked = 0
    for n in (1, 3, 5):
        for _ in range(30):
            c = random_circuit(rng, n_inputs=n)
            padded = pad_inputs(c)
            assert padded.n_inputs == n + 2
            for bits in all_assignments(n):
                want = evaluate_plain(c, bits)
                for aux0 in (0, 1):
                    for aux1 in (0, 1):
                        got = evaluate_plain(padded, bits + (aux0, aux1))
                        assert got == want
                        checked += 1
    print(f"criterion 8: 90 odd-input circuits, {checked} padded "
          f"evaluations match")
