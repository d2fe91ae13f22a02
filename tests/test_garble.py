import random
import time
import tracemalloc
from dataclasses import replace

import pytest

from helpers import all_assignments, random_circuit
from zkfabric.circuit import compile_expression, evaluate_plain, evaluate_wires
from zkfabric.errors import ArityMismatch, DecryptFailure, UnknownLabel
from zkfabric.garble import (
    DecodeInfo,
    GarbledCircuit,
    GarbledGate,
    decode_output,
    encode_input,
    evaluate_garbled,
    garble_circuit,
    garble_full,
    label_color,
    open_gate,
    sample_label_pair,
)
from zkfabric.hashing import LABEL_BYTES, HashDrbg
from zkfabric.protocol import read
from zkfabric.repository import make_record
from zkfabric.syntax import And, Not, Var, Xor

CHI_SQUARE_DF3_P01 = 11.345


def read_back(name, value):
    """`value` as the board's reader for body field `name` decodes it."""
    return read(make_record(0, "s", "prover", "aggregate_publish", {name: value}), name)


def single_gate(op):
    ctor = {"AND": And, "XOR": Xor}[op]
    return compile_expression(ctor(Var(0), Var(1)))


def run_garbled(gc, encode, decode, bits):
    labels = encode_input(encode, bits)
    out = evaluate_garbled(gc, dict(enumerate(labels)))
    return decode_output(decode, out)


def test_and_gate_all_assignments():
    gc, encode, decode = garble_circuit(single_gate("AND"), seed=1)
    for a, b in all_assignments(2):
        assert run_garbled(gc, encode, decode, (a, b)) == (a & b)


def test_gate_semantics_random_ops():
    c = compile_expression(Xor(And(Var(0), Var(1)), Not(Var(2))))
    gc, encode, decode = garble_circuit(c, seed=9)
    for bits in all_assignments(3):
        assert run_garbled(gc, encode, decode, bits) == evaluate_plain(c, bits)


def test_garbling_is_deterministic_per_seed():
    c = single_gate("AND")
    first = garble_circuit(c, seed=42)
    second = garble_circuit(c, seed=42)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]
    other = garble_circuit(c, seed=43)
    assert other[0] != first[0]


def test_labels_have_opposite_colors():
    drbg = HashDrbg(7, context="labels")
    for _ in range(200):
        l0, l1 = sample_label_pair(drbg)
        assert len(l0) == len(l1) == LABEL_BYTES
        assert label_color(l0) ^ label_color(l1) == 1


def test_tables_have_four_rows_of_fixed_width():
    rng = random.Random(18)
    for _ in range(20):
        c = random_circuit(rng)
        gc, _, _ = garble_circuit(c, seed=rng.randint(0, 2**32))
        assert len(gc.tables) == len(c.gates)
        for gate in gc.tables:
            assert len(gate.rows) == 4
            assert all(len(row) == LABEL_BYTES + 8 for row in gate.rows)


def test_garbled_equals_plain_random_circuits():
    rng = random.Random(77)
    for trial in range(40):
        c = random_circuit(rng)
        gc, encode, decode = garble_circuit(c, seed=trial)
        for bits in all_assignments(c.n_inputs):
            assert run_garbled(gc, encode, decode, bits) == evaluate_plain(c, bits)


def tamper_row(gc, row, offset):
    rows = list(gc.tables[0].rows)
    rows[row] = (rows[row][:offset] + bytes([rows[row][offset] ^ 1])
                 + rows[row][offset + 1:])
    return GarbledCircuit(gc.circuit, (GarbledGate(tuple(rows)),),
                          gc.const_labels, gc.digest_bits)


def test_tampered_pad_fails_to_decrypt():
    c = single_gate("AND")
    gc, encode, decode = garble_circuit(c, seed=5)
    labels = encode_input(encode, (1, 1))
    row = (label_color(labels[0]) << 1) | label_color(labels[1])
    broken = tamper_row(gc, row, LABEL_BYTES)
    with pytest.raises(DecryptFailure):
        evaluate_garbled(broken, dict(enumerate(labels)))


def test_tampered_label_bytes_fail_at_decode():
    """Flipping label bytes keeps the pad intact but yields a bogus label."""
    c = single_gate("AND")
    gc, encode, decode = garble_circuit(c, seed=5)
    labels = encode_input(encode, (1, 1))
    row = (label_color(labels[0]) << 1) | label_color(labels[1])
    broken = tamper_row(gc, row, 0)
    out = evaluate_garbled(broken, dict(enumerate(labels)))
    with pytest.raises(UnknownLabel):
        decode_output(decode, out)


def test_wrong_label_fails_to_decrypt():
    c = single_gate("AND")
    gc, encode, _ = garble_circuit(c, seed=6)
    labels = list(encode_input(encode, (1, 1)))
    labels[0] = bytes(LABEL_BYTES)
    with pytest.raises(DecryptFailure):
        evaluate_garbled(gc, dict(enumerate(labels)))


def test_evaluate_requires_exact_input_set():
    c = single_gate("AND")
    gc, encode, _ = garble_circuit(c, seed=2)
    labels = encode_input(encode, (0, 1))
    with pytest.raises(ArityMismatch):
        evaluate_garbled(gc, {0: labels[0]})
    with pytest.raises(ArityMismatch):
        evaluate_garbled(gc, {0: labels[0], 1: labels[1], 7: labels[0]})
    with pytest.raises(ArityMismatch):
        evaluate_garbled(gc, {0: labels[0], 7: labels[1]})


def test_evaluate_checks_a_stated_arity_without_building_it():
    """A posted circuit may state any n_inputs; refusing a wrong label set
    costs the size of the labels given, not of the statement."""
    gc, encode, _ = garble_circuit(single_gate("AND"), seed=2)
    huge = replace(gc, circuit=replace(gc.circuit, n_inputs=10**9))
    labels = dict(enumerate(encode_input(encode, (0, 1))))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(ArityMismatch):
            evaluate_garbled(huge, labels)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 2**20


def test_encode_input_arity():
    _, encode, _ = garble_circuit(single_gate("AND"), seed=3)
    with pytest.raises(ArityMismatch):
        encode_input(encode, (1,))


def test_constant_wires_get_usable_labels():
    c = compile_expression(Not(Var(0)))
    gc, encode, decode = garble_circuit(c, seed=11)
    assert run_garbled(gc, encode, decode, (0,)) == 1
    assert run_garbled(gc, encode, decode, (1,)) == 0


def test_trace_holds_exactly_one_label_per_wire():
    rng = random.Random(404)
    for trial in range(15):
        c = random_circuit(rng)
        res = garble_full(c, HashDrbg(trial, context="trace"))
        bits = tuple(rng.randint(0, 1) for _ in range(c.n_inputs))
        labels = encode_input(res.encode, bits)
        _, trace = evaluate_garbled(res.garbled, dict(enumerate(labels)),
                                    with_trace=True)
        assert set(trace) == set(range(c.n_wires))
        values = evaluate_wires(c, bits)
        for wire, label in trace.items():
            pair = res.wire_labels[wire]
            assert label == pair[values[wire]]
            assert label != pair[1 - values[wire]]


def test_decode_rejects_random_labels():
    _, _, decode = garble_circuit(single_gate("AND"), seed=8)
    drbg = HashDrbg(123, context="forgeries")
    for _ in range(10000):
        with pytest.raises(UnknownLabel):
            decode_output(decode, drbg.random_bytes(LABEL_BYTES))


def test_decode_map_width_follows_digest_bits():
    c = single_gate("AND")
    for bits, width in ((128, 32), (256, 64)):
        _, _, decode = garble_circuit(c, seed=4, digest_bits=bits)
        assert decode.digest_bits == bits
        for entry_hex, bit in decode.entries:
            assert len(entry_hex) == width
            assert bit in (0, 1)
    assert DecodeInfo(read_back("decode", decode.to_lists()), 256) == decode


def test_row_position_is_uniform_over_garblings():
    """The semantic (1,1) row must land in each table slot equally often."""
    c = single_gate("AND")
    counts = [0, 0, 0, 0]
    for seed in range(400):
        res = garble_full(c, HashDrbg(seed, context="permute"))
        a1 = res.wire_labels[0][1]
        b1 = res.wire_labels[1][1]
        counts[(label_color(a1) << 1) | label_color(b1)] += 1
    expected = 100.0
    chi2 = sum((obs - expected) ** 2 / expected for obs in counts)
    assert chi2 < CHI_SQUARE_DF3_P01


def test_translation_chains_garbled_evaluations():
    """Feed one garbled circuit's output into another by garbling the second
    on the first one's output label pair."""
    up_c = single_gate("XOR")
    down_c = compile_expression(Not(Var(0)))
    up = garble_full(up_c, HashDrbg(1, context="up"))
    down = garble_full(down_c, HashDrbg(2, context="down"),
                       inputs=(up.wire_labels[up_c.output],))
    assert down.wire_labels[0] == up.wire_labels[up_c.output]
    for bits in all_assignments(2):
        labels = encode_input(up.encode, bits)
        mid = evaluate_garbled(up.garbled, dict(enumerate(labels)))
        out = evaluate_garbled(down.garbled, {0: mid})
        assert decode_output(down.decode, out) == 1 - (bits[0] ^ bits[1])


def test_open_gate_opens_only_with_the_pair_labels():
    c = single_gate("AND")
    res = garble_full(c, HashDrbg(4, context="open"))
    gate = res.garbled.tables[0]
    left, right, out = (res.wire_labels[w] for w in (0, 1, c.output))
    for a, b in all_assignments(2):
        assert open_gate(gate, 0, left[a], right[b]) == out[a & b]
    forged = HashDrbg(5).random_bytes(LABEL_BYTES)
    assert open_gate(gate, 0, forged, right[0]) is None
    assert open_gate(gate, 1, left[0], right[0]) is None
