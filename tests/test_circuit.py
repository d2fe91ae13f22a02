import random
import tracemalloc

import pytest

from helpers import (
    CAR_STATEMENT,
    CAR_TABLE,
    all_assignments,
    random_circuit,
    random_partitionable_circuit,
)
from zkfabric.circuit import (
    CircuitBuilder,
    LayeredCircuit,
    compile_expression,
    compose_evaluate,
    evaluate_plain,
    evaluate_wires,
    netlist,
    pad_inputs,
    partition,
    validate_layers,
)
from zkfabric.errors import ArityMismatch, DepthZero
from zkfabric.syntax import (
    And,
    Const,
    Not,
    Or,
    TruthTable,
    Var,
    Xor,
    eval_expr,
    minimize,
    syn_gen,
)


def car_circuit():
    reduced, _ = syn_gen(CAR_STATEMENT)
    return compile_expression(reduced)


def test_compile_single_xor():
    c = compile_expression(Xor(Var(0), Var(1)))
    assert len(c.gates) == 1
    assert c.depth == 1
    for bits in all_assignments(2):
        assert evaluate_plain(c, bits) == bits[0] ^ bits[1]


def test_compile_constant():
    c = compile_expression(Const(1))
    assert c.gates == ()
    assert c.output == c.const1
    assert evaluate_plain(c, ()) == 1


def test_compile_not_uses_xor_with_const():
    c = compile_expression(Not(Var(0)))
    assert len(c.gates) == 1
    g = c.gates[0]
    assert g.op == "XOR"
    assert c.const1 in (g.left, g.right)
    assert evaluate_plain(c, (0,)) == 1
    assert evaluate_plain(c, (1,)) == 0


def test_compile_car_netlist():
    c = car_circuit()
    assert c.n_inputs == 3
    assert netlist(c) == [
        "g0 = XOR(w2, w4) @layer 1",
        "g1 = XOR(w1, w4) @layer 1",
        "g2 = OR(w5, w6) @layer 2",
        "g3 = OR(w7, w0) @layer 3",
    ]


def test_car_circuit_matches_table():
    c = car_circuit()
    for i, bits in enumerate(all_assignments(3)):
        assert evaluate_plain(c, bits) == CAR_TABLE[i]
    assert evaluate_plain(c, (0, 1, 1)) == 0
    assert evaluate_plain(c, (1, 1, 1)) == 1


def test_compile_matches_expression_random():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 4)
        outputs = tuple(rng.randint(0, 1) for _ in range(1 << n))
        reduced = minimize(TruthTable(n, outputs))
        c = compile_expression(reduced)
        for bits in all_assignments(n):
            assert evaluate_plain(c, bits) == reduced.evaluate(bits)


def test_compile_raw_expression_tree():
    expr = Or(And(Var(0), Not(Var(1))), Xor(Var(2), Var(0)))
    c = compile_expression(expr)
    for bits in all_assignments(3):
        assert evaluate_plain(c, bits) == eval_expr(expr, bits)


def test_evaluate_arity_mismatch():
    c = car_circuit()
    with pytest.raises(ArityMismatch):
        evaluate_plain(c, (1, 0))
    with pytest.raises(ArityMismatch):
        evaluate_plain(c, (1, 0, 1, 1))


def test_evaluate_wires_covers_every_wire():
    c = car_circuit()
    values = evaluate_wires(c, (1, 0, 1))
    assert set(values) == set(range(c.n_wires))
    assert values[c.const0] == 0
    assert values[c.const1] == 1
    assert values[c.output] == 1


def test_layers_are_valid_on_random_circuits():
    rng = random.Random(8)
    for _ in range(80):
        c = random_circuit(rng)
        validate_layers(c)
        assert c.depth <= 5
        for g in c.gates:
            left_layer = 0 if g.left < c.n_inputs + 2 else c.gates[g.left - c.n_inputs - 2].layer
            right_layer = 0 if g.right < c.n_inputs + 2 else c.gates[g.right - c.n_inputs - 2].layer
            assert g.layer == max(left_layer, right_layer) + 1


def test_gates_sorted_by_layer():
    rng = random.Random(12)
    for _ in range(40):
        c = random_circuit(rng)
        layers = [g.layer for g in c.gates]
        assert layers == sorted(layers)


def test_to_dict_round_trip():
    rng = random.Random(44)
    for _ in range(25):
        c = random_circuit(rng)
        again = LayeredCircuit.from_dict(c.to_dict())
        assert again == c


def test_from_dict_rejects_bad_gates():
    c = car_circuit()
    data = c.to_dict()
    data["gates"][0][0] = "NAND"
    with pytest.raises(ValueError):
        LayeredCircuit.from_dict(data)
    data = c.to_dict()
    data["gates"][0][3] = 2
    with pytest.raises(ValueError):
        LayeredCircuit.from_dict(data)
    data = c.to_dict()
    data["gates"][0][1] = 99
    with pytest.raises(ValueError):
        LayeredCircuit.from_dict(data)


def test_from_dict_does_not_allocate_per_stated_input():
    """n_inputs is whatever a poster writes, so reading a circuit that
    states a million inputs must cost what its gates cost."""
    data = {"n_inputs": 10**6, "output": 10**6 + 2, "gates": [["AND", 0, 1, 1]]}
    tracemalloc.start()
    try:
        c = LayeredCircuit.from_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.n_inputs == 10**6
    assert peak < 100_000


def test_pad_inputs_even_is_identity():
    c = compile_expression(Xor(Var(0), Var(1)))
    assert pad_inputs(c) is c


def test_pad_inputs_odd_preserves_semantics():
    rng = random.Random(3)
    for n in (1, 3, 5):
        for _ in range(10):
            c = random_circuit(rng, n_inputs=n)
            padded = pad_inputs(c)
            assert padded.n_inputs == n + 2
            validate_layers(padded)
            for bits in all_assignments(n):
                want = evaluate_plain(c, bits)
                for aux in all_assignments(2):
                    assert evaluate_plain(padded, bits + aux) == want


def test_partition_car_structure():
    ps = partition(car_circuit())
    assert len(ps.parts) == 2
    assert ps.parts[0].parent_inputs == (2,)
    assert ps.parts[1].parent_inputs == (1,)
    for part in ps.parts:
        assert part.circuit.n_inputs == 2
        assert part.mask_input == 1
        assert len(part.circuit.gates) == 2
    agg = ps.aggregate
    assert agg.part_inputs == (0, 1)
    assert agg.passthrough_parents == (0,)
    assert agg.passthrough_inputs == (2,)
    assert agg.mask_inputs == (3, 4)
    assert agg.agg_input == 5
    assert agg.circuit.n_inputs == 6


def test_partition_masks_part_outputs():
    """Each part output equals its gate value XOR the mask input."""
    ps = partition(car_circuit())
    for part in ps.parts:
        n = part.circuit.n_inputs
        for bits in all_assignments(n - 1):
            v0 = evaluate_plain(part.circuit, bits + (0,))
            v1 = evaluate_plain(part.circuit, bits + (1,))
            assert v0 ^ v1 == 1


def test_partition_single_gate_circuit():
    c = compile_expression(And(Var(0), Var(1)))
    ps = partition(c)
    assert len(ps.parts) == 1
    assert ps.aggregate.passthrough_parents == ()
    assert len(ps.aggregate.circuit.gates) == 2
    for bits in all_assignments(2):
        for r in (0, 1):
            for x in (0, 1):
                got = compose_evaluate(ps, bits, (r,), x)
                assert got == (bits[0] & bits[1]) ^ x


def test_partition_depth_zero():
    c = compile_expression(minimize(TruthTable(1, (0, 1))))
    assert c.gates == ()
    with pytest.raises(DepthZero):
        partition(c)


def test_partition_output_can_be_raw_input():
    b = CircuitBuilder(2)
    b.gate("AND", 0, 1)
    c = b.finish(0)
    ps = partition(c)
    assert 0 in ps.aggregate.passthrough_parents
    for bits in all_assignments(2):
        assert compose_evaluate(ps, bits, (0,), 0) == bits[0]


def test_partition_composition_matches_plain():
    rng = random.Random(215)
    for _ in range(40):
        c = random_partitionable_circuit(rng, max_parts=4)
        ps = partition(c)
        masks_n = len(ps.parts)
        for bits in all_assignments(c.n_inputs):
            want = evaluate_plain(c, bits)
            for _ in range(4):
                masks = tuple(rng.randint(0, 1) for _ in range(masks_n))
                agg_bit = rng.randint(0, 1)
                assert compose_evaluate(ps, bits, masks, agg_bit) == want ^ agg_bit


def test_compose_requires_one_mask_per_part():
    ps = partition(car_circuit())
    with pytest.raises(ArityMismatch):
        compose_evaluate(ps, (1, 1, 1), (0,), 0)
