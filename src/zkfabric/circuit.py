"""Layered boolean circuits over 2-input AND/OR/XOR gates.

Wire numbering is inputs-first: wires 0..n-1 are inputs, wire n is the
constant 0, wire n+1 the constant 1, and gate k drives wire n+2+k.  Gates
are stored sorted by layer (longest path from the inputs), so iterating
them in order is a topological evaluation.  NOT appears only as XOR with
the constant-1 wire.

partition() splits a circuit for joint evaluation: every layer-1 gate
becomes its own sub-circuit whose result is blinded by a fresh mask
input, and the remaining layers form an aggregate circuit that unmasks
those results, finishes the computation, and XORs in one extra input
reserved for the final evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArityMismatch, DepthZero
from .syntax import And, BooleanExpr, Const, MinimizedExpr, Not, Or, Var, Xor

GATE_OPS = ("AND", "OR", "XOR")


@dataclass(frozen=True)
class Gate:
    op: str
    left: int
    right: int
    out: int
    layer: int


@dataclass(frozen=True)
class LayeredCircuit:
    n_inputs: int
    gates: tuple[Gate, ...]
    output: int

    @property
    def const0(self) -> int:
        return self.n_inputs

    @property
    def const1(self) -> int:
        return self.n_inputs + 1

    @property
    def n_wires(self) -> int:
        return self.n_inputs + 2 + len(self.gates)

    @property
    def depth(self) -> int:
        return max((g.layer for g in self.gates), default=0)

    def layer_gates(self, layer: int) -> list[Gate]:
        return [g for g in self.gates if g.layer == layer]

    def to_dict(self) -> dict:
        return {
            "n_inputs": self.n_inputs,
            "output": self.output,
            "gates": [[g.op, g.left, g.right, g.layer] for g in self.gates],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LayeredCircuit":
        n = int(data["n_inputs"])
        gates = []
        for k, (op, left, right, layer) in enumerate(data["gates"]):
            if op not in GATE_OPS:
                raise ValueError(f"bad gate op {op!r}")
            gates.append(Gate(op, int(left), int(right), n + 2 + k, int(layer)))
        c = cls(n, tuple(gates), int(data["output"]))
        validate_layers(c)
        return c


def validate_layers(c: LayeredCircuit) -> None:
    # inputs and constants (the wires below n_inputs + 2) are layer 0 and
    # are not stored, so a posted n_inputs costs nothing to check
    base = c.n_inputs + 2
    depth: dict[int, int] = {}
    for g in c.gates:
        try:
            want = max(0 if 0 <= w < base else depth[w] for w in (g.left, g.right)) + 1
        except KeyError:
            raise ValueError(f"gate at w{g.out} reads an undriven wire") from None
        if g.layer != want:
            raise ValueError(f"gate at w{g.out} claims layer {g.layer}, is {want}")
        depth[g.out] = want
    if not (0 <= c.output < base or c.output in depth):
        raise ValueError("output wire is undriven")


class CircuitBuilder:
    """Accumulates gates, then renumbers them into layer order."""

    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs
        self._gates: list[tuple[str, int, int]] = []
        self._layers: list[int] = []

    def _wire_layer(self, wire: int) -> int:
        if wire < self.n_inputs + 2:
            return 0
        return self._layers[wire - self.n_inputs - 2]

    def const(self, bit: int) -> int:
        return self.n_inputs + (bit & 1)

    def gate(self, op: str, left: int, right: int) -> int:
        assert op in GATE_OPS
        self._gates.append((op, left, right))
        self._layers.append(max(self._wire_layer(left), self._wire_layer(right)) + 1)
        return self.n_inputs + 2 + len(self._gates) - 1

    def finish(self, output: int) -> LayeredCircuit:
        order = sorted(range(len(self._gates)),
                       key=lambda k: (self._layers[k], k))
        base = self.n_inputs + 2
        remap = {w: w for w in range(base)}
        for new_pos, old_k in enumerate(order):
            remap[base + old_k] = base + new_pos
        gates = tuple(
            Gate(self._gates[k][0], remap[self._gates[k][1]],
                 remap[self._gates[k][2]], base + pos, self._layers[k])
            for pos, k in enumerate(order)
        )
        return LayeredCircuit(self.n_inputs, gates, remap[output])


def _expr_n_vars(expr: BooleanExpr) -> int:
    if isinstance(expr, Var):
        return expr.index + 1
    if isinstance(expr, Const):
        return 0
    if isinstance(expr, Not):
        return _expr_n_vars(expr.operand)
    return max(_expr_n_vars(expr.left), _expr_n_vars(expr.right))


def compile_expression(expr: BooleanExpr | MinimizedExpr) -> LayeredCircuit:
    """Lower an expression (or minimized SOP) to a layered circuit."""
    if isinstance(expr, MinimizedExpr):
        n = expr.n_vars
        tree = expr.to_expr()
    else:
        n = _expr_n_vars(expr)
        tree = expr
    b = CircuitBuilder(n)

    def build(node: BooleanExpr) -> int:
        if isinstance(node, Var):
            return node.index
        if isinstance(node, Const):
            return b.const(node.value)
        if isinstance(node, Not):
            return b.gate("XOR", build(node.operand), b.const(1))
        op = {And: "AND", Or: "OR", Xor: "XOR"}[type(node)]
        return b.gate(op, build(node.left), build(node.right))

    return b.finish(build(tree))


def evaluate_wires(c: LayeredCircuit, bits) -> dict[int, int]:
    """Evaluate the circuit and return the bit on every wire."""
    inputs = tuple(int(v) & 1 for v in bits)
    if len(inputs) != c.n_inputs:
        raise ArityMismatch(f"{len(inputs)} inputs for a {c.n_inputs}-input circuit")
    values = dict(enumerate(inputs))
    values[c.const0] = 0
    values[c.const1] = 1
    for g in c.gates:
        a, bv = values[g.left], values[g.right]
        values[g.out] = {"AND": a & bv, "OR": a | bv, "XOR": a ^ bv}[g.op]
    return values


def evaluate_plain(c: LayeredCircuit, bits) -> int:
    return evaluate_wires(c, bits)[c.output]


def pad_inputs(c: LayeredCircuit) -> LayeredCircuit:
    """Make the input count even by appending two auxiliary inputs.

    The pair is XORed together and folded into the output twice, so the
    padded circuit computes the original function for every setting of
    the auxiliary bits.  Even-sized circuits pass through unchanged.
    """
    if c.n_inputs % 2 == 0:
        return c
    n = c.n_inputs
    b = CircuitBuilder(n + 2)
    remap = {w: w for w in range(n)}
    remap[c.const0] = b.const(0)
    remap[c.const1] = b.const(1)
    aux0, aux1 = n, n + 1
    aux = b.gate("XOR", aux0, aux1)
    for g in c.gates:
        remap[g.out] = b.gate(g.op, remap[g.left], remap[g.right])
    once = b.gate("XOR", remap[c.output], aux)
    twice = b.gate("XOR", once, aux)
    return b.finish(twice)


@dataclass(frozen=True)
class Partition:
    """One layer-1 gate re-homed into its own maskable sub-circuit.

    Local inputs are the gate's distinct non-constant parent wires (in
    parent order) followed by the mask wire.
    """

    circuit: LayeredCircuit
    parent_inputs: tuple[int, ...]
    mask_input: int
    source_gate: int


@dataclass(frozen=True)
class AggregateSpec:
    """The residual circuit: unmask incoming part outputs, finish, blind.

    Local input order: one wire per part output, then pass-through parent
    inputs, then one mask wire per part, then the final-evaluator wire.
    """

    circuit: LayeredCircuit
    part_inputs: tuple[int, ...]
    passthrough_parents: tuple[int, ...]
    passthrough_inputs: tuple[int, ...]
    mask_inputs: tuple[int, ...]
    agg_input: int


@dataclass(frozen=True)
class PartitionSet:
    base: LayeredCircuit
    parts: tuple[Partition, ...]
    aggregate: AggregateSpec


def partition(c: LayeredCircuit) -> PartitionSet:
    if not c.gates:
        raise DepthZero("cannot partition a circuit with no gates")
    first = [g for g in c.gates if g.layer == 1]
    rest = [g for g in c.gates if g.layer > 1]

    parts = []
    for g in first:
        parents = []
        for w in (g.left, g.right):
            if w < c.n_inputs and w not in parents:
                parents.append(w)
        pb = CircuitBuilder(len(parents) + 1)
        local = {w: i for i, w in enumerate(parents)}
        local[c.const0] = pb.const(0)
        local[c.const1] = pb.const(1)
        mask = len(parents)
        inner = pb.gate(g.op, local[g.left], local[g.right])
        masked = pb.gate("XOR", inner, mask)
        parts.append(Partition(pb.finish(masked), tuple(parents), mask,
                               g.out - c.n_inputs - 2))

    m1 = len(first)
    needed = {w for g in rest for w in (g.left, g.right)}
    needed.add(c.output)
    passthrough = sorted(w for w in needed if w < c.n_inputs)
    n_local = m1 + len(passthrough) + m1 + 1
    ab = CircuitBuilder(n_local)
    part_inputs = tuple(range(m1))
    pass_inputs = tuple(range(m1, m1 + len(passthrough)))
    mask_inputs = tuple(range(m1 + len(passthrough), 2 * m1 + len(passthrough)))
    agg_input = n_local - 1

    wire_map = {w: i for w, i in zip(passthrough, pass_inputs)}
    wire_map[c.const0] = ab.const(0)
    wire_map[c.const1] = ab.const(1)
    for i, g in enumerate(first):
        wire_map[g.out] = ab.gate("XOR", part_inputs[i], mask_inputs[i])
    for g in rest:
        wire_map[g.out] = ab.gate(g.op, wire_map[g.left], wire_map[g.right])
    final = ab.gate("XOR", wire_map[c.output], agg_input)
    aggregate = AggregateSpec(ab.finish(final), part_inputs, tuple(passthrough),
                              pass_inputs, mask_inputs, agg_input)
    return PartitionSet(c, tuple(parts), aggregate)


def compose_evaluate(ps: PartitionSet, bits, masks, agg_bit: int) -> int:
    """Reference composition: run every part, then the aggregate.

    Equals evaluate_plain(base, bits) XOR agg_bit for every mask setting.
    """
    bits = tuple(int(v) & 1 for v in bits)
    masks = tuple(int(v) & 1 for v in masks)
    if len(masks) != len(ps.parts):
        raise ArityMismatch("one mask per part required")
    part_out = [
        evaluate_plain(p.circuit, tuple(bits[w] for w in p.parent_inputs) + (r,))
        for p, r in zip(ps.parts, masks)
    ]
    agg = ps.aggregate
    agg_in = (tuple(part_out)
              + tuple(bits[w] for w in agg.passthrough_parents)
              + masks + (int(agg_bit) & 1,))
    return evaluate_plain(agg.circuit, agg_in)


def netlist(c: LayeredCircuit) -> list[str]:
    return [f"g{k} = {g.op}(w{g.left}, w{g.right}) @layer {g.layer}"
            for k, g in enumerate(c.gates)]
