"""Garbling of layered circuits with colour-indexed four-row tables.

Every wire gets two fresh 128-bit labels whose last bit (the colour)
differs; the colour pair is random, so a label reveals nothing about the
bit it stands for.  Each gate stores four ciphertexts ordered by the
colours of the operand labels, each encrypting the matching output label
under both operand labels with an all-zero tail for authentication.
The evaluator holds exactly one label per wire and decrypts exactly one
row per gate.

Decode information maps label hashes (never labels) to output bits.

Garbled evaluations chain by sharing labels: garble_full takes the label
pairs of a circuit's first input wires from the caller, so one circuit's
output pair is the next one's input pair.  This reveals nothing that a
public re-keying table (output label -> fresh input label) would hide:
whoever holds the output label could open such a table, so the fresh
label would be a public function of it; and the label not taken is,
as before, only ever a key that seals rows.  Pads never repeat, since each
is keyed by the operand labels of one gate of one circuit.

A check that a label belongs to its pair is open_gate on a gate the pair
feeds: a label outside the pair authenticates only if a 64-bit zero tail
survives decryption, with probability 2**-64 per try, the bound every
garbled evaluation relies on (DecryptFailure).
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import LayeredCircuit
from .errors import ArityMismatch, DecryptFailure, UnknownLabel
from .hashing import LABEL_BYTES, HashDrbg, digest_hex, dual_dec, dual_enc

_OPS = {
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
}


def label_color(label: bytes) -> int:
    return label[-1] & 1


def _with_color(raw: bytes, bit: int) -> bytes:
    return raw[:-1] + bytes([(raw[-1] & 0xFE) | (bit & 1)])


def sample_label_pair(drbg: HashDrbg) -> tuple[bytes, bytes]:
    """One colour byte, then the two labels: 33 bytes of drbg's stream."""
    raw = drbg.random_bytes(1 + 2 * LABEL_BYTES)
    color = raw[0] & 1
    l0 = _with_color(raw[1:1 + LABEL_BYTES], color)
    l1 = _with_color(raw[1 + LABEL_BYTES:], 1 - color)
    return l0, l1


@dataclass(frozen=True)
class GarbledGate:
    rows: tuple[bytes, bytes, bytes, bytes]


@dataclass(frozen=True)
class GarbledCircuit:
    circuit: LayeredCircuit
    tables: tuple[GarbledGate, ...]
    const_labels: tuple[bytes, bytes]
    digest_bits: int


@dataclass(frozen=True)
class EncodeInfo:
    """Label pair per input wire, indexed by wire number."""

    pairs: tuple[tuple[bytes, bytes], ...]

    def label_for(self, wire: int, bit: int) -> bytes:
        return self.pairs[wire][bit & 1]


@dataclass(frozen=True)
class DecodeInfo:
    """Output map keyed by label hash; a forged label matches nothing."""

    entries: tuple[tuple[str, int], ...]
    digest_bits: int

    @classmethod
    def from_pair(cls, pair: tuple[bytes, bytes], digest_bits: int) -> "DecodeInfo":
        entries = sorted(
            ((digest_hex(pair[b], digest_bits), b) for b in (0, 1)),
        )
        return cls(tuple(entries), digest_bits)

    def to_lists(self) -> list[list]:
        return [[h, b] for h, b in self.entries]


@dataclass(frozen=True)
class GarblingResult:
    """Everything the garbler knows; only parts of it ever go public."""

    garbled: GarbledCircuit
    encode: EncodeInfo
    decode: DecodeInfo
    wire_labels: tuple[tuple[bytes, bytes], ...]


def garble_full(c: LayeredCircuit, drbg: HashDrbg, digest_bits: int = 256,
                inputs: tuple[tuple[bytes, bytes], ...] = ()) -> GarblingResult:
    """Garble c; wire w < len(inputs) gets the pair inputs[w], and only the
    other wires get fresh pairs from drbg."""
    labels = tuple(inputs) + tuple(
        sample_label_pair(drbg) for _ in range(c.n_wires - len(inputs)))
    tables = []
    for idx, g in enumerate(c.gates):
        op = _OPS[g.op]
        left, right, out = labels[g.left], labels[g.right], labels[g.out]
        left_rows = [label_color(la) << 1 for la in left]
        right_rows = [label_color(lb) for lb in right]
        rows: list[bytes | None] = [None] * 4
        for a in (0, 1):
            for b in (0, 1):
                row = left_rows[a] | right_rows[b]
                rows[row] = dual_enc(left[a], right[b], idx, row, out[op(a, b)])
        tables.append(GarbledGate(tuple(rows)))
    garbled = GarbledCircuit(
        c, tuple(tables),
        (labels[c.const0][0], labels[c.const1][1]),
        digest_bits,
    )
    encode = EncodeInfo(labels[: c.n_inputs])
    decode = DecodeInfo.from_pair(labels[c.output], digest_bits)
    return GarblingResult(garbled, encode, decode, labels)


def garble_circuit(
    c: LayeredCircuit, seed: int | bytes | str, digest_bits: int = 256
) -> tuple[GarbledCircuit, EncodeInfo, DecodeInfo]:
    """Deterministic garbling: the same circuit and seed give identical bytes."""
    res = garble_full(c, HashDrbg(seed, context="garble"), digest_bits)
    return res.garbled, res.encode, res.decode


def encode_input(encode: EncodeInfo, bits) -> tuple[bytes, ...]:
    values = tuple(int(v) & 1 for v in bits)
    if len(values) != len(encode.pairs):
        raise ArityMismatch(
            f"{len(values)} bits for {len(encode.pairs)} encoder wires")
    return tuple(encode.label_for(w, v) for w, v in enumerate(values))


def open_gate(gate: GarbledGate, idx: int, la: bytes, lb: bytes) -> bytes | None:
    """The label that operand labels la (left) and lb (right) open in gate
    number idx, or None when the row their colours select does not
    authenticate."""
    row = (label_color(la) << 1) | label_color(lb)
    return dual_dec(la, lb, idx, row, gate.rows[row])


def evaluate_garbled(gc: GarbledCircuit, inputs: dict[int, bytes],
                     with_trace: bool = False):
    """Evaluate on one label per input wire; returns the output label.

    Raises DecryptFailure when a selected row does not authenticate,
    which is what any tampered table or wrong label comes down to.
    """
    c = gc.circuit
    # a posted circuit states its own n_inputs: check without building
    # anything of that size
    if len(inputs) != c.n_inputs or not all(0 <= w < c.n_inputs for w in inputs):
        raise ArityMismatch("need exactly one label per input wire")
    have: dict[int, bytes] = dict(inputs)
    have[c.const0] = gc.const_labels[0]
    have[c.const1] = gc.const_labels[1]
    for idx, g in enumerate(c.gates):
        out = open_gate(gc.tables[idx], idx, have[g.left], have[g.right])
        if out is None:
            raise DecryptFailure(f"gate {idx} failed to authenticate")
        have[g.out] = out
    if with_trace:
        return have[c.output], have
    return have[c.output]


def decode_output(decode: DecodeInfo, label: bytes) -> int:
    h = digest_hex(label, decode.digest_bits)
    for entry_hex, bit in decode.entries:
        if entry_hex == h:
            return bit
    raise UnknownLabel("label does not match the output map")
