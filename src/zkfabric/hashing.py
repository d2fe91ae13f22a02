"""SHA-256 backed primitives used everywhere else in the package.

A single hash carries the whole load: clause digests, bit commitments,
deterministic randomness (counter-mode stream), the two-key cipher that
fills garbled tables, and the masks that blind transferred messages.

Every XOR of two byte strings (a garbled row, a blinded OT message) reads
both as big-endian ints, XORs the ints and writes the result back at the
same length, so no Python loop runs over the bytes.
"""

from __future__ import annotations

import hashlib

LABEL_BYTES = 16          # wire labels are 128 bits, colour bit last
PAD_BYTES = 8             # zero padding appended before table encryption
CIPHER_BYTES = LABEL_BYTES + PAD_BYTES
_ZERO_TAIL = bytes(PAD_BYTES)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def truncate_bits(digest: bytes, bits: int) -> bytes:
    if bits % 8 != 0 or bits <= 0 or bits > 8 * len(digest):
        raise ValueError(f"cannot truncate to {bits} bits")
    return digest[: bits // 8]


def digest_hex(data: bytes, bits: int = 256) -> str:
    return truncate_bits(sha256(data), bits).hex()


def commit_bit(bit: int, salt: bytes, bits: int = 256) -> str:
    """Binding commitment to a single bit: Hash(bit || salt), hex."""
    return digest_hex(bytes([bit & 1]) + salt, bits)


class HashDrbg:
    """Deterministic byte stream: block_i = Hash(state || counter).

    Seeds and contexts are encoded canonically so the stream never
    depends on interpreter state.
    """

    def __init__(self, seed: int | bytes | str, context: str = ""):
        if isinstance(seed, int):
            material = str(seed).encode()
        elif isinstance(seed, str):
            material = seed.encode()
        else:
            material = seed
        self._state = sha256(material + b"/" + context.encode())
        self._counter = 0
        self._buffer = b""

    def random_bytes(self, n: int) -> bytes:
        while len(self._buffer) < n:
            block = sha256(self._state + self._counter.to_bytes(8, "big"))
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def randbit(self) -> int:
        return self.random_bytes(1)[0] & 1

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbytes = (bound.bit_length() + 7) // 8
        shift = 8 * nbytes - bound.bit_length()
        while True:
            x = int.from_bytes(self.random_bytes(nbytes), "big") >> shift
            if x < bound:
                return x


def _pad_source(key_a: bytes, key_b: bytes, gate_id: int, row: int) -> bytes:
    material = key_a + key_b + gate_id.to_bytes(4, "big") + bytes([row])
    return sha256(material)[:CIPHER_BYTES]


def dual_enc(key_a: bytes, key_b: bytes, gate_id: int, row: int, label: bytes) -> bytes:
    """Encrypt a label under two keys; an all-zero tail authenticates it."""
    return xor_bytes(_pad_source(key_a, key_b, gate_id, row), label + _ZERO_TAIL)


def dual_dec(key_a: bytes, key_b: bytes, gate_id: int, row: int, cipher: bytes) -> bytes | None:
    """Inverse of dual_enc; returns None when the zero tail does not check out."""
    if len(cipher) != CIPHER_BYTES:
        return None
    plain = xor_bytes(_pad_source(key_a, key_b, gate_id, row), cipher)
    if plain[LABEL_BYTES:] != _ZERO_TAIL:
        return None
    return plain[:LABEL_BYTES]


def mask_stream(secret: bytes, n: int) -> bytes:
    """Counter-mode keystream of n bytes derived from a shared secret."""
    out = b""
    counter = 0
    while len(out) < n:
        out += sha256(secret + counter.to_bytes(8, "big"))
        counter += 1
    return out[:n]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """a XOR b, through big-endian ints, for byte strings of equal length."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")
