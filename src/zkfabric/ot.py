"""1-of-2 oblivious transfer over a prime-order subgroup.

Message flow (sender S holds m0, m1; receiver R holds choice bit b):

    S: secret s, publishes c = g^s
    R: secret k, sends y_b = g^k and y_(1-b) = c * (g^k)^-1
    S: checks y0 * y1 == c, then for each i sends
       (A_i, B_i) = (g^r_i, m_i XOR stream(y_i^r_i))  with fresh r_i
    R: recovers m_b = B_b XOR stream(A_b^k)

The product check forces R to know the discrete log of at most one of
y0, y1, so only one message is recoverable; S sees (y0, y1) whose joint
distribution is the same for either b.  Messages of any equal or unequal
length work, masked block by block with a hash keystream.

The "toy23" group (p=23, q=11, g=4) keeps every value hand-checkable in
tests; "modp2048" is the 2048-bit safe-prime group of RFC 3526 (group 14)
with generator 4, whose order-q subgroup the membership checks enforce.

Both groups have a safe prime p = 2q + 1, which GroupParams insists on.
For such a p the order-q subgroup is exactly the set of quadratic
residues, so membership is decided by the Jacobi symbol (x/p) == 1, a
gcd-like loop, rather than by the full exponentiation x^q == 1 (Euler's
criterion gives the same answer at many times the cost).

Secrets s, k and r_i are drawn below min(q, 2**SECRET_BITS) with
SECRET_BITS = 256.  That is within the 220-320-bit exponent range that
RFC 3526 section 8 gives for this group and the short-exponent guidance of
RFC 7919 section 5.2.  It rests on the short-exponent discrete-log
assumption: in a safe-prime group the order q has no small factors, so
the best known attack on a 256-bit exponent is Pollard's lambda at about
2^128 steps (van Oorschot and Wiener, EUROCRYPT '96), and g^k for such a
k is taken to look like a uniform subgroup element.  On toy23 q is far
below the cap, so secrets there are uniform below q.

Half of the exponentiations in a transfer raise the fixed generator g
(g^s, g^k and both g^r_i), so g^e goes through a fixed-base window table
when q >= 2**SECRET_BITS.  Row i of the table holds g^(j * 2^(4i)) for
j < 16 (WINDOW_BITS = 4), over the 64 rows that cover a 256-bit
exponent, so g^e costs at most 64 modular multiplications, one per
nonzero 4-bit digit of e, instead of a pow.  On modp2048 that is about
0.8-1.2 ms against 2.8-3.8 ms for pow (2-vCPU Xeon VM, CPython 3.11).
The table is built on first use, once per process and group, in 1 024
multiplications (12-18 ms), and holds 1 024 elements (about 0.3 MB).
A 5- or 6-bit window saves 0.2-0.3 ms more per g^e, a few ms of a
session and within its run-to-run spread, but takes 30-51 ms to build
and 1.6-2.7 times the memory.  A group with q < 2**SECRET_BITS (toy23),
a negative exponent or one of 2**SECRET_BITS or more uses the builtin
pow, so toy23 never builds the table.  The table gives exactly
pow(g, e, p), so boards do not change.  Its running time depends on the
exponent (on the number of its nonzero digits), as CPython's pow, which
is not constant-time either, does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConsistencyCheckFailed, InvalidGroupElement
from .hashing import HashDrbg, mask_stream, xor_bytes

_MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

SECRET_BITS = 256
WINDOW_BITS = 4


@dataclass(frozen=True)
class GroupParams:
    name: str
    p: int
    q: int
    g: int

    def __post_init__(self) -> None:
        if self.p != 2 * self.q + 1:
            raise InvalidGroupElement(
                f"group {self.name!r}: p is not the safe prime 2q + 1")

    @property
    def element_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @property
    def secret_bound(self) -> int:
        return min(self.q, 1 << SECRET_BITS)

    @cached_property
    def _g_table(self) -> tuple[tuple[int, ...], ...]:
        """Row i holds g^(j * 2^(WINDOW_BITS * i)) mod p for j < 2^WINDOW_BITS."""
        rows = []
        base = self.g
        for _ in range(SECRET_BITS // WINDOW_BITS):
            row = [1]
            for _ in range((1 << WINDOW_BITS) - 1):
                row.append(row[-1] * base % self.p)
            rows.append(tuple(row))
            base = row[-1] * base % self.p
        return tuple(rows)


TOY_GROUP = GroupParams("toy23", p=23, q=11, g=4)
MODP2048 = GroupParams("modp2048", p=_MODP_2048_P, q=(_MODP_2048_P - 1) // 2, g=4)

GROUPS = {g.name: g for g in (TOY_GROUP, MODP2048)}


def group_by_name(name: str) -> GroupParams:
    try:
        return GROUPS[name]
    except KeyError:
        raise InvalidGroupElement(f"unknown group {name!r}") from None


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by the binary reciprocity loop."""
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            result = -result
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _g_pow(params: GroupParams, e: int) -> int:
    """pow(g, e, p), from the fixed-base table when it applies."""
    if params.q < 1 << SECRET_BITS or not 0 <= e < 1 << SECRET_BITS:
        return pow(params.g, e, params.p)
    p = params.p
    digit = (1 << WINDOW_BITS) - 1
    acc = 1
    for row in params._g_table:
        if e & digit:
            acc = acc * row[e & digit] % p
        e >>= WINDOW_BITS
    return acc


def in_subgroup(params: GroupParams, x: int) -> bool:
    return 1 <= x < params.p and _jacobi(x, params.p) == 1


def element_to_bytes(params: GroupParams, x: int) -> bytes:
    return x.to_bytes(params.element_bytes, "big")


@dataclass(frozen=True)
class OTSenderState:
    params: GroupParams
    secret: int
    c: int


@dataclass(frozen=True)
class OTChoose:
    y0: int
    y1: int


@dataclass(frozen=True)
class OTReceiverState:
    params: GroupParams
    k: int
    choice: int
    c: int


@dataclass(frozen=True)
class OTTransfer:
    c0: tuple[int, bytes]
    c1: tuple[int, bytes]


def _sender_from_secret(params: GroupParams, secret: int) -> tuple[int, OTSenderState]:
    c = _g_pow(params, secret)
    return c, OTSenderState(params, secret, c)


def ot_sender_init(params: GroupParams, rng: HashDrbg) -> tuple[int, OTSenderState]:
    return _sender_from_secret(params, rng.randbelow(params.secret_bound))


def _receiver_from_secret(
    params: GroupParams, c: int, choice: int, k: int
) -> tuple[OTChoose, OTReceiverState]:
    if not in_subgroup(params, c):
        raise InvalidGroupElement(f"c={c} is not a subgroup element")
    mine = _g_pow(params, k)
    other = c * pow(mine, -1, params.p) % params.p
    y0, y1 = (mine, other) if choice == 0 else (other, mine)
    return OTChoose(y0, y1), OTReceiverState(params, k, choice & 1, c)


def ot_receiver_choose(
    params: GroupParams, c: int, choice: int, rng: HashDrbg
) -> tuple[OTChoose, OTReceiverState]:
    k = rng.randbelow(params.secret_bound)
    return _receiver_from_secret(params, c, choice, k)


def check_choose(params: GroupParams, c: int | None, y0: int, y1: int) -> None:
    """Refuse receiver keys unless both are in the subgroup with product c."""
    if not in_subgroup(params, y0) or not in_subgroup(params, y1):
        raise InvalidGroupElement("receiver key outside the subgroup")
    if y0 * y1 % params.p != c:
        raise ConsistencyCheckFailed("y0 * y1 != c")


def ot_sender_transfer(
    state: OTSenderState,
    y0: int,
    y1: int,
    m0: bytes,
    m1: bytes,
    rng: HashDrbg,
) -> OTTransfer:
    check_choose(state.params, state.c, y0, y1)
    halves = []
    for y, m in ((y0, m0), (y1, m1)):
        r = rng.randbelow(state.params.secret_bound)
        a = _g_pow(state.params, r)
        shared = element_to_bytes(state.params, pow(y, r, state.params.p))
        halves.append((a, xor_bytes(m, mask_stream(shared, len(m)))))
    return OTTransfer(halves[0], halves[1])


def ot_receiver_recover(state: OTReceiverState, transfer: OTTransfer) -> bytes:
    a, masked = (transfer.c0, transfer.c1)[state.choice]
    shared = element_to_bytes(state.params, pow(a, state.k, state.params.p))
    return xor_bytes(masked, mask_stream(shared, len(masked)))
