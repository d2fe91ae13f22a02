"""1-of-2 oblivious transfer over a prime-order subgroup (Naor and Pinkas,
SODA '01, section 3.1).

Message flow (sender S holds m0, m1; receiver R holds choice bit b):

    S: secret s, publishes c = g^s
    R: secret k, sends y_b = g^k and y_(1-b) = c * (g^k)^-1
    S: checks that y0 and y1 are subgroup elements with y0 * y1 == c, draws
       one r and sends A = g^r and, for i = 0, 1,
       e_i = m_i XOR stream(K_i || i), where K0 = y0^r and
       K1 = c^r * K0^-1 = y1^r, with c^r = g^(s*r)
    R: recovers m_b = e_b XOR stream(A^k || b)

Why it is secure:
  - The product check means R cannot know the discrete logs of both y0
    and y1: their product is c, so the two logs would add up to log_g c.
  - R holds k = log_g y_b, so A^k = y_b^r = K_b.  The other key is
    K_(1-b) = c^r / A^k, and c^r = g^(s*r) is the Diffie-Hellman value
    CDH(c, A) of two elements R did not make.  With the keys fed to a
    random oracle (SHA-256 in the mask stream) m_(1-b) stays hidden under
    the CDH assumption.  The half index is hashed in, so the two halves
    are masked by different streams even where K0 == K1.
  - Receiver privacy is what it was: (y0, y1) is a uniform pair with
    product c whichever b is, so S learns nothing of b.
  - The one r serves both halves, so a transfer posts one sender element.

Messages of any equal or unequal length work, masked block by block with
a hash keystream.

The "toy23" group (p=23, q=11, g=4) keeps every value hand-checkable in
tests; "modp2048" is the 2048-bit safe-prime group of RFC 3526 (group 14)
with generator 4, whose order-q subgroup the membership checks enforce.

Both groups have a safe prime p = 2q + 1, which GroupParams insists on.
For such a p the order-q subgroup is exactly the set of quadratic
residues, so membership is decided by the Jacobi symbol (x/p) == 1, a
gcd-like loop, rather than by the full exponentiation x^q == 1 (Euler's
criterion gives the same answer at many times the cost).

Secrets s, k and r are drawn below min(q, 2**SECRET_BITS) with
SECRET_BITS = 256.  That is within the 220-320-bit exponent range that
RFC 3526 section 8 gives for this group and the short-exponent guidance of
RFC 7919 section 5.2.  It rests on the short-exponent discrete-log
assumption: in a safe-prime group the order q has no small factors, so
the best known attack on a 256-bit exponent is Pollard's lambda at about
2^128 steps (van Oorschot and Wiener, EUROCRYPT '96), and g^k for such a
k is taken to look like a uniform subgroup element.  On toy23 q is far
below the cap, so secrets there are uniform below q.

Most exponentiations in a transfer raise the fixed generator g (g^s, g^k,
g^r and g^(s*r)), so g^e goes through a fixed-base window table when
q >= 2**SECRET_BITS.  Row i of the table holds g^(j * 2^(4i)) for j < 16
(WINDOW_BITS = 4), over the 128 rows that cover the 512-bit product s*r,
so g^e costs one modular multiplication per nonzero 4-bit digit of e
instead of a pow.  On modp2048 a 256-bit g^e is about 0.8-1.2 ms against
2.8-4.7 ms for pow (2-vCPU Xeon VM, CPython 3.11), and a transfer makes
one variable-base pow (y0^r): y1^r costs a table lookup and an inverse.
The table is built on first use, once per process and group, in 2 048
multiplications (28-34 ms), and holds 2 048 elements (about 0.6 MB).
That is a trade-off.  The upper 64 rows, which only g^(s*r) reads, take
about 15 ms of the build and save about 2.2 ms per transfer (the sender
takes about 7.4 ms).  A one-shot modp2048 CLI simulate of the car
statement, with its 3 transfers, pays about 15 ms for them and saves
about 7 ms; a process that runs many sessions pays once.  A 5- or 6-bit
window saves a little more per g^e but takes 1.6-2.7 times the build
time and memory.  A group with q < 2**SECRET_BITS (toy23), a negative
exponent or one of 2**TABLE_BITS or more uses the builtin pow, so toy23
never builds the table.  The table gives exactly pow(g, e, p), so boards
do not depend on it.  Its running time depends on the exponent (on the
number of its nonzero digits), as CPython's pow, which is not
constant-time either, does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
TABLE_BITS = 2 * SECRET_BITS  # the product s*r of two secrets
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
        for _ in range(TABLE_BITS // WINDOW_BITS):
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
    if params.q < 1 << SECRET_BITS or not 0 <= e < 1 << TABLE_BITS:
        return pow(params.g, e, params.p)
    p = params.p
    digit = (1 << WINDOW_BITS) - 1
    acc = 1
    for row in params._g_table:
        if not e:
            break
        if e & digit:
            acc = acc * row[e & digit] % p
        e >>= WINDOW_BITS
    return acc


def in_subgroup(params: GroupParams, x: int) -> bool:
    return 1 <= x < params.p and _jacobi(x, params.p) == 1


def element_to_bytes(params: GroupParams, x: int) -> bytes:
    return x.to_bytes(params.element_bytes, "big")


class OTSenderState(NamedTuple):
    params: GroupParams
    secret: int
    c: int


class OTChoose(NamedTuple):
    y0: int
    y1: int


class OTReceiverState(NamedTuple):
    params: GroupParams
    k: int
    choice: int
    c: int


class OTTransfer(NamedTuple):
    a: int  # g^r
    c0: bytes  # m0 masked with y0^r
    c1: bytes  # m1 masked with y1^r


def _mask(params: GroupParams, key: int, half: int, m: bytes) -> bytes:
    """m XOR the stream of key || half: the same call masks and unmasks."""
    pad = mask_stream(element_to_bytes(params, key) + bytes([half]), len(m))
    return xor_bytes(m, pad)


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
    params, p = state.params, state.params.p
    r = rng.randbelow(params.secret_bound)
    a = _g_pow(params, r)
    k0 = pow(y0, r, p)
    k1 = _g_pow(params, state.secret * r) * pow(k0, -1, p) % p  # c^r / y0^r = y1^r
    return OTTransfer(a, _mask(params, k0, 0, m0), _mask(params, k1, 1, m1))


def ot_receiver_recover(state: OTReceiverState, transfer: OTTransfer) -> bytes:
    key = pow(transfer.a, state.k, state.params.p)
    return _mask(state.params, key, state.choice, (transfer.c0, transfer.c1)[state.choice])
