import builtins

import pytest
from hypothesis import given, settings, strategies as st

import zkfabric.ot
from zkfabric.errors import ConsistencyCheckFailed, InvalidGroupElement
from zkfabric.hashing import HashDrbg
from zkfabric.ot import (
    GROUPS,
    MODP2048,
    TOY_GROUP,
    SECRET_BITS,
    TABLE_BITS,
    GroupParams,
    OTTransfer,
    _g_pow,
    _receiver_from_secret,
    _sender_from_secret,
    element_to_bytes,
    group_by_name,
    in_subgroup,
    ot_receiver_choose,
    ot_receiver_recover,
    ot_sender_init,
    ot_sender_transfer,
)

# quadratic residues mod 23: the order-11 subgroup generated by 4
TOY_SUBGROUP = {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}

CHI_SQUARE_DF10_P01 = 23.209


def run_ot(params, m0, m1, choice, seed):
    rng = HashDrbg(seed, context="ot-test")
    c, sender = ot_sender_init(params, rng)
    choose, receiver = ot_receiver_choose(params, c, choice, rng)
    transfer = ot_sender_transfer(sender, choose.y0, choose.y1, m0, m1, rng)
    return ot_receiver_recover(receiver, transfer)


def test_toy_sender_golden():
    c, state = _sender_from_secret(TOY_GROUP, 3)
    assert c == 18
    assert state.c == 18
    assert in_subgroup(TOY_GROUP, c)


def test_toy_receiver_golden():
    """b=0 with k=2: y0 = 4^2 = 16 and y1 = 18 * 16^-1 mod 23 = 4."""
    choose, state = _receiver_from_secret(TOY_GROUP, 18, 0, 2)
    assert (choose.y0, choose.y1) == (16, 4)
    assert choose.y0 * choose.y1 % 23 == 18
    assert state.choice == 0


def test_toy_receiver_choice_one_swaps():
    choose, _ = _receiver_from_secret(TOY_GROUP, 18, 1, 2)
    assert (choose.y0, choose.y1) == (4, 16)


def test_toy_subgroup_membership():
    members = {x for x in range(23) if in_subgroup(TOY_GROUP, x)}
    assert members == TOY_SUBGROUP
    assert not in_subgroup(TOY_GROUP, 0)
    assert not in_subgroup(TOY_GROUP, 23)
    assert not in_subgroup(TOY_GROUP, 5)


def test_round_trip_both_choices():
    m0 = b"left message, twenty-four"[:24]
    m1 = b"right message, other one"[:24]
    for choice in (0, 1):
        got = run_ot(TOY_GROUP, m0, m1, choice, seed=choice + 10)
        assert got == (m0, m1)[choice]


def test_round_trip_random_messages():
    drbg = HashDrbg(2718, context="messages")
    for trial in range(100):
        m0 = drbg.random_bytes(32)
        m1 = drbg.random_bytes(32)
        choice = drbg.randbit()
        got = run_ot(TOY_GROUP, m0, m1, choice, seed=trial)
        assert got == (m0, m1)[choice]


def test_equal_messages_hide_nothing_anyway():
    m = b"same payload either way!"
    assert run_ot(TOY_GROUP, m, m, 0, seed=3) == m
    assert run_ot(TOY_GROUP, m, m, 1, seed=3) == m


def test_sender_init_deterministic():
    c1, _ = ot_sender_init(TOY_GROUP, HashDrbg(9, context="a"))
    c2, _ = ot_sender_init(TOY_GROUP, HashDrbg(9, context="a"))
    assert c1 == c2
    assert in_subgroup(TOY_GROUP, c1)


def test_receiver_rejects_bad_c():
    with pytest.raises(InvalidGroupElement):
        ot_receiver_choose(TOY_GROUP, 5, 0, HashDrbg(1, context="r"))
    with pytest.raises(InvalidGroupElement):
        ot_receiver_choose(TOY_GROUP, 0, 0, HashDrbg(1, context="r"))


def test_transfer_rejects_inconsistent_pair():
    rng = HashDrbg(77, context="probe")
    c, sender = ot_sender_init(TOY_GROUP, rng)
    choose, _ = ot_receiver_choose(TOY_GROUP, c, 0, rng)
    y1 = choose.y1 * TOY_GROUP.g % TOY_GROUP.p
    assert in_subgroup(TOY_GROUP, y1)
    with pytest.raises(ConsistencyCheckFailed):
        ot_sender_transfer(sender, choose.y0, y1, b"a" * 8, b"b" * 8, rng)


def test_transfer_rejects_non_subgroup_keys():
    rng = HashDrbg(78, context="probe2")
    c, sender = ot_sender_init(TOY_GROUP, rng)
    with pytest.raises(InvalidGroupElement):
        ot_sender_transfer(sender, 5, c, b"a" * 8, b"b" * 8, rng)


def test_consistency_probes_all_rejected():
    rng = HashDrbg(79, context="probe3")
    c, sender = ot_sender_init(TOY_GROUP, rng)
    rejected = 0
    trials = 0
    while trials < 200:
        y0 = pow(TOY_GROUP.g, rng.randbelow(TOY_GROUP.q), TOY_GROUP.p)
        y1 = pow(TOY_GROUP.g, rng.randbelow(TOY_GROUP.q), TOY_GROUP.p)
        if y0 * y1 % TOY_GROUP.p == c:
            continue
        trials += 1
        with pytest.raises(ConsistencyCheckFailed):
            ot_sender_transfer(sender, y0, y1, b"x" * 4, b"y" * 4, rng)
        rejected += 1
    assert rejected == 200


def test_tampered_transfer_yields_garbage_not_crash():
    rng = HashDrbg(80, context="gigo")
    m0, m1 = b"m" * 16, b"n" * 16
    c, sender = ot_sender_init(TOY_GROUP, rng)
    choose, receiver = ot_receiver_choose(TOY_GROUP, c, 0, rng)
    transfer = ot_sender_transfer(sender, choose.y0, choose.y1, m0, m1, rng)
    bad = transfer._replace(c0=bytes([transfer.c0[0] ^ 0xFF]) + transfer.c0[1:])
    got = ot_receiver_recover(receiver, bad)
    assert got != m0 and got != m1


def test_unchosen_message_is_not_recoverable_with_wrong_state():
    """Decrypting the other ciphertext with the receiver key gives noise.

    Needs y0 != y1: in the 11-element toy group the receiver secret can
    collide with half the sender secret, which makes both keys equal and
    both messages readable.  That corner has probability 1/q, so it is
    invisible in the production group but must be sidestepped here.
    """
    rng = HashDrbg(80, context="other")
    m0, m1 = b"A" * 24, b"B" * 24
    c, sender = ot_sender_init(TOY_GROUP, rng)
    choose, receiver = ot_receiver_choose(TOY_GROUP, c, 0, rng)
    assert choose.y0 != choose.y1
    transfer = ot_sender_transfer(sender, choose.y0, choose.y1, m0, m1, rng)
    swapped = OTTransfer(transfer.a, transfer.c1, transfer.c0)
    assert ot_receiver_recover(receiver, swapped) != m1


def test_group_registry():
    assert group_by_name("toy23") is TOY_GROUP
    assert group_by_name("modp2048") is MODP2048
    with pytest.raises(InvalidGroupElement):
        group_by_name("nist-p256")
    for group in GROUPS.values():
        assert group.p == 2 * group.q + 1


def test_non_safe_prime_group_refused():
    """The Jacobi membership test is only right when p = 2q + 1."""
    with pytest.raises(InvalidGroupElement):
        GroupParams("bad29", p=29, q=7, g=4)
    with pytest.raises(InvalidGroupElement):
        GroupParams("bad23", p=23, q=10, g=4)


def test_modp2048_parameters():
    p, q, g = MODP2048.p, MODP2048.q, MODP2048.g
    assert p.bit_length() == 2048
    assert q == (p - 1) // 2
    assert p == 2 * q + 1
    assert g == 4
    assert pow(g, q, p) == 1
    assert MODP2048.element_bytes == 256
    assert len(element_to_bytes(MODP2048, 1)) == 256


def test_modp2048_round_trip_smoke():
    m0, m1 = b"0" * 16, b"1" * 16
    for choice in (0, 1):
        got = run_ot(MODP2048, m0, m1, choice, seed=choice)
        assert got == (m0, m1)[choice]


def test_modp2048_membership_matches_euler_criterion():
    """Euler's criterion (a full pow per element) is the oracle on a few
    random draws; many more elements have a membership known by
    construction: g^e is in the subgroup and a non-residue times g^e is not."""
    p, q, g = MODP2048.p, MODP2048.q, MODP2048.g
    rng = HashDrbg(2048, context="euler")
    for _ in range(24):
        x = rng.randbelow(p)
        assert in_subgroup(MODP2048, x) == (pow(x, q, p) == 1)
    non_residue = next(n for n in range(2, 100) if pow(n, q, p) == p - 1)
    for _ in range(100):
        member = pow(g, rng.randbelow(2**64), p)
        assert in_subgroup(MODP2048, member)
        assert not in_subgroup(MODP2048, non_residue * member % p)
    for x in (0, p, p - 1, g * non_residue % p):
        assert not in_subgroup(MODP2048, x)
    assert in_subgroup(MODP2048, 1)
    assert in_subgroup(MODP2048, g)


def test_modp2048_secrets_are_short():
    rng = HashDrbg(5, context="short")
    for choice in (0, 1):
        c, sender = ot_sender_init(MODP2048, rng)
        _, receiver = ot_receiver_choose(MODP2048, c, choice, rng)
        assert 0 <= sender.secret < 2**256
        assert 0 <= receiver.k < 2**256


def test_toy_secrets_still_drawn_below_q():
    c, sender = ot_sender_init(TOY_GROUP, HashDrbg(9, context="a"))
    assert (c, sender.secret) == (13, 9)
    assert sender.secret == HashDrbg(9, context="a").randbelow(TOY_GROUP.q)
    rng = HashDrbg(9, context="a")
    c, _ = ot_sender_init(TOY_GROUP, rng)
    choose, receiver = ot_receiver_choose(TOY_GROUP, c, 1, rng)
    assert (choose.y0, choose.y1, receiver.k) == (1, 13, 9)


def test_element_to_bytes_is_fixed_width():
    assert element_to_bytes(TOY_GROUP, 4) == b"\x04"
    assert element_to_bytes(TOY_GROUP, 18) == b"\x12"


def test_receiver_keys_leak_nothing_about_choice():
    """The y0 marginal must look the same for b=0 and b=1 (chi-square)."""
    c, _ = _sender_from_secret(TOY_GROUP, 7)
    counts = {0: dict.fromkeys(TOY_SUBGROUP, 0),
              1: dict.fromkeys(TOY_SUBGROUP, 0)}
    per_row = 1000
    for b in (0, 1):
        rng = HashDrbg(500 + b, context="privacy")
        for _ in range(per_row):
            choose, _ = ot_receiver_choose(TOY_GROUP, c, b, rng)
            counts[b][choose.y0] += 1
    chi2 = 0.0
    for elem in sorted(TOY_SUBGROUP):
        col = counts[0][elem] + counts[1][elem]
        for b in (0, 1):
            expected = col * per_row / (2 * per_row)
            if expected:
                chi2 += (counts[b][elem] - expected) ** 2 / expected
    assert chi2 < CHI_SQUARE_DF10_P01


@pytest.mark.parametrize("e", [
    0, 1, 15, 16, 17, 1 << 128, 1 << 252, 0xF << 252, (1 << 128) + 1,
    (1 << SECRET_BITS) - 1, 1 << SECRET_BITS, (1 << 400) + 1,
    (1 << TABLE_BITS) - 1,
    # outside the table's range: these take the builtin pow
    1 << TABLE_BITS, pytest.param(MODP2048.q, id="q"), -1, -(1 << 200),
])
def test_g_pow_boundaries(e):
    assert _g_pow(MODP2048, e) == pow(MODP2048.g, e, MODP2048.p)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, (1 << TABLE_BITS) - 1))
def test_g_pow_matches_pow(e):
    assert _g_pow(MODP2048, e) == pow(MODP2048.g, e, MODP2048.p)


def test_g_table_built_once_and_never_on_toy23():
    assert TABLE_BITS == 2 * SECRET_BITS
    assert MODP2048._g_table is MODP2048._g_table
    assert [len(row) for row in MODP2048._g_table] == [16] * 128
    toy = GroupParams("toy23", p=23, q=11, g=4)
    assert [_g_pow(toy, e) for e in range(-3, 30)] == [
        pow(4, e, 23) for e in range(-3, 30)]
    assert "_g_table" not in vars(toy)


@pytest.mark.parametrize("params", [TOY_GROUP, MODP2048], ids=lambda g: g.name)
@pytest.mark.parametrize("choice", [0, 1])
def test_receiver_reads_its_half_and_only_its_half(params, choice):
    """A^k || b opens m_b.  The receiver's key on the other half, and a
    changed A on its own half, give bytes that are neither message.

    The seeds avoid toy23's 1/q corners, where k = 0, r = 0 (A = 1) or
    y0 = y1 makes both keys equal; modp2048 never meets them."""
    m = (b"first message 16", b"other message 16")
    for seed in (0, 2, 5, 8):
        rng = HashDrbg(seed, context="one-r")
        c, sender = ot_sender_init(params, rng)
        choose, receiver = ot_receiver_choose(params, c, choice, rng)
        transfer = ot_sender_transfer(sender, choose.y0, choose.y1, *m, rng)
        assert choose.y0 != choose.y1 and receiver.k % params.q and transfer.a != 1
        assert ot_receiver_recover(receiver, transfer) == m[choice]
        other = ot_receiver_recover(receiver._replace(choice=1 - choice), transfer)
        assert other not in m
        for a in (transfer.a * params.g % params.p, 0, 1, params.p + 3, -1):
            assert ot_receiver_recover(receiver, transfer._replace(a=a)) not in m


def test_halves_are_masked_apart_even_where_the_keys_meet():
    """With s = 2k on toy23, y0 = y1 and so K0 = K1; the half index hashed
    into each key still masks equal messages differently."""
    c, sender = _sender_from_secret(TOY_GROUP, 2)
    for choice in (0, 1):
        choose, receiver = _receiver_from_secret(TOY_GROUP, c, choice, 1)
        assert choose.y0 == choose.y1
        m = b"equal halves 16b"
        transfer = ot_sender_transfer(sender, choose.y0, choose.y1, m, m,
                                      HashDrbg(choice, context="meet"))
        assert transfer.c0 != transfer.c1
        assert ot_receiver_recover(receiver, transfer) == m


def test_a_modp2048_transfer_makes_one_variable_base_pow(monkeypatch):
    """y0^r is the only pow with a positive exponent: g^r and c^r = g^(s*r)
    come from the table, and y1^r = c^r / y0^r costs one inverse."""
    rng = HashDrbg(5, context="one-r")
    c, sender = ot_sender_init(MODP2048, rng)
    choose, receiver = ot_receiver_choose(MODP2048, c, 1, rng)
    exponents = []

    def counting_pow(base, exp, mod=None):
        if exp > 0:
            exponents.append(exp)
        return builtins.pow(base, exp, mod)

    monkeypatch.setattr(zkfabric.ot, "pow", counting_pow, raising=False)
    transfer = ot_sender_transfer(sender, choose.y0, choose.y1, b"0" * 16, b"1" * 16, rng)
    assert len(exponents) == 1
    monkeypatch.undo()
    assert ot_receiver_recover(receiver, transfer) == b"1" * 16
