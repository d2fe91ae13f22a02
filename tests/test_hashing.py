import pytest

from zkfabric.hashing import CIPHER_BYTES, LABEL_BYTES, dual_dec, dual_enc, xor_bytes

KEY_A = bytes(range(LABEL_BYTES))
KEY_B = bytes(range(LABEL_BYTES, 2 * LABEL_BYTES))
LABEL = bytes(range(100, 100 + LABEL_BYTES))


@pytest.mark.parametrize("a, b", [
    (b"", b""),
    (b"\x00\x01", b"\x00\x02"),           # leading zero bytes survive
    (bytes(range(33)), bytes(range(200, 233))),
], ids=["empty", "leading-zeros", "33-bytes"])
def test_xor_bytes_matches_the_bytewise_xor(a, b):
    assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))


@pytest.mark.parametrize("a, b", [
    (b"", b"\x00"),
    (b"\x01\x02", b"\x03"),
    (bytes(LABEL_BYTES), bytes(CIPHER_BYTES)),
], ids=["empty-one", "two-one", "label-cipher"])
def test_xor_bytes_refuses_unequal_lengths(a, b):
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="length mismatch"):
            xor_bytes(x, y)


def test_dual_dec_opens_what_dual_enc_sealed():
    cipher = dual_enc(KEY_A, KEY_B, 7, 2, LABEL)
    assert len(cipher) == CIPHER_BYTES
    assert dual_dec(KEY_A, KEY_B, 7, 2, cipher) == LABEL
    assert dual_dec(KEY_B, KEY_A, 7, 2, cipher) is None


@pytest.mark.parametrize("length", [0, LABEL_BYTES, CIPHER_BYTES - 1, CIPHER_BYTES + 1])
def test_dual_dec_refuses_a_wrong_length_cipher(length):
    cipher = dual_enc(KEY_A, KEY_B, 7, 2, LABEL)
    assert dual_dec(KEY_A, KEY_B, 7, 2, (cipher * 2)[:length]) is None


@pytest.mark.parametrize("position", range(LABEL_BYTES, CIPHER_BYTES))
def test_dual_dec_refuses_a_flipped_tail_byte(position):
    cipher = bytearray(dual_enc(KEY_A, KEY_B, 7, 2, LABEL))
    cipher[position] ^= 0x01
    assert dual_dec(KEY_A, KEY_B, 7, 2, bytes(cipher)) is None
