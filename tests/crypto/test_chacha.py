"""ChaCha20-Poly1305 against RFC 8439 vectors and pure-int oracles."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import chacha
from repro.crypto.chacha import ChaCha20Poly1305, poly1305_mac
from repro.errors import IntegrityError
from tests.crypto._chacha_stream import chacha20_keystream, chacha20_xor
from tests.crypto._reference_chacha import poly1305_mac_reference

RFC_KEY = bytes(range(32))


def test_rfc8439_block_function():
    nonce = bytes.fromhex("000000090000004a00000000")
    stream = chacha20_keystream(RFC_KEY, nonce, 1, 64)
    assert stream.hex() == (
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    )


def test_rfc8439_encryption():
    key = RFC_KEY
    nonce = bytes.fromhex("000000000000004a00000000")
    plaintext = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    ct = chacha20_xor(key, nonce, 1, plaintext)
    assert ct.hex().startswith("6e2e359a2568f98041ba0728dd0d6981")
    assert chacha20_xor(key, nonce, 1, ct) == plaintext


def test_rfc8439_poly1305():
    key = bytes.fromhex(
        "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
    )
    tag = poly1305_mac(key, b"Cryptographic Forum Research Group")
    assert tag.hex() == "a8061dc1305136c6c22b8baf0c0127a9"


def test_rfc8439_aead_vector():
    key = bytes.fromhex(
        "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
    )
    nonce = bytes.fromhex("070000004041424344454647")
    aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
    plaintext = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    aead = ChaCha20Poly1305(key)
    sealed = aead.encrypt(nonce, plaintext, aad)
    assert sealed[-16:].hex() == "1ae10b594f09e26a7e902ecbd0600691"
    assert aead.decrypt(nonce, sealed, aad) == plaintext


def test_tamper_detection_everywhere():
    aead = ChaCha20Poly1305(bytes(32))
    nonce = b"\x05" * 12
    sealed = aead.encrypt(nonce, b"data" * 100, aad=b"meta")
    for position in (0, len(sealed) // 2, len(sealed) - 1):
        corrupted = bytearray(sealed)
        corrupted[position] ^= 0x80
        with pytest.raises(IntegrityError):
            aead.decrypt(nonce, bytes(corrupted), aad=b"meta")


def test_aad_binding():
    aead = ChaCha20Poly1305(bytes(32))
    sealed = aead.encrypt(b"\x00" * 12, b"x", aad=b"context-a")
    with pytest.raises(IntegrityError):
        aead.decrypt(b"\x00" * 12, sealed, aad=b"context-b")


def test_keystream_counter_continuity():
    a = chacha20_keystream(RFC_KEY, bytes(12), 0, 128)
    b = chacha20_keystream(RFC_KEY, bytes(12), 0, 64) + chacha20_keystream(
        RFC_KEY, bytes(12), 1, 64
    )
    assert a == b


def test_empty_keystream():
    assert chacha20_keystream(RFC_KEY, bytes(12), 0, 0) == b""


def test_key_and_nonce_validation():
    with pytest.raises(ValueError):
        ChaCha20Poly1305(bytes(31))
    aead = ChaCha20Poly1305(bytes(32))
    with pytest.raises(ValueError):
        aead.encrypt(bytes(11), b"x")
    with pytest.raises(ValueError):
        poly1305_mac(bytes(31), b"x")


@settings(max_examples=25)
@given(st.binary(min_size=0, max_size=5000), st.binary(min_size=32, max_size=32))
def test_roundtrip_property(plaintext, key):
    aead = ChaCha20Poly1305(key)
    sealed = aead.encrypt(b"\x01" * 12, plaintext)
    assert aead.decrypt(b"\x01" * 12, sealed) == plaintext


# ---------------------------------------------------------------------------
# The row-grouped keystream core vs a pure-int RFC 8439 block function
# ---------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
COUNTER_LIMIT = 1 << 32


def _rotl32(x, n):
    return ((x << n) | (x >> (32 - n))) & _MASK32


def _qr(state, a, b, c, d):
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def _block_oracle(key, nonce, counter):
    """RFC 8439 §2.3 on Python ints: one 64-byte block."""
    init = list(
        struct.unpack("<16I", b"expand 32-byte k" + key + struct.pack("<I", counter) + nonce)
    )
    state = list(init)
    for _ in range(10):
        _qr(state, 0, 4, 8, 12)
        _qr(state, 1, 5, 9, 13)
        _qr(state, 2, 6, 10, 14)
        _qr(state, 3, 7, 11, 15)
        _qr(state, 0, 5, 10, 15)
        _qr(state, 1, 6, 11, 12)
        _qr(state, 2, 7, 8, 13)
        _qr(state, 3, 4, 9, 14)
    return struct.pack("<16I", *((x + y) & _MASK32 for x, y in zip(state, init)))


def _keystream_oracle(key, nonce, counter, n_bytes):
    blocks = (_block_oracle(key, nonce, counter + i) for i in range(-(-n_bytes // 64)))
    return b"".join(blocks)[:n_bytes]


def test_block_oracle_is_rfc8439():
    nonce = bytes.fromhex("000000090000004a00000000")
    assert _block_oracle(RFC_KEY, nonce, 1).hex().startswith("10f1e7e4d13b5915500fdd1fa32071c4")


@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
    n_bytes=st.integers(0, 4096) | st.sampled_from([1, 63, 64, 65, 127, 128, 129, 4095]),
    from_limit=st.sampled_from([None, 70, 65, 64]),
    counter=st.sampled_from([0, 1]),
)
def test_keystream_matches_block_oracle(key, nonce, n_bytes, from_limit, counter):
    if from_limit is not None:
        # Near the limit: the last block generated may be block 2^32 - 1.
        counter = COUNTER_LIMIT - from_limit
    assert chacha20_keystream(key, nonce, counter, n_bytes) == _keystream_oracle(
        key, nonce, counter, n_bytes
    )


def test_counter_runs_to_the_last_block_and_no_further():
    nonce = bytes(12)
    counter = COUNTER_LIMIT - 2
    assert chacha20_keystream(RFC_KEY, nonce, counter, 128) == _keystream_oracle(
        RFC_KEY, nonce, counter, 128
    )
    # One byte more needs block 2^32, which would reuse block 0's keystream.
    with pytest.raises(ValueError, match="counter"):
        chacha20_keystream(RFC_KEY, nonce, counter, 129)
    with pytest.raises(ValueError, match="counter"):
        chacha20_xor(RFC_KEY, nonce, counter, bytes(129))
    with pytest.raises(ValueError, match="counter"):
        chacha20_keystream(RFC_KEY, nonce, COUNTER_LIMIT, 1)
    with pytest.raises(ValueError, match="counter"):
        chacha20_keystream(RFC_KEY, nonce, -1, 1)


def test_aead_refuses_payloads_past_the_counter_space(monkeypatch):
    assert ChaCha20Poly1305.MAX_PAYLOAD == (2**32 - 1) * 64
    aead = ChaCha20Poly1305(RFC_KEY)
    sealed = aead.encrypt(bytes(12), bytes(129))
    # 256 GiB cannot be allocated here; shrink the limit, not the check.
    monkeypatch.setattr(ChaCha20Poly1305, "MAX_PAYLOAD", 128)
    assert len(aead.encrypt(bytes(12), bytes(128))) == 128 + 16
    with pytest.raises(ValueError, match="counter space"):
        aead.encrypt(bytes(12), bytes(129))
    with pytest.raises(IntegrityError, match="counter space"):
        aead.decrypt(bytes(12), sealed)


# ---------------------------------------------------------------------------
# The single-pass AEAD vs the construction composed by hand
# ---------------------------------------------------------------------------


def _seal_by_hand(key, nonce, plaintext, aad):
    """RFC 8439 §2.8 from the public pieces and the bigint Poly1305."""
    otk = _keystream_oracle(key, nonce, 0, 32)
    ciphertext = chacha20_xor(key, nonce, 1, plaintext)
    mac_data = (
        aad
        + bytes(-len(aad) % 16)
        + ciphertext
        + bytes(-len(ciphertext) % 16)
        + struct.pack("<QQ", len(aad), len(ciphertext))
    )
    return ciphertext + poly1305_mac_reference(otk, mac_data)


@settings(max_examples=40, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
    aad=st.binary(max_size=40),
    plaintext=st.binary(max_size=700),
)
def test_encrypt_equals_hand_composition(key, nonce, aad, plaintext):
    aead = ChaCha20Poly1305(key)
    sealed = aead.encrypt(nonce, plaintext, aad)
    assert sealed == _seal_by_hand(key, nonce, plaintext, aad)
    assert aead.decrypt(nonce, sealed, aad) == plaintext


def test_encrypt_equals_hand_composition_on_a_shield_chunk():
    # 64 KiB is what the fs shield seals; its tag takes the bulk path.
    key = bytes((i * 7 + 3) % 256 for i in range(32))
    plaintext = bytes((i * 13 + 5) % 256 for i in range(65536))
    sealed = ChaCha20Poly1305(key).encrypt(b"\x09" * 12, plaintext, b"chunk-3")
    assert sealed == _seal_by_hand(key, b"\x09" * 12, plaintext, b"chunk-3")


@settings(max_examples=40, deadline=None)
@given(
    plaintext=st.binary(max_size=300),
    aad=st.binary(min_size=1, max_size=20),
    part=st.sampled_from(["ciphertext", "tag", "aad"]),
    where=st.integers(min_value=0),
    bit=st.integers(0, 7),
)
def test_any_flipped_bit_fails_closed(plaintext, aad, part, where, bit):
    aead = ChaCha20Poly1305(RFC_KEY)
    nonce = b"\x07" * 12
    sealed = bytearray(aead.encrypt(nonce, plaintext, aad))
    aad = bytearray(aad)
    if part == "aad":
        aad[where % len(aad)] ^= 1 << bit
    elif part == "tag" or not plaintext:
        sealed[len(plaintext) + where % 16] ^= 1 << bit
    else:
        sealed[where % len(plaintext)] ^= 1 << bit
    with pytest.raises(IntegrityError):
        aead.decrypt(nonce, bytes(sealed), bytes(aad))


# ---------------------------------------------------------------------------
# Vectorized Poly1305 vs the serial reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "length", [0, 1, 15, 16, 17, 63, 64, 65, 8191, 8192, 8193, 70000]
)
def test_poly1305_fast_matches_reference(length):
    key = bytes((i * 11 + 2) % 256 for i in range(32))
    message = bytes((i * 5 + 1) % 256 for i in range(length))
    assert poly1305_mac(key, message) == poly1305_mac_reference(key, message)
    # Force the bulk path even on short inputs.
    assert poly1305_mac(key, message, _min_blocks=4) == (
        poly1305_mac_reference(key, message)
    )


def test_poly1305_fast_degenerate_r_zero():
    # r clamps to zero: every power in the matrix is zero too.
    key = b"\x00" * 16 + bytes(range(16))
    message = b"\xaa" * 5000
    assert poly1305_mac(key, message, _min_blocks=4) == (
        poly1305_mac_reference(key, message)
    )


@given(st.binary(min_size=0, max_size=400), st.binary(min_size=32, max_size=32))
def test_poly1305_equivalence_property(message, key):
    assert poly1305_mac(key, message) == poly1305_mac_reference(key, message)
    assert poly1305_mac(key, message, _min_blocks=1) == (
        poly1305_mac_reference(key, message)
    )


# Full-block counts where the retired halving fold changed shape (its
# stop width was 8); kept as plain equivalence points.
_FOLD_EDGES = [1, 7, 8, 9, 10, 15, 16, 17, 18, 19, 31, 33, 37, 63, 64, 65, 100, 255, 257, 1001]


@pytest.mark.parametrize("n_blocks", _FOLD_EDGES)
@pytest.mark.parametrize("tail", [0, 1, 15])
@pytest.mark.parametrize("saturated", [False, True], ids=["ramp", "all-ones"])
def test_poly1305_word_limb_fold_edges(n_blocks, tail, saturated):
    key = bytes((i * 29 + 7) % 256 for i in range(32))
    length = n_blocks * 16 + tail
    # 0xff bytes push every limb and carry to its maximum.
    message = b"\xff" * length if saturated else bytes((i * 31 + 11) % 256 for i in range(length))
    assert poly1305_mac(key, message, _min_blocks=1) == (
        poly1305_mac_reference(key, message)
    )


def test_poly1305_fold_with_saturated_r():
    # Largest clamped r and all-ones blocks: the bound on limb products.
    key = b"\xff" * 32
    message = b"\xff" * (16 * 4099)
    assert poly1305_mac(key, message, _min_blocks=1) == (
        poly1305_mac_reference(key, message)
    )


# ---------------------------------------------------------------------------
# The matrix-product evaluator: where its shape changes
# ---------------------------------------------------------------------------

_B = chacha._GROUP_BLOCKS
_SLAB = chacha._GROUP_BLOCKS * chacha._SLAB_GROUPS
_BULK = chacha._BULK_MIN_BLOCKS
# Around one group (fewer blocks than a group stay serial; more leave a
# serial remainder behind the product), two groups, one slab of groups
# (one more is a second product), two slabs, and the threshold below
# which poly1305_mac stays serial.
_GROUP_EDGES = sorted(
    {1, 2}
    | {edge + d for edge in (_B, 2 * _B, _SLAB, 2 * _SLAB, _BULK) for d in (-1, 0, 1)}
    | {_SLAB + _B - 1, _SLAB + _B + 1}
)

#: The largest column sum one group can produce: 8 limb products per
#: block land on a column, each below (2^16 - 1)^2.
MAX_COLUMN_SUM = 8 * _B * 0xFFFF * 0xFFFF


def test_poly1305_group_sums_stay_exact():
    # Exact in float64 whatever order BLAS adds in ...
    assert MAX_COLUMN_SUM < 2**42 < 2**53
    # ... and two columns pair into one uint64 field without overflow.
    assert MAX_COLUMN_SUM + (MAX_COLUMN_SUM << 16) < 2**64
    assert (_B, chacha._SLAB_GROUPS, _BULK) == (64, 64, 128)


@pytest.mark.parametrize("n_blocks", _GROUP_EDGES)
@pytest.mark.parametrize("tail", [0, 1, 15])
@pytest.mark.parametrize("saturated", [False, True], ids=["ramp", "all-ones"])
def test_poly1305_group_edges(n_blocks, tail, saturated):
    key = bytes((i * 29 + 7) % 256 for i in range(32))
    length = n_blocks * 16 + tail
    message = b"\xff" * length if saturated else bytes((i * 31 + 11) % 256 for i in range(length))
    expected = poly1305_mac_reference(key, message)
    assert poly1305_mac(key, message, _min_blocks=1) == expected
    assert poly1305_mac(key, message) == expected  # serial below the threshold


@pytest.mark.parametrize("n_blocks", [_B - 1, _B, 3 * _B + 5, _SLAB + 1])
def test_poly1305_groups_with_extreme_r(n_blocks):
    message = b"\xff" * (16 * n_blocks + 15)
    # r clamped to zero, and the largest clamped r (every limb of every
    # power as large as the clamp and the modulus allow).
    for key in (b"\x00" * 16 + bytes(range(16)), b"\xff" * 32):
        assert poly1305_mac(key, message, _min_blocks=1) == (
            poly1305_mac_reference(key, message)
        )
