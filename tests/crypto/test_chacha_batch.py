"""``seal_many`` / ``open_many`` against the per-message AEAD they replaced.

``tests/crypto/_reference_chacha.py`` is the retired module, verbatim:
one keystream pass and one Poly1305 fold per message.  The batched AEAD
must return its bytes for every input, release nothing unless every
message of a batch verifies, and refuse what the per-message calls
refused.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import chacha
from repro.crypto.chacha import ChaCha20Poly1305
from repro.errors import IntegrityError
from tests.crypto._reference_chacha import ChaCha20Poly1305 as ReferenceAead

KEY = bytes((i * 7 + 3) % 256 for i in range(32))

#: Sizes where a message changes shape: empty, around one block, around
#: the Poly1305 bulk threshold (128 blocks), and free ones.
_SIZES = st.sampled_from([0, 1, 63, 64, 65, 2015, 2016, 2048, 4097]) | st.integers(0, 700)


def _nonces(n):
    return [bytes([i]) + b"\x5a" * 11 for i in range(n)]


def _payload(size, salt):
    return bytes((i * 31 + salt) % 256 for i in range(size))


@st.composite
def _batches(draw):
    sizes = draw(st.lists(_SIZES, min_size=1, max_size=12))
    plaintexts = [_payload(size, salt) for salt, size in enumerate(sizes)]
    aads = [draw(st.binary(max_size=40)) for _ in sizes]
    return _nonces(len(sizes)), plaintexts, aads


@settings(max_examples=60, deadline=None)
@given(batch=_batches(), pass_blocks=st.sampled_from([3, 7, 64, chacha._PASS_BLOCKS]))
def test_seal_many_equals_per_item_reference_encrypt(batch, pass_blocks):
    nonces, plaintexts, aads = batch
    reference = ReferenceAead(KEY)
    aead = ChaCha20Poly1305(KEY)
    # A small cap makes every batch straddle passes: runs continue in
    # the next pass mid-message and the block-0 columns may split too.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chacha, "_PASS_BLOCKS", pass_blocks)
        sealed = aead.seal_many(nonces, plaintexts, aads)
        assert sealed == [reference.encrypt(*item) for item in zip(nonces, plaintexts, aads)]
        assert sealed == [aead.encrypt(*item) for item in zip(nonces, plaintexts, aads)]
        assert aead.open_many(nonces, sealed, aads) == plaintexts
        assert [aead.decrypt(*item) for item in zip(nonces, sealed, aads)] == plaintexts


def test_batches_past_the_real_pass_cap_equal_the_reference():
    # 20 shield chunks are 20 500 columns (two passes, cut mid-chunk); a
    # message of 1 MiB + 4 KiB needs two passes by itself.
    reference = ReferenceAead(KEY)
    aead = ChaCha20Poly1305(KEY)
    for sizes in ([65536] * 19 + [32768], [(1 << 20) + 4096, 0, 65]):
        assert sum(1 + -(-size // 64) for size in sizes) > chacha._PASS_BLOCKS
        nonces = _nonces(len(sizes))
        plaintexts = [_payload(size, salt) for salt, size in enumerate(sizes)]
        aads = [b"chunk-%d" % i for i in range(len(sizes))]
        sealed = aead.seal_many(nonces, plaintexts, aads)
        assert sealed == [reference.encrypt(*item) for item in zip(nonces, plaintexts, aads)]
        assert aead.open_many(nonces, sealed, aads) == plaintexts


@settings(max_examples=60, deadline=None)
@given(
    batch=_batches(),
    victim=st.integers(min_value=0),
    part=st.sampled_from(["ciphertext", "tag", "aad"]),
    where=st.integers(min_value=0),
    bit=st.integers(0, 7),
)
def test_one_flipped_bit_names_its_item_and_releases_nothing(batch, victim, part, where, bit):
    nonces, plaintexts, aads = batch
    aead = ChaCha20Poly1305(KEY)
    sealed = aead.seal_many(nonces, plaintexts, aads)
    victim %= len(sealed)
    body, aad = bytearray(sealed[victim]), bytearray(aads[victim])
    if part == "aad" and aad:
        aad[where % len(aad)] ^= 1 << bit
    elif part == "ciphertext" and plaintexts[victim]:
        body[where % len(plaintexts[victim])] ^= 1 << bit
    else:
        body[len(plaintexts[victim]) + where % 16] ^= 1 << bit
    sealed[victim], aads[victim] = bytes(body), bytes(aad)

    # Nothing may be XORed before the verdict: watch the reader.
    taken = []
    take = chacha._KeystreamReader.take

    def spy(self, n_bytes):
        taken.append(n_bytes)
        return take(self, n_bytes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chacha._KeystreamReader, "take", spy)
        with pytest.raises(IntegrityError) as failure:
            aead.open_many(nonces, sealed, aads)
    assert failure.value.position == victim
    assert taken == [64 * len(sealed)]  # the one-time keys, no stream


def test_short_and_oversized_items_name_their_position(monkeypatch):
    aead = ChaCha20Poly1305(KEY)
    nonces = _nonces(3)
    sealed = aead.seal_many(nonces, [b"a" * 100, b"b" * 129, b"c"], [b""] * 3)
    with pytest.raises(IntegrityError, match="shorter than") as failure:
        aead.open_many(nonces, [sealed[0], sealed[1], b"\x00" * 15], [b""] * 3)
    assert failure.value.position == 2
    monkeypatch.setattr(ChaCha20Poly1305, "MAX_PAYLOAD", 128)
    with pytest.raises(IntegrityError, match="counter space") as failure:
        aead.open_many(nonces, sealed, [b""] * 3)
    assert failure.value.position == 1
    with pytest.raises(ValueError, match="counter space"):
        aead.seal_many(nonces, [b"a" * 100, b"b" * 129, b"c"], [b""] * 3)
    assert IntegrityError("single message").position is None


def test_batch_misuse_raises_value_errors():
    aead = ChaCha20Poly1305(KEY)
    nonces = _nonces(2)
    with pytest.raises(ValueError, match="one nonce and one aad"):
        aead.seal_many(nonces, [b"x"], [b"", b""])
    with pytest.raises(ValueError, match="one nonce and one aad"):
        aead.seal_many(nonces, [b"x", b"y"], [b""])
    with pytest.raises(ValueError, match="one nonce and one aad"):
        aead.open_many(nonces[:1], [bytes(16), bytes(16)], [b"", b""])
    with pytest.raises(ValueError, match="nonce must be 12 bytes"):
        aead.seal_many([nonces[0], bytes(11)], [b"x", b"y"], [b"", b""])
    with pytest.raises(ValueError, match="nonce must be 12 bytes"):
        aead.open_many([nonces[0], bytes(13)], [bytes(16), bytes(16)], [b"", b""])
    assert aead.seal_many([], [], []) == [] == aead.open_many([], [], [])


def test_a_nonce_repeated_inside_one_batch_is_refused():
    # Two messages under one (key, nonce) XOR to the XOR of their
    # plaintexts; the batch must fail before sealing either.
    aead = ChaCha20Poly1305(KEY)
    nonce = b"\x07" * 12
    with pytest.raises(ValueError, match="nonce repeated"):
        aead.seal_many([nonce, b"\x08" * 12, nonce], [b"one", b"two", b"three"], [b""] * 3)


def test_a_run_past_the_block_counter_is_refused():
    head = chacha._head(KEY)
    with pytest.raises(ValueError, match="counter exhausted"):
        chacha._run(bytes(12), (1 << 32) - 1, 2)
    # The last block of the counter space is still reachable in a batch
    # of runs under different nonces.
    runs = [chacha._run(bytes(12), (1 << 32) - 1, 1), chacha._run(b"\x01" * 12, 0, 2)]
    stream = b"".join(block.tobytes() for block in chacha._keystream(head, runs))
    assert stream == (
        chacha.chacha20_keystream(KEY, bytes(12), (1 << 32) - 1, 64)
        + chacha.chacha20_keystream(KEY, b"\x01" * 12, 0, 128)
    )
