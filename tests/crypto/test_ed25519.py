"""Ed25519 against RFC 8032 vectors and signature properties."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from repro.errors import IntegrityError


def test_rfc8032_test_1_empty_message():
    sk = Ed25519PrivateKey(
        bytes.fromhex(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
        )
    )
    assert sk.public_key().public_bytes().hex() == (
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
    )
    signature = sk.sign(b"")
    assert signature.hex() == (
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
    )
    sk.public_key().verify(signature, b"")


def test_rfc8032_test_2_one_byte():
    sk = Ed25519PrivateKey(
        bytes.fromhex(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"
        )
    )
    signature = sk.sign(b"\x72")
    assert signature.hex() == (
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
    )


@pytest.mark.parametrize(
    "secret, public, message, signature",
    [
        pytest.param(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
            id="test-3-two-bytes",
        ),
        pytest.param(
            "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
            "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
            "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
            "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704",
            id="test-sha-abc",
        ),
    ],
)
def test_rfc8032_section_7_1_vectors(secret, public, message, signature):
    sk = Ed25519PrivateKey(bytes.fromhex(secret))
    assert sk.public_key().public_bytes().hex() == public
    assert sk.sign(bytes.fromhex(message)).hex() == signature
    Ed25519PublicKey(bytes.fromhex(public)).verify(
        bytes.fromhex(signature), bytes.fromhex(message)
    )


def test_tampered_message_rejected():
    sk = Ed25519PrivateKey(bytes(range(32)))
    signature = sk.sign(b"authentic")
    with pytest.raises(IntegrityError):
        sk.public_key().verify(signature, b"forged")


def test_tampered_signature_rejected():
    sk = Ed25519PrivateKey(bytes(range(32)))
    signature = bytearray(sk.sign(b"message"))
    signature[10] ^= 1
    with pytest.raises(IntegrityError):
        sk.public_key().verify(bytes(signature), b"message")


def test_wrong_key_rejected():
    sk1 = Ed25519PrivateKey(bytes(range(32)))
    sk2 = Ed25519PrivateKey(bytes(range(1, 33)))
    signature = sk1.sign(b"message")
    with pytest.raises(IntegrityError):
        sk2.public_key().verify(signature, b"message")


def test_signature_length_enforced():
    sk = Ed25519PrivateKey(bytes(range(32)))
    with pytest.raises(IntegrityError):
        sk.public_key().verify(b"short", b"message")


def test_scalar_out_of_range_rejected():
    sk = Ed25519PrivateKey(bytes(range(32)))
    signature = bytearray(sk.sign(b"m"))
    signature[32:] = b"\xff" * 32  # s >= L
    with pytest.raises(IntegrityError):
        sk.public_key().verify(bytes(signature), b"m")


def test_public_key_validation():
    with pytest.raises(ValueError):
        Ed25519PublicKey(bytes(31))


#: y = p - 1 with the sign bit set: x^2 = 0 has no odd root, so RFC 8032
#: section 5.1.3 step 4 says decoding fails.  Testing the *unreduced*
#: x^2 against zero used to let it through as x = p, a second encoding
#: of the order-2 point (0, -1).
_NON_CANONICAL_ORDER_TWO = ((2**255 - 19 - 1) | (1 << 255)).to_bytes(32, "little")
_ORDER_TWO = (2**255 - 19 - 1).to_bytes(32, "little")
_L = 2**252 + 27742317777372353535851937790883648493


def _message_with_k_parity(r_bytes, public_bytes, parity):
    """A message whose challenge scalar ``k = H(R, A, M) mod L`` has ``parity``."""
    for counter in range(64):
        message = b"forged-%d" % counter
        digest = hashlib.sha512(r_bytes + public_bytes + message).digest()
        if int.from_bytes(digest, "little") % _L % 2 == parity:
            return message
    raise AssertionError("no message found")


def test_non_canonical_point_rejected_as_public_key():
    # The attack this closes: under the small-order key A = (0, -1), an
    # even challenge makes k * A the identity, so (R = r * B, s = r)
    # verifies for anyone who picks r.  The canonical encoding of that
    # key still loads (RFC 8032 does not forbid small-order keys); the
    # non-canonical one must not.
    r = Ed25519PrivateKey(bytes(range(32)))  # any r * B with a known r
    r_bytes = r.public_key().public_bytes()
    forged = r_bytes + (r._scalar % _L).to_bytes(32, "little")
    message = _message_with_k_parity(r_bytes, _ORDER_TWO, 0)
    Ed25519PublicKey(_ORDER_TWO).verify(forged, message)
    with pytest.raises(IntegrityError, match="invalid Ed25519 point encoding"):
        Ed25519PublicKey(_NON_CANONICAL_ORDER_TWO)


def test_non_canonical_point_rejected_as_signature_r():
    # R = (0, -1), s = 0 and an odd challenge under A = (0, -1):
    # 0 * B == R + k * A, so the canonical R verifies -- and the
    # non-canonical spelling of the same R must fail to decode.
    message = _message_with_k_parity(_NON_CANONICAL_ORDER_TWO, _ORDER_TWO, 1)
    key = Ed25519PublicKey(_ORDER_TWO)
    with pytest.raises(IntegrityError, match="invalid Ed25519 point encoding"):
        key.verify(_NON_CANONICAL_ORDER_TWO + bytes(32), message)
    honest = Ed25519PrivateKey(bytes(range(32)))
    with pytest.raises(IntegrityError, match="invalid Ed25519 point encoding"):
        honest.public_key().verify(_NON_CANONICAL_ORDER_TWO + bytes(32), b"message")


@settings(max_examples=10)
@given(st.binary(min_size=32, max_size=32), st.binary(min_size=0, max_size=100))
def test_sign_verify_property(key_bytes, message):
    sk = Ed25519PrivateKey(key_bytes)
    sk.public_key().verify(sk.sign(message), message)
