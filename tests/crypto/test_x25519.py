"""X25519 against RFC 7748 vectors and DH agreement properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.x25519 import X25519PrivateKey, X25519PublicKey, x25519
from repro.errors import SecurityError


def test_rfc7748_vector_1():
    k = bytes.fromhex(
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"
    )
    u = bytes.fromhex(
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"
    )
    assert x25519(k, u).hex() == (
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
    )


def test_rfc7748_vector_2():
    k = bytes.fromhex(
        "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d"
    )
    u = bytes.fromhex(
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"
    )
    assert x25519(k, u).hex() == (
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
    )


def test_base_point_iteration():
    # RFC 7748 §5.2 iteration test, 1 step.
    k = u = (9).to_bytes(32, "little")
    out = x25519(k, u)
    assert out.hex() == (
        "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
    )


@pytest.mark.tier2
@pytest.mark.slow
def test_base_point_iteration_1000():
    # RFC 7748 section 5.2, 1 000 steps (~2 s of ladder).
    k = u = (9).to_bytes(32, "little")
    for _ in range(1000):
        k, u = x25519(k, u), k
    assert k.hex() == (
        "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
    )


def test_rfc7748_section_6_1_diffie_hellman():
    # Public keys *from private keys*: the Edwards fixed-base path, not
    # the ladder the other vectors exercise.
    alice = X25519PrivateKey(
        bytes.fromhex(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
        )
    )
    bob = X25519PrivateKey(
        bytes.fromhex(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
        )
    )
    assert alice.public_key().public_bytes().hex() == (
        "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
    )
    assert bob.public_key().public_bytes().hex() == (
        "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
    )
    shared = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
    assert alice.exchange(bob.public_key()).hex() == shared
    assert bob.exchange(alice.public_key()).hex() == shared


@settings(max_examples=20)
@given(
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=32, max_size=32),
)
def test_diffie_hellman_agreement(a_bytes, b_bytes):
    alice = X25519PrivateKey.generate(a_bytes)
    bob = X25519PrivateKey.generate(b_bytes)
    shared_a = alice.exchange(bob.public_key())
    shared_b = bob.exchange(alice.public_key())
    assert shared_a == shared_b


def test_low_order_point_rejected():
    alice = X25519PrivateKey.generate(bytes(range(32)))
    with pytest.raises(SecurityError):
        alice.exchange(X25519PublicKey(bytes(32)))  # order-1 point


def test_key_length_validation():
    with pytest.raises(ValueError):
        X25519PrivateKey(bytes(31))
    with pytest.raises(ValueError):
        X25519PublicKey(bytes(33))
    with pytest.raises(ValueError):
        x25519(bytes(31), bytes(32))


def test_public_key_equality_and_hash():
    key = X25519PrivateKey.generate(bytes(range(32))).public_key()
    same = X25519PublicKey(key.public_bytes())
    assert key == same
    assert hash(key) == hash(same)
