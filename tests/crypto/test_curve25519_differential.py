"""The windowed / fixed-base curve arithmetic against the double-and-add it replaced.

``tests/crypto/_reference_curve25519.py`` is ``ed25519.py`` and
``x25519.py`` as they stood through PR 17, verbatim.  Both are driven in
lock-step: every output byte, every verdict and, where an input is
refused, the error class *and message* must be equal — with one
deliberate exception, the non-canonical encoding of the order-2 point
that the reference's ``_recover_x`` lets through as ``x = p``.
"""

import importlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ed25519
from repro.errors import IntegrityError, ReproError
from tests.crypto import _reference_curve25519 as reference

# ``repro.crypto.x25519`` the attribute is the function; this is the module.
x25519 = importlib.import_module("repro.crypto.x25519")

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_SIGN = 1 << 255

_KEYS = st.binary(min_size=32, max_size=32)
_SCALAR_EDGES = [0, 1, 2, 15, 16, _L - 1, _L, _L + 1, 2**252, 2**255 - 1]


def _outcome(fn):
    """What a caller can observe of ``fn()``: its value, or how it refused."""
    try:
        return ("ok", fn())
    except (ReproError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _encode(y, sign=0):
    return (y | (_SIGN if sign else 0)).to_bytes(32, "little")


def _small_order_points():
    """The eight points of order dividing 8, from the reference's arithmetic."""
    for y in range(2, 64):
        try:
            torsion = reference._scalar_mult(_L, reference._decompress(_encode(y)))
        except IntegrityError:
            continue  # not every y is on the curve
        if reference._compress(reference._scalar_mult(4, torsion)) != _encode(1):
            return [reference._scalar_mult(j, torsion) for j in range(8)]
    raise AssertionError("no point of order 8 found")


_SMALL_ORDER = _small_order_points()
_SMALL_ORDER_ENCODINGS = [reference._compress(point) for point in _SMALL_ORDER]

#: y >= p, y = +-1 and 0 with either sign bit, the small-order points.
_EDGE_ENCODINGS = sorted(
    {
        _encode(y, sign)
        for y in (0, 1, 2, _P - 2, _P - 1, _P, _P + 1, _P + 18, 2**255 - 1)
        for sign in (0, 1)
    }
    | set(_SMALL_ORDER_ENCODINGS)
)

#: The one input whose outcome is meant to differ (test_ed25519.py mounts it).
_NON_CANONICAL_ORDER_TWO = _encode(_P - 1, 1)


def _montgomery_u(point):
    x, y, z, _ = point
    if (z - y) % _P == 0:
        return None
    return ((z + y) * pow(z - y, -1, _P)) % _P


#: Every u that x25519 maps to zero: 0 and 1 (orders 4 and 1... on the
#: curve), p - 1 (order 2 on the twist), their non-canonical spellings
#: p and p + 1, and the two u of order 8.
_LOW_ORDER_U = sorted(
    {0, 1, _P - 1, _P, _P + 1}
    | {u for u in map(_montgomery_u, _SMALL_ORDER) if u is not None}
)


def test_the_edge_lists_hold_what_they_claim():
    assert len(set(_SMALL_ORDER_ENCODINGS)) == 8
    for known in (_encode(1), _encode(_P - 1), _encode(0), _encode(0, 1)):
        assert known in _SMALL_ORDER_ENCODINGS
    assert len(_LOW_ORDER_U) == 7
    for u in _LOW_ORDER_U:
        assert reference.x25519(bytes(range(32)), u.to_bytes(32, "little")) == bytes(32)


@settings(max_examples=25, deadline=None)
@given(secret=_KEYS, message=st.binary(max_size=80), bit=st.integers(0, 511), data=st.data())
def test_keys_signatures_and_verdicts(secret, message, bit, data):
    new, old = ed25519.Ed25519PrivateKey(secret), reference.Ed25519PrivateKey(secret)
    public = new.public_key().public_bytes()
    assert public == old.public_key().public_bytes()
    signature = new.sign(message)
    assert signature == old.sign(message)

    flipped = bytearray(signature)
    flipped[bit // 8] ^= 1 << (bit % 8)
    flipped_key = bytearray(public)
    key_bit = data.draw(st.integers(0, 255))
    flipped_key[key_bit // 8] ^= 1 << (key_bit % 8)
    attempts = [
        (public, signature, message),
        (public, bytes(flipped), message),
        (public, signature, message + b"\x00"),
        (public, signature[:63], message),
        (bytes(flipped_key), signature, message),
    ]
    for key_bytes, sig, msg in attempts:
        assert _outcome(
            lambda: ed25519.Ed25519PublicKey(key_bytes).verify(sig, msg)
        ) == _outcome(lambda: reference.Ed25519PublicKey(key_bytes).verify(sig, msg))


def _decode_both(encoding):
    return (
        _outcome(lambda: ed25519._decompress(encoding)),
        _outcome(lambda: reference._decompress(encoding)),
    )


@settings(max_examples=150, deadline=None)
@given(encoding=_KEYS)
def test_decompress_random_encodings(encoding):
    new, old = _decode_both(encoding)
    assert new == old  # the affine point itself, or the same refusal


@pytest.mark.parametrize(
    "encoding", _EDGE_ENCODINGS, ids=lambda e: e[::-1].hex()[:8] + ".." + e[:2][::-1].hex()
)
def test_decompress_edge_encodings(encoding):
    new, old = _decode_both(encoding)
    if encoding == _NON_CANONICAL_ORDER_TWO:
        assert old == ("ok", (_P, _P - 1, 1, 0))  # x out of range
        assert new == ("IntegrityError", "invalid Ed25519 point encoding")
        return
    assert new == old
    # The same point as a key and as the R of a signature: same verdicts.
    honest = reference.Ed25519PrivateKey(bytes(range(32)))
    signature = honest.sign(b"edge")
    for key_bytes, sig in (
        (encoding, signature),
        (encoding, encoding + bytes(32)),
        (honest.public_key().public_bytes(), encoding + signature[32:]),
    ):
        assert _outcome(
            lambda: ed25519.Ed25519PublicKey(key_bytes).verify(sig, b"edge")
        ) == _outcome(lambda: reference.Ed25519PublicKey(key_bytes).verify(sig, b"edge"))


def _same_point(new_point, old_point):
    return ed25519._compress(new_point) == reference._compress(old_point)


@pytest.mark.parametrize("scalar", _SCALAR_EDGES)
def test_scalar_edges_on_the_base_point_and_off_it(scalar):
    assert _same_point(ed25519._base_mult(scalar), reference._scalar_mult(scalar, reference._BASE))
    assert _same_point(
        ed25519._scalar_mult(scalar, ed25519._BASE), reference._scalar_mult(scalar, reference._BASE)
    )
    point = reference.Ed25519PrivateKey(b"\x5a" * 32)._public_point
    assert _same_point(ed25519._scalar_mult(scalar, point), reference._scalar_mult(scalar, point))
    # Off the prime-order subgroup: a torsion component must survive too.
    mixed = reference._point_add(point, _SMALL_ORDER[1])
    assert _same_point(ed25519._scalar_mult(scalar, mixed), reference._scalar_mult(scalar, mixed))


@settings(max_examples=25, deadline=None)
@given(
    scalar=st.integers(0, 2**256 - 1),
    wide=st.integers(0, 2**300),
    secret=_KEYS,
    torsion=st.integers(0, 7),
)
def test_scalar_mult_random(scalar, wide, secret, torsion):
    base = reference._scalar_mult(scalar, reference._BASE)
    assert _same_point(ed25519._base_mult(scalar), base)
    assert _same_point(ed25519._scalar_mult(scalar, ed25519._BASE), base)
    point = reference._point_add(
        reference.Ed25519PrivateKey(secret)._public_point, _SMALL_ORDER[torsion]
    )
    # ``_scalar_mult`` keeps its meaning for scalars of any size.
    for k in (scalar, wide):
        assert _same_point(ed25519._scalar_mult(k, point), reference._scalar_mult(k, point))
    assert ed25519._points_equal(
        ed25519._point_double(point, 3), reference._scalar_mult(8, point)
    )


def test_base_mult_refuses_a_scalar_the_table_cannot_hold():
    with pytest.raises(IndexError):
        ed25519._base_mult(2**256)


@settings(max_examples=40, deadline=None)
@given(scalar=_KEYS, u=_KEYS)
def test_x25519_random(scalar, u):
    assert x25519.x25519(scalar, u) == reference.x25519(scalar, u)
    new, old = x25519.X25519PrivateKey(scalar), reference.X25519PrivateKey(scalar)
    # The Edwards fixed-base path against the 255-step ladder on u = 9.
    assert new.public_key().public_bytes() == old.public_key().public_bytes()
    assert _outcome(lambda: new.exchange(x25519.X25519PublicKey(u))) == _outcome(
        lambda: old.exchange(reference.X25519PublicKey(u))
    )


@pytest.mark.parametrize(
    "scalar",
    [bytes(32), b"\xff" * 32, bytes(range(32)), b"\x01" + bytes(31), _L.to_bytes(32, "little")],
    ids=lambda s: s.hex()[:8],
)
def test_x25519_public_key_scalar_edges(scalar):
    assert (
        x25519.X25519PrivateKey(scalar).public_key().public_bytes()
        == reference.X25519PrivateKey(scalar).public_key().public_bytes()
    )


@pytest.mark.parametrize("u", _LOW_ORDER_U + [2, 2**255 - 1], ids=lambda u: hex(u)[:12])
def test_x25519_low_order_and_edge_points(u):
    point = u.to_bytes(32, "little")
    for scalar in (bytes(range(32)), b"\xff" * 32):
        assert x25519.x25519(scalar, point) == reference.x25519(scalar, point)
        assert _outcome(
            lambda: x25519.X25519PrivateKey(scalar).exchange(x25519.X25519PublicKey(point))
        ) == _outcome(
            lambda: reference.X25519PrivateKey(scalar).exchange(reference.X25519PublicKey(point))
        )


@pytest.mark.parametrize("length", [0, 31, 33, 64])
def test_length_checks_are_the_same(length):
    blob = bytes(length)
    for new, old in (
        (lambda: ed25519.Ed25519PrivateKey(blob), lambda: reference.Ed25519PrivateKey(blob)),
        (lambda: ed25519.Ed25519PublicKey(blob), lambda: reference.Ed25519PublicKey(blob)),
        (lambda: ed25519._decompress(blob), lambda: reference._decompress(blob)),
        (lambda: x25519.X25519PrivateKey(blob), lambda: reference.X25519PrivateKey(blob)),
        (lambda: x25519.X25519PublicKey(blob), lambda: reference.X25519PublicKey(blob)),
        (lambda: x25519.x25519(blob, bytes(32)), lambda: reference.x25519(blob, bytes(32))),
        (lambda: x25519.x25519(bytes(32), blob), lambda: reference.x25519(bytes(32), blob)),
    ):
        assert _outcome(new)[:1] != ("ok",) and _outcome(new) == _outcome(old)
