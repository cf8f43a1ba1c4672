"""Constant-time tag comparison.

Tag comparison must not leak *where* two MACs diverge: an early-exit
``==`` lets a byte-at-a-time forgery attack time its way to a valid tag.
Every tag check verifies through this one helper so the property is
enforced in a single place.
"""

from __future__ import annotations


def ct_eq(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on mismatch."""
    if len(a) != len(b):
        return False
    result = 0
    for x, y in zip(a, b):
        result |= x ^ y
    return result == 0
