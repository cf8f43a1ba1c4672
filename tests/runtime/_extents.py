"""Adversary's view of the journaled layout, for tests that damage it.

A generation is one extent per replica: the protected chunks back to
back.  The offsets here are derived from the stored manifest on their
own — not through the shield — so a test that damages "chunk 2" also
pins where the shield must look for it.
"""

from repro.crypto import encoding
from repro.runtime.fs_shield import CHUNK_MARKER

#: Bytes protection adds to a chunk: AEAD tag / keyed SHA-256 prefix.
OVERHEAD = {"encrypt": 16, "authenticate": 32}


def extent_path(path, version, replica):
    return f"{path}{CHUNK_MARKER}{version}.0.{replica}"


def chunk_slot(vfs, path, index):
    """``(start, stop)`` of chunk ``index`` inside every extent of the
    generation whose manifest is live at ``path``."""
    body = encoding.decode(encoding.decode(vfs.read(path).content)["body"])
    assert 0 <= index < body["n_chunks"]
    step, overhead = body["chunk_size"], OVERHEAD[body["policy"]]
    start = index * (step + overhead)
    return start, start + min(step, body["plaintext_size"] - index * step) + overhead


def damage_chunk(vfs, path, version, index, replica):
    """Flip one byte inside chunk ``index`` of one replica's extent (the
    OS rots or forges it at rest); returns the extent's path."""
    start, stop = chunk_slot(vfs, path, index)
    extent = extent_path(path, version, replica)
    raw = bytearray(vfs.read(extent).content)
    raw[(start + stop) // 2] ^= 0x01
    vfs.tamper(extent, bytes(raw))
    return extent
