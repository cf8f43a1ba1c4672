"""Adversary's view of the storage layout, for tests that damage it.

A generation is one extent per replica: the protected chunks back to
back.  The offsets here are derived from the stored manifest on their
own — not through the shield — so a test that damages "chunk 2" also
pins where the shield must look for it.
"""

import hashlib

from repro.crypto import encoding
from repro.runtime.fs_shield import CHUNK_MARKER

#: Bytes protection adds to a chunk: AEAD tag / keyed SHA-256 prefix.
OVERHEAD = {"encrypt": 16, "authenticate": 32}


def extent_path(path, version, replica):
    return f"{path}{CHUNK_MARKER}{version}.0.{replica}"


def manifest_body(vfs, path):
    """The body of the manifest live at ``path``, unauthenticated."""
    return encoding.decode(encoding.decode(vfs.read(path).content)["body"])


def chunk_slot(vfs, path, index):
    """``(start, stop)`` of chunk ``index`` inside every extent of the
    generation whose manifest is live at ``path``."""
    body = manifest_body(vfs, path)
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


def stored_chunks(vfs, path, replica=0):
    """Every protected chunk of one replica of the live generation."""
    body = manifest_body(vfs, path)
    extent = vfs.read(extent_path(path, body["version"], replica)).content
    return [extent[slice(*chunk_slot(vfs, path, i))] for i in range(body["n_chunks"])]


def plant(vfs, path, chunks, mac=None, **fields):
    """Store ``chunks`` back to back as every replica of the live
    generation.  With ``mac`` (the shield's ``_manifest_mac``) the
    manifest is re-issued over their digests and ``fields`` and still
    authenticates — an attacker the manifest does not stop, so what
    refuses the chunks is their own AEAD tag or keyed digest."""
    body = manifest_body(vfs, path)
    for replica in range(body["replicas"]):
        vfs.tamper(extent_path(path, body["version"], replica), b"".join(chunks))
    if mac is not None:
        body.update(
            fields,
            n_chunks=len(chunks),
            chunk_digests=[hashlib.sha256(chunk).digest() for chunk in chunks],
        )
        body_bytes = encoding.encode(body)
        vfs.tamper(path, encoding.encode({"body": body_bytes, "mac": mac(path, body_bytes)}))
