"""The freshness audit service: distributed rollback protection.

The file-system shield detects *tampering* by itself (AEAD), but an
attacker who snapshots an encrypted file and later restores it replays
perfectly valid ciphertext.  The paper's answer (§3.3.2) is an auditing
service inside CAS that tracks every protected file's latest committed
version; enclaves verify against it on read.

The log is a hash chain: every commit links to the previous record's
digest, so even an attacker who somehow rewrote an entry would break
every subsequent link — tests assert this tamper evidence.

An append-only chain grows without bound, so CAS periodically signs a
**checkpoint** — (sequence, head) under its Ed25519 root — after which
everything before the checkpoint can be truncated: the signed head pins
the entire truncated prefix, so rewriting history still breaks the
chain rooted at the checkpoint.  Commit hooks let a standby CAS mirror
the log record-by-record (the replication channel of
:mod:`repro.cas.failover`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto import encoding
from repro.crypto.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from repro.errors import FreshnessError


@dataclass(frozen=True)
class AuditRecord:
    """One committed file version in the hash-chained log."""

    sequence: int
    owner: str
    path: str
    version: int
    digest: bytes
    previous: bytes  # digest of the previous record

    def record_digest(self) -> bytes:
        return hashlib.sha256(
            encoding.encode(
                {
                    "sequence": self.sequence,
                    "owner": self.owner,
                    "path": self.path,
                    "version": self.version,
                    "digest": self.digest,
                    "previous": self.previous,
                }
            )
        ).digest()


@dataclass(frozen=True)
class AuditCheckpoint:
    """A signed (sequence, head) pair pinning a log prefix.

    ``sequence`` is the number of records the checkpoint covers; ``head``
    is the chain head after the last covered record.  The signature is
    CAS's Ed25519 root over the canonical encoding, so a truncated
    prefix stays tamper-evident: any rewrite of retained records breaks
    the chain rooted at ``head``, and ``head`` itself cannot be forged.
    """

    sequence: int
    head: bytes
    signature: bytes

    def signed_payload(self) -> bytes:
        return encoding.encode({"sequence": self.sequence, "head": self.head})

    def verify(self, public_key: Ed25519PublicKey) -> None:
        public_key.verify(self.signature, self.signed_payload())


#: Called with each appended record (replication / metrics fan-out).
CommitHook = Callable[[AuditRecord], None]


class FreshnessAuditService:
    """Tracks latest committed versions; append-only hash-chained log."""

    def __init__(self) -> None:
        self._log: List[AuditRecord] = []
        self._latest: Dict[Tuple[str, str], AuditRecord] = {}
        self._head = b"\x00" * 32
        #: Chain state at the truncation boundary: records before
        #: ``_base_sequence`` were dropped, ``_base_head`` (from a signed
        #: checkpoint) is the head they chained up to.
        self._base_sequence = 0
        self._base_head = b"\x00" * 32
        self._checkpoints: List[AuditCheckpoint] = []
        self._commit_hooks: List[CommitHook] = []

    # ------------------------------------------------------------------

    def add_commit_hook(self, hook: CommitHook) -> None:
        """Fan each appended record out (e.g. to a standby replica)."""
        self._commit_hooks.append(hook)

    def commit(self, owner: str, path: str, version: int, digest: bytes) -> AuditRecord:
        """Record a new file version (versions must be strictly monotonic)
        and fan it out to the commit hooks."""
        key = (owner, path)
        current = self._latest.get(key)
        if current is not None and version <= current.version:
            raise FreshnessError(
                f"non-monotonic commit for {owner}:{path}: version {version} "
                f"after {current.version}"
            )
        record = AuditRecord(
            sequence=self._base_sequence + len(self._log),
            owner=owner,
            path=path,
            version=version,
            digest=digest,
            previous=self._head,
        )
        self._log.append(record)
        self._latest[key] = record
        self._head = record.record_digest()
        for hook in self._commit_hooks:
            hook(record)
        return record

    def verify(self, owner: str, path: str, version: int, digest: bytes) -> None:
        """Check that (version, digest) is the latest committed state."""
        record = self._latest.get((owner, path))
        if record is None:
            raise FreshnessError(f"no committed state for {owner}:{path}")
        if version != record.version or digest != record.digest:
            raise FreshnessError(
                f"stale state for {owner}:{path}: presented version {version}, "
                f"latest committed {record.version} (rollback attack?)"
            )

    def latest(self, owner: str, path: str) -> Optional[AuditRecord]:
        return self._latest.get((owner, path))

    # ------------------------------------------------------------------

    @property
    def log(self) -> List[AuditRecord]:
        return list(self._log)

    @property
    def head(self) -> bytes:
        return self._head

    def verify_chain(self, public_key: Optional[Ed25519PublicKey] = None) -> None:
        """Walk the retained log checking every hash link (and, given the
        CAS root key, every checkpoint signature)."""
        if public_key is not None:
            for checkpoint in self._checkpoints:
                checkpoint.verify(public_key)
        head = self._base_head
        for offset, record in enumerate(self._log):
            index = self._base_sequence + offset
            if record.previous != head:
                raise FreshnessError(
                    f"audit log chain broken at sequence {index}"
                )
            if record.sequence != index:
                raise FreshnessError(
                    f"audit log sequence gap at {index} (found {record.sequence})"
                )
            head = record.record_digest()
        for checkpoint in self._checkpoints:
            if checkpoint.sequence == self._base_sequence + len(self._log):
                if checkpoint.head != head:
                    raise FreshnessError(
                        "audit log head diverges from its checkpoint"
                    )

    # -- bounded growth: signed checkpoints + truncation -----------------

    def checkpoint(self, signing_key: Ed25519PrivateKey) -> AuditCheckpoint:
        """Sign the current (sequence, head); enables truncating history."""
        sequence = self._base_sequence + len(self._log)
        payload = encoding.encode({"sequence": sequence, "head": self._head})
        checkpoint = AuditCheckpoint(
            sequence=sequence,
            head=self._head,
            signature=signing_key.sign(payload),
        )
        self._checkpoints.append(checkpoint)
        return checkpoint

    def truncate(self) -> int:
        """Drop every record covered by the newest checkpoint.

        The per-file ``latest`` index (what :meth:`verify` consults) is
        untouched — truncation bounds the *history*, not the protection.
        Returns the number of records dropped.
        """
        if not self._checkpoints:
            raise FreshnessError("cannot truncate an uncheckpointed audit log")
        checkpoint = self._checkpoints[-1]
        keep_from = checkpoint.sequence - self._base_sequence
        dropped = self._log[:keep_from]
        self._log = self._log[keep_from:]
        self._base_sequence = checkpoint.sequence
        self._base_head = checkpoint.head
        return len(dropped)


class ScopedFreshnessTracker:
    """Adapter binding one owner to the audit service.

    Implements the file-system shield's ``FreshnessTracker`` protocol, so
    a shield constructed with this object gets CAS-backed, restart-proof
    rollback protection.
    """

    def __init__(self, service: FreshnessAuditService, owner: str) -> None:
        self._service = service
        self._owner = owner

    def commit(self, path: str, version: int, digest: bytes) -> None:
        self._service.commit(self._owner, path, version, digest)

    def verify(self, path: str, version: int, digest: bytes) -> None:
        self._service.verify(self._owner, path, version, digest)
