"""The encrypted embedded secrets database (paper: SQLite-in-enclave).

CAS stores keys, certificates, and policies in an embedded database that
is itself encrypted and runs inside the CAS enclave (§4.3).  Its file is
an ordinary protected file of the CAS runtime's file-system shield
(:mod:`repro.cas.service`): the shield encrypts it under a key only the
CAS enclave on its own CPU can derive, and its journaled commit leaves
the file at exactly the old or the new snapshot whatever the host tears
or kills.  What the shield cannot give is freshness across a disk-image
restore — its file versions come from the node's own (untrusted)
storage — so every snapshot carries its version, bound to a **hardware
monotonic counter**, and replaying an old snapshot is detected at load
time.

Crash consistency: writing a snapshot and bumping the counter are two
operations, and CAS can die between them.  The protocol is therefore
*write first, bump last*: a snapshot carries ``counter + 1``, is
persisted, and only then is the counter incremented.  Load accepts
versions in ``{counter, counter + 1}`` — the latter is the
persisted-but-unacknowledged snapshot, which load *rolls forward* by
bumping the counter itself.  Any older version is a genuine rollback
and stays rejected.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.crypto import encoding
from repro.errors import FreshnessError, IntegrityError


class HardwareCounter:
    """A monotonic counter the adversary cannot roll back.

    Stands in for TPM NV counters / SGX monotonic counters: state lives
    "in hardware", outside the VFS an attacker can rewrite.

    A replicated CAS pair shares one counter object (a replicated
    monotonic-counter *service* in production — rollback protection
    across failover requires both instances to bind snapshots to the
    same counter).  A shared counter is a shared acceptor, so it can be
    **fenced**: when ``guard`` is attached (an
    :class:`~repro.cluster.epoch.EpochGuard`, duck-typed here to keep
    this module free of cluster imports), :meth:`increment` demands the
    caller's epoch and rejects a stale one with ``FencedError`` — the
    commit point of the write-first/bump-last protocol is exactly where a
    zombie primary must be stopped from double-issuing a counter value.
    """

    def __init__(self) -> None:
        self._value = 0
        #: Optional epoch guard over the increment (commit) operation.
        self.guard = None

    @property
    def value(self) -> int:
        return self._value

    def increment(self, epoch: "int | None" = None) -> int:
        if self.guard is not None:
            self.guard.check(epoch)
        self._value += 1
        return self._value


class SecretsDatabase:
    """An in-enclave key-value store with rollback-proof snapshots."""

    def __init__(self, counter: HardwareCounter) -> None:
        self._counter = counter
        self._records: Dict[str, bytes] = {}
        self._version = 0
        #: The owning CAS instance's epoch lease (set by the failover
        #: pair).  Its epoch is presented to the counter's guard at every
        #: commit-point increment, so a fenced zombie's acknowledgements
        #: are rejected by the shared counter service.
        self.lease = None

    # -- in-memory operations -------------------------------------------

    def put(self, key: str, value: bytes) -> None:
        self._records[key] = value

    def get(self, key: str) -> bytes:
        if key not in self._records:
            raise KeyError(f"no secret stored under {key!r}")
        return self._records[key]

    def contains(self, key: str) -> bool:
        return key in self._records

    def delete(self, key: str) -> None:
        if key not in self._records:
            raise KeyError(f"no secret stored under {key!r}")
        del self._records[key]

    def keys(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self._records if k.startswith(prefix))

    def __len__(self) -> int:
        return len(self._records)

    # -- persistence ------------------------------------------------------

    def snapshot(self) -> bytes:
        """The store as bytes for the caller to persist (in the clear:
        the file it goes into is what encrypts it).

        Carries ``counter + 1`` **without** bumping the counter — the
        caller must persist the snapshot and then call
        :meth:`acknowledge_persisted`.  (Bumping first would let a crash
        between the bump and the snapshot reaching disk leave every
        on-disk snapshot older than the counter, bricking the store.)
        """
        version = self._counter.value + 1
        return encoding.encode({"version": version, "records": dict(self._records)})

    def _lease_epoch(self) -> "int | None":
        return self.lease.epoch if self.lease is not None else None

    def acknowledge_persisted(self) -> int:
        """Bump the hardware counter after the snapshot is durable.

        The counter is the commit point: once bumped, every older
        snapshot is rejectable as a rollback.  A guarded (shared)
        counter rejects the bump when this instance's epoch is stale —
        the snapshot then never becomes authoritative.
        """
        self._version = self._counter.increment(self._lease_epoch())
        return self._version

    def load(self, snapshot: Optional[bytes]) -> int:
        """Load a snapshot; rejects a malformed one and rollback.

        Accepts versions ``counter`` (the acknowledged snapshot) and
        ``counter + 1`` (persisted, crashed before the acknowledgement
        bump) — the latter is rolled forward by bumping the counter now.
        Anything older is a rollback attack.  No snapshot at all (None)
        is the empty database of version 0: a fresh store while the
        counter is at 0, a rollback to empty past it.
        """
        version, records = 0, {}
        if snapshot is not None:
            try:
                payload = encoding.decode(snapshot)
            except IntegrityError as exc:
                raise IntegrityError("secrets database snapshot malformed") from exc
            if not isinstance(payload, dict) or "version" not in payload:
                raise IntegrityError("secrets database snapshot malformed")
            version, records = payload["version"], payload["records"]
        self._admit(version)
        self._records = dict(records)
        self._version = version
        return len(self._records)

    def _admit(self, version: int) -> None:
        """The rollback check: ``version`` must be the counter's value or
        the one after it, which rolls the counter forward."""
        if version == self._counter.value + 1:
            # Roll forward: the snapshot was durable, the ack bump was not.
            self._counter.increment(self._lease_epoch())
        elif version != self._counter.value:
            raise FreshnessError(
                f"secrets database rollback detected: snapshot version "
                f"{version}, hardware counter {self._counter.value}"
            )
