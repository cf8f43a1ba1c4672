"""CAS high availability: primary/backup replication + failover.

CAS is the root of the paper's trust story — and therefore its single
point of failure: if the node running CAS dies, no enclave can be
provisioned and every freshness check stalls.  This module pairs two
CAS instances on *different* nodes:

- **Logical replication.**  Sealed blobs cannot cross nodes (the sealing
  key is derived from the CPU's fused root, §4.3), so the pair mirrors
  *operations*, not snapshots: every policy registration and every audit
  record is pushed to the standby over the simulated network, and the
  primary only treats a mutation as committed once the standby has
  acknowledged it (quorum 2/2).  The standby applies records through its
  own hash chain, so after any prefix of replication both heads agree.
- **Promotion.**  Failover re-registers the standby's public CAS server
  at the primary's well-known address.  A ``RemoteCasClient`` with a
  retry policy sees transport errors while the address is vacant, backs
  off, and transparently reaches the promoted standby — which serves the
  same policies, the same session fs-keys, and a byte-identical audit
  chain.
- **Shared trust root.**  The pair shares its CA identity (exchanged at
  pairing time over an attested channel in production), so certificates
  issued before the failover keep verifying after it.

The orchestrator supervises the pair like any service: a probe checks
the well-known address is served, and the recovery action is
:meth:`ReplicatedCasPair.promote`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro._sim.scheduler import Activity
from repro.cas.client import serve_cas
from repro.cas.service import CasService
from repro.cluster.epoch import EpochLease, EpochService
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.retry import RetryPolicy
from repro.cluster.rpc import RpcClient, RpcServer
from repro.crypto import encoding
from repro.errors import RpcError

#: Epoch role name for the CAS pair's leader.
CAS_PRIMARY_ROLE = "cas-primary"


@dataclass
class CasPairStats:
    """Replication/failover counters (surfaced via collect_metrics)."""

    ops_replicated: int = 0      # policy registrations mirrored
    records_replicated: int = 0  # audit records mirrored
    quorum_acks: int = 0         # standby acknowledgements received
    failovers: int = 0           # promotions performed
    epochs_replicated: int = 0   # epoch records double-written


class ReplicatedCasPair:
    """Two CAS instances, one address, quorum-acked replication."""

    def __init__(
        self,
        network: Network,
        primary: CasService,
        backup: CasService,
        address: str = "cas",
        backup_address: str = "cas-backup",
        retry: Optional[RetryPolicy] = None,
        epochs: Optional[EpochService] = None,
    ) -> None:
        if primary.node is backup.node:
            raise RpcError("a CAS pair must span two nodes to survive one")
        self.network = network
        self.primary = primary
        self.backup = backup
        self.address = address
        self.backup_address = backup_address
        self.stats = CasPairStats()
        #: The instance currently serving the well-known address.
        self.active = primary
        #: Epoch authority (None = fencing off, the pre-fencing plane).
        self._epochs = epochs
        #: The active instance's leadership lease.
        self.lease: Optional[EpochLease] = None
        self._probe_client: Optional[RpcClient] = None

        # Shared trust root (see module docstring): certificates issued
        # by either instance verify against the one CA.
        backup.keys.ca = primary.keys.ca

        # The standby's replication endpoint (internal address).
        self._backup_server = RpcServer(network, backup_address, backup.node)
        self._backup_server.register("repl_policy", self._handle_repl_policy)
        self._backup_server.register("repl_audit", self._handle_repl_audit)
        self._backup_server.start()

        self._repl_client = RpcClient(
            network,
            f"cas-repl@{primary.node.node_id}",
            primary.node,
            retry=retry,
        )

        primary.replicator = self._replicate_op
        primary.audit.add_commit_hook(self._replicate_record)

        if epochs is not None:
            # Grant the founding lease and enroll every acceptor the
            # primary's writes flow through: the standby's replication
            # endpoint (require=True — it only ever serves a fenced
            # leader) and, when the pair shares one monotonic-counter
            # service, the counter's commit-point increment.
            self.lease = epochs.grant(CAS_PRIMARY_ROLE, holder=address)
            primary.set_lease(self.lease)
            self._repl_client.fence = self.lease
            self._backup_server.add_guard(
                epochs.make_guard(
                    CAS_PRIMARY_ROLE, name=backup_address, require=True
                )
            )
            if primary.counter is backup.counter:
                primary.counter.guard = epochs.make_guard(
                    CAS_PRIMARY_ROLE, name="hw-counter"
                )

        # The primary's public CAS API at the well-known address.
        self.primary_server = serve_cas(network, primary, address=address)
        self.backup_public_server: Optional[RpcServer] = None

    # -- primary-side replication ----------------------------------------

    def _quorum(self, method: str, payload: bytes) -> Activity:
        """Push one mutation to the standby; the ack completes the quorum
        (primary + standby = 2/2).  Raises RpcError when the standby is
        unreachable — an unreplicated mutation is not committed."""
        reply = yield from self._repl_client.request(self.backup_address, method, payload)
        if reply != b"ok":
            raise RpcError(f"standby rejected {method}: {reply!r}")
        self.stats.quorum_acks += 1

    def _replicate_op(self, op: str, payload: dict) -> None:
        if op != "register_policy":
            raise RpcError(f"unknown replicated operation {op!r}")
        self.network.scheduler.drive(
            self._quorum("repl_policy", encoding.encode(payload))
        )
        self.stats.ops_replicated += 1

    def _replicate_record(self, record) -> None:
        """Commit hook (commits made outside the simulation)."""
        payload = {
            "owner": record.owner,
            "path": record.path,
            "version": record.version,
            "digest": record.digest,
        }
        self.network.scheduler.drive(
            self._quorum("repl_audit", encoding.encode(payload))
        )
        self.stats.records_replicated += 1

    # -- standby-side apply ----------------------------------------------

    def _handle_repl_policy(self, payload: bytes, peer) -> bytes:
        body = encoding.decode(payload)
        self.backup.apply_replicated_policy(
            body["policy"], dict(body["secrets"]), body["fs_key"]
        )
        return b"ok"

    def _handle_repl_audit(self, payload: bytes, peer) -> bytes:
        body = encoding.decode(payload)
        self.backup.audit.commit(
            body["owner"], body["path"], body["version"], body["digest"]
        )
        return b"ok"

    # -- control-plane records ---------------------------------------------

    def put_control_record(self, key: str, value: bytes) -> None:
        """Write a control-plane record into *both* instances' databases.

        Epoch records take this administrative path, not the primary's
        replication stream: the epoch authority lives with the
        orchestrator (which has a channel to each instance), and a bump
        during failover — exactly when the record matters most — must
        not depend on primary→standby reachability.  Double-writing from
        the control plane keeps the registry on whichever replica
        survives (in memory, until that instance's next ``persist()``).
        """
        self.primary.db.put(key, value)
        self.backup.db.put(key, value)
        self.stats.epochs_replicated += 1

    # -- failure + promotion ----------------------------------------------

    def fail_primary(self) -> None:
        """Crash the primary's public endpoint (chaos injection)."""
        self.primary_server.abort()
        # A dead primary stops replicating; the hook dies with it.
        self.primary.replicator = None

    def attach_probe(self, node: Node) -> None:
        """Probe the pair by RPC ping from ``node`` instead of by
        registration.  Registration-based probing cannot see chaos-plane
        partitions: a one-way-partitioned zombie primary stays
        registered while being unreachable, so the watchdog never fails
        over.  The ping client deliberately has **no retry policy** —
        one attempt, one verdict — because the watchdog's recurring
        probe events are the retry loop."""
        self._probe_client = RpcClient(
            self.network, f"cas-probe@{node.node_id}", node
        )

    def probe(self) -> bool:
        """Is the well-known CAS address serving (reachably)?"""
        if self._probe_client is None:
            return self.network.is_registered(self.address)
        try:
            return self._probe_client.call(self.address, "ping", b"") == b"ok"
        except RpcError:
            return False

    def promote(self) -> None:
        """Serve the standby at the well-known address (failover).

        Idempotent: promoting an already-active (or healthy) pair is a
        no-op, so the orchestrator's watchdog can call this
        unconditionally.

        With an epoch authority attached, promotion is **fence first**:
        the ``cas-primary`` epoch is bumped (advancing the standby's
        replication guard and the shared counter's guard) *before* the
        standby serves a single request, so there is no window in which
        both instances hold committable authority — anything the old
        primary still sends carries a dead epoch.  The address claim is
        a VIP flip: a zombie still registered at the well-known address
        on the wrong side of a partition is unregistered, exactly as a
        floating IP moves regardless of the old holder's opinion.
        """
        if self.active is self.backup:
            return
        if self.probe():
            return
        if self._epochs is not None:
            self.lease = self._epochs.grant(
                CAS_PRIMARY_ROLE, holder=self.backup_address
            )
            self.backup.set_lease(self.lease)
        if self.network.is_registered(self.address):
            # VIP flip (see docstring): reclaim the address from the
            # partitioned-but-alive previous holder.
            self.network.unregister(self.address)
        self.backup_public_server = serve_cas(
            self.network, self.backup, address=self.address
        )
        self.active = self.backup
        self.stats.failovers += 1


__all__ = ["CAS_PRIMARY_ROLE", "CasPairStats", "ReplicatedCasPair"]
