"""The CAS service: attest, evaluate policy, provision — inside an enclave.

Provisioning protocol (real cryptography end to end):

1. The joining enclave generates an X25519 keypair and binds the public
   key into its quote's report data (so possession of the private key is
   tied to the attested code identity).
2. CAS verifies the quote offline against the provisioning root
   (<1 ms — the whole Fig. 4 point), evaluates the session policy, and
   assembles the member's bundle: session fs-shield key, a TLS identity
   generated in-enclave, the trust root, and the session's secrets.
3. CAS performs ECDH against the quote-bound key with a fresh ephemeral
   key and returns the bundle sealed under the derived AEAD key — only
   the attested enclave can open it.

CAS state (policies, session keys, secrets) lives in the embedded
database, which CAS keeps in one protected file of its own runtime's
file-system shield (``DB_PATH``), under a key derived from the CAS
enclave's sealing key: the file opens only on the same CPU under the
same measurement.  Each :meth:`CasService.persist` is the shield's
journaled commit followed by the database's counter bump, and a CAS
built on a node whose disk holds its database recovers and loads it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cas.audit import FreshnessAuditService
from repro.cas.keys import KeyManager, ProvisionedIdentity
from repro.cas.policy import Policy, PolicyEngine
from repro.cas.secrets_db import HardwareCounter, SecretsDatabase
from repro.cluster.node import Node
from repro.crypto import encoding
from repro.crypto.aead import AeadKey
from repro.crypto.kdf import hkdf
from repro.crypto.x25519 import X25519PrivateKey, X25519PublicKey
from repro.enclave.attestation import AttestationVerifier, Quote
from repro.errors import AttestationError
from repro.runtime.fs_shield import PathRule, ShieldPolicy
from repro.runtime.scone import RuntimeConfig, SconeRuntime

#: The directory the CAS runtime's fs shield encrypts, and the one file
#: in it: the secrets database.
DB_DIR = "/cas/"
DB_PATH = DB_DIR + "secrets.db"


@dataclass(frozen=True)
class ProvisionBundle:
    """The sealed response to a provisioning request."""

    ephemeral_public: bytes
    sealed_identity: bytes

    def to_bytes(self) -> bytes:
        return encoding.encode(
            {
                "ephemeral_public": self.ephemeral_public,
                "sealed_identity": self.sealed_identity,
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProvisionBundle":
        payload = encoding.decode(data)
        return cls(
            ephemeral_public=payload["ephemeral_public"],
            sealed_identity=payload["sealed_identity"],
        )


def derive_provision_key(shared_secret: bytes, transcript: bytes) -> AeadKey:
    """HKDF the ECDH output into the bundle-sealing key."""
    key = hkdf(
        salt=b"securetf-cas-provision",
        ikm=shared_secret,
        info=transcript,
        length=32,
    )
    return AeadKey("chacha20-poly1305", key)


class CasService:
    """A CAS instance running in its own enclave on one node."""

    def __init__(
        self,
        node: Node,
        provisioning_root,
        counter: Optional[HardwareCounter] = None,
    ) -> None:
        self.node = node
        #: An ``EventTrace`` of verification and provisioning (Fig 4 bench).
        self._trace = None
        rng = node.rng.child("cas")
        # CAS has zero behaviour-controlling configuration (§4.3): the
        # enclave image is just the CAS binary.
        self._runtime = SconeRuntime(
            RuntimeConfig(
                name="cas",
                binary_size=6 * 1024 * 1024,  # slim Rust service binary
                heap_size=64 * 1024 * 1024,
                fs_rules=[PathRule(DB_DIR, ShieldPolicy.ENCRYPT)],
            ),
            node.vfs,
            node.cost_model,
            node.clock,
            cpu=node.cpu,
            rng=rng,
        )
        enclave = self._runtime.enclave
        assert enclave is not None
        self._enclave = enclave
        # The database's file key is bound to this CPU and this
        # measurement, as an SGX-sealed blob would be.  No freshness
        # tracker: the shield's versions come from this node's disk,
        # while the counter the snapshot carries may be shared by a pair.
        sealing_key = node.cpu.sealing_key(enclave.measurement)
        self._runtime.install_fs_key(
            hkdf(salt=b"securetf-cas-database", ikm=sealing_key, info=b"", length=32)
        )
        self.fs = self._runtime.fs
        self._counter = counter if counter is not None else HardwareCounter()
        self.db = SecretsDatabase(self._counter)
        self.policies = PolicyEngine()
        self.audit = FreshnessAuditService()
        self.keys = KeyManager(rng.child("keys"))
        self._verifier = AttestationVerifier(provisioning_root)
        self._rng = rng.child("provision")
        self._member_counters: Dict[str, int] = {}
        #: Replication hook: called with ``(op, payload)`` after every
        #: state mutation (installed by :mod:`repro.cas.failover`).
        self.replicator = None
        #: Leadership lease (an :class:`~repro.cluster.epoch.EpochLease`,
        #: installed by the failover pair when fencing is on).  Checked
        #: at every persist so a superseded instance cannot seal new
        #: state — the holder-side half of the fence, modelling the
        #: lease-expiry timer a real CAS runs locally.
        self.lease = None
        self._boot()

    # ------------------------------------------------------------------

    @property
    def counter(self) -> HardwareCounter:
        """The monotonic counter this instance binds snapshots to."""
        return self._counter

    def set_lease(self, lease) -> None:
        """Install (or replace) this instance's leadership lease.

        Propagated to the secrets database so the shared counter's
        guard sees the lease epoch at every commit-point increment.
        """
        self.lease = lease
        self.db.lease = lease

    def attest(self, report_data: bytes = b"") -> Quote:
        """A quote over the CAS enclave itself (users verify CAS first)."""
        return self._enclave.get_quote(report_data)

    @property
    def measurement(self) -> bytes:
        return self._enclave.measurement

    def trusted_root_bytes(self) -> bytes:
        return self.keys.trusted_root_bytes()

    # ------------------------------------------------------------------

    def register_policy(
        self, policy: Policy, secrets: Optional[Dict[str, bytes]] = None
    ) -> None:
        """Register a session policy and its secrets (data-owner action)."""
        self.policies.register(policy)
        for name, value in (secrets or {}).items():
            self.db.put(f"secret/{policy.session}/{name}", value)
        self.db.put(f"fs_key/{policy.session}", self.keys.new_symmetric_key())
        self.db.put(f"policy/{policy.session}", self._encode_policy(policy))
        self.persist()
        if self.replicator is not None:
            self.replicator(
                "register_policy",
                {
                    "policy": self._encode_policy(policy),
                    "secrets": dict(secrets or {}),
                    "fs_key": self.db.get(f"fs_key/{policy.session}"),
                },
            )

    def apply_replicated_policy(
        self, policy_bytes: bytes, secrets: Dict[str, bytes], fs_key: bytes
    ) -> None:
        """Install a policy replicated from the primary (standby side).

        Unlike :meth:`register_policy`, the fs-shield key is the
        *primary's* — enclaves re-provisioned after a failover must
        receive the same key or every shielded file becomes unreadable.
        """
        policy = self._decode_policy(policy_bytes)
        self.policies.register(policy)
        for name, value in secrets.items():
            self.db.put(f"secret/{policy.session}/{name}", value)
        self.db.put(f"fs_key/{policy.session}", fs_key)
        self.db.put(f"policy/{policy.session}", policy_bytes)
        self.persist()

    @staticmethod
    def _encode_policy(policy: Policy) -> bytes:
        return encoding.encode(
            {
                "session": policy.session,
                "allowed_measurements": list(policy.allowed_measurements),
                "secret_names": list(policy.secret_names),
                "accept_debug": policy.accept_debug,
                "max_members": policy.max_members,
            }
        )

    @staticmethod
    def _decode_policy(data: bytes) -> Policy:
        payload = encoding.decode(data)
        return Policy(
            session=payload["session"],
            allowed_measurements=list(payload["allowed_measurements"]),
            secret_names=list(payload["secret_names"]),
            accept_debug=payload["accept_debug"],
            max_members=payload["max_members"],
        )

    def persist(self) -> None:
        """Write the database through the shield's journaled commit, then
        acknowledge it on the counter (write first, bump last).

        With a lease installed, a superseded instance is stopped here:
        sealing new state after losing the leadership epoch is exactly
        the zombie write fencing exists to prevent.
        """
        if self.lease is not None:
            self.lease.check()
        self.fs.write_file(DB_PATH, self.db.snapshot())
        self.db.acknowledge_persisted()

    def _boot(self) -> None:
        """Mount-time recovery: roll an interrupted commit of the
        database back or keep it, load what survives and rebuild the
        policy engine from it.  A disk without a database loads as the
        empty one, which the counter refuses once it is past 0."""
        snapshot = None
        # Asked of the disk directly, so a fresh CAS boots in no
        # simulated time; whatever the host answers, the counter decides.
        if self.node.vfs.exists(DB_PATH):
            self.fs.recover(DB_DIR)
            snapshot = self.fs.read_file(DB_PATH)
        self.db.load(snapshot)
        for key in self.db.keys("policy/"):
            self.policies.register(self._decode_policy(self.db.get(key)))

    def owner_fs_key(self, session: str) -> bytes:
        """The session's fs-shield key, released to the *data owner*.

        In production this flows over the owner's attested TLS session to
        CAS (the owner trusts CAS after attesting it); the simulation
        returns it directly.  Owners need it to encrypt models/code they
        upload for the session's enclaves.
        """
        self.policies.get(session)  # raises PolicyError if unknown
        return self.db.get(f"fs_key/{session}")

    def provision(self, session: str, quote: Quote) -> ProvisionBundle:
        """Verify, admit, and provision one enclave into a session."""
        policy = self.policies.get(session)
        with self._span("cas.verification"):
            self.node.clock.advance(self.node.cost_model.quote_verification_cost)
            report = self._verifier.verify(quote, accept_debug=policy.accept_debug)
        self.policies.evaluate(session, report)

        if len(report.report_data) != 32:
            raise AttestationError(
                "provisioning requires a 32-byte X25519 key in report data"
            )

        with self._span("cas.provisioning"):
            self.node.clock.advance(self.node.cost_model.secret_provisioning_cost)
            member_index = self._member_counters.get(session, 0)
            self._member_counters[session] = member_index + 1
            subject = f"{session}/{report.attributes.get('name', 'member')}-{member_index}"

            signing_key, certificate = self.keys.new_tls_identity(
                subject, now=self.node.clock.now
            )
            secrets = {
                name.rsplit("/", 1)[1]: self.db.get(name)
                for name in self.db.keys(f"secret/{session}/")
            }
            identity = ProvisionedIdentity(
                session=session,
                fs_key=self.db.get(f"fs_key/{session}"),
                tls_signing_key=signing_key,
                tls_certificate=certificate,
                trusted_root=self.keys.trusted_root_bytes(),
                secrets=secrets,
            )

            ephemeral = X25519PrivateKey.generate(self._rng.random_bytes(32))
            shared = ephemeral.exchange(X25519PublicKey(report.report_data))
            transcript = report.measurement + report.report_data
            sealer = derive_provision_key(shared, transcript)
            return ProvisionBundle(
                ephemeral_public=ephemeral.public_key().public_bytes(),
                sealed_identity=sealer.seal(identity.to_bytes()),
            )

    # ------------------------------------------------------------------

    def _span(self, name: str):
        if self._trace is not None:
            return self._trace.span(name)
        return contextlib.nullcontext()
