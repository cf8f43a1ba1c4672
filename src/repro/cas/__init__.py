"""CAS: the Configuration and Remote Attestation Service (§3.3.2, §4.3).

CAS replaces the WAN-bound Intel Attestation Service with a service on
the local cluster, itself running inside an enclave.  It:

- verifies enclave quotes locally (<1 ms vs ~280 ms — Fig. 4),
- evaluates user-registered *policies* (which measurements may receive
  which secrets, whether simulation-mode quotes are acceptable),
- provisions secrets — file-system-shield keys, TLS identities generated
  inside CAS so "no human ever sees them" (§7.3), application config —
  encrypted to a key the attested enclave proved possession of (the
  X25519 public key bound into the quote's report data),
- stores everything in an encrypted embedded database protected against
  rollback by a hardware monotonic counter, and
- runs the freshness **audit service** that gives the file-system shield
  distributed rollback protection (§3.3.2).
"""

from repro.cas.secrets_db import HardwareCounter, SecretsDatabase, TwoSlotSealedStore
from repro.cas.policy import Policy, PolicyEngine
from repro.cas.audit import AuditCheckpoint, AuditRecord, FreshnessAuditService
from repro.cas.keys import KeyManager, ProvisionedIdentity
from repro.cas.service import CasService, ProvisionBundle
from repro.cas.client import RemoteCasClient
from repro.cas.failover import CasPairStats, ReplicatedCasPair

__all__ = [
    "HardwareCounter",
    "SecretsDatabase",
    "TwoSlotSealedStore",
    "Policy",
    "PolicyEngine",
    "FreshnessAuditService",
    "AuditCheckpoint",
    "AuditRecord",
    "KeyManager",
    "ProvisionedIdentity",
    "CasService",
    "ProvisionBundle",
    "RemoteCasClient",
    "CasPairStats",
    "ReplicatedCasPair",
]
