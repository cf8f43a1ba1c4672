"""Client side of CAS provisioning, over the simulated network.

The joining enclave's half of the protocol described in
:mod:`repro.cas.service`: generate the quote-bound X25519 key, attest,
send the quote, unseal the bundle.  ``RemoteCasClient`` goes through the
simulated network, charging LAN latency — the realistic Fig. 4
configuration.
"""

from __future__ import annotations

from typing import Optional

from repro._sim import probe
from repro._sim.scheduler import Activity
from repro.cas.keys import ProvisionedIdentity
from repro.cas.service import CasService, ProvisionBundle, derive_provision_key
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.retry import RetryPolicy
from repro.cluster.rpc import RpcClient, RpcServer
from repro.crypto import encoding
from repro.crypto.x25519 import X25519PrivateKey, X25519PublicKey
from repro.enclave.attestation import Quote
from repro.errors import AttestationError
from repro.runtime.scone import SconeRuntime


class RemoteCasClient:
    """Provisioning over the simulated LAN (charges network latency)."""

    def __init__(
        self,
        network: Network,
        node: Node,
        cas_address: str,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._network = network
        self._node = node
        self._cas_address = cas_address
        self._retry = retry

    def provisioning(self, runtime: SconeRuntime, session: str) -> Activity:
        """Keygen -> quote -> ``provision`` RPC -> unseal, as an activity
        returning the :class:`ProvisionedIdentity`."""
        client = RpcClient(
            self._network,
            f"cas-client@{self._node.node_id}",
            self._node,
            retry=self._retry,
        )
        with probe.span(
            runtime.clock,
            "attestation.provision",
            category="attestation",
            attrs={"session": session},
        ):
            exchange_key = X25519PrivateKey.generate(
                runtime.rng.child("cas-exchange").random_bytes(32)
            )
            public = exchange_key.public_key().public_bytes()
            with probe.span(runtime.clock, "quote.generation", category="attestation"):
                quote = runtime.attest(report_data=public)

            payload = encoding.encode({"session": session, "quote": quote.to_bytes()})
            with probe.span(runtime.clock, "key.transfer", category="attestation"):
                raw = yield from client.request(self._cas_address, "provision", payload)
            bundle = ProvisionBundle.from_bytes(raw)

            shared = exchange_key.exchange(X25519PublicKey(bundle.ephemeral_public))
            opener = derive_provision_key(shared, quote.report.measurement + public)
            identity = ProvisionedIdentity.from_bytes(
                opener.open(bundle.sealed_identity)
            )
            if identity.session != session:
                raise AttestationError(
                    f"CAS provisioned session {identity.session!r}, "
                    f"requested {session!r}"
                )
            return identity

    def provision(self, runtime: SconeRuntime, session: str) -> ProvisionedIdentity:
        """:meth:`provisioning`, driven — for synchronous code outside the
        simulation."""
        return self._network.scheduler.drive(self.provisioning(runtime, session))


def serve_cas(network: Network, service: CasService, address: str = "cas") -> RpcServer:
    """Expose a CAS service on the network (provision + liveness ping)."""
    server = RpcServer(network, address, service.node)

    def handle_provision(payload: bytes, peer) -> bytes:
        body = encoding.decode(payload)
        quote = Quote.from_bytes(body["quote"])
        return service.provision(body["session"], quote).to_bytes()

    def handle_ping(payload: bytes, peer) -> bytes:
        # Liveness probe for partition-aware supervision: a reply proves
        # the endpoint is reachable *through the network*, which
        # registration alone cannot (a one-way-partitioned zombie stays
        # registered while its replies vanish).
        return b"ok"

    server.register("provision", handle_provision)
    server.register("ping", handle_ping)
    server.start()
    return server
