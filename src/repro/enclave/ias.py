"""Intel Attestation Service (IAS) simulator — the Fig. 4 baseline.

The traditional SGX attestation flow uploads each quote to Intel's
hosted service over the WAN and waits for a signed verification report.
The paper measures ~280 ms for this verification step and ~325 ms for
attestation end-to-end, versus <1 ms / ~17 ms with the local CAS.

Verification logic is identical to CAS's (:class:`AttestationVerifier`);
the difference — and the entire point — is the two WAN round trips
(submit + report retrieval) plus backend processing charged here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._sim import probe
from repro._sim.clock import SimClock
from repro.crypto.ed25519 import Ed25519PublicKey
from repro.enclave.attestation import AttestationVerifier, Quote, Report
from repro.enclave.cost_model import CostModel
from repro.errors import AttestationError


@dataclass
class IasStats:
    requests: int = 0
    rejected: int = 0


class IntelAttestationService:
    """WAN-hosted quote verification."""

    def __init__(
        self,
        provisioning_root: Ed25519PublicKey,
        cost_model: CostModel,
        clock: SimClock,
    ) -> None:
        self._verifier = AttestationVerifier(provisioning_root)
        self._model = cost_model
        self._clock = clock
        self.stats = IasStats()

    def verify_quote(self, quote: Quote, accept_debug: bool = False) -> Report:
        """Submit a quote for verification over the WAN.

        Charges: one WAN round trip to submit the quote and receive the
        attestation verification report, one further round trip for the
        report-signing certificate chain fetch (the EPID flow's second
        exchange), plus backend processing.
        """
        self.stats.requests += 1
        wan_time = 2 * self._model.wan_rtt + self._quote_transfer_time(quote)
        backend = self._model.ias_backend_cost + self._model.quote_verification_cost
        duration = wan_time + backend
        with probe.span(self._clock, "ias.verification", category="attestation"):
            self._clock.advance(duration)
        try:
            return self._verifier.verify(quote, accept_debug=accept_debug)
        except AttestationError:
            self.stats.rejected += 1
            raise

    def _quote_transfer_time(self, quote: Quote) -> float:
        return len(quote.to_bytes()) / self._model.wan_bandwidth
