"""Enclave lifecycle: CPUs, images, measurement, sealing, transitions.

An :class:`SgxCpu` models one physical processor: it owns the EPC shared
by all of its enclaves, a hardware attestation key certified by the
provisioning authority, and a sealing root key.  :class:`Enclave` models
one measured enclave instance built from an :class:`EnclaveImage`.

Measurement is real: MRENCLAVE is a SHA-256 over the canonical encoding
of all image segments (EADD/EEXTEND analogue), so two images differing
in a single byte of code or configuration produce different measurements
and fail attestation policies — tests rely on this.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro.crypto import encoding
from repro.crypto.ed25519 import Ed25519PrivateKey
from repro.crypto.kdf import hkdf
from repro.enclave.attestation import ProvisioningAuthority, Quote, Report
from repro.enclave.cost_model import CostModel
from repro.enclave.epc import EpcCache
from repro.enclave.memory import EnclaveMemory
from repro.errors import EnclaveError


class SgxMode(enum.Enum):
    """Execution modes evaluated throughout the paper (§5.1)."""

    NATIVE = "native"  # no SCONE, no SGX — plain process
    SIM = "sim"        # SCONE runtime in simulation mode (no SGX hardware)
    HW = "hw"          # SCONE runtime inside a hardware enclave


@dataclass(frozen=True)
class Segment:
    """One measured segment of an enclave image.

    ``digest`` is the SHA-256 of the segment's real content.  ``size``
    may exceed ``len(content)`` for *declared-size* segments, which model
    the paper's large binaries/models without materializing the bytes —
    the measurement then covers (name, declared size, content digest),
    so any content change still changes MRENCLAVE.
    """

    name: str
    size: int
    digest: bytes
    kind: str = "data"  # "code" | "data"

    @classmethod
    def from_content(cls, name: str, content: bytes, kind: str = "data") -> "Segment":
        return cls(name=name, size=len(content), digest=hashlib.sha256(content).digest(), kind=kind)

    @classmethod
    def declared(
        cls, name: str, size: int, identity: bytes, kind: str = "data"
    ) -> "Segment":
        """A segment of declared ``size`` whose content is identified by
        ``identity`` (e.g. the hash of a model file)."""
        return cls(name=name, size=size, digest=hashlib.sha256(identity).digest(), kind=kind)


@dataclass(frozen=True)
class EnclaveImage:
    """A measured enclave image (binary + static data + configuration)."""

    name: str
    segments: List[Segment] = field(default_factory=list)
    heap_size: int = 64 * 1024 * 1024
    max_threads: int = 8

    def measurement(self) -> bytes:
        """MRENCLAVE analogue: SHA-256 over all segment descriptors."""
        payload = encoding.encode(
            {
                "name": self.name,
                "heap_size": self.heap_size,
                "max_threads": self.max_threads,
                "segments": [
                    {
                        "name": s.name,
                        "size": s.size,
                        "digest": s.digest,
                        "kind": s.kind,
                    }
                    for s in self.segments
                ],
            }
        )
        return hashlib.sha256(payload).digest()

    @property
    def static_size(self) -> int:
        return sum(segment.size for segment in self.segments)


class SgxCpu:
    """One physical CPU package: EPC, attestation key, sealing root."""

    def __init__(
        self,
        cpu_id: str,
        cost_model: CostModel,
        clock: SimClock,
        provisioning: ProvisioningAuthority,
        rng: DeterministicRng,
        epc_capacity_bytes: Optional[int] = None,
    ) -> None:
        self.cpu_id = cpu_id
        self.cost_model = cost_model
        self.clock = clock
        self.epc = EpcCache(
            cost_model,
            clock,
            capacity_bytes=epc_capacity_bytes,
            seed=rng.randint(0, 2**31),
        )
        self._attestation_key = Ed25519PrivateKey.generate(rng.random_bytes(32))
        self._attestation_cert = provisioning.certify_cpu(
            cpu_id, self._attestation_key.public_key().public_bytes()
        )
        self._sealing_root = rng.random_bytes(32)
        self._next_enclave_id = 1
        self._enclaves: Dict[int, "Enclave"] = {}
        self.transitions = 0
        self.ring_submissions = 0

    def create_enclave(self, image: EnclaveImage, mode: SgxMode) -> "Enclave":
        """Build, measure, and initialize an enclave from ``image``.

        In HW mode this charges ECREATE/EINIT plus EADD+EEXTEND for every
        page of the static image — which is why large images (Graphene's
        libOS, the full TensorFlow binary) pay a visible startup cost.
        """
        if mode is SgxMode.NATIVE:
            raise EnclaveError("NATIVE mode runs no enclave; do not create one")
        enclave_id = self._next_enclave_id
        self._next_enclave_id += 1

        if mode is SgxMode.HW:
            pages = -(-image.static_size // self.cost_model.page_size)
            self.clock.advance(
                self.cost_model.enclave_create_cost
                + pages * self.cost_model.eadd_eextend_cost_per_page
            )
            memory = EnclaveMemory(
                enclave_id, self.cost_model, self.clock, epc=self.epc
            )
        else:
            memory = EnclaveMemory(enclave_id, self.cost_model, self.clock, epc=None)

        for segment in image.segments:
            memory.alloc(segment.name, segment.size, kind=segment.kind)
        memory.alloc("heap", image.heap_size, kind="heap")

        enclave = Enclave(
            enclave_id=enclave_id,
            image=image,
            mode=mode,
            cpu=self,
            memory=memory,
        )
        self._enclaves[enclave_id] = enclave
        return enclave

    def destroy_enclave(self, enclave: "Enclave") -> None:
        self.epc.evict_enclave(enclave.enclave_id)
        self._enclaves.pop(enclave.enclave_id, None)

    def transition(self, asynchronous: bool = False) -> None:
        """Charge one enclave boundary crossing (ecall/ocall round trip)."""
        self.transitions += 1
        cost = (
            self.cost_model.async_syscall_cost
            if asynchronous
            else self.cost_model.sync_transition_cost
        )
        self.clock.advance(cost)

    def ring_submit(self, count: int = 1) -> None:
        """Charge writing ``count`` request slots into the shared-memory
        submission ring — an exit-less store into untrusted memory, *not*
        an enclave transition (SCONE §3.3.3's whole point)."""
        self.ring_submissions += count
        self.clock.advance(count * self.cost_model.ring_slot_cost)

    def sign_quote(self, report: Report) -> Quote:
        """Quoting-enclave analogue: sign a report with the CPU key."""
        self.clock.advance(self.cost_model.quote_generation_cost)
        signature = self._attestation_key.sign(report.to_bytes())
        return Quote(
            report=report,
            cpu_id=self.cpu_id,
            signature=signature,
            cpu_certificate=self._attestation_cert.to_bytes(),
        )

    def sealing_key(self, measurement: bytes) -> bytes:
        """MRENCLAVE-policy sealing key: CPU root × enclave measurement."""
        return hkdf(
            salt=measurement, ikm=self._sealing_root, info=b"sgx-seal", length=32
        )


class Enclave:
    """A measured enclave instance running on one CPU."""

    def __init__(
        self,
        enclave_id: int,
        image: EnclaveImage,
        mode: SgxMode,
        cpu: SgxCpu,
        memory: EnclaveMemory,
    ) -> None:
        self.enclave_id = enclave_id
        self.image = image
        self.mode = mode
        self.cpu = cpu
        self.memory = memory
        self._measurement = image.measurement()
        self._destroyed = False

    @property
    def measurement(self) -> bytes:
        return self._measurement

    def _check_alive(self) -> None:
        if self._destroyed:
            raise EnclaveError(f"enclave {self.image.name!r} has been destroyed")

    def create_report(self, report_data: bytes = b"") -> Report:
        """EREPORT analogue; ``report_data`` binds caller data (≤64 B)."""
        self._check_alive()
        if len(report_data) > 64:
            raise EnclaveError(f"report data limited to 64 bytes, got {len(report_data)}")
        return Report(
            measurement=self._measurement,
            attributes={"name": self.image.name, "mode": self.mode.value},
            report_data=report_data,
            debug=(self.mode is not SgxMode.HW),
        )

    def get_quote(self, report_data: bytes = b"") -> Quote:
        """Produce a CPU-signed quote over this enclave's report."""
        self._check_alive()
        return self.cpu.sign_quote(self.create_report(report_data))

    def destroy(self) -> None:
        if not self._destroyed:
            self._destroyed = True
            self.cpu.destroy_enclave(self)

    def __repr__(self) -> str:
        return (
            f"Enclave(id={self.enclave_id}, image={self.image.name!r}, "
            f"mode={self.mode.value}, footprint={self.memory.footprint})"
        )
