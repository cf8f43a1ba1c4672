"""The SCONE runtime facade: one object tying the controller together.

A :class:`SconeRuntime` is what the paper calls the *secureTF
controller* substrate (§3.3.3): it builds the measured enclave image
(application binary + libc), instantiates the syscall layer, user-level
scheduler, and file-system shield for the configured mode, and exposes
attestation.  The same facade also runs NATIVE (no SCONE, no enclave)
so that every benchmark mode goes through identical code paths and the
mode differences come only from the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro._sim import probe
from repro._sim.clock import SimClock
from repro._sim.rng import DeterministicRng
from repro.enclave.attestation import Quote
from repro.enclave.cost_model import CostModel
from repro.enclave.memory import EnclaveMemory
from repro.enclave.sgx import Enclave, EnclaveImage, Segment, SgxCpu, SgxMode
from repro.errors import ConfigurationError, EnclaveError, SecurityError
from repro.runtime.fs_shield import (
    FileSystemShield,
    FreshnessTracker,
    PathRule,
)
from repro.runtime.libc import GLIBC, SCONE_LIBC, LibcFlavor
from repro.runtime.net_shield import NetworkShield
from repro.runtime.syscall import SyscallInterface
from repro.runtime.syscall_plane import SyscallPlaneConfig
from repro.runtime.threading_ul import ThreadingModel, UserLevelScheduler
from repro.runtime.vfs import VirtualFileSystem


@dataclass
class RuntimeConfig:
    """Configuration of one secureTF process."""

    name: str
    mode: SgxMode = SgxMode.HW
    libc: Optional[LibcFlavor] = None  # default: SCONE libc in SIM/HW, glibc native
    binary_size: int = 2 * 1024 * 1024
    binary_identity: bytes = b""
    heap_size: int = 64 * 1024 * 1024
    max_threads: int = 8
    async_syscalls: bool = True
    #: Slots in the exit-less submission/completion ring.
    syscall_ring_depth: int = 64
    #: OS-side syscall handler threads serving the ring.
    syscall_handler_threads: int = 2
    threading: ThreadingModel = ThreadingModel.USER_LEVEL
    fs_shield_enabled: bool = True
    fs_rules: List[PathRule] = field(default_factory=list)
    fs_key: Optional[bytes] = None
    fs_chunk_size: int = 64 * 1024
    #: Selects nothing: every shielded file is a journaled commit.  Kept
    #: for callers that still pass ``True``; ``False`` is refused.
    fs_journal: bool = True
    #: k-way replica placement for shielded chunks (self-healing reads).
    fs_replicas: int = 1
    freshness: Optional[FreshnessTracker] = None
    #: SCONE_ALLOW_DLOPEN analogue: permit runtime library loading, with
    #: mandatory fs-shield authentication (§4.1 — required for Python).
    allow_dlopen: bool = False
    #: Register this process with the active telemetry recorder (spans,
    #: layer charges).  Deliberately *not* part of the enclave image:
    #: turning tracing on must not change the measurement.
    tracing: bool = False

    def resolved_libc(self) -> LibcFlavor:
        if self.libc is not None:
            return self.libc
        return GLIBC if self.mode is SgxMode.NATIVE else SCONE_LIBC


def build_enclave_image(config: RuntimeConfig) -> EnclaveImage:
    """The measured enclave image a config produces.

    Exposed separately so policy authors can compute the *expected*
    measurement of a service before any container exists — CAS policies
    are written against measurements, not running enclaves.
    """
    libc = config.resolved_libc()
    return EnclaveImage(
        name=config.name,
        segments=[
            Segment.declared(
                "binary",
                config.binary_size,
                config.binary_identity or config.name.encode(),
                kind="code",
            ),
            Segment.declared(
                "libc", libc.binary_size, libc.name.encode(), kind="code"
            ),
        ],
        heap_size=config.heap_size,
        max_threads=config.max_threads,
    )


def expected_measurement(config: RuntimeConfig) -> bytes:
    """MRENCLAVE a container started from ``config`` will have."""
    return build_enclave_image(config).measurement()


class SconeRuntime:
    """A running secureTF process in NATIVE, SIM, or HW mode."""

    def __init__(
        self,
        config: RuntimeConfig,
        vfs: VirtualFileSystem,
        cost_model: CostModel,
        clock: SimClock,
        cpu: Optional[SgxCpu] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        if config.mode is not SgxMode.NATIVE and cpu is None:
            raise ConfigurationError(
                f"{config.mode.value} mode needs an SgxCpu to run on"
            )
        if not config.fs_journal:
            raise ConfigurationError(
                "the fs shield has one storage layout, the journaled commit: "
                "fs_journal=False selects nothing"
            )
        if config.mode is not SgxMode.NATIVE and config.resolved_libc() is GLIBC:
            raise ConfigurationError(
                "SCONE links against its own libc; glibc is native-only"
            )
        self.config = config
        self.cost_model = cost_model
        self.clock = clock
        self.cpu = cpu
        self.rng = rng or DeterministicRng(0, label=config.name)
        self._libc = config.resolved_libc()

        self.enclave: Optional[Enclave] = None
        if config.mode is SgxMode.NATIVE:
            # Plain process: anonymous memory, native bandwidth, no EPC.
            self.memory = EnclaveMemory(0, cost_model, clock, epc=None)
            self.memory.alloc("binary", config.binary_size, kind="code")
            self.memory.alloc("libc", self._libc.binary_size, kind="code")
            self.memory.alloc("heap", config.heap_size, kind="heap")
        else:
            image = build_enclave_image(config)
            assert cpu is not None
            self.enclave = cpu.create_enclave(image, config.mode)
            self.memory = self.enclave.memory

        self.syscalls = SyscallInterface(
            vfs,
            cost_model,
            clock,
            mode=config.mode,
            enclave=self.enclave,
            asynchronous=config.async_syscalls and self._libc.supports_async_syscalls,
            plane_config=SyscallPlaneConfig(
                ring_depth=config.syscall_ring_depth,
                handler_threads=config.syscall_handler_threads,
            ),
        )
        self.scheduler = UserLevelScheduler(
            cost_model,
            clock,
            mode=config.mode,
            threading_model=config.threading,
            enclave=self.enclave,
        )
        # Completion waits hide behind the scheduler's runnable threads,
        # and scheduler blocks flush the ring's submission batch.
        self.syscalls.attach_scheduler(self.scheduler)
        self.fs: Optional[FileSystemShield] = None
        #: Paths dlopen'd (and authenticated) during this runtime's life.
        self.loaded_libraries: List[str] = []
        if config.fs_shield_enabled and config.mode is not SgxMode.NATIVE:
            if config.fs_key is not None:
                self.install_fs_key(config.fs_key, config.freshness)
            # else: the key arrives later, from CAS, via install_fs_key().
        if config.tracing and probe.ACTIVE is not None:
            # Label first-wins in the tracer: a container sharing its
            # node's clock cannot relabel the node.
            probe.ACTIVE.register_clock(clock, config.name)

    # ------------------------------------------------------------------

    @property
    def mode(self) -> SgxMode:
        return self.config.mode

    @property
    def libc(self) -> LibcFlavor:
        return self._libc

    @property
    def compute_factor(self) -> float:
        """Multiplier on pure compute time from the linked libc."""
        return self._libc.compute_factor

    @property
    def measurement(self) -> bytes:
        if self.enclave is None:
            raise EnclaveError("NATIVE mode has no measurement")
        return self.enclave.measurement

    def attest(self, report_data: bytes = b"") -> Quote:
        """Produce a quote for this process (debug-flagged in SIM mode)."""
        if self.enclave is None:
            raise EnclaveError("NATIVE mode cannot be attested")
        with probe.span(
            self.clock,
            "attestation.quote",
            category="attestation",
            attrs={"process": self.config.name},
        ):
            return self.enclave.get_quote(report_data)

    def install_fs_key(self, key: bytes, freshness=None) -> None:
        """Arm the file-system shield with a (CAS-provisioned) key."""
        if not self.config.fs_shield_enabled:
            raise ConfigurationError(
                f"runtime {self.config.name!r} has the fs shield disabled"
            )
        if self.config.mode is SgxMode.NATIVE:
            raise ConfigurationError("NATIVE mode has no file-system shield")
        self.fs = FileSystemShield(
            self.syscalls,
            key,
            self.config.fs_rules,
            self.cost_model,
            self.clock,
            chunk_size=self.config.fs_chunk_size,
            freshness=freshness if freshness is not None else self.config.freshness,
            replicas=self.config.fs_replicas,
            memory=self.memory,
        )

    def make_net_shield(self, identity, trusted_roots) -> NetworkShield:
        """Build the network shield once CAS has provisioned an identity."""
        return NetworkShield(
            identity,
            trusted_roots,
            self.cost_model,
            self.clock,
            self.rng.child("netshield"),
            syscalls=self.syscalls,
        )

    def dlopen(self, path: str) -> bytes:
        """Load a dynamic library at runtime, SCONE-style (paper §4.1).

        SGX cannot extend an enclave's measurement after EINIT, so a
        dlopen'd library is invisible to attestation; SCONE therefore
        forbids dlopen unless ``SCONE_ALLOW_DLOPEN`` is set *and* the
        library is authenticated by the file-system shield — which is
        exactly how secureTF supports the Python interpreter's imports.

        Returns the library bytes after authentication.  Raises
        :class:`~repro.errors.SecurityError` when dlopen is disabled, the
        shield is not armed, or the path is not under an authenticated
        (or encrypted) rule.
        """
        from repro.runtime.fs_shield import ShieldPolicy

        if not self.config.allow_dlopen:
            raise SecurityError(
                "dlopen is disabled (set RuntimeConfig.allow_dlopen, the "
                "SCONE_ALLOW_DLOPEN analogue)"
            )
        if self.mode is SgxMode.NATIVE:
            # Native processes load libraries unauthenticated.
            return self.syscalls.read_file(path).content
        if self.fs is None:
            raise SecurityError(
                "dlopen requires the file-system shield to authenticate "
                "loaded libraries (paper §4.1)"
            )
        policy = self.fs.policy_for(path)
        if policy is ShieldPolicy.PASSTHROUGH:
            raise SecurityError(
                f"library {path!r} is not under an authenticated path "
                f"prefix; refusing to load unverified code"
            )
        library = self.fs.read_file(path)
        self.loaded_libraries.append(path)
        return library

    def read_protected(self, path: str) -> bytes:
        """Read a file through the shield if enabled, else the raw syscalls."""
        if self.fs is not None:
            return self.fs.read_file(path)
        return self.syscalls.read_file(path).content

    def write_protected(self, path: str, data: bytes, declared_size=None) -> None:
        if self.fs is not None:
            self.fs.write_file(path, data, declared_size=declared_size)
        else:
            self.syscalls.write_file(path, data, declared_size=declared_size)

    def shutdown(self) -> None:
        if self.enclave is not None:
            self.enclave.destroy()
            self.enclave = None
