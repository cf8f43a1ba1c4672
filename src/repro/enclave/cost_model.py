"""Calibrated cost model for the SGX + cluster simulation.

All constants that turn *work* (FLOPs, bytes, pages, messages) into
*simulated time* live here, in one dataclass, so that:

- benchmarks across figures share a single consistent machine model
  (the paper's Xeon E3-1280 v6 cluster, §5.1), and
- ablation benchmarks can perturb one constant at a time.

Calibration anchors (paper + public SGX literature):

- EPC usable capacity ≈ 93.5 MiB (paper repeats "~94MB" throughout).
- EPC page fault (EWB + ELDU, both with AES-CTR + MAC, plus kernel
  involvement) ≈ 12 µs per 4 KiB page — mid-range of the published
  ~12k-40k cycle figures at 3.9 GHz for the streaming patterns these
  workloads generate.
- Synchronous enclave transition ≈ 4 µs round-trip (~8k cycles×2);
  SCONE's asynchronous syscalls cost ≈ 1.3 µs effective (paper §3.3.3,
  SCONE OSDI'16).
- File-system shield cryptography at 4 GB/s per thread (paper §5.3 #2
  quotes the AES-NI figure directly).  Inside an enclave a file's
  chunks are sealed and opened on its idle threads, so the aggregate
  floor is the enclave's memory bandwidth — 7.5 GB/s through the MEE in
  HW, the native 18 GB/s in SIM — over the bytes the pass moves, paid
  even above the per-thread rate (an HW open: 2 passes at 0.267 ns/B
  against a serial 0.262 ns/B).
- IAS quote verification needs WAN round trips: the paper measures
  ~280 ms for verification and ~325 ms end-to-end; CAS does the same
  verification locally in <1 ms and ~17 ms end-to-end (Fig. 4).
- Cluster: 3 nodes, 4 cores + HT at 3.9 GHz, 1 Gb/s network (§5.1).
  A run on fewer threads than ``cores_per_node`` (with an enclave
  thread to spare) has an idle core page its weight stream in ahead of
  the compute (the execution engine's helper rule); a run that fills
  the cores waits for every fault itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro._sim.units import Gbps, KiB, MiB, microseconds, milliseconds


@dataclass(frozen=True)
class CostModel:
    """Every latency/bandwidth constant used by the simulation."""

    # --- CPU compute -----------------------------------------------------
    #: Effective FLOP/s of one core running the full-TensorFlow interpreter.
    flops_per_second_full_tf: float = 9.0e9
    #: Effective FLOP/s of one core running the Lite interpreter (mobile-
    #: optimized interpreter, smaller dispatch overhead).
    flops_per_second_lite: float = 11.0e9
    #: Multiplicative efficiency loss per extra thread (contention).
    parallel_efficiency: float = 0.96
    #: Cores per node (E3-1280 v6: 4 cores, 8 hyperthreads).  Below it a
    #: run leaves a core idle for the engine's weight-paging helper.
    cores_per_node: int = 4
    hyperthreads_per_core: int = 2
    #: Hyperthreads add only fractional throughput.
    hyperthread_yield: float = 0.30

    # --- Memory ----------------------------------------------------------
    #: Native (unencrypted) memory bandwidth seen by one core.
    native_memory_bandwidth: float = 18.0e9
    #: Enclave memory bandwidth through the MEE (encrypt/decrypt + MAC):
    #: the aggregate floor of the fs shield's chunk crypto in HW.
    enclave_memory_bandwidth: float = 7.5e9
    #: Multiplier on in-enclave compute: MEE latency on LLC misses and
    #: the wider cache footprint slow even EPC-resident execution.
    enclave_compute_factor: float = 1.10
    page_size: int = 4 * KiB

    # --- EPC -------------------------------------------------------------
    epc_capacity_bytes: int = int(93.5 * MiB)
    #: Cost of one EPC page fault (EWB of a victim + ELDU of the target,
    #: including the kernel path; mid-range of published measurements for
    #: mostly-sequential streams — pathological random 4 KiB thrash is
    #: worse on real hardware).
    epc_page_fault_cost: float = 12.0 * microseconds
    #: Cost of EADD+EEXTEND per page at enclave build time (measurement).
    eadd_eextend_cost_per_page: float = 1.6 * microseconds
    #: Fixed enclave creation cost (ECREATE, EINIT, launch token).
    enclave_create_cost: float = 9.0 * milliseconds

    # --- Transitions and system calls -------------------------------------
    sync_transition_cost: float = 4.0 * microseconds
    async_syscall_cost: float = 1.3 * microseconds
    #: In-kernel service time of a typical syscall (native component).
    syscall_kernel_cost: float = 0.9 * microseconds
    #: Native trap entry/exit (syscall instruction + kernel prologue).
    syscall_trap_cost: float = 0.3 * microseconds
    #: Writing one request descriptor into the shared-memory submission
    #: ring (SCONE's lock-free queue: a cache-line store + doorbell).
    ring_slot_cost: float = 0.15 * microseconds
    #: How long an idle syscall-handler thread spins on the ring before
    #: going to sleep on a futex; waking it costs a real transition.
    handler_spin_time: float = 40.0 * microseconds
    #: User-level scheduler context switch between application threads.
    userlevel_switch_cost: float = 0.25 * microseconds
    #: OS-level thread context switch (native threading baseline).
    os_switch_cost: float = 2.2 * microseconds

    # --- libc flavours (relative compute factors, see Fig. 5 discussion) ---
    glibc_factor: float = 1.00
    musl_factor: float = 1.025
    scone_libc_factor: float = 1.015

    # --- Shields -----------------------------------------------------------
    #: AES-NI bulk throughput of one thread of the file-system shield
    #: (paper: 4 GB/s); a file's chunks spread over the enclave's idle
    #: threads down to the memory-bandwidth floor.
    fs_shield_crypto_bandwidth: float = 4.0e9
    #: Per-chunk bookkeeping of the shield (metadata lookup + nonce mgmt).
    fs_shield_chunk_overhead: float = 0.8 * microseconds
    #: Network shield record protection throughput (AES-NI TLS records).
    net_shield_crypto_bandwidth: float = 2.2e9
    #: Per-record overhead of the network shield.
    net_shield_record_overhead: float = 1.8 * microseconds
    #: One network-shield handshake's cryptography (two signatures plus
    #: an ECDHE exchange).  Uncalibrated: no paper or cited measurement
    #: anchors it.
    net_shield_handshake_cost: float = 0.9e-3

    # --- Network -----------------------------------------------------------
    lan_bandwidth: float = Gbps(1.0)
    lan_rtt: float = 0.2 * milliseconds
    wan_rtt: float = 140.0 * milliseconds
    wan_bandwidth: float = Gbps(0.1)

    # --- Attestation --------------------------------------------------------
    #: EREPORT + quote signing inside the quoting enclave (EPID/ECDSA).
    quote_generation_cost: float = 8.5 * milliseconds
    #: Local verification of a quote signature (CAS path, Fig. 4: <1 ms).
    quote_verification_cost: float = 0.8 * milliseconds
    #: IAS backend processing per verification request (server side).
    ias_backend_cost: float = 2.0 * milliseconds
    #: Secret provisioning: TLS session establishment to the enclave plus
    #: key/cert generation and sealing (Fig. 4's "key transfer" block).
    secret_provisioning_cost: float = 5.5 * milliseconds

    # --- Container / orchestration ------------------------------------------
    container_start_cost: float = 380.0 * milliseconds
    container_stop_cost: float = 120.0 * milliseconds

    def effective_parallel_speedup(self, threads: int) -> float:
        """Throughput multiplier of ``threads`` on one node.

        Physical cores contribute fully (minus a contention factor that
        compounds with thread count); hyperthreads past the physical core
        count contribute :attr:`hyperthread_yield` each.
        """
        if threads < 1:
            raise ValueError(f"thread count must be positive: {threads}")
        physical = min(threads, self.cores_per_node)
        extra = min(
            max(threads - self.cores_per_node, 0),
            self.cores_per_node * (self.hyperthreads_per_core - 1),
        )
        raw = physical + extra * self.hyperthread_yield
        return raw * (self.parallel_efficiency ** max(threads - 1, 0))

    def with_overrides(self, **kwargs: object) -> "CostModel":
        """A copy of the model with some constants replaced (ablations)."""
        return replace(self, **kwargs)


#: The default machine model used by all benchmarks (paper's cluster).
DEFAULT_COST_MODEL = CostModel()
