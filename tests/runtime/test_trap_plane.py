"""Tier-1 pin: what a call costs off the ring.

NATIVE and HW-sync interfaces run one fixed script of metadata, read
and socket calls — the calls a serving request makes on every hop — and
the simulated clock and every :class:`SyscallStats` field are pinned bit
for bit.  Off the ring a call traps (NATIVE) or exits the enclave
(HW-sync) whole, so nothing of the ring may move: no submission, no
batch, no synchronous fallback, no flush on block.
"""

import pytest

from repro._sim import DeterministicRng, SimClock
from repro.enclave.attestation import ProvisioningAuthority
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import EnclaveImage, Segment, SgxCpu, SgxMode
from repro.runtime.syscall import SyscallInterface, SyscallStats
from repro.runtime.threading_ul import UserLevelScheduler
from repro.runtime.vfs import VirtualFileSystem


def _interface(mode):
    clock = SimClock()
    enclave = None
    if mode is SgxMode.HW:
        rng = DeterministicRng(21, label="trap-pin")
        cpu = SgxCpu(
            "cpu-pin", CM, clock, ProvisioningAuthority(rng.child("intel")), rng.child("cpu")
        )
        enclave = cpu.create_enclave(
            EnclaveImage("app", [Segment.from_content("b", b"x", "code")]), SgxMode.HW
        )
    vfs = VirtualFileSystem()
    syscalls = SyscallInterface(
        vfs, CM, clock, mode=mode, enclave=enclave, asynchronous=False
    )
    return syscalls, vfs, clock


def _script(mode):
    """(simulated seconds the script took, the interface's stats)."""
    syscalls, vfs, clock = _interface(mode)
    scheduler = UserLevelScheduler(CM, clock, mode=mode)
    syscalls.attach_scheduler(scheduler)
    vfs.write("/d/a", bytes(300 * 1024))
    vfs.write("/d/b", bytes(100))
    vfs.write("/d/old", b"x" * 7)
    start = clock.now
    assert syscalls.stat("/d/a") == 300 * 1024
    assert syscalls.exists("/d/b") and not syscalls.exists("/d/c")
    syscalls.rename("/d/old", "/d/new")
    syscalls.unlink("/d/new")
    assert syscalls.list_dir("/d/") == ["/d/a", "/d/b"]
    a, b = syscalls.read_files(["/d/a", "/d/b"])
    assert (a.size, b.size) == (300 * 1024, 100)
    syscalls.socket_send(600 * 1024)
    syscalls.socket_recv(600 * 1024)
    scheduler.block()
    syscalls.flush()
    return clock.now - start, syscalls.stats


BY_NAME = {
    "stat": 3, "rename": 1, "unlink": 1, "getdents": 1, "open": 2, "read": 2,
    "rw_continuation": 5, "close": 2, "sendmsg": 1, "recvmsg": 1,
}
COPIED = dict(bytes_read=307300, bytes_sent=614400, bytes_received=614400)
PINNED = {
    SgxMode.NATIVE: (
        0.0001083888888888889,
        SyscallStats(calls=19, time=0.0001081388888888889, by_name=BY_NAME, **COPIED),
    ),
    SgxMode.HW: (
        0.00029816333333333896,
        SyscallStats(
            calls=19, transitions=19, time=0.0002979133333333387, by_name=BY_NAME,
            **COPIED,
        ),
    ),
}


@pytest.mark.parametrize("mode", [SgxMode.NATIVE, SgxMode.HW], ids=["native", "hw_sync"])
def test_off_the_ring_a_call_costs_what_it_always_did(mode):
    seconds, stats = _script(mode)
    assert (seconds, stats) == PINNED[mode]


@pytest.mark.parametrize("mode", [SgxMode.NATIVE, SgxMode.HW], ids=["native", "hw_sync"])
def test_off_the_ring_nothing_of_the_ring_moves(mode):
    _, stats = _script(mode)
    assert stats.ring_submissions == stats.ring_completions == 0
    assert stats.batches == stats.max_batch == 0
    assert stats.sync_fallbacks == stats.flushes_on_block == 0
    assert stats.handler_wakeups == stats.backpressure_stalls == 0
    assert stats.userspace_handled == 0
