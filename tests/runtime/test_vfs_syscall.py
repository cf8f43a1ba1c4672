"""VFS semantics and the syscall layer (costs, Iago defences)."""

import pytest

from repro._sim import SimClock
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.enclave.sgx import EnclaveImage, Segment, SgxMode
from repro.errors import IagoError, ShortWriteError, SyscallError
from repro.runtime.syscall import IO_CHUNK, SyscallInterface
from repro.runtime.vfs import VirtualFile, VirtualFileSystem


@pytest.fixture
def vfs():
    return VirtualFileSystem()


def make_syscalls(vfs, mode=SgxMode.NATIVE, cpu=None, asynchronous=True):
    clock = cpu.clock if cpu is not None else SimClock()
    enclave = None
    if mode is SgxMode.HW:
        image = EnclaveImage("app", [Segment.from_content("b", b"x", "code")])
        enclave = cpu.create_enclave(image, SgxMode.HW)
    return (
        SyscallInterface(
            vfs, CM, clock, mode=mode, enclave=enclave, asynchronous=asynchronous
        ),
        clock,
    )


# --- VFS -------------------------------------------------------------------


def test_vfs_write_read_delete(vfs):
    vfs.write("/a", b"data")
    assert vfs.read("/a").content == b"data"
    vfs.delete("/a")
    assert not vfs.exists("/a")
    with pytest.raises(SyscallError):
        vfs.read("/a")
    with pytest.raises(SyscallError):
        vfs.delete("/a")


def test_vfs_versions_increment(vfs):
    assert vfs.write("/a", b"v0").version == 0
    assert vfs.write("/a", b"v1").version == 1


def test_vfs_declared_size(vfs):
    file = vfs.write("/model", b"tiny", declared_size=1000)
    assert file.size == 1000
    with pytest.raises(SyscallError):
        vfs.write("/bad", b"longer content", declared_size=3)


def test_vfs_listdir_prefix(vfs):
    vfs.write("/a/1", b"")
    vfs.write("/a/2", b"")
    vfs.write("/b/1", b"")
    assert vfs.listdir("/a/") == ["/a/1", "/a/2"]
    assert len(vfs) == 3


# --- Syscall layer -----------------------------------------------------------


def test_read_write_roundtrip(vfs):
    syscalls, _ = make_syscalls(vfs)
    syscalls.write_file("/f", b"payload")
    assert syscalls.read_file("/f").content == b"payload"
    assert syscalls.stat("/f") == 7
    assert syscalls.exists("/f")
    syscalls.unlink("/f")
    assert not syscalls.exists("/f")


def test_io_stats_accumulate(vfs):
    syscalls, _ = make_syscalls(vfs)
    syscalls.write_file("/f", b"x" * 100)
    syscalls.read_file("/f")
    assert syscalls.stats.bytes_written == 100
    assert syscalls.stats.bytes_read == 100
    assert syscalls.stats.by_name["open"] == 2


def test_large_io_uses_multiple_syscalls(vfs):
    syscalls, _ = make_syscalls(vfs)
    small_calls = None
    syscalls.write_file("/small", b"x")
    small_calls = syscalls.stats.calls
    syscalls.write_file("/large", b"x" * (3 * IO_CHUNK))
    assert syscalls.stats.calls - small_calls > 3


def test_hw_sync_costs_more_than_async(vfs, cpu):
    sync, clock = make_syscalls(vfs, SgxMode.HW, cpu, asynchronous=False)
    base = clock.now
    for _ in range(100):
        sync.nop_syscall()
    sync_cost = clock.now - base

    vfs2 = VirtualFileSystem()
    async_calls, clock = make_syscalls(vfs2, SgxMode.HW, cpu, asynchronous=True)
    base = clock.now
    for _ in range(100):
        async_calls.nop_syscall()
    async_cost = clock.now - base
    assert async_cost < sync_cost


def test_sim_mode_handles_some_calls_in_userspace(vfs):
    # Userspace dispatch is per-syscall-name now: futex/clock/mmap-class
    # calls never leave the runtime, kernel-bound names ride the ring.
    syscalls, _ = make_syscalls(vfs, SgxMode.SIM)
    workload = ["futex", "clock_gettime", "read", "write", "mmap"] * 20
    for name in workload:
        syscalls.nop_syscall(name)
    assert 0 < syscalls.stats.userspace_handled < 100
    assert syscalls.stats.userspace_handled == 60  # 3 of 5 names in the table


def test_userspace_calls_never_touch_the_ring(vfs):
    syscalls, _ = make_syscalls(vfs, SgxMode.SIM)
    for _ in range(50):
        syscalls.nop_syscall("futex")
    syscalls.flush()
    assert syscalls.stats.userspace_handled == 50
    assert syscalls.stats.ring_submissions == 0


def test_hw_mode_requires_enclave(vfs):
    with pytest.raises(SyscallError):
        SyscallInterface(vfs, CM, SimClock(), mode=SgxMode.HW, enclave=None)


# --- Iago defences -----------------------------------------------------------


def test_iago_negative_stat_rejected(vfs):
    syscalls, _ = make_syscalls(vfs)
    vfs.write("/f", b"data")
    syscalls.hostile_hook = lambda name, res: -1 if name == "stat" else res
    with pytest.raises(IagoError):
        syscalls.stat("/f")


def test_iago_oversized_read_rejected(vfs):
    syscalls, _ = make_syscalls(vfs)
    vfs.write("/f", b"data")

    def hostile(name, result):
        if name == "read":
            return VirtualFile("/f", content=b"data" * 100, declared_size=4)
        return result

    # declared size 4 but 400 bytes returned -> read check fires
    syscalls.hostile_hook = hostile
    with pytest.raises(IagoError):
        syscalls.read_file("/f")


def test_iago_write_overclaim_rejected(vfs):
    syscalls, _ = make_syscalls(vfs)
    syscalls.hostile_hook = lambda name, res: (
        res + 100 if name == "write" else res
    )
    with pytest.raises(IagoError):
        syscalls.write_file("/f", b"data")


@pytest.mark.parametrize("lie", [-100, 100])
@pytest.mark.parametrize("victim", [0, 1])
def test_iago_write_count_checked_on_every_destination(vfs, lie, victim):
    """``write_files`` checks each destination's count: a kernel honest
    about the first replica and lying (a negative or an over-long count)
    about the second is refused exactly like one lying about the first."""
    syscalls, _ = make_syscalls(vfs)
    writes = []

    def hostile(name, result):
        if name != "write":
            return result
        writes.append(result)
        return result + lie if len(writes) == victim + 1 else result

    syscalls.hostile_hook = hostile
    with pytest.raises(IagoError):
        syscalls.write_files(["/a", "/b"], b"data")
    assert len(writes) == victim + 1


@pytest.mark.parametrize("victim", [0, 1])
def test_short_write_count_fails_and_leaves_the_destination(vfs, victim):
    """A kernel reporting fewer bytes than it was handed is a failed
    write, not a success and not an Iago attack: typed, raised at that
    destination, which keeps what it held; earlier ones stay written."""
    syscalls, _ = make_syscalls(vfs)
    vfs.write("/b", b"old")
    writes = []

    def hostile(name, result):
        if name != "write":
            return result
        writes.append(result)
        return result - 1 if len(writes) == victim + 1 else result

    syscalls.hostile_hook = hostile
    with pytest.raises(ShortWriteError, match="wrote 3 of 4 bytes"):
        syscalls.write_files(["/a", "/b"], b"data")
    assert len(writes) == victim + 1
    assert vfs.exists("/a") == (victim == 1)
    assert vfs.read("/b").content == b"old" and vfs.read("/b").version == 0


@pytest.mark.parametrize("enclave_bytes", [0, 10])
def test_hw_copies_only_what_the_enclave_holds(vfs, cpu, enclave_bytes):
    """A payload sealed into the host's buffer pays its calls and no
    copy; what the enclave holds of it is still copied, once."""
    syscalls, clock = make_syscalls(vfs, SgxMode.HW, cpu)
    memory = syscalls._enclave.memory
    payload = b"x" * (2 * IO_CHUNK + 5)
    syscalls.write_files(["/a", "/b"], payload)
    full_calls = syscalls.stats.calls

    touched, start = memory.bytes_touched, clock.now
    syscalls.write_files(["/a", "/b"], payload, enclave_bytes=enclave_bytes)
    assert memory.bytes_touched - touched == enclave_bytes
    assert syscalls.stats.calls == 2 * full_calls
    assert syscalls.stats.bytes_written == 4 * len(payload)
    assert vfs.read("/b").content == payload


@pytest.mark.parametrize("mode", [SgxMode.NATIVE, SgxMode.SIM])
def test_outside_hw_the_whole_payload_is_copied(mode):
    """NATIVE / SIM: the copy is the kernel's own, whatever was sealed."""
    payload = b"x" * (2 * IO_CHUNK + 5)
    elapsed = []
    for enclave_bytes in (None, 0):
        syscalls, clock = make_syscalls(VirtualFileSystem(), mode)
        syscalls.write_files(["/a", "/b"], payload, enclave_bytes=enclave_bytes)
        syscalls.flush()
        elapsed.append(clock.now)
    assert elapsed[0] == elapsed[1]


def test_write_files_crosses_the_boundary_once(vfs, cpu):
    """One payload, two destinations: the copy out of the enclave is
    charged once, the calls and the bytes the OS wrote per destination;
    one destination is exactly ``write_file``."""
    syscalls, clock = make_syscalls(vfs, SgxMode.HW, cpu)
    memory = syscalls._enclave.memory
    payload = b"x" * (2 * IO_CHUNK + 5)

    touched, calls, start = memory.bytes_touched, syscalls.stats.calls, clock.now
    syscalls.write_file("/one", payload)
    one_calls, one_time = syscalls.stats.calls - calls, clock.now - start
    assert memory.bytes_touched - touched == len(payload)
    assert syscalls.stats.bytes_written == len(payload)

    touched, calls, start = memory.bytes_touched, syscalls.stats.calls, clock.now
    files = syscalls.write_files(["/a", "/b"], payload)
    assert [f.path for f in files] == ["/a", "/b"]
    assert vfs.read("/a").content == vfs.read("/b").content == payload
    assert memory.bytes_touched - touched == len(payload)       # one crossing
    assert syscalls.stats.bytes_written == 3 * len(payload)     # every replica
    assert syscalls.stats.calls - calls == 2 * one_calls        # open/write/2 cont/close each
    assert clock.now - start < 2 * one_time


def test_iago_listing_outside_prefix_rejected(vfs):
    syscalls, _ = make_syscalls(vfs)
    vfs.write("/dir/a", b"")
    syscalls.hostile_hook = lambda name, res: (
        res + ["/etc/shadow"] if name == "getdents" else res
    )
    with pytest.raises(IagoError):
        syscalls.list_dir("/dir/")


def test_iago_non_string_listing_rejected(vfs):
    syscalls, _ = make_syscalls(vfs)
    syscalls.hostile_hook = lambda name, res: (
        [42] if name == "getdents" else res
    )
    with pytest.raises(IagoError):
        syscalls.list_dir("")
