"""SCONE-like shielded runtime (the secureTF controller's substrate).

The paper builds secureTF on SCONE (§3.3): applications are linked
against a modified libc; system calls leave the enclave asynchronously;
a user-level scheduler keeps threads inside the enclave; and two shields
transparently protect all state that crosses the enclave boundary —
the **file-system shield** (chunked authenticated encryption of files)
and the **network shield** (transparent TLS on all sockets).  Results
returned by the untrusted OS are sanity-checked to stop Iago attacks.

This package implements each of those pieces against the simulated
enclave/OS, with real cryptography on real bytes.
"""

from repro.runtime.vfs import VirtualFile, VirtualFileSystem
from repro.runtime.libc import LibcFlavor, GLIBC, MUSL, SCONE_LIBC
from repro.runtime.syscall import SyscallInterface, SyscallStats
from repro.runtime.threading_ul import UserLevelScheduler, ThreadingModel
from repro.runtime.fs_shield import FileSystemShield, ShieldPolicy, PathRule
from repro.runtime.net_shield import NetworkShield
from repro.runtime.scone import SconeRuntime, RuntimeConfig

__all__ = [
    "VirtualFile",
    "VirtualFileSystem",
    "LibcFlavor",
    "GLIBC",
    "MUSL",
    "SCONE_LIBC",
    "SyscallInterface",
    "SyscallStats",
    "UserLevelScheduler",
    "ThreadingModel",
    "FileSystemShield",
    "ShieldPolicy",
    "PathRule",
    "NetworkShield",
    "SconeRuntime",
    "RuntimeConfig",
]
