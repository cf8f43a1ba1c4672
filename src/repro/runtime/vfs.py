"""An in-memory virtual file system (the untrusted OS's storage).

Files hold *real bytes* — what the file-system shield encrypts and
authenticates — plus an optional **declared size** used for cost
accounting, which lets a 163 MB model be represented by its real
(small) serialized weights while I/O and cryptography are charged for
the full simulated size.  This is the substitution DESIGN.md documents
for the paper's pretrained models.

The VFS is deliberately *untrusted*: tests mutate stored bytes directly
to emulate a malicious OS and assert that the shield detects it.

Writes are **not** assumed atomic: a :class:`~repro.runtime
.storage_faults.StorageFaultPlan` attached via :attr:`VirtualFileSystem
.faults` can tear a write, kill the "process" at any mutating-operation
boundary (:class:`~repro.errors.StorageCrash`), rot stored bytes, or
roll the whole store back to a snapshot.  :meth:`rename` is the one
atomic mutating primitive (as on a real POSIX filesystem) — the shield's
commit protocol is built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import StorageCrash, SyscallError


@dataclass
class VirtualFile:
    """One stored file: real content plus simulated (declared) size."""

    path: str
    content: bytes = b""
    declared_size: Optional[int] = None
    version: int = 0

    @property
    def size(self) -> int:
        """The simulated size used for cost accounting."""
        return self.declared_size if self.declared_size is not None else len(self.content)


class VirtualFileSystem:
    """Flat-namespace file store owned by a (simulated) node's OS."""

    def __init__(self) -> None:
        self._files: Dict[str, VirtualFile] = {}
        #: Optional attached :class:`~repro.runtime.storage_faults
        #: .StorageFaultPlan` (or anything with its hook signature).
        self.faults = None

    def exists(self, path: str) -> bool:
        return path in self._files

    def _fault_mutation(self, op: str, path: str, content: Optional[bytes]):
        if self.faults is None:
            return None
        action = self.faults.before_mutation(op, path, content)
        if action is not None and action.crash_before:
            raise StorageCrash(
                f"simulated crash before {op} of {path!r}"
            )
        return action

    @staticmethod
    def _fault_after(op: str, path: str, action) -> None:
        if action is not None and action.crash_after:
            raise StorageCrash(f"simulated crash after {op} of {path!r}")

    def write(
        self, path: str, content: bytes, declared_size: Optional[int] = None
    ) -> VirtualFile:
        """Create or replace a file (NOT atomic under an attached fault
        plan: the payload may be torn and the caller killed)."""
        if declared_size is not None and declared_size < len(content):
            raise SyscallError(
                f"declared size {declared_size} smaller than real content "
                f"({len(content)} bytes) for {path!r}"
            )
        action = self._fault_mutation("write", path, content)
        if action is not None and action.content is not None:
            content = action.content  # torn write: only a prefix persists
        existing = self._files.get(path)
        version = existing.version + 1 if existing else 0
        file = VirtualFile(
            path=path, content=content, declared_size=declared_size, version=version
        )
        self._files[path] = file
        self._fault_after("write", path, action)
        return file

    def lookup(self, path: str) -> Optional[VirtualFile]:
        """The file at ``path`` or None — a lookup, not a read: no fault
        plan sees it."""
        return self._files.get(path)

    def reinstate(self, path: str, previous: Optional[VirtualFile]) -> None:
        """Put ``path`` back to ``previous`` (None: no file) — what a
        write the kernel reported short leaves behind."""
        if previous is None:
            self._files.pop(path, None)
        else:
            self._files[path] = previous

    def read(self, path: str) -> VirtualFile:
        if path not in self._files:
            raise SyscallError(f"no such file: {path!r}")
        file = self._files[path]
        if self.faults is not None:
            corrupted = self.faults.on_read(path, file.content)
            if corrupted is not None:
                file.content = corrupted  # rot/truncation at rest persists
        return file

    def delete(self, path: str) -> None:
        if path not in self._files:
            raise SyscallError(f"no such file: {path!r}")
        action = self._fault_mutation("delete", path, None)
        del self._files[path]
        self._fault_after("delete", path, action)

    def rename(self, src: str, dst: str) -> VirtualFile:
        """Atomically move ``src`` over ``dst`` (POSIX rename semantics:
        either the old ``dst`` or the complete new one is ever visible —
        a fault plan can crash before or after, never tear it)."""
        if src not in self._files:
            raise SyscallError(f"no such file: {src!r}")
        action = self._fault_mutation("rename", src, None)
        existing = self._files.get(dst)
        version = existing.version + 1 if existing else 0
        source = self._files.pop(src)
        file = VirtualFile(
            path=dst,
            content=source.content,
            declared_size=source.declared_size,
            version=version,
        )
        self._files[dst] = file
        self._fault_after("rename", src, action)
        return file

    def listdir(self, prefix: str = "") -> List[str]:
        return sorted(path for path in self._files if path.startswith(prefix))

    def __iter__(self) -> Iterator[VirtualFile]:
        return iter(self._files.values())

    def __len__(self) -> int:
        return len(self._files)

    # ------------------------------------------------------------------
    # Adversary interface (tests only): the OS is untrusted, so tampering
    # is modelled as direct mutation of the stored bytes.
    # ------------------------------------------------------------------

    def tamper(self, path: str, content: bytes) -> None:
        """Replace file content *without* bumping the version (a stealthy
        malicious-OS modification)."""
        file = self.read(path)
        file.content = content

    def rollback(self, path: str, old: VirtualFile) -> None:
        """Replace a file with an older captured copy (rollback attack)."""
        self._files[path] = old

    def capture_state(
        self, prefix: str = ""
    ) -> Dict[str, Tuple[bytes, Optional[int], int]]:
        """Snapshot every file under ``prefix`` (disk-image capture)."""
        return {
            path: (file.content, file.declared_size, file.version)
            for path, file in self._files.items()
            if path.startswith(prefix)
        }

    def restore_state(
        self,
        snapshot: Dict[str, Tuple[bytes, Optional[int], int]],
        prefix: str = "",
    ) -> None:
        """Restore a captured snapshot wholesale (disk-image rollback):
        files under ``prefix`` created since the capture disappear,
        mutated ones revert — versions included, exactly as a restored
        block device would look."""
        for path in [p for p in self._files if p.startswith(prefix)]:
            del self._files[path]
        for path, (content, declared_size, version) in snapshot.items():
            self._files[path] = VirtualFile(
                path=path,
                content=content,
                declared_size=declared_size,
                version=version,
            )
