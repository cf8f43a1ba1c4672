"""The file-system shield: transparent chunked authenticated encryption.

Paper §3.3.3: whenever the application writes a file, the shield —
depending on user-configured *path prefixes* — encrypts and
authenticates, only authenticates, or passes the file through.  Files
are split into chunks handled separately; chunk metadata lives inside
the enclave; keys are configuration parameters provisioned by CAS, not
SGX sealing keys.

Integrity is bound per chunk (AEAD tag with the path, chunk index,
chunk count, and file version in the AAD), so swapping chunks between
files or versions is detected.  *Freshness* (rollback protection) needs
state that outlives the enclave, which is exactly the role of CAS's
auditing service (§3.3.2): the shield reports every committed file
version to a :class:`FreshnessTracker` and verifies against it on read.

Cost model: the paper measures shield cryptography at AES-NI rates
(~4 GB/s, §5.3 #2); real ChaCha20 here runs on the *real* bytes while
time is charged for the *declared* size at that bandwidth.  A read pays
for the chunks it opens: every chunk carries its share of the declared
size, a chunk served from the plaintext cache costs one in-enclave copy
of its share instead of a decrypt, and the cache's capacity is counted
in the same simulated bytes.  A write pays its seal and its syscalls:
the seal writes its output straight into the untrusted buffer the
asynchronous syscall hands the kernel, so in HW mode no sealed byte is
copied out of the enclave — only what the enclave builds itself, the
manifest, crosses with its own bytes.  Digests and tags are taken over
the ciphertext as the enclave produced it, never read back from that
buffer: a host that rewrites a staged extent gets what tampering at
rest gets it, a chunk that fails its digest.  A read mirrors it: every
replica is checked against the manifest's digests where it lies, in
the host's buffer, and in HW mode only the chunks the read opens are
copied in — once, their shares plus tags — and the AEAD authenticates
that enclave copy.  The in-place check is advisory (it picks the copy
to open and the replicas to repair); a host that rewrites a replica
after the check gets a refused read.  The manifest again crosses with its own
bytes; a declared size rides on the shares opened.  NATIVE and SIM
keep the kernel's copy of everything read.  Every SHA-256 pass over a
chunk or a manifest is counted in ``FsShieldStats.digest_bytes`` and
charged nothing.

Crash consistency: a file stored in one write is only atomic if every
OS write is — an assumption a hostile or crashing host does not honour.
Every protected file is therefore a journaled commit, made like a
database's:

1. the protected chunks, back to back, are written as one generation-
   named shadow *extent* per replica (``{path}.__chunk.{version}.0.
   {replica}``, offsets derived from the manifest's geometry) through
   one ``write_files`` — one buffer for every replica, sealed outside
   the enclave — never overwriting the live generation;
2. an authenticated manifest (chunk digests, version, geometry, MAC
   under the file key) is written to ``{path}.__commit``;
3. one atomic ``rename`` flips the manifest over ``{path}`` — THE
   commit point;
4. the version is committed to the freshness tracker, then stale
   generations are collected (one ``unlink`` per replica).

A crash at *any* syscall boundary, or a tear at any byte of an extent,
leaves the file at exactly the old or the new version (a write the
kernel reports short raises before the rename: the old one);
:meth:`FileSystemShield.recover` (the mount-time scan) rolls uncommitted
flips back, rolls the freshness record forward across a crash between
steps 3 and 4, collects strays, and re-replicates damaged chunk copies;
a protected path holding no authenticating manifest is reported
``damaged`` with its extents kept.  Reads self-heal: every replica is
fetched and checked slot by slot (manifest digest + AEAD), a torn/rotted
chunk is repaired from any intact copy and counted — the shield fails
closed (``ShieldError``, as for every refused read) only when some chunk
has no valid copy left.  A repair never overwrites a replica in place
(it may hold the only intact copy of *another* chunk): the healed extent
is written to ``{extent}.__commit`` and renamed over the damaged one.
"""

from __future__ import annotations

import enum
import hashlib
import struct
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro._sim import probe
from repro._sim.clock import SimClock
from repro.crypto import encoding
from repro.crypto.aead import CIPHER, TAG_SIZE, check_cipher, get_aead
from repro.crypto.kdf import hkdf
from repro.enclave.cost_model import CostModel
from repro.enclave.memory import EnclaveMemory
from repro.errors import (
    ConfigurationError,
    FreshnessError,
    IagoError,
    IntegrityError,
    ShieldError,
    SyscallError,
)
from repro.runtime import stats_registry
from repro.runtime.syscall import SyscallInterface

DEFAULT_CHUNK_SIZE = 64 * 1024

#: Suffix of the pending (not yet flipped) manifest of a journaled commit.
COMMIT_SUFFIX = ".__commit"

#: Separator of generation-named shadow extents; with ``COMMIT_SUFFIX``
#: appended, a repair of one that has not been renamed into place yet.
CHUNK_MARKER = ".__chunk."

#: Bytes the keyed digest adds in front of an AUTHENTICATE chunk.
_AUTH_MAC_SIZE = 32

#: Domain separator of the manifest MAC.
_MANIFEST_MAC_INFO = b"securetf-fs-manifest"

# Decrypted chunks cached per shield, capped in *simulated* bytes (not
# entries, not stand-in bytes) so a few huge model files can't pin
# unbounded plaintext — and a model declared larger than the cache is
# not re-read for the price of a hit because its stand-in happens to fit.
DEFAULT_CHUNK_CACHE_BYTES = 8 * 1024 * 1024

#: File versions fill the 32-bit field of the chunk nonce.
_VERSION_LIMIT = 1 << 32

#: ``read_file(enclave_bytes=)`` of a manifest: every byte stored, never
#: the declared size it carries as a stand-in for the sealed extents.
_MANIFEST_BYTES = sys.maxsize


class ShieldPolicy(enum.Enum):
    """Per-path-prefix protection levels (paper §3.3.3)."""

    ENCRYPT = "encrypt"            # confidentiality + integrity
    AUTHENTICATE = "authenticate"  # integrity only
    PASSTHROUGH = "passthrough"    # untouched


def _chunk_overhead(policy: str) -> int:
    """Bytes protection adds to a chunk: its AEAD tag or keyed digest."""
    return TAG_SIZE if policy == ShieldPolicy.ENCRYPT.value else _AUTH_MAC_SIZE


@dataclass(frozen=True)
class PathRule:
    """Associates a path prefix with a protection policy."""

    prefix: str
    policy: ShieldPolicy


class FreshnessTracker(Protocol):
    """Rollback-protection interface (implemented by the CAS audit log)."""

    def commit(self, path: str, version: int, digest: bytes) -> None: ...

    def verify(self, path: str, version: int, digest: bytes) -> None: ...


class LocalFreshnessTracker:
    """In-enclave tracker: protects within one enclave lifetime only.

    CAS's audit service (:mod:`repro.cas.audit`) provides the durable,
    distributed version of this interface.
    """

    def __init__(self) -> None:
        self._latest: Dict[str, Tuple[int, bytes]] = {}

    def commit(self, path: str, version: int, digest: bytes) -> None:
        current = self._latest.get(path)
        if current is not None and version <= current[0]:
            raise FreshnessError(
                f"non-monotonic version {version} for {path!r} "
                f"(latest is {current[0]})"
            )
        self._latest[path] = (version, digest)

    def verify(self, path: str, version: int, digest: bytes) -> None:
        current = self._latest.get(path)
        if current is None:
            raise FreshnessError(f"no committed version known for {path!r}")
        expected_version, expected_digest = current
        if version != expected_version or digest != expected_digest:
            raise FreshnessError(
                f"stale or diverged state for {path!r}: saw version {version}, "
                f"latest committed is {expected_version}"
            )


@dataclass(eq=False)
class FsShieldStats:
    files_written: int = 0
    files_read: int = 0
    chunks_sealed: int = 0
    chunks_opened: int = 0
    crypto_bytes: int = 0
    crypto_time: float = 0.0
    # Cache effectiveness and real (wall-clock) crypto cost, as opposed
    # to the simulated time charged through the cost model above.
    key_cache_hits: int = 0
    key_cache_misses: int = 0
    chunk_cache_hits: int = 0
    chunk_cache_misses: int = 0
    real_crypto_time: float = 0.0
    bytes_by_cipher: Dict[str, int] = field(default_factory=dict)
    # Storage-plane robustness counters.
    torn_writes_detected: int = 0     # invalid/missing stored artifacts seen
    chunks_repaired: int = 0          # replicas rewritten from an intact copy
    recovery_scans: int = 0           # mount-time recover() passes
    recoveries_rolled_back: int = 0   # uncommitted flips discarded
    recoveries_rolled_forward: int = 0  # freshness commits completed post-crash
    replicas_written: int = 0         # chunk replicas written (in extents)
    # Bytes through uncharged SHA-256: chunk and manifest digests on a
    # write, the scrub (every replica) and the manifest digest on a read.
    digest_bytes: int = 0


class FileSystemShield:
    """Transparent file protection in front of the syscall layer."""

    def __init__(
        self,
        syscalls: SyscallInterface,
        master_key: bytes,
        rules: List[PathRule],
        cost_model: CostModel,
        clock: SimClock,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        freshness: Optional[FreshnessTracker] = None,
        chunk_cache_bytes: int = DEFAULT_CHUNK_CACHE_BYTES,
        replicas: int = 1,
        memory: Optional[EnclaveMemory] = None,
    ) -> None:
        if len(master_key) != 32:
            raise ShieldError("file-system shield needs a 32-byte master key")
        if chunk_size <= 0:
            raise ShieldError(f"chunk size must be positive: {chunk_size}")
        if replicas < 1:
            raise ShieldError(f"replica count must be >= 1: {replicas}")
        self._replicas = replicas
        self._syscalls = syscalls
        self._master_key = master_key
        self._rules = list(rules)
        self._model = cost_model
        self._clock = clock
        #: Memory of the enclave the shield runs in (a cache hit is a copy
        #: through it); None for an owner-side shield outside any enclave.
        self._memory = memory
        self._chunk_size = chunk_size
        self._freshness = freshness
        self._versions: Dict[str, int] = {}
        self._file_keys: Dict[str, bytes] = {}
        # Plaintext chunk cache.  The key binds (path, version, manifest
        # digest, chunk index): any rewrite bumps the version and any
        # tampering changes the digest, so stale or forged content can
        # never be served — the cache fails closed to a decrypt+verify.
        # An entry is (plaintext, its share of the file's simulated size).
        self._chunk_cache: (
            "OrderedDict[Tuple[str, int, bytes, int], Tuple[bytes, int]]"
        ) = OrderedDict()
        self._chunk_cache_capacity = max(0, chunk_cache_bytes)
        self._chunk_cache_used = 0
        self.stats = FsShieldStats()
        stats_registry.register("fs", self.stats, clock)

    # ------------------------------------------------------------------
    # Policy resolution
    # ------------------------------------------------------------------

    def policy_for(self, path: str) -> ShieldPolicy:
        """Longest-prefix rule match; default PASSTHROUGH (paper default)."""
        best: Optional[PathRule] = None
        for rule in self._rules:
            if path.startswith(rule.prefix):
                if best is None or len(rule.prefix) > len(best.prefix):
                    best = rule
        return best.policy if best is not None else ShieldPolicy.PASSTHROUGH

    # ------------------------------------------------------------------
    # Key/nonce derivation
    # ------------------------------------------------------------------

    def _file_key(self, path: str) -> bytes:
        key = self._file_keys.get(path)
        if key is not None:
            self.stats.key_cache_hits += 1
            return key
        self.stats.key_cache_misses += 1
        key = hkdf(
            salt=b"securetf-fs-shield",
            ikm=self._master_key,
            info=path.encode("utf-8"),
            length=32,
        )
        self._file_keys[path] = key
        return key

    @staticmethod
    def _chunk_nonce(version: int, index: int) -> bytes:
        # 32 bits of version: write_file refuses to seal past them.  On
        # a read a larger (host-supplied) version only picks a nonce that
        # cannot verify, because the AAD binds the version in full.
        return struct.pack(">IQ", version & 0xFFFFFFFF, index)

    def _charge_crypto(self, simulated_bytes: int, n_chunks: int) -> None:
        duration = (
            simulated_bytes / self._model.fs_shield_crypto_bandwidth
            + n_chunks * self._model.fs_shield_chunk_overhead
        )
        self._clock.advance(duration)
        if probe.SINK is not None:
            probe.SINK.charge(
                self._clock,
                "crypto",
                duration,
                count=max(1, n_chunks),
                histogram="fs.chunk_crypto",
            )
        self.stats.crypto_bytes += simulated_bytes
        self.stats.crypto_time += duration

    def _charge_copy(self, simulated_bytes: int) -> None:
        """A cache hit is not free: the cached bytes are copied to the
        caller at the memory bandwidth of wherever the shield runs."""
        if self._memory is not None:
            self._memory.charge_bytes(simulated_bytes)
        elif simulated_bytes > 0:
            self._clock.advance(simulated_bytes / self._model.native_memory_bandwidth)

    @staticmethod
    def _simulated_shares(
        simulated: int, plaintext_size: int, chunk_size: int, n_chunks: int
    ) -> List[int]:
        """Each chunk's share of the file's simulated size, proportional
        to its plaintext bytes; the shares sum to ``simulated`` exactly."""
        if plaintext_size == 0:  # the one empty chunk of an empty file
            return [simulated]
        stops = [
            simulated * min(count * chunk_size, plaintext_size) // plaintext_size
            for count in range(n_chunks + 1)
        ]
        return [stop - start for start, stop in zip(stops, stops[1:])]

    def _digest(self, data: bytes) -> bytes:
        """SHA-256 of a chunk or a manifest, counted (charged nothing)."""
        self.stats.digest_bytes += len(data)
        return hashlib.sha256(data).digest()

    def _account_real_crypto(self, label: str, n_bytes: int, elapsed: float) -> None:
        self.stats.real_crypto_time += elapsed
        by_cipher = self.stats.bytes_by_cipher
        by_cipher[label] = by_cipher.get(label, 0) + n_bytes

    # ------------------------------------------------------------------
    # Plaintext chunk cache
    # ------------------------------------------------------------------

    def _chunk_cache_get(
        self, path: str, version: int, digest: bytes, index: int
    ) -> Optional[bytes]:
        entry = self._chunk_cache.get((path, version, digest, index))
        if entry is None:
            self.stats.chunk_cache_misses += 1
            return None
        self._chunk_cache.move_to_end((path, version, digest, index))
        self.stats.chunk_cache_hits += 1
        return entry[0]

    def _chunk_cache_put(
        self,
        path: str,
        version: int,
        digest: bytes,
        index: int,
        plaintext: bytes,
        share: int,
    ) -> None:
        """Hand a chunk to the cache (no copy, no charge).  It occupies
        ``share`` — its simulated bytes, the currency a hit is charged in
        — so what fits is decided by the modelled sizes, not by how small
        the stand-in bytes are; eviction is LRU and free."""
        if self._chunk_cache_capacity <= 0:
            return
        if share > self._chunk_cache_capacity:
            return
        key = (path, version, digest, index)
        old = self._chunk_cache.pop(key, None)
        if old is not None:
            self._chunk_cache_used -= old[1]
        self._chunk_cache[key] = (plaintext, share)
        self._chunk_cache_used += share
        while self._chunk_cache_used > self._chunk_cache_capacity:
            _, (_, evicted) = self._chunk_cache.popitem(last=False)
            self._chunk_cache_used -= evicted

    def _warm_chunk_cache(
        self, path: str, version: int, digest: bytes, chunks: List[bytes], simulated: int
    ) -> None:
        """Cache a file just written: an immediate read-back (model deploy
        followed by service start) then skips the decrypt entirely."""
        shares = self._simulated_shares(
            simulated, sum(map(len, chunks)), self._chunk_size, len(chunks)
        )
        for index, (chunk, share) in enumerate(zip(chunks, shares)):
            self._chunk_cache_put(path, version, digest, index, chunk, share)

    # ------------------------------------------------------------------
    # Chunk protection
    # ------------------------------------------------------------------

    def _protect_chunks(
        self, path: str, policy: ShieldPolicy, version: int, chunks: List[bytes]
    ) -> Tuple[List[bytes], str]:
        aads = [
            self._aad(path, policy, version, index, len(chunks))
            for index in range(len(chunks))
        ]
        if policy is ShieldPolicy.ENCRYPT:
            aead = get_aead(CIPHER, self._file_key(path))
            nonces = [self._chunk_nonce(version, index) for index in range(len(chunks))]
            protected, crypto_label = aead.seal_many(nonces, chunks, aads), CIPHER
        else:  # AUTHENTICATE: plaintext chunks, keyed digests alongside
            key = self._file_key(path)
            protected = [
                hashlib.sha256(key + aad + chunk).digest() + chunk
                for aad, chunk in zip(aads, chunks)
            ]
            crypto_label = "sha256-auth"
        self.stats.chunks_sealed += len(chunks)
        return protected, crypto_label

    def _open_chunks(
        self,
        path: str,
        policy: ShieldPolicy,
        version: int,
        digest: bytes,
        shares: List[int],
        load: Callable[[], Tuple[List[bytes], Optional[Callable[[], None]]]],
    ) -> List[bytes]:
        """Every chunk's plaintext, from the cache where it is there.

        If any is not, ``load() -> (every protected chunk, self-heal or
        None)`` fetches the stored file once and the missing chunks are
        opened as **one** batch — every chunk authenticates before any
        plaintext exists — and only then self-healed, counted and
        cached.  Raises ShieldError naming the first chunk that fails.

        The caller has authenticated the manifest and checked policy and
        freshness; this is the one place a read is charged, by ``shares``
        (each chunk's simulated bytes): a cached chunk costs a copy of
        its share, and crypto is paid for the chunks to open, before
        they are fetched, then one copy into the enclave of their shares
        plus tags (HW only: NATIVE and SIM copied them with the read).
        """
        started = time.perf_counter()
        n_chunks = len(shares)
        parts: List[Optional[bytes]] = [
            self._chunk_cache_get(path, version, digest, index)
            for index in range(n_chunks)
        ]
        missing = [index for index, part in enumerate(parts) if part is None]
        to_open = sum(shares[index] for index in missing)
        self._charge_copy(sum(shares) - to_open)
        if not missing:
            return parts
        self._charge_crypto(to_open, max(1, -(-to_open // self._chunk_size)))
        stored, heal = load()
        # The AEAD below authenticates this enclave copy, whatever the
        # host's buffer holds by now: the scrub's check was advisory.
        overhead = _chunk_overhead(policy.value)
        self._syscalls.copy_in(sum(shares[index] + overhead for index in missing))
        aads = [self._aad(path, policy, version, index, n_chunks) for index in missing]
        blobs = [stored[index] for index in missing]
        if policy is ShieldPolicy.ENCRYPT:
            aead = get_aead(CIPHER, self._file_key(path))
            nonces = [self._chunk_nonce(version, index) for index in missing]
            try:
                opened = aead.open_many(nonces, blobs, aads)
            except IntegrityError as exc:
                raise ShieldError(
                    f"chunk {missing[exc.position]} of {path!r} failed authentication"
                ) from exc
            crypto_label = CIPHER
        else:
            key = self._file_key(path)
            opened = []
            for index, blob, aad in zip(missing, blobs, aads):
                if len(blob) < _AUTH_MAC_SIZE:
                    raise ShieldError(f"chunk {index} of {path!r} truncated")
                mac, body = blob[:_AUTH_MAC_SIZE], blob[_AUTH_MAC_SIZE:]
                if hashlib.sha256(key + aad + body).digest() != mac:
                    raise ShieldError(f"chunk {index} of {path!r} failed authentication")
                opened.append(body)
            crypto_label = "sha256-auth"
        if heal is not None:  # rewrite every damaged replica
            heal()
        real_bytes = 0
        for index, part in zip(missing, opened):
            parts[index] = part
            real_bytes += len(part)
            self.stats.chunks_opened += 1
            self._chunk_cache_put(path, version, digest, index, part, shares[index])
        if real_bytes:
            self._account_real_crypto(
                crypto_label, real_bytes, time.perf_counter() - started
            )
        return parts

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def write_file(
        self, path: str, plaintext: bytes, declared_size: Optional[int] = None
    ) -> None:
        """Protect and persist a file according to its path's policy."""
        policy = self.policy_for(path)
        simulated = declared_size if declared_size is not None else len(plaintext)
        # Version = what the OS says the next write will get, floored by
        # this shield instance's own counter.  The floor matters: a lying
        # kernel reporting a stale version would otherwise trick us into
        # reusing a (key, nonce) pair — a nonce-reuse Iago attack.  The
        # OS-reported value is what lets a *fresh* shield instance (e.g.
        # the owner re-deploying a model) continue the version sequence
        # that the CAS audit log enforces monotonically.
        version = max(
            self._syscalls.next_version(path), self._versions.get(path, -1) + 1
        )
        if version >= _VERSION_LIMIT:
            # The chunk nonce carries 32 bits of version: a kernel that
            # answers v + 2^32 would have generation v's (key, nonce)
            # pairs seal new plaintext.
            raise IagoError(
                f"file version {version} for {path!r} does not fit the "
                f"32-bit nonce field"
            )
        self._versions[path] = version

        if policy is ShieldPolicy.PASSTHROUGH:
            self._syscalls.write_file(path, plaintext, declared_size=declared_size)
            self.stats.files_written += 1
            return

        chunks = self._split(plaintext)
        started = time.perf_counter()
        protected, crypto_label = self._protect_chunks(path, policy, version, chunks)
        self._account_real_crypto(
            crypto_label, len(plaintext), time.perf_counter() - started
        )

        # The crash-consistent commit: shadow extents -> pending manifest
        # -> atomic rename flip -> freshness commit -> GC.
        self._syscalls.write_files(
            [self._extent_path(path, version, r) for r in range(self._replicas)],
            b"".join(protected),
            enclave_bytes=0,  # sealed into the host's buffer
        )
        self.stats.replicas_written += self._replicas * len(protected)
        body_bytes = encoding.encode(
            {
                "policy": policy.value,
                "version": version,
                "cipher": CIPHER,
                "chunk_size": self._chunk_size,
                "plaintext_size": len(plaintext),
                "declared_size": simulated,
                "n_chunks": len(chunks),
                "replicas": self._replicas,
                "chunk_digests": [self._digest(blob) for blob in protected],
            }
        )
        manifest = encoding.encode(
            {"body": body_bytes, "mac": self._manifest_mac(path, body_bytes)}
        )
        self._charge_crypto(simulated, max(1, -(-simulated // self._chunk_size)))
        pending = path + COMMIT_SUFFIX
        # A caller's declared size rides on the manifest write (the
        # extents pay for their real bytes), floored at the manifest's
        # own length.  It stands in for sealed bytes, so only the
        # manifest, built and MAC'd in the enclave, is copied out of it.
        declared = None if declared_size is None else max(declared_size, len(manifest))
        self._syscalls.write_file(
            pending, manifest, declared_size=declared, enclave_bytes=len(manifest)
        )
        self._syscalls.rename(pending, path)  # THE commit point
        self.stats.files_written += 1
        digest = self._digest(manifest)
        if self._freshness is not None:
            self._freshness.commit(path, version, digest)
        self._gc_generations(path, version, self._syscalls.list_dir(path + CHUNK_MARKER))
        self._warm_chunk_cache(path, version, digest, chunks, simulated)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def read_file(self, path: str) -> bytes:
        """Read, verify, and (if encrypted) decrypt a protected file."""
        policy = self.policy_for(path)
        protected = policy is not ShieldPolicy.PASSTHROUGH
        file = self._syscalls.read_file(
            path, enclave_bytes=_MANIFEST_BYTES if protected else None
        )
        self.stats.files_read += 1
        if not protected:
            return file.content
        body, digest = self._authenticated_manifest(path, policy, file.content)

        def load() -> Tuple[List[bytes], Callable[[], None]]:
            blobs, heal = self._scrub_extents(path, body)
            if None in blobs:
                raise ShieldError(
                    f"chunk {blobs.index(None)} of {path!r}: no intact replica remains"
                )
            return blobs, heal

        return self._reassemble(path, body["plaintext_size"], self._open_chunks(
            path, policy, body["version"], digest,
            self._simulated_shares(
                body["declared_size"], body["plaintext_size"], body["chunk_size"],
                body["n_chunks"],
            ),
            load,
        ))

    def _authenticated_manifest(
        self, path: str, policy: ShieldPolicy, raw: bytes
    ) -> Tuple[dict, bytes]:
        """The body of ``raw``, the manifest stored at protected ``path``,
        and its digest, once its MAC, its policy and its freshness record
        pass."""
        body = self._read_manifest(path, raw)
        if body["policy"] != policy.value:
            raise ShieldError(
                f"policy mismatch for {path!r}: stored {body['policy']!r}, "
                f"configured {policy.value!r}"
            )
        digest = self._digest(raw)
        if self._freshness is not None:
            self._freshness.verify(path, body["version"], digest)
        return body, digest

    @staticmethod
    def _reassemble(path: str, recorded_size: int, parts: List[bytes]) -> bytes:
        plaintext = b"".join(parts)
        if len(plaintext) != recorded_size:
            raise ShieldError(
                f"reassembled size {len(plaintext)} != recorded "
                f"{recorded_size} for {path!r}"
            )
        return plaintext

    # ------------------------------------------------------------------
    # Storage layout: extents, manifest, self-healing
    # ------------------------------------------------------------------

    @staticmethod
    def _extent_path(path: str, version: int, replica: int) -> str:
        """One replica of a generation (middle field: its first chunk, 0)."""
        return f"{path}{CHUNK_MARKER}{version}.0.{replica}"

    @staticmethod
    def _extent_slots(body: dict) -> List[Tuple[int, int]]:
        """``(start, stop)`` of every protected chunk inside an extent,
        derived from the manifest's geometry and stored nowhere."""
        overhead = _chunk_overhead(body["policy"])
        stops = [
            min(count * body["chunk_size"], body["plaintext_size"]) + count * overhead
            for count in range(1, body["n_chunks"] + 1)
        ]
        return list(zip([0] + stops, stops))

    def _manifest_mac(self, path: str, body_bytes: bytes) -> bytes:
        return hashlib.sha256(
            self._file_key(path) + _MANIFEST_MAC_INFO + body_bytes
        ).digest()

    def _read_manifest(self, path: str, raw: bytes) -> dict:
        """Decode and authenticate the manifest stored at ``path`` and
        return its body; ShieldError for anything else — torn, forged,
        malformed or not a manifest at all."""
        try:
            envelope = encoding.decode(raw)
        except IntegrityError as exc:
            raise ShieldError(f"corrupt manifest for {path!r}") from exc
        if not (isinstance(envelope, dict) and isinstance(envelope.get("body"), bytes)):
            raise ShieldError(f"no shield manifest at {path!r}")
        if envelope.get("mac") != self._manifest_mac(path, envelope["body"]):
            raise ShieldError(f"manifest of {path!r} failed authentication")
        body = encoding.decode(envelope["body"])
        for name in (
            "policy", "version", "cipher", "chunk_size", "plaintext_size",
            "declared_size", "n_chunks", "replicas", "chunk_digests",
        ):
            if name not in body:
                raise ShieldError(f"manifest of {path!r} missing {name!r}")
        if len(body["chunk_digests"]) != body["n_chunks"]:
            raise ShieldError(f"manifest of {path!r} has inconsistent geometry")
        try:
            check_cipher(body["cipher"])
        except ConfigurationError as exc:
            raise ShieldError(f"manifest of {path!r}: {exc}") from exc
        return body

    def _gc_generations(self, path: str, keep_version: int, listing: List[str]) -> None:
        """Unlink, of the listed extents of ``path``, every generation
        except ``keep_version`` and any repair still pending."""
        marker = path + CHUNK_MARKER
        for extent in listing:
            try:
                generation = int(extent[len(marker):].split(".", 1)[0])
            except ValueError:
                continue
            if generation != keep_version or extent.endswith(COMMIT_SUFFIX):
                self._syscalls.unlink(extent)

    def _scrub_extents(
        self, path: str, body: dict
    ) -> Tuple[List[Optional[bytes]], Callable[[], None]]:
        """Fetch every replica's extent once and check it slot by slot
        against the manifest digests.  Returns (per chunk: the first
        intact copy or None, ``heal``).

        ``heal()`` re-replicates the intact copies into every damaged
        replica — never in place: a damaged extent may hold the only
        intact bytes of *another* chunk, so the reassembled extent is
        written under a pending name and renamed over it, and a torn or
        crashed repair leaves the old copy whole.  A chunk no replica
        still has keeps the replica's own bytes in its slot."""
        slots, digests = self._extent_slots(body), body["chunk_digests"]
        blobs: List[Optional[bytes]] = [None] * len(slots)
        damaged: Dict[str, Tuple[bytes, List[int]]] = {}  # by extent path
        for replica in range(body["replicas"]):
            target = self._extent_path(path, body["version"], replica)
            try:
                # Checked where it lies: only _open_chunks copies bytes in.
                extent = self._syscalls.read_file(target, enclave_bytes=0).content
            except SyscallError:
                extent = b""  # a missing replica has lost every chunk
            for index, (start, stop) in enumerate(slots):
                blob = extent[start:stop]
                if self._digest(blob) != digests[index]:
                    damaged.setdefault(target, (extent, []))[1].append(index)
                    self.stats.torn_writes_detected += 1
                elif blobs[index] is None:
                    blobs[index] = blob

        def heal() -> None:
            for target, (extent, indices) in damaged.items():
                healable = sum(blobs[index] is not None for index in indices)
                if not healable:
                    continue
                self._syscalls.write_file(
                    target + COMMIT_SUFFIX,
                    b"".join(
                        blob if blob is not None
                        else extent[start:stop].ljust(stop - start, b"\0")
                        for blob, (start, stop) in zip(blobs, slots)
                    ),
                    enclave_bytes=0,  # host to host: ciphertext the scrub found
                )
                self._syscalls.rename(target + COMMIT_SUFFIX, target)
                self.stats.chunks_repaired += healable

        return blobs, heal

    # ------------------------------------------------------------------
    # Mount-time recovery scan
    # ------------------------------------------------------------------

    def recover(self, prefix: str = "", heal: bool = True) -> Dict[str, str]:
        """Reconcile untrusted storage after a crash (run at mount).

        Per protected file: discards uncommitted manifest flips (the old
        version stays live), completes freshness commits interrupted
        between the flip and the tracker (authenticated roll-forward —
        only the *next* version with a valid MAC qualifies; anything
        older is a rollback and stays rejected), garbage-collects stale
        generations and unfinished repairs, and (``heal=True``)
        re-replicates damaged chunk copies.  Returns ``{path: outcome}`` with outcomes
        ``clean`` / ``rolled-back`` / ``rolled-forward`` / ``stale`` /
        ``damaged``.  Never raises on a damaged or stale file — those
        fail closed at read time.
        """
        self.stats.recovery_scans += 1
        report: Dict[str, str] = {}
        paths = self._syscalls.list_dir(prefix)

        strays: Dict[str, List[str]] = {}
        bases: List[str] = []
        for p in paths:
            if CHUNK_MARKER in p:
                # Extents — and pending repairs of one, which are only
                # collected: an unfinished repair rolled nothing back.
                strays.setdefault(p.split(CHUNK_MARKER, 1)[0], []).append(p)
            elif p.endswith(COMMIT_SUFFIX):
                base = p[: -len(COMMIT_SUFFIX)]
                # An unflipped commit: the crash landed between the
                # pending-manifest write and the rename.  Roll back.
                self._syscalls.unlink(p)
                self.stats.recoveries_rolled_back += 1
                report[base] = "rolled-back"
            else:
                bases.append(p)

        for base in sorted(set(bases) | set(strays)):
            if self.policy_for(base) is ShieldPolicy.PASSTHROUGH:
                continue
            if base not in bases:
                # Shadow extents without any manifest: the first commit of
                # a new file never flipped.  The file never existed.
                for p in strays.get(base, []):
                    self._syscalls.unlink(p)
                if base not in report:
                    self.stats.recoveries_rolled_back += 1
                    report[base] = "rolled-back"
                continue
            raw = self._syscalls.read_file(base, enclave_bytes=_MANIFEST_BYTES).content
            try:
                body = self._read_manifest(base, raw)
            except ShieldError:
                # Torn, forged or foreign: the extents may be all that is
                # left of the file, so they stay for the reader to refuse.
                self.stats.torn_writes_detected += 1
                report[base] = "damaged"
                continue
            version = body["version"]
            digest = self._digest(raw)
            outcome = report.get(base, "clean")
            if self._freshness is not None:
                try:
                    self._freshness.verify(base, version, digest)
                except FreshnessError:
                    try:
                        # Roll forward: the commit reached disk but died
                        # before the tracker heard about it.  commit()
                        # enforces monotonicity, so only a genuinely
                        # newer (and MAC-valid) manifest can pass here.
                        self._freshness.commit(base, version, digest)
                        outcome = "rolled-forward"
                        self.stats.recoveries_rolled_forward += 1
                    except FreshnessError:
                        outcome = "stale"
            # GC stale generations (crash during a previous GC) and
            # repairs that never reached their rename.
            self._gc_generations(base, version, strays.get(base, []))
            if heal and outcome in ("clean", "rolled-forward"):
                blobs, repair = self._scrub_extents(base, body)
                if None in blobs:
                    outcome = "damaged"
                repair()
            report[base] = outcome
        return report

    def drop_caches(self) -> None:
        """Forget cached file keys and plaintext chunks (never required
        for correctness — the caches are version- and digest-bound — but
        lets tests and benchmarks force the cold path)."""
        self._file_keys.clear()
        self._chunk_cache.clear()
        self._chunk_cache_used = 0

    def stat(self, path: str) -> int:
        """Size of a file: a protected one's declared size, answered by
        its authenticated manifest (after the checks a read makes), not
        by the host's size of the manifest file."""
        policy = self.policy_for(path)
        if policy is ShieldPolicy.PASSTHROUGH:
            return self._syscalls.stat(path)
        raw = self._syscalls.read_file(path, enclave_bytes=_MANIFEST_BYTES).content
        return self._authenticated_manifest(path, policy, raw)[0]["declared_size"]

    def exists(self, path: str) -> bool:
        return self._syscalls.exists(path)

    # ------------------------------------------------------------------

    def _split(self, data: bytes) -> List[bytes]:
        if not data:
            return [b""]
        return [
            data[i: i + self._chunk_size]
            for i in range(0, len(data), self._chunk_size)
        ]

    @staticmethod
    def _aad(
        path: str, policy: ShieldPolicy, version: int, index: int, n_chunks: int
    ) -> bytes:
        return encoding.encode(
            {
                "path": path,
                "policy": policy.value,
                "version": version,
                "index": index,
                "n_chunks": n_chunks,
            }
        )
