"""Deterministic weight sharding + gradient quantization (§5.4 scale-out).

The sharded training plane partitions the model across N parameter-server
enclaves.  Two pieces live here because both ends of the wire must agree
on them bit-for-bit:

:class:`ShardMap`
    A deterministic assignment of model state to shards.  Variables
    bigger than a shard's fair share are split into contiguous **row
    ranges** (axis 0) — the same trick real sharded parameter servers
    use, and the only one that helps when one ``fc`` kernel is 96% of
    the model.  Pieces are placed by longest-processing-time greedy
    (sorted by descending size, name-tie-broken), so the map is a pure
    function of (variable shapes, shard count) and every worker, shard,
    and restarted replacement derives the identical map.

:class:`GradientQuantizer`
    Symmetric per-tensor affine quantization of gradients to ``bits``
    integers.  Cuts shield-crypto bytes on the wire ~4x at 8 bits; the
    codec is deterministic (``np.rint`` half-to-even, scale from the
    tensor's max magnitude) so two same-seed runs produce byte-identical
    wire payloads, and dequantized SGD stays reproducible under chaos.

:class:`SecureAggregation`
    The other push codec: a data owner's model as one additive ring
    share per shard, so no single shard enclave sees it (§6.2).

Per-shard runtime counters (:class:`ShardTrainingStats`) also live here;
parameter servers register them with the stats registry so
``collect_metrics`` can aggregate the training plane per shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.crypto.masking import combine_tensor_shares, decode_fixed, share_tensors
from repro.errors import ClusterError, ConfigurationError

#: Wire-name separator between a variable and its row range.  ``#`` is
#: not produced by the tensor layer's scoped names, so piece keys never
#: collide with whole-variable names.
_PIECE_SEP = "#"


@dataclass(frozen=True)
class ShardPiece:
    """One contiguous slice of one variable, owned by one shard."""

    var: str
    key: str
    shard: int
    nbytes: int
    #: Row range [start, stop) along axis 0; ``None`` = whole variable.
    start: Optional[int] = None
    stop: Optional[int] = None

    @property
    def is_split(self) -> bool:
        return self.start is not None


class ShardMap:
    """Deterministic variable→shard partition with large-tensor splitting."""

    def __init__(self, pieces: List[ShardPiece], n_shards: int) -> None:
        if n_shards < 1:
            raise ClusterError(f"shard map needs at least one shard: {n_shards}")
        self.n_shards = n_shards
        self._pieces: Dict[str, ShardPiece] = {p.key: p for p in pieces}
        self._by_var: Dict[str, List[ShardPiece]] = {}
        for piece in pieces:
            self._by_var.setdefault(piece.var, []).append(piece)
        for parts in self._by_var.values():
            parts.sort(key=lambda p: (p.start if p.start is not None else 0))

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls, variables: Mapping[str, np.ndarray], n_shards: int
    ) -> "ShardMap":
        """Derive the map from variable shapes alone.

        Deterministic in (shapes, dtypes, n_shards): every participant
        rebuilds the identical map from its own copy of the model.
        """
        if n_shards < 1:
            raise ClusterError(f"shard map needs at least one shard: {n_shards}")
        if not variables:
            raise ClusterError("cannot shard an empty variable set")
        total = sum(int(v.nbytes) for v in variables.values())
        target = max(1, -(-total // n_shards))  # ceil: a shard's fair share

        pieces: List[Tuple[str, str, int, Optional[int], Optional[int]]] = []
        for name in sorted(variables):
            value = variables[name]
            nbytes = int(value.nbytes)
            rows = int(value.shape[0]) if value.ndim >= 1 else 1
            if nbytes <= target or rows < 2:
                pieces.append((name, name, nbytes, None, None))
                continue
            # Split an oversized variable into even row ranges so no
            # single tensor pins the whole model to one shard.
            n_split = min(rows, -(-nbytes // target))
            base, rem = divmod(rows, n_split)
            row_bytes = nbytes // rows
            start = 0
            for i in range(n_split):
                stop = start + base + (1 if i < rem else 0)
                key = f"{name}{_PIECE_SEP}{start}:{stop}"
                pieces.append((name, key, (stop - start) * row_bytes, start, stop))
                start = stop

        # Longest-processing-time greedy: biggest piece first onto the
        # least-loaded shard (ties: lowest index) — balanced and stable.
        loads = [0] * n_shards
        placed: List[ShardPiece] = []
        for var, key, nbytes, start, stop in sorted(
            pieces, key=lambda p: (-p[2], p[1])
        ):
            shard = min(range(n_shards), key=lambda s: (loads[s], s))
            loads[shard] += nbytes
            placed.append(
                ShardPiece(
                    var=var, key=key, shard=shard, nbytes=nbytes,
                    start=start, stop=stop,
                )
            )
        return cls(placed, n_shards)

    # -- lookups ---------------------------------------------------------

    @property
    def pieces(self) -> List[ShardPiece]:
        return sorted(self._pieces.values(), key=lambda p: p.key)

    def keys_on(self, shard: int) -> List[str]:
        return sorted(p.key for p in self._pieces.values() if p.shard == shard)

    def shard_nbytes(self) -> List[int]:
        sizes = [0] * self.n_shards
        for piece in self._pieces.values():
            sizes[piece.shard] += piece.nbytes
        return sizes

    @property
    def active_shards(self) -> List[int]:
        """Shards that own at least one piece (a map with fewer pieces
        than shards leaves the tail idle; the trainer skips them)."""
        return sorted({p.shard for p in self._pieces.values()})

    # -- tensor movement -------------------------------------------------

    def partition(
        self, tensors: Mapping[str, np.ndarray]
    ) -> List[Dict[str, np.ndarray]]:
        """Slice full tensors into per-shard piece dicts."""
        out: List[Dict[str, np.ndarray]] = [{} for _ in range(self.n_shards)]
        for var, value in tensors.items():
            if var not in self._by_var:
                raise ClusterError(f"no shard owns weight {var!r}")
            for piece in self._by_var[var]:
                sliced = (
                    value[piece.start:piece.stop] if piece.is_split else value
                )
                out[piece.shard][piece.key] = sliced
        return out

    def merge(
        self, parts: Mapping[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Reassemble piece dicts (e.g. the union of shard pulls) into
        full variables; every piece of every touched variable must be
        present — a partial merge would train on frankenweights."""
        merged: Dict[str, np.ndarray] = {}
        for var, pieces in self._by_var.items():
            if not any(p.key in parts for p in pieces):
                continue
            missing = [p.key for p in pieces if p.key not in parts]
            if missing:
                raise ClusterError(
                    f"merge of {var!r} is missing pieces {missing}"
                )
            if len(pieces) == 1 and not pieces[0].is_split:
                merged[var] = np.asarray(parts[pieces[0].key])
            else:
                merged[var] = np.concatenate(
                    [np.asarray(parts[p.key]) for p in pieces], axis=0
                )
        return merged


class GradientQuantizer:
    """Symmetric per-tensor gradient quantization (deterministic).

    ``q = rint(g / scale)`` with ``scale = max|g| / qmax``; dequantized
    values are within ``scale/2`` of the original.  An all-zero tensor
    round-trips exactly (scale 0).  8 bits cuts the payload ~4x against
    float32 — which is what the shield's record crypto and the syscall
    ring are charged for.
    """

    def __init__(self, bits: int = 8) -> None:
        if not 2 <= bits <= 16:
            raise ClusterError(f"quantization bits must be in [2, 16]: {bits}")
        self.bits = bits
        self.qmax = (1 << (bits - 1)) - 1
        self._dtype = np.int8 if bits <= 8 else np.int16

    def quantize(
        self, tensors: Mapping[str, np.ndarray]
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
        quantized: Dict[str, np.ndarray] = {}
        scales: Dict[str, float] = {}
        for name in sorted(tensors):
            value = np.asarray(tensors[name], dtype=np.float32)
            peak = float(np.max(np.abs(value))) if value.size else 0.0
            scale = peak / self.qmax if peak > 0.0 else 0.0
            if scale == 0.0:
                quantized[name] = np.zeros(value.shape, dtype=self._dtype)
            else:
                quantized[name] = np.clip(
                    np.rint(value / np.float32(scale)), -self.qmax, self.qmax
                ).astype(self._dtype)
            scales[name] = scale
        return quantized, scales

    def dequantize(
        self,
        quantized: Mapping[str, np.ndarray],
        scales: Mapping[str, float],
    ) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for name in sorted(quantized):
            scale = float(scales.get(name, 0.0))
            out[name] = (
                np.asarray(quantized[name], dtype=np.float32)
                * np.float32(scale)
            ).astype(np.float32)
        return out

    def declared_bytes(self, float32_bytes: int, n_tensors: int = 1) -> int:
        """Wire-size declaration for a quantized payload that carried
        ``float32_bytes`` before: the integer lattice plus one float32
        scale per tensor."""
        return max(1, float32_bytes * self.bits // 32) + 4 * max(1, n_tensors)


class SecureAggregation:
    """Secure-aggregation push codec; the committee is the PS shards.

    A data owner scales each piece of its model by its example count,
    fixed-point encodes it (:mod:`repro.crypto.masking`) and splits it
    into one additive ring share per shard: share ``s`` of a piece owned
    by shard ``k`` goes to shard ``(k + s) mod m``, on that shard's
    attested channel.  Every shard thus holds one share of every piece,
    uniform noise on its own.  At the round barrier each owner adds the
    wrapping sums the ``m`` members hold of its pieces and divides by
    the example total; ring addition is exact, so the result is the
    unmasked fixed-point FedAvg bit for bit.
    """

    def __init__(self, members: int) -> None:
        if members < 2:
            raise ConfigurationError(
                "secure aggregation needs >= 2 committee members "
                "(a single member's partial sum is the plaintext aggregate)"
            )
        self.members = members

    def split(
        self, parts: List[Dict[str, np.ndarray]], examples: int, rng
    ) -> List[Dict[str, np.ndarray]]:
        """Per-shard model pieces -> per-destination share dicts."""
        out: List[Dict[str, np.ndarray]] = [{} for _ in range(self.members)]
        for owner, part in enumerate(parts):
            weighted = {key: v * np.float32(examples) for key, v in part.items()}
            for s, share in enumerate(share_tensors(weighted, self.members, rng)):
                out[(owner + s) % self.members].update(share)
        return out

    @staticmethod
    def combine(
        partials: List[Dict[str, np.ndarray]], examples: int
    ) -> Dict[str, np.ndarray]:
        """Every member's partial sums of one owner's pieces -> the
        example-weighted mean."""
        return {
            key: (decode_fixed(value) / np.float32(examples)).astype(np.float32)
            for key, value in combine_tensor_shares(partials).items()
        }


@dataclass
class ShardTrainingStats:
    """Per-shard training-plane counters (registered per PS node clock)."""

    shard: str = ""
    pulls: int = 0
    pushes: int = 0
    restarts: int = 0
    quantized_pushes: int = 0
    gradient_bytes_in: int = 0
    gradient_bytes_saved: int = 0
    barrier_commits: int = 0


__all__ = [
    "GradientQuantizer",
    "SecureAggregation",
    "ShardMap",
    "ShardPiece",
    "ShardTrainingStats",
]
