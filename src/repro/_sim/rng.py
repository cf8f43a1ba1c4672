"""Deterministic randomness.

All stochastic behaviour in the simulation (key generation nonces in
tests, synthetic datasets, failure injection) flows through
:class:`DeterministicRng` so that every benchmark and test is exactly
reproducible.  Real deployments would use an OS CSPRNG; the enclave
simulator substitutes a seeded SHA-256-based generator, which is
cryptographically *shaped* (forward-secure expansion) even though the
seed is public in tests.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Optional

import numpy as np

_INF = math.inf


class DeterministicRng:
    """Seeded RNG offering both numpy streams and crypto-style bytes."""

    def __init__(self, seed: int = 0, label: str = "repro") -> None:
        self._seed = int(seed)
        self._label = label
        self._numpy = np.random.default_rng(self._derive_int("numpy"))
        self._counter = 0

    @property
    def seed(self) -> int:
        return self._seed

    def _derive_int(self, purpose: str) -> int:
        digest = hashlib.sha256(
            f"{self._label}|{self._seed}|{purpose}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def random_bytes(self, n: int) -> bytes:
        """Produce ``n`` pseudo-random bytes (deterministic per seed)."""
        if n < 0:
            raise ValueError(f"negative byte count: {n}")
        out = bytearray()
        while len(out) < n:
            block = hashlib.sha256(
                f"{self._label}|{self._seed}|bytes".encode()
                + struct.pack(">Q", self._counter)
            ).digest()
            self._counter += 1
            out.extend(block)
        return bytes(out[:n])

    def child(self, label: str) -> "DeterministicRng":
        """Derive an independent RNG for a sub-component."""
        return DeterministicRng(self._derive_int(f"child|{label}"), label=label)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One draw from ``[low, high)``: the float ``Generator.uniform``
        returns for the same state (it computes this expression in C
        after some microseconds of array-argument handling), and its
        errors for a range it refuses."""
        span = high - low
        if not 0.0 <= span < _INF:
            if -_INF < span < 0.0:
                raise ValueError("high - low < 0")
            raise OverflowError("high - low range exceeds valid bounds")
        return low + span * self._numpy.random()

    def randint(self, low: int, high: Optional[int] = None) -> int:
        return int(self._numpy.integers(low, high))
