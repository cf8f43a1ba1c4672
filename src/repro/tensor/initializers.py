"""Weight initializers (deterministic, seeded via numpy Generators)."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Initializer = Callable[[Sequence[int], np.random.Generator], np.ndarray]


def zeros() -> Initializer:
    def init(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        return np.zeros(shape, dtype=np.float32)

    return init


def ones() -> Initializer:
    def init(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        return np.ones(shape, dtype=np.float32)

    return init


def _fan_in_out(shape: Sequence[int]) -> "tuple[int, int]":
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:  # kh, kw, cin, cout
        receptive = shape[0] * shape[1]
        return receptive * shape[2], receptive * shape[3]
    n = int(np.prod(shape[:-1])) if len(shape) > 1 else shape[0]
    return n, shape[-1]


def glorot_uniform() -> Initializer:
    def init(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        fan_in, fan_out = _fan_in_out(shape)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape).astype(np.float32)

    return init


def he_normal() -> Initializer:
    def init(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        fan_in, _ = _fan_in_out(shape)
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)

    return init
