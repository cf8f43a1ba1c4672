"""Dataset container and batching pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels -> one-hot float32 matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ConfigurationError(f"labels must be rank-1, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ConfigurationError(
            f"labels out of range [0, {num_classes}): "
            f"[{labels.min()}, {labels.max()}]"
        )
    return np.eye(num_classes, dtype=np.float32)[labels]


@dataclass
class Dataset:
    """Images + integer labels, with batching helpers."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        if len(self.images) != len(self.labels):
            raise ConfigurationError(
                f"{len(self.images)} images vs {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.images)

    @property
    def one_hot_labels(self) -> np.ndarray:
        return one_hot(self.labels, self.num_classes)

    def batches(
        self, batch_size: int, shuffle_seed: Optional[int] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(images, one_hot_labels)`` batches (last may be short)."""
        if batch_size <= 0:
            raise ConfigurationError(f"batch size must be positive: {batch_size}")
        indices = np.arange(len(self))
        if shuffle_seed is not None:
            np.random.default_rng(shuffle_seed).shuffle(indices)
        onehot = self.one_hot_labels
        for start in range(0, len(self), batch_size):
            batch = indices[start: start + batch_size]
            yield self.images[batch], onehot[batch]

    def take(self, n: int) -> "Dataset":
        """The first ``n`` examples as a new dataset."""
        return Dataset(
            self.images[:n], self.labels[:n], self.num_classes, name=self.name
        )
