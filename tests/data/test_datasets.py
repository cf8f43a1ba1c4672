"""Synthetic datasets: shapes, determinism, learnability, batching."""

import numpy as np
import pytest

from repro.data import Dataset, one_hot, synthetic_cifar10, synthetic_mnist
from repro.data.cifar10 import CIFAR10_CLASSES
from repro.errors import ConfigurationError


def test_mnist_shapes_and_ranges():
    train, test = synthetic_mnist(n_train=200, n_test=50, seed=0)
    assert train.images.shape == (200, 28, 28, 1)
    assert test.images.shape == (50, 28, 28, 1)
    assert train.images.dtype == np.float32
    assert train.images.min() >= 0.0 and train.images.max() <= 1.0
    assert set(np.unique(train.labels)) <= set(range(10))


def test_cifar_shapes_and_classes():
    train, test = synthetic_cifar10(n_train=100, n_test=20, seed=0)
    assert train.images.shape == (100, 32, 32, 3)
    assert len(CIFAR10_CLASSES) == 10
    assert train.num_classes == 10


def test_determinism():
    a, _ = synthetic_mnist(n_train=50, n_test=10, seed=7)
    b, _ = synthetic_mnist(n_train=50, n_test=10, seed=7)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    c, _ = synthetic_mnist(n_train=50, n_test=10, seed=8)
    assert not np.array_equal(a.images, c.images)


def test_classes_are_linearly_separable_enough():
    """A least-squares linear probe beats chance by a wide margin."""
    train, test = synthetic_mnist(n_train=1000, n_test=300, seed=1)
    x = train.images.reshape(len(train), -1)
    y = train.one_hot_labels
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    predictions = (test.images.reshape(len(test), -1) @ w).argmax(axis=1)
    assert (predictions == test.labels).mean() > 0.6


def test_cifar_learnable_by_linear_probe():
    train, test = synthetic_cifar10(n_train=1000, n_test=300, seed=1)
    x = train.images.reshape(len(train), -1)
    w, *_ = np.linalg.lstsq(x, train.one_hot_labels, rcond=None)
    predictions = (test.images.reshape(len(test), -1) @ w).argmax(axis=1)
    assert (predictions == test.labels).mean() > 0.6


def test_one_hot():
    out = one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(out, np.eye(3, dtype=np.float32)[[0, 2, 1]])
    with pytest.raises(ConfigurationError):
        one_hot(np.array([3]), 3)
    with pytest.raises(ConfigurationError):
        one_hot(np.array([[0]]), 3)


def test_batching_covers_everything_once():
    train, _ = synthetic_mnist(n_train=25, n_test=5, seed=0)
    batches = list(train.batches(10))
    assert [len(b[0]) for b in batches] == [10, 10, 5]
    total = sum(len(b[0]) for b in batches)
    assert total == 25
    with pytest.raises(ConfigurationError):
        list(train.batches(0))


def test_shuffled_batches_are_permutation():
    train, _ = synthetic_mnist(n_train=30, n_test=5, seed=0)
    plain = np.concatenate([b[0] for b in train.batches(8)])
    shuffled = np.concatenate([b[0] for b in train.batches(8, shuffle_seed=3)])
    assert not np.array_equal(plain, shuffled)
    np.testing.assert_allclose(
        np.sort(plain.ravel()), np.sort(shuffled.ravel())
    )


def test_take_and_example_bytes():
    train, _ = synthetic_mnist(n_train=20, n_test=5, seed=0)
    small = train.take(4)
    assert len(small) == 4
    assert small.images[3].tobytes() == train.images[3].tobytes()
    assert small.images.nbytes == 4 * 28 * 28 * 4


def test_mismatched_lengths_rejected():
    with pytest.raises(ConfigurationError):
        Dataset(np.zeros((3, 2, 2, 1)), np.zeros(2, dtype=np.int64), 10)
