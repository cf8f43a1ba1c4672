"""MNIST networks for the distributed-training experiments (§5.4)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

import repro.tensor as tf
from repro.tensor.graph import Graph, Tensor


def mnist_cnn(rng: np.random.Generator, name: str = "mnist_cnn") -> Tuple[Graph, Tensor, Tensor]:
    """A small LeNet-style CNN: conv-pool ×2, dense, logits."""
    graph = Graph()
    with graph.as_default():
        images = tf.placeholder("float32", (None, 28, 28, 1), name="images")
        net = tf.layers.conv2d(images, 8, 3, activation="relu", name=f"{name}/c1", rng=rng)
        net = tf.layers.max_pool(net, 2, name=f"{name}/p1")
        net = tf.layers.conv2d(net, 16, 3, activation="relu", name=f"{name}/c2", rng=rng)
        net = tf.layers.max_pool(net, 2, name=f"{name}/p2")
        net = tf.layers.flatten(net, name=f"{name}/flat")
        net = tf.layers.dense(net, 64, activation="relu", name=f"{name}/fc1", rng=rng)
        logits = tf.layers.dense(net, 10, name=f"{name}/logits", rng=rng)
    return graph, images, logits
