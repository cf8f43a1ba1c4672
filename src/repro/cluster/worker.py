"""Training workers: local graph + gradients on a data shard (§5.4).

Each worker owns a full local copy of the training graph (data-parallel
replication, as distributed TensorFlow does), executed with the **full
TensorFlow** engine profile — the paper trains with full TF because Lite
cannot train (§3.3.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.tensor as tf
from repro.cluster.node import Node
from repro.errors import ClusterError
from repro.runtime.net_shield import NetworkShield
from repro.runtime.scone import SconeRuntime
from repro.tensor.engine import ExecutionEngine, FULL_TF_TRAINING_PROFILE
from repro.tensor.variables import GLOBAL_VARIABLES


class TrainingWorker:
    """One data-parallel worker bound to a node + runtime (``None``: it
    runs outside the platform, and its compute is not charged)."""

    #: ``None``: pushes gradients.  A data owner (``Hospital``) sets its
    #: dataset size and pushes the model it trained, for FedAvg.
    examples: Optional[int] = None

    def __init__(
        self,
        name: str,
        node: Node,
        runtime: Optional[SconeRuntime],
        model_name: str = "mnist_cnn",
        seed: int = 0,
        threads: int = 4,
        shield: Optional[NetworkShield] = None,
    ) -> None:
        from repro.models import build_model  # local import avoids cycle

        self.name = name
        self.node = node
        self.runtime = runtime
        self.shield = shield
        self.address = f"{name}@{node.node_id}"

        built = build_model(model_name, seed=seed)
        self._built = built
        self.graph = built.graph
        with self.graph.as_default():
            self._labels = tf.placeholder("float32", (None, 10), name=f"{name}/labels")
            self._loss = tf.losses.softmax_cross_entropy(self._labels, built.logits)
            self._variables = [
                v for v in self.graph.get_collection(GLOBAL_VARIABLES) if v.trainable
            ]
            self._grads = tf.gradients(
                self._loss, [v.tensor for v in self._variables]
            )
        engine = (
            ExecutionEngine(runtime, FULL_TF_TRAINING_PROFILE, threads=threads)
            if runtime is not None
            else None
        )
        self._session = tf.Session(graph=self.graph, engine=engine, threads=threads)
        self.declared_model_bytes = int(
            sum(v.nbytes for v in self._variables) * self.graph.weight_scale
        )

    @property
    def variables(self) -> List:
        return list(self._variables)

    def weights(self) -> Dict[str, np.ndarray]:
        """This worker's local weights (the first worker's seed the PS)."""
        return {v.name: v.value for v in self._variables}

    def load_weights(self, weights: Dict[str, np.ndarray]) -> None:
        for var in self._variables:
            if var.name not in weights:
                raise ClusterError(f"pulled weights missing {var.name!r}")
            var.load(weights[var.name])

    def compute_update(self, batch: Tuple) -> Tuple[Dict[str, np.ndarray], float]:
        """(gradients, loss) of one ``(images, labels)`` batch."""
        images, labels = batch
        fetches = list(self._grads) + [self._loss]
        feed = {self._built.input: images, self._labels: labels}
        *grad_values, loss = self._session.run(fetches, feed_dict=feed)
        gradients = {
            var.name: np.asarray(g)
            for var, g in zip(self._variables, grad_values)
        }
        return gradients, float(loss)
