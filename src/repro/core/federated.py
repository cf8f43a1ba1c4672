"""Secure federated learning — the medical use case of §6.2 (Fig. 10).

Hospitals train locally on their private data (their own machines, which
they trust) and share only model parameters.  Because local models still
leak (§6.2 cites model-inversion and GAN attacks), the *global
aggregation* runs inside attested secureTF enclaves over network-shield
TLS.

A federation is a :class:`~repro.core.training.TrainingJob` whose
workers are the hospitals and whose PS shards aggregate, so a round is
a round of the one trainer, with its retries, at-most-once window,
fencing and checkpoints.  A hospital's step is ``local_steps`` of SGD
from the global model; the shards install the example-weighted mean of
the pushed models at the round barrier (FedAvg).  With
``secure_aggregation=True`` the ``n_aggregators`` shards receive them
through the :class:`~repro.cluster.sharding.SecureAggregation` push
codec — one additive ring share each — so no single enclave holds a
hospital's update in the clear, and the aggregate is still the
fixed-point FedAvg byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.tensor as tf
from repro.cluster.node import Node
from repro.cluster.retry import RetryPolicy
from repro.cluster.sharding import SecureAggregation
from repro.cluster.worker import TrainingWorker
from repro.core.platform import SecureTFPlatform
from repro.core.training import TrainingJob, TrainingJobConfig
from repro.data.loaders import Dataset
from repro.enclave.sgx import SgxMode
from repro.errors import ConfigurationError


class Hospital(TrainingWorker):
    """A data owner doing local training on its own trusted hardware."""

    def __init__(
        self,
        name: str,
        node: Node,
        dataset: Dataset,
        model_name: str = "mnist_cnn",
        learning_rate: float = 0.05,
        batch_size: int = 50,
        seed: int = 0,
    ) -> None:
        super().__init__(name, node, None, model_name=model_name, seed=seed)
        self.dataset = dataset
        self.batch_size = batch_size
        self.examples = len(dataset)
        with self.graph.as_default():
            self._train_op = tf.optimizers.GradientDescent(learning_rate).minimize(
                self._loss
            )

    def compute_update(self, batch: Tuple[int, int]) -> Tuple[Dict, float]:
        """``(local_steps, round_seed)``: local SGD -> (model, last loss)."""
        local_steps, round_seed = batch
        loss = float("nan")
        batches = self.dataset.batches(self.batch_size, shuffle_seed=round_seed)
        for _, (images, labels) in zip(range(local_steps), batches):
            loss = self._session.run(
                [self._loss, self._train_op],
                {self._built.input: images, self._labels: labels},
            )[0]
        return self.weights(), float(loss)

    def evaluate_accuracy(self, test: Dataset, n: int = 500) -> float:
        logits = self._session.run(
            self._built.logits, {self._built.input: test.images[:n]}
        )
        return float((np.argmax(logits, axis=1) == test.labels[:n]).mean())


class FederatedLearning:
    """Hospitals plus the attested aggregation enclaves, as one job (its
    shards run from ``aggregator_node``, default the first node)."""

    def __init__(
        self,
        platform: SecureTFPlatform,
        session: str,
        hospitals: List[Hospital],
        aggregator_node: Optional[Node] = None,
        mode: SgxMode = SgxMode.HW,
        secure_aggregation: bool = False,
        n_aggregators: int = 2,
    ) -> None:
        if len(hospitals) < 2:
            raise ConfigurationError("federated learning needs >= 2 parties")
        self.job = TrainingJob(
            platform,
            TrainingJobConfig(
                session=session,
                n_workers=len(hospitals),
                mode=mode,
                network_shield=mode is not SgxMode.NATIVE,
                retry_policy=RetryPolicy(max_attempts=4, base_delay=0.02),
                ps_shards=n_aggregators if secure_aggregation else 1,
            ),
            workers=hospitals,
            codec=SecureAggregation(n_aggregators) if secure_aggregation else None,
            ps_node=aggregator_node or platform.nodes[0],
        )
        self.address = f"{session}-ps0"
        self.rounds_completed = 0

    def start(self) -> None:
        """Launch + attest the aggregation shards; certify the hospitals."""
        self.job.start()

    def run_round(self, local_steps: int = 5, round_seed: int = 0) -> float:
        """One federated round; returns the mean local loss."""
        result = self.job.train([(local_steps, round_seed)] * self.job.config.n_workers)
        self.rounds_completed += 1
        return result.final_loss

    def global_weights(self) -> Dict[str, np.ndarray]:
        return self.job.weights()

    def stop(self) -> None:
        self.job.stop()
