#!/usr/bin/env python3
"""Use case §6.2: secure federated learning for hospitals (Fig. 10).

Three hospitals collaborate on a diagnosis model.  Patient data never
leaves a hospital; only model parameters are shared — and because local
models themselves leak (model inversion, GAN attacks — §6.2), the
*global aggregation* runs inside an attested secureTF enclave: a
parameter-server shard of a training job whose workers are the
hospitals.  CAS certifies the enclave only after verifying its quote,
and all parameter traffic rides mutually-authenticated TLS.

Run:  python examples/secure_federated_learning.py
"""

from repro.core import FederatedLearning, Hospital, SecureTFPlatform
from repro.core.platform import PlatformConfig
from repro.data import Dataset, synthetic_mnist
from repro.enclave.sgx import SgxMode

ROUNDS = 6
LOCAL_STEPS = 10


def main() -> None:
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=6))
    platform.user_attest_cas()

    # Each hospital holds a private, disjoint shard of patient scans.
    train, test = synthetic_mnist(n_train=1800, n_test=300, seed=7)
    shard = len(train) // 3
    hospitals = [
        Hospital(
            name,
            platform.node(index),
            Dataset(
                train.images[index * shard : (index + 1) * shard],
                train.labels[index * shard : (index + 1) * shard],
                train.num_classes,
                name=f"{name}-private-scans",
            ),
            learning_rate=0.3,
            batch_size=64,
            seed=5,
        )
        for index, name in enumerate(("st-mary", "charite", "ospedale"))
    ]
    for hospital in hospitals:
        print(f"{hospital.name}: {len(hospital.dataset)} private examples "
              f"(never leave {hospital.node.node_id})")

    # The aggregation enclave starts and is attested by CAS, and CAS
    # issues each hospital a client TLS identity of the session.
    federation = FederatedLearning(
        platform, "brain-tumor-model", hospitals, mode=SgxMode.HW
    )
    federation.start()
    print("aggregator enclave attested; hospitals provisioned with TLS "
          "identities\n")

    hospitals[0].load_weights(federation.global_weights())
    baseline = hospitals[0].evaluate_accuracy(test)
    print(f"round 0 (untrained): global accuracy {baseline:.1%}")

    for round_index in range(1, ROUNDS + 1):
        mean_loss = federation.run_round(
            local_steps=LOCAL_STEPS, round_seed=round_index
        )
        hospitals[0].load_weights(federation.global_weights())
        accuracy = hospitals[0].evaluate_accuracy(test)
        print(f"round {round_index}: mean local loss {mean_loss:.3f}, "
              f"global accuracy {accuracy:.1%}")

    print(f"\n{federation.rounds_completed} federated rounds completed; "
          f"no raw patient data ever crossed hospital boundaries.")
    federation.stop()


if __name__ == "__main__":
    main()
