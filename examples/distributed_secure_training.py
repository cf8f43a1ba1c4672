#!/usr/bin/env python3
"""Distributed secure training across the cluster (§3.3.4, Fig. 8).

Launches a parameter server and three workers, each in its own attested
enclave, with all weight/gradient traffic on network-shield TLS — then
compares the run against native TensorFlow to show the cost of the
guarantees (the paper's Fig. 8 story).

A full-protection run is then killed halfway and resumed from its
secure checkpoint (challenge ❺): the PS weights go to an encrypted,
CAS-audited file, and a fresh, re-attested deployment restores them.

The final run repeats the full-protection configuration with the
continuous telemetry plane enabled: it prints the per-node profile
(where each node's simulated time went, by layer) and its top-down
flame report, and writes a Perfetto-loadable Chrome trace to
``train-demo.trace.json``.

Run:  python examples/distributed_secure_training.py
"""

import json
from pathlib import Path

import numpy as np

from repro.core import SecureTFPlatform
from repro.core.platform import PlatformConfig
from repro.core.training import TrainingJob, TrainingJobConfig
from repro.data import synthetic_mnist
from repro.enclave.sgx import SgxMode
from repro.observability import flame_report

BATCHES = 12

TRACE_PATH = Path(__file__).resolve().parent / "train-demo.trace.json"


def run(label: str, mode: SgxMode, network_shield: bool, workers: int, batches,
        tracing: bool = False):
    platform = SecureTFPlatform(
        PlatformConfig(n_nodes=3, seed=9, tracing=tracing, metrics_interval=0.25)
    )
    job = TrainingJob(
        platform,
        TrainingJobConfig(
            session="train-demo",
            n_workers=workers,
            mode=mode,
            network_shield=network_shield,
            learning_rate=0.0005,  # the paper's §5.4 setting
        ),
    )
    job.start()
    result = job.train(batches)
    job.stop()
    print(f"  {label:<28} {result.wall_clock:8.2f}s simulated "
          f"(final loss {result.final_loss:.3f})")
    if tracing:
        telemetry = platform.telemetry
        print("\ntelemetry: per-node profile (simulated seconds by layer)")
        print(telemetry.profile_report())
        print("\ntelemetry: flame report (span tree per node)")
        print(flame_report(telemetry.tracer))
        trace = telemetry.chrome_trace()
        TRACE_PATH.write_text(json.dumps(trace, indent=2) + "\n")
        spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
        print(f"telemetry: {spans} spans -> {TRACE_PATH.name} "
              "(load in chrome://tracing or ui.perfetto.dev)")
        platform.close_telemetry()
    return result.wall_clock


def resume_from_checkpoint(batches) -> None:
    platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=9))
    config = TrainingJobConfig(
        session="train-resume",
        n_workers=2,
        mode=SgxMode.HW,
        network_shield=True,
        learning_rate=0.0005,
    )
    half = len(batches) // 2
    job = TrainingJob(platform, config)
    job.start()
    job.train(batches[:half])
    saved = job.weights()
    path = job.save_checkpoint()
    print(f"  trained {half} batches; checkpoint sealed to {path}")
    job.stop()  # the job dies; CAS keeps the session, its key and the audit record

    job = TrainingJob(platform, config)  # a fresh, re-attested deployment
    job.start()
    version = job.restore_checkpoint()
    same = all(np.array_equal(job.weights()[k], v) for k, v in saved.items())
    print(f"  fresh deployment restored PS version {version}; "
          f"weights identical: {same}")
    result = job.train(batches[half:])
    job.stop()
    print(f"  resumed training: final loss {result.final_loss:.3f}")


def main() -> None:
    train, _ = synthetic_mnist(n_train=BATCHES * 100, n_test=10, seed=10)
    batches = list(train.batches(100))
    print(f"training on {BATCHES} MNIST batches of 100 (lr 0.0005)\n")

    print("1 worker, different protection levels:")
    native = run("native TensorFlow", SgxMode.NATIVE, False, 1, batches)
    run("SCONE sim (no shields)", SgxMode.SIM, False, 1, batches)
    run("SCONE sim + network shield", SgxMode.SIM, True, 1, batches)
    hw = run("secureTF HW (full)", SgxMode.HW, True, 1, batches)
    print(f"\n  full protection costs {hw / native:.1f}x over native "
          f"(paper: ~14x — EPC paging dominates)\n")

    print("secureTF HW, scaling out workers:")
    times = {1: hw}
    for workers in (2, 3):
        times[workers] = run(
            f"secureTF HW, {workers} workers", SgxMode.HW, True, workers, batches
        )
    print(f"\n  speedups: {times[1] / times[2]:.2f}x with 2 workers, "
          f"{times[1] / times[3]:.2f}x with 3 (paper: 1.96x / 2.57x)\n")

    print("secureTF HW, killed halfway and resumed from its secure checkpoint:")
    resume_from_checkpoint(batches)

    print("\nsecureTF HW with the telemetry plane on:")
    run("secureTF HW (traced)", SgxMode.HW, True, 3, batches, tracing=True)


if __name__ == "__main__":
    main()
