"""Figure 5: classification latency vs model size, five systems.

Paper setup (§5.3 #1): TensorFlow Lite ``label_image``, single thread,
one CIFAR-10 image, averaged over repeated runs; models DenseNet
(42 MB), Inception-v3 (91 MB), Inception-v4 (163 MB); systems native
glibc, native musl, secureTF SIM, secureTF HW, Graphene-SGX.

Key shapes to reproduce: HW is modestly slower than SIM; SIM tracks the
natives; Graphene matches secureTF at 42 MB (everything EPC-resident)
and falls behind as the model pushes the combined working set past the
EPC (paper: 1.03× → ~1.4×).

The HW runs are traced: each model's classify splits into compute
(FLOPs, dispatch, DRAM bandwidth), the EPC faults the classifying thread
waited for, and the paging a helper thread hid behind the compute (the
engine's helper rule).  HW, SIM, HW/SIM and graphene/HW per model land
in ``BENCH.json`` under ``fig5_model_sizes``, the section they replace
kept under ``previous``.
"""

import pytest

from harness import (
    PAPER,
    fmt_ms,
    fmt_s,
    load_bench,
    print_table,
    record,
    run_once,
    save_bench,
)

from repro.baselines import make_graphene_runner, make_native_runner
from repro.core.inference import (
    InferenceService,
    deploy_encrypted_model,
    service_runtime_config,
)
from repro.core.monitoring import collect_metrics
from repro.core.platform import PlatformConfig, SecureTFPlatform
from repro.data import synthetic_cifar10
from repro.enclave.sgx import SgxMode
from repro.models import pretrained_lite_model
from repro.observability import Telemetry
from repro.runtime.libc import GLIBC, MUSL

MODELS = ("densenet", "inception_v3", "inception_v4")
WARMUP = 3
RUNS = 12  # the paper averages 1000 runs; the simulation is deterministic


def _measure_secure_tf(model, image, mode):
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=50))
    platform.register_session(
        "fig5",
        [service_runtime_config("svc", m) for m in (SgxMode.HW, SgxMode.SIM)],
        accept_debug=True,
    )
    path = deploy_encrypted_model(platform, "fig5", platform.node(1), model)
    service = InferenceService(
        platform, "fig5", platform.node(1), path, mode=mode, name="svc"
    )
    service.start()
    for _ in range(WARMUP):
        service.classify(image)
    node = service.node
    telemetry = Telemetry(platform) if mode is SgxMode.HW else None
    hidden = _hidden_fault_time(platform, node)
    before = node.clock.now
    for _ in range(RUNS):
        service.classify(image)
    latency = (node.clock.now - before) / RUNS
    if telemetry is None:
        return latency, None
    telemetry.close()
    layers = telemetry.profile()[node.node_id].layers
    split = {
        "compute": layers["compute"] / RUNS,
        "epc_faults": layers["epc_faults"] / RUNS,
        "hidden_paging": (_hidden_fault_time(platform, node) - hidden) / RUNS,
    }
    return latency, split


def _hidden_fault_time(platform, node):
    metrics = collect_metrics(platform)
    return next(n for n in metrics.nodes if n.node_id == node.node_id).epc_hidden_fault_time


def _measure_baseline(model, image, make_runner, **kwargs):
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=51))
    runner = make_runner(platform.node(1), model, **kwargs)
    for _ in range(WARMUP):
        runner.classify(image)
    return runner.measure_latency(image[None], RUNS)


def _collect():
    _, test = synthetic_cifar10(n_train=5, n_test=5, seed=7)
    image = test.images[0]
    results, splits = {}, {}
    for name in MODELS:
        model = pretrained_lite_model(name, seed=0)
        sim, _ = _measure_secure_tf(model, image, SgxMode.SIM)
        hw, splits[name] = _measure_secure_tf(model, image, SgxMode.HW)
        results[name] = {
            "native-glibc": _measure_baseline(
                model, image, make_native_runner, libc=GLIBC
            ),
            "native-musl": _measure_baseline(
                model, image, make_native_runner, libc=MUSL
            ),
            "secureTF-SIM": sim,
            "secureTF-HW": hw,
            "graphene": _measure_baseline(model, image, make_graphene_runner),
        }
    return results, splits


def test_fig5_latency_vs_model_size(benchmark):
    results, splits = run_once(benchmark, _collect)

    systems = ["native-glibc", "native-musl", "secureTF-SIM", "secureTF-HW", "graphene"]
    rows = [
        [name] + [fmt_s(results[name][s]) for s in systems] for name in MODELS
    ]
    notes = []
    for name in MODELS:
        r = results[name]
        notes.append(
            f"{name}: HW/SIM={r['secureTF-HW'] / r['secureTF-SIM']:.2f} "
            f"(paper {PAPER['fig5_hw_over_sim'][name]:.2f}), "
            f"graphene/HW={r['graphene'] / r['secureTF-HW']:.2f}"
        )
    print_table(
        "Fig. 5 — classification latency vs model size (42/91/163 MB)",
        ["model"] + systems,
        rows,
        notes=notes,
    )
    print_table(
        "Fig. 5 — secureTF HW classify, by layer",
        ["model", "HW", "compute", "epc_faults (waited)", "hidden paging"],
        [
            [name, fmt_ms(results[name]["secureTF-HW"])]
            + [fmt_ms(splits[name][k]) for k in ("compute", "epc_faults", "hidden_paging")]
            for name in MODELS
        ],
    )
    for name in MODELS:
        record(benchmark, **{f"{name}_{k}": v for k, v in results[name].items()})
    previous = load_bench("fig5_model_sizes")
    previous.pop("previous", None)
    section = {}
    for name in MODELS:
        r = results[name]
        section[name] = {
            "hw_s": r["secureTF-HW"],
            "sim_s": r["secureTF-SIM"],
            "hw_over_sim": r["secureTF-HW"] / r["secureTF-SIM"],
            "graphene_over_hw": r["graphene"] / r["secureTF-HW"],
            **{f"hw_{k}_s": v for k, v in splits[name].items()},
        }
    save_bench("fig5_model_sizes", {**section, "previous": previous})

    for name in MODELS:
        r = results[name]
        # SIM tracks the natives within a few percent.
        assert r["secureTF-SIM"] < r["native-glibc"] * 1.10
        # HW costs more than SIM, but never an order of magnitude (Lite).
        assert 1.0 < r["secureTF-HW"] / r["secureTF-SIM"] < 1.6
        # glibc edges out musl (paper §5.3 #1).
        assert r["native-glibc"] <= r["native-musl"]
        # Graphene never beats secureTF HW.
        assert r["graphene"] >= r["secureTF-HW"] * 0.98

    # The Graphene gap grows once the model outgrows the EPC.
    small_gap = results["densenet"]["graphene"] / results["densenet"]["secureTF-HW"]
    big_gap = max(
        results["inception_v3"]["graphene"] / results["inception_v3"]["secureTF-HW"],
        results["inception_v4"]["graphene"] / results["inception_v4"]["secureTF-HW"],
    )
    assert small_gap < 1.1  # ~1.03x in the paper
    assert big_gap > 1.1    # toward ~1.4x in the paper

    # Latency grows with model size on every system.
    for system in systems:
        sizes = [results[name][system] for name in MODELS]
        assert sizes == sorted(sizes)
