"""Figure 6: effect of the file-system shield on classification latency.

Paper (§5.3 #2): the shield encrypts/authenticates the model and input
at AES-NI rates (~4 GB/s), so it adds ~0.12 % (SIM) / ~0.9 % (HW) —
the cost lands at startup (decrypting the model once), amortized over
the run.

"Shield on" uploads the model with ``deploy_encrypted_model``: a
journaled commit, the one storage layout, which is safe under the
paper's threat model.

This is the **cold** path: every run of the paper's ``label_image`` is a
new process with an empty chunk cache, so the measured model load drops
the shield's caches first and pays crypto for the whole declared model.
(A read pays for the chunks it opens; without the drop the load would be
a partial hit on the one or two chunks ``service.start()`` left cached —
a 44–171 MB model does not fit the 8 MiB cache.  The warm path is
measured in ``bench_crypto_dataplane.py``.)
"""

import pytest

from harness import PAPER, fmt_s, print_table, record, run_once

from repro.core.inference import (
    InferenceService,
    deploy_encrypted_model,
    service_runtime_config,
)
from repro.core.platform import PlatformConfig, SecureTFPlatform
from repro.data import synthetic_cifar10
from repro.enclave.sgx import SgxMode
from repro.models import pretrained_lite_model

MODELS = ("densenet", "inception_v3", "inception_v4")
RUNS = 12


def _measure(model, image, mode, fs_shield):
    """Per-run latency as the paper measures it: every run is a fresh
    ``label_image`` process, so the model is (shield-)loaded each time.
    The model-load cost is measured separately from the container/
    attestation startup (identical in both arms) and added per run."""
    platform = SecureTFPlatform(PlatformConfig(n_nodes=2, seed=60))
    configs = [
        service_runtime_config("svc", m, fs_shield=shield)
        for m in (SgxMode.HW, SgxMode.SIM)
        for shield in (True, False)
    ]
    platform.register_session("fig6", configs, accept_debug=True)
    node = platform.node(1)
    if fs_shield:
        path = deploy_encrypted_model(platform, "fig6", node, model)
    else:
        path = "/secure/models/plain.tflite"
        node.vfs.write(path, model.to_bytes(), declared_size=model.size_bytes)
    service = InferenceService(
        platform, "fig6", node, path, mode=mode, name="svc", fs_shield=fs_shield
    )
    service.start()

    # Model-load time alone (what the shield actually adds per process),
    # from an empty cache as a fresh process finds it.
    if service.runtime.fs is not None:
        service.runtime.fs.drop_caches()
    before = node.clock.now
    service.runtime.read_protected(path)
    model_load = node.clock.now - before

    service.classify(image)
    before = node.clock.now
    for _ in range(RUNS):
        service.classify(image)
    steady = (node.clock.now - before) / RUNS
    return steady + model_load


def _collect():
    _, test = synthetic_cifar10(n_train=5, n_test=5, seed=8)
    image = test.images[0]
    results = {}
    for name in MODELS:
        model = pretrained_lite_model(name, seed=0)
        results[name] = {
            mode.value: {
                "off": _measure(model, image, mode, fs_shield=False),
                "on": _measure(model, image, mode, fs_shield=True),
            }
            for mode in (SgxMode.SIM, SgxMode.HW)
        }
    return results


def test_fig6_fs_shield_effect(benchmark):
    results = run_once(benchmark, _collect)

    rows = []
    overheads = {}
    for name in MODELS:
        for mode in ("sim", "hw"):
            off = results[name][mode]["off"]
            on = results[name][mode]["on"]
            overhead = on / off - 1.0
            overheads[(name, mode)] = overhead
            rows.append((name, mode, fmt_s(off), fmt_s(on), f"{overhead * 100:+.2f}%"))
    print_table(
        "Fig. 6 — file-system shield effect on classification latency",
        ("model", "mode", "shield off", "shield on", "overhead"),
        rows,
        notes=[
            f"paper: +{PAPER['fig6_fs_shield_overhead_sim'] * 100:.2f}% (SIM), "
            f"+{PAPER['fig6_fs_shield_overhead_hw'] * 100:.1f}% (HW)",
            "shield crypto runs at 4 GB/s and lands at model load only",
        ],
    )
    record(
        benchmark,
        **{f"{n}_{m}_overhead": overhead for (n, m), overhead in overheads.items()},
    )

    # Shape: the shield is near-free — low single-digit percent at most,
    # same order as the paper's +0.12% (SIM) / +0.9% (HW).  (Relative
    # overhead is slightly *lower* in HW here because the HW baseline is
    # larger while the AES-NI shield cost is mode-independent.)
    for (name, mode), overhead in overheads.items():
        assert -0.005 < overhead < 0.05, (name, mode, overhead)
