"""Fleet boot: every service boots at once, as an activity.

A boot waits on CAS by ``yield`` and holds no Python stack while it
waits, so ``launch_fleet`` needs no gate serializing the boots: all
eight provision requests are on the wire before CAS answers the first.
With CAS on a node of its own, each boot finishes at the simulated time
it did when boots were gated one after another (the literals below).
"""

import pytest

from repro.core import InferenceService, SecureTFPlatform
from repro.core.inference import (
    deploy_encrypted_model,
    launch_fleet,
    service_runtime_config,
)
from repro.core.platform import PlatformConfig
from repro.enclave.sgx import SgxMode
from repro.models import pretrained_lite_model

#: (startup latency, node clock at boot end) per service, stagger 0.
BOOTS = [
    (0.42297048059999665, 0.4371988592666633),
    (0.4292729677666633, 0.44350134643332995),
    (0.43557545493332994, 0.4498038335999966),
    (0.4418779420999966, 0.45610632076666324),
    (0.44818042926666324, 0.4624088079333299),
    (0.4544829164333299, 0.46871129509999654),
    (0.46078540359999653, 0.4750137822666632),
    (0.4670878907666632, 0.48131626943332984),
]


def test_eight_services_boot_at_once_at_the_pinned_times():
    model = pretrained_lite_model("densenet", seed=0)
    platform = SecureTFPlatform(PlatformConfig(n_nodes=9, seed=5))
    platform.register_session("fleet", [service_runtime_config("svc", SgxMode.HW)])
    services = []
    for i in range(1, 9):  # node 0 runs CAS
        node = platform.node(i)
        path = deploy_encrypted_model(platform, "fleet", node, model)
        services.append(
            InferenceService(platform, "fleet", node, path, mode=SgxMode.HW, name="svc")
        )
    legs = []

    def watch(src, dst, n_bytes, now):
        if "cas" in (src, dst):
            legs.append("request" if dst == "cas" else "reply")
        return None

    platform.network.faults.append(watch)
    assert launch_fleet(platform, services, stagger=0.0) == services
    assert legs[:9] == ["request"] * 8 + ["reply"]
    booted = [(s.stats.startup_latency, s.node.clock.now) for s in services]
    assert booted == [pytest.approx(pair, abs=1e-12) for pair in BOOTS]
