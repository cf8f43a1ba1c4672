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
    (0.41709844219999664, 0.4313268208666633),
    (0.4234009293666633, 0.43762930803332994),
    (0.42970341653332994, 0.4439317951999966),
    (0.4360059036999966, 0.45023428236666324),
    (0.44230839086666324, 0.4565367695333299),
    (0.4486108780333299, 0.46283925669999654),
    (0.45491336519999653, 0.4691417438666632),
    (0.4612158523666632, 0.47544423103332983),
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
