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
#: Each is 0.186 ms later than while an HW open's charge was capped at
#: the serial AES-NI rate: the model's decrypt now pays its MEE floor
#: (0.267 ns/B, 0.19 ms of this model), less what its replica reads
#: save riding under it.
BOOTS = [
    (0.41728419539999695, 0.4315125740666635),
    (0.4235866825666636, 0.43781506123333014),
    (0.42988916973333025, 0.4441175483999968),
    (0.4361916568999969, 0.45042003556666343),
    (0.44249414406666354, 0.4567225227333301),
    (0.4487966312333302, 0.46302500989999673),
    (0.45509911839999684, 0.4693274970666634),
    (0.4614016055666635, 0.47562998423333),
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
