"""Tier-1 pin: the five end-to-end workloads simulate what they always did.

Each workload of ``benchmarks/e2e/workloads.py`` (imported read-only) is
built at seed 11 and driven for two laps, in-process and untraced.  Every
simulated lap latency — or, for ``serve_chaos``, every lap percentile the
serving plane publishes — and the workload's ``digest()`` are pinned bit
for bit: the latencies as the SHA-256 of their ``float.hex`` forms, so a
change in the last bit of any one of them fails.  A refactor that claims
"every ``sim_*`` and ``sim_digest`` identical" passes this unchanged; a
change that moves simulated time on purpose re-pins here and says which
workload moved and why.

The workloads are deterministic whatever ran before them in the process
(wall time never feeds the simulation), so no subprocess is needed.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
LAPS = 2
SEED = 11

#: name → (ok per lap, SHA-256 of every lap's latencies, ``digest()``).
PINNED = {
    "infer_epc": (
        [24, 24],
        "010b7d9da8b5f7aaf5039595561f1480353caf9770ac1bcd5e3cea4d26eca959",
        "db854674deef26209db9091e560f990b184d2bad99e4a84865341f4559fff992",
    ),
    "train_sharded": (
        [3, 3],
        "b6927bbbbe3b7d33de070f7cb758942b92c9fd715118f13eb48fddc6fa8ebcf6",
        "cb3890d9aa4312f1478a78feffc383d3480d81fb4839b63b2e9c58bdd23b96da",
    ),
    "serve_chaos": (
        [2476, 2450],
        "92882558a601f07531722507511c0130e1e53831b0fc5cc056ef1d0a96222ba7",
        "32e2557fac31297a1b1ece83e4ff2dd5745c34e94898dc596daf6709a37111e9",
    ),
    "shield_write": (
        [8, 8],
        "cd6ab122b3585f78e5eb52725f8184f61a3492241093007df1f329d1dffbd81e",
        "ce54a29be3e3d54718efafc5756681a538287e2d28cae785fabeb389397d95af",
    ),
    "shield_read": (
        [32, 32],
        "21211fa5874f5a2b3b073b1ad097e4f131a0218ffa0d5afff5e558d99434a935",
        "ea4780982cdf9620e0c6224a11a5b6c8f9ebaa9780f8aed040e077ee5b7866fa",
    ),
}


def _drive(name):
    if str(E2E) not in sys.path:
        sys.path.insert(0, str(E2E))
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[name](SEED)
    oks, latencies = [], hashlib.sha256()
    for index in range(LAPS):
        lap = workload.lap(index, layers.Region())
        assert lap.failed == 0
        oks.append(lap.ok)
        values = lap.latencies if lap.latencies is not None else [
            lap.percentiles[q] for q in sorted(lap.percentiles)
        ]
        latencies.update(" ".join(value.hex() for value in values).encode() + b";")
    return oks, latencies.hexdigest(), workload.digest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_a_workload_simulates_what_it_always_did(name):
    assert _drive(name) == PINNED[name]
