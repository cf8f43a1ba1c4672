"""What a parameter server remembers for at-most-once is bounded by the
retry horizon, not by how long the job has run: a long run holds as
many window entries, and as much memory, as a run one window long."""

import gc
import tracemalloc

import numpy as np

from repro.cluster import Network, ParameterServer, ShardedParameterService, make_cluster
from repro.cluster.retry import RETRY_HORIZON, RetryPolicy
from repro.cluster.rpc import RpcClient
from repro.crypto import encoding
from repro.enclave.cost_model import DEFAULT_COST_MODEL as CM
from repro.tensor.arrays import encode_array_dict

ROUND = 2.0  # simulated seconds from one round to the next
#: The longest any copy of a call can still arrive: a resend at the end
#: of its client's horizon, plus that much again in flight.
WINDOW = 2 * RETRY_HORIZON
PIECE = 4096  # float32s a shard holds: a ~16 KiB pull reply


def test_window_entries_and_memory_stay_flat_over_three_windows(provisioning):
    nodes = make_cluster(4, CM, provisioning, seed=17)
    network = Network(CM)
    shards = [
        ParameterServer(nodes[i], f"mem-ps{i}", network, learning_rate=0.01)
        for i in (0, 1)
    ]
    service = ShardedParameterService(shards)
    model = {name: np.zeros(PIECE, dtype=np.float32) for name in ("a", "b")}
    service.initialize(model)
    workers = [
        RpcClient(network, f"mem-w{i}", nodes[2 + i], retry=RetryPolicy())
        for i in (0, 1)
    ]
    pushes = {
        address: encoding.encode(
            {"gradients": encode_array_dict(part), "declared_flops": 0}
        )
        for address, part in service.partition_gradients(
            {name: np.ones(PIECE, dtype=np.float32) for name in model}
        ).items()
    }
    assert len(pushes) == 2  # one piece on each shard

    rounds_per_window = int(WINDOW / ROUND)
    # Each worker makes one pull and one push per shard per round.
    calls_per_window = (rounds_per_window + 1) * 2 * len(workers)
    # Traced memory once a window is full, and two windows later.
    one_window, three_windows = rounds_per_window + 1, 3 * rounds_per_window + 1
    held = {}
    tracemalloc.start()
    try:
        for round_index in range(three_windows + 1):
            for shard in shards:
                window = shard._server.dedup
                before = {key for key, _, _ in window.snapshot()}
                for worker in workers:
                    worker.call(shard.address, "pull", b"")
                pulled = [v for k, _, v in window.snapshot() if k not in before]
                # Both workers' entries hold the one reply of this version.
                assert len(pulled) == 2 and pulled[0] is pulled[1]
            for worker in workers:
                for address, payload in pushes.items():
                    worker.call(address, "push", payload)
            for shard in shards:
                assert len(shard._server.dedup) <= calls_per_window
                assert shard._server.stats.dedup_window_entries == len(
                    shard._server.dedup
                )
            now = max(node.clock.now for node in nodes) + ROUND
            for node in nodes:
                node.clock.advance_to(now)
            if round_index in (one_window, three_windows):
                gc.collect()
                held[round_index] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held[three_windows] - held[one_window] < 1_000_000
