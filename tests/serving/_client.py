"""A test client of the router's ``infer`` method.

Each request comes from a client named after it, running on the given
clock with no syscall charges (as the traffic generator's clients do),
and carries its own name as the payload — so the router's decision log
names it (``q1#4/1`` is ``q1``'s call ID) and a replica's execution log
can record it.
"""

from repro._sim.rng import DeterministicRng
from repro._sim.scheduler import Completion
from repro.cluster.node import Core
from repro.cluster.retry import RetryingExecutor, RetryPolicy
from repro.cluster.rpc import RpcClient


def submit(network, clock, request_id, deadline=None, attempts=1) -> Completion:
    """Send ``request_id`` to the router now; the completion of its reply
    payload.  ``attempts`` > 1 resends a lost leg under the same call ID."""
    policy = (
        RetryPolicy(max_attempts=1, deadline=None)
        if attempts == 1
        else RetryPolicy(max_attempts=attempts)
    )
    client = RpcClient(
        network,
        request_id,
        Core(clock, None, request_id),
        retry=RetryingExecutor(policy, clock, DeterministicRng(0), network.scheduler),
    )
    return network.scheduler.start(
        client.request("router", "infer", request_id.encode(), deadline=deadline)
    )


def request_of(event: str) -> str:
    """The request a router decision-log line is about (its client's name)."""
    return event.split()[1].split("#")[0]
