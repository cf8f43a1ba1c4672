"""The resilient secure inference serving plane (DESIGN.md §5h).

The paper deploys secureTF inference as an elastic cloud service
(challenge ❹): containers come and go, links lose messages, and load
arrives in diurnal waves — yet every client request must end in exactly
one reply or one *typed* error, never a silent drop and never a double
execution.  This package is that serving tier, built entirely from the
platform's existing primitives.  Every hop is an RPC of
:mod:`repro.cluster.rpc` — one envelope, one typed-error table, one
at-most-once window per server — so a client, the router and each
replica are plain ``RpcClient`` / ``RpcServer`` endpoints:

- :mod:`.router` — the front-end router enclave, an ``RpcServer``
  with one ``infer`` method: admission control (bounded per-replica
  queues + token-bucket rate limiting, shedding with
  :class:`~repro.errors.OverloadError`), deadline propagation,
  health/load-aware replica routing, and hedged requests with
  first-reply-wins settlement, each attempt one ``RpcClient.send``
  settled from its reply's waiter, every request's deadline and hedge
  under one router timer.
- :mod:`.scoreboard` — the replica health/load scoreboard the router
  routes by (cold → attesting → healthy → degraded → draining /
  quarantined / failed).
- :mod:`.pool` — the attested replica pool: every replica is launched
  through the :class:`~repro.cluster.orchestrator.Orchestrator`, attests
  to CAS before its ``infer`` server starts, and drains (never drops)
  in-flight work on scale-in.
- :mod:`.autoscaler` — the SLO-driven controller: scrapes the router's
  sliding-window p99 and shed counters on a simulated period and drives
  ``scale_out`` / drain decisions.
- :mod:`.traffic` — closed-loop simulated clients with a diurnal load
  profile, each an ``RpcClient`` and an activity on the event heap.
- :mod:`.service` — :class:`ServingPlane`, the one-call assembly of all
  of the above on a :class:`~repro.core.platform.SecureTFPlatform`.
"""

from repro.serving.admission import AdmissionController, AdmissionStats, TokenBucket
from repro.serving.autoscaler import AutoscalerPolicy, SloAutoscaler
from repro.serving.pool import ReplicaPool
from repro.serving.router import FrontEndRouter, RouterPolicy, RouterStats
from repro.serving.scoreboard import ReplicaScoreboard, ReplicaState
from repro.serving.service import ServingPlane
from repro.serving.traffic import DiurnalProfile, TrafficGenerator, TrafficStats

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "AutoscalerPolicy",
    "DiurnalProfile",
    "FrontEndRouter",
    "ReplicaPool",
    "ReplicaScoreboard",
    "ReplicaState",
    "RouterPolicy",
    "RouterStats",
    "ServingPlane",
    "SloAutoscaler",
    "TokenBucket",
    "TrafficGenerator",
    "TrafficStats",
]
