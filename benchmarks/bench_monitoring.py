"""The monitoring plane: SLO evaluation throughput, incident latency,
and recorder overhead.

Three measurements of the ISSUE 10 subsystem:

- **SLO evaluation throughput**: a standalone :class:`SloMonitor` over
  the event heap — evaluations per wall second at the default 0.25 s
  interval (the cost of continuously watching an objective);
- **incident bundle latency**: wall time to freeze the rings, merge the
  cross-node timeline, and dump one canonical bundle from a loaded
  recorder (the "black box hits the ground" path);
- **recorder overhead**: the serving workload (replica crash under
  traffic) with monitoring off vs on — wall ratio and the proof that
  simulated results did not move.

An example bundle lands in ``bench_artifacts/`` next to ``BENCH.json``;
scalars go to ``BENCH.json`` under ``monitoring``.
"""

import time

from harness import print_table, record, run_once, save_artifact, save_bench

from repro._sim.clock import SimClock
from repro._sim.scheduler import Scheduler
from repro.observability.flight import FlightRecorder
from repro.observability.incident import IncidentPipeline
from repro.observability.slo import SloMonitor, SloSpec
from repro.serving.service import ServingPlane

EVAL_SECONDS = 200.0  # simulated span the standalone monitor sweeps
RING_EVENTS = 5000  # events loaded into the recorder before the freeze
RING_NODES = 8


def _slo_throughput():
    scheduler = Scheduler()
    clock = SimClock()
    value = {"v": 0.1}
    specs = [
        SloSpec(
            name=f"bench.metric{i}",
            value_probe=lambda: value["v"],
            objective=1.0,
            budget=0.01,
            short_window=1.0,
            long_window=4.0,
        )
        for i in range(4)
    ]
    monitor = SloMonitor(scheduler, clock, specs, interval=0.25)
    monitor.start()
    started = time.perf_counter()
    scheduler.run(until=EVAL_SECONDS)
    wall = time.perf_counter() - started
    monitor.stop()
    scheduler.run()
    return monitor.evaluations * len(specs), wall


def _bundle_latency():
    recorder = FlightRecorder(capacity=1024)
    clocks = []
    for i in range(RING_NODES):
        clock = SimClock()
        recorder.register_clock(clock, f"node-{i}")
        clocks.append(clock)
    for i in range(RING_EVENTS):
        clock = clocks[i % RING_NODES]
        clock.advance(0.001)
        recorder.record(clock, "rpc", f"call-{i}", f"attempt={i % 3}")
    pipeline = IncidentPipeline(recorder, window=2.0)
    started = time.perf_counter()
    bundle = pipeline.trigger("crash", "node-0", clock=clocks[0])
    dump = bundle.dump()
    wall = time.perf_counter() - started
    return bundle, dump, wall


def _serve(monitoring: bool):
    plane = ServingPlane(
        seed=29, n_nodes=3, initial_replicas=2, monitoring=monitoring
    )
    plane.platform.scheduler.schedule(
        1.0, lambda: plane.pool.crash("replica-0"), label="chaos:crash"
    )
    started = time.perf_counter()
    stats = plane.run_traffic(clients=4, duration=2.0, deadline_budget=0.5)
    wall = time.perf_counter() - started
    plane.check_invariants()
    bundles = list(plane.monitoring.bundles) if monitoring else []
    result = (stats.ok, plane.platform.time, plane.trace_bytes())
    plane.close()
    return result, bundles, wall


def test_bench_monitoring(benchmark):
    def scenario():
        metrics = {}

        evaluations, eval_wall = _slo_throughput()
        metrics["slo_evaluations"] = evaluations
        metrics["slo_evals_per_s"] = evaluations / eval_wall if eval_wall else 0.0

        bundle, dump, bundle_wall = _bundle_latency()
        metrics["bundle_events"] = len(bundle.timeline)
        metrics["bundle_bytes"] = len(dump)
        metrics["bundle_latency_ms"] = bundle_wall * 1e3
        save_artifact("monitoring.incident.json", dump.decode() + "\n")

        plain_result, _, plain_wall = _serve(monitoring=False)
        monitored_result, bundles, monitored_wall = _serve(monitoring=True)
        metrics["serving_plain_wall_s"] = plain_wall
        metrics["serving_monitored_wall_s"] = monitored_wall
        metrics["recorder_overhead_ratio"] = (
            monitored_wall / plain_wall if plain_wall else 0.0
        )
        metrics["serving_bundles"] = len(bundles)
        # The recorder is read-only: identical ok-count, simulated time,
        # and canonical decision trace with monitoring on.
        assert monitored_result == plain_result
        assert bundles  # the crash produced its incident
        return metrics

    metrics = run_once(benchmark, scenario)
    print_table(
        "Monitoring plane — SLO engine, flight recorder, incidents",
        ("measurement", "value"),
        [
            ("SLO evaluations / wall s", f"{metrics['slo_evals_per_s']:,.0f}"),
            (
                "bundle latency (freeze+merge+dump)",
                f"{metrics['bundle_latency_ms']:.2f}ms",
            ),
            ("bundle timeline events", metrics["bundle_events"]),
            ("bundle size", f"{metrics['bundle_bytes']} B"),
            (
                "serving wall, monitoring off/on",
                f"{metrics['serving_plain_wall_s']:.2f}s / "
                f"{metrics['serving_monitored_wall_s']:.2f}s",
            ),
            (
                "recorder overhead",
                f"{metrics['recorder_overhead_ratio']:.2f}x",
            ),
        ],
        notes=[
            "simulated results byte-identical with monitoring on "
            f"({metrics['serving_bundles']} incident bundle(s) emitted)",
        ],
    )
    record(benchmark, **metrics)
    save_bench(
        "monitoring",
        {k: (round(v, 4) if isinstance(v, float) else v)
         for k, v in metrics.items()},
    )
    assert metrics["slo_evals_per_s"] > 0
    assert metrics["bundle_events"] > 0
    assert metrics["serving_bundles"] >= 1
