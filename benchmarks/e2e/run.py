#!/usr/bin/env python3
"""Two-clock end-to-end benchmark of the simulated secureTF deployment.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--trace 1]       # all five, one child each
    python3 benchmarks/e2e/run.py compare A.json B.json

``sim_*`` metrics are simulated seconds of the modelled deployment (the
science; fixed by the seed and the lap count).  ``host_*`` metrics and
``setup_s`` are real time of this simulator process, scaled to a
reference machine speed by a calibration loop run between laps (noisy;
reported as the median over laps with quartiles).  See README.md beside
this file.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

# One BLAS thread, set before numpy is imported: with two threads on a
# 2-core box identical laps swung between 1.0 and 2.2 s.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
ARTIFACTS = HERE / "artifacts"
MANIFEST = ROOT / "BENCHMARK.json"
# The program under test, then this directory's own modules.
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: Set-ups per run (``setup_s`` is their median) and the fewest timed
#: laps a run may have, however short ``--seconds`` is.
SETUP_REPEATS = 3
MIN_LAPS = 4
DEFAULT_SEED = 11
#: ``compare`` treats two simulated values of one seed as different
#: beyond this relative distance (float formatting, nothing else).
SIM_TOLERANCE = 1e-9
NOISE_WARNING = 0.10
#: The calibration loop, and the host seconds it takes at the reference
#: speed every host time is scaled to (this box in its fast state).
SPIN_ITERATIONS = 150_000
SPIN_SAMPLES = 5
SPIN_REFERENCE_S = 0.0085


def spin_s() -> float:
    """Host seconds one calibration spin takes right now."""
    samples = []
    for _ in range(SPIN_SAMPLES):
        start = time.perf_counter()
        x = 0
        for i in range(SPIN_ITERATIONS):
            x += i * i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Calibration:
    """The shared box runs the same code 20-40 % faster or slower for
    seconds at a time, in CPU time as much as in wall time.  A spin of
    fixed pure-Python work before and after each interval measures the
    speed the box had during it; host times are reported at the
    reference speed, which held ten-run spreads near 2 % where raw
    seconds spread 25 %."""

    def __init__(self) -> None:
        self.last = spin_s()

    def scale(self) -> float:
        """Factor from host seconds measured since the previous call to
        seconds at the reference speed."""
        now = spin_s()
        mean = (self.last + now) / 2.0
        self.last = now
        return SPIN_REFERENCE_S / mean


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and ``noise`` = IQR / median of lap samples."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"value": median, "q1": median, "q3": median, "noise": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3,
            "noise": (q3 - q1) / median if median else 0.0, "n": len(values)}


def latency_percentile(laps, q: int) -> float:
    """Pooled over every timed operation, or, where laps only publish
    percentiles, the median lap's.  Both use the program's own
    ``Histogram`` rule, so a percentile means the same on every workload."""
    if laps[0].latencies is None:
        return statistics.median(lap.percentiles[q] for lap in laps)
    from repro.observability import Histogram

    pooled = Histogram("latency")
    for lap in laps:
        for latency in lap.latencies:
            pooled.observe(latency)
    return pooled.percentile(q)


def run_workload(name: str, seed: int, seconds: float, n_laps: Optional[int],
                 trace: bool) -> Dict[str, object]:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"the program under test is missing: {ROOT / 'src' / 'repro'}")
    import layers
    from workloads import WORKLOADS

    calibration = Calibration()
    import_s = (time.perf_counter() - _PROCESS_START) * SPIN_REFERENCE_S / calibration.last
    log = layers.SpanLog()
    setup_samples: List[float] = []
    workload = None

    def run_lap(index: int, region):
        """One lap; its host times come back at the reference speed."""
        # Every lap starts from a collected heap: what an earlier lap
        # left behind (serving leaves a whole plane) is not collected at
        # a random point of this one, and peak memory does not follow
        # the lap count.
        gc.collect()
        lap = workload.lap(index, region)
        region.to_reference_speed(calibration.scale())
        if lap.setup_host_s is not None:
            lap.setup_host_s *= region.host_scale
        return lap

    with layers.provision_spans(log) if trace else nullcontext():
        for _ in range(SETUP_REPEATS):
            workload = None
            gc.collect()
            calibration.scale()
            start = time.perf_counter()
            workload = WORKLOADS[name](seed)
            built_s = time.perf_counter() - start
            region = layers.Region()
            warm_up = run_lap(0, region)
            # The warm-up lap is set-up: caches fill and lazy work ends
            # there.  A workload that rebuilds its deployment every lap
            # reports that build instead.
            setup_samples.append(
                built_s * region.host_scale + region.host_s
                if warm_up.setup_host_s is None else warm_up.setup_host_s
            )

        laps, regions = [], []
        deadline = time.perf_counter() + seconds
        while (len(laps) < n_laps if n_laps
               else len(laps) < MIN_LAPS or time.perf_counter() < deadline):
            regions.append(layers.Region(layers.COUNTED if trace else layers.PLAIN))
            laps.append(run_lap(len(laps), regions[-1]))
            if laps[-1].setup_host_s is not None:
                setup_samples.append(laps[-1].setup_host_s)
        box_speed = statistics.median(region.host_scale for region in regions)

        traced = {}
        for mode in (layers.TELEMETRY, layers.PROFILED) if trace else ():
            log.lap = mode
            traced[mode] = layers.Region(mode, log)
            run_lap(0, traced[mode])

    # Before the output checks: they build a reference deployment.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = workload.digest()
    failures = workload.verify()

    ok = sum(lap.ok for lap in laps)
    failed = sum(lap.failed for lap in laps)
    host_s = sum(region.host_s for region in regions)
    sim_s = sum(region.sim_s for region in regions)
    end_to_end = {
        "setup_s": quartiles([import_s + sample for sample in setup_samples]),
        "host_ops_per_s": quartiles(
            [lap.ok / region.host_s for lap, region in zip(laps, regions)]
        ),
        "host_peak_rss_mb": {"value": peak_rss_mb},
        "sim_ops_per_s": {"value": ok / sim_s},
        "sim_latency_p50_s": {"value": latency_percentile(laps, 50)},
        "sim_latency_tail_s": {
            "value": latency_percentile(laps, workload.TAIL_PERCENTILE),
            "percentile": workload.TAIL_PERCENTILE,
        },
    }
    result = {
        "workload": name, "seed": seed, "laps": len(laps),
        "attempted": ok + failed, "ok": ok, "failed": failed,
        "sim_digest": digest, "failures": failures,
        # Median over laps of reference speed / box speed (1 = reference).
        "box_speed": box_speed,
        "end_to_end": end_to_end,
    }
    if not trace:
        return result

    counters: Dict[str, float] = {}
    for lap, region in zip(laps, regions):
        layers.add_counters(counters, region.counters)
        layers.add_counters(counters, lap.counters)
    per_layer, missing = layers.counter_values(counters, host_s, sim_s, box_speed)
    telemetry, profiled = traced[layers.TELEMETRY], traced[layers.PROFILED]
    lap_host_s = statistics.median(region.host_s for region in regions)
    provisions = log.named("cas.provision")
    host_self_s = profiled.profile["host_self_s"]
    for bucket, self_s in host_self_s.items():
        per_layer[f"host_self_s.{bucket}"] = self_s
    for layer, sim_layer_s in telemetry.sim_layers.items():
        per_layer[f"sim_layer_s.{layer}"] = sim_layer_s
    per_layer.update({
        "host_traced_s": sum(host_self_s.values()),
        "sim_layer_residual": telemetry.sim_residual,
        "cas.provisions": len(provisions),
        "cas.sim_s_per_provision": statistics.mean(
            s["sim_end"] - s["sim_start"] for s in provisions
        ) if provisions else 0.0,
        "cas.sim_cold_start_s": workload.cold_start_s,
        "tensor.invocations": profiled.profile["calls_into"]["tensor"],
        # A percentile is reported only with ten samples beyond it.
        "serving.sim_latency_p99_s":
            latency_percentile(laps, 99) if ok >= 1000 else None,
        "failed_share": failed / (ok + failed),
        "observability.tracer_overhead_ratio": telemetry.host_s / lap_host_s,
        "observability.profiler_overhead_ratio": profiled.host_s / lap_host_s,
        "observability.spans": telemetry.program_spans,
    })
    if telemetry.sim_residual >= 0.01:
        failures.append(
            f"simulated-time layers leave a residual of {telemetry.sim_residual:.4f}"
        )
    result["per_layer"] = {m.name: per_layer.get(m.name) for m in layers.PER_LAYER}
    result["missing"] = missing

    ARTIFACTS.mkdir(exist_ok=True)
    _write(ARTIFACTS / f"{name}.spans.json", log.spans)
    _write(ARTIFACTS / f"{name}.trace.json", telemetry.chrome_trace)
    _write(ARTIFACTS / f"{name}.profile.json", {
        "sim_layer_s": telemetry.sim_layers,
        "sim_layer_residual": telemetry.sim_residual,
        **profiled.profile,
    })
    return result


def _write(path: Path, document: object) -> None:
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def report(result: Dict[str, object], manifest: Dict[str, object]) -> None:
    """Every metric by name, with its unit."""
    print(f"\n== {result['workload']}  seed {result['seed']}  "
          f"{result['laps']} laps  {result['ok']}/{result['attempted']} ok  "
          f"{result['failed']} failed  sim_digest {result['sim_digest'][:16]}")
    for spec in manifest["end_to_end"]:
        metric = result["end_to_end"][spec["name"]]
        line = f"  {spec['name']:<40} {metric['value']:>16.6g} {spec['unit']}"
        if "noise" in metric:
            line += (f"   [q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  "
                     f"host_noise {metric['noise']:.3f}  n {metric['n']}]")
            if metric["noise"] > NOISE_WARNING:
                line += "  WARNING: noisy"
        print(line)
    for spec in manifest["per_layer"] if "per_layer" in result else ():
        value = result["per_layer"][spec["name"]]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {spec['name']:<40} {shown:>16} {spec['unit']}")
    for key in result.get("missing", ()):
        print(f"  missing source: {key}")
    for failure in result["failures"]:
        print(f"  FAILED CHECK: {failure}")


def result_line(result: Dict[str, object], manifest: Dict[str, object],
                trace: bool) -> str:
    if trace:
        metrics = {
            spec["name"]: {"value": result["per_layer"][spec["name"]] or 0.0,
                           "unit": spec["unit"]}
            for spec in manifest["per_layer"]
        }
    else:
        metrics = {
            spec["name"]: {"value": result["end_to_end"][spec["name"]]["value"],
                           "unit": spec["unit"]}
            for spec in manifest["end_to_end"]
        }
    return json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _worse_by(spec: Dict[str, object], base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / abs(base) if base else 0.0
    return change if spec["better"] == "lower" else -change


def compare(path_a: str, path_b: str, manifest: Dict[str, object]) -> int:
    """Diff two result files, each workload in its own rows.  Exit code
    1 when any metric is worse than its bound or more operations fail."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    status = 0
    for name in sorted(set(a) & set(b)):
        base, new = a[name], b[name]
        print(f"\n== {name}")
        exact = (base["seed"], base["laps"]) == (new["seed"], new["laps"])
        if not exact:
            print("  note: seed or lap count differ, so simulated values may: "
                  "they are held to their bounds, not to equality")
        if base["sim_digest"] != new["sim_digest"]:
            print(f"  {'sim_digest':<22} changed")
        base_share = base["failed"] / base["attempted"]
        new_share = new["failed"] / new["attempted"]
        if new_share > base_share:
            print(f"  {'failed_share':<22} regressed  {base_share:.6g} -> {new_share:.6g}")
            status = 1
        for spec in manifest["end_to_end"]:
            x, y = base["end_to_end"][spec["name"]], new["end_to_end"][spec["name"]]
            worse = _worse_by(spec, x["value"], y["value"])
            if exact and spec["name"].startswith("sim_"):
                # Deterministic per seed and lap count: any difference
                # is a change of the modelled system, and any worsening
                # a regression.
                if abs(worse) <= SIM_TOLERANCE:
                    verdict = "same"
                elif worse > 0:
                    verdict, status = "changed, worse", 1
                else:
                    verdict = "changed, better"
            else:
                spans = [(m.get("q1", m["value"]), m.get("q3", m["value"])) for m in (x, y)]
                disjoint = spans[0][1] < spans[1][0] or spans[1][1] < spans[0][0]
                noisy = max(m.get("noise", 0.0) for m in (x, y)) > spec["bound"]
                if worse > spec["bound"]:
                    verdict = "regressed" if disjoint else "unresolved, worse than bound"
                    status = 1
                elif noisy:
                    verdict = "unresolved"
                elif worse < -spec["bound"] and disjoint:
                    verdict = "improved"
                else:
                    verdict = "unchanged"
            print(f"  {spec['name']:<22} {verdict:<30} {x['value']:.6g} -> "
                  f"{y['value']:.6g} {spec['unit']}  ({-worse:+.2%} better, "
                  f"bound {spec['bound']:.0%})")
    return status


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    manifest = json.loads(MANIFEST.read_text())
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2], manifest)

    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run this workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="host seconds of timed laps")
    parser.add_argument("--laps", type=int,
                        help="exactly this many timed laps instead of --seconds "
                             "(simulated values then repeat exactly per seed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced and the profiled lap, report per-layer metrics")
    parser.add_argument("--out", type=Path, help="also write the full result here")
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_all(args, names)
    result = run_workload(args.workload, args.seed, args.seconds, args.laps,
                          bool(args.trace))
    report(result, manifest)
    if args.out is not None:
        _write(args.out, {"workloads": {args.workload: result}})
    print(result_line(result, manifest, bool(args.trace)))
    return 1 if result["failures"] else 0


def run_all(args, names: List[str]) -> int:
    """One child process per workload, so that one workload's heap and
    caches are not the next one's starting point."""
    ARTIFACTS.mkdir(exist_ok=True)
    status, merged = 0, {}
    for name in names:
        out = ARTIFACTS / f"{name}.result.json"
        out.unlink(missing_ok=True)
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", str(out)]
        if args.laps is not None:
            command += ["--laps", str(args.laps)]
        status |= subprocess.run(command, check=False).returncode
        if out.exists():
            merged.update(json.loads(out.read_text())["workloads"])
    path = args.out or ARTIFACTS / "result.json"
    _write(path, {"workloads": merged})
    print(f"\nresult file: {path}")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
