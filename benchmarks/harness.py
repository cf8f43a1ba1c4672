"""Shared benchmark harness: table printing and paper reference values.

Every benchmark regenerates one of the paper's figures/tables as a
printed table of *simulated* latencies, and asserts its qualitative
shape (who wins, roughly by what factor, where crossovers fall).
Wall-clock timing of the simulation itself is captured by
pytest-benchmark for regression tracking, but the scientific output is
the simulated metrics recorded in ``benchmark.extra_info``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Durable benchmark record, tracked in git so the perf trajectory of
#: the repo is visible PR over PR.
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH.json"

#: Sidecar directory for non-scalar benchmark outputs (Chrome traces,
#: profiles, Prometheus snapshots) — next to BENCH.json by design so a
#: bench run's artifacts travel with its numbers.
ARTIFACT_DIR = BENCH_JSON.parent / "bench_artifacts"

#: Reference values lifted from the paper's evaluation (§5).
PAPER = {
    "fig4_cas_total_ms": 17.0,
    "fig4_ias_total_ms": 325.0,
    "fig4_ias_verification_ms": 280.0,
    "fig4_cas_verification_ms": 1.0,
    "fig4_speedup": 19.0,
    "fig5_hw_over_sim": {"densenet": 1.39, "inception_v3": 1.14, "inception_v4": 1.12},
    "fig5_hw_vs_graphene": {"densenet": 1.03, "inception_v4": 1.4},
    "fig6_fs_shield_overhead_sim": 0.0012,
    "fig6_fs_shield_overhead_hw": 0.009,
    "fig7_hw_1node_800imgs_s": 1180.0,
    "fig7_hw_3nodes_800imgs_s": 403.0,
    "fig8_hw_over_native": 14.0,
    "fig8_speedup_2_workers": 1.96,
    "fig8_speedup_3_workers": 2.57,
    "tf_vs_lite_ratio": 71.0,
    "tf_lite_hw_inception_v3_s": 0.697,
    "tf_full_hw_inception_v3_s": 49.782,
}


def print_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Optional[List[str]] = None,
) -> None:
    """Print an aligned results table (the figure's rows)."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    for note in notes or []:
        print(f"  note: {note}")


def fmt_s(seconds: float) -> str:
    return f"{seconds:.3f}s"


def fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}ms"


def record(benchmark, **metrics: object) -> None:
    """Attach simulated metrics to the pytest-benchmark record."""
    if benchmark is not None:
        for key, value in metrics.items():
            benchmark.extra_info[key] = value


def _load_bench_json() -> Dict[str, object]:
    if BENCH_JSON.exists():
        try:
            return json.loads(BENCH_JSON.read_text())
        except (OSError, ValueError):
            pass
    return {}


def load_bench(section: str) -> Dict[str, object]:
    """What ``BENCH.json`` holds under ``section`` now (``{}`` if nothing)."""
    return dict(_load_bench_json().get(section) or {})


def save_bench(section: str, metrics: Dict[str, object]) -> None:
    """Merge ``metrics`` into ``BENCH.json`` under ``section``.

    Existing sections are replaced wholesale (a rerun supersedes its old
    numbers); other sections are left untouched.
    """
    data = _load_bench_json()
    data[section] = metrics
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def save_artifact(name: str, text: str) -> Path:
    """Write a telemetry artifact next to ``BENCH.json``; returns its path.

    ``name`` must be a bare filename (e.g. ``training.trace.json``) —
    artifacts never escape the sidecar directory.
    """
    if "/" in name or "\\" in name or name.startswith("."):
        raise ValueError(f"artifact name must be a bare filename: {name!r}")
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / name
    path.write_text(text)
    return path


def run_once(benchmark, fn):
    """Run a simulation once under pytest-benchmark (no repetition —
    the simulation is deterministic; repeating it only wastes time)."""
    if benchmark is None:
        return fn()
    return benchmark.pedantic(fn, rounds=1, iterations=1)
