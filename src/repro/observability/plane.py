"""The platform-level telemetry plane: tracer + sampler, one handle.

``SecureTFPlatform`` builds a :class:`Telemetry` when its config says
``tracing=True``: the tracer is installed into the process-wide sink
(:mod:`repro._sim.probe`), every node clock is registered under its
node ID and every core that is out under its endpoint's name, and
(when an interval is configured) a
:class:`~repro.observability.metrics.MetricsSampler` scrapes the
platform's counters continuously.  The handle bundles the export
surface — profile, flame report, Chrome trace, Prometheus text, JSON —
and ``close()`` removes the tracer from the sink again, whatever was
installed or removed in between.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro._sim import probe
from repro.observability import exporters
from repro.observability.metrics import MetricsSampler
from repro.observability.profiler import (
    NodeProfile,
    format_profile,
    profile,
)
from repro.observability.tracer import Tracer


class Telemetry:
    """One platform's telemetry session (tracer + optional sampler)."""

    def __init__(self, platform, sample_interval: float = 0.0) -> None:
        self._platform = platform
        self.tracer = Tracer()
        for node in platform.nodes:
            for clock, label in node.labelled_clocks():
                self.tracer.register_clock(clock, label)
        probe.install(self.tracer)
        self.sampler: Optional[MetricsSampler] = (
            MetricsSampler(platform, sample_interval) if sample_interval > 0 else None
        )

    # -- reports ---------------------------------------------------------

    def profile(self) -> Dict[str, NodeProfile]:
        return profile(self.tracer)

    def profile_report(self) -> str:
        return format_profile(self.profile())

    # -- exporters -------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        return exporters.to_chrome_trace(self.tracer)

    def prometheus(self) -> str:
        from repro.core.monitoring import collect_metrics

        return exporters.to_prometheus(
            collect_metrics(self._platform), histograms=self.tracer.histograms
        )

    def to_json(self) -> Dict[str, object]:
        from repro.core.monitoring import collect_metrics

        return exporters.to_json(
            self.tracer, metrics=collect_metrics(self._platform)
        )

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Stop recording: detach the sampler and remove the tracer
        (again: a no-op)."""
        if self.sampler is not None:
            self.sampler.close()
        probe.remove(self.tracer)

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
