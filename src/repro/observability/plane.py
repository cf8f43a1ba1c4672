"""The platform-level telemetry plane: tracer + sampler, one handle.

``SecureTFPlatform`` builds a :class:`Telemetry` when its config says
``tracing=True``: the tracer is installed as the process-wide probe
(:mod:`repro._sim.probe`), every node clock is registered under its
node ID and every core that is out under its endpoint's name, and
(when an interval is configured) a
:class:`~repro.observability.metrics.MetricsSampler` scrapes the
platform's counters continuously.  The handle bundles the export
surface — profile, flame report, Chrome trace, Prometheus text, JSON —
and ``close()`` restores the previous probe so platforms can be traced
in sequence within one process.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro._sim import probe
from repro.observability import exporters
from repro.observability.metrics import MetricsSampler
from repro.observability.profiler import (
    NodeProfile,
    flame_report,
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
        self._previous_probe = probe.set_active(self.tracer)
        self.sampler: Optional[MetricsSampler] = (
            MetricsSampler(platform, sample_interval) if sample_interval > 0 else None
        )
        self._closed = False

    # -- reports ---------------------------------------------------------

    def profile(self) -> Dict[str, NodeProfile]:
        return profile(self.tracer)

    def profile_report(self) -> str:
        return format_profile(self.profile())

    def flame_report(self) -> str:
        return flame_report(self.tracer)

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
        """Stop recording: detach the sampler and restore the probe."""
        if self._closed:
            return
        self._closed = True
        if self.sampler is not None:
            self.sampler.close()
        if probe.ACTIVE is self.tracer:
            probe.set_active(self._previous_probe)

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
