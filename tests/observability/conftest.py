"""Observability suite fixtures: never leak a probe between tests."""

from __future__ import annotations

import pytest

from repro._sim import probe


@pytest.fixture(autouse=True)
def _reset_probe():
    """A leaked recorder would silently instrument every later test."""
    before = probe.installed()
    yield
    for consumer in probe.installed():
        probe.remove(consumer)
    for consumer in before:
        probe.install(consumer)
