"""Unit helpers so cost-model constants read like the paper's prose.

All simulated durations are plain ``float`` seconds and all sizes plain
``int`` bytes; these helpers only make call sites self-documenting
(``40 * microseconds`` rather than ``4e-05``).
"""

from __future__ import annotations

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB

#: One microsecond / millisecond, in seconds.
microseconds: float = 1e-6
milliseconds: float = 1e-3


def Gbps(n: float) -> float:
    """Gigabits per second expressed as bytes per second."""
    return n * 1e9 / 8.0
