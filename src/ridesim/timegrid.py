"""The time grid: hours become steps of ``dt`` by three rules, each with
one home beside ``ceil_steps``, which every caller uses.

``window_steps`` rounds each bound of a trip window up, for a rider's
network and a ridesharing driver's schedule alike. ``link_steps`` takes a
link's delay to whole steps, at least one, for the matcher's ``tau`` and a
driver's initial plan. ``step_due`` says whether a step has come, for a
driver's hold and a boarding pin, within the tolerance ``ceil_steps``
allows.
"""
from __future__ import annotations

import math

from .agents import TimeWindow

INF = float("inf")

# how far, in steps, float noise may put a time on the wrong side of a step
STEP_TOLERANCE = 1e-9


def ceil_steps(hours: float, dt: float) -> int:
    """Smallest whole step count covering ``hours`` >= 0 (tolerant of float
    noise)."""
    return math.ceil(hours / dt - STEP_TOLERANCE)


def window_steps(window: TimeWindow, dt: float) -> tuple[int, int, int, int]:
    """A trip window's earliest and latest departure and earliest and
    latest arrival in steps, each bound rounded up (``ceil_steps``)."""
    return (ceil_steps(window.earliest_departure, dt), ceil_steps(window.latest_departure, dt),
            ceil_steps(window.earliest_arrival, dt), ceil_steps(window.latest_arrival, dt))


def link_steps(delay: float, dt: float) -> int:
    """The whole steps a link takes at ``delay`` hours: rounded up, and at
    least one."""
    return max(1, ceil_steps(delay, dt))


def step_due(step: int, now: float, dt: float) -> bool:
    """Whether step ``step`` has come at ``now`` hours, within the
    tolerance of ``ceil_steps``."""
    return step <= now / dt + STEP_TOLERANCE
