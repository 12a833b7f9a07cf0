"""Reference timing model of the replanning loop (criterion 1).

``simulate_timeline`` is the pure timing simulation, with no physics, that
``sailx.scheduler`` derives its stall-safety floor from, and
``lower_bound_interval`` the stall bound at any horizons. The scheduler
keeps only the floor at the policy's horizons, ``INTERVAL_FLOOR``; these
are kept so tests can tie that constant to the model.
"""

from dataclasses import dataclass

import numpy as np

from sailx.errors import ConfigurationError


def lower_bound_interval(delta_delay: float, h_p: int, h_c: int) -> float:
    """Smallest stall-free waypoint interval: delta_delay / (h_p - h_c)."""
    if h_p <= h_c:
        raise ConfigurationError("prediction horizon must exceed the "
                                 "conditioning length")
    return delta_delay / (h_p - h_c)


@dataclass
class TimelineResult:
    cycles: int
    stall_count: int
    total_stall_time: float
    makespan: float


def simulate_timeline(h_p: int, h_c: int, delta_delay: float, intervals,
                      cycles: int = 50) -> TimelineResult:
    """Pure timing simulation of the replanning loop (no physics).

    ``intervals`` is the per-waypoint interval, scalar or one value per
    cycle. A cycle stalls when its interval is below the lower bound, i.e.
    its executable span ends before the next chunk arrives.
    """
    lb = lower_bound_interval(delta_delay, h_p, h_c)
    dts = np.broadcast_to(np.asarray(intervals, dtype=float), (cycles,))
    if np.any(dts <= 0):
        raise ConfigurationError("intervals must be positive")
    stall_count = 0
    stall_time = 0.0
    t = delta_delay  # first chunk lands after one inference delay
    for dt in dts:
        span = (h_p - h_c) * dt
        if dt < lb:
            stall_count += 1
            stall_time += delta_delay - span
        t += max(span, delta_delay)
    return TimelineResult(cycles, stall_count, stall_time, t)
