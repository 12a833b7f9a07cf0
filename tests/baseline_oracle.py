"""The delta-aggregation rule of ``sailx.baselines`` as a list of merged
deltas.

``aggregate_actions`` returns the merged vectors that
``baselines.aggregate_chunk`` places its waypoints by, so tests can check
the aggregation rule on bare deltas.
"""

from sailx.baselines import _aggregate


def aggregate_actions(deltas) -> list:
    """Merge consecutive 3-vector deltas while they stay small and aligned
    (see ``baselines._aggregate``)."""
    out, _ = _aggregate(deltas)
    return out
