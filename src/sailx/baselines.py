"""Action-aggregation baseline: merge small consecutive deltas into one.

Aggregating consecutive position deltas shortens a waypoint stream without
changing its total displacement, so replaying the aggregated stream at the
demo interval yields a naive speedup.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .policy import ActionChunk, MockPolicy

NORM_THRESHOLD = 0.0005   # m; flush once the accumulated delta exceeds this
DOT_THRESHOLD = 0.25      # flush when the incoming delta turns away this far

__all__ = ["aggregate_actions", "aggregate_chunk", "AggregatedActionsPolicy",
           "NORM_THRESHOLD", "DOT_THRESHOLD"]


def _aggregate(deltas):
    """Segment deltas into merged vectors; also return each segment's end.

    Returns (outputs, ends) where ends[j] is the index one past the last
    input delta merged into outputs[j].
    """
    out: list[np.ndarray] = []
    ends: list[int] = []
    acc = np.zeros(3)
    pending = False
    count = 0
    for d in deltas:
        d = np.asarray(d, dtype=float)
        if d.shape != (3,):
            raise InvalidInputError("deltas must be 3-vectors")
        if not np.all(np.isfinite(d)):
            raise InvalidInputError("deltas must be finite")
        if pending:
            na, nd = np.linalg.norm(acc), np.linalg.norm(d)
            turned = (na > 0 and nd > 0
                      and float(np.dot(acc, d)) / (na * nd) < DOT_THRESHOLD)
            if na > NORM_THRESHOLD or turned:
                out.append(acc)
                ends.append(count)
                acc = np.zeros(3)
        acc = acc + d
        pending = True
        count += 1
    if pending:
        out.append(acc)
        ends.append(count)
    return out, ends


def aggregate_actions(deltas) -> list[np.ndarray]:
    """Merge consecutive 3-vector deltas while they stay small and aligned.

    Deltas accumulate into one output vector; the accumulator is flushed when
    its norm exceeds NORM_THRESHOLD or when the normalized dot product
    between the incoming delta and the accumulator drops below DOT_THRESHOLD.
    A non-empty final partial accumulator is always flushed, so the
    componentwise sum of the outputs equals the sum of the inputs.
    """
    out, _ = _aggregate(deltas)
    return out


def aggregate_chunk(chunk: ActionChunk) -> ActionChunk:
    """Rewrite a chunk so each waypoint advances by one aggregated delta.

    Waypoints that merge keep the values at the last contributing step,
    except the gripper command and criticality flag, which take the maximum
    over the merged span so gripper events and critical steps survive. The
    result is padded by repeating its last waypoint so the chunk length (and
    the scheduler's indexing into it) is unchanged.
    """
    n = len(chunk)
    if n < 2:
        return chunk
    _, ends = _aggregate(np.diff(chunk.positions, axis=0))
    keep = np.concatenate([[0], np.asarray(ends, dtype=int)])
    m = len(keep)
    positions = np.empty_like(chunk.positions)
    orientations = np.empty_like(chunk.orientations)
    grippers = np.empty_like(chunk.grippers)
    flags = np.empty_like(chunk.flags)
    prev = 0
    for j, k in enumerate(keep):
        positions[j] = chunk.positions[k]
        orientations[j] = chunk.orientations[k]
        grippers[j] = np.max(chunk.grippers[prev:k + 1])
        flags[j] = np.max(chunk.flags[prev:k + 1])
        prev = k
    positions[m:] = positions[m - 1]
    orientations[m:] = orientations[m - 1]
    grippers[m:] = grippers[m - 1]
    flags[m:] = flags[m - 1]
    return ActionChunk(positions, orientations, grippers, flags)


class AggregatedActionsPolicy(MockPolicy):
    """MockPolicy whose every drawn chunk is delta-aggregated."""

    def _extract(self, demo_idx, start, **kwargs):
        chunk = super()._extract(demo_idx, start, **kwargs)
        return aggregate_chunk(chunk)
