"""Offline critical-action labeling.

Pipeline: approximate a trajectory with waypoints under an error budget
(recursive maximal-deviation splitting), cluster the waypoints with DBSCAN,
and mark the spans between consecutive clustered waypoints as critical
(k = 1). Gripper toggles provide a second, runtime-friendly flag source.
"""

import math
from dataclasses import dataclass

import numpy as np
# the clip ufunc, which numpy 2 exposes here
from numpy._core.umath import clip as _clip

from .errors import InvalidInputError

NOISE = -1  # DBSCAN noise label


@dataclass(frozen=True)
class WaypointSet:
    indices: np.ndarray   # strictly increasing indices into the trajectory
    positions: np.ndarray  # (M, 3)


# the labelling parameters: the waypoint approximation error budget (m),
# the DBSCAN radius (m) and its core-point neighbour count
LABEL_TAU = 0.005
LABEL_EPS = 0.02
LABEL_MIN_PTS = 4


def _norms(v):
    """``np.linalg.norm(v, axis=1)`` of a real (N, 3) array, in its
    operation order, without its argument handling."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


def _point_segment_distances(points, a, b):
    """Distances from each point to segment a-b."""
    d = b - a
    denom = float(d @ d)
    if denom == 0.0:
        return _norms(points - a)
    # the clip ufunc that np.clip calls, without its argument handling
    t = _clip((points - a) @ d / denom, 0.0, 1.0)
    proj = a + t[:, None] * d
    return _norms(points - proj)


def _finite_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        raise InvalidInputError("points must be finite")
    return pts


def extract_waypoints(positions, tau: float) -> WaypointSet:
    """Recursive maximal-deviation split until all points lie within tau.

    ``positions`` is an (N, 3) array-like of finite points. The first and
    last points are always waypoints.
    """
    if not 0.0 < tau < math.inf:
        raise InvalidInputError("tau must be finite and positive")
    pts = _finite_points(positions)
    n = len(pts)
    if n < 2:
        raise InvalidInputError("trajectory must contain at least 2 points")

    keep = {0, n - 1}
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        dists = _point_segment_distances(pts[i + 1:j], pts[i], pts[j])
        k = int(dists.argmax())
        if dists[k] > tau:
            m = i + 1 + k
            keep.add(m)
            stack.append((i, m))
            stack.append((m, j))
    idx = np.array(sorted(keep), dtype=int)
    return WaypointSet(indices=idx, positions=pts[idx])


def dbscan(points, eps: float, min_pts: int) -> np.ndarray:
    """Plain DBSCAN over finite 3-D points; noise labeled -1.

    Deterministic: points are visited in ascending index order.
    """
    if not 0.0 < eps < math.inf or min_pts < 1:
        raise InvalidInputError("eps must be finite and positive and "
                                "min_pts >= 1")
    pts = _finite_points(points)
    n = len(pts)
    labels = np.full(n, NOISE, dtype=int)
    if n == 0:
        return labels
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    neighbors = [np.nonzero(dist[i] <= eps)[0] for i in range(n)]

    cluster = 0
    visited = np.zeros(n, dtype=bool)
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        if len(neighbors[i]) < min_pts:
            continue
        labels[i] = cluster
        seeds = list(neighbors[i])
        k = 0
        while k < len(seeds):
            j = seeds[k]
            k += 1
            if labels[j] == NOISE:
                labels[j] = cluster
            if not visited[j]:
                visited[j] = True
                if len(neighbors[j]) >= min_pts:
                    labels[j] = cluster
                    seeds.extend(neighbors[j])
        cluster += 1
    return labels


def label_critical(positions) -> np.ndarray:
    """Critical-action flags: spans between consecutive clustered waypoints.

    Returns k in {0,1}^N, N = trajectory length. The waypoints are
    extracted within LABEL_TAU and clustered with DBSCAN at LABEL_EPS and
    LABEL_MIN_PTS. For each consecutive pair of waypoints that are both
    assigned to a cluster, every step from the first to the second
    (inclusive) is critical.
    """
    pts = np.asarray(positions, dtype=float)
    wps = extract_waypoints(pts, LABEL_TAU)
    labels = dbscan(wps.positions, LABEL_EPS, LABEL_MIN_PTS)
    k = np.zeros(len(pts), dtype=np.int8)
    for a, b in zip(range(len(labels) - 1), range(1, len(labels))):
        if labels[a] != NOISE and labels[b] != NOISE:
            k[wps.indices[a]:wps.indices[b] + 1] = 1
    return k


def gripper_event_flags(grippers, window: int = 2) -> np.ndarray:
    """k=1 where the binarized gripper command (threshold 0.5) toggles.

    ``window`` dilates each toggle to [t - window, t + window].
    """
    g = np.asarray(grippers, dtype=float)
    binary = g >= 0.5
    k = np.zeros(len(g), dtype=np.int8)
    toggles = np.nonzero(binary[1:] != binary[:-1])[0] + 1
    for t in toggles:
        k[max(0, t - window):t + window + 1] = 1
    return k
