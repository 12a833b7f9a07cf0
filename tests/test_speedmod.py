import numpy as np
import pytest

from sailx.errors import InvalidInputError
from sailx.speedmod import (NOISE, dbscan, extract_waypoints,
                            gripper_event_flags, label_critical)


def oracle_dbscan(points, eps, min_pts):
    """Reference DBSCAN: repeated region-growing from core points."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    core = np.array([np.sum(dist[i] <= eps) >= min_pts for i in range(n)])
    labels = np.full(n, NOISE)
    cluster = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        frontier = [i]
        labels[i] = cluster
        while frontier:
            j = frontier.pop()
            if not core[j]:
                continue
            for m in np.nonzero(dist[j] <= eps)[0]:
                if labels[m] == NOISE:
                    labels[m] = cluster
                    if core[m]:
                        frontier.append(m)
        cluster += 1
    return labels


def same_partition(a, b):
    """Equal clusterings up to label renaming; noise must match exactly."""
    a, b = np.asarray(a), np.asarray(b)
    if not np.array_equal(a == NOISE, b == NOISE):
        return False
    mapping = {}
    for x, y in zip(a, b):
        if x == NOISE:
            continue
        if mapping.setdefault(x, y) != y:
            return False
    return len(set(mapping.values())) == len(mapping)


class TestExtractWaypoints:
    def test_straight_line_keeps_endpoints_only(self):
        pts = np.linspace([0, 0, 0], [1, 0, 0], 50)
        wps = extract_waypoints(pts, tau=0.005)
        assert list(wps.indices) == [0, 49]

    def test_corner_is_kept(self):
        leg1 = np.linspace([0, 0, 0], [1, 0, 0], 20)
        leg2 = np.linspace([1, 0, 0], [1, 1, 0], 20)[1:]
        pts = np.vstack([leg1, leg2])
        wps = extract_waypoints(pts, tau=0.005)
        assert 19 in wps.indices

    def test_error_budget_respected(self, rng):
        pts = np.cumsum(rng.normal(scale=0.01, size=(200, 3)), axis=0)
        tau = 0.02
        wps = extract_waypoints(pts, tau)
        idx = wps.indices
        for a, b in zip(idx[:-1], idx[1:]):
            seg = pts[a:b + 1]
            d = seg - pts[a]
            direction = pts[b] - pts[a]
            denom = float(direction @ direction)
            if denom == 0.0:
                dev = np.linalg.norm(d, axis=1)
            else:
                t = np.clip(d @ direction / denom, 0.0, 1.0)
                dev = np.linalg.norm(d - t[:, None] * direction, axis=1)
            assert np.max(dev) <= tau + 1e-12

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            extract_waypoints(np.zeros((1, 3)), 0.01)
        with pytest.raises(InvalidInputError):
            extract_waypoints(np.zeros((5, 3)), 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 7, 19], ids=["first", "middle",
                                                      "last"])
    def test_a_non_finite_point_is_refused(self, value, where):
        # with a NaN inside, the split kept only the two ends, and an inf
        # warned in a matmul; both labelled every step 0
        pts = np.linspace([0, 0, 0], [1, 0, 0], 20)
        pts[where, 1] = value
        with pytest.raises(InvalidInputError, match="finite"):
            extract_waypoints(pts, 0.005)
        with pytest.raises(InvalidInputError, match="finite"):
            label_critical(pts)


class TestDbscan:
    def test_matches_oracle_on_random_sets(self, rng):
        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(rng.integers(5, 60), 3))
            eps = float(rng.uniform(0.1, 0.6))
            min_pts = int(rng.integers(2, 6))
            assert same_partition(dbscan(pts, eps, min_pts),
                                  oracle_dbscan(pts, eps, min_pts))

    def test_two_blobs_and_noise(self, rng):
        blob1 = rng.normal([0, 0, 0], 0.01, size=(10, 3))
        blob2 = rng.normal([1, 1, 1], 0.01, size=(10, 3))
        lone = np.array([[5.0, 5.0, 5.0]])
        labels = dbscan(np.vstack([blob1, blob2, lone]), eps=0.1, min_pts=4)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:20])) == 1
        assert labels[0] != labels[10]
        assert labels[-1] == NOISE

    def test_empty_input(self):
        assert len(dbscan(np.zeros((0, 3)), 0.1, 3)) == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_point_is_refused(self, rng, value):
        # a NaN point was labelled noise
        pts = rng.normal(0.0, 0.01, size=(10, 3))
        pts[4, 2] = value
        with pytest.raises(InvalidInputError, match="finite"):
            dbscan(pts, 0.1, 3)


class TestLabelCritical:
    def test_matches_cluster_membership_oracle(self, rng):
        for trial in range(5):
            pts = _dwell_trajectory(rng)
            k = label_critical(pts)
            wps = extract_waypoints(pts, 0.005)
            labels = oracle_dbscan(wps.positions, 0.02, 4)
            expected = np.zeros(len(pts), dtype=np.int8)
            for a, b in zip(range(len(labels) - 1), range(1, len(labels))):
                if labels[a] != NOISE and labels[b] != NOISE:
                    expected[wps.indices[a]:wps.indices[b] + 1] = 1
            assert np.array_equal(k, expected)

    def test_dwell_region_is_critical(self, rng):
        pts = _dwell_trajectory(rng)
        k = label_critical(pts)
        assert np.sum(k) > 0

    def test_straight_sparse_motion_not_critical(self):
        pts = np.linspace([0, 0, 0], [1, 0, 0], 40)
        assert np.sum(label_critical(pts)) == 0


def _dwell_trajectory(rng):
    """Fast approach, jittered dwell (dense cluster), fast retreat."""
    approach = np.linspace([0, 0, 0.4], [0.3, 0, 0.02], 15)
    dwell = np.array([0.3, 0, 0.02]) + rng.normal(scale=0.012, size=(25, 3))
    retreat = np.linspace([0.3, 0, 0.02], [0.3, 0.4, 0.3], 15)
    return np.vstack([approach, dwell, retreat])


class TestGripperEventFlags:
    def test_single_toggle_no_window(self):
        g = np.zeros(16)
        g[7:] = 1.0
        k = gripper_event_flags(g, window=0)
        expected = np.zeros(16, dtype=np.int8)
        expected[7] = 1
        assert np.array_equal(k, expected)

    def test_two_toggles_window_two(self):
        g = np.zeros(20)
        g[5:12] = 1.0
        k = gripper_event_flags(g, window=2)
        expected = np.zeros(20, dtype=np.int8)
        for t in (5, 12):
            expected[t - 2:t + 3] = 1
        assert np.array_equal(k, expected)

    def test_threshold_is_half(self):
        g = np.array([0.4, 0.45, 0.55, 0.6])
        k = gripper_event_flags(g, window=0)
        assert list(k) == [0, 0, 1, 0]

    def test_window_clipped_at_edges(self):
        g = np.array([0.0, 1.0, 1.0])
        k = gripper_event_flags(g, window=5)
        assert np.array_equal(k, np.ones(3, dtype=np.int8))
