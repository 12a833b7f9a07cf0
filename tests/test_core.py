import numpy as np
import pytest

from sailx.core import IDENTITY_QUAT, Pose, tracking_error
from sailx.errors import InvalidInputError
from sailx.kernels import _CONJ, _exp, _hamilton, _normalise, _rotvec, _signed

from plant_oracle import quat_angle, quat_rotate, quat_slerp


def _pose(pos, quat=None):
    return Pose(np.asarray(pos, dtype=float),
                IDENTITY_QUAT.copy() if quat is None else np.asarray(quat))


def rotz(theta):
    return np.array([np.cos(theta / 2), 0.0, 0.0, np.sin(theta / 2)])


def _error(desired, current):
    return tracking_error(desired, current.position, current.orientation)


class TestTrackingError:
    def test_identical_poses_zero_error(self):
        p = _pose([0.1, 0.2, 0.3])
        err = _error(p, p)
        assert err.e_pos == 0.0
        assert err.e_ori == pytest.approx(0.0, abs=1e-7)

    def test_position_error_is_euclidean(self):
        a = _pose([0.0, 0.0, 0.0])
        b = _pose([0.3, 0.4, 0.0])
        assert _error(a, b).e_pos == pytest.approx(0.5)

    def test_orientation_error_is_rotation_angle(self):
        a = _pose([0, 0, 0])
        for theta in [0.05, 0.5, 1.5, np.pi - 0.01]:
            b = _pose([0, 0, 0], rotz(theta))
            assert _error(a, b).e_ori == pytest.approx(theta, abs=1e-9)

    def test_quaternion_sign_invariance(self):
        # a Pose would flip -q to w >= 0; the current pose's arrays do not
        a = _pose([0, 0, 0], rotz(0.7))
        q = rotz(1.1)
        assert tracking_error(a, np.zeros(3), -q).e_ori == pytest.approx(
            tracking_error(a, np.zeros(3), q).e_ori, abs=1e-12)


def _column(q):
    return np.asarray(q, dtype=float)[:, None]


class TestQuaternionKernels:
    """The column helpers of ``sailx.kernels`` on one-column batches."""

    def test_mul_composes_rotations(self):
        q = _hamilton(_column(rotz(0.4)), _signed(_column(rotz(0.3))))
        assert quat_angle(q[:, 0], rotz(0.7)) == pytest.approx(0.0, abs=1e-12)

    def test_rotate_matches_matrix(self, rng):
        v = rng.normal(size=3)
        theta = 0.9
        rotated = quat_rotate(rotz(theta), v)
        R = np.array([[np.cos(theta), -np.sin(theta), 0],
                      [np.sin(theta), np.cos(theta), 0],
                      [0, 0, 1]])
        assert rotated == pytest.approx(R @ v, abs=1e-12)

    def test_rotvec_round_trip(self, rng):
        rv = rng.normal(size=3) * 0.5
        q = _exp(_column(rv))
        back = _rotvec(_hamilton(q, _signed(_column(IDENTITY_QUAT)), _CONJ))
        assert back[:, 0] == pytest.approx(rv, abs=1e-9)

    def test_slerp_is_geodesic(self):
        q = quat_slerp(rotz(0.0), rotz(1.0), 0.25)
        assert quat_angle(q, rotz(0.25)) == pytest.approx(0.0, abs=1e-9)

    def test_normalize_unit_norm(self, rng):
        q = _normalise(rng.normal(size=(4, 1)))
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
        assert q[0, 0] >= 0.0


class TestPose:
    def test_pose_arrays_read_only(self):
        p = _pose([1, 2, 3])
        with pytest.raises(ValueError):
            p.position[0] = 9.0

    @pytest.mark.parametrize("position, orientation", [
        ([np.nan, 0.0, 0.0], [np.nan] * 4),
        ([np.nan, 0.0, 0.0], IDENTITY_QUAT),
        ([0.0, np.inf, 0.0], IDENTITY_QUAT),
        ([0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]),
    ])
    def test_non_finite_rejected(self, position, orientation):
        with pytest.raises(InvalidInputError):
            Pose(np.array(position), np.array(orientation))
