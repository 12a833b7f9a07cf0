"""The reference track's fast path against the scipy spline and slerp.

``ReferenceTrack`` builds its natural spline by scipy's own steps, computes
each slerp segment's flip, angle and branch once per track, and hands the
rows ``track_slices`` sampled to ``sample_trace``. Each must give the bits
of ``reference_oracle.OracleReferenceTrack`` (``CubicSpline`` and the
per-call slerp) or of a fresh sample.
"""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from sailx.controller import GAIN_PRESETS, ReferenceTrack, track_slices
from sailx.core import IDENTITY_QUAT, Pose
from sailx.experiments import make_task
from sailx.scheduler import TRACE_STRIDE, sample_trace
from sailx.sim import initial_world

from reference_oracle import OracleReferenceTrack

# a fixed example sequence keeps every tier-1 run repeatable
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _unit(q):
    return q / np.linalg.norm(q)


@st.composite
def tracks(draw, min_size=3, max_size=40):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_size, max_size))
    # uneven spacing over several orders of magnitude
    steps = 10.0 ** rng.uniform(-3.0, 0.5, n - 1)
    times = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0],
                                                         np.cumsum(steps)])
    positions = rng.normal(0.0, draw(st.sampled_from([0.01, 1.0, 10.0])),
                           (n, 3))
    # segments that slerp, lerp (equal or nearly equal ends) or flip
    quats = [_unit(rng.normal(size=4))]
    for _ in range(n - 1):
        kind = draw(st.sampled_from(["random", "equal", "antipodal",
                                     "near", "close"]))
        prev = quats[-1]
        if kind == "random":
            quats.append(_unit(rng.normal(size=4)))
        elif kind == "equal":
            quats.append(prev.copy())
        elif kind == "antipodal":
            quats.append(-prev)
        elif kind == "near":  # theta below 1e-10
            quats.append(_unit(prev + rng.normal(0.0, 1e-13, 4)))
        else:
            quats.append(_unit(prev + rng.normal(0.0, 1e-3, 4)))
    grippers = rng.choice([0.0, 1.0], n)
    span = times[-1] - times[0]
    at = np.concatenate([rng.uniform(times[0] - 0.1 * span,
                                     times[-1] + 0.1 * span, 30), times])
    rng.shuffle(at)
    return times, positions, np.array(quats), grippers, at


class TestSpline:
    @SETTINGS
    @given(tracks())
    def test_coefficients_match_cubic_spline(self, case):
        times, positions, quats, _, at = case
        ref = ReferenceTrack(times, positions, quats)
        spline = CubicSpline(times, positions, bc_type="natural")
        assert ref._spline.c.tobytes() == spline.c.tobytes()
        assert ref._spline(at).tobytes() == spline(at).tobytes()
        assert ref._spline(at, 1).tobytes() == spline(at, 1).tobytes()


class TestSample:
    @SETTINGS
    @given(tracks(min_size=2))
    def test_matches_the_scipy_spline_and_per_call_slerp(self, case):
        times, positions, quats, grippers, at = case
        ref = ReferenceTrack(times, positions, quats, grippers)
        oracle = OracleReferenceTrack(times, positions, quats, grippers)
        for k in (1, 2, len(at)):  # one-point samples too
            for got, want in zip(ref.sample(at[:k]), oracle.sample(at[:k])):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestTraceRows:
    @SETTINGS
    @given(tracks(max_size=12), st.lists(st.floats(0.0, 0.3), min_size=1,
                                         max_size=3))
    def test_are_a_fresh_sample_at_the_step_times(self, case, stretches):
        times, positions, quats, grippers, _ = case
        # a track the plant can follow: centimetres over its time span
        positions = 0.01 * positions / (1.0 + np.abs(positions).max())
        ref = ReferenceTrack(times, positions, quats, grippers)
        state = initial_world(Pose(np.zeros(3), IDENTITY_QUAT),
                              make_task())
        state[29] = times[0]
        untils = times[0] + np.cumsum(stretches)
        for trace in track_slices(state, ref, GAIN_PRESETS["real-exec"],
                                  untils):
            pos, _, quat, _, _ = ref.sample(trace.times)
            assert trace.ref_positions.tobytes() == pos.tobytes()
            assert trace.ref_orientations.tobytes() == quat.tobytes()
            samples, _ = sample_trace(trace)
            pos, _, quat, _, _ = ref.sample(trace.times[::TRACE_STRIDE])
            assert samples["ref_positions"].tobytes() == pos.tobytes()
            assert samples["ref_orientations"].tobytes() == quat.tobytes()
