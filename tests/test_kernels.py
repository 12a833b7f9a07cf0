"""The fused plant loop and the vectorised reference against the oracle.

``kernels.track_loop`` runs the PD law and the Euler step on scalar locals,
``ReferenceTrack.sample`` interpolates every point at once and
``ReferenceTrack`` computes every segment's angular rate at once. All must
give the same bits as the per-step array kernels in ``plant_oracle``; NaN
payloads are the only bits not compared.
"""
import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sailx import kernels
from sailx.controller import ReferenceTrack

import plant_oracle

# a fixed example sequence keeps every tier-1 run repeatable
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _bits(a) -> bytes:
    a = np.asarray(a)
    if a.dtype.kind == "f":
        a = np.where(np.isnan(a), np.nan, a)
    return a.tobytes()


def _unit(v):
    v = np.asarray(v, dtype=float)
    q = v / np.linalg.norm(v)
    return -q if q[0] < 0.0 else q


_coord = st.floats(-1.0, 1.0)
_quat = st.lists(_coord, min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(_unit)


@st.composite
def plant_cases(draw):
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = np.zeros(kernels.STATE_SIZE)
    state[0:3] = rng.normal(0.0, 0.02, 3)
    state[3:7] = draw(_quat)
    state[7:13] = rng.normal(0.0, 0.2, 6)
    state[13] = draw(st.floats(0.0, 1.0))
    # the object within or just beyond the grasp radius of the robot
    state[14:17] = state[0:3] + rng.normal(0.0, 0.01, 3)
    state[17:21] = draw(_quat)
    state[21] = float(draw(st.booleans()))
    state[22:25] = rng.normal(0.0, 0.01, 3)
    state[25:29] = draw(_quat)
    state[29] = draw(st.floats(0.0, 10.0))

    ref_pos = state[0:3] + np.cumsum(rng.normal(0.0, 0.002, (n, 3)), axis=0)
    ref_vel = rng.normal(0.0, 0.3, (n, 3))
    if draw(st.booleans()):
        ref_quat = np.tile(draw(_quat), (n, 1))
    else:
        ref_quat = rng.normal(size=(n, 4))
        ref_quat /= np.linalg.norm(ref_quat, axis=1)[:, None]
    ref_angvel = rng.normal(0.0, 2.0, (n, 3))
    ref_grip = rng.choice([0.0, 1.0], size=n)
    refs = [ref_pos, ref_vel, ref_quat, ref_angvel, ref_grip]
    if draw(st.booleans()):
        # a non-finite or overflowing value mid-loop
        which = draw(st.sampled_from([0, 1, 3]))
        refs[which][draw(st.integers(0, n - 1)), draw(st.integers(0, 2))] = \
            draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e160, -1e170]))

    kp_pos = draw(st.floats(0.0, 3000.0))
    kp_ori = draw(st.floats(0.0, 3000.0))
    params = (kp_pos, np.float64(2.0 * np.sqrt(kp_pos)), kp_ori,
              draw(st.floats(0.0, 120.0)), draw(st.floats(0.1, 5.0)),
              draw(st.floats(0.01, 2.0)), 0.002,
              draw(st.sampled_from([8.0, 400.0])),
              draw(st.sampled_from([0.015, 0.05])),
              draw(st.sampled_from([0.0, 0.5, 40.0])))
    return state, refs, params


def _run(loop, state, refs, params):
    n = len(refs[0])
    state = state.copy()
    outs = [np.full((n, 3), -7.0), np.full((n, 4), -7.0), np.full(n, -7.0),
            np.full(n, -7.0), np.full(n, 3, dtype=np.int8)]
    with np.errstate(all="ignore"):
        fault = loop(state, *refs, *params, *outs)
    return fault, state, outs


def _assert_same_run(state, refs, params):
    fault, final, outs = _run(kernels.track_loop, state, refs, params)
    want_fault, want_final, want_outs = _run(plant_oracle.track_loop, state,
                                             refs, params)
    assert fault == want_fault
    assert _bits(final) == _bits(want_final)
    for got, want in zip(outs, want_outs):
        assert _bits(got) == _bits(want)
    return fault, outs[4]


class TestTrackLoop:
    @SETTINGS
    @given(plant_cases())
    def test_matches_reference_plant_bit_for_bit(self, case):
        _assert_same_run(*case)

    def test_grasp_then_release(self):
        state = np.zeros(kernels.STATE_SIZE)
        state[3:7] = _unit([0.9, 0.1, -0.3, 0.2])
        state[14:17] = [0.004, -0.003, 0.002]
        state[17] = 1.0
        state[25] = 1.0
        n = 120
        refs = [np.tile([0.01, 0.0, 0.02], (n, 1)), np.zeros((n, 3)),
                np.tile(_unit([0.8, -0.2, 0.4, 0.1]), (n, 1)),
                np.zeros((n, 3)),
                np.where(np.arange(n) < 60, 1.0, 0.0)]
        params = (300.0, 34.6, 400.0, 40.0, 1.0, 1.0, 0.002, 100.0, 0.015,
                  0.5)
        fault, events = _assert_same_run(state, refs, params)
        assert fault == -1
        assert sorted(set(events.tolist())) == [-1, 0, 1]

    def test_fault_keeps_the_state_before_the_step(self):
        state = np.zeros(kernels.STATE_SIZE)
        state[3] = 1.0
        n = 10
        refs = [np.zeros((n, 3)), np.zeros((n, 3)),
                np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), np.zeros((n, 3)),
                np.zeros(n)]
        refs[1][4, 2] = np.nan
        params = (100.0, 20.0, 100.0, 20.0, 1.0, 1.0, 0.002, 8.0, 0.015, 0.0)
        fault, _ = _assert_same_run(state, refs, params)
        assert fault == 4


def _waypoints(draw, n):
    kinds = draw(st.lists(st.sampled_from(["free", "antipodal", "same",
                                           "flipped", "near"]),
                          min_size=n - 1, max_size=n - 1))
    quats = [draw(_quat)]
    for kind in kinds:
        prev = quats[-1]
        if kind == "antipodal":  # dot < 0: the short arc runs through -q
            quats.append(-_unit(prev + 0.3 * np.array(draw(_quat))))
        elif kind == "same":
            quats.append(prev.copy())
        elif kind == "flipped":  # the same rotation with the opposite sign
            quats.append(-prev)
        elif kind == "near":  # dot rounds to 1 (lerp) or to 1 - 1 ulp, and
            # the relative rotation's vector part is below 1e-12
            quats.append(_unit(prev + np.array([0.0, 1e-13, 0.0, -1e-13])))
        else:
            quats.append(draw(_quat))
    return np.array(quats)


@st.composite
def slerp_cases(draw):
    n = draw(st.integers(2, 8))
    steps = draw(st.lists(st.floats(0.01, 2.0), min_size=n - 1,
                          max_size=n - 1))
    times = np.cumsum([draw(st.floats(-5.0, 5.0))] + steps)
    quats = _waypoints(draw, n)
    span = st.floats(times[0] - 1.0, times[-1] + 1.0)
    at = draw(st.lists(span | st.sampled_from(list(times)), min_size=1,
                       max_size=40))
    return times, quats, np.array(at)


class TestReferenceSample:
    @SETTINGS
    @given(slerp_cases())
    @example((np.array([0.0, 1.0]),
              np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]),
              np.array([-0.5, 0.0, 0.25, 1.0, 1.5])))
    def test_matches_pointwise_slerp_bit_for_bit(self, case):
        times, quats, at = case
        ref = ReferenceTrack(times, np.zeros((len(times), 3)), quats)
        _, _, quat, _, _ = ref.sample(at)

        tc = np.clip(at, times[0], times[-1])
        seg = np.clip(np.searchsorted(times, tc, side="right") - 1, 0,
                      len(times) - 2)
        frac = (tc - times[seg]) / (times[seg + 1] - times[seg])
        want = np.array([plant_oracle.quat_slerp(quats[s], quats[s + 1], f)
                         for s, f in zip(seg, frac)])
        assert _bits(quat) == _bits(want)


class TestSegmentRates:
    @SETTINGS
    @given(slerp_cases())
    def test_match_per_segment_rotvec_bit_for_bit(self, case):
        times, quats, _ = case
        ref = ReferenceTrack(times, np.zeros((len(times), 3)), quats)
        # at a waypoint time the sampled rate is the segment that starts there
        _, _, _, angvel, _ = ref.sample(times[:-1])
        assert _bits(angvel) == _bits(plant_oracle.segment_rates(times, quats))
