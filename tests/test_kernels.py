"""The fused plant loop and the vectorised reference against the oracle.

``kernels.track_loop`` runs the PD law and the Euler step on scalar locals,
``kernels._track_at_rest`` runs the same plant at rest on the columns of a
batch, ``ReferenceTrack.sample`` interpolates every point at once,
``ReferenceTrack`` computes every segment's angular rate at once, and a
lockstep reference group samples the references of one knot grid at once.
All must give the same bits as the per-step array kernels in
``plant_oracle`` (the batched plant: as ``track_loop`` on each column; a
group: as each reference's ``sample``); NaN payloads are the only bits not
compared.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sailx import controller, kernels
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


IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
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

    return state, refs, _params(draw)


def _params(draw):
    """Gains, dt, gripper slew and grasp radius of a plant case."""
    kp_pos = draw(st.floats(0.0, 3000.0))
    kp_ori = draw(st.floats(0.0, 3000.0))
    return (kp_pos, np.float64(2.0 * np.sqrt(kp_pos)), kp_ori,
            draw(st.floats(0.0, 120.0)), 0.002,
            draw(st.sampled_from([8.0, 400.0])),
            draw(st.sampled_from([0.015, 0.05])))


def _oracle_loop(state, *args):
    """plant_oracle.track_loop on a unit body with its wrench limit off:
    the kernels' plant has unit mass and inertia, and no limit."""
    return plant_oracle.track_loop(state, *args[:9], 1.0, 1.0, *args[9:12],
                                   0.0, *args[12:])


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
    want_fault, want_final, want_outs = _run(_oracle_loop, state, refs,
                                             params)
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
        params = (300.0, 34.6, 400.0, 40.0, 0.002, 100.0, 0.015)
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
        params = (100.0, 20.0, 100.0, 20.0, 0.002, 8.0, 0.015)
        fault, _ = _assert_same_run(state, refs, params)
        assert fault == 4

    PARAMS = (100.0, 20.0, 100.0, 20.0, 0.002, 8.0, 0.015)

    @staticmethod
    def _refs(n):
        return [np.full((n, 3), 0.01), np.zeros((n, 3)),
                np.tile(_unit([0.9, 0.1, 0.0, 0.2]), (n, 1)),
                np.zeros((n, 3)), np.ones(n)]

    @staticmethod
    def _nan_outs(n):
        return [np.full((n, 3), np.nan), np.full((n, 4), np.nan),
                np.full(n, np.nan), np.full(n, np.nan),
                np.full(n, 5, dtype=np.int8)]

    def test_zero_steps_leave_the_state_alone(self):
        state = np.zeros(kernels.STATE_SIZE)
        state[3] = state[17] = state[25] = 1.0
        state[29] = 0.25
        for loop in (kernels.track_loop, _oracle_loop):
            final = state.copy()
            outs = self._nan_outs(0)
            assert loop(final, *self._refs(0), *self.PARAMS, *outs) == -1
            assert final.tobytes() == state.tobytes()
            assert all(out.size == 0 for out in outs)

    def test_a_fault_leaves_the_out_rows_from_its_step_on_alone(self):
        state = np.zeros(kernels.STATE_SIZE)
        state[3] = state[17] = state[25] = 1.0
        n, fault_step = 12, 7
        refs = self._refs(n)
        refs[3][fault_step, 1] = np.inf
        runs = []
        for loop in (kernels.track_loop, _oracle_loop):
            final = state.copy()
            outs = self._nan_outs(n)
            assert loop(final, *refs, *self.PARAMS, *outs) == fault_step
            runs.append((final, outs))
            # rows the loop completed are written, the rest kept as given
            for out in outs[:4]:
                assert not np.isnan(out[:fault_step]).any()
                assert np.isnan(out[fault_step:]).all()
            assert (outs[4][:fault_step] != 5).all()
            assert (outs[4][fault_step:] == 5).all()
        (got, got_outs), (want, want_outs) = runs
        assert got.tobytes() == want.tobytes()
        for a, b in zip(got_outs, want_outs):
            assert _bits(a) == _bits(b)


@st.composite
def batch_cases(draw):
    """B plant cases cut to one step count, with the first case's dt,
    gripper slew and grasp radius.

    Gains and states stay per row, faults included.
    """
    b = draw(st.integers(1, 12))
    return _lockstep_rows(draw, [draw(plant_cases()) for _ in range(b)])


def _lockstep_rows(draw, cases):
    """``cases`` cut to their shortest step count, or one step fewer, as
    drawn, under the first case's dt, gripper slew and grasp radius."""
    n = min(len(refs[0]) for _, refs, _ in cases)
    if n > 1 and n % 2 != draw(st.integers(0, 1)):
        n -= 1
    shared = cases[0][2][4:7]
    return [(state, [r[:n] for r in refs], params[:4] + shared)
            for state, refs, params in cases]


def _batch_args(rows):
    """(states, rest-form block, position gains..., shared params...) of
    _track_at_rest: the block holds each row's [grip; pos; vel] reference
    rows, (n, REST_ROWS, B)."""
    states = np.stack([state for state, _, _ in rows], axis=1)
    block = np.stack([np.column_stack((refs[4], refs[0], refs[1]))
                      for _, refs, _ in rows], axis=2)
    params = [np.array(p) for p in zip(*(params for _, _, params in rows))]
    return states, block, params[:2], [float(p[0]) for p in params[4:7]]


def _starts_at_rest(rows):
    """Whether every robot of ``rows`` starts at rest, under finite
    orientation gains and dt: what ``controller`` runs on _track_at_rest,
    given references at rest. (Its gains are finite, as GainProfile
    refuses others, and its dt is PHYSICS_DT.)"""
    return all(state[3] == 1.0 and kernels._positive_zero(
        state[kernels._SPIN]) and np.isfinite(params[2:5]).all()
               for state, _, params in rows)


def _assert_columns_match_track_loop(rows, loop=kernels.track_loop,
                                     at_rest=None, rest_form=True):
    """One lockstep step of ``rows`` as ``controller`` takes it, every
    column against track_loop (or ``loop``) on that row.

    Rows on their rest-form block that start at rest (``_starts_at_rest``)
    step on _track_at_rest. Where a column faults, the call must name the
    first step at which any column does and exactly the columns that fault
    there, and leave the state as it was; the call up to that step must
    not fault. Those columns stop there, and the others step on from it,
    as ``controller`` runs them. Other rows, and rows without
    ``rest_form``, whose references are not at rest, run track_loop column
    by column. ``at_rest``, when given, is whether the rows step on
    _track_at_rest. Returns the faults and the final states."""
    states, block, gains, shared = _batch_args(rows)
    stepped = rest_form and _starts_at_rest(rows)
    if at_rest is not None:
        assert stepped == at_rest
    runs = [_run(loop, state, refs, params) for state, refs, params in rows]
    faults = np.array([fault for fault, _, _ in runs])
    live, start = np.arange(len(rows)), 0
    while stepped and len(live):
        part = states[:, live]
        before = part.copy()
        args = (*(g[live] for g in gains), *shared)
        rest = kernels._track_at_rest(part, block[start:, :, live], *args)
        ahead = faults[live]
        if (ahead < 0).all():
            assert rest is True
            states[:, live] = part
            break
        first = ahead[ahead >= 0].min()
        assert isinstance(rest, kernels.RestFault)
        assert rest.step == first - start
        assert rest.columns.tolist() == np.flatnonzero(ahead == first).tolist()
        assert _bits(part) == _bits(before)
        assert kernels._track_at_rest(part, block[start:first, :, live],
                                      *args) is True
        states[:, live] = part
        live, start = live[ahead != first], first
    for j, (state, refs, params) in enumerate(rows):
        if not stepped:
            fault, states[:, j], _ = _run(kernels.track_loop, state, refs,
                                          params)
            assert fault == faults[j]
        assert _bits(states[:, j]) == _bits(runs[j][1])
    return faults, states


def _attached_state(rng):
    state = np.zeros(kernels.STATE_SIZE)
    state[0:3] = rng.normal(0.0, 0.02, 3)
    state[3:7] = _unit(rng.normal(size=4))
    state[13] = 1.0
    # an object pose that does not follow from the robot pose
    state[14:17] = [0.5, -0.5, 0.5]
    state[17:21] = _unit(rng.normal(size=4))
    state[21] = 1.0
    state[22:25] = rng.normal(0.0, 0.01, 3)
    state[25:29] = _unit(rng.normal(size=4))
    return state


def _rest_state(state):
    """``state`` with the robot at rest: the identity orientation and no
    spin."""
    state = state.copy()
    state[3:7] = IDENTITY
    state[10:13] = 0.0
    return state


class TestLockstepStep:
    """The lockstep step: _track_at_rest steps a batch whose columns start
    at rest, and names the first step at which a column faults, with the
    state as it was; any other batch runs track_loop column by column."""

    @SETTINGS
    @given(batch_cases())
    def test_every_column_matches_track_loop_bit_for_bit(self, rows):
        _assert_columns_match_track_loop(rows)

    def test_release_at_the_first_step_keeps_the_incoming_object_pose(self):
        rng = np.random.default_rng(4)
        n = 30
        rows = []
        for release_at in (0, 5, n):  # the last row stays attached
            grip = np.where(np.arange(n) < release_at, 1.0, 0.0)
            refs = [np.zeros((n, 3)), np.zeros((n, 3)),
                    np.tile(IDENTITY, (n, 1)), np.zeros((n, 3)), grip]
            params = (300.0, 34.6, 400.0, 40.0, 0.002, 400.0, 0.015)
            rows.append((_rest_state(_attached_state(rng)), refs, params))
        _, states = _assert_columns_match_track_loop(rows, _oracle_loop,
                                                     at_rest=True)
        assert _bits(states[14:21, 0]) == _bits(rows[0][0][14:21])
        assert states[21].tolist() == [0.0, 0.0, 1.0]

    def test_a_carried_pose_keeps_a_negative_zero(self):
        # the second column carries its object at a relative orientation
        # with w = -0.0: alone it steps at rest, and beside a first column
        # that turns, the batch runs track_loop column by column
        rng = np.random.default_rng(8)
        n = 4
        refs = [np.zeros((n, 3)), np.zeros((n, 3)), np.tile(IDENTITY, (n, 1)),
                np.zeros((n, 3)), np.ones(n)]
        params = (300.0, 34.6, 0.0, 0.0, 0.002, 8.0, 0.015)
        carrying = _rest_state(_attached_state(rng))
        carrying[25:29] = [-0.0, 0.0, 0.0, 1.0]
        turning = _attached_state(rng)
        for rows, at_rest in (([(carrying, refs, params)], True),
                              ([(turning, refs, params),
                                (carrying, refs, params)], False)):
            _, states = _assert_columns_match_track_loop(rows, _oracle_loop,
                                                         at_rest)
            assert np.signbit(states[17, -1])

    def test_a_faulted_column_stops_and_the_others_run_on(self):
        rng = np.random.default_rng(5)
        n = 40
        rows = []
        for bad_step in (None, 7, None, 0, 39):
            refs = [rng.normal(0.0, 0.01, (n, 3)), np.zeros((n, 3)),
                    np.tile(IDENTITY, (n, 1)), np.zeros((n, 3)),
                    np.where(np.arange(n) < 20, 1.0, 0.0)]
            if bad_step is not None:
                refs[1][bad_step, 1] = np.inf
            params = (300.0, 34.6, 400.0, 40.0, 0.002, 8.0, 0.015)
            rows.append((_rest_state(_attached_state(rng)), refs, params))
        # each fault stops its column, in step order, and the batch steps
        # on at rest
        faults, _ = _assert_columns_match_track_loop(rows, _oracle_loop,
                                                     at_rest=True)
        assert faults.tolist() == [-1, 7, -1, 0, 39]
        faults, _ = _assert_columns_match_track_loop(rows[0:3:2],
                                                     _oracle_loop,
                                                     at_rest=True)
        assert faults.tolist() == [-1, -1]

    def test_a_velocity_that_overflows_on_the_last_step_is_no_fault(self):
        # Column 1 holds a velocity near the largest float, which its
        # reference velocity matches until the last step; there a finite
        # force takes it past the largest float. track_loop reports no
        # fault, as every force is finite, so the kernel must test the
        # forces, not the final velocity.
        rng = np.random.default_rng(6)
        n = 5
        rows = []
        for overflow in (False, True):
            state, refs = _rest_column(rng, n)
            params = REST_PARAMS
            if overflow:
                state[7] = refs[1][:, 0] = 1.797e308
                refs[1][-1, 0] = np.finfo(float).max
                params = (0.0, 1000.0) + REST_PARAMS[2:]
            rows.append((state, refs, params))
        faults, states = _assert_columns_match_track_loop(rows, _oracle_loop,
                                                          at_rest=True)
        assert faults.tolist() == [-1, -1]
        assert np.isinf(states[7, 1]) and np.isfinite(states[7, 0])


_signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def at_rest_cases(draw, signed=True):
    """A plant at the identity orientation with no spin, tracking identity
    references at zero rates.

    The references' quaternion vector parts and rates hold zeros of either
    sign. With ``signed``, so do q's vector part and the angular velocity
    in half the cases; the others hold +0.0 there, the only zeros the
    kernels skip the rotational update for. The object starts free or
    attached, within reach, and the gripper command flips at one or two
    steps of the call, for a grasp, a release or both.
    """
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spin = [0.0] * 6
    if signed and draw(st.booleans()):
        spin = draw(st.lists(_signed_zero, min_size=6, max_size=6))
    state = np.zeros(kernels.STATE_SIZE)
    state[0:3] = rng.normal(0.0, 0.02, 3)
    state[3] = 1.0
    state[4:7] = spin[:3]
    state[7:10] = rng.normal(0.0, 0.2, 3)
    state[10:13] = spin[3:]
    grip = draw(st.sampled_from([0.0, 1.0]))
    state[13] = grip
    state[14:17] = state[0:3] + rng.normal(0.0, 0.005, 3)
    state[17:21] = draw(_quat)
    state[21] = float(draw(st.booleans()))
    state[22:25] = rng.normal(0.0, 0.01, 3)
    state[25:29] = draw(_quat)
    state[29] = draw(st.floats(0.0, 10.0))

    def signed_zeros(shape):
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)

    ref_pos = state[0:3] + np.cumsum(rng.normal(0.0, 0.002, (n, 3)), axis=0)
    ref_vel = rng.normal(0.0, 0.3, (n, 3))
    ref_quat = np.hstack((np.ones((n, 1)), signed_zeros((n, 3))))
    ref_angvel = signed_zeros((n, 3))
    flips = np.isin(np.arange(n), draw(st.lists(st.integers(0, n - 1),
                                                min_size=2, max_size=2)))
    ref_grip = np.abs(grip - np.cumsum(flips) % 2)
    return state, [ref_pos, ref_vel, ref_quat, ref_angvel,
                   ref_grip], _params(draw)


# One input of an at-rest case set just off rest: (what, where, value),
# where ``what`` names the state, the reference quaternions or rates, or the
# params tuple. Each must take the full rotational update, which moves the
# state or faults.
NEAR_MISSES = {
    "q vector 5e-324": ("state", 5, 5e-324),
    "q w -1": ("state", 3, -1.0),
    "q w 1 + ulp": ("state", 3, 1.0 + 2.0**-52),
    "spin 5e-324": ("state", 11, 5e-324),
    "spin 1e-3": ("state", 12, 1e-3),
    "last ref quat": ("quat", -1, _unit([1.0, 1e-3, 0.0, 0.0])),
    "last ref quat 5e-324": ("quat", (-1, 3), 5e-324),
    "last ref quat w nan": ("quat", (-1, 0), np.nan),
    "last ref rate 1e-3": ("rate", (-1, 0), 1e-3),
    "last ref rate 5e-324": ("rate", (-1, 2), 5e-324),
    "kp_ori inf": ("params", 2, np.inf),
    "kv_ori nan": ("params", 3, np.nan),
    "dt inf": ("params", 4, np.inf),
}
# the params a lockstep batch shares: dt, grip_slew and grasp_radius
SHARED_PARAMS = (4, 5, 6)


def _off_rest(case, what, where, value):
    """The case with one input off rest, under non-zero orientation gains,
    so that an orientation error or a rate error moves the state."""
    state, refs, params = case
    state, refs, params = state.copy(), [r.copy() for r in refs], list(params)
    params[2:4] = 400.0, 40.0
    target = {"state": state, "quat": refs[2], "rate": refs[3],
              "params": params}[what]
    target[where] = value
    return state, refs, tuple(params)


@st.composite
def at_rest_batches(draw, kinds=("rest", "signed", "spinning")):
    """At-rest cases as lockstep columns: with +0.0 in every state, with
    zeros of either sign, or with one column a general plant case, whose
    orientation and references move."""
    kind = draw(st.sampled_from(kinds))
    b = draw(st.integers(1, 12))
    cases = [draw(at_rest_cases(kind == "signed")) for _ in range(b)]
    if kind == "spinning":
        cases[draw(st.integers(0, b - 1))] = draw(plant_cases())
    return _lockstep_rows(draw, cases)


NEAR_MISS_SETTINGS = settings(SETTINGS, max_examples=12)


class TestAtRest:
    """The identity orientation at rest is a fixed point of the rotational
    update, which the kernels skip; every bit stays as the oracle's, and
    an input just off rest takes the full update: in a batch, track_loop
    on every column, as ``controller`` runs a batch that is not at rest
    row by row."""

    @SETTINGS
    @given(at_rest_cases())
    def test_track_loop_matches_the_oracle_bit_for_bit(self, case):
        _assert_same_run(*case)

    @pytest.mark.parametrize("kind", sorted(NEAR_MISSES))
    @NEAR_MISS_SETTINGS
    @given(case=at_rest_cases(signed=False))
    def test_track_loop_near_misses_match_the_oracle(self, kind, case):
        _assert_same_run(*_off_rest(case, *NEAR_MISSES[kind]))

    @SETTINGS
    @given(at_rest_batches())
    def test_batch_columns_match_the_oracle_bit_for_bit(self, rows):
        # every column steps at rest unless one holds a signed zero in its
        # spin rows or is a general plant case
        at_rest = all(state[3] == 1.0
                      and not np.signbit(state[kernels._SPIN]).any()
                      and not state[kernels._SPIN].any()
                      for state, _, _ in rows)
        _assert_columns_match_track_loop(rows, _oracle_loop, at_rest)

    @pytest.mark.parametrize("kind", sorted(NEAR_MISSES))
    @NEAR_MISS_SETTINGS
    @given(rows=at_rest_batches(("rest",)), data=st.data())
    def test_batch_near_misses_match_the_oracle(self, kind, rows, data):
        what, where, value = NEAR_MISSES[kind]
        j = data.draw(st.integers(0, len(rows) - 1))
        shared = what == "params" and where in SHARED_PARAMS
        rows = [_off_rest(row, what, where, value) if shared or k == j
                else row for k, row in enumerate(rows)]
        if what in ("quat", "rate"):
            # a rest-form block has no orientation or rate rows: references
            # off rest never reach _track_at_rest, and track_loop takes
            # their full update
            _, refs, _ = rows[j]
            assert not kernels._identity_rows(refs[2].T, refs[3].T)
            _assert_columns_match_track_loop(rows, _oracle_loop,
                                             rest_form=False)
        else:
            _assert_columns_match_track_loop(rows, _oracle_loop,
                                             at_rest=False)

    def test_a_batch_at_rest_skips_the_rotation_helpers(self, monkeypatch):
        rng = np.random.default_rng(7)
        n = 20
        refs = [np.full((n, 3), 0.01), np.zeros((n, 3)),
                np.tile(IDENTITY, (n, 1)), np.zeros((n, 3)), np.zeros(n)]
        params = (300.0, 34.6, 400.0, 40.0, 0.002, 8.0, 0.015)
        rows = []
        for _ in range(3):
            state = _attached_state(rng)
            state[3:7] = IDENTITY
            rows.append((state, refs, params))

        # track_loop is the only rotational update, which a batch runs
        # column by column when it does not start at rest
        calls = []
        full = kernels.track_loop

        def counted(*args):
            calls.append(args[0].copy())
            return full(*args)

        monkeypatch.setattr(kernels, "track_loop", counted)
        _assert_columns_match_track_loop(rows, _oracle_loop, at_rest=True)
        assert not calls
        rows[1][0][11] = 1e-3  # one column spins
        _assert_columns_match_track_loop(rows, _oracle_loop, at_rest=False)
        assert [_bits(c) for c in calls] == [_bits(s) for s, _, _ in rows]


# Gains and shared params of the named at-rest cases: a gripper slew of 0.8
# a step, so that a command flip between 0 and 1 crosses 0.5 at its step.
REST_PARAMS = (300.0, 34.6, 400.0, 40.0, 0.002, 400.0, 0.015)


def _rest_column(rng, n, flips=(), attached=False, travel=0.0):
    """An at-rest case of n steps, the object in reach, whose gripper
    command flips at each step in ``flips``: a grasp or a release there.

    An attached object starts at a pose that does not follow from the
    robot's, so that a pose formed at the wrong step shows. The reference
    goes ``travel`` metres along x and back over the first half of the
    call."""
    state = np.zeros(kernels.STATE_SIZE)
    state[0:3] = rng.normal(0.0, 0.02, 3)
    state[3] = 1.0
    state[7:10] = rng.normal(0.0, 0.005, 3)
    state[13] = state[21] = float(attached)
    state[14:17] = state[0:3] + [0.004, -0.003, 0.002]
    state[17:21] = _unit(rng.normal(size=4))
    state[22:25] = [0.003, 0.002, -0.004]
    state[25:29] = _unit(rng.normal(size=4))
    state[29] = 1.5
    path = np.cumsum(rng.normal(0.0, 1e-5, (n, 3)), axis=0)
    path[:n // 2, 0] += travel * np.sin(np.pi * np.arange(n // 2) / (n // 2))
    refs = [state[0:3] + path,
            rng.normal(0.0, 1e-3, (n, 3)), np.tile(IDENTITY, (n, 1)),
            np.zeros((n, 3)),
            np.abs(state[13] - np.cumsum(np.isin(np.arange(n), flips)) % 2)]
    return state, refs


def _assert_calls_match_the_oracle(rows, cuts):
    """Both kernels, run in one call per span between ``cuts``, against the
    oracle's single run of each row: the batch at rest on the final states,
    the scalar loop on them and on every out row. One batch call through
    the inner cuts, marked there, reports the states the calls that end at
    them leave. Returns the oracle's events of each row."""
    states, block, gains, shared = _batch_args(rows)
    through = states.copy()
    spans = list(zip(cuts[:-1], cuts[1:]))
    ends = []
    for start, stop in spans:
        assert kernels._track_at_rest(states, block[start:stop], *gains,
                                      *shared)
        ends.append(states.copy())
    marks = [cut - cuts[0] for cut in cuts[1:-1]]
    report = np.full((len(marks),) + states.shape, np.nan)
    assert kernels._track_at_rest(through, block[cuts[0]:cuts[-1]], *gains,
                                  *shared, marks, report)
    assert _bits(through) == _bits(states)
    assert _bits(report) == _bits(ends[:-1])
    events = []
    for j, (state, refs, params) in enumerate(rows):
        fault, want, want_outs = _run(_oracle_loop, state, refs, params)
        assert fault == -1
        assert _bits(states[:, j]) == _bits(want)
        got = state.copy()
        for start, stop in spans:
            fault, got, outs = _run(kernels.track_loop, got,
                                    [r[start:stop] for r in refs], params)
            assert fault == -1
            for out, want_out in zip(outs, want_outs):
                assert _bits(out) == _bits(want_out[start:stop])
        assert _bits(got) == _bits(want)
        events.append(want_outs[4])
    return events


class TestRestHistory:
    """The batched step at rest: eight ufunc calls a step on a history of
    [grip; p; v] rows, with grasps, releases, faults and the clock taken
    from the history after the loop. Every column keeps the oracle's bits."""

    def test_events_on_block_edges_and_call_starts(self):
        b = 9
        s = controller.LOCKSTEP_BLOCK // b  # the steps of one block
        # (flips, attached, travel, the events they make)
        columns = [((0,), False, 0.0, {0: 1}), ((0,), True, 0.0, {0: -1}),
                   ((s - 1,), False, 0.0, {s - 1: 1}),
                   ((s - 1,), True, 0.0, {s - 1: -1}),
                   ((s,), False, 0.0, {s: 1}), ((s,), True, 0.0, {s: -1}),
                   ((2 * s - 1,), False, 0.0, {2 * s - 1: 1}),
                   ((3, 10, 20, s + 5), True, 0.0,
                    {3: -1, 10: 1, 20: -1, s + 5: 1}),
                   # dropped at the start, out of reach halfway, in reach
                   # again at the end: the events' order decides
                   ((3, s // 2, s, 2 * s - 5), True, 0.05,
                    {3: -1, 2 * s - 5: 1})]
        rng = np.random.default_rng(11)
        rows = [(*_rest_column(rng, 2 * s, f, a, travel), REST_PARAMS)
                for f, a, travel, _ in columns]
        events = _assert_calls_match_the_oracle(rows, [0, s, 2 * s])
        for (*_, want), got in zip(columns, events):
            steps = np.flatnonzero(got)
            assert dict(zip(steps.tolist(), got[steps].tolist())) == want

    def test_reports_at_slice_ends(self):
        """A call that runs through slice ends reports each column's state
        at each, as a call that ended there leaves it, with grasps and
        releases two steps before, one step before, on and one step after
        a slice end, the last step of the one before it being "on" it; a
        release and a grasp again on either side of it; and a slice end on
        the call's last step."""
        m, n = 40, 90  # the slice end under test and the call's steps
        columns = [((flip,), attached) for flip in (m - 2, m - 1, m, m + 1)
                   for attached in (False, True)]
        columns.append(((m - 1, m), True))
        assert len(columns) >= controller.LOCKSTEP_MIN_ROWS
        rng = np.random.default_rng(17)
        rows = [(*_rest_column(rng, n, flips, attached), REST_PARAMS)
                for flips, attached in columns]
        events = _assert_calls_match_the_oracle(rows, [0, 25, m, n])
        for (flips, attached), got in zip(columns, events):
            want = {flip: (-1 if attached else 1) * (-1) ** k
                    for k, flip in enumerate(flips)}
            steps = np.flatnonzero(got)
            assert dict(zip(steps.tolist(), got[steps].tolist())) == want
        # a mark on the last step reports the final state
        states, block, gains, shared = _batch_args(rows)
        report = np.empty((2,) + states.shape)
        assert kernels._track_at_rest(states, block, *gains, *shared,
                                      [m, n], report)
        assert _bits(report[1]) == _bits(states)

    @staticmethod
    def _assert_sampled_steps_match_track_loop(rows, sampled, marks=()):
        """_track_at_rest asked for ``sampled`` steps against track_loop's
        out rows of each column: the robot positions, the reference
        positions, the position errors and every event, in step order,
        with the final state and the reports of a call not asked."""
        states, block, gains, shared = _batch_args(rows)
        want_states = states.copy()
        want_report = np.empty((len(marks),) + states.shape)
        assert kernels._track_at_rest(want_states, block, *gains, *shared,
                                      list(marks), want_report) is True
        report = np.empty_like(want_report)
        rest = kernels._track_at_rest(states, block, *gains, *shared,
                                      list(marks), report, sampled)
        assert isinstance(rest, kernels.RestTrace)
        assert _bits(states) == _bits(want_states)
        assert _bits(report) == _bits(want_report)
        events = []
        for j, (state, refs, params) in enumerate(rows):
            fault, _, outs = _run(kernels.track_loop, state, refs, params)
            assert fault == -1
            assert _bits(rest.positions[:, :, j]) == _bits(outs[0][sampled])
            assert _bits(rest.ref_positions[:, :, j]) == \
                _bits(refs[0][sampled])
            assert _bits(rest.e_pos[:, j]) == _bits(outs[2][sampled])
            events += [(int(i), j, int(outs[4][i]))
                       for i in np.flatnonzero(outs[4])]
        assert rest.events == sorted(events)
        return rest.events

    def test_sampled_steps_and_events_match_track_loop(self):
        """A grasp and a release in one call, a release and a grasp at the
        call's first step, and events on and between sampled steps."""
        n, stride = 47, controller.TRACE_STRIDE
        columns = [((5, 20), False), ((0,), True), ((0,), False),
                   ((10, 11), True), ((46,), True), ((), False),
                   ((stride, 2 * stride + 3), False), ((), True)]
        rng = np.random.default_rng(18)
        rows = [(*_rest_column(rng, n, flips, attached), REST_PARAMS)
                for flips, attached in columns]
        events = self._assert_sampled_steps_match_track_loop(
            rows, np.arange(0, n, stride), marks=(20, 40))
        assert (0, 1, -1) in events and (0, 2, 1) in events
        assert (5, 0, 1) in events and (20, 0, -1) in events
        # any ascending steps, none, and every step
        for sampled in (np.array([3, 4, 46]), np.array([], dtype=int),
                        np.arange(n)):
            self._assert_sampled_steps_match_track_loop(rows, sampled)

    @settings(SETTINGS, max_examples=50)
    @given(rows=at_rest_batches(("rest",)), data=st.data())
    def test_sampled_steps_of_any_batch_at_rest(self, rows, data):
        n = len(rows[0][1][0])
        sampled = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))),
                           dtype=int)
        self._assert_sampled_steps_match_track_loop(rows, sampled)

    def test_columns_on_different_clocks_without_gripper_slew(self):
        rng = np.random.default_rng(12)
        clocks = [0.0, -0.0, 1.5, np.nextafter(1.5, 2.0), 3.0]
        params = REST_PARAMS[:5] + (0.0,) + REST_PARAMS[6:]
        rows = []
        for k, clock in enumerate(clocks):
            state, refs = _rest_column(rng, 40, (5, 9), attached=k % 2 == 1)
            state[29] = clock
            state[13] = [0.0, -0.0, 0.5, 1.0, 0.25][k]
            refs[4][::3] = -0.0
            rows.append((state, refs, params))
        _assert_calls_match_the_oracle(rows, [0, 17, 40])
        # one clock for every column takes the shared sum
        for row in rows:
            row[0][29] = 0.25
        _assert_calls_match_the_oracle(rows, [0, 23, 40])

    def test_a_negative_zero_position_keeps_its_sign(self):
        # p = -0.0 and a velocity of -5e-324, whose step -5e-324 * dt rounds
        # to -0.0: p + (-0.0) is p, where p + (+0.0) would be +0.0
        rng = np.random.default_rng(13)
        rows = []
        for _ in range(2):
            state, refs = _rest_column(rng, 30)
            state[0], state[7] = -0.0, -5e-324
            refs[0][:, 0] = -0.0
            rows.append((state, refs, (300.0, 0.0) + REST_PARAMS[2:]))
        _assert_calls_match_the_oracle(rows, [0, 30])
        states, block, gains, shared = _batch_args(rows)
        assert kernels._track_at_rest(states, block, *gains, *shared)
        assert np.signbit(states[0]).all()

    def test_faults_at_rest_run_again_step_by_step(self):
        rng = np.random.default_rng(14)
        n = 50
        rows = []
        for bad_step, value in ((None, 0.0), (0, np.inf), (None, 0.0),
                                (n // 2, np.nan), (n - 1, -np.inf),
                                (n - 1, 1e300)):
            state, refs = _rest_column(rng, n, (7, 31), attached=True)
            if bad_step is not None:
                refs[1][bad_step, 2] = value
            rows.append((state, refs, REST_PARAMS))
        # each fault stops its column, in step order, and the batch steps
        # on at rest
        faults, _ = _assert_columns_match_track_loop(rows, _oracle_loop,
                                                     at_rest=True)
        assert faults.tolist() == [-1, 0, -1, n // 2, n - 1, -1]
        for row in rows:
            _assert_same_run(*row)

    def test_a_negative_zero_gripper_without_slew(self):
        """With no gripper slew, the clamp of a change below -0.0 is -0.0,
        as in the scalar loop, so a -0.0 gripper keeps its sign; a maximum
        then a minimum would give +0.0. At rest and, column by column,
        turning."""
        rng = np.random.default_rng(16)
        params = REST_PARAMS[:5] + (0.0,) + REST_PARAMS[6:]
        for turning in (False, True):
            rows = []
            for command in (-1.0, -0.0, 0.0, 0.3, -5e-324):
                state, refs = _rest_column(rng, 12)
                state[13] = -0.0
                refs[4][:] = command
                if turning:
                    refs[2][:] = _unit([0.9, 0.1, -0.3, 0.2])
                rows.append((state, refs, params))
                _assert_same_run(state, refs, params)
            _, states = _assert_columns_match_track_loop(
                rows, _oracle_loop, at_rest=not turning,
                rest_form=not turning)
            assert np.signbit(states[13]).tolist() == [True, False, False,
                                                       False, True]

    def test_non_finite_orientation_gains_fault_at_step_0(self):
        rng = np.random.default_rng(15)
        rows = []
        for kp_ori, kv_ori in ((400.0, 40.0), (np.inf, 40.0), (400.0, np.nan),
                               (0.0, 0.0), (-np.inf, 40.0)):
            state, refs = _rest_column(rng, 20, (4,))
            rows.append((state, refs,
                         REST_PARAMS[:2] + (kp_ori, kv_ori) + REST_PARAMS[4:]))
        faults, _ = _assert_columns_match_track_loop(rows, _oracle_loop,
                                                     at_rest=False)
        assert faults.tolist() == [-1, 0, 0, -1, 0]
        for row in rows:
            _assert_same_run(*row)

    def test_the_q_w_minus_1_near_miss(self):
        # A case of test_batch_near_misses_match_the_oracle[q w -1] that
        # failed only in the full tier-1 run: the column off rest sends the
        # batch to track_loop column by column, where the other column
        # grasps an object at (0, 0, -0.0, -1), whose gripper-frame
        # orientation sums four -0.0 terms into its w; alone, that column
        # grasps it at rest.
        state = np.zeros(kernels.STATE_SIZE)
        state[0:3] = [0.0025, -0.0026, 0.0128]
        state[3] = 1.0
        state[7:10] = [0.02, -0.1, 0.07]
        state[14:17] = [0.009, 0.002, 0.009]
        state[17:21] = [0.0, 0.0, -0.0, -1.0]
        state[25] = 1.0
        refs = [np.array([[-0.002, -0.003, 0.01]]),
                np.array([[-0.2, -0.16, -0.09]]),
                np.array([[1.0, -0.0, -0.0, -0.0]]),
                np.array([[-0.0, 0.0, 0.0]]), np.ones(1)]
        case = (state, refs, (0.0, 0.0, 0.0, 0.0, 0.002, 400.0, 0.015))
        rows = [_off_rest(case, *NEAR_MISSES["q w -1"]), case]
        _, states = _assert_columns_match_track_loop(rows, _oracle_loop,
                                                     at_rest=False)
        assert states[21].tolist() == [1.0, 1.0]
        _, states = _assert_columns_match_track_loop(rows[1:], _oracle_loop,
                                                     at_rest=True)
        assert states[21].tolist() == [1.0]


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


@st.composite
def group_cases(draw):
    """B references on one knot grid (2-waypoint lines included), with
    sample times inside and outside the span and at the knots."""
    times, _, at = draw(slerp_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    refs = []
    for _ in range(draw(st.integers(1, 6))):
        positions = rng.normal(0.0, draw(st.sampled_from([0.01, 1.0])),
                               (len(times), 3))
        grippers = rng.choice([0.0, 0.4, 1.0], size=len(times))
        refs.append(ReferenceTrack(times, positions,
                                   _waypoints(draw, len(times)),
                                   grippers=grippers))
    return refs, at


class TestReferenceGroup:
    @SETTINGS
    @given(group_cases())
    def test_block_columns_match_each_sample_bit_for_bit(self, case):
        # the group samples only the rows of a rest-form block: positions,
        # velocities and grippers, whatever the orientations
        refs, at = case
        pos, vel, grip, *_ = controller._sample_moves(
            controller._ReferenceGroup(refs), at)
        for j, ref in enumerate(refs):
            want_pos, want_vel, _, _, want_grip = ref.sample(at)
            assert _bits(pos[..., j]) == _bits(want_pos)
            assert _bits(vel[..., j]) == _bits(want_vel)
            assert _bits(grip[..., j]) == _bits(want_grip)


class TestSegmentRates:
    @SETTINGS
    @given(slerp_cases())
    def test_match_per_segment_rotvec_bit_for_bit(self, case):
        times, quats, _ = case
        ref = ReferenceTrack(times, np.zeros((len(times), 3)), quats)
        # at a waypoint time the sampled rate is the segment that starts there
        _, _, _, angvel, _ = ref.sample(times[:-1])
        assert _bits(angvel) == _bits(plant_oracle.segment_rates(times, quats))


_raw = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4).map(np.array)


@st.composite
def quat_pairs(draw):
    """(a, b) quaternion rows of any norm and sign: random, identical,
    antipodal and near pairs, whose product b * conj(a) has a vector part
    below 1e-12 or between 1e-12 and 1e-10."""
    a, b = [], []
    for _ in range(draw(st.integers(1, 12))):
        q = draw(_raw)
        kind = draw(st.sampled_from(["random", "identical", "antipodal",
                                     "near"]))
        if kind == "random":
            other = draw(_raw)
        elif kind == "identical":
            other = q.copy()
        elif kind == "antipodal":
            other = -q
        else:
            step = draw(st.sampled_from([1e-14, 1e-13, 3e-12, 2e-11]))
            other = q + step * np.array([0.0, 1.0, -1.0, 0.5])
        a.append(q)
        b.append(other)
    return np.array(a), np.array(b)


@st.composite
def rotation_vectors(draw):
    """(B, 3) rows whose angles lie above 1e-12, below it, or at 0.

    Below about 1e-8 both forms of exp give the same bits, so the angles
    of 3e-7 are the ones that tell a misplaced threshold apart."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3,
                                   max_size=3)))
        scale = draw(st.sampled_from([0.0, 1e-14, 3e-13, 5e-12, 3e-11, 3e-7,
                                      1.0, 4.0]))
        rows.append(scale * v)
    return np.array(rows)


def _column(q):
    return np.asarray(q, dtype=float)[:, None]


class TestColumnHelpers:
    """The kernels' column helpers against the per-quaternion oracle."""

    @SETTINGS
    @given(quat_pairs())
    def test_hamilton_is_quat_mul(self, case):
        a, b = case
        got = kernels._hamilton(a.T, kernels._signed(b.T))
        want = [plant_oracle.quat_mul(p, q) for p, q in zip(a, b)]
        assert _bits(got.T) == _bits(want)
        got = kernels._hamilton(a.T, kernels._signed(b.T), kernels._CONJ)
        want = [plant_oracle.quat_mul(p, plant_oracle.quat_conj(q))
                for p, q in zip(a, b)]
        assert _bits(got.T) == _bits(want)

    def test_hamilton_keeps_a_sum_of_negative_zeros(self):
        # each term of the product's w is -0.0, as in an attached object's
        # pose formed from a relative orientation that holds a -0.0
        a, b = np.array([1.0, 0.0, 0.0, 0.0]), np.array([-0.0, 0.0, 0.0, 1.0])
        got = kernels._hamilton(_column(a), kernels._signed(_column(b)))
        assert _bits(got[:, 0]) == _bits(plant_oracle.quat_mul(a, b))

    @SETTINGS
    @given(quat_pairs())
    def test_rotvec_is_rotvec_between(self, case):
        a, b = case
        rel = kernels._hamilton(b.T, kernels._signed(a.T), kernels._CONJ)
        want = [plant_oracle.rotvec_between(p, q) for p, q in zip(a, b)]
        assert _bits(kernels._rotvec(rel).T) == _bits(want)

    @SETTINGS
    @given(rotation_vectors())
    def test_exp_is_quat_from_rotvec(self, rv):
        want = [plant_oracle.quat_from_rotvec(v) for v in rv]
        assert _bits(kernels._exp(rv.T).T) == _bits(want)

    @SETTINGS
    @given(quat_pairs())
    def test_normalise_is_quat_normalize(self, case):
        q = np.concatenate(case)
        q = q[np.linalg.norm(q, axis=1) > 0.0]
        want = [plant_oracle.quat_normalize(p) for p in q]
        assert _bits(kernels._normalise(q.T).T) == _bits(want)
