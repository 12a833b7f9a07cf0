"""Hot numeric kernels: the plant tracking loop and quaternion algebra.

Nothing here is compiled. ``track_loop`` reads its references as Python
lists and collects its output rows in lists, and ``_track_at_rest`` and
the quaternion column helpers are plain numpy.

``track_loop`` is the plant: a task-space PD law and a semi-implicit Euler
step per physics step, fused into one loop that keeps the state and the
current reference row in scalar Python floats, so that a step allocates
no array: allocating small arrays and reading or writing single array
elements was most of the cost of a step. The reference rows come from one
``tolist()`` per array, and the pose of every step is written into the out
arrays once, after the loop. The loop repeats the array helpers'
expressions in their operation order, so its results are the same bits.
``math.sqrt``, ``math.sin`` and ``math.cos`` give numpy's results, but
``np.arctan2`` and ``np.arccos`` must not become ``math.atan2`` and
``math.acos``: numpy's SIMD (SVML) versions differ from libm in the last
bit for several percent of inputs, which would change every rollout and
every sweep digest. ``tests/plant_oracle.py`` keeps the array helpers as
the reference.

An attached object's pose is a pure function of the robot pose and the
stored relative pose, so both plants form it only at a release, from the
robot pose before that step, and at the end of a call; a release at a
call's first step keeps the incoming object pose.

``_track_at_rest`` is the same plant on the B columns of a (30, B) state
under per-column gains, with each column's bits equal to ``track_loop`` on
that row. It keeps no per-step trace, but reports the state after each of
the steps it is asked for (``controller`` marks the slice ends a call runs
through) and, for the steps it is asked to sample, what a rollout's log
keeps of them (a closed-loop cycle samples every TRACE_STRIDE-th step).
It steps only references at rest (below),
and it declines a call whose columns do not start at rest, or in which a
step faults, leaving the state as it was; ``controller`` then runs
``track_loop`` on each column. So the scalar loop is the one full,
turning update: no workload turns, and a turning step in lockstep cost as
much as 7-12 scalar rows. The scalar loop is also the plant for small
batches, a single rollout's among them, and batches whose references
turn.

Both plants skip the rotational half of every step of a call that starts
at rest: every column's orientation is exactly (1, +0.0, +0.0, +0.0) and
its angular velocity +0.0, every reference orientation of the call is the
identity and every reference rate zero, zeros of either sign there, and
dt is finite. Each call checks this once, on its own inputs, at its start.
Such a step is an exact fixed point: the orientation error and the torque
are signed zeros, so ω + torque * dt stays +0.0; the exp map of that zero
rotation is (1, ±0, ±0, ±0), and its product with q adds zeros to q's
+0.0 vector part, which leaves +0.0, and normalises to q bit for bit. Only
that orientation qualifies: the update turns a -0.0 in q's vector part or
in ω into +0.0, flips q = (-1, 0, 0, 0) to w > 0, and can move any other
constant quaternion by an ulp when it normalises it. Both also require
finite orientation gains, since a non-finite one makes the torque NaN, a
fault at step 0 that the full update finds. Every demo, task and chunk in
the corpus keeps the identity orientation.

At rest, the scalar loop steps only the position, the velocity and the
gripper, collects 3-float position rows, and fills the constant
quaternion rows once: ~0.75-0.95 us a step against ~0.95-1.15 us with the
old loop, and 1.1 against 1.8 us a step on closed-loop rollouts, which
also formed the carried object's pose at every attached step.

At rest, the batched plant steps only [grip; p; v],
the (7, B) rows of an (n + 1, 7, B) history buffer: step i reads row i and
writes row i + 1, through views taken once per call, in eight ufunc calls:
e = r_i - x, r the reference's [grip; pos; vel] rows; e *= [1; kp; kp; kp;
kv; kv; kv], where x * 1.0 is x bit for bit; f = e_p + e_v into the
velocity rows of an increment; the slew clamp, numpy's ``clip`` ufunc,
into its gripper row; the velocity rows times dt; y = x + increment, whose
position rows hold -0.0, since x + (-0.0) is x bit for bit where +0.0
would turn -0.0 into +0.0; and p' = p + v' dt, a multiply and an add. Each
column meets the scalar loop's operands in its order. ``clip`` clamps as
the scalar loop's two comparisons do, signed zeros included: a maximum
then a minimum turn a change below -0.0 into +0.0 when the slew is 0,
where the scalar loop keeps -0.0, which a -0.0 gripper then keeps.

``controller`` feeds ``_track_at_rest`` rest-form blocks, which hold only
those rows, and only when every reference of its batch has identity
waypoints, so there is no block to check or gather. Best of 90 calls on a
2-core x86-64 VM, a step costs ~3.6-4.1 us for 12-64 columns in calls of
one block of ``controller.LOCKSTEP_BLOCK`` row-steps and ~4.0-4.4 us in
calls of 64 steps, call overhead included. After the loop:

- Grasps and releases follow from the gripper history, g_i < 0.5 <= g_i+1
  and the reverse, applied per (step, column) in step order by the scalar
  loop's ``_grasped`` and ``_carried``. The robot's motion never depends
  on the object, so a deferred grasp sees the poses the loop saw, and a
  release forms the carried pose from row i.
- One check of the final velocity stands for the per-step fault check. A
  non-finite force makes the step's velocity non-finite (v + f dt, with dt
  finite), and a non-finite velocity stays non-finite: its error rv - v is
  non-finite, so is the next force, and inf + x is never finite while NaN
  propagates. So a finite final velocity proves that no step faulted;
  otherwise the call declines, with the state as it was, and runs again on
  ``track_loop`` column by column, which finds the fault and leaves the
  orientation at rest bit for bit.
- The clock: when every column holds the same bits, n Python float
  additions broadcast to all of them; otherwise n numpy additions.
- The state after a marked step m is the one a call of m steps leaves:
  [grip; p; v] from history row m, the attached flag and the relative
  and object poses as the scan leaves them before its first event at
  step m or later, a carried object's pose formed from row m by the
  ``_carried_pose`` the end of a call uses (one call for every carried
  column of every mark), and the clock after m of the same additions.
- A sampled step i: the robot position after it is history row i + 1, its
  reference position row i of the block, and the position error between
  them follows in ``track_loop``'s operation order (``_position_errors``,
  which both plants use); the events are the scan's grasps and releases.
  The per-step loop is the same whether or not a call samples.

Timed on whole replay cells at rest (2-core x86-64 VM), lockstep now wins
from 5 rows up (``controller.LOCKSTEP_MIN_ROWS`` says why it stays 7).

The column helpers ``_hamilton``, ``_rotvec``, ``_exp`` and ``_normalise``
are the package's one vectorised quaternion algebra: they act on (4, B)
quaternion or (3, B) rotation-vector columns, in the scalar loop's
operation order, so each column has the bits of the per-quaternion helpers
in ``tests/plant_oracle.py``. The batched plant's carried poses, the
segment rates of ``controller.ReferenceTrack`` and the guided orientations
of ``policy.cfg_blend`` all use them.

Quaternions are (w, x, y, z), unit norm. The packed plant state vector,
the program's only plant state, is what ``track_loop`` steps (a column of
``_track_at_rest``'s state); ``sim`` names the slices other modules read.
Its layout::

    [0:3]   robot position (m)
    [3:7]   robot orientation quaternion
    [7:10]  linear velocity (m/s)
    [10:13] angular velocity (rad/s, world frame)
    [13]    gripper opening command state in [0, 1]
    [14:17] object position
    [17:21] object orientation quaternion
    [21]    attached flag (0.0 / 1.0)
    [22:25] object position in gripper frame (valid while attached)
    [25:29] object orientation in gripper frame (valid while attached)
    [29]    simulation time (s)
"""

import math
from typing import NamedTuple

import numpy as np
# the clip ufunc, which numpy 2 exposes here: one call, and no argument
# handling in Python as np.clip has
from numpy._core.umath import clip as _clip

STATE_SIZE = 30

# No kernel is compiled; perfbench's environment record still reads this.
NUMBA_ENABLED = False


# The state rows of the orientation's vector part and the angular velocity.
_SPIN = [4, 5, 6, 10, 11, 12]


def _positive_zero(a):
    """Whether every element of ``a`` is +0.0."""
    return not (a.any() or np.signbit(a).any())


def _identity_rows(quat, rate):
    """Whether every (4, ...) ``quat`` column is the identity and every
    ``rate`` element zero, zeros of either sign."""
    return (quat[0] == 1.0).all() and not (quat[1:].any() or rate.any())


def _carried(pose, rel):
    """The pose of a carried object, robot ``pose`` * relative pose ``rel``,
    both 7 floats (position, then quaternion), as a 7-float tuple."""
    px, py, pz, qw, qx, qy, qz = pose
    rx, ry, rz, rw, rqx, rqy, rqz = rel
    tx = 2.0 * (qy * rz - qz * ry)
    ty = 2.0 * (qz * rx - qx * rz)
    tz = 2.0 * (qx * ry - qy * rx)
    m0 = qw * rw - qx * rqx - qy * rqy - qz * rqz
    m1 = qw * rqx + qx * rw + qy * rqz - qz * rqy
    m2 = qw * rqy - qx * rqz + qy * rw + qz * rqx
    m3 = qw * rqz + qx * rqy - qy * rqx + qz * rw
    norm = math.sqrt(m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3)
    ow, oqx, oqy, oqz = m0 / norm, m1 / norm, m2 / norm, m3 / norm
    if ow < 0.0:
        ow, oqx, oqy, oqz = -ow, -oqx, -oqy, -oqz
    return (px + (rx + qw * tx + (qy * tz - qz * ty)),
            py + (ry + qw * ty + (qz * tx - qx * tz)),
            pz + (rz + qw * tz + (qx * ty - qy * tx)), ow, oqx, oqy, oqz)


def _grasped(pose, obj, grasp_radius):
    """The pose of ``obj`` in the gripper frame of ``pose`` (7 floats each):
    conj(q) applied to both, as a 7-float tuple; None when the object lies
    beyond ``grasp_radius``."""
    px, py, pz, qw, qx, qy, qz = pose
    ox, oy, oz, ow, oqx, oqy, oqz = obj
    dx, dy, dz = ox - px, oy - py, oz - pz
    if not math.sqrt(dx * dx + dy * dy + dz * dz) <= grasp_radius:
        return None
    bx, by, bz = -qx, -qy, -qz
    tx = 2.0 * (by * dz - bz * dy)
    ty = 2.0 * (bz * dx - bx * dz)
    tz = 2.0 * (bx * dy - by * dx)
    m0 = qw * ow - bx * oqx - by * oqy - bz * oqz
    m1 = qw * oqx + bx * ow + by * oqz - bz * oqy
    m2 = qw * oqy - bx * oqz + by * ow + bz * oqx
    m3 = qw * oqz + bx * oqy - by * oqx + bz * ow
    norm = math.sqrt(m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3)
    rw, rqx, rqy, rqz = m0 / norm, m1 / norm, m2 / norm, m3 / norm
    if rw < 0.0:
        rw, rqx, rqy, rqz = -rw, -rqx, -rqy, -rqz
    return (dx + qw * tx + (by * tz - bz * ty),
            dy + qw * ty + (bz * tx - bx * tz),
            dz + qw * tz + (bx * ty - by * tx), rw, rqx, rqy, rqz)


def track_loop(state, ref_pos, ref_vel, ref_quat, ref_angvel, ref_grip,
               kp_pos, kv_pos, kp_ori, kv_ori, dt, grip_slew, grasp_radius,
               out_pos, out_quat, out_epos, out_eori, out_events):
    """Closed-loop tracking of a pre-sampled reference for len(ref_pos) steps.

    The wrench for step i is computed from the state before the step against
    reference sample i: the task-space PD law f = kp e_p + kv e_v, with the
    torque analogous on SO(3), acting on a unit body, so that the wrench is
    the commanded acceleration. A semi-implicit Euler step then advances
    the state, slews the gripper and attaches or detaches the object. Step i
    writes out_pos[i], out_quat[i], out_events[i] (+1 attach, -1 detach)
    and the tracking errors out_epos[i], out_eori[i] against sample i.
    ``state`` is updated in place. Returns the index of the step whose
    wrench was non-finite, with the state as it was before that step, or -1;
    the out rows of that step and after are left as they were.
    """
    # float() everything passed in, and read the references as lists:
    # arithmetic on a numpy scalar yields another, several times slower
    # than on a float
    kp_pos = float(kp_pos)
    kv_pos = float(kv_pos)
    kp_ori = float(kp_ori)
    kv_ori = float(kv_ori)
    dt = float(dt)
    grasp_radius = float(grasp_radius)
    max_step = float(grip_slew) * dt
    values = state.tolist()
    px, py, pz, qw, qx, qy, qz, vx, vy, vz, wx, wy, wz, grip = values[:14]
    obj, attached, rel, t = values[14:21], values[21], values[22:29], \
        values[29]
    isfinite = math.isfinite
    sqrt = math.sqrt
    # at rest (see the module docstring) only the translation and the
    # gripper are stepped
    at_rest = (qw == 1.0 and _positive_zero(state[_SPIN])
               and isfinite(kp_ori) and isfinite(kv_ori) and isfinite(dt)
               and _identity_rows(ref_quat.T, ref_angvel.T))
    # the robot pose of every completed step, `width` floats a step: its
    # position at rest, its position and orientation otherwise
    width = 3 if at_rest else 7
    poses = []
    events = []  # (step, +1 or -1) of every attach and detach
    fault = -1
    if at_rest:
        quat = [qw, qx, qy, qz]
        for (rpx, rpy, rpz), (rvx, rvy, rvz), rgrip in zip(
                ref_pos.tolist(), ref_vel.tolist(), ref_grip.tolist()):
            # PD force; the torque is a zero
            f0 = kp_pos * (rpx - px) + kv_pos * (rvx - vx)
            f1 = kp_pos * (rpy - py) + kv_pos * (rvy - vy)
            f2 = kp_pos * (rpz - pz) + kv_pos * (rvz - vz)
            if not isfinite(f0 + f1 + f2) and not (
                    isfinite(f0) and isfinite(f1) and isfinite(f2)):
                fault = len(poses) // 3
                break
            vx += f0 * dt
            vy += f1 * dt
            vz += f2 * dt
            px += vx * dt
            py += vy * dt
            pz += vz * dt

            prev_grip = grip
            delta = rgrip - prev_grip
            if delta > max_step:
                delta = max_step
            elif delta < -max_step:
                delta = -max_step
            grip = prev_grip + delta
            if prev_grip < 0.5 and grip >= 0.5 and attached == 0.0:
                held = _grasped([px, py, pz] + quat, obj, grasp_radius)
                if held:
                    attached, rel = 1.0, held
                    events.append((len(poses) // 3, 1))
            elif prev_grip >= 0.5 and grip < 0.5 and attached == 1.0:
                attached = 0.0
                if poses:  # the object was carried through the last step
                    obj = _carried(poses[-3:] + quat, rel)
                events.append((len(poses) // 3, -1))
            t += dt
            poses += (px, py, pz)
    else:
        for (rpx, rpy, rpz), (rvx, rvy, rvz), (aw, ax, ay, az), \
                (rwx, rwy, rwz), rgrip in zip(
                    ref_pos.tolist(), ref_vel.tolist(), ref_quat.tolist(),
                    ref_angvel.tolist(), ref_grip.tolist()):
            # PD wrench; the orientation error is the rotation vector of
            # ref * conj(q), taken on the shortest arc
            f0 = kp_pos * (rpx - px) + kv_pos * (rvx - vx)
            f1 = kp_pos * (rpy - py) + kv_pos * (rvy - vy)
            f2 = kp_pos * (rpz - pz) + kv_pos * (rvz - vz)
            bx, by, bz = -qx, -qy, -qz
            m0 = aw * qw - ax * bx - ay * by - az * bz
            m1 = aw * bx + ax * qw + ay * bz - az * by
            m2 = aw * by - ax * bz + ay * qw + az * bx
            m3 = aw * bz + ax * by - ay * bx + az * qw
            if m0 < 0.0:
                m0, m1, m2, m3 = -m0, -m1, -m2, -m3
            vec_norm = sqrt(m1 * m1 + m2 * m2 + m3 * m3)
            if vec_norm < 1e-12:
                ex, ey, ez = 2.0 * m1, 2.0 * m2, 2.0 * m3
            else:
                # np.arctan2, not math.atan2: the two differ in the last bit
                scale = float(2.0 * np.arctan2(vec_norm, m0)) / vec_norm
                ex, ey, ez = scale * m1, scale * m2, scale * m3
            f3 = kp_ori * ex + kv_ori * (rwx - wx)
            f4 = kp_ori * ey + kv_ori * (rwy - wy)
            f5 = kp_ori * ez + kv_ori * (rwz - wz)
            # a finite sum means finite terms; an overflowing one is checked
            # term by term
            if not isfinite(f0 + f1 + f2 + f3 + f4 + f5) and not (
                    isfinite(f0) and isfinite(f1) and isfinite(f2)
                    and isfinite(f3) and isfinite(f4) and isfinite(f5)):
                fault = len(poses) // 7
                break

            # semi-implicit Euler step
            vx += f0 * dt
            vy += f1 * dt
            vz += f2 * dt
            px += vx * dt
            py += vy * dt
            pz += vz * dt
            wx += f3 * dt
            wy += f4 * dt
            wz += f5 * dt
            # q <- normalize(exp(w dt) * q)
            rv0, rv1, rv2 = wx * dt, wy * dt, wz * dt
            angle = sqrt(rv0 * rv0 + rv1 * rv1 + rv2 * rv2)
            if angle < 1e-12:
                hx, hy, hz = 0.5 * rv0, 0.5 * rv1, 0.5 * rv2
                norm = sqrt(1.0 + hx * hx + hy * hy + hz * hz)
                cw, cx, cy, cz = 1.0 / norm, hx / norm, hy / norm, hz / norm
            else:
                half = 0.5 * angle
                if half < math.inf:
                    s = math.sin(half) / angle
                    cw = math.cos(half)
                else:  # numpy's sin and cos of inf are nan; math's raise
                    s = cw = math.nan
                cx, cy, cz = s * rv0, s * rv1, s * rv2
            m0 = cw * qw - cx * qx - cy * qy - cz * qz
            m1 = cw * qx + cx * qw + cy * qz - cz * qy
            m2 = cw * qy - cx * qz + cy * qw + cz * qx
            m3 = cw * qz + cx * qy - cy * qx + cz * qw
            norm = sqrt(m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3)
            qw, qx, qy, qz = m0 / norm, m1 / norm, m2 / norm, m3 / norm
            if qw < 0.0:
                qw, qx, qy, qz = -qw, -qx, -qy, -qz

            prev_grip = grip
            delta = rgrip - prev_grip
            if delta > max_step:
                delta = max_step
            elif delta < -max_step:
                delta = -max_step
            grip = prev_grip + delta
            if prev_grip < 0.5 and grip >= 0.5 and attached == 0.0:
                held = _grasped((px, py, pz, qw, qx, qy, qz), obj,
                                grasp_radius)
                if held:
                    attached, rel = 1.0, held
                    events.append((len(poses) // 7, 1))
            elif prev_grip >= 0.5 and grip < 0.5 and attached == 1.0:
                attached = 0.0
                if poses:  # the object was carried through the last step
                    obj = _carried(poses[-7:], rel)
                events.append((len(poses) // 7, -1))
            t += dt
            poses += (px, py, pz, qw, qx, qy, qz)

    done = len(poses) // width
    # an attached object's pose is formed only at a release and here, from
    # the robot pose it rides on; with no step taken the incoming pose
    # stands
    if attached == 1.0 and done:
        obj = _carried((px, py, pz, qw, qx, qy, qz), rel)
    state[:] = (px, py, pz, qw, qx, qy, qz, vx, vy, vz, wx, wy, wz, grip,
                *obj, attached, *rel, t)

    rows = np.array(poses).reshape(done, width)
    out_pos[:done] = rows[:, :3]
    out_quat[:done] = rows[:, 3:] if width == 7 else (qw, qx, qy, qz)
    out_events[:done] = 0
    for i, event in events:
        out_events[i] = event

    # tracking errors of every completed step
    _position_errors(ref_pos[:done].T, out_pos[:done].T, out_epos[:done])
    _orientation_errors(ref_quat[:done].T, out_quat[:done].T,
                        out_eori[:done])
    return fault


# The tracking errors of the plant, vectorised in the per-step operation
# order (elementwise numpy gives the same bits) and accumulated in place in
# ``out``, so that one temporary of its shape is the only allocation. The
# operands hold the components of each vector or quaternion on their first
# axis, as the transposed out rows of track_loop or any (k, steps, B) stack.

def _position_errors(ref, pos, out):
    """|ref - pos| of the 3-vectors ref[:, ...] and pos[:, ...] into out."""
    tmp = np.empty(out.shape)
    np.subtract(ref[0], pos[0], out)
    np.multiply(out, out, out)
    for k in (1, 2):
        np.subtract(ref[k], pos[k], tmp)
        np.multiply(tmp, tmp, tmp)
        np.add(out, tmp, out)
    np.sqrt(out, out)


def _orientation_errors(ref, quat, out):
    """The geodesic angle arccos(2 dot^2 - 1) between the quaternions
    ref[:, ...] and quat[:, ...], via the trace of the relative rotation,
    independent of quaternion sign, into out."""
    tmp = np.empty(out.shape)
    np.multiply(ref[0], quat[0], out)
    for k in (1, 2, 3):
        np.multiply(ref[k], quat[k], tmp)
        np.add(out, tmp, out)
    np.multiply(out, 2.0, tmp)
    np.multiply(tmp, out, tmp)
    np.subtract(tmp, 1.0, tmp)
    np.clip(tmp, -1.0, 1.0, tmp)
    np.arccos(tmp, out)


# The Hamilton product a * b is a[0] * b + a[1] * b' + a[2] * b'' + a[3] * b'''
# with b', b'', b''' signed permutations of b: row k of _HAMILTON picks the
# rows of (b; -b) that a[k] multiplies, in the scalar loop's term order.
# _CONJ picks them for a * conj(b), and _FACTOR the rows of a that multiply
# them.
_HAMILTON = np.array([[0, 1, 2, 3], [5, 0, 7, 2], [6, 3, 0, 5], [7, 6, 1, 0]])
_CONJ = np.array([0, 5, 6, 7, 4, 1, 2, 3])[_HAMILTON]
_FACTOR = np.repeat(np.arange(4), 4).reshape(4, 4)

# Operands as 0-d arrays: numpy converts a Python float on every call, which
# costs more than the operation on a few columns.
_ZERO, _HALF, _TWO, _TINY = (np.array(v) for v in (0.0, 0.5, 2.0, 1e-12))


def _hamilton(a, bb, index=_HAMILTON):
    """a * b (a * conj(b) with ``_CONJ``) of (4, B) quaternion columns.

    ``bb`` is (b; -b). The four terms are summed in order: ``add.reduce``
    over the leading axis adds its rows one after another, from -0.0, which
    leaves every sum as the scalar expression gives it; from its default
    +0.0, four -0.0 terms would sum to +0.0. Both factors are gathered into
    full (4, 4, B) blocks, as a broadcast product costs more than a second
    gather.
    """
    factors = a.take(_FACTOR, 0, mode="clip")
    terms = bb.take(index, 0, mode="clip")
    np.multiply(factors, terms, terms)
    return np.add.reduce(terms, 0, initial=-0.0)


def _signed(q):
    return np.concatenate((q, -q))


def _flip_negative_w(q):
    neg = np.less(q[0], _ZERO)
    if np.count_nonzero(neg):
        q[:, neg] = -q[:, neg]
    return q


def _norm(v):
    """The Euclidean norms of the columns of v, summed row after row."""
    norm = np.add.reduce(np.multiply(v, v), 0)
    return np.sqrt(norm, norm)


def _normalise(m):
    return _flip_negative_w(np.divide(m, _norm(m)))


def _carried_pose(p, q, r, rq):
    """Object pose of attached columns: robot pose * relative pose."""
    qw, qx, qy, qz = q
    rx, ry, rz = r
    tx = 2.0 * (qy * rz - qz * ry)
    ty = 2.0 * (qz * rx - qx * rz)
    tz = 2.0 * (qx * ry - qy * rx)
    o = np.array([p[0] + (rx + qw * tx + (qy * tz - qz * ty)),
                  p[1] + (ry + qw * ty + (qz * tx - qx * tz)),
                  p[2] + (rz + qw * tz + (qx * ty - qy * tx))])
    return o, _normalise(_hamilton(q, _signed(rq)))


def _rotation(rv, angle):
    out = np.empty((4,) + angle.shape)
    half = np.multiply(_HALF, angle)
    np.cos(half, out[0])
    np.sin(half, half)
    np.divide(half, angle, half)
    np.multiply(half, rv, out[1:])
    return out


def _exp(rv):
    """exp(rv) of (3, B) rotation vector columns, as (4, B) quaternions.

    Columns with an angle below 1e-12 take the normalised first-order
    form (1, rv / 2).
    """
    angle = _norm(rv)
    small = np.less(angle, _TINY)
    k = np.count_nonzero(small)
    if k == 0:
        return _rotation(rv, angle)
    # (1, h) / |(1, h)| with h = rv / 2; 1.0 * 1.0 keeps the scalar sum order
    c = np.ones((4, rv.shape[1]))
    np.multiply(_HALF, rv, c[1:])
    np.divide(c, _norm(c), c)
    if k < len(small):
        arc = ~small
        c[:, arc] = _rotation(rv[:, arc], angle[arc])
    return c


def _rotvec(m):
    """Rotation vectors (3, B) of the (4, B) quaternion columns ``m``.

    ``m`` is flipped to w >= 0 in place, so each vector takes the shortest
    arc: 2 arctan2(|v|, w) / |v| * v, or 2 v where |v| < 1e-12.
    """
    m = _flip_negative_w(m)
    v = m[1:]
    vec_norm = _norm(v)
    small = np.less(vec_norm, _TINY)
    k = np.count_nonzero(small)
    if k == 0:
        scale = np.arctan2(vec_norm, m[0])
        np.multiply(_TWO, scale, scale)
        np.divide(scale, vec_norm, scale)
        return np.multiply(scale, v)
    e = np.multiply(_TWO, v)
    if k < len(small):
        arc = ~small
        e[:, arc] = (2.0 * np.arctan2(vec_norm[arc], m[0, arc])
                     / vec_norm[arc]) * v[:, arc]
    return e


# The state rows of the at-rest history: the gripper, the position and the
# linear velocity. A rest-form reference block holds the references' same
# REST_ROWS rows per step, in this order.
_REST_STATE = [13, 0, 1, 2, 7, 8, 9]
REST_ROWS = len(_REST_STATE)


@np.errstate(all="ignore")  # the scalar loop never warns either
def _track_at_rest(state, rest_ref, kp_pos, kv_pos, kp_ori, kv_ori, dt,
                   grip_slew, grasp_radius, marks=(), report=None,
                   sampled=None):
    """``track_loop`` on the B columns of a (30, B) state, in lockstep, on
    references at rest; True once every column has stepped.

    Step i tracks ``rest_ref[i]``, the (REST_ROWS, B) [grip; pos; vel]
    reference rows of references whose orientations are the identity and
    whose rates are zero. The gains are (B,) float arrays, one value per
    column; dt, ``grip_slew`` and ``grasp_radius`` are shared, and
    ``grip_slew`` must not be negative. Every column gets the bits
    ``track_loop`` gives that row, and ``state`` is updated in place. When
    the columns do not start at rest, or a step faults, it returns False
    and leaves ``state`` as it was.

    ``marks`` are ascending step counts, from 1 to the call's steps: after
    the call, ``report[k]``, a (len(marks), 30, B) array, holds the state
    as a call that ended after ``marks[k]`` steps would have left it, bit
    for bit.

    ``sampled``, when given, is an ascending integer array of steps of the
    call, from 0. A call that steps then returns a ``RestTrace`` in place
    of True: the robot positions after those steps and the reference
    positions they tracked, each (len(sampled), 3, B), their position
    errors in ``track_loop``'s operation order, (len(sampled), B), and the
    (step, column, +1 or -1) attach and detach events of the call, in step
    order, as track_loop's out rows give them. No other per-step trace is
    written.

    Each step is eight ufunc calls on the (7, B) rows [grip; p; v] of a
    history buffer, from row i to row i + 1; grasps, releases, the clock
    and the states at the marks follow from the history after the loop.
    """
    dt = float(dt)
    if not ((state[3] == 1.0).all() and _positive_zero(state[_SPIN])
            and math.isfinite(dt) and np.isfinite(kp_ori).all()
            and np.isfinite(kv_ori).all()):
        return False
    n, b = rest_ref.shape[0], state.shape[1]
    dt_ = np.array(dt)
    max_step = np.array(float(grip_slew) * dt)
    neg_max_step = -max_step
    hist = np.empty((n + 1, 7, b))
    hist[0] = state[_REST_STATE]
    gain = np.empty((7, b))
    gain[0], gain[1:4], gain[4:] = 1.0, kp_pos, kv_pos
    err = np.empty((7, b))
    err_grip, err_pos, err_vel = err[0], err[1:4], err[4:]
    # x + (-0.0) is x, bit for bit, so the position rows of the step added
    # below leave the position as it was; +0.0 would turn -0.0 into +0.0
    inc = np.full((7, b), -0.0)
    inc_grip, inc_vel = inc[0], inc[4:]
    move = np.empty((3, b))
    # local names: a global and an attribute lookup per call cost ~10 % of
    # a step
    subtract, multiply, add, clip = np.subtract, np.multiply, np.add, _clip
    for want, x, y, y_pos, y_vel in zip(rest_ref, hist, hist[1:],
                                        hist[1:, 1:4], hist[1:, 4:]):
        subtract(want, x, err)
        multiply(err, gain, err)  # the gripper row times 1.0 keeps its bits
        add(err_pos, err_vel, inc_vel)  # the PD force
        # the gripper change, clamped to the slew
        clip(err_grip, neg_max_step, max_step, inc_grip)
        # semi-implicit Euler step
        multiply(inc_vel, dt_, inc_vel)
        add(x, inc, y)
        multiply(y_vel, dt_, move)
        add(y_pos, move, y_pos)
    # A non-finite force makes its velocity non-finite, and a non-finite
    # velocity stays so (module docstring): a finite one proves no fault.
    if not np.isfinite(hist[n, 4:]).all():
        return False

    # The state after each mark and after the last step, as calls that
    # ended there would leave it: the orientation and the spin as they
    # were, and [grip; p; v] from the history.
    ends = [*marks, n]
    after = np.empty((len(ends), STATE_SIZE, b))
    after[:] = state
    after[:, _REST_STATE] = hist[ends]
    # Grasps and releases, in step order, where the command crosses 0.5, on
    # the scalar loop's helpers: a grasp from the pose after its step, a
    # release from the pose before it. The robot's motion does not depend on
    # the object, so a grasp found here sees the poses it saw in the loop.
    # The object rows [14:29] of the state after m steps are those before
    # the first event at step m or later.
    grip = hist[:, 0]
    below = grip < 0.5
    q, attached = state[3:7], state[21]
    steps, cols = np.nonzero(below[:-1] != below[1:])
    k = 0
    events = []
    for i, j in zip(steps.tolist(), cols.tolist()):
        while ends[k] <= i:
            after[k, 14:29] = state[14:29]
            k += 1
        quat = q[:, j].tolist()
        if below[i, j] and grip[i + 1, j] >= 0.5:
            if attached[j] == 0.0:
                held = _grasped(hist[i + 1, 1:4, j].tolist() + quat,
                                state[14:21, j].tolist(), grasp_radius)
                if held:
                    attached[j] = 1.0
                    state[22:29, j] = held
                    events.append((i, j, 1))
        elif grip[i, j] >= 0.5 and attached[j] == 1.0:
            attached[j] = 0.0
            if i:  # the object was carried through the last step
                state[14:21, j] = _carried(hist[i, 1:4, j].tolist() + quat,
                                           state[22:29, j].tolist())
            events.append((i, j, -1))
    after[k:, 14:29] = state[14:29]
    # A call's carried objects ride on its last robot pose, where it took a
    # step: one _carried_pose call, whose columns are those of every state
    # that carries one, each with the bits of its own call.
    stepped = np.array(ends)
    at, col = np.nonzero((after[:, 21] == 1.0) & (stepped > 0)[:, None])
    if len(at):
        obj = _carried_pose(hist[stepped[at], 1:4, col].T.copy(), q[:, col],
                            after[at, 22:25, col].T.copy(),
                            after[at, 25:29, col].T.copy())
        after[at, 14:17, col], after[at, 17:21, col] = (o.T for o in obj)

    # the clock: one sum, broadcast, when every column holds the same bits
    t = state[29].copy()
    bits = t.view(np.int64)
    shared = b and (bits == bits[:1]).all()
    clock = float(t[0]) if shared else t
    done = 0
    for m, row in zip(ends, after):
        for _ in range(m - done):
            if shared:
                clock += dt
            else:
                np.add(t, dt_, t)
        row[29] = clock
        done = m
    state[:] = after[-1]
    if marks:
        report[:] = after[:-1]
    if sampled is None:
        return True
    # the robot after step i is history row i + 1
    positions = hist[sampled + 1, 1:4]
    ref_positions = rest_ref[sampled, 1:4]
    e_pos = np.empty((len(sampled), b))
    _position_errors(ref_positions.transpose(1, 0, 2),
                     positions.transpose(1, 0, 2), e_pos)
    return RestTrace(positions, ref_positions, e_pos, events)


class RestTrace(NamedTuple):
    """What ``_track_at_rest`` reports of the steps it is asked to sample."""

    positions: np.ndarray      # (steps, 3, B) robot positions
    ref_positions: np.ndarray  # (steps, 3, B) reference positions
    e_pos: np.ndarray          # (steps, B) position errors
    events: list               # (step, column, +1 or -1) of the call
