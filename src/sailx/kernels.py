"""Hot numeric kernels: the plant tracking loop and quaternion algebra.

Nothing here is compiled. ``track_loop`` reads its references as Python
lists and collects its output rows in lists, and ``track_loop_batch`` and
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

``track_loop_batch`` is the same plant on the B columns of a (30, B) state,
stepped in lockstep under per-column gains and grasp radii, with each
column's bits equal to ``track_loop`` on that row. A step costs a fixed
~80 us of numpy calls whatever B is, against ~5.5 us per row for the scalar
loop; timed on whole replay sweeps, it wins from about 10 rows up
(``controller.LOCKSTEP_MIN_ROWS``). It keeps the scalar operation order:
quaternion products are a[0] * b plus signed permutations of b, in the
scalar term order, and the rare branches (sign flips, the < 1e-12 angle
branches, gripper crossings, grasps and faults) run only on the columns
that take them. An attached object's pose is a pure function of the robot
pose and the stored relative pose, so it is formed only at a release, from
the robot pose before that step, and at the end of a call; a release at a
call's first step keeps the incoming object pose, as the scalar loop does.
It writes no per-step trace. The scalar loop stays as the plant for single
rollouts and small batches, and as the batched kernel's test oracle.

The column helpers ``_hamilton``, ``_rotvec``, ``_exp`` and ``_normalise``
are the package's one vectorised quaternion algebra: they act on (4, B)
quaternion or (3, B) rotation-vector columns, in the scalar loop's
operation order, so each column has the bits of the per-quaternion helpers
in ``tests/plant_oracle.py``. The batched plant, the segment rates of
``controller.ReferenceTrack`` and the guided orientations of
``policy.cfg_blend`` all use them.

Quaternions are (w, x, y, z), unit norm. The packed plant state vector used
by ``track_loop`` (a column of ``track_loop_batch``'s state) has layout::

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

import numpy as np

STATE_SIZE = 30

# No kernel is compiled; perfbench's environment record still reads this.
NUMBA_ENABLED = False


def track_loop(state, ref_pos, ref_vel, ref_quat, ref_angvel, ref_grip,
               kp_pos, kv_pos, kp_ori, kv_ori, mass, inertia, dt, grip_slew,
               grasp_radius, wrench_limit, out_pos, out_quat, out_epos,
               out_eori, out_events):
    """Closed-loop tracking of a pre-sampled reference for len(ref_pos) steps.

    The wrench for step i is computed from the state before the step against
    reference sample i: the task-space PD law f = m(kp e_p + kv e_v), with
    the torque analogous on SO(3). A semi-implicit Euler step then advances
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
    mass = float(mass)
    inertia = float(inertia)
    dt = float(dt)
    grasp_radius = float(grasp_radius)
    lim = float(wrench_limit)
    max_step = float(grip_slew) * dt
    (px, py, pz, qw, qx, qy, qz, vx, vy, vz, wx, wy, wz, grip, ox, oy, oz,
     ow, oqx, oqy, oqz, attached, rx, ry, rz, rw, rqx, rqy, rqz,
     t) = state.tolist()
    isfinite = math.isfinite
    sqrt = math.sqrt

    # px, py, pz, qw, qx, qy, qz of every completed step, so that the
    # current step is len(poses) // 7
    poses = []
    events = []  # (step, +1 or -1) of every attach and detach
    fault = -1
    for ((rpx, rpy, rpz), (rvx, rvy, rvz), (aw, ax, ay, az), (rwx, rwy, rwz),
         rgrip) in zip(ref_pos.tolist(), ref_vel.tolist(), ref_quat.tolist(),
                       ref_angvel.tolist(), ref_grip.tolist()):
        # PD wrench; the orientation error is the rotation vector of
        # ref * conj(q), taken on the shortest arc
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
        f0 = mass * (kp_pos * (rpx - px) + kv_pos * (rvx - vx))
        f1 = mass * (kp_pos * (rpy - py) + kv_pos * (rvy - vy))
        f2 = mass * (kp_pos * (rpz - pz) + kv_pos * (rvz - vz))
        f3 = inertia * (kp_ori * ex + kv_ori * (rwx - wx))
        f4 = inertia * (kp_ori * ey + kv_ori * (rwy - wy))
        f5 = inertia * (kp_ori * ez + kv_ori * (rwz - wz))
        # a finite sum means finite terms; an overflowing one is checked
        # term by term
        if not isfinite(f0 + f1 + f2 + f3 + f4 + f5) and not (
                isfinite(f0) and isfinite(f1) and isfinite(f2)
                and isfinite(f3) and isfinite(f4) and isfinite(f5)):
            fault = len(poses) // 7
            break
        if lim > 0.0:
            f0 = lim if f0 > lim else (-lim if f0 < -lim else f0)
            f1 = lim if f1 > lim else (-lim if f1 < -lim else f1)
            f2 = lim if f2 > lim else (-lim if f2 < -lim else f2)
            f3 = lim if f3 > lim else (-lim if f3 < -lim else f3)
            f4 = lim if f4 > lim else (-lim if f4 < -lim else f4)
            f5 = lim if f5 > lim else (-lim if f5 < -lim else f5)

        # semi-implicit Euler step
        vx += (f0 / mass) * dt
        vy += (f1 / mass) * dt
        vz += (f2 / mass) * dt
        px += vx * dt
        py += vy * dt
        pz += vz * dt
        wx += (f3 / inertia) * dt
        wy += (f4 / inertia) * dt
        wz += (f5 / inertia) * dt
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
            dx, dy, dz = ox - px, oy - py, oz - pz
            if sqrt(dx * dx + dy * dy + dz * dz) <= grasp_radius:
                attached = 1.0
                # object pose in the gripper frame: conj(q) applied to both
                bx, by, bz = -qx, -qy, -qz
                tx = 2.0 * (by * dz - bz * dy)
                ty = 2.0 * (bz * dx - bx * dz)
                tz = 2.0 * (bx * dy - by * dx)
                rx = dx + qw * tx + (by * tz - bz * ty)
                ry = dy + qw * ty + (bz * tx - bx * tz)
                rz = dz + qw * tz + (bx * ty - by * tx)
                m0 = qw * ow - bx * oqx - by * oqy - bz * oqz
                m1 = qw * oqx + bx * ow + by * oqz - bz * oqy
                m2 = qw * oqy - bx * oqz + by * ow + bz * oqx
                m3 = qw * oqz + bx * oqy - by * oqx + bz * ow
                norm = sqrt(m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3)
                rw, rqx = m0 / norm, m1 / norm
                rqy, rqz = m2 / norm, m3 / norm
                if rw < 0.0:
                    rw, rqx, rqy, rqz = -rw, -rqx, -rqy, -rqz
                events.append((len(poses) // 7, 1))
        elif prev_grip >= 0.5 and grip < 0.5 and attached == 1.0:
            attached = 0.0
            events.append((len(poses) // 7, -1))

        if attached == 1.0:
            # the object rides along: pose = robot pose * relative pose
            tx = 2.0 * (qy * rz - qz * ry)
            ty = 2.0 * (qz * rx - qx * rz)
            tz = 2.0 * (qx * ry - qy * rx)
            ox = px + (rx + qw * tx + (qy * tz - qz * ty))
            oy = py + (ry + qw * ty + (qz * tx - qx * tz))
            oz = pz + (rz + qw * tz + (qx * ty - qy * tx))
            m0 = qw * rw - qx * rqx - qy * rqy - qz * rqz
            m1 = qw * rqx + qx * rw + qy * rqz - qz * rqy
            m2 = qw * rqy - qx * rqz + qy * rw + qz * rqx
            m3 = qw * rqz + qx * rqy - qy * rqx + qz * rw
            norm = sqrt(m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3)
            ow, oqx = m0 / norm, m1 / norm
            oqy, oqz = m2 / norm, m3 / norm
            if ow < 0.0:
                ow, oqx, oqy, oqz = -ow, -oqx, -oqy, -oqz
        t += dt
        poses += (px, py, pz, qw, qx, qy, qz)

    state[:] = (px, py, pz, qw, qx, qy, qz, vx, vy, vz, wx, wy, wz, grip,
                ox, oy, oz, ow, oqx, oqy, oqz, attached, rx, ry, rz,
                rw, rqx, rqy, rqz, t)

    done = len(poses) // 7
    rows = np.array(poses).reshape(done, 7)
    out_pos[:done] = rows[:, :3]
    out_quat[:done] = rows[:, 3:]
    out_events[:done] = 0
    for i, event in events:
        out_events[i] = event

    # tracking errors of every completed step, vectorised in the per-step
    # operation order (elementwise numpy gives the same bits), accumulated
    # in place so that one temporary row of floats is the only allocation
    e = out_epos[:done]
    tmp = np.empty(done)
    np.subtract(ref_pos[:done, 0], out_pos[:done, 0], e)
    np.multiply(e, e, e)
    for k in (1, 2):
        np.subtract(ref_pos[:done, k], out_pos[:done, k], tmp)
        np.multiply(tmp, tmp, tmp)
        np.add(e, tmp, e)
    np.sqrt(e, e)
    # geodesic angle arccos(2 dot^2 - 1) via the trace of the relative
    # rotation, independent of quaternion sign
    dot = out_eori[:done]
    np.multiply(ref_quat[:done, 0], out_quat[:done, 0], dot)
    for k in (1, 2, 3):
        np.multiply(ref_quat[:done, k], out_quat[:done, k], tmp)
        np.add(dot, tmp, dot)
    np.multiply(dot, 2.0, tmp)
    np.multiply(tmp, dot, tmp)
    np.subtract(tmp, 1.0, tmp)
    np.clip(tmp, -1.0, 1.0, tmp)
    np.arccos(tmp, dot)
    return fault


# Rows of one step of a lockstep reference block; each row is (B,) wide.
REF_ROWS = 14
REF_POS = slice(0, 3)
REF_TWIST = slice(3, 9)     # linear velocity, then angular velocity
REF_QUAT = slice(9, 13)
REF_GRIP = 13

# The Hamilton product a * b is a[0] * b + a[1] * b' + a[2] * b'' + a[3] * b'''
# with b', b'', b''' signed permutations of b: row k of _HAMILTON picks the
# rows of (b; -b) that a[k] multiplies, in the scalar loop's term order.
# _CONJ picks them for a * conj(b).
_HAMILTON = np.array([[0, 1, 2, 3], [5, 0, 7, 2], [6, 3, 0, 5], [7, 6, 1, 0]])
_CONJ = np.array([0, 5, 6, 7, 4, 1, 2, 3])[_HAMILTON]


def _hamilton(a, bb, index=_HAMILTON):
    """a * b (a * conj(b) with ``_CONJ``) of (4, B) quaternion columns.

    ``bb`` is (b; -b). The four terms are summed in order: ``add.reduce``
    over the leading axis adds its rows one after another.
    """
    return np.add.reduce(a[:, None] * bb.take(index, axis=0))


def _signed(q):
    return np.concatenate((q, -q))


def _flip_negative_w(q):
    neg = q[0] < 0.0
    if np.count_nonzero(neg):
        q[:, neg] = -q[:, neg]
    return q


def _normalise(m):
    return _flip_negative_w(m / np.sqrt(np.add.reduce(m * m)))


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


def _gripper_frame_pose(p, q, o, oq):
    """Object pose in the gripper frame: conj(q) applied to both."""
    qw = q[0]
    bx, by, bz = -q[1], -q[2], -q[3]
    dx, dy, dz = o[0] - p[0], o[1] - p[1], o[2] - p[2]
    tx = 2.0 * (by * dz - bz * dy)
    ty = 2.0 * (bz * dx - bx * dz)
    tz = 2.0 * (bx * dy - by * dx)
    r = np.array([dx + qw * tx + (by * tz - bz * ty),
                  dy + qw * ty + (bz * tx - bx * tz),
                  dz + qw * tz + (bx * ty - by * tx)])
    return r, _normalise(_hamilton(np.array([qw, bx, by, bz]), _signed(oq)))


def _rotation(rv, angle):
    half = 0.5 * angle
    return np.concatenate((np.cos(half)[None], (np.sin(half) / angle) * rv))


def _exp(rv):
    """exp(rv) of (3, B) rotation vector columns, as (4, B) quaternions.

    Columns with an angle below 1e-12 take the normalised first-order
    form (1, rv / 2).
    """
    angle = np.sqrt(np.add.reduce(rv * rv))
    small = angle < 1e-12
    k = np.count_nonzero(small)
    if k == 0:
        return _rotation(rv, angle)
    # (1, h) / |(1, h)| with h = rv / 2; 1.0 * 1.0 keeps the scalar sum order
    c = np.concatenate((np.ones((1, rv.shape[1])), 0.5 * rv))
    c /= np.sqrt(np.add.reduce(c * c))
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
    vec_norm = np.sqrt(np.add.reduce(v * v))
    small = vec_norm < 1e-12
    k = np.count_nonzero(small)
    if k == 0:
        return (2.0 * np.arctan2(vec_norm, m[0]) / vec_norm) * v
    e = 2.0 * v
    if k < len(small):
        arc = ~small
        e[:, arc] = (2.0 * np.arctan2(vec_norm[arc], m[0, arc])
                     / vec_norm[arc]) * v[:, arc]
    return e


def track_loop_batch(state, ref, kp_pos, kv_pos, kp_ori, kv_ori, mass,
                     inertia, dt, grip_slew, grasp_radius, wrench_limit):
    """``track_loop`` on the B columns of a (30, B) state, in lockstep.

    Step i tracks ``ref[i]``, a (REF_ROWS, B) block of reference rows. The
    gains and ``grasp_radius`` are (B,) float arrays, one value per column,
    the dynamics are shared, and ``grip_slew`` must not be negative.
    Every column gets the bits ``track_loop`` gives that row; no per-step
    trace is written. ``state`` is updated in place. Returns a (B,) array
    holding, per column, the index of the step whose wrench was non-finite
    (the column keeps its state from before that step) or -1.
    """
    with np.errstate(all="ignore"):  # the scalar loop never warns either
        return _lockstep(state, ref, kp_pos, kv_pos, kp_ori, kv_ori,
                         float(mass), float(inertia), float(dt),
                         float(grip_slew), grasp_radius, float(wrench_limit))


def _lockstep(state, ref, kp_pos, kv_pos, kp_ori, kv_ori, mass, inertia, dt,
              grip_slew, grasp_radius, lim):
    n, b = ref.shape[0], state.shape[1]
    gains = np.stack((kp_pos, kv_pos, kp_ori, kv_ori))
    kp = np.repeat(gains[0::2], 3, axis=0)
    kv = np.repeat(gains[1::2], 3, axis=0)
    mi = np.array([[mass]] * 3 + [[inertia]] * 3)
    max_step = grip_slew * dt

    p, q, vw = state[0:3].copy(), state[3:7].copy(), state[7:13].copy()
    grip = state[13].copy()
    o, oq = state[14:17].copy(), state[17:21].copy()
    attached = state[21].copy()
    r, rq, t = state[22:25].copy(), state[25:29].copy(), state[29].copy()
    below = grip < 0.5
    p_prev = q_prev = None

    def store(steps):
        # An attached object's pose is a function of the robot pose, so it
        # is only formed here and at a release; with no step taken, the
        # incoming pose stands, as it does in the scalar loop.
        if steps:
            rows = np.flatnonzero(attached == 1.0)
            if len(rows):
                o[:, rows], oq[:, rows] = _carried_pose(
                    p[:, rows], q[:, rows], r[:, rows], rq[:, rows])
        state[0:3], state[3:7], state[7:13], state[13] = p, q, vw, grip
        state[14:17], state[17:21], state[21] = o, oq, attached
        state[22:25], state[25:29], state[29] = r, rq, t

    for i in range(n):
        step = ref[i]
        # PD wrench; the orientation error is the rotation vector of
        # ref * conj(q), taken on the shortest arc
        qq = _signed(q)
        e = _rotvec(_hamilton(step[REF_QUAT], qq, _CONJ))
        f = mi * (kp * np.concatenate((step[REF_POS] - p, e))
                  + kv * (step[REF_TWIST] - vw))
        if not math.isfinite(f.sum()):
            bad = ~np.isfinite(f).all(axis=0)
            if np.count_nonzero(bad):
                # store the state before this step, then go on without the
                # faulted columns
                store(i)
                fault = np.full(b, -1)
                fault[bad] = i
                live = np.flatnonzero(~bad)
                if len(live):
                    sub = state[:, live]
                    sub_fault = _lockstep(
                        sub, ref[i:, :, live], *gains[:, live], mass, inertia,
                        dt, grip_slew, grasp_radius[live], lim)
                    state[:, live] = sub
                    fault[live] = np.where(sub_fault < 0, -1, sub_fault + i)
                return fault
        if lim > 0.0:
            f = np.minimum(np.maximum(f, -lim), lim)

        # semi-implicit Euler step
        p_prev, q_prev = p, q
        vw = vw + (f / mi) * dt
        p = p + vw[:3] * dt
        # q <- normalize(exp(w dt) * q)
        q = _normalise(_hamilton(_exp(vw[3:] * dt), qq))

        prev_grip = grip
        delta = np.minimum(np.maximum(step[REF_GRIP] - prev_grip, -max_step),
                           max_step)
        grip = prev_grip + delta

        # a grasp or a release needs the command to cross 0.5
        was_below = below
        below = grip < 0.5
        if np.count_nonzero(below != was_below):
            grasp = np.flatnonzero(was_below & (grip >= 0.5)
                                   & (attached == 0.0))
            if len(grasp):
                d = o[:, grasp] - p[:, grasp]
                sq = d * d
                near = np.sqrt(sq[0] + sq[1] + sq[2]) <= grasp_radius[grasp]
                grasp = grasp[near]
                attached[grasp] = 1.0
                r[:, grasp], rq[:, grasp] = _gripper_frame_pose(
                    p[:, grasp], q[:, grasp], o[:, grasp], oq[:, grasp])
            release = np.flatnonzero((prev_grip >= 0.5) & below
                                     & (attached == 1.0))
            if len(release):
                attached[release] = 0.0
                if i:  # the object was carried through the last step
                    o[:, release], oq[:, release] = _carried_pose(
                        p_prev[:, release], q_prev[:, release],
                        r[:, release], rq[:, release])
        t = t + dt

    store(n)
    return np.full(b, -1)
