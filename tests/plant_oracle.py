"""Reference plant: the per-step kernels that ``sailx.kernels.track_loop`` fuses.

These are the array-based PD law, semi-implicit Euler step and quaternion
helpers the fused scalar loop was written from, kept unchanged so tests can
require the fused loop, the vectorised slerp in ``ReferenceTrack.sample``
and the quaternion column helpers of ``sailx.kernels`` (the batched plant,
the segment rates of ``ReferenceTrack``, ``policy.cfg_blend``) to
reproduce them bit for bit. ``track_loop`` here
is the reference loop: ``pd_wrench`` then ``step_state`` once per reference
row, with the tracking errors taken after each step.
"""

import numpy as np


def quat_mul(a, b):
    out = np.empty(4)
    out[0] = a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]
    out[1] = a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2]
    out[2] = a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1]
    out[3] = a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0]
    return out


def quat_conj(a):
    out = np.empty(4)
    out[0] = a[0]
    out[1] = -a[1]
    out[2] = -a[2]
    out[3] = -a[3]
    return out


def quat_normalize(q):
    n = np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    out = q / n
    if out[0] < 0.0:
        out = -out
    return out


def quat_from_rotvec(rv):
    angle = np.sqrt(rv[0] * rv[0] + rv[1] * rv[1] + rv[2] * rv[2])
    out = np.empty(4)
    if angle < 1e-12:
        out[0] = 1.0
        out[1] = 0.5 * rv[0]
        out[2] = 0.5 * rv[1]
        out[3] = 0.5 * rv[2]
        return quat_normalize(out)
    half = 0.5 * angle
    s = np.sin(half) / angle
    out[0] = np.cos(half)
    out[1] = s * rv[0]
    out[2] = s * rv[1]
    out[3] = s * rv[2]
    return out


def rotvec_between(q_from, q_to):
    """World-frame rotation vector r with exp(r) * q_from = q_to (shortest arc)."""
    rel = quat_mul(q_to, quat_conj(q_from))
    if rel[0] < 0.0:
        rel = -rel
    vec_norm = np.sqrt(rel[1] * rel[1] + rel[2] * rel[2] + rel[3] * rel[3])
    angle = 2.0 * np.arctan2(vec_norm, rel[0])
    out = np.empty(3)
    if vec_norm < 1e-12:
        out[0] = 2.0 * rel[1]
        out[1] = 2.0 * rel[2]
        out[2] = 2.0 * rel[3]
        return out
    scale = angle / vec_norm
    out[0] = scale * rel[1]
    out[1] = scale * rel[2]
    out[2] = scale * rel[3]
    return out


def quat_rotate(q, v):
    """Rotate vector v by unit quaternion q."""
    w, x, y, z = q[0], q[1], q[2], q[3]
    # t = 2 * cross(q_vec, v)
    tx = 2.0 * (y * v[2] - z * v[1])
    ty = 2.0 * (z * v[0] - x * v[2])
    tz = 2.0 * (x * v[1] - y * v[0])
    out = np.empty(3)
    out[0] = v[0] + w * tx + (y * tz - z * ty)
    out[1] = v[1] + w * ty + (z * tx - x * tz)
    out[2] = v[2] + w * tz + (x * ty - y * tx)
    return out


def quat_angle(a, b):
    """Geodesic angle between two orientations, via the rotation-matrix trace.

    tr(R_delta) = 4*dot(a,b)^2 - 1, so arccos((tr-1)/2) = arccos(2*dot^2 - 1);
    the squared dot makes the result independent of quaternion sign.
    """
    d = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
    c = 2.0 * d * d - 1.0
    if c > 1.0:
        c = 1.0
    elif c < -1.0:
        c = -1.0
    return np.arccos(c)


def quat_slerp(a, b, s):
    """Shortest-arc spherical interpolation."""
    d = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
    bb = b.copy()
    if d < 0.0:
        bb = -bb
        d = -d
    if d > 1.0:
        d = 1.0
    theta = np.arccos(d)
    if theta < 1e-10:
        out = a + s * (bb - a)
        return quat_normalize(out)
    st = np.sin(theta)
    wa = np.sin((1.0 - s) * theta) / st
    wb = np.sin(s * theta) / st
    return quat_normalize(wa * a + wb * bb)


def segment_rates(times, quats):
    """World-frame angular rate of each segment, one segment at a time."""
    out = np.zeros((len(times) - 1, 3))
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        out[i] = rotvec_between(quats[i], quats[i + 1]) / dt
    return out


def pd_wrench(state, ref_pos, ref_vel, ref_quat, ref_angvel,
              kp_pos, kv_pos, kp_ori, kv_ori, mass, inertia):
    """Task-space PD law: f = m(kp e_p + kv e_v), torque analogous on SO(3)."""
    out = np.empty(6)
    for i in range(3):
        e_p = ref_pos[i] - state[i]
        e_v = ref_vel[i] - state[7 + i]
        out[i] = mass * (kp_pos * e_p + kv_pos * e_v)
    e_r = rotvec_between(state[3:7], ref_quat)
    for i in range(3):
        e_w = ref_angvel[i] - state[10 + i]
        out[3 + i] = inertia * (kp_ori * e_r[i] + kv_ori * e_w)
    return out


def step_state(state, wrench, grip_cmd, mass, inertia, dt, grip_slew,
               grasp_radius, wrench_limit):
    """Semi-implicit Euler step of the free-floating end effector.

    Mutates ``state`` in place. Returns an event code: 0 none, 1 attach,
    -1 detach, 2 fault (non-finite wrench).
    """
    for i in range(6):
        if not np.isfinite(wrench[i]):
            return 2
    w = wrench
    if wrench_limit > 0.0:
        w = wrench.copy()
        for i in range(6):
            if w[i] > wrench_limit:
                w[i] = wrench_limit
            elif w[i] < -wrench_limit:
                w[i] = -wrench_limit

    for i in range(3):
        state[7 + i] += (w[i] / mass) * dt
        state[i] += state[7 + i] * dt
        state[10 + i] += (w[3 + i] / inertia) * dt
    rv = np.empty(3)
    for i in range(3):
        rv[i] = state[10 + i] * dt
    state[3:7] = quat_normalize(quat_mul(quat_from_rotvec(rv), state[3:7]))

    prev_grip = state[13]
    delta = grip_cmd - prev_grip
    max_step = grip_slew * dt
    if delta > max_step:
        delta = max_step
    elif delta < -max_step:
        delta = -max_step
    state[13] = prev_grip + delta

    event = 0
    if prev_grip < 0.5 and state[13] >= 0.5 and state[21] == 0.0:
        dx = state[14] - state[0]
        dy = state[15] - state[1]
        dz = state[16] - state[2]
        if np.sqrt(dx * dx + dy * dy + dz * dz) <= grasp_radius:
            state[21] = 1.0
            inv = quat_conj(state[3:7])
            rel = np.empty(3)
            rel[0] = dx
            rel[1] = dy
            rel[2] = dz
            state[22:25] = quat_rotate(inv, rel)
            state[25:29] = quat_normalize(quat_mul(inv, state[17:21]))
            event = 1
    elif prev_grip >= 0.5 and state[13] < 0.5 and state[21] == 1.0:
        state[21] = 0.0
        event = -1

    if state[21] == 1.0:
        state[14:17] = state[0:3] + quat_rotate(state[3:7], state[22:25])
        state[17:21] = quat_normalize(quat_mul(state[3:7], state[25:29]))

    state[29] += dt
    return event


def track_loop(state, ref_pos, ref_vel, ref_quat, ref_angvel, ref_grip,
               kp_pos, kv_pos, kp_ori, kv_ori, mass, inertia, dt, grip_slew,
               grasp_radius, wrench_limit, out_pos, out_quat, out_epos,
               out_eori, out_events):
    """Closed-loop tracking of a pre-sampled reference for len(ref_pos) steps.

    The wrench for step i is computed from the state before the step against
    reference sample i. Returns the index of a fault, or -1 if none occurred.
    """
    n = ref_pos.shape[0]
    for i in range(n):
        wrench = pd_wrench(state, ref_pos[i], ref_vel[i], ref_quat[i],
                           ref_angvel[i], kp_pos, kv_pos, kp_ori, kv_ori,
                           mass, inertia)
        event = step_state(state, wrench, ref_grip[i], mass, inertia, dt,
                           grip_slew, grasp_radius, wrench_limit)
        if event == 2:
            return i
        out_events[i] = event
        dx = ref_pos[i, 0] - state[0]
        dy = ref_pos[i, 1] - state[1]
        dz = ref_pos[i, 2] - state[2]
        out_epos[i] = np.sqrt(dx * dx + dy * dy + dz * dz)
        out_eori[i] = quat_angle(ref_quat[i], state[3:7])
        out_pos[i, 0] = state[0]
        out_pos[i, 1] = state[1]
        out_pos[i, 2] = state[2]
        out_quat[i, 0] = state[3]
        out_quat[i, 1] = state[4]
        out_quat[i, 2] = state[5]
        out_quat[i, 3] = state[6]
    return -1
