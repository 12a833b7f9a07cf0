"""Reference plant: the per-step kernels that ``sailx.kernels.track_loop`` fuses.

These are the array-based PD law, semi-implicit Euler step and quaternion
helpers the fused scalar loop was written from, kept unchanged so tests can
require the fused loop and the vectorised slerp in
``ReferenceTrack.sample`` to reproduce them bit for bit. ``track_loop`` here
is the reference loop: ``pd_wrench`` then ``step_state`` once per reference
row, with the tracking errors taken after each step.
"""

import numpy as np

from sailx.kernels import (quat_conj, quat_from_rotvec, quat_mul,
                           quat_normalize, rotvec_between)


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
