"""Demonstration-retrieval mock policy with error-adaptive guidance.

The mock stands in for a generative action-chunk policy: it exposes an
unconditional draw (nearest-demonstration lookup with branch/noise
multimodality) and a conditional draw (retrieval re-ranked to continue a
given action tail). Error-adaptive guidance gates the conditional path on
the current tracking error and blends the two draws with the guidance
weight.
"""

from dataclasses import dataclass

import numpy as np

from .core import Pose, tracking_error
from .errors import ConfigurationError, InvalidInputError
from .kernels import quat_from_rotvec, quat_mul, quat_normalize, rotvec_between


@dataclass(frozen=True)
class ActionChunk:
    """A policy prediction: timed pose + gripper waypoints with critical flags."""

    positions: np.ndarray      # (H, 3)
    orientations: np.ndarray   # (H, 4)
    grippers: np.ndarray       # (H,)
    flags: np.ndarray          # (H,) in {0, 1}

    def __len__(self) -> int:
        return len(self.positions)

    def segment(self, start: int, stop: int) -> "ActionChunk":
        return ActionChunk(self.positions[start:stop],
                           self.orientations[start:stop],
                           self.grippers[start:stop], self.flags[start:stop])


@dataclass(frozen=True)
class PolicyConfig:
    h_p: int = 32              # prediction horizon
    h_e: int = 8               # steps executed per cycle
    h_c: int = 4               # conditioning length
    w_cfg: float = 1.0         # guidance weight
    rho_pos: float = 0.02      # m, position tracking-error threshold
    rho_ori: float = 0.05      # rad, orientation tracking-error threshold
    noise_sigma: float = 0.0   # m, per-waypoint position noise
    p_branch: float = 0.0      # probability of switching among nearest demos
    target_mode: str = "reached"  # or "commanded"

    def __post_init__(self):
        if not self.h_c < self.h_e < self.h_p:
            raise ConfigurationError("require h_c < h_e < h_p")
        if self.w_cfg < 0 or self.rho_pos <= 0 or self.rho_ori <= 0:
            raise ConfigurationError("invalid guidance parameters")
        if self.target_mode not in ("reached", "commanded"):
            raise ConfigurationError(f"unknown target_mode {self.target_mode!r}")


# retrieval state-distance weights: robot position, gripper, object position
POS_WEIGHT = 1.0
GRIP_WEIGHT = 0.02
OBJ_WEIGHT = 1.0


class MockPolicy:
    """Nearest-demonstration retrieval over a library of demos.

    Deterministic given its seed: every inference call derives its own RNG
    from (seed, call counter), so concurrent use of the returned chunks is
    safe and repeated runs produce identical sequences.
    """

    def __init__(self, demos, config: PolicyConfig, seed: int = 0):
        demos = list(demos)
        if not demos:
            raise ConfigurationError("demo library must be non-empty")
        self.demos = demos
        self.config = config
        self.seed = int(seed)
        self._calls = 0

        key = "reached" if config.target_mode == "reached" else "commanded"
        self._out_pos = [np.asarray(getattr(d, key))[:, :3] for d in demos]
        self._out_quat = [np.asarray(getattr(d, key))[:, 3:7] for d in demos]
        self._grip = [np.asarray(d.grippers, dtype=float) for d in demos]
        self._flags = [np.asarray(d.k, dtype=np.int8) for d in demos]
        # retrieval features: robot position, gripper, object position
        self._feat_pos = [np.asarray(d.reached)[:, :3] for d in demos]
        self._feat_obj = [np.asarray(d.objects)[:, :3] for d in demos]

    def _rng(self) -> np.random.Generator:
        rng = np.random.default_rng((self.seed, self._calls))
        self._calls += 1
        return rng

    def _state_distances(self, obs):
        q_pos = obs.robot.position
        q_obj = obs.object_pose.position
        q_grip = obs.gripper
        per_demo = []
        for pos, obj, grip in zip(self._feat_pos, self._feat_obj, self._grip):
            d = (POS_WEIGHT * np.sum((pos - q_pos) ** 2, axis=1)
                 + GRIP_WEIGHT * (grip - q_grip) ** 2
                 + OBJ_WEIGHT * np.sum((obj - q_obj) ** 2, axis=1))
            per_demo.append(d)
        return per_demo

    def _extract(self, demo_idx: int, start: int, rng=None,
                 noise_sigma: float = 0.0) -> ActionChunk:
        h = self.config.h_p
        pos_src = self._out_pos[demo_idx]
        n = len(pos_src)
        idx = np.minimum(np.arange(start, start + h), n - 1)
        positions = pos_src[idx].copy()
        if noise_sigma > 0.0 and rng is not None:
            positions += rng.normal(0.0, noise_sigma, size=positions.shape)
        return ActionChunk(positions, self._out_quat[demo_idx][idx].copy(),
                           self._grip[demo_idx][idx].copy(),
                           self._flags[demo_idx][idx].copy())


BRANCH_SLACK = 0.02  # m-equivalent; demos eligible for branch switching


def infer_unconditional(policy: MockPolicy, obs, delay_steps: int = 0) -> ActionChunk:
    """Unconditional draw: nearest demo state, optional branch + noise.

    Branching models retrieval multimodality: with probability p_branch the
    draw switches to one of the nearest demos whose best state distance is
    within BRANCH_SLACK of the minimum, so alternatives are genuinely
    plausible continuations rather than detours.
    """
    cfg = policy.config
    rng = policy._rng()
    dists = policy._state_distances(obs)
    best = [(float(np.min(d)), i, int(np.argmin(d))) for i, d in enumerate(dists)]
    best.sort()
    choice = 0
    if cfg.p_branch > 0.0 and len(best) > 1 and rng.random() < cfg.p_branch:
        cutoff = best[0][0] + BRANCH_SLACK ** 2
        eligible = sum(1 for b in best[:3] if b[0] <= cutoff)
        choice = int(rng.integers(0, eligible))
    _, demo_idx, step = best[choice]
    start = step + 1 + delay_steps
    return policy._extract(demo_idx, start, rng=rng,
                           noise_sigma=cfg.noise_sigma)


GRIP_MATCH_WEIGHT = 0.01  # m^2 per mismatched gripper step in window scores


def infer_conditional(policy: MockPolicy, obs, tail: ActionChunk) -> ActionChunk:
    """Conditional draw: retrieval re-ranked to continue the given tail.

    Candidate windows across all demos are scored by position and gripper
    distance of their first h_c steps to the tail, with a small
    state-distance tiebreak; the gripper term disambiguates spatially
    overlapping phases (e.g. the approach descent and the post-grasp lift
    traverse the same region with opposite gripper states). The returned
    chunk starts at the best-matching window, so its first h_c waypoints
    continue the tail.
    """
    cfg = policy.config
    h_c = cfg.h_c
    tail_pos = np.asarray(tail.positions[:h_c])
    tail_grip = np.asarray(tail.grippers[:h_c])
    state_dists = policy._state_distances(obs)
    best_score, best_demo, best_start = np.inf, 0, 0
    for i, pos in enumerate(policy._out_pos):
        n = len(pos)
        if n < h_c:
            continue
        windows = np.lib.stride_tricks.sliding_window_view(pos, (h_c, 3))
        windows = windows.reshape(-1, h_c, 3)
        scores = np.sum((windows - tail_pos[None]) ** 2, axis=(1, 2))
        grip_windows = np.lib.stride_tricks.sliding_window_view(
            policy._grip[i], h_c)[:len(scores)]
        scores = scores + GRIP_MATCH_WEIGHT * np.sum(
            (grip_windows - tail_grip[None]) ** 2, axis=1)
        scores = scores + 0.01 * state_dists[i][:len(scores)]
        j = int(np.argmin(scores))
        if scores[j] < best_score:
            best_score, best_demo, best_start = float(scores[j]), i, j
    return policy._extract(best_demo, best_start)


def cfg_blend(uncond: ActionChunk, cond: ActionChunk, w: float) -> ActionChunk:
    """Guided chunk: uncond + w * (cond - uncond), waypoint-wise.

    Positions and grippers blend linearly (grippers clamped); orientations
    follow the geodesic from uncond to cond with parameter w, extrapolating
    for w outside [0, 1]. w = 0 and w = 1 return the inputs unchanged.
    """
    if len(uncond) != len(cond):
        raise InvalidInputError("chunk lengths differ")
    if w == 0.0:
        return uncond
    if w == 1.0:
        return cond
    positions = uncond.positions + w * (cond.positions - uncond.positions)
    grippers = np.clip(uncond.grippers + w * (cond.grippers - uncond.grippers),
                       0.0, 1.0)
    orientations = np.empty_like(uncond.orientations)
    for i in range(len(uncond)):
        rv = rotvec_between(uncond.orientations[i], cond.orientations[i])
        orientations[i] = quat_normalize(
            quat_mul(quat_from_rotvec(w * rv), uncond.orientations[i]))
    flags = cond.flags if w > 0.5 else uncond.flags
    return ActionChunk(positions, orientations, grippers, flags.copy())


def infer_eag(policy: MockPolicy, obs, prev_chunk: ActionChunk,
              current_desired: Pose, current_state: Pose,
              delay_steps: int = 0,
              exec_offset: int | None = None) -> tuple[ActionChunk, bool]:
    """Error-adaptive guidance: gate conditioning on the tracking error.

    If the current tracking error exceeds either threshold, the conditioning
    tail from the superseded plan is considered unreliable and only the
    unconditional draw is used (guidance_applied = False). Otherwise the
    conditional draw continuing prev_chunk[off : off + h_c] is blended in
    with weight w_cfg, where off is exec_offset (the number of waypoints of
    the previous chunk that will have been consumed when the new one
    arrives) or h_e when not given.
    """
    cfg = policy.config
    off = cfg.h_e if exec_offset is None else int(exec_offset)
    if len(prev_chunk) < off + cfg.h_c:
        raise InvalidInputError("previous chunk too short for a conditioning tail")
    err = tracking_error(current_desired, current_state)
    uncond = infer_unconditional(policy, obs, delay_steps=delay_steps)
    if err.e_pos > cfg.rho_pos or err.e_ori > cfg.rho_ori:
        return uncond, False
    tail = prev_chunk.segment(off, off + cfg.h_c)
    cond = infer_conditional(policy, obs, tail)
    return cfg_blend(uncond, cond, cfg.w_cfg), True
