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
from numpy.lib.stride_tricks import sliding_window_view

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

    The arrays retrieval scans are packed once into (D, L, ...) arrays, D
    demos by the longest demo's L steps (at least h_c), with the steps
    past a demo's end set to +inf so that they never match.
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
        self._lengths = [len(d.grippers) for d in demos]
        width = max(max(self._lengths), config.h_c)

        def pack(rows):
            out = np.full((len(demos), width) + rows[0].shape[1:], np.inf)
            for i, row in enumerate(rows):
                out[i, :len(row)] = row
            out.setflags(write=False)
            return out

        # retrieval features: robot position, gripper, object position
        self._feat_pos = pack([np.asarray(d.reached)[:, :3] for d in demos])
        self._grip = pack([np.asarray(d.grippers, dtype=float) for d in demos])
        self._feat_obj = pack([np.asarray(d.objects)[:, :3] for d in demos])
        self._out_pos = (self._feat_pos if key == "reached" else
                         pack([np.asarray(d.commanded)[:, :3] for d in demos]))
        self._out_quat = [np.asarray(getattr(d, key))[:, 3:7] for d in demos]
        self._flags = [np.asarray(d.k, dtype=np.int8) for d in demos]
        self._last_query = None
        self._last_dists = None

    def _rng(self) -> np.random.Generator:
        rng = np.random.default_rng((self.seed, self._calls))
        self._calls += 1
        return rng

    def _state_distances(self, obs) -> np.ndarray:
        """Weighted squared distances of obs to every demo state, (D, L).

        The read-only matrix of the last query is served again while the
        robot position, object position and gripper are the same floats.
        """
        q_pos = obs.robot.position
        q_obj = obs.object_pose.position
        q_grip = obs.gripper
        query = (*q_pos.tolist(), *q_obj.tolist(), float(q_grip))
        if query == self._last_query:
            return self._last_dists
        # (POS_WEIGHT |dpos|^2 + GRIP_WEIGHT dgrip^2) + OBJ_WEIGHT |dobj|^2
        sq = self._feat_pos - q_pos
        sq *= sq
        d = np.sum(sq, axis=2)
        d *= POS_WEIGHT
        grip = self._grip - q_grip
        grip *= grip
        grip *= GRIP_WEIGHT
        d += grip
        np.subtract(self._feat_obj, q_obj, out=sq)
        sq *= sq
        obj = np.sum(sq, axis=2)
        obj *= OBJ_WEIGHT
        d += obj
        d.setflags(write=False)
        self._last_query, self._last_dists = query, d
        return d

    def nearest_states(self, obs, k: int = 1) -> list[tuple[float, int, int]]:
        """(distance, demo, step) of the k demos nearest to obs, nearest first.

        Each demo is represented by its nearest state, the earliest one on
        a tie; demos at equal distance keep their library order.
        """
        dists = self._state_distances(obs)
        steps = np.argmin(dists, axis=1)
        best = np.take_along_axis(dists, steps[:, None], axis=1)[:, 0]
        return [(float(best[i]), int(i), int(steps[i]))
                for i in np.argsort(best, kind="stable")[:k]]

    def _clamp(self, demo_idx: int, steps) -> np.ndarray:
        return np.minimum(steps, self._lengths[demo_idx] - 1)

    def positions(self, demo_idx: int, steps) -> np.ndarray:
        """Output positions of one demo at the given steps, held at its end."""
        return self._out_pos[demo_idx, self._clamp(demo_idx, steps)]

    def _extract(self, demo_idx: int, start: int, rng=None,
                 noise_sigma: float = 0.0) -> ActionChunk:
        idx = self._clamp(demo_idx, np.arange(start, start + self.config.h_p))
        positions = self._out_pos[demo_idx, idx]
        if noise_sigma > 0.0 and rng is not None:
            positions += rng.normal(0.0, noise_sigma, size=positions.shape)
        return ActionChunk(positions, self._out_quat[demo_idx][idx],
                           self._grip[demo_idx, idx],
                           self._flags[demo_idx][idx])


BRANCH_SLACK = 0.02  # m-equivalent; demos eligible for branch switching
BRANCH_CANDIDATES = 3  # nearest demos a branch switch may pick from


def infer_unconditional(policy: MockPolicy, obs, delay_steps: int = 0) -> ActionChunk:
    """Unconditional draw: nearest demo state, optional branch + noise.

    Branching models retrieval multimodality: with probability p_branch the
    draw switches to one of the nearest demos whose best state distance is
    within BRANCH_SLACK of the minimum, so alternatives are genuinely
    plausible continuations rather than detours.
    """
    cfg = policy.config
    rng = policy._rng()
    best = policy.nearest_states(obs, BRANCH_CANDIDATES)
    choice = 0
    if cfg.p_branch > 0.0 and len(best) > 1 and rng.random() < cfg.p_branch:
        cutoff = best[0][0] + BRANCH_SLACK ** 2
        eligible = sum(1 for b in best if b[0] <= cutoff)
        choice = int(rng.integers(0, eligible))
    _, demo_idx, step = best[choice]
    start = step + 1 + delay_steps
    return policy._extract(demo_idx, start, rng=rng,
                           noise_sigma=cfg.noise_sigma)


GRIP_MATCH_WEIGHT = 0.01  # m^2 per mismatched gripper step in window scores
WINDOW_BLOCK = 16384  # window elements scored at once; bounds the temporaries


def infer_conditional(policy: MockPolicy, obs, tail: ActionChunk) -> ActionChunk:
    """Conditional draw: retrieval re-ranked to continue the given tail.

    Candidate windows across all demos are scored by position and gripper
    distance of their first h_c steps to the tail, with a small
    state-distance tiebreak; the gripper term disambiguates spatially
    overlapping phases (e.g. the approach descent and the post-grasp lift
    traverse the same region with opposite gripper states). The returned
    chunk starts at the best-matching window, the first in library order
    on a tie, so its first h_c waypoints continue the tail.
    """
    h_c = policy.config.h_c
    tail_pos = np.asarray(tail.positions[:h_c]).reshape(-1)
    tail_grip = np.asarray(tail.grippers[:h_c])
    n_demos, width = policy._grip.shape
    # window j of demo i: its h_c positions as one contiguous row, so each
    # score sums its 3 * h_c squares in one pairwise reduction; windows
    # that run into the +inf padding score +inf
    pos_windows = sliding_window_view(
        policy._out_pos.reshape(n_demos, 3 * width), 3 * h_c, axis=1)[:, ::3]
    grip_windows = sliding_window_view(policy._grip, h_c, axis=1)
    n_windows = width - h_c + 1
    scores = np.empty((n_demos, n_windows))
    rows = max(1, WINDOW_BLOCK // (n_windows * 3 * h_c))
    for lo in range(0, n_demos, rows):
        block = scores[lo:lo + rows]
        sq = pos_windows[lo:lo + rows] - tail_pos
        sq *= sq
        np.sum(sq, axis=2, out=block)
        sq = grip_windows[lo:lo + rows] - tail_grip
        sq *= sq
        grip = np.sum(sq, axis=2)
        grip *= GRIP_MATCH_WEIGHT
        block += grip
    scores += 0.01 * policy._state_distances(obs)[:, :n_windows]
    demo_idx, start = divmod(int(np.argmin(scores)), n_windows)
    return policy._extract(demo_idx, start)


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
