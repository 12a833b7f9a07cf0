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
from .kernels import _CONJ, _exp, _hamilton, _normalise, _rotvec, _signed


@dataclass(frozen=True)
class ActionChunk:
    """A policy prediction: timed pose + gripper waypoints with critical flags.

    A drawn chunk's arrays may be read-only views of the demo library.
    """

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
        if not 1 <= self.h_c < self.h_e < self.h_p:
            raise ConfigurationError("require 1 <= h_c < h_e < h_p")
        if self.w_cfg < 0 or self.rho_pos <= 0 or self.rho_ori <= 0:
            raise ConfigurationError("invalid guidance parameters")
        if self.target_mode not in ("reached", "commanded"):
            raise ConfigurationError(f"unknown target_mode {self.target_mode!r}")


# retrieval state-distance weights: robot position, gripper, object position
POS_WEIGHT = 1.0
GRIP_WEIGHT = 0.02
OBJ_WEIGHT = 1.0


class DemoLibrary:
    """A demo library packed once for retrieval, shared by its policies.

    Each packed array holds D demos by the longest demo's L steps, with the
    steps past a demo's end set to +inf so that they never match, and is
    read-only. Positions are packed as per-axis planes (3, D, L): summing
    squares plane by plane, (x*x + y*y) + z*z, takes the order in which
    np.sum adds the last axis of a (D, L, 3) array. Drawn chunks are cut
    from read-only per-demo rows, so a window inside a demo is a view.
    """

    def __init__(self, demos):
        demos = list(demos)
        if not demos:
            raise ConfigurationError("demo library must be non-empty")
        self.demos = demos
        self.lengths = [len(d.grippers) for d in demos]
        self.width = max(self.lengths)
        self.grippers = self._pack([np.asarray(d.grippers, dtype=float)
                                    for d in demos])
        self.flags = [_read_only(np.array(d.k, dtype=np.int8))
                      for d in demos]
        self.object_planes = self._pack([np.asarray(d.objects)[:, :3].T
                                         for d in demos])
        self._streams = {}

    def _pack(self, rows) -> np.ndarray:
        """Per-demo arrays (..., L_i) stacked as (..., D, L)."""
        out = np.full(rows[0].shape[:-1] + (len(rows), self.width), np.inf)
        for i, row in enumerate(rows):
            out[..., i, :row.shape[-1]] = row
        return _read_only(out)

    def stream(self, key: str):
        """The "reached" or "commanded" pose stream, packed on first use.

        Returns its position planes (3, D, L) and, per demo, the rows a
        chunk is cut from: positions (L_i, 3), orientations (L_i, 4),
        grippers and flags, each contiguous and read-only.
        """
        if key not in self._streams:
            poses = [np.asarray(getattr(d, key)) for d in self.demos]
            self._streams[key] = (
                self._pack([p[:, :3].T for p in poses]),
                [(_read_only(np.ascontiguousarray(p[:, :3])),
                  _read_only(np.ascontiguousarray(p[:, 3:7])),
                  self.grippers[i, :n], self.flags[i])
                 for i, (p, n) in enumerate(zip(poses, self.lengths))])
        return self._streams[key]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class MockPolicy:
    """Nearest-demonstration retrieval over a library of demos.

    Deterministic given its seed: every inference call derives its own RNG
    from (seed, call counter), so concurrent use of the returned chunks is
    safe and repeated runs produce identical sequences.

    ``library`` is a DemoLibrary packed from ``demos``, for policies that
    share one; it is packed here when not given.
    """

    def __init__(self, demos, config: PolicyConfig, seed: int = 0,
                 library: DemoLibrary | None = None):
        demos = list(demos)
        if library is None:
            library = DemoLibrary(demos)
        elif (len(library.demos) != len(demos)
              or any(a is not b for a, b in zip(library.demos, demos))):
            raise ConfigurationError("library was packed from other demos")
        self.demos = demos
        self.config = config
        self.seed = int(seed)
        self._calls = 0
        self._grip = library.grippers
        key = "reached" if config.target_mode == "reached" else "commanded"
        self._out_planes, self._rows = library.stream(key)
        # the reached positions are the robot's state feature
        self._pos_planes = library.stream("reached")[0]
        self._obj_planes = library.object_planes
        self._last_query = None
        self._last_dists = None
        self._last_rank = None

    def _rng(self) -> np.random.Generator:
        rng = np.random.default_rng((self.seed, self._calls))
        self._calls += 1
        return rng

    def _state_distances(self, obs) -> np.ndarray:
        """Weighted squared distances of obs to every demo state, (D, L).

        The read-only matrix of the last query is served again while the
        robot position, object position and gripper are the same floats.
        """
        q_pos = obs.robot.position.tolist()
        q_obj = obs.object_pose.position.tolist()
        q_grip = float(obs.gripper)
        query = (*q_pos, *q_obj, q_grip)
        if query == self._last_query:
            return self._last_dists
        # (POS_WEIGHT |dpos|^2 + GRIP_WEIGHT dgrip^2) + OBJ_WEIGHT |dobj|^2
        d = _squared_distances(self._pos_planes, q_pos)
        d *= POS_WEIGHT
        grip = self._grip - q_grip
        grip *= grip
        grip *= GRIP_WEIGHT
        d += grip
        obj = _squared_distances(self._obj_planes, q_obj)
        obj *= OBJ_WEIGHT
        d += obj
        d.setflags(write=False)
        self._last_query, self._last_dists = query, d
        self._last_rank = None
        return d

    def nearest_states(self, obs, k: int = 1) -> list[tuple[float, int, int]]:
        """(distance, demo, step) of the k demos nearest to obs, nearest first.

        Each demo is represented by its nearest state, the earliest one on
        a tie; demos at equal distance keep their library order. The
        ranking is kept with the last query's distance matrix.
        """
        dists = self._state_distances(obs)
        if self._last_rank is None:
            steps = np.argmin(dists, axis=1)
            best = np.take_along_axis(dists, steps[:, None], axis=1)[:, 0]
            self._last_rank = (steps, best,
                               np.argsort(best, kind="stable"), {})
        steps, best, order, nearest = self._last_rank
        if k not in nearest:
            nearest[k] = [(float(best[i]), int(i), int(steps[i]))
                          for i in order[:k]]
        return nearest[k].copy()

    def positions(self, demo_idx: int, steps) -> np.ndarray:
        """Output positions of one demo at the given steps, held at its end."""
        positions = self._rows[demo_idx][0]
        return positions[np.minimum(steps, len(positions) - 1)]

    def _extract(self, demo_idx: int, start: int, rng=None,
                 noise_sigma: float = 0.0) -> ActionChunk:
        """The chunk of h_p steps of one demo from ``start``, held at its end.

        A window inside the demo is cut as read-only views of its rows;
        only one that runs past the demo's last step is gathered.
        """
        positions, orientations, grippers, flags = self._rows[demo_idx]
        stop = start + self.config.h_p
        if 0 <= start and stop <= len(flags):
            positions = positions[start:stop]
            orientations = orientations[start:stop]
            grippers = grippers[start:stop]
            flags = flags[start:stop]
        else:
            idx = np.minimum(np.arange(start, stop), len(flags) - 1)
            positions = positions[idx]
            orientations = orientations[idx]
            grippers = grippers[idx]
            flags = flags[idx]
        if noise_sigma > 0.0 and rng is not None:
            positions = positions + rng.normal(0.0, noise_sigma,
                                               size=positions.shape)
        return ActionChunk(positions, orientations, grippers, flags)


def _pairwise_sum(term, n: int) -> np.ndarray:
    """term(0) + ... + term(n - 1), elementwise, in numpy's pairwise order.

    This is the order in which np.sum adds n contiguous float64 values:
    one after another below 8 values; up to 128 values, into 8 interleaved
    partial sums r0..r7, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5)
    + (r6 + r7)), and the last n % 8 one after another; above 128, the
    sums of two halves. Each ``term(i)`` is a new array, made when it is
    added, so that only a few are alive at once.
    """
    if n < 8:
        total = term(0)
        for i in range(1, n):
            total += term(i)
        return total
    if n > 128:
        half = n // 2 - (n // 2) % 8
        total = _pairwise_sum(term, half)
        total += _pairwise_sum(lambda i: term(half + i), n - half)
        return total
    blocked = n - n % 8
    total = _partial_sums(term, blocked, 0, 8)
    for i in range(blocked, n):
        total += term(i)
    return total


def _partial_sums(term, blocked: int, j: int, width: int) -> np.ndarray:
    """r_j + ... + r_(j + width - 1) as a balanced tree, where r_j sums
    term(j), term(j + 8), ... below ``blocked``."""
    if width == 1:
        total = term(j)
        for i in range(j + 8, blocked, 8):
            total += term(i)
        return total
    total = _partial_sums(term, blocked, j, width // 2)
    total += _partial_sums(term, blocked, j + width // 2, width // 2)
    return total


def _squares(a: np.ndarray) -> np.ndarray:
    a *= a
    return a


def _squared_distances(planes, point) -> np.ndarray:
    """(x*x + y*y) + z*z per element of the (3, ...) planes, from point."""
    return _pairwise_sum(lambda c: _squares(planes[c] - point[c]), 3)


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
    return policy._extract(*_best_window(policy, obs, tail))


def _best_window(policy: MockPolicy, obs, tail: ActionChunk):
    """(demo, start) of the lowest-scoring window, the first on a tie."""
    n_windows = policy._grip.shape[1] - policy.config.h_c + 1
    if n_windows < 1:  # no demo has h_c steps: every window scores +inf
        return 0, 0
    return divmod(int(np.argmin(_window_scores(policy, obs, tail))),
                  n_windows)


def _window_scores(policy: MockPolicy, obs, tail: ActionChunk) -> np.ndarray:
    """The score of window j of demo i, (D, L - h_c + 1).

    It is the sum of the 3 h_c squared position differences of the
    window's steps j .. j + h_c - 1 to the tail, in the order np.sum adds
    them as one contiguous row, plus GRIP_MATCH_WEIGHT times the sum of
    its h_c squared gripper differences, plus 0.01 times the state
    distance of step j. A window that runs into the +inf padding scores
    +inf. The sums run plane by plane over all windows at once.
    """
    h_c = policy.config.h_c
    n_windows = policy._grip.shape[1] - h_c + 1
    planes = policy._out_planes
    tail_pos = np.asarray(tail.positions[:h_c]).tolist()
    tail_grip = np.asarray(tail.grippers[:h_c]).tolist()

    def position_term(i):
        k, axis = divmod(i, 3)
        return _squares(planes[axis, :, k:k + n_windows] - tail_pos[k][axis])

    def grip_term(k):
        return _squares(policy._grip[:, k:k + n_windows] - tail_grip[k])

    scores = _pairwise_sum(position_term, 3 * h_c)
    grip = _pairwise_sum(grip_term, h_c)
    grip *= GRIP_MATCH_WEIGHT
    scores += grip
    scores += 0.01 * policy._state_distances(obs)[:, :n_windows]
    return scores


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
    # exp(w * rotvec(cond * conj(uncond))) * uncond on the columns of all
    # waypoints at once
    uu = _signed(uncond.orientations.T)
    rv = _rotvec(_hamilton(cond.orientations.T, uu, _CONJ))
    orientations = _normalise(_hamilton(_exp(w * rv), uu)).T.copy()
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
