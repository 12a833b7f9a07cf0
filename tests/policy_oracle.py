"""Reference retrieval: the per-demo loops that ``sailx.policy`` vectorises.

These are the state-distance, nearest-state, unconditional and conditional
retrieval loops the packed demo library was written from, kept unchanged
so tests can require the vectorised draws to reproduce them bit for bit.
``OraclePolicy`` holds the library as per-demo arrays, as ``MockPolicy``
did before it packed them. ``PackedOracle`` is the packed library and
full window scoring the per-axis planes replaced. ``blend_orientations``
is the per-waypoint loop ``policy.cfg_blend`` formed its orientations with.
The loops read the policy's ``H_P``, ``H_C`` and ``NOISE_SIGMA`` from
``sailx.policy`` when they run, so a test that patches them patches both.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sailx import policy as sailx_policy
from sailx.baselines import aggregate_chunk
from sailx.policy import (BRANCH_SLACK, GRIP_MATCH_WEIGHT, GRIP_WEIGHT,
                          OBJ_WEIGHT, POS_WEIGHT, ActionChunk)

from plant_oracle import (quat_from_rotvec, quat_mul, quat_normalize,
                          rotvec_between)


class OraclePolicy:
    """Nearest-demonstration retrieval over per-demo arrays."""

    def __init__(self, demos, config, seed: int = 0):
        demos = list(demos)
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
        q_pos = obs[0:3]
        q_obj = obs[14:17]
        q_grip = obs[13]
        per_demo = []
        for pos, obj, grip in zip(self._feat_pos, self._feat_obj, self._grip):
            d = (POS_WEIGHT * np.sum((pos - q_pos) ** 2, axis=1)
                 + GRIP_WEIGHT * (grip - q_grip) ** 2
                 + OBJ_WEIGHT * np.sum((obj - q_obj) ** 2, axis=1))
            per_demo.append(d)
        return per_demo

    def _extract(self, demo_idx: int, start: int, rng=None) -> ActionChunk:
        h = sailx_policy.H_P
        pos_src = self._out_pos[demo_idx]
        n = len(pos_src)
        idx = np.minimum(np.arange(start, start + h), n - 1)
        positions = pos_src[idx].copy()
        if rng is not None:
            positions += rng.normal(0.0, sailx_policy.NOISE_SIGMA,
                                    size=positions.shape)
        return ActionChunk(positions, self._out_quat[demo_idx][idx].copy(),
                           self._grip[demo_idx][idx].copy(),
                           self._flags[demo_idx][idx].copy())


class OracleAggregatedPolicy(OraclePolicy):
    """OraclePolicy whose every drawn chunk is delta-aggregated."""

    def _extract(self, demo_idx, start, rng=None):
        return aggregate_chunk(super()._extract(demo_idx, start, rng))


def nearest_match(policy: OraclePolicy, obs):
    """(distance, demo, step) of the demo state nearest to obs."""
    dists = policy._state_distances(obs)
    return min((float(np.min(d)), i, int(np.argmin(d)))
               for i, d in enumerate(dists))


def infer_unconditional(policy: OraclePolicy, obs,
                        delay_steps: int = 0) -> ActionChunk:
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
    return policy._extract(demo_idx, start, rng=rng)


def infer_conditional(policy: OraclePolicy, obs,
                      tail: ActionChunk) -> ActionChunk:
    h_c = sailx_policy.H_C
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


class PackedOracle:
    """The packed library and the full window scoring of ``MockPolicy``
    before it kept per-axis planes and shared one ``DemoLibrary``.

    Arrays are (D, L, ...) with L the longest demo's steps, at least h_c,
    padded with +inf. ``state_distances`` sums each (D, L, 3) block over
    its last axis, and ``window_scores`` scores every window of every demo
    in blocks, each window's 3 h_c squared position differences summed as
    one contiguous row.
    """

    WINDOW_BLOCK = 16384  # window elements scored at once

    def __init__(self, demos, config):
        self.config = config
        key = "reached" if config.target_mode == "reached" else "commanded"
        self._lengths = [len(d.grippers) for d in demos]
        width = max(max(self._lengths), sailx_policy.H_C)

        def pack(rows):
            out = np.full((len(demos), width) + rows[0].shape[1:], np.inf)
            for i, row in enumerate(rows):
                out[i, :len(row)] = row
            out.setflags(write=False)
            return out

        self._feat_pos = pack([np.asarray(d.reached)[:, :3] for d in demos])
        self._grip = pack([np.asarray(d.grippers, dtype=float) for d in demos])
        self._feat_obj = pack([np.asarray(d.objects)[:, :3] for d in demos])
        self._out_pos = (self._feat_pos if key == "reached" else
                         pack([np.asarray(d.commanded)[:, :3] for d in demos]))

    def state_distances(self, obs) -> np.ndarray:
        q_pos = obs[0:3]
        q_obj = obs[14:17]
        q_grip = obs[13]
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
        return d

    def window_scores(self, obs, tail) -> np.ndarray:
        h_c = sailx_policy.H_C
        tail_pos = np.asarray(tail.positions[:h_c]).reshape(-1)
        tail_grip = np.asarray(tail.grippers[:h_c])
        n_demos, width = self._grip.shape
        pos_windows = sliding_window_view(
            self._out_pos.reshape(n_demos, 3 * width), 3 * h_c, axis=1)[:, ::3]
        grip_windows = sliding_window_view(self._grip, h_c, axis=1)
        n_windows = width - h_c + 1
        scores = np.empty((n_demos, n_windows))
        rows = max(1, self.WINDOW_BLOCK // (n_windows * 3 * h_c))
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
        scores += 0.01 * self.state_distances(obs)[:, :n_windows]
        return scores

    def best_window(self, obs, tail) -> tuple[int, int]:
        """(demo, start) of the window the conditional draw continues."""
        scores = self.window_scores(obs, tail)
        return divmod(int(np.argmin(scores)), scores.shape[1])


def blend_orientations(uncond: ActionChunk, cond: ActionChunk,
                       w: float) -> np.ndarray:
    """``cfg_blend``'s orientations, one waypoint at a time."""
    orientations = np.empty_like(uncond.orientations)
    for i in range(len(uncond)):
        rv = rotvec_between(uncond.orientations[i], cond.orientations[i])
        orientations[i] = quat_normalize(
            quat_mul(quat_from_rotvec(w * rv), uncond.orientations[i]))
    return orientations
