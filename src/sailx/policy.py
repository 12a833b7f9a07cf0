"""Demonstration-retrieval mock policy with error-adaptive guidance.

The mock stands in for a generative action-chunk policy: it exposes an
unconditional draw (nearest-demonstration lookup with branch/noise
multimodality) and a conditional draw (retrieval re-ranked to continue a
given action tail). Error-adaptive guidance gates the conditional path on
the current tracking error and blends the two draws with the guidance
weight.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import Pose, tracking_error
from .errors import ConfigurationError, InvalidInputError
from .kernels import _CONJ, _exp, _hamilton, _normalise, _rotvec, _signed
from .sim import GRIPPER, OBJECT_POSITION, ROBOT_ORIENTATION, ROBOT_POSITION


@dataclass(frozen=True)
class ActionChunk:
    """A policy prediction: timed pose + gripper waypoints with critical flags.

    A drawn chunk's arrays may be read-only and shared with the demo
    library or with the other chunks of its batch, but for the positions
    of an unconditional draw, which are its own row of the batch's noise.
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


H_P = 32          # prediction horizon
H_C = 4           # conditioning length
W_CFG = 1.0       # guidance weight
RHO_POS = 0.02    # m, position tracking-error threshold
RHO_ORI = 0.05    # rad, orientation tracking-error threshold
NOISE_SIGMA = 0.002  # m, per-waypoint position noise of an unconditional draw


@dataclass(frozen=True)
class PolicyConfig:
    p_branch: float = 0.0      # probability of switching among nearest demos
    target_mode: str = "reached"  # or "commanded"

    def __post_init__(self):
        if not 0 <= self.p_branch <= 1:  # also refuses NaN
            raise ConfigurationError("require 0 <= p_branch <= 1")
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

    Conditional retrieval searches a k-d tree of the windows of one output
    stream (see window_tree), built on that stream's first conditional
    call: a library whose policies only draw unconditionally builds none.
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
        self._trees = {}

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

    def window_tree(self, key: str) -> "_WindowTree":
        """The tree of every window of the "reached" or "commanded" stream
        that lies inside its demo, built on first use.

        A window's features are its H_C positions, its H_C grippers and
        the state features of its first step (reached position, gripper,
        object position), in the order of the query _best_window makes,
        each with its weight in _window_scores. The windows that run into
        the +inf padding score +inf and are left out.
        """
        if key not in self._trees:
            n = self.width - H_C + 1
            out = self.stream(key)[0]
            state = zip((*self.stream("reached")[0], self.grippers,
                         *self.object_planes),
                        [POS_WEIGHT] * 3 + [GRIP_WEIGHT] + [OBJ_WEIGHT] * 3)
            # each feature's (D, L) plane, the window step it is read at
            # and its weight
            planes = ([(out[axis], k, 1.0)
                       for k in range(H_C) for axis in range(3)]
                      + [(self.grippers, k, GRIP_MATCH_WEIGHT)
                         for k in range(H_C)]
                      + [(plane, 0, STATE_MATCH_WEIGHT * w)
                         for plane, w in state])
            demo, start = np.nonzero(np.arange(n) + H_C
                                     <= np.array(self.lengths)[:, None])
            features = np.empty((len(demo), len(planes)))
            for c, (plane, k, _) in enumerate(planes):
                features[:, c] = plane[demo, start + k]
            self._trees[key] = _WindowTree(
                features, demo * n + start,
                np.array([w for *_, w in planes]))
        return self._trees[key]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# seeding many calls at once
#
# default_rng((seed, call)) hashes the key's uint32 words, the seed's low
# word first and then the call's, with numpy's SeedSequence, and seeds PCG64
# with four of the 64-bit words it generates. seed_ahead runs the same
# hashing on arrays, one column per key: SeedSequence's pool mixing and
# generate_state(4, uint64) (_seed_words64); the policy then runs PCG64's
# seeding step in Python ints (_seeded) when it draws. It covers seeds below
# 2**96 with calls below 2**32, the keys that fit the pool's 4 words and so
# skip SeedSequence's mixing of words past the pool.
# _draw_states then takes each key's branch draws from its raw PCG64 words
# and only its noise from a Generator.

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# each pool word is mixed into the 3 others
_OTHERS = [np.array([d for d in range(4) if d != s]) for s in range(4)]
_CYCLE = np.arange(8) % 4  # the pool word each generated word hashes


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0 .. n, as a uint32 column."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h, dtype=np.uint32)[:, None]


# one per hash: 4 to fill the pool and 3 for each of its 4 words mixed,
# then 8 generated words
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hash(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of row k of ``values`` with constants h[k], h[k+1]."""
    out = values ^ h[:-1]
    out *= h[1:]
    out ^= out >> _SHIFT
    return out


def _covered(seed: int, first: int, n: int) -> bool:
    """Whether _seed_words64 covers the keys (seed, first .. first + n - 1)."""
    return seed < 2**96 and first + n <= 2**32


def _seed_words(seed: int) -> list[int]:
    """The seed's uint32 words, low first; 0 is one word."""
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _MASK32)
    return words


def _seed_words64(seeds, first: int, n: int) -> np.ndarray:
    """The 4 uint64 words SeedSequence hands PCG64 as default_rng((seed,
    call)) seeds it, for each seed of the list ``seeds`` and, within a
    seed, each call in first .. first + n - 1, one column per key: the
    seed's high and low 64 bits, then the stream's; requires 0 <= seed <
    2**96 and first + n <= 2**32 (see _covered)."""
    words = [_seed_words(seed) for seed in seeds]
    # a key's pool: its seed's words, its call's word, then zeros
    pool = np.repeat(np.array([w + [0] * (4 - len(w)) for w in words],
                              dtype=np.uint32).T, n, axis=1)
    pool[np.repeat([len(w) for w in words], n),
         np.arange(len(seeds) * n)] = np.tile(
        np.arange(first, first + n, dtype=np.uint32), len(seeds))
    pool = _hash(pool, _HASH_A[:5])
    for s, others in enumerate(_OTHERS):
        k = 4 + 3 * s
        mixed = (_MIX_L * pool[others]
                 - _MIX_R * _hash(pool[s], _HASH_A[k:k + 4]))
        mixed ^= mixed >> _SHIFT
        pool[others] = mixed
    half = _hash(pool[_CYCLE], _HASH_B).astype(np.uint64)
    # little-endian uint32 pairs
    return half[1::2] << np.uint64(32) | half[0::2]


def _seeded(words64: np.ndarray) -> list[tuple[int, int]]:
    """PCG64's seeding step, in Python ints, on the columns of
    _seed_words64: each key's (state, inc)."""
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*words64.tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _xsl_rr(state: int) -> int:
    """The 64-bit word PCG64 outputs for a state: XSL-RR."""
    x = ((state >> 64) ^ state) & _MASK64
    rot = state >> 122
    return (x >> rot | x << (64 - rot)) & _MASK64


def _branch(rng: np.random.Generator, p_branch: float, eligible: int) -> int:
    """A draw's branch choice: with probability p_branch one of the
    ``eligible`` nearest demos, else the nearest; p_branch = 0 draws
    nothing."""
    if p_branch > 0.0 and rng.random() < p_branch:
        return int(rng.integers(0, eligible))
    return 0


def _draw_states(states, p_branch: float, eligible: int,
                 noise: np.ndarray) -> list[int]:
    """The branch choices of the keys whose PCG64 (state, inc) are
    ``states``, each key's standard normals written to its row of
    ``noise``: what _branch and standard_normal draw from a Generator set
    to the key's state.

    A key's branch draws come from its raw words w1, w2: random() is
    (w1 >> 11) * 2**-53, always below p_branch = 1, and integers(0,
    eligible) is Lemire's product of w2's low 32 bits with eligible
    (integers(0, 1) takes no word). One Generator is then set to the state
    after those words for the key's noise, so a key costs one state set
    and one standard_normal call. A key whose product falls in Lemire's
    resample zone (its low half below eligible) draws on the Generator
    instead, from its seeded state.
    """
    bits = np.random.PCG64(0)  # its state is replaced before each key
    rng = np.random.Generator(bits)
    # the state setter reads this one dict, updated for each key
    key = {"state": 0, "inc": 0}
    value = {"bit_generator": "PCG64", "state": key,
             "has_uint32": 0, "uinteger": 0}
    choices = []
    for row, (seeded, inc) in zip(noise, states):
        state, choice = seeded, 0
        if p_branch > 0.0:
            state = (state * _PCG64_MULT + inc) & _MASK128
            if eligible > 1 and (p_branch == 1.0 or
                                 (_xsl_rr(state) >> 11) * 2**-53 < p_branch):
                state = (state * _PCG64_MULT + inc) & _MASK128
                product = (_xsl_rr(state) & _MASK32) * eligible
                if product & _MASK32 < eligible:
                    key["state"], key["inc"] = seeded, inc
                    bits.state = value
                    choices.append(_branch(rng, p_branch, eligible))
                    rng.standard_normal(out=row)
                    continue
                choice = product >> 32
        key["state"], key["inc"] = state, inc
        bits.state = value
        rng.standard_normal(out=row)
        choices.append(choice)
    return choices


def _draw_keys(seed: int, first: int, n: int, p_branch: float,
               eligible: int, states=None) -> tuple[list[int], np.ndarray]:
    """The branch choices and (n, H_P, 3) standard normals of the keys
    (seed, first) .. (seed, first + n - 1), with default_rng's bits.

    ``states``, when given, are the keys' PCG64 (state, inc), seeded from
    the words seed_ahead left, and the keys draw through _draw_states;
    otherwise each key gets its own default_rng.
    """
    noise = np.empty((n, H_P, 3))
    if states is not None:
        return _draw_states(states, p_branch, eligible, noise), noise
    choices = []
    for row, call in zip(noise, range(first, first + n)):
        rng = np.random.default_rng((seed, call))
        choices.append(_branch(rng, p_branch, eligible))
        rng.standard_normal(out=row)
    return choices, noise


def seed_ahead(policies, n: int) -> None:
    """Seed the next n draws of every policy together.

    This is the one place that hashes keys in a batch: the keys of all
    policies on one call counter are hashed in one vectorised pass
    (_seed_words64), and each policy keeps its own n columns of words,
    seeded when it draws, for its next batch if that batch is exactly n
    draws; any other draw, and a policy whose keys _seed_words64 does not
    cover (see _covered), gets a default_rng per key.
    """
    groups = {}
    for policy in policies:
        if _covered(policy.seed, policy._calls, n):
            groups.setdefault(policy._calls, []).append(policy)
    for first, group in groups.items():
        words64 = _seed_words64([p.seed for p in group], first, n)
        for i, policy in enumerate(group):
            policy._ahead = words64[:, i * n:(i + 1) * n]


class MockPolicy:
    """Nearest-demonstration retrieval over a library of demos.

    Deterministic given its seed, which must be >= 0: every drawn chunk
    derives its own RNG from (seed, call counter), so concurrent use of the
    returned chunks is safe and repeated runs produce identical sequences.
    ``infer_unconditional(..., size=n)`` draws n chunks in one call,
    advancing the counter by n, with the chunks n single calls would give:
    their noise fills one (n, H_P, 3) buffer, and each chunk's positions
    are one row of it. A batch that seed_ahead seeded takes its branch
    draws from raw PCG64 words; any other draw gets a default_rng per key.

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
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        self._calls = 0
        self._ahead = None  # words of the next calls, from seed_ahead
        self._grip = library.grippers
        key = "reached" if config.target_mode == "reached" else "commanded"
        self._library, self._out_key = library, key
        self._out_planes, self._rows = library.stream(key)
        # the reached positions are the robot's state feature
        self._pos_planes = library.stream("reached")[0]
        self._obj_planes = library.object_planes
        self._last_query = None
        self._last_dists = None
        self._last_rank = None

    def _draws(self, n: int, p_branch: float, eligible: int):
        """The branch choices and standard normals of the next n calls
        (see _draw_keys), from the words seed_ahead left when it left
        exactly n; the counter advances by n, and any words left are
        dropped, since they are for calls now taken."""
        first = self._calls
        self._calls += n
        ahead, self._ahead = self._ahead, None
        states = None
        if ahead is not None and ahead.shape[1] == n:
            states = _seeded(ahead)
        return _draw_keys(self.seed, first, n, p_branch, eligible, states)

    def _state_query(self, obs) -> tuple[list, list, float]:
        """The robot position, object position and gripper of the packed
        plant state ``obs``, the state retrieval matches; raises
        InvalidInputError unless all 7 are finite."""
        q_pos = obs[ROBOT_POSITION].tolist()
        q_obj = obs[OBJECT_POSITION].tolist()
        q_grip = float(obs[GRIPPER])
        if not all(map(math.isfinite, (*q_pos, *q_obj, q_grip))):
            raise InvalidInputError("retrieval state must be finite")
        return q_pos, q_obj, q_grip

    def _state_distances(self, obs) -> np.ndarray:
        """Weighted squared distances of the packed plant state ``obs``
        to every demo state, (D, L).

        The read-only matrix of the last query is served again while the
        robot position, object position and gripper are the same floats.
        """
        q_pos, q_obj, q_grip = self._state_query(obs)
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

    def _window(self, demo_idx: int, start: int):
        """The rows of H_P steps of one demo from ``start``, held at its end:
        positions, orientations, grippers and flags.

        A window inside the demo is cut as read-only views of its rows;
        only one that runs past the demo's last step is gathered, and is
        read-only too, since the chunks of a batch share their window.
        """
        positions, orientations, grippers, flags = self._rows[demo_idx]
        stop = start + H_P
        if 0 <= start and stop <= len(flags):
            return (positions[start:stop], orientations[start:stop],
                    grippers[start:stop], flags[start:stop])
        idx = np.minimum(np.arange(start, stop), len(flags) - 1)
        return (_read_only(positions[idx]), _read_only(orientations[idx]),
                _read_only(grippers[idx]), _read_only(flags[idx]))

    def _chunk(self, positions, orientations, grippers, flags) -> ActionChunk:
        """The chunk a policy hands out for these rows."""
        return ActionChunk(positions, orientations, grippers, flags)

    def _extract(self, demo_idx: int, start: int) -> ActionChunk:
        """The chunk of one demo's window from ``start`` (see _window)."""
        return self._chunk(*self._window(demo_idx, start))


def _pairwise_sum(term, n: int) -> np.ndarray:
    """term(0) + ... + term(n - 1), elementwise, for n < 16, in the order
    in which np.sum adds n contiguous float64 values.

    Below 8 terms it adds them in turn. From 8 it adds the first 8 as a
    balanced tree, ((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)), and
    then the rest in turn. Each ``term(i)`` is a new array, made when it is
    added, so that only a few are alive at once.
    """
    first = 8 if n >= 8 else 1
    total = _tree_sum(term, 0, first)
    for i in range(first, n):
        total += term(i)
    return total


def _tree_sum(term, j: int, width: int) -> np.ndarray:
    """term(j) + ... + term(j + width - 1) as a balanced tree, for a width
    that is a power of 2."""
    if width == 1:
        return term(j)
    total = _tree_sum(term, j, width // 2)
    total += _tree_sum(term, j + width // 2, width // 2)
    return total


def _squares(a: np.ndarray) -> np.ndarray:
    a *= a
    return a


def _squared_distances(planes, point) -> np.ndarray:
    """(x*x + y*y) + z*z per element of the (3, ...) planes, from point."""
    return _pairwise_sum(lambda c: _squares(planes[c] - point[c]), 3)


BRANCH_SLACK = 0.02  # m-equivalent; demos eligible for branch switching
BRANCH_CANDIDATES = 3  # nearest demos a branch switch may pick from


def infer_unconditional(policy: MockPolicy, obs, delay_steps: int = 0,
                        size: int | None = None
                        ) -> ActionChunk | list[ActionChunk]:
    """Unconditional draw: nearest demo state, optional branch + noise.

    Branching models retrieval multimodality: with probability p_branch the
    draw switches to one of the nearest demos whose best state distance is
    within BRANCH_SLACK of the minimum, so alternatives are genuinely
    plausible continuations rather than detours.

    ``size`` follows numpy's Generator: None returns one chunk, and n
    returns a list of n chunks, the ones n successive single calls would
    give; a single draw is a batch of one. The nearest states and the
    eligible branches are found once for all n. Each draw keeps the bits
    of default_rng((seed, call)): a batch that seed_ahead seeded takes its
    branch draws from the raw PCG64 words of its keys, and any other draw
    gets its own default_rng (see _draw_keys). The batch's noise fills one
    (n, H_P, 3) buffer, which is scaled once and gets each draw's window
    added in one indexed add, so chunk i's positions are row i of it; its
    orientations, grippers and flags are its window's (see
    MockPolicy._window).
    """
    if size is not None and size < 0:
        raise InvalidInputError(f"size must be >= 0, got {size}")
    n = 1 if size is None else size
    best = policy.nearest_states(obs, BRANCH_CANDIDATES)
    p_branch, eligible = 0.0, 1
    if policy.config.p_branch > 0.0 and len(best) > 1:
        p_branch = policy.config.p_branch
        cutoff = best[0][0] + BRANCH_SLACK ** 2
        eligible = sum(1 for b in best if b[0] <= cutoff)
    # each draw reads, in key order, its branch draws and then H_P x 3
    # standard normals into its row of one buffer; normal(0.0, s) returns
    # 0.0 + s * z, so scaling the buffer and adding 0.0 (which turns -0.0
    # into +0.0) gives the bits rng.normal would
    choices, noise = policy._draws(n, p_branch, eligible)
    noise *= NOISE_SIGMA
    noise += 0.0
    # the windows drawn, each gathered once
    windows = [None] * eligible
    positions = np.empty((eligible, H_P, 3))
    for c in set(choices):
        _, demo_idx, step = best[c]
        windows[c] = policy._window(demo_idx, step + 1 + delay_steps)
        positions[c] = windows[c][0]
    noise += positions.take(choices, axis=0)
    chunks = [policy._chunk(row, *windows[c][1:])
              for row, c in zip(noise, choices)]
    return chunks[0] if size is None else chunks


GRIP_MATCH_WEIGHT = 0.01  # m^2 per mismatched gripper step in window scores
STATE_MATCH_WEIGHT = 0.01  # weight of the state distance in window scores


# The tree's margin. Let S be a window's score as _window_scores rounds
# it, T the same sum in exact arithmetic, and u = 2**-53; the bounds are
# to first order in u.
# - Each of T's 4 H_C + 7 terms is a weighted square >= 0 that takes at
#   most 24 roundings (a difference, a square, a weight, and the adds of
#   _pairwise_sum and of the state distance), so sqrt(S) is sqrt(T)
#   within 12 u.
# - The tree holds A = fl(c a), the features a scaled by c = fl(sqrt(w))
#   (c**2 is w within 3 u), and the query Q = fl(c q). A - Q = c (a - q)
#   + E, where E, the rounding of the two products, is absolute: |E| <=
#   u (|A| + |Q|) however small a - q is. So D = |A - Q| is sqrt(S)
#   within 14 u relative, plus u (reach + |Q|), reach the largest |A|.
# - The distance r the tree returns for a window is its D within 14 u:
#   25 roundings of the squares and adds, halved by the square root, and
#   the root's own.
# - The tree passes over a window only when a squared distance bound of
#   it exceeds the second-nearest r2**2 it holds: a partial sum of its
#   squares in a leaf, or the bound of a box, which is updated by a
#   difference and an add per level, 2 u relative per level. A tree of n
#   windows is less than n levels deep (a split leaves windows on both
#   sides), so every window but the nearest has D >= r2 within
#   (15 + 2 n) u.
# Doubling these, with eta = (64 + 4 n) u and eps = 8 u, every window but
# the nearest has sqrt(S) >= (1 - eta) r2 - eps (reach + |Q|), and the
# nearest sqrt(S) <= (1 + eta) r1 + eps (reach + |Q|). So the nearest has
# the one lowest score when
#     (1 - eta) r2 - (1 + eta) r1 > 2 eps (reach + |Q|).
# Anything else (ties, near-ties, an overflow to inf or NaN) falls back on
# the full scan.
_U = 2.0 ** -53
_EPS = 8 * _U


class _WindowTree:
    """A k-d tree of window features (see DemoLibrary.window_tree) that
    answers only when its nearest window has the one lowest score."""

    def __init__(self, features: np.ndarray, windows: np.ndarray,
                 weights: np.ndarray):
        """``features`` (one row per window, at least one; the windows'
        flat indices are ``windows``) are scaled in place by the square
        roots of ``weights`` and kept as the tree's data, their one
        copy."""
        self.scales = np.sqrt(weights)
        features *= self.scales
        # 5,600 windows build in 1.2 ms so, against 2.0 ms with the
        # defaults, and a query costs the same at leaf sizes 8 to 256
        # (2-core x86-64 VM)
        self.tree = cKDTree(features, leafsize=32, balanced_tree=False,
                            compact_nodes=False)
        self.windows = windows
        self.eta = (64 + 4 * len(windows)) * _U
        self.reach = math.sqrt(np.max(np.einsum("ij,ij->i", features,
                                                features)))

    def nearest(self, query: np.ndarray) -> int | None:
        """The flat (D, L - H_C + 1) index of the window of the lowest
        score for the unscaled features ``query``, scaled in place, or
        None when the margin cannot tell it from the second nearest."""
        query *= self.scales
        (r1, r2), (i, _) = self.tree.query(query, k=2)
        slack = 2 * _EPS * (self.reach + math.sqrt(query @ query))
        if (1.0 - self.eta) * r2 - (1.0 + self.eta) * r1 > slack:
            return int(self.windows[i])
        return None


def infer_conditional(policy: MockPolicy, obs, tail: ActionChunk) -> ActionChunk:
    """Conditional draw: retrieval re-ranked to continue the given tail.

    Candidate windows across all demos are scored by position and gripper
    distance of their first H_C steps to the tail, with a small
    state-distance tiebreak; the gripper term disambiguates spatially
    overlapping phases (e.g. the approach descent and the post-grasp lift
    traverse the same region with opposite gripper states). The returned
    chunk starts at the best-matching window, the first in library order
    on a tie, so its first H_C waypoints continue the tail. The window is
    looked up in the library's k-d tree of the output stream, built on
    the first conditional call, and found by a full scan of the scores
    only when the tree's two nearest windows are too close to tell apart
    (see _best_window). The tail's positions and grippers, and the state
    read from ``obs``, must be finite.
    """
    return policy._extract(*_best_window(policy, obs, tail))


def _best_window(policy: MockPolicy, obs, tail: ActionChunk):
    """(demo, start) of the lowest-scoring window, the first on a tie.

    One k=2 query of the library's window tree answers when the second
    nearest window is farther than the nearest by more than the rounding
    margin derived above _WindowTree; otherwise (ties from duplicated demos,
    near-ties) the argmin of _window_scores, the one exact scorer, does.
    Raises InvalidInputError on a tail of fewer than H_C waypoints, and
    on a tail or state that is not finite, which the tree would answer
    with an index past its windows.
    """
    tail_pos = np.asarray(tail.positions[:H_C], dtype=float)
    tail_grip = np.asarray(tail.grippers[:H_C], dtype=float)
    if tail_pos.shape != (H_C, 3) or tail_grip.shape != (H_C,):
        raise InvalidInputError(f"conditioning tail needs {H_C} waypoints")
    if not (np.isfinite(tail_pos).all() and np.isfinite(tail_grip).all()):
        raise InvalidInputError("conditioning tail must be finite")
    q_pos, q_obj, q_grip = policy._state_query(obs)
    n_windows = policy._grip.shape[1] - H_C + 1
    if n_windows < 1:  # no demo has H_C steps: every window scores +inf
        return 0, 0
    query = np.concatenate([tail_pos.ravel(), tail_grip,
                            [*q_pos, q_grip, *q_obj]])
    best = policy._library.window_tree(policy._out_key).nearest(query)
    if best is None:
        best = int(np.argmin(_window_scores(policy, obs, tail)))
    return divmod(best, n_windows)


def _window_scores(policy: MockPolicy, obs, tail: ActionChunk) -> np.ndarray:
    """The score of window j of demo i, (D, L - H_C + 1).

    It is the sum of the 3 H_C squared position differences of the
    window's steps j .. j + H_C - 1 to the tail, in the order np.sum adds
    them as one contiguous row, plus GRIP_MATCH_WEIGHT times the sum of
    its H_C squared gripper differences, plus STATE_MATCH_WEIGHT times the
    state distance of step j. A window that runs into the +inf padding scores
    +inf. The sums run plane by plane over all windows at once.
    """
    n_windows = policy._grip.shape[1] - H_C + 1
    planes = policy._out_planes
    tail_pos = np.asarray(tail.positions[:H_C]).tolist()
    tail_grip = np.asarray(tail.grippers[:H_C]).tolist()

    def position_term(i):
        k, axis = divmod(i, 3)
        return _squares(planes[axis, :, k:k + n_windows] - tail_pos[k][axis])

    def grip_term(k):
        return _squares(policy._grip[:, k:k + n_windows] - tail_grip[k])

    scores = _pairwise_sum(position_term, 3 * H_C)
    grip = _pairwise_sum(grip_term, H_C)
    grip *= GRIP_MATCH_WEIGHT
    scores += grip
    scores += STATE_MATCH_WEIGHT * policy._state_distances(obs)[:, :n_windows]
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
              current_desired: Pose, delay_steps: int = 0, *,
              exec_offset: int) -> tuple[ActionChunk, bool]:
    """Error-adaptive guidance: gate conditioning on the tracking error.

    If the tracking error of the robot pose in ``obs``, the packed plant
    state, from ``current_desired`` exceeds either threshold (RHO_POS,
    RHO_ORI), the conditioning tail from the superseded plan is considered
    unreliable and only the unconditional draw is used (guidance_applied =
    False). Otherwise the conditional draw continuing
    prev_chunk[off : off + H_C] is blended in with weight W_CFG, where off
    is exec_offset, the number of waypoints of the previous chunk that will
    have been consumed when the new one arrives. At W_CFG = 1 the blend
    returns the conditional draw.
    """
    off = int(exec_offset)
    if len(prev_chunk) < off + H_C:
        raise InvalidInputError("previous chunk too short for a conditioning tail")
    err = tracking_error(current_desired, obs[ROBOT_POSITION],
                         obs[ROBOT_ORIENTATION])
    uncond = infer_unconditional(policy, obs, delay_steps=delay_steps)
    if err.e_pos > RHO_POS or err.e_ori > RHO_ORI:
        return uncond, False
    tail = prev_chunk.segment(off, off + H_C)
    cond = infer_conditional(policy, obs, tail)
    return cfg_blend(uncond, cond, W_CFG), True
