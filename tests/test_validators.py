"""Every validator rejects NaN and inf with the package's own error types.

The lockstep plant takes per-row gain arrays, so a non-finite gain or
waypoint must not get past construction.
The ``hypothesis`` properties cover ``Pose``, ``ReferenceTrack``,
``Demonstration`` and ``read_demo`` over arbitrary positions of the bad
value.
"""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sailx.controller import GainProfile, ReferenceTrack
from sailx.core import IDENTITY_QUAT, Pose
from sailx.errors import ConfigurationError, InvalidInputError, ParseError
from sailx import experiments
from sailx.experiments import replay_rollout, sweep_gain_replay, sweep_noise
from sailx.io import Demonstration, read_demo, write_demo
from sailx.policy import (H_C, ActionChunk, MockPolicy, PolicyConfig,
                          infer_conditional, infer_unconditional)
from sailx.scheduler import ExecutorConfig
from sailx.sim import (GRIPPER, OBJECT_POSITION, ROBOT_POSITION, TaskSpec,
                       initial_world)
from sailx.speedmod import dbscan, extract_waypoints

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[
                        HealthCheck.too_slow,
                        HealthCheck.function_scoped_fixture])

BAD = (np.nan, np.inf, -np.inf)
_bad = st.sampled_from(BAD)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("slot", range(4))
def test_gain_profile_rejects_non_finite_gains(slot, bad):
    gains = [100.0, 20.0, 100.0, 20.0]
    gains[slot] = bad
    with pytest.raises(InvalidInputError):
        GainProfile(*gains)


@pytest.mark.parametrize("kwargs", [
    dict(p_branch=np.nan), dict(p_branch=np.inf), dict(p_branch=-np.inf),
    dict(p_branch=2.0), dict(p_branch=-0.5),
    dict(p_branch=np.nextafter(1.0, np.inf)),
    dict(p_branch=np.nextafter(0.0, -np.inf)), dict(target_mode="bogus")])
def test_policy_config_rejects_non_finite_or_out_of_range_values(kwargs):
    with pytest.raises(ConfigurationError):
        PolicyConfig(**kwargs)
    # the range ends stay valid, the floats next to them outside do not
    PolicyConfig(p_branch=0.0)
    PolicyConfig(p_branch=1.0)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("field", ["tau", "eps"])
def test_label_params_reject_non_finite_values(field, bad):
    """The labelling parameters are arguments of the two algorithms."""
    points = np.linspace([0.0, 0.0, 0.0], [0.1, 0.0, 0.0], 5)
    with pytest.raises(InvalidInputError):
        if field == "tau":
            extract_waypoints(points, bad)
        else:
            dbscan(points, bad, 4)


@pytest.mark.parametrize("bad", BAD)
def test_task_spec_rejects_a_non_finite_goal(bad):
    with pytest.raises(ConfigurationError):
        TaskSpec(Pose(np.zeros(3)), np.array([0.3, bad, 0.02]))


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("field", ["c_slow", "c_fast"])
def test_executor_config_rejects_non_finite_values(field, bad):
    with pytest.raises(ConfigurationError):
        ExecutorConfig(**{field: bad})


@pytest.mark.parametrize("scale", [-0.01, np.nan, np.inf])
def test_sweep_noise_rejects_a_negative_or_non_finite_scale(demos20, scale):
    with pytest.raises(InvalidInputError, match="noise scales"):
        sweep_noise(demos20[:2], scales=(0.0, scale), trials=2)


@pytest.mark.parametrize("scale", [-0.01, -1e-300, np.nan, np.inf])
def test_replay_rollout_rejects_a_negative_or_non_finite_noise_scale(
        demos20, scale):
    with pytest.raises(InvalidInputError, match="noise scales"):
        replay_rollout(demos20[0], noise_scale=scale)


@pytest.mark.parametrize("run", [
    lambda demos: replay_rollout(demos[0], gains="bogus"),
    lambda demos: sweep_gain_replay(demos[:2], c_values=(1.0,),
                                    gains=("high", "bogus")),
    lambda demos: sweep_noise(demos[:2], scales=(0.0,), gains=("bogus",),
                              trials=2),
], ids=["replay_rollout", "sweep_gain_replay", "sweep_noise"])
def test_replays_reject_an_unknown_gain_preset(demos20, run):
    with pytest.raises(InvalidInputError, match="unknown gain preset 'bogus'"):
        run(demos20)


BAD_SPEEDUPS = [0.0, -0.5, np.nan, np.inf]


@pytest.fixture()
def no_replays(monkeypatch):
    """Every replay set-up fails the test: a bad argument must raise
    before any replay is set up."""
    def refuse(*args, **kwargs):
        raise AssertionError("a replay ran")

    monkeypatch.setattr(experiments, "_replay_setup", refuse)


def test_replay_rollout_rejects_an_unknown_target(demos20):
    with pytest.raises(InvalidInputError, match="'bogus'"):
        replay_rollout(demos20[0], target="bogus")


def test_sweep_gain_replay_checks_every_target_first(demos20, no_replays):
    with pytest.raises(InvalidInputError, match="'reach'"):
        sweep_gain_replay(demos20[:2], c_values=(1.0,),
                          targets=("reached", "reach"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", BAD_SPEEDUPS)
def test_replay_rollout_rejects_a_speedup_not_finite_and_positive(demos20,
                                                                 c):
    with pytest.raises(InvalidInputError, match=f"c={c:g}"):
        replay_rollout(demos20[0], c=c)


@pytest.mark.parametrize("c", BAD_SPEEDUPS)
def test_sweep_gain_replay_checks_every_speedup_first(demos20, no_replays,
                                                      c):
    with pytest.raises(InvalidInputError, match=f"c={c:g}"):
        sweep_gain_replay(demos20[:2], c_values=(1.0, c))


def _waypoints(n=3):
    return (np.arange(n) * 0.5, np.zeros((n, 3)),
            np.tile(IDENTITY_QUAT, (n, 1)), np.zeros(n))


@pytest.mark.parametrize("which", [1, 2, 3])
@pytest.mark.parametrize("bad", BAD)
def test_reference_track_rejects_non_finite_waypoints(which, bad):
    args = list(_waypoints())
    args[which][1] = bad  # a whole row for positions and orientations
    with pytest.raises(InvalidInputError):
        ReferenceTrack(*args)


def test_reference_track_rejects_an_all_zero_quaternion():
    times, positions, orientations, grippers = _waypoints()
    orientations[2] = 0.0
    with pytest.raises(InvalidInputError, match="orientations"):
        ReferenceTrack(times, positions, orientations, grippers)


def _demo_fields(n=3):
    """The fields of a valid Demonstration of n steps."""
    rng = np.random.default_rng(n)
    return dict(dt=0.05, commanded=rng.normal(size=(n, 7)),
                reached=rng.normal(size=(n, 7)), grippers=rng.uniform(size=n),
                k=np.zeros(n), objects=rng.normal(size=(n, 7)),
                object_start=rng.normal(size=7), goal=rng.normal(size=3))


@pytest.mark.parametrize("dt", [0.0, -0.05, *BAD])
def test_demonstration_rejects_a_dt_not_finite_and_positive(dt):
    with pytest.raises(InvalidInputError, match="dt"):
        Demonstration(**{**_demo_fields(), "dt": dt})


def test_a_demonstration_keeps_read_only_copies_of_its_arrays():
    fields = _demo_fields()
    demo = Demonstration(**fields)
    for name in ("commanded", "reached", "grippers", "k", "objects",
                 "object_start", "goal"):
        values = getattr(demo, name)
        assert not np.shares_memory(values, fields[name])
        with pytest.raises(ValueError, match="read-only"):
            values.reshape(-1)[0] = np.nan
    # the caller's arrays stay writable and apart from the demo's
    before = demo.reached.copy()
    fields["reached"][1, 2] = np.nan
    assert demo.reached.tobytes() == before.tobytes()


def _retrieval_query(demo, step=5):
    """The packed plant state at a demo step, and the tail of its window."""
    obs = initial_world(Pose(demo.reached[step, :3]),
                        TaskSpec(Pose(demo.objects[step, :3]), np.zeros(3)))
    obs[GRIPPER] = demo.grippers[step]
    steps = slice(step, step + H_C)
    tail = ActionChunk(demo.reached[steps, :3].copy(),
                       demo.reached[steps, 3:7], demo.grippers[steps].copy(),
                       demo.k[steps])
    return obs, tail


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("where", ["tail_position", "tail_gripper",
                                   "robot_position", "object_position",
                                   "gripper"])
@pytest.mark.parametrize("mode", ["reached", "commanded"])
def test_a_conditional_draw_rejects_a_non_finite_query(demos20, mode, where,
                                                       bad):
    policy = MockPolicy(demos20[:6], PolicyConfig(target_mode=mode))
    obs, tail = _retrieval_query(demos20[2])
    if where == "tail_position":
        tail.positions[1, 2] = bad
    elif where == "tail_gripper":
        tail.grippers[H_C - 1] = bad
    else:
        slot = {"robot_position": ROBOT_POSITION,
                "object_position": OBJECT_POSITION, "gripper": GRIPPER}[where]
        obs[np.arange(len(obs))[slot].reshape(-1)[0]] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        infer_conditional(policy, obs, tail)


def test_a_conditional_draw_rejects_a_short_tail(demos20):
    policy = MockPolicy(demos20[:6], PolicyConfig())
    obs, tail = _retrieval_query(demos20[2])
    with pytest.raises(InvalidInputError, match=f"{H_C} waypoints"):
        infer_conditional(policy, obs, tail.segment(0, H_C - 1))


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("slot", [ROBOT_POSITION, OBJECT_POSITION, GRIPPER])
def test_an_unconditional_draw_rejects_a_non_finite_state(demos20, slot, bad):
    policy = MockPolicy(demos20[:6], PolicyConfig())
    obs, _ = _retrieval_query(demos20[2])
    obs[np.arange(len(obs))[slot].reshape(-1)[-1]] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        infer_unconditional(policy, obs)
    assert policy._calls == 0


# ---------------------------------------------------------------------------
# properties

_coord = st.floats(-10.0, 10.0)
_quat = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: np.array(v)
                                           / np.linalg.norm(v))


@SETTINGS
@given(st.lists(_coord, min_size=3, max_size=3), _quat,
       st.integers(0, 6), _bad)
def test_pose_rejects_any_non_finite_component(position, quat, slot, bad):
    values = np.concatenate([position, quat])
    pose = Pose(values[:3], values[3:])
    assert pose.orientation[0] >= 0.0
    assert np.linalg.norm(pose.orientation) == pytest.approx(1.0)
    values[slot] = bad
    with pytest.raises(InvalidInputError):
        Pose(values[:3], values[3:])


@st.composite
def _tracks(draw):
    n = draw(st.integers(2, 6))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1,
                          max_size=n - 1))
    times = np.cumsum([0.0] + steps)
    positions = np.array(draw(st.lists(_coord, min_size=3 * n,
                                       max_size=3 * n))).reshape(n, 3)
    orientations = np.array([draw(_quat) for _ in range(n)])
    grippers = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                      max_size=n)))
    return [times, positions, orientations, grippers]


@SETTINGS
@given(_tracks(), st.integers(0, 3), st.integers(0, 100), _bad)
def test_reference_track_rejects_any_non_finite_entry(args, which, at, bad):
    ReferenceTrack(*args)
    flat = args[which].reshape(-1)
    flat[at % len(flat)] = bad
    with pytest.raises(InvalidInputError):
        ReferenceTrack(*args)


@SETTINGS
@given(st.integers(2, 5), st.sampled_from(
    ["commanded", "reached", "grippers", "objects", "object_start", "goal"]),
    st.integers(0, 100), _bad)
def test_demonstration_rejects_any_non_finite_value(n, name, at, bad):
    fields = _demo_fields(n)
    Demonstration(**fields)
    flat = fields[name].reshape(-1)
    flat[at % len(flat)] = bad
    with pytest.raises(InvalidInputError, match=f"field {name} "):
        Demonstration(**fields)


@SETTINGS
@given(st.integers(2, 5), st.integers(0, 100), st.sampled_from(
    ["cmd", "reached", "obj", "grip"]), st.integers(0, 6),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-2e308"]))
def test_read_demo_reports_the_line_of_any_non_finite_number(
        tmp_path, n, at, field, slot, token):
    rng = np.random.default_rng(n)
    demo = Demonstration(dt=0.05, commanded=rng.normal(size=(n, 7)),
                         reached=rng.normal(size=(n, 7)),
                         grippers=rng.uniform(size=n), k=np.zeros(n),
                         objects=rng.normal(size=(n, 7)))
    path = tmp_path / "d.jsonl"
    write_demo(demo, str(path))
    lines = path.read_text().splitlines()
    line = 2 + at % n
    rec = json.loads(lines[line - 1])
    marker = 12345.5
    if field == "grip":
        rec[field] = marker
    else:
        rec[field][slot] = marker
    lines[line - 1] = json.dumps(rec).replace(repr(marker), token)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        read_demo(str(path))
    assert exc.value.line == line
