import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sailx.controller import GAIN_PRESETS
from sailx.core import Pose
from sailx import experiments
from sailx.errors import ConfigurationError, InvalidInputError
from sailx.experiments import sweep_speed, task_for_demo
from sailx.policy import H_C, H_P, MockPolicy, PolicyConfig
from sailx.scheduler import (DELTA_DELAY, INTERVAL_FLOOR, SAFETY_MARGIN,
                             ExecutorConfig, plan_intervals, run_rollout,
                             speed_factor)

from scheduler_oracle import lower_bound_interval, simulate_timeline


class TestLowerBound:
    def test_formula(self):
        assert lower_bound_interval(0.4, 32, 4) == pytest.approx(0.4 / 28)
        assert lower_bound_interval(0.0, 32, 4) == 0.0

    def test_degenerate_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            lower_bound_interval(0.4, 4, 4)


class TestSpeedFactor:
    def test_endpoints_and_blend(self):
        cfg = ExecutorConfig(c_slow=0.5, c_fast=0.2)
        assert speed_factor([1], cfg)[0] == pytest.approx(0.5)
        assert speed_factor([0], cfg)[0] == pytest.approx(0.2)
        assert speed_factor([0.5], cfg)[0] == pytest.approx(0.35)

    def test_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            ExecutorConfig(c_slow=0.2, c_fast=0.5)


def test_sweep_speed_warns_where_the_floor_caps_c(demos20, caplog):
    # sail and dp-fast run c = 0.2 as c = 0.3 off critical waypoints; dp
    # always runs at c = 1, and no method is floored at c = 1
    caplog.set_level(logging.WARNING, logger="sailx.experiments")
    sweep_speed(demos20, methods=("sail", "dp-fast", "dp"),
                c_values=(1.0, 0.2), trials=1)
    assert [(r.name, r.levelno, r.getMessage().split(":")[0])
            for r in caplog.records] == [
        ("sailx.experiments", logging.WARNING, "sail at c=0.2 runs at c=0.3"),
        ("sailx.experiments", logging.WARNING,
         "dp-fast at c=0.2 runs at c=0.3")]


def test_c_of_0_3_is_floored_by_one_ulp(demos20, caplog):
    """INTERVAL_FLOOR evaluates to one ulp above 0.3 * DELTA_STAR = 0.015,
    so c = 0.3 plans the floor, and its cell warns with the floor's exact
    value."""
    assert INTERVAL_FLOOR == np.nextafter(0.015, 1.0)
    cfg = ExecutorConfig(c_slow=0.3, c_fast=0.3)
    out = plan_intervals(np.array([0, 1], dtype=np.int8), cfg)
    assert out.tobytes() == np.full(2, INTERVAL_FLOOR).tobytes()
    caplog.set_level(logging.WARNING, logger="sailx.experiments")
    sweep_speed(demos20, methods=("sail",), c_values=(0.3,), trials=1)
    assert [r.getMessage() for r in caplog.records] == [
        "sail at c=0.3 runs at c=0.3: its intervals are floored at "
        "INTERVAL_FLOOR = 0.015000000000000001 s"]


@pytest.fixture()
def no_rollouts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rollout ran")

    monkeypatch.setattr(experiments, "run_rollout", refuse)
    monkeypatch.setattr(experiments, "run_rollouts", refuse)
    monkeypatch.setattr(experiments, "replay_rollout", refuse)


class TestSweepSpeedArguments:
    """sweep_speed refuses a bad argument before it simulates anything."""

    @pytest.mark.parametrize("name,value", [("trials", 0), ("trials", -1),
                                            ("jobs", 0), ("jobs", -3),
                                            ("trials", 2.5)])
    def test_a_count_below_1_is_refused(self, demos20, no_rollouts, name,
                                        value):
        with pytest.raises(InvalidInputError, match=f"{name} .*{value}"):
            sweep_speed(demos20, methods=("sail",), c_values=(1.0,),
                        **{"trials": 1, name: value})

    @pytest.mark.parametrize("c", [-1.0, 0.0, math.nan])
    def test_a_bad_c_raises_before_any_cell_runs(self, demos20, no_rollouts,
                                                 c):
        with pytest.raises(ConfigurationError):
            sweep_speed(demos20, methods=("sail", "dp-fast"),
                        c_values=(1.0, c), trials=1)

    def test_an_unknown_method_raises_before_any_cell_runs(self, demos20,
                                                           no_rollouts):
        with pytest.raises(InvalidInputError, match="unknown method"):
            sweep_speed(demos20, methods=("sail", "bogus"), c_values=(1.0,),
                        trials=1)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_a_bad_replay_c_raises_before_any_cell_runs(self, demos20,
                                                        no_rollouts, c):
        with pytest.raises(InvalidInputError, match=f"c={c:g}"):
            sweep_speed(demos20, methods=("replay",), c_values=(1.0, c),
                        trials=1)


class _InProcessPool:
    """A ProcessPoolExecutor stand-in that records its workers and shares
    and maps in this process."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.shares = None
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, shares, *args):
        self.shares = list(shares)
        return map(fn, self.shares, *args)


class TestSweepSpeedWorkers:
    """sweep_speed starts at most one worker per rollout and per core, each
    with a non-empty contiguous share, and writes jobs=1's rows."""

    # (max_workers, share sizes) of each pool made, for 3 rollouts at
    # jobs=8: one worker per rollout, one per core, or no pool on one core
    @pytest.mark.parametrize("cores,pools", [
        (64, [(3, [1, 1, 1])]), (2, [(2, [1, 2])]), (None, [])])
    def test_workers_are_capped(self, demos20, monkeypatch, cores, pools):
        kwargs = dict(methods=("sail",), c_values=(1.0,), trials=3)
        want = sweep_speed(demos20, **kwargs)
        monkeypatch.setattr(_InProcessPool, "made", [])
        monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                            _InProcessPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
        assert sweep_speed(demos20, jobs=8, **kwargs) == want
        assert [(pool.max_workers, [len(share) for share in pool.shares])
                for pool in _InProcessPool.made] == pools


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSweepArguments:
    """The replay sweeps and diagnostics refuse a trial count that is not
    an integer >= 1, and every sweep an empty corpus, as sweep_speed
    refuses its counts, before they simulate anything."""

    @pytest.mark.parametrize("trials", [0, -2, 2.5])
    @pytest.mark.parametrize("sweep", ["sweep_noise", "run_diagnostics"])
    def test_a_trial_count_below_1_is_refused(self, demos20, no_rollouts,
                                              sweep, trials):
        with pytest.raises(InvalidInputError, match=re.escape(
                f"trials must be an integer >= 1, got {trials!r}")):
            getattr(experiments, sweep)(demos20, trials=trials)

    @pytest.mark.parametrize("sweep", ["sweep_noise", "sweep_gain_replay",
                                       "sweep_speed", "run_diagnostics"])
    def test_an_empty_corpus_is_refused(self, no_rollouts, sweep):
        with pytest.raises(InvalidInputError, match="at least one demo"):
            getattr(experiments, sweep)([])


class TestPlanIntervals:
    """The executor plans at a 0.05 s demo interval, floored at 1.05 times
    the 0.4 s latency's stall bound: 0.015 s at H_P = 32, H_C = 4."""

    def test_adaptive_intervals(self):
        cfg = ExecutorConfig(c_slow=0.5, c_fast=0.4)
        flags = np.array([0, 1, 0, 1], dtype=np.int8)
        out = plan_intervals(flags, cfg)
        assert out == pytest.approx([0.02, 0.025, 0.02, 0.025])

    def test_floor_applies(self):
        cfg = ExecutorConfig(c_fast=0.2, c_slow=0.5)
        out = plan_intervals(np.zeros(4, dtype=np.int8), cfg)
        floor = 1.05 * 0.4 / 28
        assert np.all(out >= floor - 1e-15)
        # the floor is the margin over criterion 1's bound, bit for bit
        model = (1 + SAFETY_MARGIN) * lower_bound_interval(DELTA_DELAY, H_P,
                                                           H_C)
        assert INTERVAL_FLOOR.hex() == model.hex()
        # every c below 0.3 runs at the floor
        assert out == pytest.approx([0.015] * 4)

    def test_fixed_c(self):
        cfg = ExecutorConfig(c_slow=1.0, c_fast=1.0)
        out = plan_intervals(np.ones(3, dtype=np.int8), cfg)
        assert out == pytest.approx([0.05, 0.05, 0.05])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.0, 1e300, exclude_min=True),
           st.lists(st.integers(0, 1), max_size=40))
    def test_equal_speed_factors_give_the_fixed_speed_bytes(self, c, flags):
        """c_slow == c_fast == c plans the constant-speed intervals
        bit for bit, whatever the flags."""
        cfg = ExecutorConfig(c_slow=c, c_fast=c)
        flags = np.array(flags, dtype=np.int8)
        floor = 1.05 * lower_bound_interval(0.4, 32, 4)
        want = np.maximum(np.full(len(flags), c) * 0.05, floor)
        assert plan_intervals(flags, cfg).tobytes() == want.tobytes()


class TestSimulateTimeline:
    def test_no_stall_above_bound(self):
        lb = lower_bound_interval(0.4, 32, 4)
        res = simulate_timeline(32, 4, 0.4, 1.05 * lb, cycles=100)
        assert res.stall_count == 0
        assert res.cycles == 100
        # nor does the executor's floor at the policy's horizons
        assert simulate_timeline(H_P, H_C, DELTA_DELAY,
                                 INTERVAL_FLOOR).stall_count == 0

    def test_every_cycle_stalls_below_bound(self):
        lb = lower_bound_interval(0.4, 32, 4)
        res = simulate_timeline(32, 4, 0.4, 0.5 * lb, cycles=40)
        assert res.stall_count == 40
        assert res.total_stall_time > 0

    def test_makespan_grows_with_interval(self):
        lb = lower_bound_interval(0.4, 32, 4)
        fast = simulate_timeline(32, 4, 0.4, 1.1 * lb)
        slow = simulate_timeline(32, 4, 0.4, 3.0 * lb)
        assert slow.makespan > fast.makespan

    def test_rejects_nonpositive_intervals(self):
        with pytest.raises(ConfigurationError):
            simulate_timeline(32, 4, 0.4, 0.0)


@pytest.fixture(scope="module")
def rollout(demos20):
    demo = demos20[0]
    cfg = PolicyConfig(p_branch=0.2, target_mode="reached")
    policy = MockPolicy(demos20, cfg, seed=0)
    ec = ExecutorConfig(c_slow=0.5, c_fast=0.2, use_eag=True)
    start = Pose(demo.reached[0, :3].copy(), demo.reached[0, 3:7].copy())
    return run_rollout(policy, task_for_demo(demo), ec,
                       GAIN_PRESETS["real-exec"], start, seed=0)


class TestRunRollout:
    def test_succeeds_and_speeds_up(self, rollout, demos20):
        assert rollout.success
        assert rollout.duration < demos20[0].duration

    def test_log_consistency(self, rollout):
        assert np.all(np.diff(rollout.times) > 0)
        assert len(rollout.positions) == len(rollout.times)
        assert len(rollout.ref_positions) == len(rollout.times)
        assert len(rollout.chunks) == len(rollout.guidance)
        # one consistency/divergence sample per splice after the first
        assert len(rollout.con_values) == len(rollout.wed_values)

    def test_no_stalls_with_safety_floor(self, rollout):
        assert rollout.stall_count == 0

    def test_events_ordered(self, rollout):
        tags = [tag for _, tag in sorted(rollout.events)]
        assert tags.count("grasp") >= 1
        assert tags.count("release") >= 1
        assert sorted(rollout.events)[0][1] == "splice"

    def test_guidance_applied_after_first_cycle(self, rollout):
        assert rollout.guidance[0] is False
        assert any(rollout.guidance[1:])

    def test_speed_profile_available(self, rollout):
        speed = rollout.speed
        assert len(speed) > 10
        assert np.all(speed >= 0)
