import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sailx import sim
from sailx.core import Pose
from sailx.errors import FormatError, GenerationError, ParseError
from sailx.io import (_EVENT_TAGS, Demonstration, generate_demos, load_demos,
                      read_demo, read_rollout, save_demos, write_demo,
                      write_rollout)
from sailx.experiments import (build_demo_corpus, make_task, replay_rollout,
                               run_method_rollouts)
from sailx.metrics import aggregate
from sailx.scheduler import RolloutLog
from sailx.sim import PHYSICS_DT, TaskSpec

import demo_oracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

# a fixed example sequence keeps every tier-1 run repeatable
SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture])
DEMO_FIELDS = ("commanded", "reached", "grippers", "k", "objects",
               "object_start", "goal")


def _same(a, b) -> bool:
    """Equal dtype, shape and bits."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


class TestDemoRoundTrip:
    def test_roundtrip_exact(self, demos20, tmp_path):
        demo = demos20[3]
        path = str(tmp_path / "d.jsonl")
        write_demo(demo, path)
        back = read_demo(path)
        assert back.dt == demo.dt
        for name in DEMO_FIELDS:
            assert _same(getattr(back, name), getattr(demo, name)), name

    def test_save_load_directory_order(self, demos20, tmp_path):
        save_demos(demos20[:4], str(tmp_path))
        back = load_demos(str(tmp_path))
        assert len(back) == 4
        for a, b in zip(back, demos20[:4]):
            assert a.commanded == pytest.approx(b.commanded, abs=1e-12)

    def test_load_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_demos(str(tmp_path))

    def test_truncated_record_reports_line(self, demos20, tmp_path):
        path = str(tmp_path / "d.jsonl")
        write_demo(demos20[0], path)
        lines = open(path).read().splitlines()
        lines[5] = lines[5][: len(lines[5]) // 2]
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_demo(path)
        assert exc.value.line == 6

    def test_missing_field_reports_line(self, demos20, tmp_path):
        path = str(tmp_path / "d.jsonl")
        write_demo(demos20[0], path)
        lines = open(path).read().splitlines()
        rec = json.loads(lines[2])
        del rec["reached"]
        lines[2] = json.dumps(rec)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_demo(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity",
                                       "1e400", "-1e400"])
    def test_non_finite_number_reports_line(self, demos20, tmp_path, token):
        path = str(tmp_path / "d.jsonl")
        write_demo(demos20[0], path)
        lines = open(path).read().splitlines()
        rec = json.loads(lines[4])
        rec["reached"][1] = 12345.5
        lines[4] = json.dumps(rec).replace("12345.5", token)
        assert token in lines[4]
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_demo(path)
        assert exc.value.line == 5

    @pytest.mark.parametrize("drop", [True, False])
    def test_header_count_mismatch_rejected(self, demos20, tmp_path, drop):
        path = str(tmp_path / "d.jsonl")
        write_demo(demos20[0], path)
        lines = open(path).read().splitlines()
        if drop:
            del lines[-1]
        else:
            header = json.loads(lines[0])
            header["n"] += 1
            lines[0] = json.dumps(header)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_demo(path)
        assert exc.value.line == 1

    def test_a_demo_without_records_is_rejected(self, demos20, tmp_path):
        # the header agrees with the file: n = 0 and no record
        path = str(tmp_path / "d.jsonl")
        write_demo(demos20[0], path)
        header = json.loads(open(path).readline())
        header["n"] = 0
        open(path, "w").write(json.dumps(header) + "\n")
        with pytest.raises(ParseError) as exc:
            read_demo(path)
        assert exc.value.line == 1

    def test_a_demo_with_one_record_is_rejected(self, demos20, tmp_path):
        # no replay can run on it: a reference needs 2 waypoints
        path = str(tmp_path / "d.jsonl")
        write_demo(demos20[0], path)
        lines = open(path).read().splitlines()[:2]
        lines[0] = json.dumps({**json.loads(lines[0]), "n": 1})
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="at least 2 records") as exc:
            read_demo(path)
        assert exc.value.line == 1
        assert path in str(exc.value)

    def test_wrong_kind_rejected(self, demos20, tmp_path):
        path = str(tmp_path / "d.jsonl")
        write_demo(demos20[0], path)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["kind"] = "rollout"
        lines[0] = json.dumps(header)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            read_demo(path)

    def test_wrong_format_version_rejected(self, demos20, tmp_path):
        path = str(tmp_path / "d.jsonl")
        write_demo(demos20[0], path)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["format"] = "sailx-v0"
        lines[0] = json.dumps(header)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            read_demo(path)


class TestRolloutRoundTrip:
    def test_roundtrip(self, demos20, tmp_path):
        for method in ("dp", "replay"):
            log = run_method_rollouts([(method, 1.0, 0)], demos20)[0]
            path = str(tmp_path / f"{method}.jsonl")
            write_rollout(log, path)
            back = read_rollout(path)
            assert isinstance(back, RolloutLog)
            assert back.success == log.success
            assert back.duration == pytest.approx(log.duration, abs=1e-12)
            assert back.stall_count == log.stall_count
            assert back.times == pytest.approx(log.times, abs=1e-12)
            assert back.positions == pytest.approx(log.positions, abs=1e-12)
            assert back.ref_orientations == pytest.approx(
                log.ref_orientations, abs=1e-12)
            assert back.e_pos == pytest.approx(log.e_pos, abs=1e-12)
            assert back.con_values == pytest.approx(log.con_values,
                                                    abs=1e-12)
            assert back.wed_values == pytest.approx(log.wed_values,
                                                    abs=1e-12)
            assert back.events == [(pytest.approx(t, abs=1e-12), tag)
                                   for t, tag in log.events]
            assert len(back.speed) > 0
            # the `sailx metrics` path reports what the live log would
            assert (aggregate([back], t_max=30.0).as_row()
                    == aggregate([log], t_max=30.0).as_row())

    def test_overflowing_number_reports_line(self, demos20, tmp_path):
        log = run_method_rollouts([("dp", 1.0, 0)], demos20)[0]
        path = str(tmp_path / "r.jsonl")
        write_rollout(log, path)
        lines = open(path).read().splitlines()
        rec = json.loads(lines[3])
        rec["time"] = 12345.5
        lines[3] = json.dumps(rec).replace("12345.5", "1e400")
        assert "1e400" in lines[3]
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_rollout(path)
        assert exc.value.line == 4

    def test_unknown_event_tag_rejected(self, demos20, tmp_path):
        log = run_method_rollouts([("dp", 1.0, 0)], demos20)[0]
        path = str(tmp_path / "r.jsonl")
        write_rollout(log, path)
        with open(path, "a") as fh:
            fh.write(json.dumps({"event": "explode", "time": 1.0}) + "\n")
        with pytest.raises(ParseError):
            read_rollout(path)


def _rewrite(path, line, edit):
    """Apply ``edit`` to the JSON record on ``line`` of the file."""
    lines = open(path).read().splitlines()
    rec = json.loads(lines[line - 1])
    edit(rec)
    lines[line - 1] = json.dumps(rec)
    open(path, "w").write("\n".join(lines) + "\n")


def _set(key, value):
    return lambda rec: rec.update({key: value})


def _cut(key, size):
    """The pose or list under ``key`` cut or padded to ``size`` numbers."""
    return lambda rec: rec.update({key: (rec[key] + [0.0] * size)[:size]})


class TestMalformedFields:
    """A missing field, a field that is not a number, a pose of other than
    7 numbers and a line that is not a JSON object each raise ParseError
    with their line; the header is line 1."""

    @pytest.mark.parametrize("line, edit", [
        (1, lambda rec: rec.pop("dt")),
        (1, _set("dt", "abc")),
        (1, _set("dt", 0)),
        (1, _set("dt", -0.05)),
        (1, _cut("object_start", 6)),
        (1, _cut("goal", 2)),
        (4, _cut("cmd", 6)),
        (4, _cut("reached", 8)),
        (4, _set("grip", [1.0])),
        (4, _set("k", "1")),
        (4, _set("obj", None)),
    ], ids=["no dt", "dt text", "dt 0", "dt negative", "object_start of 6", "goal of 2", "cmd of 6",
            "reached of 8", "grip list", "k text", "obj null"])
    def test_demo(self, demos20, tmp_path, line, edit):
        path = str(tmp_path / "d.jsonl")
        write_demo(demos20[0], path)
        _rewrite(path, line, edit)
        with pytest.raises(ParseError) as exc:
            read_demo(path)
        assert exc.value.line == line

    @pytest.mark.parametrize("line, edit", [
        (1, lambda rec: rec.pop("seed")),
        (1, lambda rec: rec.pop("duration")),
        (1, _set("stall_count", "0")),
        (1, _set("success", 1)),
        (1, _set("con_values", "abc")),
        (3, _cut("ref", 6)),
        (3, _cut("state", 8)),
        (3, _set("e_pos", "abc")),
        (3, lambda rec: rec.pop("e_ori")),
        (-1, _set("time", "abc")),
    ], ids=["no seed", "no duration", "stall_count text", "success 1",
            "con_values text", "ref of 6", "state of 8", "e_pos text",
            "no e_ori", "event time text"])
    def test_rollout(self, demos20, tmp_path, line, edit):
        path = str(tmp_path / "r.jsonl")
        write_rollout(run_method_rollouts([("dp", 1.0, 0)], demos20)[0],
                      path)
        if line < 0:
            line += len(open(path).read().splitlines()) + 1
        _rewrite(path, line, edit)
        with pytest.raises(ParseError) as exc:
            read_rollout(path)
        assert exc.value.line == line

    def test_every_pose_of_six_numbers(self, demos20, tmp_path):
        path = str(tmp_path / "r.jsonl")
        write_rollout(run_method_rollouts([("dp", 1.0, 0)], demos20)[0],
                      path)
        lines = open(path).read().splitlines()
        for line, text in enumerate(lines[1:], start=2):
            if '"ref"' in text:
                _rewrite(path, line, _cut("ref", 6))
        with pytest.raises(ParseError) as exc:
            read_rollout(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("line", [1, 3])
    @pytest.mark.parametrize("text", ["[1, 2]", '"abc"', "7"])
    def test_a_line_that_is_not_an_object(self, demos20, tmp_path, line,
                                          text):
        path = str(tmp_path / "d.jsonl")
        write_demo(demos20[0], path)
        lines = open(path).read().splitlines()
        lines[line - 1] = text
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_demo(path)
        assert exc.value.line == line


class TestGenerateDemos:
    def test_basic_invariants(self, demos20):
        for demo in demos20:
            assert len(demo) > 50
            assert demo.commanded.shape == (len(demo), 7)
            assert np.all(np.isfinite(demo.reached))
            assert demo.grippers.min() >= 0 and demo.grippers.max() <= 1
            assert demo.grippers.max() == 1.0   # a grasp happened
            assert demo.k.max() == 1            # gripper events flagged
            assert np.linalg.norm(demo.objects[-1, :3] - demo.goal) < 0.02

    def test_reached_replay_succeeds(self, demos20):
        log = replay_rollout(demos20[0], c=1.0, gains="high",
                             target="reached")
        assert log.success


_finite = st.floats(allow_nan=False, allow_infinity=False)


def _rows(draw, n, width):
    """An (n, width) array of finite floats."""
    return np.array(draw(st.lists(_finite, min_size=n * width,
                                  max_size=n * width)),
                    dtype=float).reshape(n, width)


@st.composite
def demos(draw):
    n = draw(st.integers(2, 5))  # read_demo refuses fewer than 2 records
    rows = lambda width: _rows(draw, n, width)  # noqa: E731
    return Demonstration(
        dt=draw(st.floats(1e-6, 1.0)), commanded=rows(7), reached=rows(7),
        grippers=rows(1)[:, 0], k=draw(st.lists(st.integers(0, 1),
                                                min_size=n, max_size=n)),
        objects=rows(7), object_start=_rows(draw, 1, 7)[0],
        goal=_rows(draw, 1, 3)[0])


@st.composite
def rollouts(draw):
    n = draw(st.integers(0, 5))
    rows = lambda width: _rows(draw, n, width)  # noqa: E731
    floats = lambda: draw(st.lists(_finite, max_size=4))  # noqa: E731
    return RolloutLog(
        success=draw(st.booleans()), duration=draw(_finite),
        stall_count=draw(st.integers(0, 10**6)), con_values=floats(),
        wed_values=floats(), times=rows(1)[:, 0], positions=rows(3),
        orientations=rows(4), ref_positions=rows(3),
        ref_orientations=rows(4), e_pos=rows(1)[:, 0], e_ori=rows(1)[:, 0],
        events=draw(st.lists(st.tuples(_finite,
                                       st.sampled_from(_EVENT_TAGS)),
                             max_size=4)),
        seed=draw(st.integers(-2**63, 2**63 - 1)))


class TestRoundTripProperties:
    """Writers emit repr floats, so every finite value reads back exactly."""

    @SETTINGS
    @given(demos())
    def test_demo(self, tmp_path, demo):
        path = str(tmp_path / "d.jsonl")
        write_demo(demo, path)
        back = read_demo(path)
        assert _same(back.dt, demo.dt)
        for name in DEMO_FIELDS:
            assert _same(getattr(back, name), getattr(demo, name)), name

    @SETTINGS
    @given(rollouts())
    def test_rollout(self, tmp_path, log):
        path = str(tmp_path / "r.jsonl")
        write_rollout(log, path)
        back = read_rollout(path)
        assert (back.seed, back.success, back.stall_count) == \
            (log.seed, log.success, log.stall_count)
        for name in ("duration", "con_values", "wed_values", "times",
                     "positions", "orientations", "ref_positions",
                     "ref_orientations", "e_pos", "e_ori"):
            assert _same(np.asarray(getattr(back, name), dtype=float),
                         np.asarray(getattr(log, name), dtype=float)), name
        assert [tag for _, tag in back.events] == \
            [tag for _, tag in log.events]
        assert _same([t for t, _ in back.events], [t for t, _ in log.events])


def _rotated_task():
    """An object orientation that a second renormalisation changes.

    Every ``track`` call renormalises both quaternions once, so the
    generator must renormalise between slices where per-step calls do.
    """
    task = make_task()
    quat = np.array([-0.7, 0.9, 1.0, 0.9])
    return TaskSpec(Pose(task.object_start.position,
                         quat / np.linalg.norm(quat)), task.goal_position)


def _generate(generator, task, **kwargs):
    try:
        return generator(task, n=3, **kwargs)
    except GenerationError as exc:
        return exc


class TestGenerationOracle:
    """``generate_demos`` against the per-step generator in demo_oracle."""

    @pytest.mark.parametrize("task, kwargs", [
        (make_task(), dict(seed=0)),
        (make_task(), dict(seed=5)),
        (_rotated_task(), dict(seed=1)),
        # every demo misses the goal by more than 0.1 mm
        (make_task(), dict(seed=0, place_tolerance=1e-4)),
        # demo 0 places within 1.5 mm of the goal, demo 1 does not
        (make_task(), dict(seed=0, place_tolerance=0.0015)),
    ])
    def test_matches_per_step_generator_bit_for_bit(self, task, kwargs,
                                                     monkeypatch):
        kwargs = dict(kwargs)
        if "place_tolerance" in kwargs:
            monkeypatch.setattr(sim, "PLACE_TOLERANCE",
                                kwargs.pop("place_tolerance"))
        want = _generate(demo_oracle.generate_demos, task, **kwargs)
        got = _generate(generate_demos, task, **kwargs)
        if isinstance(want, GenerationError):
            assert type(got) is GenerationError
            assert str(got) == str(want)
            return
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dt == b.dt
            for name in DEMO_FIELDS:
                assert _same(getattr(a, name), getattr(b, name)), name

    def test_traced_setup_keeps_the_oracle_totals(self):
        def traced(build):
            tracer = tracing.Tracer()
            with tracer.installed():
                build()
            steps = sum(info for name, *_, info in tracer.spans
                        if name == "kernels.track_loop")
            samples = [info for name, *_, info in tracer.spans
                       if name == tracing.SAMPLE_SPAN]
            return tracer.spans, steps, samples

        spans, steps, samples = traced(lambda: build_demo_corpus(n=2))
        _, want_steps, want_samples = traced(
            lambda: demo_oracle.generate_demos(make_task(), n=2))
        assert steps == want_steps > 0
        assert sum(samples) == sum(want_samples)
        assert len(samples) == 2  # one reference sample per demo
        setup = tracing.layer_metrics([], spans, PHYSICS_DT)
        for name in ("setup.io.generate_demos.s", "setup.kernels.track_loop.s",
                     "setup.controller.reference.sample.s"):
            assert setup[name] > 0.0, name
