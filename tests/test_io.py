import json

import numpy as np
import pytest

from sailx.errors import FormatError, ParseError
from sailx.io import (load_demos, read_demo, read_rollout, save_demos,
                      write_demo, write_rollout)
from sailx.experiments import replay_rollout, run_method_rollout
from sailx.metrics import aggregate
from sailx.scheduler import RolloutLog


class TestDemoRoundTrip:
    def test_roundtrip_exact(self, demos20, tmp_path):
        demo = demos20[3]
        path = str(tmp_path / "d.jsonl")
        write_demo(demo, path)
        back = read_demo(path)
        assert back.dt == demo.dt
        for name in ("commanded", "reached", "grippers", "objects",
                     "object_start", "goal"):
            assert getattr(back, name) == pytest.approx(
                getattr(demo, name), abs=1e-12)
        assert np.array_equal(back.k, demo.k)

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
            log = run_method_rollout(method, 1.0, demos20, seed=0)
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
        log = run_method_rollout("dp", 1.0, demos20, seed=0)
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
        log = run_method_rollout("dp", 1.0, demos20, seed=0)
        path = str(tmp_path / "r.jsonl")
        write_rollout(log, path)
        with open(path, "a") as fh:
            fh.write(json.dumps({"event": "explode", "time": 1.0}) + "\n")
        with pytest.raises(ParseError):
            read_rollout(path)


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
