import csv
import io
import json

import numpy as np
import pytest

from sailx.cli import main
from sailx.io import load_demos, save_demos


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    assert main(["gen-demos", "--trials", "6", "--seed", "0",
                 "--out", str(d)]) == 0
    return str(d)


@pytest.fixture()
def no_corpus(monkeypatch):
    """Fail a test that loads or generates a corpus."""
    def corpus(*args, **kwargs):
        raise AssertionError("the corpus was loaded")
    monkeypatch.setattr("sailx.cli._corpus", corpus)


class TestBasicCommands:
    def test_gen_demos_then_label(self, demo_dir, tmp_path, capsys):
        out = str(tmp_path / "labels.csv")
        code, _ = run(capsys, "label", "--demos", demo_dir, "--out", out)
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 6
        assert all(int(r["gripper_events"]) > 0 for r in rows)

    def test_rollout_and_metrics_round_trip(self, demo_dir, tmp_path, capsys):
        rollout_path = str(tmp_path / "r.jsonl")
        code, text = run(capsys, "rollout", "--demos", demo_dir,
                         "--method", "sail", "--c", "0.5",
                         "--trials", "1", "--out", rollout_path)
        assert code == 0
        assert "success=True" in text
        code, text = run(capsys, "metrics", rollout_path)
        assert code == 0
        header = text.splitlines()[0].split(",")
        assert {"n", "sr", "tpr", "sparc"} <= set(header)
        row = dict(zip(header, text.splitlines()[1].split(",")))
        assert row["n"] == "1" and row["sr"] == "1"

    def test_rollout_trials_write_into_the_out_directory(self, demo_dir,
                                                         tmp_path, capsys):
        out_dir = tmp_path / "runs.v1"
        out_dir.mkdir()
        code, _ = run(capsys, "rollout", "--demos", demo_dir, "--method",
                      "dp", "--trials", "2", "--out", str(out_dir / "r"))
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "r_000.jsonl", "r_001.jsonl"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.v1"]

    def test_metrics_fills_sod_from_demos(self, demo_dir, tmp_path, capsys):
        rollout_path = str(tmp_path / "r.jsonl")
        run(capsys, "rollout", "--demos", demo_dir, "--method", "sail",
            "--c", "0.5", "--out", rollout_path)
        code, plain = run(capsys, "metrics", rollout_path)
        assert code == 0
        code, text = run(capsys, "metrics", "--demos", demo_dir,
                         rollout_path)
        assert code == 0
        plain_row, row = (next(csv.DictReader(io.StringIO(t)))
                          for t in (plain, text))
        assert plain_row.pop("sod") == ""
        mean = np.mean([d.duration for d in load_demos(demo_dir)])
        assert float(row.pop("sod")) == pytest.approx(mean
                                                      / float(row["atr"]))
        assert row == plain_row

    def test_unknown_method_exits_2(self, demo_dir):
        with pytest.raises(SystemExit) as exc:
            main(["rollout", "--demos", demo_dir, "--method", "teleport"])
        assert exc.value.code == 2

    def test_gen_demos_without_out_exits_2_before_work(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("the corpus was built")
        monkeypatch.setattr("sailx.experiments.build_demo_corpus", build)
        with pytest.raises(SystemExit) as exc:
            main(["gen-demos", "--trials", "1"])
        assert exc.value.code == 2

    def test_diagnose_past_the_demos_length_exits_2(self, demo_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "--demos", demo_dir, "--c-values", "0.1",
                  "--trials", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("sailx: usage error:") and "c=0.1" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("c", ["100"])
    def test_diagnose_at_a_bad_speedup_exits_2(self, demo_dir, capsys, c):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "--demos", demo_dir, "--c-values", c,
                  "--trials", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("sailx: usage error:")
        assert f"c={float(c):g}" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["label", "--seed", "-1"],
        ["diagnose", "--trials", "1", "--seed", "-2"],
        ["gen-demos", "--seed", "-1", "--out", "unused"],
    ])
    def test_negative_seed_exits_2_before_work(self, argv, monkeypatch,
                                               capsys):
        def build(*args, **kwargs):
            raise AssertionError("the corpus was built")
        monkeypatch.setattr("sailx.experiments.build_demo_corpus", build)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["rollout", "--c", "-1"], "--c"),
        (["rollout", "--c", "inf"], "--c"),
        (["rollout", "--c", "nan", "--method", "dp"], "--c"),
        (["sweep-speed", "--c-values", "0"], "--c-values"),
        (["sweep-gain-replay", "--c-values", "1,-0.5"], "--c-values"),
        (["rollout", "--trials", "0"], "--trials"),
        (["diagnose", "--trials", "0"], "--trials"),
        (["sweep-speed", "--trials", "0"], "--trials"),
        (["sweep-noise", "--trials", "0"], "--trials"),
        (["sweep-noise", "--scales", "-0.01"], "--scales"),
        (["sweep-noise", "--scales", "0,nan"], "--scales"),
        (["diagnose", "--c-values", "0"], "--c-values"),
        (["diagnose", "--c-values", "nan"], "--c-values"),
        (["diagnose", "--c-values", "1,-0.5"], "--c-values"),
        (["sweep-speed", "--jobs", "0"], "--jobs"),
        (["sweep-speed", "--jobs", "-3"], "--jobs"),
        (["sweep-speed", "--c-values", ","], "--c-values"),
        (["diagnose", "--c-values", ""], "--c-values"),
        (["sweep-noise", "--scales", ","], "--scales"),
        (["sweep-speed", "--method", ","], "--method"),
        (["sweep-speed", "--method", "sail,bogus"], "--method"),
        (["rollout", "--method", "bogus"], "--method"),
    ])
    def test_out_of_range_numbers_exit_2_before_work(self, argv, flag,
                                                     no_corpus, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["rollout", "--method", "replay", "--out", "r.jsonl"],
        ["rollout", "--trials", "2", "--out", "r"],
        ["label", "--out", "labels.csv"],
        ["sweep-noise", "--trials", "1", "--out", "noise.csv"],
    ])
    def test_out_into_a_missing_directory_exits_2_before_work(
            self, argv, tmp_path, no_corpus, capsys):
        argv = argv[:-1] + [str(tmp_path / "missing" / argv[-1])]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --out: no directory" in capsys.readouterr().err

    def test_an_unknown_log_level_exits_2_before_work(self, monkeypatch,
                                                       no_corpus, capsys):
        monkeypatch.setenv("SAILX_LOG", "bogus")
        with pytest.raises(SystemExit) as exc:
            main(["label"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("sailx: usage error: ") and "SAILX_LOG" in err
        assert len(err.splitlines()) == 1

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_report_renders_table(self, demo_dir, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        code, _ = run(capsys, "sweep-speed", "--demos", demo_dir,
                      "--method", "dp-fast", "--c-values", "1.0",
                      "--trials", "2", "--out", out)
        assert code == 0
        code, text = run(capsys, "report", out)
        assert code == 0
        assert "method" in text.splitlines()[0]
        assert "dp-fast" in text


class TestConfigFile:
    def test_config_presets_flags(self, demo_dir, tmp_path, capsys):
        cfg = tmp_path / "sailx.ini"
        cfg.write_text(f"[rollout]\nmethod = dp\ndemos = {demo_dir}\n"
                       "trials = 2\n")
        code, text = run(capsys, "--config", str(cfg), "rollout")
        assert code == 0
        assert text.count("trial ") == 2

    def test_explicit_flag_wins(self, demo_dir, tmp_path, capsys):
        cfg = tmp_path / "sailx.ini"
        cfg.write_text(f"[rollout]\ndemos = {demo_dir}\ntrials = 3\n")
        code, text = run(capsys, "--config", str(cfg), "rollout",
                         "--trials", "1")
        assert code == 0
        assert text.count("trial ") == 1

    def test_config_applies_only_the_commands_section(self, demo_dir,
                                                      tmp_path, capsys):
        cfg = tmp_path / "sailx.ini"
        cfg.write_text(f"[label]\ndemos = {demo_dir}\n"
                       "[sweep-noise]\nscales = 0,0.01\n"
                       "[sweep-speed]\njobs = 2\n")
        code, text = run(capsys, "--config", str(cfg), "label")
        assert code == 0
        assert len(text.splitlines()) == 7  # header + one row per demo

    def test_negative_seed_from_config_exits_2(self, demo_dir, tmp_path,
                                               capsys):
        cfg = tmp_path / "sailx.ini"
        cfg.write_text(f"[label]\ndemos = {demo_dir}\nseed = -1\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "label"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_missing_config_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["--config", "/nonexistent.ini", "rollout"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, name", [("metrics", "r.jsonl"),
                                               ("report", "sweep.csv")])
    def test_missing_input_file_exits_2(self, tmp_path, capsys, command,
                                        name):
        missing = str(tmp_path / name)
        with pytest.raises(SystemExit) as exc:
            main([command, missing])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("sailx: usage error: ")
        assert missing in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("text, line", [
        ("seed = 3\n[label]\n", 1),           # no section header
        ("[label]\nseed = 3\njunk\n", 3),     # not key = value
    ])
    def test_malformed_config_exits_2_naming_the_line(self, tmp_path, capsys,
                                                      text, line):
        cfg = tmp_path / "sailx.ini"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "label"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("sailx: usage error: ")
        assert f"line {line}" in err and len(err.splitlines()) == 1

    def test_missing_demo_directory_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["label", "--demos", str(tmp_path / "nowhere")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("sailx: usage error: ")
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize("command", ["sweep-gain-replay", "diagnose"])
    @pytest.mark.parametrize("header", [{"dt": 0.0}, {"n": 0}],
                             ids=["dt 0", "no record"])
    def test_a_demo_it_cannot_run_fails_at_line_1(self, demo_dir, tmp_path,
                                                  caplog, command, header):
        """A demo file whose interval is not positive, or that holds no
        record, fails to load as any malformed file does, naming its line,
        before a replay or a diagnostics trial runs on it."""
        demos = load_demos(demo_dir)[:2]
        save_demos(demos, str(tmp_path))
        path = sorted(tmp_path.iterdir())[0]
        lines = path.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), **header})
        if header.get("n") == 0:
            lines = lines[:1]
        path.write_text("\n".join(lines) + "\n")
        assert main([command, "--demos", str(tmp_path), "--trials", "1"]
                    if command == "diagnose" else
                    [command, "--demos", str(tmp_path)]) == 1
        assert "line 1" in caplog.text


class TestDeterminism:
    def test_sweep_csv_reruns_identical(self, demo_dir, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        for out in (a, b):
            code, _ = run(capsys, "sweep-speed", "--demos", demo_dir,
                          "--method", "dp-fast", "--c-values", "1.0,0.5",
                          "--trials", "2", "--seed", "7", "--out", out)
            assert code == 0
        assert open(a).read() == open(b).read()
        assert open(a).read().splitlines()[0].startswith("method,c,")

    def test_diagnose_rerun_identical(self, demo_dir, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        for out in (a, b):
            code, _ = run(capsys, "diagnose", "--demos", demo_dir,
                          "--trials", "6", "--seed", "3", "--out", out)
            assert code == 0
        assert open(a).read() == open(b).read()
        rows = list(csv.DictReader(open(a)))
        assert len(rows) == 6
        assert {"c", "e_pos", "knn", "kde", "mmd"} <= set(rows[0])
