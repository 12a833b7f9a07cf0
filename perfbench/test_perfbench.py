"""Self-tests of the benchmark: exact counts, untouched results, the contract.

Run from the repository root with ``python3 -m pytest perfbench -q``. The
passes here are shrunk to one trial per cell on a small corpus, so the file
runs in well under a minute.
"""
import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sailx.experiments import build_demo_corpus  # noqa: E402
from sailx.sim import PHYSICS_DT  # noqa: E402

@pytest.fixture(scope="module")
def demos():
    return build_demo_corpus(n=6, seed=3)


@pytest.fixture(autouse=True)
def one_trial_per_cell(monkeypatch):
    small = {name: dataclasses.replace(w, trials_per_cell=1 if w.cells > 1
                                       else 3)
             for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", small)


def _traced_pass(workload, demos, seed):
    tracer = tracing.Tracer()
    with tracer.installed():
        rows = workload.run(demos, seed, workload.trials_per_cell)
    return rows, tracing.layer_metrics(tracer.spans, [], PHYSICS_DT)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_tracing_leaves_results_alone(name, demos):
    workload = workloads.WORKLOADS[name]
    untraced = workload.run(demos, 7, workload.trials_per_cell)
    rows_a, counts_a = _traced_pass(workload, demos, 7)
    rows_b, counts_b = _traced_pass(workload, demos, 7)
    assert run.digest(rows_a) == run.digest(untraced)
    assert run.digest(rows_b) == run.digest(untraced)
    assert counts_a["kernels.track_loop.steps"] > 0
    assert {k: counts_a[k] for k in tracing.EXACT_COUNTS} == \
        {k: counts_b[k] for k in tracing.EXACT_COUNTS}


def test_closed_loop_counts_are_consistent(demos):
    _, m = _traced_pass(workloads.WORKLOADS["closed-loop-sail"], demos, 7)
    assert m["scheduler.run_rollout.calls"] == 3
    # one unconditional draw per cycle, the first one before any replan
    assert m["policy.infer_unconditional.calls"] == \
        m["scheduler.replans"] + m["scheduler.run_rollout.calls"]
    # every sail rollout replans with EAG
    assert 0 < m["policy.infer_eag.calls"] <= m["scheduler.replans"]
    assert 0.0 < m["policy.guidance_applied_share"] <= 1.0


def test_installed_restores_every_binding():
    import importlib
    from sailx.controller import ReferenceTrack
    before = [importlib.import_module(m).__dict__[a]
              for m, a, _ in tracing.BINDINGS]
    sample = ReferenceTrack.__dict__["sample"]
    with tracing.Tracer().installed():
        assert all(importlib.import_module(m).__dict__[a] is not b
                   for (m, a, _), b in zip(tracing.BINDINGS, before))
    assert [importlib.import_module(m).__dict__[a]
            for m, a, _ in tracing.BINDINGS] == before
    assert ReferenceTrack.__dict__["sample"] is sample


def test_speed_probe_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with calibration.SpeedProbe(interval=0.05) as probe:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3
    assert probe.overhead_s >= sum(probe.samples) > 0.0
    assert probe.slowdown() > 0.0


def test_self_time_excludes_children():
    spans = [["outer", 0.0, 10.0, -1, 0, None],
             ["inner", 1.0, 4.0, 0, 0, None],
             ["inner", 5.0, 7.0, 0, 0, None]]
    totals = tracing._totals(spans)
    assert totals["outer"] == [1, 10.0, 5.0]
    assert totals["inner"] == [2, 5.0, 5.0]


def _main(monkeypatch, capsys, tmp_path, argv):
    monkeypatch.setattr(workloads, "CORPUS_SIZE", 6)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section",
                         [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(monkeypatch, capsys, tmp_path,
                                                 trace, section):
    result = _main(monkeypatch, capsys, tmp_path,
                   ["--workload", "closed-loop-sail", "--seed", "123",
                    "--seconds", "1", "--trace", str(trace)])
    spec = json.loads(run.SPEC.read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in spec[section]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_digest_mismatch_fails_the_run(monkeypatch, capsys, tmp_path):
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"ood-diagnose": {"123": "0" * 64}}))
    monkeypatch.setattr(run, "DIGESTS", digests)
    result = _main(monkeypatch, capsys, tmp_path,
                   ["--workload", "ood-diagnose", "--seed", "123",
                    "--seconds", "1", "--trace", "0"])
    assert result["correct"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ood-diagnose",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
