#!/usr/bin/env python3
"""Record a change's before/after benchmark numbers in one JSON file.

    python3 scripts/bench_record.py --out BENCH_6.json

Run from the repository root. The change is this checkout's working tree;
the parent is ``--parent`` (default HEAD, for an uncommitted change; pass
HEAD~1 once the change is committed), exported with ``git archive`` into a
temporary directory: the committed files of that revision and nothing
else, with no worktree left registered in the repository.

For every workload in BENCHMARK.json, ``perfbench/run.py --trace 0`` runs
for BENCHMARK.json's ``run_seconds`` in PAIRS parent/change pairs, one
fresh seed per pair, the order alternating from pair to pair so that a
drifting host favours neither side. Each end-to-end metric gets its
values, median and quartiles per side and the number of pairs the change
won. Each workload then runs with ``--trace 1`` TRACE_RUNS times per side
on each of the seeds TRACE_SEEDS, the sides alternating, and its per-layer
metrics are recorded beside the end-to-end ones: every run, and per seed
each side's median and the ratio of the change's to the parent's. The
tier-1 suite then runs once per side with ``--junitxml``, for its wall
time and the duration of each acceptance criterion. Both git shas, nproc
and the Python, numpy and scipy versions are recorded.

perfbench's ``setup_s`` times one cold corpus build per run, so a single
run can move it by a third. The set-up is therefore also timed warm: in
PROBE_RUNS fresh processes per side, alternating, each the median of
WARM_BUILDS warm ``build_demo_corpus(n=50)`` builds and, per workload, the
share of a pass spent setting its trials up (see SETUP_PROBE). Where a
closed-loop-sail pass spends its time is probed the same way, in PROBE_RUNS
fresh processes per side (see CLOSED_LOOP_PROBE).
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
# perfbench checks its digests on seeds 0 and 1; pairs use other seeds
FIRST_SEED = 100
# the seeds of the traced runs, whose per-layer counts the digests pin,
# and the runs per side and seed: one traced run per side is swamped by
# the host's drift
TRACE_SEEDS = (0, 1)
TRACE_RUNS = 3
# fresh processes per side of the warm set-up probe, and the warm builds
# and timed passes of each
PROBE_RUNS = 3
WARM_BUILDS = 15
PROBE_PASSES = 5

# Run in a fresh process from a tree's root: the median of WARM_BUILDS
# warm 50-demo builds, and per workload the median over PROBE_PASSES
# passes (after one warm-up pass) of the pass time and of the time spent
# in the sweeps' set-up helpers, those of them the tree has, counting only
# outermost calls: each replay's and diagnostics trial's set-up, the
# grouped reference fit that follows them, every task_for_demo and the
# pass's DemoLibrary. The grouped fit is timed where it runs: through
# sailx.experiments where that module fits the set-ups itself, and through
# sailx.scheduler's rollout driver for the workloads whose rows are
# replays or diagnostics trials, each one stretch, so that every driver
# fit is theirs; the closed loop's per-cycle fits there are planning, not
# set-up, and stay untimed. Prints one JSON line.
SETUP_PROBE = r"""
import functools, json, logging, sys, time
sys.path[:0] = ["src", "perfbench"]
import numpy as np
import workloads
from sailx import experiments, scheduler

logging.disable(logging.WARNING)
HELPERS = ("_replay_setup", "_diagnostics_setup", "_grouped_tracks",
           "task_for_demo", "DemoLibrary")
# workloads of one-stretch rows, whose driver fits are set-up
DRIVER_FIT = ("replay-open-loop", "ood-diagnose")
spent = [0.0]
depth = [0]

def timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        depth[0] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            if not depth[0]:
                spent[0] += time.perf_counter() - start
    return wrapper

builds = []
for _ in range(%(builds)d + 1):
    start = time.perf_counter()
    demos = experiments.build_demo_corpus(n=workloads.CORPUS_SIZE, seed=0)
    builds.append(time.perf_counter() - start)
for name in HELPERS:
    if hasattr(experiments, name):
        setattr(experiments, name, timed(getattr(experiments, name)))
fit = scheduler._grouped_tracks
out = {"warm_build_s": float(np.median(builds[1:])), "workloads": {}}
for name, w in workloads.WORKLOADS.items():
    scheduler._grouped_tracks = timed(fit) if name in DRIVER_FIT else fit
    passes, setups = [], []
    for p in range(%(passes)d + 1):
        spent[0] = 0.0
        start = time.perf_counter()
        w.run(demos, p, w.trials_per_cell)
        passes.append(time.perf_counter() - start)
        setups.append(spent[0])
    passes, setups = passes[1:], setups[1:]
    out["workloads"][name] = {
        "pass_s": float(np.median(passes)),
        "setup_s": float(np.median(setups)),
        "setup_share": sum(setups) / sum(passes)}
print(json.dumps(out))
""" % {"builds": WARM_BUILDS, "passes": PROBE_PASSES}

# Run in a fresh process from a tree's root: over PROBE_PASSES
# closed-loop-sail passes (after one warm-up pass), the median pass time
# and the median outermost time spent in each layer of the closed loop,
# timed through the bindings of sailx.scheduler that the tree has: the
# plant (track, and the generator track_lockstep, timed per step it
# yields), the reference builds (ReferenceTrack, _grouped_tracks) and the
# inference (infer_unconditional, infer_eag). A traced perfbench pass
# sees neither a lockstep run's plant nor its reference fits. Prints one
# JSON line.
CLOSED_LOOP_PROBE = r"""
import functools, inspect, json, logging, sys, time
sys.path[:0] = ["src", "perfbench"]
import numpy as np
import workloads
from sailx import experiments, scheduler

logging.disable(logging.WARNING)
LAYERS = {"plant": ("track", "track_lockstep"),
          "reference": ("ReferenceTrack", "_grouped_tracks"),
          "inference": ("infer_unconditional", "infer_eag")}
spent = dict.fromkeys(LAYERS, 0.0)
depth = dict.fromkeys(LAYERS, 0)

def timed(layer, fn):
    def enter():
        depth[layer] += 1
        return time.perf_counter()

    def leave(start):
        depth[layer] -= 1
        if not depth[layer]:
            spent[layer] += time.perf_counter() - start

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def steps(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                start = enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    leave(start)
                yield item
        return steps

    @functools.wraps(fn)
    def call(*args, **kwargs):
        start = enter()
        try:
            return fn(*args, **kwargs)
        finally:
            leave(start)
    return call

for layer, names in LAYERS.items():
    for name in names:
        if hasattr(scheduler, name):
            setattr(scheduler, name, timed(layer, getattr(scheduler, name)))
demos = experiments.build_demo_corpus(n=workloads.CORPUS_SIZE, seed=0)
w = workloads.WORKLOADS["closed-loop-sail"]
passes, layers = [], []
for p in range(%(passes)d + 1):
    for layer in LAYERS:
        spent[layer] = 0.0
    start = time.perf_counter()
    w.run(demos, p, w.trials_per_cell)
    passes.append(time.perf_counter() - start)
    layers.append(dict(spent))
out = {"pass_s": float(np.median(passes[1:]))}
for layer in LAYERS:
    out[layer + "_s"] = float(np.median([l[layer] for l in layers[1:]]))
print(json.dumps(out))
""" % {"passes": PROBE_PASSES}


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(sha: str, dest: Path) -> None:
    """Write the committed files of ``sha`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", sha],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def perfbench(tree: Path, workload: str, seed: int, seconds: float,
              trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def probe(tree: Path, script: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", script], cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_runs(parent_tree: Path, script: str) -> dict:
    """PROBE_RUNS runs of a probe per side, alternating."""
    runs = {"parent": [], "change": []}
    for i in range(PROBE_RUNS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(probe(parent_tree if side == "parent"
                                    else ROOT, script))
    return runs


def closed_loop_probes(parent_tree: Path) -> dict:
    """CLOSED_LOOP_PROBE per side, with the medians of each number over a
    side's runs."""
    runs = probe_runs(parent_tree, CLOSED_LOOP_PROBE)
    return {"runs": runs, "medians": {
        side: {key: float(np.median([r[key] for r in side_runs]))
               for key in side_runs[0]}
        for side, side_runs in runs.items()}}


def setup_probes(parent_tree: Path) -> dict:
    """SETUP_PROBE per side, with the medians of each number over a side's
    runs."""
    runs = probe_runs(parent_tree, SETUP_PROBE)
    medians = {}
    for side, side_runs in runs.items():
        medians[side] = {"warm_build_s": float(np.median(
            [r["warm_build_s"] for r in side_runs]))}
        for name in side_runs[0]["workloads"]:
            medians[side][name] = {key: float(np.median(
                [r["workloads"][name][key] for r in side_runs]))
                for key in ("pass_s", "setup_s", "setup_share")}
    return {"runs": runs, "medians": medians}


def tier1(tree: Path) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        xml = Path(tmp) / "junit.xml"
        env = dict(os.environ, PYTHONPATH="src")
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "pytest", "-q",
                        "--continue-on-collection-errors", "-p",
                        "no:cacheprovider", f"--junitxml={xml}"],
                       cwd=tree, env=env, capture_output=True)
        wall = time.perf_counter() - start
        suite = ET.parse(xml).getroot().find("testsuite")
    criteria = {case.get("name"): float(case.get("time"))
                for case in suite.iter("testcase")
                if case.get("name").startswith("test_criterion_")}
    return {"wall_s": wall, "tests": int(suite.get("tests")),
            "failures": int(suite.get("failures")),
            "errors": int(suite.get("errors")),
            "skipped": int(suite.get("skipped")), "criteria_s": criteria}


def summary(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(parent_runs, change_runs, spec) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        before = [r[name] for r in parent_runs]
        after = [r[name] for r in change_runs]
        lower = metric["better"] == "lower"
        won = sum((a < b) if lower else (a > b)
                  for a, b in zip(after, before))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent": summary(before), "change": summary(after),
                     "median_ratio": float(np.median(after)
                                           / np.median(before)),
                     "pairs_won": int(won)}
    return out


def per_layer(parent_tree: Path, workload: str, seconds: float) -> dict:
    """TRACE_RUNS traced runs per side on each of TRACE_SEEDS, the sides
    alternating, and per seed and per-layer metric each side's median and
    the ratio of the change's to the parent's (None where the parent's is
    0)."""
    out = {"seeds": list(TRACE_SEEDS), "runs_per_seed": TRACE_RUNS}
    for seed in TRACE_SEEDS:
        runs = {"parent": [], "change": []}
        for i in range(TRACE_RUNS):
            order = ["parent", "change"] if i % 2 == 0 else ["change",
                                                             "parent"]
            for side in order:
                tree = parent_tree if side == "parent" else ROOT
                runs[side].append(perfbench(tree, workload, seed, seconds,
                                            trace=1))
        medians = {side: {name: float(np.median([r[name] for r in v]))
                          for name in v[0]
                          if name not in ("correct", "failed", "attempted")}
                   for side, v in runs.items()}
        out[str(seed)] = {
            "runs": runs, "medians": medians,
            "change_over_parent": {
                name: (after / medians["parent"][name]
                       if medians["parent"][name] else None)
                for name, after in medians["change"].items()}}
    return out


def record(parent: dict, parent_tree: Path, spec) -> dict:
    seconds = spec["run_seconds"]
    seeds = list(range(FIRST_SEED, FIRST_SEED + PAIRS))
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change",
                                                             "parent"]
            for side in order:
                tree = parent_tree if side == "parent" else ROOT
                runs[side].append(perfbench(tree, workload, seed, seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {runs[side][-1]['trials_per_s']:.2f}/s"
                for side in ("parent", "change")), flush=True)
        workloads[workload] = {
            "all_correct": all(r["correct"] for side in runs.values()
                               for r in side),
            "failed": {side: sum(r["failed"] for r in v)
                       for side, v in runs.items()},
            "metrics": compare(runs["parent"], runs["change"], spec),
            "per_layer": per_layer(parent_tree, workload, seconds)}
    probes = setup_probes(parent_tree)
    closed_loop = closed_loop_probes(parent_tree)
    tests = {side: tier1(tree) for side, tree in
             (("parent", parent_tree), ("change", ROOT))}
    return {
        "parent": parent,
        "change": {"sha": git("rev-parse", "HEAD"),
                   "uncommitted": bool(git("status", "--porcelain"))},
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "numpy": np.__version__, "scipy": scipy.__version__,
                 "machine": platform.machine()},
        "perfbench": {"seconds": seconds, "pairs": PAIRS,
                      "seeds": seeds, "workloads": workloads},
        "setup_probe": {"runs": PROBE_RUNS, "warm_builds": WARM_BUILDS,
                        "passes": PROBE_PASSES, **probes},
        "closed_loop_probe": {"runs": PROBE_RUNS, "passes": PROBE_PASSES,
                              **closed_loop},
        "tier1": tests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", default="HEAD")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = {"rev": args.parent, "sha": git("rev-parse", args.parent)}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export(parent["sha"], Path(tmp))
        result = record(parent, Path(tmp), spec)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
