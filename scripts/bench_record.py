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
won. Each workload then runs with ``--trace 1`` on seeds TRACE_SEEDS, per
side, and its per-layer metrics are recorded beside the end-to-end ones,
with the ratio of the change's to the parent's mean per metric. The
tier-1 suite then runs once per side with ``--junitxml``, for its wall
time and the duration of each acceptance criterion. Both git shas, nproc
and the Python, numpy and scipy versions are recorded.
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
# the seeds of the traced runs, whose per-layer counts the digests pin
TRACE_SEEDS = (0, 1)


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
    """The traced runs on TRACE_SEEDS per side, and for each per-layer
    metric the ratio of the change's mean over those seeds to the
    parent's (None where the parent's is 0)."""
    runs = {side: [perfbench(tree, workload, seed, seconds, trace=1)
                   for seed in TRACE_SEEDS]
            for side, tree in (("parent", parent_tree), ("change", ROOT))}
    ratios = {}
    for name in runs["parent"][0]:
        if name in ("correct", "failed", "attempted"):
            continue
        before, after = (float(np.mean([r[name] for r in runs[side]]))
                         for side in ("parent", "change"))
        ratios[name] = after / before if before else None
    return {"seeds": list(TRACE_SEEDS), "runs": runs,
            "change_over_parent": ratios}


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
