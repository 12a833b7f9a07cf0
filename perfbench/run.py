#!/usr/bin/env python3
"""sailx benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload closed-loop-sail --seed 0 \
        --seconds 24 --trace 0

Run from the repository root; the package is imported from ``src/``. The
seed builds the input: the 50-demo corpus (the set-up, timed as
``setup_s``) and the pass seeds. With ``--trace 0`` the run repeats passes
of the workload (see workloads.py) for about ``--seconds`` seconds and
reports the end-to-end metrics. Their times are corrected for the host's
speed, which a ``calibration.SpeedProbe`` samples during the set-up and
every pass; the uncorrected figures are printed too. With ``--trace 1`` it
runs pass 0 twice
untraced and twice traced, reports the per-layer metrics of a traced pass
and of a traced set-up, and writes the spans to ``.bench_out/``.

Outputs are checked in every run: the rows of pass 0 are rendered with
``experiments.rows_to_csv`` and their sha256 must equal the digest in
``expected_digests.json`` when one is recorded for the seed, the rows must
be well formed, and traced passes must give the same rows as untraced
ones and the same counts as each other. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "expected_digests.json"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("closed-loop-sail", "replay-open-loop", "ood-diagnose")
# pass p of seed s runs with sweep seed s * PASS_STRIDE + p
PASS_STRIDE = 10_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_sailx():
    """Import sailx from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import sailx.experiments
    origin = Path(sailx.experiments.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"sailx imported from {origin}, not from {SRC}")


# ---------------------------------------------------------------------------
# environment record

def _cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, read only."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        values = [int(v) for v in fields[1:9]]  # user .. steal
    except (OSError, ValueError):
        return None
    return values[7], sum(values)


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(ticks_before, ticks_after) -> dict:
    import numpy
    import scipy
    from sailx import kernels
    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = ((ticks_after[0] - ticks_before[0])
                 / (ticks_after[1] - ticks_before[1]))
    return {"git_sha": _git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba_enabled": bool(kernels.NUMBA_ENABLED),
            "steal_share": steal}


# ---------------------------------------------------------------------------
# passes

def run_pass(workload, demos, seed, p, probe=None):
    """(rows, seconds, slowdown) of pass p; rows is None if it raised.

    With a probe running, seconds leave out the probe's own time and
    slowdown is the host slowdown the probe saw during the pass; otherwise
    slowdown is 1.
    """
    first, overhead = (len(probe.samples), probe.overhead_s) if probe \
        else (0, 0.0)
    start = time.perf_counter()
    try:
        rows = workload.run(demos, seed * PASS_STRIDE + p,
                            workload.trials_per_cell)
    except Exception:  # a failed pass is counted, and the run goes on
        traceback.print_exc()
        rows = None
    dt = time.perf_counter() - start
    if probe is None:
        return rows, dt, 1.0
    return rows, dt - (probe.overhead_s - overhead), probe.slowdown(first)


def timed_passes(workload, demos, seed, seconds, probe):
    """Passes 0, 1, ... for as close to ``seconds`` as whole passes allow.

    Another pass starts while the run, at its mean pass time so far, would
    end nearer to ``seconds`` with that pass than without it.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, demos, seed, len(passes), probe))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def digest(rows) -> str:
    from sailx.experiments import rows_to_csv
    return hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()


def check_outputs(workload, seed, rows, problems):
    """Check pass-0 rows; returns their digest and whether it was compared."""
    if rows is None:
        problems.append("pass 0 raised")
        return None, False
    problems.extend(workload.check(rows, workload.trials_per_cell))
    got = digest(rows)
    expected = json.loads(DIGESTS.read_text()).get(workload.name, {})
    want = expected.get(str(seed))
    if want is not None and want != got:
        problems.append(f"digest {got} != expected {want}")
    return got, want is not None


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_sailx()
    except ImportError as exc:
        print(f"cannot import sailx from {SRC}: {exc}", file=sys.stderr)
        return 2
    from sailx.experiments import build_demo_corpus
    from sailx.sim import PHYSICS_DT
    from calibration import SpeedProbe
    from tracing import EXACT_COUNTS, Tracer, layer_metrics
    from workloads import CORPUS_SIZE, WORKLOADS, failed_trials

    workload = WORKLOADS[args.workload]
    ticks_before = _cpu_ticks()
    setup_tracer = Tracer() if args.trace else None
    # the probe runs only untraced, so that it adds nothing to any span
    probe = None if args.trace else SpeedProbe()
    with probe or nullcontext():
        start = time.perf_counter()
        with setup_tracer.installed() if args.trace else nullcontext():
            demos = build_demo_corpus(n=CORPUS_SIZE, seed=args.seed)
        setup_raw_s = time.perf_counter() - start - (probe.overhead_s
                                                     if probe else 0.0)
        setup_slowdown = probe.slowdown() if probe else 1.0
        if not args.trace:
            passes = timed_passes(workload, demos, args.seed, args.seconds,
                                  probe)

    problems: list[str] = []
    if args.trace:
        # pass 0 untraced, traced, untraced, traced: the best time of each
        # kind gives the overhead, and the two traced passes must count alike
        passes, tracers, counts = [], [], []
        for _ in range(2):
            passes.append(run_pass(workload, demos, args.seed, 0))
            tracers.append(Tracer())
            with tracers[-1].installed():
                passes.append(run_pass(workload, demos, args.seed, 0))
            counts.append(layer_metrics(tracers[-1].spans, setup_tracer.spans,
                                        PHYSICS_DT))
        if len({digest(rows or []) for rows, _, _ in passes}) != 1:
            problems.append("traced rows differ from untraced rows")
        if any(counts[0][k] != counts[1][k] for k in EXACT_COUNTS):
            problems.append("exact counts differ between traced passes")
        untraced_s = min(dt for _, dt, _ in passes[0::2])
        traced_s = min(dt for _, dt, _ in passes[1::2])
        metrics = counts[0]
        metrics["tracing.overhead_share"] = traced_s / untraced_s - 1.0
    ticks_after = _cpu_ticks()
    env = environment(ticks_before, ticks_after)

    sha, compared = check_outputs(workload, args.seed, passes[0][0], problems)
    attempted = workload.trials * len(passes)
    failed = sum(workload.trials if rows is None else failed_trials(rows)
                 for rows, _, _ in passes)
    measured_s = sum(dt for _, dt, _ in passes)
    # host-speed-corrected time: each pass's seconds over its slowdown
    corrected_s = sum(dt / slowdown for _, dt, slowdown in passes)
    if not args.trace:
        metrics = {"setup_s": setup_raw_s / setup_slowdown,
                   "trials_per_s": (attempted - failed) / corrected_s,
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                   .ru_maxrss / 1024.0)}
    spec = json.loads(SPEC.read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} "
                           f"differ from {SPEC.name}")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {workload.trials} trials "
          f"in {measured_s:.3f} s")
    print("pass seconds: " + " ".join(f"{dt:.3f}" for _, dt, _ in passes))
    if probe:
        print("host slowdown per pass: "
              + " ".join(f"{slowdown:.3f}" for _, _, slowdown in passes)
              + f"; in set-up {setup_slowdown:.3f} ({len(probe.samples)} "
              f"reference slices, {probe.overhead_s:.3f} s)")
        print(f"uncorrected: setup_s = {setup_raw_s:.6g} s, trials_per_s = "
              f"{(attempted - failed) / measured_s:.6g} 1/s")
    print(f"digest of pass 0: {sha} "
          f"({'checked' if compared else 'no digest recorded for this seed'})")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(f"failed_share = {failed / attempted:.4g} fraction "
          f"({failed} of {attempted} trials failed)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {declared[name]}")
    if args.trace:
        print(f"tracing overhead: best pass {traced_s:.3f} s traced against "
              f"{untraced_s:.3f} s untraced, {len(tracers[0].spans)} spans "
              f"per traced pass")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        out.write_text(json.dumps({"env": env, "setup": setup_tracer.spans,
                                   "pass": tracers[0].spans}))
        print(f"spans written to {os.path.relpath(out, ROOT)}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
