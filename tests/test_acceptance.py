"""Acceptance gate: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Everything is seeded; reruns are bit-identical.
"""
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from sailx.cli import main
from sailx.core import tracking_error
from sailx.diagnostics import SampleSet, knn_distance
from sailx.experiments import (run_diagnostics, run_method_rollout,
                               sweep_gain_replay, sweep_noise, sweep_speed,
                               task_for_demo)
from sailx.metrics import aggregate, ldlj, sparc, tpr, wed
from sailx.policy import (MockPolicy, PolicyConfig, cfg_blend, infer_eag,
                          infer_unconditional)
from sailx.sim import Pose, initial_world
from sailx.speedmod import NOISE, dbscan, extract_waypoints, label_critical

from baseline_oracle import aggregate_actions
from plant_oracle import quat_from_rotvec, quat_mul, quat_normalize
from scheduler_oracle import lower_bound_interval, simulate_timeline


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. scheduler stall bound

def test_criterion_01_scheduler_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    clean = stalled = 0
    trials = 1000
    for _ in range(trials):
        delta_delay = float(rng.uniform(1e-3, 0.5))
        h_p = int(rng.integers(8, 65))
        h_c = int(rng.integers(0, h_p - 1))  # [0, h_p - 2]
        lb = lower_bound_interval(delta_delay, h_p, h_c)
        safe = simulate_timeline(h_p, h_c, delta_delay, 1.05 * lb, cycles=20)
        tight = simulate_timeline(h_p, h_c, delta_delay, 0.5 * lb, cycles=20)
        clean += safe.stall_count == 0
        stalled += tight.stall_count == tight.cycles
    elapsed = time.monotonic() - t0
    ok = clean == trials and stalled == trials and elapsed < 60.0
    _report(1, "interval lower bound separates stall-free from stalling",
            ok, f"{clean}/{trials} clean, {stalled}/{trials} all-stall, "
                f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. guidance gating exactness and blend endpoints

def test_criterion_02_guidance_gating(demos50):
    policy = MockPolicy(demos50, PolicyConfig(), seed=0)
    demo = demos50[0]
    world = initial_world(Pose(demo.reached[0, :3], demo.reached[0, 3:7]),
                          task_for_demo(demo))
    prev = infer_unconditional(policy, world)

    rng = np.random.default_rng(202)
    pos_cases = [0.0, 0.0199, 0.02, 0.0201, 0.1]
    ori_cases = [0.0, 0.0499, 0.05, 0.0501, 0.5]
    base = Pose(np.array([0.1, 0.2, 0.3]))
    # the gate reads the robot pose of the state it is given
    at_base = initial_world(base, task_for_demo(demo))
    checked = mismatches = 0
    for e_pos in pos_cases:
        for e_ori in ori_cases:
            for _ in range(2):  # 2 random directions per combo -> 50 cases
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                desired = Pose(
                    base.position + e_pos * u,
                    quat_normalize(quat_mul(quat_from_rotvec(e_ori * axis),
                                            base.orientation)))
                err = tracking_error(desired, base.position,
                                     base.orientation)
                expected = err.e_pos <= 0.02 and err.e_ori <= 0.05
                _, applied = infer_eag(policy, at_base, prev, desired,
                                       exec_offset=8)
                checked += 1
                mismatches += applied != expected
    a = infer_unconditional(policy, world)
    b = infer_unconditional(policy, world)
    lo = cfg_blend(a, b, 0.0)
    hi = cfg_blend(a, b, 1.0)
    endpoints = (np.array_equal(lo.positions, a.positions)
                 and np.array_equal(lo.orientations, a.orientations)
                 and np.array_equal(hi.positions, b.positions)
                 and np.array_equal(hi.orientations, b.orientations))
    ok = mismatches == 0 and checked == 50 and endpoints
    _report(2, "error gate matches its threshold predicate; blend endpoints "
               "bit-exact", ok, f"{checked} boundary cases, "
                                f"{mismatches} mismatches")


# ---------------------------------------------------------------------------
# 3. metric oracle equivalence

def _oracle_sparc(speed, pad_factor=4, sample_interval=0.02,
                  amplitude_threshold=0.05, omega_c_max=20.0):
    v = np.asarray(speed, dtype=float)
    nfft = pad_factor * len(v)
    k = np.arange(nfft // 2 + 1)
    n = np.arange(nfft)
    padded = np.zeros(nfft)
    padded[:len(v)] = v
    mags = np.array([abs(np.sum(padded * np.exp(-2j * np.pi * kk * n / nfft)))
                     for kk in k])
    vhat = mags / mags[0]
    freqs = k / (nfft * sample_interval)
    above = np.nonzero(vhat >= amplitude_threshold)[0]
    cutoff = freqs[min(above[-1] + 1, len(freqs) - 1)]
    omega_c = min(omega_c_max, max(cutoff, freqs[1]))
    sel = freqs <= omega_c
    f, vv = freqs[sel], vhat[sel]
    return -float(np.sum(np.sqrt((np.diff(f) / omega_c) ** 2
                                 + np.diff(vv) ** 2)))


def test_criterion_03_metric_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    worst_sparc = 0.0
    for _ in range(100):
        v = np.abs(rng.normal(size=int(rng.integers(20, 60))))
        worst_sparc = max(worst_sparc, abs(sparc(v) - _oracle_sparc(v)))

    worst_knn = 0.0
    for _ in range(50):
        x = rng.normal(size=(64, 12))
        q = rng.normal(size=12)
        k = int(rng.integers(1, 16))
        expected = float(np.mean(np.sort(np.linalg.norm(x - q, axis=1))[:k]))
        worst_knn = max(worst_knn,
                        abs(knn_distance(SampleSet(x), q, k=k) - expected))

    worst_wed = 0.0
    for _ in range(50):
        nxt = rng.normal(size=(32, 3))
        prv = rng.normal(size=(32, 3))
        overlap = int(rng.integers(1, 16))
        offset = int(rng.integers(0, 32 - overlap))
        expected = sum(0.9 ** i * float(np.linalg.norm(nxt[i]
                                                       - prv[offset + i]))
                       for i in range(overlap))
        worst_wed = max(worst_wed, abs(wed(nxt, prv, overlap, offset=offset)
                                       - expected))

    tpr_exact = (tpr([(True, 2.0)], t_max=60.0) == 0.5
                 and tpr([(True, 5.0)], t_max=60.0) == 0.2
                 and tpr([(False, 10.0)], t_max=60.0) == -1.0 / 60.0)
    elapsed = time.monotonic() - t0
    ok = (worst_sparc <= 1e-9 and worst_knn <= 1e-12 and worst_wed <= 1e-12
          and tpr_exact and elapsed < 30.0)
    _report(3, "spectral arc / knn / weighted-distance / throughput oracles",
            ok, f"sparc {worst_sparc:.2e}, knn {worst_knn:.2e}, "
                f"wed {worst_wed:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. smoothness-metric invariances

def test_criterion_04_smoothness_invariances():
    rng = np.random.default_rng(404)
    t1 = np.linspace(0.0, 2.0, 16001)
    v1 = np.sin(np.pi * t1 / 2.0) ** 2
    t2 = np.linspace(0.0, 1.0, 8001)
    v2 = 2.0 * np.sin(np.pi * t2) ** 2
    amp_err = abs(ldlj(3.0 * v1, t1[1]) - ldlj(v1, t1[1]))
    time_err = abs(ldlj(v2, t2[1]) - ldlj(v1, t1[1]))

    sparc_amp_exact = True
    degraded = 0
    pairs = 20
    for _ in range(pairs):
        n = int(rng.integers(150, 250))
        t = np.linspace(0.0, 1.0, n)
        base = np.sin(np.pi * t) + 0.2
        amp = float(rng.uniform(0.10, 0.20))
        freq = int(rng.integers(15, 30))
        rippled = base + amp * np.sin(2.0 * np.pi * freq * t)
        sparc_amp_exact &= sparc(4.0 * base) == sparc(base)
        dt = t[1]
        degraded += (sparc(rippled) < sparc(base)
                     and ldlj(rippled, dt) > ldlj(base, dt))
    ok = (amp_err <= 1e-9 and time_err <= 1e-3 and sparc_amp_exact
          and degraded == pairs)
    _report(4, "jerk/arc-length invariances and strict ripple degradation",
            ok, f"amp {amp_err:.2e}, rescale {time_err:.2e}, "
                f"ripple {degraded}/{pairs}")


# ---------------------------------------------------------------------------
# 5. replay gain/target matrix at high speedup

def test_criterion_05_replay_gain_target(demos50):
    t0 = time.monotonic()
    rows = sweep_gain_replay(demos50, c_values=(0.2,), seed=0)
    sr = {(r["gain"], r["target"]): r["sr"] for r in rows}
    elapsed = time.monotonic() - t0
    ok = (sr[("high", "reached")] >= sr[("high", "commanded")] + 0.2
          and sr[("high", "reached")] >= sr[("low", "reached")] + 0.2
          and elapsed < 300.0)
    _report(5, "stiff tracking of attained poses dominates the replay matrix",
            ok, f"high/reached {sr[('high', 'reached')]:.2f}, "
                f"high/commanded {sr[('high', 'commanded')]:.2f}, "
                f"low/reached {sr[('low', 'reached')]:.2f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. noise sensitivity of stiff control

def test_criterion_06_noise_sensitivity(demos50):
    scales = (0.0, 0.002, 0.005, 0.01)
    rows = sweep_noise(demos50, scales=scales, trials=100, seed=0)
    sr = {(r["gain"], r["noise"]): r["sr"] for r in rows}
    drop_high = sr[("high", 0.0)] - sr[("high", scales[-1])]
    drop_low = sr[("low", 0.0)] - sr[("low", scales[-1])]
    ok = drop_high > drop_low
    _report(6, "stiff gains degrade faster under reference noise",
            ok, f"drop high {drop_high:.2f} vs low {drop_low:.2f}")


# ---------------------------------------------------------------------------
# 7. throughput scaling with speedup

def test_criterion_07_throughput_scaling(demos50):
    t0 = time.monotonic()
    c_values = (1.0, 0.5, 0.33, 0.2)
    rows = sweep_speed(demos50, methods=("sail",), c_values=c_values,
                       trials=100, seed=0)
    base = sweep_speed(demos50, methods=("dp",), c_values=(1.0,),
                       trials=100, seed=0)[0]
    tpr_by_c = [r["tpr"] for r in rows]
    sr_by_c = [r["sr"] for r in rows]
    elapsed = time.monotonic() - t0
    factor = tpr_by_c[-1] / base["tpr"] if base["tpr"] > 0 else np.inf
    monotone = all(b >= a - 1e-12 for a, b in zip(tpr_by_c, tpr_by_c[1:]))
    sr_held = all(abs(s - sr_by_c[0]) <= 0.1 for s in sr_by_c)
    ok = factor >= 2.0 and monotone and sr_held and elapsed < 600.0
    _report(7, "adaptive execution at 5x speedup at least doubles throughput",
            ok, f"factor {factor:.2f}, tpr {['%.3f' % t for t in tpr_by_c]}, "
                f"sr {sr_by_c}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. guidance improves chunk-to-chunk consistency

def test_criterion_08_consistency_effect(demos50):
    logs_on, logs_off = [], []
    for trial in range(100):
        seed = 808 + trial
        logs_on.append(run_method_rollout("sail", 0.2, demos50, seed,
                                          use_eag=True))
        logs_off.append(run_method_rollout("sail", 0.2, demos50, seed,
                                           use_eag=False))
    rep_on = aggregate(logs_on, t_max=30.0)
    rep_off = aggregate(logs_off, t_max=30.0)
    ok = (rep_on.con <= rep_off.con and rep_on.wed <= rep_off.wed
          and rep_on.sparc >= rep_off.sparc)
    _report(8, "guided replanning lowers transition discrepancy",
            ok, f"con {rep_on.con:.4f}<={rep_off.con:.4f}, "
                f"wed {rep_on.wed:.4f}<={rep_off.wed:.4f}, "
                f"sparc {rep_on.sparc:.3f}>={rep_off.sparc:.3f}")


# ---------------------------------------------------------------------------
# 9. out-of-distribution scores track speedup and error

def test_criterion_09_ood_correlation(demos50):
    c_values = (1.0, 0.33, 0.2)
    rows = run_diagnostics(demos50, c_values=c_values, trials=200, seed=0)
    rho = spearmanr([r["e_pos"] for r in rows],
                    [r["knn"] for r in rows]).statistic
    medians = [float(np.median([r["knn"] for r in rows if r["c"] == c]))
               for c in c_values]
    monotone = all(b >= a for a, b in zip(medians, medians[1:]))
    ok = rho > 0.3 and monotone
    _report(9, "distance-to-samples rises with speedup and tracking error",
            ok, f"spearman {rho:.3f}, medians "
                f"{['%.4f' % m for m in medians]}")


# ---------------------------------------------------------------------------
# 10. labeling and aggregation oracles

def _oracle_labels(pts, tau=0.005, eps=0.02, min_pts=4):
    wps = extract_waypoints(pts, tau)
    labels = dbscan(wps.positions, eps, min_pts)
    expected = np.zeros(len(pts), dtype=np.int8)
    for a in range(len(labels) - 1):
        if labels[a] != NOISE and labels[a + 1] != NOISE:
            expected[wps.indices[a]:wps.indices[a + 1] + 1] = 1
    return expected


def test_criterion_10_labeling_and_aggregation():
    rng = np.random.default_rng(1010)
    label_ok = 0
    for _ in range(20):
        approach = np.linspace([0, 0, 0.4], [0.3, 0, 0.02], 15)
        dwell = (np.array([0.3, 0, 0.02])
                 + rng.normal(scale=0.012, size=(int(rng.integers(15, 30)), 3)))
        retreat = np.linspace([0.3, 0, 0.02], [0.3, 0.4, 0.3], 15)
        pts = np.vstack([approach, dwell, retreat])
        label_ok += np.array_equal(label_critical(pts), _oracle_labels(pts))

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        deltas = rng.normal(0.0, 3e-4, size=(n, 3))
        merged = aggregate_actions(list(deltas))
        worst = max(worst, float(np.max(np.abs(
            np.sum(merged, axis=0) - np.sum(deltas, axis=0)))))
    ok = label_ok == 20 and worst <= 1e-12
    _report(10, "critical labels match the cluster oracle; aggregation "
                "conserves displacement",
            ok, f"labels {label_ok}/20, residual {worst:.2e}")


# ---------------------------------------------------------------------------
# 11. byte-identical reruns of every sweep command

def test_criterion_11_determinism(demos50, tmp_path):
    from sailx.io import save_demos
    demo_dir = str(tmp_path / "corpus")
    save_demos(demos50[:6], demo_dir)
    commands = {
        "sweep-speed": ["sweep-speed", "--method", "sail,dp-fast",
                        "--c-values", "1.0,0.2", "--trials", "2"],
        "sweep-gain-replay": ["sweep-gain-replay", "--c-values", "1.0,0.2"],
        "sweep-noise": ["sweep-noise", "--scales", "0.0,0.01",
                        "--trials", "5"],
        "diagnose": ["diagnose", "--trials", "6"],
    }
    mismatched = []
    for name, argv in commands.items():
        outputs = []
        for run in range(2):
            out = str(tmp_path / f"{name}_{run}.csv")
            code = main(argv + ["--demos", demo_dir, "--seed", "5",
                                "--out", out])
            assert code == 0
            outputs.append(open(out, "rb").read())
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    ok = not mismatched
    _report(11, "seeded sweep commands rerun byte-identical",
            ok, f"mismatched: {mismatched or 'none'}")
