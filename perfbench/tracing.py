"""Outside-in tracing of the sailx layers.

Spans are recorded from this package only. For the length of a traced phase
every public sailx function the benchmark measures is replaced by a timing
wrapper, and the originals are put back afterwards. Because the sailx
modules use ``from .x import f``, each module holds its own binding of a
name, so a name is wrapped in every module that calls it (``BINDINGS``),
not only where it is defined.

A span is ``[name, start, end, parent, trial, info]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``trial`` the id shared by
every span of one rollout, replay or diagnostic trial (-1 outside trials),
and ``info`` a count or record taken from the call's arguments or result.
Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, name, span name)
BINDINGS = (
    ("sailx.controller", "track_loop", "kernels.track_loop"),
    ("sailx.scheduler", "track", "controller.track"),
    ("sailx.experiments", "track", "controller.track"),
    ("sailx.io", "track", "controller.track"),
    ("sailx.scheduler", "ReferenceTrack", "controller.reference.build"),
    ("sailx.experiments", "ReferenceTrack", "controller.reference.build"),
    ("sailx.io", "ReferenceTrack", "controller.reference.build"),
    ("sailx.scheduler", "infer_unconditional", "policy.infer_unconditional"),
    ("sailx.experiments", "infer_unconditional", "policy.infer_unconditional"),
    # infer_eag draws its unconditional chunk through the policy global
    ("sailx.policy", "infer_unconditional", "policy.infer_unconditional"),
    ("sailx.policy", "infer_conditional", "policy.infer_conditional"),
    ("sailx.policy", "cfg_blend", "policy.cfg_blend"),
    ("sailx.scheduler", "infer_eag", "policy.infer_eag"),
    ("sailx.scheduler", "con", "metrics.con_wed"),
    ("sailx.scheduler", "wed", "metrics.con_wed"),
    ("sailx.experiments", "run_rollout", "scheduler.run_rollout"),
    ("sailx.experiments", "replay_rollout", "experiments.replay_rollout"),
    ("sailx.experiments", "diagnostics_trial",
     "experiments.diagnostics_trial"),
    ("sailx.experiments", "aggregate", "metrics.aggregate"),
    ("sailx.metrics", "aggregate", "metrics.aggregate"),
    ("sailx.experiments", "knn_distance", "diagnostics.scores"),
    ("sailx.experiments", "kde_score", "diagnostics.scores"),
    ("sailx.experiments", "mmd", "diagnostics.scores"),
    ("sailx.experiments", "generate_demos", "io.generate_demos"),
    ("sailx.io", "label_critical", "speedmod.label_critical"),
)
SAMPLE_SPAN = "controller.reference.sample"
# layer metrics that must repeat exactly when a pass is rerun
EXACT_COUNTS = ("kernels.track_loop.steps", "controller.track.calls",
                "controller.reference.build.calls",
                "controller.reference.sample.points",
                "policy.infer_unconditional.calls",
                "policy.infer_conditional.calls", "policy.infer_eag.calls",
                "policy.guidance_applied_share", "scheduler.run_rollout.calls",
                "scheduler.replans", "scheduler.stalls",
                "scheduler.post_outcome_sim_share")
TRIAL_ROOTS = frozenset({"scheduler.run_rollout", "experiments.replay_rollout",
                         "experiments.diagnostics_trial"})


def _rollout_record(log) -> dict:
    releases = [t for t, tag in log.events if tag == "release"]
    return {"success": bool(log.success), "duration": float(log.duration),
            "last_release": releases[-1] if releases else None,
            "replans": sum(1 for _, tag in log.events if tag == "splice"),
            "stalls": int(log.stall_count)}


# what each span keeps from its call: (args, result) -> info
_INFO = {
    "kernels.track_loop": lambda args, result: len(args[1]),
    SAMPLE_SPAN: lambda args, result: len(np.atleast_1d(args[1])),
    "policy.infer_eag": lambda args, result: bool(result[1]),
    "scheduler.run_rollout": lambda args, result: _rollout_record(result),
}


class Tracer:
    """Records spans around calls into sailx while ``installed``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trial = -1
        self._trials = 0

    def call(self, name, fn, args, kwargs):
        trial = self._trial
        if name in TRIAL_ROOTS:
            self._trial = self._trials
            self._trials += 1
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self._trial, None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._trial = trial
        info = _INFO.get(name)
        if info is not None:
            span[5] = info(args, result)
        return result

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding in BINDINGS and ReferenceTrack.sample."""
        from sailx.controller import ReferenceTrack
        saved = []
        targets = [(importlib.import_module(m), attr, span)
                   for m, attr, span in BINDINGS]
        targets.append((ReferenceTrack, "sample", SAMPLE_SPAN))
        try:
            for owner, attr, span in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(span, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def _totals(spans):
    """Per span name: [calls, seconds, self seconds]."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _, _, _) in enumerate(spans):
        total = totals[name]
        total[0] += 1
        total[1] += end - start
        total[2] += end - start - child[i]
    return totals


def layer_metrics(spans, setup_spans, physics_dt: float) -> dict:
    """The per-layer metrics of one traced pass and one traced set-up."""
    tot = _totals(spans)
    setup = _totals(setup_spans)
    info = defaultdict(list)
    for name, _, _, _, trial, value in spans:
        info[name].append((trial, value))
    steps = sum(v for _, v in info["kernels.track_loop"])
    eag = [v for _, v in info["policy.infer_eag"]]
    rollouts = dict(info["scheduler.run_rollout"])  # trial -> record
    rollout_ms = [1e3 * (end - start) for name, start, end, *_ in spans
                  if name == "scheduler.run_rollout"]
    sim_s = physics_dt * sum(v for trial, v in info["kernels.track_loop"]
                             if trial in rollouts)
    post_s = sum(r["duration"] - r["last_release"] for r in rollouts.values()
                 if not r["success"] and r["last_release"] is not None)
    track_loop_s = tot["kernels.track_loop"][1]

    return {
        "kernels.track_loop.steps": steps,
        "kernels.track_loop.s": track_loop_s,
        "kernels.track_loop.us_per_step":
            1e6 * track_loop_s / steps if steps else 0.0,
        "controller.track.calls": tot["controller.track"][0],
        "controller.track.s": tot["controller.track"][1],
        "controller.reference.build.calls":
            tot["controller.reference.build"][0],
        "controller.reference.build.s": tot["controller.reference.build"][1],
        "controller.reference.sample.points":
            sum(v for _, v in info[SAMPLE_SPAN]),
        "controller.reference.sample.s": tot[SAMPLE_SPAN][1],
        "policy.infer_unconditional.calls":
            tot["policy.infer_unconditional"][0],
        "policy.infer_unconditional.s": tot["policy.infer_unconditional"][1],
        "policy.infer_conditional.calls": tot["policy.infer_conditional"][0],
        "policy.infer_conditional.s": tot["policy.infer_conditional"][1],
        "policy.cfg_blend.s": tot["policy.cfg_blend"][1],
        "policy.infer_eag.calls": len(eag),
        "policy.guidance_applied_share": sum(eag) / len(eag) if eag else 0.0,
        "scheduler.run_rollout.calls": len(rollouts),
        "scheduler.run_rollout.self_s": tot["scheduler.run_rollout"][2],
        "scheduler.replans": sum(r["replans"] for r in rollouts.values()),
        "scheduler.stalls": sum(r["stalls"] for r in rollouts.values()),
        "scheduler.rollout_ms.p50":
            float(np.percentile(rollout_ms, 50)) if rollout_ms else 0.0,
        "scheduler.rollout_ms.p90":
            float(np.percentile(rollout_ms, 90)) if rollout_ms else 0.0,
        "scheduler.rollout_ms.samples": len(rollout_ms),
        "scheduler.post_outcome_sim_share": post_s / sim_s if sim_s else 0.0,
        "experiments.replay_rollout.self_s":
            tot["experiments.replay_rollout"][2],
        "experiments.diagnostics_trial.self_s":
            tot["experiments.diagnostics_trial"][2],
        "metrics.aggregate.s": tot["metrics.aggregate"][1],
        "metrics.con_wed.s": tot["metrics.con_wed"][1],
        "diagnostics.scores.s": tot["diagnostics.scores"][1],
        "setup.io.generate_demos.s": setup["io.generate_demos"][1],
        "setup.kernels.track_loop.s": setup["kernels.track_loop"][1],
        "setup.controller.reference.sample.s": setup[SAMPLE_SPAN][1],
        "setup.speedmod.label_critical.s":
            setup["speedmod.label_critical"][1],
    }
