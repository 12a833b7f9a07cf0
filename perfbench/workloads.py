"""The benchmark workloads, each a set of cells of the seeded sweeps.

A workload runs in passes. A pass calls the public sweep functions with a
pass seed and yields the result rows the sweeps would write as CSV. Pass
sizes are small enough that a timed run completes several passes, and large
enough that a cell still holds several trials for a batched plant to share.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from sailx import experiments

CORPUS_SIZE = 50
T_MAX = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    cells: int
    trials_per_cell: int
    # (demos, sweep seed, trials per cell) -> rows
    run: Callable[[list, int, int], list[dict]]
    check: Callable[[list[dict], int], list[str]]  # (rows, trials) -> problems

    @property
    def trials(self) -> int:
        return self.cells * self.trials_per_cell


def _finite(row) -> bool:
    return all(math.isfinite(v) for v in row.values()
               if isinstance(v, (int, float)) and not isinstance(v, bool))


def failed_trials(rows: list[dict]) -> int:
    """Trials whose result row holds a non-finite number.

    A sweep row aggregates a whole cell, so a non-finite cell row counts all
    of the cell's trials; a diagnostics row is one trial.
    """
    return sum(int(r.get("n", 1)) for r in rows if not _finite(r))


def _check_sweep_rows(rows, cells, trials):
    problems = []
    if len(rows) != cells:
        problems.append(f"{len(rows)} rows, expected {cells}")
    for r in rows:
        if r["n"] != trials:
            problems.append(f"row {r} has n != {trials}")
        if not 0.0 <= r["sr"] <= 1.0:
            problems.append(f"row {r} has sr outside [0, 1]")
        # the executor floors its intervals above the stall bound
        if r.get("stalls") not in (None, 0.0):
            problems.append(f"row {r} stalls")
    return problems


# -- closed-loop-sail: criterion 7 ---------------------------------------------

SAIL_C = (1.0, 0.5, 0.2)


def _closed_loop_sail(demos, seed, trials):
    return experiments.sweep_speed(demos, methods=("sail",), c_values=SAIL_C,
                                   trials=trials, seed=seed, jobs=1,
                                   t_max=T_MAX)


# -- replay-open-loop: criterion 6 --------------------------------------------

NOISE_SCALES = (0.0, 0.005, 0.01)
NOISE_GAINS = ("high", "low")


def _replay_open_loop(demos, seed, trials):
    return experiments.sweep_noise(demos, scales=NOISE_SCALES,
                                   gains=NOISE_GAINS, trials=trials,
                                   seed=seed)


# -- ood-diagnose: criterion 9 ------------------------------------------------

DIAG_C = (1.0, 0.33, 0.2)


def _ood_diagnose(demos, seed, trials):
    return experiments.run_diagnostics(demos, c_values=DIAG_C,
                                       trials=trials, seed=seed)


def _check_diag_rows(rows, trials):
    problems = []
    if [r["trial"] for r in rows] != list(range(trials)):
        problems.append(f"trials {[r['trial'] for r in rows]}")
    for r in rows:
        if r["c"] not in DIAG_C:
            problems.append(f"row {r} has an unknown c")
        if min(r["e_pos"], r["knn"], r["kde"], r["mmd"]) < 0.0:
            problems.append(f"row {r} has a negative score")
        if r["mmd"] > math.sqrt(2.0) + 1e-12:
            problems.append(f"row {r} has mmd above sqrt(2)")
    return problems


N_NOISE_CELLS = len(NOISE_SCALES) * len(NOISE_GAINS)

WORKLOADS = {w.name: w for w in (
    Workload("closed-loop-sail", len(SAIL_C), 4, _closed_loop_sail,
             lambda rows, n: _check_sweep_rows(rows, len(SAIL_C), n)),
    Workload("replay-open-loop", N_NOISE_CELLS, 4, _replay_open_loop,
             lambda rows, n: _check_sweep_rows(rows, N_NOISE_CELLS, n)),
    Workload("ood-diagnose", 1, 36, _ood_diagnose, _check_diag_rows),
)}
