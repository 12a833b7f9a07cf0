"""Rollout and trajectory evaluation metrics.

Conventions: TPR, SR, SOD, SPARC higher is better; ATR, CON, WED, LDLJ lower
is better. Smoothness metrics operate on scalar speed profiles, by default
the finite-difference speed of executed positions downsampled to 50 Hz.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError

# The metric definitions' fixed constants: WED's weight decay per step and
# the rate a speed profile is downsampled to.
WED_DECAY = 0.9
SPEED_PROFILE_HZ = 50.0
# SPARC's zero-padding factor, cutoff amplitude threshold and cutoff cap (Hz)
SPARC_PAD = 4
SPARC_THRESHOLD = 0.05
SPARC_OMEGA_MAX = 20.0


def check_t_max(t_max: float) -> None:
    """Refuse a TPR time limit that is not finite and > 0 with
    InvalidInputError."""
    if not (math.isfinite(t_max) and t_max > 0):
        raise InvalidInputError(f"t_max must be finite and > 0, got {t_max!r}")


def tpr(outcomes, t_max: float) -> float:
    """Throughput-with-regret: mean of 1/t_i over successes, -1/t_max per failure."""
    outcomes = list(outcomes)
    if not outcomes:
        raise UndefinedMetricError("TPR needs at least one rollout")
    check_t_max(t_max)
    total = 0.0
    for success, duration in outcomes:
        if success:
            if not (math.isfinite(duration) and duration > 0):
                raise InvalidInputError(
                    "success durations must be finite and > 0, got "
                    f"{duration!r}")
            total += 1.0 / duration
        else:
            total -= 1.0 / t_max
    return total / len(outcomes)


def sparc(speed) -> float:
    """Negative arc length of the normalized magnitude spectrum of a
    SPEED_PROFILE_HZ speed profile.

    The profile is zero-padded, the spectrum normalized by its DC value, the
    cutoff chosen adaptively (largest frequency still above the amplitude
    threshold, capped at SPARC_OMEGA_MAX), and the arc length accumulated as
    Euclidean distances with a (1/omega_c) frequency normalization.
    """
    v = np.asarray(speed, dtype=float)
    if len(v) < 4:
        raise InvalidInputError("speed profile too short for SPARC")
    if np.any(v < 0):
        raise InvalidInputError("speed samples must be non-negative")
    nfft = SPARC_PAD * len(v)
    spectrum = np.abs(np.fft.rfft(v, n=nfft))
    if spectrum[0] == 0.0:
        raise UndefinedMetricError("SPARC undefined for an all-zero profile")
    vhat = spectrum / spectrum[0]
    freqs = np.fft.rfftfreq(nfft, d=1.0 / SPEED_PROFILE_HZ)

    above = np.nonzero(vhat >= SPARC_THRESHOLD)[0]
    # smallest frequency beyond which the spectrum stays under the threshold
    cutoff = freqs[min(above[-1] + 1, len(freqs) - 1)]
    omega_c = min(SPARC_OMEGA_MAX, max(cutoff, freqs[1]))
    sel = freqs <= omega_c
    f_sel = freqs[sel]
    v_sel = vhat[sel]
    arc = np.sum(np.sqrt((np.diff(f_sel) / omega_c) ** 2
                         + np.diff(v_sel) ** 2))
    return -float(arc)


def ldlj(speed, dt: float) -> float:
    """Log dimensionless jerk of a speed profile; lower is smoother.

    ln( T^3 / v_peak^2 * integral |d^2 v / dt^2|^2 dt ) with the second
    derivative from central finite differences and trapezoidal integration.
    """
    v = np.asarray(speed, dtype=float)
    if len(v) < 4:
        raise InvalidInputError("speed profile too short for LDLJ")
    if dt <= 0:
        raise InvalidInputError("dt must be positive")
    v_peak = float(np.max(np.abs(v)))
    if v_peak == 0.0:
        raise UndefinedMetricError("LDLJ undefined for an all-zero profile")
    accel2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dt**2
    integral = float(np.trapezoid(accel2**2, dx=dt))
    duration = (len(v) - 1) * dt
    dimensionless = duration**3 / v_peak**2 * integral
    if dimensionless == 0.0:
        return -np.inf
    return float(np.log(dimensionless))


def con(next_chunk, prev_chunk, h_e: int, h_f: int) -> float:
    """Transition discrepancy: |next[h_f] - prev[h_e + h_f]| in position."""
    nxt = _positions(next_chunk)
    prv = _positions(prev_chunk)
    if not (0 <= h_f < len(nxt) and 0 <= h_e + h_f < len(prv)):
        raise InvalidInputError("CON indices out of range")
    return float(np.linalg.norm(nxt[h_f] - prv[h_e + h_f]))


def wed(next_chunk, prev_chunk, overlap: int, offset: int = 0) -> float:
    """Weighted Euclidean distance over the overlapping chunk segment.

    Compares next[0:overlap] with prev[offset:offset+overlap] using
    exponentially decaying weights WED_DECAY**i.
    """
    if overlap <= 0:
        raise UndefinedMetricError("WED needs a positive overlap")
    nxt = _positions(next_chunk)
    prv = _positions(prev_chunk)
    if overlap > len(nxt) or offset + overlap > len(prv):
        raise InvalidInputError("overlap exceeds chunk length")
    weights = WED_DECAY ** np.arange(overlap)
    dists = np.linalg.norm(nxt[:overlap] - prv[offset:offset + overlap], axis=1)
    return float(np.sum(weights * dists))


def speed_profile(positions, dt: float) -> np.ndarray:
    """Finite-difference speed of a position trace, downsampled to
    SPEED_PROFILE_HZ."""
    p = np.asarray(positions, dtype=float)
    if len(p) < 2:
        return np.zeros(0)
    stride = max(1, int(round(1.0 / (dt * SPEED_PROFILE_HZ))))
    p = p[::stride]
    return np.linalg.norm(np.diff(p, axis=0), axis=1) / (dt * stride)


@dataclass
class MetricReport:
    n: int = 0
    sr: float | None = None
    tpr: float | None = None
    atr: float | None = None
    sod: float | None = None
    con: float | None = None
    wed: float | None = None
    sparc: float | None = None
    ldlj: float | None = None
    stalls: float | None = None

    COLUMNS = ("n", "sr", "tpr", "atr", "sod", "con", "wed", "sparc", "ldlj",
               "stalls")

    def as_row(self) -> dict:
        return {c: getattr(self, c) for c in self.COLUMNS}


def aggregate(rollouts, t_max: float,
              mean_demo_duration: float | None = None) -> MetricReport:
    """Aggregate a list of RolloutLogs into one report.

    SPARC and LDLJ read each rollout's SPEED_PROFILE_HZ speed profile.
    """
    rollouts = list(rollouts)
    if not rollouts:
        raise UndefinedMetricError("no rollouts to aggregate")
    report = MetricReport(n=len(rollouts))
    outcomes = [(r.success, r.duration) for r in rollouts]
    report.sr = sum(s for s, _ in outcomes) / len(outcomes)
    report.tpr = tpr(outcomes, t_max)
    succ_durations = [d for s, d in outcomes if s]
    if succ_durations:
        report.atr = float(np.mean(succ_durations))
        if mean_demo_duration is not None:
            report.sod = mean_demo_duration / report.atr
    cons = [c for r in rollouts for c in r.con_values]
    weds = [w for r in rollouts for w in r.wed_values]
    if cons:
        report.con = float(np.mean(cons))
    if weds:
        report.wed = float(np.mean(weds))
    sparcs, ldljs = [], []
    for r in rollouts:
        speed = r.speed
        if len(speed) >= 4 and np.max(speed) > 0:
            sparcs.append(sparc(speed))
            ldljs.append(ldlj(speed, 1.0 / SPEED_PROFILE_HZ))
    if sparcs:
        report.sparc = float(np.mean(sparcs))
        report.ldlj = float(np.mean(ldljs))
    report.stalls = float(np.mean([r.stall_count for r in rollouts]))
    return report


def _positions(chunk):
    if hasattr(chunk, "positions"):
        return np.asarray(chunk.positions, dtype=float)
    return np.asarray(chunk, dtype=float)
