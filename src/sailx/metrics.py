"""Rollout and trajectory evaluation metrics.

Conventions: TPR, SR, SOD, SPARC higher is better; ATR, CON, WED, LDLJ lower
is better. Smoothness metrics operate on scalar speed profiles, by default
the finite-difference speed of executed positions downsampled to 50 Hz.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError


@dataclass(frozen=True)
class SparcParams:
    pad_factor: int = 4          # zero-pad the profile to pad_factor * length
    omega_c_max: float = 20.0    # Hz, cutoff upper limit
    amplitude_threshold: float = 0.05
    sample_interval: float = 0.02  # s (50 Hz)


def tpr(outcomes, t_max: float) -> float:
    """Throughput-with-regret: mean of 1/t_i over successes, -1/t_max per failure."""
    outcomes = list(outcomes)
    if not outcomes:
        raise UndefinedMetricError("TPR needs at least one rollout")
    if t_max <= 0:
        raise InvalidInputError("t_max must be positive")
    total = 0.0
    for success, duration in outcomes:
        if success:
            if duration <= 0:
                raise InvalidInputError("success durations must be positive")
            total += 1.0 / duration
        else:
            total -= 1.0 / t_max
    return total / len(outcomes)


def sparc(speed, params: SparcParams = SparcParams()) -> float:
    """Negative arc length of the normalized magnitude spectrum.

    The profile is zero-padded, the spectrum normalized by its DC value, the
    cutoff chosen adaptively (largest frequency still above the amplitude
    threshold, capped at omega_c_max), and the arc length accumulated as
    Euclidean distances with a (1/omega_c) frequency normalization.
    """
    v = np.asarray(speed, dtype=float)
    if len(v) < 4:
        raise InvalidInputError("speed profile too short for SPARC")
    if np.any(v < 0):
        raise InvalidInputError("speed samples must be non-negative")
    nfft = params.pad_factor * len(v)
    spectrum = np.abs(np.fft.rfft(v, n=nfft))
    if spectrum[0] == 0.0:
        raise UndefinedMetricError("SPARC undefined for an all-zero profile")
    vhat = spectrum / spectrum[0]
    freqs = np.fft.rfftfreq(nfft, d=params.sample_interval)

    above = np.nonzero(vhat >= params.amplitude_threshold)[0]
    # smallest frequency beyond which the spectrum stays under the threshold
    cutoff = freqs[min(above[-1] + 1, len(freqs) - 1)]
    omega_c = min(params.omega_c_max, max(cutoff, freqs[1]))
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


def wed(next_chunk, prev_chunk, overlap: int, decay: float = 0.9,
        offset: int = 0) -> float:
    """Weighted Euclidean distance over the overlapping chunk segment.

    Compares next[0:overlap] with prev[offset:offset+overlap] using
    exponentially decaying weights decay**i.
    """
    if overlap <= 0:
        raise UndefinedMetricError("WED needs a positive overlap")
    nxt = _positions(next_chunk)
    prv = _positions(prev_chunk)
    if overlap > len(nxt) or offset + overlap > len(prv):
        raise InvalidInputError("overlap exceeds chunk length")
    weights = decay ** np.arange(overlap)
    dists = np.linalg.norm(nxt[:overlap] - prv[offset:offset + overlap], axis=1)
    return float(np.sum(weights * dists))


def speed_profile(positions, dt: float, target_hz: float = 50.0) -> np.ndarray:
    """Finite-difference speed of a position trace, downsampled to target_hz."""
    p = np.asarray(positions, dtype=float)
    if len(p) < 2:
        return np.zeros(0)
    stride = max(1, int(round(1.0 / (dt * target_hz))))
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


def aggregate(rollouts, t_max: float, mean_demo_duration: float | None = None,
              sparc_params: SparcParams = SparcParams()) -> MetricReport:
    """Aggregate a list of RolloutLog-like objects into one report.

    Each rollout must expose success, duration, and may expose con_values,
    wed_values, speed (50 Hz profile), and stall_count.
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
    cons = [c for r in rollouts for c in getattr(r, "con_values", [])]
    weds = [w for r in rollouts for w in getattr(r, "wed_values", [])]
    if cons:
        report.con = float(np.mean(cons))
    if weds:
        report.wed = float(np.mean(weds))
    sparcs, ldljs = [], []
    for r in rollouts:
        speed = getattr(r, "speed", None)
        if speed is not None and len(speed) >= 4 and np.max(speed) > 0:
            sparcs.append(sparc(speed, sparc_params))
            ldljs.append(ldlj(speed, sparc_params.sample_interval))
    if sparcs:
        report.sparc = float(np.mean(sparcs))
        report.ldlj = float(np.mean(ldljs))
    stalls = [getattr(r, "stall_count", None) for r in rollouts]
    if all(s is not None for s in stalls):
        report.stalls = float(np.mean(stalls))
    return report


def _positions(chunk):
    if hasattr(chunk, "positions"):
        return np.asarray(chunk.positions, dtype=float)
    return np.asarray(chunk, dtype=float)
