import numpy as np
import pytest

from sailx.errors import InvalidInputError, UndefinedMetricError
from sailx.metrics import (MetricReport, aggregate, con, ldlj, sparc,
                           speed_profile, tpr, wed)


def oracle_sparc(speed, pad_factor=4, sample_interval=0.02,
                 amplitude_threshold=0.05, omega_c_max=20.0):
    """Direct-DFT re-implementation of the spectral arc length."""
    v = np.asarray(speed, dtype=float)
    nfft = pad_factor * len(v)
    k = np.arange(nfft // 2 + 1)
    # O(n^2) DFT magnitudes
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


class TestSparc:
    def test_matches_direct_dft_oracle(self, rng):
        for _ in range(10):
            v = np.abs(rng.normal(size=rng.integers(20, 60)))
            assert sparc(v) == pytest.approx(oracle_sparc(v), abs=1e-9)

    def test_amplitude_invariance_exact(self, rng):
        v = np.abs(rng.normal(size=40))
        assert sparc(5.0 * v) == sparc(v)

    def test_smooth_beats_rippled(self):
        t = np.linspace(0, 1, 100)
        smooth = np.sin(np.pi * t)
        rippled = smooth + 0.1 * np.sin(40 * np.pi * t)
        rippled = np.abs(rippled)
        assert sparc(smooth) > sparc(rippled)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError):
            sparc([1.0, 2.0])

    def test_all_zero_undefined(self):
        with pytest.raises(UndefinedMetricError):
            sparc(np.zeros(16))


class TestLdlj:
    def test_amplitude_invariance(self, rng):
        t = np.linspace(0, 1, 80)
        v = np.sin(np.pi * t) + 0.1
        assert abs(ldlj(7.0 * v, 0.02) - ldlj(v, 0.02)) <= 1e-9

    def test_time_rescale_invariance(self):
        # the same movement traversed twice as fast: v'(t) = 2 v(2t)
        t1 = np.linspace(0, 2, 16001)
        v1 = np.sin(np.pi * t1 / 2) ** 2
        dt1 = t1[1] - t1[0]
        t2 = np.linspace(0, 1, 8001)
        v2 = 2.0 * np.sin(np.pi * t2) ** 2
        dt2 = t2[1] - t2[0]
        assert abs(ldlj(v1, dt1) - ldlj(v2, dt2)) <= 1e-3

    def test_ripple_strictly_degrades(self, rng):
        t = np.linspace(0, 1, 200)
        base = np.sin(np.pi * t) + 0.2
        for _ in range(5):
            freq = rng.integers(15, 30)
            rippled = base + 0.05 * np.sin(2 * np.pi * freq * t)
            assert ldlj(rippled, 0.005) > ldlj(base, 0.005)

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            ldlj([1.0, 1.0], 0.02)
        with pytest.raises(UndefinedMetricError):
            ldlj(np.zeros(10), 0.02)


class TestTpr:
    def test_hand_cases(self):
        assert tpr([(True, 2.0)], 60.0) == pytest.approx(0.5)
        assert tpr([(True, 5.0)], 60.0) == pytest.approx(0.2)
        assert tpr([(False, 60.0)], 60.0) == pytest.approx(-1.0 / 60.0)

    def test_mixture_averages(self):
        out = tpr([(True, 2.0), (False, 60.0)], 60.0)
        assert out == pytest.approx((0.5 - 1.0 / 60.0) / 2.0)

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            tpr([], 60.0)


class TestConWed:
    def _chunks(self, rng):
        prev = rng.normal(size=(32, 3))
        nxt = rng.normal(size=(32, 3))
        return nxt, prev

    def test_con_is_single_point_distance(self, rng):
        nxt, prev = self._chunks(rng)
        assert con(nxt, prev, 8, 0) == pytest.approx(
            np.linalg.norm(nxt[0] - prev[8]), abs=1e-12)
        assert con(nxt, prev, 8, 3) == pytest.approx(
            np.linalg.norm(nxt[3] - prev[11]), abs=1e-12)

    def test_wed_matches_resummation_oracle(self, rng):
        for _ in range(20):
            nxt, prev = self._chunks(rng)
            overlap = int(rng.integers(1, 8))
            offset = int(rng.integers(0, 20))
            expected = sum(0.9 ** i * np.linalg.norm(nxt[i] - prev[offset + i])
                           for i in range(overlap))
            assert wed(nxt, prev, overlap, offset=offset) == pytest.approx(
                expected, abs=1e-12)

    def test_wed_zero_for_identical_overlap(self, rng):
        prev = rng.normal(size=(32, 3))
        nxt = prev[8:].copy()
        assert wed(nxt, prev, overlap=4, offset=8) == pytest.approx(0.0)

    def test_out_of_range_rejected(self, rng):
        nxt, prev = self._chunks(rng)
        with pytest.raises(InvalidInputError):
            con(nxt, prev, 32, 0)
        with pytest.raises(UndefinedMetricError):
            wed(nxt, prev, 0)


class TestSpeedProfile:
    def test_constant_velocity(self):
        positions = np.outer(np.arange(100) * 0.002, [1.0, 0, 0])
        v = speed_profile(positions, dt=0.002)
        assert v == pytest.approx(np.ones(len(v)), abs=1e-9)

    def test_downsamples_to_target_rate(self):
        positions = np.zeros((1000, 3))
        v = speed_profile(positions, dt=0.002)
        assert len(v) == 99


class TestAggregate:
    def test_report_columns_and_values(self):
        class R:
            def __init__(self, success, duration):
                self.success = success
                self.duration = duration
                self.con_values = [0.1]
                self.wed_values = [0.2]
                self.stall_count = 1
                self.speed = np.abs(np.sin(np.linspace(0, 3, 50))) + 0.1

        report = aggregate([R(True, 2.0), R(False, 30.0)], t_max=30.0,
                           mean_demo_duration=4.0)
        assert report.n == 2
        assert report.sr == pytest.approx(0.5)
        assert report.tpr == pytest.approx((0.5 - 1 / 30.0) / 2)
        assert report.atr == pytest.approx(2.0)
        assert report.sod == pytest.approx(2.0)
        assert report.con == pytest.approx(0.1)
        assert report.stalls == pytest.approx(1.0)
        row = report.as_row()
        assert tuple(row.keys()) == MetricReport.COLUMNS

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            aggregate([], t_max=30.0)
