import numpy as np
import pytest

from sailx.diagnostics import (SampleSet, kde_score, knn_distance, mmd,
                               scott_bandwidths)
from sailx.errors import InvalidInputError


class TestSampleSet:
    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            SampleSet(np.zeros((0, 3)))
        with pytest.raises(InvalidInputError):
            SampleSet(np.zeros(5))

    def test_from_chunks_flattens_positions(self):
        class C:
            positions = np.arange(12, dtype=float).reshape(4, 3)

        s = SampleSet.from_chunks([C, C], length=2)
        assert s.vectors.shape == (2, 6)
        assert s.vectors[0] == pytest.approx(np.arange(6, dtype=float))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_are_refused(self, bad):
        # a NaN row used to pass, and knn_distance then dropped it: samples
        # [0, NaN, 2], query 0.5, k = 1 gave 0.5
        with pytest.raises(InvalidInputError, match="finite"):
            SampleSet(np.array([[0.0], [bad], [2.0]]))


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("score", [kde_score, knn_distance, mmd])
def test_non_finite_queries_are_refused(score, bad):
    # each score used to return nan for such a query
    s = SampleSet(np.arange(16.0).reshape(8, 2))  # k = 8 for knn_distance
    with pytest.raises(InvalidInputError, match="finite"):
        score(s, np.array([0.5, bad]))


@pytest.mark.parametrize("query", [[0.5], [[0.5, 0.5]], [0.5, 0.5, 0.5],
                                   0.5], ids=["1", "1x2", "3", "scalar"])
@pytest.mark.parametrize("score", [kde_score, knn_distance, mmd])
def test_queries_of_the_wrong_shape_are_refused(score, query):
    # on samples of dimension 2, a 1-element query used to be broadcast
    # (knn 0.340, kde 1.171, mmd 0.411 here), and a (1, 2) query failed
    # inside numpy
    x = np.linspace(0.0, 1.0, 18).reshape(9, 2)
    with pytest.raises(InvalidInputError, match="shape"):
        score(SampleSet(x), np.array(query))


class TestScottBandwidths:
    def test_formula(self, rng):
        x = rng.normal(size=(64, 12))
        h = scott_bandwidths(x)
        expected = np.std(x, axis=0, ddof=1) * 64 ** (-1.0 / 16)
        assert h == pytest.approx(expected, abs=1e-12)

    def test_degenerate_dimension_floored_with_warning(self):
        x = np.zeros((10, 2))
        x[:, 0] = np.arange(10)
        with pytest.warns(RuntimeWarning):
            h = scott_bandwidths(x)
        assert h[1] == pytest.approx(1e-9)


class TestKdeScore:
    def test_two_point_closed_form(self):
        samples = SampleSet(np.array([[0.0], [2.0]]))
        h = np.std([0.0, 2.0], ddof=1) * 2 ** (-1.0 / 5)
        expected = np.mean([
            np.exp(-0.5 * ((1.0 - x) / h) ** 2) / (h * np.sqrt(2 * np.pi))
            for x in (0.0, 2.0)])
        assert kde_score(samples, np.array([1.0])) == pytest.approx(
            expected, rel=1e-12)

    def test_mean_scores_above_extreme(self, rng):
        x = rng.normal(size=(64, 3))
        x = np.vstack([x, -x])  # symmetric about the origin
        s = SampleSet(x)
        center = kde_score(s, np.zeros(3))
        extreme = kde_score(s, x[np.argmax(np.linalg.norm(x, axis=1))])
        assert center >= extreme

    def test_far_query_vanishes(self, rng):
        x = rng.normal(size=(32, 2))
        s = SampleSet(x)
        far = np.full(2, 100.0 * np.max(np.abs(x)))
        assert kde_score(s, far) < 1e-30


class TestKnnDistance:
    def test_duplicate_query_zero(self):
        s = SampleSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert knn_distance(s, np.array([1.0, 2.0]), k=1) == 0.0

    def test_hand_enumeration(self):
        s = SampleSet(np.array([[0.0], [1.0], [2.0], [3.0]]))
        assert knn_distance(s, np.array([0.0]), k=2) == pytest.approx(0.5)

    def test_matches_bruteforce_sort_oracle(self, rng):
        x = rng.normal(size=(64, 12))
        q = rng.normal(size=12)
        s = SampleSet(x)
        expected = np.mean(np.sort(np.linalg.norm(x - q, axis=1))[:8])
        assert knn_distance(s, q, k=8) == pytest.approx(expected, abs=1e-12)

    def test_k_exceeding_n_rejected(self):
        s = SampleSet(np.zeros((4, 2)))
        with pytest.raises(InvalidInputError):
            knn_distance(s, np.zeros(2), k=5)


class TestMmd:
    def test_single_matching_sample_is_zero(self):
        s = SampleSet(np.array([[0.5, -0.5]]))
        assert mmd(s, np.array([0.5, -0.5])) == pytest.approx(0.0, abs=1e-12)

    def test_four_term_hand_evaluation(self):
        bw = 0.5

        def kern(a, b):
            return np.exp(-((a - b) ** 2) / (2 * bw ** 2))

        s = SampleSet(np.array([[-1.0], [1.0]]))
        term_xx = (kern(-1, -1) + kern(-1, 1) + kern(1, -1) + kern(1, 1)) / 4
        term_xq = (kern(-1, 0) + kern(1, 0)) / 1  # mean over samples
        expected = np.sqrt(term_xx - 2 * term_xq / 2 + 1.0)
        assert mmd(s, np.array([0.0]), bandwidth=bw) == pytest.approx(
            expected, rel=1e-12)

    def test_permutation_invariance(self, rng):
        x = rng.normal(size=(16, 4))
        q = rng.normal(size=4)
        a = mmd(SampleSet(x), q)
        b = mmd(SampleSet(x[rng.permutation(16)]), q)
        assert a == pytest.approx(b, abs=1e-12)

    def test_positive_bandwidth_required(self):
        s = SampleSet(np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            mmd(s, np.zeros(2), bandwidth=0.0)

    # nan used to give nan, and inf 0.0
    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf])
    def test_finite_bandwidth_required(self, bandwidth):
        s = SampleSet(np.zeros((2, 2)))
        with pytest.raises(InvalidInputError, match="bandwidth"):
            mmd(s, np.zeros(2), bandwidth=bandwidth)


class TestDiagnosticsTrial:
    def test_a_demo_too_short_for_the_speedup_is_refused(self, demos20):
        from sailx.experiments import diagnostics_trial
        from sailx.policy import MockPolicy, PolicyConfig
        # at c = 0.1 a trial tracks an 80-step horizon and scores a
        # 40-step tail, more than a 115-step demo holds
        demo = demos20[0]
        policy = MockPolicy([demo], PolicyConfig(), seed=0)
        with pytest.raises(InvalidInputError,
                           match=rf"c=0\.1 need 127 .* has {len(demo)}$"):
            diagnostics_trial([demo], policy, 0.1, seed=0)
        assert policy._calls == 0  # refused before any draw

    @pytest.mark.parametrize("c", [0.0, -0.5, float("nan"), float("inf"),
                                   100.0, 1e-320])
    def test_bad_speedups_are_refused_before_any_trial(self, demos20,
                                                       monkeypatch, c):
        from sailx import experiments

        def draw(*args, **kwargs):
            raise AssertionError("a trial was scored")
        monkeypatch.setattr(experiments, "infer_unconditional", draw)
        with pytest.raises(InvalidInputError, match=rf"c={c:g}") as exc:
            experiments.run_diagnostics(demos20, c_values=(1.0, c),
                                        trials=4)
        assert len(str(exc.value).splitlines()) == 1

    def test_an_empty_speedup_list_is_refused(self, demos20):
        from sailx.experiments import run_diagnostics
        with pytest.raises(InvalidInputError, match="at least one c"):
            run_diagnostics(demos20, c_values=(), trials=1)
