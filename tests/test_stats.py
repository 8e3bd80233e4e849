import math

import numpy as np
import pytest

from postscore.stats import (
    betainc_regularized,
    bootstrap_ci,
    pearson,
    pearson_r,
    rankdata,
    spearman,
    student_t_two_sided_p,
)

from oracles import betainc_oracle, t_test_p_oracle


class TestPearson:
    def test_perfect_positive(self):
        rep = pearson([1, 2, 3], [2, 4, 6])
        assert rep.r == pytest.approx(1.0, abs=1e-14)
        assert rep.p_two_sided < 1e-6

    def test_perfect_negative(self):
        rep = pearson([1, 2, 3], [3, 2, 1])
        assert rep.r == pytest.approx(-1.0, abs=1e-14)

    def test_self_correlation_is_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(3, 50)))
            assert pearson(x, x).r == 1.0

    def test_r_squared_consistent(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=30)
        y = x + rng.normal(size=30)
        rep = pearson(x, y)
        assert rep.r_squared == rep.r * rep.r
        assert -1.0 <= rep.r <= 1.0

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson([1, 2, 3], [5.0, 5.0, 5.0])

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [3, 4])

    def test_scale_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        base = pearson(x, y).r
        assert pearson(2.5 * x + 7, y).r == pytest.approx(base, abs=1e-12)
        assert pearson(-3.0 * x + 1, y).r == pytest.approx(-base, abs=1e-12)

    def test_pearson_r_is_pearsons_r_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 60))
            x = rng.normal(size=n)
            y = 0.3 * x + rng.normal(size=n)
            assert pearson_r(x, y) == pearson(x, y).r
            assert pearson_r(list(x), list(x)) == 1.0
        with pytest.raises(ValueError):
            pearson_r([1.0, 1.0, 1.0], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson_r([1, 2], [3, 4])

    def test_p_monotone_in_abs_r_and_n(self):
        ps = [student_t_two_sided_p(r, 50) for r in (0.1, 0.2, 0.4, 0.6, 0.8)]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        ps_n = [student_t_two_sided_p(0.3, n) for n in (10, 30, 100, 300)]
        assert all(a > b for a, b in zip(ps_n, ps_n[1:]))


class TestTDistributionP:
    """The p-value route: I_{df/(df+t^2)}(df/2, 1/2) via continued fraction."""

    def test_against_high_precision_oracle(self):
        for r, n in [(0.1, 10), (0.3, 25), (0.5, 100), (0.05, 1000), (-0.7, 30)]:
            mine = student_t_two_sided_p(r, n)
            ref = t_test_p_oracle(r, n)
            assert mine == pytest.approx(ref, rel=1e-11)

    def test_large_sample_significance(self):
        """r = 0.20 over 2468 users is significant far beyond 1e-15."""
        p = student_t_two_sided_p(0.20, 2468)
        assert p < 1e-15
        assert p == pytest.approx(t_test_p_oracle(0.20, 2468), rel=1e-9)

    def test_extremes(self):
        assert student_t_two_sided_p(1.0, 20) == 0.0
        assert student_t_two_sided_p(0.0, 20) == pytest.approx(1.0, abs=1e-12)

    def test_betainc_accuracy_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = 10 ** rng.uniform(-1, 3)
            b = 10 ** rng.uniform(-1, 3)
            x = float(rng.uniform(0.001, 0.999))
            ref = betainc_oracle(a, b, x)
            if ref > 1e-280:
                assert betainc_regularized(a, b, x) == pytest.approx(ref, rel=5e-12)

    def test_betainc_bounds(self):
        assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
        assert betainc_regularized(2.0, 3.0, 1.0) == 1.0


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        x = [1.0, 2.0, 5.0, 9.0, 11.0]
        y = [math.exp(v) for v in x]
        assert spearman(x, y).r == pytest.approx(1.0, abs=1e-12)

    def test_reversed_ranks(self):
        x = [1, 2, 3, 4]
        assert spearman(x, x[::-1]).r == pytest.approx(-1.0, abs=1e-12)

    def test_tie_handling_mean_rank(self):
        assert rankdata([1, 2, 2, 3]).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_invariant_under_strictly_monotone_transforms(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        base = spearman(x, y).r
        assert spearman(np.exp(x), y).r == pytest.approx(base, abs=1e-12)
        assert spearman(x, 3 * y + 2).r == pytest.approx(base, abs=1e-12)


class TestBootstrapCI:
    def test_degenerate_units(self):
        low, high = bootstrap_ci([5.0, 5.0, 5.0], lambda s: sum(s) / len(s), B=100, seed=0)
        assert (low, high) == (5.0, 5.0)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=30).tolist()
        a = bootstrap_ci(data, lambda s: sum(s) / len(s), B=200, seed=42)
        b = bootstrap_ci(data, lambda s: sum(s) / len(s), B=200, seed=42)
        assert a == b

    def test_interval_within_observed_statistic_range(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=25).tolist()
        low, high = bootstrap_ci(data, lambda s: max(s), B=150, seed=1)
        assert low <= high <= max(data)

    def test_undefined_statistic_redrawn(self):
        """A statistic that rejects some resamples still yields an interval."""
        calls = {"n": 0}

        def picky_mean(sample):
            calls["n"] += 1
            if len(set(sample)) < 3:
                raise ValueError("degenerate resample")
            return sum(sample) / len(sample)

        low, high = bootstrap_ci([1.0, 2.0, 3.0, 4.0], picky_mean, B=100, seed=2)
        assert low <= high
        assert calls["n"] >= 100

    def test_always_undefined_statistic_aborts(self):
        def never(sample):
            raise ValueError("nope")

        with pytest.raises(ValueError, match="resample"):
            bootstrap_ci([1.0, 2.0, 3.0], never, B=100, seed=3)

    def test_requires_minimum_inputs(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], lambda s: 0.0, B=100, seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], lambda s: 0.0, B=50, seed=0)

    def test_coverage_on_normal_data(self):
        """90% interval for the mean covers the true mean 85-95% of trials."""
        covered = 0
        trials = 500
        for trial in range(trials):
            rng = np.random.default_rng((100, trial))
            data = rng.normal(0.0, 1.0, size=40).tolist()
            low, high = bootstrap_ci(
                data, lambda s: sum(s) / len(s), B=200, level=0.90, seed=(100, trial)
            )
            covered += low <= 0.0 <= high
        assert 0.85 * trials <= covered <= 0.95 * trials
