import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from beta_oracle import beta_cdf
from coverage_law import expected_cov_gap
from per_trial import reference_summarize
from semicp.errors import InputError
from semicp.metrics import (avg_size, cov_gap, coverage, coverage_histogram,
                            empirical_cdf, improvement, ks_distance,
                            over_under_gaps, summarize)


def test_coverage_examples():
    sets = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1]], dtype=bool)
    assert coverage(sets, [0, 1, 2]) == 1.0
    assert coverage(np.zeros((2, 3), dtype=bool), [0, 1]) == 0.0
    assert coverage(np.eye(3, dtype=bool)[[0, 1, 2, 0]], [0, 1, 2, 1]) == 0.75


def test_avg_size_examples():
    assert avg_size(np.eye(3, dtype=bool)) == 1.0
    assert avg_size(np.ones((2, 3), dtype=bool)) == 3.0
    assert avg_size(np.tri(3, dtype=bool)) == 2.0  # {0}, {0, 1}, {0, 1, 2}


def test_cov_gap_examples_and_oracle():
    assert cov_gap([0.9, 0.9, 0.9], 0.1) == 0.0
    assert cov_gap([0.85, 0.95], 0.1) == pytest.approx(5.0)
    rs = np.random.RandomState(0)
    for _ in range(1000):
        c = rs.rand(rs.randint(1, 30))
        a = rs.uniform(0.05, 0.5)
        loop = 100.0 * sum(abs(x - (1 - a)) for x in c) / len(c)
        assert cov_gap(c, a) == pytest.approx(loop, rel=1e-12)


def test_over_under_gaps():
    over, under = over_under_gaps([0.95, 0.99], 0.1)
    assert under == 0.0
    over, under = over_under_gaps([0.85, 0.95], 0.1)
    assert (over, under) == (pytest.approx(2.5), pytest.approx(2.5))
    rs = np.random.RandomState(1)
    for _ in range(1000):
        c = rs.rand(rs.randint(1, 30))
        a = rs.uniform(0.05, 0.5)
        over, under = over_under_gaps(c, a)
        assert over + under == pytest.approx(cov_gap(c, a), rel=1e-12)
        assert over >= 0 and under >= 0


def test_class_cov_gap():
    def class_gap(per_class, alpha):
        table = np.array([[0.9, 1.0, *per_class]]).T  # one trial
        return summarize("m", table, alpha).group_cov_gap

    assert class_gap([0.9, 0.9], 0.1) == 0.0
    assert class_gap([0.8, 1.0], 0.1) == pytest.approx(10.0)
    rs = np.random.RandomState(2)
    for _ in range(1000):
        c = rs.rand(rs.randint(1, 20))
        a = rs.uniform(0.05, 0.5)
        loop = 100.0 * sum(abs(x - (1 - a)) for x in c) / len(c)
        assert class_gap(c, a) == pytest.approx(loop, rel=1e-12)


def test_improvement():
    assert improvement(2.0, 1.0, 1.0) == pytest.approx(100.0)
    assert improvement(2.0, 2.0, 1.0) == pytest.approx(0.0)
    assert improvement(2.64, 0.88, 0.65) == pytest.approx(88.44, abs=0.01)
    assert improvement(1.5, 1.0, 1.5) is None


def test_empirical_cdf_and_ks():
    assert empirical_cdf([1.0, 2.0, 3.0], 2.0) == pytest.approx(2 / 3)
    assert ks_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ks_distance([0.0, 0.0], [1.0, 1.0]) == 1.0

    rs = np.random.RandomState(3)
    for _ in range(50):
        a = rs.randn(rs.randint(1, 40))
        b = rs.randn(rs.randint(1, 40)) + rs.uniform(-1, 1)
        # O(len(a)*len(b)) brute force over the pooled evaluation points
        pool = np.concatenate([a, b])
        brute = max(abs(np.mean(a <= t) - np.mean(b <= t)) for t in pool)
        assert ks_distance(a, b) == pytest.approx(brute, rel=1e-12)


def test_ks_is_a_pseudometric():
    rs = np.random.RandomState(4)
    for _ in range(50):
        a, b, c = (rs.randn(rs.randint(2, 30)) for _ in range(3))
        assert ks_distance(a, b) == pytest.approx(ks_distance(b, a))
        assert ks_distance(a, a) == 0.0
        assert ks_distance(a, c) <= ks_distance(a, b) + ks_distance(b, c) + 1e-12


def test_beta_cdf_examples():
    assert beta_cdf(0.8, 10, 1) == pytest.approx(0.8 ** 10, abs=1e-12)
    for x in np.linspace(0, 1, 11):
        assert beta_cdf(float(x), 1, 1) == pytest.approx(x, abs=1e-12)
    assert beta_cdf(0.5, 2, 2) == pytest.approx(0.5, abs=1e-12)


def test_beta_cdf_against_scipy():
    rs = np.random.RandomState(5)
    for _ in range(300):
        a = rs.uniform(0.1, 60)
        b = rs.uniform(0.1, 60)
        x = rs.rand()
        assert abs(beta_cdf(x, a, b) - special.betainc(a, b, x)) < 1e-10


def test_expected_cov_gap_examples():
    assert expected_cov_gap(20, 500, 0.1) == pytest.approx(5.0932, abs=5e-5)
    # level 6 > m = 5: every set holds every label, so coverage is 1
    assert expected_cov_gap(5, 500, 0.1) == pytest.approx(10.0, abs=1e-12)
    for m, t, alpha in ((20, 500, 0.1), (100, 37, 0.2), (7, 1, 0.3),
                        (2020, 500, 0.1)):
        level = (m + 1) - int(np.floor((m + 1) * alpha))
        k = np.arange(t + 1)
        pmf = stats.betabinom.pmf(k, t, level, m + 1 - level)
        want = 100.0 * np.sum(pmf * np.abs(k / t - (1.0 - alpha)))
        assert expected_cov_gap(m, t, alpha) == pytest.approx(want, rel=1e-9)


def test_beta_cdf_domain_errors():
    with pytest.raises(InputError):
        beta_cdf(1.2, 2, 2)
    with pytest.raises(InputError):
        beta_cdf(0.5, -1, 2)
    with pytest.raises(InputError):
        beta_cdf(0.5, 2, 0)


def test_beta_moments_via_numeric_integration():
    # coverage of a calibrated predictor follows Beta(l, n+1-l); check the
    # mean and variance of that law against integrals of the cdf
    for n, alpha in [(10, 0.1), (50, 0.1), (30, 0.2)]:
        level = (n + 1) - int(np.floor((n + 1) * alpha))
        a, b = level, n + 1 - level
        if b == 0:
            continue
        mean_int, _ = integrate.quad(lambda x: 1 - beta_cdf(x, a, b), 0, 1)
        ex2_int, _ = integrate.quad(lambda x: 2 * x * (1 - beta_cdf(x, a, b)), 0, 1)
        var_int = ex2_int - mean_int ** 2
        assert mean_int == pytest.approx(level / (n + 1), abs=1e-9)
        exact_var = level * (n + 1 - level) / ((n + 1) ** 2 * (n + 2))
        assert var_int == pytest.approx(exact_var, abs=1e-9)
        approx_var = alpha * (1 - alpha) / (n + 2)
        assert var_int == pytest.approx(approx_var, rel=0.15)


def test_histogram_and_summary():
    cov = [0.0, 0.5, 0.999, 1.0]
    hist = coverage_histogram(cov)
    assert hist.shape == (50,)
    assert hist.sum() == 4
    assert hist[0] == 1 and hist[25] == 1 and hist[49] == 2

    table = np.array([[0.85, 0.95], [1.5, 2.5]])  # coverages, sizes
    summary = summarize("m", table, 0.1)
    assert summary.cov_gap == pytest.approx(5.0)
    assert summary.over_cov_gap == pytest.approx(2.5)
    assert summary.under_cov_gap == pytest.approx(2.5)
    assert summary.mean_avg_size == pytest.approx(2.0)
    assert summary.n_trials == 2
    assert sum(summary.histogram) == 2

    grouped = np.array([[0.9], [1.0], [0.8], [1.0]])
    assert summarize("m", grouped, 0.1).group_cov_gap == pytest.approx(10.0)


def _fields(summary):
    return [v.hex() if isinstance(v, float) else v
            for v in summary.to_dict().values()]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 300),
       n_groups=st.sampled_from([0, 1, 2, 5, 9, 20]),
       alpha=st.floats(0.01, 0.99), absent=st.floats(0.0, 0.9))
def test_summarize_matches_list_reference(seed, trials, n_groups, alpha,
                                          absent):
    # a (methods, 2 + G, trials) table as the runner fills it; a group with
    # no test sample in a trial is NaN, and every trial has one group
    rs = np.random.RandomState(seed)
    table = rs.rand(2, 2 + n_groups, trials)
    table[:, 1] *= 10.0
    if n_groups:
        missing = rs.rand(2, n_groups, trials) < absent
        kept = rs.randint(0, n_groups, (2, trials))
        missing[np.arange(2)[:, None], kept, np.arange(trials)] = False
        table[:, 2:][missing] = np.nan
    for rows in table:
        results = [(c, s, None if not n_groups else
                    {g: v for g, v in enumerate(col) if not np.isnan(v)})
                   for c, s, col in zip(rows[0], rows[1], rows[2:].T)]
        assert _fields(summarize("m", rows, alpha)) == \
            _fields(reference_summarize("m", results, alpha))
