import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semicp import rng


def test_uniforms_range_and_determinism():
    key = rng.stream(42, 1)
    u = rng.uniforms(key, np.arange(100_000))
    assert np.all((0.0 <= u) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.005
    again = rng.uniforms(key, np.arange(100_000))
    assert np.array_equal(u, again)


def test_counter_indexing_is_order_independent():
    key = rng.stream(7, 3)
    full = rng.uniforms(key, np.arange(1000))
    scattered = rng.uniforms(key, np.array([917, 2, 500]))
    assert scattered[0] == full[917]
    assert scattered[1] == full[2]
    assert scattered[2] == full[500]


def test_streams_differ_by_tag_and_seed():
    a = rng.uniforms(rng.stream(1, 10), np.arange(50))
    b = rng.uniforms(rng.stream(1, 11), np.arange(50))
    c = rng.uniforms(rng.stream(2, 10), np.arange(50))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert rng.mix64(1, 2) != rng.mix64(2, 1)


def test_normals_moments():
    z = rng.normals(rng.stream(5, 5), np.arange(1_000_000))
    assert abs(z.mean()) < 0.005
    assert abs(z.std() - 1.0) < 0.005
    assert abs(np.mean(z ** 3)) < 0.02  # symmetric


def test_integers_bounds_and_uniformity():
    idx = rng.integers(rng.stream(9, 1), np.arange(60_000), 7)
    assert idx.min() >= 0 and idx.max() <= 6
    freq = np.bincount(idx, minlength=7) / idx.size
    assert np.allclose(freq, 1 / 7, atol=0.01)


def test_permutation_is_a_permutation():
    perm = rng.permutation(rng.stream(3, 2), 5000)
    assert np.array_equal(np.sort(perm), np.arange(5000))
    other = rng.permutation(rng.stream(3, 3), 5000)
    assert not np.array_equal(perm, other)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 3000),
       extra=st.integers(1, 50))
def test_permutation_prefix_equals_stable_argsort_prefix(seed, n, extra):
    key = rng.stream(seed, 7)
    full = np.argsort(rng.raw(key, np.arange(n)), kind="stable")
    for size in (0, 1, n - 1, n, n + extra):
        got = rng.permutation(key, n, size)
        assert got.dtype == full.dtype
        assert np.array_equal(got, full[:size]), size
    assert np.array_equal(rng.permutation(key, n), full)
