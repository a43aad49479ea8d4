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


def test_normals_equal_the_box_muller_expression():
    """In-place normals give the bits of the one-expression form, for the
    broadcast (keys, counters) grid datagen draws and for one counter."""
    keys = rng.mix64(np.uint64(3), np.arange(500, dtype=np.uint64))[:, None]
    counters = np.arange(1, 8, dtype=np.uint64)[None, :]
    for key, c in ((keys, counters), (rng.stream(5, 5), np.uint64(9))):
        u1 = rng._uniforms_open_zero(key, c * np.uint64(2))
        u2 = rng.uniforms(key, c * np.uint64(2) + np.uint64(1))
        want = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        got = rng.normals(key, c)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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


def numpy_finalize(z):
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def numpy_mix64(a, b):
    """mix64 on numpy uint64 scalars under errstate, as it was before keys
    were built on Python ints; kept as the reference."""
    a = np.uint64(int(a) & 0xFFFFFFFFFFFFFFFF)
    b = np.uint64(int(b) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        return numpy_finalize(numpy_finalize(a)
                              ^ numpy_finalize(b ^ np.uint64(0x6A09E667F3BCC909)))


def numpy_stream(seed, *tags):
    key = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    for tag in tags:
        key = numpy_mix64(key, tag)
    return key


# Python ints below zero and at or above 2**64, and numpy integer scalars
WORD = st.one_of(st.integers(-2**70, 2**70),
                 st.integers(0, 2**64 - 1).map(np.uint64),
                 st.integers(-2**63, 2**63 - 1).map(np.int64))


@settings(max_examples=300, deadline=None)
@given(seed=WORD, tags=st.lists(WORD, max_size=4))
def test_int_stream_keys_equal_numpy_path(seed, tags):
    key, want = rng.stream(seed, *tags), numpy_stream(seed, *tags)
    assert type(key) is type(want) is np.uint64
    assert key == want
    if tags:
        mixed = rng.mix64(seed, tags[0])
        assert type(mixed) is np.uint64 and mixed == numpy_mix64(seed, tags[0])
        # a scalar against an array takes the numpy path, element by element
        words = np.array([int(t) & 0xFFFFFFFFFFFFFFFF for t in tags],
                         dtype=np.uint64)
        assert np.array_equal(rng.mix64(seed, words),
                              [numpy_mix64(seed, t) for t in tags])
    # so every draw keyed by it is unchanged
    counters = np.arange(64)
    assert np.array_equal(rng.raw(key, counters), rng.raw(want, counters))
    assert np.array_equal(rng.permutation(key, 64, 10),
                          rng.permutation(want, 64, 10))
    assert np.array_equal(rng.integers(key, counters, 7),
                          rng.integers(want, counters, 7))
