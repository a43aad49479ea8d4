"""Deterministic counter-based randomness.

All randomness in the toolkit is derived from one documented 64-bit
construction: the splitmix64 finalizer applied to ``stream_key + (counter+1)
* GAMMA``.  A draw is therefore a pure function of ``(stream_key, counter)``,
which makes every consumer order-independent: the i-th value of a stream is
the same whether values are produced one at a time, in vectorized blocks, or
from parallel workers.

Stream keys are built by folding tags into a seed with :func:`mix64`
(e.g. ``stream(base_seed, trial_index, TAG)``), so distinct purposes never
share a stream.  A key is one word, so :func:`stream` runs the splitmix64
arithmetic on Python ints masked to 64 bits, which is several times cheaper
than on numpy scalars; :func:`mix64` takes the vectorized numpy path.  Both
give the same ``np.uint64``.
"""

import numpy as np

_M64 = 0xFFFFFFFFFFFFFFFF
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SALT = 0x6A09E667F3BCC909

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)
_U64_SALT = np.uint64(_SALT)

_U53 = np.float64(1.0 / (1 << 53))


def _as_u64(x):
    if isinstance(x, np.ndarray):
        return x.astype(np.uint64, copy=False)
    return np.uint64(int(x) & _M64)


def _finalize(z):
    """splitmix64 output function (vectorized over uint64 arrays)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _U64_MIX1
        z = (z ^ (z >> np.uint64(27))) * _U64_MIX2
        return z ^ (z >> np.uint64(31))


def _finalize_int(z: int) -> int:
    """:func:`_finalize` on one Python int in 0..2**64-1."""
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def _mix64_int(a: int, b: int) -> int:
    return _finalize_int(_finalize_int(a) ^ _finalize_int(b ^ _SALT))


def mix64(a, b):
    """Hash two 64-bit words into one (asymmetric in its arguments).

    Either argument may be an array; two scalars give an ``np.uint64``.
    """
    return _finalize(_finalize(_as_u64(a)) ^ _finalize(_as_u64(b) ^ _U64_SALT))


def stream(seed, *tags):
    """Derive a stream key, an ``np.uint64``, by folding the scalar ``tags``
    into the scalar ``seed`` left to right."""
    key = int(seed) & _M64
    for tag in tags:
        key = _mix64_int(key, int(tag) & _M64)
    return np.uint64(key)


def raw(key, counters):
    """Raw 64-bit values of a stream at the given counters."""
    counters = _as_u64(np.asarray(counters))
    with np.errstate(over="ignore"):
        return _finalize(_as_u64(key) + (counters + np.uint64(1)) * _GAMMA)


def uniforms(key, counters):
    """Uniform [0, 1) doubles at the given counters (53-bit mantissa)."""
    return (raw(key, counters) >> np.uint64(11)).astype(np.float64) * _U53


def factors(randomized: bool, size: int, seed, *tags):
    """A randomized score's factors u, the first ``size`` uniforms of stream
    ``stream(seed, *tags)``; None, and no key built, for a deterministic one."""
    if not randomized:
        return None
    return uniforms(stream(seed, *tags), np.arange(size))


def _uniforms_open_zero(key, counters):
    # (0, 1]: safe as a log() argument.
    w = (raw(key, counters) >> np.uint64(11)) + np.uint64(1)
    return w.astype(np.float64) * _U53


def normals(key, counters):
    """Standard normals at the given counters (Box-Muller, 2 draws each)."""
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.asarray(_uniforms_open_zero(key, counters * np.uint64(2)))
        u2 = np.asarray(uniforms(key, counters * np.uint64(2) + np.uint64(1)))
    # sqrt(-2 log u1) * cos(2 pi u2), in place: the same operations in the
    # same order, without the temporaries
    np.log(z, out=z)
    z *= -2.0
    np.sqrt(z, out=z)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    z *= u2
    return z[()]  # a scalar for scalar counters


def integers(key, counters, upper):
    """Integers uniform on [0, upper) at the given counters."""
    idx = np.floor(uniforms(key, counters) * upper).astype(np.int64)
    # floor(u * upper) == upper only through float rounding; clamp it away.
    return np.minimum(idx, upper - 1)


def permutation(key, n, size=None):
    """First ``size`` entries (all n by default) of a deterministic
    permutation of range(n): the stable argsort of raw stream values.

    splitmix64 is a bijection, so the raw values of one stream at distinct
    counters are distinct and any sort gives the stable order.  A prefix
    therefore needs only a partition plus a sort of the prefix.
    """
    values = raw(key, np.arange(n))
    if size is None or size >= n:
        return np.argsort(values)
    head = np.argpartition(values, size - 1)[:size]
    return head[np.argsort(values[head])]
