"""Counter-based splitmix64 streams.

Every random quantity in the package is a pure function of explicit integer
keys, so results are byte-identical across runs, platforms, and numpy
versions. Stream element j is splitmix64's finalizer applied to
``key + (j+1) * GAMMA`` (64-bit wrapping arithmetic).
"""

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z):
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def stream_key(*parts):
    """Fold integer parts into a 64-bit stream key (order-sensitive)."""
    key = np.uint64(0)
    with np.errstate(over="ignore"):
        for p in parts:
            key = _mix(key + np.uint64(int(p) & 0xFFFFFFFFFFFFFFFF) + _GAMMA)
    return key

def bits(key, n, start=0):
    """n consecutive 64-bit outputs of the stream, from element `start` on."""
    idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix(key + idx * _GAMMA)


def uniform_open(key, n, start=0):
    """n doubles uniform on the open interval (0, 1), from element `start` on."""
    return ((bits(key, n, start) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def uniform_symmetric(key, n, scale):
    """n doubles uniform on (-scale, +scale)."""
    return scale * (2.0 * uniform_open(key, n) - 1.0)
