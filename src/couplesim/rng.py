"""Counter-based random numbers for reproducible parallel sampling.

Every draw is a pure function of (stream seed, counter), with the
SplitMix64 finalizer as the mixing step, so ensembles and sweep cells can
be computed in any order on any number of workers and still produce
bit-identical output. counter_bits gives a draw as the integer k formed by
the mix's top 53 bits, and counter_uniform as the double k * 2**-53 in
[0, 1), which that product holds exactly. Stream seeds are derived from a
master seed and one or more integer indices (trajectory number, grid cell,
run number) by the same hash.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer in place on a fresh uint64 array (or a scalar), wrapping silently.

    Callers hold np.errstate(over="ignore"): scalars warn when they wrap.
    """
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def _u64(x, name: str) -> np.ndarray:
    """Integers (any sign or size) and integer arrays as uint64, modulo 2**64.

    The only conversion of a seed, index or draw counter; anything else (a
    float, bool or string) raises ValueError naming it, as truncating it
    would run another value's stream.
    """
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return np.uint64(int(x) & _MASK)
    array = np.asarray(x)
    if array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return array.astype(np.uint64, copy=False)


def derive_seed_array(master, *indices) -> np.ndarray:
    """derive_seed over arrays: the master and every index broadcast together."""
    with np.errstate(over="ignore"):
        h = _mix(_u64(master, "seed") + _GAMMA)
        for x in indices:
            h = _mix(h ^ _mix(_u64(x, "index") + _GAMMA))
    return h


def derive_seed(master: int, *indices: int) -> int:
    """Hash a master seed with integer indices into a stream seed."""
    return int(derive_seed_array(master, *indices))


def counter_bits(seed, counter, out=None) -> np.ndarray:
    """The integer k in [0, 2**53) behind draw number `counter` of stream `seed`.

    Both arguments broadcast, so one call can produce a whole ensemble's
    draws for a given step (or for several steps). out, if given, is a
    uint64 array of the broadcast shape that receives k.
    """
    seed, counter = _u64(seed, "seed"), _u64(counter, "counter")
    with np.errstate(over="ignore"):  # wraparound is the point
        bits = _mix(np.add(seed, _GAMMA * (counter + np.uint64(1)), out=out))
    bits >>= np.uint64(11)
    return bits


def counter_uniform(seed, counter) -> np.ndarray:
    """Uniform double k * 2**-53 in [0, 1), k = counter_bits(seed, counter)."""
    return counter_bits(seed, counter) * 2.0**-53

