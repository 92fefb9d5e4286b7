"""Counter-based random numbers for reproducible parallel sampling.

Every uniform draw is a pure function of (stream seed, counter), with the
SplitMix64 finalizer as the mixing step, so ensembles and sweep cells can
be computed in any order on any number of workers and still produce
bit-identical output. Stream seeds are derived from a master seed and one
or more integer indices (trajectory number, grid cell, run number) by the
same hash.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on uint64 values (arrays welcome)."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):  # wraparound is the point
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def _u64(x) -> np.ndarray:
    """Integers (any sign or size) and integer arrays as uint64, modulo 2**64."""
    if isinstance(x, (int, np.integer)):
        return np.uint64(int(x) & _MASK)
    return np.asarray(x).astype(np.uint64)


def derive_seed_array(master, *indices) -> np.ndarray:
    """derive_seed over arrays: the master and every index broadcast together."""
    with np.errstate(over="ignore"):
        h = _mix(_u64(master) + _GAMMA)
        for x in indices:
            h = _mix(h ^ _mix(_u64(x) + _GAMMA))
    return h


def derive_seed(master: int, *indices: int) -> int:
    """Hash a master seed with integer indices into a stream seed."""
    return int(derive_seed_array(master, *indices))


def counter_uniform(seed, counter) -> np.ndarray:
    """Uniform double in [0, 1) for draw number `counter` of stream `seed`.

    Both arguments broadcast, so one call can produce a whole ensemble's
    draws for a given step.
    """
    seed = np.asarray(seed, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    with np.errstate(over="ignore"):
        bits = _mix(seed + _GAMMA * (counter + np.uint64(1)))
    return (bits >> np.uint64(11)) * 2.0**-53


class DrawStream:
    """Sequential view of a counter-based stream: draw n is counter n."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self.counter = 0

    def next(self) -> float:
        u = float(counter_uniform(self.seed, self.counter))
        self.counter += 1
        return u
