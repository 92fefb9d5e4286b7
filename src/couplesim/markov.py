"""Exact evolution of the 16-component couple distribution.

A distribution is a length-16 vector, or an (N,16) stack of N cells that
evolve under an (N,16,16) stack of kernels (see kernels.couple_kernels);
a single cell is the same computation with N = 1.
"""

from __future__ import annotations

import numpy as np

from .states import CoupleState, encode


def delta_distribution(state: CoupleState) -> np.ndarray:
    """Unit mass on one couple state."""
    dist = np.zeros(16)
    dist[encode(state)] = 1.0
    return dist


def step(dist: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """One application of the transition matrix: p'(y) = sum_x M[x,y] p(x).

    kernel is a 16x16 matrix or an (N,16,16) stack matching an (N,16) dist.
    Each cell is one vector-matrix product whatever N is, so a cell's
    result does not depend on the stack it sits in.
    """
    return (dist[..., None, :] @ kernel)[..., 0, :]


def _walk(dist: np.ndarray, kernel: np.ndarray, steps: int):
    """Yield the distribution (or stack) at t = 0..steps, holding only the current one."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    current = np.array(dist, dtype=float)
    yield current
    for _ in range(steps):
        current = step(current, kernel)
        yield current


def evolve(dist: np.ndarray, kernel: np.ndarray, steps: int) -> np.ndarray:
    """Apply `step` `steps` times; steps=0 returns the input unchanged.

    No per-step renormalization is performed, so numerical drift stays
    visible.
    """
    for current in _walk(dist, kernel, steps):
        pass
    return current


def evolve_trace(dist: np.ndarray, kernel: np.ndarray, steps: int) -> np.ndarray:
    """(steps+1, *dist.shape) array of the distribution (or stack) at t = 0..steps."""
    return np.stack(list(_walk(dist, kernel, steps)))
