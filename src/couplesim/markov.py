"""Exact evolution of the 16-component couple distribution.

A distribution is a length-16 vector, or an (N,16) stack of N cells that
evolve under an (N,16,16) stack of kernels (see kernels.couple_kernels);
a single cell is the same computation with N = 1.

A kernel bilinear in (p1, p2), as every couple kernel is, also gives the
distribution after T steps in closed form: a tensor-product Bernstein
polynomial of degree T in p1 and p2 whose non-negative coefficients
(bernstein_table) depend only on the start and T. bernstein_evolve reads
a stack of cells off that table in place of T steps. power_evolve reaches
step T with about 2 log2(T) stacked products in place of T.
"""

from __future__ import annotations

import numpy as np

from .states import CoupleState, encode, validate_count


def delta_distribution(state: CoupleState) -> np.ndarray:
    """Unit mass on one couple state."""
    return np.eye(16)[encode(state)]


def step(dist: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """One application of the transition matrix: p'(y) = sum_x M[x,y] p(x).

    kernel is a 16x16 matrix or an (N,16,16) stack matching an (N,16) dist.
    Each cell is one vector-matrix product whatever N is, so a cell's
    result does not depend on the stack it sits in.
    """
    return (dist[..., None, :] @ kernel)[..., 0, :]


def _walk(dist: np.ndarray, kernel: np.ndarray, steps: int):
    """Yield the distribution (or stack) at t = 0..steps, holding only the current one."""
    validate_count(steps, "steps", 0)
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


def power_evolve(dist: np.ndarray, kernel: np.ndarray, steps: int) -> np.ndarray:
    """The distribution (or stack) after `steps` steps, by binary powering of the kernel.

    Set bit b of steps applies kernel^(2^b) with `step`, lowest bit first,
    and each power is one stacked squaring of the one before: 500 steps
    take 8 squarings and 6 vector-matrix products. Both are one BLAS call
    per cell, so a cell's result does not depend on the stack it sits in;
    it sums in another order than `evolve`, which it equals to within
    rounding.
    """
    steps = validate_count(steps, "steps", 0)
    current, spare, owned = np.array(dist, dtype=float), None, False
    while steps:
        if steps & 1:
            current = step(current, kernel)
        steps >>= 1
        if steps:
            # two buffers of our own take turns; the caller's kernel is never
            # written to and, rebound here, can be freed after the first squaring
            kernel, spare = np.matmul(kernel, kernel, out=spare), kernel if owned else None
            owned = True
    return current


def evolve_trace(dist: np.ndarray, kernel: np.ndarray, steps: int) -> np.ndarray:
    """(steps+1, *dist.shape) array of the distribution (or stack) at t = 0..steps."""
    return np.stack(list(_walk(dist, kernel, steps)))


def bernstein_table(dist: np.ndarray, corners: np.ndarray, steps: int) -> np.ndarray:
    """(steps+1, (steps+1)*16) coefficients C of dist after `steps` steps of a bilinear kernel.

    corners is the (4,16,16) stack M00, M10, M01, M11 of the kernel at
    (p1, p2) = (0,0), (1,0), (0,1), (1,1), so that M(p1, p2) =
    (1-p1)(1-p2) M00 + p1 (1-p2) M10 + (1-p1) p2 M01 + p1 p2 M11. Then
    dist M(p1, p2)^T = sum_ij p1^i (1-p1)^(T-i) p2^j (1-p2)^(T-j) C[i, 16j:16j+16],
    where C holds D[i, j] after T rounds of
    D[i,j] <- D[i,j] M00 + D[i-1,j] M10 + D[i,j-1] M01 + D[i-1,j-1] M11
    from D[0,0] = dist, summed left to right. Non-negative corners and
    dist give non-negative coefficients. Each round is one BLAS product.
    """
    steps = validate_count(steps, "steps", 0)
    table = np.zeros((steps + 1, steps + 1, 16))
    table[0, 0] = dist
    wide = np.concatenate(corners, axis=1)  # (16, 64): [M00 | M10 | M01 | M11]
    for _ in range(steps):
        parts = (table.reshape(-1, 16) @ wide).reshape(steps + 1, steps + 1, 4, 16)
        table = parts[:, :, 0].copy()
        table[1:] += parts[:-1, :, 1]
        table[:, 1:] += parts[:, :-1, 2]
        table[1:, 1:] += parts[:-1, :-1, 3]
    return table.reshape(steps + 1, -1)


def bernstein_evolve(table: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """(N,16) distributions of N cells at (p1[n], p2[n]) from a bernstein_table.

    The basis p^i (1-p)^(T-i) comes from running products, and each cell
    takes two vector-matrix products, one per partner, so a cell's result
    does not depend on the stack it sits in, as in `step`.
    """
    steps, cells = len(table) - 1, len(p1)
    powers = np.empty((steps + 1, 4, cells))  # row i: p1^i, (1-p1)^i, p2^i, (1-p2)^i
    powers[0] = 1.0
    powers[1:] = (p1, 1.0 - p1, p2, 1.0 - p2)
    for i in range(1, steps + 1):  # a cumprod along axis 0 took 4x as long
        np.multiply(powers[i - 1], powers[i], out=powers[i])
    basis = np.empty((2, cells, 1, steps + 1))  # [k, n, 0, i]: p_k^i (1-p_k)^(T-i) of cell n
    np.multiply(powers[:, 0::2].transpose(1, 2, 0), powers[::-1, 1::2].transpose(1, 2, 0),
                out=basis[:, :, 0])
    half = (basis[0] @ table).reshape(cells, steps + 1, 16)  # summed over i, indexed [n, j]
    return (basis[1] @ half)[:, 0]
