"""Stochastic trajectory sampling of individual couples.

A time step updates both partners in parallel from the *old* pair: each
partner draws one uniform number and picks the new state by comparing it
against the cumulative transition probabilities in the fixed order
-1, 0, 1, 2. Partner 1 draws first (counter 2t), partner 2 second
(counter 2t+1); the parallel semantics make the order irrelevant for the
law of the chain, but fixing it makes trajectories byte-reproducible.
One walk advances a flat stack of trajectories: estimate_distributions
samples the ensembles of the N rows of a row table with it,
estimate_distribution is its one-row case and sample_trajectory its
one-trajectory case.

The walk compares integers, not doubles. The uniform draw is
r = k * 2**-53 for the integer k = counter_bits(...) < 2**53, and that
product is exact, as is b * 2**53 for a threshold b (a power-of-two scale).
So r >= b holds exactly when k >= b * 2**53, that is when
k >= ceil(max(b, 0) * 2**53) for integer k >= 0. The walk builds these
uint64 thresholds once per stack and samples the very states the
comparison of doubles would.
"""

from __future__ import annotations

import numpy as np

from .kernels import partner_tables
from .rng import _u64, counter_bits, derive_seed_array
from .states import CoupleState, Model, ModelParams, Rows, decode, encode, row_table, validate_count


def _threshold(bound):
    """Least k with k * 2**-53 >= bound, as uint64: a cumulative bound for counter_bits."""
    return np.ceil(np.maximum(bound, 0.0) * 2.0**53).astype(np.uint64)


def _reached(k, thresholds, flat):
    """int8 count of the thresholds[.][flat] that each draw k reaches."""
    return sum((k >= threshold.take(flat)).view(np.int8) for threshold in thresholds)


def _walk(model: Model, p1, p2, steps: int, seeds, flat):
    """Advance flat indices 16 * cell + encode(state) in place; yield them at t = 0..steps.

    Trajectory k starts at flat[k] and runs on stream seeds[k] in cell
    flat[k] // 16 (parameters p1[cell], p2[cell]); its draw counters do not
    depend on the other trajectories, so any stack reproduces the
    sequential path. Every yield is the one array flat: read it before the next.
    """
    validate_count(steps, "steps", 0)
    # thresholds[k][16 n + 4 x1 + x2] is a partner's k-th cumulative bound
    # in cell n at pair state (x1, x2), the flat index both partners share.
    cums = (_threshold(table.cumsum(axis=3)) for table in partner_tables(model, p1, p2))
    thresholds1, thresholds2 = ([cum[..., k].ravel() for k in range(3)] for cum in cums)
    yield flat
    draws = np.empty((2, len(flat)), np.uint64)  # reused: a fresh one each step costs page faults
    for t in range(steps):
        k1, k2 = counter_bits(seeds, [[2 * t], [2 * t + 1]], out=draws)
        states = 4 * _reached(k1, thresholds1, flat) + _reached(k2, thresholds2, flat)
        flat &= -16
        flat += states
        yield flat


def sample_trajectory(
    start: CoupleState, params: ModelParams, steps: int, seed: int
) -> tuple[CoupleState, ...]:
    """The steps + 1 states of a reproducible path from `start` on stream seed mod 2**64.

    The stacked walk with one cell and one trajectory, every state recorded.
    """
    seeds = np.array([_u64(seed, "seed")])
    walk = _walk(params.model, [params.p1], [params.p2], steps, seeds, np.array([encode(start)]))
    return tuple(decode(int(flat[0])) for flat in walk)


def estimate_distributions(model: Model, rows: Rows, steps: int, ensemble_size: int) -> np.ndarray:
    """(N,16) empirical final-state distributions of the N rows of a Monte Carlo table.

    Trajectory i of row n starts at rows.start[n] and runs on stream
    derive_seed(rows.seed[n], i), so a row's result does not depend on its
    stack. All N * ensemble_size trajectories advance together, one step
    at a time; only the last step is kept.
    """
    validate_count(ensemble_size, "ensemble_size", 1)
    cells = len(rows.p1)
    # trajectory i of row n sits at i * cells + n
    seeds = derive_seed_array(rows.seed, np.arange(ensemble_size)[:, None]).ravel()
    flat = np.tile(16 * np.arange(cells) + rows.start, ensemble_size)
    for flat in _walk(model, rows.p1, rows.p2, steps, seeds, flat):
        pass
    counts = np.bincount(flat, minlength=16 * cells).reshape(cells, 16)
    return counts / ensemble_size


def estimate_distribution(
    start: CoupleState, params: ModelParams, steps: int, ensemble_size: int, master_seed: int
) -> np.ndarray:
    """Empirical (16,) distribution of one ensemble: estimate_distributions of one row."""
    # a plain measure reads no vc; 0.0 fills the column
    rows = row_table([params.p1], [params.p2], [0.0], [encode(start)], [_u64(master_seed, "seed")])
    return estimate_distributions(params.model, rows, steps, ensemble_size)[0]


def format_trajectory(states: tuple[CoupleState, ...]) -> list[str]:
    """Text lines `t=<k>, s1=<v> s2=<v>`, one per state of sample_trajectory."""
    return [f"t={t}, s1={s1} s2={s2}" for t, (s1, s2) in enumerate(states)]
