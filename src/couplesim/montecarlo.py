"""Stochastic trajectory sampling of individual couples.

A time step updates both partners in parallel from the *old* pair: each
partner draws one uniform number and picks the new state by comparing it
against the cumulative transition probabilities in the fixed order
-1, 0, 1, 2. Partner 1 draws first (counter 2t), partner 2 second
(counter 2t+1); the parallel semantics make the order irrelevant for the
law of the chain, but fixing it makes trajectories byte-reproducible.
estimate_distributions samples the ensembles of a stack of N cells as one
flat ensemble; estimate_distribution is its N = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import individual_kernel, individual_kernels
from .rng import DrawStream, counter_uniform, derive_seed_array
from .states import STATES, CoupleState, Model, ModelParams, encode


@dataclass(frozen=True)
class Trajectory:
    """One sampled path; states has length steps + 1."""

    seed: int
    params: ModelParams
    states: tuple[CoupleState, ...]


def sample_individual(
    s_self: int, s_partner: int, kernel: np.ndarray, rand: float
) -> int:
    """Pick the next individual state by the cumulative threshold rule.

    kernel is a 4x4x4 individual table; rand must lie in [0, 1). Any
    residual probability (the "otherwise" branch) selects state 2.
    """
    if not 0.0 <= rand < 1.0:
        raise ValueError(f"rand must lie in [0, 1), got {rand!r}")
    row = kernel[s_self + 1, s_partner + 1]
    cumulative = np.cumsum(row[:3])
    return STATES[int((rand >= cumulative).sum())]


def sample_step(state: CoupleState, params: ModelParams, stream: DrawStream) -> CoupleState:
    """Update both partners in parallel; consumes exactly two draws."""
    k1 = individual_kernel(params.model, params.p1)
    k2 = individual_kernel(params.model, params.p2)
    s1, s2 = state
    r1 = stream.next()
    r2 = stream.next()
    n1 = sample_individual(s1, s2, k1, r1)
    n2 = sample_individual(s2, s1, k2, r2)
    return (n1, n2)


def sample_trajectory(
    start: CoupleState, params: ModelParams, steps: int, seed: int
) -> Trajectory:
    """Reproducible path of `steps` transitions from `start`."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    encode(start)  # validates
    stream = DrawStream(seed)
    states = [start]
    current = start
    for _ in range(steps):
        current = sample_step(current, params, stream)
        states.append(current)
    return Trajectory(seed=int(seed), params=params, states=tuple(states))


def estimate_distributions(
    start: CoupleState, model: Model, p1, p2, steps: int, ensemble_size: int, master_seeds
) -> np.ndarray:
    """(N,16) empirical final-state distributions of N cells (length-N p1, p2).

    Trajectory i of cell n runs on stream derive_seed(master_seeds[n], i)
    (master_seeds: length N, or one int for all), so a cell's result does
    not depend on its stack. All N * ensemble_size trajectories advance
    together, one step at a time, and match sample_trajectory draw for draw.
    """
    if ensemble_size < 1:
        raise ValueError(f"ensemble_size must be >= 1, got {ensemble_size}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    # bounds[k][16 n + 4 x1 + x2] is a partner's k-th cumulative threshold
    # in cell n at pair state (x1, x2); partner 2's tables are transposed so
    # that both partners read at the same flat index.
    cum1 = individual_kernels(model, p1, "p1").cumsum(axis=3)
    cum2 = individual_kernels(model, p2, "p2").cumsum(axis=3).transpose(0, 2, 1, 3)
    bounds1, bounds2 = ([cum[..., k].ravel() for k in range(3)] for cum in (cum1, cum2))
    cells = len(cum1)
    seeds = derive_seed_array(master_seeds, np.arange(ensemble_size)[:, None])
    seeds = np.broadcast_to(seeds, (ensemble_size, cells)).T.ravel()
    base = np.repeat(16 * np.arange(cells), ensemble_size)
    flat = base + encode(start)
    for t in range(steps):
        r1 = counter_uniform(seeds, 2 * t)
        r2 = counter_uniform(seeds, 2 * t + 1)
        n1 = sum(r1 >= bound.take(flat) for bound in bounds1)
        n2 = sum(r2 >= bound.take(flat) for bound in bounds2)
        flat = base + 4 * n1 + n2
    counts = np.bincount(flat, minlength=16 * cells).reshape(cells, 16)
    return counts / ensemble_size


def estimate_distribution(
    start: CoupleState, params: ModelParams, steps: int, ensemble_size: int, master_seed: int
) -> np.ndarray:
    """Empirical (16,) distribution of one ensemble: estimate_distributions with N = 1."""
    model, p1, p2 = params.model, [params.p1], [params.p2]
    return estimate_distributions(start, model, p1, p2, steps, ensemble_size, master_seed)[0]


def format_trajectory(trajectory: Trajectory) -> list[str]:
    """Text lines `t=<k>, s1=<v> s2=<v>`, one per recorded state."""
    return [
        f"t={t}, s1={s1} s2={s2}" for t, (s1, s2) in enumerate(trajectory.states)
    ]
