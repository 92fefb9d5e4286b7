"""Stochastic trajectory sampling of individual couples.

A time step updates both partners in parallel from the *old* pair: each
partner draws one uniform number and picks the new state by comparing it
against the cumulative transition probabilities in the fixed order
-1, 0, 1, 2. Partner 1 draws first (counter 2t), partner 2 second
(counter 2t+1); the parallel semantics make the order irrelevant for the
law of the chain, but fixing it makes trajectories byte-reproducible.
One walk advances a flat stack of trajectories: estimate_distributions
samples the ensembles of N cells with it, estimate_distribution is its
N = 1 case and sample_trajectory its one-trajectory case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import partner_tables
from .rng import counter_uniform, derive_seed_array
from .states import CoupleState, Model, ModelParams, decode, encode


@dataclass(frozen=True)
class Trajectory:
    """One sampled path; states has length steps + 1."""

    seed: int
    params: ModelParams
    states: tuple[CoupleState, ...]


def _walk(start: CoupleState, model: Model, p1, p2, steps: int, seeds, cells):
    """Yield every trajectory's flat index 16 * cell + encode(state) at t = 0..steps.

    Trajectory k runs on stream seeds[k] in cell cells[k] (parameters
    p1[cells[k]], p2[cells[k]]); its draw counters do not depend on the
    other trajectories, so any stack reproduces the sequential path.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    # bounds[k][16 n + 4 x1 + x2] is a partner's k-th cumulative threshold
    # in cell n at pair state (x1, x2), the flat index both partners share.
    cum1, cum2 = (table.cumsum(axis=3) for table in partner_tables(model, p1, p2))
    bounds1, bounds2 = ([cum[..., k].ravel() for k in range(3)] for cum in (cum1, cum2))
    base = 16 * cells
    flat = base + encode(start)
    yield flat
    for t in range(steps):
        r1 = counter_uniform(seeds, 2 * t)
        r2 = counter_uniform(seeds, 2 * t + 1)
        n1 = sum(r1 >= bound.take(flat) for bound in bounds1)
        n2 = sum(r2 >= bound.take(flat) for bound in bounds2)
        flat = base + 4 * n1 + n2
        yield flat


def sample_trajectory(
    start: CoupleState, params: ModelParams, steps: int, seed: int
) -> Trajectory:
    """Reproducible path of `steps` transitions from `start` on stream seed mod 2**64.

    The stacked walk with one cell and one trajectory, every state recorded.
    """
    seeds = np.array([int(seed) % 2**64], dtype=np.uint64)
    walk = _walk(start, params.model, [params.p1], [params.p2], steps, seeds, np.zeros(1, int))
    states = tuple(decode(int(flat[0])) for flat in walk)
    return Trajectory(seed=int(seed), params=params, states=states)


def estimate_distributions(
    start: CoupleState, model: Model, p1, p2, steps: int, ensemble_size: int, master_seeds
) -> np.ndarray:
    """(N,16) empirical final-state distributions of N cells (length-N p1, p2).

    Trajectory i of cell n runs on stream derive_seed(master_seeds[n], i)
    (master_seeds: length N, or one int for all), so a cell's result does
    not depend on its stack. All N * ensemble_size trajectories advance
    together, one step at a time; only the last step is kept.
    """
    if ensemble_size < 1:
        raise ValueError(f"ensemble_size must be >= 1, got {ensemble_size}")
    cells = len(p1)
    seeds = derive_seed_array(master_seeds, np.arange(ensemble_size)[:, None])
    seeds = np.broadcast_to(seeds, (ensemble_size, cells)).T.ravel()
    trajectory_cells = np.repeat(np.arange(cells), ensemble_size)
    for flat in _walk(start, model, p1, p2, steps, seeds, trajectory_cells):
        pass
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
