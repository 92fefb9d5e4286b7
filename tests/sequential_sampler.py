"""Per-draw sequential sampler: the independent oracle for the stacked walk.

One trajectory advances one Python step at a time. Each partner reads its
4x4x4 individual table, takes the cumulative sum of the first three
entries of its row and picks the next state by counting the thresholds
its draw reaches; the residual ("otherwise") branch selects state 2.
Partner 1 uses draw 2t of the stream, partner 2 draw 2t+1. This file is
test code: it shares only counter_uniform, individual_kernel and STATES
with the package, so it does not test the stacked sampler against itself.
"""

import numpy as np

from couplesim import STATES, counter_uniform, individual_kernel


class DrawStream:
    """Sequential view of a counter-based stream: draw n is counter n."""

    def __init__(self, seed: int):
        self.seed = int(seed) & ((1 << 64) - 1)
        self.counter = 0

    def next(self) -> float:
        u = float(counter_uniform(self.seed, self.counter))
        self.counter += 1
        return u


def sample_individual(s_self: int, s_partner: int, kernel: np.ndarray, rand: float) -> int:
    """Pick the next individual state by the cumulative threshold rule.

    kernel is a 4x4x4 individual table; rand must lie in [0, 1).
    """
    if not 0.0 <= rand < 1.0:
        raise ValueError(f"rand must lie in [0, 1), got {rand!r}")
    row = kernel[s_self + 1, s_partner + 1]
    cumulative = np.cumsum(row[:3])
    return STATES[int((rand >= cumulative).sum())]


def sample_step(state, params, stream: DrawStream):
    """Update both partners in parallel from the old pair; consumes two draws."""
    k1 = individual_kernel(params.model, params.p1)
    k2 = individual_kernel(params.model, params.p2)
    s1, s2 = state
    r1 = stream.next()
    r2 = stream.next()
    return (sample_individual(s1, s2, k1, r1), sample_individual(s2, s1, k2, r2))


def sequential_path(start, params, steps: int, seed: int) -> tuple:
    """The states at t = 0..steps of one trajectory on stream seed mod 2**64."""
    stream = DrawStream(seed)
    states = [start]
    for _ in range(steps):
        states.append(sample_step(states[-1], params, stream))
    return tuple(states)
