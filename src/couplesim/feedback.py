"""Self-consistent mean-field feedback on the control parameters.

The couple is imagined surrounded by identical couples mirroring its own
dynamics. Each turn, the chain restarts from the run's start state
(`--start`, the paper's (1, 0) by default), runs a fixed number of inner
steps, and the violence perceived in that environment nudges the
parameters: aggressiveness polarizes toward 0 or 1 (f_update), support
erodes or recovers (g_update), depending on whether the perceived
violence exceeds the threshold v_c.

Perceived violence per partner:
  aggression model: v1 = P(2,-1;T) + P(2,2;T), v2 = P(-1,2;T) + P(2,2;T)
    (exposure to the violence-absorbing states);
  support model: the marginal probability of being violent at time T,
    which reduces to the same quantity when the violent mass concentrates
    on the absorbing states.
Gender-blind feedback applies the average (v1+v2)/2 to both partners;
gender-specific feedback applies v1 to partner 1 and v2 to partner 2.

Both engines run a stack of N runs at once as a row table
(states.row_table: p1, p2, vc, start index and seed per row, checked once
where the table is built), a single run being a table of one row, and
every turn takes one `measure` of the stack. The exact engine reads a
measurement of at most TABLE_STEPS steps, every turn at the reference
setup's 20 inner steps, off a Bernstein table of the model and start
(markov.bernstein_table), built once and cached, one table for each start
in the stack; longer ones, such as model 1's 500 plain steps, power the
stack's kernels (markov.power_evolve: 8 squarings and 6 vector-matrix
products for 500 steps). Both engines update each row's p against its own
vc as arrays with libm's pow, the `**` of Python floats, so a row's
update does not depend on its place in the stack. f and g fix 0 and 1
exactly, so a row with both p at 0 or 1 sits at a fixed point: sweeps
measure such a row only at the final turn, while traces
(self_consistent_run) measure every turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

import numpy as np

from .kernels import couple_kernels
from .markov import bernstein_evolve, bernstein_table, power_evolve
from .montecarlo import estimate_distributions
from .observables import FIELD_NAMES, read_fields
from .rng import _u64, derive_seed_array
from .states import (
    CANONICAL_START, CoupleState, Model, ModelParams, Rows, encode, row_table, validate_count,
    validate_param,
)

# Longest exact measurement read off a cached Bernstein table; longer ones
# power their kernels. Medians of 100 alternating measures of model 2 from
# (1, 0), stacks of 256 and 512 cells, 2 cores: the table took 0.50-0.61x
# the powering's time at 20 steps, 0.87-1.04x at 32 and 1.19-1.35x at 40.
# A table holds (T+1)^2 * 16 doubles, 139 KB at 32.
TABLE_STEPS = 32


class GenderMode(Enum):
    BLIND = "blind"
    SPECIFIC = "specific"


class Engine(Enum):
    EXACT = "exact"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class FeedbackConfig:
    """Loop parameters (the reference setup by default); enum fields take a member or its value."""

    vc: float = 0.1
    inner_steps: int = 20
    turns: int = 20
    gender_mode: GenderMode = GenderMode.BLIND
    engine: Engine = Engine.EXACT
    ensemble_size: int = 1000

    def __post_init__(self) -> None:
        object.__setattr__(self, "gender_mode", GenderMode(self.gender_mode))
        object.__setattr__(self, "engine", Engine(self.engine))
        object.__setattr__(self, "vc", validate_param(self.vc, "vc", scalar=True))
        for name in ("inner_steps", "turns", "ensemble_size"):
            object.__setattr__(self, name, validate_count(getattr(self, name), name, 1))


def _power_update(p, grows, up, down):
    """1 - (1-p)^up where grows, p^down elsewhere, by libm's pow; floats give a float."""
    new = np.where(grows, 1.0 - np.float_power(1.0 - p, up), np.float_power(p, down))
    return new if new.ndim else float(new)


# f and g unchecked, for the loop, whose p and vc the row table checked and whose v is clipped
def _polarize(a, v, vc):
    return _power_update(a, v > vc, 1.0 + v - vc, vc - v + 1.0)


def _erode(supp, v, vc):
    return _power_update(supp, v <= vc, 1.0 + vc - v, v - vc + 1.0)


def f_update(a, v, vc):
    """Aggressiveness polarization: grows above the threshold, decays below.

    a' = 1 - (1-a)^(1+v-vc) if v > vc, else a^(vc-v+1). Both branches fix
    0 and 1 and leave a unchanged at v = vc. Floats give a float, arrays
    an array; both use libm's pow, so each entry has the float form's bits.
    """
    return _polarize(validate_param(a, "a"), validate_param(v, "v"), validate_param(vc, "vc"))


def g_update(supp, v, vc):
    """Support erosion: shrinks above the threshold, recovers below.

    s' = s^(v-vc+1) if v > vc, else 1 - (1-s)^(1+vc-v). Floats give a
    float, arrays an array; both use libm's pow, so each entry has the
    float form's bits.
    """
    return _erode(validate_param(supp, "supp"), validate_param(v, "v"), validate_param(vc, "vc"))


@lru_cache(maxsize=64)
def _table(model: Model, index: int, steps: int) -> np.ndarray:
    """Read-only bernstein_table of model's kernel from couple state `index`, 64-byte aligned.

    BLAS read a table at 20 and 32 steps 1.3-1.4x as fast from an address
    that is a multiple of 64 bytes as from any other multiple of 8 (stacks
    of 256 cells, one thread), with the same bits on the SkylakeX, Haswell
    and Prescott kernels, so the copy keeps a measure's time from turning
    on where the allocator put the table.
    """
    corners = couple_kernels(model, [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0])
    table = bernstein_table(np.eye(16)[index], corners, steps)
    buffer = np.empty(table.size + 7)
    aligned = buffer[-buffer.ctypes.data % 64 // 8:][:table.size].reshape(table.shape)
    aligned[...] = table
    aligned.setflags(write=False)
    return aligned


def measure(model: Model, rows: Rows, steps: int, ensemble_size: int) -> np.ndarray:
    """(N, F) read_fields of the N rows of a table after `steps` steps from each row's start.

    A table without seeds is the exact engine, which ignores ensemble_size:
    up to TABLE_STEPS steps it reads each row off the cached Bernstein
    table of (model, start, steps), one table per start in the stack, and
    beyond that it powers the rows' kernels (markov.power_evolve), which
    agrees with markov.evolve's step-by-step evolution to within rounding
    (fields within 5.3e-14 up to 1000 steps). Otherwise row n is estimated
    from ensemble_size trajectories on derive_seed(rows.seed[n], i).
    """
    if rows.seed is not None:
        dist = estimate_distributions(model, rows, steps, ensemble_size)
    elif validate_count(steps, "steps", 0) <= TABLE_STEPS:
        starts = np.flatnonzero(np.bincount(rows.start)).tolist()
        dist = np.empty((len(rows.p1), 16))
        for start in starts:
            # one start, as in every sweep and trace, takes its rows without a mask
            mine = rows.start == start if len(starts) > 1 else slice(None)
            dist[mine] = bernstein_evolve(_table(model, start, steps), rows.p1[mine], rows.p2[mine])
    else:
        dist = power_evolve(np.eye(16)[rows.start], couple_kernels(model, rows.p1, rows.p2), steps)
    return read_fields(model, dist, rows.p1, rows.p2)


def feedback_turns(
    model: Model, rows: Rows, config: FeedbackConfig, _skip_settled: bool = False
) -> Iterator[tuple]:
    """Yield (p1, p2, fields) for turns 0..config.turns, updating in between.

    rows is the stack's table, one run a row; p1 and p2 hold the rows'
    parameters at the turn and fields the (N, F) array of read_fields.
    Row n updates against its own rows.vc[n] (config.vc is not read). The
    exact engine uses no seed; the Monte Carlo engine measures turn k of
    row n on seed derive_seed(rows.seed[n], k). The v1, v2 columns are
    clipped to [0, 1] before they feed the update. With _skip_settled,
    turns before the last measure and update only the rows not at a
    corner of [0,1]^2, and their fields hold just those rows.
    """
    update = _polarize if model is Model.AGGRESSION else _erode
    p1, p2 = rows.p1, rows.p2
    for turn in range(config.turns + 1):
        moving = slice(None)
        if _skip_settled and turn < config.turns:
            moving = ~(((p1 == 0.0) | (p1 == 1.0)) & ((p2 == 0.0) | (p2 == 1.0)))
        seeds = None if config.engine is Engine.EXACT else derive_seed_array(rows.seed, turn)
        now = rows._replace(p1=p1, p2=p2, seed=seeds).take(moving)
        fields = measure(model, now, config.inner_steps, config.ensemble_size)
        # the unrenormalized evolution can leave v outside [0,1] by ~1e-16
        fields[:, -2:] = np.clip(fields[:, -2:], 0.0, 1.0)
        yield p1, p2, fields
        if turn == config.turns:
            return
        v1, v2 = fields[:, -2], fields[:, -1]
        if config.gender_mode is GenderMode.BLIND:
            v1 = v2 = (v1 + v2) / 2.0
        p1, p2 = p1.copy(), p2.copy()
        p1[moving] = update(now.p1, v1, now.vc)
        p2[moving] = update(now.p2, v2, now.vc)


def self_consistent_run(
    init_params: ModelParams,
    config: FeedbackConfig,
    start: CoupleState = CANONICAL_START,
    master_seed: int = 0,
) -> list[dict[str, float]]:
    """Iterate measure-then-update for config.turns turns.

    Row k holds the parameters after k updates together with the violence
    and observables they generate, keyed turn, p1, p2, v1, v2 and then the
    observables of FIELD_NAMES[model][:-2]: the columns of the trace CSV.
    The trace has turns + 1 rows and the last one is the settled
    measurement. The run is a table of one row; the exact engine is
    deterministic, and the Monte Carlo engine measures turn k on seed
    derive_seed(master_seed, k). Both engines refuse a master_seed that is
    no integer.
    """
    p1, p2, model = init_params.p1, init_params.p2, init_params.model
    rows = row_table([p1], [p2], [config.vc], [encode(start)], [_u64(master_seed, "seed")])
    trace = []
    for turn, (p1, p2, fields) in enumerate(feedback_turns(model, rows, config)):
        *obs, v1, v2 = fields[0].tolist()
        trace.append({"turn": turn, "p1": float(p1[0]), "p2": float(p2[0]), "v1": v1, "v2": v2,
                      **dict(zip(FIELD_NAMES[model], obs))})
    return trace
