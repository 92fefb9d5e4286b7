"""Self-consistent mean-field feedback on the control parameters.

The couple is imagined surrounded by identical couples mirroring its own
dynamics. Each turn, the chain restarts from the canonical initial state,
runs a fixed number of inner steps, and the violence perceived in that
environment nudges the parameters: aggressiveness polarizes toward 0 or 1
(f_update), support erodes or recovers (g_update), depending on whether
the perceived violence exceeds the threshold v_c.

Perceived violence per partner:
  aggression model: v1 = P(2,-1;T) + P(2,2;T), v2 = P(-1,2;T) + P(2,2;T)
    (exposure to the violence-absorbing states);
  support model: the marginal probability of being violent at time T,
    which reduces to the same quantity when the violent mass concentrates
    on the absorbing states.
Gender-blind feedback applies the average (v1+v2)/2 to both partners;
gender-specific feedback applies v1 to partner 1 and v2 to partner 2.

Both engines run a stack of N cells at once, one cell being N = 1, and
every turn takes one `measure` of the stack. Both update p as arrays
with libm's pow, the `**` of Python floats, so a cell's update does not
depend on its place in the stack. f and g fix 0 and 1 exactly, so a cell
with both p at 0 or 1 sits at a fixed point: sweeps measure such a cell
only at the final turn, while traces (self_consistent_run) measure every
turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .kernels import couple_kernels
from .markov import delta_distribution, evolve
from .montecarlo import estimate_distributions
from .observables import RECORDS, AbsorptionBasins, PathWeights, read_fields
from .rng import derive_seed_array
from .states import CANONICAL_START, CoupleState, Model, ModelParams, validate_param


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
        validate_param(self.vc, "vc")
        if self.inner_steps < 1:
            raise ValueError(f"inner_steps must be >= 1, got {self.inner_steps}")
        if self.turns < 1:
            raise ValueError(f"turns must be >= 1, got {self.turns}")
        if self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")


@dataclass(frozen=True)
class TurnRecord:
    """Parameters in force during one turn and what they produced."""

    turn: int
    p1: float
    p2: float
    v1: float
    v2: float
    observables: AbsorptionBasins | PathWeights


FeedbackTrace = list[TurnRecord]


def _power_update(p, grows, up, down):
    """1 - (1-p)^up where grows, p^down elsewhere, by libm's pow; floats give a float."""
    new = np.where(grows, 1.0 - np.float_power(1.0 - p, up), np.float_power(p, down))
    return new if new.ndim else float(new)


def f_update(a, v, vc):
    """Aggressiveness polarization: grows above the threshold, decays below.

    a' = 1 - (1-a)^(1+v-vc) if v > vc, else a^(vc-v+1). Both branches fix
    0 and 1 and leave a unchanged at v = vc. Floats give a float, arrays
    an array; both use libm's pow, so each entry has the float form's bits.
    """
    a, v, vc = validate_param(a, "a"), validate_param(v, "v"), validate_param(vc, "vc")
    return _power_update(a, v > vc, 1.0 + v - vc, vc - v + 1.0)


def g_update(supp, v, vc):
    """Support erosion: shrinks above the threshold, recovers below.

    s' = s^(v-vc+1) if v > vc, else 1 - (1-s)^(1+vc-v). Floats give a
    float, arrays an array; both use libm's pow, so each entry has the
    float form's bits.
    """
    supp, v, vc = validate_param(supp, "supp"), validate_param(v, "v"), validate_param(vc, "vc")
    return _power_update(supp, v <= vc, 1.0 + vc - v, v - vc + 1.0)


def measure(
    model: Model, p1, p2, start: CoupleState, steps: int, ensemble_size: int, seeds=None
) -> np.ndarray:
    """(N, F) read_fields of N cells (length-N p1, p2) after `steps` steps from start.

    seeds None is the exact engine, which ignores ensemble_size; otherwise
    cell n is estimated from ensemble_size trajectories on derive_seed(seeds[n], i).
    """
    if seeds is None:
        dist = np.tile(delta_distribution(start), (len(p1), 1))
        dist = evolve(dist, couple_kernels(model, p1, p2), steps)
    else:
        dist = estimate_distributions(start, model, p1, p2, steps, ensemble_size, seeds)
    return read_fields(model, dist, p1, p2)


def feedback_turns(
    model: Model, p1, p2, config: FeedbackConfig, start: CoupleState = CANONICAL_START,
    master_seed=0, _skip_settled: bool = False,
) -> Iterator[tuple]:
    """Yield (p1, p2, fields) for turns 0..config.turns, updating in between.

    p1 and p2 are length-N arrays, one entry per cell of the stack, and
    fields is the (N, F) array of read_fields. The exact engine uses no
    seed; the Monte Carlo engine measures turn k of cell n on seed
    derive_seed(master_seed[n], k) (master_seed: length N, or one int).
    The v1, v2 columns are clipped to [0, 1] before they feed the update.
    With _skip_settled, turns before the last measure and update only the
    cells not at a corner of [0,1]^2, and their fields hold just those rows.
    """
    update = f_update if model is Model.AGGRESSION else g_update
    exact = config.engine is Engine.EXACT
    for turn in range(config.turns + 1):
        moving = np.ones(len(p1), dtype=bool)
        if _skip_settled and turn < config.turns:
            moving = ~(np.isin(p1, (0.0, 1.0)) & np.isin(p2, (0.0, 1.0)))
        seeds = None if exact else derive_seed_array(master_seed, np.full(len(p1), turn))[moving]
        fields = measure(
            model, p1[moving], p2[moving], start, config.inner_steps, config.ensemble_size, seeds
        )
        # the unrenormalized evolution can leave v outside [0,1] by ~1e-16
        fields[:, -2:] = np.clip(fields[:, -2:], 0.0, 1.0)
        yield p1, p2, fields
        if turn == config.turns:
            return
        v1, v2 = fields[:, -2], fields[:, -1]
        if config.gender_mode is GenderMode.BLIND:
            v1 = v2 = (v1 + v2) / 2.0
        p1, p2 = p1.copy(), p2.copy()
        p1[moving] = update(p1[moving], v1, config.vc)
        p2[moving] = update(p2[moving], v2, config.vc)


def self_consistent_run(
    init_params: ModelParams,
    config: FeedbackConfig,
    start: CoupleState = CANONICAL_START,
    master_seed: int = 0,
) -> FeedbackTrace:
    """Iterate measure-then-update for config.turns turns.

    Record k holds the parameters after k updates together with the
    violence and observables they generate, so the trace has turns + 1
    records and the last one is the settled measurement. The run is a
    stack of one cell; the exact engine is deterministic, and the Monte
    Carlo engine measures turn k on seed derive_seed(master_seed, k).
    """
    model = init_params.model
    p1, p2 = np.array([init_params.p1]), np.array([init_params.p2])
    trace: FeedbackTrace = []
    turns = feedback_turns(model, p1, p2, config, start, master_seed)
    for turn, (p1, p2, fields) in enumerate(turns):
        *obs, v1, v2 = fields[0].tolist()
        trace.append(TurnRecord(turn, float(p1[0]), float(p2[0]), v1, v2, RECORDS[model](*obs)))
    return trace
