"""Parameter-plane scans over (p1, p2) in [0,1]^2.

A sweep is cut, row-major over (i, j, run), into stacks of (cell, run)
pairs, and each stack runs every turn of the feedback loop (or the plain
evolution or sampling) as whole arrays. The exact engine is deterministic,
derives no seeds and runs one run per cell (repeats would reproduce it) in
stacks of at most STACK_CELLS cells, in-process. Monte Carlo pair (i, j, r)
samples on seed derive_seed(master_seed, i, j, r) in stacks of at most
STACK_TRAJECTORIES trajectories; workers > 1 spreads whole stacks over
processes, merged positionally. A cell's values, the run-ordered average of
its runs, depend neither on its stack nor on the worker count. A
self-consistent stack measures a (cell, run) pair whose p1 and p2 both sit
at 0 or 1, a fixed point of the feedback map, only at the final turn.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields as dataclass_fields
from enum import Enum

import numpy as np

from .feedback import Engine, FeedbackConfig, GenderMode, feedback_turns, measure
from .observables import FIELD_NAMES
from .rng import derive_seed_array
from .states import CANONICAL_START, CoupleState, Model, encode

# Cells per exact stack. Every turn holds an (N,16,16) kernel stack, 2 KB a
# cell, so the bound keeps a full grid's memory near that of one stack.
STACK_CELLS = 256
# Trajectories per Monte Carlo stack: ensemble_size of them for each
# (cell, run) pair, and at least one pair. Every step holds a few dozen
# bytes a trajectory, so the bound keeps the stack's arrays near 1 MB.
STACK_TRAJECTORIES = 8192


class Scenario(Enum):
    MODEL1_PLAIN = "model1-plain"
    MODEL1_SC_BLIND = "model1-sc-blind"
    MODEL1_SC_GENDER = "model1-sc-gender"
    MODEL2_PLAIN = "model2-plain"
    MODEL2_SC_BLIND = "model2-sc-blind"
    MODEL2_SC_GENDER = "model2-sc-gender"

    @property
    def model(self) -> Model:
        if self in (Scenario.MODEL1_PLAIN, Scenario.MODEL1_SC_BLIND, Scenario.MODEL1_SC_GENDER):
            return Model.AGGRESSION
        return Model.SUPPORT

    @property
    def self_consistent(self) -> bool:
        return self not in (Scenario.MODEL1_PLAIN, Scenario.MODEL2_PLAIN)

    @property
    def gender_mode(self) -> GenderMode:
        if self in (Scenario.MODEL1_SC_GENDER, Scenario.MODEL2_SC_GENDER):
            return GenderMode.SPECIFIC
        return GenderMode.BLIND


@dataclass(frozen=True)
class SweepSpec:
    """One sweep in full, which all else derives from; enum fields take a member or its value."""

    scenario: Scenario
    resolution: int = 51
    runs_per_cell: int | None = None
    engine: Engine = FeedbackConfig.engine
    ensemble_size: int = FeedbackConfig.ensemble_size
    master_seed: int = 0
    vc: float = FeedbackConfig.vc
    inner_steps: int = FeedbackConfig.inner_steps
    turns: int = FeedbackConfig.turns
    plain_steps: int | None = None
    start: CoupleState = CANONICAL_START

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", Scenario(self.scenario))
        object.__setattr__(self, "engine", Engine(self.engine))
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")
        if self.resolution > 201:
            raise ValueError(f"resolution capped at 201, got {self.resolution}")
        if self.runs_per_cell is not None and self.runs_per_cell < 1:
            raise ValueError(f"runs_per_cell must be >= 1, got {self.runs_per_cell}")
        if self.plain_steps is not None and self.plain_steps < 0:
            raise ValueError(f"plain_steps must be >= 0, got {self.plain_steps}")
        encode(self.start)
        self.feedback_config()  # validates vc / inner_steps / turns / ensemble_size

    @property
    def grid(self) -> np.ndarray:
        """Axis values: resolution points from 0 to 1 inclusive."""
        return np.linspace(0.0, 1.0, self.resolution)

    @property
    def field_names(self) -> tuple[str, ...]:
        return FIELD_NAMES[self.scenario.model]

    @property
    def dominance_fields(self) -> tuple[str, ...]:
        """The observables; v1/v2 are reported but never compete for a cell."""
        return self.field_names[:-2]

    @property
    def effective_runs(self) -> int:
        if self.engine is Engine.EXACT:
            return 1
        if self.runs_per_cell is not None:
            return self.runs_per_cell
        return 20 if self.scenario.self_consistent else 1

    @property
    def effective_plain_steps(self) -> int:
        if self.plain_steps is not None:
            return self.plain_steps
        return 500 if self.scenario.model is Model.AGGRESSION else 20

    def feedback_config(self) -> FeedbackConfig:
        options = {f.name: getattr(self, f.name) for f in dataclass_fields(FeedbackConfig)
                   if f.name != "gender_mode"}  # set by the scenario
        return FeedbackConfig(gender_mode=self.scenario.gender_mode, **options)


@dataclass(frozen=True)
class SweepGrid:
    """Per-field matrices; fields[name][i, j] belongs to p1=grid[i], p2=grid[j]."""

    spec: SweepSpec
    fields: dict[str, np.ndarray] = field(repr=False)

    def dominant_indices(self) -> np.ndarray:
        """Index (into spec.dominance_fields) of each cell's largest observable."""
        stack = np.stack([self.fields[name] for name in self.spec.dominance_fields])
        return np.argmax(stack, axis=0)

    def dominance_counts(self) -> dict[str, int]:
        dom = self.dominant_indices()
        return {
            name: int((dom == k).sum())
            for k, name in enumerate(self.spec.dominance_fields)
        }


@dataclass(frozen=True)
class GridComparison:
    cells_dominant_in_1: int
    cells_dominant_in_2: int
    l1_difference: float


def _stack_fields(spec: SweepSpec, pairs: range) -> np.ndarray:
    """(len(pairs), F) fields of (cell, run) pairs, numbered row-major over (i, j, run)."""
    model, exact = spec.scenario.model, spec.engine is Engine.EXACT
    cell, run = np.divmod(np.array(pairs), spec.effective_runs)
    i, j = np.divmod(cell, spec.resolution)
    p1, p2 = spec.grid[i], spec.grid[j]
    seeds = None if exact else derive_seed_array(spec.master_seed, i, j, run)
    if spec.scenario.self_consistent:
        *_, (_, _, fields) = feedback_turns(
            model, p1, p2, spec.feedback_config(), spec.start, seeds, _skip_settled=True
        )
        return fields
    steps = spec.effective_plain_steps
    return measure(model, p1, p2, spec.start, steps, spec.ensemble_size, seeds)


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepGrid:
    """Scan the full grid; workers > 1 spreads Monte Carlo stacks, never changing the output."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    runs, exact = spec.effective_runs, spec.engine is Engine.EXACT
    pairs = spec.resolution**2 * runs
    size = STACK_CELLS if exact else max(1, STACK_TRAJECTORIES // spec.ensemble_size)
    stacks = [range(lo, min(lo + size, pairs)) for lo in range(0, pairs, size)]
    if exact or workers <= 1:
        blocks = [_stack_fields(spec, stack) for stack in stacks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(stacks))) as pool:
            blocks = list(pool.map(_stack_fields, [spec] * len(stacks), stacks))
    per_run = np.concatenate(blocks).reshape(spec.resolution, spec.resolution, runs, -1)
    # each cell's runs summed in run order from 0, the bits of a running total
    values = sum(per_run[:, :, run] for run in range(runs)) / runs
    fields = {name: values[:, :, k].copy() for k, name in enumerate(spec.field_names)}
    return SweepGrid(spec=spec, fields=fields)


def compare_grids(grid1: SweepGrid, grid2: SweepGrid, field_name: str) -> GridComparison:
    """Dominance counts for one field in each grid, plus their L1 distance."""
    spec1, spec2 = grid1.spec, grid2.spec
    if spec1.resolution != spec2.resolution:
        raise ValueError(
            f"grids have different resolutions: {spec1.resolution} vs {spec2.resolution}"
        )
    if spec1.field_names != spec2.field_names:
        raise ValueError("grids carry different observable fields")
    if field_name not in spec1.field_names:
        raise ValueError(f"unknown field {field_name!r}; have {spec1.field_names}")
    counts1 = grid1.dominance_counts()
    counts2 = grid2.dominance_counts()
    l1 = float(np.abs(grid1.fields[field_name] - grid2.fields[field_name]).sum())
    return GridComparison(
        cells_dominant_in_1=counts1.get(field_name, 0),
        cells_dominant_in_2=counts2.get(field_name, 0),
        l1_difference=l1,
    )
