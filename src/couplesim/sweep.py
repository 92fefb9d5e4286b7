"""Parameter-plane scans over (p1, p2) in [0,1]^2.

Exact cells run in-process as stacks: the grid is cut, in row-major cell
order, into stacks of at most STACK_CELLS cells, and each stack runs every
turn of the feedback loop (or the plain evolution) as whole arrays. The
exact engine is deterministic and derives no seeds; averaging repeated
runs would reproduce a single run, so it computes one run per cell
regardless of runs_per_cell. A cell's values do not depend on the stack
it falls in.

With the Monte Carlo engine every cell is an independent work item with
its own derived seed, and results are merged positionally, so the output
is identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .feedback import Engine, FeedbackConfig, GenderMode, exact_fields, feedback_turns
from .montecarlo import estimate_distribution
from .observables import MODEL1_FIELDS, MODEL2_FIELDS, read_fields
from .rng import derive_seed
from .states import CoupleState, Model, ModelParams, encode

# Cells per exact stack. Every turn holds an (N,16,16) kernel stack, 2 KB a
# cell, so the bound keeps a full grid's memory near that of one stack.
STACK_CELLS = 256


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
    """Full description of one sweep; everything downstream derives from it."""

    scenario: Scenario
    resolution: int = 51
    runs_per_cell: int | None = None
    engine: Engine = Engine.EXACT
    ensemble_size: int = 1000
    master_seed: int = 0
    vc: float = 0.1
    inner_steps: int = 20
    turns: int = 20
    plain_steps: int | None = None
    start: CoupleState = (1, 0)

    def __post_init__(self) -> None:
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
        return MODEL1_FIELDS if self.scenario.model is Model.AGGRESSION else MODEL2_FIELDS

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
        return FeedbackConfig(
            vc=self.vc,
            inner_steps=self.inner_steps,
            turns=self.turns,
            gender_mode=self.scenario.gender_mode,
            engine=self.engine,
            ensemble_size=self.ensemble_size,
        )


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


def _exact_values(spec: SweepSpec) -> np.ndarray:
    """(resolution**2, F) field values of every cell, row-major over (i, j)."""
    model = spec.scenario.model
    p1, p2 = (axis.ravel() for axis in np.meshgrid(spec.grid, spec.grid, indexing="ij"))
    values = np.empty((p1.size, len(spec.field_names)))
    for lo in range(0, p1.size, STACK_CELLS):
        a, b = p1[lo:lo + STACK_CELLS], p2[lo:lo + STACK_CELLS]
        if spec.scenario.self_consistent:
            *_, (_, _, fields) = feedback_turns(model, a, b, spec.feedback_config(), spec.start)
        else:
            fields = exact_fields(model, a, b, spec.start, spec.effective_plain_steps)
        values[lo:lo + len(a)] = fields
    return values


def _monte_carlo_cell(spec: SweepSpec, i: int, j: int) -> np.ndarray:
    model = spec.scenario.model
    p1, p2 = float(spec.grid[i]), float(spec.grid[j])
    config, runs = spec.feedback_config(), spec.effective_runs
    total = np.zeros(len(spec.field_names))
    for run in range(runs):
        seed = derive_seed(spec.master_seed, i, j, run)
        if spec.scenario.self_consistent:
            *_, (_, _, values) = feedback_turns(model, p1, p2, config, spec.start, seed)
        else:
            dist = estimate_distribution(
                spec.start, ModelParams(model, p1, p2), spec.effective_plain_steps,
                spec.ensemble_size, seed,
            )
            values = read_fields(model, dist, p1, p2)[0]
        total += values
    return total / runs


def _monte_carlo_rows(spec: SweepSpec, rows: list[int]) -> np.ndarray:
    out = np.empty((len(rows), spec.resolution, len(spec.field_names)))
    for k, i in enumerate(rows):
        for j in range(spec.resolution):
            out[k, j] = _monte_carlo_cell(spec, i, j)
    return out


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepGrid:
    """Scan the full grid; output is independent of the worker count.

    Exact sweeps run in-process; workers > 1 spreads Monte Carlo cells over
    that many processes.
    """
    resolution = spec.resolution
    if spec.engine is Engine.EXACT:
        values = _exact_values(spec).reshape(resolution, resolution, -1)
    elif workers <= 1:
        values = _monte_carlo_rows(spec, list(range(resolution)))
    else:
        values = np.empty((resolution, resolution, len(spec.field_names)))
        chunks = [list(range(i, resolution, workers)) for i in range(min(workers, resolution))]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            blocks = pool.map(_monte_carlo_rows, [spec] * len(chunks), chunks)
            for rows, block in zip(chunks, blocks):
                values[rows] = block
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
