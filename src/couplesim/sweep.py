"""Parameter-plane scans over (p1, p2) in [0,1]^2.

A sweep is one row table (SweepSpec.rows), a row (p1, p2, vc, start,
seed) for each (cell, run) pair, row-major over (i, j, run), every row
at the spec's vc and start. Its stacks are consecutive ranges of that
table, each built from its range by the worker that runs it (the whole
table is never held), and each stack runs every turn of the feedback
loop (or the plain evolution or sampling) as whole arrays. The exact
engine is deterministic, derives no seeds (its rows hold none) and runs
one run per cell (repeats would reproduce it) in stacks of at most
STACK_CELLS rows. Monte Carlo row (i, j, r) samples on seed
derive_seed(master_seed, i, j, r) in stacks of at most
STACK_TRAJECTORIES trajectories. workers > 1 maps whole stacks over a
pool of that many workers while the calling thread waits: threads for
exact stacks (numpy's stacked matmul runs them without the GIL; on
worker processes they measured 10% slower and took 16% more CPU time),
processes for Monte Carlo ones (the walk's many small numpy calls hold
the GIL, so threads measured slower there); a sweep of one stack runs in
the calling thread. Blocks are merged by position. An error in stack k
cancels the stacks not yet started once the caller reaches result k,
Ctrl-C cancels them at once; stacks already running are left to end. A
cell's values, the run-ordered average of its runs, depend neither on
its stack nor on the worker count.
A self-consistent stack measures a (cell, run) pair whose p1 and p2 both
sit at 0 or 1, a fixed point of the feedback map, only at the final turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from enum import Enum

import numpy as np

from .feedback import Engine, FeedbackConfig, GenderMode, feedback_turns, measure
from .observables import FIELD_NAMES
from .rng import _u64, derive_seed_array
from .states import (
    CANONICAL_START, CoupleState, Model, Rows, decode, encode, row_table, validate_count,
)

# Cells per exact stack. numpy's stacked matmul releases the GIL only on
# stacks of more than 500 matrices, so a smaller bound would leave threads
# (workers > 1) taking turns. A stack peaks at 4.0 KB a cell plain from the
# table, 4.5 KB plain powered (two squaring buffers) and 5.1-5.3 KB
# self-consistent (tracemalloc), 2.0-2.7 MB at 512, so the bound keeps a
# grid's memory near that of one stack per worker.
STACK_CELLS = 512
# Trajectories per Monte Carlo stack: ensemble_size of them for each
# (cell, run) pair, and at least one pair. The walk's arrays peak at 50
# bytes a trajectory (tracemalloc, 8000-64000 trajectories), so the bound
# keeps a stack near 1.6 MB; larger stacks save per-stack calls, not memory.
STACK_TRAJECTORIES = 32768


class Scenario(Enum):
    """The paper's six sweeps, one row each: value, model, self_consistent, gender_mode.

    A plain scenario keeps the blind mode, under which its loop fields are checked.
    """

    MODEL1_PLAIN = "model1-plain", Model.AGGRESSION, False, GenderMode.BLIND
    MODEL1_SC_BLIND = "model1-sc-blind", Model.AGGRESSION, True, GenderMode.BLIND
    MODEL1_SC_GENDER = "model1-sc-gender", Model.AGGRESSION, True, GenderMode.SPECIFIC
    MODEL2_PLAIN = "model2-plain", Model.SUPPORT, False, GenderMode.BLIND
    MODEL2_SC_BLIND = "model2-sc-blind", Model.SUPPORT, True, GenderMode.BLIND
    MODEL2_SC_GENDER = "model2-sc-gender", Model.SUPPORT, True, GenderMode.SPECIFIC

    def __new__(cls, value: str, model: Model, self_consistent: bool, gender_mode: GenderMode):
        member = object.__new__(cls)
        member._value_ = value  # Scenario("model1-plain"), the CLI choices and pickling use it
        member.model, member.self_consistent, member.gender_mode = model, self_consistent, gender_mode
        return member


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
        for name, low, high in (("resolution", 2, 201), ("runs_per_cell", 1, None),
                                ("plain_steps", 0, None)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, validate_count(getattr(self, name), name, low, high))
        _u64(self.master_seed, "master_seed")
        object.__setattr__(self, "start", decode(encode(self.start)))
        config = self.feedback_config()  # validates vc / inner_steps / turns / ensemble_size
        for name in ("vc", "inner_steps", "turns", "ensemble_size"):
            object.__setattr__(self, name, getattr(config, name))

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

    @property
    def row_count(self) -> int:
        return self.resolution**2 * self.effective_runs

    def rows(self, lo: int = 0, hi: int | None = None) -> Rows:
        """Rows lo..hi-1 (all by default) of the grid's row table, row-major over (i, j, run).

        Row (i, j, r) holds p1 = grid[i], p2 = grid[j], vc and start and,
        on the Monte Carlo engine, seed derive_seed(master_seed, i, j, r);
        exact rows hold no seed. A range of rows is built on its own, with
        the bits of the same rows of the whole table.
        """
        shape = (self.resolution, self.resolution, self.effective_runs)
        i, j, r = np.unravel_index(np.arange(lo, self.row_count if hi is None else hi), shape)
        seed = None if self.engine is Engine.EXACT else derive_seed_array(self.master_seed, i, j, r)
        vc, start = np.full(len(i), self.vc), np.full(len(i), encode(self.start))
        return row_table(self.grid[i], self.grid[j], vc, start, seed)

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


def _stack_fields(spec: SweepSpec, rows: Rows) -> np.ndarray:
    """(N, F) fields of a part of spec.rows(), one row a (cell, run) pair."""
    model = spec.scenario.model
    if spec.scenario.self_consistent:
        *_, (_, _, fields) = feedback_turns(model, rows, spec.feedback_config(), _skip_settled=True)
        return fields
    return measure(model, rows, spec.effective_plain_steps, spec.ensemble_size)


def _span_fields(spec: SweepSpec, lo: int, hi: int) -> np.ndarray:
    """_stack_fields of rows lo..hi-1, built in the worker that runs them."""
    return _stack_fields(spec, spec.rows(lo, hi))


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepGrid:
    """Scan the full grid; workers > 1 spreads its stacks, never changing the output."""
    validate_count(workers, "workers", 1)
    runs, exact, total = spec.effective_runs, spec.engine is Engine.EXACT, spec.row_count
    size = STACK_CELLS if exact else max(1, STACK_TRAJECTORIES // spec.ensemble_size)
    los = range(0, total, size)
    his = [min(lo + size, total) for lo in los]
    workers = min(workers, len(los))
    if workers == 1:
        blocks = [_span_fields(spec, lo, hi) for lo, hi in zip(los, his)]
    else:
        from concurrent import futures  # only pools pay for the import

        executor = futures.ThreadPoolExecutor if exact else futures.ProcessPoolExecutor
        with executor(max_workers=workers) as pool:
            blocks = list(pool.map(_span_fields, [spec] * len(los), los, his))
    per_run = np.concatenate(blocks).reshape(spec.resolution, spec.resolution, runs, -1)
    # each cell's runs summed in run order from 0, the bits of a running total
    values = sum(per_run[:, :, run] for run in range(runs)) / runs
    fields = {name: values[:, :, k].copy() for k, name in enumerate(spec.field_names)}
    return SweepGrid(spec=spec, fields=fields)
