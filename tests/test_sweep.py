import concurrent.futures
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from couplesim import (
    Engine,
    FeedbackConfig,
    GenderMode,
    Model,
    ModelParams,
    Scenario,
    SweepSpec,
    derive_seed,
    encode,
    estimate_distribution,
    evolve,
    run_sweep,
    self_consistent_run,
)
from couplesim import feedback, sweep
from couplesim.feedback import measure
from couplesim.kernels import couple_kernels
from couplesim.observables import read_fields
from couplesim.rng import derive_seed_array
from couplesim.states import row_table
from scalar_feedback import scalar_feedback_fields


DEFAULT_STACK_TRAJECTORIES = sweep.STACK_TRAJECTORIES


def small(scenario, **kw):
    defaults = dict(resolution=6, master_seed=3)
    defaults.update(kw)
    return SweepSpec(scenario=scenario, **defaults)


SCENARIO_TABLE = [
    ("model1-plain", Model.AGGRESSION, False, GenderMode.BLIND),
    ("model1-sc-blind", Model.AGGRESSION, True, GenderMode.BLIND),
    ("model1-sc-gender", Model.AGGRESSION, True, GenderMode.SPECIFIC),
    ("model2-plain", Model.SUPPORT, False, GenderMode.BLIND),
    ("model2-sc-blind", Model.SUPPORT, True, GenderMode.BLIND),
    ("model2-sc-gender", Model.SUPPORT, True, GenderMode.SPECIFIC),
]


def test_scenario_table():
    # declaration order; a plain scenario keeps the blind mode its loop fields are checked under
    assert len(Scenario) == len(SCENARIO_TABLE)
    for member, (value, model, self_consistent, gender_mode) in zip(Scenario, SCENARIO_TABLE):
        assert (member.value, member.model, member.self_consistent, member.gender_mode) == (
            value, model, self_consistent, gender_mode)
        assert Scenario(value) is member
        assert pickle.loads(pickle.dumps(member)) is member


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(scenario=Scenario.MODEL1_PLAIN, resolution=1)
    with pytest.raises(ValueError):
        SweepSpec(scenario=Scenario.MODEL1_PLAIN, resolution=301)
    with pytest.raises(ValueError):
        SweepSpec(scenario=Scenario.MODEL1_PLAIN, runs_per_cell=0)
    with pytest.raises(ValueError):
        SweepSpec(scenario=Scenario.MODEL1_PLAIN, vc=2.0)


def test_spec_engine_value_runs_that_engine():
    by_value = small(Scenario.MODEL1_SC_BLIND, engine="exact", ensemble_size=50)
    by_member = small(Scenario.MODEL1_SC_BLIND, engine=Engine.EXACT, ensemble_size=50)
    assert by_value.engine is Engine.EXACT
    grid_by_value, grid_by_member = run_sweep(by_value), run_sweep(by_member)
    for name in by_member.field_names:
        np.testing.assert_array_equal(grid_by_value.fields[name], grid_by_member.fields[name])


def test_spec_takes_a_scenario_value_and_rejects_unknown_values():
    by_value = SweepSpec(scenario="model2-sc-gender", engine="monte-carlo")
    assert by_value == SweepSpec(scenario=Scenario.MODEL2_SC_GENDER, engine=Engine.MONTE_CARLO)
    assert by_value.scenario is Scenario.MODEL2_SC_GENDER
    with pytest.raises(ValueError):
        SweepSpec(scenario="nope")
    with pytest.raises(ValueError):
        SweepSpec(scenario=Scenario.MODEL1_PLAIN, engine="exactly")


def test_grid_axis_includes_both_endpoints():
    spec = small(Scenario.MODEL1_PLAIN, resolution=11)
    axis = spec.grid
    assert axis[0] == 0.0
    assert axis[-1] == 1.0
    assert len(axis) == 11
    assert np.allclose(np.diff(axis), 0.1)


def test_effective_runs_logic():
    sc = Scenario.MODEL1_SC_BLIND
    assert SweepSpec(scenario=sc).effective_runs == 1  # exact engine: one run suffices
    assert SweepSpec(scenario=sc, engine=Engine.MONTE_CARLO).effective_runs == 20
    assert SweepSpec(scenario=sc, engine=Engine.MONTE_CARLO, runs_per_cell=5).effective_runs == 5
    plain = Scenario.MODEL1_PLAIN
    assert SweepSpec(scenario=plain, engine=Engine.MONTE_CARLO).effective_runs == 1


def test_plain_sweep_corners():
    grid = run_sweep(small(Scenario.MODEL1_PLAIN))
    assert grid.fields["normal"][0, 0] == 1.0
    assert grid.fields["separation"][-1, -1] == pytest.approx(1.0, abs=1e-9)
    # high a1 / low a2 puts partner 1 in charge
    assert grid.fields["male_violence"][4, 1] == max(
        grid.fields[name][4, 1] for name in grid.spec.dominance_fields
    )


def test_support_plain_sweep_fields():
    grid = run_sweep(small(Scenario.MODEL2_PLAIN))
    assert set(grid.fields) == {
        "normal",
        "threshold",
        "recovering",
        "violence_cycle",
        "mutual_violence",
        "separation",
        "v1",
        "v2",
    }
    assert grid.fields["normal"][-1, -1] > 0.5


def test_sweep_is_deterministic_across_worker_counts(monkeypatch):
    monkeypatch.setattr(sweep, "STACK_CELLS", 5)  # 49 cells: 10 stacks, 9 of 5 and one of 4
    spec = small(Scenario.MODEL1_SC_GENDER, resolution=7)
    serial = run_sweep(spec, workers=1)
    for workers in (2, 3):  # 3 threads split 10 stacks unevenly
        parallel = run_sweep(spec, workers=workers)
        for name in spec.field_names:
            assert np.array_equal(serial.fields[name], parallel.fields[name]), (workers, name)


def test_thread_stacks_hold_with_more_threads_than_cores(monkeypatch):
    monkeypatch.setattr(sweep, "STACK_CELLS", 1)  # 36 one-cell stacks, each holding the GIL
    spec = small(Scenario.MODEL2_PLAIN, plain_steps=4)
    serial = run_sweep(spec, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_sweep(spec, workers=5)
    finally:
        sys.setswitchinterval(interval)
    for name in spec.field_names:
        assert np.array_equal(serial.fields[name], parallel.fields[name]), name


@pytest.mark.parametrize("failing", [0, 4, 9])
def test_thread_stack_error_propagates_and_leaves_no_thread(failing, monkeypatch):
    monkeypatch.setattr(sweep, "STACK_CELLS", 5)
    spec = small(Scenario.MODEL1_PLAIN, resolution=7, plain_steps=3)
    original = sweep._stack_fields
    first = spec.rows().take(failing * sweep.STACK_CELLS)  # the failing stack's first row

    def broken(spec, rows):
        if (rows.p1[0], rows.p2[0]) == (first.p1, first.p2):
            raise RuntimeError(f"stack {failing}")
        return original(spec, rows)

    monkeypatch.setattr(sweep, "_stack_fields", broken)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"stack {failing}"):
        run_sweep(spec, workers=2)
    assert threading.active_count() == before


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_thread_stack_error_stops_the_other_threads_taking_stacks(error, monkeypatch):
    monkeypatch.setattr(sweep, "STACK_CELLS", 5)
    spec = small(Scenario.MODEL1_PLAIN, resolution=7, plain_steps=3)  # 10 stacks
    original = sweep._stack_fields
    started = []

    def first_fails(spec, rows):
        started.append((rows.p1[0], rows.p2[0]))
        if started[-1] == (0.0, 0.0):  # the first row of stack 0
            raise error("stack 0")
        time.sleep(0.02)  # lets the failing thread run while another holds a stack
        return original(spec, rows)

    monkeypatch.setattr(sweep, "_stack_fields", first_fails)
    with pytest.raises(error, match="stack 0"):
        run_sweep(spec, workers=2)
    assert len(started) <= 3, started  # each thread's stack at the error, and one more at most


@pytest.mark.parametrize("engine", list(Engine))
def test_one_stack_sweep_runs_in_the_calling_thread(engine, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-stack sweep started a pool")

    for executor in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
        monkeypatch.setattr(concurrent.futures, executor, no_pool)
    # 16 cells, or 16 pairs of 1000 trajectories: one stack under either bound
    spec = small(Scenario.MODEL2_PLAIN, resolution=4, engine=engine)
    grid = run_sweep(spec, workers=4)
    assert grid.fields["normal"].shape == (4, 4)


@pytest.mark.parametrize("engine, used", [(Engine.EXACT, "ThreadPoolExecutor"),
                                           (Engine.MONTE_CARLO, "ProcessPoolExecutor")])
def test_engine_picks_the_executor(engine, used, monkeypatch):
    made = []
    for name in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
        base = getattr(concurrent.futures, name)

        class Recording(base):
            def __init__(self, *args, _name=name, **kwargs):
                made.append(_name)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, name, Recording)
    monkeypatch.setattr(sweep, "STACK_CELLS", 5)  # 9 cells: 2 exact stacks
    monkeypatch.setattr(sweep, "STACK_TRAJECTORIES", 100)  # 2 pairs a stack: 5 Monte Carlo stacks
    spec = small(Scenario.MODEL2_PLAIN, resolution=3, engine=engine, ensemble_size=50)
    run_sweep(spec, workers=1)
    assert made == []
    run_sweep(spec, workers=2)
    assert made == [used]


def test_monte_carlo_sweep_is_deterministic_across_worker_counts():
    spec = small(
        Scenario.MODEL2_PLAIN,
        resolution=5,
        engine=Engine.MONTE_CARLO,
        ensemble_size=200,
        runs_per_cell=3,
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=4)
    for name in spec.field_names:
        assert np.array_equal(serial.fields[name], parallel.fields[name])
    rerun = run_sweep(spec, workers=2)
    for name in spec.field_names:
        assert np.array_equal(serial.fields[name], rerun.fields[name])


@pytest.mark.parametrize("engine", list(Engine))
@pytest.mark.parametrize("workers", [0, -1])
def test_run_sweep_rejects_fewer_than_one_worker(engine, workers):
    spec = small(Scenario.MODEL2_PLAIN, resolution=2, engine=engine, ensemble_size=10)
    with pytest.raises(ValueError, match="workers"):
        run_sweep(spec, workers=workers)


def test_transpose_symmetry_with_swapped_start():
    spec = small(Scenario.MODEL1_PLAIN, resolution=7)
    forward = run_sweep(spec)
    swapped = run_sweep(small(Scenario.MODEL1_PLAIN, resolution=7, start=(0, 1)))
    pairs = {
        "normal": "normal",
        "separation": "separation",
        "male_violence": "female_violence",
        "female_violence": "male_violence",
        "v1": "v2",
        "v2": "v1",
    }
    for name, mirror in pairs.items():
        assert np.abs(forward.fields[name] - swapped.fields[mirror].T).max() < 1e-12


def test_dominance_counts_cover_grid():
    grid = run_sweep(small(Scenario.MODEL1_PLAIN))
    counts = grid.dominance_counts()
    assert sum(counts.values()) == 36
    assert set(counts) == set(grid.spec.dominance_fields)


def _single_cell(spec, i, j):
    """The cell's fields from a run of that one cell (N = 1), by field name."""
    params = ModelParams(spec.scenario.model, float(spec.grid[i]), float(spec.grid[j]))
    if spec.scenario.self_consistent:
        last = self_consistent_run(params, spec.feedback_config(), start=spec.start)[-1]
        return {name: last[name] for name in spec.field_names}
    rows = row_table([params.p1], [params.p2], [spec.vc], [encode(spec.start)])
    row = measure(params.model, rows, spec.effective_plain_steps, 1)[0].tolist()
    return dict(zip(spec.field_names, row))


@pytest.mark.parametrize("scenario", list(Scenario))
def test_stack_split_does_not_change_results(scenario, monkeypatch):
    # 17 x 17 = 289 cells: one full stack of 256 and one of 33
    monkeypatch.setattr(sweep, "STACK_CELLS", 256)
    spec = SweepSpec(scenario=scenario, resolution=17)
    grid = run_sweep(spec)
    for cell in (1, 137, 254, 255, 256, 257, 271, 288):
        i, j = divmod(cell, spec.resolution)
        expected = _single_cell(spec, i, j)
        for name in spec.field_names:
            assert grid.fields[name][i, j] == expected[name], (cell, name)
    monkeypatch.setattr(sweep, "STACK_CELLS", 7)
    resplit = run_sweep(spec)
    for name in spec.field_names:
        assert np.array_equal(grid.fields[name], resplit.fields[name]), name


def _mc_spec(scenario, **kw):
    # 3000 trajectories a pair: under a stack bound of 8192, stacks of 2 (cell,
    # run) pairs. With 3 runs a cell, stack boundaries split the runs of every
    # cell and also fall between cells 1 and 2, 3 and 4, ...
    defaults = dict(
        resolution=3, runs_per_cell=3, engine=Engine.MONTE_CARLO, ensemble_size=3000,
        master_seed=2**63 + 17, inner_steps=6, turns=3, plain_steps=7,
    )
    defaults.update(kw)
    return SweepSpec(scenario=scenario, **defaults)


def _run_average(rows):
    """Average of per-run field rows, summed in run order from zeros."""
    total = np.zeros(len(rows[0]))
    for row in rows:
        total += row
    return total / len(rows)


@pytest.mark.parametrize(
    "scenario", [Scenario.MODEL1_SC_BLIND, Scenario.MODEL2_SC_GENDER, Scenario.MODEL2_SC_BLIND]
)
def test_monte_carlo_sc_cells_equal_single_runs(scenario, monkeypatch):
    monkeypatch.setattr(sweep, "STACK_TRAJECTORIES", 8192)
    spec = _mc_spec(scenario)
    assert sweep.STACK_TRAJECTORIES // spec.ensemble_size == 2
    grid = run_sweep(spec)
    for cell in (0, 1, 2, 5, 8):
        i, j = divmod(cell, spec.resolution)
        params = ModelParams(scenario.model, float(spec.grid[i]), float(spec.grid[j]))
        rows = []
        for run in range(spec.effective_runs):
            seed = derive_seed(spec.master_seed, i, j, run)
            last = self_consistent_run(params, spec.feedback_config(), spec.start, seed)[-1]
            rows.append([last[name] for name in spec.field_names])
        expected = _run_average(rows)
        for k, name in enumerate(spec.field_names):
            assert grid.fields[name][i, j] == expected[k], (cell, name)


@pytest.mark.parametrize("engine", list(Engine), ids=lambda engine: engine.value)
@pytest.mark.parametrize("scenario", [Scenario.MODEL2_SC_GENDER, Scenario.MODEL2_SC_BLIND])
def test_sc_cells_from_another_start_and_vc_equal_single_runs(scenario, engine, monkeypatch):
    # model 2, as model 1 from (-1, 2) is absorbed at the first step in every cell
    monkeypatch.setattr(sweep, "STACK_TRAJECTORIES", 8192)
    monkeypatch.setattr(sweep, "STACK_CELLS", 4)
    spec = _mc_spec(scenario, engine=engine, resolution=4, start=(-1, 2), vc=0.2)
    grid = run_sweep(spec)
    default = run_sweep(_mc_spec(scenario, engine=engine, resolution=4))
    for name in spec.field_names:  # the start and vc reach every stack
        assert not np.array_equal(grid.fields[name], default.fields[name]), name
    for i in range(spec.resolution):
        for j in range(spec.resolution):
            params = ModelParams(scenario.model, float(spec.grid[i]), float(spec.grid[j]))
            rows = []
            for run in range(spec.effective_runs):
                seed = derive_seed(spec.master_seed, i, j, run)
                last = self_consistent_run(params, spec.feedback_config(), (-1, 2), seed)[-1]
                rows.append([last[name] for name in spec.field_names])
            expected = _run_average(rows)
            for k, name in enumerate(spec.field_names):
                assert grid.fields[name][i, j] == expected[k], (i, j, name)


@pytest.mark.parametrize("engine", list(Engine), ids=lambda engine: engine.value)
def test_spec_rows_run_row_major_over_cells_and_runs(engine):
    spec = _mc_spec(Scenario.MODEL2_SC_GENDER, engine=engine, start=(2, -1), vc=0.25)
    rows = spec.rows()
    expected = [
        (spec.grid[i], spec.grid[j], 0.25, encode((2, -1)), derive_seed(spec.master_seed, i, j, r))
        for i in range(spec.resolution) for j in range(spec.resolution)
        for r in range(spec.effective_runs)
    ]
    assert len(rows.p1) == len(expected) == spec.resolution**2 * spec.effective_runs
    for column, values in zip(rows[:4], zip(*expected)):
        assert column.tolist() == list(values)
    if engine is Engine.EXACT:
        assert rows.seed is None  # an exact sweep derives no seed
    else:
        assert rows.seed.tolist() == [row[4] for row in expected]


@pytest.mark.parametrize("engine", list(Engine), ids=lambda engine: engine.value)
def test_stacks_built_from_their_ranges_make_up_the_whole_table(engine, monkeypatch):
    monkeypatch.setattr(sweep, "STACK_CELLS", 4)  # 9 cells: stacks of 4, 4 and 1
    monkeypatch.setattr(sweep, "STACK_TRAJECTORIES", 8192)  # 27 pairs: 13 stacks of 2 and 1
    spec = _mc_spec(Scenario.MODEL2_SC_GENDER, engine=engine, start=(2, -1), vc=0.25)
    stacks = []
    original = sweep._stack_fields

    def record(spec, rows):
        stacks.append(rows)
        return original(spec, rows)

    monkeypatch.setattr(sweep, "_stack_fields", record)
    run_sweep(spec)
    assert len(stacks) == (3 if engine is Engine.EXACT else 14)  # 27 pairs, 2 a stack
    whole = spec.rows()
    for name, column in zip(whole._fields, whole):
        if column is None:
            assert all(getattr(rows, name) is None for rows in stacks)
            continue
        joined = np.concatenate([getattr(rows, name) for rows in stacks])
        assert joined.dtype == column.dtype and joined.tobytes() == column.tobytes(), name


@pytest.mark.parametrize("scenario", list(Scenario))
def test_default_dominant_maps_equal_the_stepped_evolution(scenario, monkeypatch):
    # model1-plain's 500 steps power its kernels; the stepped evolution is the oracle
    spec = SweepSpec(scenario=scenario)
    powered = run_sweep(spec, workers=2)
    monkeypatch.setattr(feedback, "power_evolve", evolve)
    stepped = run_sweep(spec, workers=2)
    assert np.array_equal(powered.dominant_indices(), stepped.dominant_indices())
    for name in spec.field_names:
        assert np.abs(powered.fields[name] - stepped.fields[name]).max() <= 1e-12, name


@pytest.mark.parametrize("scenario", [Scenario.MODEL1_PLAIN, Scenario.MODEL2_PLAIN])
def test_monte_carlo_plain_cells_equal_single_estimates(scenario, monkeypatch):
    monkeypatch.setattr(sweep, "STACK_TRAJECTORIES", 8192)
    spec = _mc_spec(scenario, runs_per_cell=3)
    assert sweep.STACK_TRAJECTORIES // spec.ensemble_size == 2
    grid = run_sweep(spec)
    for i in range(spec.resolution):
        for j in range(spec.resolution):
            p1, p2 = float(spec.grid[i]), float(spec.grid[j])
            params = ModelParams(scenario.model, p1, p2)
            rows = [
                read_fields(scenario.model, estimate_distribution(
                    spec.start, params, spec.effective_plain_steps, spec.ensemble_size,
                    derive_seed(spec.master_seed, i, j, run),
                ), p1, p2)[0]
                for run in range(spec.effective_runs)
            ]
            expected = _run_average(rows)
            for k, name in enumerate(spec.field_names):
                assert grid.fields[name][i, j] == expected[k], (i, j, name)


@pytest.mark.parametrize("scenario", [Scenario.MODEL1_SC_GENDER, Scenario.MODEL2_PLAIN])
def test_monte_carlo_stack_bound_does_not_change_results(scenario, monkeypatch):
    spec = _mc_spec(scenario, resolution=4, runs_per_cell=2, ensemble_size=300, master_seed=-5)
    monkeypatch.setattr(sweep, "STACK_TRAJECTORIES", spec.ensemble_size)
    grid = run_sweep(spec)  # 32 pairs, 9600 trajectories: stacks of one pair
    # stacks of 3 pairs; 27 pairs, then 5; one stack under the default bound
    for bound in (3 * spec.ensemble_size, 8192, DEFAULT_STACK_TRAJECTORIES):
        monkeypatch.setattr(sweep, "STACK_TRAJECTORIES", bound)
        resplit = run_sweep(spec)
        for name in spec.field_names:
            assert np.array_equal(grid.fields[name], resplit.fields[name]), (bound, name)


def _record_measurements(monkeypatch, engine):
    """Log (p1, p2, seeds) of every measurement the feedback loop makes; seeds is None if exact."""
    original, calls = feedback.measure, []

    def spy(model, rows, steps, ensemble_size):
        assert (rows.seed is None) == (engine is Engine.EXACT)
        seeds = None if rows.seed is None else rows.seed.copy()
        calls.append((rows.p1.copy(), rows.p2.copy(), seeds))
        return original(model, rows, steps, ensemble_size)

    monkeypatch.setattr(feedback, "measure", spy)
    return calls


@pytest.mark.parametrize("engine", list(Engine))
def test_sweep_measures_settled_cells_only_at_the_last_turn(engine, monkeypatch):
    spec = SweepSpec(
        Scenario.MODEL1_SC_BLIND, resolution=4, runs_per_cell=2, engine=engine,
        ensemble_size=200, master_seed=9, inner_steps=6, turns=8,
    )
    runs, rows = spec.effective_runs, spec.rows()
    cell, run = np.divmod(np.arange(spec.resolution**2 * runs), runs)
    seeds = derive_seed_array(spec.master_seed, *np.divmod(cell, spec.resolution), run)
    # the same stack with every cell measured at every turn
    full = list(feedback.feedback_turns(spec.scenario.model, rows, spec.feedback_config()))
    calls = _record_measurements(monkeypatch, engine)
    grid = run_sweep(spec)  # one stack
    assert len(calls) == spec.turns + 1
    measured = []
    for turn, ((p1, p2, fields), (q1, q2, q_seeds)) in enumerate(zip(full, calls)):
        moving = ~(np.isin(p1, (0.0, 1.0)) & np.isin(p2, (0.0, 1.0)))
        if turn == spec.turns:
            moving[:] = True
        assert np.array_equal(q1, p1[moving]) and np.array_equal(q2, p2[moving]), turn
        if engine is Engine.MONTE_CARLO:
            assert np.array_equal(q_seeds, derive_seed_array(seeds, turn)[moving]), turn
        measured.append(len(q1))
    # the four grid corners start settled; more cells settle on the way
    assert measured[0] == len(cell) - 4 * runs > measured[-2]
    assert measured[-1] == len(cell)
    per_run = full[-1][2].reshape(spec.resolution, spec.resolution, runs, -1)
    values = sum(per_run[:, :, r] for r in range(runs)) / runs
    for k, name in enumerate(spec.field_names):
        assert np.array_equal(grid.fields[name], values[:, :, k]), name


@pytest.mark.parametrize("engine", list(Engine))
@pytest.mark.parametrize("scenario", [Scenario.MODEL1_SC_BLIND, Scenario.MODEL2_SC_GENDER])
def test_sweep_of_corners_measures_empty_stacks_until_the_last_turn(scenario, engine, monkeypatch):
    # at resolution 2 every cell is a corner, settled from turn 0
    spec = SweepSpec(
        scenario, resolution=2, runs_per_cell=2, engine=engine, ensemble_size=200,
        master_seed=4, inner_steps=6, turns=5,
    )
    runs = spec.effective_runs
    *_, (_, _, fields) = feedback.feedback_turns(
        spec.scenario.model, spec.rows(), spec.feedback_config()
    )
    calls = _record_measurements(monkeypatch, engine)
    grid = run_sweep(spec)
    assert [len(p1) for p1, _, _ in calls] == [0] * spec.turns + [4 * runs]
    per_run = fields.reshape(spec.resolution, spec.resolution, runs, -1)
    values = sum(per_run[:, :, r] for r in range(runs)) / runs
    for k, name in enumerate(spec.field_names):
        assert np.array_equal(grid.fields[name], values[:, :, k]), name


def test_monte_carlo_trace_at_a_corner_measures_every_turn(monkeypatch):
    calls = _record_measurements(monkeypatch, Engine.MONTE_CARLO)
    config = FeedbackConfig(engine=Engine.MONTE_CARLO, ensemble_size=50, turns=5, inner_steps=4)
    trace = self_consistent_run(ModelParams(Model.SUPPORT, 0.0, 1.0), config, master_seed=21)
    assert len(trace) == len(calls) == config.turns + 1
    for turn, (p1, p2, seeds) in enumerate(calls):
        assert p1.tolist() == [0.0] and p2.tolist() == [1.0]
        assert np.ravel(seeds).tolist() == [derive_seed(21, turn)]


def test_model1_plain_grid_matches_absorption_probabilities():
    # Kemeny & Snell (1960): from transient state x the chain is absorbed in
    # state a with probability B[x, a], where B = (I - Q)^-1 R over the
    # transient block Q and the transient-to-absorbing block R.
    spec = SweepSpec(scenario=Scenario.MODEL1_PLAIN)
    grid = run_sweep(spec)
    p1, p2 = np.meshgrid(spec.grid, spec.grid, indexing="ij")
    kernels = couple_kernels(Model.AGGRESSION, p1.ravel(), p2.ravel())
    basins = {"normal": (0, 0), "separation": (2, 2), "male_violence": (2, -1),
              "female_violence": (-1, 2)}
    absorbing = [encode(s) for s in basins.values()]
    transient = [x for x in range(16) if x not in absorbing]
    q = kernels[:, transient][:, :, transient]
    r = kernels[:, transient][:, :, absorbing]
    b = np.linalg.solve(np.eye(len(transient)) - q, r)
    start = b[:, transient.index(encode(spec.start))]
    for k, name in enumerate(basins):
        assert np.abs(start[:, k] - grid.fields[name].ravel()).max() <= 1e-6, name


@pytest.mark.parametrize(
    "scenario", [s for s in Scenario if s.self_consistent], ids=lambda s: s.value
)
def test_exact_self_consistent_cells_equal_the_scalar_loop(scenario):
    # every cell, bit for bit, against one cell run turn by turn in plain
    # Python with the paper's update on Python floats
    spec = SweepSpec(scenario=scenario, resolution=8)
    grid = run_sweep(spec)
    blind = scenario.gender_mode is GenderMode.BLIND
    axis = spec.grid.tolist()
    expected = np.array(
        [[scalar_feedback_fields(scenario.model, a, b, blind) for b in axis] for a in axis]
    )
    values = np.stack([grid.fields[name] for name in spec.field_names], axis=-1)
    assert values.tobytes() == expected.tobytes(), (values != expected).sum()
