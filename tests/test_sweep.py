import numpy as np
import pytest

from couplesim import (
    Engine,
    FeedbackConfig,
    Model,
    ModelParams,
    Scenario,
    SweepSpec,
    build_couple_kernel,
    compare_grids,
    delta_distribution,
    derive_seed,
    encode,
    estimate_distribution,
    evolve,
    gender_violence,
    model1_basins,
    model2_observables,
    run_sweep,
    self_consistent_run,
    violent_marginals,
)
from couplesim import feedback, sweep
from couplesim.kernels import couple_kernels
from couplesim.observables import read_fields
from couplesim.rng import derive_seed_array


def small(scenario, **kw):
    defaults = dict(resolution=6, master_seed=3)
    defaults.update(kw)
    return SweepSpec(scenario=scenario, **defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(scenario=Scenario.MODEL1_PLAIN, resolution=1)
    with pytest.raises(ValueError):
        SweepSpec(scenario=Scenario.MODEL1_PLAIN, resolution=301)
    with pytest.raises(ValueError):
        SweepSpec(scenario=Scenario.MODEL1_PLAIN, runs_per_cell=0)
    with pytest.raises(ValueError):
        SweepSpec(scenario=Scenario.MODEL1_PLAIN, vc=2.0)


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


def test_sweep_is_deterministic_across_worker_counts():
    spec = small(Scenario.MODEL1_SC_GENDER, resolution=7)
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=3)
    for name in spec.field_names:
        assert np.array_equal(serial.fields[name], parallel.fields[name])


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


def test_compare_grids():
    spec = small(Scenario.MODEL1_PLAIN)
    grid = run_sweep(spec)
    same = compare_grids(grid, grid, "normal")
    assert same.l1_difference == 0.0
    assert same.cells_dominant_in_1 == same.cells_dominant_in_2
    other = run_sweep(small(Scenario.MODEL1_SC_BLIND))
    diff = compare_grids(grid, other, "separation")
    assert diff.l1_difference > 0
    with pytest.raises(ValueError):
        compare_grids(grid, run_sweep(small(Scenario.MODEL1_PLAIN, resolution=5)), "normal")
    with pytest.raises(ValueError):
        compare_grids(grid, run_sweep(small(Scenario.MODEL2_PLAIN)), "normal")
    with pytest.raises(ValueError):
        compare_grids(grid, grid, "no_such_field")


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
        return {**last.observables.as_dict(), "v1": last.v1, "v2": last.v2}
    kernel = build_couple_kernel(params)
    dist = evolve(delta_distribution(spec.start), kernel, spec.effective_plain_steps)
    if params.model is Model.AGGRESSION:
        obs, gv = model1_basins(dist).as_dict(), gender_violence(dist)
    else:
        obs, gv = model2_observables(dist, params.p1, params.p2).as_dict(), violent_marginals(dist)
    return {**obs, "v1": gv.v1, "v2": gv.v2}


@pytest.mark.parametrize("scenario", list(Scenario))
def test_stack_split_does_not_change_results(scenario, monkeypatch):
    # 17 x 17 = 289 cells: one full stack of 256 and one of 33
    spec = SweepSpec(scenario=scenario, resolution=17)
    assert spec.resolution**2 > sweep.STACK_CELLS == 256
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
    # 3000 trajectories a pair: stacks of 2 (cell, run) pairs. With 3 runs a
    # cell, stack boundaries split the runs of every cell and also fall
    # between cells 1 and 2, 3 and 4, ...
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
def test_monte_carlo_sc_cells_equal_single_runs(scenario):
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
            rows.append([*last.observables.as_dict().values(), last.v1, last.v2])
        expected = _run_average(rows)
        for k, name in enumerate(spec.field_names):
            assert grid.fields[name][i, j] == expected[k], (cell, name)


@pytest.mark.parametrize("scenario", [Scenario.MODEL1_PLAIN, Scenario.MODEL2_PLAIN])
def test_monte_carlo_plain_cells_equal_single_estimates(scenario):
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
    spec = _mc_spec(scenario, resolution=4, runs_per_cell=2, ensemble_size=200, master_seed=-5)
    grid = run_sweep(spec)  # 32 pairs, one stack
    for pairs in (1, 3):
        monkeypatch.setattr(sweep, "STACK_TRAJECTORIES", pairs * spec.ensemble_size)
        resplit = run_sweep(spec)
        for name in spec.field_names:
            assert np.array_equal(grid.fields[name], resplit.fields[name]), (pairs, name)


def _record_measurements(monkeypatch, engine):
    """Log (p1, p2, seeds) of every measurement the feedback loop makes; seeds is None if exact."""
    original, calls = feedback.measure, []

    def spy(model, p1, p2, start, steps, ensemble_size, seeds):
        assert (seeds is None) == (engine is Engine.EXACT)
        calls.append((p1.copy(), p2.copy(), None if seeds is None else seeds.copy()))
        return original(model, p1, p2, start, steps, ensemble_size, seeds)

    monkeypatch.setattr(feedback, "measure", spy)
    return calls


@pytest.mark.parametrize("engine", list(Engine))
def test_sweep_measures_settled_cells_only_at_the_last_turn(engine, monkeypatch):
    spec = SweepSpec(
        Scenario.MODEL1_SC_BLIND, resolution=4, runs_per_cell=2, engine=engine,
        ensemble_size=200, master_seed=9, inner_steps=6, turns=8,
    )
    runs = spec.effective_runs
    cell, run = np.divmod(np.arange(spec.resolution**2 * runs), runs)
    i, j = np.divmod(cell, spec.resolution)
    seeds = derive_seed_array(spec.master_seed, i, j, run)
    # the same stack with every cell measured at every turn
    full = list(feedback.feedback_turns(
        spec.scenario.model, spec.grid[i], spec.grid[j], spec.feedback_config(), spec.start, seeds
    ))
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
    cell, run = np.divmod(np.arange(spec.resolution**2 * runs), runs)
    i, j = np.divmod(cell, spec.resolution)
    seeds = derive_seed_array(spec.master_seed, i, j, run)
    *_, (_, _, fields) = feedback.feedback_turns(
        spec.scenario.model, spec.grid[i], spec.grid[j], spec.feedback_config(), spec.start, seeds
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
