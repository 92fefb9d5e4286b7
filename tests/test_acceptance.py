"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 5 asserts the support model's documented completeness identity
N + T + R + V + P(2,2) + [P(-1,2) + P(2,-1)] = 1; see the package README.
"""

import time

import numpy as np
import pytest

from couplesim import (
    Model,
    ModelParams,
    Scenario,
    SweepSpec,
    absorbing_states,
    build_couple_kernel,
    delta_distribution,
    encode,
    estimate_distribution,
    evolve,
    individual_kernel,
    model1_basins,
    model2_observables,
    run_sweep,
    step,
)
from couplesim.cli import main
from couplesim.output import write_grid_csvs, write_pgm

from kernel_tables import AGGRESSION_TABLE, SUPPORT_TABLE, expected_nonzero

ABSORBING = {(0, 0), (2, 2), (2, -1), (-1, 2)}
ABSORBING_IDX = [encode(s) for s in ABSORBING]


def report(number, ok, detail):
    print(f"\n[criterion {number:>2}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def default_sweeps():
    """All six default-resolution sweeps, timed for criterion 10."""
    started = time.perf_counter()
    grids = {scenario: run_sweep(SweepSpec(scenario=scenario)) for scenario in Scenario}
    elapsed = time.perf_counter() - started
    return grids, elapsed


def test_criterion_1_kernel_fidelity(tmp_path, capsys):
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for model, table in ((1, AGGRESSION_TABLE), (2, SUPPORT_TABLE)):
        for param in (0.0, 0.25, 0.5, 1.0):
            out = tmp_path / f"audit_{model}_{param}.csv"
            assert main([
                "audit-kernel", "--model", str(model), "--param", str(param),
                "--out", str(out),
            ]) == 0
            capsys.readouterr()
            dumped = {}
            for line in out.read_text().strip().splitlines()[1:]:
                s_self, s_partner, s_next, p = line.split(",")
                dumped[(int(s_self), int(s_partner), int(s_next))] = float(p)
            expected = expected_nonzero(table, param)
            checked += len(expected)
            if dumped.keys() != expected.keys():
                mismatches += len(dumped.keys() ^ expected.keys())
            for key, value in expected.items():
                if key in dumped and abs(dumped[key] - value) > 1e-15:
                    mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 1.0
    report(1, ok, f"8 tables x 4 parameter values, {checked} entries, "
                  f"{mismatches} mismatches ({elapsed:.2f}s)")
    assert mismatches == 0
    assert elapsed < 1.0


def test_criterion_2_stochasticity():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for k in range(10_000):
        model = Model.AGGRESSION if k % 2 == 0 else Model.SUPPORT
        p1, p2 = (float(x) for x in rng.random(2))
        for param in (p1, p2):
            rows = individual_kernel(model, param).sum(axis=2)
            worst = max(worst, float(np.abs(rows - 1.0).max()))
        couple = build_couple_kernel(ModelParams(model, p1, p2))
        worst = max(worst, float(np.abs(couple.sum(axis=1) - 1.0).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 5.0
    report(2, ok, f"10^4 random draws, worst row-sum error {worst:.2e} ({elapsed:.2f}s)")
    assert worst < 1e-12
    assert elapsed < 5.0


def test_criterion_3_monte_carlo_matches_markov():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(20):
        model = Model.AGGRESSION if k % 2 == 0 else Model.SUPPORT
        params = ModelParams(model, float(rng.random()), float(rng.random()))
        steps = int(rng.integers(1, 11))
        empirical = estimate_distribution((1, 0), params, steps, 100_000, master_seed=k)
        exact = evolve(delta_distribution((1, 0)), build_couple_kernel(params), steps)
        worst = max(worst, 0.5 * float(np.abs(empirical - exact).sum()))
    elapsed = time.perf_counter() - started
    ok = worst < 0.015 and elapsed < 30.0
    report(3, ok, f"20 configs x 10^5 trajectories, worst TVD {worst:.4f} ({elapsed:.1f}s)")
    assert worst < 0.015
    assert elapsed < 30.0


def test_criterion_4_absorbing_structure():
    axis = np.linspace(0.0, 1.0, 51)[1:-1]
    worst_unabsorbed = 0.0
    wrong_sets = 0
    for a1 in axis:
        for a2 in axis:
            kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, float(a1), float(a2)))
            if absorbing_states(kernel) != ABSORBING:
                wrong_sets += 1
            dist = evolve(delta_distribution((1, 0)), kernel, 500)
            worst_unabsorbed = max(worst_unabsorbed, 1.0 - float(dist[ABSORBING_IDX].sum()))
    ok = wrong_sets == 0 and worst_unabsorbed <= 1e-6
    report(4, ok, f"49x49 interior cells, {wrong_sets} wrong absorbing sets, "
                  f"worst unabsorbed mass {worst_unabsorbed:.2e}")
    assert wrong_sets == 0
    assert worst_unabsorbed <= 1e-6


def test_criterion_5_support_model_structure():
    # R subtracts and V adds the pass-through mass P(-1,2)+P(2,-1), so the
    # documented identity is N+T+R+V+P(2,2)+[P(-1,2)+P(2,-1)] = 1 for t >= 1.
    axis = np.linspace(0.0, 1.0, 51)
    goe_idx = [encode((2, 1)), encode((1, 2))]
    pass_idx = [encode((-1, 2)), encode((2, -1))]
    worst_goe_mass = 0.0
    worst_residual = 0.0
    max_pass, max_pass_at = 0.0, None
    min_interior_pass = np.inf
    for s1 in axis:
        for s2 in axis:
            kernel = build_couple_kernel(ModelParams(Model.SUPPORT, float(s1), float(s2)))
            dist = delta_distribution((1, 0))
            for _ in range(20):
                dist = step(dist, kernel)
                worst_goe_mass = max(worst_goe_mass, float(dist[goe_idx].sum()))
            w = model2_observables(dist, float(s1), float(s2))
            pass_through = float(dist[pass_idx].sum())
            total = (
                w["normal"] + w["threshold"] + w["recovering"] + w["violence_cycle"]
                + float(dist[encode((2, 2))]) + pass_through
            )
            worst_residual = max(worst_residual, abs(1.0 - total))
            if max_pass_at is None or pass_through > max_pass:
                max_pass, max_pass_at = pass_through, (float(s1), float(s2))
            if 0.0 < s1 < 1.0 and 0.0 < s2 < 1.0:
                min_interior_pass = min(min_interior_pass, pass_through)
    goe_ok = worst_goe_mass <= 1e-15
    identity_ok = worst_residual <= 1e-9
    pass_ok = min_interior_pass > 0.0
    ok = goe_ok and identity_ok and pass_ok

    def verdict(flag):
        return "pass" if flag else "FAIL"

    report(5, ok, f"51x51 grid: unreachable-state mass {worst_goe_mass:.1e} "
                  f"({verdict(goe_ok)}), identity N+T+R+V+P(2,2)+pass-through = 1 "
                  f"residual {worst_residual:.1e} ({verdict(identity_ok)}), "
                  f"interior pass-through mass >= {min_interior_pass:.1e} "
                  f"({verdict(pass_ok)}), max {max_pass:.4f} at (s1, s2) = "
                  f"({max_pass_at[0]:.2f}, {max_pass_at[1]:.2f}) - the gap between "
                  f"the five-term sum and 1")
    assert goe_ok
    assert identity_ok
    assert pass_ok


def test_criterion_6_phase_diagram_corners():
    started = time.perf_counter()
    expected = {
        (0.1, 0.1): "normal",
        (0.9, 0.9): "separation",
        (0.9, 0.1): "male_violence",
        (0.1, 0.9): "female_violence",
    }
    failures = []
    for (a1, a2), wanted in expected.items():
        kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, a1, a2))
        basins = model1_basins(evolve(delta_distribution((1, 0)), kernel, 500))
        dominant = max(basins, key=basins.get)
        if dominant != wanted:
            failures.append(((a1, a2), dominant, wanted))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    report(6, ok, f"4 corner cells dominant as expected ({elapsed:.2f}s)"
                  + (f"; failures: {failures}" if failures else ""))
    assert not failures
    assert elapsed < 1.0


def test_criterion_7_self_consistent_polarization(default_sweeps):
    grids, _ = default_sweeps
    turn0 = run_sweep(SweepSpec(scenario=Scenario.MODEL1_PLAIN, plain_steps=20))
    basin_names = turn0.spec.dominance_fields

    def mean_max_basin(grid):
        stack = np.stack([grid.fields[name] for name in basin_names])
        return float(stack.max(axis=0).mean())

    before = mean_max_basin(turn0)
    after = mean_max_basin(grids[Scenario.MODEL1_SC_BLIND])
    ok = after > before
    report(7, ok, f"grid-mean max basin: turn 0 = {before:.4f}, turn 20 = {after:.4f}")
    assert after > before


def test_criterion_8_gender_effect(default_sweeps):
    grids, _ = default_sweeps

    def cells(scenario, *names):
        counts = grids[scenario].dominance_counts()
        return sum(counts[name] for name in names)

    one_sided = ("male_violence", "female_violence")
    gender_cells = cells(Scenario.MODEL1_SC_GENDER, *one_sided)
    blind_cells = cells(Scenario.MODEL1_SC_BLIND, *one_sided)
    model1_ok = gender_cells > blind_cells
    rel1 = abs(gender_cells - blind_cells) / max(gender_cells, blind_cells, 1)

    violent = ("violence_cycle", "mutual_violence")
    gender2_cells = cells(Scenario.MODEL2_SC_GENDER, *violent)
    blind2_cells = cells(Scenario.MODEL2_SC_BLIND, *violent)
    rel2 = abs(gender2_cells - blind2_cells) / max(gender2_cells, blind2_cells, 1)
    model2_ok = rel2 < rel1

    ok = model1_ok and model2_ok
    report(8, ok, f"one-sided-violence cells {blind_cells} (blind) vs {gender_cells} "
                  f"(gender); relative gaps {rel1:.3f} (aggression) vs {rel2:.3f} (support)")
    assert model1_ok
    assert model2_ok


def test_criterion_9_support_phase_diagram(default_sweeps):
    grids, _ = default_sweeps
    grid = grids[Scenario.MODEL2_PLAIN]
    axis = grid.spec.grid
    dominance = grid.spec.dominance_fields
    dom = grid.dominant_indices()

    def nearest(value):
        return int(np.argmin(np.abs(axis - value)))

    high = nearest(0.9)
    low = nearest(0.1)
    n_ok = dominance[dom[high, high]] == "normal"
    m_ok = dominance[dom[low, low]] == "mutual_violence"

    iv, jv = np.unravel_index(np.argmax(grid.fields["violence_cycle"]), dom.shape)
    v_ok = abs(axis[iv] - axis[jv]) >= 0.25 and min(axis[iv], axis[jv]) <= 0.25

    isep, jsep = np.unravel_index(np.argmax(grid.fields["separation"]), dom.shape)
    s_diag = abs(axis[isep] - axis[jsep]) <= 0.1
    s_moderate = 0.1 <= (axis[isep] + axis[jsep]) / 2 <= 0.6
    d1, d2 = np.meshgrid(axis, axis, indexing="ij")
    near = np.abs(d1 - d2) <= 0.1
    far = np.abs(d1 - d2) >= 0.4
    s_concentrated = grid.fields["separation"][near].mean() > grid.fields["separation"][far].mean()
    s_ok = s_diag and s_moderate and s_concentrated

    ok = n_ok and m_ok and v_ok and s_ok
    report(9, ok, f"normal@(0.9,0.9): {n_ok}; mutual@(0.1,0.1): {m_ok}; "
                  f"V peak at ({axis[iv]:.2f},{axis[jv]:.2f}): {v_ok}; "
                  f"S peak at ({axis[isep]:.2f},{axis[jsep]:.2f}) near diagonal: {s_ok}")
    assert n_ok and m_ok and v_ok and s_ok


def test_criterion_10_determinism_and_runtime(default_sweeps, tmp_path):
    grids, elapsed = default_sweeps
    spec = SweepSpec(scenario=Scenario.MODEL1_SC_GENDER)
    rerun = run_sweep(spec, workers=2)
    reference = grids[Scenario.MODEL1_SC_GENDER]
    arrays_equal = all(
        np.array_equal(reference.fields[name], rerun.fields[name])
        for name in spec.field_names
    )
    bytes_equal = True
    for tag, grid in (("a", reference), ("b", rerun)):
        sub = tmp_path / tag
        sub.mkdir()
        matrix_paths = {name: sub / f"{name}.csv" for name in spec.field_names}
        write_grid_csvs(grid.fields, spec.grid, matrix_paths, sub / "combined.csv")
        for name in spec.field_names:
            write_pgm(sub / f"{name}.pgm", grid.fields[name])
    for path in sorted((tmp_path / "a").iterdir()):
        if (tmp_path / "b" / path.name).read_bytes() != path.read_bytes():
            bytes_equal = False
    ok = arrays_equal and bytes_equal and elapsed < 60.0
    report(10, ok, f"six default sweeps in {elapsed:.1f}s; workers=1 vs workers=2 "
                   f"arrays equal: {arrays_equal}, files byte-identical: {bytes_equal}")
    assert arrays_equal
    assert bytes_equal
    assert elapsed < 60.0
