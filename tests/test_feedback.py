import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from couplesim import (
    COUPLE_STATES,
    Engine,
    FeedbackConfig,
    GenderMode,
    Model,
    ModelParams,
    delta_distribution,
    encode,
    evolve,
    f_update,
    feedback,
    g_update,
    self_consistent_run,
)
from couplesim.feedback import TABLE_STEPS, feedback_turns, measure
from couplesim.kernels import couple_kernels
from couplesim.observables import FIELD_NAMES, read_fields
from couplesim.rng import derive_seed_array
from couplesim.states import row_table
from scalar_feedback import paper_update


def test_f_update_values():
    assert f_update(0.3, 0.1, 0.1) == 0.3  # v == vc leaves a untouched
    assert f_update(0.5, 0.6, 0.1) == pytest.approx(1 - 0.5**1.5, rel=1e-12)
    for v in (0.0, 0.3, 0.9):
        assert f_update(0.0, v, 0.1) == 0.0
        assert f_update(1.0, v, 0.1) == 1.0


def test_g_update_values():
    assert g_update(0.5, 0.1, 0.1) == 0.5
    assert g_update(0.5, 0.6, 0.1) == pytest.approx(0.5**1.5, rel=1e-12)
    for v in (0.0, 0.3, 0.9):
        assert g_update(0.0, v, 0.1) == 0.0
        assert g_update(1.0, v, 0.1) == 1.0


def test_updates_push_in_opposite_directions():
    # above threshold aggressiveness grows while support shrinks
    assert f_update(0.4, 0.5, 0.1) > 0.4
    assert g_update(0.4, 0.5, 0.1) < 0.4
    # below threshold the reverse
    assert f_update(0.4, 0.0, 0.1) < 0.4
    assert g_update(0.4, 0.0, 0.1) > 0.4


def test_updates_stay_in_unit_interval_and_are_monotone():
    rng = np.random.default_rng(51)
    triples = rng.random((10_000, 3))
    for x, v, vc in triples:
        for fn in (f_update, g_update):
            y = fn(float(x), float(v), float(vc))
            assert 0.0 <= y <= 1.0
    # monotonicity in the first argument on a fixed branch
    xs = np.linspace(0, 1, 101)
    for v, vc in [(0.5, 0.1), (0.05, 0.1), (0.3, 0.3)]:
        for fn in (f_update, g_update):
            values = [fn(float(x), v, vc) for x in xs]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


unit = st.floats(0.0, 1.0)
corner_or_unit = st.one_of(st.sampled_from([0.0, 1.0]), unit)


@given(unit, st.lists(st.tuples(unit, unit), min_size=1, max_size=64))
def test_array_updates_match_scalar_form(vc, pairs):
    p = np.array([x for x, _ in pairs])
    v = np.array([y for _, y in pairs])
    for fn in (f_update, g_update):
        stacked = fn(p, v, vc)
        scalar = np.array([fn(x, y, vc) for x, y in pairs])
        assert np.abs(stacked - scalar).max() <= 1e-15
        assert np.array_equal(fn(np.zeros_like(p), v, vc), np.zeros_like(p))
        assert np.array_equal(fn(np.ones_like(p), v, vc), np.ones_like(p))
    at_threshold = np.full_like(p, vc)
    assert np.array_equal(f_update(p, at_threshold, vc), p)
    # g computes 1 - (1 - s) there, which is s up to one rounding
    assert np.abs(g_update(p, at_threshold, vc) - p).max() <= 2.0**-53


@example(0.0, [(0.0, 0.0), (1.0, 1.0), (1.0, None), (0.5, 1.0)])
@example(1.0, [(0.0, 0.0), (1.0, 1.0), (5e-324, None), (1.0 - 2.0**-53, 0.0)])
@given(corner_or_unit, st.lists(st.tuples(corner_or_unit, st.one_of(st.none(), corner_or_unit)),
                                min_size=1, max_size=64))
def test_updates_are_the_paper_formulas_under_python_pow(vc, pairs):
    # expected values on Python floats, whose `**` is libm's pow; v None means v == vc
    p = [x for x, _ in pairs]
    v = [vc if y is None else y for _, y in pairs]
    for model, fn in ((Model.AGGRESSION, f_update), (Model.SUPPORT, g_update)):
        expected = [paper_update(model, x, y, vc).hex() for x, y in zip(p, v)]
        scalar = [fn(x, y, vc) for x, y in zip(p, v)]
        assert all(type(value) is float for value in scalar)
        assert [value.hex() for value in scalar] == expected
        assert [value.hex() for value in fn(np.array(p), np.array(v), vc).tolist()] == expected


@given(unit, unit)
def test_updates_fix_zero_and_one_exactly(v, vc):
    # sweeps stop measuring a cell once both of its parameters sit at 0 or 1;
    # both engines update on arrays, and the float form must agree
    for fn in (f_update, g_update):
        for p in (0.0, 1.0):
            scalar = fn(p, v, vc)
            stacked = fn(np.array([p, p]), np.array([v, v]), vc)
            assert type(scalar) is float and scalar == p and math.copysign(1.0, scalar) == 1.0
            assert stacked.tolist() == [p, p] and not np.signbit(stacked).any()


@given(unit, unit, unit, unit)
def test_updates_are_non_decreasing_in_the_parameter(p, q, v, vc):
    lo, hi = min(p, q), max(p, q)
    for fn in (f_update, g_update):
        assert fn(lo, v, vc) <= fn(hi, v, vc)
        low, high = fn(np.array([lo, hi]), np.array([v, v]), vc)
        assert low <= high


def test_update_rejects_out_of_range():
    with pytest.raises(ValueError):
        f_update(1.2, 0.5, 0.1)
    with pytest.raises(ValueError):
        g_update(0.5, -0.1, 0.1)
    with pytest.raises(ValueError):
        f_update(np.array([0.5, 1.2]), np.array([0.5, 0.5]), 0.1)
    with pytest.raises(ValueError):
        g_update(np.array([0.5, 0.5]), np.array([0.5, np.nan]), 0.1)


def test_loop_fixed_point_at_zero():
    trace = self_consistent_run(
        ModelParams(Model.AGGRESSION, 0.0, 0.0), FeedbackConfig()
    )
    assert all(rec["p1"] == 0.0 and rec["p2"] == 0.0 for rec in trace)
    assert trace[-1]["normal"] == 1.0


def test_loop_fixed_point_at_one():
    trace = self_consistent_run(
        ModelParams(Model.AGGRESSION, 1.0, 1.0), FeedbackConfig()
    )
    assert all(rec["p1"] == 1.0 and rec["p2"] == 1.0 for rec in trace)
    assert trace[-1]["separation"] == pytest.approx(1.0, abs=1e-6)


def test_loop_polarizes_the_symmetric_cell():
    trace = self_consistent_run(
        ModelParams(Model.AGGRESSION, 0.5, 0.5), FeedbackConfig()
    )
    assert len(trace) == 21
    observables = FIELD_NAMES[Model.AGGRESSION][:-2]
    first = max(trace[0][name] for name in observables)
    last = max(trace[-1][name] for name in observables)
    assert last > first


@pytest.mark.parametrize("model", list(Model))
def test_trace_rows_are_keyed_by_the_csv_columns(model):
    trace = self_consistent_run(ModelParams(model, 0.3, 0.6), FeedbackConfig(turns=2))
    for row in trace:
        assert list(row) == ["turn", "p1", "p2", "v1", "v2", *FIELD_NAMES[model][:-2]]
        assert type(row["turn"]) is int
        assert all(type(row[name]) is float for name in list(row)[1:])


def test_exact_loop_is_deterministic():
    params = ModelParams(Model.AGGRESSION, 0.37, 0.62)
    config = FeedbackConfig(gender_mode=GenderMode.SPECIFIC)
    t1 = self_consistent_run(params, config)
    t2 = self_consistent_run(params, config)
    assert t1 == t2


def test_gender_and_blind_modes_can_settle_differently():
    # located by scanning the plane: blind feedback ends in separation,
    # gender-specific feedback in female violence
    params = ModelParams(Model.AGGRESSION, 0.05, 0.35)
    blind = self_consistent_run(params, FeedbackConfig(gender_mode=GenderMode.BLIND))
    gender = self_consistent_run(params, FeedbackConfig(gender_mode=GenderMode.SPECIFIC))
    observables = FIELD_NAMES[Model.AGGRESSION][:-2]
    dominant_blind = max(observables, key=blind[-1].get)
    dominant_gender = max(observables, key=gender[-1].get)
    assert dominant_blind == "separation"
    assert dominant_gender == "female_violence"


def test_support_loop_moves_parameters():
    params = ModelParams(Model.SUPPORT, 0.5, 0.5)
    trace = self_consistent_run(params, FeedbackConfig())
    assert len(trace) == 21
    assert trace[-1]["p1"] != 0.5
    for rec in trace:
        assert 0.0 <= rec["p1"] <= 1.0
        assert 0.0 <= rec["v1"] <= 1.0


def test_turn_zero_reports_initial_parameters():
    params = ModelParams(Model.SUPPORT, 0.31, 0.74)
    trace = self_consistent_run(params, FeedbackConfig(turns=3))
    assert trace[0]["p1"] == 0.31
    assert trace[0]["p2"] == 0.74
    assert [rec["turn"] for rec in trace] == [0, 1, 2, 3]


def test_monte_carlo_engine_is_seed_reproducible():
    params = ModelParams(Model.AGGRESSION, 0.45, 0.55)
    config = FeedbackConfig(engine=Engine.MONTE_CARLO, ensemble_size=300, turns=4)
    t1 = self_consistent_run(params, config, master_seed=5)
    t2 = self_consistent_run(params, config, master_seed=5)
    assert t1 == t2
    t3 = self_consistent_run(params, config, master_seed=6)
    assert t3 != t1


def test_monte_carlo_engine_tracks_exact_engine():
    params = ModelParams(Model.AGGRESSION, 0.5, 0.5)
    exact = self_consistent_run(params, FeedbackConfig(turns=5))
    noisy = self_consistent_run(
        params,
        FeedbackConfig(engine=Engine.MONTE_CARLO, ensemble_size=20_000, turns=5),
        master_seed=9,
    )
    assert math.isclose(noisy[-1]["p1"], exact[-1]["p1"], abs_tol=0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        FeedbackConfig(vc=1.5)
    with pytest.raises(ValueError):
        FeedbackConfig(turns=0)
    with pytest.raises(ValueError):
        FeedbackConfig(inner_steps=0)


def test_config_takes_enum_values_as_members():
    # the cell where blind and gender-specific feedback settle differently
    params = ModelParams(Model.AGGRESSION, 0.05, 0.35)
    by_value = FeedbackConfig(gender_mode="blind")
    assert by_value.gender_mode is GenderMode.BLIND
    assert self_consistent_run(params, by_value) == self_consistent_run(
        params, FeedbackConfig(gender_mode=GenderMode.BLIND)
    )
    assert FeedbackConfig(gender_mode="specific", engine="monte-carlo") == FeedbackConfig(
        gender_mode=GenderMode.SPECIFIC, engine=Engine.MONTE_CARLO
    )
    with pytest.raises(ValueError):
        FeedbackConfig(engine="exactly")
    with pytest.raises(ValueError):
        FeedbackConfig(gender_mode="female")


def _rows(p1, p2, start=(1, 0), seeds=None):
    """A table of cells p1, p2 from one start at vc 0.1; Monte Carlo if seeds are given."""
    n = len(p1)
    return row_table(p1, p2, np.full(n, 0.1), np.full(n, encode(start)), seeds)


@pytest.mark.parametrize("model,update", [(Model.AGGRESSION, f_update), (Model.SUPPORT, g_update)])
def test_monte_carlo_stack_updates_each_cell_on_python_floats(model, update):
    # numpy's array `**` can differ from libm's pow in the last bit; the
    # stacked update uses libm's pow, so each cell gets the float form's bits
    gen = np.random.default_rng(0)
    p1, p2 = gen.random(200), gen.random(200)
    config = FeedbackConfig(
        engine=Engine.MONTE_CARLO, ensemble_size=64, turns=1, inner_steps=4,
        gender_mode=GenderMode.SPECIFIC,
    )
    seeds = derive_seed_array(1, np.arange(200))
    (a1, a2, fields), (b1, b2, _) = feedback_turns(model, _rows(p1, p2, seeds=seeds), config)
    for before, after, v in ((a1, b1, fields[:, -2]), (a2, b2, fields[:, -1])):
        expected = [update(p, x, config.vc) for p, x in zip(before.tolist(), v.tolist())]
        assert after.tolist() == expected


@pytest.mark.parametrize("engine", list(Engine), ids=lambda engine: engine.value)
def test_measure_rejects_negative_steps_at_call_time(engine):
    p1, p2 = np.array([0.2, 0.7]), np.array([0.5, 0.1])
    seeds = None if engine is Engine.EXACT else np.array([3, 4], dtype=np.uint64)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        measure(Model.AGGRESSION, _rows(p1, p2, seeds=seeds), -1, 10)


@settings(deadline=None)
@given(
    model=st.sampled_from(list(Model)),
    engine=st.sampled_from(list(Engine)),
    cells=st.lists(
        st.tuples(corner_or_unit, corner_or_unit, st.integers(0, 2**64 - 1)), max_size=12
    ),
    data=st.data(),
)
def test_measure_does_not_depend_on_stack_order(model, engine, cells, data):
    p1, p2 = (np.array([cell[k] for cell in cells], dtype=float) for k in (0, 1))
    seeds = np.array([cell[2] for cell in cells], dtype=np.uint64)
    order = np.array(data.draw(st.permutations(range(len(cells)))), dtype=int)
    exact = engine is Engine.EXACT
    rows = _rows(p1, p2, seeds=None if exact else seeds)
    fields = measure(model, rows, 6, 16)
    shuffled = measure(model, rows.take(order), 6, 16)
    width = len(FIELD_NAMES[model])
    assert fields.shape == shuffled.shape == (len(cells), width)
    assert shuffled.tobytes() == fields[order].tobytes()


# The Bernstein table against the step-by-step evolution it replaces up to
# TABLE_STEPS: both sum non-negative terms in different orders, and the
# largest field difference over every model, start and step count below is
# 2.2e-15.
TABLE_BOUND = 1e-13
TABLE_P = np.array([0.0, 1.0, 0.0, 1.0, 0.5, 1e-9, 1.0 - 1e-9, 0.3, 0.9, 0.02])
TABLE_Q = np.array([0.0, 0.0, 1.0, 1.0, 0.5, 0.7, 1e-9, 1.0 - 1e-9, 0.1, 0.98])


def _evolved_fields(model, p1, p2, start, steps):
    dist = np.tile(delta_distribution(start), (len(p1), 1))
    return read_fields(model, evolve(dist, couple_kernels(model, p1, p2), steps), p1, p2)


@pytest.mark.parametrize("start", COUPLE_STATES, ids=str)
@pytest.mark.parametrize("model", list(Model), ids=lambda m: str(m.value))
def test_table_measure_equals_the_evolution_at_every_step_count(model, start):
    assert TABLE_STEPS >= FeedbackConfig.inner_steps  # the paper's turns read the table
    for steps in range(TABLE_STEPS + 1):
        table = feedback._table(model, encode(start), steps)
        assert table.shape == (steps + 1, (steps + 1) * 16) and (table >= 0.0).all()
        got = measure(model, _rows(TABLE_P, TABLE_Q, start), steps, 1)
        expected = _evolved_fields(model, TABLE_P, TABLE_Q, start, steps)
        assert np.abs(got - expected).max() <= TABLE_BOUND, steps


@settings(deadline=None, max_examples=60)
@given(
    model=st.sampled_from(list(Model)),
    start=st.sampled_from(COUPLE_STATES),
    steps=st.integers(0, TABLE_STEPS),
    cells=st.lists(st.tuples(corner_or_unit, corner_or_unit), min_size=1, max_size=16),
)
def test_table_measure_equals_the_evolution_at_drawn_parameters(model, start, steps, cells):
    p1, p2 = (np.array([cell[k] for cell in cells]) for k in (0, 1))
    got = measure(model, _rows(p1, p2, start), steps, 1)
    assert np.abs(got - _evolved_fields(model, p1, p2, start, steps)).max() <= TABLE_BOUND


# The kernels powered past TABLE_STEPS (markov.power_evolve) against the
# step-by-step evolution: both sum the same chain in different orders, and
# the largest field difference over every model, start and step count below
# is 5.3e-14 (model 2 at 1000 steps; it grows with the step count).
POWER_BOUND = 1e-12
POWER_STEPS = (TABLE_STEPS + 1, 40, 63, 64, 100, 500, 1000)


@pytest.mark.parametrize("start", COUPLE_STATES, ids=str)
@pytest.mark.parametrize("model", list(Model), ids=lambda m: str(m.value))
def test_powered_measure_equals_the_evolution_past_the_table(model, start):
    gen = np.random.default_rng(encode(start))
    p1, p2 = np.r_[TABLE_P, gen.random(20)], np.r_[TABLE_Q, gen.random(20)]
    for steps in POWER_STEPS:
        got = measure(model, _rows(p1, p2, start), steps, 1)
        expected = _evolved_fields(model, p1, p2, start, steps)
        assert np.abs(got - expected).max() <= POWER_BOUND, steps


@pytest.mark.parametrize("steps",
                         [0, FeedbackConfig.inner_steps, TABLE_STEPS, TABLE_STEPS + 1, 500],
                         ids=["0", "inner", "bound", "above", "500"])
@pytest.mark.parametrize("model", list(Model), ids=lambda m: str(m.value))
def test_each_stack_row_equals_its_cell_alone(model, steps):
    gen = np.random.default_rng(steps)
    p1, p2 = np.r_[TABLE_P, gen.random(40)], np.r_[TABLE_Q, gen.random(40)]
    rows = _rows(p1, p2)
    stack = measure(model, rows, steps, 1)
    for n in range(len(p1)):
        alone = measure(model, rows.take(slice(n, n + 1)), steps, 1)
        assert alone.tobytes() == stack[n].tobytes(), n
    assert measure(model, rows.take(slice(0)), steps, 1).shape == (0, len(FIELD_NAMES[model]))


@pytest.mark.parametrize("steps", [FeedbackConfig.inner_steps, TABLE_STEPS + 1, 500],
                         ids=["table", "stepped", "500"])
@pytest.mark.parametrize("engine", list(Engine), ids=lambda engine: engine.value)
@pytest.mark.parametrize("model", list(Model), ids=lambda m: str(m.value))
def test_each_row_of_a_mixed_table_has_the_bits_of_its_run_alone(model, engine, steps):
    # 18 rows over all 16 starts, three vc values and their own seeds, two
    # of them settled corners, which a sweep skips until the last turn
    gen = np.random.default_rng(steps)
    p1, p2 = np.r_[0.0, 1.0, gen.random(16)], np.r_[1.0, 1.0, gen.random(16)]
    vc, start = gen.choice([0.05, 0.1, 0.3], 18), gen.permutation(np.arange(18) % 16)
    seeds = gen.integers(0, 2**63, 18)
    exact = engine is Engine.EXACT
    rows = row_table(p1, p2, vc, start, None if exact else seeds)
    config = FeedbackConfig(inner_steps=steps, turns=3, gender_mode=GenderMode.SPECIFIC,
                            engine=engine, ensemble_size=40)
    plain = measure(model, rows, steps, config.ensemble_size)
    *_, (q1, q2, looped) = feedback_turns(model, rows, config, _skip_settled=True)
    for n in range(18):
        alone = measure(model, rows.take(slice(n, n + 1)), steps, config.ensemble_size)
        assert alone.tobytes() == plain[n].tobytes(), n
        run = self_consistent_run(ModelParams(model, p1[n], p2[n]), replace(config, vc=vc[n]),
                                  COUPLE_STATES[start[n]], int(seeds[n]))[-1]
        assert [run[name] for name in FIELD_NAMES[model]] == looped[n].tolist(), n
        assert (run["p1"], run["p2"]) == (q1[n], q2[n]), n


@pytest.mark.parametrize("steps,seeds", [(TABLE_STEPS + 8, None), (20, None), (20, [3, 4])],
                         ids=["stepped", "table", "monte-carlo"])
def test_columns_of_unequal_length_are_refused_on_every_path(steps, seeds):
    # a p2 of one entry against two cells once broadcast on the stepping
    # path and failed on the other two with a shape or index error
    message = r"^columns must be 1-D of one length, got \[\(2,\), \(1,\), \(2,\), \(2,\)"
    with pytest.raises(ValueError, match=message):
        measure(Model.SUPPORT, row_table([0.1, 0.2], [0.3], [0.1, 0.1], [4, 4], seeds), steps, 1)


@pytest.mark.parametrize("column", ["p1", "p2", "vc", "start", "seed"])
def test_row_table_refuses_a_short_column_or_a_bad_value_in_any_column(column):
    good = dict(p1=[0.1, 0.2], p2=[0.3, 0.4], vc=[0.1, 0.2], start=[4, 15],
                seed=np.array([0, 2**64 - 1], dtype=np.uint64))
    with pytest.raises(ValueError, match="columns must be 1-D of one length"):
        row_table(**{**good, column: good[column][:1]})
    with pytest.raises(ValueError, match="columns must be 1-D of one length"):
        row_table(**{**good, column: [good[column]]})  # two-dimensional
    bad = {"p1": 1.5, "p2": -0.1, "vc": np.nan, "start": 16, "seed": 1.0}[column]
    with pytest.raises(ValueError):
        row_table(**{**good, column: [good[column][0], bad]})
    rows = row_table(**good)
    assert rows.start.tolist() == [4, 15] and rows.seed.dtype == np.uint64
    second = [column.tolist() for column in rows.take([1])]
    assert second == [[0.2], [0.4], [0.2], [15], [2**64 - 1]]
