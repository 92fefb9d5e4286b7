import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from couplesim import (
    Engine,
    FeedbackConfig,
    GenderMode,
    Model,
    ModelParams,
    f_update,
    g_update,
    self_consistent_run,
)
from couplesim.feedback import feedback_turns, measure
from couplesim.observables import FIELD_NAMES
from couplesim.rng import derive_seed_array
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
    assert all(rec.p1 == 0.0 and rec.p2 == 0.0 for rec in trace)
    assert trace[-1].observables.normal == 1.0


def test_loop_fixed_point_at_one():
    trace = self_consistent_run(
        ModelParams(Model.AGGRESSION, 1.0, 1.0), FeedbackConfig()
    )
    assert all(rec.p1 == 1.0 and rec.p2 == 1.0 for rec in trace)
    assert trace[-1].observables.separation == pytest.approx(1.0, abs=1e-6)


def test_loop_polarizes_the_symmetric_cell():
    trace = self_consistent_run(
        ModelParams(Model.AGGRESSION, 0.5, 0.5), FeedbackConfig()
    )
    assert len(trace) == 21
    first = max(trace[0].observables.as_dict().values())
    last = max(trace[-1].observables.as_dict().values())
    assert last > first


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
    dominant_blind = max(blind[-1].observables.as_dict().items(), key=lambda kv: kv[1])[0]
    dominant_gender = max(gender[-1].observables.as_dict().items(), key=lambda kv: kv[1])[0]
    assert dominant_blind == "separation"
    assert dominant_gender == "female_violence"


def test_support_loop_moves_parameters():
    params = ModelParams(Model.SUPPORT, 0.5, 0.5)
    trace = self_consistent_run(params, FeedbackConfig())
    assert len(trace) == 21
    assert trace[-1].p1 != 0.5
    for rec in trace:
        assert 0.0 <= rec.p1 <= 1.0
        assert 0.0 <= rec.v1 <= 1.0


def test_turn_zero_reports_initial_parameters():
    params = ModelParams(Model.SUPPORT, 0.31, 0.74)
    trace = self_consistent_run(params, FeedbackConfig(turns=3))
    assert trace[0].p1 == 0.31
    assert trace[0].p2 == 0.74
    assert [rec.turn for rec in trace] == [0, 1, 2, 3]


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
    assert math.isclose(noisy[-1].p1, exact[-1].p1, abs_tol=0.1)


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
    (a1, a2, fields), (b1, b2, _) = feedback_turns(model, p1, p2, config, master_seed=seeds)
    for before, after, v in ((a1, b1, fields[:, -2]), (a2, b2, fields[:, -1])):
        expected = [update(p, x, config.vc) for p, x in zip(before.tolist(), v.tolist())]
        assert after.tolist() == expected


@pytest.mark.parametrize("engine", list(Engine), ids=lambda engine: engine.value)
def test_measure_rejects_negative_steps_at_call_time(engine):
    p1, p2 = np.array([0.2, 0.7]), np.array([0.5, 0.1])
    seeds = None if engine is Engine.EXACT else np.array([3, 4], dtype=np.uint64)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        measure(Model.AGGRESSION, p1, p2, (1, 0), -1, 10, seeds)


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
    fields = measure(model, p1, p2, (1, 0), 6, 16, None if exact else seeds)
    shuffled = measure(model, p1[order], p2[order], (1, 0), 6, 16, None if exact else seeds[order])
    width = len(FIELD_NAMES[model])
    assert fields.shape == shuffled.shape == (len(cells), width)
    assert shuffled.tobytes() == fields[order].tobytes()
