import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from couplesim import (
    COUPLE_STATES,
    Model,
    ModelParams,
    build_couple_kernel,
    delta_distribution,
    derive_seed,
    encode,
    estimate_distribution,
    evolve,
    format_trajectory,
    individual_kernel,
    sample_trajectory,
)
from couplesim.kernels import individual_kernels, partner_tables
from couplesim.montecarlo import _threshold, estimate_distributions
from couplesim.rng import derive_seed_array
from couplesim.states import row_table

from sequential_sampler import DrawStream, sample_individual, sample_step, sequential_path

AGG = ModelParams(Model.AGGRESSION, 0.3, 0.3)


def test_sample_individual_threshold_rule():
    kernel = individual_kernel(Model.AGGRESSION, 0.3)
    # cumulative bounds for (self=1, partner=0) are 0.7, 0.7, 0.775
    assert sample_individual(1, 0, kernel, 0.5) == -1
    assert sample_individual(1, 0, kernel, 0.71) == 1
    assert sample_individual(1, 0, kernel, 0.99) == 2
    with pytest.raises(ValueError):
        sample_individual(1, 0, kernel, 1.0)


def test_sample_step_deterministic_at_zero_aggression():
    params = ModelParams(Model.AGGRESSION, 0.0, 0.0)
    for seed in range(5):
        assert sample_step((1, 0), params, DrawStream(seed)) == (-1, -1)


def test_sample_step_keeps_absorbing_state():
    for seed in range(5):
        assert sample_step((0, 0), AGG, DrawStream(seed)) == (0, 0)
        assert sample_step((2, 2), AGG, DrawStream(seed)) == (2, 2)


def test_one_step_frequencies_match_kernel_row():
    kernel = build_couple_kernel(AGG)
    row = kernel[encode((1, 0))]
    n = 100_000
    freq = estimate_distribution((1, 0), AGG, 1, n, master_seed=123)
    for idx in range(16):
        sigma = np.sqrt(row[idx] * (1 - row[idx]) / n)
        assert abs(freq[idx] - row[idx]) <= 3 * sigma + 1e-12


def test_updates_condition_on_previous_partner_state():
    # At full aggressiveness, (1,0) can step to (2,1) only because partner 2
    # reacts to the old s1=1; reacting to s1'=2 would force s2'=2.
    params = ModelParams(Model.AGGRESSION, 1.0, 1.0)
    n = 50_000
    freq = estimate_distribution((1, 0), params, 1, n, master_seed=7)
    p = 3 / 16
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(freq[encode((2, 1))] - p) <= 3 * sigma


def test_trajectory_is_reproducible():
    t1 = sample_trajectory((1, 0), AGG, 50, seed=42)
    t2 = sample_trajectory((1, 0), AGG, 50, seed=42)
    assert t1 == t2
    t3 = sample_trajectory((1, 0), AGG, 50, seed=43)
    assert t3 != t1


def test_trajectory_basics():
    assert sample_trajectory((1, 0), AGG, 0, seed=1) == ((1, 0),)
    states = sample_trajectory((1, 0), AGG, 40, seed=5)
    assert len(states) == 41
    assert states[0] == (1, 0)
    kernel = build_couple_kernel(AGG)
    for x, y in zip(states, states[1:]):
        assert kernel[encode(x), encode(y)] > 0


unit = st.floats(0.0, 1.0)


@given(st.sampled_from(list(Model)), st.lists(unit, min_size=1, max_size=32))
@example(Model.AGGRESSION, [0.0, 0.1, 1 / 3, 0.7, 1.0])
@example(Model.SUPPORT, [0.0, 0.1, 1 / 3, 0.7, 1.0])
def test_residual_branch_never_picks_a_zero_probability_state(model, params):
    # A draw at or above a row's third cumulative threshold selects state 2.
    # Where tau(2 | s, s') is 0 that threshold must be exactly 1.0, or some
    # draw in [0, 1) would enter a state the table forbids.
    kernels = individual_kernels(model, params)
    thresholds = kernels.cumsum(axis=3)[..., 2]
    assert (thresholds[kernels[..., 3] == 0.0] == 1.0).all()


@given(
    model=st.sampled_from(list(Model)),
    p1=unit,
    p2=unit,
    start=st.sampled_from(COUPLE_STATES),
    steps=st.integers(0, 40),
    seed=st.integers(-2**70, 2**70),
)
@example(model=Model.AGGRESSION, p1=0.3, p2=0.3, start=(1, 0), steps=40, seed=-3)
@example(model=Model.SUPPORT, p1=0.35, p2=0.62, start=(1, 0), steps=40, seed=2**64 - 1)
@example(model=Model.SUPPORT, p1=0.5, p2=0.5, start=(0, 2), steps=40, seed=2**70)
def test_trajectory_is_the_sequential_path_through_positive_entries(
    model, p1, p2, start, steps, seed
):
    params = ModelParams(model, p1, p2)
    states = sample_trajectory(start, params, steps, seed)
    assert states == sequential_path(start, params, steps, seed)
    kernel = build_couple_kernel(params)
    for x, y in zip(states, states[1:]):
        assert kernel[encode(x), encode(y)] > 0


def test_trajectory_stays_after_absorption():
    absorbing = {(0, 0), (2, 2), (2, -1), (-1, 2)}
    for seed in range(10):
        states = sample_trajectory((1, 0), AGG, 60, seed=seed)
        hit = None
        for k, state in enumerate(states):
            if state in absorbing:
                hit = k
                break
        assert hit is not None  # 60 steps is plenty at a=0.3
        assert all(state == states[hit] for state in states[hit:])


def test_reference_path_has_positive_probability():
    kernel = build_couple_kernel(AGG)
    path = [(1, 0), (1, -1), (2, 1), (2, -1), (2, -1)]
    for x, y in zip(path, path[1:]):
        assert kernel[encode(x), encode(y)] > 0


def test_estimate_matches_sequential_sampling_exactly():
    params = ModelParams(Model.SUPPORT, 0.35, 0.62)
    n, steps, master = 300, 6, 99
    counts = np.zeros(16)
    for i in range(n):
        states = sequential_path((1, 0), params, steps, derive_seed(master, i))
        counts[encode(states[-1])] += 1
    assert np.array_equal(counts / n, estimate_distribution((1, 0), params, steps, n, master))


def test_estimate_distribution_properties():
    calm = ModelParams(Model.AGGRESSION, 0.0, 0.0)
    freq = estimate_distribution((1, 0), calm, 10, 500, master_seed=1)
    assert freq[encode((0, 0))] == 1.0
    freq = estimate_distribution((1, 0), AGG, 5, 10_000, master_seed=2)
    assert freq.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        estimate_distribution((1, 0), AGG, 5, 0, master_seed=2)


@pytest.mark.parametrize(
    "sample",
    [lambda steps: sample_trajectory((1, 0), AGG, steps, seed=0),
     lambda steps: estimate_distribution((1, 0), AGG, steps, 10, master_seed=0),
     lambda steps: estimate_distributions(Model.SUPPORT, row_table(
         [0.2, 0.7], [0.5, 0.1], [0.1, 0.1], [encode((1, 0))] * 2, [0, 1]), steps, 10)],
    ids=["sample_trajectory", "estimate_distribution", "estimate_distributions"],
)
def test_negative_steps_raise_at_call_time(sample):
    with pytest.raises(ValueError, match="steps must be >= 0"):
        sample(-1)


def test_estimate_agrees_with_exact_evolution():
    params = ModelParams(Model.AGGRESSION, 0.3, 0.3)
    kernel = build_couple_kernel(params)
    exact = evolve(delta_distribution((1, 0)), kernel, 5)
    freq = estimate_distribution((1, 0), params, 5, 100_000, master_seed=31)
    assert 0.5 * np.abs(freq - exact).sum() < 0.01


def test_format_trajectory_lines():
    states = sample_trajectory((1, 0), ModelParams(Model.AGGRESSION, 0.0, 0.0), 2, seed=0)
    assert format_trajectory(states) == [
        "t=0, s1=1 s2=0",
        "t=1, s1=-1 s2=-1",
        "t=2, s1=0 s2=0",
    ]


@given(
    masters=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
    offset=st.integers(-2**62, 2**62),
    run=st.integers(-2**63, 2**63 - 1),
)
@example(masters=[2**63, 2**64 - 1, 0, 2**63 - 1], offset=-3, run=-1)
def test_vectorized_seed_derivation_matches_scalar(masters, offset, run):
    indices = offset + np.arange(len(masters))  # int64, negative ones included
    stacked = derive_seed_array(np.array(masters, dtype=np.uint64), indices, run)
    for master, index, seed in zip(masters, indices.tolist(), stacked.tolist()):
        assert seed == derive_seed(master, index, run)
    per_index = derive_seed_array(masters[0], indices)
    assert per_index.tolist() == [derive_seed(masters[0], index) for index in indices.tolist()]


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("start", [(1, 0), (0, 2)])
def test_stacked_estimate_matches_sequential_sampling(model, start):
    p1 = np.array([0.0, 0.35, 0.62, 1.0, 0.35])
    p2 = np.array([0.5, 0.62, 0.35, 1.0, 0.0])
    masters = np.array([0, 99, 2**63 + 1, 2**64 - 1, 99], dtype=np.uint64)
    n, steps = 150, 6
    rows = row_table(p1, p2, np.full(5, 0.1), np.full(5, encode(start)), masters)
    stacked = estimate_distributions(model, rows, steps, n)
    assert stacked.shape == (5, 16)
    for cell, master in enumerate(masters.tolist()):
        params = ModelParams(model, p1[cell], p2[cell])
        counts = np.zeros(16)
        for i in range(n):
            states = sequential_path(start, params, steps, derive_seed(master, i))
            counts[encode(states[-1])] += 1
        assert np.array_equal(stacked[cell], counts / n), cell
        single = estimate_distribution(start, params, steps, n, master)
        assert np.array_equal(stacked[cell], single), cell


@st.composite
def _cumulative_bounds(draw):
    """A cumulative threshold of either model's partner tables at any p1, p2 in [0, 1]."""
    model = draw(st.sampled_from(list(Model)))
    tables = partner_tables(model, [draw(unit)], [draw(unit)])
    bounds = draw(st.sampled_from(tables)).cumsum(axis=3)[..., :3]
    return draw(st.sampled_from(bounds.ravel().tolist()))


_K = st.integers(0, 2**53 - 1)


def _threshold_rule_holds(k, b):
    return (k * 2.0**-53 >= b) == bool(np.uint64(k) >= _threshold(b))


@given(k=_K, b=_cumulative_bounds())
@example(k=0, b=0.0)
@example(k=0, b=-0.0)
@example(k=2**53 - 1, b=1.0)
@example(k=2**53 - 1, b=1.0 + 2.0**-52)
@example(k=2**52, b=0.5)
@example(k=2**52, b=float(np.nextafter(0.5, 0.0)))
@example(k=2**52, b=float(np.nextafter(0.5, 1.0)))
@example(k=2**52 - 1, b=float(np.nextafter(0.5, 0.0)))
@example(k=0, b=-1.0)
def test_integer_threshold_rule_is_the_double_comparison(k, b):
    # the walk compares k with its uint64 threshold; the sequential sampler
    # compares the double k * 2**-53 with b: both must pick the same state
    assert _threshold_rule_holds(k, b)


@given(k=_K, offset=st.integers(-3, 3), ulps=st.integers(-2, 2))
def test_integer_threshold_rule_at_and_next_to_a_draw(k, offset, ulps):
    # b on the draw grid, or one or two ulps beside a point of it
    at = min(max(k + offset, 0), 2**53 - 1) * 2.0**-53
    b = at
    for _ in range(abs(ulps)):
        b = float(np.nextafter(b, np.inf if ulps > 0 else -np.inf))
    assert _threshold_rule_holds(k, b)
