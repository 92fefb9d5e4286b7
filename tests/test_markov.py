import numpy as np
import pytest

from couplesim import (
    Model,
    ModelParams,
    build_couple_kernel,
    delta_distribution,
    encode,
    evolve,
    evolve_trace,
    step,
)
from couplesim.kernels import couple_kernels
from couplesim.markov import bernstein_table

ABSORBING = [encode(s) for s in ((0, 0), (2, 2), (2, -1), (-1, 2))]


def test_delta_distribution():
    dist = delta_distribution((1, 0))
    assert dist[encode((1, 0))] == 1.0
    assert dist.sum() == 1.0
    assert (dist >= 0).all()
    assert delta_distribution((0, 0))[encode((0, 0))] == 1.0


def test_calm_chain_is_deterministic():
    kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, 0.0, 0.0))
    dist = delta_distribution((1, 0))
    one = step(dist, kernel)
    assert one[encode((-1, -1))] == 1.0
    two = step(one, kernel)
    assert two[encode((0, 0))] == 1.0
    assert np.array_equal(evolve(dist, kernel, 20), delta_distribution((0, 0)))


def test_step_from_absorbing_state_is_identity():
    kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, 0.37, 0.81))
    for state in ((0, 0), (2, 2), (2, -1), (-1, 2)):
        dist = delta_distribution(state)
        assert np.array_equal(step(dist, kernel), dist)


def test_one_step_weights_at_full_aggression():
    kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, 1.0, 1.0))
    dist = step(delta_distribution((1, 0)), kernel)
    expected = {(1, 1): 1 / 16, (1, 2): 3 / 16, (2, 1): 3 / 16, (2, 2): 9 / 16}
    for state, probability in expected.items():
        assert dist[encode(state)] == pytest.approx(probability, abs=1e-15)
    mask = np.ones(16, dtype=bool)
    mask[[encode(s) for s in expected]] = False
    assert np.all(dist[mask] == 0.0)


def test_evolve_zero_steps_is_identity():
    kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, 0.4, 0.4))
    dist = delta_distribution((1, 0))
    assert np.array_equal(evolve(dist, kernel, 0), dist)
    with pytest.raises(ValueError):
        evolve(dist, kernel, -1)


def test_long_run_reaches_absorbing_set():
    kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, 0.5, 0.5))
    dist = evolve(delta_distribution((1, 0)), kernel, 200)
    assert dist[ABSORBING].sum() >= 1 - 1e-6


def test_normalization_survives_1000_steps():
    rng = np.random.default_rng(21)
    for model in Model:
        p1, p2 = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        kernel = build_couple_kernel(ModelParams(model, p1, p2))
        dist = evolve(delta_distribution((1, 0)), kernel, 1000)
        assert abs(dist.sum() - 1.0) < 1e-9
        assert (dist >= -1e-15).all()


def test_absorbed_mass_is_monotone():
    rng = np.random.default_rng(22)
    for _ in range(5):
        p1, p2 = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, p1, p2))
        dist = delta_distribution((1, 0))
        previous = dist[ABSORBING].sum()
        for _ in range(100):
            dist = step(dist, kernel)
            current = dist[ABSORBING].sum()
            assert current >= previous - 1e-15
            previous = current


def test_step_is_linear():
    rng = np.random.default_rng(23)
    kernel = build_couple_kernel(ModelParams(Model.SUPPORT, 0.31, 0.62))
    for _ in range(5):
        p = rng.random(16)
        p /= p.sum()
        q = rng.random(16)
        q /= q.sum()
        alpha = float(rng.random())
        mixed = step(alpha * p + (1 - alpha) * q, kernel)
        parts = alpha * step(p, kernel) + (1 - alpha) * step(q, kernel)
        assert np.abs(mixed - parts).max() < 1e-12


def test_unreachable_states_stay_empty_from_any_start():
    rng = np.random.default_rng(24)
    goe = [encode((2, 1)), encode((1, 2))]
    for _ in range(5):
        s1, s2 = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        kernel = build_couple_kernel(ModelParams(Model.SUPPORT, s1, s2))
        dist = rng.random(16)
        dist[goe] = 0.0
        dist /= dist.sum()
        for _ in range(50):
            dist = step(dist, kernel)
            assert dist[goe].sum() == 0.0


def test_evolve_trace_shape_and_consistency():
    kernel = build_couple_kernel(ModelParams(Model.SUPPORT, 0.4, 0.7))
    dist = delta_distribution((1, 0))
    trace = evolve_trace(dist, kernel, 7)
    assert trace.shape == (8, 16)
    assert np.array_equal(trace[0], dist)
    assert np.array_equal(trace[-1], evolve(dist, kernel, 7))
    # an (N,16) stack: row t is evolve(stack, kernels, t), bit for bit
    p1, p2 = np.array([0.0, 0.4, 0.93]), np.array([1.0, 0.7, 0.12])
    for model in Model:
        kernels = couple_kernels(model, p1, p2)
        stack = np.tile(delta_distribution((1, 0)), (3, 1))
        trace = evolve_trace(stack, kernels, 7)
        assert trace.shape == (8, 3, 16)
        for t in range(8):
            assert trace[t].tobytes() == evolve(stack, kernels, t).tobytes()


@pytest.mark.parametrize("run", [evolve, evolve_trace, bernstein_table])
def test_negative_steps_raise_at_call_time(run):
    kernel = build_couple_kernel(ModelParams(Model.SUPPORT, 0.4, 0.7))
    with pytest.raises(ValueError, match="steps must be >= 0"):
        run(delta_distribution((1, 0)), kernel, -1)
