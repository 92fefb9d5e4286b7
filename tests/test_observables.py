import numpy as np
import pytest

from couplesim import (
    Model,
    ModelParams,
    build_couple_kernel,
    delta_distribution,
    encode,
    evolve,
    gender_violence,
    model1_basins,
    model2_observables,
    step,
    violent_marginals,
)


def test_basins_of_delta_distributions():
    basins = model1_basins(delta_distribution((0, 0)))
    assert basins["normal"] == 1.0
    assert basins["separation"] == basins["male_violence"] == basins["female_violence"] == 0.0


def test_readers_key_their_fields_by_name_in_column_order():
    dist = np.full(16, 1 / 16)
    assert list(model1_basins(dist)) == ["normal", "separation", "male_violence", "female_violence"]
    assert list(model2_observables(dist, 0.5, 0.5)) == [
        "normal", "threshold", "recovering", "violence_cycle", "mutual_violence", "separation"]
    assert list(gender_violence(dist)) == list(violent_marginals(dist)) == ["v1", "v2"]


def test_basins_calm_chain():
    kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, 0.0, 0.0))
    dist = evolve(delta_distribution((1, 0)), kernel, 20)
    assert model1_basins(dist)["normal"] == 1.0


def test_basins_full_aggression_ends_in_separation():
    kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, 1.0, 1.0))
    dist = evolve(delta_distribution((1, 0)), kernel, 200)
    assert model1_basins(dist)["separation"] == pytest.approx(1.0, abs=1e-9)


def test_basins_sum_to_one_at_500_steps():
    rng = np.random.default_rng(41)
    for _ in range(5):
        p1, p2 = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, p1, p2))
        basins = model1_basins(evolve(delta_distribution((1, 0)), kernel, 500))
        total = sum(basins.values())
        assert total == pytest.approx(1.0, abs=1e-6)


def test_gender_violence_reads_the_right_cells():
    gv = gender_violence(delta_distribution((2, 2)))
    assert (gv["v1"], gv["v2"]) == (1.0, 1.0)
    gv = gender_violence(delta_distribution((2, -1)))
    assert (gv["v1"], gv["v2"]) == (1.0, 0.0)
    uniform = np.full(16, 1 / 16)
    gv = gender_violence(uniform)
    assert gv["v1"] == pytest.approx(2 / 16, abs=1e-15)
    assert gv["v2"] == pytest.approx(2 / 16, abs=1e-15)


def test_gender_violence_is_linear():
    rng = np.random.default_rng(42)
    p = rng.random(16)
    p /= p.sum()
    q = rng.random(16)
    q /= q.sum()
    alpha = 0.3
    mixed = gender_violence(alpha * p + (1 - alpha) * q)
    assert mixed["v1"] == pytest.approx(
        alpha * gender_violence(p)["v1"] + (1 - alpha) * gender_violence(q)["v1"], abs=1e-15
    )
    assert mixed["v2"] == pytest.approx(
        alpha * gender_violence(p)["v2"] + (1 - alpha) * gender_violence(q)["v2"], abs=1e-15
    )


def test_violent_marginals():
    gv = violent_marginals(delta_distribution((2, 0)))
    assert (gv["v1"], gv["v2"]) == (1.0, 0.0)
    uniform = np.full(16, 1 / 16)
    gv = violent_marginals(uniform)
    assert gv["v1"] == pytest.approx(4 / 16, abs=1e-15)


def test_path_weights_of_delta_distributions():
    weights = model2_observables(delta_distribution((0, 0)), 0.4, 0.9)
    assert weights["normal"] == 1.0
    assert weights["threshold"] == weights["recovering"] == weights["violence_cycle"] == 0.0
    assert weights["mutual_violence"] == weights["separation"] == 0.0

    weights = model2_observables(delta_distribution((2, 2)), 1.0, 1.0)
    assert weights["separation"] == 1.0
    assert weights["mutual_violence"] == 0.0

    weights = model2_observables(delta_distribution((2, 2)), 0.5, 0.5)
    # split of P(2,2) as written: the two parts do not rebuild P(2,2)
    assert weights["mutual_violence"] == 0.25
    assert weights["separation"] == 0.25


def test_recovering_subtracts_one_sided_violence():
    dist = delta_distribution((-1, 2))
    weights = model2_observables(dist, 0.5, 0.5)
    assert weights["recovering"] == -1.0
    assert weights["violence_cycle"] == 1.0


def test_path_weights_partition_up_to_pass_through():
    # For t >= 1 the six weights plus P(2,2) cover everything except the
    # mass sitting on (-1,2) and (2,-1): those enter V and leave R, so the
    # signed terms cancel and the sum falls short by exactly that amount.
    rng = np.random.default_rng(43)
    for _ in range(10):
        s1, s2 = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        kernel = build_couple_kernel(ModelParams(Model.SUPPORT, s1, s2))
        dist = delta_distribution((1, 0))
        for t in range(1, 30):
            dist = step(dist, kernel)
            weights = model2_observables(dist, s1, s2)
            total = (
                weights["normal"]
                + weights["threshold"]
                + weights["recovering"]
                + weights["violence_cycle"]
                + dist[encode((2, 2))]
            )
            pass_through = dist[encode((-1, 2))] + dist[encode((2, -1))]
            assert total + pass_through == pytest.approx(1.0, abs=1e-12)
            # the unreachable states stay empty, so nothing else is missing
            assert dist[encode((2, 1))] == 0.0
            assert dist[encode((1, 2))] == 0.0
