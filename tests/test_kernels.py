import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from couplesim import (
    STATES,
    Model,
    ModelParams,
    absorbing_states,
    build_couple_kernel,
    encode,
    garden_of_eden_states,
    individual_kernel,
    tau,
)
from couplesim.kernels import couple_kernels, kernel_entries, partner_tables

from kernel_tables import AGGRESSION_TABLE, SUPPORT_TABLE, expected_nonzero


# tau1 and tau3 are the paper's names for the aggression and support tables.
def test_tau1_tabulated_values():
    assert tau(Model.AGGRESSION, 2, 1, 0, 0.3) == pytest.approx(0.225, abs=1e-15)
    assert tau(Model.AGGRESSION, -1, 1, 0, 0.0) == 1.0
    assert tau(Model.AGGRESSION, 0, 0, 0, 0.7) == 1.0
    assert tau(Model.AGGRESSION, 1, 0, 1, 0.4) == pytest.approx(0.1, abs=1e-15)


def test_tau3_tabulated_values():
    assert tau(Model.SUPPORT, -1, 1, -1, 0.9) == 0.5
    assert tau(Model.SUPPORT, 2, 1, 1, 0.2) == pytest.approx(0.8, abs=1e-15)
    assert tau(Model.SUPPORT, 0, 2, 2, 0.6) == pytest.approx(0.6, abs=1e-15)


def test_tau_rejects_bad_param():
    with pytest.raises(ValueError):
        tau(Model.AGGRESSION, 0, 0, 0, 1.5)
    with pytest.raises(ValueError):
        tau(Model.SUPPORT, 0, 0, 0, -0.2)
    with pytest.raises(ValueError):
        tau(Model.AGGRESSION, 3, 0, 0, 0.5)


@pytest.mark.parametrize(
    "table,model",
    [(AGGRESSION_TABLE, Model.AGGRESSION), (SUPPORT_TABLE, Model.SUPPORT)],
    ids=["table0-tau1", "table1-tau3"],
)
@pytest.mark.parametrize("param", [0.0, 0.25, 0.5, 0.81, 1.0])
def test_tables_match_transcription(table, model, param):
    for (s_next, s_self, s_partner), expression in table.items():
        expected = eval(expression, {"__builtins__": {}}, {"a": param, "s": param})
        assert tau(model, s_next, s_self, s_partner, param) == pytest.approx(expected, abs=1e-15)


def test_individual_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for model in Model:
        for param in rng.random(200):
            kernel = individual_kernel(model, float(param))
            assert np.abs(kernel.sum(axis=2) - 1.0).max() < 1e-12


def test_couple_rows_sum_to_one():
    rng = np.random.default_rng(12)
    for model in Model:
        for _ in range(100):
            p1, p2 = rng.random(2)
            kernel = build_couple_kernel(ModelParams(model, float(p1), float(p2)))
            assert np.abs(kernel.sum(axis=1) - 1.0).max() < 1e-12


unit = st.floats(0.0, 1.0)


@given(st.lists(st.tuples(unit, unit), min_size=1, max_size=32))
def test_couple_kernels_are_row_stochastic_for_any_parameters(pairs):
    p1, p2 = np.array(pairs).T
    for model in Model:
        kernels = couple_kernels(model, p1, p2)
        assert kernels.shape == (len(pairs), 16, 16)
        assert (kernels >= 0.0).all()
        assert np.abs(kernels.sum(axis=2) - 1.0).max() <= 1e-15


@given(st.sampled_from(list(Model)), unit, unit)
def test_partner_tables_read_each_partner_at_own_then_partner_state(model, p1, p2):
    k1, k2 = partner_tables(model, [p1], [p2])
    assert k1.shape == k2.shape == (1, 4, 4, 4)
    for x1 in STATES:
        for x2 in STATES:
            for y in STATES:
                assert k1[0, x1 + 1, x2 + 1, y + 1] == tau(model, y, x1, x2, p1)
                assert k2[0, x1 + 1, x2 + 1, y + 1] == tau(model, y, x2, x1, p2)


def test_couple_kernels_are_read_only():
    with pytest.raises(ValueError):
        build_couple_kernel(ModelParams(Model.AGGRESSION, 0.3, 0.7))[0, 0] = 0.5
    with pytest.raises(ValueError):
        couple_kernels(Model.SUPPORT, [0.1, 0.2], [0.3, 0.4])[1] = 0.0


def test_couple_kernel_is_exact_product():
    rng = np.random.default_rng(13)
    for model in Model:
        p1, p2 = (float(x) for x in rng.random(2))
        kernel = build_couple_kernel(ModelParams(model, p1, p2))
        k1 = individual_kernel(model, p1)
        k2 = individual_kernel(model, p2)
        for s1 in (-1, 0, 1, 2):
            for s2 in (-1, 0, 1, 2):
                for t1 in (-1, 0, 1, 2):
                    for t2 in (-1, 0, 1, 2):
                        product = k1[s1 + 1, s2 + 1, t1 + 1] * k2[s2 + 1, s1 + 1, t2 + 1]
                        assert kernel[encode((s1, s2)), encode((t1, t2))] == product


def test_couple_kernel_row_examples():
    calm = build_couple_kernel(ModelParams(Model.AGGRESSION, 0.0, 0.0))
    row = calm[encode((1, 0))]
    assert row[encode((-1, -1))] == 1.0
    assert row.sum() == 1.0

    fierce = build_couple_kernel(ModelParams(Model.AGGRESSION, 1.0, 1.0))
    row = fierce[encode((1, 0))]
    expected = {(1, 1): 1 / 16, (1, 2): 3 / 16, (2, 1): 3 / 16, (2, 2): 9 / 16}
    for state, probability in expected.items():
        assert row[encode(state)] == pytest.approx(probability, abs=1e-15)
    assert row.sum() == pytest.approx(1.0, abs=1e-15)


def test_aggression_absorbing_set_is_constant_inside():
    expected = {(0, 0), (2, 2), (2, -1), (-1, 2)}
    for a1 in np.linspace(0.02, 0.98, 7):
        for a2 in np.linspace(0.02, 0.98, 7):
            kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, float(a1), float(a2)))
            assert absorbing_states(kernel) == expected


def test_support_absorbing_states():
    # The two unreachable states hold themselves with probability 1, so the
    # literal self-loop reading reports them at any support level.
    kernel = build_couple_kernel(ModelParams(Model.SUPPORT, 0.5, 0.5))
    assert absorbing_states(kernel) == {(2, 1), (1, 2)}
    boundary = build_couple_kernel(ModelParams(Model.SUPPORT, 1.0, 1.0))
    assert absorbing_states(boundary) == {(0, 0), (2, 1), (1, 2)}


def _goe_oracle(matrix: np.ndarray) -> set:
    # brute-force: scan every column for off-diagonal nonzeros
    found = set()
    for j in range(16):
        if all(matrix[i, j] == 0.0 for i in range(16) if i != j):
            found.add((j // 4 - 1, j % 4 - 1))
    return found


def test_garden_of_eden_matches_oracle():
    rng = np.random.default_rng(14)
    for model in Model:
        for _ in range(20):
            p1, p2 = (float(x) for x in rng.uniform(0.01, 0.99, 2))
            kernel = build_couple_kernel(ModelParams(model, p1, p2))
            assert garden_of_eden_states(kernel) == _goe_oracle(kernel)


def test_support_garden_of_eden_membership():
    kernel = build_couple_kernel(ModelParams(Model.SUPPORT, 0.5, 0.5))
    goe = garden_of_eden_states(kernel, exclude_self_loops=False)
    assert {(2, 1), (1, 2)} <= goe
    # both states are pure self-loops, so dropping self-loop states empties the set
    assert garden_of_eden_states(kernel, exclude_self_loops=True) == set()


def test_aggression_garden_of_eden_set():
    kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, 0.5, 0.5))
    expected = {(1, 0), (0, 1), (-1, 0), (0, -1), (0, 2), (2, 0)}
    assert garden_of_eden_states(kernel) == expected
    # none of them carries a self-loop, so the flag changes nothing here
    assert garden_of_eden_states(kernel, exclude_self_loops=True) == expected


def test_garden_of_eden_disjoint_from_reachable():
    rng = np.random.default_rng(15)
    for model in Model:
        p1, p2 = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        kernel = build_couple_kernel(ModelParams(model, p1, p2))
        goe = garden_of_eden_states(kernel)
        reachable = set()
        for x in range(16):
            if (x // 4 - 1, x % 4 - 1) in goe:
                continue
            for y in range(16):
                if x != y and kernel[x, y] > 0:
                    reachable.add((y // 4 - 1, y % 4 - 1))
        assert goe.isdisjoint(reachable)


@pytest.mark.parametrize("param", [0.0, 0.25, 0.5, 1.0])
def test_individual_dump_matches_transcription(param):
    for model, table in ((Model.AGGRESSION, AGGRESSION_TABLE), (Model.SUPPORT, SUPPORT_TABLE)):
        dumped = {
            (s, sp, nxt): p for s, sp, nxt, p in kernel_entries(individual_kernel(model, param))
        }
        expected = expected_nonzero(table, param)
        assert dumped.keys() == expected.keys()
        for key, value in expected.items():
            assert dumped[key] == pytest.approx(value, abs=1e-15)


def test_couple_dump_consistent_with_matrix():
    kernel = build_couple_kernel(ModelParams(Model.AGGRESSION, 0.3, 0.7))
    total = np.zeros(16)
    for s1, s2, t1, t2, p in kernel_entries(kernel.reshape(4, 4, 4, 4)):
        assert p == kernel[encode((s1, s2)), encode((t1, t2))]
        total[encode((s1, s2))] += p
    assert np.abs(total - 1.0).max() < 1e-12
