import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from couplesim import (
    COUPLE_STATES,
    FeedbackConfig,
    Model,
    ModelParams,
    SweepSpec,
    counter_uniform,
    decode,
    derive_seed,
    encode,
    evolve,
    run_sweep,
    sample_trajectory,
    self_consistent_run,
    tau,
)
from couplesim.montecarlo import estimate_distributions
from couplesim.states import STATES, row_table, validate_param


def test_encode_examples():
    assert encode((-1, -1)) == 0
    assert encode((2, 2)) == 15
    assert encode((1, 0)) == 9


def test_decode_examples():
    assert decode(0) == (-1, -1)
    assert decode(15) == (2, 2)
    assert decode(9) == (1, 0)


def test_round_trip_all_16():
    for index, state in enumerate(COUPLE_STATES):
        assert encode(state) == index
        assert decode(index) == state
    assert len(set(COUPLE_STATES)) == 16


@pytest.mark.parametrize("bad", [(-2, 0), (0, 3), (0.5, 0), (2, -3)])
def test_encode_rejects_invalid_states(bad):
    with pytest.raises(ValueError):
        encode(bad)


@pytest.mark.parametrize("bad", [-1, 16, 100])
def test_decode_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        decode(bad)


def test_model_params_validation():
    ModelParams(Model.AGGRESSION, 0.0, 1.0)  # boundaries are legal
    with pytest.raises(ValueError):
        ModelParams(Model.AGGRESSION, 1.5, 0.5)
    with pytest.raises(ValueError):
        ModelParams(Model.SUPPORT, 0.5, -0.1)
    with pytest.raises(ValueError):
        ModelParams("model1", 0.5, 0.5)


def test_model_params_take_a_model_or_its_value():
    assert ModelParams(1, 0.3, 0.6) == ModelParams(Model.AGGRESSION, 0.3, 0.6)
    assert ModelParams(2, 0.3, 0.6).model is Model.SUPPORT
    with pytest.raises(ValueError):
        ModelParams(3, 0.5, 0.5)


SHAPES = ("scalar", "0-d", "(N,)")


def _edge_examples(test):
    """NaN, +-inf, -0.0 and both bounds, each as a scalar, a 0-d array and an (N,) entry."""
    for edge, shape in itertools.product((math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0), SHAPES):
        test = example([0.5, edge], shape)(test)
    return test


@given(st.lists(st.floats(), min_size=1, max_size=8), st.sampled_from(SHAPES))
@_edge_examples
def test_validate_param_accepts_exactly_the_unit_interval(values, shape):
    # a scalar is the last value, an (N,) array all of them
    checked = values if shape == "(N,)" else values[-1:]
    value = {"scalar": values[-1], "0-d": np.array(values[-1]), "(N,)": np.array(values)}[shape]
    if not all(0.0 <= v <= 1.0 for v in checked):
        with pytest.raises(ValueError, match=r"^p2 must lie in \[0, 1\], got "):
            validate_param(value, "p2")
    elif shape == "(N,)":
        assert validate_param(value, "p2") is value
    else:
        result = validate_param(value, "p2")
        assert type(result) is float and repr(result) == repr(values[-1])


def _estimate(steps=1, ensemble_size=1):
    rows = row_table([0.5], [0.5], [0.1], [encode((1, 0))], [0])
    return estimate_distributions(Model.AGGRESSION, rows, steps, ensemble_size)


# Every count a run description or engine takes, each set to `n`.
COUNTS = {
    "FeedbackConfig-inner_steps": ("inner_steps", lambda n: FeedbackConfig(inner_steps=n)),
    "FeedbackConfig-turns": ("turns", lambda n: FeedbackConfig(turns=n)),
    "FeedbackConfig-ensemble_size": ("ensemble_size", lambda n: FeedbackConfig(ensemble_size=n)),
    "SweepSpec-resolution": ("resolution", lambda n: SweepSpec("model1-plain", resolution=n)),
    "SweepSpec-runs_per_cell": ("runs_per_cell",
                                lambda n: SweepSpec("model1-plain", runs_per_cell=n)),
    "SweepSpec-plain_steps": ("plain_steps", lambda n: SweepSpec("model1-plain", plain_steps=n)),
    "run_sweep-workers": ("workers", lambda n: run_sweep(SweepSpec("model1-plain", 2), workers=n)),
    "evolve-steps": ("steps", lambda n: evolve(np.eye(16)[0], np.eye(16), n)),
    "estimate_distributions-steps": ("steps", lambda n: _estimate(steps=n)),
    "estimate_distributions-ensemble_size": ("ensemble_size",
                                             lambda n: _estimate(ensemble_size=n)),
}


@pytest.mark.parametrize("value", [3.5, 2.0, "3", True])
@pytest.mark.parametrize("name,make", list(COUNTS.values()), ids=list(COUNTS))
def test_counts_reject_non_integers_naming_the_field(name, make, value):
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(value)


NUMPY_INTEGERS = sorted({np.dtype(code).type for code in np.typecodes["AllInteger"]},
                        key=lambda t: t.__name__)


@pytest.mark.parametrize("dtype", NUMPY_INTEGERS, ids=lambda t: t.__name__)
def test_decode_computes_on_python_ints(dtype):
    for i in range(16):
        state = decode(dtype(i))
        assert state == decode(i)
        assert all(type(s) is int for s in state)


def test_run_descriptions_store_counts_as_python_ints():
    config = FeedbackConfig(inner_steps=np.uint8(3), turns=np.int8(127), ensemble_size=np.int16(9))
    assert config == FeedbackConfig(inner_steps=3, turns=127, ensemble_size=9)
    spec = SweepSpec("model1-sc-blind", resolution=np.int8(20), runs_per_cell=np.uint8(2),
                     ensemble_size=np.int16(200), inner_steps=np.uint8(3), turns=np.int8(2),
                     plain_steps=np.uint16(7))
    assert spec == SweepSpec("model1-sc-blind", resolution=20, runs_per_cell=2, ensemble_size=200,
                             inner_steps=3, turns=2, plain_steps=7)
    feedback_counts = ("inner_steps", "turns", "ensemble_size")
    for obj, names in ((config, feedback_counts),
                       (spec, ("resolution", "runs_per_cell", "plain_steps", *feedback_counts))):
        for name in names:
            assert type(getattr(obj, name)) is int, name


@pytest.mark.parametrize("dtype", NUMPY_INTEGERS, ids=lambda t: t.__name__)
def test_encode_computes_on_python_ints(dtype):
    held = [s for s in STATES if s >= np.iinfo(dtype).min]
    for s1, s2 in itertools.product(held, repeat=2):
        index = encode((dtype(s1), dtype(s2)))
        assert type(index) is int
        assert index == encode((s1, s2))


def test_numpy_starts_run_as_python_ints():
    # in uint8, the walk's flat &= -16 overflows
    params = ModelParams(1, 0.3, 0.3)
    assert sample_trajectory((np.uint8(1), np.uint8(0)), params, 4, 7) == sample_trajectory(
        (1, 0), params, 4, 7)
    for start in ([1, 0], (np.uint8(1), np.int64(0))):
        spec = SweepSpec("model1-plain", start=start)
        assert spec == SweepSpec("model1-plain")
        assert hash(spec) == hash(SweepSpec("model1-plain"))
        assert type(spec.start) is tuple and all(type(s) is int for s in spec.start)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: str(m.value))
def test_run_descriptions_store_params_as_python_floats(model):
    # a float32 p1 kept as given rounds every turn's p1 to float32
    config = FeedbackConfig(turns=3)
    narrow = self_consistent_run(ModelParams(model, np.float32(0.3), 0.6), config)
    wide = self_consistent_run(ModelParams(model, float(np.float32(0.3)), 0.6), config)
    assert narrow == wide
    assert type(ModelParams(model, np.float32(0.3), 0).p1) is float
    assert type(ModelParams(model, 0, np.float16(0.5)).p2) is float
    assert type(FeedbackConfig(vc=np.float32(0.1)).vc) is float
    assert type(SweepSpec(f"model{model.value}-sc-blind", vc=np.float32(0.1)).vc) is float


# A parameter of a run description given as an array of any shape but 0-d.
NON_SCALARS = {
    "ModelParams-p1": ("p1", lambda v: ModelParams(1, v, 0.3)),
    "ModelParams-p2": ("p2", lambda v: ModelParams(2, 0.3, v)),
    "FeedbackConfig-vc": ("vc", lambda v: FeedbackConfig(vc=v)),
    "SweepSpec-vc": ("vc", lambda v: SweepSpec("model1-sc-blind", vc=v)),
}


@pytest.mark.parametrize("value", [np.array([0.3]), [0.3], np.full((1, 1), 0.3), np.array([])],
                         ids=["(1,)", "list", "(1,1)", "(0,)"])
@pytest.mark.parametrize("case", list(NON_SCALARS))
def test_run_descriptions_refuse_non_scalar_params(case, value):
    # a stored (1,) array made the description unhashable and failed deep in a run
    name, build = NON_SCALARS[case]
    with pytest.raises(ValueError, match=rf"^{name} must be a scalar, got "):
        build(value)
    assert build(np.array(0.3)) == build(0.3)


def test_narrow_numpy_counts_do_not_overflow():
    # in the count's own dtype, turns + 1 wraps to -128 and 32768 // ensemble_size overflows
    trace = self_consistent_run(ModelParams(1, 0.3, 0.3), FeedbackConfig(turns=np.int8(127)))
    assert len(trace) == 128
    for dtype in (np.int8, np.uint8):
        grid = run_sweep(SweepSpec("model1-plain", resolution=dtype(20)))
        assert grid.fields["normal"].shape == (20, 20)
    mc = dict(resolution=2, engine="monte-carlo", runs_per_cell=1, inner_steps=2, turns=1)
    narrow = run_sweep(SweepSpec("model2-sc-gender", ensemble_size=np.int16(200), **mc))
    wide = run_sweep(SweepSpec("model2-sc-gender", ensemble_size=200, **mc))
    for name, values in wide.fields.items():
        assert np.array_equal(narrow.fields[name], values), name


AGG = ModelParams(Model.AGGRESSION, 0.5, 0.5)
MONTE_CARLO = FeedbackConfig(inner_steps=1, turns=1, engine="monte-carlo", ensemble_size=2)
EXACT = FeedbackConfig(inner_steps=1, turns=1)

# Every integer input that is no count, each set to `v`: individual states
# and seeds (taken mod 2**64).
STATE_INPUTS = {
    "encode": ("s1", lambda v: encode((v, 0))),
    "SweepSpec-start": ("s2", lambda v: SweepSpec("model1-plain", start=(0, v))),
    "sample_trajectory-start": ("s1", lambda v: sample_trajectory((v, 0), AGG, 2, seed=0)),
    "tau-s_next": ("s_next", lambda v: tau(Model.AGGRESSION, v, 0, 0, 0.5)),
    "tau-s_partner": ("s_partner", lambda v: tau(Model.AGGRESSION, 0, 0, v, 0.5)),
}
SEED_INPUTS = {
    "derive_seed": ("seed", lambda v: derive_seed(v)),
    "SweepSpec-master_seed": ("master_seed", lambda v: SweepSpec("model1-plain", master_seed=v)),
    "sample_trajectory-seed": ("seed", lambda v: sample_trajectory((1, 0), AGG, 2, seed=v)),
    "self_consistent_run": ("seed", lambda v: self_consistent_run(AGG, MONTE_CARLO, master_seed=v)),
    "self_consistent_run-exact": ("seed", lambda v: self_consistent_run(AGG, EXACT, master_seed=v)),
    "counter_uniform": ("seed", lambda v: counter_uniform(v, 0)),
}
INTEGER_CASES = [
    *(pytest.param(name, make, value, id=f"{key}-{value!r}")
      for inputs, values in ((STATE_INPUTS, (1.0, True, "1")), (SEED_INPUTS, (1.7, True, "1")))
      for key, (name, make) in inputs.items() for value in values),
    pytest.param("couple state index", decode, 3.0, id="decode-3.0"),
]


@pytest.mark.parametrize("name,make,value", INTEGER_CASES)
def test_integer_inputs_reject_floats_bools_and_strings_naming_the_value(name, make, value):
    # run as its integer, each would name another value's state or stream
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(value)
