import pytest

from couplesim import COUPLE_STATES, Model, ModelParams, decode, encode


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
