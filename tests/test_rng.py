"""The counter-based RNG against the pure-Python SplitMix64 in splitmix64.py."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from couplesim import FeedbackConfig, Model, ModelParams, sample_trajectory, self_consistent_run
from couplesim.rng import counter_bits, counter_uniform, derive_seed, derive_seed_array

from splitmix64 import draw_bits, draw_uniform, stream_seed

U64 = st.integers(0, 2**64 - 1)
ANY_INT = st.integers(-2**70, 2**70)
INT64 = st.integers(-2**63, 2**63 - 1)
EDGES = [0, 1, 2**63 + 17, 2**64 - 1]


@given(seeds=st.lists(U64, min_size=1, max_size=8), counter=U64)
@example(seeds=EDGES, counter=0)
@example(seeds=EDGES, counter=2**64 - 1)
@example(seeds=[2**63 + 17], counter=2**63 + 17)
def test_draws_are_the_reference_draws(seeds, counter):
    seed_array = np.array(seeds, dtype=np.uint64)
    counters = np.array([counter, counter // 2], dtype=np.uint64)[:, None]
    kept = seed_array.copy(), counters.copy()
    bits = counter_bits(seed_array, counters)
    uniform = counter_uniform(seed_array, counters)
    for row, c in enumerate((counter, counter // 2)):
        assert bits[row].tolist() == [draw_bits(s, c) for s in seeds]
        assert uniform[row].tolist() == [draw_uniform(s, c) for s in seeds]
    assert int(counter_bits(seeds[0], counter)) == draw_bits(seeds[0], counter)
    assert float(counter_uniform(seeds[0], counter)) == draw_uniform(seeds[0], counter)
    out = np.empty_like(bits)
    assert counter_bits(seed_array, counters, out=out) is out
    assert np.array_equal(out, bits)
    # _mix works in place: the caller's arrays must come back untouched
    assert np.array_equal(seed_array, kept[0]) and np.array_equal(counters, kept[1])


@given(seeds=st.lists(U64, min_size=1, max_size=8), counter=U64)
@example(seeds=EDGES, counter=0)
def test_uniform_is_the_bits_times_two_to_minus_53_bit_for_bit(seeds, counter):
    seed_array = np.array(seeds, dtype=np.uint64)
    product = counter_bits(seed_array, counter) * 2.0**-53
    assert product.tobytes() == counter_uniform(seed_array, counter).tobytes()
    assert (counter_bits(seed_array, counter) < 2**53).all()


@given(master=ANY_INT, indices=st.lists(ANY_INT, max_size=4))
@example(master=0, indices=[0])
@example(master=2**64 - 1, indices=[2**64 - 1, 0])
@example(master=-1, indices=[-5, 3])
@example(master=-2**63, indices=[])
@example(master=2**63 + 17, indices=[2, 1, 0])
def test_derive_seed_is_the_reference_hash(master, indices):
    assert derive_seed(master, *indices) == stream_seed(master, *indices)


@given(
    masters=st.lists(U64, min_size=1, max_size=6),
    indices=st.lists(INT64, min_size=1, max_size=6),
    run=INT64,
)
@example(masters=EDGES, indices=[-3, 0, 7], run=-1)
@example(masters=[2**63 + 17], indices=[2**63 - 1, -2**63], run=0)
def test_derive_seed_array_is_the_reference_hash(masters, indices, run):
    master_array = np.array(masters, dtype=np.uint64)[:, None]
    index_array = np.array(indices, dtype=np.int64)
    kept = master_array.copy(), index_array.copy()
    seeds = derive_seed_array(master_array, index_array, run)
    assert seeds.shape == (len(masters), len(indices))
    for m, master in enumerate(masters):
        assert seeds[m].tolist() == [stream_seed(master, index, run) for index in indices]
    # a negative master as a Python int wraps modulo 2**64, as the reference does
    negative = derive_seed_array(-masters[0] - 1, index_array)
    assert negative.tolist() == [stream_seed(-masters[0] - 1, index) for index in indices]
    assert np.array_equal(master_array, kept[0]) and np.array_equal(index_array, kept[1])


def test_integer_seeds_of_any_sign_wrap_modulo_two_to_the_64():
    assert counter_uniform(-1, 0) == counter_uniform(2**64 - 1, 0)
    assert counter_uniform(np.array([-1]), 0) == counter_uniform(2**64 - 1, 0)
    params = ModelParams(Model.AGGRESSION, 0.3, 0.3)
    assert sample_trajectory((1, 0), params, 40, -3) == sample_trajectory(
        (1, 0), params, 40, 2**64 - 3)
    for engine in ("exact", "monte-carlo"):
        config = FeedbackConfig(inner_steps=5, turns=2, engine=engine, ensemble_size=50)
        assert self_consistent_run(params, config, master_seed=-1) == self_consistent_run(
            params, config, master_seed=2**64 - 1)
