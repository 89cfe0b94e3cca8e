import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import compute_outcome, flat_design
from splitgt.core import (
    NoiseChannel,
    OutcomeVector,
    ProblemInstance,
    RandomnessKey,
    evaluate_design,
    is_power_of_two,
    next_power_of_two,
    prev_power_of_two,
    round_instance,
)
from test_counter_hash import ALPHA


def test_power_helpers():
    assert next_power_of_two(1000) == 1024
    assert next_power_of_two(1024) == 1024
    assert prev_power_of_two(70) == 64
    assert prev_power_of_two(64) == 64
    assert is_power_of_two(1) and is_power_of_two(64)
    assert not is_power_of_two(0) and not is_power_of_two(12)


def test_round_instance_examples():
    assert round_instance(1000, 3, 70) == (1024, 4, 64)
    assert round_instance(1024, 4, 64) == (1024, 4, 64)
    assert round_instance(6, 5, None) == (8, 8, None)


def test_round_instance_rejections():
    with pytest.raises(ValueError):
        round_instance(1000, 3, 0)
    with pytest.raises(ValueError):
        round_instance(10, 11)
    with pytest.raises(ValueError):
        round_instance(1, 1)


def test_problem_instance_validation():
    inst = ProblemInstance(n=16, k=4, defectives=(3, 1))
    assert inst.defectives == (1, 3)
    with pytest.raises(ValueError):
        ProblemInstance(n=16, k=16, defectives=())  # k must stay below n
    with pytest.raises(ValueError):
        ProblemInstance(n=16, k=2, defectives=(1, 2, 3))
    with pytest.raises(ValueError):
        ProblemInstance(n=16, k=4, defectives=(16,))
    with pytest.raises(ValueError):
        ProblemInstance(n=12, k=4, defectives=())
    with pytest.raises(ValueError):
        ProblemInstance(n=16, k=4, defectives=(1, 1))


def test_noise_channel_validation():
    assert NoiseChannel.symmetric(0.1).p == 0.1
    assert NoiseChannel.noiseless().is_noiseless
    with pytest.raises(ValueError):
        NoiseChannel.symmetric(0.5)
    with pytest.raises(ValueError):
        NoiseChannel(-0.1)
    # degenerate always-flip channels are representable for tests
    assert NoiseChannel(1.0).p == 1.0


def test_randomness_key_contract():
    a = RandomnessKey(7, (1, "design"))
    b = RandomnessKey(7, (1, "design"))
    c = RandomnessKey(7, (1, "noise"))
    assert a.material() == b.material()
    assert a.material() != c.material()
    assert a.child(3).stream == (1, "design", 3)
    draws_a = a.generator().random(8)
    draws_b = b.generator().random(8)
    assert np.array_equal(draws_a, draws_b)
    assert not np.array_equal(draws_a, c.generator().random(8))


def test_compute_outcome_examples():
    inst = ProblemInstance(n=8, k=2, defectives=(3,))
    key = RandomnessKey(0)
    assert compute_outcome({1, 2}, inst, NoiseChannel.noiseless(), key) == 0
    assert compute_outcome({2, 3}, inst, NoiseChannel.noiseless(), key) == 1
    assert compute_outcome({2, 3}, inst, NoiseChannel(1.0), key) == 0
    assert compute_outcome({1, 2}, inst, NoiseChannel(1.0), key) == 1
    with pytest.raises(ValueError):
        compute_outcome({8}, inst, NoiseChannel.noiseless(), key)


def test_compute_outcome_deterministic():
    inst = ProblemInstance(n=8, k=2, defectives=(3,))
    channel = NoiseChannel.symmetric(0.3)
    key = RandomnessKey(42, ("flip",))
    first = [compute_outcome({3}, inst, channel, key) for _ in range(10)]
    assert len(set(first)) == 1


@given(
    members=st.sets(st.integers(min_value=0, max_value=15), max_size=8),
    defectives=st.sets(st.integers(min_value=0, max_value=15), max_size=7),
    extra=st.integers(min_value=0, max_value=15),
)
def test_noiseless_monotonicity(members, defectives, extra):
    # adding a defective never turns a 1-outcome into a 0-outcome
    key = RandomnessKey(0)
    channel = NoiseChannel.noiseless()
    before = compute_outcome(
        members, ProblemInstance(16, 8, tuple(defectives)), channel, key
    )
    after = compute_outcome(
        members, ProblemInstance(16, 8, tuple(defectives | {extra})), channel, key
    )
    assert after >= before


def test_outcome_vector_layout():
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    vec = OutcomeVector(bits=bits, layout=((1, 0, 2), (2, 0, 3)))
    assert vec.t_total == 5
    assert vec.get(1, 0, 1) == 0
    assert vec.get(2, 0, 0) == 1
    assert list(vec.segment(2, 0)) == [1, 1, 0]
    with pytest.raises(IndexError):
        vec.get(1, 0, 2)
    with pytest.raises(ValueError):
        OutcomeVector(bits=bits, layout=((1, 0, 2), (2, 0, 2)))
    with pytest.raises(ValueError):
        OutcomeVector(bits=bits, layout=((1, 0, 2), (1, 0, 3)))


def _three_test_design():
    return flat_design(8, ((), {2, 3}, {4, 5}))


def test_evaluate_design_basic():
    inst = ProblemInstance(n=8, k=2, defectives=(3,))
    out = evaluate_design(_three_test_design(), inst, NoiseChannel.noiseless(),
                          RandomnessKey(0))
    assert list(out.bits) == [0, 1, 0]


def test_evaluate_design_empty_defectives():
    inst = ProblemInstance(n=8, k=2, defectives=())
    out = evaluate_design(_three_test_design(), inst, NoiseChannel.noiseless(),
                          RandomnessKey(5))
    assert not out.bits.any()


def test_evaluate_design_deterministic():
    inst = ProblemInstance(n=8, k=2, defectives=(3, 4))
    channel = NoiseChannel.symmetric(0.25)
    key = RandomnessKey(99, ("noise",))
    a = evaluate_design(_three_test_design(), inst, channel, key)
    b = evaluate_design(_three_test_design(), inst, channel, key)
    assert np.array_equal(a.bits, b.bits)


def test_evaluate_design_n_mismatch():
    inst = ProblemInstance(n=16, k=2, defectives=(3,))
    with pytest.raises(ValueError):
        evaluate_design(_three_test_design(), inst, NoiseChannel.noiseless(),
                        RandomnessKey(0))


def binomial_band(trials: int, p: float) -> tuple[int, int]:
    """The exact two-sided acceptance band of a Binomial(trials, p) count at
    ``ALPHA``: the smallest x with P(X <= x) > ALPHA / 2 and the largest x
    with P(X >= x) > ALPHA / 2.  Terms beyond 15 standard deviations, below
    1e-40 in all, are left out."""
    sd = math.sqrt(trials * p * (1 - p))
    xs = range(max(0, int(trials * p - 15 * sd)), min(trials, int(trials * p + 15 * sd)) + 1)
    pmf = [math.exp(math.lgamma(trials + 1) - math.lgamma(x + 1) - math.lgamma(trials - x + 1)
                    + x * math.log(p) + (trials - x) * math.log1p(-p)) for x in xs]

    def first_past(values, positions):
        total = 0.0
        for x, mass in zip(positions, values):
            total += mass
            if total > ALPHA / 2:
                return x

    return first_past(pmf, xs), first_past(pmf[::-1], xs[::-1])


def assert_flip_rate(flips: int, trials: int, p: float) -> None:
    """``flips`` of ``trials`` lies in the exact band of p, and that band is
    disjoint from the bands of 0.9 p and 1.1 p: a channel whose flip rate is
    10% off fails, except with probability ALPHA / 2."""
    lo, hi = binomial_band(trials, p)
    assert binomial_band(trials, 0.9 * p)[1] < lo and hi < binomial_band(trials, 1.1 * p)[0]
    assert lo <= flips <= hi


@pytest.mark.parametrize("side,p", [("p10", 0.1), ("p01", 0.05)])
def test_empirical_flip_rate(side, p):
    # 2 * 10^5 copies of a fixed-OR test, positive (a 1 -> 0 flip, "p10")
    # or negative (a 0 -> 1 flip, "p01")
    reps = 200_000
    inst = ProblemInstance(n=4, k=2, defectives=(0,))
    if side == "p10":
        out = evaluate_design(flat_design(4, ({0},) * reps), inst, NoiseChannel(p),
                              RandomnessKey(2024))
        flips = reps - int(out.bits.sum())
    else:
        out = evaluate_design(flat_design(4, ({1},) * reps), inst, NoiseChannel(p),
                              RandomnessKey(2025))
        flips = int(out.bits.sum())
    assert_flip_rate(flips, reps, p)


def test_evaluate_matches_scalar_outcomes_noiselessly():
    # the vectorised path and the single-test primitive agree bit for bit
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = 16
        tests = tuple(
            frozenset(int(v) for v in rng.choice(n, size=rng.integers(0, 6), replace=False))
            for _ in range(12)
        )
        design = flat_design(n, tests)
        defectives = tuple(sorted(int(v) for v in rng.choice(n, size=3, replace=False)))
        inst = ProblemInstance(n=n, k=4, defectives=defectives)
        channel = NoiseChannel.noiseless()
        vec = evaluate_design(design, inst, channel, RandomnessKey(0))
        scalar = [compute_outcome(t, inst, channel, RandomnessKey(0)) for t in tests]
        assert list(vec.bits) == scalar


@pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
def test_evaluate_matches_scalar_outcomes_with_noise(p):
    """Test c flips iff output c of the noise key's counter stream is below
    floor(p * 2^64), as the pure-Python single test computes it."""
    rng = np.random.default_rng(13)
    n = 16
    tests = tuple(frozenset(int(v) for v in rng.choice(n, size=rng.integers(0, 6),
                                                       replace=False))
                  for _ in range(300))
    inst = ProblemInstance(n=n, k=4, defectives=(2, 9))
    channel, key = NoiseChannel(p), RandomnessKey(31, (4, "noise"))
    vec = evaluate_design(flat_design(n, tests), inst, channel, key)
    scalar = [compute_outcome(t, inst, channel, key, cell) for cell, t in enumerate(tests)]
    assert vec.bits.tolist() == scalar


def test_randomness_key_rejects_bad_tokens():
    with pytest.raises(TypeError):
        RandomnessKey(1, ((1, 2),)).material()


TOKEN = st.one_of(st.integers(min_value=-2 ** 63, max_value=2 ** 64 - 1), st.text(max_size=6))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=-2 ** 63, max_value=2 ** 64 - 1),
    stream=st.lists(TOKEN, max_size=3),
    indices=st.lists(st.integers(min_value=0, max_value=2 ** 63 - 1), min_size=1, max_size=6),
    tokens=st.lists(TOKEN, max_size=2),
)
# the harness's trial keys, with seeds at and above 2^63 and a negative one
@example(seed=2 ** 63, stream=[], indices=[0, 1, 2], tokens=["design"])
@example(seed=2 ** 64 - 1, stream=[], indices=[5, 150], tokens=["defectives"])
@example(seed=-1, stream=["x", 7], indices=[2 ** 63 - 1], tokens=["noise"])
@example(seed=0, stream=[], indices=[0], tokens=[])
def test_materials_match_material(seed, stream, indices, tokens):
    """One array program gives every trial key's word, the low 64 bits of
    its ``material()``, as ``words()`` gives one key's, and a Philox
    generator keyed by that material draws the key's own stream."""
    key = RandomnessKey(seed, tuple(stream))
    words = key.materials(np.array(indices), *tokens)
    assert words.dtype == np.uint64 and words.shape == (len(indices),)
    for index, word in zip(indices, words.tolist()):
        child = key.child(index, *tokens)
        material = child.material()
        assert word == material & (2 ** 64 - 1)
        assert child.words().dtype == np.uint64 and child.words().tolist() == [word]
        philox = np.random.Generator(np.random.Philox(key=material))
        assert np.array_equal(philox.random(4), child.generator().random(4))


def test_generator_stream_is_pinned():
    """A key's generator draws from its 128-bit material, whatever word its
    counter streams take."""
    draws = RandomnessKey(1).child(3, "design").generator().random(2)
    assert draws.tolist() == [0.5336338200240649, 0.8950714247937664]


def test_materials_of_a_range():
    """A range of trial indices is taken as its integer array."""
    key = RandomnessKey(3)
    assert np.array_equal(key.materials(range(4, 9), "design"),
                          key.materials(np.arange(4, 9), "design"))


def test_randomness_key_stream_order_matters():
    assert RandomnessKey(1, (1, 2)).material() != RandomnessKey(1, (2, 1)).material()


def test_scalar_flip_rate_matches():
    draws = 100_000
    inst = ProblemInstance(n=4, k=2, defectives=(0,))
    channel = NoiseChannel(0.1)
    base = RandomnessKey(77)
    flips = sum(
        1 - compute_outcome({0}, inst, channel, base.child(i)) for i in range(draws)
    )
    assert_flip_rate(flips, draws, 0.1)
