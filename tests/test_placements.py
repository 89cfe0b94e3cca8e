import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import (
    MASK64,
    ExplicitStack,
    counter_hash_test,
    next_primes_by_trial_division,
    python_horner,
    scalar_test,
    shaped_stacks,
)
from test_counter_hash import chi2_bound, pearson
from splitgt.core import RandomnessKey
from splitgt.placements import (
    COUNTER_HASH,
    CounterHashStack,
    IdentityStack,
    PolynomialStack,
    _counter_hash,
    _horner,
    _mod,
    permutation,
    polynomial,
    row_keys,
    smallest_prime_at_least,
)


def key(i=0):
    return RandomnessKey(1234, (i,))


def uniform(num_nodes, t_len, k, reps=1):
    """``reps`` i.i.d. placements, counter hashes: one stack."""
    return shaped_stacks([(num_nodes, t_len, reps)], k, COUNTER_HASH)[0]


def hashed(num_nodes, t_len, degree, k, reps=1):
    """``reps`` degree-``degree`` polynomial hashes, 2 * degree row keys of
    ``k`` each: one stack."""
    return PolynomialStack(num_nodes, t_len,
                           row_keys(k, reps * 2 * degree).reshape(reps, 2 * degree))


def balanced(num_nodes, t_len, k, full=True, reps=1):
    """``reps`` balanced placements: one keyed-permutation stack."""
    return shaped_stacks([(num_nodes, t_len, reps)], k, permutation(full))[0]


def table(stack, rep=0):
    """The test of every node under repetition ``rep`` (small sizes only)."""
    return stack.tests_of(np.arange(stack.num_nodes, dtype=np.int64))[rep]


def test_smallest_prime():
    assert smallest_prime_at_least(2) == 2
    assert smallest_prime_at_least(1000) == 1009
    assert smallest_prime_at_least(1024) == 1031
    assert smallest_prime_at_least(7) == 7


def test_smallest_prime_matches_trial_division():
    expected = next_primes_by_trial_division(10 ** 5)
    assert [smallest_prime_at_least(x) for x in range(10 ** 5)] == expected.tolist()


@pytest.mark.parametrize("log_x,gap", [(30, 3), (40, 15), (50, 55), (62, 135)])
def test_smallest_prime_large(log_x, gap):
    # trial division takes seconds at 2^40 and hours at 2^62
    start = time.perf_counter()
    assert smallest_prime_at_least(2 ** log_x) == 2 ** log_x + gap
    assert smallest_prime_at_least(2 ** log_x + gap) == 2 ** log_x + gap
    assert time.perf_counter() - start < 0.5


def test_uniform_single_bucket():
    p = uniform(4, 1, key())
    assert [scalar_test(p, j, 0) for j in range(4)] == [0, 0, 0, 0]


def test_uniform_deterministic():
    a = uniform(1000, 16, key(3))
    b = uniform(1000, 16, key(3))
    assert np.array_equal(table(a), table(b))
    assert not np.array_equal(table(a), table(uniform(1000, 16, key(4))))


def test_uniform_bucket_counts():
    # chi-square style check: per-bucket counts within 5 sigma of the mean
    num, t_len = 100_000, 10
    p = uniform(num, t_len, key(7))
    counts = np.bincount(table(p), minlength=t_len)
    mean = num / t_len
    sigma = (num * (1 / t_len) * (1 - 1 / t_len)) ** 0.5
    assert np.all(np.abs(counts - mean) <= 5 * sigma)


def test_hashed_rejects_low_degree():
    with pytest.raises(ValueError):
        hashed(100, 10, 1, key())


def test_hashed_single_node():
    p = hashed(1, 8, 2, key())
    assert 0 <= scalar_test(p, 0, 0) < 8


def test_hashed_storage_independent_of_size():
    small = hashed(100, 16, 3, key())
    large = hashed(100_000, 16, 3, key())
    assert small.storage_cost == large.storage_cost == 5
    assert uniform(100, 16, key()).storage_cost == 100
    assert uniform(100_000, 16, key()).storage_cost == 100_000


def test_hashed_pairwise_collision_rate():
    # two fixed nodes collide with frequency ~ 1/t_len over fresh key draws
    num, t_len, draws = 1000, 16, 10_000
    base = RandomnessKey(555)
    hits = sum(
        1
        for p in (hashed(num, t_len, 2, base.child(i)) for i in range(draws))
        if scalar_test(p, 3, 0) == scalar_test(p, 71, 0)
    )
    target = 1 / t_len
    sigma = (target * (1 - target) / draws) ** 0.5
    # small extra slack for the modular-reduction bias, bounded by t_len/prime
    assert abs(hits / draws - target) <= 5 * sigma + t_len / 1009


def test_hashed_table_matches_scalar():
    p = hashed(257, 12, 4, key(9))
    assert [scalar_test(p, j, 0) for j in range(257)] == list(table(p))
    # past n = 2^32 the prime's square no longer fits in 64 bits
    for num in (2 ** 33, 2 ** 40):
        p = hashed(num, 1000, 4, key(9))
        nodes = np.arange(num - 257, num, dtype=np.int64)
        assert p.tests_of(nodes)[0].tolist() == [scalar_test(p, j, 0) for j in nodes.tolist()]


# --- the lookup kernels against Python integers -----------------------------


def largest_prime_at_most(x: int) -> int:
    while smallest_prime_at_least(x) != x:
        x -= 1
    return x


def lazy_bound(prime: int, steps: int) -> int:
    """The accumulator's bound ``steps`` Horner steps after a reduction,
    which every node and coefficient at prime - 1 reaches."""
    top = bound = prime - 1
    for _ in range(steps):
        bound = bound * top + top
    return bound


def threshold_primes(max_steps: int = 8) -> set[int]:
    """For each s up to ``max_steps``, the largest prime whose accumulator
    stays in uint64 for s steps after a reduction, and the next prime, whose
    does not.  At s = 1 the pair straddles 2^32, where products start to go
    through the chunked multiply."""
    primes = set()
    for steps in range(1, max_steps + 1):
        fits, overflows = 2, 2 ** 33
        while overflows - fits > 1:
            mid = (fits + overflows) // 2
            if lazy_bound(mid, steps) <= MASK64:
                fits = mid
            else:
                overflows = mid
        primes |= {largest_prime_at_most(fits), smallest_prime_at_least(fits + 1)}
    return primes


# the first and last prime of every width from 2 to 63 bits, and both sides
# of every reduction threshold a polynomial of degree 9 or less can cross
KERNEL_PRIMES = sorted(
    {p for width in range(2, 64)
     for p in (smallest_prime_at_least(2 ** (width - 1)), largest_prime_at_most(2 ** width - 1))}
    | threshold_primes())
T_LENS = (1, 2, 2 ** 13, 2 ** 62, 3, 1000)
LARGEST_PRIME_BELOW_2_63 = 2 ** 63 - 25


def test_threshold_primes_straddle_every_step_count():
    """Sorted, the threshold primes pair up from 8 steps down to 1: each
    pair keeps its steps in uint64 below and leaves it above."""
    primes = sorted(threshold_primes())
    pairs = list(zip(primes[0::2], primes[1::2]))
    assert len(pairs) == 8 and pairs[-1] == (2 ** 32 - 5, 2 ** 32 + 15)
    for steps, (below, above) in zip(range(8, 0, -1), pairs):
        assert lazy_bound(below, steps) <= MASK64 < lazy_bound(above, steps)


@pytest.mark.parametrize("prime", KERNEL_PRIMES)
def test_horner_worst_case_operands(prime):
    """Every coefficient at prime - 1 and the node at prime - 1, the largest
    value each lazy step can reach, at degrees 2 to 9; a second row mixes in
    small values.  Power-of-two t_len (1 included) take the mask, others the
    remainder."""
    top = prime - 1
    nodes = np.array([top, 0, 1, top // 2], dtype=np.int64)
    for degree in range(2, 10):
        rows = [[top] * degree, [top if i % 2 else i % prime for i in range(degree)]]
        coeffs = np.array(rows, dtype=np.uint64).T[:, :, None]  # highest degree first
        for t_len in T_LENS + (prime,):
            expected = [[python_horner(row, x, prime, t_len) for x in nodes.tolist()]
                        for row in rows]
            got = _horner(coeffs, nodes, prime, t_len)
            assert got.dtype == np.int64 and got.tolist() == expected


@settings(max_examples=150, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=63),
    degree=st.integers(min_value=2, max_value=9),
    t_len=st.one_of(st.integers(min_value=0, max_value=62).map(lambda e: 1 << e),
                    st.integers(min_value=1, max_value=2 ** 63 - 1)),
    per_node=st.booleans(),
    data=st.data(),
)
def test_horner_matches_python_integers(width, degree, t_len, per_node, data):
    """Random nodes and coefficients below primes of every width, with one
    coefficient column per row or, as a batch of trials gives them, one
    coefficient per (row, node)."""
    prime = smallest_prime_at_least(data.draw(st.integers(
        2 ** (width - 1), min(2 ** width - 1, LARGEST_PRIME_BELOW_2_63))))
    rows, count = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    below = st.integers(min_value=0, max_value=prime - 1)
    nodes = data.draw(st.lists(below, min_size=count, max_size=count))
    shape = (degree, rows, count if per_node else 1)
    values = data.draw(st.lists(below, min_size=math.prod(shape), max_size=math.prod(shape)))
    coeffs = np.array(values, dtype=np.uint64).reshape(shape)
    got = _horner(coeffs, np.array(nodes, dtype=np.int64), prime, t_len)
    expected = [[python_horner(coeffs[:, r, j if per_node else 0].tolist(), x, prime, t_len)
                 for j, x in enumerate(nodes)] for r in range(rows)]
    assert got.tolist() == expected


@pytest.mark.parametrize("m", [1, 3, 1000, 81071, 2 ** 32 - 5, LARGEST_PRIME_BELOW_2_63])
def test_mod_matches_python_integers(m):
    """The floor-division remainder equals Python's at 0, m - 1, m and
    2^64 - 1 and at random words, as uint64, and leaves its operand as it
    was."""
    words = np.random.default_rng(m).integers(0, 2 ** 64, 64, dtype=np.uint64).tolist()
    values = np.array([0, m - 1, m, 2 ** 64 - 1] + words, dtype=np.uint64)
    before = values.copy()
    got = _mod(values, m)
    assert got.dtype == np.uint64 and got.tolist() == [v % m for v in values.tolist()]
    assert np.array_equal(values, before)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    nodes=st.lists(st.integers(min_value=0, max_value=2 ** 62), min_size=1, max_size=8),
)
def test_counter_hash_mask_matches_remainder(seed, nodes):
    """At every power-of-two t_len up to 2^62 the mask keeps what the
    remainder of the 64-bit hash keeps."""
    keys = row_keys(RandomnessKey(seed), 3)
    for log_t in range(63):
        t_len = 1 << log_t
        got = _counter_hash(keys[:, None], np.array(nodes, dtype=np.int64), t_len)
        assert got.tolist() == [[counter_hash_test(k, v, t_len) for v in nodes]
                                for k in keys.tolist()]


WORD = st.integers(min_value=0, max_value=2 ** 64 - 1)


@settings(max_examples=80, deadline=None)
@given(
    at_least=st.integers(min_value=2, max_value=LARGEST_PRIME_BELOW_2_63),
    degree=st.integers(min_value=2, max_value=6),
    trials=st.integers(min_value=1, max_value=3),
    reps=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
@example(at_least=2, degree=2, trials=2, reps=1, data=None)
@example(at_least=2 ** 62, degree=3, trials=3, reps=2, data=None)
@example(at_least=LARGEST_PRIME_BELOW_2_63, degree=2, trials=2, reps=2, data=None)
def test_coefficient_fold_matches_python_integers(at_least, degree, trials, reps, data):
    """Each coefficient is the 128-bit number of its two row keys mod the
    prime, for primes from 2 to just below 2^63, in a trial's own stack and
    in the stack of several trials' keys, whose trial axis may have length
    one."""
    shape = (trials, reps, 2 * degree)
    if data is None:  # every word at its largest, which no product may overflow
        words = [2 ** 64 - 1] * math.prod(shape)
    else:
        words = data.draw(st.lists(WORD, min_size=math.prod(shape), max_size=math.prod(shape)))
    keys = np.array(words, dtype=np.uint64).reshape(shape)
    before = keys.copy()
    own = [PolynomialStack(at_least, 1, trial_keys) for trial_keys in keys]
    prime = own[0].prime
    assert prime == smallest_prime_at_least(at_least) < 2 ** 63
    expected = [[[((int(row[2 * i]) << 64) | int(row[2 * i + 1])) % prime
                  for i in range(degree)] for row in trial_keys] for trial_keys in keys]
    assert [stack.coeffs.tolist() for stack in own] == expected
    batch = PolynomialStack(at_least, 1, keys)
    assert batch.coeffs.tolist() == expected and batch.trials == trials
    assert batch.reps == reps and batch.storage_cost == reps * (degree + 2)
    assert np.array_equal(keys, before)  # the fold writes into no row key


def test_coefficient_chi_square():
    """Over many design keys, each coefficient position of a polynomial
    level is uniform on a small prime field."""
    shape, degree, designs = (31, 1, 2), 3, 4000  # prime 31: about 129 keys per cell
    coeffs = np.array([shaped_stacks([shape], RandomnessKey(77, ("coeffs", i)),
                                     polynomial(degree))[0].coeffs.ravel()
                       for i in range(designs)])
    assert coeffs.shape == (designs, shape[2] * degree)
    for position in coeffs.T:
        assert pearson(position.astype(np.int64), 31) <= chi2_bound(31 - 1)


def test_balanced_exact_weights():
    p = balanced(8, 4, key())
    counts = np.bincount(table(p), minlength=4)
    assert list(counts) == [2, 2, 2, 2]
    assert p.num_nodes // p.t_len == 2


def test_balanced_identity_weight():
    p = balanced(8, 8, key())
    assert sorted(scalar_test(p, j, 0) for j in range(8)) == list(range(8))


def test_balanced_rejects_non_divisible():
    with pytest.raises(ValueError):
        balanced(10, 4, key())


def pair_rate_bound(draws, target, alpha=1e-6):
    """Bernstein's bound on the deviation of a binomial(draws, target)
    count, exceeded with probability at most ``alpha``."""
    log_term = np.log(2 / alpha)
    return log_term / 3 + np.sqrt(log_term ** 2 / 9 + 2 * draws * target * (1 - target) * log_term)


def test_balanced_collision_rate():
    # two fixed nodes share a test with probability (row_weight-1)/(num-1):
    # 20,000 independently keyed rows of one stack, one lookup
    num, t_len, draws = 64, 8, 20_000
    grid = balanced(num, t_len, RandomnessKey(777), reps=draws).tests_of(np.array([0, 1]))
    hits = int((grid[:, 0] == grid[:, 1]).sum())
    target = (num // t_len - 1) / (num - 1)
    assert abs(hits - draws * target) <= pair_rate_bound(draws, target)


def test_truncated_permutation_exact_weights():
    p = balanced(16, 4, key(), full=False)
    counts = np.bincount(table(p), minlength=4)
    assert list(counts) == [4, 4, 4, 4]


def test_truncated_permutation_rejects_bad_sizes():
    for num, t_len in [(12, 4), (16, 3), (8, 16)]:
        with pytest.raises(ValueError):
            balanced(num, t_len, key(), full=False)


def test_truncated_permutation_deterministic():
    a = balanced(64, 8, key(1), full=False, reps=3)
    b = balanced(64, 8, key(1), full=False, reps=3)
    nodes = np.arange(64)
    assert np.array_equal(a.tests_of(nodes), b.tests_of(nodes))
    assert not np.array_equal(a.tests_of(nodes), balanced(64, 8, key(2), full=False,
                                                          reps=3).tests_of(nodes))
    assert not np.array_equal(a.tests_of(nodes)[0], a.tests_of(nodes)[1])


def test_truncated_permutation_collision_rate():
    # the pair rate of two fixed nodes is that of a uniform permutation,
    # (row_weight - 1) / (num - 1), far inside the O(row_weight / num) bound
    num, t_len, draws = 256, 64, 20_000
    grid = balanced(num, t_len, RandomnessKey(999), full=False,
                    reps=draws).tests_of(np.array([5, 200]))
    hits = int((grid[:, 0] == grid[:, 1]).sum())
    target = (num // t_len - 1) / (num - 1)
    assert abs(hits - draws * target) <= pair_rate_bound(draws, target)
    assert hits / draws <= 3 * (num // t_len) / num


def test_truncated_permutation_storage_constant():
    # round keys plus two words per row: 24 rounds below 2^6 nodes, 6 above
    assert balanced(16, 4, key(), full=False).storage_cost == 26
    assert balanced(2 ** 14, 64, key(), full=False).storage_cost == \
        balanced(2 ** 40, 64, key(), full=False).storage_cost == 8
    assert balanced(2 ** 14, 64, key(), reps=3).storage_cost == 3 * 2 ** 14


@settings(max_examples=60, deadline=None)
@given(
    log_nodes=st.integers(min_value=0, max_value=10),
    log_t=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2 ** 32),
)
def test_every_backing_total_and_in_range(log_nodes, log_t, seed):
    num, t_len = 1 << log_nodes, 1 << min(log_t, log_nodes)
    k = RandomnessKey(seed)
    backings = [
        uniform(num, t_len, k),
        hashed(num, t_len, 3, k),
        balanced(num, t_len, k),
    ]
    for p in backings:
        tests = table(p)
        assert len(tests) == num
        assert tests.min() >= 0 and tests.max() < t_len


@settings(max_examples=40, deadline=None)
@given(
    log_nodes=st.integers(min_value=1, max_value=9),
    log_t=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2 ** 32),
)
def test_balanced_weights_exact_for_all_keys(log_nodes, log_t, seed):
    num, t_len = 1 << log_nodes, 1 << min(log_t, log_nodes)
    p = balanced(num, t_len, RandomnessKey(seed), reps=3)
    for rep in range(3):
        counts = np.bincount(table(p, rep), minlength=t_len)
        assert np.all(counts == num // t_len)


def test_mode_factories():
    def one(degree):
        return shaped_stacks([(64, 8, 1)], key(),
                             COUNTER_HASH if degree is None else polynomial(degree))[0]

    assert one(None).storage_cost == 64
    assert one(6).storage_cost == 8
    assert one(2).storage_cost == 4
    for degree in (1, 0):
        with pytest.raises(ValueError, match="independence degree"):
            one(degree)
    assert balanced(64, 8, key(), True).storage_cost == 64
    assert balanced(64, 8, key(), False).storage_cost == 8


@settings(max_examples=40, deadline=None)
@given(
    log_nodes=st.integers(min_value=0, max_value=40),
    log_t=st.integers(min_value=0, max_value=40),
    hash_t=st.integers(min_value=1, max_value=2 ** 20),
    degree=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=2 ** 32),
    picks=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=40),
)
@example(log_nodes=11, log_t=3, hash_t=7, degree=2, seed=1, picks=[0.5])
@example(log_nodes=31, log_t=12, hash_t=3, degree=6, seed=2, picks=[0.25, 0.75])
@example(log_nodes=0, log_t=0, hash_t=1, degree=2, seed=3, picks=[])
@example(log_nodes=1, log_t=1, hash_t=2, degree=3, seed=4, picks=[0.9])
@example(log_nodes=40, log_t=20, hash_t=1000, degree=6, seed=5, picks=[0.1, 0.6])
def test_tests_of_matches_test_of(log_nodes, log_t, hash_t, degree, seed, picks):
    """Every stack's lookup equals, repetition by repetition, the scalar
    reference computed from its own keys (``scalar_reference.scalar_test``)."""
    num, t_len = 1 << log_nodes, 1 << min(log_t, log_nodes)
    k = RandomnessKey(seed)
    nodes = np.array([0, num - 1] + [int(f * num) for f in picks], dtype=np.int64)
    backings = [hashed(num, hash_t, degree, k, reps=3), uniform(num, hash_t, k, reps=3),
                balanced(num, t_len, k, reps=3), IdentityStack(num)]
    for p in backings:
        fast = p.tests_of(nodes)
        assert fast.dtype == np.int64 and fast.shape == (p.reps, len(nodes))
        for rep in range(p.reps):
            assert fast[rep].tolist() == [scalar_test(p, j, rep) for j in nodes.tolist()]


@settings(max_examples=60, deadline=None)
@given(
    log_nodes=st.integers(min_value=0, max_value=40),
    t_len=st.integers(min_value=1, max_value=300),
    reps=st.integers(min_value=1, max_value=9),
    backing=st.sampled_from(["counter", "degree2", "degree5"]),
    seed=st.integers(min_value=0, max_value=2 ** 32),
    data=st.data(),
)
def test_stack_rows_match_stacked_lookup(log_nodes, t_len, reps, backing, seed, data):
    """A stack's lookup over a range of repetitions gives, row by row, its
    lookup of each repetition alone and its scalar lookups."""
    num = 1 << log_nodes
    if backing == "counter":
        stack = CounterHashStack(num, t_len, row_keys(RandomnessKey(seed), reps))
    else:
        stack = hashed(num, t_len, 2 if backing == "degree2" else 5, RandomnessKey(seed), reps)
    assert stack.reps == reps
    first = data.draw(st.integers(min_value=0, max_value=reps - 1))
    last = data.draw(st.integers(min_value=first + 1, max_value=reps))
    nodes = np.array(data.draw(st.lists(st.integers(min_value=0, max_value=num - 1),
                                        max_size=20)), dtype=np.int64)
    grid = stack.tests_of(nodes, slice(first, last))
    assert grid.shape == (last - first, len(nodes)) and grid.dtype == np.int64
    for i, rep in enumerate(range(first, last)):
        alone = stack.tests_of(nodes, slice(rep, rep + 1))[0]
        assert alone.dtype == np.int64
        assert np.array_equal(grid[i], alone)
        assert grid[i].tolist() == [scalar_test(stack, int(v), rep) for v in nodes]


@pytest.mark.parametrize("t_len", [1, 300, 2 ** 31, 2 ** 31 + 1, 2 ** 40])
def test_explicit_stack_width_keeps_draws(t_len):
    """The reference explicit stack (the i.i.d. control of the statistical
    tests) is int32 while every test fits and int64 beyond; either way it
    holds the values of an int64 draw from the same stream."""
    stack = ExplicitStack(64, t_len, 3, RandomnessKey(5).generator())
    assert stack.table.dtype == (np.int32 if t_len <= 2 ** 31 else np.int64)
    expected = RandomnessKey(5).generator().integers(0, t_len, size=(3, 64), dtype=np.int64)
    assert np.array_equal(stack.table, expected)
    grid = stack.tests_of(np.arange(64, dtype=np.int64))
    assert grid.dtype == np.int64
    assert grid.tolist() == [[scalar_test(stack, j, rep) for j in range(64)] for rep in range(3)]


@pytest.mark.parametrize("backing", ["counter", "polynomial", "identity", "balanced",
                                     "truncated"])
def test_stack_lookup_of_no_nodes(backing):
    """Every stack answers an empty node array with a (repetitions x 0)
    grid, for every slice of its repetitions."""
    num, t_len, reps = 64, 8, 3
    if backing == "counter":
        stack = CounterHashStack(num, t_len, row_keys(key(), reps))
    elif backing == "polynomial":
        stack = hashed(num, t_len, 3, key(), reps)
    elif backing == "identity":
        stack = IdentityStack(num)
    else:
        stack = balanced(num, t_len, key(), full=backing == "balanced", reps=reps)
    nodes = np.array([], dtype=np.int64)
    for reps_slice in (slice(None), slice(1, 3), slice(2, 2)):
        grid = stack.tests_of(nodes, reps_slice)
        count = len(range(stack.reps)[reps_slice])  # the identity has one repetition
        assert grid.shape == (count, 0) and grid.dtype == np.int64


# each hashed placement, named by the hash mode it backs: the counter hash,
# gamma kwise's degree at gamma = 6 and pairwise's 2; the keyed permutation
# accounted as its stored table and as its round keys
BUILDS = {"uniform-full": COUNTER_HASH,
          "uniform-kwise": polynomial(6),
          "uniform-pairwise": polynomial(2),
          "balanced-full": permutation(True),
          "balanced-permutation": permutation(False)}


@pytest.mark.parametrize("case", BUILDS)
def test_stacks_from_batch_material_match_each_trial(case):
    """Stacks cut from several trials' key material hold each trial's own
    keys along a leading axis: a node looked up under trial b's keys lands
    where trial b's own stack puts it, level by level and under every
    repetition, and the accounting is one trial's."""
    shapes = [(16, 4, 2), (256, 16, 3), (1024, 32, 1)]  # 24 and 6 Feistel rounds
    root, count = RandomnessKey(41), 4
    batch = shaped_stacks(shapes, root.materials(range(count), "design"), BUILDS[case])
    own = [shaped_stacks(shapes, root.child(b, "design"), BUILDS[case]) for b in range(count)]
    rng = np.random.default_rng(3)
    for level, stack in enumerate(batch):
        assert (stack.reps, stack.storage_cost) == (own[0][level].reps, own[0][level].storage_cost)
        assert stack.trials == count and own[0][level].trials is None
        nodes = rng.integers(0, stack.num_nodes, size=50)
        trials = np.sort(rng.integers(0, count, size=50))
        expected = np.concatenate([own[b][level].tests_of(nodes[trials == b])
                                   for b in range(count)], axis=1)
        assert np.array_equal(stack.tests_of(nodes, slice(None), trials), expected)
        last = slice(stack.reps - 1, stack.reps)
        assert np.array_equal(stack.tests_of(nodes, last, trials), expected[last])


def test_identity_stack_ignores_trials():
    stack = IdentityStack(16)
    assert stack.trials is None
    nodes = np.array([3, 0, 15])
    assert stack.tests_of(nodes, slice(None), np.array([2, 0, 1])).tolist() == [[3, 0, 15]]


@pytest.mark.parametrize("case", BUILDS)
def test_scalar_reference_refuses_a_stack_of_several_trials(case):
    """The scalar reference reads one trial's keys, so a stack with a trial
    axis gets a ValueError, not the lookup of its first trial."""
    stack, = shaped_stacks([(64, 8, 2)], RandomnessKey(41).materials(range(3), "design"),
                           BUILDS[case])
    assert stack.trials == 3
    with pytest.raises(ValueError, match="^a stack of 3 trials' keys has no scalar lookup"):
        scalar_test(stack, 0, 0)
