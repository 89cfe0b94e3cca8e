import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import ExplicitStack, next_primes_by_trial_division
from splitgt.core import RandomnessKey
from splitgt.placements import (
    BalancedTable,
    CounterHashStack,
    IdentityPlacement,
    PolynomialStack,
    RowStack,
    TruncatedPermutation,
    balanced_style_placement,
    row_keys,
    smallest_prime_at_least,
    uniform_style_stacks,
)


def key(i=0):
    return RandomnessKey(1234, (i,))


def uniform(num_nodes, t_len, k):
    """One i.i.d. placement, a counter hash: a one-row stack."""
    return uniform_style_stacks([(num_nodes, t_len, 1)], k, "full")[0].rows[0]


def hashed(num_nodes, t_len, degree, k):
    """One degree-``degree`` polynomial hash: a one-row stack."""
    return PolynomialStack(num_nodes, t_len, 1, degree, k.generator()).rows[0]


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
    assert [p.test_of(j) for j in range(4)] == [0, 0, 0, 0]


def test_uniform_deterministic():
    a = uniform(1000, 16, key(3))
    b = uniform(1000, 16, key(3))
    assert np.array_equal(a.table(), b.table())
    assert not np.array_equal(a.table(), uniform(1000, 16, key(4)).table())


def test_uniform_bucket_counts():
    # chi-square style check: per-bucket counts within 5 sigma of the mean
    num, t_len = 100_000, 10
    p = uniform(num, t_len, key(7))
    counts = np.bincount(p.table(), minlength=t_len)
    mean = num / t_len
    sigma = (num * (1 / t_len) * (1 - 1 / t_len)) ** 0.5
    assert np.all(np.abs(counts - mean) <= 5 * sigma)


def test_hashed_rejects_low_degree():
    with pytest.raises(ValueError):
        hashed(100, 10, 1, key())


def test_hashed_single_node():
    p = hashed(1, 8, 2, key())
    assert 0 <= p.test_of(0) < 8


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
        for i in range(draws)
        if (lambda p: p.test_of(3) == p.test_of(71))(hashed(num, t_len, 2, base.child(i)))
    )
    target = 1 / t_len
    sigma = (target * (1 - target) / draws) ** 0.5
    # small extra slack for the modular-reduction bias, bounded by t_len/prime
    assert abs(hits / draws - target) <= 5 * sigma + t_len / 1009


def test_hashed_table_matches_scalar():
    p = hashed(257, 12, 4, key(9))
    assert [p.test_of(j) for j in range(257)] == list(p.table())
    # past n = 2^32 the prime's square no longer fits in 64 bits
    for num in (2 ** 33, 2 ** 40):
        p = hashed(num, 1000, 4, key(9))
        nodes = np.arange(num - 257, num, dtype=np.int64)
        assert p.tests_of(nodes).tolist() == [p.test_of(j) for j in nodes.tolist()]


def test_balanced_exact_weights():
    p = BalancedTable(8, 4, key())
    counts = np.bincount(p.table(), minlength=4)
    assert list(counts) == [2, 2, 2, 2]
    assert p.row_weight == 2


def test_balanced_identity_weight():
    p = BalancedTable(6, 6, key())
    assert sorted(p.test_of(j) for j in range(6)) == list(range(6))


def test_balanced_rejects_non_divisible():
    with pytest.raises(ValueError):
        BalancedTable(10, 4, key())


def test_balanced_collision_rate():
    # two fixed nodes share a test with probability (row_weight-1)/(num-1)
    num, t_len, draws = 64, 8, 10_000
    base = RandomnessKey(777)
    hits = sum(
        1
        for i in range(draws)
        if (lambda p: p.test_of(0) == p.test_of(1))(BalancedTable(num, t_len, base.child(i)))
    )
    target = (num // t_len - 1) / (num - 1)
    sigma = (target * (1 - target) / draws) ** 0.5
    assert abs(hits / draws - target) <= 5 * sigma


def test_truncated_permutation_exact_weights():
    p = TruncatedPermutation(16, 4, key())
    counts = np.bincount(p.table(), minlength=4)
    assert list(counts) == [4, 4, 4, 4]


def test_truncated_permutation_rejects_bad_sizes():
    with pytest.raises(ValueError):
        TruncatedPermutation(12, 4, key())
    with pytest.raises(ValueError):
        TruncatedPermutation(16, 3, key())
    with pytest.raises(ValueError):
        TruncatedPermutation(8, 16, key())


def test_truncated_permutation_deterministic():
    a = TruncatedPermutation(64, 8, key(1))
    b = TruncatedPermutation(64, 8, key(1))
    assert np.array_equal(a.table(), b.table())


def test_truncated_permutation_collision_rate():
    # collision frequency of two fixed nodes stays O(row_weight / num_nodes)
    num, t_len, draws = 256, 64, 10_000
    row_weight = num // t_len
    base = RandomnessKey(999)
    hits = sum(
        1
        for i in range(draws)
        if (lambda p: p.test_of(5) == p.test_of(200))(
            TruncatedPermutation(num, t_len, base.child(i))
        )
    )
    assert hits / draws <= 3 * row_weight / num


def test_truncated_permutation_storage_constant():
    assert TruncatedPermutation(16, 4, key()).storage_cost == \
        TruncatedPermutation(2 ** 14, 64, key()).storage_cost == 6


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
        BalancedTable(num, t_len, k),
        TruncatedPermutation(num, t_len, k),
    ]
    for p in backings:
        table = p.table()
        assert len(table) == num
        assert table.min() >= 0 and table.max() < t_len


@settings(max_examples=40, deadline=None)
@given(
    log_nodes=st.integers(min_value=1, max_value=9),
    log_t=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2 ** 32),
)
def test_balanced_weights_exact_for_all_keys(log_nodes, log_t, seed):
    num, t_len = 1 << log_nodes, 1 << min(log_t, log_nodes)
    k = RandomnessKey(seed)
    for p in (BalancedTable(num, t_len, k), TruncatedPermutation(num, t_len, k)):
        counts = np.bincount(p.table(), minlength=t_len)
        assert np.all(counts == num // t_len)


def test_mode_factories():
    def one(hash_mode, **kw):
        return uniform_style_stacks([(64, 8, 1)], key(), hash_mode, **kw)[0].rows[0]

    assert one("full").storage_cost == 64
    assert one("kwise", kwise_degree=6).storage_cost == 8
    assert one("pairwise").storage_cost == 4
    with pytest.raises(ValueError):
        one("permutation")
    with pytest.raises(ValueError):
        one("bogus")
    assert balanced_style_placement(64, 8, key(), "full").storage_cost == 64
    assert balanced_style_placement(64, 8, key(), "permutation").storage_cost == 6
    assert balanced_style_placement(64, 8, key(), "pairwise").storage_cost == 6


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
    num, t_len = 1 << log_nodes, 1 << min(log_t, log_nodes)
    k = RandomnessKey(seed)
    nodes = np.array([0, num - 1] + [int(f * num) for f in picks], dtype=np.int64)
    backings = [hashed(num, hash_t, degree, k), uniform(num, hash_t, k),
                TruncatedPermutation(num, t_len, k)]
    if log_nodes <= 12:  # the tables are materialised
        backings += [IdentityPlacement(num), BalancedTable(num, t_len, k)]
    for p in backings:
        fast = p.tests_of(nodes)
        assert fast.dtype == np.int64
        assert fast.tolist() == [p.test_of(j) for j in nodes.tolist()]


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
    """A stack's lookup over a range of repetitions gives, row by row, the
    tests of each repetition's own placement."""
    num = 1 << log_nodes
    if backing == "counter":
        stack = CounterHashStack(num, t_len, row_keys(RandomnessKey(seed), reps))
    else:
        stack = PolynomialStack(num, t_len, reps, 2 if backing == "degree2" else 5,
                                RandomnessKey(seed).generator())
    assert len(stack.rows) == reps == stack.reps
    first = data.draw(st.integers(min_value=0, max_value=reps - 1))
    last = data.draw(st.integers(min_value=first + 1, max_value=reps))
    nodes = np.array(data.draw(st.lists(st.integers(min_value=0, max_value=num - 1),
                                        max_size=20)), dtype=np.int64)
    grid = stack.tests_of(nodes, slice(first, last))
    assert grid.shape == (last - first, len(nodes)) and grid.dtype == np.int64
    for i, rep in enumerate(range(first, last)):
        row = stack.rows[rep]
        assert row.tests_of(nodes).dtype == np.int64
        assert np.array_equal(grid[i], row.tests_of(nodes))
        assert grid[i].tolist() == [row.test_of(int(v)) for v in nodes]


@pytest.mark.parametrize("t_len", [1, 300, 2 ** 31, 2 ** 31 + 1, 2 ** 40])
def test_explicit_stack_width_keeps_draws(t_len):
    """The reference explicit stack (the i.i.d. control of the statistical
    tests) is int32 while every test fits and int64 beyond; either way it
    holds the values of an int64 draw from the same stream."""
    stack = ExplicitStack(64, t_len, 3, RandomnessKey(5).generator())
    assert stack.table.dtype == (np.int32 if t_len <= 2 ** 31 else np.int64)
    expected = RandomnessKey(5).generator().integers(0, t_len, size=(3, 64), dtype=np.int64)
    assert np.array_equal(stack.table, expected)


def test_balanced_table_int32_positions_keep_placement():
    """Positions are int32 while every node id fits; they are the key's int64
    permutation itself, and ``tests_of`` stays int64."""
    num, t_len = 1024, 16
    table = BalancedTable(num, t_len, RandomnessKey(11))
    assert table._positions.dtype == np.int32
    expected = RandomnessKey(11).generator().permutation(num)
    assert np.array_equal(table._positions, expected)
    got = table.tests_of(np.arange(num, dtype=np.int64))
    assert got.dtype == np.int64
    assert np.array_equal(got, expected // (num // t_len))
    assert [table.test_of(v) for v in range(num)] == (expected // (num // t_len)).tolist()


@pytest.mark.parametrize("backing", ["counter", "polynomial", "identity", "balanced",
                                     "truncated"])
def test_stack_lookup_of_no_nodes(backing):
    """Every stack answers an empty node array with a (repetitions x 0)
    grid, for every slice of its repetitions."""
    num, t_len, reps = 64, 8, 3
    if backing == "counter":
        stack = CounterHashStack(num, t_len, row_keys(key(), reps))
    elif backing == "polynomial":
        stack = PolynomialStack(num, t_len, reps, 3, key().generator())
    elif backing == "identity":
        stack = RowStack([IdentityPlacement(num)] * reps)
    else:
        style = "full" if backing == "balanced" else "permutation"
        stack = RowStack(balanced_style_placement(num, t_len, key(rep), style)
                         for rep in range(reps))
    nodes = np.array([], dtype=np.int64)
    for reps_slice, count in [(slice(None), reps), (slice(1, 3), 2), (slice(2, 2), 0)]:
        grid = stack.tests_of(nodes, reps_slice)
        assert grid.shape == (count, 0) and grid.dtype == np.int64
