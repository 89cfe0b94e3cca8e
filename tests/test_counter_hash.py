"""The counter-hash placement of ``hash_mode="full"``: differential tests
against the pure-Python reference in ``scalar_reference.py``, the key
schedule of a whole design, the storage accounting, and statistical tests of
the placement itself.

The statistical bounds come from theory at a fixed false-alarm rate
``ALPHA`` per check, never from fits to the data.  A Pearson statistic over
cells with expected count >= 30 is taken as chi-square distributed, and its
bound is the Laurent-Massart tail P(X - d >= 2 sqrt(d x) + 2x) <= e^-x of a
chi-square with d degrees of freedom, at x = ln(1 / ALPHA).  Collision
counts over disjoint node pairs are binomial, bounded by Bernstein's
inequality.  Every statistical check also runs on the explicit table of
i.i.d. draws the counter hash replaced, as a control for the bounds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import ExplicitStack, counter_hash_test, counter_row_keys, scalar_test
from splitgt import bench
from splitgt.core import RandomnessKey
from splitgt.gamma import build_gamma_design, gamma_params
from splitgt.noisy import build_noisy_design, noisy_params
from splitgt.placements import CounterHashStack, row_keys, uniform_style_stacks

T_LENS = [1, 2, 3, 40, 2 ** 31, 2 ** 32 + 1, 2 ** 62]
ALPHA = 1e-6


# --- differential: stacked and scalar lookups against the reference -------


@settings(max_examples=80, deadline=None)
@given(
    log_nodes=st.integers(min_value=0, max_value=40),
    t_len=st.sampled_from(T_LENS),
    reps=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    data=st.data(),
)
@example(log_nodes=40, t_len=2 ** 62, reps=3, seed=0, data=None)
def test_counter_hash_matches_reference(log_nodes, t_len, reps, seed, data):
    num = 1 << log_nodes
    key = RandomnessKey(seed, ("design",))
    stack = CounterHashStack(num, t_len, row_keys(key, reps))
    keys = counter_row_keys(key, reps)
    assert stack.keys.tolist() == keys
    if data is None:
        first, last, picks = 0, reps, []
    else:
        first = data.draw(st.integers(min_value=0, max_value=reps - 1))
        last = data.draw(st.integers(min_value=first + 1, max_value=reps))
        picks = data.draw(st.lists(st.integers(min_value=0, max_value=num - 1), max_size=20))
    nodes = np.array([0, num - 1] + picks, dtype=np.int64)
    expected = [[counter_hash_test(keys[r], v, t_len) for v in nodes.tolist()]
                for r in range(first, last)]
    grid = stack.tests_of(nodes, slice(first, last))
    assert grid.dtype == np.int64 and grid.tolist() == expected
    for r, want in zip(range(first, last), expected):
        assert stack.tests_of(nodes, slice(r, r + 1))[0].tolist() == want
        assert [scalar_test(stack, v, r) for v in nodes.tolist()] == want


@pytest.mark.parametrize("t_len", [0, 2 ** 63])
def test_counter_hash_rejects_t_len_out_of_range(t_len):
    with pytest.raises(ValueError):
        CounterHashStack(8, t_len, row_keys(RandomnessKey(1), 1))


@pytest.mark.parametrize("scheme", ["gamma", "noisy"])
def test_full_design_rows_follow_one_key(scheme):
    """Every hashed level of a full-mode design is a counter-hash stack, and
    the row keys are those of the one design key, in layout order."""
    key, n = RandomnessKey(31, (5, "design")), 2 ** 12
    if scheme == "gamma":
        design = build_gamma_design(gamma_params(n, 4, 6), n, key)
    else:
        design = build_noisy_design(noisy_params(n, 8, 0.05), n, 8, key)
    hashed = [stack for stack in design.stacks.values() if isinstance(stack, CounterHashStack)]
    assert len(hashed) == len(design.stacks) - (scheme == "gamma")  # gamma's level 1 is identity
    keys = counter_row_keys(key, sum(stack.reps for stack in hashed))
    segments = [(stack, rep) for stack in hashed for rep in range(stack.reps)]
    for (stack, rep), row_key in zip(segments, keys):
        node = stack.num_nodes - 1
        got = stack.tests_of(np.array([node]), slice(rep, rep + 1)).item()
        assert got == counter_hash_test(row_key, node, stack.t_len)


def test_full_designs_store_no_table():
    """A full-mode design is O(rows) to build at any n: n = 2^40 builds, runs
    and decodes, and its storage is still the n-word tables the paper's
    algorithm stores."""
    n, k = 2 ** 40, 16
    params = gamma_params(n, k, 6)
    design = build_gamma_design(params, n, RandomnessKey(3))
    assert design.storage_words == 1 + sum(stack.reps * (n // design.node_size(level))
                                           for level, stack in list(design.stacks.items())[1:])
    result = bench.run_trials(bench.TrialConfig(algorithm="gamma", n=n, k=k, gamma=6,
                                                trials=2, base_seed=5))
    assert result.error is None and result.successes == 2
    design = build_noisy_design(noisy_params(n, k, 0.05), n, k, RandomnessKey(3))
    assert design.storage_words == sum(stack.reps * (1 << level)
                                       for level, stack in design.stacks.items())


# --- statistics of the placement -------------------------------------------


def chi2_bound(df: int) -> float:
    x = math.log(1 / ALPHA)
    return df + 2 * math.sqrt(df * x) + 2 * x


def pearson(cells: np.ndarray, num_cells: int) -> float:
    counts = np.bincount(cells, minlength=num_cells)
    expected = len(cells) / num_cells
    return float(((counts - expected) ** 2).sum() / expected)


def stacks(backing: str, shapes, seed: int):
    """One stack per (num_nodes, t_len, reps): the counter hash of a design
    key, or the explicit i.i.d. table from the key's generator (the
    control)."""
    key = RandomnessKey(seed, ("stats",))
    if backing == "counter":
        return uniform_style_stacks(shapes, key, None)
    rng = key.generator()
    return [ExplicitStack(num, t_len, reps, rng) for num, t_len, reps in shapes]


@pytest.mark.parametrize("backing,first", [("counter", 0), ("counter", 2 ** 40 - 2 ** 16),
                                           ("explicit", 0)])
@pytest.mark.parametrize("t_len", [2, 3, 40, 1000])
def test_row_bucket_chi_square(backing, first, t_len):
    """Each row spreads 2^16 consecutive nodes evenly over its tests."""
    num = 2 ** 16
    stack, = stacks(backing, [(first + num, t_len, 4)], seed=t_len)
    grid = stack.tests_of(first + np.arange(num, dtype=np.int64))
    for row in grid:
        assert pearson(row, t_len) <= chi2_bound(t_len - 1)


@pytest.mark.parametrize("backing", ["counter", "explicit"])
@pytest.mark.parametrize("gap", [1, 2 ** 16])
@pytest.mark.parametrize("t_len", [2, 40, 1000])
def test_row_pair_collision_rate(backing, gap, t_len):
    """Two nodes of one row share a test with probability 1 / t_len.  Over
    2^16 disjoint pairs (j, j + gap) in each of 8 rows the collisions are
    binomial; Bernstein's inequality bounds their deviation at ALPHA."""
    pairs = 2 ** 16
    if gap == 1:
        left = 2 * np.arange(pairs, dtype=np.int64)
    else:
        left = np.arange(pairs, dtype=np.int64)
    stack, = stacks(backing, [(2 * pairs, t_len, 8)], seed=gap + t_len)
    hits = int((stack.tests_of(left) == stack.tests_of(left + gap)).sum())
    trials, p = 8 * pairs, 1 / t_len
    log_term = math.log(2 / ALPHA)
    bound = log_term / 3 + math.sqrt(log_term ** 2 / 9 + 2 * trials * p * (1 - p) * log_term)
    assert abs(hits - trials * p) <= bound


def _joint_bound_holds(a: np.ndarray, b: np.ndarray, t_a: int, t_b: int) -> bool:
    return pearson(a * t_b + b, t_a * t_b) <= chi2_bound(t_a * t_b - 1)


SHIFTS = (0, 1, 2)


@pytest.mark.parametrize("backing", ["counter", "explicit"])
@pytest.mark.parametrize("seed", [1, 2])
def test_joint_chi_square_across_reps_and_levels(backing, seed):
    """The tests of node j + s under one rep of a level and of node j under
    another rep, or under another level, are independent for small shifts
    s: the pairs fill the t_a x t_b cells evenly.  (Row keys in arithmetic
    progression would make one row the other shifted by a node.)"""
    num = 2 ** 16
    level, other = stacks(backing, [(num, 32, 2), (num, 40, 1)], seed)
    nodes = np.arange(num, dtype=np.int64)
    reps, across = level.tests_of(nodes), other.tests_of(nodes)[0]
    for s in SHIFTS:
        assert _joint_bound_holds(reps[0][s:], reps[1][:num - s], 32, 32)
        assert _joint_bound_holds(reps[0][s:], across[:num - s], 32, 40)


def test_joint_chi_square_noisy_design_levels():
    """The same on a noisy design: a node at the second-last level against
    another rep of it, the same node id at the last level, and its first
    child there."""
    n, k = 2 ** 16, 8
    params = noisy_params(n, k, 0.05)
    design = build_noisy_design(params, n, k, RandomnessKey(9, ("design",)))
    t_len, half = params.t_len, n // 2
    upper = np.arange(half, dtype=np.int64)
    above = design.stacks[15].tests_of(upper, slice(0, 2))
    below = design.stacks[16].tests_of(np.concatenate([upper, 2 * upper]), slice(0, 1))[0]
    for s in SHIFTS:
        assert _joint_bound_holds(above[0][s:], above[1][:half - s], t_len, t_len)
        assert _joint_bound_holds(above[0][s:], below[:half - s], t_len, t_len)
    assert _joint_bound_holds(above[0], below[half:], t_len, t_len)
