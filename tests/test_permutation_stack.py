"""The keyed-permutation stack behind every balanced placement of the rho
scheme: differential tests against the pure-Python reference in
``scalar_reference.py``, exact weights, the key schedule of a design, the
storage accounting, and statistical tests of the permutation.

The statistical checks follow ``tests/test_counter_hash.py``: bounds from
theory at a false-alarm rate ``ALPHA`` per check, never fits.  Each check
runs on one stack of ``ROWS`` rows, one independent keyed permutation per
row, so a check over 20,000 keys is one vectorised lookup.  What a balanced
placement must share with a uniformly random permutation is:

  - each node's test is uniform over the tests (a Pearson statistic over
    cells with expected count >= 30, at the Laurent-Massart bound);
  - two distinct nodes share a test with probability (w - 1) / (m - 1), for
    row weight w over m nodes (a binomial count over the rows, at
    Bernstein's bound);
  - different rows, of one level or of two levels of a design, place a node
    independently (Pearson over the joint cells).

Six Feistel rounds fail the pair check on 4 to 32 nodes, which is why
``placements.feistel_rounds`` runs 24 rounds there.  Two or four rounds
everywhere, or one round key reused for every round, fail these checks
too.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hash_modes import NAMES, refused
from scalar_reference import counter_row_keys, keyed_permutation_test, scalar_test, shaped_stacks
from splitgt.core import RandomnessKey
from splitgt.placements import (
    PermutationStack,
    feistel_rounds,
    permutation,
    row_keys,
)
from splitgt.rho import build_rho_design, rho_params

ALPHA = 1e-6
ROWS = 20_000
BITS = range(2, 21)


def stack_of(bits: int, log_t: int, reps: int, seed: int = 0, full: bool = True):
    """One stack of ``reps`` keyed permutations of 2^bits nodes into 2^log_t
    tests, its round keys from one design key."""
    shape = (1 << bits, 1 << log_t, reps)
    stack, = shaped_stacks([shape], RandomnessKey(seed, ("perm", bits, log_t)), permutation(full))
    return stack


# --- structure and differential checks -------------------------------------


@pytest.mark.parametrize("bits", range(0, 17))
def test_exact_row_weight_every_t_len(bits):
    """Every row of every stack puts exactly num_nodes / t_len nodes into
    each test, for every t_len from 1 to num_nodes."""
    nodes = np.arange(1 << bits, dtype=np.int64)
    for log_t in range(bits + 1):
        stack = stack_of(bits, log_t, 3, seed=log_t)
        grid = stack.tests_of(nodes)
        assert grid.shape == (3, 1 << bits) and grid.dtype == np.int64
        for row in grid:
            assert np.all(np.bincount(row, minlength=1 << log_t) == 1 << (bits - log_t))


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=62),
    log_t=st.integers(min_value=0, max_value=62),
    reps=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    data=st.data(),
)
@example(bits=62, log_t=31, reps=2, seed=0, data=None)
@example(bits=1, log_t=0, reps=3, seed=1, data=None)
@example(bits=0, log_t=0, reps=1, seed=2, data=None)
def test_stack_matches_rows_and_reference(bits, log_t, reps, seed, data):
    """The stacked lookup equals, element for element, the lookup of each
    repetition alone, the scalar lookup of ``scalar_reference.scalar_test``,
    and the pure-Python reference."""
    num, log_t = 1 << bits, min(log_t, bits)
    stack, = shaped_stacks([(num, 1 << log_t, reps)], RandomnessKey(seed), permutation(False))
    if data is None:
        first, last, picks = 0, reps, []
    else:
        first = data.draw(st.integers(min_value=0, max_value=reps - 1))
        last = data.draw(st.integers(min_value=first + 1, max_value=reps))
        picks = data.draw(st.lists(st.integers(min_value=0, max_value=num - 1), max_size=20))
    nodes = np.array([0, num - 1] + picks, dtype=np.int64)
    grid = stack.tests_of(nodes, slice(first, last))
    assert grid.shape == (last - first, len(nodes)) and grid.dtype == np.int64
    for i, rep in enumerate(range(first, last)):
        alone = stack.tests_of(nodes, slice(rep, rep + 1))[0]
        keys = stack.round_keys[rep].tolist()
        want = [keyed_permutation_test(keys, v, bits, bits - log_t) for v in nodes.tolist()]
        assert grid[i].tolist() == want
        assert alone.dtype == np.int64
        assert alone.tolist() == want
        assert [scalar_test(stack, v, rep) for v in nodes.tolist()] == want


def test_stack_is_a_bijection_on_small_domains():
    """With one node per test the rows are permutations of the node ids."""
    for bits in range(0, 13):
        nodes = np.arange(1 << bits, dtype=np.int64)
        for row in stack_of(bits, bits, 4, seed=bits).tests_of(nodes):
            assert np.array_equal(np.sort(row), nodes)


def test_stack_lookup_of_no_nodes():
    stack = stack_of(6, 3, 3)
    nodes = np.array([], dtype=np.int64)
    for reps, count in [(slice(None), 3), (slice(1, 3), 2), (slice(2, 2), 0)]:
        grid = stack.tests_of(nodes, reps)
        assert grid.shape == (count, 0) and grid.dtype == np.int64
    assert stack.tests_of(nodes, slice(0, 1))[0].shape == (0,)


def test_stack_rejects_bad_sizes():
    keys = row_keys(RandomnessKey(1), 6).reshape(1, 6)
    for num, t_len in [(12, 4), (16, 3), (8, 16)]:
        with pytest.raises(ValueError):
            PermutationStack(num, t_len, keys, full=True)
    with pytest.raises(ValueError, match="hash mode 'bogus'"):
        build_rho_design(rho_params(16, 1, 4), 16, RandomnessKey(1), "bogus")


def test_rounds_schedule():
    assert [feistel_rounds(b) for b in range(0, 8)] == [24] * 6 + [6] * 2
    assert feistel_rounds(62) == 6


def test_storage_cost_by_mode():
    """``full`` accounts each row as the paper's n-word position table, the
    low-storage accounting as the round keys plus two words."""
    for bits, rounds in [(4, 24), (14, 6)]:
        shape = [(1 << bits, 4, 3)]
        for full in (True, False):
            stack, = shaped_stacks(shape, RandomnessKey(2), permutation(full))
            row_cost = (1 << bits) if full else rounds + 2
            assert stack.storage_cost == 3 * row_cost
            one, = shaped_stacks([(1 << bits, 4, 1)], RandomnessKey(2), permutation(full))
            assert one.storage_cost == row_cost


@pytest.mark.parametrize("hash_mode", NAMES)
def test_rho_design_keys_follow_one_key(hash_mode):
    """A rho design's round keys are those of one ``row_keys`` call on the
    design key, level by level, row by row, round by round, in every mode
    rho takes; and only the storage accounting depends on the mode."""
    n, key = 2 ** 12, RandomnessKey(31, (5, "design"))

    def build():
        return build_rho_design(rho_params(n, 4, 2 ** 6, c_depth=3), n, key, hash_mode)

    if refused("rho", hash_mode, build):
        return
    design = build()
    stacks = list(design.stacks.values())[1:]
    assert all(isinstance(stack, PermutationStack) for stack in stacks)
    got = np.concatenate([stack.round_keys.ravel() for stack in stacks]).tolist()
    assert got == counter_row_keys(key, len(got))
    full = build_rho_design(rho_params(n, 4, 2 ** 6, c_depth=3), n, key, "full")
    for level, _, _ in design.layout:
        nodes = np.arange(design.stacks[level].num_nodes, dtype=np.int64)
        assert np.array_equal(design.stacks[level].tests_of(nodes),
                              full.stacks[level].tests_of(nodes))


@pytest.mark.parametrize("hash_mode", NAMES)
def test_rho_size_cap_every_mode(hash_mode):
    n = 2 ** 10
    for rho_cap, depth, seed in [(2 ** 2, 2, 0), (2 ** 4, 2, 1), (2 ** 6, 3, 2), (2 ** 9, 3, 3)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = rho_params(n, 4, rho_cap, c_depth=depth)
        if refused("rho", hash_mode,
                   lambda: build_rho_design(params, n, RandomnessKey(seed), hash_mode)):
            return
        design = build_rho_design(params, n, RandomnessKey(seed), hash_mode)
        assert design.max_items_per_test() <= rho_cap
        for level, rep, _ in design.layout[1:]:
            stack = design.stacks[level]
            nodes = np.arange(stack.num_nodes, dtype=np.int64)
            counts = np.bincount(stack.tests_of(nodes)[rep], minlength=stack.t_len)
            assert np.all(counts == stack.num_nodes // stack.t_len)


# --- statistics of the permutation -----------------------------------------


def chi2_bound(df: int) -> float:
    x = math.log(1 / ALPHA)
    return df + 2 * math.sqrt(df * x) + 2 * x


def pearson(cells: np.ndarray, num_cells: int) -> float:
    counts = np.bincount(cells, minlength=num_cells)
    expected = len(cells) / num_cells
    return float(((counts - expected) ** 2).sum() / expected)


def bernstein_bound(trials: int, p: float) -> float:
    log_term = math.log(2 / ALPHA)
    return log_term / 3 + math.sqrt(log_term ** 2 / 9 + 2 * trials * p * (1 - p) * log_term)


def probe_nodes(bits: int) -> list[int]:
    """Nodes next to 0 in each half of the Feistel split, and the far end."""
    num, lo_bits = 1 << bits, (bits + 1) // 2
    return sorted({1, 2, 1 << lo_bits, num // 2, num - 1} - {0, num})


@pytest.mark.parametrize("bits", BITS)
def test_node_test_is_uniform(bits):
    """Over the rows, each probe node's test (its position itself, up to
    2^8 nodes) is uniform."""
    log_t = min(bits, 8)
    stack = stack_of(bits, log_t, ROWS, seed=1)
    grid = stack.tests_of(np.array([0] + probe_nodes(bits), dtype=np.int64))
    for column in grid.T:
        assert pearson(column, 1 << log_t) <= chi2_bound((1 << log_t) - 1)


@pytest.mark.parametrize("bits", BITS)
def test_pair_shares_a_test_at_the_uniform_rate(bits):
    """Node 0 and each probe node share a test in (w - 1) / (m - 1) of the
    rows, for row weights 2, about sqrt(m), and m / 2."""
    num = 1 << bits
    nodes = np.array([0] + probe_nodes(bits), dtype=np.int64)
    for log_w in sorted({1, bits // 2, bits - 1} - {0}):
        stack = stack_of(bits, bits - log_w, ROWS, seed=2 + log_w)
        grid = stack.tests_of(nodes)
        p = ((1 << log_w) - 1) / (num - 1)
        for column in grid[:, 1:].T:
            hits = int((column == grid[:, 0]).sum())
            assert abs(hits - ROWS * p) <= bernstein_bound(ROWS, p), (log_w, hits, ROWS * p)


SHIFTS = (0, 1)


@pytest.mark.parametrize("bits", BITS)
def test_rows_place_independently(bits):
    """The tests of node j under one row and of node j + s under the next
    row of the same stack fill the t x t joint cells evenly."""
    log_t = min(bits, 4)
    t_len = 1 << log_t
    grid = stack_of(bits, log_t, ROWS, seed=3).tests_of(np.array([0, 1], dtype=np.int64))
    for s in SHIFTS:
        joint = grid[0::2, 0] * t_len + grid[1::2, s]
        assert pearson(joint, t_len * t_len) <= chi2_bound(t_len * t_len - 1)


@pytest.mark.parametrize("bits", [2, 5, 6, 11, 14, 20])
def test_levels_place_independently(bits):
    """Two levels cut from one ``row_keys`` sequence as ``level_stacks``
    cuts a design's, the last row of one level next to the first row of the
    next: node 0 under the one and under the other are placed
    independently."""
    log_t = min(bits - 1, 4)
    t_len = 1 << log_t
    r_up, r_down = feistel_rounds(bits - 1), feistel_rounds(bits)
    keys = row_keys(RandomnessKey(4, ("levels", bits)), ROWS * (r_up + r_down))
    keys = keys.reshape(ROWS, r_up + r_down)
    upper = PermutationStack(1 << (bits - 1), t_len, keys[:, :r_up], full=True)
    lower = PermutationStack(1 << bits, t_len, keys[:, r_up:], full=True)
    node = np.array([0], dtype=np.int64)
    above, below = upper.tests_of(node)[:, 0], lower.tests_of(node)[:, 0]
    assert pearson(above * t_len + below, t_len * t_len) <= chi2_bound(t_len * t_len - 1)
