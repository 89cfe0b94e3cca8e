from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import (
    ExplicitStack,
    IncidenceDesign,
    batch_reports,
    build_flat_design_2d,
    build_flat_design_per_item,
    decode_comp_scalar,
    decode_ncomp_scalar,
    flat_design,
    flat_positives_scalar,
    flatten_design_per_segment,
    item_masks_scalar,
    member_sets,
    table_design,
)
from splitgt import baselines
from splitgt.baselines import (
    FlatDesign,
    build_flat_design,
    decode_comp,
    decode_ncomp,
    flatten_design,
    ml_minimizers,
    ncomp_misses,
    oracle_consistent_sets,
    oracle_ml,
)
from splitgt.core import (
    NoiseChannel,
    OutcomeVector,
    ProblemInstance,
    RandomnessKey,
    evaluate_batch,
    evaluate_design,
)
from splitgt.gamma import build_gamma_design, gamma_params
from splitgt.noisy import build_noisy_design, noisy_params
from splitgt.rho import build_rho_design, rho_params
from splitgt import tree
from splitgt.tree import decode_tree_batch
from hash_modes import EVERY_PAIR, TREE_DESIGNS, refused
from test_counter_hash import chi2_bound, pearson


def _vec(design, bits):
    return OutcomeVector(bits=np.array(bits, dtype=np.uint8), layout=design.layout)


def test_flat_design_validates_ids():
    # an item id is a column of the incidence matrix, so an out-of-range id
    # cannot be expressed; the matrix itself must be 2-D and boolean
    assert FlatDesign(np.zeros((1, 4), dtype=bool)).n == 4
    for members in (np.zeros(4, dtype=bool), np.zeros((1, 4), dtype=np.uint8),
                    np.zeros((1, 2, 2), dtype=bool)):
        with pytest.raises(ValueError):
            FlatDesign(members)


def test_comp_examples():
    # one repetition of two tests: items 0 and 1 in test 0, items 2 and 3 in test 1
    design = table_design(2, [[0, 0, 1, 1]])
    assert decode_comp(design, _vec(design, [1, 0]))[0] == (0, 1)
    assert decode_comp(design, _vec(design, [0, 0]))[0] == ()
    assert decode_comp(design, _vec(design, [1, 1]))[0] == (0, 1, 2, 3)
    # a second repetition clears item 1 and keeps item 0
    design = table_design(2, [[0, 0, 1, 1], [0, 1, 1, 1]])
    estimate, report = decode_comp(design, _vec(design, [1, 0, 1, 0]))
    assert estimate == (0,)
    assert (report.outcomes_read, report.nodes_visited, report.peak_frontier) == (4, 4, 4)
    assert decode_comp_scalar(4, member_sets(flatten_design(design)), [1, 0, 1, 0]) == (0,)


def test_ncomp_threshold_zero_equals_comp():
    base = RandomnessKey(10)
    rng = np.random.default_rng(0)
    for i in range(100):
        design = build_flat_design(12, 20, base.child(i), k=3)
        vec = _vec(design, rng.integers(0, 2, size=design.t_total))
        assert decode_ncomp(design, vec, 0.0) == decode_comp(design, vec)


def test_ncomp_fraction_rule():
    # item 0 sits in test 0 of each of 10 repetitions, one of them negative,
    # and item 1 in test 1: flagged at threshold 0.2, not at 0.05
    design = table_design(2, [[0, 1]] * 10)
    bits = [1, 1] * 9 + [0, 1]
    assert ncomp_misses(design, 0.2) == 2 and ncomp_misses(design, 0.05) == 0
    assert decode_ncomp(design, _vec(design, bits), 0.2)[0] == (0, 1)
    assert decode_ncomp(design, _vec(design, bits), 0.05)[0] == (1,)
    tests = member_sets(flatten_design(design))
    assert decode_ncomp_scalar(2, tests, bits, 0.2) == (0, 1)
    assert decode_ncomp_scalar(2, tests, bits, 0.05) == (1,)
    with pytest.raises(ValueError, match="threshold"):
        decode_ncomp(design, _vec(design, bits), 1.5)


def test_oracle_consistent_sets_example():
    design = flat_design(4, ({0, 1}, {2, 3}, {0}))
    got = oracle_consistent_sets(design, _vec(design, [1, 0, 0]), k=1)
    assert got == [(1,)]


def test_oracle_consistent_sets_all_zero_and_inconsistent():
    design = flat_design(4, ({0, 1}, {2, 3}))
    assert oracle_consistent_sets(design, _vec(design, [0, 0]), k=2) == [()]
    design2 = flat_design(2, ({0}, {0}))
    assert oracle_consistent_sets(design2, _vec(design2, [1, 0]), k=1) == []


def test_oracle_budget_guard():
    design = flat_design(21, ({0},))
    with pytest.raises(ValueError):
        oracle_consistent_sets(design, _vec(design, [0]), k=1)
    small = flat_design(4, ({0},))
    with pytest.raises(ValueError):
        ml_minimizers(small, _vec(small, [0]), k=5)


def test_oracle_ml_no_noise_returns_truth():
    key = RandomnessKey(3)
    design = flatten_design(build_flat_design(10, 25, key, k=2))
    inst = ProblemInstance(n=16, k=2, defectives=(3, 7))
    # flat design over 10 live items inside a padded instance
    padded = IncidenceDesign(np.pad(design.members, ((0, 0), (0, 6))))
    out = evaluate_design(padded, inst, NoiseChannel.noiseless(), key)
    assert oracle_ml(padded, out, k=2, p=0.05) == (3, 7)


def test_oracle_ml_single_flip_exhaustive():
    # n=8, k=1: for every truth and every single flipped bit, the oracle
    # recovers the truth whenever it is the unique nearest set
    key = RandomnessKey(8)
    design = build_flat_design(8, 12, key, k=1)
    flat = flatten_design(design)
    channel = NoiseChannel.noiseless()
    for truth in range(8):
        inst = ProblemInstance(n=8, k=1, defectives=(truth,))
        clean = evaluate_design(design, inst, channel, key)
        for flip in range(design.t_total):
            bits = clean.bits.copy()
            bits[flip] ^= 1
            noisy_vec = _vec(design, bits)
            mins = ml_minimizers(flat, noisy_vec, k=1)
            if mins == [(truth,)]:
                assert oracle_ml(flat, noisy_vec, k=1, p=0.05) == (truth,)
            else:
                assert (truth,) in mins or len(mins) >= 1


def test_oracle_ml_tie_breaks_lexicographically():
    # items 0 and 1 are indistinguishable by the design
    design = flat_design(4, ({0, 1}, {2}, {3}))
    out = _vec(design, [1, 0, 0])
    mins = ml_minimizers(design, out, k=1)
    assert (0,) in mins and (1,) in mins
    assert oracle_ml(design, out, k=1, p=0.1) == (0,)


def test_oracle_ml_rejects_bad_p():
    design = flat_design(4, ({0},))
    with pytest.raises(ValueError):
        oracle_ml(design, _vec(design, [1]), k=1, p=0.5)


def test_flatten_gamma_design():
    n = 16
    params = gamma_params(n, 2, 3)
    design = build_gamma_design(params, n, RandomnessKey(4))
    flat = flatten_design(design)
    assert flat.t_total == design.t_total
    assert flat.members.any(axis=0).all()  # every item is covered


def test_flatten_rho_design_respects_cap():
    n, cap = 64, 4
    params = rho_params(n, 2, cap)
    design = build_rho_design(params, n, RandomnessKey(4))
    flat = flatten_design(design)
    assert flat.t_total == design.t_total
    assert flat.members.sum(axis=1).max() <= cap


def _tree_design(scheme, hash_mode, n, k, key):
    if scheme == "gamma":
        return build_gamma_design(gamma_params(n, k, 3), n, key, hash_mode)
    if scheme == "rho":
        return build_rho_design(rho_params(n, k, 4), n, key, hash_mode)
    return build_noisy_design(noisy_params(n, k, 0.05), n, k, key, hash_mode)


def test_flat_evaluation_matches_tree_evaluation():
    # the flattened design sees exactly the same noiseless outcomes, on every
    # scheme and backing, for random defective sets
    n, k = 32, 2
    rng = np.random.default_rng(6)
    channel = NoiseChannel.noiseless()
    for scheme, hash_mode in TREE_DESIGNS:
        for seed in range(4):
            design = _tree_design(scheme, hash_mode, n, k, RandomnessKey(seed, (scheme,)))
            flat = IncidenceDesign(flatten_design(design).members)
            assert flat.storage_words == len(design.layout) * n  # one test per item per segment
            for _ in range(5):
                count = int(rng.integers(0, k + 1))
                defectives = tuple(sorted(int(d) for d in rng.choice(n, count, replace=False)))
                inst = ProblemInstance(n=n, k=k, defectives=defectives)
                tree_out = evaluate_design(design, inst, channel, RandomnessKey(1))
                flat_out = evaluate_design(flat, inst, channel, RandomnessKey(2))
                assert list(tree_out.bits) == list(flat_out.bits), (scheme, hash_mode)


@pytest.mark.parametrize("scheme,hash_mode", EVERY_PAIR)
def test_flatten_matches_per_segment_scatter(scheme, hash_mode):
    """One stacked lookup per level writes the matrix that one whole-table
    scatter per segment wrote, and the design's membership and load checks
    read the same matrix, in every hash mode the scheme takes."""
    n, k = 64, 2
    if refused(scheme, hash_mode,
               lambda: _tree_design(scheme, hash_mode, n, k, RandomnessKey(0, ("flat",)))):
        return
    for seed in range(3):
        design = _tree_design(scheme, hash_mode, n, k, RandomnessKey(seed, ("flat",)))
        members = flatten_design(design).members
        assert np.array_equal(members, flatten_design_per_segment(design).members)
        assert design.memberships_per_item() == members.sum(axis=0).tolist()
        assert design.max_items_per_test() == members.sum(axis=1).max()


def test_an_explicit_table_design_runs_through_the_descent():
    """A one-level tree design over the stored i.i.d. table of
    ``scalar_reference.ExplicitStack`` evaluates through ``noiseless_grid``
    to the positives of its flattened tests and decodes through
    ``decode_tree_batch`` to the estimate COMP gives on them."""
    n, t_len, reps = 64, 12, 4
    for seed in range(5):
        stack = ExplicitStack(n, t_len, reps, RandomnessKey(seed).generator())
        design = tree.TreeDesign(n, None, [(0, stack)])
        assert design.trials is None and design.t_total == reps * t_len
        sets = member_sets(flatten_design_per_segment(design))
        for truth in [(), (3,), (5, 40), (0, 17, 63)]:
            grid = design.noiseless_grid([truth])
            assert np.flatnonzero(grid[0]).tolist() == flat_positives_scalar(sets, truth)
            estimate = decode_tree_batch(design, grid).report(0).estimate
            assert estimate == decode_comp_scalar(n, sets, grid[0].tolist())
            assert set(truth) <= set(estimate)


@st.composite
def _irregular_designs(draw):
    """Member sets with empty tests, repeated tests and uncovered items."""
    n = draw(st.integers(1, 12))
    tests = draw(st.lists(st.frozensets(st.integers(0, n - 1), max_size=n), max_size=10))
    repeats = draw(st.lists(st.integers(0, max(len(tests) - 1, 0)), max_size=3))
    tests = tuple(tests) + tuple(tests[i] for i in repeats if tests)
    bits = draw(st.lists(st.integers(0, 1), min_size=len(tests), max_size=len(tests)))
    defectives = draw(st.frozensets(st.integers(0, n - 1), max_size=3))
    return n, tests, bits, sorted(defectives)


@settings(max_examples=300, deadline=None)
@given(_irregular_designs())
def test_matrix_paths_match_set_reference(case):
    """The incidence matrix's evaluation and the oracles' bitmasks agree
    with the member sets, empty, repeated and uncovered included."""
    n, tests, bits, defectives = case
    design = flat_design(n, tests)
    assert design.storage_words == sum(len(t) for t in tests)
    grid = design.noiseless_grid([defectives, []])
    assert grid.shape == (2, len(tests)) and grid.dtype == np.uint8 and not grid[1].any()
    assert np.flatnonzero(grid[0]).tolist() == flat_positives_scalar(tests, defectives)
    assert member_sets(design) == [frozenset(test) for test in tests]
    vec = _vec(design, bits)
    assert baselines._item_masks(design) == item_masks_scalar(n, tests)
    assert baselines._bitmask(vec.bits) == sum(1 << i for i, b in enumerate(bits) if b)


@st.composite
def _flat_shapes(draw):
    tests_count = draw(st.integers(1, 64))
    return draw(st.integers(1, 50)), tests_count, draw(st.integers(1, tests_count))


@settings(max_examples=200, deadline=None)
@given(_flat_shapes(), st.integers(0, 2 ** 32))
@example((9, 1, 1), 0)
@example((9, 12, 1), 0)
@example((9, 12, 5), 0)
@example((9, 12, 12), 0)
def test_build_flat_design_constant_column_weight(shape, seed):
    """Every item joins exactly w distinct tests, one in each of the w
    segments of ceil(T / w) tests, weight 1 and weight T included."""
    n, tests_count, weight = shape
    design = build_flat_design(n, tests_count, RandomnessKey(seed), per_item=weight)
    t_len = -(-tests_count // weight)
    assert baselines.flat_shape(tests_count, per_item=weight) == (weight, t_len)
    assert design.layout == tuple((0, rep, t_len) for rep in range(weight))
    assert design.t_total == weight * t_len >= tests_count
    assert design.storage_words == n * weight
    members = flatten_design(design).members
    assert members.shape == (weight * t_len, n)
    assert np.all(members.sum(axis=0) == weight)
    assert np.all(members.reshape(weight, t_len, n).sum(axis=1) == 1)


@settings(max_examples=200, deadline=None)
@given(_flat_shapes(), st.integers(0, 2 ** 32))
@example((9, 1, 1), 0)
@example((9, 12, 1), 0)
@example((9, 12, 12), 0)
def test_floyd_draw_exact_column_weight(shape, seed):
    """The previous design's Floyd draw gives every item exactly w of the T
    tests."""
    n, tests_count, weight = shape
    members = build_flat_design_2d(n, tests_count, weight, RandomnessKey(seed).generator()).members
    assert members.shape == (tests_count, n)
    assert np.all(members.sum(axis=0) == weight)


def test_flat_design_weight_follows_the_budget():
    # round(T * ln2 / k), clipped to [1, T]: 362 tests at k=8 give 31
    # segments of 12, so T = 372
    assert baselines.flat_shape(362, 8) == (31, 12)
    assert baselines.flat_shape(1, 4) == (1, 1)
    assert baselines.flat_shape(5, 64) == (1, 5)
    assert baselines.flat_shape(4, 1, per_item=9) == (4, 1)
    with pytest.raises(ValueError):
        baselines.flat_shape(0)


@pytest.mark.parametrize("p", [0.0, 0.05])
@pytest.mark.parametrize("threshold", [0.0, 0.15, 1.0])
def test_descent_matches_scalar_comp_and_ncomp(p, threshold):
    """COMP and NCOMP as the one-level descent flag exactly the items that
    the set-based decoders flag on the design's incidence matrix: on a
    design of one trial's keys, and on every row of a design of a batch."""
    n, k, tests, trials = 16, 2, 24, 16
    root, channel = RandomnessKey(41, (int(p * 100),)), NoiseChannel(p)
    rng = np.random.default_rng(int(p * 100))
    truths = [tuple(sorted(rng.choice(n, int(rng.integers(0, k + 1)), replace=False).tolist()))
              for _ in range(trials)]
    batch = build_flat_design(n, tests, root.materials(range(trials), "design"), k=k)
    grid = evaluate_batch(batch, truths, channel, root.materials(range(trials), "noise"))
    misses = ncomp_misses(batch, threshold)
    comp = batch_reports(decode_tree_batch(batch, grid))
    ncomp = batch_reports(decode_tree_batch(batch, grid, misses))
    # looked up under every repetition at once above, repetition by repetition here
    with mock.patch.object(tree, "BATCH_NODES", 0):
        assert batch_reports(decode_tree_batch(batch, grid)) == comp
        assert batch_reports(decode_tree_batch(batch, grid, misses)) == ncomp
    for index, truth in enumerate(truths):
        design = build_flat_design(n, tests, root.child(index, "design"), k=k)
        out = evaluate_design(design, ProblemInstance(n=n, k=k, defectives=truth), channel,
                              root.child(index, "noise"))
        assert out.bits.tolist() == grid[index].tolist()
        sets, bits = member_sets(flatten_design(design)), out.bits.tolist()
        want = decode_comp_scalar(n, sets, bits)
        assert decode_comp(design, out)[0] == comp[index].estimate == want
        want = decode_ncomp_scalar(n, sets, bits, threshold)
        assert decode_ncomp(design, out, threshold)[0] == ncomp[index].estimate == want
        assert decode_comp(design, out)[1] == comp[index]
        assert decode_ncomp(design, out, threshold)[1] == ncomp[index]


# The previous design's Floyd draw (see scalar_reference.previous_flat_scheme,
# which reproduces the previous golden digests) against the per-item
# ``rng.choice`` it replaced (the control): the w-subset of each item, ranked
# among all C(T, w) subsets, must be uniform and independent across items.
# Bounds as in test_counter_hash.py.
SUBSET_T, SUBSET_W = 6, 3
SUBSETS = np.array(sorted(sum(1 << t for t in c)
                          for c in combinations(range(SUBSET_T), SUBSET_W)))
DRAWS = {
    "floyd": lambda n, key: build_flat_design_2d(n, SUBSET_T, SUBSET_W, key.generator()),
    "per-item": lambda n, key: build_flat_design_per_item(n, SUBSET_T, SUBSET_W,
                                                          key.generator()),
}


def _subset_ranks(draw: str, n: int, seed: int) -> np.ndarray:
    members = DRAWS[draw](n, RandomnessKey(seed, ("floyd",))).members
    masks = (members.astype(np.int64) << np.arange(SUBSET_T)[:, None]).sum(axis=0)
    ranks = np.searchsorted(SUBSETS, masks)
    assert np.array_equal(SUBSETS[ranks], masks)
    return ranks


@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_floyd_draw_subset_chi_square(draw):
    """Every one of the 20 subsets is equally likely: 200 items per cell."""
    cells = len(SUBSETS)
    ranks = _subset_ranks(draw, 200 * cells, seed=1)
    assert pearson(ranks, cells) <= chi2_bound(cells - 1)


@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_floyd_draw_joint_chi_square_over_item_pairs(draw):
    """The subsets of items 2i and 2i + 1 fill the 20 x 20 cells evenly
    (40 pairs per cell): one draw shared across items would not."""
    cells = len(SUBSETS) ** 2
    ranks = _subset_ranks(draw, 2 * 40 * cells, seed=2)
    assert pearson(ranks[0::2] * len(SUBSETS) + ranks[1::2], cells) <= chi2_bound(cells - 1)
