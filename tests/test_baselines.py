from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import (
    build_flat_design_2d,
    build_flat_design_per_item,
    decode_comp_scalar,
    decode_ncomp_scalar,
    flat_design,
    flat_positives_scalar,
    flatten_design_per_segment,
    item_masks_scalar,
)
from splitgt import baselines
from splitgt.baselines import (
    FlatDesign,
    build_flat_design,
    decode_comp,
    decode_ncomp,
    flatten_design,
    ml_minimizers,
    oracle_consistent_sets,
    oracle_ml,
)
from splitgt.core import (
    NoiseChannel,
    OutcomeVector,
    ProblemInstance,
    RandomnessKey,
    evaluate_design,
)
from splitgt.gamma import build_gamma_design, gamma_params
from splitgt.noisy import build_noisy_design, noisy_params
from splitgt.rho import build_rho_design, rho_params
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
    design = flat_design(4, ({0, 1}, {2, 3}))
    assert decode_comp(design, _vec(design, [1, 0])) == (0, 1)
    assert decode_comp(design, _vec(design, [0, 0])) == ()
    empty = flat_design(4, ())
    assert decode_comp(empty, _vec(empty, [])) == (0, 1, 2, 3)


def test_ncomp_threshold_zero_equals_comp():
    base = RandomnessKey(10)
    rng = np.random.default_rng(0)
    for i in range(100):
        design = build_flat_design(12, 20, base.child(i), k=3)
        bits = rng.integers(0, 2, size=20)
        vec = _vec(design, bits)
        assert decode_ncomp(design, vec, 0.0) == decode_comp(design, vec)


def test_ncomp_fraction_rule():
    # item 0 sits in 10 tests, one negative: flagged at threshold 0.2
    design = flat_design(2, ({0},) * 10 + ({1},))
    bits = [1] * 9 + [0, 1]
    assert decode_ncomp(design, _vec(design, bits), 0.2) == (0, 1)
    assert decode_ncomp(design, _vec(design, bits), 0.05) == (1,)


def test_ncomp_rejects_uncovered_item():
    design = flat_design(3, ({0, 1},))
    with pytest.raises(ValueError):
        decode_ncomp(design, _vec(design, [1]), 0.1)


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
    design = build_flat_design(10, 25, key, k=2)
    inst = ProblemInstance(n=16, k=2, defectives=(3, 7))
    # flat design over 10 live items inside a padded instance
    padded = FlatDesign(np.pad(design.members, ((0, 0), (0, 6))))
    out = evaluate_design(padded, inst, NoiseChannel.noiseless(), key)
    assert oracle_ml(padded, out, k=2, p=0.05) == (3, 7)


def test_oracle_ml_single_flip_exhaustive():
    # n=8, k=1: for every truth and every single flipped bit, the oracle
    # recovers the truth whenever it is the unique nearest set
    key = RandomnessKey(8)
    design = build_flat_design(8, 12, key, k=1)
    channel = NoiseChannel.noiseless()
    for truth in range(8):
        inst = ProblemInstance(n=8, k=1, defectives=(truth,))
        clean = evaluate_design(design, inst, channel, key)
        for flip in range(design.t_total):
            bits = clean.bits.copy()
            bits[flip] ^= 1
            noisy_vec = _vec(design, bits)
            mins = ml_minimizers(design, noisy_vec, k=1)
            if mins == [(truth,)]:
                assert oracle_ml(design, noisy_vec, k=1, p=0.05) == (truth,)
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
            flat = flatten_design(design)
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


@st.composite
def _irregular_designs(draw):
    """Member sets with empty tests, repeated tests and uncovered items."""
    n = draw(st.integers(1, 12))
    tests = draw(st.lists(st.frozensets(st.integers(0, n - 1), max_size=n), max_size=10))
    repeats = draw(st.lists(st.integers(0, max(len(tests) - 1, 0)), max_size=3))
    tests = tuple(tests) + tuple(tests[i] for i in repeats if tests)
    bits = draw(st.lists(st.integers(0, 1), min_size=len(tests), max_size=len(tests)))
    defectives = draw(st.frozensets(st.integers(0, n - 1), max_size=3))
    return n, tests, bits, sorted(defectives), draw(st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(_irregular_designs())
def test_matrix_paths_match_set_reference(case):
    n, tests, bits, defectives, threshold = case
    design = flat_design(n, tests)
    assert design.storage_words == sum(len(t) for t in tests)
    grid = design.noiseless_grid([defectives, []])
    assert grid.shape == (2, len(tests)) and grid.dtype == np.uint8 and not grid[1].any()
    assert np.flatnonzero(grid[0]).tolist() == flat_positives_scalar(tests, defectives)
    vec = _vec(design, bits)
    assert decode_comp(design, vec) == decode_comp_scalar(n, tests, bits)
    try:
        want = decode_ncomp_scalar(n, tests, bits, threshold)
    except ValueError as exc:  # an uncovered item
        with pytest.raises(ValueError, match=f"^{exc}$"):
            decode_ncomp(design, vec, threshold)
    else:
        assert decode_ncomp(design, vec, threshold) == want
    assert baselines._item_masks(design) == item_masks_scalar(n, tests)
    assert baselines._bitmask(vec.bits) == sum(1 << i for i, b in enumerate(bits) if b)


def test_build_flat_design_constant_column_weight():
    design = build_flat_design(30, 24, RandomnessKey(9), k=3)
    counts = design.members.sum(axis=0)
    assert len(set(counts.tolist())) == 1  # same weight for every item


@st.composite
def _flat_shapes(draw):
    tests_count = draw(st.integers(1, 64))
    return draw(st.integers(1, 50)), tests_count, draw(st.integers(1, tests_count))


@settings(max_examples=200, deadline=None)
@given(_flat_shapes(), st.integers(0, 2 ** 32))
@example((9, 1, 1), 0)
@example((9, 12, 1), 0)
@example((9, 12, 12), 0)
def test_floyd_draw_exact_column_weight(shape, seed):
    n, tests_count, weight = shape
    members = build_flat_design(n, tests_count, RandomnessKey(seed), per_item=weight).members
    assert members.shape == (tests_count, n)
    assert np.all(members.sum(axis=0) == weight)


@settings(max_examples=200, deadline=None)
@given(_flat_shapes(), st.integers(0, 2 ** 64 - 1))
@example((9, 1, 1), 0)
@example((9, 12, 1), 3)
@example((9, 12, 12), 5)
@example((1, 64, 64), 7)
def test_flat_cell_scatter_matches_2d_scatter(shape, seed):
    """The flat cell index ``pick * n + item`` builds the matrix that the
    two-dimensional scatter built, from the same draws, weight 1 and weight
    T included."""
    n, tests_count, weight = shape
    key = RandomnessKey(seed, ("flat",))
    members = build_flat_design(n, tests_count, key, per_item=weight).members
    reference = build_flat_design_2d(n, tests_count, weight, key.generator()).members
    assert np.array_equal(members, reference)


def test_ncomp_counts_past_int16():
    """At T >= 2^15 the counts are int32: item 0 pools in every one of
    2^15 + 7 tests, of which all but the first five are negative, so its
    32770 negatives would wrap int16."""
    tests_count = 2 ** 15 + 7
    members = np.zeros((tests_count, 3), dtype=bool)
    members[:, 0] = True
    members[::2, 1] = True
    members[:5, 2] = True
    design = FlatDesign(members)
    bits = np.zeros(tests_count, dtype=np.uint8)
    bits[:5] = 1
    vec = OutcomeVector(bits=bits, layout=design.layout)
    tests = [frozenset(np.flatnonzero(row).tolist()) for row in members]
    for threshold in (0.0, 0.5, 0.9998, 0.99999, 1.0):
        want = decode_ncomp_scalar(3, tests, bits.tolist(), threshold)
        assert decode_ncomp(design, vec, threshold) == want
    assert decode_ncomp(design, vec, 0.9998) == (2,)
    # just below the switch, int16 holds every count
    design = FlatDesign(members[:2 ** 15 - 1])
    vec = OutcomeVector(bits=np.zeros(2 ** 15 - 1, dtype=np.uint8), layout=design.layout)
    assert decode_ncomp(design, vec, 0.9999) == ()
    assert decode_ncomp(design, vec, 1.0) == (0, 1, 2)


# Floyd's draw against the per-item ``rng.choice`` it replaced (the control):
# the w-subset of each item, ranked among all C(T, w) subsets, must be uniform
# and independent across items.  Bounds as in test_counter_hash.py.
SUBSET_T, SUBSET_W = 6, 3
SUBSETS = np.array(sorted(sum(1 << t for t in c)
                          for c in combinations(range(SUBSET_T), SUBSET_W)))
DRAWS = {
    "floyd": lambda n, key: build_flat_design(n, SUBSET_T, key, per_item=SUBSET_W),
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
