"""A trial's defective draw and channel noise, taken from the counter stream
of its keys (``bench._draw_defectives``, ``core.channel_flips``):
differential tests against the pure-Python reference in
``scalar_reference.py``, edge cases, and statistical tests of both draws.

The statistical bounds follow ``test_counter_hash.py``: theory at a false
alarm rate ``ALPHA`` per check, never fits to the data.  Every statistical
check also runs on the Philox draws the counter stream replaced
(``scalar_reference.philox_defectives`` and ``philox_flips``), as a control
for the bounds.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import floyd_defectives, philox_defectives, philox_flips
from splitgt import bench
from splitgt.core import (
    NoiseChannel,
    ProblemInstance,
    RandomnessKey,
    channel_flips,
    counter_stream,
    evaluate_batch,
    evaluate_design,
)
from splitgt.gamma import build_gamma_design, gamma_params
from test_counter_hash import ALPHA, chi2_bound

MASK64 = 2 ** 64 - 1


def _config(n: int, k: int, **fields) -> bench.TrialConfig:
    return bench.TrialConfig(algorithm="gamma", n=n, k=k, gamma=5, **fields)


# --- differential and edge cases -------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(2, 300), st.integers(2, 2 ** 62), st.just(2 ** 62 - 1)),
    k=st.integers(1, 70),
    seed=st.integers(0, 2 ** 64 - 1),
)
@example(n=2 ** 62, k=64, seed=0)
def test_draw_matches_reference(n, k, seed):
    """Each row of words draws what the pure-Python Floyd draw gives its low
    word, and a key's one-row ``words()`` draws what its batch row draws."""
    k = min(k, n)
    words = RandomnessKey(seed).materials(range(5), "defectives")
    draws = bench._draw_defectives(_config(n, k), words)
    assert draws == [floyd_defectives(int(word), n, k) for word in words]
    one = RandomnessKey(seed).child(3, "defectives").words()
    assert bench._draw_defectives(_config(n, k), one) == [draws[3]]


@pytest.mark.parametrize("n,k", [(3, 2), (5, 4), (1000, 64), (2 ** 62 - 1, 4)])
def test_draws_stay_below_the_raw_n(n, k):
    """k distinct items of [0, raw n), never a dummy item of the rounded n,
    and (where 2000 draws should reach it) the top item itself."""
    draws = bench._draw_defectives(_config(n, k),
                                   RandomnessKey(n).materials(range(2000), "defectives"))
    assert all(len(set(d)) == k and d == tuple(sorted(d)) for d in draws)
    assert min(d[0] for d in draws) >= 0 and max(d[-1] for d in draws) < n
    if n < 2000:
        assert max(d[-1] for d in draws) == n - 1


def test_run_trial_defectives_stay_below_the_raw_n():
    config = bench.TrialConfig(algorithm="comp", n=5, k=3, trials=40, base_seed=2)
    share = bench._run_share(config, range(40))
    records = [bench._record(share, b) for b in range(40)]
    assert all(len(r["defectives"]) == 3 and r["defectives"][-1] < 5 for r in records)


def test_explicit_defectives_keep_their_path():
    words = RandomnessKey(1).materials(range(3), "defectives")
    config = _config(1000, 4, defectives=(7, 3))
    assert bench._draw_defectives(config, words) == [(3, 7)] * 3


def test_mulhi_matches_python_integers():
    """The high word of a 128-bit product from 32-bit limbs, on 10^4 random
    pairs and every pair of the extreme words."""
    rng = np.random.default_rng(12)
    edges = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 62, 2 ** 63, MASK64]
    a = np.concatenate([rng.integers(0, 2 ** 64, 10_000, dtype=np.uint64),
                        np.repeat(np.array(edges, dtype=np.uint64), len(edges))])
    b = np.concatenate([rng.integers(0, 2 ** 64, 10_000, dtype=np.uint64),
                        np.tile(np.array(edges, dtype=np.uint64), len(edges))])
    assert bench._mulhi(a, b).tolist() == [(x * y) >> 64 for x, y in zip(a.tolist(), b.tolist())]


@pytest.mark.parametrize("m", [2 ** 62, 2 ** 62 - 1, 1, 2])
def test_picks_at_the_largest_operands(m):
    """floor(u * m / 2^128) at high = low = 2^64 - 1, where every carry is
    taken, and at random words, against Python integers."""
    rng = np.random.default_rng(m % 1000)
    high, low = (np.concatenate([np.array(edge, dtype=np.uint64),
                                 rng.integers(0, 2 ** 64, 100, dtype=np.uint64)])
                 for edge in ([MASK64, MASK64, 0], [MASK64, 0, MASK64]))
    picks = bench._picks(high, low, np.full(len(high), m, dtype=np.uint64))
    assert picks.tolist() == [((h << 64 | lo) * m) >> 128
                              for h, lo in zip(high.tolist(), low.tolist())]
    assert picks[0] == m - 1


def _scalar_draws(config: bench.TrialConfig, words: np.ndarray) -> list[tuple[int, ...]]:
    """``bench._draw_defectives`` by the scalar Floyd loop on every row."""
    count = min(config.k, config.n)
    return [bench._floyd(row, config.n, count)
            for row in counter_stream(words, 2 * count).tolist()]


def _counting_floyd(monkeypatch) -> list:
    """Record every call of the scalar loop ``_draw_defectives`` makes."""
    calls, floyd = [], bench._floyd

    def counting(row, n, count):
        calls.append(row)
        return floyd(row, n, count)

    monkeypatch.setattr(bench, "_floyd", counting)
    return calls


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(2, 300), st.integers(2, 2 ** 62)),
    k=st.integers(1, 70),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_array_draw_matches_the_scalar_loop(n, k, rows, seed):
    """Random rows at any size, drawn by the array program at every size
    (the crossover set to one pick), equal the scalar loop's draws."""
    k = min(k, n)
    config = _config(n, k)
    words = RandomnessKey(seed).materials(range(rows), "defectives")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "ARRAY_DRAW_PICKS", 1)
        assert bench._draw_defectives(config, words) == _scalar_draws(config, words)


@pytest.mark.parametrize("n", [65, 128])
def test_rows_with_a_repeat_take_the_scalar_loop(n, monkeypatch):
    """At k = 64 of n = k + 1 or n = 2k, most rows pick some item twice;
    those rows fall back to the scalar loop, and every row equals the
    pure-Python reference."""
    config = _config(n, 64)
    words = RandomnessKey(n).materials(range(8), "defectives")
    calls = _counting_floyd(monkeypatch)
    draws = bench._draw_defectives(config, words)
    assert 0 < len(calls) <= 8
    assert draws == [floyd_defectives(int(word), n, 64) for word in words]


@pytest.mark.parametrize("rows,array", [(bench.ARRAY_DRAW_PICKS // 4 - 1, False),
                                        (bench.ARRAY_DRAW_PICKS // 4, True),
                                        (bench.ARRAY_DRAW_PICKS // 4 + 1, True)])
def test_draws_just_below_and_above_the_crossover(rows, array, monkeypatch):
    """k = 4 draws of one row fewer than ``ARRAY_DRAW_PICKS`` picks run the
    scalar loop on every row, from the crossover on the array program; both
    equal the pure-Python reference."""
    config = _config(2 ** 14, 4)
    words = RandomnessKey(rows).materials(range(rows), "defectives")
    calls = _counting_floyd(monkeypatch)
    draws = bench._draw_defectives(config, words)
    assert draws == [floyd_defectives(int(word), 2 ** 14, 4) for word in words]
    assert len(calls) == (0 if array else rows)


def test_explicit_defectives_above_the_crossover():
    """Explicit defectives are every row's draw, sorted, at any batch size."""
    words = RandomnessKey(2).materials(range(bench.ARRAY_DRAW_PICKS), "defectives")
    draws = bench._draw_defectives(_config(1000, 4, defectives=(9, 2, 5)), words)
    assert draws == [(2, 5, 9)] * bench.ARRAY_DRAW_PICKS


@pytest.mark.parametrize("p", [0.0, 2.0 ** -64, 0.05, 0.5, 1.0 - 2.0 ** -53, 1.0])
def test_flips_follow_the_threshold(p):
    """Cell c flips iff output c of the row's counter stream is below
    floor(p * 2^64); p = 1, whose threshold does not fit in uint64, flips
    every cell."""
    words = RandomnessKey(9).materials(range(4), "noise")
    flips = channel_flips(p, words, 50)
    assert flips.shape == (4, 50) and flips.dtype == bool
    threshold = math.floor(p * 2 ** 64)
    assert flips.tolist() == [[v < threshold for v in row]
                              for row in counter_stream(words, 50).tolist()]
    if p == 1.0:
        assert flips.all()


def test_always_flip_channel_inverts_every_outcome():
    n = 2 ** 10
    params = gamma_params(n, 4, 5)
    key = RandomnessKey(4)
    design = build_gamma_design(params, n, key.child("design"))
    instance = ProblemInstance(n=n, k=4, defectives=(3, 500))
    clean = evaluate_design(design, instance, NoiseChannel(), key.child("noise")).bits
    flipped = evaluate_design(design, instance, NoiseChannel(1.0), key.child("noise")).bits
    assert np.array_equal(flipped, 1 - clean)
    batch = build_gamma_design(params, n, key.materials(range(3), "design"))
    truths = [(3, 500), (), (0, 1, 2, 1023)]
    noise = key.materials(range(3), "noise")
    clean = evaluate_batch(batch, truths, NoiseChannel(), noise)
    assert np.array_equal(evaluate_batch(batch, truths, NoiseChannel(1.0), noise), 1 - clean)


def test_batch_rows_flip_as_their_own_keys():
    """Row b of a batch grid carries the flips of trial b's own noise key."""
    n, p = 2 ** 10, 0.3
    params = gamma_params(n, 4, 5)
    root = RandomnessKey(17)
    batch = build_gamma_design(params, n, root.materials(range(4), "design"))
    truths = [(1, 2), (5,), (), (9, 700, 1000)]
    grid = evaluate_batch(batch, truths, NoiseChannel(p), root.materials(range(4), "noise"))
    for b, truth in enumerate(truths):
        key = root.child(b)
        design = build_gamma_design(params, n, key.child("design"))
        one = evaluate_design(design, ProblemInstance(n=n, k=4, defectives=truth),
                              NoiseChannel(p), key.child("noise"))
        assert np.array_equal(grid[b], one.bits)


# --- statistics of the defective draw --------------------------------------


DRAWS = {"counter": bench._draw_defectives, "philox": philox_defectives}
FLIPS = {"counter": channel_flips, "philox": philox_flips}


def _bernstein(hits: int, trials: int, p: float) -> bool:
    """Whether a Binomial(trials, p) count is within Bernstein's bound of its
    mean at ALPHA."""
    log_term = math.log(2 / ALPHA)
    bound = log_term / 3 + math.sqrt(log_term ** 2 / 9 + 2 * trials * p * (1 - p) * log_term)
    return abs(hits - trials * p) <= bound


def _merged_pearson(counts: np.ndarray, probs: np.ndarray) -> tuple[float, int]:
    """Pearson's statistic and its degrees of freedom, after merging
    consecutive cells until each expects at least 30 (a short tail joins
    the last merged cell)."""
    total = counts.sum()
    observed, expected, acc_o, acc_e = [], [], 0, 0.0
    for o, e in zip(counts.tolist(), (probs * total).tolist()):
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= 30:
            observed.append(acc_o)
            expected.append(acc_e)
            acc_o, acc_e = 0, 0.0
    observed[-1] += acc_o
    expected[-1] += acc_e
    observed, expected = np.array(observed), np.array(expected)
    return float(((observed - expected) ** 2 / expected).sum()), len(observed) - 1


def _sets(draw: str, n: int, k: int, trials: int, seed: int) -> np.ndarray:
    words = RandomnessKey(seed, ("stats",)).materials(range(trials), "defectives")
    return np.array(DRAWS[draw](_config(n, k), words))


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize("n,k", [(50, 5), (1000, 8)])
def test_sorted_positions_follow_their_exact_law(draw, n, k):
    """The i-th smallest defective is x with probability
    C(x, i - 1) C(n - 1 - x, k - i) / C(n, k): one chi-square per position
    over 20,000 draws."""
    sets = _sets(draw, n, k, 20_000, seed=n)
    xs = np.arange(n)
    for i in range(1, k + 1):
        law = np.array([comb(x, i - 1) * comb(n - 1 - x, k - i) for x in xs.tolist()],
                       dtype=float) / comb(n, k)
        stat, df = _merged_pearson(np.bincount(sets[:, i - 1], minlength=n), law)
        assert stat <= chi2_bound(df)


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize("family", ["adjacent", "far"])
def test_pair_inclusion_rate(draw, family):
    """Trial t asks whether one pair of a family holds both of its items,
    which happens with probability k(k - 1) / (n(n - 1)); the pairs rotate
    over the family, (2i, 2i + 1) or (i, i + n / 2)."""
    n, k, trials = 50, 5, 20_000
    sets = _sets(draw, n, k, trials, seed=3)
    i = np.arange(trials) % (n // 2)
    a, b = (2 * i, 2 * i + 1) if family == "adjacent" else (i, i + n // 2)
    hits = int(((sets == a[:, None]).any(axis=1) & (sets == b[:, None]).any(axis=1)).sum())
    assert _bernstein(hits, trials, k * (k - 1) / (n * (n - 1)))


# --- statistics of the channel flips ---------------------------------------


def _flip_grid(flips: str, p: float, trials: int, tests: int, seed: int) -> np.ndarray:
    words = RandomnessKey(seed, ("stats",)).materials(range(trials), "noise")
    return FLIPS[flips](p, words, tests)


@pytest.mark.parametrize("flips", sorted(FLIPS))
@pytest.mark.parametrize("p", [0.05, 0.3])
def test_flip_rate_per_cell(flips, p):
    """Every cell flips in Binomial(4000, p) of 4000 trials."""
    grid = _flip_grid(flips, p, 4000, 64, seed=1)
    for hits in grid.sum(axis=0).tolist():
        assert _bernstein(hits, 4000, p)


def _pairs_are_independent(first: np.ndarray, second: np.ndarray, p: float) -> bool:
    """The four (flip, flip) outcomes of disjoint pairs against the product
    law of two independent Bernoulli(p): a chi-square with 3 degrees of
    freedom."""
    cells = first.astype(np.int64) * 2 + second
    law = np.array([(1 - p) ** 2, (1 - p) * p, p * (1 - p), p * p])
    expected = law * cells.size
    counts = np.bincount(cells.ravel(), minlength=4)
    return float(((counts - expected) ** 2 / expected).sum()) <= chi2_bound(3)


@pytest.mark.parametrize("flips", sorted(FLIPS))
@pytest.mark.parametrize("p", [0.05, 0.3])
def test_flips_independent_across_cells_and_trials(flips, p):
    """Cells 2c and 2c + 1 of one trial, and cell c of trials 2t and 2t + 1
    (consecutive trial keys): 128,000 disjoint pairs each."""
    grid = _flip_grid(flips, p, 2000, 128, seed=2)
    assert _pairs_are_independent(grid[:, 0::2], grid[:, 1::2], p)
    assert _pairs_are_independent(grid[0::2], grid[1::2], p)
