"""Reference decoders and exhaustive oracles.

The flat design here is structure-free: a (T x n) boolean incidence matrix,
one row per test.  It backs the classic one-shot decoders (COMP and its
noise-tolerant thresholded variant) and the brute-force oracles used to
cross-check the tree decoders on tiny instances, which see a tree design
through :func:`flatten_design`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import OutcomeVector, RandomnessKey

ORACLE_MAX_N = 20
ORACLE_MAX_K = 4

# Committed default for the thresholded decoder, from a grid search at
# (n=2**10, k=4, p=0.05) over the constant-column-weight benchmark design.
DEFAULT_NCOMP_THRESHOLD = 0.15


@dataclass(frozen=True, eq=False)
class FlatDesign:
    """A non-adaptive design as its incidence matrix: ``members[t, i]`` is
    set iff item i is pooled in test t.  Tests may be empty or repeated and
    items may be uncovered."""

    members: np.ndarray

    def __post_init__(self):
        if self.members.ndim != 2 or self.members.dtype != np.bool_:
            raise ValueError("members must be a 2-D bool array, one row per test")

    @property
    def n(self) -> int:
        return self.members.shape[1]

    @property
    def t_total(self) -> int:
        return self.members.shape[0]

    @property
    def layout(self):
        return ((0, 0, self.t_total),)

    @property
    def storage_words(self) -> int:
        return int(np.count_nonzero(self.members))

    def noiseless_grid(self, defectives) -> np.ndarray:
        """Row b: which tests pool one of ``defectives[b]``, as uint8."""
        grid = np.zeros((len(defectives), self.t_total), dtype=np.uint8)
        for row, trial in zip(grid, defectives):
            row[self.members[:, np.asarray(trial, dtype=np.intp)].any(axis=1)] = 1
        return grid


def flatten_design(design) -> FlatDesign:
    """The incidence matrix of a tree design, tests in layout order.

    Intended for tiny instances only; the matrix has T * n entries."""
    members = np.zeros((design.t_total, design.n), dtype=bool)
    items = np.arange(design.n)
    offset = 0
    for t_len, tests in design.level_item_tests():
        members[offset + t_len * np.arange(len(tests))[:, None] + tests, items] = True
        offset += t_len * len(tests)
    return FlatDesign(members)


def build_flat_design(n: int, tests_count: int, key: RandomnessKey, k: int = 1,
                      per_item: int | None = None) -> FlatDesign:
    """Random constant-column-weight design for the COMP-style baselines.

    Each item joins the same number of distinct tests, chosen uniformly:
    ``per_item`` when given, otherwise round(T * ln2 / k), which makes about
    half the tests negative and is the classic sweet spot for one-shot
    decoding.  Constant column weight guarantees every item is covered, which
    the thresholded decoder needs.
    """
    if tests_count < 1:
        raise ValueError("tests_count must be >= 1")
    weight = (per_item if per_item is not None
              else round(tests_count * math.log(2) / max(1, k)))
    weight = min(max(1, weight), tests_count)
    rng = key.generator()
    members = np.zeros((tests_count, n), dtype=bool)
    cells = members.reshape(-1)  # a view: cell t * n + i is members[t, i]
    # Floyd's sampling algorithm, one step for all items at once: adding j
    # when the uniform pick from [0, j] is already taken keeps every item's
    # set a uniform subset of [0, j], independently across items
    items = np.arange(n)
    for j in range(tests_count - weight, tests_count):
        picked = rng.integers(0, j + 1, size=n) * n + items
        cells[np.where(cells[picked], j * n + items, picked)] = True
    return FlatDesign(members)


def default_baseline_tests(n: int, k: int) -> int:
    """Committed default test budget for the flat baselines: 2e * k * ln(n).

    The factor two over the asymptotic threshold keeps the expected number of
    unresolved items well below one at the sizes benchmarked here.
    """
    return math.ceil(2 * math.e * k * math.log(n))


def _negative_rows(design: FlatDesign, outcomes: OutcomeVector) -> np.ndarray:
    if outcomes.t_total != design.t_total:
        raise ValueError("one outcome per test required")
    return design.members[outcomes.bits == 0]


def decode_comp(design: FlatDesign, outcomes: OutcomeVector) -> tuple[int, ...]:
    """Anything seen in a negative test is clean; everything else is flagged."""
    cleared = _negative_rows(design, outcomes).any(axis=0)
    return tuple(np.flatnonzero(~cleared).tolist())


def decode_ncomp(design: FlatDesign, outcomes: OutcomeVector,
                 threshold: float) -> tuple[int, ...]:
    """Thresholded variant: an item is flagged iff the fraction of its tests
    that came back negative is at most ``threshold``."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    # a count is at most T: int16 holds it below 2^15 tests, and sums faster
    dtype = np.int16 if design.t_total < 1 << 15 else np.int32
    negatives = _negative_rows(design, outcomes).view(np.uint8).sum(axis=0, dtype=dtype)
    appearances = design.members.view(np.uint8).sum(axis=0, dtype=dtype)
    uncovered = np.flatnonzero(appearances == 0)
    if len(uncovered):
        raise ValueError(f"item {uncovered[0]} appears in no test")
    return tuple(np.flatnonzero(negatives <= threshold * appearances).tolist())


def _bitmask(bits: np.ndarray) -> int:
    """The integer with bit i set iff ``bits[i]`` is nonzero."""
    return int.from_bytes(np.packbits(bits != 0, bitorder="little").tobytes(), "little")


def _item_masks(design: FlatDesign) -> list[int]:
    return [_bitmask(column) for column in design.members.T]


def _check_budget(design: FlatDesign, k: int):
    if design.n > ORACLE_MAX_N or k > ORACLE_MAX_K:
        raise ValueError(
            f"oracle budget is n <= {ORACLE_MAX_N}, k <= {ORACLE_MAX_K}; "
            f"got n={design.n}, k={k}"
        )


def _candidates(n: int, k: int):
    for size in range(k + 1):
        yield from combinations(range(n), size)


def oracle_consistent_sets(design: FlatDesign, outcomes: OutcomeVector,
                           k: int) -> list[tuple[int, ...]]:
    """Every defective set of size <= k whose noiseless outcomes match
    exactly.  Exhaustive; guarded by a hard size budget."""
    _check_budget(design, k)
    masks = _item_masks(design)
    want = _bitmask(outcomes.bits)
    out = []
    for cand in _candidates(design.n, k):
        pattern = 0
        for item in cand:
            pattern |= masks[item]
        if pattern == want:
            out.append(cand)
    return out


def ml_minimizers(design: FlatDesign, outcomes: OutcomeVector,
                  k: int) -> list[tuple[int, ...]]:
    """All size-<=k sets at minimum Hamming distance from the outcomes."""
    _check_budget(design, k)
    masks = _item_masks(design)
    want = _bitmask(outcomes.bits)
    best = None
    best_sets: list[tuple[int, ...]] = []
    for cand in _candidates(design.n, k):
        pattern = 0
        for item in cand:
            pattern |= masks[item]
        dist = bin(pattern ^ want).count("1")
        if best is None or dist < best:
            best = dist
            best_sets = [cand]
        elif dist == best:
            best_sets.append(cand)
    return best_sets


def oracle_ml(design: FlatDesign, outcomes: OutcomeVector, k: int,
              p: float) -> tuple[int, ...]:
    """Maximum-likelihood set under symmetric noise below one half: the
    fewest-disagreements candidate, ties broken lexicographically."""
    if not 0.0 < p < 0.5:
        raise ValueError(f"p must lie in (0, 0.5), got {p}")
    return min(ml_minimizers(design, outcomes, k))
