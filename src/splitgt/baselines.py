"""The COMP-style baselines and the exhaustive oracles.

The baselines' design is constant-column-weight (Johnson, Aldridge and
Scarlett, IEEE T-IT 2019): a one-level tree of singletons under w
counter-hashed repetitions.  COMP and its thresholded variant NCOMP (Chan,
Che, Jaggi and Saligrama, Allerton 2011) are its tree descent.  The
brute-force oracles that cross-check the tree decoders on tiny instances
see a design as its (T x n) incidence matrix, through :func:`flatten_design`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import tree
from .core import DecodeReport, OutcomeVector
from .placements import uniform_style_stacks

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


def flat_shape(tests_count: int, k: int = 1, per_item: int | None = None) -> tuple[int, int]:
    """The column weight w and segment length of the baseline design of a
    test budget T: w is ``per_item`` when given, otherwise round(T * ln2 /
    k) (about half the tests negative, the classic sweet spot for one-shot
    decoding), clipped to [1, T]; each of the w segments has ceil(T / w)
    tests."""
    if tests_count < 1:
        raise ValueError("tests_count must be >= 1")
    weight = (per_item if per_item is not None
              else round(tests_count * math.log(2) / max(1, k)))
    weight = min(max(1, weight), tests_count)
    return weight, -(-tests_count // weight)


def build_flat_design(n: int, tests_count: int, key, k: int = 1,
                      per_item: int | None = None) -> tree.TreeDesign:
    """Constant-column-weight design for the COMP-style baselines: w
    counter-hashed repetitions over the n singletons, each a segment of
    ceil(T / w) tests (see :func:`flat_shape`), so every item joins exactly
    w distinct tests of w * ceil(T / w) >= T.  ``key`` is the design key,
    or several trials' key material (see :func:`splitgt.placements.row_keys`)."""
    weight, t_len = flat_shape(tests_count, k, per_item)
    (stack,) = uniform_style_stacks([(n, t_len, weight)], key, None)
    return tree.TreeDesign(n, tests_count, [(0, stack)])


def default_baseline_tests(n: int, k: int) -> int:
    """Committed default test budget for the flat baselines: 2e * k * ln(n).

    The factor two over the asymptotic threshold keeps the expected number of
    unresolved items well below one at the sizes benchmarked here.
    """
    return math.ceil(2 * math.e * k * math.log(n))


def decode_comp(design: tree.TreeDesign,
                outcomes: OutcomeVector) -> tuple[tuple[int, ...], DecodeReport]:
    """Anything seen in a negative test is clean; everything else is
    flagged: the one-level tree descent, a node gone at its first negative
    test."""
    return tree.decode_tree(design, outcomes)


def ncomp_misses(design: tree.TreeDesign, threshold: float) -> int:
    """The most negative tests an item of a one-level design may have and
    still be flagged: floor(threshold * w), for its column weight w."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    (stack,) = design.stacks.values()
    return math.floor(threshold * stack.reps)


def decode_ncomp(design: tree.TreeDesign, outcomes: OutcomeVector,
                 threshold: float) -> tuple[tuple[int, ...], DecodeReport]:
    """Thresholded variant: an item is flagged iff the fraction of its tests
    that came back negative is at most ``threshold``, that is, iff at most
    :func:`ncomp_misses` of them are."""
    return tree.decode_tree(design, outcomes, ncomp_misses(design, threshold))


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
