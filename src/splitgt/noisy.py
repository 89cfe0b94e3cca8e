"""Noisy-setting scheme: binary splitting that tolerates flipped outcomes.

Every node is placed in N tests per level (one uniformly chosen test in each
of N sequences of length C*k), and its *intermediate label* is the majority
vote over those N outcomes.  A node's *final label* looks r levels further
down: it is positive iff some length-r descendant path carries more than r/2
positive intermediate labels.  Near the bottom of the tree, paths are padded
at the final level, where each singleton owns C'*log2(n) disjoint batches of
N test sequences; batch j stands in for the j-th padding step, so padding is
deterministic.  The surviving singletons are accepted by a majority vote over
all of their batch labels.

Two parameter modes exist.  ``theory`` derives N, r and C' from the target
noise level via the concentration bounds that back the scheme's guarantee;
the resulting repetition counts are large.  ``practice`` keeps the same
structural constraints (odd N, C' * log2 n >= r, t * C' > 1) but defaults to
the small calibrated constants used by the benchmark suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import DecodeReport, OutcomeVector, RandomnessKey, is_power_of_two
from .placements import uniform_style_stacks
from .tree import TreeDesign

DEFAULT_T = 2.0
DEFAULT_EPSILON = 0.6
PRACTICE_N_REPS = 7
_CHILDREN = np.arange(2, dtype=np.int64)


@dataclass(frozen=True)
class NoisyParams:
    p: float
    t: float
    epsilon: float
    c_const: int    # C: tests per sequence = C * k
    n_reps: int     # N: sequences per level, odd
    r: int          # lookahead depth
    c_final: int    # C': final-level batch multiplier
    t_len: int
    mode: str


def _theory_n_reps(p: float, t: float, c_const: int) -> int:
    margin = 0.5 - p - 1.0 / c_const
    n = math.ceil((2 * t * math.log(2) + math.log(16)) / (2 * margin * margin))
    return n if n % 2 else n + 1


def _theory_r(n: int, k: int, t: float, epsilon: float) -> int:
    load = k * math.log2(n / k)
    return max(1, math.ceil(math.log2(3 * load ** (epsilon * t)) / t))


def noisy_params(
    n: int,
    k: int,
    p: float,
    t: float = DEFAULT_T,
    epsilon: float = DEFAULT_EPSILON,
    mode: str = "practice",
    n_reps: int | None = None,
    r: int | None = None,
    c_final: int | None = None,
) -> NoisyParams:
    if not (is_power_of_two(n) and is_power_of_two(k) and k < n):
        raise ValueError("expected power-of-two n and k with k < n (round first)")
    if not 0.0 < p < 0.5:
        raise ValueError(f"p must lie in (0, 0.5), got {p}")
    if epsilon * t <= 1.0:
        raise ValueError(f"epsilon * t must exceed 1, got {epsilon * t}")
    if mode not in ("theory", "practice"):
        raise ValueError(f"mode must be 'theory' or 'practice', got {mode!r}")

    c_const = math.ceil(2.0 / (1.0 - 2.0 * p)) + 1
    log2n = n.bit_length() - 1

    if mode == "theory":
        if n_reps is not None or r is not None or c_final is not None:
            raise ValueError("theory mode derives N, r and C'; overrides belong to practice mode")
        n_reps = _theory_n_reps(p, t, c_const)
        r = _theory_r(n, k, t, epsilon)
    else:
        n_reps = PRACTICE_N_REPS if n_reps is None else n_reps
        if n_reps < 1:
            raise ValueError(f"N must be >= 1, got {n_reps}")
        if n_reps % 2 == 0:
            n_reps += 1  # odd N keeps majority votes tie-free
        r = _theory_r(n, k, t, epsilon) if r is None else r
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")

    c_min = math.floor(1.0 / t) + 1
    if c_final is None:
        c_final = max(math.ceil(r / log2n), c_min)
    if c_final * log2n < r:
        raise ValueError(
            f"C'={c_final} gives only {c_final * log2n} final batches, fewer than r={r}"
        )
    if t * c_final <= 1.0:
        raise ValueError(f"t * C' must exceed 1, got {t * c_final}")

    return NoisyParams(
        p=p, t=t, epsilon=epsilon, c_const=c_const, n_reps=n_reps, r=r,
        c_final=c_final, t_len=c_const * k, mode=mode,
    )


def noisy_total_tests(params: NoisyParams, n: int, k: int) -> int:
    log2n = n.bit_length() - 1
    log2nk = log2n - (k.bit_length() - 1)
    return (params.n_reps * params.t_len * log2nk
            + params.c_final * params.n_reps * log2n * params.t_len)


def build_noisy_design(params: NoisyParams, n: int, k: int, key: RandomnessKey,
                       hash_mode: str = "full") -> TreeDesign:
    """The binary tree from level log2 k down to the singletons at level
    log2 n, every placement from the one design key, one stack per level: N
    sequences at each level above the final one and C' * N * log2 n at the
    final level (see :func:`splitgt.placements.uniform_style_stacks`)."""
    log2n = n.bit_length() - 1
    final_seqs = params.c_final * params.n_reps * log2n
    levels = range(k.bit_length() - 1, log2n + 1)
    stacks = uniform_style_stacks(
        [(1 << level, params.t_len, params.n_reps if level < log2n else final_seqs)
         for level in levels], key, hash_mode)
    return TreeDesign(n, params, 2, zip(levels, stacks))


def _votes(design: TreeDesign, grid: np.ndarray, seen: np.ndarray, level: int,
           nodes: np.ndarray, first: int, count: int) -> np.ndarray:
    """Outcomes of the tests of ``nodes`` at ``level`` in sequences
    first .. first + count - 1, as a (count x nodes) array; marks the cells
    read in ``seen``."""
    tests = design.stacks[level].tests_of(nodes, slice(first, first + count))
    rows = design.first_segment[level] + first + np.arange(count)[:, None]
    seen[rows, tests] = True
    return grid[rows, tests]


def _lookahead(design: TreeDesign, grid: np.ndarray, seen: np.ndarray, level: int,
               roots: np.ndarray) -> tuple[np.ndarray, int]:
    """Final labels of the nodes ``roots`` at ``level`` (a bool array), and
    the number of intermediate and batch labels computed.

    A root is positive iff some length-r descendant path carries at least
    r // 2 + 1 positive intermediate labels.  Steps past the final level stay
    on the singleton reached and take its batches in order, one per padding
    depth.  The search is level-synchronous over (root, node, positives)
    states: every state at one depth sits at the same level, so each depth
    is one gather.  A root is accepted as soon as one of its states reaches
    the target; a state is dropped once its root is accepted or once it can
    no longer reach the target.
    """
    reps, r, bottom = design.params.n_reps, design.params.r, design.layout[-1][0]
    target = r // 2 + 1
    accepted = np.zeros(len(roots), dtype=bool)
    owner = np.repeat(np.arange(len(roots)), 2)
    nodes = (roots[:, None] * 2 + _CHILDREN).ravel()
    positives = np.zeros(len(nodes), dtype=np.int64)
    computed = 0
    for depth in range(1, r + 1):
        lvl = level + depth
        if lvl < bottom:
            votes = _votes(design, grid, seen, lvl, nodes, 0, reps)
        else:
            votes = _votes(design, grid, seen, bottom, nodes, (lvl - bottom) * reps, reps)
        computed += len(nodes)
        positives += 2 * votes.sum(axis=0) > reps
        accepted[owner[positives >= target]] = True
        keep = ~accepted[owner] & (positives + (r - depth) >= target)
        owner, nodes, positives = owner[keep], nodes[keep], positives[keep]
        if not len(nodes):
            break
        if lvl < bottom:
            owner, positives = np.repeat(owner, 2), np.repeat(positives, 2)
            nodes = (nodes[:, None] * 2 + _CHILDREN).ravel()
    return accepted, computed


def decode_noisy(design: TreeDesign,
                 outcomes: OutcomeVector) -> tuple[tuple[int, ...], DecodeReport]:
    """Descend level by level, keeping the children of every node whose
    lookahead label is positive; accept a surviving singleton by a majority
    over all C' * log2 n of its batch labels.

    Every segment has length ``t_len``, so the outcomes are read as a
    (segments x t_len) grid whose row for (level, rep) is
    ``first_segment[level] + rep``.  ``outcomes_read`` counts distinct
    outcome cells read, ``labels_computed`` every intermediate and batch
    label evaluated (no memo across levels).
    """
    if tuple(outcomes.layout) != tuple(design.layout):
        raise ValueError("outcome layout does not match this design")
    start = time.perf_counter_ns()
    reps = design.params.n_reps
    grid = outcomes.bits.reshape(-1, design.params.t_len)
    seen = np.zeros(grid.shape, dtype=bool)
    log2k, log2n = design.layout[0][0], design.layout[-1][0]
    pd = np.arange(1 << log2k, dtype=np.int64)
    visited = labels = 0
    pd_peak = len(pd)

    for level in range(log2k, log2n):
        visited += len(pd)
        accepted, computed = _lookahead(design, grid, seen, level, pd)
        labels += computed
        pd = (pd[accepted, None] * 2 + _CHILDREN).ravel()
        pd_peak = max(pd_peak, len(pd))

    visited += len(pd)
    batches = design.params.c_final * log2n
    votes = _votes(design, grid, seen, log2n, pd, 0, batches * reps)
    batch_labels = 2 * votes.reshape(batches, reps, -1).sum(axis=1) > reps
    labels += batches * len(pd)
    estimate = pd[2 * batch_labels.sum(axis=0) > batches]

    wall = time.perf_counter_ns() - start
    storage = design.storage_words + pd_peak + (outcomes.t_total + 63) // 64
    report = DecodeReport(
        estimate=tuple(estimate.tolist()),
        outcomes_read=int(np.count_nonzero(seen)),
        nodes_visited=visited,
        wall_nanos=wall,
        storage_words=storage,
        labels_computed=labels,
    )
    return report.estimate, report
