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
the small calibrated constants used by the benchmark suite.  ``HASH_MODES``
maps each hash mode to the placements' polynomial degree, None for the
counter hash.

:func:`decode_noisy_batch` decodes a batch of trials at once and returns
their estimates and counters as the columns of one
:class:`splitgt.core.BatchReport`; :func:`decode_noisy` is its batch of one
and returns that row as a :class:`splitgt.core.DecodeReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BatchReport, DecodeReport, OutcomeVector, RandomnessKey, is_power_of_two
from .placements import uniform_style_stacks
from .tree import TreeDesign, placement_of

HASH_MODES = {"full": None, "kwise": 2}
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
        raise ValueError(f"the noisy scheme's design noise level p must lie in (0, 0.5), got {p}")
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
         for level in levels], key, placement_of(HASH_MODES, hash_mode))
    return TreeDesign(n, params, zip(levels, stacks))


class _Batch:
    """The decode state of a batch of trials: per level, the design's stack
    and the position of its first test in a trial's outcome row; per
    repetition of a level, the position of its first test from the level's
    (the final level has the most repetitions).  ``grid`` holds the trials'
    outcome rows end to end, trial b's from b * t_total on, and ``seen``
    marks the cells read."""

    def __init__(self, design: TreeDesign, grid: np.ndarray):
        self.size, self.t_total = grid.shape
        self.params, self.stacks = design.params, design.stacks
        self.bottom = design.layout[-1][0]
        self.first_test = design.first_test
        self.rep_starts = self.params.t_len * np.arange(self.stacks[self.bottom].reps)[:, None]
        self.grid = grid.reshape(-1)
        self.seen = np.zeros(len(self.grid), dtype=bool)


def _votes(batch: _Batch, level: int, trials: np.ndarray, nodes: np.ndarray,
           first: int, count: int) -> np.ndarray:
    """Outcomes of the tests of the nodes ``nodes``, node i of trial
    ``trials[i]``, at ``level`` in sequences first .. first + count - 1, as a
    (count x nodes) array, from cell ``trial * t_total + first_test[level] +
    rep * t_len + test`` of the grid; marks the cells read."""
    t_len = batch.params.t_len
    tests = batch.stacks[level].tests_of(nodes, slice(first, first + count), trials)
    cells = tests + (trials * batch.t_total + (batch.first_test[level] + first * t_len))
    cells += batch.rep_starts[:count]
    batch.seen[cells] = True
    return batch.grid[cells]


def _lookahead(batch: _Batch, level: int, trials: np.ndarray,
               roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Final labels of the nodes ``roots`` at ``level``, root i of trial
    ``trials[i]`` (a bool array), and per trial of the batch the number of
    intermediate and batch labels computed.

    A root is positive iff some length-r descendant path carries at least
    r // 2 + 1 positive intermediate labels.  Steps past the final level stay
    on the singleton reached and take its batches in order, one per padding
    depth.  The search is level-synchronous over (trial, root, node,
    positives) states: every state at one depth sits at the same level, in
    whichever trial, so each depth is one gather.  A root is accepted as soon
    as one of its states reaches the target; a state is dropped once its
    root is accepted or once it can no longer reach the target.
    """
    reps, r, bottom = batch.params.n_reps, batch.params.r, batch.bottom
    target, half = r // 2 + 1, reps // 2
    open_roots = np.ones(len(roots), dtype=bool)
    owner = np.arange(len(roots)).repeat(2)
    nodes = (roots[:, None] * 2 + _CHILDREN).ravel()
    positives = np.zeros(len(nodes), dtype=np.int64)
    lanes = []  # the trial of every label computed, depth by depth
    for depth in range(1, r + 1):
        lvl = level + depth
        lane_trials = trials[owner]
        lanes.append(lane_trials)
        votes = _votes(batch, min(lvl, bottom), lane_trials, nodes,
                       max(lvl - bottom, 0) * reps, reps)
        positives += votes.sum(axis=0) > half
        open_roots[owner[positives >= target]] = False
        keep = open_roots[owner] & (positives >= target - (r - depth))
        owner, nodes, positives = owner[keep], nodes[keep], positives[keep]
        if not len(nodes):
            break
        if lvl < bottom:
            owner, positives = owner.repeat(2), positives.repeat(2)
            nodes = (nodes[:, None] * 2 + _CHILDREN).ravel()
    return ~open_roots, np.bincount(np.concatenate(lanes), minlength=batch.size)


def decode_noisy(design: TreeDesign,
                 outcomes: OutcomeVector) -> tuple[tuple[int, ...], DecodeReport]:
    """The decode of one trial: the batch of one of
    :func:`decode_noisy_batch`, on the trial's own outcome vector."""
    if tuple(outcomes.layout) != tuple(design.layout):
        raise ValueError("outcome layout does not match this design")
    report = decode_noisy_batch(design, outcomes.bits.reshape(1, -1)).report(0)
    return report.estimate, report


def decode_noisy_batch(design: TreeDesign, grid: np.ndarray) -> BatchReport:
    """Decode every trial of a batch at once, into one :class:`BatchReport`
    whose entry b is row b of ``grid``, the (trials x T) outcomes of
    ``design``'s trials (see ``TreeDesign.noiseless_grid``): descend level
    by level, keeping the children of every node whose lookahead label is
    positive; accept a surviving singleton by a majority over all
    C' * log2 n of its batch labels.

    Each trial keeps its own keys, along the design's trial axis, and its
    own outcome row.  The descent runs every trial's nodes together, each
    node tagged with its trial, so a level's lookahead takes the same r
    gathers for the whole batch as for one trial, and no trial's result
    depends on the others.  Every segment has length ``t_len``, and the
    outcome of test j of (level, rep) of trial b is cell ``b * t_total +
    first_test[level] + rep * t_len + j`` of the grid laid flat.
    ``outcomes_read`` counts distinct outcome cells read,
    ``labels_computed`` every intermediate and batch label evaluated (no
    memo across levels), and ``peak_frontier`` the trial's largest
    possibly-defective set.
    """
    count, t_total = grid.shape
    if t_total != design.t_total:
        raise ValueError(f"a grid of {t_total} outcomes per trial does not match "
                         f"the design's {design.t_total} tests")
    batch = _Batch(design, grid)
    reps = batch.params.n_reps
    log2k, log2n = design.layout[0][0], batch.bottom
    # the possibly-defective nodes of every trial, in trial order
    trials, pd = np.divmod(np.arange(count << log2k), 1 << log2k)
    fronts, labels = [trials], 0

    for level in range(log2k, log2n):
        accepted, computed = _lookahead(batch, level, trials, pd)
        labels += computed
        trials = trials[accepted].repeat(2)
        pd = (pd[accepted, None] * 2 + _CHILDREN).ravel()
        fronts.append(trials)
    sizes = np.array([np.bincount(front, minlength=count) for front in fronts])

    batches = batch.params.c_final * log2n
    votes = _votes(batch, log2n, trials, pd, 0, batches * reps)
    batch_labels = 2 * votes.reshape(batches, reps, -1).sum(axis=1) > reps
    labels += batches * sizes[-1]
    found = 2 * batch_labels.sum(axis=0) > batches
    return BatchReport(estimate=pd[found],
                       bounds=np.searchsorted(trials[found], np.arange(count + 1)),
                       outcomes_read=batch.seen.reshape(count, t_total).sum(axis=1),
                       nodes_visited=sizes.sum(axis=0), peak_frontier=sizes.max(axis=0),
                       labels_computed=labels)
