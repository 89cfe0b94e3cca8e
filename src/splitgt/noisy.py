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
:func:`noisy_levels` states the levels once, for the builder and the
harness's size rule, and ``HASH_MODES`` maps each hash mode to their
placement: the counter hash, or a pairwise polynomial (``kwise``).

The decoder is the splitting descent of every scheme,
:func:`splitgt.tree.descend`, under the noisy survival rule: a node above
the singletons survives on its final label, a singleton on the majority of
its batch labels.  :func:`decode_noisy_batch` decodes a batch of trials at
once into one :class:`splitgt.core.BatchReport`; :func:`decode_noisy` is
its batch of one, as a :class:`splitgt.core.DecodeReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BatchReport, DecodeReport, OutcomeVector, RandomnessKey, is_power_of_two
from .placements import COUNTER_HASH, Level, level_stacks, polynomial
from .tree import Reads, TreeDesign, decode_one, descend, placement_of, tally

HASH_MODES = {"full": COUNTER_HASH, "kwise": polynomial(2)}
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


def noisy_levels(params: NoisyParams, n: int, k: int, hash_mode: str = "full") -> list[Level]:
    """The binary tree's levels, from level log2 k, all alive at the start,
    down to the singletons at level log2 n: N sequences of C * k tests at
    each level above the final one and C' * N * log2 n at the final level,
    every one placed as ``HASH_MODES`` maps the mode."""
    placement, log2n = placement_of(HASH_MODES, hash_mode), n.bit_length() - 1
    final_seqs = params.c_final * params.n_reps * log2n
    return [Level(level, 1 << level, params.t_len,
                  params.n_reps if level < log2n else final_seqs, placement)
            for level in range(k.bit_length() - 1, log2n + 1)]


def build_noisy_design(params: NoisyParams, n: int, k: int, key: RandomnessKey,
                       hash_mode: str = "full") -> TreeDesign:
    """The design of :func:`noisy_levels` from the design key, or from
    several trials' key material one design of those trials."""
    return TreeDesign(n, params, level_stacks(noisy_levels(params, n, k, hash_mode), key))


def _votes(reads: Reads, level: int, trials, nodes: np.ndarray, first: int,
           count: int) -> np.ndarray:
    """Outcomes of the tests of ``nodes``, node i of trial ``trials[i]``,
    at ``level`` in sequences first .. first + count - 1, (count x nodes)."""
    tests = reads.design.stacks[level].tests_of(nodes, slice(first, first + count), trials)
    return reads.reads(level, first, tests, trials)


def _lookahead(reads: Reads, level: int, trials, roots: np.ndarray) -> tuple:
    """Final labels of the nodes ``roots`` at ``level``, root i of trial
    ``trials[i]`` (a bool array), and per trial the number of intermediate
    and batch labels computed (see :func:`splitgt.tree.tally`).

    A root is positive iff some length-r descendant path carries at least
    r // 2 + 1 positive intermediate labels.  Steps past the final level stay
    on the singleton reached and take its batches in order, one per padding
    depth.  The search is level-synchronous over (trial, root, node,
    positives) states: every state at one depth sits at the same level, in
    whichever trial, so each depth is one gather.  A root is accepted as soon
    as one of its states reaches the target; a state is dropped once its
    root is accepted or once it can no longer reach the target.
    """
    params, bottom = reads.design.params, reads.design.layout[-1][0]
    reps, r = params.n_reps, params.r
    target, half, tally_type = r // 2 + 1, reps // 2, np.min_scalar_type(reps)
    open_roots = np.ones(len(roots), dtype=bool)
    owner = np.arange(len(roots)).repeat(2)
    nodes = (roots[:, None] * 2 + _CHILDREN).ravel()
    positives = np.zeros(len(nodes), dtype=np.int64)
    lanes = []  # the trial of every label computed, depth by depth, or its root
    for depth in range(1, r + 1):
        lvl = level + depth
        lane_trials = None if trials is None else trials[owner]
        lanes.append(owner if trials is None else lane_trials)
        votes = _votes(reads, min(lvl, bottom), lane_trials, nodes,
                       max(lvl - bottom, 0) * reps, reps)
        positives += votes.sum(axis=0, dtype=tally_type) > half
        open_roots[owner[positives >= target]] = False
        keep = open_roots[owner] & (positives >= target - (r - depth))
        owner, nodes, positives = owner[keep], nodes[keep], positives[keep]
        if not len(nodes):
            break
        if lvl < bottom:
            owner, positives = owner.repeat(2), positives.repeat(2)
            nodes = (nodes[:, None] * 2 + _CHILDREN).ravel()
    lanes = np.concatenate(lanes)
    return ~open_roots, tally(None if trials is None else lanes, len(lanes), reads.count)


def _labels_positive(reads: Reads, level: int, nodes: np.ndarray, trials):
    """The noisy survival rule: above the singletons, a positive lookahead
    label; at them, a majority of all C' * log2 n batch labels.  It counts
    every label evaluated, with no memo across levels."""
    params = reads.design.params
    if level < reads.design.layout[-1][0]:
        found, labels = _lookahead(reads, level, trials, nodes)
    else:  # the singletons, at level log2 n
        batches, reps = params.c_final * level, params.n_reps
        votes = _votes(reads, level, trials, nodes, 0, batches * reps).reshape(batches, reps, -1)
        batch_labels = votes.sum(axis=1, dtype=np.min_scalar_type(reps)) > reps // 2
        found = 2 * batch_labels.sum(axis=0) > batches
        labels = batches * tally(trials, len(nodes), reads.count)
    return nodes[found], None if trials is None else trials[found], labels


def decode_noisy(design: TreeDesign,
                 outcomes: OutcomeVector) -> tuple[tuple[int, ...], DecodeReport]:
    """The decode of one trial by :func:`decode_noisy_batch`'s rule."""
    return decode_one(design, outcomes, _labels_positive)


def decode_noisy_batch(design: TreeDesign, grid: np.ndarray) -> BatchReport:
    """The :func:`splitgt.tree.descend` of the noisy decoder.  Every
    trial's nodes run together, so a level's lookahead takes the same r
    gathers for a batch as for one trial."""
    return descend(design, grid, _labels_positive)
