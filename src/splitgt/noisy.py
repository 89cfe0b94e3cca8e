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

from .core import DecodeReport, OutcomeVector, RandomnessKey, is_power_of_two
from .placements import uniform_style_placement
from .tree import TreeDesign

DEFAULT_T = 2.0
DEFAULT_EPSILON = 0.6
PRACTICE_N_REPS = 7


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
    beta_n: float
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

    beta_n = (k * math.log2(n / k)) ** (1.0 - epsilon * t)
    return NoisyParams(
        p=p, t=t, epsilon=epsilon, c_const=c_const, n_reps=n_reps, r=r,
        c_final=c_final, t_len=c_const * k, beta_n=beta_n, mode=mode,
    )


def noisy_total_tests(params: NoisyParams, n: int, k: int) -> int:
    log2n = n.bit_length() - 1
    log2nk = log2n - (k.bit_length() - 1)
    return (params.n_reps * params.t_len * log2nk
            + params.c_final * params.n_reps * log2n * params.t_len)


class NoisyDesign(TreeDesign):
    """Binary tree over [0, n): node j at level l covers items
    [j * n/2^l, (j+1) * n/2^l)."""

    def __init__(self, params: NoisyParams, n: int, k: int, key: RandomnessKey,
                 hash_mode: str = "full"):
        self.params = params
        self.n = n
        self.k = k
        self.hash_mode = hash_mode
        self.log2n = n.bit_length() - 1
        self.log2k = k.bit_length() - 1
        layout = []
        self.placements: dict[tuple[int, int], object] = {}
        for level in range(self.log2k, self.log2n):
            for rep in range(params.n_reps):
                self.placements[(level, rep)] = uniform_style_placement(
                    1 << level, params.t_len, key.child("level", level, rep),
                    hash_mode, kwise_degree=2,
                )
                layout.append((level, rep, params.t_len))
        final_seqs = params.c_final * params.n_reps * self.log2n
        for seq in range(final_seqs):
            self.placements[(self.log2n, seq)] = uniform_style_placement(
                n, params.t_len, key.child("final", seq), hash_mode, kwise_degree=2,
            )
            layout.append((self.log2n, seq, params.t_len))
        self.layout = tuple(layout)

    def node_size(self, level: int) -> int:
        return self.n >> level

    def node_of(self, item: int, level: int) -> int:
        return item >> (self.log2n - level)

    def test_of(self, level: int, rep: int, node: int) -> int:
        return self.placements[(level, rep)].test_of(node)


def build_noisy_design(params: NoisyParams, n: int, k: int, key: RandomnessKey,
                       hash_mode: str = "full") -> NoisyDesign:
    return NoisyDesign(params, n, k, key, hash_mode)


class LabelCache:
    """Memo of intermediate labels, shared across overlapping lookahead
    windows within one decode.  Also carries the decode's read counters;
    ``outcomes_read`` counts distinct outcome cells observed, so it never
    exceeds the number of tests."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.mid: dict[tuple[int, int], int] = {}
        self.batch: dict[tuple[int, int], int] = {}
        self.lookups = 0
        self.computed = 0
        self.seen: set[tuple[int, int, int]] = set()

    @property
    def outcomes_read(self) -> int:
        return len(self.seen)

    def size(self) -> int:
        return len(self.mid) + len(self.batch)


def intermediate_label(node: int, level: int, design: NoisyDesign,
                       outcomes: OutcomeVector, cache: LabelCache) -> int:
    """Majority vote over the node's N tests at a non-final level."""
    cache.lookups += 1
    key = (level, node)
    if cache.enabled and key in cache.mid:
        return cache.mid[key]
    reps = design.params.n_reps
    positives = 0
    for rep in range(reps):
        test = design.test_of(level, rep, node)
        cache.seen.add((level, rep, test))
        positives += outcomes.get(level, rep, test)
    label = 1 if 2 * positives > reps else 0
    cache.computed += 1
    if cache.enabled:
        cache.mid[key] = label
    return label


def final_level_batch_label(item: int, batch: int, design: NoisyDesign,
                            outcomes: OutcomeVector, cache: LabelCache) -> int:
    """Majority vote over batch ``batch`` of the singleton's final-level
    sequences (sequences batch*N .. batch*N + N - 1)."""
    cache.lookups += 1
    key = (item, batch)
    if cache.enabled and key in cache.batch:
        return cache.batch[key]
    reps = design.params.n_reps
    level = design.log2n
    positives = 0
    for j in range(reps):
        seq = batch * reps + j
        test = design.test_of(level, seq, item)
        cache.seen.add((level, seq, test))
        positives += outcomes.get(level, seq, test)
    label = 1 if 2 * positives > reps else 0
    cache.computed += 1
    if cache.enabled:
        cache.batch[key] = label
    return label


def _lookahead(design: NoisyDesign, outcomes: OutcomeVector, cache: LabelCache,
               target: int, lvl: int, nd: int, batch: int, depth: int,
               positives: int) -> bool:
    """One step of :func:`final_label`'s path search.  A module-level function
    rather than a closure over itself, so that a decode leaves no reference
    cycle keeping its cache, design and outcomes alive."""
    bottom, r = design.log2n, design.params.r
    if lvl < bottom:
        positives += intermediate_label(nd, lvl, design, outcomes, cache)
    else:
        positives += final_level_batch_label(nd, batch, design, outcomes, cache)
    if positives >= target:
        return True
    if depth == r or positives + (r - depth) < target:
        return False
    if lvl < bottom:
        return (_lookahead(design, outcomes, cache, target,
                           lvl + 1, 2 * nd, 0, depth + 1, positives)
                or _lookahead(design, outcomes, cache, target,
                              lvl + 1, 2 * nd + 1, 0, depth + 1, positives))
    return _lookahead(design, outcomes, cache, target, lvl, nd, batch + 1, depth + 1, positives)


def final_label(node: int, level: int, design: NoisyDesign,
                outcomes: OutcomeVector, cache: LabelCache) -> int:
    """Lookahead decision for a node above the final level.

    Depth-first search over the length-r descendant paths, pruned as soon as
    the positives seen so far cannot exceed r/2 and accepted as soon as they
    do.  Steps past the final level stay on the singleton reached and consume
    its batches in order, one per padding depth.
    """
    if level >= design.log2n:
        raise ValueError("final_label applies above the final level")
    target = design.params.r // 2 + 1
    found = (_lookahead(design, outcomes, cache, target, level + 1, 2 * node, 0, 1, 0)
             or _lookahead(design, outcomes, cache, target, level + 1, 2 * node + 1, 0, 1, 0))
    return 1 if found else 0


def singleton_final_label(item: int, design: NoisyDesign, outcomes: OutcomeVector,
                          cache: LabelCache) -> int:
    """Final-level acceptance: majority over all C' * log2 n batch labels."""
    total = design.params.c_final * design.log2n
    positives = sum(
        final_level_batch_label(item, batch, design, outcomes, cache)
        for batch in range(total)
    )
    return 1 if 2 * positives > total else 0


def decode_noisy(design: NoisyDesign, outcomes: OutcomeVector,
                 use_cache: bool = True) -> tuple[tuple[int, ...], DecodeReport]:
    if tuple(outcomes.layout) != tuple(design.layout):
        raise ValueError("outcome layout does not match this design")
    start = time.perf_counter_ns()
    cache = LabelCache(enabled=use_cache)
    visited = 0
    pd = list(range(design.k))
    pd_peak = len(pd)

    for level in range(design.log2k, design.log2n):
        nxt = []
        for node in pd:
            visited += 1
            if final_label(node, level, design, outcomes, cache):
                nxt.append(2 * node)
                nxt.append(2 * node + 1)
        pd = nxt
        pd_peak = max(pd_peak, len(pd))

    estimate = []
    for item in pd:
        visited += 1
        if singleton_final_label(item, design, outcomes, cache):
            estimate.append(item)

    wall = time.perf_counter_ns() - start
    storage = (design.storage_words + pd_peak + cache.size()
               + (outcomes.t_total + 63) // 64)
    report = DecodeReport(
        estimate=tuple(sorted(estimate)),
        outcomes_read=cache.outcomes_read,
        nodes_visited=visited,
        wall_nanos=wall,
        storage_words=storage,
        labels_computed=cache.computed,
    )
    return report.estimate, report
