"""Monte-Carlo harness: runs design -> evaluate -> decode trials and
aggregates recovery rates and cost counters.

A trial is a pure function of (config, base seed, trial index): the defective
set, the design and the channel noise each consume their own substream of
``RandomnessKey(base_seed, (trial_index,))``, so any run is reproducible and
trials are independent.  The defectives and the noise are read from the
SplitMix64 counter stream of their substream's key (``core.counter_stream``),
as the placements are, so no trial constructs a generator.  Success means
exact set recovery; partial-recovery counts are reported as supplementary
columns only.

``run_trials`` splits its trials into at most ``jobs`` consecutive shares, one
per worker and each at least one batch, and a share runs in batches of
consecutive trials, each trial with its own defectives, design keys and
noise.  A batch of several trials is one design over every trial's keys,
evaluated into one outcome grid and decoded by one descent, and its
defective draw and records are array programs over the batch.  A batch of
one builds its trial's own design, evaluates it (``core.evaluate_design``)
and decodes it by the scheme's one-trial decoder.  A share's records are
one list per field, which ``aggregate`` sums; ``run_trial`` is the share of
one, so its record, which traced runs take, comes from the one-trial path.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import baselines
from . import gamma as gamma_mod
from . import noisy as noisy_mod
from . import rho as rho_mod
from . import tree as tree_mod
from .core import (
    BatchReport,
    NoiseChannel,
    ProblemInstance,
    RandomnessKey,
    counter_stream,
    evaluate_batch,
    evaluate_design,
    round_instance,
)
from .gamma import DEFAULT_C_CONST
from .noisy import DEFAULT_EPSILON, DEFAULT_T
from .rho import DEFAULT_C_DEPTH, DEFAULT_C_FINAL, DEFAULT_N_REPS


@dataclass(frozen=True)
class TrialConfig:
    algorithm: str
    n: int
    k: int
    trials: int = 100
    base_seed: int = 0
    # symmetric channel: each outcome flips with probability p
    p: float = 0.0
    # gamma scheme
    gamma: Optional[int] = None
    gamma_prime: Optional[int] = None
    c_const: float = DEFAULT_C_CONST
    beta_exp: float = 2.0
    # rho scheme
    rho: Optional[int] = None
    depth: int = DEFAULT_C_DEPTH
    reps: Optional[int] = None
    final_reps: Optional[int] = None
    # noisy scheme
    design_p: Optional[float] = None
    t: float = DEFAULT_T
    epsilon: float = DEFAULT_EPSILON
    mode: str = "practice"
    lookahead: Optional[int] = None
    # flat baselines
    tests: Optional[int] = None
    threshold: float = baselines.DEFAULT_NCOMP_THRESHOLD
    # shared
    hash_mode: str = "full"
    defectives: Optional[tuple[int, ...]] = None
    jobs: int = 1

    def channel(self) -> NoiseChannel:
        return NoiseChannel.symmetric(self.p)


@dataclass(frozen=True)
class AggregateResult:
    algorithm: str
    n: int
    k: int
    p: float  # the channel flip probability (noisy's design target is params["p"])
    t_total: int
    trials: int
    successes: int
    success_rate: float
    ci_lo: float
    ci_hi: float
    mean_outcomes_read: float
    max_outcomes_read: int
    mean_nodes_visited: float
    mean_labels: float
    mean_false_positives: float
    mean_false_negatives: float
    storage_words: int
    seed: int
    hash_mode: str
    params: dict = field(default_factory=dict)
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "AggregateResult":
        return cls(**d)


def wilson_interval(successes: int, trials: int,
                    z: float = 1.959963984540054) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # exact at the ends: rounding can leave 0 successes a positive lower end
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


# sweep cells and Python callers set these without argparse's int conversion
# (a --config file is parsed as flags); their ints must be exact ints, since
# ``bool`` subclasses ``int``
INTEGER_FIELDS = ("n", "k", "trials", "base_seed", "gamma", "gamma_prime", "rho", "depth",
                  "reps", "final_reps", "lookahead", "tests", "jobs")
FLOAT_FIELDS = ("p", "c_const", "beta_exp", "design_p", "t", "epsilon", "threshold")


# Item ids are int64, and the defective draw's bias bound (see
# ``_draw_defectives``) is stated up to 2^62 items.  A trial may allocate no
# array above MAX_TRIAL_BYTES (see ``Scheme.footprint``): a config past it
# is rejected before trial 0, not failed in it by an allocation that one host
# refuses and another overcommits.
MAX_N, MAX_TRIAL_BYTES = 1 << 62, 1 << 32
# A batch of trials holds their outcome vectors and read marks, two bytes
# per test and trial (and a COMP/NCOMP batch its frontiers of n nodes); a
# batch stays under this many bytes.  At 4 MiB, five 206k-test gamma kwise
# trials at n=2^30 (lowstore-giant) are one batch, and that workload's peak
# RSS stays within 2% of running them as batches of one: 42.60 against
# 41.95 MiB at seed 1, 42.79 against 41.96 at seed 8191.
BATCH_BYTES = 1 << 22


def validate_config(config: TrialConfig) -> None:
    if config.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {config.algorithm!r}; expected one of {ALGORITHMS}")
    for name in INTEGER_FIELDS:
        value = getattr(config, name)
        if value is not None and type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name in FLOAT_FIELDS:
        value = getattr(config, name)
        finite = type(value) is int or (isinstance(value, float) and math.isfinite(value))
        if value is not None and not finite:
            raise ValueError(f"{name} must be a finite real number, got {value!r}")
    scheme = SCHEMES[config.algorithm]
    tree_mod.placement_of(scheme.hash_modes, config.hash_mode)
    if config.trials < 0:
        raise ValueError("trials must be non-negative")
    if config.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {config.jobs}")
    if config.defectives is not None:
        if not (isinstance(config.defectives, (tuple, list))
                and all(type(d) is int for d in config.defectives)):
            raise ValueError("explicit defectives must be integers in a tuple or list, "
                             f"got {config.defectives!r}")
        if not all(0 <= d < config.n for d in config.defectives):
            raise ValueError(
                f"explicit defectives must lie in [0, {config.n}); items added by "
                "rounding n up stay non-defective"
            )
        k = _rounded(config)[1]
        if len(set(config.defectives)) != len(config.defectives) or len(config.defectives) > k:
            raise ValueError(f"explicit defectives must be distinct and at most k={k}")
    if config.algorithm == "gamma" and config.gamma is None:
        raise ValueError("the gamma scheme needs a divisibility budget (gamma)")
    if config.algorithm == "rho" and config.rho is None:
        raise ValueError("the rho scheme needs a test-size cap (rho)")
    if config.algorithm in ("comp", "ncomp") and config.tests is not None and config.tests < 1:
        raise ValueError(f"the test budget (tests) must be at least 1, got {config.tests}")
    if config.algorithm == "ncomp" and not 0.0 <= config.threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {config.threshold}")
    n, k, _ = _rounded(config)
    if k >= n:
        raise ValueError(f"k={config.k} rounds up to {k}, not below the rounded n={n}")
    if n > MAX_N:
        raise ValueError(f"n={n} (rounded) exceeds the supported 2^62 items")
    try:
        size = scheme.footprint(scheme.params(config, n, k), n, k)
    except ArithmeticError as exc:  # an overflow or a division by zero in the formulas
        raise ValueError(f"the {config.algorithm} parameters cannot be computed: {exc}") from exc
    if size > MAX_TRIAL_BYTES:
        raise ValueError(f"a trial would allocate a {size}-byte array, over the "
                         f"{MAX_TRIAL_BYTES}-byte limit")
    config.channel()  # validates the flip probability


def _rounded(config: TrialConfig) -> tuple[int, int, Optional[int]]:
    return round_instance(config.n, config.k, config.rho)


class Scheme(NamedTuple):
    """One algorithm's phases of a trial.  Each looks up the functions it
    calls on their modules at call time, so that a wrapper set on a module
    attribute (a tracer's span, a test's recorder) sees every call."""

    hash_modes: dict  # each --hash-mode name the scheme takes to its placement
    params: Callable  # (config, n, k) -> params
    build: Callable   # (config, params, n, k, key) -> design
    decode: Callable  # (config, design, outcomes) -> the DecodeReport of one trial
    echo: Callable    # (config, params) -> the result's ``params`` dict
    # (params, n, k) -> bytes of a trial's largest array: the outcome vector
    # (a byte per test), the gamma/rho frontier once k top-level nodes
    # expand (8 per child), or the COMP/NCOMP frontier or row keys
    footprint: Callable
    batch: Callable        # (params, n, k) -> the most trials one batch may hold
    decode_grid: Callable  # (config, design, grid) -> the BatchReport of grid's rows


def _tree_echo(config: TrialConfig, params) -> dict:
    return asdict(params)


def _tree_footprint(tests: int, top_nodes: int, branching: int, k: int) -> int:
    return max(tests, 8 * min(k, top_nodes) * branching)


def _tree_batch(tests: int) -> int:
    """The most trials of ``tests`` tests that keep a batch's outcomes and
    read marks under ``BATCH_BYTES``, and at least one."""
    return max(1, BATCH_BYTES // (2 * tests))


def _decode_grid(config: TrialConfig, design, grid) -> BatchReport:
    return tree_mod.decode_tree_batch(design, grid)


def _flat_scheme(decode, decode_grid, echo) -> Scheme:
    """A COMP-style decoder on the one-level design of
    ``baselines.build_flat_design``; its params are the test budget.  A
    trial of T tests holds two bytes per test, its frontier of n nodes and
    their trials (16 bytes a node) and its w <= T row keys (8 bytes each)."""
    return Scheme(
        {"full": None},  # the counter hash, accounted as the stored n * w table
        lambda c, n, k: baselines.default_baseline_tests(n, k) if c.tests is None else c.tests,
        lambda c, tests, n, k, key: baselines.build_flat_design(n, tests, key, k=k),
        decode, echo,
        lambda tests, n, k: 8 * max(n, math.prod(baselines.flat_shape(tests, k))),
        lambda tests, n, k: max(1, BATCH_BYTES // (2 * math.prod(baselines.flat_shape(tests, k))
                                                   + 16 * n)),
        decode_grid)


SCHEMES = {
    "gamma": Scheme(
        gamma_mod.HASH_MODES,
        lambda c, n, k: gamma_mod.gamma_params(
            n, k, c.gamma, beta_n=1.0 / math.log2(n) ** c.beta_exp, c_const=c.c_const,
            gamma_prime=c.gamma_prime),
        lambda c, params, n, k, key: gamma_mod.build_gamma_design(params, n, key, c.hash_mode),
        lambda c, design, outcomes: gamma_mod.decode_gamma(design, outcomes)[1],
        _tree_echo,
        lambda params, n, k: _tree_footprint(gamma_mod.gamma_total_tests(params, n),
                                             n // params.level1_size, params.branching, k),
        lambda params, n, k: _tree_batch(gamma_mod.gamma_total_tests(params, n)),
        _decode_grid),
    "rho": Scheme(
        rho_mod.HASH_MODES,
        lambda c, n, k: rho_mod.rho_params(
            n, k, _rounded(c)[2], c_depth=c.depth,
            n_reps=DEFAULT_N_REPS if c.reps is None else c.reps,
            c_final=DEFAULT_C_FINAL if c.final_reps is None else c.final_reps),
        lambda c, params, n, k, key: rho_mod.build_rho_design(params, n, key, c.hash_mode),
        lambda c, design, outcomes: rho_mod.decode_rho(design, outcomes)[1],
        _tree_echo,
        lambda params, n, k: _tree_footprint(rho_mod.rho_total_tests(params, n),
                                             n // params.rho, params.branch, k),
        lambda params, n, k: _tree_batch(rho_mod.rho_total_tests(params, n)),
        _decode_grid),
    "noisy": Scheme(
        noisy_mod.HASH_MODES,
        lambda c, n, k: noisy_mod.noisy_params(
            n, k, c.p if c.design_p is None else c.design_p, t=c.t, epsilon=c.epsilon,
            mode=c.mode, n_reps=c.reps, r=c.lookahead, c_final=c.final_reps),
        lambda c, params, n, k, key: noisy_mod.build_noisy_design(params, n, k, key, c.hash_mode),
        lambda c, design, outcomes: noisy_mod.decode_noisy(design, outcomes)[1],
        _tree_echo,
        lambda params, n, k: noisy_mod.noisy_total_tests(params, n, k),
        lambda params, n, k: _tree_batch(noisy_mod.noisy_total_tests(params, n, k)),
        lambda c, design, grid: noisy_mod.decode_noisy_batch(design, grid)),
    "comp": _flat_scheme(
        lambda c, design, outcomes: baselines.decode_comp(design, outcomes)[1],
        _decode_grid,
        lambda c, tests: {"tests": tests}),
    "ncomp": _flat_scheme(
        lambda c, design, outcomes: baselines.decode_ncomp(design, outcomes, c.threshold)[1],
        lambda c, design, grid: tree_mod.decode_tree_batch(
            design, grid, baselines.ncomp_misses(design, c.threshold)),
        lambda c, tests: {"tests": tests, "threshold": c.threshold}),
}
ALGORITHMS = tuple(SCHEMES)


# A draw of this many Floyd picks (trials times k) or more runs as one
# uint64 array program, a smaller one as the scalar loop: the program costs
# 60-80 us whatever its size, the loop about 0.8 us a pick, so the two meet
# near 100 picks.  Measured on 2 shared cores, scalar -> array: n=2^30 k=64
# one trial, 52 -> 78 us; n=2^20 k=16 one trial, 25 -> 80 us; n=2^14 k=4
# 150 trials, 379 -> 118 us (580 -> 193 us on a busier host).
ARRAY_DRAW_PICKS = 128
_LOW32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products of uint64 arrays ``a`` and
    ``b``, from their 32-bit limbs: each limb product, and the middle sum
    of three values below 2^32 each, stays below 2^64."""
    a_lo, a_hi, b_lo, b_hi = a & _LOW32, a >> _S32, b & _LOW32, b >> _S32
    cross, other = a_lo * b_hi, a_hi * b_lo
    middle = ((a_lo * b_lo) >> _S32) + (cross & _LOW32) + (other & _LOW32)
    return a_hi * b_hi + (cross >> _S32) + (other >> _S32) + (middle >> _S32)


def _picks(high: np.ndarray, low: np.ndarray, m: np.ndarray) -> np.ndarray:
    """floor(u * m / 2^128) for the 128-bit u whose high and low words are
    ``high`` and ``low``, and m < 2^64: mulhi(high, m) plus the carry out of
    lo64(high * m) + mulhi(low, m), all uint64 arrays."""
    product = high * m
    return _mulhi(high, m) + (product + _mulhi(low, m) < product)


def _floyd(row: list[int], n: int, count: int) -> tuple[int, ...]:
    """The Floyd draw of ``count`` of [0, n) from one row of counter stream
    outputs, pick by pick (see :func:`_draw_defectives`)."""
    chosen, outputs = set(), iter(row)
    for j, high, low in zip(range(n - count, n), outputs, outputs):
        pick = ((high << 64 | low) * (j + 1)) >> 128
        chosen.add(j if pick in chosen else pick)
    return tuple(sorted(chosen))


def _draw_defectives(config: TrialConfig, words: np.ndarray) -> list[tuple[int, ...]]:
    """The defectives of every trial whose defectives key has the material
    words of a row of ``words``: the explicit ones, or k of the raw n items.

    The draw is Floyd's sampling algorithm (Bentley and Floyd, CACM 1987):
    step s, for j = n - k + s, picks t in [0, j] and adds j if t is taken,
    else t, which leaves a uniform k-subset of [0, n).  Its pick is
    ``(u * (j + 1)) >> 128`` for the 128-bit u whose high and low words are
    outputs 2s and 2s + 1 of the key's counter stream: each pick is off
    uniform by a total variation of at most n / 2^128 <= 2^-66, so the set
    by at most k times that.  Dummy items, which rounding puts above the raw
    n, stay non-defective.

    From ``ARRAY_DRAW_PICKS`` picks on, every pick of the batch is one
    array program (:func:`_picks`).  A row whose picks are distinct is its
    own draw, since Floyd then adds every pick itself; a row with a repeat,
    and every row of a smaller draw, takes the scalar loop.
    """
    if config.defectives is not None:
        return [tuple(sorted(config.defectives))] * len(words)
    n, count = config.n, min(config.k, config.n)
    outputs = counter_stream(words, 2 * count)
    if len(words) * count < ARRAY_DRAW_PICKS:
        return [_floyd(row, n, count) for row in outputs.tolist()]
    picks = _picks(outputs[:, 0::2], outputs[:, 1::2],
                   np.arange(n - count + 1, n + 1, dtype=np.uint64))
    picks.sort(axis=1)
    draws = list(map(tuple, picks.tolist()))
    for b in np.flatnonzero((picks[:, 1:] == picks[:, :-1]).any(axis=1)).tolist():
        draws[b] = _floyd(outputs[b].tolist(), n, count)
    return draws


# the fields of a trial's record, in order; a share's records are one list
# per field (see ``_run_share``)
RECORD_FIELDS = ("exact", "outcomes_read", "nodes_visited", "labels", "false_positives",
                 "false_negatives", "storage_words", "t_total", "estimate", "defectives")


def _extend_records(records: dict[str, list], truths: list[tuple[int, ...]], design,
                    estimates: list[tuple[int, ...]], read: list[int], visited: list[int],
                    peak: list[int], labels: list[int]) -> None:
    """Append a batch's records, trial b's from its draw ``truths[b]``, its
    ascending estimate ``estimates[b]`` and its decode counters.

    A trial is exact when its estimate equals its sorted draw; only an
    inexact one compares sets for its false positives and negatives.
    ``storage_words`` follows the accounting used throughout: the design's
    placement storage, plus the decode's peak possibly-defective set, plus
    the outcome bits in 64-bit words.
    """
    exact = [estimate == truth for estimate, truth in zip(estimates, truths)]
    positives, negatives = [0] * len(exact), [0] * len(exact)
    for b in (b for b, hit in enumerate(exact) if not hit):
        est, truth = set(estimates[b]), set(truths[b])
        exact[b], positives[b], negatives[b] = est == truth, len(est - truth), len(truth - est)
    fixed = design.storage_words + (design.t_total + 63) // 64
    for name, column in zip(RECORD_FIELDS, (
            exact, read, visited, labels, positives, negatives, [fixed + p for p in peak],
            [design.t_total] * len(exact), estimates, truths)):
        records[name] += column


def _record(records: dict[str, list], index: int) -> dict:
    """Row ``index`` of a share's records, the record of one trial."""
    return {name: column[index] for name, column in records.items()}


def _run_share(config: TrialConfig, indices: range) -> dict[str, list]:
    """The seeded trials ``indices``, consecutive, in batches of at most the
    scheme's cap, each batch decoded by one call; their records as one list
    per field of ``RECORD_FIELDS``, in trial order.  Rounding, channel,
    scheme, params and cap are computed once.

    A batch of one builds, evaluates and decodes its trial's own design,
    without a trial array.  A larger batch computes its trials' key
    material in one array program (:meth:`RandomnessKey.materials`) and
    builds one design from all of it, so that one evaluation and one
    descent serve the batch, whose :class:`BatchReport` columns each take
    one ``tolist``; every trial still draws from its own substreams, so its
    record is the same.
    """
    n, k, _ = _rounded(config)
    channel = config.channel()
    scheme = SCHEMES[config.algorithm]
    params = scheme.params(config, n, k)
    cap = scheme.batch(params, n, k)
    root = RandomnessKey(config.base_seed)

    def trial(index: int) -> tuple:
        key = root.child(index)
        truths = _draw_defectives(config, key.child("defectives").words())
        instance = ProblemInstance(n=n, k=k, defectives=truths[0])
        design = scheme.build(config, params, n, k, key.child("design"))
        outcomes = evaluate_design(design, instance, channel, key.child("noise"))
        report = scheme.decode(config, design, outcomes)
        return (truths, design, [report.estimate], [report.outcomes_read],
                [report.nodes_visited], [report.peak_frontier], [report.labels_computed])

    def shared(batch: range) -> tuple:
        truths = _draw_defectives(config, root.materials(batch, "defectives"))
        design = scheme.build(config, params, n, k, root.materials(batch, "design"))
        noise = None if channel.is_noiseless else root.materials(batch, "noise")
        report = scheme.decode_grid(config, design, evaluate_batch(design, truths, channel, noise))
        return (truths, design, report.estimates(), report.outcomes_read.tolist(),
                report.nodes_visited.tolist(), report.peak_frontier.tolist(),
                report.labels_computed.tolist())

    records = {name: [] for name in RECORD_FIELDS}
    for start in range(0, len(indices), cap):
        batch = indices[start:start + cap]
        try:
            columns = shared(batch) if len(batch) > 1 else trial(batch[0])
        except Exception as exc:
            which = (f"trial {batch[0]}" if len(batch) == 1
                     else f"trials {batch[0]}-{batch[-1]}")
            raise RuntimeError(f"{which} failed: {exc}") from exc
        _extend_records(records, *columns)
        del columns  # so that no two batches' designs are alive at once
    return records


def run_trial(config: TrialConfig, index: int) -> dict:
    """One seeded trial, the share of one; returns the per-trial record used
    for aggregation, its fields those of ``RECORD_FIELDS``."""
    return _record(_run_share(config, range(index, index + 1)), 0)


def run_trials(config: TrialConfig) -> AggregateResult:
    """All trials of ``config``, aggregated.

    The trials split into consecutive shares of ``ceil(trials / jobs)``
    trials, or of one batch where that is more, and each share runs whole,
    serially or in a pool of at most ``os.cpu_count()`` workers (see
    :func:`_run_share`), in batches of at most the scheme's cap: as many
    trials as keep a batch's outcome vectors and read marks, and for COMP
    and NCOMP their n-node frontiers, under ``BATCH_BYTES``.  A call of at
    most one batch so runs in this process, as one batch.  The records come
    back in index order.
    """
    validate_config(config)
    n, k, _ = _rounded(config)
    scheme = SCHEMES[config.algorithm]
    size = max(-(-config.trials // config.jobs), scheme.batch(scheme.params(config, n, k), n, k))
    indices = range(config.trials)
    shares = [indices[start:start + size] for start in range(0, config.trials, size)]
    if len(shares) > 1:
        with ProcessPoolExecutor(max_workers=min(len(shares), os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_run_share, [config] * len(shares), shares))
    else:
        parts = [_run_share(config, share) for share in shares]
    return aggregate(config, {name: [value for part in parts for value in part[name]]
                              for name in RECORD_FIELDS})


def aggregate(config: TrialConfig, records: dict[str, list]) -> AggregateResult:
    """The result of ``config`` from its trials' records, one list per field
    of ``RECORD_FIELDS``, in index order."""
    n, k, _ = _rounded(config)
    scheme = SCHEMES[config.algorithm]
    successes = sum(records["exact"])
    trials = len(records["exact"])
    rate = successes / trials if trials else 0.0
    lo, hi = wilson_interval(successes, trials)

    def mean(name: str) -> float:
        return sum(records[name]) / trials if trials else 0.0

    return AggregateResult(
        algorithm=config.algorithm,
        n=n,
        k=k,
        p=float(config.p),
        t_total=records["t_total"][0] if trials else 0,
        trials=trials,
        successes=successes,
        success_rate=rate,
        ci_lo=lo,
        ci_hi=hi,
        mean_outcomes_read=mean("outcomes_read"),
        max_outcomes_read=max(records["outcomes_read"], default=0),
        mean_nodes_visited=mean("nodes_visited"),
        mean_labels=mean("labels"),
        mean_false_positives=mean("false_positives"),
        mean_false_negatives=mean("false_negatives"),
        storage_words=max(records["storage_words"], default=0),
        seed=config.base_seed,
        hash_mode=config.hash_mode,
        params=scheme.echo(config, scheme.params(config, n, k)),
    )


def sweep(configs: list[TrialConfig]) -> list[AggregateResult]:
    """Run a grid of configs in order; a failing cell is recorded as an error
    row and the sweep continues."""
    if not configs:
        raise ValueError("sweep needs at least one config")
    results = []
    for config in configs:
        try:
            results.append(run_trials(config))
        except Exception as exc:  # recorded, not raised: later cells still run
            results.append(AggregateResult(
                algorithm=config.algorithm, n=config.n, k=config.k, p=config.p, t_total=0,
                trials=0, successes=0, success_rate=0.0, ci_lo=0.0, ci_hi=1.0,
                mean_outcomes_read=0.0, max_outcomes_read=0,
                mean_nodes_visited=0.0, mean_labels=0.0,
                mean_false_positives=0.0, mean_false_negatives=0.0,
                storage_words=0, seed=config.base_seed,
                hash_mode=config.hash_mode, params={}, error=str(exc),
            ))
    return results


def eta_hat(n: float, k: float, gamma_value: float, t_total: float) -> float:
    """Finite-size test-count efficiency exponent:
    log(n/k) / (gamma * log(T / (gamma * k)))."""
    if not n > k > 0:
        raise ValueError(f"need n > k > 0, got n={n}, k={k}")
    if t_total <= gamma_value * k:
        raise ValueError(
            f"T={t_total} must exceed gamma*k={gamma_value * k} for eta to be defined"
        )
    return math.log(n / k) / (gamma_value * math.log(t_total / (gamma_value * k)))


def splitting_test_exponent(theta: float, gamma_value: int) -> float:
    """Exponent of n in the splitting scheme's test count at density theta,
    optimised over the tree height (vanishing error-term contribution)."""
    gp = gamma_mod.select_gamma_prime(gamma_value, theta)
    return gamma_mod._objective(gamma_value, gp, theta)


def eta_curve(gammas: list[int], theta_steps: int = 9) -> list[dict]:
    """Efficiency-exponent rows for COMP and the splitting scheme.

    Evaluated through :func:`eta_hat` on the closed-form test counts at a
    reference size; the resulting ratio is size-free, so these are the
    limiting curves.  COMP's curve does not depend on the budget.
    """
    n_ref = 2.0 ** 64
    rows = []
    for i in range(1, theta_steps + 1):
        theta = i / (theta_steps + 1)
        k_ref = n_ref ** theta
        g0 = gammas[0]
        t_comp = g0 * k_ref * n_ref ** (1.0 / g0)
        rows.append({
            "theta": theta,
            "variant": "comp",
            "eta_hat": eta_hat(n_ref, k_ref, g0, t_comp),
        })
        for gamma_value in gammas:
            exponent = splitting_test_exponent(theta, gamma_value)
            t_split = gamma_value * k_ref * n_ref ** exponent
            rows.append({
                "theta": theta,
                "variant": f"split-gamma{gamma_value}",
                "eta_hat": eta_hat(n_ref, k_ref, gamma_value, t_split),
            })
    return rows


def results_to_json(results: list[AggregateResult]) -> str:
    return json.dumps([r.to_dict() for r in results], indent=2)


def results_from_json(text: str) -> list[AggregateResult]:
    return [AggregateResult.from_dict(d) for d in json.loads(text)]
