"""Monte-Carlo harness: runs design -> evaluate -> decode trials and
aggregates recovery rates and cost counters.

A trial is a pure function of (config, base seed, trial index): the defective
set, the design and the channel noise each consume their own substream of
``RandomnessKey(base_seed, (trial_index,))``, so any run is reproducible and
trials are independent.  Success means exact set recovery; partial-recovery
counts are reported as supplementary columns only.

``run_trials`` splits its trials into at most ``jobs`` consecutive shares, one
per worker, and a share runs in batches: each trial draws its own defectives,
design and noise, and a batch's trials are then decoded by one call.  Only the
noisy scheme decodes a batch of several trials at once; every other scheme's
batch is a single trial.  ``run_trial`` is the share of one, so every record,
batched or not, comes from the same code.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional

from . import baselines
from . import gamma as gamma_mod
from . import noisy as noisy_mod
from . import rho as rho_mod
from .core import (
    DecodeReport,
    NoiseChannel,
    ProblemInstance,
    RandomnessKey,
    evaluate_design,
    round_instance,
)
from .gamma import DEFAULT_C_CONST
from .noisy import DEFAULT_EPSILON, DEFAULT_T
from .placements import HASH_MODES
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
    return max(0.0, centre - half), min(1.0, centre + half)


# sweep cells and Python callers set these without argparse's int conversion
# (a --config file is parsed as flags); their ints must be exact ints, since
# ``bool`` subclasses ``int``
INTEGER_FIELDS = ("n", "k", "trials", "base_seed", "gamma", "gamma_prime", "rho", "depth",
                  "reps", "final_reps", "lookahead", "tests", "jobs")
FLOAT_FIELDS = ("p", "c_const", "beta_exp", "design_p", "t", "epsilon", "threshold")


# Past 2^62 items the int64 defective draw overflows.  A trial may allocate
# no array above MAX_TRIAL_BYTES (see ``Scheme.footprint``): a config past it
# is rejected before trial 0, not failed in it by an allocation that one host
# refuses and another overcommits.
MAX_N, MAX_TRIAL_BYTES = 1 << 62, 1 << 32


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
    if config.hash_mode not in HASH_MODES:
        raise ValueError(f"unknown hash mode {config.hash_mode!r}; expected one of {HASH_MODES}")
    if config.trials < 0:
        raise ValueError("trials must be non-negative")
    if config.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {config.jobs}")
    if config.hash_mode == "permutation" and config.algorithm in ("gamma", "noisy"):
        raise ValueError(
            f"the {config.algorithm} scheme places nodes independently; "
            "hash mode 'permutation' is balanced, use kwise or pairwise"
        )
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
    if config.algorithm == "noisy":
        dp = config.design_p if config.design_p is not None else config.p
        if not 0.0 < dp < 0.5:
            raise ValueError(
                f"the noisy scheme's design noise level p must lie in (0, 0.5), got {dp}"
            )
    if config.algorithm in ("comp", "ncomp") and config.tests is not None and config.tests < 1:
        raise ValueError(f"the test budget (tests) must be at least 1, got {config.tests}")
    if config.algorithm == "ncomp" and not 0.0 <= config.threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {config.threshold}")
    config.channel()  # validates channel probabilities
    n, k, _ = _rounded(config)
    if k >= n:
        raise ValueError(f"k={config.k} rounds up to {k}, not below the rounded n={n}")
    if n > MAX_N:
        raise ValueError(f"n={n} (rounded) exceeds the supported 2^62 items")
    scheme = SCHEMES[config.algorithm]
    try:
        size = scheme.footprint(scheme.params(config, n, k), n, k)
    except ArithmeticError as exc:  # an overflow or a division by zero in the formulas
        raise ValueError(f"the {config.algorithm} parameters cannot be computed: {exc}") from exc
    if size > MAX_TRIAL_BYTES:
        raise ValueError(f"a trial would allocate a {size}-byte array, over the "
                         f"{MAX_TRIAL_BYTES}-byte limit")


def _rounded(config: TrialConfig) -> tuple[int, int, Optional[int]]:
    return round_instance(config.n, config.k, config.rho)


class Scheme(NamedTuple):
    """One algorithm's phases of a trial.  Each looks up the functions it
    calls on their modules at call time, so that a wrapper set on a module
    attribute (a tracer's span, a test's recorder) sees every call."""

    params: Callable  # (config, n, k) -> params
    build: Callable   # (config, params, n, k, key) -> design
    # (config, designs, outcomes) -> one DecodeReport per trial of a batch
    decode: Callable
    echo: Callable    # (config, params) -> the result's ``params`` dict
    # (params, n, k) -> bytes of a trial's largest array: the outcome vector
    # (a byte per test), the flat incidence matrix (one per test and item),
    # or the gamma/rho frontier once k top-level nodes expand (8 per child)
    footprint: Callable
    # (params, n, k) -> the most trials one batch may hold
    batch: Callable = lambda params, n, k: 1


def _tree_echo(config: TrialConfig, params) -> dict:
    return asdict(params)


def _each(decode) -> Callable:
    """A batch decode from a one-trial ``decode(config, design, outcomes)``."""
    return lambda c, designs, outcomes: [decode(c, d, o) for d, o in zip(designs, outcomes)]


def _noisy_decode(config: TrialConfig, designs, outcomes) -> list[DecodeReport]:
    # a batch of one goes through decode_noisy, the batch decode's one-trial
    # entry point, so that a wrapper on it (a tracer's span) sees the trial
    if len(designs) == 1:
        return [noisy_mod.decode_noisy(designs[0], outcomes[0])[1]]
    return noisy_mod.decode_noisy_batch(designs, outcomes)


def _flat_report(decode, design, outcomes, *args) -> DecodeReport:
    return DecodeReport(estimate=decode(design, outcomes, *args), outcomes_read=design.t_total,
                        nodes_visited=design.n, peak_frontier=0)


def _tree_footprint(tests: int, top_nodes: int, branching: int, k: int) -> int:
    return max(tests, 8 * min(k, top_nodes) * branching)


def _flat_scheme(decode, echo) -> Scheme:
    """A COMP-style decoder on a flat design; its params are the test count."""
    return Scheme(
        lambda c, n, k: baselines.default_baseline_tests(n, k) if c.tests is None else c.tests,
        lambda c, tests, n, k, key: baselines.build_flat_design(n, tests, key, k=k),
        _each(decode), echo,
        lambda tests, n, k: tests * n)


SCHEMES = {
    "gamma": Scheme(
        lambda c, n, k: gamma_mod.gamma_params(
            n, k, c.gamma, beta_n=1.0 / math.log2(n) ** c.beta_exp, c_const=c.c_const,
            gamma_prime=c.gamma_prime),
        lambda c, params, n, k, key: gamma_mod.build_gamma_design(params, n, key, c.hash_mode),
        _each(lambda c, design, outcomes: gamma_mod.decode_gamma(design, outcomes)[1]),
        _tree_echo,
        lambda params, n, k: _tree_footprint(gamma_mod.gamma_total_tests(params, n),
                                             n // params.level1_size, params.branching, k)),
    "rho": Scheme(
        lambda c, n, k: rho_mod.rho_params(
            n, k, _rounded(c)[2], c_depth=c.depth,
            n_reps=DEFAULT_N_REPS if c.reps is None else c.reps,
            c_final=DEFAULT_C_FINAL if c.final_reps is None else c.final_reps),
        lambda c, params, n, k, key: rho_mod.build_rho_design(params, n, key, c.hash_mode),
        _each(lambda c, design, outcomes: rho_mod.decode_rho(design, outcomes)[1]),
        _tree_echo,
        lambda params, n, k: _tree_footprint(rho_mod.rho_total_tests(params, n),
                                             n // params.rho, params.branch, k)),
    "noisy": Scheme(
        lambda c, n, k: noisy_mod.noisy_params(
            n, k, c.p if c.design_p is None else c.design_p, t=c.t, epsilon=c.epsilon,
            mode=c.mode, n_reps=c.reps, r=c.lookahead, c_final=c.final_reps),
        lambda c, params, n, k, key: noisy_mod.build_noisy_design(params, n, k, key, c.hash_mode),
        _noisy_decode,
        _tree_echo,
        lambda params, n, k: noisy_mod.noisy_total_tests(params, n, k),
        lambda params, n, k: max(1, noisy_mod.BATCH_BYTES
                                 // (2 * noisy_mod.noisy_total_tests(params, n, k)))),
    "comp": _flat_scheme(
        lambda c, design, outcomes: _flat_report(baselines.decode_comp, design, outcomes),
        lambda c, tests: {"tests": tests, "p": c.p}),
    "ncomp": _flat_scheme(
        lambda c, design, outcomes: _flat_report(baselines.decode_ncomp, design, outcomes,
                                                 c.threshold),
        lambda c, tests: {"tests": tests, "p": c.p, "threshold": c.threshold}),
}
ALGORITHMS = tuple(SCHEMES)


def _draw_defectives(config: TrialConfig, key: RandomnessKey) -> tuple[int, ...]:
    if config.defectives is not None:
        return tuple(sorted(config.defectives))
    count = min(config.k, config.n)
    rng = key.generator()
    # dummy items added by rounding sit above the raw n and stay non-defective
    return tuple(sorted(int(v) for v in rng.choice(config.n, size=count, replace=False)))


def _record(defectives: tuple[int, ...], design, outcomes, report: DecodeReport) -> dict:
    """The per-trial record used for aggregation.

    ``storage_words`` follows the accounting used throughout: the design's
    placement storage, plus the decode's peak possibly-defective set, plus
    the outcome bits in 64-bit words.
    """
    est = set(report.estimate)
    truth = set(defectives)
    return {
        "exact": est == truth,
        "outcomes_read": report.outcomes_read,
        "nodes_visited": report.nodes_visited,
        "labels": report.labels_computed,
        "false_positives": len(est - truth),
        "false_negatives": len(truth - est),
        "storage_words": (design.storage_words + report.peak_frontier
                          + (outcomes.t_total + 63) // 64),
        "t_total": outcomes.t_total,
        "estimate": report.estimate,
        "defectives": defectives,
    }


def _run_share(config: TrialConfig, indices: range) -> list[dict]:
    """The seeded trials ``indices``, consecutive, in batches of at most the
    scheme's cap, each batch decoded by one call; one record per trial, in
    order.  Rounding, channel, scheme, params and cap are computed once."""
    n, k, _ = _rounded(config)
    channel = config.channel()
    scheme = SCHEMES[config.algorithm]
    params = scheme.params(config, n, k)
    cap = scheme.batch(params, n, k)

    def trial(index: int) -> tuple:
        key = RandomnessKey(config.base_seed, (index,))
        defectives = _draw_defectives(config, key.child("defectives"))
        instance = ProblemInstance(n=n, k=k, defectives=defectives)
        design = scheme.build(config, params, n, k, key.child("design"))
        return defectives, design, evaluate_design(design, instance, channel, key.child("noise"))

    records = []
    for start in range(0, len(indices), cap):
        batch = indices[start:start + cap]
        try:
            truths, designs, outcomes = zip(*map(trial, batch))
            reports = scheme.decode(config, designs, outcomes)
        except Exception as exc:
            which = (f"trial {batch[0]}" if len(batch) == 1
                     else f"trials {batch[0]}-{batch[-1]}")
            raise RuntimeError(f"{which} failed: {exc}") from exc
        records += map(_record, truths, designs, outcomes, reports)
        del designs, outcomes  # so that no two batches' designs are alive at once
    return records


def run_trial(config: TrialConfig, index: int) -> dict:
    """One seeded trial, the share of one; returns the per-trial record used
    for aggregation."""
    return _run_share(config, range(index, index + 1))[0]


def run_trials(config: TrialConfig) -> AggregateResult:
    """All trials of ``config``, aggregated.

    The trials split into at most ``jobs`` consecutive shares of
    ``ceil(trials / jobs)`` trials, and each share runs whole, serially or
    in a pool of at most ``os.cpu_count()`` workers (see
    :func:`_run_share`), in batches of at most the scheme's cap: for the
    noisy scheme, as many trials as keep a batch's outcome vectors and read
    marks under ``noisy.BATCH_BYTES``; one trial for the others.  The
    records come back in index order.
    """
    validate_config(config)
    size = max(1, -(-config.trials // config.jobs))
    indices = range(config.trials)
    shares = [indices[start:start + size] for start in range(0, config.trials, size)]
    if len(shares) > 1:
        with ProcessPoolExecutor(max_workers=min(len(shares), os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_run_share, [config] * len(shares), shares))
    else:
        parts = [_run_share(config, share) for share in shares]
    return aggregate(config, [record for part in parts for record in part])


def aggregate(config: TrialConfig, records: list[dict]) -> AggregateResult:
    """The result of ``config`` from its trials' records, in index order."""
    n, k, _ = _rounded(config)
    scheme = SCHEMES[config.algorithm]
    successes = sum(r["exact"] for r in records)
    trials = len(records)
    rate = successes / trials if trials else 0.0
    lo, hi = wilson_interval(successes, trials)

    def mean(name: str) -> float:
        return sum(r[name] for r in records) / trials if trials else 0.0

    return AggregateResult(
        algorithm=config.algorithm,
        n=n,
        k=k,
        t_total=records[0]["t_total"] if records else 0,
        trials=trials,
        successes=successes,
        success_rate=rate,
        ci_lo=lo,
        ci_hi=hi,
        mean_outcomes_read=mean("outcomes_read"),
        max_outcomes_read=max((r["outcomes_read"] for r in records), default=0),
        mean_nodes_visited=mean("nodes_visited"),
        mean_labels=mean("labels"),
        mean_false_positives=mean("false_positives"),
        mean_false_negatives=mean("false_negatives"),
        storage_words=max((r["storage_words"] for r in records), default=0),
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
                algorithm=config.algorithm, n=config.n, k=config.k, t_total=0,
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
