import json
import math
from dataclasses import replace

import pytest

from splitgt import baselines, bench, gamma, noisy, rho
from splitgt.bench import (
    TrialConfig,
    eta_curve,
    eta_hat,
    results_from_json,
    results_to_json,
    run_trials,
    sweep,
    wilson_interval,
)
from splitgt.core import RandomnessKey


def test_eta_hat_examples():
    n, k, g = 2 ** 16, 4, 4
    t_one = g * k * (n / k) ** (1 / g)
    assert eta_hat(n, k, g, t_one) == pytest.approx(1.0)
    t_half = g * k * (n / k) ** (2 / g)
    assert eta_hat(n, k, g, t_half) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        eta_hat(n, k, g, g * k)
    with pytest.raises(ValueError):
        eta_hat(4, 8, g, 100)


def test_eta_curve_ordering():
    rows = eta_curve([4, 10], theta_steps=9)
    by_theta = {}
    for row in rows:
        by_theta.setdefault(row["theta"], {})[row["variant"]] = row["eta_hat"]
    assert len(by_theta) == 9
    for theta, d in by_theta.items():
        assert d["comp"] >= d["split-gamma10"] - 1e-9
        assert d["split-gamma10"] >= d["split-gamma4"] - 1e-9
        assert d["comp"] == pytest.approx(1 - theta)


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(190, 200)
    assert 0 <= lo <= 190 / 200 <= hi <= 1
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert wilson_interval(200, 200)[1] == 1.0


def test_wilson_interval_endpoints_are_exact():
    for trials in range(1, 2001):
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0


def _gamma_config(**kw):
    base = dict(algorithm="gamma", n=2 ** 10, k=4, gamma=5, trials=30, base_seed=5)
    base.update(kw)
    return TrialConfig(**base)


def test_run_trials_deterministic():
    a = run_trials(_gamma_config())
    b = run_trials(_gamma_config())
    assert a == b
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_run_trials_rounds_instance():
    res = run_trials(TrialConfig(algorithm="gamma", n=1000, k=3, gamma=5,
                               trials=5, base_seed=1))
    assert res.n == 1024 and res.k == 4


def test_zero_defective_config_always_succeeds():
    for algorithm, extra in [
        ("gamma", dict(gamma=5)),
        ("rho", dict(rho=16)),
        ("noisy", dict(design_p=0.05)),
        ("comp", dict()),
    ]:
        res = run_trials(TrialConfig(algorithm=algorithm, n=2 ** 9, k=4,
                                   trials=10, base_seed=2, defectives=(),
                                   **extra))
        assert res.success_rate == 1.0
        if algorithm == "rho":
            # nothing survives the individual level, so exactly n/rho reads
            assert res.mean_outcomes_read == res.max_outcomes_read == 2 ** 9 // 16


def test_fixed_defective_set_respected():
    res = run_trials(_gamma_config(defectives=(1, 2, 3), trials=5))
    assert res.success_rate == 1.0
    assert res.mean_false_negatives == 0.0


def test_json_round_trip():
    results = [run_trials(_gamma_config(trials=10))]
    text = results_to_json(results)
    back = results_from_json(text)
    assert back == results


def test_sweep_records_errors_and_continues():
    ok = _gamma_config(trials=5)
    bad = TrialConfig(algorithm="gamma", n=2 ** 10, k=4, gamma=None, trials=5)
    results = sweep([bad, ok])
    assert results[0].error is not None
    assert results[1].error is None
    assert results[1] == run_trials(ok)
    with pytest.raises(ValueError):
        sweep([])


def test_sweep_single_cell_matches_run_trials():
    cfg = _gamma_config(trials=10)
    assert sweep([cfg]) == [run_trials(cfg)]


def test_parallel_jobs_match_serial():
    """Two shares of 500 trials, each more than one batch (496), in a pool
    of two workers."""
    serial = run_trials(_gamma_config(trials=1000, jobs=1))
    parallel = run_trials(_gamma_config(trials=1000, jobs=2))
    assert serial == parallel


def test_validate_config_errors():
    with pytest.raises(ValueError):
        run_trials(TrialConfig(algorithm="nope", n=64, k=2))
    with pytest.raises(ValueError):
        run_trials(TrialConfig(algorithm="rho", n=64, k=2, trials=1))
    with pytest.raises(ValueError):
        run_trials(TrialConfig(algorithm="noisy", n=64, k=2, trials=1, p=0.0))
    for algorithm in ("gamma", "noisy"):
        with pytest.raises(ValueError, match="permutation"):
            run_trials(TrialConfig(algorithm=algorithm, n=64, k=2, gamma=4, p=0.05,
                                   hash_mode="permutation"))
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            run_trials(_gamma_config(jobs=jobs))
    # explicit defectives in the dummy range [raw n, rounded n), negative,
    # repeated, or more than k
    for defectives in ((5, 1010), (5, 1000), (-1, 5), (5, 5), (5, 6, 7)):
        with pytest.raises(ValueError, match="defectives"):
            run_trials(TrialConfig(algorithm="gamma", n=1000, k=2, gamma=5, trials=3,
                                   defectives=defectives))
    assert run_trials(TrialConfig(algorithm="gamma", n=1000, k=2, gamma=5, trials=3,
                                  defectives=(5, 999))).trials == 3
    # explicit defectives that are not integers: a float would place item 1
    # in the instance and report 1.5 as missed, a string would fail a
    # comparison with a TypeError
    # or not a tuple or list: an int is not iterable, a string's characters
    # are not items; a bool is an int subclass, and True would make item 1
    # defective
    for defectives in ((1.5, 3), ("2", 3), (2.0, 3), 5, "12", (True, 5)):
        with pytest.raises(ValueError, match="defectives must be integers"):
            run_trials(TrialConfig(algorithm="gamma", n=2 ** 10, k=4, gamma=6, trials=3,
                                   defectives=defectives))
    # range checks: before trial 0, not as a failed trial
    for fields, message in ((dict(algorithm="ncomp", threshold=1.5), "threshold"),
                            (dict(algorithm="ncomp", threshold=-0.5), "threshold"),
                            (dict(algorithm="comp", tests=-3), "tests"),
                            (dict(algorithm="comp", tests=0), "tests"),
                            (dict(algorithm="ncomp", tests=0), "tests"),
                            (dict(algorithm="gamma", gamma=2), "gamma")):
        with pytest.raises(ValueError, match=message):
            run_trials(TrialConfig(n=256, k=2, **fields))
    assert run_trials(TrialConfig(algorithm="comp", n=256, k=2, tests=1, trials=2)).trials == 2
    # k that rounds up to the rounded n, for every algorithm: 13 -> 16 at n=15 -> 16
    for algorithm in bench.ALGORITHMS:
        with pytest.raises(ValueError, match="k=13 rounds up to 16, not below the rounded n=16"):
            run_trials(TrialConfig(algorithm=algorithm, n=15, k=13, gamma=4, rho=8, p=0.05))
    # an unknown hash mode (the baselines ignore it, so it must not pass
    # silently there either) and non-integer sizes
    for algorithm in bench.ALGORITHMS:
        with pytest.raises(ValueError, match="hash mode"):
            run_trials(TrialConfig(algorithm=algorithm, n=256, k=2, gamma=4, rho=8, p=0.05,
                                   hash_mode="bogus"))
    # (a bool is an int subclass: trials=True would run one trial)
    for fields in (dict(n=1000.5), dict(k=2.0), dict(trials=2.5), dict(n="1024"),
                   dict(gamma=5.5), dict(base_seed=1.5), dict(jobs=2.0), dict(trials=True),
                   dict(jobs=True), dict(k=True), dict(base_seed=False)):
        name = next(iter(fields))
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run_trials(TrialConfig(**{"algorithm": "gamma", "n": 256, "k": 2, "gamma": 4,
                                      "trials": 2, **fields}))
    # float fields that are not finite real numbers, and float fields whose
    # params formulas overflow or divide by zero
    for fields, message in ((dict(algorithm="gamma", gamma=5, c_const=math.inf), "c_const"),
                            (dict(algorithm="gamma", gamma=5, c_const=math.nan), "c_const"),
                            (dict(algorithm="noisy", p=0.05, epsilon=math.inf), "epsilon"),
                            (dict(algorithm="rho", rho=16, p=[0.1]), "p must"),
                            (dict(algorithm="ncomp", threshold=[0.1]), "threshold"),
                            (dict(algorithm="ncomp", threshold=True), "threshold"),
                            (dict(algorithm="gamma", gamma=5, beta_exp=True), "beta_exp"),
                            (dict(algorithm="noisy", p=0.05, t=1e308), "cannot be computed"),
                            (dict(algorithm="gamma", gamma=5, beta_exp=-1000.0),
                             "cannot be computed")):
        with pytest.raises(ValueError, match=message):
            run_trials(TrialConfig(n=1024, k=4, trials=1, **fields))


def test_counters_within_test_budget():
    res = run_trials(_gamma_config(trials=20))
    assert res.max_outcomes_read <= res.t_total
    assert res.mean_outcomes_read > 0
    noisy = run_trials(TrialConfig(algorithm="noisy", n=2 ** 10, k=8, p=0.05,
                                 trials=20, base_seed=5))
    assert noisy.max_outcomes_read <= noisy.t_total


def test_noise_sweep_success_non_increasing():
    grid = [TrialConfig(algorithm="noisy", n=2 ** 9, k=4, p=p, design_p=0.05,
                        trials=50, base_seed=13)
            for p in (0.0, 0.02, 0.05, 0.1)]
    results = sweep(grid)
    rates = [r.success_rate for r in results]
    for lo, hi in zip(rates[1:], rates[:-1]):
        sigma = math.sqrt(max(hi * (1 - hi), 0.25 / 50) / 50)
        assert lo <= hi + 2 * sigma


def test_low_storage_sweep_smoke():
    full = run_trials(_gamma_config(trials=40, hash_mode="full"))
    low = run_trials(_gamma_config(trials=40, hash_mode="kwise"))
    pooled = (full.successes + low.successes) / (full.trials + low.trials)
    se = math.sqrt(max(pooled * (1 - pooled), 0.25 / full.trials)
                   * (1 / full.trials + 1 / low.trials))
    assert abs(full.success_rate - low.success_rate) <= 2 * se
    assert low.storage_words * 5 < full.storage_words


# each algorithm's entry points, in the order a trial calls them
ENTRY_POINTS = {
    "gamma": [(gamma, "gamma_params"), (gamma, "build_gamma_design"),
              (bench, "evaluate_design"), (gamma, "decode_gamma")],
    "rho": [(rho, "rho_params"), (rho, "build_rho_design"),
            (bench, "evaluate_design"), (rho, "decode_rho")],
    "noisy": [(noisy, "noisy_params"), (noisy, "build_noisy_design"),
              (bench, "evaluate_design"), (noisy, "decode_noisy")],
    "comp": [(baselines, "default_baseline_tests"), (baselines, "build_flat_design"),
             (bench, "evaluate_design"), (baselines, "decode_comp")],
    "ncomp": [(baselines, "default_baseline_tests"), (baselines, "build_flat_design"),
              (bench, "evaluate_design"), (baselines, "decode_ncomp")],
}


@pytest.mark.parametrize("algorithm", sorted(ENTRY_POINTS))
def test_run_trial_calls_entry_points_through_modules(algorithm, monkeypatch):
    """A wrapper set on a module attribute, as perfbench's tracer sets its
    spans, sees every phase of a trial: the scheme registry looks the
    functions up at call time instead of holding on to them."""
    calls = []

    def recorder(name, fn):
        def record(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return record

    for module, name in ENTRY_POINTS[algorithm]:
        monkeypatch.setattr(module, name, recorder(name, getattr(module, name)))
    config = TrialConfig(algorithm=algorithm, n=256, k=4, gamma=5, rho=16, p=0.05,
                         trials=1, base_seed=3)
    bench.run_trial(config, 0)
    assert calls == [name for _, name in ENTRY_POINTS[algorithm]]


def _columns(records: list[dict]) -> dict[str, list]:
    """Trial records, one dict each, as the lists per field that
    ``bench.aggregate`` takes."""
    return {name: [record[name] for record in records] for name in bench.RECORD_FIELDS}


CONFIGS = {
    "gamma": dict(gamma=5),
    "rho": dict(rho=16),
    "noisy": dict(p=0.05),
    "comp": dict(),
    "ncomp": dict(p=0.05),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_run_trials_is_the_aggregate_of_single_trials(algorithm, jobs):
    """Batching changes no result: ``run_trials`` equals the aggregate of
    the trials run one at a time, serially or across workers."""
    config = TrialConfig(algorithm=algorithm, n=256, k=4, trials=10, base_seed=11, jobs=jobs,
                         **CONFIGS[algorithm])
    single = bench.aggregate(config, _columns([bench.run_trial(config, i)
                                               for i in range(config.trials)]))
    assert run_trials(config).to_dict() == single.to_dict()


@pytest.mark.parametrize("p", [0.0, 0.05])
@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_batch_records_are_the_one_trial_records(algorithm, p):
    """A share's batch path, whose defectives and noise come from the
    batch's key matrices, gives every trial the record that trial gets on
    the one-trial path, from its own keys' words."""
    fields = dict(CONFIGS[algorithm], p=p)
    if algorithm == "noisy":
        fields["design_p"] = 0.05  # the design's noise level, at either channel
    config = TrialConfig(algorithm=algorithm, n=256, k=4, trials=7, base_seed=19, **fields)
    share = bench._run_share(config, range(3, 10))
    assert [bench._record(share, b) for b in range(7)] == [bench.run_trial(config, i)
                                                           for i in range(3, 10)]


RECORD_KEYS = ["exact", "outcomes_read", "nodes_visited", "labels", "false_positives",
               "false_negatives", "storage_words", "t_total", "estimate", "defectives"]


@pytest.mark.parametrize("p", [0.0, 0.05])
@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_records_are_plain_json_values(algorithm, p):
    """A trial's record has the same keys in the same order on both paths,
    every value a Python bool, int or tuple of ints (no numpy scalar, which
    ``json.dumps`` refuses), whether it came from a batch of one or from a
    row of a batch's columns."""
    fields = dict(CONFIGS[algorithm], p=p)
    if algorithm == "noisy":
        fields["design_p"] = 0.05
    config = TrialConfig(algorithm=algorithm, n=256, k=4, trials=6, base_seed=23, **fields)
    share = bench._run_share(config, range(6))
    assert list(share) == RECORD_KEYS and all(len(column) == 6 for column in share.values())
    records = [bench.run_trial(config, 2)] + [bench._record(share, b) for b in range(6)]
    for record in records:
        assert list(record) == RECORD_KEYS
        assert type(record["exact"]) is bool
        for name in RECORD_KEYS[1:8]:
            assert type(record[name]) is int, name
        for name in ("estimate", "defectives"):
            assert type(record[name]) is tuple
            assert all(type(item) is int for item in record[name]), name
        json.dumps(record)
    assert records[0] == records[3]


def test_a_noisy_record_is_pinned():
    """One noisy trial's record, value for value."""
    config = TrialConfig(algorithm="noisy", n=256, k=4, p=0.05)
    assert bench.run_trial(config, 3) == {
        "exact": True, "outcomes_read": 871, "nodes_visited": 50, "labels": 418,
        "false_positives": 0, "false_negatives": 0, "storage_words": 16135, "t_total": 1568,
        "estimate": (31, 60, 218, 251), "defectives": (31, 60, 218, 251)}


@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_a_share_of_batches_of_several_and_of_one(algorithm, monkeypatch):
    """A share of cap + 1 trials runs a batch of several, then a batch of
    one; its records, and their aggregate, equal the trials run one at a
    time."""
    config = TrialConfig(algorithm=algorithm, n=256, k=4, trials=4, base_seed=29,
                         **CONFIGS[algorithm])
    expected = [bench.run_trial(config, i) for i in range(5, 9)]
    _, _, batches = _record_shares_and_batches(monkeypatch, algorithm)
    scheme = bench.SCHEMES[algorithm]
    monkeypatch.setitem(bench.SCHEMES, algorithm, scheme._replace(batch=lambda *args: 3))
    share = bench._run_share(config, range(5, 9))
    assert batches == [3, 1]
    assert [bench._record(share, b) for b in range(4)] == expected
    assert bench.aggregate(config, share) == bench.aggregate(config, _columns(expected))


def test_records_compare_sets_only_when_inexact():
    """An estimate equal to its sorted draw is exact at no set cost; any
    other is exact iff it holds the same items, with its false positives
    and negatives counted from the sets."""
    design = bench.SCHEMES["gamma"].build(_gamma_config(), gamma.gamma_params(2 ** 10, 4, 5),
                                          2 ** 10, 4, RandomnessKey(1))
    records = {name: [] for name in bench.RECORD_FIELDS}
    truths = [(1, 2, 3), (1, 2, 3), (1, 2, 3), ()]
    bench._extend_records(records, truths, design, [(1, 2, 3), (3, 2, 1), (1, 2, 4, 9), (5,)],
                          [10] * 4, [20] * 4, [0, 1, 2, 3], [0] * 4)
    assert records["exact"] == [True, True, False, False]
    assert records["false_positives"] == [0, 0, 2, 1]
    assert records["false_negatives"] == [0, 0, 1, 0]
    fixed = design.storage_words + (design.t_total + 63) // 64
    assert records["storage_words"] == [fixed, fixed + 1, fixed + 2, fixed + 3]
    assert records["t_total"] == [design.t_total] * 4


@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_no_trials_aggregate_to_the_empty_result(algorithm):
    """A call of no trials runs no share and aggregates to zeros, with the
    scheme's params echoed."""
    config = TrialConfig(algorithm=algorithm, n=256, k=4, trials=0, base_seed=3,
                         **CONFIGS[algorithm])
    n, k, _ = bench._rounded(config)
    scheme = bench.SCHEMES[algorithm]
    assert run_trials(config).to_dict() == {
        "algorithm": algorithm, "n": 256, "k": 4, "p": float(config.p), "t_total": 0,
        "trials": 0, "successes": 0, "success_rate": 0.0, "ci_lo": 0.0, "ci_hi": 1.0,
        "mean_outcomes_read": 0.0, "max_outcomes_read": 0, "mean_nodes_visited": 0.0,
        "mean_labels": 0.0, "mean_false_positives": 0.0, "mean_false_negatives": 0.0,
        "storage_words": 0, "seed": 3, "hash_mode": "full",
        "params": scheme.echo(config, scheme.params(config, n, k)), "error": None}
    assert bench.aggregate(config, _columns([])) == run_trials(config)


class InlinePool:
    """A stand-in for ``ProcessPoolExecutor`` that runs every task in this
    process, so that recorders see what the workers would run."""

    def __init__(self, workers: list, max_workers: int):
        workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def _record_shares_and_batches(monkeypatch, algorithm: str,
                               cpus: int = 8) -> tuple[list, list, list]:
    """Record the pool's worker count, the indices of every share and the
    size of every batch decode of ``run_trials`` calls, run in-process on a
    host of ``cpus`` CPUs."""
    workers, shares, batches = [], [], []
    monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(bench, "ProcessPoolExecutor",
                        lambda max_workers: InlinePool(workers, max_workers))
    run_share = bench._run_share

    def recording_share(config, indices):
        shares.append(indices)
        return run_share(config, indices)

    monkeypatch.setattr(bench, "_run_share", recording_share)
    scheme = bench.SCHEMES[algorithm]

    def recording_decode(config, design, outcomes):
        batches.append(1)
        return scheme.decode(config, design, outcomes)

    def recording_decode_grid(config, design, grid):
        batches.append(len(grid))
        return scheme.decode_grid(config, design, grid)

    monkeypatch.setitem(bench.SCHEMES, algorithm, scheme._replace(
        decode=recording_decode, decode_grid=recording_decode_grid))
    return workers, shares, batches


@pytest.mark.parametrize("jobs,trials,cap,sizes", [
    # sizes: (trials per share, trials per batch decode)
    (1, 12, 100, ([12], [12])),            # one share, one batch for the whole call
    (1, 12, 5, ([12], [5, 5, 2])),         # capped by the byte budget
    (2, 12, 100, ([12], [12])),            # one batch: one share, without a pool
    (2, 40, 100, ([40], [40])),
    (2, 40, 3, ([20, 20], [3] * 6 + [2] + [3] * 6 + [2])),  # one share per worker
    (3, 7, 100, ([7], [7])),
    (4, 2, 100, ([2], [2])),               # more jobs than trials, all in one batch
    (2, 1, 100, ([1], [1])),               # one share runs without a pool
    (2, 0, 100, ([], [])),                 # no trials, no shares
    (2, 12, 5, ([6, 6], [5, 1, 5, 1])),    # each share past one batch
    (2, 40, 30, ([30, 10], [30, 10])),     # shares of one batch where that is more
    (3, 7, 2, ([3, 3, 1], [2, 1, 2, 1, 1])),  # shares of ceil(trials / jobs)
    (4, 2, 1, ([1, 1], [1, 1])),           # more jobs than trials
])
def test_noisy_batches_follow_jobs_and_byte_cap(jobs, trials, cap, sizes, monkeypatch):
    """A call's trials split into at most ``jobs`` consecutive shares of
    ``ceil(trials / jobs)``, or of one batch where that is more, one per
    worker, and a share's noisy trials are decoded in batches of consecutive
    trials: all of them, or fewer where the byte cap on a batch's outcome
    vectors and read marks says so.  Records come back in index order
    whatever the split."""
    shares, batch_sizes = sizes
    config = TrialConfig(algorithm="noisy", n=256, k=4, p=0.05, trials=trials, base_seed=4,
                         jobs=jobs)
    expected = bench.aggregate(config, _columns([bench.run_trial(config, i)
                                                 for i in range(trials)]))
    tests = noisy.noisy_total_tests(noisy.noisy_params(256, 4, 0.05), 256, 4)
    monkeypatch.setattr(bench, "BATCH_BYTES", 2 * tests * cap)
    workers, ran, batches = _record_shares_and_batches(monkeypatch, "noisy")
    assert run_trials(config).to_dict() == expected.to_dict()
    assert [len(share) for share in ran] == shares
    assert [i for share in ran for i in share] == list(range(trials))
    assert workers == ([len(shares)] if len(shares) > 1 else [])
    assert batches == batch_sizes


def test_workers_are_capped_at_the_cpu_count(monkeypatch):
    """More jobs than CPUs keeps the shares, and so the records, but opens
    one worker per CPU; at a cap of one trial, a share of one trial is a
    batch of one."""
    expected = run_trials(_gamma_config(trials=64))
    monkeypatch.setattr(bench, "BATCH_BYTES", 1)
    config = _gamma_config(trials=64, jobs=64)
    workers, ran, _ = _record_shares_and_batches(monkeypatch, "gamma", cpus=2)
    assert run_trials(config).to_dict() == expected.to_dict()
    assert workers == [2] and ran == [range(i, i + 1) for i in range(64)]


@pytest.mark.parametrize("algorithm,fields", [("gamma", dict(gamma=5)), ("rho", dict(rho=16)),
                                              ("noisy", dict(p=0.05))])
@pytest.mark.parametrize("trials,cap,batch_sizes", [
    (12, 100, [12]),       # the whole share in one grid
    (12, 5, [5, 5, 2]),    # capped by the byte budget
    (7, 1, [1] * 7),       # a cap of one: every batch takes the one-trial path
    (13, 3, [3, 3, 3, 3, 1]),
])
def test_tree_batches_follow_the_byte_cap(algorithm, fields, trials, cap, batch_sizes,
                                          monkeypatch):
    """Gamma, rho and noisy batches follow the byte cap, two bytes per test
    and trial under ``bench.BATCH_BYTES``, and every batch of several trials
    is decoded from one grid (``decode_grid``); records equal the trials run
    one at a time."""
    config = TrialConfig(algorithm=algorithm, n=256, k=4, trials=trials, base_seed=6, **fields)
    expected = bench.aggregate(config, _columns([bench.run_trial(config, i)
                                                 for i in range(trials)]))
    n, k, _ = bench._rounded(config)
    scheme = bench.SCHEMES[algorithm]
    tests = scheme.build(config, scheme.params(config, n, k), n, k,
                         RandomnessKey(0, ("design",))).t_total
    monkeypatch.setattr(bench, "BATCH_BYTES", 2 * tests * cap)
    _, ran, batches = _record_shares_and_batches(monkeypatch, algorithm)
    grids, recording = [], bench.SCHEMES[algorithm]

    def decode_grid(config, design, grid):
        grids.append(len(grid))
        return recording.decode_grid(config, design, grid)

    monkeypatch.setitem(bench.SCHEMES, algorithm, recording._replace(decode_grid=decode_grid))
    assert run_trials(config).to_dict() == expected.to_dict()
    assert ran == [range(trials)] and batches == batch_sizes
    assert grids == [size for size in batch_sizes if size > 1]


@pytest.mark.parametrize("algorithm,fields,tests,cap", [
    ("rho", dict(n=2 ** 20, k=16, rho=2 ** 8), 28672, 73),
    ("gamma", dict(n=2 ** 14, k=4, gamma=6), 1192, 1759),
    ("gamma", dict(n=2 ** 30, k=64, gamma=6, hash_mode="kwise"), 206174, 10),
    ("noisy", dict(n=2 ** 12, k=8, p=0.05), 4704, 445),
])
def test_batches_are_capped_at_4_mib_of_outcomes(algorithm, fields, tests, cap):
    """The cap itself: as many trials as keep T outcome bytes and T read
    marks per trial under 4 MiB, and at least one."""
    config = TrialConfig(algorithm=algorithm, **fields)
    n, k, _ = bench._rounded(config)
    scheme = bench.SCHEMES[algorithm]
    params = scheme.params(config, n, k)
    assert bench.BATCH_BYTES == 1 << 22
    assert scheme.footprint(params, n, k) == tests
    assert scheme.batch(params, n, k) == cap == max(1, (1 << 22) // (2 * tests))


def test_gamma_kwise_at_2_30_runs_five_trials_as_one_batch(monkeypatch):
    """Gamma kwise at n=2^30, k=64, gamma=6 (206,174 tests, ten trials a
    batch) runs five trials as one batch, decoded from one grid, and their
    records equal the five trials run one at a time."""
    config = TrialConfig(algorithm="gamma", n=2 ** 30, k=64, gamma=6, hash_mode="kwise",
                         trials=5, base_seed=3)
    expected = _columns([bench.run_trial(config, i) for i in range(5)])
    _, ran, batches = _record_shares_and_batches(monkeypatch, "gamma")
    assert bench._run_share(config, range(5)) == expected
    assert ran == [range(5)] and batches == [5]


def test_flat_schemes_batch_under_the_byte_cap(monkeypatch):
    """A COMP/NCOMP batch holds as many trials as keep their outcomes, read
    marks and frontiers (n nodes and their trials, 16 bytes a node) under
    ``bench.BATCH_BYTES``: 63 at n=2^12, k=8, whose 362-test budget makes 31
    segments of 12 tests.  Every batch of several trials is decoded from
    one grid, and records equal the trials run one at a time."""
    for algorithm in ("comp", "ncomp"):
        config = TrialConfig(algorithm=algorithm, n=2 ** 12, k=8, p=0.05)
        n, k, _ = bench._rounded(config)
        scheme = bench.SCHEMES[algorithm]
        params = scheme.params(config, n, k)
        assert scheme.footprint(params, n, k) == 8 * n
        assert scheme.batch(params, n, k) == 63 == (1 << 22) // (2 * 372 + 16 * n)
        config = TrialConfig(algorithm=algorithm, n=256, k=4, p=0.05, trials=12)
        expected = bench.aggregate(config, _columns([bench.run_trial(config, i)
                                                     for i in range(12)]))
        with monkeypatch.context() as patch:
            patch.setattr(bench, "BATCH_BYTES", 5 * (2 * 126 + 16 * 256))
            _, ran, batches = _record_shares_and_batches(patch, algorithm)
            assert run_trials(config).to_dict() == expected.to_dict()
        assert ran == [range(12)] and batches == [5, 5, 2]


def test_params_are_computed_once_per_share(monkeypatch):
    """At one job, a call computes the gamma params a fixed number of times
    (validation, the share size, the share, the aggregate), whatever its
    trial count."""
    calls = []
    gamma_params = gamma.gamma_params

    def counting(*args, **kwargs):
        calls.append(args)
        return gamma_params(*args, **kwargs)

    monkeypatch.setattr(gamma, "gamma_params", counting)
    counts = []
    for trials in (1, 4, 16):
        calls.clear()
        run_trials(_gamma_config(trials=trials))
        counts.append(len(calls))
    assert counts == [4, 4, 4]


@pytest.mark.parametrize("trials", [12, 445])
def test_a_call_of_one_batch_opens_no_pool(trials, monkeypatch):
    """A call of at most one batch (noisy at n=2^12, k=8: 445 trials) runs
    in this process at ``jobs=2``, as at ``jobs=1``: a share is never
    smaller than one batch."""
    config = TrialConfig(algorithm="noisy", n=2 ** 12, k=8, p=0.05, trials=trials, base_seed=2)
    n, k, _ = bench._rounded(config)
    scheme = bench.SCHEMES["noisy"]
    assert scheme.batch(scheme.params(config, n, k), n, k) == 445
    expected = run_trials(config)

    def no_pool(*args, **kwargs):
        raise AssertionError("a call of one batch opened a pool")

    monkeypatch.setattr(bench, "ProcessPoolExecutor", no_pool)
    assert run_trials(replace(config, jobs=2)).to_dict() == expected.to_dict()


def test_a_failed_batch_is_named(monkeypatch):
    """A failure names its batch: the one trial, or the range of trials."""

    def boom(config, design, outcomes):
        raise ValueError("boom")

    for algorithm, fields, trials, which in (("noisy", dict(p=0.05), 6, "trials 0-5"),
                                             ("gamma", dict(gamma=5), 6, "trials 0-5"),
                                             ("comp", dict(), 6, "trials 0-5"),
                                             ("ncomp", dict(), 1, "trial 0")):
        scheme = bench.SCHEMES[algorithm]
        monkeypatch.setitem(bench.SCHEMES, algorithm, scheme._replace(
            decode=boom, decode_grid=boom))
        with pytest.raises(RuntimeError, match=f"^{which} failed: boom$"):
            run_trials(TrialConfig(algorithm=algorithm, n=256, k=4, trials=trials, **fields))
