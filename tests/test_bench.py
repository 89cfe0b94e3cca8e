import json
import math

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
    serial = run_trials(_gamma_config(trials=12, jobs=1))
    parallel = run_trials(_gamma_config(trials=12, jobs=2))
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
    single = bench.aggregate(config, [bench.run_trial(config, i) for i in range(config.trials)])
    assert run_trials(config).to_dict() == single.to_dict()


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

    def recording_decode(config, designs, outcomes):
        batches.append(len(designs))
        return scheme.decode(config, designs, outcomes)

    monkeypatch.setitem(bench.SCHEMES, algorithm, scheme._replace(decode=recording_decode))
    return workers, shares, batches


@pytest.mark.parametrize("jobs,trials,cap,sizes", [
    # sizes: (trials per share, trials per batch decode)
    (1, 12, 100, ([12], [12])),            # one share, one batch for the whole call
    (1, 12, 5, ([12], [5, 5, 2])),         # capped by the byte budget
    (2, 12, 100, ([6, 6], [6, 6])),        # one share per worker, each one batch
    (2, 40, 100, ([20, 20], [20, 20])),
    (2, 40, 3, ([20, 20], [3] * 6 + [2] + [3] * 6 + [2])),
    (3, 7, 100, ([3, 3, 1], [3, 3, 1])),   # shares of ceil(trials / jobs)
    (4, 2, 100, ([1, 1], [1, 1])),         # more jobs than trials
    (2, 1, 100, ([1], [1])),               # one share runs without a pool
    (2, 0, 100, ([], [])),                 # no trials, no shares
])
def test_noisy_batches_follow_jobs_and_byte_cap(jobs, trials, cap, sizes, monkeypatch):
    """A call's trials split into at most ``jobs`` consecutive shares of
    ``ceil(trials / jobs)``, one per worker, and a share's noisy trials are
    decoded in batches of consecutive trials: all of them, or fewer where
    the byte cap on a batch's outcome vectors and read marks says so.
    Records come back in index order whatever the split."""
    shares, batch_sizes = sizes
    config = TrialConfig(algorithm="noisy", n=256, k=4, p=0.05, trials=trials, base_seed=4,
                         jobs=jobs)
    expected = bench.aggregate(config, [bench.run_trial(config, i) for i in range(trials)])
    tests = noisy.noisy_total_tests(noisy.noisy_params(256, 4, 0.05), 256, 4)
    monkeypatch.setattr(noisy, "BATCH_BYTES", 2 * tests * cap)
    workers, ran, batches = _record_shares_and_batches(monkeypatch, "noisy")
    assert run_trials(config).to_dict() == expected.to_dict()
    assert [len(share) for share in ran] == shares
    assert [i for share in ran for i in share] == list(range(trials))
    assert workers == ([len(shares)] if len(shares) > 1 else [])
    assert batches == batch_sizes


def test_workers_are_capped_at_the_cpu_count(monkeypatch):
    """More jobs than CPUs keeps the shares, and so the records, but opens
    one worker per CPU."""
    expected = run_trials(_gamma_config(trials=64))
    config = _gamma_config(trials=64, jobs=64)
    workers, ran, _ = _record_shares_and_batches(monkeypatch, "gamma", cpus=2)
    assert run_trials(config).to_dict() == expected.to_dict()
    assert workers == [2] and ran == [range(i, i + 1) for i in range(64)]


def test_other_schemes_run_one_trial_per_batch(monkeypatch):
    _, ran, batches = _record_shares_and_batches(monkeypatch, "gamma")
    run_trials(_gamma_config(trials=12))
    assert ran == [range(12)] and batches == [1] * 12


def test_params_are_computed_once_per_share(monkeypatch):
    """At one job, a call computes the gamma params a fixed number of times
    (validation, the share, the aggregate), whatever its trial count."""
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
    assert counts == [3, 3, 3]


def test_a_failed_batch_is_named(monkeypatch):
    """A failure names its batch: the one trial, or the range of trials."""

    def boom(config, designs, outcomes):
        raise ValueError("boom")

    for algorithm, fields, which in (("noisy", dict(p=0.05), "trials 0-5"),
                                     ("gamma", dict(gamma=5), "trial 0")):
        monkeypatch.setitem(bench.SCHEMES, algorithm,
                            bench.SCHEMES[algorithm]._replace(decode=boom))
        with pytest.raises(RuntimeError, match=f"^{which} failed: boom$"):
            run_trials(TrialConfig(algorithm=algorithm, n=256, k=4, trials=6, **fields))
