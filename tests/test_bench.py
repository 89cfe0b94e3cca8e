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
    assert serial == parallel  # wall time is excluded from comparison


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
    # an unknown hash mode (the baselines ignore it, so it must not pass
    # silently there either) and non-integer sizes
    for algorithm in bench.ALGORITHMS:
        with pytest.raises(ValueError, match="hash mode"):
            run_trials(TrialConfig(algorithm=algorithm, n=256, k=2, gamma=4, rho=8, p=0.05,
                                   hash_mode="bogus"))
    for fields in (dict(n=1000.5), dict(k=2.0), dict(trials=2.5), dict(n="1024"),
                   dict(gamma=5.5), dict(base_seed=1.5), dict(jobs=2.0)):
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


@pytest.mark.parametrize("jobs,trials,cap,sizes", [
    (1, 12, 100, [12]),               # one batch for the whole call
    (1, 12, 5, [5, 5, 2]),            # capped by the byte budget
    (2, 12, 100, [1] * 12),           # 12 trials // (4 * 2 jobs): one per chunk
    (2, 40, 100, [5] * 8),            # 40 trials // (4 * 2 jobs): five per chunk
    (2, 40, 3, [3] * 13 + [1]),
])
def test_noisy_batches_follow_jobs_and_byte_cap(jobs, trials, cap, sizes, monkeypatch):
    """The noisy trials of one call are decoded in batches of consecutive
    trials: all of them, or each worker's chunk, and fewer where the byte
    cap on a batch's outcome vectors and read marks says so.  Records come
    back in index order whatever the batching."""
    config = TrialConfig(algorithm="noisy", n=256, k=4, p=0.05, trials=trials, base_seed=4,
                         jobs=jobs)
    expected = bench.aggregate(config, [bench.run_trial(config, i) for i in range(trials)])
    tests = noisy.noisy_total_tests(noisy.noisy_params(256, 4, 0.05), 256, 4)
    monkeypatch.setattr(noisy, "BATCH_BYTES", 2 * tests * cap)
    batches, _ = bench._batches(config)
    assert [len(batch) for batch in batches] == sizes
    assert [i for batch in batches for i in batch] == list(range(trials))
    assert run_trials(config).to_dict() == expected.to_dict()


def test_other_schemes_run_one_trial_per_batch():
    config = _gamma_config(trials=12)
    assert [len(batch) for batch in bench._batches(config)[0]] == [1] * 12
