import csv
import importlib.util
import io
import json
import re
import warnings
from pathlib import Path

import pytest

from splitgt import bench
from splitgt.cli import (
    RESULT_COLUMNS,
    _apply_config_file,
    build_parser,
    config_from_args,
    main,
    result_row,
)


def parse(argv):
    parser = build_parser()
    return _apply_config_file(parser, argv)


def test_parse_gamma_example():
    args = parse("gamma --n 16384 --k 4 --gamma 6 --trials 200 --seed 7".split())
    config = config_from_args(args)
    assert config.algorithm == "gamma"
    assert (config.n, config.k, config.gamma) == (16384, 4, 6)
    assert config.trials == 200 and config.base_seed == 7


def test_noisy_p_out_of_range_exits_2(capsys):
    code = main("noisy --n 4096 --k 8 --p 0.6 --trials 5".split())
    assert code == 2
    assert "p must lie in (0, 0.5)" in capsys.readouterr().err


def test_noisy_design_p_without_channel_p_runs_noiselessly(tmp_path):
    out = tmp_path / "noisy.json"
    argv = f"noisy --n 1024 --k 4 --design-p 0.05 --trials 3 --format json --out {out}"
    assert main(argv.split()) == 0
    expected = bench.run_trials(bench.TrialConfig(
        algorithm="noisy", n=1024, k=4, design_p=0.05, p=0.0, trials=3))
    assert bench.results_from_json(out.read_text()) == [expected]


def test_missing_required_flag_exits_2(capsys):
    code = main("gamma --k 4 --gamma 6".split())
    assert code == 2
    assert "--n is required" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse("gamma --n 64 --k 4 --gamma 5 --bogus 3".split())
    assert exc.value.code == 2


def test_rho_rounds_down_with_note(tmp_path, capsys):
    out = tmp_path / "rho.csv"
    code = main(f"rho --n 4096 --rho 70 --k 4 --trials 3 --seed 1 --out {out}".split())
    assert code == 0
    err = capsys.readouterr().err
    assert "rounded down to 64" in err
    body = out.read_text().splitlines()
    assert body[1].split(",")[5] == "64"  # rho column carries the rounded cap


def test_csv_schema_and_determinism(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = "gamma --n 1024 --k 4 --gamma 5 --trials 10 --seed 3 --out".split()
    assert main(argv + [str(out_a)]) == 0
    assert main(argv + [str(out_b)]) == 0
    text = out_a.read_text()
    assert text == out_b.read_text()
    assert text.splitlines()[0] == ",".join(RESULT_COLUMNS)


def test_json_output_round_trips(tmp_path):
    out = tmp_path / "res.json"
    argv = f"gamma --n 1024 --k 4 --gamma 5 --trials 10 --seed 3 --format json --out {out}"
    assert main(argv.split()) == 0
    results = bench.results_from_json(out.read_text())
    expected = bench.run_trials(bench.TrialConfig(
        algorithm="gamma", n=1024, k=4, gamma=5, trials=10, base_seed=3))
    assert results == [expected]


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1024, "k": 4, "gamma": 5, "trials": 7, "seed": 9}))
    args = parse(["gamma", "--config", str(cfg), "--trials", "3"])
    config = config_from_args(args)
    assert config.n == 1024 and config.gamma == 5
    assert config.trials == 3  # explicit flag wins over the file
    assert config.base_seed == 9


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1024, "k": 4, "gamma": 5, "bogus": 1}))
    code = main(["gamma", "--config", str(cfg)])
    assert code == 2
    assert "unrecognized arguments: --bogus=1" in capsys.readouterr().err


def test_config_file_entries_parse_as_flags(tmp_path, monkeypatch):
    """Each entry is its flag: typed and checked by argparse, ``_`` read as
    ``-``, ``null`` left unset, and a number for a string flag read as its
    text."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "1024", "k": 4, "gamma": 5, "hash_mode": "kwise",
                               "c-const": 8, "trials": None, "out": 1}))
    args = parse(["gamma", "--config", str(cfg)])
    config = config_from_args(args)
    assert (config.n, config.hash_mode, config.trials) == (1024, "kwise", 100)
    assert type(config.c_const) is float and config.c_const == 8.0
    assert args.out == "1"
    assert main(["gamma", "--config", str(cfg), "--trials", "2"]) == 0
    assert (tmp_path / "1").read_text().startswith("algorithm,")


def test_help_exits_0(capsys):
    assert main(["gamma", "--help"]) == 0
    assert "--p P" in capsys.readouterr().out


def test_readme_commands_parse():
    """Every command of the README's CLI block parses; the scheme commands
    also build a valid config, without running a trial."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```bash\n(.*?)```", readme, re.S).group(1)
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("splitgt ")]
    assert {argv[0] for argv in commands} == {"gamma", "rho", "noisy", "comp", "ncomp",
                                              "eta-curve", "sweep"}
    for argv in commands:
        args = parse(argv)
        if args.command not in ("eta-curve", "sweep"):
            assert config_from_args(args).algorithm == args.command


def test_gt_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("GT_SEED", "417")
    args = parse("gamma --n 1024 --k 4 --gamma 5".split())
    assert config_from_args(args).base_seed == 417


def test_non_integer_gt_seed_exits_2_naming_it(monkeypatch, capsys):
    monkeypatch.setenv("GT_SEED", "abc")
    assert main("gamma --n 1024 --k 4 --gamma 5".split()) == 2
    assert "GT_SEED must be an integer, got 'abc'" in capsys.readouterr().err


def test_sweep_runs_grid(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "base": {"algorithm": "gamma", "n": 1024, "k": 4, "gamma": 5,
                 "trials": 5, "base_seed": 2},
        "cells": [{"k": 2}, {"k": 4}],
    }))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + one row per cell


def test_sweep_seed_sets_every_cell(tmp_path):
    """--seed overrides the base_seed of the base and of every cell."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "base": {"algorithm": "gamma", "n": 1024, "k": 4, "gamma": 5, "trials": 3,
                 "base_seed": 7},
        "cells": [{}, {"base_seed": 9}],
    }))
    out = tmp_path / "rows.json"
    assert main(["sweep", "--config", str(cfg), "--seed", "1", "--format", "json",
                 "--out", str(out)]) == 0
    assert [row["seed"] for row in json.loads(out.read_text())] == [1, 1]


def test_sweep_error_cell_exits_1(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "base": {"algorithm": "gamma", "n": 1024, "k": 4, "trials": 2},
        "cells": [{"gamma": 5}, {"gamma": None}],
    }))
    assert main(["sweep", "--config", str(cfg)]) == 1


def test_sweep_cell_with_a_name_its_scheme_does_not_take_is_an_error_row(tmp_path):
    """A sweep cell whose hash mode is not one of its scheme's names is an
    error row, run after by the next cell, and the sweep exits 1."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "base": {"n": 1024, "k": 4, "trials": 2},
        "cells": [{"algorithm": "gamma", "gamma": 5, "hash_mode": "permutation"},
                  {"algorithm": "rho", "rho": 16, "hash_mode": "kwise"},
                  {"algorithm": "rho", "rho": 16, "hash_mode": "permutation"}],
    }))
    out = tmp_path / "rows.json"
    assert main(["sweep", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())
    for row, name in zip(rows[:2], ("permutation", "kwise")):
        assert f"hash mode '{name}'" in row["error"] and row["trials"] == 0
    assert rows[2]["error"] is None and rows[2]["trials"] == 2


def test_sweep_non_integer_defectives_cell_is_an_error_row(tmp_path, monkeypatch):
    """A sweep cell whose explicit defectives are not integers in a list is
    recorded as an error row before any of its trials runs, and the next
    cell still runs."""
    started = []
    run_share = bench._run_share

    def recording(config, indices):
        started.append(config.defectives)
        return run_share(config, indices)

    monkeypatch.setattr(bench, "_run_share", recording)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "base": {"algorithm": "gamma", "n": 1024, "k": 4, "gamma": 6, "trials": 3},
        "cells": [{"defectives": [1.5, 3]}, {"defectives": ["2", 3]}, {"defectives": 5},
                  {"defectives": [5, 9]}],
    }))
    out = tmp_path / "rows.json"
    assert main(["sweep", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())
    assert len(rows) == 4
    for row in rows[:3]:
        assert "defectives must be integers" in row["error"] and row["trials"] == 0
    assert rows[3]["error"] is None and rows[3]["trials"] == 3
    assert started == [(5, 9)]


@pytest.mark.parametrize("argv,channel_p,params_p", [
    ("gamma --n 1024 --k 4 --gamma 5 --p 0.05", 0.05, None),
    ("noisy --n 1024 --k 4 --p 0.1 --design-p 0.05", 0.1, 0.05),
])
def test_results_record_the_channel_p(argv, channel_p, params_p, tmp_path):
    """The CSV ``p`` cell and the JSON ``p`` are the channel's for every
    algorithm; noisy's design target stays in ``params``."""
    csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
    argv = argv.split() + ["--trials", "3"]
    assert main(argv + ["--out", str(csv_out)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
    row = next(csv.DictReader(io.StringIO(csv_out.read_text())))
    assert float(row["p"]) == channel_p
    [result] = json.loads(json_out.read_text())
    assert result["p"] == channel_p and result["params"].get("p") == params_p


@pytest.mark.parametrize("plan", ["headline.json", "noise_robustness.json"])
def test_committed_plans_run(plan, tmp_path):
    """Each committed sweep plan, cut to 2 trials a cell, runs its six
    cells, and every row records its cell's channel p."""
    spec = json.loads((Path(__file__).resolve().parents[1] / "scripts" / plan).read_text())
    spec["base"]["trials"] = 2
    path, out = tmp_path / plan, tmp_path / "rows.csv"
    path.write_text(json.dumps(spec))
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [float(row["p"]) for row in rows] == [
        {**spec["base"], **cell}.get("p", 0.0) for cell in spec["cells"]]
    assert len(rows) == 6 and {row["trials"] for row in rows} == {"2"}


def test_eta_curve_csv(tmp_path, capsys):
    out_a, out_b = tmp_path / "eta_a.csv", tmp_path / "eta_b.csv"
    assert main(f"eta-curve --gamma 4,10 --theta-steps 9 --out {out_a}".split()) == 0
    assert main(f"eta-curve --gamma 4,10 --theta-steps 9 --out {out_b}".split()) == 0
    text = out_a.read_text()
    assert text == out_b.read_text()
    lines = text.splitlines()
    assert lines[0] == "theta,variant,eta_hat"
    assert len(lines) == 1 + 9 * 3  # comp + two splitting variants per theta


@pytest.mark.parametrize("argv", [
    # one --hash-mode name per design: each scheme takes only its own names
    "gamma --n 1024 --k 4 --gamma 5 --hash-mode permutation",
    "noisy --n 1024 --k 4 --p 0.05 --hash-mode permutation",
    "rho --n 1024 --k 4 --rho 16 --hash-mode kwise",
    "rho --n 1024 --k 4 --rho 16 --hash-mode pairwise",
    "noisy --n 1024 --k 4 --p 0.05 --hash-mode pairwise",
    "comp --n 256 --k 2 --hash-mode kwise",
    "ncomp --n 256 --k 2 --p 0.05 --hash-mode permutation",
    'noisy --n 1024 --k 4 --p 0.05 --config={"hash_mode":"pairwise"}',
    "gamma --n 1024 --k 4 --gamma 5 --jobs 0",
    "gamma --n 1024 --k 4 --gamma 2",
    "comp --n 256 --k 2 --tests -3",
    "comp --n 256 --k 2 --tests 0",
    "ncomp --n 256 --k 2 --threshold 1.5",
    # k that rounds up to the rounded n
    "comp --n 15 --k 13",
    "ncomp --n 16 --k 16 --p 0.05",
    # the noisy design p, from --design-p or else --p, lies in (0, 0.5)
    "noisy --n 1024 --k 4",
    "noisy --n 1024 --k 4 --design-p 0.5",
    # a channel p past one half, though the design p is usable
    "noisy --n 1024 --k 4 --p 0.6 --design-p 0.1",
    # config-file values get their flag's type and choices
    'comp --n 256 --k 2 --config={"hash_mode":"bogus"}',
    'gamma --n 256 --k 2 --gamma 5 --config={"hash_mode":"bogus"}',
    'gamma --k 4 --gamma 5 --config={"n":1000.5}',
    'rho --k 4 --rho 8 --config={"n":1000.5}',
    'gamma --n 1024 --gamma 5 --config={"k":4.5}',
    'gamma --n 1024 --k 4 --gamma 5 --config={"trials":2.5}',
    'gamma --n 1024 --k 4 --config={"gamma":5.5}',
    'rho --n 1024 --k 4 --config={"rho":8.5}',
    # booleans are not integers or reals, though bool subclasses int
    'gamma --n 1024 --k 4 --gamma 4 --config={"trials":true}',
    'gamma --n 1024 --k 4 --gamma 4 --config={"trials":true,"jobs":true}',
    'gamma --n 1024 --k 4 --gamma 5 --config={"beta_exp":true}',
    # float fields that cannot be used
    "gamma --n 1024 --k 4 --gamma 5 --c-const inf",
    "noisy --n 1024 --k 4 --p 0.05 --epsilon inf",
    "noisy --n 1024 --k 4 --p 0.05 --t 1e308",
    "gamma --n 1024 --k 4 --gamma 5 --beta-exp=-1000",
    'rho --n 1024 --k 4 --rho 16 --config={"p":[0.1]}',
    'ncomp --n 1024 --k 4 --config={"threshold":[0.1]}',
    # no flag is matched by a prefix: gamma has no --t, and --trials is not it
    "gamma --n 1024 --k 4 --gamma 5 --t 2",
    # config-file values get argparse's choices, and only strings and numbers
    'gamma --n 1024 --k 4 --gamma 5 --config={"format":"xml"}',
    'gamma --n 1024 --k 4 --gamma 5 --config={"out":true}',
    # malformed sweep plans
    'sweep --config={"cells":[5]}',
    'sweep --config={"cells":{"n":5}}',
    'sweep --config={"cells":"abc"}',
    'sweep --config={"base":[1,2],"cells":[{}]}',
    "sweep --config /nonexistent/plan.json",
    "gamma --n 1024 --k 4 --gamma 5 --trials -1",
    # --config files that are missing, not JSON, or not an object
    "gamma --n 1024 --k 4 --gamma 5 --config /nonexistent/config.json",
    'gamma --n 1024 --k 4 --gamma 5 --config={"n":',
    "gamma --n 1024 --k 4 --gamma 5 --config=[1024]",
    "eta-curve --gamma 4,x",
    "eta-curve --theta-steps 0",
])
def test_invalid_config_exits_2_before_any_trial(argv, capsys, tmp_path):
    args = argv.split()
    if args[-1].startswith("--config="):
        path = tmp_path / "config.json"
        path.write_text(args.pop().split("=", 1)[1])
        args += ["--config", str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "trial 0" not in err


@pytest.mark.parametrize("plan", [
    {"bsae": {"trials": 2}, "cells": [{"algorithm": "gamma", "n": 1024, "k": 4, "gamma": 5}]},
    {"base": {}, "cells": [], "seed": 3},
])
def test_sweep_plan_with_unknown_keys_exits_2_before_any_trial(plan, tmp_path, monkeypatch,
                                                               capsys):
    """A misspelled ``base`` is not dropped silently: a plan with keys other
    than ``base`` and ``cells`` is rejected, naming them, before any trial."""

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial started")

    monkeypatch.setattr(bench, "_run_share", no_trial)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    extra = sorted(set(plan) - {"base", "cells"})
    assert "error:" in err and str(extra) in err


def test_bench_perf_rejects_abbreviated_flags(tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_perf.py"
    spec = importlib.util.spec_from_file_location("bench_perf", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.raises(SystemExit) as exc:
        module.main(["--ou", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_eta_curve_bad_gamma_exits_2(capsys):
    assert main("eta-curve --gamma 2".split()) == 2


def test_unwritable_out_exits_1(tmp_path):
    code = main("gamma --n 1024 --k 4 --gamma 5 --trials 2 --out /nonexistent/dir/x.csv".split())
    assert code == 1


def test_result_row_blank_fields_for_other_algorithms():
    res = bench.run_trials(bench.TrialConfig(
        algorithm="comp", n=256, k=2, trials=3, base_seed=0))
    row = result_row(res)
    assert row["gamma"] == "" and row["rho"] == ""
    assert set(row) == set(RESULT_COLUMNS)


# Each config passes every per-field check, and a trial of it would fail on
# an allocation or an overflow: rejected before trial 0 instead.
UNRUNNABLE = {
    "gamma n=2^63": ("gamma --n 9223372036854775808 --k 16 --gamma 6", "supported"),
    "rho n=2^50 permutation": ("rho --n 1125899906842624 --k 16 --rho 4096 "
                               "--hash-mode permutation", "byte"),
    "rho n=rho=2^62": ("rho --n 4611686018427387904 --k 16 --rho 4611686018427387904",
                       "byte"),
    "comp n=2^40": ("comp --n 1099511627776 --k 4", "byte"),
}


@pytest.mark.parametrize("case", sorted(UNRUNNABLE))
def test_unrunnable_config_rejected_before_any_trial(case, monkeypatch, capsys):
    """Only ``validate_config`` and the exit path run: a trial, which would
    allocate, fails the test if it starts."""
    argv, message = UNRUNNABLE[case]

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial started")

    monkeypatch.setattr(bench, "run_trials", no_trial)
    monkeypatch.setattr(bench, "run_trial", no_trial)
    argv = argv.split() + ["--trials", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rho = n is not small next to n/k
        with pytest.raises(ValueError, match=message):
            config_from_args(parse(argv))  # builds the config, then validate_config
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "trial 0" not in err


def test_trial_size_limit_admits_the_benchmarked_configs():
    """The largest configs the tests and benchmarks run stay under the
    limit, and rho at n = 2^50 does with a cap that keeps the outcome vector
    small."""
    for config in (
        bench.TrialConfig(algorithm="gamma", n=2 ** 62, k=16, gamma=6),
        bench.TrialConfig(algorithm="noisy", n=2 ** 62, k=16, p=0.05),
        bench.TrialConfig(algorithm="rho", n=2 ** 30, k=64, rho=2 ** 12,
                          hash_mode="permutation"),
        bench.TrialConfig(algorithm="rho", n=2 ** 50, k=16, rho=2 ** 24,
                          hash_mode="permutation"),
        bench.TrialConfig(algorithm="comp", n=2 ** 20, k=8),
    ):
        bench.validate_config(config)
