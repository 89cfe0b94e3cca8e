"""Command-line front end.

Subcommands ``gamma``, ``rho``, ``noisy``, ``comp`` and ``ncomp`` run one
Monte-Carlo experiment; ``sweep`` runs a JSON-described grid of them;
``eta-curve`` evaluates the analytic test-count efficiency curves.  Results
go to stdout as a table and, with --out, to a CSV or JSON file.

Exit codes: 0 success, 1 harness error, 2 usage error.  A JSON file given
with --config is read as flags placed before the explicit ones, which win.
GT_SEED in the environment is the fallback seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

from . import bench
from .core import round_instance

RESULT_COLUMNS = [
    "algorithm", "n", "k", "gamma", "gamma_prime", "rho", "p", "T", "trials",
    "successes", "success_rate", "ci_lo", "ci_hi", "mean_outcomes_read",
    "max_outcomes_read", "mean_labels", "storage_words", "seed", "hash_mode",
]

ETA_COLUMNS = ["theta", "variant", "eta_hat"]


class UsageError(Exception):
    pass


def _add_common(sub: argparse.ArgumentParser, name: str):
    sub.add_argument("--n", type=int, help="item count (rounded up to a power of two)")
    sub.add_argument("--k", type=int, help="defective-count bound (rounded up)")
    sub.add_argument("--p", type=float, default=None,
                     help="channel flip probability (noisy: also the design target)")
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--seed", type=int, default=None,
                     help="base seed (falls back to GT_SEED, then 0)")
    sub.add_argument("--hash-mode", choices=bench.SCHEMES[name].hash_modes)
    sub.add_argument("--jobs", type=int, default=1, help="concurrent trial workers")
    sub.add_argument("--out", type=str, default=None, help="result file path")
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file of flag values (explicit flags override it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitgt",
        description="Tree-splitting group testing benchmarks",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("gamma", help="divisibility-limited scheme", allow_abbrev=False)
    _add_common(sp, "gamma")
    sp.add_argument("--gamma", type=int, help="max tests per item (>= 3)")
    sp.add_argument("--gamma-prime", type=int, default=None,
                    help="tree height override (default: optimised)")
    sp.add_argument("--c-const", type=float, default=None)
    sp.add_argument("--beta-exp", type=float, default=None,
                    help="target error term exponent: beta = (log2 n)^-beta_exp")

    sp = subs.add_parser("rho", help="size-limited-tests scheme", allow_abbrev=False)
    _add_common(sp, "rho")
    sp.add_argument("--rho", type=int, help="max items per test (rounded down)")
    sp.add_argument("--depth", type=int, default=None, help="tree depth C")
    sp.add_argument("--reps", type=int, default=None, help="mid-level repetitions N")
    sp.add_argument("--final-reps", type=int, default=None, help="final-level repetitions C'")

    sp = subs.add_parser("noisy", help="noise-tolerant binary splitting scheme",
                         allow_abbrev=False)
    _add_common(sp, "noisy")
    sp.add_argument("--design-p", type=float, default=None,
                    help="design noise level in (0, 0.5) (default: --p)")
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--mode", choices=["theory", "practice"], default=None)
    sp.add_argument("--reps", type=int, default=None, help="sequences per level N (odd)")
    sp.add_argument("--lookahead", type=int, default=None, help="lookahead depth r")
    sp.add_argument("--final-reps", type=int, default=None, help="batch multiplier C'")

    for name in ("comp", "ncomp"):
        sp = subs.add_parser(name, allow_abbrev=False,
                             help=f"{name.upper()} baseline on a constant-column-weight design")
        _add_common(sp, name)
        sp.add_argument("--tests", type=int, default=None, help="test budget T")
        if name == "ncomp":
            sp.add_argument("--threshold", type=float, default=None,
                            help="max negative-test fraction to still flag an item")

    sp = subs.add_parser("sweep", help="run a JSON-described grid of experiments",
                         allow_abbrev=False)
    sp.add_argument("--config", type=str, required=True)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--seed", type=int, default=None)

    sp = subs.add_parser("eta-curve", help="analytic efficiency-exponent curves",
                         allow_abbrev=False)
    sp.add_argument("--gamma", type=str, default="4,10",
                    help="comma-separated divisibility budgets")
    sp.add_argument("--theta-steps", type=int, default=9)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse twice: the first pass finds --config, whose entries become
    ``--key=value`` flags (``_`` read as ``-``) between the subcommand and
    the explicit flags for the second pass.  So a file value gets its
    flag's type and choices, and an explicit flag, parsed later, wins."""
    first = parser.parse_args(argv)
    path = getattr(first, "config", None)
    if path is None or first.command == "sweep":
        return first
    try:
        with open(path) as fh:
            file_values = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(file_values, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    for key, value in file_values.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float, type(None))):
            raise UsageError(f"config file {path} sets {key!r} to {value!r}, "
                             "not a string, a number or null")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in file_values.items()
             if value is not None]  # null leaves the flag unset
    start = argv.index(first.command) + 1
    return parser.parse_args([*argv[:start], *flags, *argv[start:]])


def _seed_of(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    value = os.environ.get("GT_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"GT_SEED must be an integer, got {value!r}") from None


# run flags each scheme cannot go without
REQUIRED = {"gamma": ("gamma",), "rho": ("rho",)}
CONFIG_FIELDS = {f.name for f in dataclasses.fields(bench.TrialConfig)}


def config_from_args(args: argparse.Namespace) -> bench.TrialConfig:
    """Every flag given whose name is a ``TrialConfig`` field, the seed, and
    the subcommand as the algorithm; ``bench.validate_config`` checks the
    ranges."""
    for name in ("n", "k", *REQUIRED.get(args.command, ())):
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required for {args.command}")
    fields = {name: value for name, value in vars(args).items()
              if name in CONFIG_FIELDS and value is not None}
    config = bench.TrialConfig(algorithm=args.command, base_seed=_seed_of(args), **fields)
    bench.validate_config(config)
    if args.command == "rho":
        rounded = round_instance(args.n, args.k, args.rho)[2]
        if rounded != args.rho:
            print(f"note: rho rounded down to {rounded}", file=sys.stderr)
    return config


def result_row(result: bench.AggregateResult) -> dict:
    params = result.params or {}
    return {
        "algorithm": result.algorithm,
        "n": result.n,
        "k": result.k,
        "gamma": params.get("gamma", ""),
        "gamma_prime": params.get("gamma_prime", ""),
        "rho": params.get("rho", ""),
        "p": result.p,
        "T": result.t_total,
        "trials": result.trials,
        "successes": result.successes,
        "success_rate": repr(result.success_rate),
        "ci_lo": repr(result.ci_lo),
        "ci_hi": repr(result.ci_hi),
        "mean_outcomes_read": repr(result.mean_outcomes_read),
        "max_outcomes_read": result.max_outcomes_read,
        "mean_labels": repr(result.mean_labels),
        "storage_words": result.storage_words,
        "seed": result.seed,
        "hash_mode": result.hash_mode,
    }


def render_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _emit(text: str, out_path: str | None):
    if out_path is None:
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write output file {out_path}: {exc}") from exc


def _print_summary(results: list[bench.AggregateResult]):
    cols = ["algorithm", "hash_mode", "n", "k", "p", "T", "trials", "success_rate",
            "ci_lo", "ci_hi", "mean_outcomes_read", "storage_words", "error"]
    print("  ".join(f"{c:>18}" for c in cols))
    for r in results:
        row = {**result_row(r), "error": r.error or ""}
        print("  ".join(f"{row[c]!s:>18}" for c in cols))


def _write_results(results: list[bench.AggregateResult], args) -> None:
    if args.format == "json":
        text = bench.results_to_json(results)
    else:
        text = render_csv([result_row(r) for r in results], RESULT_COLUMNS)
    _emit(text, args.out)


def _run_single(args) -> int:
    config = config_from_args(args)
    result = bench.run_trials(config)
    _print_summary([result])
    _write_results([result], args)
    return 0


def _run_sweep(args) -> int:
    try:
        with open(args.config) as fh:
            plan = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read sweep config {args.config}: {exc}") from exc
    if not isinstance(plan, dict) or not isinstance(plan.get("cells"), list):
        raise UsageError('sweep config must be an object with a "cells" list')
    unknown = sorted(set(plan) - {"base", "cells"})
    if unknown:
        raise UsageError(f'unknown sweep config keys {unknown}; expected "base" and "cells"')
    base = plan.get("base", {})
    if not isinstance(base, dict) or not all(isinstance(cell, dict) for cell in plan["cells"]):
        raise UsageError('sweep config "base" and every cell must be objects')
    configs = []
    for cell in plan["cells"]:
        merged = {**base, **cell}
        if args.seed is not None:
            merged["base_seed"] = args.seed
        if isinstance(merged.get("defectives"), list):  # anything else fails validation
            merged["defectives"] = tuple(merged["defectives"])
        try:
            configs.append(bench.TrialConfig(**merged))
        except TypeError as exc:
            raise UsageError(f"bad sweep cell {cell}: {exc}") from exc
    results = bench.sweep(configs)
    _print_summary(results)
    _write_results(results, args)
    return 0 if all(r.error is None for r in results) else 1


def _run_eta_curve(args) -> int:
    try:
        gammas = [int(g) for g in args.gamma.split(",") if g]
    except ValueError as exc:
        raise UsageError(f"--gamma expects comma-separated integers: {exc}") from exc
    if not gammas or any(g < 3 for g in gammas):
        raise UsageError("eta-curve needs divisibility budgets >= 3")
    if args.theta_steps < 1:
        raise UsageError("--theta-steps must be >= 1")
    rows = bench.eta_curve(gammas, args.theta_steps)
    printable = [{**row, "eta_hat": repr(row["eta_hat"])} for row in rows]
    text = (json.dumps(rows, indent=2) if args.format == "json"
            else render_csv(printable, ETA_COLUMNS))
    print(text, end="" if text.endswith("\n") else "\n")
    _emit(text, args.out)
    return 0


def execute(args: argparse.Namespace) -> int:
    if args.command == "eta-curve":
        return _run_eta_curve(args)
    if args.command == "sweep":
        return _run_sweep(args)
    return _run_single(args)


def main(argv: list[str] | None = None) -> int:
    try:
        return execute(_apply_config_file(build_parser(),
                                          sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a bad flag
        return exc.code
    except (UsageError, ValueError) as exc:  # a bad flag or an invalid config
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a failed trial or output file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
