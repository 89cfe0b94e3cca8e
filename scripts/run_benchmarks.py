#!/usr/bin/env python3
"""Headline benchmark table: recovery rate and decode cost for the three
splitting schemes and the flat baselines, at the committed default constants.

Usage: python scripts/run_benchmarks.py [--trials 200] [--seed 7] [--out results.csv]
"""

import argparse
import sys

from splitgt.bench import TrialConfig, run_trials
from splitgt.cli import RESULT_COLUMNS, render_csv, result_row


def configs(trials: int, seed: int) -> list[TrialConfig]:
    return [
        TrialConfig(algorithm="gamma", n=2 ** 14, k=4, gamma=6,
                    trials=trials, base_seed=seed),
        TrialConfig(algorithm="gamma", n=2 ** 14, k=4, gamma=6,
                    trials=trials, base_seed=seed, hash_mode="kwise"),
        TrialConfig(algorithm="rho", n=2 ** 14, k=4, rho=2 ** 6,
                    trials=trials, base_seed=seed),
        TrialConfig(algorithm="noisy", n=2 ** 12, k=8, p=0.05,
                    trials=trials, base_seed=seed),
        TrialConfig(algorithm="comp", n=2 ** 12, k=8, trials=trials, base_seed=seed),
        TrialConfig(algorithm="ncomp", n=2 ** 12, k=8, p=0.05,
                    trials=trials, base_seed=seed),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args()

    results = []
    header = f"{'algorithm':>10} {'mode':>12} {'n':>6} {'k':>3} {'T':>6} " \
             f"{'success':>8} {'ci':>17} {'reads':>9} {'storage':>9}"
    print(header)
    for config in configs(args.trials, args.seed):
        res = run_trials(config)
        results.append(res)
        print(f"{res.algorithm:>10} {res.hash_mode:>12} {res.n:>6} {res.k:>3} "
              f"{res.t_total:>6} {res.success_rate:>8.3f} "
              f"[{res.ci_lo:.3f}, {res.ci_hi:.3f}] "
              f"{res.mean_outcomes_read:>9.1f} {res.storage_words:>9}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(render_csv([result_row(r) for r in results], RESULT_COLUMNS))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
