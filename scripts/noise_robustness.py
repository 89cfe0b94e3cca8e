#!/usr/bin/env python3
"""Noise robustness sweep: success rate of the noise-tolerant decoder as the
channel flip probability grows, at fixed design constants.

Usage: python scripts/noise_robustness.py [--n 4096] [--k 8] [--trials 200]
"""

import argparse
import sys

from splitgt.bench import TrialConfig, run_trials


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--n", type=int, default=2 ** 12)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--design-p", type=float, default=0.05)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"{'channel p':>10} {'success':>8} {'ci':>17} {'reads':>9} {'labels':>9}")
    for p in (0.0, 0.02, 0.05, 0.08, 0.1, 0.15):
        res = run_trials(TrialConfig(
            algorithm="noisy", n=args.n, k=args.k, p=p, design_p=args.design_p,
            trials=args.trials, base_seed=args.seed,
        ))
        print(f"{p:>10.2f} {res.success_rate:>8.3f} "
              f"[{res.ci_lo:.3f}, {res.ci_hi:.3f}] "
              f"{res.mean_outcomes_read:>9.1f} {res.mean_labels:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
