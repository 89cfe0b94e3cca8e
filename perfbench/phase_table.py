#!/usr/bin/env python3
"""Per-phase time at the points of ROADMAP.md's re-anchor baseline table.

Usage, from the root of a checkout:

    python3 perfbench/phase_table.py

For each point it runs traced trials (spans only, no call counters; see
``tracing.py``) and reports the median inclusive time of params, build,
evaluate and decode per trial, then the untraced trials/s of
``run_trials``.  Times are wall-clock, not probe-scaled.  Each point gets
about ``BUDGET_S`` seconds per pass, and at least three trials.  Prints a
Markdown table.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from splitgt import bench  # noqa: E402

import tracing  # noqa: E402

POINTS = (
    ("gamma full, n=2^14 k=4", dict(algorithm="gamma", n=2 ** 14, k=4, gamma=6)),
    ("rho full, n=2^14 k=4 rho=2^6", dict(algorithm="rho", n=2 ** 14, k=4, rho=2 ** 6)),
    ("noisy full, n=2^12 k=8 p=0.05", dict(algorithm="noisy", n=2 ** 12, k=8, p=0.05)),
    ("comp, n=2^12 k=8", dict(algorithm="comp", n=2 ** 12, k=8)),
    ("ncomp, n=2^12 k=8 p=0.05", dict(algorithm="ncomp", n=2 ** 12, k=8, p=0.05)),
    ("gamma full, n=2^24 k=16", dict(algorithm="gamma", n=2 ** 24, k=16, gamma=6)),
    ("rho permutation, n=2^30 k=64 rho=2^12",
     dict(algorithm="rho", n=2 ** 30, k=64, rho=2 ** 12, hash_mode="permutation")),
    ("noisy pairwise, n=2^30 k=64 p=0.05",
     dict(algorithm="noisy", n=2 ** 30, k=64, p=0.05, hash_mode="pairwise")),
)
PHASES = ("params", "build", "evaluate", "decode")
SEED = 1
# seconds of trials per point and pass
BUDGET_S = 3.0


def phase_of(span_name: str) -> str | None:
    layer, _, what = span_name.partition(".")
    if span_name == "bench.params":
        return "params"
    if span_name == "core.evaluate":
        return "evaluate"
    if what in ("build", "decode") and layer != "core":
        return what
    return None


def measure_point(fields: dict) -> dict:
    warm = bench.TrialConfig(**fields, trials=1, base_seed=SEED)
    start = time.perf_counter()
    bench.run_trials(warm)
    trials = max(3, int(BUDGET_S / (time.perf_counter() - start)))
    config = bench.TrialConfig(**fields, trials=trials, base_seed=SEED)

    start = time.perf_counter()
    bench.run_trials(config)
    rate = trials / (time.perf_counter() - start)

    tracer = tracing.Tracer(count=False)
    tracer.install()
    try:
        for index in range(trials):
            tracer.run_trial(bench.run_trial, config, index)
    finally:
        tracer.uninstall()
    per_trial = {phase: [0] * trials for phase in PHASES}
    for trial, parent, name, start_ns, end_ns in tracer.spans:
        phase = phase_of(name)
        if phase is not None:
            per_trial[phase][trial] += end_ns - start_ns
    row = {phase: statistics.median(v) / 1e6 for phase, v in per_trial.items()}
    row.update(trials=trials, rate=rate, missing=sorted(tracer.missing))
    return row


def main() -> int:
    print("| point | params | build | evaluate | decode | end to end | trials |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for label, fields in POINTS:
        row = measure_point(fields)
        phases = " | ".join(f"{row[p]:.4g} ms" for p in PHASES)
        print(f"| {label} | {phases} | {row['rate']:.4g} trials/s | {row['trials']} |",
              flush=True)
        if row["missing"]:
            print(f"unmeasured: {', '.join(row['missing'])}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
