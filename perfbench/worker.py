"""One benchmark process: a set-up sample, the timed run, or the traced run.

``run.py`` starts this file in a fresh interpreter:

    python3 perfbench/worker.py {setup,measure,trace} WORKLOAD SEED SECONDS

Every role first sets up: it imports ``splitgt`` from the checkout's ``src``,
then runs one untimed warm-up trial per cell through ``run_trials`` (which
validates the config and computes its params), and prints ``ready``.
``setup`` stops there.  ``measure`` and ``trace`` then run rounds for SECONDS
seconds and print one JSON line with what they measured.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
from splitgt import bench  # noqa: E402

import metrics  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# cells whose noiseless decode may never drop a defective (criterion 3)
NO_FALSE_NEGATIVES = ("gamma", "rho", "comp")
SCHEME_MODULE = {"gamma": "gamma", "rho": "rho", "noisy": "noisy",
                 "comp": "baselines", "ncomp": "baselines"}
OUT_DIR = ROOT / ".perfbench"


def trial_config(workload: str, seed: int, cell, round_index: int):
    return bench.TrialConfig(**workloads.config_fields(workload, seed, cell, round_index))


def set_up(workload: str, seed: int) -> float:
    """Warm up every cell, then return the machine's probe time right after."""
    for cell in workloads.WORKLOADS[workload]:
        bench.run_trials(trial_config(workload, seed, cell, workloads.WARMUP_ROUND))
    print("ready", flush=True)
    return probe.sample(5)


def _invariant_problems(config, false_negatives, outcomes_read, t_total) -> list[str]:
    problems = []
    if (config.algorithm in NO_FALSE_NEGATIVES and config.channel().is_noiseless
            and false_negatives):
        problems.append(f"noiseless false negatives: {false_negatives}")
    if outcomes_read > t_total:
        problems.append(f"read {outcomes_read} of {t_total} outcomes")
    return problems


def result_problems(config, result) -> list[str]:
    """Correctness checks on one cell's aggregate result."""
    problems = []
    if result.error is not None:
        problems.append(f"error: {result.error}")
    if result.trials != config.trials:
        problems.append(f"ran {result.trials} of {config.trials} trials")
    return problems + _invariant_problems(
        config, result.mean_false_negatives, result.max_outcomes_read, result.t_total)


def record_problems(config, record) -> list[str]:
    """The invariants of ``result_problems`` on one trial record."""
    return _invariant_problems(config, record["false_negatives"],
                               record["outcomes_read"], record["t_total"])


def digest(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Tally:
    """Trials attempted, trials in cells that failed, and the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, trials: int, problems: list[str]) -> None:
        self.attempted += trials
        if problems:
            self.failed += trials
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Timed rounds through the public harness, tracing off.

    A probe runs before and after every ``run_trials`` call, and the call's
    seconds are also given rescaled by the mean of the two (see ``probe.py``).
    """
    cells = workloads.WORKLOADS[workload]
    tally = Tally()
    probes, digests = [], {}
    wall = {cell.name: [] for cell in cells}
    scaled = {cell.name: [] for cell in cells}
    trials = successes = 0
    deadline = time.perf_counter() + seconds
    before = probe.sample()
    round_index = 0
    while round_index == 0 or time.perf_counter() < deadline:
        for cell in cells:
            config = trial_config(workload, seed, cell, round_index)
            label = f"{cell.name} round {round_index}"
            start = time.perf_counter()
            try:
                result = bench.run_trials(config)
            except Exception as exc:  # counted as failed; the run goes on
                result, problems = None, [f"raised {exc!r}"]
            elapsed = time.perf_counter() - start
            # free the call's reference cycles now, so that the peak does not
            # depend on when the cycle collector would have run
            gc.collect()
            after = probe.sample()
            wall[cell.name].append(elapsed)
            scaled[cell.name].append(probe.scale(elapsed, (before + after) / 2))
            probes.append(before)
            before = after
            if result is None:
                tally.add(label, config.trials, problems)
                continue
            trials += result.trials
            successes += result.successes
            tally.add(label, config.trials, result_problems(config, result))
            if round_index == 0:
                digests[cell.name] = digest(result)
        round_index += 1
    return {
        "rounds": round_index,
        "wall_s": wall,
        "scaled_s": scaled,
        "probes": probes,
        "trials": trials,
        "successes": successes,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


def _without_wall(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "wall_nanos"}


def _trial_row(cell, record, counts, spans_of_trial) -> dict:
    """Every per-layer quantity of one traced trial (times in ms)."""
    ms = {name: acc[0] / 1e6 for name, acc in spans_of_trial.items()}
    module = SCHEME_MODULE[cell.algorithm]
    row = {
        "cell": cell.name,
        "module": module,
        metrics.TRIAL_MS: sum(ms.values()),
        "bench.trial_self_ms": ms.get(tracing.TRIAL, 0.0),
        "bench.params_ms": ms.get("bench.params", 0.0),
        "core.generators": spans_of_trial.get("core.generator", [0, 0])[1],
        "core.generator_ms": ms.get("core.generator", 0.0),
        "core.evaluate_ms": ms.get("core.evaluate", 0.0),
        "core.outcome_gets": counts.get("core.outcome_gets", 0),
        "placements.lookups": counts.get(tracing.LOOKUPS, 0),
        "scheme.build_ms": sum(v for k, v in ms.items() if k.endswith(".build")),
        "scheme.decode_ms": sum(v for k, v in ms.items() if k.endswith(".decode")),
        "scheme.outcomes_read": record["outcomes_read"],
        "scheme.nodes_visited": record["nodes_visited"],
        "scheme.t_total": record["t_total"],
        "noisy.labels_computed": record["labels"],
    }
    row["scheme.read_share"] = row["scheme.outcomes_read"] / row["scheme.t_total"]
    return row


# metric -> span or counter names it is built from (see tracing.py)
SOURCES = {
    "bench.params_ms": ("bench.params",),
    "core.generators": ("core.generator",),
    "core.generator_ms": ("core.generator",),
    "core.evaluate_ms": ("core.evaluate",),
    "core.outcome_gets": ("core.outcome_gets",),
    "placements.lookups": (tracing.LOOKUPS,),
}
MODULES = ("gamma", "rho", "noisy", "baselines")


def unmeasured(name: str, missing: set[str]) -> bool:
    """Whether a metric lost a wrapped function it is built from."""
    layer, metric = name.split(".", 1)
    if metric in ("build_ms", "decode_ms"):
        phase = metric[: -len("_ms")]
        layers = MODULES if layer == "scheme" else (layer,)
        return any(f"{m}.{phase}" in missing for m in layers)
    return bool(missing & set(SOURCES.get(name, ())))


def _mark_unmeasured(values: dict, missing: set[str]) -> dict:
    return {name: None if unmeasured(name, missing) else value
            for name, value in values.items()}


def _run_pass(configs, tracer, traced: bool, label: str, reference: dict,
              tally: Tally) -> tuple[float, list]:
    """One pass over every trial of ``configs``, traced or not.

    Returns trials/s and, when traced, (trial id, cell, record, counts) per
    trial.  Each record is checked, and compared with ``reference``, which
    holds the other pass's record of the same (cell, index).
    """
    elapsed, done, traced_trials = 0.0, 0, []
    if traced:
        tracer.install()
    try:
        for cell, config in configs:
            problems = []
            try:
                for index in range(config.trials):
                    start = time.perf_counter()
                    if traced:
                        trial_id, record, counts = tracer.run_trial(
                            bench.run_trial, config, index)
                        traced_trials.append((trial_id, cell, record, counts))
                    else:
                        record = bench.run_trial(config, index)
                    elapsed += time.perf_counter() - start
                    done += 1
                    problems += record_problems(config, record)
                    key, plain = (cell.name, index), _without_wall(record)
                    if key in reference and reference[key] != plain:
                        problems.append("traced and untraced records differ")
                    reference[key] = plain
            except Exception as exc:  # counted as failed; the run goes on
                problems.append(f"raised {exc!r}")
            tally.add(f"{cell.name} {label}", config.trials, sorted(set(problems)))
    finally:
        if traced:
            tracer.uninstall()
    return (done / elapsed if elapsed else 0.0), traced_trials


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Alternating untraced and traced rounds over the same trials.

    Every round repeats round 0's configs, so counts repeat exactly and each
    traced record can be compared with the untraced record of the same
    (config, index).  Which pass goes first alternates between rounds.
    """
    cells = workloads.WORKLOADS[workload]
    configs = [(cell, trial_config(workload, seed, cell, 0)) for cell in cells]
    tracer = tracing.Tracer()
    tally = Tally()
    untraced_rates, traced_rates, rows_by_round = [], [], []
    deadline = time.perf_counter() + seconds
    round_index = 0
    while round_index < 2 or time.perf_counter() < deadline:
        reference: dict = {}
        for traced in ((False, True) if round_index % 2 == 0 else (True, False)):
            label = f"round {round_index} {'traced' if traced else 'untraced'}"
            rate, trials = _run_pass(configs, tracer, traced, label, reference, tally)
            if traced:
                traced_rates.append(rate)
                rows_by_round.append(trials)
            else:
                untraced_rates.append(rate)
        round_index += 1

    per_trial = tracing.self_times(tracer.spans)
    rows_by_round = [[_trial_row(cell, record, counts, per_trial[tid])
                      for tid, cell, record, counts in trials]
                     for trials in rows_by_round if trials]
    write_spans(workload, seed, tracer.spans)
    cell_rows = cell_layers(cells, [row for rows in rows_by_round for row in rows])
    return {
        "layers": _mark_unmeasured(workload_layers(rows_by_round), tracer.missing),
        "cells": {name: dict(info, metrics=_mark_unmeasured(info["metrics"], tracer.missing))
                  for name, info in cell_rows.items()},
        "overhead": statistics.median(traced_rates) / statistics.median(untraced_rates),
        "untraced_trials_per_s": statistics.median(untraced_rates),
        "traced_trials_per_s": statistics.median(traced_rates),
        "traced_rounds": len(traced_rates),
        "missing": sorted(tracer.missing),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


def workload_layers(rows_by_round: list[list[dict]]) -> dict:
    """Per-trial means of one traced round: the round whose trial time is the
    median.  Taking every layer from one round keeps their sum equal to
    ``trace.trial_ms``."""
    means = []
    for rows in rows_by_round:
        m = {name: sum(r[name] for r in rows) / len(rows) for name in metrics.ROW_METRICS}
        m["scheme.read_share"] = (sum(r["scheme.outcomes_read"] for r in rows)
                                  / sum(r["scheme.t_total"] for r in rows))
        means.append(m)
    means.sort(key=lambda m: m[metrics.TRIAL_MS])
    return means[(len(means) - 1) // 2]


def cell_layers(cells, rows: list[dict]) -> dict:
    """Median per trial of every quantity, per cell, under module names."""
    out = {}
    for cell in cells:
        mine = [r for r in rows if r["cell"] == cell.name]
        if not mine:
            continue
        module = mine[0]["module"]
        med = {name: statistics.median(r[name] for r in mine) for name in metrics.ROW_METRICS}
        med["scheme.read_share"] = statistics.median(r["scheme.read_share"] for r in mine)
        named = {}
        for name, value in med.items():
            if name.startswith("scheme."):
                name = f"{module}." + name.split(".", 1)[1]
            if name == "noisy.labels_computed" and module != "noisy":
                continue
            named[name] = value
        out[cell.name] = {"trials_traced": len(mine), "metrics": named}
    return out


def write_spans(workload: str, seed: int, spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for sid, (trial, parent, name, start, end) in enumerate(spans):
            fh.write(json.dumps([trial, sid, parent, name, start, end]) + "\n")


def main(argv: list[str]) -> int:
    role, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    source = Path(bench.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"splitgt was imported from {source}, not from this checkout",
              file=sys.stderr)
        return 2
    setup_probe = set_up(workload, seed)
    if role == "setup":
        out = {}
    elif role == "measure":
        out = measure(workload, seed, seconds)
    else:
        out = trace(workload, seed, seconds)
    out["setup_probe_s"] = setup_probe
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
