#!/usr/bin/env python3
"""splitgt benchmark: trials/s, set-up time, memory and recovery per workload,
or, with ``--trace 1``, the time and work of each layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tree-desk --seed 1 --seconds 20 --trace 0

``--trace 0`` starts a fresh interpreter five times to time set-up (import,
config validation and params, one warm-up trial per cell); the last of them
goes on to run timed rounds through ``splitgt.bench.run_trials`` with tracing
off.  Times are probe-scaled (see ``probe.py``) so that the shared host's
changing speed cancels out.  ``--trace 1`` starts one interpreter that
alternates untraced and traced rounds over the same trials.  Both check the
program's results, print every metric by name with its unit, and end with
one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A copy of everything measured, stamped with the source version, goes to
``.perfbench/`` in the checkout.  See ``perfbench/README.md`` for the
workloads and what each metric is expected to show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import metrics
import probe
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
# time limits per worker: set-up takes about a second, and a timed or traced
# worker adds --seconds plus the round that overruns it; four set-up workers
# and one timed worker stay within three minutes even when all hang
SETUP_LIMIT_S = 20.0
RUN_SLACK_S = 60.0


class ChildFailed(RuntimeError):
    pass


def run_child(role: str, args) -> tuple[float, dict]:
    """Start one worker; return its set-up seconds and its JSON output.

    A worker that outlives its time limit is killed, so a hung program fails
    the run instead of stalling it.
    """
    cmd = [sys.executable, str(WORKER), role, args.workload, str(args.seed),
           repr(args.seconds)]
    limit = SETUP_LIMIT_S if role == "setup" else args.seconds + RUN_SLACK_S
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"{role} worker failed (exit {proc.returncode}, "
                          f"first line {ready.strip()!r})")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def source_stamp() -> dict:
    """Which code was measured: git sha when the checkout is a repository,
    and a digest of ``src/`` that needs no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    sha = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
    }


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} median={q2:.6g} q3={q3:.6g} n={len(values)}"


def rate(trials: int, seconds: dict) -> float:
    """Trials per second over every timed ``run_trials`` call."""
    return trials / sum(sum(calls) for calls in seconds.values())


def end_to_end(args) -> tuple[dict, dict]:
    children = [run_child("setup", args) for _ in range(SETUP_SAMPLES - 1)]
    children.append(run_child("measure", args))
    out = children[-1][1]
    setups = [setup_s for setup_s, _ in children]
    scaled_setups = [probe.scale(setup_s, child["setup_probe_s"])
                     for setup_s, child in children]
    trials = {cell.name: cell.trials for cell in workloads.WORKLOADS[args.workload]}
    values = {
        "trials_per_s": rate(out["trials"], out["scaled_s"]),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": out["peak_rss_mb"],
        "success_rate": out["successes"] / out["trials"] if out["trials"] else 0.0,
    }
    print(f"{out['rounds']} rounds, {out['trials']} trials; trials/s by wall clock, "
          f"not probe-scaled: {rate(out['trials'], out['wall_s']):.6g}")
    for cell, seconds in out["scaled_s"].items():
        print(f"probe-scaled ms per trial, {cell}: "
              f"{quartiles([s * 1e3 / trials[cell] for s in seconds])}")
    print(f"probe ms: {quartiles([p * 1e3 for p in out['probes']])}")
    print(f"wall set-up s: {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"probe-scaled set-up s: {' '.join(f'{s:.4f}' for s in scaled_setups)}")
    for cell, hexdigest in out["digests"].items():
        print(f"digest {args.workload}/{cell} round 0: {hexdigest}")
    out["setup_wall_s"] = setups
    out["setup_scaled_s"] = scaled_setups
    return values, out


def layers(args) -> tuple[dict, dict]:
    _, out = run_child("trace", args)
    values = dict(out["layers"], **{"trace.overhead": out["overhead"]})
    trial_ms = values[metrics.TRIAL_MS]
    print(f"traced rounds: {out['traced_rounds']}; untraced "
          f"{out['untraced_trials_per_s']:.6g} trials/s, traced "
          f"{out['traced_trials_per_s']:.6g} trials/s")
    for name in metrics.SELF_TIMES:
        if values.get(name) is not None:
            print(f"share of trial time {name}: {values[name] / trial_ms:.3f}")
    self_ms = sum(values[name] for name in metrics.SELF_TIMES if values.get(name) is not None)
    print(f"self times add up to {self_ms / trial_ms:.6f} of trace.trial_ms")
    for cell, info in out["cells"].items():
        print(f"cell {args.workload}/{cell} ({info['trials_traced']} traced trials, "
              f"median per trial):")
        for name, value in info["metrics"].items():
            print(f"  {name}: {'unmeasured' if value is None else f'{value:.6g}'}")
    if out["missing"]:
        print(f"unmeasured (wrapped function gone): {', '.join(out['missing'])}")
    return values, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "splitgt" / "__init__.py").is_file():
        print(f"no splitgt sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    stamp = source_stamp()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    try:
        values, out = layers(args) if args.trace else end_to_end(args)
    except (ChildFailed, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    stamp.update(out.pop("versions"))
    print("stamp " + " ".join(f"{k}={v}" for k, v in stamp.items()))

    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    # a name missing from ``values`` is a bug; None is a layer left unmeasured
    reported = {name: {"value": values[name], "unit": unit}
                for name, unit in units.items() if values[name] is not None}
    for name, m in reported.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    failed_share = out["failed"] / out["attempted"]
    print(f"metric failed_share = {failed_share!r} ratio "
          f"({out['failed']} of {out['attempted']} trials)")
    for problem in out["problems"]:
        print(f"problem: {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(
        {"args": vars(args), "stamp": stamp, "metrics": reported, "detail": out},
        indent=1))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
