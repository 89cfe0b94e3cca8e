#!/usr/bin/env python3
"""Per-phase performance ledger: writes ``BENCH_<n>.json`` at the repo root.

Usage, from the root of a checkout:

    python3 scripts/bench_perf.py --out BENCH_13.json \\
        --run parent=../parent-checkout --run change=.

``--out`` is required, so that a run never overwrites an earlier ledger by
default.  Each ``--run LABEL=DIR`` measures the checkout at DIR with that
checkout's own ``perfbench/phase_table.py``: its ``POINTS`` (the frozen
points of ROADMAP.md's table), a gamma-full ladder at n = 2^12, 2^16, 2^20,
whose top rung, n = 2^24, is the ``POINTS`` entry of that name, and a
rho-full ladder at n = 2^14, 2^17, 2^20 (k = 16, rho = 2^8), whose
balanced placements are keyed permutations computed only at the nodes a
trial touches, and a noisy-full ladder at n = 2^12, 2^16, 2^20 (k = 16,
p = 0.05), then two ``POINTS`` entries again at ``jobs=2`` (gamma full,
n = 2^14 k = 4, and noisy full, n = 2^12 k = 8 p = 0.05), which measure the
share split of ``run_trials`` across two workers.  The trials/s column goes
through ``run_trials``, which decodes a share's noisy trials in batches; the
phase columns come from traced ``run_trial`` calls, shares of one, run in
the measuring process whatever ``jobs`` is.  Every point goes through
``measure_point`` (median params, build, evaluate and decode time per
traced trial, and untraced trials/s; wall-clock, not probe-scaled) in
``PASSES`` passes of ``BUDGET_S`` seconds, each in a fresh interpreter, and
the checkouts take turns pass by pass, alternating which goes first, so
that a drift of the host's speed hits every checkout alike.  A point
records, for trials/s and for each phase, the median of its passes and
their minimum and maximum, so one host hiccup moves the median no more
than a quiet pass does and shows up as spread.  A run is stamped with the
checkout's git sha (when it is a repository) and whether ``src/`` matches
it, a digest of ``src/``, the Python and numpy versions and the core count.
The output file holds only the runs of this invocation.  Two runs take a
few minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = (tuple((f"gamma full, n=2^{e} k=16", dict(algorithm="gamma", n=2 ** e, k=16, gamma=6))
                for e in (12, 16, 20))
          + tuple((f"rho full, n=2^{e} k=16 rho=2^8",
                   dict(algorithm="rho", n=2 ** e, k=16, rho=2 ** 8))
                  for e in (14, 17, 20))
          + tuple((f"noisy full, n=2^{e} k=16 p=0.05",
                   dict(algorithm="noisy", n=2 ** e, k=16, p=0.05))
                  for e in (12, 16, 20))
          + (("gamma full, n=2^14 k=4, jobs=2", dict(algorithm="gamma", n=2 ** 14, k=4, gamma=6,
                                                     jobs=2)),
             ("noisy full, n=2^12 k=8 p=0.05, jobs=2",
              dict(algorithm="noisy", n=2 ** 12, k=8, p=0.05, jobs=2))))
LADDER_TOP = "gamma full, n=2^24 k=16"
# passes per point and seconds of trials per pass: three short passes take
# the time one long pass did, and give a median and a spread
PASSES, BUDGET_S = 3, 0.5


def measure_point(checkout: Path, index: int) -> dict:
    """Point ``index`` of ``checkout``, measured in this interpreter, with
    the checkout's stamp and its number of points."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import numpy
    import phase_table
    import run

    source = Path(phase_table.bench.__file__).resolve()
    if checkout / "src" not in source.parents:
        raise RuntimeError(f"splitgt was imported from {source}, not from {checkout}")
    phase_table.BUDGET_S = BUDGET_S
    points = [(p[0] == LADDER_TOP, p) for p in phase_table.POINTS] + [(True, p) for p in LADDER]
    ladder, (label, fields) = points[index]
    row = phase_table.measure_point(fields)
    clean = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=checkout,
                           capture_output=True).returncode == 0
    return {
        "total": len(points),
        "stamp": {
            **run.source_stamp(),
            "src_matches_git_sha": clean,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "budget_s": BUDGET_S,
            "passes": PASSES,
        },
        "point": {
            "label": label,
            "ladder": ladder,
            "config": fields,
            **{f"{phase}_ms": row[phase] for phase in phase_table.PHASES},
            "trials_per_s": row["rate"],
            "trials": row["trials"],
            "unmeasured": row["missing"],
        },
    }


def summarise(passes: list[dict]) -> dict:
    """One point from its passes: the median, minimum and maximum of its
    trials/s and of each phase's time, and each pass's trial count."""
    first = passes[0]
    point = {name: first[name] for name in ("label", "ladder", "config")}
    for name in ["trials_per_s", *(name for name in first if name.endswith("_ms"))]:
        values = [row[name] for row in passes]
        point[name] = {"median": statistics.median(values), "min": min(values),
                       "max": max(values)}
    point["trials"] = [row["trials"] for row in passes]
    point["unmeasured"] = sorted({name for row in passes for name in row["unmeasured"]})
    return point


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0], allow_abbrev=False)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--out", help="ledger file to write, relative to the repo root")
    target.add_argument("--measure", nargs=2, metavar=("DIR", "INDEX"), help=argparse.SUPPRESS)
    parser.add_argument("--run", action="append", default=[], metavar="LABEL=DIR",
                        help="measure the checkout at DIR under LABEL (default: change=.)")
    args = parser.parse_args(argv)
    if args.measure:
        checkout, index = args.measure
        print(json.dumps(measure_point(Path(checkout).resolve(), int(index))))
        return 0

    runs = [spec.partition("=")[::2] for spec in args.run or ["change=."]]
    fresh: dict = {}
    index, total = 0, 1
    while index < total:
        passes: dict = {label: [] for label, _ in runs}
        for turn in range(PASSES):
            for label, checkout in (runs if (index + turn) % 2 == 0 else runs[::-1]):
                child = subprocess.run(
                    [sys.executable, __file__, "--measure", checkout, str(index)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
                got = json.loads(child.stdout.strip().splitlines()[-1])
                total = got["total"]
                fresh.setdefault(label, {**got["stamp"], "points": []})
                passes[label].append(got["point"])
        for label, rows in passes.items():
            point = summarise(rows)
            fresh[label]["points"].append(point)
            rate = point["trials_per_s"]
            print(f"{label}: {point['label']}: {rate['median']:.4g} trials/s "
                  f"({rate['min']:.4g}-{rate['max']:.4g})", file=sys.stderr, flush=True)
        index += 1
    (ROOT / args.out).write_text(json.dumps({"runs": fresh}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
