"""The benchmark's metric names and units, read from ``BENCHMARK.json``.

``BENCHMARK.json`` is the one list of metrics: ``run.py`` reports exactly
the metrics named there, and ``worker.py`` computes every per-layer metric
named there from each traced trial.
"""

from __future__ import annotations

import json
from pathlib import Path

_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

END_TO_END: dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

TRIAL_MS = "trace.trial_ms"
# per-layer metrics that are ratios over a whole round, not sums over trials
RATIOS = ("scheme.read_share", "trace.overhead")
# per-layer metrics measured on every traced trial
ROW_METRICS = tuple(name for name in PER_LAYER if name not in RATIOS)
# the self times that partition a traced trial: every time but the trial's
SELF_TIMES = tuple(name for name, unit in PER_LAYER.items()
                   if unit == "ms" and name != TRIAL_MS)
