"""The benchmark's tracer still finds every function it wraps.

A traced benchmark run reports a wrapped function that no longer exists as
unmeasured rather than failing, so a rename in ``splitgt`` would silently
drop per-layer metrics from its result.  This test loads
``perfbench/tracing.py`` from its file and checks that nothing is missing.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_wraps_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().missing == set()
