"""The benchmark's tracer still finds every function it wraps.

A traced benchmark run reports a wrapped function that no longer exists as
unmeasured rather than failing, so a rename in ``splitgt`` would silently
drop per-layer metrics from its result.  These tests load
``perfbench/tracing.py`` from its file, check that nothing is missing, and
pin what the scalar-lookup counter and the generator spans count.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from splitgt import bench

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """``perfbench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass module must be importable by name
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target():
    assert _load("tracing").Tracer().missing == set()


def test_lookup_counter_counts_scalar_lookups_of_tree_desk():
    """No traced tree-desk trial makes a scalar ``test_of`` lookup: its
    design is evaluated by one stacked lookup per level
    (``TreeDesign.noiseless_grid``), and the decoders look up no node one
    at a time.  A counter that never fired has no key."""
    tracing, workloads = _load("tracing"), _load("workloads")
    lookups = []
    for cell in workloads.WORKLOADS["tree-desk"]:
        config = bench.TrialConfig(**workloads.config_fields("tree-desk", 1, cell, 0))
        tracer = tracing.Tracer()
        assert tracing.LOOKUPS not in tracer.missing
        tracer.install()
        try:
            _, record, counts = tracer.run_trial(bench.run_trial, config, 0)
        finally:
            tracer.uninstall()
        assert record["defectives"]
        lookups.append(counts.get(tracing.LOOKUPS, 0))
    assert lookups == [0, 0, 0]


GENERATORS = {
    "gamma": dict(gamma=6),
    "rho": dict(rho=16),
    "noisy": dict(p=0.05),
    "comp": dict(),
    "ncomp": dict(p=0.05),
}


@pytest.mark.parametrize("algorithm", sorted(GENERATORS))
def test_generator_spans_per_trial(algorithm):
    """Every trial takes its defectives, placements and noise from counter
    streams and constructs no generator, COMP/NCOMP included: their design
    is counter-hashed like the trees'.  Each trial enters its scheme's
    build and decode spans once."""
    tracing = _load("tracing")
    fields = GENERATORS[algorithm]
    config = bench.TrialConfig(algorithm=algorithm, n=1024, k=4, trials=3, base_seed=5,
                               **fields)
    tracer = tracing.Tracer(count=False)
    tracer.install()
    try:
        for index in range(3):
            tracer.run_trial(bench.run_trial, config, index)
    finally:
        tracer.uninstall()
    per_trial = tracing.self_times(tracer.spans)
    assert [per_trial[trial].get("core.generator", [0, 0])[1] for trial in range(3)] == [0] * 3
    layer = "baselines" if algorithm in ("comp", "ncomp") else algorithm
    assert [(per_trial[trial][f"{layer}.build"][1], per_trial[trial][f"{layer}.decode"][1])
            for trial in range(3)] == [(1, 1)] * 3
