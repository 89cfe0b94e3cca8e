"""Spans and counters around the calls ``bench.run_trial`` makes into each layer.

The tracer replaces public functions of ``splitgt``'s modules with wrappers
while it is installed, and puts the originals back when it is removed.  It is
installed only in the traced process, and only around traced rounds, so
``bench.run_trial`` itself runs unchanged.  Layer names are module names:
``bench``, ``core``, ``placements``, ``gamma``, ``rho``, ``noisy``,
``baselines``.

A span is ``(trial, parent, name, start_ns, end_ns)``; its id is its index in
``Tracer.spans``.  Spans stay in memory until the run writes them out.
A counter only counts calls and adds no timer, because the functions it
watches run thousands of times per trial.

A wrapped function that no longer exists is not an error: its span name goes
into ``Tracer.missing``, its time stays in the caller's self time, and the
metrics built from it are reported as unmeasured.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute path) of every timed call.
SPAN_TARGETS = (
    ("bench.params", "gamma", "gamma_params"),
    ("bench.params", "rho", "rho_params"),
    ("bench.params", "noisy", "noisy_params"),
    ("bench.params", "baselines", "default_baseline_tests"),
    ("gamma.build", "gamma", "build_gamma_design"),
    ("rho.build", "rho", "build_rho_design"),
    ("noisy.build", "noisy", "build_noisy_design"),
    ("baselines.build", "baselines", "build_flat_design"),
    ("core.evaluate", "core", "evaluate_design"),
    ("gamma.decode", "gamma", "decode_gamma"),
    ("rho.decode", "rho", "decode_rho"),
    ("noisy.decode", "noisy", "decode_noisy"),
    ("baselines.decode", "baselines", "decode_comp"),
    ("baselines.decode", "baselines", "decode_ncomp"),
    ("core.generator", "core", "RandomnessKey.generator"),
)

# (counter name, module, attribute path) of every counted call.  Every class
# of ``splitgt.placements`` that defines ``test_of`` is counted as well.
COUNT_TARGETS = (
    ("core.outcome_gets", "core", "OutcomeVector.get"),
    ("core.outcome_gets", "core", "OutcomeVector.segment"),
)
LOOKUPS = "placements.lookups"
TRIAL = "bench.trial"


def _resolve(module: str, path: str):
    """(owner, attribute, original) for ``module.path``, or None if gone."""
    owner = importlib.import_module(f"splitgt.{module}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    """Spans, and unless ``count`` is false, call counters.

    Counters cost a wrapper call each, thousands of times per trial, and that
    time lands in the counted layer's caller; leave them off to time phases.
    """

    def __init__(self, count: bool = True):
        self.spans: list = []
        self.stack: list[int] = []
        self.trial = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        self._prepare(count)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.trial, parent, name, start, end)

        return functools.update_wrapper(traced, fn)

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def _add(self, name: str, module: str, path: str, make) -> None:
        found = _resolve(module, path)
        if found is None:
            self.missing.add(name)
            return
        owner, attr, original = found
        wrapper = make(name, original)
        self._wrappers.append((owner, attr, wrapper))
        if isinstance(owner, type):
            return
        # a module-level function may also be bound by name in the modules
        # that imported it (``from .core import evaluate_design``)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("splitgt") and mod is not owner:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._wrappers.append((mod, alias, wrapper))

    def _prepare(self, count: bool) -> None:
        for name, module, path in SPAN_TARGETS:
            self._add(name, module, path, self._span_wrapper)
        if not count:
            return
        for name, module, path in COUNT_TARGETS:
            self._add(name, module, path, self._count_wrapper)
        placements = importlib.import_module("splitgt.placements")
        classes = [c for c in vars(placements).values()
                   if isinstance(c, type) and "test_of" in vars(c)]
        if not classes:
            self.missing.add(LOOKUPS)
        for cls in classes:
            self._add(LOOKUPS, "placements", f"{cls.__name__}.test_of",
                      self._count_wrapper)

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, wrapper in self._wrappers:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- trials -----------------------------------------------------------

    def run_trial(self, run_trial, config, index: int):
        """Call ``run_trial(config, index)`` inside a ``bench.trial`` span.

        Trials are numbered 0, 1, ... in call order.  Returns the trial's
        number, its record and the counter increments it caused.
        """
        before = dict(self.counts)
        self.trial += 1
        record = self._span_wrapper(TRIAL, run_trial)(config, index)
        counts = {name: value - before.get(name, 0)
                  for name, value in self.counts.items()}
        return self.trial, record, counts


def self_times(spans) -> dict[int, dict[str, list[int]]]:
    """Per trial and span name: [total self time in ns, number of spans].

    A span's self time is its duration minus the durations of its direct
    children, so the self times of one trial add up to its trial span.
    """
    child_ns = defaultdict(int)
    for trial, parent, name, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[int, dict[str, list[int]]] = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for sid, (trial, parent, name, start, end) in enumerate(spans):
        acc = out[trial][name]
        acc[0] += end - start - child_ns.get(sid, 0)
        acc[1] += 1
    return out
