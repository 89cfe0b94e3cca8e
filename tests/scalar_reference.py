"""Scalar reference implementations that the array-native fast paths are
tested against: the node-by-node gamma and rho decoders, one
``OutcomeVector.get`` and one placement ``test_of`` at a time."""

from __future__ import annotations

from splitgt.core import DecodeReport


def _report(design, outcomes, estimate, seen, visited, pd_peak):
    storage = design.storage_words + pd_peak + (outcomes.t_total + 63) // 64
    return DecodeReport(
        estimate=tuple(sorted(estimate)),
        outcomes_read=len(seen),
        nodes_visited=visited,
        wall_nanos=0,
        storage_words=storage,
    )


def decode_gamma_scalar(design, outcomes) -> DecodeReport:
    """Breadth-first walk: a level-1 node survives if its individual test is
    positive, a mid-level node if its single test is, and a singleton makes
    the estimate if none of its final-level tests is negative."""
    params = design.params
    gp = params.gamma_prime
    b = params.branching
    seen = set()
    visited = 0

    survivors = []
    for node in range(design.level1_count):
        seen.add((1, 0, node))
        visited += 1
        if outcomes.get(1, 0, node):
            survivors.append(node)
    pd_peak = len(survivors)

    pd = [c for node in survivors for c in range(node * b, node * b + b)]
    for level in range(2, gp):
        pd_peak = max(pd_peak, len(pd))
        survivors = []
        for node in pd:
            visited += 1
            test = design.placements[(level, 0)].test_of(node)
            seen.add((level, 0, test))
            if outcomes.get(level, 0, test):
                survivors.append(node)
        pd = [c for node in survivors for c in range(node * b, node * b + b)]

    pd_peak = max(pd_peak, len(pd))
    estimate = []
    for item in pd:
        visited += 1
        clean = True
        for rep in range(params.final_reps):
            test = design.placements[(gp, rep)].test_of(item)
            seen.add((gp, rep, test))
            if not outcomes.get(gp, rep, test):
                clean = False
                break
        if clean:
            estimate.append(item)
    return _report(design, outcomes, estimate, seen, visited, pd_peak)


def decode_rho_scalar(design, outcomes) -> DecodeReport:
    """Constant-depth descent: a mid-level node survives only if all N of its
    tests are positive; a singleton makes the estimate if none of its final
    tests is negative."""
    params = design.params
    branch = params.branch
    seen = set()
    visited = 0

    survivors = []
    for node in range(design.tests_per_level):
        seen.add((0, 0, node))
        visited += 1
        if outcomes.get(0, 0, node):
            survivors.append(node)
    pd_peak = len(survivors)

    pd = [c for node in survivors for c in range(node * branch, node * branch + branch)]
    for level in range(1, params.c_depth):
        pd_peak = max(pd_peak, len(pd))
        survivors = []
        for node in pd:
            visited += 1
            alive = True
            for rep in range(params.n_reps):
                test = design.placements[(level, rep)].test_of(node)
                seen.add((level, rep, test))
                if not outcomes.get(level, rep, test):
                    alive = False
                    break
            if alive:
                survivors.append(node)
        pd = [c for node in survivors
              for c in range(node * branch, node * branch + branch)]

    pd_peak = max(pd_peak, len(pd))
    estimate = []
    for item in pd:
        visited += 1
        clean = True
        for rep in range(params.c_final):
            test = design.placements[(params.c_depth, rep)].test_of(item)
            seen.add((params.c_depth, rep, test))
            if not outcomes.get(params.c_depth, rep, test):
                clean = False
                break
        if clean:
            estimate.append(item)
    return _report(design, outcomes, estimate, seen, visited, pd_peak)
