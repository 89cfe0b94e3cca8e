"""The decode's cost counters against the ideal-placement frontier, a closed
form from each trial's own defectives.

At a level with R repetitions of t tests, a node that holds no defective
survives when every one of its R tests holds a defective node.  With d the
number of distinct defective nodes at the level, that happens with
probability

  - q = (1 - (1 - 1/t)^d)^R under a fully random placement (gamma's counter
    hash, and its polynomial hashes as far as their independence reaches;
    COMP's counter hash);
  - q = (1 - C(m - 1 - d, w - 1) / C(m - 1, w - 1))^R under a uniform
    balanced placement of row weight w over m nodes (rho's keyed
    permutations).

A level's placement is drawn apart from the levels above, so the expected
frontier F of the next level, b children per survivor, is b * (d + (E[F] -
d) * q); an individually tested top level keeps exactly its d defective
nodes.  ``nodes_visited`` is the top level's node count plus the frontiers
below it, and the expected false positives are (E[F] - d) * q at the last
level.  Over about 2000 trials per cell, the mean of observed less predicted
must stay within 4.9 standard errors for both counters (ALPHA = 1e-6
two-sided, as in test_trial_streams.py), and the exact recoveries must
reach the Markov bound, trials less the expected false positives, up to a
Bernstein deviation at ALPHA: a trial fails only with a false positive, so
the failures are independent Bernoulli draws of total mean at most that
sum.  Every cell expects at least ten false positives in all: a sample's
standard error says nothing of events too rare to show in it.

Out of scope: the noisy scheme, whose lookahead survival rule has no such
simple closed form, and NCOMP, which forgives negatives.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from splitgt import bench
from splitgt.placements import IDENTITY

ALPHA = 1e-6
Z = 4.9  # the two-sided normal quantile at ALPHA, 4.89, rounded up

CELLS = {
    # the bucket bias of the previous field rule showed here: level 2 put 512
    # nodes on 384 tests over the prime 521
    "gamma-kwise-g3": dict(algorithm="gamma", n=2 ** 12, k=16, gamma=3, hash_mode="kwise"),
    "gamma-full-g3": dict(algorithm="gamma", n=2 ** 12, k=16, gamma=3),
    "gamma-kwise-g6": dict(algorithm="gamma", n=2 ** 14, k=4, gamma=6, hash_mode="kwise"),
    "gamma-full-g6": dict(algorithm="gamma", n=2 ** 14, k=4, gamma=6),
    # one repetition a level, so that clean nodes survive often enough to count
    "rho-full": dict(algorithm="rho", n=2 ** 12, k=8, rho=16, reps=1, final_reps=1),
    "rho-permutation": dict(algorithm="rho", n=2 ** 12, k=8, rho=16, reps=1, final_reps=1,
                            hash_mode="permutation"),
    # about one trial in 35 carries a false positive at this budget
    "comp": dict(algorithm="comp", n=2 ** 12, k=8, tests=200),
}
TRIALS = 2000


def distinct_per_trial(items: np.ndarray) -> np.ndarray:
    """The number of distinct values in each row of an int64 matrix."""
    rows = np.sort(items, axis=1)
    return 1 + (np.diff(rows, axis=1) != 0).sum(axis=1)


def survival(level, defective_nodes: np.ndarray, balanced: bool) -> np.ndarray:
    """q, per trial, of a level holding ``defective_nodes`` distinct
    defective nodes: all of a clean node's tests positive."""
    d = defective_nodes.astype(float)
    if not balanced:
        return (1 - (1 - 1 / level.t_len) ** d) ** level.reps
    m, w = level.nodes, level.nodes // level.t_len
    negative = {v: math.prod((m - 1 - v - i) / (m - 1 - i) for i in range(w - 1))
                for v in np.unique(defective_nodes).tolist()}
    return (1 - np.array([negative[v] for v in defective_nodes.tolist()])) ** level.reps


def predicted(config: bench.TrialConfig, defectives: np.ndarray):
    """The expected ``nodes_visited`` and false positives of each trial
    under the ideal placement, from its defectives (trials x k)."""
    n, k, _ = bench._rounded(config)
    scheme = bench.SCHEMES[config.algorithm]
    levels = scheme.levels(config, scheme.params(config, n, k), n, k)
    balanced = config.algorithm == "rho"
    visited = np.full(len(defectives), float(levels[0].nodes))
    frontier = survivors = None
    for above, level in zip([None, *levels], levels):
        d = distinct_per_trial(defectives // (n // level.nodes))
        if above is None:
            frontier = np.full(len(defectives), float(level.nodes))
        else:
            frontier = survivors * (level.nodes // above.nodes)
            visited += frontier
        if level.placement is IDENTITY:
            survivors = d.astype(float)
        else:
            survivors = d + (frontier - d) * survival(level, d, balanced)
    return visited, survivors - d


def z_score(observed, expected) -> float:
    """The mean of observed less expected in standard errors of that mean:
    0 where every trial matches its prediction exactly."""
    diff = np.asarray(observed, dtype=float) - expected
    error = diff.std(ddof=1) / math.sqrt(len(diff))
    return float(diff.mean() / error) if error else (math.inf if diff.any() else 0.0)


def bernstein(mean: float, alpha: float = ALPHA) -> float:
    """How far a sum of independent Bernoulli draws of total mean at most
    ``mean`` rises above it with probability at most ``alpha``."""
    log_term = math.log(1 / alpha)
    return log_term / 3 + math.sqrt(log_term ** 2 / 9 + 2 * mean * log_term)


@pytest.mark.parametrize("cell", CELLS)
def test_decode_counters_match_the_ideal_frontier(cell):
    config = bench.TrialConfig(trials=TRIALS, base_seed=19, **CELLS[cell])
    records = bench._run_share(config, range(TRIALS))
    visited, false_positives = predicted(config, np.array(records["defectives"]))
    assert false_positives.sum() >= 10
    scores = {name: z_score(records[name], expected) for name, expected in
              (("nodes_visited", visited), ("false_positives", false_positives))}
    assert all(abs(score) <= Z for score in scores.values()), scores
    failures = TRIALS - sum(records["exact"])
    assert failures <= false_positives.sum() + bernstein(false_positives.sum())
