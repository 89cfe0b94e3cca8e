"""Each scheme's level list against the paper's closed-form test counts and
against the designs built from it.

A list is computed from the params and the hash mode alone, so these checks
draw no key for it: the closed forms run along n = 2^4 .. 2^62, and the
built designs, whose keys are drawn, up to n = 2^16.
"""

import math
import warnings

import pytest

from hash_modes import ACCEPTED
from splitgt import bench, placements
from splitgt.baselines import flat_shape
from splitgt.core import RandomnessKey
from splitgt.gamma import gamma_total_tests
from splitgt.noisy import noisy_total_tests
from splitgt.placements import IDENTITY
from splitgt.rho import rho_total_tests

K = 4
CASES = [(algorithm, mode) for algorithm in sorted(ACCEPTED) for mode in ACCEPTED[algorithm]]

# Per (algorithm, hash mode), a hashed level's row keys and storage words
# per repetition at a level of 2^bits nodes, as README's mode table states
# them: the counter hash one key and the n-word table it stands for, a
# degree-d polynomial 2d keys and d + 2 words (gamma kwise's d is gamma = 6),
# a keyed permutation one key per Feistel round (24 below 2^6 nodes, else 6)
# and its stored table or its round keys plus two words.
COUNTER = (lambda bits: 1, lambda bits: 1 << bits)


def _polynomial(degree):
    return (lambda bits: 2 * degree, lambda bits: degree + 2)


def _rounds(bits):
    return 24 if bits < 6 else 6


ACCOUNTING = {
    ("gamma", "full"): COUNTER,
    ("gamma", "kwise"): _polynomial(6),
    ("gamma", "pairwise"): _polynomial(2),
    ("rho", "full"): (_rounds, lambda bits: 1 << bits),
    ("rho", "permutation"): (_rounds, lambda bits: _rounds(bits) + 2),
    ("noisy", "full"): COUNTER,
    ("noisy", "kwise"): _polynomial(2),
    ("comp", "full"): COUNTER,
    ("ncomp", "full"): COUNTER,
}


def _config(algorithm, mode, n):
    return bench.TrialConfig(algorithm=algorithm, n=n, k=K, gamma=6,
                             rho=1 << (n.bit_length() - 1) // 3, p=0.05, hash_mode=mode)


def _levels(config):
    """The config's params and level list, as the harness computes them."""
    scheme = bench.SCHEMES[config.algorithm]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rho's cap is not small next to n/k at small n
        params = scheme.params(config, config.n, K)
    return params, scheme.levels(config, params, config.n, K)


def _closed_form(algorithm, params, n):
    if algorithm == "gamma":
        return gamma_total_tests(params, n)
    if algorithm == "rho":
        return rho_total_tests(params, n)
    if algorithm == "noisy":
        return noisy_total_tests(params, n, K)
    weight, _ = flat_shape(params, K)
    return weight * -(-params // weight)


@pytest.mark.parametrize("algorithm,mode", CASES)
def test_levels_sum_to_the_closed_form_test_count(algorithm, mode, monkeypatch):
    """Sum of tests times repetitions over the list is the scheme's closed
    form: ``gamma_total_tests``, ``rho_total_tests``, ``noisy_total_tests``,
    or w * ceil(T / w) for the flat design.  No key is drawn."""

    def no_keys(*args):
        raise AssertionError("a level list drew keys")

    monkeypatch.setattr(placements, "row_keys", no_keys)
    for log_n in range(4, 63):
        n = 1 << log_n
        params, levels = _levels(_config(algorithm, mode, n))
        assert levels[-1].nodes == n and levels[0].nodes <= levels[-1].nodes
        assert sum(level.t_len * level.reps for level in levels) == \
            _closed_form(algorithm, params, n), n


@pytest.mark.parametrize("algorithm,mode", CASES)
def test_built_designs_are_their_level_lists(algorithm, mode, monkeypatch):
    """The built design's tests, layout, storage words and row keys are
    those its list states, from one trial's key and from three trials' key
    material."""
    counts, row_keys = [], placements.row_keys

    def counting(key, count):
        counts.append(count)
        return row_keys(key, count)

    monkeypatch.setattr(placements, "row_keys", counting)
    keys_per_rep, words_per_rep = ACCOUNTING[algorithm, mode]
    for log_n in range(4, 17):
        config = _config(algorithm, mode, 1 << log_n)
        params, levels = _levels(config)
        keys = sum(0 if level.placement is IDENTITY
                   else level.reps * keys_per_rep(level.nodes.bit_length() - 1)
                   for level in levels)
        storage = sum(1 if level.placement is IDENTITY
                      else level.reps * words_per_rep(level.nodes.bit_length() - 1)
                      for level in levels)
        layout = tuple((level.level, rep, level.t_len)
                       for level in levels for rep in range(level.reps))
        for key in (RandomnessKey(5, ("levels",)), RandomnessKey(5).materials(range(3), "d")):
            counts.clear()
            design = bench.SCHEMES[algorithm].build(config, params, config.n, K, key)
            assert design.t_total == sum(level.t_len * level.reps for level in levels)
            assert design.layout == layout
            assert design.storage_words == storage
            assert counts == [keys]
            assert sum(math.prod(level.key_shape) for level in levels) == keys
