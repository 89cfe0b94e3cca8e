"""One ``--hash-mode`` name per design: every name a scheme takes gives
results of its own, and every other name is rejected before any trial, by
``validate_config`` and by the scheme's builder."""

import warnings

import pytest

from hash_modes import ACCEPTED, NAMES, TREE_SCHEMES
from splitgt import bench
from splitgt.core import RandomnessKey
from splitgt.gamma import build_gamma_design, gamma_params
from splitgt.noisy import build_noisy_design, noisy_params
from splitgt.rho import build_rho_design, rho_params

FIELDS = dict(n=2 ** 12, k=8, trials=30, base_seed=3, gamma=6, rho=2 ** 6, p=0.05)


def test_names_come_from_the_scheme_tables():
    assert ACCEPTED == {"gamma": ("full", "kwise", "pairwise"), "rho": ("full", "permutation"),
                        "noisy": ("full", "kwise"), "comp": ("full",), "ncomp": ("full",)}
    assert sum(map(len, ACCEPTED.values())) == 9


@pytest.mark.parametrize("algorithm", sorted(ACCEPTED))
def test_every_accepted_mode_gives_its_own_results(algorithm):
    """At a fixed seed no two names of a scheme give the same result, less
    the name itself: each names a design of its own."""
    seen = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rho's cap is not small next to n/k
        for name in ACCEPTED[algorithm]:
            result = bench.run_trials(bench.TrialConfig(algorithm=algorithm, hash_mode=name,
                                                        **FIELDS)).to_dict()
            del result["hash_mode"]
            for other, earlier in seen.items():
                assert result != earlier, (name, other)
            seen[name] = result


@pytest.mark.parametrize("algorithm", sorted(ACCEPTED))
def test_every_other_name_is_rejected_before_any_trial(algorithm, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial started")

    monkeypatch.setattr(bench, "_run_share", no_trial)
    for name in (*NAMES, "bogus"):
        if name in ACCEPTED[algorithm]:
            continue
        config = bench.TrialConfig(algorithm=algorithm, hash_mode=name, **FIELDS)
        with pytest.raises(ValueError, match=f"hash mode '{name}'"):
            bench.validate_config(config)
        with pytest.raises(ValueError, match=f"hash mode '{name}'"):
            bench.run_trials(config)


BUILDERS = {
    "gamma": lambda n, k, key, name: build_gamma_design(gamma_params(n, k, 6), n, key, name),
    "rho": lambda n, k, key, name: build_rho_design(rho_params(n, k, 2 ** 4), n, key, name),
    "noisy": lambda n, k, key, name: build_noisy_design(noisy_params(n, k, 0.05), n, k, key,
                                                        name),
}


@pytest.mark.parametrize("scheme", TREE_SCHEMES)
def test_builders_take_only_their_scheme_names(scheme):
    """A tree builder builds a design for each name of its scheme's table and
    rejects every other name, from one trial's key and from several trials'
    key material."""
    n, k, root = 2 ** 10, 4, RandomnessKey(9)
    for key in (root.child(0, "design"), root.materials(range(3), "design")):
        for name in (*NAMES, "bogus"):
            if name in ACCEPTED[scheme]:
                assert BUILDERS[scheme](n, k, key, name).t_total > 0
            else:
                with pytest.raises(ValueError, match=f"hash mode '{name}'"):
                    BUILDERS[scheme](n, k, key, name)
