import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgt.baselines import flatten_design, oracle_consistent_sets
from splitgt.core import (
    NoiseChannel,
    ProblemInstance,
    RandomnessKey,
    evaluate_design,
)
from splitgt.gamma import (
    _objective,
    build_gamma_design,
    decode_gamma,
    gamma_params,
    gamma_total_tests,
    select_gamma_prime,
    theta_of,
)


def test_select_gamma_prime_examples():
    assert select_gamma_prime(4, 0.9) == 3
    assert select_gamma_prime(10, 0.5) == 5
    assert select_gamma_prime(6, 0.3) == 4
    with pytest.raises(ValueError):
        select_gamma_prime(2, 0.5)


def test_select_gamma_prime_matches_full_search():
    # the floor/ceiling shortcut achieves the minimum of a full scan
    for gamma in range(3, 12):
        for theta in [0.05, 0.1, 0.25, 0.3333, 0.5, 0.6, 0.75, 0.9]:
            chosen = select_gamma_prime(gamma, theta)
            best = min(_objective(gamma, gp, theta) for gp in range(3, gamma + 1))
            assert _objective(gamma, chosen, theta) == pytest.approx(best)


def test_gamma_params_reference_point():
    p = gamma_params(2 ** 14, 4, 6, beta_n=1 / 16, c_const=8, gamma_prime=4)
    assert p.branching == 8
    assert p.level1_size == 512
    assert p.t_len == 256
    assert p.t_len_prime == 128
    assert p.t_len_dprime == 32
    assert (2 ** 14) // p.level1_size == 32
    assert gamma_total_tests(p, 2 ** 14) == 32 + 256 + 128 + 3 * 32 == 512
    # cross-check the final-level length against its defining inequality
    tail = p.gamma - p.gamma_prime + 1
    assert p.t_len_dprime ** tail >= 4 ** tail * (4 * 16) * (2 ** 12) ** (1 / 4) - 1e-9


def test_gamma_params_budget_identity():
    checked = 0
    for gamma in range(3, 9):
        for gp in range(3, gamma + 1):
            try:
                p = gamma_params(2 ** 12, 4, gamma, gamma_prime=gp)
            except ValueError:
                continue  # level-1 node size exceeded n: legitimately rejected
            assert (p.gamma_prime - 1) + p.final_reps == gamma
            checked += 1
    assert checked >= 15


def test_gamma_params_theta_zero_uses_single_final_sequence():
    # k = 1 gives theta = 0, the height equals gamma, one final sequence
    p = gamma_params(2 ** 12, 1, 5)
    assert p.gamma_prime == 5
    assert p.final_reps == 1


def test_gamma_params_rejections():
    with pytest.raises(ValueError):
        gamma_params(2 ** 12, 4, 2)
    with pytest.raises(ValueError):
        gamma_params(2 ** 12, 4, 6, c_const=4.0)
    with pytest.raises(ValueError):
        gamma_params(2 ** 12, 4, 6, beta_n=0.0)
    with pytest.raises(ValueError):
        gamma_params(1000, 4, 6)  # unrounded n
    with pytest.raises(ValueError):
        gamma_params(16, 1, 8, gamma_prime=8)  # level-1 nodes would exceed n


def test_design_layout_and_total():
    n = 2 ** 14
    p = gamma_params(n, 4, 6, beta_n=1 / 16, c_const=8, gamma_prime=4)
    design = build_gamma_design(p, n, RandomnessKey(3))
    assert design.t_total == gamma_total_tests(p, n)
    assert design.branching == p.branching
    levels = [seg[0] for seg in design.layout]
    assert levels == [1, 2, 3, 4, 4, 4]


def test_design_degenerate_height_three():
    n = 2 ** 10
    p = gamma_params(n, 4, 4, gamma_prime=3)
    design = build_gamma_design(p, n, RandomnessKey(3))
    levels = [seg[0] for seg in design.layout]
    assert levels == [1, 2, 3, 3]  # no mid band at height three
    assert design.branching == p.branching


def test_membership_budget_exhaustive():
    n = 2 ** 10
    for gamma, seed in [(3, 0), (4, 1), (6, 2)]:
        p = gamma_params(n, 4, gamma)
        design = build_gamma_design(p, n, RandomnessKey(seed))
        counts = design.memberships_per_item()
        assert max(counts) <= gamma
        assert min(counts) == max(counts) == gamma  # budget is met exactly


@settings(max_examples=25, deadline=None)
@given(
    log_n=st.integers(min_value=6, max_value=12),
    log_k=st.integers(min_value=0, max_value=3),
    gamma=st.integers(min_value=3, max_value=8),
    seed=st.integers(min_value=0, max_value=2 ** 20),
)
def test_total_tests_identity_fuzz(log_n, log_k, gamma, seed):
    n, k = 1 << log_n, 1 << min(log_k, log_n - 1)
    try:
        p = gamma_params(n, k, gamma)
    except ValueError:
        return  # level-1 node size exceeded n at this corner
    design = build_gamma_design(p, n, RandomnessKey(seed))
    expected = (
        n // p.level1_size
        + (p.gamma_prime - 3) * p.t_len
        + p.t_len_prime
        + p.final_reps * p.t_len_dprime
    )
    assert design.t_total == expected
    assert sum(length for _, _, length in design.layout) == expected


def _run(n, k, gamma, defectives, seed, hash_mode="full", channel=None):
    p = gamma_params(n, k, gamma)
    design = build_gamma_design(p, n, RandomnessKey(seed, ("design",)), hash_mode)
    inst = ProblemInstance(n=n, k=k, defectives=tuple(defectives))
    out = evaluate_design(design, inst, channel or NoiseChannel.noiseless(),
                          RandomnessKey(seed, ("noise",)))
    estimate, report = decode_gamma(design, out)
    return design, out, estimate, report


def test_decode_empty_defectives_reads_level_one_only():
    n = 2 ** 12
    design, out, estimate, report = _run(n, 4, 5, (), seed=11)
    assert estimate == ()
    assert report.outcomes_read == n // design.params.level1_size


def test_decode_never_misses_defectives_noiseless():
    n, k = 2 ** 12, 4
    for seed in range(40):
        defectives = [(seed * 7 + i * 997) % n for i in range(k)]
        defectives = sorted(set(defectives))
        _, _, estimate, _ = _run(n, k, 6, defectives, seed)
        assert set(defectives) <= set(estimate)


def test_decode_recovery_with_defaults():
    n, k = 2 ** 12, 4
    hits = 0
    for seed in range(50):
        defectives = sorted({(seed * 131 + i * 2477) % n for i in range(k)})
        _, _, estimate, _ = _run(n, k, 6, defectives, seed)
        hits += set(estimate) == set(defectives)
    assert hits >= 45


def test_decode_low_storage_mode_superset_property():
    n, k = 2 ** 10, 4
    for seed in range(20):
        defectives = sorted({(seed * 53 + i * 311) % n for i in range(k)})
        design, _, estimate, report = _run(n, k, 5, defectives, seed, hash_mode="kwise")
        assert set(defectives) <= set(estimate)
    assert design.storage_words < 100


def test_permutation_mode_rejected_for_uniform_levels():
    p = gamma_params(2 ** 10, 4, 5)
    with pytest.raises(ValueError):
        build_gamma_design(p, 2 ** 10, RandomnessKey(0), hash_mode="permutation")


def test_decode_layout_mismatch_rejected():
    n = 2 ** 10
    p = gamma_params(n, 4, 5)
    design_a = build_gamma_design(p, n, RandomnessKey(0))
    design_b = build_gamma_design(gamma_params(n, 4, 4), n, RandomnessKey(0))
    inst = ProblemInstance(n=n, k=4, defectives=(1,))
    out = evaluate_design(design_b, inst, NoiseChannel.noiseless(), RandomnessKey(1))
    with pytest.raises(ValueError, match="outcome layout does not match this design"):
        decode_gamma(design_a, out)


def test_exact_decode_is_consistent_with_oracle():
    n, k = 16, 2
    for seed in range(10):
        defectives = sorted({(seed * 5) % n, (seed * 11 + 3) % n})[:k]
        design, out, estimate, _ = _run(n, k, 3, defectives, seed)
        if set(estimate) == set(defectives):
            flat = flatten_design(design)
            consistent = oracle_consistent_sets(flat, out, k)
            assert tuple(sorted(defectives)) in consistent


def test_theta_of():
    assert theta_of(1024, 1) == 0.0
    assert theta_of(1024, 32) == pytest.approx(0.5)
