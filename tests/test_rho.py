import warnings

import numpy as np
import pytest

from hash_modes import ACCEPTED
from scalar_reference import scalar_test, segment_table
from splitgt.core import (
    NoiseChannel,
    ProblemInstance,
    RandomnessKey,
    evaluate_design,
)
from splitgt.rho import (
    build_rho_design,
    decode_rho,
    rho_params,
    rho_total_tests,
)


def test_params_dimension_arithmetic():
    p = rho_params(2 ** 12, 4, 2 ** 4, c_depth=2)
    assert p.branch == 4
    design = build_rho_design(p, 2 ** 12, RandomnessKey(0))
    assert design.branching == p.branch
    # level-1 matrices: n/rho tests over n/rho^(1/2) nodes, row weight rho^(1/2)
    assert design.stacks[0].num_nodes == 256
    assert design.stacks[1].num_nodes == 1024
    stack = design.stacks[1]
    assert stack.num_nodes // stack.t_len == 4


def test_params_divisor_rule():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert rho_params(2 ** 10, 4, 2, c_depth=3).c_depth == 1
    assert rho_params(2 ** 10, 4, 2 ** 6, c_depth=3).c_depth == 3
    assert rho_params(2 ** 10, 4, 2 ** 6, c_depth=6).c_depth == 6
    lowered = rho_params(2 ** 10, 4, 2 ** 6, c_depth=5)
    assert lowered.c_depth == 3  # largest divisor of 6
    assert build_rho_design(lowered, 2 ** 10, RandomnessKey(0)).branching == lowered.branch == 4
    p = rho_params(2 ** 10, 4, 2 ** 6, c_depth=2)
    assert p.branch ** p.c_depth == p.rho


def test_params_rejections_and_warning():
    with pytest.raises(ValueError):
        rho_params(2 ** 10, 4, 100)  # not a power of two
    with pytest.raises(ValueError):
        rho_params(2 ** 6, 4, 2 ** 7)  # cap larger than n
    with pytest.warns(UserWarning):
        rho_params(2 ** 10, 4, 2 ** 8)  # rho = n/k boundary


def test_total_tests_example():
    p = rho_params(2 ** 12, 4, 2 ** 4, c_depth=2, n_reps=3, c_final=3)
    assert rho_total_tests(p, 2 ** 12) == (1 + 3 + 3) * 256 == 1792
    design = build_rho_design(p, 2 ** 12, RandomnessKey(1))
    assert design.t_total == 1792


def test_depth_one_layout():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = rho_params(2 ** 8, 4, 2, c_depth=1)
    design = build_rho_design(p, 2 ** 8, RandomnessKey(2))
    levels = sorted({seg[0] for seg in design.layout})
    assert levels == [0, 1]  # only the individual level and the final level
    assert design.branching == p.branch == 2


@pytest.mark.parametrize("hash_mode", ACCEPTED["rho"])
def test_size_cap_holds_exhaustively(hash_mode):
    n = 2 ** 10
    for rho_cap, seed in [(2 ** 2, 0), (2 ** 4, 1), (2 ** 6, 2)]:
        p = rho_params(n, 4, rho_cap)
        design = build_rho_design(p, n, RandomnessKey(seed), hash_mode)
        assert design.max_items_per_test() <= rho_cap


def test_column_weight_one_every_mid_level():
    n = 2 ** 10
    p = rho_params(n, 4, 2 ** 4, c_depth=2, n_reps=3)
    design = build_rho_design(p, n, RandomnessKey(5))
    for level, rep, _ in design.layout:
        if level == 0:
            continue
        stack = design.stacks[level]
        table = segment_table(design, level, rep)
        # every node appears exactly once, with the exact row weight
        assert len(table) == design.stacks[level].num_nodes
        counts = np.bincount(table, minlength=design.stacks[0].num_nodes)
        assert np.all(counts == stack.num_nodes // stack.t_len)


def _run(n, k, rho_cap, defectives, seed, hash_mode="full", **kw):
    p = rho_params(n, k, rho_cap, **kw)
    design = build_rho_design(p, n, RandomnessKey(seed, ("design",)), hash_mode)
    inst = ProblemInstance(n=n, k=k, defectives=tuple(defectives))
    out = evaluate_design(design, inst, NoiseChannel.noiseless(),
                          RandomnessKey(seed, ("noise",)))
    estimate, report = decode_rho(design, out)
    return design, out, estimate, report


def test_decode_empty_defectives_reads_level_zero_only():
    n = 2 ** 10
    design, _, estimate, report = _run(n, 4, 2 ** 4, (), seed=3)
    assert estimate == ()
    assert report.outcomes_read == n // 2 ** 4


def test_decode_never_misses_defectives_noiseless():
    n, k = 2 ** 12, 4
    for seed in range(40):
        defectives = sorted({(seed * 11 + i * 1237) % n for i in range(k)})
        _, _, estimate, _ = _run(n, k, 2 ** 4, defectives, seed)
        assert set(defectives) <= set(estimate)


def test_decode_recovery_with_defaults():
    n, k = 2 ** 12, 4
    hits = 0
    for seed in range(50):
        defectives = sorted({(seed * 577 + i * 3307) % n for i in range(k)})
        _, _, estimate, _ = _run(n, k, 2 ** 4, defectives, seed)
        hits += set(estimate) == set(defectives)
    assert hits >= 45


def test_decode_layout_mismatch_rejected():
    n = 2 ** 10
    p = rho_params(n, 4, 2 ** 4)
    design_a = build_rho_design(p, n, RandomnessKey(0))
    design_b = build_rho_design(rho_params(n, 4, 2 ** 2), n, RandomnessKey(0))
    inst = ProblemInstance(n=n, k=4, defectives=(1,))
    out = evaluate_design(design_b, inst, NoiseChannel.noiseless(), RandomnessKey(1))
    with pytest.raises(ValueError, match="outcome layout does not match this design"):
        decode_rho(design_a, out)


def test_collision_rate_with_defective_set():
    # a fixed non-defective node joins a positive test with prob <= k*rho/n
    n, rho_cap, k = 2 ** 10, 2 ** 4, 4
    p = rho_params(n, k, rho_cap, c_depth=2)
    defective_nodes = {1, 100, 150, 200}  # level-1 node ids, below n/branch
    draws, hits = 2000, 0
    base = RandomnessKey(321)
    for i in range(draws):
        stack = build_rho_design(p, n, base.child(i)).stacks[1]
        my_test = scalar_test(stack, 0, 0)
        if any(scalar_test(stack, d, 0) == my_test for d in defective_nodes):
            hits += 1
    bound = k * rho_cap / n
    sigma = (bound * (1 - bound) / draws) ** 0.5
    assert hits / draws <= bound + 3 * sigma


def test_pd_stays_small():
    # nodes visited beyond level 0 stay O(k * branch) in nearly all trials
    n, k, rho_cap = 2 ** 12, 4, 2 ** 4
    p = rho_params(n, k, rho_cap)
    good = 0
    trials = 100
    for seed in range(trials):
        defectives = sorted({(seed * 449 + i * 2731) % n for i in range(k)})
        _, _, _, report = _run(n, k, rho_cap, defectives, seed)
        extra = report.nodes_visited - n // rho_cap
        good += extra <= 4 * k * p.branch * p.c_depth
    assert good >= 99


def test_rho_one_degenerates_to_individual_testing():
    n = 2 ** 6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        design, _, estimate, _ = _run(n, 4, 1, (3, 17), seed=9)
    assert estimate == (3, 17)
    assert design.max_items_per_test() <= 1
    assert design.branching == design.params.branch == 1
