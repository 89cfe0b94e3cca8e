import gc
import math
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import (
    LabelCache,
    decode_noisy_scalar,
    final_label,
    intermediate_label,
    singleton_final_label,
)
from splitgt import bench, noisy
from splitgt.core import (
    NoiseChannel,
    OutcomeVector,
    ProblemInstance,
    RandomnessKey,
    evaluate_design,
)
from splitgt.noisy import (
    build_noisy_design,
    decode_noisy,
    noisy_params,
    noisy_total_tests,
)


def test_params_constants_at_reference_points():
    p = noisy_params(2 ** 12, 8, 0.1, t=2, epsilon=0.6, mode="theory")
    assert p.c_const == 4
    assert p.n_reps == 125  # ceil(5.5452 / 0.045) = 124, bumped to odd
    assert p.r == 5
    assert p.t_len == 4 * 8


def test_params_structural_inequalities():
    p = noisy_params(2 ** 12, 8, 0.05, mode="practice")
    log2n = 12
    assert p.n_reps % 2 == 1
    assert p.c_final * log2n >= p.r
    assert p.t * p.c_final > 1
    # explicit C' too small for r is rejected
    with pytest.raises(ValueError):
        noisy_params(2 ** 12, 8, 0.05, mode="practice", r=13, c_final=1)
    # C' failing t*C' > 1 is rejected
    with pytest.raises(ValueError):
        noisy_params(2 ** 12, 8, 0.05, t=0.75, epsilon=1.5, mode="practice", c_final=1)


def test_params_rejections():
    with pytest.raises(ValueError):
        noisy_params(2 ** 10, 4, 0.6)
    with pytest.raises(ValueError):
        noisy_params(2 ** 10, 4, 0.0)
    with pytest.raises(ValueError):
        noisy_params(2 ** 10, 4, 0.05, t=1.0, epsilon=0.9)  # epsilon * t <= 1
    with pytest.raises(ValueError):
        noisy_params(2 ** 10, 4, 0.05, mode="theory", n_reps=9)


def test_params_even_reps_bumped_to_odd():
    p = noisy_params(2 ** 10, 4, 0.05, mode="practice", n_reps=6)
    assert p.n_reps == 7


def test_total_tests_identity():
    for n, k, p_lvl in [(2 ** 10, 4, 0.05), (2 ** 12, 8, 0.1), (2 ** 8, 2, 0.2)]:
        params = noisy_params(n, k, p_lvl, mode="practice")
        design = build_noisy_design(params, n, k, RandomnessKey(0))
        log2n, log2k = int(math.log2(n)), int(math.log2(k))
        expected = (params.c_const * params.n_reps * k * (log2n - log2k)
                    + params.c_const * params.c_final * params.n_reps * k * log2n)
        assert design.t_total == expected == noisy_total_tests(params, n, k)


def _design(n=16, k=2, **kw):
    kw.setdefault("mode", "practice")
    kw.setdefault("n_reps", 3)
    kw.setdefault("r", 2)
    params = noisy_params(n, k, 0.05, **kw)
    return build_noisy_design(params, n, k, RandomnessKey(42))


def _outcomes(design, positions):
    bits = np.zeros(design.t_total, dtype=np.uint8)
    offset = 0
    offsets = {}
    for level, rep, length in design.layout:
        offsets[(level, rep)] = offset
        offset += length
    for level, rep, idx in positions:
        bits[offsets[(level, rep)] + idx] = 1
    return OutcomeVector(bits=bits, layout=design.layout)


def _node_test_positions(design, level, node, reps):
    return [(level, rep, design.stacks[level].test_of(node, rep)) for rep in reps]


def test_intermediate_label_majority():
    design = _design()
    node, level = 1, 2
    # two of three positive -> 1
    out = _outcomes(design, _node_test_positions(design, level, node, [0, 1]))
    assert intermediate_label(node, level, design, out, LabelCache()) == 1
    # one of three positive -> 0
    out = _outcomes(design, _node_test_positions(design, level, node, [2]))
    assert intermediate_label(node, level, design, out, LabelCache()) == 0


def test_intermediate_label_cached_once():
    design = _design()
    out = _outcomes(design, [])
    cache = LabelCache()
    for _ in range(5):
        intermediate_label(3, 2, design, out, cache)
    assert cache.lookups == 5
    assert cache.computed == 1


def test_final_label_path_rule():
    design = _design()  # n=16: levels 1..3, final level 4, r=2
    v = 1  # node at level 1
    child = 2 * v
    grandchild = 2 * child
    child_pos = _node_test_positions(design, 2, child, [0, 1])
    # a single positive label on the path is not more than r/2 = 1
    out = _outcomes(design, child_pos)
    assert final_label(v, 1, design, out, LabelCache()) == 0
    # child and grandchild positive: 2 > 1 -> positive
    out = _outcomes(design, child_pos + _node_test_positions(design, 3, grandchild, [1, 2]))
    assert final_label(v, 1, design, out, LabelCache()) == 1


def test_final_label_uses_batch_padding_near_bottom():
    design = _design()
    v = 5  # node at level 3: only one real level below, r=2 needs one pad step
    singleton = 2 * v
    reps = design.params.n_reps
    batch0 = _node_test_positions(design, 4, singleton, [0 * reps + j for j in (0, 1)])
    batch1 = _node_test_positions(design, 4, singleton, [1 * reps + j for j in (0, 2)])
    assert final_label(v, 3, design, _outcomes(design, batch0), LabelCache()) == 0
    assert final_label(v, 3, design, _outcomes(design, batch0 + batch1), LabelCache()) == 1


def test_singleton_final_label_majority():
    design = _design()  # C' * log2 n = 4 batches
    item = 7
    reps = design.params.n_reps

    def batch_positions(batch):
        return _node_test_positions(design, 4, item, [batch * reps + j for j in (0, 1)])

    three = batch_positions(0) + batch_positions(1) + batch_positions(2)
    assert singleton_final_label(item, design, _outcomes(design, three), LabelCache()) == 1
    two = batch_positions(0) + batch_positions(1)
    assert singleton_final_label(item, design, _outcomes(design, two), LabelCache()) == 0


def test_final_label_rejects_bottom_level():
    design = _design()
    with pytest.raises(ValueError):
        final_label(0, 4, design, _outcomes(design, []), LabelCache())


def _run(n, k, defectives, seed, channel_p=0.0, design_p=0.05):
    params = noisy_params(n, k, design_p, mode="practice")
    design = build_noisy_design(params, n, k, RandomnessKey(seed, ("design",)))
    inst = ProblemInstance(n=n, k=k, defectives=tuple(defectives))
    channel = NoiseChannel.symmetric(channel_p)
    out = evaluate_design(design, inst, channel, RandomnessKey(seed, ("noise",)))
    estimate, report = decode_noisy(design, out)
    return design, out, estimate, report


def test_zero_noise_never_misses_defectives():
    n, k = 2 ** 10, 4
    for seed in range(30):
        defectives = sorted({(seed * 37 + i * 251) % n for i in range(k)})
        _, _, estimate, _ = _run(n, k, defectives, seed)
        assert set(defectives) <= set(estimate)


def test_zero_noise_empty_defectives_label_budget():
    n, k = 2 ** 10, 4
    design, _, estimate, report = _run(n, k, (), seed=5)
    assert estimate == ()
    assert report.labels_computed <= k * 2 ** (design.params.r + 1)


def test_lookahead_work_bound_per_call():
    n, k = 2 ** 10, 8
    params = noisy_params(n, k, 0.05, mode="practice")
    design = build_noisy_design(params, n, k, RandomnessKey(17, ("design",)))
    inst = ProblemInstance(n=n, k=k, defectives=(1, 5, 100, 200, 300, 400, 777, 900))
    out = evaluate_design(design, inst, NoiseChannel.symmetric(0.05),
                          RandomnessKey(17, ("noise",)))
    bound = 2 ** (params.r + 1)
    for node in range(k):
        cache = LabelCache(enabled=False)  # count raw evaluations per call
        final_label(node, design.layout[0][0], design, out, cache)
        assert cache.lookups <= bound


def test_cache_disabled_matches_enabled():
    n, k = 2 ** 9, 4
    for seed in range(8):
        defectives = sorted({(seed * 29 + i * 83) % n for i in range(k)})
        design, out, estimate, _ = _run(n, k, defectives, seed, channel_p=0.05)
        rep_cached = decode_noisy_scalar(design, out, use_cache=True)
        rep_plain = decode_noisy_scalar(design, out, use_cache=False)
        with_cache, without = rep_cached.estimate, rep_plain.estimate
        assert with_cache == without == estimate
        assert rep_plain.labels_computed >= rep_cached.labels_computed


def test_noisy_recovery_smoke():
    n, k = 2 ** 10, 4
    hits = 0
    for seed in range(40):
        defectives = sorted({(seed * 97 + i * 419) % n for i in range(k)})
        design, _, estimate, report = _run(n, k, defectives, seed, channel_p=0.05)
        hits += set(estimate) == set(defectives)
        bound = report.nodes_visited * 2 ** (design.params.r + 1)
        assert report.labels_computed <= bound
    assert hits >= 34


def test_success_rate_non_increasing_in_noise():
    n, k, trials = 2 ** 9, 4, 60
    rates = []
    for p_noise in (0.0, 0.02, 0.05, 0.1):
        hits = 0
        for seed in range(trials):
            defectives = sorted({(seed * 61 + i * 157) % n for i in range(k)})
            _, _, estimate, _ = _run(n, k, defectives, seed, channel_p=p_noise,
                                     design_p=max(p_noise, 0.05))
            hits += set(estimate) == set(defectives)
        rates.append(hits / trials)
    for lo, hi in zip(rates[1:], rates[:-1]):
        sigma = math.sqrt(max(hi * (1 - hi), 0.25 / trials) / trials)
        assert lo <= hi + 2 * sigma


def test_decode_layout_mismatch_rejected():
    n, k = 2 ** 8, 2
    params = noisy_params(n, k, 0.05, mode="practice")
    design_a = build_noisy_design(params, n, k, RandomnessKey(0))
    design_b = build_noisy_design(noisy_params(n, k, 0.05, mode="practice", n_reps=5),
                                  n, k, RandomnessKey(0))
    assert tuple(design_a.layout) != tuple(design_b.layout)
    inst = ProblemInstance(n=n, k=k, defectives=(1,))
    out = evaluate_design(design_b, inst, NoiseChannel.noiseless(), RandomnessKey(1))
    with pytest.raises(ValueError):
        decode_noisy(design_a, out)


def test_decode_deterministic():
    n, k = 2 ** 9, 4
    a = _run(n, k, (3, 100, 200, 400), seed=8, channel_p=0.05)
    b = _run(n, k, (3, 100, 200, 400), seed=8, channel_p=0.05)
    assert a[2] == b[2]
    assert a[3].outcomes_read == b[3].outcomes_read


def test_decode_leaves_no_reference_cycle(monkeypatch):
    """A trial's design and outcome vector are freed by reference counting
    alone."""
    designs, outcome_vectors = [], []

    def tracked_build(*args, **kwargs):
        design = build_noisy_design(*args, **kwargs)
        designs.append(weakref.ref(design))
        return design

    def tracked_evaluate(*args, **kwargs):
        outcomes = evaluate_design(*args, **kwargs)
        outcome_vectors.append(weakref.ref(outcomes))
        return outcomes

    monkeypatch.setattr(noisy, "build_noisy_design", tracked_build)
    monkeypatch.setattr(bench, "evaluate_design", tracked_evaluate)
    config = bench.TrialConfig(algorithm="noisy", n=2 ** 8, k=4, p=0.05, trials=1,
                               base_seed=3)
    gc.collect()
    gc.disable()
    try:
        bench.run_trial(config, 0)
        assert len(designs) == 1 and len(outcome_vectors) == 1
        assert designs[0]() is None
        assert outcome_vectors[0]() is None
    finally:
        gc.enable()


@settings(max_examples=60, deadline=None)
@given(
    log_n=st.integers(min_value=2, max_value=14),
    log_k=st.integers(min_value=0, max_value=4),
    n_reps=st.sampled_from([1, 3, 5, 7]),
    r=st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
    hash_mode=st.sampled_from(["full", "kwise", "pairwise"]),
    p01=st.sampled_from([0.0, 0.05, 0.3]),
    p10=st.sampled_from([0.0, 0.05, 0.3]),
    seed=st.integers(min_value=0, max_value=2 ** 32),
)
def test_decode_matches_depth_first_reference(log_n, log_k, n_reps, r, hash_mode,
                                              p01, p10, seed):
    """The level-synchronous decoder returns the depth-first lookahead's
    estimate on the same outcome vector, visits the same nodes, reads at most
    every test once, computes at most 2^(r+1) - 2 labels (one per node of a
    depth-r binary tree below the root) per visited node above the final
    level, and exactly C' * log2 n batch labels per visited singleton."""
    n, k = 1 << log_n, 1 << min(log_k, log_n - 1)
    params = noisy_params(n, k, 0.05, n_reps=n_reps, r=r)
    design = build_noisy_design(params, n, k, RandomnessKey(seed, ("design",)), hash_mode)
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, k + 1))
    defectives = tuple(int(d) for d in rng.choice(n, size=count, replace=False))
    out = evaluate_design(design, ProblemInstance(n=n, k=k, defectives=defectives),
                          NoiseChannel(p01=p01, p10=p10), RandomnessKey(seed, ("noise",)))
    upper = []  # (roots, labels computed) of each level above the final one

    def recording_lookahead(*args):
        accepted, computed = lookahead(*args)
        upper.append((len(args[-1]), computed))
        return accepted, computed

    lookahead = noisy._lookahead
    with mock.patch.object(noisy, "_lookahead", recording_lookahead):
        estimate, report = decode_noisy(design, out)
    reference = decode_noisy_scalar(design, out)
    assert estimate == report.estimate == reference.estimate
    assert all(isinstance(item, int) for item in estimate)
    assert report.nodes_visited == reference.nodes_visited
    assert report.outcomes_read <= out.t_total
    upper_nodes = sum(roots for roots, _ in upper)
    upper_labels = sum(computed for _, computed in upper)
    assert upper_labels <= upper_nodes * (2 ** (params.r + 1) - 2)
    singletons = report.nodes_visited - upper_nodes
    assert (report.labels_computed - upper_labels
            == params.c_final * log_n * singletons)


def _trial(n, k, seed, hash_mode, channel, count, params):
    """One design and its outcomes; ``count`` defectives drawn from ``seed``."""
    design = build_noisy_design(params, n, k, RandomnessKey(seed, ("design",)), hash_mode)
    rng = np.random.default_rng(seed)
    defectives = tuple(int(d) for d in rng.choice(n, size=count, replace=False))
    out = evaluate_design(design, ProblemInstance(n=n, k=k, defectives=defectives),
                          channel, RandomnessKey(seed, ("noise",)))
    return design, out


@pytest.mark.parametrize("hash_mode", ["full", "kwise", "pairwise"])
@pytest.mark.parametrize("size", [1, 2, 5, 12])
@pytest.mark.parametrize("p01,p10", [(p01, p10) for p01 in (0.0, 0.05, 0.3)
                                     for p10 in (0.0, 0.05, 0.3)])
def test_batch_decode_matches_separate_decodes(hash_mode, size, p01, p10):
    """Decoding trials together gives each trial exactly its own decode:
    the same estimate and the same counters.  The batch mixes trials with
    no defectives (whose frontier empties at the first level when the
    channel is quiet) with trials of up to k defectives."""
    n, k = 2 ** 8, 4
    params = noisy_params(n, k, 0.05, n_reps=3)
    channel = NoiseChannel(p01=p01, p10=p10)
    trials = [_trial(n, k, 1000 * size + i, hash_mode, channel, i % (k + 1), params)
              for i in range(size)]
    designs, outs = [d for d, _ in trials], [o for _, o in trials]
    batched = noisy.decode_noisy_batch(designs, outs)
    assert len(batched) == size
    for design, out, report in zip(designs, outs, batched):
        estimate, alone = decode_noisy(design, out)
        reference = decode_noisy_scalar(design, out)
        assert report.estimate == estimate == reference.estimate
        assert report.nodes_visited == reference.nodes_visited
        assert all(isinstance(item, int) for item in report.estimate)
        for name in ("outcomes_read", "nodes_visited", "labels_computed", "storage_words"):
            assert getattr(report, name) == getattr(alone, name), name
            assert isinstance(getattr(report, name), int), name


@pytest.mark.parametrize("hash_mode", ["kwise", "pairwise"])
def test_batch_decode_matches_separate_decodes_past_2_32_nodes(hash_mode):
    """Per-trial polynomial coefficients through the split multiply that a
    prime above 2^32 takes."""
    n, k = 2 ** 40, 2
    params = noisy_params(n, k, 0.05, n_reps=3, r=2)
    channel = NoiseChannel.symmetric(0.05)
    trials = [_trial(n, k, seed, hash_mode, channel, seed % (k + 1), params)
              for seed in range(3)]
    batched = noisy.decode_noisy_batch([d for d, _ in trials], [o for _, o in trials])
    for (design, out), report in zip(trials, batched):
        assert replace(report, wall_nanos=0) == replace(decode_noisy(design, out)[1],
                                                        wall_nanos=0)


def test_batch_decode_frontier_empties_in_some_trials_only():
    """A trial whose frontier empties at the first level sits in a batch
    whose other trials descend to the singletons; each keeps its own
    counters."""
    n, k = 2 ** 10, 4
    params = noisy_params(n, k, 0.05)
    quiet = NoiseChannel.noiseless()
    trials = [_trial(n, k, seed, "full", quiet, count, params)
              for seed, count in ((1, 0), (2, 4), (3, 0), (4, 2))]
    batched = noisy.decode_noisy_batch([d for d, _ in trials], [o for _, o in trials])
    for (design, out), report in zip(trials, batched):
        assert replace(report, wall_nanos=0) == replace(decode_noisy(design, out)[1],
                                                        wall_nanos=0)
    empty, full = batched[0], batched[1]
    assert empty.estimate == () and empty.nodes_visited == k
    assert len(full.estimate) == 4 and full.nodes_visited > empty.nodes_visited


def test_batch_decode_rejects_mixed_layouts():
    n, k = 2 ** 8, 2
    channel = NoiseChannel.noiseless()
    a = _trial(n, k, 1, "full", channel, 1, noisy_params(n, k, 0.05))
    b = _trial(n, k, 2, "full", channel, 1, noisy_params(n, k, 0.05, n_reps=5))
    with pytest.raises(ValueError, match="share a layout"):
        noisy.decode_noisy_batch([a[0], b[0]], [a[1], b[1]])
    with pytest.raises(ValueError, match="outcome layout"):
        noisy.decode_noisy_batch([a[0], a[0]], [a[1], b[1]])
    assert noisy.decode_noisy_batch([], []) == []
