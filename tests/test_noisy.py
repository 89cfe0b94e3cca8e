import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hash_modes import ACCEPTED, NAMES, refused
from scalar_reference import (
    LabelCache,
    batch_reports,
    decode_noisy_scalar,
    final_label,
    intermediate_label,
    scalar_test,
    singleton_final_label,
)
from splitgt import bench, noisy
from splitgt.core import (
    NoiseChannel,
    OutcomeVector,
    ProblemInstance,
    RandomnessKey,
    evaluate_batch,
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
        assert design.branching == 2


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
    return [(level, rep, scalar_test(design.stacks[level], node, rep)) for rep in reps]


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
    with pytest.raises(ValueError, match="outcome layout does not match this design"):
        decode_noisy(design_a, out)
    with pytest.raises(ValueError, match="does not match the design's"):
        noisy.decode_noisy_batch(design_a, out.bits.reshape(1, -1))


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
    hash_mode=st.sampled_from(ACCEPTED["noisy"]),
    p=st.sampled_from([0.0, 0.05, 0.3]),
    seed=st.integers(min_value=0, max_value=2 ** 32),
)
def test_decode_matches_depth_first_reference(log_n, log_k, n_reps, r, hash_mode, p, seed):
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
                          NoiseChannel(p), RandomnessKey(seed, ("noise",)))
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


def _batch(params, n, k, root, hash_mode, channels, truths):
    """The design built from the key material of trials 0 .. B - 1 of
    ``root``, and the (B x T) grid of trial b with defectives ``truths[b]``
    at flip probability ``channels[b].p``; with every trial's own design
    and outcome vector, each checked to equal its row of the grid."""
    size = len(truths)
    design = build_noisy_design(params, n, k, root.materials(range(size), "design"), hash_mode)
    noise = root.materials(range(size), "noise")
    grids = {channel: evaluate_batch(design, truths, channel, noise) for channel in set(channels)}
    grid = np.array([grids[channel][b] for b, channel in enumerate(channels)], dtype=np.uint8)
    assert grid.shape == (size, design.t_total)
    own = []
    for b, (channel, truth) in enumerate(zip(channels, truths)):
        trial_design = build_noisy_design(params, n, k, root.child(b, "design"), hash_mode)
        out = evaluate_design(trial_design, ProblemInstance(n=n, k=k, defectives=truth),
                              channel, root.child(b, "noise"))
        assert np.array_equal(grid[b], out.bits)
        own.append((trial_design, out))
    return design, grid, own


def _truth(n, seed, count):
    rng = np.random.default_rng(seed)
    return tuple(int(d) for d in rng.choice(n, size=count, replace=False))


@pytest.mark.parametrize("hash_mode", NAMES)
@pytest.mark.parametrize("size", [1, 2, 5, 12])
@pytest.mark.parametrize("p_even,p_odd", [(p_even, p_odd) for p_even in (0.0, 0.05, 0.3)
                                           for p_odd in (0.0, 0.05, 0.3)])
def test_batch_decode_matches_separate_decodes(hash_mode, size, p_even, p_odd):
    """Decoding a batch design's grid gives each trial exactly its own
    decode: the same estimate and the same counters.  The batch mixes
    trials with no defectives (whose frontier empties at the first level
    when the channel is quiet) with trials of up to k defectives, and
    trials at two flip probabilities: p_even for even-indexed trials, p_odd
    for odd.  A batch of one is a design whose keys have a trial axis of
    length one.  A hash mode noisy does not take builds no batch design.
    """
    n, k = 2 ** 8, 4
    params = noisy_params(n, k, 0.05, n_reps=3)
    # p_odd also picks the seeds, so that batches of one differ across it
    seed = 100_000 * round(100 * p_odd) + 1000 * size
    keys = RandomnessKey(seed).materials(range(size), "design")
    if refused("noisy", hash_mode, lambda: build_noisy_design(params, n, k, keys, hash_mode)):
        return
    channels = [NoiseChannel((p_even, p_odd)[b % 2]) for b in range(size)]
    truths = [_truth(n, seed + b, b % (k + 1)) for b in range(size)]
    design, grid, own = _batch(params, n, k, RandomnessKey(seed), hash_mode, channels, truths)
    assert design.trials == size
    batched = batch_reports(noisy.decode_noisy_batch(design, grid))
    assert len(batched) == size
    for (trial_design, out), report in zip(own, batched):
        estimate, alone = decode_noisy(trial_design, out)
        reference = decode_noisy_scalar(trial_design, out)
        assert report.estimate == estimate == reference.estimate
        assert report.nodes_visited == reference.nodes_visited
        assert all(isinstance(item, int) for item in report.estimate)
        for name in ("outcomes_read", "nodes_visited", "labels_computed", "peak_frontier"):
            assert getattr(report, name) == getattr(alone, name), name
            assert isinstance(getattr(report, name), int), name


@pytest.mark.parametrize("hash_mode", [name for name in NAMES if name != "full"])
def test_batch_decode_matches_separate_decodes_past_2_32_nodes(hash_mode):
    """Per-trial polynomial coefficients through the M61 fold that a level
    past 2^31 - 1 nodes takes, in every low-storage mode noisy takes."""
    n, k = 2 ** 40, 2
    params = noisy_params(n, k, 0.05, n_reps=3, r=2)
    keys = RandomnessKey(2).materials(range(3), "design")
    if refused("noisy", hash_mode, lambda: build_noisy_design(params, n, k, keys, hash_mode)):
        return
    channels = [NoiseChannel.symmetric(0.05)] * 3
    truths = [_truth(n, seed, seed % (k + 1)) for seed in range(3)]
    design, grid, own = _batch(params, n, k, RandomnessKey(2), hash_mode, channels, truths)
    batched = batch_reports(noisy.decode_noisy_batch(design, grid))
    assert batched == [decode_noisy(d, out)[1] for d, out in own]


@pytest.mark.parametrize("hash_mode", ACCEPTED["noisy"])
@pytest.mark.parametrize("n_reps", [255, 257])
def test_vote_counts_past_a_byte(hash_mode, n_reps):
    """N = 255 votes are the most a byte counts and N = 257 need two: a
    batch of three trials and each trial's batch of one both return the
    depth-first reference's estimate and nodes visited, at three noise
    levels."""
    n, k = 2 ** 6, 2
    params = noisy_params(n, k, 0.05, n_reps=n_reps)
    assert params.n_reps == n_reps
    channels = [NoiseChannel(p) for p in (0.0, 0.05, 0.3)]
    truths = [_truth(n, 20 + b, count) for b, count in enumerate((2, 1, 2))]
    design, grid, own = _batch(params, n, k, RandomnessKey(n_reps), hash_mode, channels, truths)
    batched = batch_reports(noisy.decode_noisy_batch(design, grid))
    for (trial_design, out), report in zip(own, batched):
        estimate, alone = decode_noisy(trial_design, out)
        reference = decode_noisy_scalar(trial_design, out)
        assert report.estimate == estimate == reference.estimate
        assert report.nodes_visited == alone.nodes_visited == reference.nodes_visited
    # the quiet trial's defectives win all N votes of every test they are in
    assert batched[0].estimate == tuple(sorted(truths[0]))


def test_batch_decode_frontier_empties_in_some_trials_only():
    """A trial whose frontier empties at the first level sits in a batch
    whose other trials descend to the singletons; each keeps its own
    counters."""
    n, k = 2 ** 10, 4
    params = noisy_params(n, k, 0.05)
    channels = [NoiseChannel.noiseless()] * 4
    truths = [_truth(n, seed, count) for seed, count in ((1, 0), (2, 4), (3, 0), (4, 2))]
    design, grid, own = _batch(params, n, k, RandomnessKey(3), "full", channels, truths)
    batched = batch_reports(noisy.decode_noisy_batch(design, grid))
    assert batched == [decode_noisy(d, out)[1] for d, out in own]
    empty, full = batched[0], batched[1]
    assert empty.estimate == () and empty.nodes_visited == k
    assert len(full.estimate) == 4 and full.nodes_visited > empty.nodes_visited


def test_batch_decode_checks_grid_width():
    """A grid row holds the design's T outcomes, or the grid is rejected;
    a grid of no rows decodes to no reports, in every algorithm's
    ``decode_grid`` on a design of no trials as well."""
    n, k = 2 ** 8, 2
    keys = RandomnessKey(1).materials(range(2), "design")
    design = build_noisy_design(noisy_params(n, k, 0.05), n, k, keys)
    other = build_noisy_design(noisy_params(n, k, 0.05, n_reps=5), n, k, keys)
    assert other.t_total != design.t_total
    grid = evaluate_batch(other, [(1,), (2,)], NoiseChannel.noiseless(), None)
    with pytest.raises(ValueError, match="does not match the design's"):
        noisy.decode_noisy_batch(design, grid)
    assert batch_reports(noisy.decode_noisy_batch(design, np.zeros((0, design.t_total),
                                                                  np.uint8))) == []
    for algorithm, fields in (("gamma", dict(gamma=5)), ("rho", dict(rho=16)),
                              ("noisy", dict(p=0.05)), ("comp", {}), ("ncomp", dict(p=0.05))):
        config = bench.TrialConfig(algorithm=algorithm, n=n, k=k, **fields)
        scheme = bench.SCHEMES[algorithm]
        empty = scheme.build(config, scheme.params(config, n, k), n, k,
                             RandomnessKey(1).materials(range(0), "design"))
        assert empty.trials == 0
        report = scheme.decode_grid(config, empty, np.zeros((0, empty.t_total), np.uint8))
        assert report.bounds.tolist() == [0] and batch_reports(report) == []
        for column in (report.estimate, report.outcomes_read, report.nodes_visited,
                       report.peak_frontier, report.labels_computed):
            assert column.shape == (0,)
