import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hash_modes import ACCEPTED, EVERY_PAIR, TREE_DESIGNS, refused
from scalar_reference import (
    batch_reports,
    decode_gamma_scalar,
    decode_rho_scalar,
    noiseless_bits_per_test,
    scalar_test,
)
from splitgt import bench, core, noisy, tree
from splitgt.core import NoiseChannel, ProblemInstance, RandomnessKey, evaluate_design
from splitgt.gamma import build_gamma_design, decode_gamma, gamma_params
from splitgt.noisy import build_noisy_design, noisy_params
from splitgt.rho import build_rho_design, decode_rho, rho_params


def _design(scheme, n, k, budget, depth, reps, final_reps, hash_mode, key):
    if scheme == "gamma":
        try:
            params = gamma_params(n, k, budget)
        except ValueError:  # level-1 nodes larger than n
            assume(False)
        return build_gamma_design(params, n, key, hash_mode)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = rho_params(n, k, 1 << min(budget, n.bit_length() - 1), c_depth=depth,
                            n_reps=reps, c_final=final_reps)
    return build_rho_design(params, n, key, hash_mode)


@settings(max_examples=80, deadline=None)
@given(
    scheme_mode=st.sampled_from([pair for pair in TREE_DESIGNS if pair[0] != "noisy"]),
    log_n=st.integers(min_value=4, max_value=14),
    log_k=st.integers(min_value=0, max_value=3),
    budget=st.integers(min_value=1, max_value=8),
    depth=st.integers(min_value=1, max_value=3),
    reps=st.integers(min_value=1, max_value=3),
    final_reps=st.integers(min_value=1, max_value=3),
    p=st.sampled_from([0.0, 0.05, 0.1, 0.3]),
    seed=st.integers(min_value=0, max_value=2 ** 32),
)
# rho on keyed permutations in every mode: levels below and above 2^6 nodes
# (24 and 6 Feistel rounds), odd and even bit widths, a cap of 1 and of n
@example(scheme_mode=("rho", "full"), log_n=5, log_k=1, budget=2, depth=2, reps=3,
         final_reps=3, p=0.05, seed=1)
@example(scheme_mode=("rho", "permutation"), log_n=13, log_k=3, budget=6, depth=2, reps=3,
         final_reps=2, p=0.0, seed=2)
@example(scheme_mode=("rho", "permutation"), log_n=14, log_k=2, budget=6, depth=3, reps=2,
         final_reps=3, p=0.3, seed=3)
@example(scheme_mode=("rho", "permutation"), log_n=11, log_k=2, budget=8, depth=1, reps=1,
         final_reps=1, p=0.1, seed=4)
@example(scheme_mode=("rho", "full"), log_n=4, log_k=0, budget=4, depth=2, reps=1,
         final_reps=2, p=0.3, seed=5)
def test_decode_tree_matches_scalar_reference(scheme_mode, log_n, log_k, budget, depth, reps,
                                              final_reps, p, seed):
    """Same estimate, read count, visit count and peak frontier as the
    node-by-node decoder, with every frontier looked up repetition by
    repetition and with every one looked up under all repetitions at once;
    channel noise puts false positives on the frontier."""
    (scheme, hash_mode), n, k = scheme_mode, 1 << log_n, 1 << min(log_k, log_n - 2)
    if scheme == "gamma":
        budget += 2
    design = _design(scheme, n, k, budget, depth, reps, final_reps, hash_mode,
                     RandomnessKey(seed, ("design",)))
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, k + 1))
    defectives = tuple(int(d) for d in rng.choice(n, size=count, replace=False))
    outcomes = evaluate_design(design, ProblemInstance(n=n, k=k, defectives=defectives),
                               NoiseChannel(p), RandomnessKey(seed, ("noise",)))
    decode, reference = ((decode_gamma, decode_gamma_scalar) if scheme == "gamma"
                         else (decode_rho, decode_rho_scalar))
    expected = reference(design, outcomes)
    for batch_nodes in (0, 10 ** 9):  # every level rep by rep, then all reps at once
        with mock.patch.object(tree, "BATCH_NODES", batch_nodes):
            estimate, report = decode(design, outcomes)
        assert report == expected
        assert estimate == report.estimate
        assert all(isinstance(item, int) for item in estimate)


def _lookup_design(scheme, hash_mode, key):
    n, k = 2 ** 8, 4
    if scheme == "gamma":
        return build_gamma_design(gamma_params(n, k, 5), n, key, hash_mode)
    if scheme == "rho":
        return build_rho_design(rho_params(n, k, 2 ** 4, c_depth=2, n_reps=3, c_final=2),
                                n, key, hash_mode)
    return build_noisy_design(noisy_params(n, k, 0.05), n, k, key, hash_mode)


LOOKUP_SETS = {"empty": (), "one": (37,), "k": (3, 90, 151, 200),
               "last node": tuple(range(2 ** 8 - 4, 2 ** 8))}


@pytest.mark.parametrize("scheme,hash_mode", EVERY_PAIR)
@pytest.mark.parametrize("which", list(LOOKUP_SETS))
def test_noiseless_bits_lookups_agree(scheme, hash_mode, which):
    """``noiseless_grid`` gives the bits of evaluating the design one test
    at a time, for a design of one trial's key and for every row of a design
    built from several trials' key material, each row under its own trial's
    keys, in every hash mode the scheme takes; it builds no design in any
    other."""
    n, k, root = 2 ** 8, 4, RandomnessKey(17)
    if refused(scheme, hash_mode,
               lambda: _lookup_design(scheme, hash_mode, root.child(0, "design"))):
        return
    # trial 0 holds ``which``, the later trials every other set
    truths = [LOOKUP_SETS[which], *(s for name, s in LOOKUP_SETS.items() if name != which)]
    own = [_lookup_design(scheme, hash_mode, root.child(b, "design")) for b in range(len(truths))]
    expected = np.array([noiseless_bits_per_test(design, ProblemInstance(n=n, k=k, defectives=d))
                         for design, d in zip(own, truths)])
    assert expected.shape == (len(truths), own[0].t_total)
    assert expected[0].any() == bool(truths[0])
    grid = own[0].noiseless_grid(truths[:1])
    assert own[0].trials is None and grid.dtype == np.uint8
    assert np.array_equal(grid, expected[:1])
    batch = _lookup_design(scheme, hash_mode, root.materials(range(len(truths)), "design"))
    assert batch.trials == len(truths)
    assert np.array_equal(batch.noiseless_grid(truths), expected)


@pytest.mark.parametrize("scheme,hash_mode", EVERY_PAIR)
def test_tree_designs_construct_no_generator(monkeypatch, scheme, hash_mode):
    """Every tree design, in every hash mode it accepts, takes its keys from
    the design key's row keys: building it and looking its tests up never
    constructs a Generator.  A mode the scheme does not take builds
    nothing."""

    def no_generator(self):
        raise AssertionError("a tree design constructed a Generator")

    monkeypatch.setattr(core.RandomnessKey, "generator", no_generator)
    config = bench.TrialConfig(algorithm=scheme, n=2 ** 12, k=8, gamma=6, rho=2 ** 6, p=0.05,
                               hash_mode=hash_mode, trials=1)
    n, k, _ = bench._rounded(config)
    phases = bench.SCHEMES[scheme]

    def build():
        return phases.build(config, phases.params(config, n, k), n, k,
                            RandomnessKey(5, (0, "design")))

    if refused(scheme, hash_mode, build):
        return
    design = build()
    assert design.noiseless_grid([(3, 900, 4095)]).any()


BATCH_DESIGNS = [(scheme, hash_mode) for scheme, hash_mode in TREE_DESIGNS if scheme != "noisy"]


def _batch_params(scheme, n, k):
    if scheme == "gamma":
        return gamma_params(n, k, 5)
    return rho_params(n, k, 2 ** 4, c_depth=2, n_reps=3, c_final=2)


@pytest.mark.parametrize("scheme,hash_mode", BATCH_DESIGNS)
@pytest.mark.parametrize("count", [1, 2, 5, 12])
@pytest.mark.parametrize("p", [0.0, 0.05])
def test_batch_matches_each_trial(scheme, hash_mode, count, p):
    """A design built from a batch's key material, evaluated into one grid
    and decoded in one descent, gives each trial its own outcome vector and
    its own report.  Every third trial has no defectives, so without noise
    its frontier empties at the top level while the others' go on; the
    descent looks levels up stacked and repetition by repetition."""
    n, k, seed = 2 ** 10, 4, 29 + count
    params = _batch_params(scheme, n, k)
    build = build_gamma_design if scheme == "gamma" else build_rho_design
    root, channel = RandomnessKey(seed), NoiseChannel(p)
    rng = np.random.default_rng(seed)
    truths = [() if b % 3 == 2 else tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
              for b in range(count)]
    # a batch of one is one trial's design, as the harness builds it
    keys = root.child(0, "design") if count == 1 else root.materials(range(count), "design")
    design = build(params, n, keys, hash_mode)
    grid = core.evaluate_batch(design, truths, channel, root.materials(range(count), "noise"))
    assert grid.shape == (count, design.t_total) and grid.dtype == np.uint8
    own = []
    for b, truth in enumerate(truths):
        trial_design = build(params, n, root.child(b, "design"), hash_mode)
        assert trial_design.storage_words == design.storage_words
        outcomes = evaluate_design(trial_design, ProblemInstance(n=n, k=k, defectives=truth),
                                   channel, root.child(b, "noise"))
        assert np.array_equal(grid[b], outcomes.bits)
        own.append((trial_design, outcomes))
    for batch_nodes in (0, 10 ** 9):
        with mock.patch.object(tree, "BATCH_NODES", batch_nodes):
            reports = batch_reports(tree.decode_tree_batch(design, grid))
            expected = [tree.decode_tree(d, o)[1] for d, o in own]
        assert reports == expected


@pytest.mark.parametrize("scheme,hash_mode", BATCH_DESIGNS)
def test_one_row_key_matrix_design(scheme, hash_mode):
    """A design built from one trial's key material as a batch, its keys
    with a trial axis of length one, evaluates and decodes that trial as
    the trial's own design does (a gamma n=2^10 k=4 gamma=5 design is the
    case that failed when the path was chosen by the row count)."""
    n, k = 2 ** 10, 4
    params = _batch_params(scheme, n, k)
    build = build_gamma_design if scheme == "gamma" else build_rho_design
    root, channel, truth = RandomnessKey(17), NoiseChannel(0.05), (3, 200, 600, 1000)
    design = build(params, n, root.materials(range(1), "design"), hash_mode)
    assert design.trials == 1
    grid = core.evaluate_batch(design, [truth], channel, root.materials(range(1), "noise"))
    own = build(params, n, root.child(0, "design"), hash_mode)
    assert own.trials is None
    outcomes = evaluate_design(own, ProblemInstance(n=n, k=k, defectives=truth), channel,
                               root.child(0, "noise"))
    assert np.array_equal(grid[0], outcomes.bits)
    for batch_nodes in (0, 10 ** 9):
        with mock.patch.object(tree, "BATCH_NODES", batch_nodes):
            assert batch_reports(tree.decode_tree_batch(design, grid)) == [
                tree.decode_tree(own, outcomes)[1]]


@pytest.mark.parametrize("scheme,hash_mode", BATCH_DESIGNS)
def test_batch_frontiers_empty_at_different_levels(scheme, hash_mode):
    """Noise-free trials whose frontiers die at the top level, at a later
    level (a flipped positive with no defective below it) or never, all in
    one batch: each report equals the trial's own decode."""
    n, k, count = 2 ** 10, 4, 6
    params = _batch_params(scheme, n, k)
    build = build_gamma_design if scheme == "gamma" else build_rho_design
    root = RandomnessKey(5)
    design = build(params, n, root.materials(range(count), "design"), hash_mode)
    truths = [(), (1, 500), (), (7,), (), (3, 200, 600, 1000)]
    grid = core.evaluate_batch(design, truths, NoiseChannel(), None)
    top = design.stacks[next(iter(design.stacks))].t_len
    grid[2, top // 2] = 1  # a false top-level positive, pruned further down
    own = []
    for b, truth in enumerate(truths):
        trial_design = build(params, n, root.child(b, "design"), hash_mode)
        own.append((trial_design, core.OutcomeVector(grid[b].copy(), trial_design.layout)))
    reports = batch_reports(tree.decode_tree_batch(design, grid))
    assert reports == [tree.decode_tree(d, o)[1] for d, o in own]
    assert [set(r.estimate) for r in reports] == [set(t) for t in truths]
    assert reports[2].nodes_visited > reports[0].nodes_visited


@pytest.mark.parametrize("algorithm,fields", [("gamma", dict(gamma=5)), ("rho", dict(rho=16)),
                                              ("noisy", dict(p=0.05)), ("comp", dict()),
                                              ("ncomp", dict(p=0.05))])
@pytest.mark.parametrize("extra", [-1, 1])
def test_batch_decoders_reject_a_grid_of_the_wrong_width(algorithm, fields, extra):
    """``decode_tree_batch`` and ``decode_noisy_batch`` refuse a grid one
    column short or one column long of the design's T, where a row laid
    flat would otherwise read the next row's first cells."""
    config = bench.TrialConfig(algorithm=algorithm, n=2 ** 10, k=4, **fields)
    n, k, _ = bench._rounded(config)
    scheme = bench.SCHEMES[algorithm]
    design = scheme.build(config, scheme.params(config, n, k), n, k,
                          RandomnessKey(3).materials(range(2), "design"))
    grid = np.ones((2, design.t_total + extra), dtype=np.uint8)
    with pytest.raises(ValueError, match=f"^a grid of {design.t_total + extra} outcomes"):
        scheme.decode_grid(config, design, grid)


def test_a_design_of_one_trials_keys_decodes_one_row():
    """A design without a trial axis refuses a grid of two rows, whose
    second row it has no keys for, in every decoder and in its evaluation;
    a design of two trials' keys refuses three rows and takes one."""
    n, key = 2 ** 10, RandomnessKey(2)
    for design, decode in (
            (build_gamma_design(gamma_params(n, 4, 5), n, key), tree.decode_tree_batch),
            (build_rho_design(rho_params(n, 4, 16), n, key), tree.decode_tree_batch),
            (build_noisy_design(noisy_params(n, 4, 0.05), n, 4, key), noisy.decode_noisy_batch),
            (bench.SCHEMES["comp"].build(bench.TrialConfig(algorithm="comp", n=64, k=2),
                                         100, 64, 2, key), tree.decode_tree_batch)):
        grid = np.ones((2, design.t_total), dtype=np.uint8)
        with pytest.raises(ValueError, match="one grid row, not 2"):
            decode(design, grid)
        with pytest.raises(ValueError, match="one grid row, not 2"):
            design.noiseless_grid([(1,), (2,)])
    materials = key.materials(range(2), "design")
    for design, decode in (
            (build_gamma_design(gamma_params(n, 4, 5), n, materials), tree.decode_tree_batch),
            (build_rho_design(rho_params(n, 4, 16), n, materials), tree.decode_tree_batch),
            (build_noisy_design(noisy_params(n, 4, 0.05), n, 4, materials),
             noisy.decode_noisy_batch)):
        assert design.trials == 2
        with pytest.raises(ValueError, match="^3 grid rows exceed a design of 2 trials' keys"):
            design.noiseless_grid([(1,), (2,), (3,)])
        with pytest.raises(ValueError, match="^3 grid rows exceed a design of 2 trials' keys"):
            decode(design, np.ones((3, design.t_total), dtype=np.uint8))
        grid = design.noiseless_grid([(1,)])
        report = decode(design, grid).report(0)
        assert report == decode(design, np.vstack([grid, grid])).report(0)


FIELDS = {"gamma": dict(gamma=5), "rho": dict(rho=16), "noisy": dict(p=0.05), "comp": dict(),
          "ncomp": dict(p=0.05)}


@pytest.mark.parametrize("algorithm,hash_mode", [(algorithm, name) for algorithm in FIELDS
                                                 for name in ACCEPTED[algorithm]])
def test_every_cell_address_is_the_layout_order(algorithm, hash_mode):
    """The start a design states for each (level, rep) is the running sum of
    its ``layout``'s segments, which is ``OutcomeVector``'s order;
    ``noiseless_grid`` writes a defective's tests there and ``Reads`` reads
    them there, as a row of tests or as a block of rows from any repetition."""
    config = bench.TrialConfig(algorithm=algorithm, n=2 ** 10, k=4, hash_mode=hash_mode,
                               **FIELDS[algorithm])
    n, k, _ = bench._rounded(config)
    scheme = bench.SCHEMES[algorithm]
    design = scheme.build(config, scheme.params(config, n, k), n, k, RandomnessKey(4))
    order = core.OutcomeVector(np.arange(design.t_total), design.layout)
    item, start, expected = 300, 0, np.zeros(design.t_total, dtype=np.uint8)
    grid = np.zeros((1, design.t_total), np.uint8)
    rows, blocks = tree.Reads(design, grid), tree.Reads(design, grid)
    for level, rep, t_len in design.layout:
        assert design.starts[level].item(rep) == start == order.segment(level, rep)[0]
        node = item // design.node_size(level)
        test = scalar_test(design.stacks[level], node, rep)
        expected[start + test] = 1
        rows.reads(level, rep, np.array([test]), None)
        blocks.reads(level, rep, design.stacks[level].tests_of(np.array([node]),
                                                               slice(rep, rep + 1)), None)
        start += t_len
    assert start == design.t_total
    assert [len(column) for column in design.starts.values()] == [
        stack.reps for stack in design.stacks.values()]
    assert np.array_equal(design.noiseless_grid([(item,)])[0], expected)
    assert np.array_equal(rows.seen[0], expected.view(bool))
    assert np.array_equal(blocks.seen[0], expected.view(bool))
