"""Scalar reference implementations that the array-native fast paths are
tested against: the node-by-node gamma and rho decoders and the depth-first
noisy lookahead decoder, one ``OutcomeVector.get`` and one
:func:`scalar_test` at a time (a whole segment's tests from
:func:`segment_table`); the scalar lookup of every stack, computed from the
stack's own keys by the references below and sharing no code with
``splitgt.placements``; the incidence-matrix design (its evaluation, and
COMP, NCOMP and the oracles' bitmasks over tuples of member sets), the
baselines' previous design and scheme (a per-item constant-weight draw or
a two-dimensional Floyd scatter over a Philox generator, decoded by the
set-based COMP and NCOMP), a hand-placed one-level design and the
one-test outcome; the per-segment flattening of a tree design and its
one-test-at-a-time noiseless outcome vector; a prime search, for the
polynomial hashes' previous field rule; Horner's rule, the counter hash,
the defective draw and the channel flip in pure-Python integers; the
keyed-permutation row on bit strings; the explicit i.i.d. table the counter
hash replaced; the Philox defective draw and channel noise that the
counter stream replaced; and the rows of a batch decode's columns, one
report per trial."""

from __future__ import annotations

import math

import numpy as np

from splitgt import baselines, bench
from splitgt.baselines import FlatDesign
from splitgt.core import BatchReport, DecodeReport, NoiseChannel, RandomnessKey
from splitgt.placements import (
    CounterHashStack,
    IdentityStack,
    Level,
    PermutationStack,
    PolynomialStack,
    level_stacks,
)
from splitgt.tree import TreeDesign


def segment_table(design, level: int, rep: int) -> np.ndarray:
    """The test of every node of ``level`` under repetition ``rep``, one
    :func:`scalar_test` of the level's stack at a time (small levels only)."""
    stack = design.stacks[level]
    return np.array([scalar_test(stack, node, rep) for node in range(stack.num_nodes)],
                    dtype=np.int64)


def _report(estimate, seen, visited, pd_peak):
    return DecodeReport(
        estimate=tuple(sorted(estimate)),
        outcomes_read=len(seen),
        nodes_visited=visited,
        peak_frontier=pd_peak,
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
    for node in range(design.stacks[1].num_nodes):
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
            test = scalar_test(design.stacks[level], node, 0)
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
            test = scalar_test(design.stacks[gp], item, rep)
            seen.add((gp, rep, test))
            if not outcomes.get(gp, rep, test):
                clean = False
                break
        if clean:
            estimate.append(item)
    return _report(estimate, seen, visited, pd_peak)


def decode_rho_scalar(design, outcomes) -> DecodeReport:
    """Constant-depth descent: a mid-level node survives only if all N of its
    tests are positive; a singleton makes the estimate if none of its final
    tests is negative."""
    params = design.params
    branch = params.branch
    seen = set()
    visited = 0

    survivors = []
    for node in range(design.stacks[0].num_nodes):
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
                test = scalar_test(design.stacks[level], node, rep)
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
            test = scalar_test(design.stacks[params.c_depth], item, rep)
            seen.add((params.c_depth, rep, test))
            if not outcomes.get(params.c_depth, rep, test):
                clean = False
                break
        if clean:
            estimate.append(item)
    return _report(estimate, seen, visited, pd_peak)


# --- noisy scheme: depth-first lookahead with a label memo -----------------


def _log2n(design) -> int:
    """The singleton level: the noisy tree's last."""
    return design.layout[-1][0]


class LabelCache:
    """Memo of intermediate labels, shared across overlapping lookahead
    windows within one decode.  Also carries the decode's read counters;
    ``outcomes_read`` counts distinct outcome cells observed, so it never
    exceeds the number of tests."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.mid: dict[tuple[int, int], int] = {}
        self.batch: dict[tuple[int, int], int] = {}
        self.lookups = 0
        self.computed = 0
        self.seen: set[tuple[int, int, int]] = set()

    @property
    def outcomes_read(self) -> int:
        return len(self.seen)


def intermediate_label(node, level, design, outcomes, cache) -> int:
    """Majority vote over the node's N tests at a non-final level."""
    cache.lookups += 1
    key = (level, node)
    if cache.enabled and key in cache.mid:
        return cache.mid[key]
    reps = design.params.n_reps
    positives = 0
    for rep in range(reps):
        test = scalar_test(design.stacks[level], node, rep)
        cache.seen.add((level, rep, test))
        positives += outcomes.get(level, rep, test)
    label = 1 if 2 * positives > reps else 0
    cache.computed += 1
    if cache.enabled:
        cache.mid[key] = label
    return label


def final_level_batch_label(item, batch, design, outcomes, cache) -> int:
    """Majority vote over batch ``batch`` of the singleton's final-level
    sequences (sequences batch*N .. batch*N + N - 1)."""
    cache.lookups += 1
    key = (item, batch)
    if cache.enabled and key in cache.batch:
        return cache.batch[key]
    reps = design.params.n_reps
    level = _log2n(design)
    positives = 0
    for j in range(reps):
        seq = batch * reps + j
        test = scalar_test(design.stacks[level], item, seq)
        cache.seen.add((level, seq, test))
        positives += outcomes.get(level, seq, test)
    label = 1 if 2 * positives > reps else 0
    cache.computed += 1
    if cache.enabled:
        cache.batch[key] = label
    return label


def _lookahead(design, outcomes, cache, target, lvl, nd, batch, depth, positives) -> bool:
    """One step of :func:`final_label`'s path search."""
    bottom, r = _log2n(design), design.params.r
    if lvl < bottom:
        positives += intermediate_label(nd, lvl, design, outcomes, cache)
    else:
        positives += final_level_batch_label(nd, batch, design, outcomes, cache)
    if positives >= target:
        return True
    if depth == r or positives + (r - depth) < target:
        return False
    if lvl < bottom:
        return (_lookahead(design, outcomes, cache, target,
                           lvl + 1, 2 * nd, 0, depth + 1, positives)
                or _lookahead(design, outcomes, cache, target,
                              lvl + 1, 2 * nd + 1, 0, depth + 1, positives))
    return _lookahead(design, outcomes, cache, target, lvl, nd, batch + 1, depth + 1, positives)


def final_label(node, level, design, outcomes, cache) -> int:
    """Lookahead decision for a node above the final level.

    Depth-first search over the length-r descendant paths, pruned as soon as
    the positives seen so far cannot exceed r/2 and accepted as soon as they
    do.  Steps past the final level stay on the singleton reached and consume
    its batches in order, one per padding depth.
    """
    if level >= _log2n(design):
        raise ValueError("final_label applies above the final level")
    target = design.params.r // 2 + 1
    found = (_lookahead(design, outcomes, cache, target, level + 1, 2 * node, 0, 1, 0)
             or _lookahead(design, outcomes, cache, target, level + 1, 2 * node + 1, 0, 1, 0))
    return 1 if found else 0


def singleton_final_label(item, design, outcomes, cache) -> int:
    """Final-level acceptance: majority over all C' * log2 n batch labels."""
    total = design.params.c_final * _log2n(design)
    positives = sum(
        final_level_batch_label(item, batch, design, outcomes, cache)
        for batch in range(total)
    )
    return 1 if 2 * positives > total else 0


def decode_noisy_scalar(design, outcomes, use_cache: bool = True) -> DecodeReport:
    """The noisy decoder node by node: a node's children join the
    possibly-defective set iff its lookahead label is positive."""
    if tuple(outcomes.layout) != tuple(design.layout):
        raise ValueError("outcome layout does not match this design")
    cache = LabelCache(enabled=use_cache)
    visited = 0
    log2k = design.layout[0][0]
    pd = list(range(1 << log2k))
    pd_peak = len(pd)

    for level in range(log2k, _log2n(design)):
        nxt = []
        for node in pd:
            visited += 1
            if final_label(node, level, design, outcomes, cache):
                nxt.append(2 * node)
                nxt.append(2 * node + 1)
        pd = nxt
        pd_peak = max(pd_peak, len(pd))

    estimate = []
    for item in pd:
        visited += 1
        if singleton_final_label(item, design, outcomes, cache):
            estimate.append(item)
    return DecodeReport(
        estimate=tuple(sorted(estimate)),
        outcomes_read=cache.outcomes_read,
        nodes_visited=visited,
        peak_frontier=pd_peak,
        labels_computed=cache.computed,
    )


# --- flat designs as member sets -------------------------------------------


class IncidenceDesign(FlatDesign):
    """An incidence matrix that answers the design protocol of
    :mod:`splitgt.core` as one segment of T tests: the form the baselines'
    design had before it became a one-level tree design."""

    @property
    def layout(self):
        return ((0, 0, self.t_total),)

    @property
    def storage_words(self) -> int:
        return int(np.count_nonzero(self.members))

    def noiseless_grid(self, defectives, reuse: bool = False) -> np.ndarray:
        """Row b: which tests pool one of ``defectives[b]``, as uint8, in a
        fresh array whether or not the caller would let it ``reuse`` one."""
        grid = np.zeros((len(defectives), self.t_total), dtype=np.uint8)
        for row, trial in zip(grid, defectives):
            row[self.members[:, np.asarray(trial, dtype=np.intp)].any(axis=1)] = 1
        return grid


def flat_design(n: int, tests) -> IncidenceDesign:
    """The incidence-matrix design of ``n`` items whose test t pools the
    items ``tests[t]``."""
    members = np.zeros((len(tests), n), dtype=bool)
    for t, test in enumerate(tests):
        members[t, list(test)] = True
    return IncidenceDesign(members)


def member_sets(design: FlatDesign) -> list[frozenset]:
    """The items of every test of an incidence matrix, as sets."""
    return [frozenset(np.flatnonzero(row).tolist()) for row in design.members]


def build_flat_design_per_item(n: int, tests_count: int, weight: int, rng) -> IncidenceDesign:
    """Constant column weight, one ``rng.choice`` of ``weight`` distinct
    tests per item, item by item: the draw Floyd's vectorised algorithm
    replaced."""
    members = np.zeros((tests_count, n), dtype=bool)
    for item in range(n):
        members[rng.choice(tests_count, size=weight, replace=False), item] = True
    return IncidenceDesign(members)


def build_flat_design_2d(n: int, tests_count: int, weight: int, rng) -> IncidenceDesign:
    """Constant column weight by Floyd's algorithm, one step for all items
    at once: every item's ``weight`` tests a uniform subset of the T tests,
    independently per item.  With the design key's Philox generator, the
    baselines' previous design."""
    members = np.zeros((tests_count, n), dtype=bool)
    items = np.arange(n)
    for j in range(tests_count - weight, tests_count):
        pick = rng.integers(0, j + 1, size=n)
        members[np.where(members[pick, items], j, pick), items] = True
    return IncidenceDesign(members)


def previous_flat_scheme(algorithm: str) -> bench.Scheme:
    """``bench.SCHEMES[algorithm]`` for comp or ncomp as it was before the
    baselines became one-level tree designs: a trial's design is the T x n
    matrix that :func:`build_flat_design_2d` draws from its design key's
    generator, at the column weight of ``baselines.flat_shape``; its decode
    is :func:`decode_comp_scalar` or :func:`decode_ncomp_scalar`, reading
    all T outcomes and holding no frontier.  A batch is one trial, which a
    caller sets by patching ``bench.BATCH_BYTES`` to 1."""

    def build(config, tests, n, k, key):
        weight, _ = baselines.flat_shape(tests, k)
        return build_flat_design_2d(n, tests, weight, key.generator())

    def decode(config, design, outcomes):
        sets, bits = member_sets(design), outcomes.bits.tolist()
        estimate = (decode_comp_scalar(design.n, sets, bits) if config.algorithm == "comp"
                    else decode_ncomp_scalar(design.n, sets, bits, config.threshold))
        return DecodeReport(estimate=estimate, outcomes_read=design.t_total,
                            nodes_visited=design.n, peak_frontier=0)

    return bench.SCHEMES[algorithm]._replace(build=build, decode=decode)


class TableStack:
    """Hand-placed repetitions of one level: repetition r puts node j into
    test ``table[r][j]`` of ``t_len``, with the stack protocol of
    :class:`splitgt.placements.CounterHashStack` for one trial."""

    def __init__(self, t_len: int, table):
        self.table = np.asarray(table, dtype=np.int64).reshape(-1, np.shape(table)[-1])
        self.reps, self.num_nodes = self.table.shape
        self.t_len = t_len
        self.storage_cost = self.table.size
        self.trials = None

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None),
                 trials: np.ndarray | None = None) -> np.ndarray:
        return self.table[reps][:, nodes]


def table_design(t_len: int, table) -> TreeDesign:
    """The one-level design whose repetition r puts item i into test
    ``table[r][i]`` of its own ``t_len`` tests: a hand-placed baseline
    design."""
    stack = TableStack(t_len, table)
    return TreeDesign(stack.num_nodes, None, [(0, stack)])


def compute_outcome(members, instance, channel, key, cell: int = 0) -> int:
    """Outcome of a single test, the ``cell``-th of its evaluation: OR of
    defectivity over the pooled members, then flipped iff output ``cell`` of
    ``key``'s counter stream is below floor(p * 2^64)."""
    defective = set(instance.defectives)
    base = 0
    for m in members:
        m = int(m)
        if not 0 <= m < instance.n:
            raise ValueError(f"member id {m} outside [0, {instance.n})")
        if m in defective:
            base = 1
    if channel.p > 0.0:
        output = splitmix64(((key.material() & MASK64) + cell * GOLDEN) & MASK64)
        if output < math.floor(channel.p * 2 ** 64):
            base ^= 1
    return base


def flatten_design_per_segment(design) -> FlatDesign:
    """The incidence matrix of a tree design, one segment at a time: each
    placement's whole table, gathered per item."""
    members = np.zeros((design.t_total, design.n), dtype=bool)
    items = np.arange(design.n)
    offset = 0
    for level, rep, t_len in design.layout:
        table = segment_table(design, level, rep)
        members[offset + table[items // design.node_size(level)], items] = True
        offset += t_len
    return FlatDesign(members)


def noiseless_bits_per_test(design, instance) -> np.ndarray:
    """The noiseless outcome vector of a tree design one test at a time:
    each test's members from :func:`flatten_design_per_segment`, its outcome
    from :func:`compute_outcome` (small n only)."""
    channel, key = NoiseChannel.noiseless(), RandomnessKey(0)
    return np.array([compute_outcome(np.flatnonzero(test), instance, channel, key)
                     for test in flatten_design_per_segment(design).members], dtype=np.uint8)


def flat_positives_scalar(tests, defectives) -> list[int]:
    """The tests that pool at least one defective, one set test at a time."""
    dset = set(defectives)
    return [i for i, test in enumerate(tests) if test & dset]


def decode_comp_scalar(n: int, tests, bits) -> tuple[int, ...]:
    cleared = set()
    for i, test in enumerate(tests):
        if not bits[i]:
            cleared |= test
    return tuple(sorted(set(range(n)) - cleared))


def decode_ncomp_scalar(n: int, tests, bits, threshold: float) -> tuple[int, ...]:
    appearances = [0] * n
    negatives = [0] * n
    for i, test in enumerate(tests):
        neg = not bits[i]
        for item in test:
            appearances[item] += 1
            if neg:
                negatives[item] += 1
    flagged = []
    for item in range(n):
        if appearances[item] == 0:
            raise ValueError(f"item {item} appears in no test")
        if negatives[item] <= threshold * appearances[item]:
            flagged.append(item)
    return tuple(flagged)


def item_masks_scalar(n: int, tests) -> list[int]:
    masks = [0] * n
    for i, test in enumerate(tests):
        for item in test:
            masks[item] |= 1 << i
    return masks


# --- placements ------------------------------------------------------------


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, exact below
    3.18 * 10^23 (Sorenson and Webster), far above the 2^63 the tests ask
    about."""
    if m < 2:
        return False
    for q in _PRIME_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def next_prime(x: int) -> int:
    """The smallest prime >= x.  At x = max(num_nodes, t_len, 2) it is the
    field a polynomial level hashed over before the two Mersenne fields
    (``PREVIOUS_FIELD`` in test_golden.py)."""
    while not is_prime(x):
        x += 1
    return x


def previous_prime(x: int) -> int:
    """The largest prime <= x, for x >= 2."""
    while not is_prime(x):
        x -= 1
    return x


def python_horner(coeffs, x: int, prime: int, t_len: int) -> int:
    """Horner's rule in Python integers, coefficients highest degree first,
    reduced mod the prime at every step and mod ``t_len`` at the end."""
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % prime
    return acc % t_len


# --- counter hash and the explicit table it replaced ----------------------

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
HIGH_SALT = 0xA5A5A5A5A5A5A5A5  # mixed into a key's word for its high material word


def splitmix64(x: int) -> int:
    x = (x + GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def shaped_stacks(shapes, key, placement) -> list:
    """The stacks ``placements.level_stacks`` cuts from ``key`` for levels
    0, 1, ... of the ``(num_nodes, t_len, reps)`` in ``shapes``, every level
    placed by ``placement``."""
    levels = [Level(level, *shape, placement) for level, shape in enumerate(shapes)]
    return [stack for _, stack in level_stacks(levels, key)]


def counter_row_keys(key, count: int) -> list[int]:
    """Row r's key is splitmix64 at (low 64 bits of the key material) + r * PHI."""
    base = key.material() & MASK64
    return [splitmix64((base + r * GOLDEN) & MASK64) for r in range(count)]


def counter_hash_test(row_key: int, node: int, t_len: int) -> int:
    """The test of ``node`` under the row keyed ``row_key``."""
    return splitmix64((row_key + node * GOLDEN) & MASK64) % t_len


def keyed_permutation_test(round_keys: list[int], node: int, bits: int, shift: int) -> int:
    """The test of ``node`` under a keyed-permutation row: the unbalanced
    Feistel network on ``bits``-bit ids, written as bit strings, with the
    low ``shift`` bits of its output dropped.  The right part starts as the
    low ceil(bits / 2) bits; each round appends the left part xored with the
    leading bits of the right part's hash and drops the left part.  The
    hash is splitmix64's mixing of key + right, up to its last xorshift."""
    text = format(node, f"0{bits}b") if bits else ""
    left, right = text[:bits // 2], text[bits // 2:]
    for key in round_keys:
        x = (key + (int(right, 2) if right else 0)) & MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        hashed = format(x, "064b")[:len(left)]
        mixed = "".join("1" if a != b else "0" for a, b in zip(left, hashed))
        left, right = right, mixed
    return (int(left + right, 2) if bits else 0) >> shift


def scalar_test(stack, node: int, rep: int) -> int:
    """The test of ``node`` under repetition ``rep`` of a stack of one
    trial's keys, in Python integers from the stack's own keys by this
    module's references: the counter hash of ``keys[rep]``, Horner's rule
    over ``coeffs[rep]``, the bit-string Feistel network of
    ``round_keys[rep]``, node j in test j for the identity; any other stack,
    a test double, answers its own ``test_of``."""
    if stack.trials is not None:
        raise ValueError(f"a stack of {stack.trials} trials' keys has no scalar lookup")
    if isinstance(stack, IdentityStack):
        return node
    if isinstance(stack, CounterHashStack):
        return counter_hash_test(int(stack.keys[rep]), node, stack.t_len)
    if isinstance(stack, PolynomialStack):
        return python_horner(stack.coeffs[rep, ::-1].tolist(), node, stack.prime, stack.t_len)
    if isinstance(stack, PermutationStack):
        return keyed_permutation_test(stack.round_keys[rep].tolist(), node, stack.bits,
                                      stack.shift)
    return stack.test_of(node, rep)


class ExplicitStack:
    """``reps`` fully random placements of the same nodes, drawn from one
    generator as one (reps x num_nodes) table: the i.i.d. placement as the
    paper stores it, with the stack protocol of
    :class:`splitgt.placements.CounterHashStack` for one trial: ``trials``
    None, and a ``tests_of`` that ignores its ``trials`` argument.

    The table is int32 whenever every test fits; bounded draws below 2^31
    give the same values at either width, so the placements do not depend
    on it."""

    def __init__(self, num_nodes: int, t_len: int, reps: int, rng: np.random.Generator):
        if t_len < 1:
            raise ValueError("t_len must be >= 1")
        dtype = np.int32 if t_len <= 1 << 31 else np.int64
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.reps = reps
        self.storage_cost = reps * num_nodes
        self.trials = None
        self.table = rng.integers(0, t_len, size=(reps, num_nodes), dtype=dtype)

    def test_of(self, node: int, rep: int) -> int:
        return int(self.table[rep, node])

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None),
                 trials: np.ndarray | None = None) -> np.ndarray:
        return self.table[reps, nodes].astype(np.int64, copy=False)


def floyd_defectives(low_word: int, n: int, k: int) -> tuple[int, ...]:
    """k of the items [0, n) by Floyd's algorithm: step s, for j = n - k + s,
    picks (u * (j + 1)) >> 128 for the u whose high and low words are
    outputs 2s and 2s + 1 of the counter stream of ``low_word``."""
    chosen = set()
    for s, j in enumerate(range(n - k, n)):
        high = splitmix64((low_word + 2 * s * GOLDEN) & MASK64)
        low = splitmix64((low_word + (2 * s + 1) * GOLDEN) & MASK64)
        pick = (((high << 64) | low) * (j + 1)) >> 128
        chosen.add(j if pick in chosen else pick)
    return tuple(sorted(chosen))


# --- the Philox draws the counter stream replaced --------------------------


def _philox(word) -> np.random.Generator:
    """The generator of the key whose word is ``word``: Philox keyed by the
    key's 128-bit material, the word low and its salted mix high, as
    ``RandomnessKey.generator`` keys it."""
    word = int(word)
    return np.random.Generator(np.random.Philox(key=splitmix64(word ^ HIGH_SALT) << 64 | word))


def philox_defectives(config, words: np.ndarray) -> list[tuple[int, ...]]:
    """``bench._draw_defectives`` as a Philox generator per trial drew it:
    ``choice(n, k, replace=False)`` from the defectives key's generator."""
    if config.defectives is not None:
        return [tuple(sorted(config.defectives))] * len(words)
    count = min(config.k, config.n)
    return [tuple(sorted(int(v) for v in _philox(word).choice(config.n, size=count,
                                                             replace=False)))
            for word in words]


def philox_flips(p: float, words: np.ndarray, tests: int) -> np.ndarray:
    """``core.channel_flips`` as a Philox generator per evaluation drew it:
    one ``random(tests)`` draw u from the noise key's generator, and cell c
    flips iff u[c] < p."""
    return np.array([_philox(word).random(tests) < p for word in words]).reshape(len(words), tests)


def batch_reports(columns: BatchReport) -> list[DecodeReport]:
    """Every row of a batch decode's columns, as that trial's report."""
    return [columns.report(b) for b in range(len(columns.bounds) - 1)]
