"""The splitting-tree design of every scheme, and the noiseless decoder of
the gamma and rho schemes.

The gamma, rho and noisy schemes share one structure: a tree over [0, n)
with a fixed fan-out, where each level has a node size and one placement
per repetition, and every placement of a level puts each node of that level
into one test of a sequence of ``t_len`` tests.  A level is therefore its
stack of placements (see :mod:`splitgt.placements`), which knows its node
count, its ``t_len`` and its repetitions; :class:`TreeDesign` is built from
the ordered ``(level, stack)`` pairs and derives the rest, fan-out included.
The schemes differ only in how their params become stacks:
``gamma.build_gamma_design``, ``rho.build_rho_design`` and
``noisy.build_noisy_design``.

The gamma and rho trees test every top-level node individually, then at
each later level a node survives iff all of its tests there are positive;
the survivors of the last (singleton) level are the estimate.
:func:`decode_tree_batch` walks that descent for a batch of trials at once,
its frontier (trial, node) pairs as sorted int64 arrays, level by level;
:func:`decode_tree` is its batch of one, on a design of one trial's keys,
and keeps no trial array.  Each level goes repetition by repetition over
the candidates still alive, so every trial reads exactly the tests a
node-by-node loop that stops at the first negative would read; a small
frontier has its tests under every repetition looked up at once, a large
one repetition by repetition.

A batch's design is one :class:`TreeDesign` whose stacks hold every
trial's keys along a leading trial axis (the scheme builders take several
trials' key material for that, see :func:`splitgt.placements.row_keys`);
:meth:`TreeDesign.noiseless_grid` evaluates all of its trials in one
stacked lookup per level, one grid row per trial.
"""

from __future__ import annotations

import numpy as np

from .core import DecodeReport, OutcomeVector

# Lookups are (segment x defective) pairs.  Per evaluation (2-core Xeon,
# numpy 2.4): at the 24 lookups of a desk-scale gamma trial the scalar path
# takes about 0.4 of the stacked one's time, at the 1176 of a noisy one about
# seven times it; the gamma paths are about even near 100 (full) to 200
# (kwise), the rho ones (Python Feistel rounds per scalar lookup) at 28.
# At these counts a stacked lookup is mostly its fixed cost, so the
# per-lane cost of the hash kernels barely moves the crossovers.
SCALAR_LOOKUPS = 64
# Up to this many frontier nodes, decode looks a level up under all of its
# repetitions at once; above it, repetition by repetition for the nodes
# still alive.  A stacked lookup costs 10-100 us plus 2-25 ns per lane (same
# host: about 2-4 ns for a counter hash at a power-of-two t_len, 7 at
# another, 16-24 for a degree-6 polynomial, 12-16 for a six-round Feistel
# permutation), so the lanes of nodes an early repetition prunes cost about
# what the saved lookups do near 2000 nodes.  Decode times at 512, 1024 and
# 2048 are within noise on every benchmark cell, 4096 loses on
# lowstore-giant's.  Tree-desk frontiers hold a few dozen nodes per trial,
# lowstore-giant ones about 4096.
BATCH_NODES = 1024


class TreeDesign:
    """A splitting tree over [0, n) from its ordered ``(level, stack)``
    pairs, kept as the ordered dict ``stacks``.

    A level's stack (see :mod:`splitgt.placements`) covers its
    ``stack.num_nodes`` nodes: node j covers items [j * size, (j + 1) *
    size) for the node size ``n // stack.num_nodes``, and repetition ``rep``
    places every node into one of ``stack.t_len`` tests.  Each node has
    ``branching`` children at the next level, the second level's node count
    over the first's.  The outcomes of a design come in ``layout`` order:
    one ``(level, rep, t_len)`` segment per repetition, level by level;
    ``first_test[level]`` indexes a level's first test in that order.
    ``trials`` is the length of the stacks' leading trial axis, or None for
    a design of one trial's keys, which has no such axis and evaluates and
    decodes one trial without a trial array.
    """

    def __init__(self, n: int, params, levels):
        self.n = n
        self.params = params
        self.stacks = dict(levels)
        stacks = list(self.stacks.values())
        self.branching = stacks[1].num_nodes // stacks[0].num_nodes
        self.trials = stacks[-1].trials  # the top level may be keyless
        self.layout = tuple((level, rep, stack.t_len) for level, stack in self.stacks.items()
                            for rep in range(stack.reps))
        self.first_test = {}
        test = 0
        for level, stack in self.stacks.items():
            self.first_test[level] = test
            test += stack.reps * stack.t_len
        self.t_total = test

    def node_size(self, level: int) -> int:
        return self.n // self.stacks[level].num_nodes

    def num_nodes(self, level: int) -> int:
        return self.stacks[level].num_nodes

    def noiseless_bits(self, defectives) -> np.ndarray:
        """The noiseless outcome vector.  Up to ``SCALAR_LOOKUPS`` (segment
        x defective) lookups it takes one scalar ``test_of`` each; past
        that, it is the :meth:`noiseless_grid` of one trial."""
        if len(defectives) * len(self.layout) > SCALAR_LOOKUPS:
            return self.noiseless_grid((defectives,))[0]
        bits = np.zeros(self.t_total, dtype=np.uint8)
        positives = []
        for level, stack in self.stacks.items():
            size, t_len, test_of = self.node_size(level), stack.t_len, stack.test_of
            for rep in range(stack.reps):
                offset = self.first_test[level] + rep * t_len
                positives.extend(offset + test_of(d // size, rep) for d in defectives)
        bits[positives] = 1
        return bits

    def noiseless_grid(self, defectives) -> np.ndarray:
        """The noiseless outcome vectors of a batch, trial b's defectives
        ``defectives[b]``, as the rows of a (trials x T) uint8 grid: one
        stacked ``tests_of`` per level over every trial's defectives, each
        looked up under its own trial's keys (a design of one trial's keys
        takes a batch of one)."""
        grid = np.zeros((len(defectives), self.t_total), dtype=np.uint8)
        if self.trials is None:  # no trial array, as in decode_tree_batch
            (truth,) = defectives
            trials, items = None, np.asarray(truth, dtype=np.int64)
        else:
            trials = np.repeat(np.arange(len(defectives)), [len(d) for d in defectives])
            items = np.fromiter((d for trial in defectives for d in trial), np.int64, len(trials))
            starts = trials * self.t_total
        cells = grid.reshape(-1)
        for level, stack in self.stacks.items():
            tests = stack.tests_of(items // self.node_size(level), slice(None), trials)
            rows = self.first_test[level] + stack.t_len * np.arange(stack.reps)[:, None]
            if trials is not None:
                rows = rows + starts
            cells[rows + tests] = 1
        return grid

    @property
    def storage_words(self) -> int:
        return sum(stack.storage_cost for stack in self.stacks.values())

    def level_item_tests(self):
        """Per level, ``(t_len, tests)`` with ``tests[rep, i]`` the test of
        item i under repetition rep: one stacked lookup over every item
        (small n only)."""
        items = np.arange(self.n, dtype=np.int64)
        for level, stack in self.stacks.items():
            yield stack.t_len, stack.tests_of(items // self.node_size(level))

    def memberships_per_item(self) -> list[int]:
        """Number of tests each item participates in: one per segment that
        puts the item's node into one of its tests (exhaustive; small n
        only)."""
        counts = np.zeros(self.n, dtype=np.int64)
        for t_len, tests in self.level_item_tests():
            counts += ((tests >= 0) & (tests < t_len)).sum(axis=0)
        return counts.tolist()

    def max_items_per_test(self) -> int:
        """Largest test load across the whole design (verification helper)."""
        worst = 0
        for t_len, tests in self.level_item_tests():
            for row in tests:
                worst = max(worst, int(np.bincount(row, minlength=t_len).max()))
        return worst


def decode_tree(design: TreeDesign,
                outcomes: OutcomeVector) -> tuple[tuple[int, ...], DecodeReport]:
    """The decode of one trial: the batch of one of
    :func:`decode_tree_batch`, on the trial's own outcome vector."""
    if tuple(outcomes.layout) != tuple(design.layout):
        raise ValueError("outcome layout does not match this design")
    (report,) = decode_tree_batch(design, outcomes.bits.reshape(1, -1))
    return report.estimate, report


def decode_tree_batch(design: TreeDesign, grid: np.ndarray) -> list[DecodeReport]:
    """Walk the tree top-down for every trial of a batch at once, reading
    only tests of surviving nodes; one report per row of ``grid``, the
    (trials x T) uint8 outcomes of ``design``'s trials (see
    ``TreeDesign.noiseless_grid``).

    The frontier holds (trial, node) pairs, trial-major.  A design of one
    trial's keys (``design.trials`` None) decodes a grid of one row and
    keeps no trial array, so its frontier is one node array, as large as
    the trial's own.  The first level's single segment tests each of its
    nodes individually.  Test j of (level, rep) of trial b is cell ``b * T
    + first_test[level] + rep * t_len + j`` of the grid laid flat; as in
    the noisy decoder, every cell read is marked in one boolean array whose
    row count is a trial's ``outcomes_read``.  ``nodes_visited`` counts each
    node once per level it is tested at; ``peak_frontier`` is the trial's largest frontier.
    Whether a level looks its nodes up under all of its repetitions at once
    (up to ``BATCH_NODES`` nodes) is decided for the whole batch, which
    changes no trial's reads.
    """
    count, t_total = grid.shape
    flat, seen = grid.reshape(-1), np.zeros(grid.shape, dtype=bool)
    # the top level is scanned through a bool view of the uint8 grid, where
    # flatnonzero is about 12x faster than on the uint8 bytes themselves
    marks = seen.reshape(-1)
    levels = iter(design.stacks.items())
    top = next(levels)[1].t_len
    seen[:, :top] = True
    if design.trials is None:
        (row,) = grid
        trials, alive = None, np.flatnonzero(row[:top].view(bool))
        sizes = [len(alive)]  # per level, the frontier size of every trial
    else:  # trial b's node j at b * top + j
        trials, alive = np.divmod(np.flatnonzero(grid[:, :top].view(bool)), top)
        sizes = [np.bincount(trials, minlength=count)]
    offsets = np.arange(design.branching, dtype=np.int64)

    for level, stack in levels:
        alive = (alive[:, None] * design.branching + offsets).ravel()
        if trials is None:
            sizes.append(len(alive))
        else:
            trials = trials.repeat(design.branching)
            sizes.append(np.bincount(trials, minlength=count))
        batch = len(alive) <= BATCH_NODES
        tests = stack.tests_of(alive, slice(None), trials) if batch else None
        for rep in range(stack.reps):
            row = tests[rep] if batch else stack.tests_of(alive, slice(rep, rep + 1), trials)[0]
            offset = design.first_test[level] + rep * stack.t_len
            cells = row + (offset if trials is None else trials * t_total + offset)
            marks[cells] = True
            keep = flat[cells] != 0
            alive = alive[keep]
            if trials is not None:
                trials = trials[keep]
            if batch:
                tests = tests[:, keep]

    estimate = alive.tolist()
    if trials is None:
        bounds, visited, pd_peak = [0, len(estimate)], [top + sum(sizes[1:])], [max(sizes)]
    else:
        bounds = np.searchsorted(trials, np.arange(count + 1)).tolist()
        sizes = np.array(sizes)
        visited, pd_peak = (top + sizes[1:].sum(axis=0)).tolist(), sizes.max(axis=0).tolist()
    read = [int(np.count_nonzero(marked)) for marked in seen]  # popcounts, unlike a row sum
    return [DecodeReport(
        estimate=tuple(estimate[bounds[b]:bounds[b + 1]]),
        outcomes_read=read[b],
        nodes_visited=visited[b],
        peak_frontier=pd_peak[b],
    ) for b in range(count)]
