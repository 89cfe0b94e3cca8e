"""The splitting-tree design of every scheme, and the one descent that
every decoder is.

The gamma, rho and noisy schemes share one structure: a tree over [0, n)
with a fixed fan-out, where each level has a node size and one placement
per repetition, and every placement of a level puts each node of that level
into one test of a sequence of ``t_len`` tests.  A level is therefore its
stack of placements (see :mod:`splitgt.placements`), which knows its node
count, its ``t_len`` and its repetitions; :class:`TreeDesign` is built from
the ordered ``(level, stack)`` pairs and derives the rest, fan-out and the
address of every outcome cell included.  The schemes differ only in how
their params become stacks: ``gamma.build_gamma_design``,
``rho.build_rho_design`` and ``noisy.build_noisy_design``; COMP and NCOMP
take a one-level tree of singletons (``baselines.build_flat_design``).

Every decoder is :func:`descend`: it keeps a frontier of possibly-defective
nodes, for a batch of trials at once as sorted (trial, node) int64 arrays,
and level by level keeps the children of the nodes that pass a survival
rule; the survivors of the last (singleton) level are the estimate.  It
returns the batch's estimates and counters as the columns of one
:class:`splitgt.core.BatchReport`; :func:`decode_one` is its batch of one,
on a trial's own outcome vector, as a :class:`splitgt.core.DecodeReport`.
Only the rule differs.  Gamma, rho and COMP keep a node when all of its
tests at the level are positive, and NCOMP forgives up to ``misses``
negatives (:func:`decode_tree_batch`, :func:`decode_tree`); the noisy rule
is a lookahead majority (see :mod:`splitgt.noisy`).  Every outcome is read
through one :class:`Reads`, which checks the grid, marks each cell read and
counts a trial's reads.

A batch's design is one :class:`TreeDesign` whose stacks hold every
trial's keys along a leading trial axis (the scheme builders take several
trials' key material for that, see :func:`splitgt.placements.row_keys`);
:meth:`TreeDesign.noiseless_grid` evaluates all of its trials in one
stacked lookup per level, one grid row per trial, and no more rows than
the design has trials.  It is a design's only evaluation: a design of one
trial's keys evaluates a batch of one, without a trial array.
"""

from __future__ import annotations

import numpy as np

from .core import BatchReport, DecodeReport, OutcomeVector
from .placements import IdentityStack

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


def placement_of(modes: dict, hash_mode: str):
    """``modes[hash_mode]``, or a ValueError if a scheme's ``modes`` lack it."""
    if not isinstance(hash_mode, str) or hash_mode not in modes:
        raise ValueError(f"hash mode {hash_mode!r} is not one of this scheme's {tuple(modes)}")
    return modes[hash_mode]


class TreeDesign:
    """A splitting tree over [0, n) from its ordered ``(level, stack)``
    pairs, kept as the ordered dict ``stacks``.

    A level's stack (see :mod:`splitgt.placements`) covers its
    ``stack.num_nodes`` nodes: node j covers items [j * size, (j + 1) *
    size) for the node size ``n // stack.num_nodes``, and repetition ``rep``
    places every node into one of ``stack.t_len`` tests.  Each node has
    ``branching`` children at the next level, the second level's node count
    over the first's.  The outcomes of a design come in ``layout`` order:
    one ``(level, rep, t_len)`` segment per repetition, level by level, and
    ``starts[level]`` is the column of a level's segment starts in that
    order, one row per repetition: the address of every outcome cell, which
    ``noiseless_grid`` writes and :class:`Reads` reads.
    ``trials`` is the length of the stacks' leading trial axis, or None for
    a design of one trial's keys, which has no such axis and evaluates and
    decodes one trial without a trial array.
    """

    def __init__(self, n: int, params, levels):
        self.n = n
        self.params = params
        self.stacks = dict(levels)
        stacks = list(self.stacks.values())
        self.branching = stacks[1].num_nodes // stacks[0].num_nodes if len(stacks) > 1 else 1
        self.trials = stacks[-1].trials  # the top level may be keyless
        self.layout = tuple((level, rep, stack.t_len) for level, stack in self.stacks.items()
                            for rep in range(stack.reps))
        self.starts = {}
        test = 0
        for level, stack in self.stacks.items():
            self.starts[level] = test + stack.t_len * np.arange(stack.reps, dtype=np.int64)[:, None]
            test += stack.reps * stack.t_len
        self.t_total = test

    def node_size(self, level: int) -> int:
        return self.n // self.stacks[level].num_nodes

    def check_rows(self, count: int) -> None:
        """Refuse grid rows that the design holds no trial's keys for."""
        if self.trials is None and count != 1:
            raise ValueError(f"a design of one trial's keys decodes one grid row, not {count}")
        if self.trials is not None and count > self.trials:
            raise ValueError(f"{count} grid rows exceed a design of {self.trials} trials' keys")

    def noiseless_grid(self, defectives) -> np.ndarray:
        """The noiseless outcome vectors of a batch, trial b's defectives
        ``defectives[b]``, as the rows of a (trials x T) uint8 grid: one
        stacked ``tests_of`` per level over every trial's defectives, each
        looked up under its own trial's keys and scattered at
        ``starts[level][rep] + test`` of its row (a design of one trial's keys
        takes a batch of one)."""
        self.check_rows(len(defectives))
        grid = np.zeros((len(defectives), self.t_total), dtype=np.uint8)
        if self.trials is None:  # no trial array, as in descend
            (truth,) = defectives
            trials, items = None, np.asarray(truth, dtype=np.int64)
        else:
            trials = np.repeat(np.arange(len(defectives)), [len(d) for d in defectives])
            items = np.fromiter((d for trial in defectives for d in trial), np.int64, len(trials))
            bases = trials * self.t_total  # the start of each defective's row
        cells = grid.reshape(-1)
        for level, stack in self.stacks.items():
            tests = stack.tests_of(items // self.node_size(level), slice(None), trials)
            rows = self.starts[level] if trials is None else self.starts[level] + bases
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


class Reads:
    """The outcome reader of one decode: the (trials x T) ``grid`` of
    ``design``'s trials laid flat, test j of (level, rep) of trial b at cell
    ``b * T + design.starts[level][rep] + j``, and a mark on every cell
    read.  A design of one trial's keys reads one row, without trials."""

    def __init__(self, design: TreeDesign, grid: np.ndarray):
        self.count, self.t_total = grid.shape
        if self.t_total != design.t_total:
            raise ValueError(f"a grid of {self.t_total} outcomes per trial does not match "
                             f"the design's {design.t_total} tests")
        design.check_rows(self.count)
        self.design, self.starts = design, design.starts
        self.grid, self.flat = grid, grid.reshape(-1)
        self.seen = np.zeros(grid.shape, dtype=bool)
        self.marks = self.seen.reshape(-1)

    def scan(self, level: int) -> np.ndarray:
        """Every test of ``level``'s one segment in every row, marked read:
        the positions ``b * t_len + j`` of its positives."""
        start = self.starts[level].item(0)
        end = start + self.design.stacks[level].t_len
        self.seen[:, start:end] = True
        # through a bool view of the uint8 grid, where flatnonzero is about
        # 12x faster than on the uint8 bytes themselves
        return np.flatnonzero(self.grid[:, start:end].view(bool))

    def reads(self, level: int, first_rep: int, tests: np.ndarray, trials) -> np.ndarray:
        """The outcomes of ``tests`` at ``level``, lane i in trial
        ``trials[i]``, marked read: a row of tests under repetition
        ``first_rep``, or one row per repetition from ``first_rep`` on."""
        starts = self.starts[level]
        cells = tests + (starts.item(first_rep) if tests.ndim == 1
                         else starts[first_rep:first_rep + len(tests)])
        if trials is not None:
            cells += trials * self.t_total
        self.marks[cells] = True
        return self.flat[cells]

    def counts(self) -> np.ndarray:
        """Per row, the number of distinct cells read."""
        # a popcount per row, on 2 shared cores: 119 us on lowstore rho's one
        # 1.8M-cell row against 1026 us for count_nonzero(seen, axis=1), and
        # 61 us on noisy's 55 rows of 4704 cells against 206 us for
        # seen.sum(axis=1)
        return np.array([np.count_nonzero(row) for row in self.seen], dtype=np.int64)


def tally(trials, size: int, count: int):
    """How many of ``size`` lanes, lane i in trial ``trials[i]``, each of
    ``count`` trials holds: ``size`` itself when ``trials`` is None."""
    return size if trials is None else np.bincount(trials, minlength=count)


def descend(design: TreeDesign, grid: np.ndarray, survive, *args) -> BatchReport:
    """Walk the tree top-down for every trial of a batch at once, keeping
    the children of the nodes ``survive(reads, level, nodes, trials, *args)``
    returns with their trials and the labels it computed per trial; one
    :class:`BatchReport` whose entry b is row b of ``grid``.  The frontier
    holds (trial, node) pairs, trial-major, without trials for a design of
    one trial's keys.  An identity first level is scanned, any other starts
    all alive; ``nodes_visited`` counts each node once per level it is
    tested at, ``peak_frontier`` is the trial's largest frontier."""
    reads = Reads(design, grid)
    count = reads.count
    levels = list(design.stacks.items())
    first, top = levels[0]
    if isinstance(top, IdentityStack):
        levels = levels[1:]
        start = reads.scan(first)
    else:
        start = np.arange(count * top.num_nodes)
    # trial b's node j at b * nodes + j
    trials, alive = (None, start) if design.trials is None else np.divmod(start, top.num_nodes)
    sizes, labels = [tally(trials, len(alive), count)], 0
    offsets = np.arange(design.branching, dtype=np.int64)
    for level, stack in levels:
        if level != first:
            alive = (alive[:, None] * design.branching + offsets).ravel()
            if trials is not None:
                trials = trials.repeat(design.branching)
            sizes.append(tally(trials, len(alive), count))
        alive, trials, computed = survive(reads, level, alive, trials, *args)
        labels = labels + computed
    bounds = (np.array([0, len(alive)]) if trials is None
              else np.searchsorted(trials, np.arange(count + 1)))
    sizes = np.array(sizes).reshape(len(sizes), count)  # levels x trials
    return BatchReport(estimate=alive, bounds=bounds, outcomes_read=reads.counts(),
                       nodes_visited=top.num_nodes + sizes[1:].sum(axis=0),
                       peak_frontier=sizes.max(axis=0),
                       labels_computed=np.zeros(count, dtype=np.int64) + labels)


def decode_one(design: TreeDesign, outcomes: OutcomeVector, survive,
               *args) -> tuple[tuple[int, ...], DecodeReport]:
    """The batch of one of :func:`descend`, on a trial's outcome vector."""
    if tuple(outcomes.layout) != tuple(design.layout):
        raise ValueError("outcome layout does not match this design")
    report = descend(design, outcomes.bits.reshape(1, -1), survive, *args).report(0)
    return report.estimate, report


def _all_positive(reads: Reads, level: int, alive: np.ndarray, trials, misses: int):
    """The survival rule of gamma, rho, COMP and NCOMP: at most ``misses``
    of a node's tests at the level are negative (only NCOMP's positive
    ``misses`` counts them).  It goes repetition by repetition over the
    nodes still alive, so a trial reads exactly what a node-by-node loop
    stopping at the first negative reads, up to ``BATCH_NODES`` nodes with
    every repetition looked up at once."""
    stack = reads.design.stacks[level]
    batch = len(alive) <= BATCH_NODES
    tests = stack.tests_of(alive, slice(None), trials) if batch else None
    negatives = np.zeros(len(alive), dtype=np.int64) if misses else None
    for rep in range(stack.reps):
        row = tests[rep] if batch else stack.tests_of(alive, slice(rep, rep + 1), trials)[0]
        outcomes = reads.reads(level, rep, row, trials)
        if misses:
            negatives += outcomes == 0
            keep = negatives <= misses
            negatives = negatives[keep]
        else:
            keep = outcomes != 0
        alive = alive[keep]
        if trials is not None:
            trials = trials[keep]
        if batch:
            tests = tests[:, keep]
    return alive, trials, 0


def decode_tree(design: TreeDesign, outcomes: OutcomeVector,
                misses: int = 0) -> tuple[tuple[int, ...], DecodeReport]:
    """The decode of one trial by :func:`decode_tree_batch`'s rule."""
    return decode_one(design, outcomes, _all_positive, misses)


def decode_tree_batch(design: TreeDesign, grid: np.ndarray, misses: int = 0) -> BatchReport:
    """The :func:`descend` of gamma, rho, COMP and NCOMP: a node survives a
    level iff at most ``misses`` of its tests there are negative."""
    return descend(design, grid, _all_positive, misses)
