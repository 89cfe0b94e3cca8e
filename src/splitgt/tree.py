"""The splitting-tree design of every scheme, and the decoder of the gamma
and rho schemes and of the COMP/NCOMP baselines.

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
the survivors of the last (singleton) level are the estimate.  COMP is that
rule on a one-level tree of singletons (``baselines.build_flat_design``),
and NCOMP the rule with up to ``misses`` negatives forgiven.
:func:`decode_tree_batch` walks that descent for a batch of trials at once,
its frontier (trial, node) pairs as sorted int64 arrays, level by level, and
returns the batch's estimates and counters as the columns of one
:class:`splitgt.core.BatchReport`; :func:`decode_tree` is its batch of one,
on a design of one trial's keys, keeps no trial array and returns its one
row as a :class:`splitgt.core.DecodeReport`.  Each level goes repetition by
repetition over the candidates still alive, so every trial reads exactly the
tests a node-by-node loop that stops at the first negative would read; a
small frontier has its tests under every repetition looked up at once, a
large one repetition by repetition.

A batch's design is one :class:`TreeDesign` whose stacks hold every
trial's keys along a leading trial axis (the scheme builders take several
trials' key material for that, see :func:`splitgt.placements.row_keys`);
:meth:`TreeDesign.noiseless_grid` evaluates all of its trials in one
stacked lookup per level, one grid row per trial.  It is a design's only
evaluation: a design of one trial's keys evaluates a batch of one, without
a trial array, and the stacks' scalar ``test_of`` serves only as the
reference that ``tests_of`` is checked against.
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
        self.branching = stacks[1].num_nodes // stacks[0].num_nodes if len(stacks) > 1 else 1
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

    def noiseless_grid(self, defectives) -> np.ndarray:
        """The noiseless outcome vectors of a batch, trial b's defectives
        ``defectives[b]``, as the rows of a (trials x T) uint8 grid: one
        stacked ``tests_of`` per level over every trial's defectives, each
        looked up under its own trial's keys and scattered at ``first_test[level]
        + rep * t_len + test`` of its row (a design of one trial's keys
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


def decode_tree(design: TreeDesign, outcomes: OutcomeVector,
                misses: int = 0) -> tuple[tuple[int, ...], DecodeReport]:
    """The decode of one trial: the batch of one of
    :func:`decode_tree_batch`, on the trial's own outcome vector."""
    if tuple(outcomes.layout) != tuple(design.layout):
        raise ValueError("outcome layout does not match this design")
    report = decode_tree_batch(design, outcomes.bits.reshape(1, -1), misses).report(0)
    return report.estimate, report


def decode_tree_batch(design: TreeDesign, grid: np.ndarray, misses: int = 0) -> BatchReport:
    """Walk the tree top-down for every trial of a batch at once, reading
    only tests of surviving nodes; one :class:`BatchReport` whose entry b is
    row b of ``grid``, the (trials x T) uint8 outcomes of ``design``'s trials
    (see ``TreeDesign.noiseless_grid``).

    A node survives a level iff at most ``misses`` of its tests there are
    negative (only a positive ``misses``, NCOMP's, counts them).  The
    frontier holds (trial, node) pairs, trial-major; a design of one trial's
    keys (``design.trials`` None) keeps no trial array.  An
    :class:`IdentityStack` first level tests its nodes individually; any
    other starts with all of its nodes alive.  Test j of (level, rep) of
    trial b is cell ``b * T + first_test[level] + rep * t_len + j`` of the
    grid laid flat; as in the noisy decoder, every cell read is marked in one
    boolean array whose row count is a trial's ``outcomes_read``.
    ``nodes_visited`` counts each node once per level it is tested at;
    ``peak_frontier`` is the trial's largest frontier.  Whether a level
    looks its nodes up under all of its repetitions at once (up to
    ``BATCH_NODES`` nodes) is decided for the whole batch, which changes no
    trial's reads.
    """
    count, t_total = grid.shape
    if t_total != design.t_total:
        raise ValueError(f"a grid of {t_total} outcomes per trial does not match "
                         f"the design's {design.t_total} tests")
    if design.trials is None and count != 1:
        raise ValueError(f"a design of one trial's keys decodes one grid row, not {count}")
    flat, seen = grid.reshape(-1), np.zeros(grid.shape, dtype=bool)
    marks = seen.reshape(-1)
    levels = list(design.stacks.items())
    first, top = levels[0]
    if isinstance(top, IdentityStack):  # tested individually, in one segment
        levels = levels[1:]
        seen[:, :top.t_len] = True
        # scanned through a bool view of the uint8 grid, where flatnonzero is
        # about 12x faster than on the uint8 bytes themselves
        start = np.flatnonzero(grid[:, :top.t_len].view(bool))
    else:  # every node of the first level alive
        start = np.arange(count * top.num_nodes)
    # trial b's node j at b * nodes + j
    trials, alive = (None, start) if design.trials is None else np.divmod(start, top.num_nodes)

    def frontier():  # the frontier size of every trial
        return len(alive) if trials is None else np.bincount(trials, minlength=count)

    sizes, offsets = [frontier()], np.arange(design.branching, dtype=np.int64)
    for level, stack in levels:
        if level != first:
            alive = (alive[:, None] * design.branching + offsets).ravel()
            if trials is not None:
                trials = trials.repeat(design.branching)
            sizes.append(frontier())
        batch = len(alive) <= BATCH_NODES
        tests = stack.tests_of(alive, slice(None), trials) if batch else None
        negatives = np.zeros(len(alive), dtype=np.int64) if misses else None
        for rep in range(stack.reps):
            row = tests[rep] if batch else stack.tests_of(alive, slice(rep, rep + 1), trials)[0]
            offset = design.first_test[level] + rep * stack.t_len
            cells = row + (offset if trials is None else trials * t_total + offset)
            marks[cells] = True
            if misses:
                negatives += flat[cells] == 0
                keep = negatives <= misses
                negatives = negatives[keep]
            else:
                keep = flat[cells] != 0
            alive = alive[keep]
            if trials is not None:
                trials = trials[keep]
            if batch:
                tests = tests[:, keep]

    bounds = (np.array([0, len(alive)]) if trials is None
              else np.searchsorted(trials, np.arange(count + 1)))
    sizes = np.array(sizes).reshape(len(sizes), count)  # levels x trials
    # a popcount per row: on lowstore rho's one 1.8M-cell row,
    # count_nonzero(seen, axis=1) took 1026 us, count_nonzero of the row 119 us
    read = np.array([np.count_nonzero(marked) for marked in seen])
    return BatchReport(estimate=alive, bounds=bounds, outcomes_read=read,
                       nodes_visited=top.num_nodes + sizes[1:].sum(axis=0),
                       peak_frontier=sizes.max(axis=0),
                       labels_computed=np.zeros(count, dtype=np.int64))
