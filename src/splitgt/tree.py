"""The splitting-tree design of every scheme, and the noiseless decoder of
the gamma and rho schemes.

The gamma, rho and noisy schemes share one structure: a tree over [0, n)
with a fixed fan-out, where each level has a node size and one placement
per repetition, and every placement of a level puts each node of that level
into one test of a sequence of ``t_len`` tests.  A level is therefore its
stack of placements (see :mod:`splitgt.placements`), which knows its node
count, its ``t_len`` and its repetitions; :class:`TreeDesign` is built from
the ordered ``(level, stack)`` pairs and derives the rest.  The schemes
differ only in how their params become stacks:
``gamma.build_gamma_design``, ``rho.build_rho_design`` and
``noisy.build_noisy_design``.

The gamma and rho trees test every top-level node individually, then at
each later level a node survives iff all of its tests there are positive;
the survivors of the last (singleton) level are the estimate.
:func:`decode_tree` walks that descent with the frontier as a sorted int64
array.  Each level goes repetition by repetition over the candidates still
alive, so it reads exactly the tests a node-by-node loop that stops at the
first negative would read; a small frontier has its tests under every
repetition looked up at once, a large one repetition by repetition.
"""

from __future__ import annotations

import time

import numpy as np

from .core import DecodeReport, OutcomeVector

# Lookups are (segment x defective) pairs.  Per evaluation (2-core Xeon,
# numpy 2.4): at the 24-28 lookups of a desk-scale gamma or rho trial the
# scalar lookup takes about half the stacked one's time, at the 1176 of a
# noisy one about five times it; the two are about even near 100.
SCALAR_LOOKUPS = 64
# Up to this many frontier nodes, decode looks a level up under all of its
# repetitions at once; above it, repetition by repetition for the nodes
# still alive.  A stacked lookup costs 10-50 us plus 5-25 ns per lane (same
# host), so the lanes of nodes an early repetition prunes cost about what
# the saved lookups do near 2000 nodes.  Tree-desk frontiers hold a few
# dozen nodes, lowstore-giant ones about 4096.
BATCH_NODES = 1024


class TreeDesign:
    """A splitting tree over [0, n) from its ordered ``(level, stack)``
    pairs, kept as the ordered dict ``stacks``.

    A level's stack (see :mod:`splitgt.placements`) covers its
    ``stack.num_nodes`` nodes: node j covers items [j * size, (j + 1) *
    size) for the node size ``n // stack.num_nodes``, and repetition ``rep``
    places every node into one of ``stack.t_len`` tests.  Each node has
    ``branching`` children at the next level.  The outcomes of a design
    come in ``layout`` order: one ``(level, rep, t_len)`` segment per
    repetition, level by level; ``first_test[level]`` indexes a level's
    first test in that order.
    """

    def __init__(self, n: int, params, branching: int, levels):
        self.n = n
        self.params = params
        self.branching = branching
        self.stacks = dict(levels)
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
        that, one stacked ``tests_of`` per level."""
        bits = np.zeros(self.t_total, dtype=np.uint8)
        if len(defectives) * len(self.layout) <= SCALAR_LOOKUPS:
            positives = []
            for level, stack in self.stacks.items():
                size, t_len, test_of = self.node_size(level), stack.t_len, stack.test_of
                for rep in range(stack.reps):
                    offset = self.first_test[level] + rep * t_len
                    positives.extend(offset + test_of(d // size, rep) for d in defectives)
            bits[positives] = 1
        else:
            items = np.asarray(defectives, dtype=np.int64)
            for level, stack in self.stacks.items():
                tests = stack.tests_of(items // self.node_size(level))
                rows = self.first_test[level] + stack.t_len * np.arange(stack.reps)[:, None]
                bits[rows + tests] = 1
        return bits

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
    """Walk the tree top-down, reading only tests of surviving nodes.

    The first level's single segment tests each of its nodes individually.
    ``outcomes_read`` counts distinct outcome cells read, ``nodes_visited``
    one per node per level it is tested at, and the peak possibly-defective
    set enters ``storage_words``.
    """
    if tuple(outcomes.layout) != tuple(design.layout):
        raise ValueError("outcome layout does not match this design")
    start = time.perf_counter_ns()
    levels = iter(design.stacks.items())
    top, top_stack = next(levels)
    alive = np.flatnonzero(outcomes.segment(top, 0))
    reads = visited = top_stack.t_len
    pd_peak = len(alive)
    offsets = np.arange(design.branching, dtype=np.int64)

    for level, stack in levels:
        alive = (alive[:, None] * design.branching + offsets).ravel()
        pd_peak = max(pd_peak, len(alive))
        visited += len(alive)
        batch = len(alive) <= BATCH_NODES
        tests = stack.tests_of(alive) if batch else None
        for rep in range(stack.reps):
            row = tests[rep] if batch else stack.tests_of(alive, slice(rep, rep + 1))[0]
            # a set, not np.sort or np.unique: their first calls map in
            # code (and numpy.ma) that raises a small run's peak memory
            reads += len(set(row.tolist()))
            keep = outcomes.segment(level, rep)[row] != 0
            alive = alive[keep]
            if batch:
                tests = tests[:, keep]

    wall = time.perf_counter_ns() - start
    storage = design.storage_words + pd_peak + (outcomes.t_total + 63) // 64
    report = DecodeReport(
        estimate=tuple(alive.tolist()),
        outcomes_read=reads,
        nodes_visited=visited,
        wall_nanos=wall,
        storage_words=storage,
    )
    return report.estimate, report
