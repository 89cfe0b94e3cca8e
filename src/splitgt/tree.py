"""What the splitting-tree designs share, and the noiseless decoder of the
gamma and rho schemes.

:class:`TreeDesign` holds the parts of a design that do not depend on the
scheme.  The gamma and rho trees test every top-level node individually,
then at each later level place every node in one test per repetition; a
node survives a level iff all of its tests there are positive, and the
survivors of the last (singleton) level are the estimate.  A design handed
to :func:`decode_tree` exposes:

  - ``layout`` with the identity level's single segment first,
  - ``levels``: ``(level, reps)`` for every level after the identity level,
  - ``branching``: the number of children per node,
  - ``placements[(level, rep)]`` with a vectorised ``tests_of``.

The frontier is a sorted int64 array.  Each level goes repetition by
repetition over the candidates still alive, so it reads exactly the tests a
node-by-node loop that stops at the first negative would read.
"""

from __future__ import annotations

import time

import numpy as np

from .core import DecodeReport, OutcomeVector


class TreeDesign:
    """Base of the gamma, rho and noisy designs.

    A subclass sets ``n``, ``layout`` (ordered ``(level, rep, length)``
    segments) and ``placements[(level, rep)]``, and defines
    ``node_size(level)``: node j of a level covers items
    [j * size, (j + 1) * size).
    """

    def num_nodes(self, level: int) -> int:
        return self.n // self.node_size(level)

    def segment_positives(self, level, rep, defectives):
        placement = self.placements[(level, rep)]
        size = self.node_size(level)
        return {placement.test_of(d // size) for d in defectives}

    def segment_members(self, level, rep):
        """Explicit member sets of every test in a segment (small n only)."""
        length = next(s[2] for s in self.layout if s[:2] == (level, rep))
        size = self.node_size(level)
        tests = [set() for _ in range(length)]
        for node, test in enumerate(self.placements[(level, rep)].table().tolist()):
            tests[test].update(range(node * size, (node + 1) * size))
        return tests

    @property
    def t_total(self) -> int:
        return sum(length for _, _, length in self.layout)

    @property
    def storage_words(self) -> int:
        return sum(p.storage_cost for p in self.placements.values())


def decode_tree(design, outcomes: OutcomeVector) -> tuple[tuple[int, ...], DecodeReport]:
    """Walk the tree top-down, reading only tests of surviving nodes.

    ``outcomes_read`` counts distinct outcome cells read, ``nodes_visited``
    one per node per level it is tested at, and the peak possibly-defective
    set enters ``storage_words``.
    """
    if tuple(outcomes.layout) != tuple(design.layout):
        raise ValueError("outcome layout does not match this design")
    start = time.perf_counter_ns()
    top, top_rep, top_len = design.layout[0]
    alive = np.flatnonzero(outcomes.segment(top, top_rep))
    reads = visited = top_len
    pd_peak = len(alive)
    offsets = np.arange(design.branching, dtype=np.int64)

    for level, reps in design.levels:
        alive = (alive[:, None] * design.branching + offsets).ravel()
        pd_peak = max(pd_peak, len(alive))
        visited += len(alive)
        for rep in range(reps):
            tests = design.placements[(level, rep)].tests_of(alive)
            # a set, not np.sort or np.unique: their first calls map in
            # code (and numpy.ma) that raises a small run's peak memory
            reads += len(set(tests.tolist()))
            alive = alive[outcomes.segment(level, rep)[tests] != 0]

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
