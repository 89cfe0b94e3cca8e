"""The benchmark's workloads: which trial configurations run, how many trials
of each per round, and which base seed each round uses.

A workload is a tuple of cells.  A cell is one ``TrialConfig`` shape (scheme,
size, hash mode) plus the number of trials it runs per round.  The counts are
weighted so that every cell takes a visible share of a round, and a round
takes about half a second on one core.  Why each workload exists is recorded in
``perfbench/README.md``.

This module does not import ``splitgt``: it only produces the keyword
arguments of each ``TrialConfig``, so the program under test receives nothing
but the generated configurations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# The seed used while the benchmark was written, and one kept back so that a
# claimed gain can be re-checked on inputs nobody tuned against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 8191


@dataclass(frozen=True)
class Cell:
    name: str
    trials: int
    fields: tuple[tuple[str, object], ...]

    @property
    def algorithm(self) -> str:
        return dict(self.fields)["algorithm"]


def _cell(name: str, trials: int, **fields) -> Cell:
    return Cell(name, trials, tuple(sorted(fields.items())))


WORKLOADS: dict[str, tuple[Cell, ...]] = {
    # Frozen acceptance points: sub-2 ms trials where fixed per-trial costs
    # (generator construction, params, record assembly) dominate.
    "tree-desk": (
        _cell("gamma-full", 150, algorithm="gamma", n=2 ** 14, k=4, gamma=6),
        _cell("gamma-kwise", 150, algorithm="gamma", n=2 ** 14, k=4, gamma=6,
              hash_mode="kwise"),
        _cell("rho-full", 60, algorithm="rho", n=2 ** 14, k=4, rho=2 ** 6),
    ),
    # Key schedule and the lookahead decoder: ~300 generators and ~10k
    # placement lookups per trial.
    "noisy-desk": (
        _cell("noisy-full", 12, algorithm="noisy", n=2 ** 12, k=8, p=0.05),
    ),
    # Low-storage modes at n=2^30: decode-bound, one outcome read at a time,
    # and only a handful of generators per trial.
    "lowstore-giant": (
        _cell("rho-permutation", 1, algorithm="rho", n=2 ** 30, k=64,
              rho=2 ** 12, hash_mode="permutation"),
        _cell("gamma-kwise", 5, algorithm="gamma", n=2 ** 30, k=64, gamma=6,
              hash_mode="kwise"),
    ),
    # Build-bound: whole 2^20-entry tables and the flat baselines' designs.
    "materialise": (
        _cell("gamma-full", 5, algorithm="gamma", n=2 ** 20, k=16, gamma=6),
        _cell("rho-full", 1, algorithm="rho", n=2 ** 20, k=16, rho=2 ** 8),
        _cell("comp", 1, algorithm="comp", n=2 ** 12, k=8),
        _cell("ncomp", 1, algorithm="ncomp", n=2 ** 12, k=8, p=0.05),
    ),
}

WARMUP_ROUND = -1


def round_seed(workload: str, seed: int, cell: Cell, round_index: int) -> int:
    """Base seed of one cell in one round, a pure function of its arguments."""
    token = f"{workload}|{cell.name}|{seed}|{round_index}".encode()
    return int.from_bytes(hashlib.blake2b(token, digest_size=8).digest(), "big") >> 1


def config_fields(workload: str, seed: int, cell: Cell, round_index: int) -> dict:
    """Keyword arguments of the ``TrialConfig`` for one cell and round.

    The warm-up round runs a single trial; every other round runs the cell's
    weighted count.
    """
    trials = 1 if round_index == WARMUP_ROUND else cell.trials
    return dict(cell.fields, trials=trials,
                base_seed=round_seed(workload, seed, cell, round_index))
