"""Scheme for size-limited tests: no test ever pools more than ``rho`` items.

A constant-depth tree with rho^(1/C)-ary splits.  Level 0 tests each of the
n/rho size-rho nodes individually.  Each mid level runs N independent
balanced placements (column weight one, exact row weight), so a test at level
l holds exactly rho^(l/C) nodes of size rho^(1-l/C): exactly rho items.  The
final level runs C' balanced placements over the singletons.  The size cap is
therefore structural, not probabilistic.  Every balanced placement is a keyed
permutation of its level's nodes with the low bits dropped, one stack per
level, all from the one design key.  :func:`rho_levels` states these levels
once, for the builder and the harness's size rule, and ``HASH_MODES`` maps
each hash mode to the permutation placement with its accounting: the stored
position table (``full``) or its round keys (``permutation``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .core import DecodeReport, OutcomeVector, is_power_of_two
from .placements import IDENTITY, Level, level_stacks, permutation
from .tree import TreeDesign, decode_tree, placement_of

HASH_MODES = {"full": permutation(True), "permutation": permutation(False)}
DEFAULT_C_DEPTH = 2
DEFAULT_N_REPS = 3
DEFAULT_C_FINAL = 3


@dataclass(frozen=True)
class RhoParams:
    rho: int
    c_depth: int
    n_reps: int
    c_final: int
    branch: int  # rho ** (1 / c_depth), a power of two


def rho_params(
    n: int,
    k: int,
    rho: int,
    c_depth: int = DEFAULT_C_DEPTH,
    n_reps: int = DEFAULT_N_REPS,
    c_final: int = DEFAULT_C_FINAL,
) -> RhoParams:
    """Validate the size cap and settle the tree depth.

    The depth must divide log2(rho) so the per-level branching stays a power
    of two; a depth that does not is lowered to the largest divisor, which
    keeps the row weights exact (the size cap is a hard constraint, unlike
    the test counts).
    """
    if not is_power_of_two(rho):
        raise ValueError(f"rho must be a power of two, got {rho} (round first)")
    if rho > n:
        raise ValueError(f"rho={rho} exceeds n={n}")
    if n_reps < 1 or c_final < 1 or c_depth < 1:
        raise ValueError("c_depth, n_reps and c_final must all be >= 1")
    if k >= 1 and rho >= n // k:
        warnings.warn(
            f"rho={rho} is not small next to n/k={n // k}; recovery targets "
            "assume tests much smaller than n/k",
            stacklevel=2,
        )
    log_rho = rho.bit_length() - 1
    if log_rho == 0:
        depth = 1
    elif log_rho % c_depth == 0:
        depth = c_depth
    else:
        depth = max(d for d in range(1, min(c_depth, log_rho) + 1) if log_rho % d == 0)
    branch = 1 << (log_rho // depth) if log_rho else 1
    return RhoParams(rho=rho, c_depth=depth, n_reps=n_reps, c_final=c_final,
                     branch=branch)


def rho_total_tests(params: RhoParams, n: int) -> int:
    per_level = n // params.rho
    return (1 + params.n_reps * (params.c_depth - 1) + params.c_final) * per_level


def rho_levels(params: RhoParams, n: int, hash_mode: str = "full") -> list[Level]:
    """The rho tree's levels: level 0 tests its n/rho nodes individually,
    and every later level places its nodes into n/rho tests by ``n_reps``
    balanced placements (``c_final`` at the singleton level), keyed
    permutations accounted as ``HASH_MODES`` maps the mode."""
    if n % params.rho != 0:
        raise ValueError(f"rho={params.rho} must divide n={n}")
    placement, per_level = placement_of(HASH_MODES, hash_mode), n // params.rho
    return [Level(0, per_level, per_level, 1, IDENTITY),
            *(Level(level, per_level * params.branch ** level, per_level, params.n_reps,
                    placement) for level in range(1, params.c_depth)),
            Level(params.c_depth, n, per_level, params.c_final, placement)]


def build_rho_design(params: RhoParams, n: int, key,
                     hash_mode: str = "full") -> TreeDesign:
    """The design of :func:`rho_levels` from the design key, or from
    several trials' key material one design of those trials."""
    return TreeDesign(n, params, level_stacks(rho_levels(params, n, hash_mode), key))


def decode_rho(design: TreeDesign, outcomes: OutcomeVector) -> tuple[tuple[int, ...], DecodeReport]:
    """Constant-depth descent: a mid-level node survives only if all N of its
    tests are positive; a singleton makes the estimate if none of its final
    tests is negative.  See :func:`splitgt.tree.decode_tree`."""
    return decode_tree(design, outcomes)
