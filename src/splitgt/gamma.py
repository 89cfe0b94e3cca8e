"""Scheme for finitely divisible items: each item joins at most ``gamma`` tests.

The design is a tree of height ``gamma_prime <= gamma``.  Level 1 tests each
of the n/M size-M nodes individually; levels 2..gamma_prime-1 place each node
into one uniformly chosen test of a per-level sequence; the final level runs
``gamma - gamma_prime + 1`` independent sequences over the singletons.  An
item is therefore pooled once per tree level plus once per final sequence:
exactly the gamma budget.  :func:`gamma_levels` states these levels once,
for the builder and the harness's size rule, and ``HASH_MODES`` maps each
hash mode to the hashed levels' placement at the params: the counter hash,
or a polynomial of degree gamma (``kwise``) or two (``pairwise``).

The decoder walks the tree breadth-first, only ever reading the tests of
nodes that are still possibly defective, which is what makes its cost scale
with k rather than with the number of tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DecodeReport, OutcomeVector, is_power_of_two
from .placements import COUNTER_HASH, IDENTITY, Level, level_stacks, polynomial
from .tree import TreeDesign, decode_tree, placement_of

HASH_MODES = {"full": lambda params: COUNTER_HASH,
              "kwise": lambda params: polynomial(params.gamma),
              "pairwise": lambda params: polynomial(2)}
DEFAULT_C_CONST = 8.0  # smallest integer above e**2, the analysis floor
MIN_C_CONST = math.e ** 2


def default_beta(n: int) -> float:
    """Committed default target error term: one over (log2 n) squared."""
    return 1.0 / (math.log2(n) ** 2)


def theta_of(n: int, k: int) -> float:
    """Density exponent of the defective bound: log(k) / log(n)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return math.log(k) / math.log(n)


def _objective(gamma: int, gamma_prime: int, theta: float) -> float:
    tail = gamma - gamma_prime + 1
    return max(
        (1.0 - theta) / gamma_prime,
        theta / tail + (1.0 - theta) / (gamma_prime * tail),
    )


def select_gamma_prime(gamma: int, theta: float) -> int:
    """Tree height minimising the test-count exponent at density theta.

    The exponent is convex in the height, so only the floor and ceiling of
    the unconstrained optimum (1 - theta) * gamma need to be compared; below
    the valid range the answer is pinned to 3.  Ties go to the smaller height.
    """
    if gamma < 3:
        raise ValueError(f"gamma must be at least 3, got {gamma}")
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must lie in [0, 1), got {theta}")
    target = (1.0 - theta) * gamma
    if target < 3:
        return 3
    candidates = sorted({int(math.floor(target)), int(math.ceil(target))})
    return min(candidates, key=lambda gp: (_objective(gamma, gp, theta), gp))


@dataclass(frozen=True)
class GammaParams:
    gamma: int
    gamma_prime: int
    branching: int       # per-level fan-out b, a power of two
    level1_size: int     # M = b ** (gamma_prime - 1)
    t_len: int
    t_len_prime: int
    t_len_dprime: int
    c_const: float
    beta_n: float

    @property
    def final_reps(self) -> int:
        return self.gamma - self.gamma_prime + 1


def gamma_params(
    n: int,
    k: int,
    gamma: int,
    beta_n: float | None = None,
    c_const: float = DEFAULT_C_CONST,
    gamma_prime: int | None = None,
) -> GammaParams:
    """Pick all sequence lengths for a rounded (n, k) instance.

    The branching factor is rounded up to a power of two so node boundaries
    stay aligned; the final-level sequence length then absorbs the slack.
    """
    if not (is_power_of_two(n) and is_power_of_two(k) and k < n):
        raise ValueError("expected power-of-two n and k with k < n (round first)")
    if gamma < 3:
        raise ValueError(f"gamma must be at least 3, got {gamma}")
    if beta_n is None:
        beta_n = default_beta(n)
    if not 0.0 < beta_n <= 1.0:
        raise ValueError(f"beta_n must lie in (0, 1], got {beta_n}")
    if c_const < MIN_C_CONST:
        raise ValueError(f"c_const must be at least e^2 ~ {MIN_C_CONST:.3f}, got {c_const}")
    if gamma_prime is None:
        gamma_prime = select_gamma_prime(gamma, theta_of(n, k))
    if not 3 <= gamma_prime <= gamma:
        raise ValueError(f"gamma_prime must lie in [3, {gamma}], got {gamma_prime}")

    b = 1 << math.ceil(math.log2(n // k) / gamma_prime)
    m = b ** (gamma_prime - 1)
    if m > n:
        raise ValueError(
            f"level-1 node size {m} exceeds n={n}; lower gamma_prime or raise k"
        )
    tail = gamma - gamma_prime + 1
    t_len = math.ceil(c_const * k * b)
    t_len_prime = gamma_prime * k * b
    t_len_dprime = math.ceil(
        k * (k / beta_n) ** (1.0 / tail) * (n / k) ** (1.0 / (gamma_prime * tail))
    )
    return GammaParams(
        gamma=gamma,
        gamma_prime=gamma_prime,
        branching=b,
        level1_size=m,
        t_len=t_len,
        t_len_prime=t_len_prime,
        t_len_dprime=t_len_dprime,
        c_const=c_const,
        beta_n=beta_n,
    )


def gamma_total_tests(params: GammaParams, n: int) -> int:
    """Closed-form segment sum for the whole design."""
    mid = (params.gamma_prime - 3) * params.t_len
    return (
        n // params.level1_size
        + mid
        + params.t_len_prime
        + params.final_reps * params.t_len_dprime
    )


def gamma_levels(params: GammaParams, n: int, hash_mode: str = "full") -> list[Level]:
    """The gamma tree's levels: level 1 tests its n/M nodes individually,
    each of levels 2..gamma_prime-1 places every node once (sequences of
    length t_len, then t_len_prime), and the singleton level places every
    item in each of ``final_reps`` sequences of length t_len_dprime, every
    hashed level by the placement ``HASH_MODES`` maps the mode to."""
    placement = placement_of(HASH_MODES, hash_mode)(params)
    gp, top = params.gamma_prime, n // params.level1_size
    return [Level(1, top, top, 1, IDENTITY),
            *(Level(level, top * params.branching ** (level - 1),
                    params.t_len if level < gp - 1 else params.t_len_prime, 1, placement)
              for level in range(2, gp)),
            Level(gp, n, params.t_len_dprime, params.final_reps, placement)]


def build_gamma_design(params: GammaParams, n: int, key,
                       hash_mode: str = "full") -> TreeDesign:
    """The design of :func:`gamma_levels` from the design key, or from
    several trials' key material one design of those trials."""
    return TreeDesign(n, params, level_stacks(gamma_levels(params, n, hash_mode), key))


def decode_gamma(design: TreeDesign,
                 outcomes: OutcomeVector) -> tuple[tuple[int, ...], DecodeReport]:
    """Walk the tree top-down, reading only tests of surviving nodes.

    A level-1 node survives if its individual test is positive; a mid-level
    node survives if its single test is positive; a singleton makes the
    estimate if none of its final-level tests is negative.  See
    :func:`splitgt.tree.decode_tree`.
    """
    return decode_tree(design, outcomes)
