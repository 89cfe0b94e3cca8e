"""Shared primitives for the pooling-design toolkit.

Houses the problem instance (item count, defective bound, hidden defective
set), the binary noise channel, the keyed-randomness contract that makes
every experiment reproducible, and the outcome vector produced by running a
non-adaptive design against an instance.

A *design* in this package is any object exposing three things:

  - ``n``: the item count it was built for,
  - ``layout``: an ordered tuple of ``(level, repetition, length)`` segments,
  - ``noiseless_bits(defectives)``: the whole noiseless outcome vector, one
    uint8 per test in layout order, 1 iff the test pools a defective item.

``evaluate_design`` works against that protocol, so the tree schemes and the
flat baseline designs share one evaluation path.  The three tree schemes
build one :class:`splitgt.tree.TreeDesign` each, from their levels; it
looks tests up one at a time or one level at a time, whichever the number
of lookups favours.  The flat baselines build a
:class:`splitgt.baselines.FlatDesign`, a boolean incidence matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def is_power_of_two(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def next_power_of_two(x: int) -> int:
    if x < 1:
        raise ValueError(f"expected a positive integer, got {x}")
    return 1 << (x - 1).bit_length()


def prev_power_of_two(x: int) -> int:
    if x < 1:
        raise ValueError(f"expected a positive integer, got {x}")
    return 1 << (x.bit_length() - 1)


def round_instance(
    n_raw: int, k_raw: int, rho_raw: Optional[int] = None
) -> tuple[int, int, Optional[int]]:
    """Round a raw problem to the power-of-two grid the designs assume.

    The item count and the defective bound are rounded up (items gained this
    way are dummy non-defectives appended at the high end of the id range);
    a per-test size cap is rounded down so it stays a valid cap.
    """
    if n_raw < 2:
        raise ValueError(f"n must be at least 2, got {n_raw}")
    if k_raw < 1:
        raise ValueError(f"k must be at least 1, got {k_raw}")
    if k_raw > n_raw:
        raise ValueError(f"k={k_raw} exceeds n={n_raw}")
    n = next_power_of_two(n_raw)
    k = min(next_power_of_two(k_raw), n)
    rho = None
    if rho_raw is not None:
        if rho_raw < 1:
            raise ValueError(f"rho must be positive, got {rho_raw}")
        rho = prev_power_of_two(rho_raw)
    return n, k, rho


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _token_value(token) -> int:
    if isinstance(token, str):
        h = _FNV_OFFSET
        for b in token.encode("utf-8"):
            h = ((h ^ b) * _FNV_PRIME) & _MASK64
        return h
    if isinstance(token, (int, np.integer)):
        return int(token) & _MASK64
    raise TypeError(f"stream tokens must be int or str, got {type(token)!r}")


@dataclass(frozen=True)
class RandomnessKey:
    """Seed plus a stream path; equal keys give bit-identical draws.

    Substreams are derived with :meth:`child`, so e.g. the design of trial 17
    and its noise draws never share a generator.  The generator itself is a
    counter-based Philox keyed by a mix of the seed and the stream path.
    """

    seed: int
    stream: tuple = ()

    def child(self, *tokens) -> "RandomnessKey":
        return RandomnessKey(self.seed, self.stream + tokens)

    def material(self) -> int:
        """128-bit key material derived from (seed, stream)."""
        state = _splitmix64(self.seed & _MASK64)
        for token in self.stream:
            state = _splitmix64(state ^ _splitmix64(_token_value(token)))
        return (_splitmix64(state ^ 0xA5A5A5A5A5A5A5A5) << 64) | state

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.material()))


@dataclass(frozen=True)
class NoiseChannel:
    """Binary channel flipping a 0-outcome with prob p01 and a 1-outcome
    with prob p10.

    The schemes are designed for flip probabilities below one half; larger
    values are accepted only so degenerate channels (e.g. an always-flipped
    positive) can be expressed in tests.
    """

    p01: float = 0.0
    p10: float = 0.0

    def __post_init__(self):
        for name, p in (("p01", self.p01), ("p10", self.p10)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")

    @classmethod
    def symmetric(cls, p: float) -> "NoiseChannel":
        if not 0.0 <= p < 0.5:
            raise ValueError(f"symmetric noise level must lie in [0, 0.5), got {p}")
        return cls(p01=p, p10=p)

    @classmethod
    def noiseless(cls) -> "NoiseChannel":
        return cls()

    @property
    def is_noiseless(self) -> bool:
        return self.p01 == 0.0 and self.p10 == 0.0


@dataclass(frozen=True)
class ProblemInstance:
    """Item count, defective bound, and the hidden defective set.

    Both ``n`` and ``k`` must be powers of two (use :func:`round_instance`
    first); ``k`` is an upper bound, so fewer than ``k`` defectives is fine.
    """

    n: int
    k: int
    defectives: tuple[int, ...]

    def __post_init__(self):
        if not is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two, got {self.n}")
        if not is_power_of_two(self.k):
            raise ValueError(f"k must be a power of two, got {self.k}")
        if self.k >= self.n:
            raise ValueError(f"k={self.k} must be smaller than n={self.n}")
        norm = tuple(sorted(set(int(d) for d in self.defectives)))
        if len(norm) != len(self.defectives):
            raise ValueError("defectives must be duplicate-free")
        object.__setattr__(self, "defectives", norm)
        if len(norm) > self.k:
            raise ValueError(f"{len(norm)} defectives exceed the bound k={self.k}")
        if norm and (norm[0] < 0 or norm[-1] >= self.n):
            raise ValueError(f"defective ids must lie in [0, {self.n})")


@dataclass(frozen=True, eq=False)
class OutcomeVector:
    """All test results of one design evaluation, in layout order."""

    bits: np.ndarray
    layout: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if len({(level, rep) for level, rep, _ in self.layout}) != len(self.layout):
            pairs = [(level, rep) for level, rep, _ in self.layout]
            duplicate = next(pair for i, pair in enumerate(pairs) if pair in pairs[:i])
            raise ValueError(f"duplicate segment {duplicate}")
        total = sum(length for _, _, length in self.layout)
        if total != len(self.bits):
            raise ValueError(
                f"layout totals {total} tests but {len(self.bits)} bits given"
            )
        self.bits.flags.writeable = False

    @cached_property
    def _offsets(self) -> dict:
        """(level, rep) -> (first test, length), built on the first lookup:
        a decoder that reads the bits as one array never needs it."""
        offsets, total = {}, 0
        for level, rep, length in self.layout:
            offsets[(level, rep)] = (total, length)
            total += length
        return offsets

    @property
    def t_total(self) -> int:
        return len(self.bits)

    def get(self, level: int, rep: int, index: int) -> int:
        offset, length = self._offsets[(level, rep)]
        if not 0 <= index < length:
            raise IndexError(f"test {index} out of range for segment ({level}, {rep})")
        return int(self.bits[offset + index])

    def segment(self, level: int, rep: int) -> np.ndarray:
        offset, length = self._offsets[(level, rep)]
        return self.bits[offset : offset + length]


@dataclass(frozen=True)
class DecodeReport:
    """Cost counters and the estimate produced by one decode.

    ``exact_match`` is filled by the harness (decoders never see the true
    defective set); ``storage_words`` follows the accounting used throughout:
    placement storage + peak possibly-defective set + outcome bits in words.
    """

    estimate: tuple[int, ...]
    outcomes_read: int
    nodes_visited: int
    wall_nanos: int
    storage_words: int
    labels_computed: int = 0
    exact_match: Optional[bool] = None

    def with_match(self, defectives: Iterable[int]) -> "DecodeReport":
        return replace(self, exact_match=(set(self.estimate) == set(defectives)))


def evaluate_design(design, instance: ProblemInstance, channel: NoiseChannel,
                    key: RandomnessKey) -> OutcomeVector:
    """Run every test of a non-adaptive design against an instance.

    One bit per test in layout order: the design's ``noiseless_bits``, then
    the channel noise as one ``random(T)`` draw from ``key``'s generator, so
    outcomes are independent across tests and the whole vector is a pure
    function of (design, instance, channel, key).
    """
    if design.n != instance.n:
        raise ValueError(f"design built for n={design.n}, instance has n={instance.n}")
    bits = design.noiseless_bits(instance.defectives)
    if not channel.is_noiseless:
        u = key.generator().random(len(bits))
        flips = np.where(bits == 1, u < channel.p10, u < channel.p01)
        bits ^= flips.astype(np.uint8)
    return OutcomeVector(bits=bits, layout=tuple(design.layout))
