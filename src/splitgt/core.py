"""Shared primitives for the pooling-design toolkit.

Houses the problem instance (item count, defective bound, hidden defective
set), the binary symmetric noise channel (one flip probability), the
keyed-randomness contract that makes every experiment reproducible, and the
outcome vector produced by running a non-adaptive design against an instance.

A *design* in this package is any object exposing three things:

  - ``n``: the item count it was built for,
  - ``layout``: an ordered tuple of ``(level, repetition, length)`` segments,
  - ``noiseless_grid(defectives, reuse=False)``: the noiseless outcome
    vectors of a batch of trials, trial b's defectives ``defectives[b]``, as
    a (trials x T) uint8 grid, one cell per test in layout order, 1 iff the
    test pools a defective item of that trial.  With ``reuse`` a design may
    return a grid that its next such call overwrites (see
    ``splitgt.tree.GRID``); without it, a fresh array.

``evaluate_batch`` works against that protocol and adds each row's own
channel noise (:func:`channel_flips`); ``evaluate_design`` is its batch of
one, as an :class:`OutcomeVector`.  Every scheme builds one
:class:`splitgt.tree.TreeDesign` from its levels, which looks its tests up
one level at a time: the three tree schemes, and the COMP/NCOMP baselines
as one counter-hashed level of singletons.  A design built from several
trials' keys at once evaluates them all in one call, one row per trial.
Every decoder reads such a grid through one reader,
:class:`splitgt.tree.Reads`, and reports a batch as one
:class:`BatchReport`, a trial as one :class:`DecodeReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_HIGH_SALT = 0xA5A5A5A5A5A5A5A5
# splitmix64's increment, the odd integer nearest 2^64 / golden ratio
PHI = 0x9E3779B97F4A7C15
_PHI64, _MIX1, _MIX2 = np.uint64(PHI), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


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
    x = (x + PHI) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` on a uint64 array; uint64 arithmetic wraps,
    which is the mod-2^64 the scalar form masks to."""
    x = x + _PHI64
    x ^= x >> _S30
    x *= _MIX1
    x ^= x >> _S27
    x *= _MIX2
    x ^= x >> _S31
    return x


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
    and its noise draws never share a stream.  A key's one 64-bit word
    (:meth:`words`, :meth:`materials`) mixes the seed and the stream path,
    and seeds the SplitMix64 counter stream (:func:`counter_stream`) from
    which a trial's defectives, its placements and its channel noise are
    taken.  :meth:`generator`, a counter-based Philox keyed by the 128-bit
    :meth:`material`, that word and its salted mix, draws nothing in a
    trial; it stays only as the benchmark tracer's ``core.generator`` target.
    """

    seed: int
    stream: tuple = ()

    def child(self, *tokens) -> "RandomnessKey":
        return RandomnessKey(self.seed, self.stream + tokens)

    def _state(self) -> int:
        state = _splitmix64(self.seed & _MASK64)
        for token in self.stream:
            state = _splitmix64(state ^ _splitmix64(_token_value(token)))
        return state

    def material(self) -> int:
        """128-bit key material derived from (seed, stream): the stream
        state low, its salted mix high."""
        state = self._state()
        return (_splitmix64(state ^ _HIGH_SALT) << 64) | state

    def words(self) -> np.ndarray:
        """The key's word, the low 64 bits of :meth:`material`, as a
        one-entry uint64 array: the one entry of :meth:`materials` that this
        key would be."""
        return np.array([self._state()], dtype=np.uint64)

    def materials(self, indices, *tokens) -> np.ndarray:
        """The word of ``self.child(i, *tokens)`` for every i of the integer
        array ``indices`` (see :meth:`words`), from one uint64 array
        program."""
        indices = np.asarray(indices).astype(np.uint64)  # wraps as int & (2^64 - 1)
        state = _splitmix64_array(np.uint64(self._state()) ^ _splitmix64_array(indices))
        for token in tokens:
            state = _splitmix64_array(state ^ np.uint64(_splitmix64(_token_value(token))))
        return state

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.material()))


def counter_stream(words: np.ndarray, count: int) -> np.ndarray:
    """Outputs 0 .. count - 1 of the SplitMix64 stream of every key whose
    word is an entry of the 1-D uint64 array ``words`` (see
    :meth:`RandomnessKey.materials`), as a (keys x count) uint64 array:
    output c of a key with word w is ``splitmix64(w + c * PHI)``, the stream
    the counter-hash placements read."""
    return _splitmix64_array(words[:, None] + np.arange(count, dtype=np.uint64) * _PHI64)


def channel_flips(p: float, words: np.ndarray, tests: int) -> np.ndarray:
    """Which of ``tests`` outcomes the symmetric channel of flip probability
    ``p`` flips for every key whose word is an entry of ``words``: a (keys x
    tests) bool array whose cell c is set iff output c of the key's
    :func:`counter_stream` is below floor(p * 2^64), which for a uniformly
    random key has probability floor(p * 2^64) / 2^64."""
    threshold = math.floor(p * 2.0 ** 64)  # exact: a float times a power of two
    if threshold > _MASK64:  # p = 1, whose threshold does not fit in uint64
        return np.ones((len(words), tests), dtype=bool)
    return counter_stream(words, tests) < np.uint64(threshold)


@dataclass(frozen=True)
class NoiseChannel:
    """Binary symmetric channel: every outcome flips with probability ``p``.

    The schemes are designed for flip probabilities below one half, which
    :meth:`symmetric` enforces; the constructor accepts all of [0, 1] only
    so degenerate channels (e.g. one that flips every outcome) can be
    expressed in tests.
    """

    p: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")

    @classmethod
    def symmetric(cls, p: float) -> "NoiseChannel":
        if not 0.0 <= p < 0.5:
            raise ValueError(f"symmetric noise level must lie in [0, 0.5), got {p}")
        return cls(p)

    @classmethod
    def noiseless(cls) -> "NoiseChannel":
        return cls()

    @property
    def is_noiseless(self) -> bool:
        return self.p == 0.0


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
    """The estimate and the cost counters that one decode observed.

    ``peak_frontier`` is the largest possibly-defective set the decode
    held; the harness adds it to the design's and the outcomes' storage
    (see ``bench._extend_records``).
    """

    estimate: tuple[int, ...]
    outcomes_read: int
    nodes_visited: int
    peak_frontier: int
    labels_computed: int = 0


@dataclass(frozen=True, eq=False)
class BatchReport:
    """What one decode of a batch of trials observed, as columns: trial b's
    estimate is ``estimate[bounds[b]:bounds[b + 1]]``, ascending, and its
    counters are entry b of the other arrays (see :class:`DecodeReport`)."""

    estimate: np.ndarray
    bounds: np.ndarray
    outcomes_read: np.ndarray
    nodes_visited: np.ndarray
    peak_frontier: np.ndarray
    labels_computed: np.ndarray

    def estimates(self) -> list[tuple[int, ...]]:
        """Every trial's estimate, from one ``tolist`` of each array."""
        estimate, bounds = self.estimate.tolist(), self.bounds.tolist()
        return [tuple(estimate[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    def report(self, b: int) -> DecodeReport:
        """Trial b's row."""
        lo, hi = self.bounds[b:b + 2].tolist()
        return DecodeReport(
            estimate=tuple(self.estimate[lo:hi].tolist()),
            outcomes_read=int(self.outcomes_read[b]),
            nodes_visited=int(self.nodes_visited[b]),
            peak_frontier=int(self.peak_frontier[b]),
            labels_computed=int(self.labels_computed[b]),
        )


def evaluate_design(design, instance: ProblemInstance, channel: NoiseChannel,
                    key: RandomnessKey, reuse: bool = False) -> OutcomeVector:
    """Run every test of a non-adaptive design against an instance: the one
    row of :func:`evaluate_batch` for a batch of one, with ``key``'s words
    as its noise key, and the same ``reuse``.  So outcomes are independent
    across tests and the whole vector is a pure function of (design,
    instance, channel, key).
    """
    if design.n != instance.n:
        raise ValueError(f"design built for n={design.n}, instance has n={instance.n}")
    (bits,) = evaluate_batch(design, (instance.defectives,), channel, key.words(), reuse)
    return OutcomeVector(bits=bits, layout=tuple(design.layout))


def evaluate_batch(design, defectives, channel: NoiseChannel, noise: np.ndarray,
                   reuse: bool = False) -> np.ndarray:
    """Run every test of a design against trial b's defectives
    ``defectives[b]``, for a design built for that batch of trials (see
    ``TreeDesign.noiseless_grid``, which ``reuse`` is passed to: a caller
    that sets it keeps the grid no longer than the next such call).

    Row b of the (trials x T) uint8 grid is trial b's noiseless bits, then
    its own channel noise: test c flips iff output c of the counter stream
    of the key whose word is entry b of ``noise`` (see
    :meth:`RandomnessKey.materials`) is below floor(p * 2^64); one
    :func:`channel_flips` covers the grid.
    """
    grid = design.noiseless_grid(defectives, reuse=reuse)
    if not channel.is_noiseless:
        grid ^= channel_flips(channel.p, noise, grid.shape[1])
    return grid
