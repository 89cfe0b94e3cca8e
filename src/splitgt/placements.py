"""Node-to-test placement primitives shared by all tree schemes.

A placement puts every node of a tree level into one test of a sequence of
``t_len`` tests.  Three hashed backings are provided, and each scheme's
``HASH_MODES`` picks one per hash mode, with its degree or accounting:

  - counter hash: node j of a repetition goes to test
    ``splitmix64(row_key + j * PHI) mod t_len``, the j-th output of a
    SplitMix stream keyed by the repetition.  It stands for the fully random
    placement the paper stores as an n-word table, and is accounted as that
    table (``storage_cost`` is one word per node), but the simulator
    computes a test only for the nodes it is asked about;
  - polynomial hash: degree-d polynomial over a prime field, reduced mod the
    sequence length -- d-wise independent, d + O(1) words of storage;
  - keyed permutation: a keyed Feistel bijection on the node ids with the
    low bits dropped, giving exact row weight and column weight one, the
    balanced placement of the rho scheme, accounted as the paper's stored
    n-word position table it stands for or as its round keys.

A level of a tree design holds all of its repetitions as one stack:
:class:`IdentityStack` for the individually tested top level, or
:class:`CounterHashStack`, :class:`PolynomialStack` or
:class:`PermutationStack`.  Every stack has ``num_nodes``, ``t_len``,
``reps`` and ``storage_cost`` (in machine words), and answers
``tests_of(nodes, reps)``, the tests of an int64 array of nodes under the
repetitions the slice ``reps`` selects, as a (repetitions x nodes) int64
array from one array operation: its only lookup, which the tests check
against pure-Python references from the stack's own keys
(``tests/scalar_reference.py``) that share no code with this module.

A hashed level's keys are the next slice of the design key's
:func:`row_keys`, so no design draws from a generator.  Given several
trials' design keys, :func:`row_keys` gives one row of keys per trial, and
every stack cut from them has keys with a leading trial axis, of length
``stack.trials``.  Such a stack's ``tests_of(nodes, reps, trials)`` takes
each node's keys from the trial ``trials`` names for it, so a batch of
trials is looked up at once.  A stack of one trial's keys, without that
axis, and the keyless :class:`IdentityStack` have ``trials`` None and
ignore the ``trials`` argument.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import (
    _MIX1,
    _MIX2,
    _PHI64,
    _S27,
    _S30,
    RandomnessKey,
    _splitmix64_array,
    counter_stream,
    is_power_of_two,
)

_MASK64 = (1 << 64) - 1


def _mod(values: np.ndarray, m: int) -> np.ndarray:
    """``values mod m`` for a uint64 array and 1 <= m < 2^64, exact, in a
    new array: ``values - (values // m) * m``.  numpy divides an array by
    one scalar as a multiply and a shift (libdivide, after Granlund and
    Montgomery, "Division by invariant integers using multiplication",
    1994), where ``%`` divides every lane in hardware; only on a few dozen
    lanes do the three array operations cost more than the one.  ``m`` goes
    in as an np.uint64, so that numpy 1.x's value-based casting cannot
    route the division through float64."""
    m = np.uint64(m)
    q = values // m
    q *= m
    return np.subtract(values, q, out=q)


def _mulmod(a: np.ndarray, b: np.ndarray, prime: int) -> np.ndarray:
    """a * b mod prime for uint64 arrays with entries below prime < 2^63.

    Below 2^32, a * b < prime^2 < 2^64 and one remainder does.  Above, b is
    multiplied in chunks of ``s = 64 - bits(prime)`` bits, high chunk first:
    a * chunk and the accumulator shifted by s bits stay below prime * 2^s
    <= 2^64, and the sum of two remainders below 2 * prime < 2^64, so no
    intermediate leaves uint64; each is reduced before the next.
    """
    bits = prime.bit_length()
    if 2 * bits <= 64:
        return _mod(a * b, prime)
    step = 64 - bits
    acc = np.zeros_like(a)
    hi = bits
    while hi > 0:
        lo = max(hi - step, 0)
        chunk = (b >> np.uint64(lo)) & np.uint64((1 << (hi - lo)) - 1)
        acc = _mod(_mod(acc << np.uint64(hi - lo), prime) + _mod(a * chunk, prime), prime)
        hi = lo
    return acc


# Miller-Rabin with the first twelve primes as bases is exact below this bound
# (Sorenson and Webster), far above the 2^63 the hashes need.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def _is_prime(m: int) -> bool:
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=1024)  # every trial of a config asks for the same primes
def smallest_prime_at_least(x: int) -> int:
    if x <= 2:
        return 2
    if x >= _MR_EXACT_BELOW:
        raise ValueError(f"{x} is beyond the exact range of the primality test")
    candidate = x if x % 2 else x + 1
    while not _is_prime(candidate):
        candidate += 2
    return candidate


def _reduce(values: np.ndarray, t_len: int) -> np.ndarray:
    """``values mod t_len`` for a uint64 array: by the mask ``t_len - 1``
    when t_len is a power of two, a bitwise and, and otherwise by
    :func:`_mod`."""
    if is_power_of_two(t_len):
        return values & np.uint64(t_len - 1)
    return _mod(values, t_len)


def _horner(coeffs, nodes: np.ndarray, prime: int, t_len: int) -> np.ndarray:
    """Polynomials at every node, mod ``prime`` and then mod ``t_len``, as
    int64.  ``coeffs`` runs from the highest degree down; each entry is a
    (rows x 1) column, one polynomial per row, or a (rows x nodes) matrix,
    one per lane, so the result is rows x nodes.  Nodes and coefficients lie
    below ``prime`` < 2^63.

    Below 2^32 the accumulator is reduced lazily: a step ``acc * x + c``
    takes a bound B on acc to (B + 1) * (prime - 1), and acc is reduced mod
    prime only before a step whose new bound would pass 2^64 - 1; after a
    reduction B = prime - 1, and prime * (prime - 1) < 2^64.  A 31-bit prime so
    reduces every second step, a 15-bit one every fourth (Thorup, "High
    Speed Hashing for Integers and Strings", 2015).  Larger primes reduce
    every step, products through :func:`_mulmod`.  The result is the same
    either way, as is ``& (t_len - 1)`` for ``% t_len`` at a power of two."""
    x = np.asarray(nodes, dtype=np.int64).view(np.uint64)
    coeffs = iter(coeffs)
    acc = next(coeffs) + np.zeros_like(x)  # a fresh rows x nodes array
    if 2 * prime.bit_length() > 64:
        for c in coeffs:
            acc = _mod(_mulmod(acc, x, prime) + c, prime)
    else:
        top = bound = prime - 1
        for c in coeffs:
            if (bound + 1) * top > _MASK64:
                acc = _mod(acc, prime)
                bound = top
            acc *= x
            acc += c
            bound = (bound + 1) * top
        acc = _mod(acc, prime)
    return _reduce(acc, t_len).view(np.int64)


class IdentityStack:
    """One repetition that tests every node individually, node j in test j:
    the top level of the gamma and rho trees."""

    def __init__(self, num_nodes: int):
        self.num_nodes = self.t_len = num_nodes
        self.reps = 1
        self.storage_cost = 1
        self.trials = None

    def test_of(self, node: int, rep: int) -> int:
        return node  # called by nothing: kept for the tracer's placements.lookups

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None),
                 trials: np.ndarray | None = None) -> np.ndarray:
        return np.asarray(nodes, dtype=np.int64).reshape(1, -1)[reps]


def _counter_hash(keys, nodes: np.ndarray, t_len: int) -> np.ndarray:
    """``splitmix64(key + node * PHI) mod t_len`` for every (key, node) pair
    the shapes of ``keys`` and ``nodes`` broadcast to, as int64.  The
    remainder of a uniform 64-bit value is biased by at most t_len / 2^64;
    at a power-of-two t_len it is the low bits, taken by a mask, and
    unbiased."""
    x = _splitmix64_array(keys + np.asarray(nodes, dtype=np.int64).view(np.uint64) * _PHI64)
    return _reduce(x, t_len).view(np.int64)


def feistel_rounds(bits: int) -> int:
    """Rounds of a keyed permutation of 2^bits nodes.  With the statistical
    tests of tests/test_permutation_stack.py (20,000 keys, alpha = 1e-6 per
    check), six rounds place two nodes jointly as a uniform permutation
    would from 2^6 nodes up, but not on 4 to 32 nodes, where the halves have
    at most three bits; 24 rounds do.  Four rounds fail on 2^6 to 2^11."""
    return 24 if bits < 6 else 6


def _permuted_tests(round_keys: np.ndarray, nodes, bits: int, shift: int) -> np.ndarray:
    """The tests of ``nodes`` under keyed bijections of [0, 2^bits) with the
    low ``shift`` bits dropped, as int64.

    Each bijection is an unbalanced Feistel network: the low ceil(bits/2)
    and the high floor(bits/2) bits swap roles each round, and round r xors
    the high part with the top bits of ``mix(round_keys[..., r] + low)``,
    ``mix`` being splitmix64's finaliser up to its last xorshift (which only
    folds high bits into low ones).  Every round is a bijection of [0,
    2^bits), so no lane ever leaves the domain.  The leading axes of
    ``round_keys`` broadcast against ``nodes``: a (repetitions x 1 x rounds)
    matrix gives a (repetitions x nodes) grid.
    """
    lo_bits = (bits + 1) // 2
    hi_bits = bits - lo_bits
    x = np.asarray(nodes).astype(np.uint64)
    hi, lo = x >> np.uint64(lo_bits), x & np.uint64((1 << lo_bits) - 1)
    for r in range(round_keys.shape[-1]):
        f = lo + round_keys[..., r]
        f ^= f >> _S30
        f *= _MIX1
        f ^= f >> _S27
        f *= _MIX2
        f >>= np.uint64(64 - hi_bits)  # a shift by 64 gives 0
        f ^= hi
        hi, lo = lo, f
        hi_bits, lo_bits = lo_bits, hi_bits
    return (((hi << np.uint64(lo_bits)) | lo) >> np.uint64(shift)).view(np.int64)


def _check_t_len(t_len: int) -> None:
    if not 1 <= t_len < 1 << 63:
        raise ValueError(f"t_len must lie in [1, 2^63), got {t_len}")


class CounterHashStack:
    """``reps`` fully random placements of the same nodes: repetition r puts
    node j into test ``splitmix64(keys[r] + j * PHI) mod t_len``.  Each
    repetition is accounted as the n-word table of the paper's algorithm
    that the hash stands for.  A stack of several trials holds one row of
    keys per trial."""

    def __init__(self, num_nodes: int, t_len: int, keys: np.ndarray):
        _check_t_len(t_len)
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.keys = keys
        self.reps = keys.shape[-1]
        self.storage_cost = self.reps * num_nodes
        self.trials = len(keys) if keys.ndim == 2 else None

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None),
                 trials: np.ndarray | None = None) -> np.ndarray:
        keys = (self.keys[reps, None] if self.trials is None
                else self.keys[:, reps].take(trials, 0).T)
        return _counter_hash(keys, nodes, self.t_len)


class PolynomialStack:
    """``reps`` degree-d polynomial hashes of the same nodes over a prime
    field, reduced mod t_len.  Repetition r's coefficient i, from the
    constant term up, is the 128-bit number of row keys ``keys[r, 2i]``
    (high) and ``keys[r, 2i + 1]`` (low) mod the prime: uniform on the
    field up to a bias of prime / 2^128, where one word mod a prime near
    2^62 would be off by about 1/4.

    d coefficients give d-wise independence over the field; the final
    modular reduction adds a bias of at most t_len/prime per bucket, which
    is negligible for the primes used here (>= num_nodes).  ``tests_of`` is
    one Horner pass over the (repetitions x nodes) grid.  A stack of
    several trials holds one key matrix per trial.
    """

    def __init__(self, num_nodes: int, t_len: int, keys: np.ndarray):
        degree = keys.shape[-1] // 2
        if degree < 2:
            raise ValueError(f"independence degree must be >= 2, got {degree}")
        _check_t_len(t_len)
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.keys = keys
        self.reps = keys.shape[-2]
        self.trials = len(keys) if keys.ndim == 3 else None
        self.prime = smallest_prime_at_least(max(num_nodes, t_len, 2))
        if self.prime >= 1 << 63:
            raise ValueError(f"num_nodes={num_nodes} and t_len={t_len} must stay below 2^63")
        hi, lo = _mod(keys[..., 0::2], self.prime), _mod(keys[..., 1::2], self.prime)
        self.coeffs = _mod(_mulmod(hi, np.uint64((1 << 64) % self.prime), self.prime) + lo,
                           self.prime)
        self.storage_cost = self.reps * (degree + 2)

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None),
                 trials: np.ndarray | None = None) -> np.ndarray:
        if self.trials is None:
            coeffs = self.coeffs[reps].T[::-1, :, None]
        else:  # one degree's coefficients of every node at a time
            rows = self.coeffs[:, reps]
            coeffs = (rows[..., i].take(trials, 0).T for i in reversed(range(rows.shape[-1])))
        return _horner(coeffs, nodes, self.prime, self.t_len)


class PermutationStack:
    """``reps`` balanced placements of the same nodes: repetition r is the
    keyed bijection of the node ids with round keys ``round_keys[r]``, its
    low log2(num_nodes / t_len) bits dropped (see :func:`_permuted_tests`),
    so every test gets exactly num_nodes / t_len nodes.  Node and test
    counts are powers of two.  A repetition is accounted as the n-word
    position table of the paper's stored balanced placement when ``full``
    is set, as the counter hash is, and as its round keys plus two words
    otherwise.  A stack of several trials holds one round-key matrix per
    trial."""

    def __init__(self, num_nodes: int, t_len: int, round_keys: np.ndarray, full: bool):
        if not (is_power_of_two(num_nodes) and is_power_of_two(t_len)):
            raise ValueError("num_nodes and t_len must be powers of two")
        if t_len > num_nodes:
            raise ValueError(f"t_len={t_len} exceeds num_nodes={num_nodes}")
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.round_keys = round_keys
        self.reps = round_keys.shape[-2]
        self.trials = len(round_keys) if round_keys.ndim == 3 else None
        self.bits = num_nodes.bit_length() - 1
        self.shift = self.bits - (t_len.bit_length() - 1)
        self.storage_cost = self.reps * (num_nodes if full else round_keys.shape[-1] + 2)

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None),
                 trials: np.ndarray | None = None) -> np.ndarray:
        round_keys = (self.round_keys[reps, None, :] if self.trials is None
                      else self.round_keys[:, reps].take(trials, 0).transpose(1, 0, 2))
        return _permuted_tests(round_keys, nodes, self.bits, self.shift)


def row_keys(key, count: int) -> np.ndarray:
    """The keys of a design's ``count`` counter-hashed rows: outputs
    0 .. count - 1 of the design key's counter stream, splitmix64 over the
    row ids offset by the low 64 bits of its material.  ``key`` is a
    :class:`RandomnessKey`, or the material words of several trials' design
    keys (rows of :meth:`RandomnessKey.materials`), which give one row of
    keys per trial."""
    if isinstance(key, RandomnessKey):
        return counter_stream(key.words(), count)[0]
    return counter_stream(key, count)


def _cut(keys: np.ndarray, shapes):
    """The last axis of ``keys`` cut in order into consecutive blocks of the
    given shapes, any leading (trial) axis kept: a loop of slices, which at
    a design's few levels costs less than ``np.split``."""
    first, lead = 0, keys.shape[:-1]
    for shape in shapes:
        size = math.prod(shape)
        yield keys[..., first:first + size].reshape(lead + shape)
        first += size


def uniform_style_stacks(shapes, key, degree: int | None) -> list:
    """One stack per ``(num_nodes, t_len, reps)`` in ``shapes``: the
    independently-placed levels of one design, all from the design key; from
    several trials' key material (see :func:`row_keys`), stacks of those
    trials.

    ``degree`` None gives counter hashes, one row key per repetition; a
    degree d >= 2 gives polynomial hashes of degree d, 2d row keys per
    repetition.  Either way the levels' keys are cut in order from one
    :func:`row_keys` call on the design key.
    """
    stack, row = (CounterHashStack, ()) if degree is None else (PolynomialStack, (2 * degree,))
    blocks = [(reps, *row) for _, _, reps in shapes]
    keys = row_keys(key, sum(map(math.prod, blocks)))
    return [stack(num_nodes, t_len, level_keys)
            for (num_nodes, t_len, _), level_keys in zip(shapes, _cut(keys, blocks))]


def balanced_stacks(shapes, key, full: bool) -> list:
    """One :class:`PermutationStack` per ``(num_nodes, t_len, reps)`` in
    ``shapes``: the balanced levels of one design, their round keys cut in
    order from one :func:`row_keys` call on the design key (or on several
    trials' key material, for stacks of those trials), each accounted as
    the stored position table if ``full`` is set (see
    :class:`PermutationStack`)."""
    blocks = [(reps, feistel_rounds(num_nodes.bit_length() - 1))
              for num_nodes, _, reps in shapes]
    keys = row_keys(key, sum(map(math.prod, blocks)))
    return [PermutationStack(num_nodes, t_len, round_keys, full)
            for (num_nodes, t_len, _), round_keys in zip(shapes, _cut(keys, blocks))]
