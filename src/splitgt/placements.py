"""Node-to-test placement primitives shared by all tree schemes.

A placement puts every node of a tree level into one test of a sequence of
``t_len`` tests.  Three hashed backings are provided:

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
    balanced placement of the rho scheme.  In ``full`` mode it stands for
    the paper's stored n-word position table and is accounted as that, in
    the low-storage modes as its round keys.

A level of a tree design holds all of its repetitions as one stack:
:class:`IdentityStack` for the individually tested top level, or
:class:`CounterHashStack`, :class:`PolynomialStack` or
:class:`PermutationStack`.  Every stack has ``num_nodes``, ``t_len``,
``reps`` and ``storage_cost`` (in machine words), and answers
``test_of(node, rep)``, the test of one node under one repetition in
pure-Python integers, and ``tests_of(nodes, reps)``, the tests of an int64
array of nodes under the repetitions the slice ``reps`` selects, as a
(repetitions x nodes) int64 array from one array operation.

:func:`trial_stack` joins the same level of several trials' designs into one
hashed stack whose keys or coefficients gain a leading trial axis; its
``tests_of(nodes, reps, trials)`` takes each node's keys from the trial
``trials`` names for it, so a batch of trials is looked up at once.  A stack
of one trial's keys, without that axis, ignores ``trials``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .core import RandomnessKey, _splitmix64, is_power_of_two

HASH_MODES = ("full", "kwise", "pairwise", "permutation")
# splitmix64's increment, the odd integer nearest 2^64 / golden ratio
PHI = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_PHI64, _MIX1, _MIX2 = np.uint64(PHI), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64 <splitgt.core._splitmix64>` on a uint64 array;
    uint64 arithmetic wraps, which is the mod-2^64 the scalar form masks to."""
    x = x + _PHI64
    x ^= x >> _S30
    x *= _MIX1
    x ^= x >> _S27
    x *= _MIX2
    x ^= x >> _S31
    return x


def _mulmod(a: np.ndarray, b: np.ndarray, prime: int) -> np.ndarray:
    """a * b mod prime for uint64 arrays with entries below prime < 2^63.

    Multiplies b in chunks of ``64 - bits(prime)`` bits, high chunk first, so
    no intermediate product or sum leaves uint64.
    """
    bits = prime.bit_length()
    p = np.uint64(prime)
    if 2 * bits <= 64:
        return a * b % p
    step = 64 - bits
    acc = np.zeros_like(a)
    hi = bits
    while hi > 0:
        lo = max(hi - step, 0)
        chunk = (b >> np.uint64(lo)) & np.uint64((1 << (hi - lo)) - 1)
        acc = ((acc << np.uint64(hi - lo)) % p + a * chunk % p) % p
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


def _horner(coeffs, nodes: np.ndarray, prime: int, t_len: int) -> np.ndarray:
    """Polynomials at every node, mod ``prime`` and then mod ``t_len``, as
    int64.  ``coeffs`` runs from the highest degree down; each entry is a
    (rows x 1) column, one polynomial per row, so the result is rows x
    nodes.  Exact for every prime below 2^63: products go through
    :func:`_mulmod`."""
    x = np.asarray(nodes, dtype=np.int64).view(np.uint64)
    p = np.uint64(prime)
    acc = np.zeros_like(x)
    for c in coeffs:
        acc = (_mulmod(acc, x, prime) + c) % p
    return (acc % np.uint64(t_len)).astype(np.int64)


class IdentityStack:
    """One repetition that tests every node individually, node j in test j:
    the top level of the gamma and rho trees."""

    def __init__(self, num_nodes: int):
        self.num_nodes = self.t_len = num_nodes
        self.reps = 1
        self.storage_cost = 1

    def test_of(self, node: int, rep: int) -> int:
        return node

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None)) -> np.ndarray:
        return np.asarray(nodes, dtype=np.int64).reshape(1, -1)[reps]


def _counter_hash(keys, nodes: np.ndarray, t_len: int) -> np.ndarray:
    """``splitmix64(key + node * PHI) mod t_len`` for every (key, node) pair
    the shapes of ``keys`` and ``nodes`` broadcast to, as int64.  The
    remainder of a uniform 64-bit value is biased by at most t_len / 2^64."""
    x = _splitmix64_array(keys + np.asarray(nodes, dtype=np.int64).view(np.uint64) * _PHI64)
    return (x % np.uint64(t_len)).view(np.int64)


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
    that the hash stands for.  A :func:`trial_stack` holds one row of keys
    per trial."""

    def __init__(self, num_nodes: int, t_len: int, keys: np.ndarray):
        _check_t_len(t_len)
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.keys = keys
        self.reps = keys.shape[-1]
        self.storage_cost = self.reps * num_nodes

    @cached_property
    def _scalar_keys(self) -> tuple:
        return tuple(self.keys.tolist())

    def test_of(self, node: int, rep: int) -> int:
        # pure-Python integers: a scalar lookup stays about a microsecond
        return _splitmix64(self._scalar_keys[rep] + node * PHI) % self.t_len

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None),
                 trials: np.ndarray | None = None) -> np.ndarray:
        keys = (self.keys[reps, None] if self.keys.ndim == 1
                else self.keys[:, reps].take(trials, 0).T)
        return _counter_hash(keys, nodes, self.t_len)


class PolynomialStack:
    """``reps`` degree-d polynomial hashes of the same nodes over a prime
    field, reduced mod t_len: one prime and one (reps x degree) coefficient
    matrix drawn from one generator, row r holding repetition r's
    coefficients from the constant term up.

    d coefficients give d-wise independence over the field; the final
    modular reduction adds a bias of at most t_len/prime per bucket, which
    is negligible for the primes used here (>= num_nodes).  ``tests_of`` is
    one Horner pass over the (repetitions x nodes) grid.  A
    :func:`trial_stack` holds one coefficient matrix per trial.
    """

    def __init__(self, num_nodes: int, t_len: int, reps: int, degree: int,
                 rng: np.random.Generator):
        if degree < 2:
            raise ValueError(f"independence degree must be >= 2, got {degree}")
        _check_t_len(t_len)
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.reps = reps
        self.prime = smallest_prime_at_least(max(num_nodes, t_len, 2))
        if self.prime >= 1 << 63:
            raise ValueError(f"num_nodes={num_nodes} and t_len={t_len} must stay below 2^63")
        self.coeffs = rng.integers(0, self.prime, size=(reps, degree)).astype(np.uint64)
        self.storage_cost = reps * (degree + 2)

    @cached_property
    def _scalar_coeffs(self) -> tuple:
        # per repetition, highest degree first, as Horner's rule takes them
        return tuple(tuple(row[::-1]) for row in self.coeffs.tolist())

    def test_of(self, node: int, rep: int) -> int:
        acc = 0
        for c in self._scalar_coeffs[rep]:
            acc = (acc * node + c) % self.prime
        return acc % self.t_len

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None),
                 trials: np.ndarray | None = None) -> np.ndarray:
        coeffs = (self.coeffs[reps].T[::-1, :, None] if self.coeffs.ndim == 2
                  else self.coeffs[:, reps].take(trials, 0).transpose(2, 1, 0)[::-1])
        return _horner(coeffs, nodes, self.prime, self.t_len)


class PermutationStack:
    """``reps`` balanced placements of the same nodes: repetition r is the
    keyed bijection of the node ids with round keys ``round_keys[r]``, its
    low log2(num_nodes / t_len) bits dropped (see :func:`_permuted_tests`),
    so every test gets exactly num_nodes / t_len nodes.  Node and test
    counts are powers of two.  A repetition is accounted as the n-word
    position table of the paper's stored balanced placement when ``full``
    is set, as the counter hash is, and as its round keys plus two words
    otherwise."""

    def __init__(self, num_nodes: int, t_len: int, round_keys: np.ndarray, full: bool):
        if not (is_power_of_two(num_nodes) and is_power_of_two(t_len)):
            raise ValueError("num_nodes and t_len must be powers of two")
        if t_len > num_nodes:
            raise ValueError(f"t_len={t_len} exceeds num_nodes={num_nodes}")
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.round_keys = round_keys
        self.reps = len(round_keys)
        self.bits = num_nodes.bit_length() - 1
        self.shift = self.bits - (t_len.bit_length() - 1)
        self.storage_cost = self.reps * (num_nodes if full else round_keys.shape[1] + 2)

    @cached_property
    def _scalar_keys(self) -> tuple:
        return tuple(tuple(row) for row in self.round_keys.tolist())

    def test_of(self, node: int, rep: int) -> int:
        # pure-Python integers: a scalar lookup stays a few microseconds
        lo_bits = (self.bits + 1) // 2
        hi_bits = self.bits - lo_bits
        hi, lo = node >> lo_bits, node & ((1 << lo_bits) - 1)
        for rk in self._scalar_keys[rep]:
            f = (rk + lo) & _MASK64
            f = ((f ^ (f >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            f = ((f ^ (f >> 27)) * 0x94D049BB133111EB) & _MASK64
            hi, lo = lo, hi ^ (f >> (64 - hi_bits))
            hi_bits, lo_bits = lo_bits, hi_bits
        return ((hi << lo_bits) | lo) >> self.shift

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None)) -> np.ndarray:
        return _permuted_tests(self.round_keys[reps, None, :], nodes, self.bits, self.shift)


def trial_stack(stacks):
    """The same level of several trials' designs as one stack: a copy of
    the first whose counter-hash keys or polynomial coefficients are the
    trials' own, stacked along a new leading trial axis.  Its ``tests_of``
    takes a ``trials`` array, one trial index per node, and gathers each
    node's keys from its trial; ``test_of`` is not defined on it.  The
    stack of a single trial is that trial's own stack."""
    first = stacks[0]
    if len(stacks) == 1:
        return first
    batch = object.__new__(type(first))  # a copy without the scalar caches
    vars(batch).update((name, value) for name, value in vars(first).items()
                       if not name.startswith("_"))
    if isinstance(first, CounterHashStack):
        batch.keys = np.stack([stack.keys for stack in stacks])
    elif isinstance(first, PolynomialStack):
        batch.coeffs = np.stack([stack.coeffs for stack in stacks])
    else:
        raise TypeError(f"{type(first).__name__} has no per-trial keys to stack")
    return batch


def row_keys(key: RandomnessKey, count: int) -> np.ndarray:
    """The keys of a design's ``count`` counter-hashed rows: splitmix64 over
    the row ids 0 .. count - 1, offset by the low 64 bits of the design
    key's material."""
    base = np.uint64(key.material() & _MASK64)
    return _splitmix64_array(base + np.arange(count, dtype=np.uint64) * _PHI64)


def _cut(keys: np.ndarray, counts):
    """``keys`` cut in order into consecutive slices of the given lengths:
    a loop of slices, which at a design's few levels costs less than
    ``np.split``."""
    first = 0
    for count in counts:
        yield keys[first:first + count]
        first += count


def uniform_style_stacks(shapes, key: RandomnessKey, hash_mode: str,
                         kwise_degree: int = 2) -> list:
    """One stack per ``(num_nodes, t_len, reps)`` in ``shapes``: the
    independently-placed levels of one design, all from the design key, per
    the hash-mode switch.

    ``full`` is a counter hash whose row keys are drawn once for all of the
    design's rows, in order; ``kwise`` is a polynomial hash of the supplied
    degree and ``pairwise`` one of degree two, their coefficients drawn level
    by level from the key's one generator.  The truncated permutation is
    balanced rather than i.i.d., so it is rejected here.
    """
    if hash_mode == "full":
        counts = [reps for _, _, reps in shapes]
        return [CounterHashStack(num_nodes, t_len, keys) for (num_nodes, t_len, _), keys
                in zip(shapes, _cut(row_keys(key, sum(counts)), counts))]
    if hash_mode in ("kwise", "pairwise"):
        degree = max(2, kwise_degree) if hash_mode == "kwise" else 2
        rng = key.generator()
        return [PolynomialStack(num_nodes, t_len, reps, degree, rng)
                for num_nodes, t_len, reps in shapes]
    if hash_mode == "permutation":
        raise ValueError(
            "permutation backing is balanced, not i.i.d.; use kwise or pairwise here"
        )
    raise ValueError(f"unknown hash mode {hash_mode!r}; expected one of {HASH_MODES}")


def balanced_stacks(shapes, key: RandomnessKey, hash_mode: str) -> list:
    """One :class:`PermutationStack` per ``(num_nodes, t_len, reps)`` in
    ``shapes``: the balanced levels of one design, in every hash mode, their
    round keys cut in order from one :func:`row_keys` call on the design key.
    Only the storage accounting depends on the mode (see
    :class:`PermutationStack`)."""
    if hash_mode not in HASH_MODES:
        raise ValueError(f"unknown hash mode {hash_mode!r}; expected one of {HASH_MODES}")
    rounds = [feistel_rounds(num_nodes.bit_length() - 1) for num_nodes, _, _ in shapes]
    counts = [reps * r for (_, _, reps), r in zip(shapes, rounds)]
    return [PermutationStack(num_nodes, t_len, keys.reshape(reps, r), full=hash_mode == "full")
            for (num_nodes, t_len, reps), r, keys
            in zip(shapes, rounds, _cut(row_keys(key, sum(counts)), counts))]
