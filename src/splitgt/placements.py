"""Node-to-test placement primitives shared by all tree schemes.

Three backings are provided:

  - counter hash: node j of a row goes to test
    ``splitmix64(row_key + j * PHI) mod t_len``, the j-th output of a
    SplitMix stream keyed by the row.  It stands for the fully random
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

Every backing exposes ``test_of(node)`` for one node, ``tests_of(nodes)``
for an int64 array of node ids (the same tests, element for element, as an
int64 array), ``table()`` (``tests_of`` over every node, for verification at
small sizes), and ``storage_cost`` in machine words.

A level of a tree design holds its repetitions as one stack
(:class:`CounterHashStack`, :class:`PolynomialStack`,
:class:`PermutationStack`, or :class:`RowStack` over the identity
placement): ``tests_of(nodes, reps)`` gives the tests of many nodes under
many repetitions by one array operation, and ``rows``, each repetition's
own placement, is built only when something asks for it.
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
    uint64 scalar (one polynomial: the result has the shape of ``nodes``) or
    a (rows x 1) column (one polynomial per row: rows x nodes).  Exact for
    every prime below 2^63: products go through :func:`_mulmod`."""
    x = np.asarray(nodes).astype(np.uint64)
    p = np.uint64(prime)
    acc = np.zeros_like(x)
    for c in coeffs:
        acc = (_mulmod(acc, x, prime) + c) % p
    return (acc % np.uint64(t_len)).astype(np.int64)


class _Placement:
    def table(self) -> np.ndarray:
        return self.tests_of(np.arange(self.num_nodes, dtype=np.int64))


class IdentityPlacement(_Placement):
    """One node per test, in order.  Used for the individual-testing levels."""

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.t_len = num_nodes
        self.storage_cost = 1

    def test_of(self, node: int) -> int:
        return node

    def tests_of(self, nodes: np.ndarray) -> np.ndarray:
        return nodes


def _counter_hash(keys, nodes: np.ndarray, t_len: int) -> np.ndarray:
    """``splitmix64(key + node * PHI) mod t_len`` for every (key, node) pair
    the shapes of ``keys`` and ``nodes`` broadcast to, as int64.  The
    remainder of a uniform 64-bit value is biased by at most t_len / 2^64."""
    x = _splitmix64_array(keys + np.asarray(nodes).astype(np.uint64) * _PHI64)
    return (x % np.uint64(t_len)).view(np.int64)


class CounterHash(_Placement):
    """Fully random placement as a keyed counter hash; one row of a
    :class:`CounterHashStack`.  ``storage_cost`` is the n-word table of the
    paper's algorithm that this hash stands for."""

    def __init__(self, num_nodes: int, t_len: int, key: int):
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.key = key
        self.storage_cost = num_nodes

    def test_of(self, node: int) -> int:
        # pure-Python integers: a scalar lookup stays about a microsecond
        return _splitmix64(self.key + node * PHI) % self.t_len

    def tests_of(self, nodes: np.ndarray) -> np.ndarray:
        return _counter_hash(np.uint64(self.key), nodes, self.t_len)


class PolynomialHash(_Placement):
    """Degree-d polynomial over a prime field, reduced mod t_len.

    d coefficients give d-wise independence over the field; the final modular
    reduction adds a bias of at most t_len/prime per bucket, which is
    negligible for the primes used here (>= num_nodes).  Built by
    :class:`PolynomialStack`, one row of its coefficient matrix.
    """

    def __init__(self, num_nodes: int, t_len: int, prime: int, coeffs: np.ndarray):
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.prime = prime
        self.degree = len(coeffs)
        self.coeffs = tuple(int(c) for c in coeffs)
        self._highest_first = tuple(np.uint64(c) for c in reversed(self.coeffs))
        self.storage_cost = self.degree + 2

    def test_of(self, node: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * node + c) % self.prime
        return acc % self.t_len

    def tests_of(self, nodes: np.ndarray) -> np.ndarray:
        return _horner(self._highest_first, nodes, self.prime, self.t_len)


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


class KeyedPermutation(_Placement):
    """Balanced placement: a keyed bijection of the node ids with the low
    log2(row_weight) bits dropped (see :func:`_permuted_tests`), so every
    test gets exactly ``row_weight`` nodes.  One row of a
    :class:`PermutationStack`."""

    def __init__(self, stack: "PermutationStack", round_keys: np.ndarray):
        self.num_nodes = stack.num_nodes
        self.t_len = stack.t_len
        self.row_weight = self.num_nodes // self.t_len
        self.storage_cost = stack.row_cost
        self.round_keys = round_keys
        self._bits, self._shift = stack.bits, stack.shift
        self._keys = tuple(round_keys.tolist())

    def test_of(self, node: int) -> int:
        # pure-Python integers: a scalar lookup stays a few microseconds
        lo_bits = (self._bits + 1) // 2
        hi_bits = self._bits - lo_bits
        hi, lo = node >> lo_bits, node & ((1 << lo_bits) - 1)
        for rk in self._keys:
            f = (rk + lo) & _MASK64
            f = ((f ^ (f >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            f = ((f ^ (f >> 27)) * 0x94D049BB133111EB) & _MASK64
            hi, lo = lo, hi ^ (f >> (64 - hi_bits))
            hi_bits, lo_bits = lo_bits, hi_bits
        return ((hi << lo_bits) | lo) >> self._shift

    def tests_of(self, nodes: np.ndarray) -> np.ndarray:
        return _permuted_tests(self.round_keys, nodes, self._bits, self._shift)


def _check_t_len(t_len: int) -> None:
    if not 1 <= t_len < 1 << 63:
        raise ValueError(f"t_len must lie in [1, 2^63), got {t_len}")


class CounterHashStack:
    """``reps`` fully random placements of the same nodes, one counter-hash
    row per 64-bit key in ``keys``.  ``tests_of(nodes, reps)`` gives the
    tests of ``nodes`` under the repetitions the slice ``reps`` selects, as a
    (repetitions x nodes) int64 array; ``rows[i]`` is repetition i's
    :class:`CounterHash`."""

    def __init__(self, num_nodes: int, t_len: int, keys: np.ndarray):
        _check_t_len(t_len)
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.keys = keys
        self.reps = len(keys)
        self.storage_cost = self.reps * num_nodes

    @cached_property
    def rows(self) -> tuple:
        return tuple(CounterHash(self.num_nodes, self.t_len, key) for key in self.keys.tolist())

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None)) -> np.ndarray:
        return _counter_hash(self.keys[reps, None], nodes, self.t_len)


class PolynomialStack:
    """``reps`` degree-d polynomial hashes of the same nodes: one prime and
    one (reps x degree) coefficient matrix drawn from one generator.  Same
    ``rows`` and ``tests_of`` as :class:`CounterHashStack`; ``tests_of`` is
    one Horner pass over the (repetitions x nodes) grid."""

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
    def rows(self) -> tuple:
        return tuple(PolynomialHash(self.num_nodes, self.t_len, self.prime, row)
                     for row in self.coeffs)

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None)) -> np.ndarray:
        return _horner(self.coeffs[reps].T[::-1, :, None], nodes, self.prime, self.t_len)


class PermutationStack:
    """``reps`` balanced placements of the same nodes, one keyed permutation
    (:class:`KeyedPermutation`) per row of the (reps x rounds) matrix
    ``round_keys``, with the ``rows`` and ``tests_of`` of
    :class:`CounterHashStack`.  Node and test counts are powers of two.  A
    row is accounted as the n-word position table of the paper's stored
    balanced placement when ``full`` is set, as the counter hash is, and
    as its round keys plus two words otherwise."""

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
        self.row_cost = num_nodes if full else round_keys.shape[1] + 2
        self.storage_cost = self.reps * self.row_cost

    @cached_property
    def rows(self) -> tuple:
        return tuple(KeyedPermutation(self, keys) for keys in self.round_keys)

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None)) -> np.ndarray:
        return _permuted_tests(self.round_keys[reps, None, :], nodes, self.bits, self.shift)


class RowStack:
    """Placements of the same nodes built one by one (the identity levels),
    with the stack protocol of :class:`CounterHashStack`."""

    def __init__(self, rows):
        self.rows = tuple(rows)
        self.reps = len(self.rows)
        self.storage_cost = sum(row.storage_cost for row in self.rows)

    def tests_of(self, nodes: np.ndarray, reps: slice = slice(None)) -> np.ndarray:
        rows = self.rows[reps]
        return np.array([row.tests_of(nodes) for row in rows],
                        dtype=np.int64).reshape(len(rows), len(nodes))


def row_keys(key: RandomnessKey, count: int) -> np.ndarray:
    """The keys of a design's ``count`` counter-hashed rows: splitmix64 over
    the row ids 0 .. count - 1, offset by the low 64 bits of the design
    key's material."""
    base = np.uint64(key.material() & _MASK64)
    return _splitmix64_array(base + np.arange(count, dtype=np.uint64) * _PHI64)


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
        keys = row_keys(key, sum(reps for _, _, reps in shapes))
        stacks, first = [], 0
        for num_nodes, t_len, reps in shapes:
            stacks.append(CounterHashStack(num_nodes, t_len, keys[first:first + reps]))
            first += reps
        return stacks
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
    keys = row_keys(key, sum(reps * r for (_, _, reps), r in zip(shapes, rounds)))
    stacks, first = [], 0
    for (num_nodes, t_len, reps), r in zip(shapes, rounds):
        stacks.append(PermutationStack(num_nodes, t_len,
                                       keys[first:first + reps * r].reshape(reps, r),
                                       full=hash_mode == "full"))
        first += reps * r
    return stacks
