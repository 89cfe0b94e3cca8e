"""Node-to-test placement primitives shared by all tree schemes.

Four backings are provided:

  - explicit table: every node's test stored, one word per node;
  - polynomial hash: degree-d polynomial over a prime field, reduced mod the
    sequence length -- d-wise independent, d + O(1) words of storage;
  - balanced table: a keyed random permutation chunked into equal blocks,
    giving exact row weight and column weight one;
  - truncated permutation: a keyed Feistel bijection on the node ids with the
    low bits dropped -- same exact weights as the balanced table at O(1)
    storage.

Every backing exposes ``test_of(node)`` for one node, ``tests_of(nodes)``
for an int64 array of node ids (the same tests, element for element, as an
int64 array), ``table()`` (``tests_of`` over every node, for verification at
small sizes), and ``storage_cost`` in machine words.
"""

from __future__ import annotations

import numpy as np

from .core import RandomnessKey, _splitmix64, is_power_of_two

HASH_MODES = ("full", "kwise", "pairwise", "permutation")


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64 <splitgt.core._splitmix64>` on a uint64 array;
    uint64 arithmetic wraps, which is the mod-2^64 the scalar form masks to."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


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


def smallest_prime_at_least(x: int) -> int:
    if x <= 2:
        return 2
    candidate = x if x % 2 else x + 1
    while True:
        d = 3
        is_prime = candidate % 2 != 0
        while is_prime and d * d <= candidate:
            if candidate % d == 0:
                is_prime = False
            d += 2
        if is_prime:
            return candidate
        candidate += 2


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


class ExplicitTable(_Placement):
    """Fully random placement with the whole node->test array retained."""

    def __init__(self, num_nodes: int, t_len: int, assignments: np.ndarray):
        self.num_nodes = num_nodes
        self.t_len = t_len
        self._table = assignments
        self.storage_cost = num_nodes

    def test_of(self, node: int) -> int:
        return int(self._table[node])

    def tests_of(self, nodes: np.ndarray) -> np.ndarray:
        return self._table[nodes]


class PolynomialHash(_Placement):
    """Degree-d polynomial over a prime field, reduced mod t_len.

    d coefficients give d-wise independence over the field; the final modular
    reduction adds a bias of at most t_len/prime per bucket, which is
    negligible for the primes used here (>= num_nodes).  ``tests_of`` is exact
    for every prime below 2^63: products go through :func:`_mulmod`.
    """

    def __init__(self, num_nodes: int, t_len: int, degree: int, key: RandomnessKey):
        if degree < 2:
            raise ValueError(f"independence degree must be >= 2, got {degree}")
        if t_len < 1:
            raise ValueError("t_len must be >= 1")
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.degree = degree
        self.prime = smallest_prime_at_least(max(num_nodes, t_len, 2))
        if self.prime >= 1 << 63:
            raise ValueError(f"num_nodes={num_nodes} and t_len={t_len} must stay below 2^63")
        rng = key.generator()
        self.coeffs = tuple(int(c) for c in rng.integers(0, self.prime, size=degree))
        self.storage_cost = degree + 2

    def test_of(self, node: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * node + c) % self.prime
        return acc % self.t_len

    def tests_of(self, nodes: np.ndarray) -> np.ndarray:
        x = np.asarray(nodes).astype(np.uint64)
        p = np.uint64(self.prime)
        acc = np.zeros_like(x)
        for c in reversed(self.coeffs):
            acc = (_mulmod(acc, x, self.prime) + np.uint64(c)) % p
        return (acc % np.uint64(self.t_len)).astype(np.int64)


class BalancedTable(_Placement):
    """Uniformly random placement with exact row weight and column weight one.

    Realised by a keyed permutation of the nodes chunked into consecutive
    blocks of row_weight; the full position array is retained.
    """

    def __init__(self, num_nodes: int, t_len: int, key: RandomnessKey):
        if num_nodes % t_len != 0:
            raise ValueError(f"t_len={t_len} must divide num_nodes={num_nodes}")
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.row_weight = num_nodes // t_len
        order = key.generator().permutation(num_nodes)
        positions = np.empty(num_nodes, dtype=np.int64)
        positions[order] = np.arange(num_nodes, dtype=np.int64)
        self._positions = positions
        self.storage_cost = num_nodes

    def test_of(self, node: int) -> int:
        return int(self._positions[node]) // self.row_weight

    def tests_of(self, nodes: np.ndarray) -> np.ndarray:
        return self._positions[nodes] // self.row_weight


class TruncatedPermutation(_Placement):
    """Keyed Feistel bijection on [0, num_nodes) with the low bits dropped.

    Requires power-of-two sizes.  The Feistel network runs on an even bit
    width and cycle-walks back into range when the node width is odd, so the
    map stays a bijection and the row/column weights are exact.  Storage is
    the four round keys.
    """

    ROUNDS = 4

    def __init__(self, num_nodes: int, t_len: int, key: RandomnessKey):
        if not (is_power_of_two(num_nodes) and is_power_of_two(t_len)):
            raise ValueError("num_nodes and t_len must be powers of two")
        if t_len > num_nodes:
            raise ValueError(f"t_len={t_len} exceeds num_nodes={num_nodes}")
        self.num_nodes = num_nodes
        self.t_len = t_len
        self.row_weight = num_nodes // t_len
        self._shift = (num_nodes // t_len).bit_length() - 1
        bits = num_nodes.bit_length() - 1
        self._width = bits + (bits & 1)
        self._half = self._width // 2
        self._half_mask = (1 << self._half) - 1
        rng = key.generator()
        self._round_keys = tuple(int(v) for v in rng.integers(0, 1 << 63, size=self.ROUNDS))
        self.storage_cost = self.ROUNDS + 2

    def _permute(self, x: int) -> int:
        if self.num_nodes == 1:
            return 0
        while True:
            left, right = x >> self._half, x & self._half_mask
            for rk in self._round_keys:
                left, right = right, left ^ (_splitmix64(right ^ rk) & self._half_mask)
            x = (left << self._half) | right
            if x < self.num_nodes:  # cycle-walk only when the width was odd
                return x

    def test_of(self, node: int) -> int:
        return self._permute(node) >> self._shift

    def _rounds(self, x: np.ndarray) -> np.ndarray:
        half, mask = np.uint64(self._half), np.uint64(self._half_mask)
        left, right = x >> half, x & mask
        for rk in self._round_keys:
            left, right = right, left ^ (_splitmix64_array(right ^ np.uint64(rk)) & mask)
        return (left << half) | right

    def tests_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`test_of`; only lanes that land out of range
        cycle-walk again."""
        x = np.asarray(nodes).astype(np.uint64)
        if self.num_nodes == 1:
            return np.zeros(len(x), dtype=np.int64)
        x = self._rounds(x)
        out = np.flatnonzero(x >= np.uint64(self.num_nodes))
        while len(out):
            x[out] = self._rounds(x[out])
            out = out[x[out] >= np.uint64(self.num_nodes)]
        return (x >> np.uint64(self._shift)).astype(np.int64)


def place_uniform(num_nodes: int, t_len: int, key: RandomnessKey) -> ExplicitTable:
    """Each node's test i.i.d. uniform on [0, t_len), stored explicitly."""
    if t_len < 1:
        raise ValueError("t_len must be >= 1")
    assignments = key.generator().integers(0, t_len, size=num_nodes, dtype=np.int64)
    return ExplicitTable(num_nodes, t_len, assignments)


def place_hashed(num_nodes: int, t_len: int, independence_degree: int,
                 key: RandomnessKey) -> PolynomialHash:
    return PolynomialHash(num_nodes, t_len, independence_degree, key)


def place_balanced(num_nodes: int, t_len: int, key: RandomnessKey) -> BalancedTable:
    return BalancedTable(num_nodes, t_len, key)


def place_truncated_permutation(num_nodes: int, t_len: int,
                                key: RandomnessKey) -> TruncatedPermutation:
    return TruncatedPermutation(num_nodes, t_len, key)


def uniform_style_placement(num_nodes: int, t_len: int, key: RandomnessKey,
                            hash_mode: str, kwise_degree: int = 2):
    """Placement for the independently-placed levels, per the hash-mode switch.

    ``full`` keeps the explicit table; ``kwise`` uses a polynomial hash of the
    supplied degree; ``pairwise`` forces degree two.  The truncated
    permutation is balanced rather than i.i.d., so it is rejected here.
    """
    if hash_mode == "full":
        return place_uniform(num_nodes, t_len, key)
    if hash_mode == "kwise":
        return place_hashed(num_nodes, t_len, max(2, kwise_degree), key)
    if hash_mode == "pairwise":
        return place_hashed(num_nodes, t_len, 2, key)
    if hash_mode == "permutation":
        raise ValueError(
            "permutation backing is balanced, not i.i.d.; use kwise or pairwise here"
        )
    raise ValueError(f"unknown hash mode {hash_mode!r}; expected one of {HASH_MODES}")


def balanced_style_placement(num_nodes: int, t_len: int, key: RandomnessKey,
                             hash_mode: str):
    """Balanced placement per the hash-mode switch.

    Only the truncated permutation preserves exact row/column weights at O(1)
    storage, so every low-storage mode maps to it.
    """
    if hash_mode == "full":
        return place_balanced(num_nodes, t_len, key)
    if hash_mode in ("kwise", "pairwise", "permutation"):
        return place_truncated_permutation(num_nodes, t_len, key)
    raise ValueError(f"unknown hash mode {hash_mode!r}; expected one of {HASH_MODES}")
