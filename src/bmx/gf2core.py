"""Bit-level linear algebra over GF(2).

Vectors in F_2^n are plain ints: coordinate i is bit i-1, so coordinate 1
is the least significant bit and a nonzero vector doubles as its point
index in 1..2^n-1.  A set of points is a bitset over those indices (bit
p-1 for point p), and ``parity_masks`` gives, for every functional a, the
set of points it sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from bmx.errors import UsageError

MAX_DIM = 24


def rank_ints(vectors: Iterable[int]) -> int:
    """GF(2) rank of a collection of int-encoded vectors."""
    pivots: dict[int, int] = {}
    rank = 0
    for v in vectors:
        for p, row in pivots.items():
            if v & p:
                v ^= row
        if v:
            pivots[v & -v] = v
            rank += 1
    return rank


def rref_ints(vectors: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row-echelon basis of the span.

    Each basis vector's pivot is its lowest set bit, and no other basis
    vector has that bit set.  Returns (basis, pivot bit positions), both
    sorted by pivot position.
    """
    rows: dict[int, int] = {}  # pivot mask -> row
    for v in vectors:
        for p, row in rows.items():
            if v & p:
                v ^= row
        if v:
            p = v & -v
            for q in list(rows):
                if rows[q] & p:
                    rows[q] ^= v
            rows[p] = v
    pivs = sorted(rows)
    basis = [rows[p] for p in pivs]
    return basis, [p.bit_length() - 1 for p in pivs]


def reduce_against(basis: Sequence[int], pivots: Sequence[int], v: int) -> int:
    """Eliminate v against an RREF basis; zero result means membership."""
    for row, p in zip(basis, pivots):
        if (v >> p) & 1:
            v ^= row
    return v


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_2^n given by a reduced row-echelon basis."""

    ambient: int
    basis: tuple[int, ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_int(self, v: int) -> bool:
        return reduce_against(self.basis, self.pivots, v) == 0


def enumerate_subspaces(n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of F_2^n, each exactly once.

    Canonical RREF parametrization: lexicographic over pivot-column sets,
    then over free entries.  The count is the Gaussian binomial [n k]_2.
    """
    if not (0 <= k <= n <= MAX_DIM):
        raise UsageError("need 0 <= k <= n <= 24")
    if k == 0:
        yield Subspace(n, (), ())
        return
    for pivs in combinations(range(n), k):
        pivot_set = set(pivs)
        # Free cells: (row i, column j) with j > pivs[i], j not a pivot.
        cells = [
            (i, j)
            for i in range(k)
            for j in range(pivs[i] + 1, n)
            if j not in pivot_set
        ]
        base = [1 << p for p in pivs]
        for assign in range(1 << len(cells)):
            rows = base[:]
            for idx, (i, j) in enumerate(cells):
                if (assign >> idx) & 1:
                    rows[i] |= 1 << j
            yield Subspace(n, tuple(rows), tuple(pivs))


_PARITY_MASKS: dict[int, list[int]] = {}


def parity_masks(n: int) -> list[int]:
    """``parity_masks(n)[a]``: the bitset of the points p of F_2^n with
    odd <a, p>.

    Built on first use for each n.  Entry a is the XOR of the coordinate
    columns of a, where column i is the set of points with coordinate i
    set.  The points outside a subspace are the OR of the entries of any
    basis of its dual space.
    """
    table = _PARITY_MASKS.get(n)
    if table is None:
        points = range(1, 1 << n)
        columns = [sum(1 << (p - 1) for p in points if p >> i & 1)
                   for i in range(n)]
        table = [0] * (1 << n)
        for a in points:
            low = a & -a
            table[a] = table[a ^ low] ^ columns[low.bit_length() - 1]
        _PARITY_MASKS[n] = table
    return table


def gaussian_binomial(n: int, k: int) -> int:
    """[n k]_2, the number of k-dimensional subspaces of F_2^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den
