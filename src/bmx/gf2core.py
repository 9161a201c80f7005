"""Bit-level linear algebra over GF(2).

Vectors in F_2^n are plain ints: coordinate i is bit i-1, so coordinate 1
is the least significant bit and a nonzero vector doubles as its point
index in 1..2^n-1.  A set of points is a bitset over those indices (bit
p-1 for point p); ``points_of`` and ``bitset_of`` convert between the two
in time linear in the bitset's length, ``parity_masks`` gives, for
every functional a, the set of points it sees, and ``flats`` walks the
flats of a given codimension.
"""

from __future__ import annotations

from itertools import combinations, compress, count
from typing import Iterable, Iterator

from bmx.errors import UsageError

MAX_DIM = 24
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def points_of(mask: int) -> list[int]:
    """The points of the bitset ``mask``, ascending: its binary digits,
    lowest first, read as bytes 0/1 that select from 1, 2, 3, ..."""
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)
    return list(compress(count(1), digits))


def bitset_of(points: Iterable[int]) -> int:
    """The bitset of a set of points (each >= 1): its binary digits,
    highest point first, written once and read as one int."""
    points = list(points)
    digits = bytearray(b"0") * (max(points, default=0) + 1)
    for p in points:
        digits[-p] = 49  # ord("1")
    return int(digits, 2)


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


def flats(n: int, c: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every codimension-c flat of F_2^n, each exactly once, as
    (functionals, outside): a reduced row-echelon basis of the
    c-dimensional space of functionals whose common kernel is the flat,
    and the bitset of the points outside it, those some functional sees.

    Canonical RREF parametrization: lexicographic over pivot-column sets,
    then over free entries.  The count is the Gaussian binomial [n c]_2.
    """
    if not (0 <= c <= n <= MAX_DIM):
        raise UsageError("need 0 <= c <= n <= 24")
    masks = parity_masks(n)
    for pivs in combinations(range(n), c):
        # Free cells: (row i, column j) with j > pivs[i], j not a pivot.
        cells = [
            (i, j)
            for i in range(c)
            for j in range(pivs[i] + 1, n)
            if j not in pivs
        ]
        base = [1 << p for p in pivs]
        for assign in range(1 << len(cells)):
            rows = base[:]
            for idx, (i, j) in enumerate(cells):
                if (assign >> idx) & 1:
                    rows[i] |= 1 << j
            outside = 0
            for a in rows:
                outside |= masks[a]
            yield tuple(rows), outside


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
        columns = [bitset_of(p for p in points if p >> i & 1)
                   for i in range(n)]
        table = [0] * (1 << n)
        for a in points:
            low = a & -a
            table[a] = table[a ^ low] ^ columns[low.bit_length() - 1]
        _PARITY_MASKS[n] = table
    return table
