"""Answers the benchmark checks bmx against, computed without bmx.

A matroid is passed as (dim, points) with points a set of nonzero ints,
the same encoding bmx uses (coordinate i is bit i-1).  These routines
favour plainness over speed; they run outside the timed span and their
results are cached per request.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import factorial


def rank(points) -> int:
    """Rank over GF(2) by elimination on leading bits."""
    basis: dict[int, int] = {}  # leading bit -> row
    for v in points:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def triangles(points) -> int:
    """Number of 3-point lines {a, b, a^b} inside the set."""
    pts = set(points)
    return sum(1 for a, b in combinations(sorted(pts), 2)
               if (a ^ b) in pts and (a ^ b) > b)


def signature(dim: int, points) -> tuple[int, int, int, int]:
    """An isomorphism invariant: equal matroids have equal signatures."""
    return (dim, len(points), rank(points), triangles(points))


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^n."""
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def independent_sets(n: int, r: int) -> int:
    """Number of r-point independent sets in PG(n-1,2)."""
    ordered = 1
    for i in range(r):
        ordered *= (1 << n) - (1 << i)
    return ordered // factorial(r)


def bose_burton(t: int, n: int) -> int:
    """ex(PG(t-1,2), n) = 2^n - 2^(n-t+1): the complement of a flat of
    codimension t-1 is extremal (Bose and Burton, 1966)."""
    return (1 << n) - (1 << (n - t + 1))


def _coords(basis: list[int], v: int) -> int | None:
    """Coefficient mask of v over an independent basis, or None."""
    for mask in range(1 << len(basis)):
        x = 0
        for i, b in enumerate(basis):
            if (mask >> i) & 1:
                x ^= b
        if x == v:
            return mask
    return None


def contains(host_dim: int, host, pat_dim: int, pattern) -> bool:
    """Does some injective linear map send the pattern into the host?

    The map is fixed by the images of an independent basis of span(pattern)
    drawn from the pattern's points; the images must stay independent, and
    an injective extension to GF(2)^pat_dim exists iff host_dim >= pat_dim.
    """
    if host_dim < pat_dim:
        return False
    pattern = sorted(pattern)
    if not pattern:
        return True
    basis: list[int] = []
    for p in pattern:
        if rank(basis + [p]) > len(basis):
            basis.append(p)
    coords = {p: _coords(basis, p) for p in pattern}
    # points checked as soon as every basis slot they use has an image
    due = [[coords[p] for p in pattern if coords[p].bit_length() == j + 1]
           for j in range(len(basis))]
    hosts = sorted(host)
    host_set = set(hosts)
    imgs: list[int] = []

    def image(c: int) -> int:
        x = 0
        for i, v in enumerate(imgs):
            if (c >> i) & 1:
                x ^= v
        return x

    def extend(j: int) -> bool:
        if j == len(basis):
            return True
        for v in hosts:
            if rank(imgs + [v]) <= j:
                continue
            imgs.append(v)
            if all(image(c) in host_set for c in due[j]) and extend(j + 1):
                return True
            imgs.pop()
        return False

    return extend(0)


@lru_cache(maxsize=None)
def subspaces(n: int) -> tuple[tuple[int, int], ...]:
    """(dimension, bitset of nonzero elements) of every subspace of GF(2)^n,
    one per reduced row-echelon basis."""
    out = []
    for d in range(n + 1):
        for pivots in combinations(range(n), d):
            # a row may use the non-pivot positions below its leading bit
            frees = [[p for p in range(c) if p not in pivots] for c in pivots]
            for choice in product(*(range(1 << len(f)) for f in frees)):
                elems = [0]
                for c, f, bits in zip(pivots, frees, choice):
                    row = 1 << c
                    for i, p in enumerate(f):
                        if (bits >> i) & 1:
                            row |= 1 << p
                    elems += [row ^ e for e in elems]
                out.append((d, mask_of(e for e in elems if e)))
    return tuple(out)


def mask_of(points) -> int:
    m = 0
    for p in points:
        m |= 1 << (p - 1)
    return m


def chi(n: int, points) -> int:
    """Critical number: n minus the largest dimension of a subspace whose
    nonzero elements all avoid the matroid."""
    if not points:
        return 0
    pm = mask_of(points)
    return n - max(d for d, m in subspaces(n) if not m & pm)


def nearest_bb_distance(n: int, points, k: int) -> int:
    """min |M symdiff (PG(n-1,2) minus W)| over codimension-k subspaces W."""
    pm = mask_of(points)
    full = (1 << ((1 << n) - 1)) - 1
    return min((pm ^ (full & ~m)).bit_count()
               for d, m in subspaces(n) if d == n - k)


def is_bose_burton(n: int, points, k: int) -> bool:
    """Is the set the complement of a codimension-k subspace?"""
    full = (1 << ((1 << n) - 1)) - 1
    rest = full & ~mask_of(points)
    return any(m == rest for d, m in subspaces(n) if d == n - k)
