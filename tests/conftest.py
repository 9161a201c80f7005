"""Shared fixtures and independent oracles.

The oracles here deliberately use different algorithms from the package:
chi via exhaustive subspace enumeration, containment and restriction
counts via enumeration of all injective linear maps on a row-echelon
basis with a final membership check, isomorphism via exhaustive GL(n,2)
application.  They are slow and only used at small dimensions.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from functools import cache
from itertools import combinations

import pytest

from bmx.gf2core import enumerate_subspaces, rank_ints, rref_ints
from bmx.matroid import Matroid


def naive_chi(m: Matroid) -> int:
    """Least codimension of a subspace disjoint from m, by enumerating
    every subspace of every dimension, largest first."""
    if not m.points:
        return 0
    for k in range(m.dim, -1, -1):
        for w in enumerate_subspaces(m.dim, k):
            if all(not w.contains_int(p) for p in m.points):
                return m.dim - k
    raise AssertionError("the zero subspace is disjoint from everything")


@cache
def _independent_tuples(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Every independent r-tuple of vectors of F_2^n, in lexicographic
    order; memoised, since the oracles ask for a few (n, r) many times."""
    if r == 0:
        return ((),)
    return tuple(
        prefix + (v,)
        for prefix in _independent_tuples(n, r - 1)
        for v in range(1, 1 << n)
        if rank_ints(prefix + (v,)) == r
    )


def _naive_images(host: Matroid, pattern: Matroid):
    """Try every injective-on-span linear map and check all points at the
    end; no schedules, no pruning.  Yields the image of each map that
    sends every pattern point to a host point."""
    basis, pivots = rref_ints(pattern.points)
    coords = []
    for p in pattern.points:
        c = 0
        for i, piv in enumerate(pivots):
            if (p >> piv) & 1:
                c |= 1 << i
        coords.append(c)
    r = len(basis)
    for imgs in _independent_tuples(host.dim, r):
        image = []
        for c in coords:
            x = 0
            for i in range(r):
                if (c >> i) & 1:
                    x ^= imgs[i]
            if x not in host.points:
                break
            image.append(x)
        else:
            yield frozenset(image)


def naive_contains(host: Matroid, pattern: Matroid) -> bool:
    if not pattern.points:
        return True
    return any(True for _image in _naive_images(host, pattern))


def naive_count_restrictions(host: Matroid, pattern: Matroid) -> int:
    """Number of distinct images over every injective map."""
    return len(set(_naive_images(host, pattern)))


def gl_maps(n: int) -> list[tuple[int, ...]]:
    """All invertible maps of F_2^n as lookup tables over 0..2^n-1."""
    maps = []
    for imgs in _independent_tuples(n, n):
        table = [0] * (1 << n)
        for v in range(1, 1 << n):
            x = 0
            for i in range(n):
                if (v >> i) & 1:
                    x ^= imgs[i]
            table[v] = x
        maps.append(tuple(table))
    return maps


_GL_CACHE: dict[int, list[tuple[int, ...]]] = {}


def naive_isomorphic(a: Matroid, b: Matroid) -> bool:
    if a.dim != b.dim:
        return False
    if a.dim not in _GL_CACHE:
        _GL_CACHE[a.dim] = gl_maps(a.dim)
    bpts = b.points
    for table in _GL_CACHE[a.dim]:
        if frozenset(table[p] for p in a.points) == bpts:
            return True
    return False


def random_gl(rng: random.Random, n: int) -> list[int]:
    """A random invertible map of F_2^n as a lookup table over 0..2^n-1."""
    while True:
        cols = [rng.randrange(1, 1 << n) for _ in range(n)]
        if rank_ints(cols) == n:
            break
    table = [0] * (1 << n)
    for v in range(1, 1 << n):
        i = (v & -v).bit_length() - 1
        table[v] = table[v & (v - 1)] ^ cols[i]
    return table


@contextmanager
def time_budget(seconds: float):
    """Fail the enclosed block once it has run for ``seconds`` of wall
    time, so that a search that got slow fails the suite instead of
    hanging it.  Built on SIGALRM (main thread, POSIX only)."""
    def expired(signum, frame):
        pytest.fail(f"over its {seconds} s time budget")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_matroid(rng: random.Random, n: int, density: float = 0.5) -> Matroid:
    pts = frozenset(p for p in range(1, 1 << n) if rng.random() < density)
    return Matroid(n, pts)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260823)
