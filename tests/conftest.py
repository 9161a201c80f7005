"""Shared fixtures and independent oracles.

The oracles here deliberately use different algorithms from the package,
and import nothing from it but ``Matroid``: rank by elimination on
leading bits, spans and subspaces by brute force, chi via exhaustive
subspace enumeration, containment and restriction counts via enumeration
of all injective linear maps on a basis of the pattern's points with a
final membership check, isomorphism via exhaustive GL(n,2) application.
They are slow and only used at small dimensions.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from functools import cache

import pytest

from bmx.matroid import Matroid


def rank(vectors) -> int:
    """GF(2) rank: each vector is reduced by ``min(v, v ^ b)`` against a
    basis kept in descending order, whose leading bits are distinct."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def span(vectors) -> frozenset[int]:
    """Every sum of a subset of the vectors, by brute force."""
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return frozenset(out)


def coordinates(points) -> tuple[list[int], dict[int, int]]:
    """A basis of span(points) picked greedily from the sorted points, and
    each vector of that span mapped to its coefficient mask, by brute
    force over the subsets of the basis."""
    basis: list[int] = []
    coeff = {0: 0}
    for p in sorted(points):
        if p not in coeff:
            bit = 1 << len(basis)
            basis.append(p)
            coeff.update({v ^ p: c | bit for v, c in list(coeff.items())})
    return basis, coeff


@cache
def _subspaces(n: int) -> tuple[tuple[frozenset[int], ...], ...]:
    """Every subspace of F_2^n as its set of vectors, by dimension.  One of
    dimension k + 1 is a subspace W of dimension k joined with a coset of
    W other than W, so each W is extended by each of its cosets once and
    the results are deduplicated as sets."""
    layers = [{frozenset({0})}]
    for _ in range(n):
        grown = set()
        for w in layers[-1]:
            rest = set(range(1 << n)) - w
            while rest:
                v = rest.pop()
                coset = {x ^ v for x in w}
                rest -= coset
                grown.add(w | coset)
        layers.append(grown)
    return tuple(map(tuple, layers))


def subspaces(n: int, k: int) -> tuple[frozenset[int], ...]:
    """The k-dimensional subspaces of F_2^n as sets of vectors, built once
    per n."""
    return _subspaces(n)[k]


def gaussian_binomial(n: int, k: int) -> int:
    """[n k]_2, the number of k-dimensional subspaces of F_2^n, in closed
    form."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


def component_count(g) -> int:
    """Connected components of a graph on vertices 0..g.n-1 with edge list
    g.edges, by depth-first search."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[int] = set()
    count = 0
    for s in range(g.n):
        if s in seen:
            continue
        count += 1
        seen.add(s)
        stack = [s]
        while stack:
            for w in adj[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
    return count


def naive_chi(m: Matroid) -> int:
    """Least codimension of a subspace disjoint from m, by enumerating
    every subspace of every dimension, largest first."""
    if not m.points:
        return 0
    for k in range(m.dim, -1, -1):
        for w in subspaces(m.dim, k):
            if m.points.isdisjoint(w):
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
        if rank(prefix + (v,)) == r
    )


def _naive_images(host: Matroid, pattern: Matroid):
    """Try every injective-on-span linear map and check all points at the
    end; no schedules, no pruning.  Yields the image of each map that
    sends every pattern point to a host point."""
    basis, coeff = coordinates(pattern.points)
    coords = [coeff[p] for p in pattern.points]
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
    if len(pattern.points) > len(host.points):
        return False  # an injective image needs as many host points
    return any(True for _image in _naive_images(host, pattern))


def naive_count_restrictions(host: Matroid, pattern: Matroid) -> int:
    """Number of distinct images over every injective map."""
    return len(set(_naive_images(host, pattern)))


def naive_copies(n: int, patterns) -> list[int]:
    """Every restriction of PG(n-1,2) isomorphic to one of the patterns,
    as a bitset with bit p - 1 for point p, sorted."""
    host = Matroid(n, frozenset(range(1, 1 << n)))
    images = {image for p in patterns for image in _naive_images(host, p)}
    return sorted(sum(1 << (x - 1) for x in image) for image in images)


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
    if a.dim != b.dim or len(a.points) != len(b.points):
        return False  # an invertible map keeps the number of points
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
        if rank(cols) == n:
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
