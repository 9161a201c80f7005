"""Containment, isomorphism, and canonical forms.

Containment search assigns images of a basis of span(N) chosen from N's
own points, so candidate images always range over the host's points.  The
pattern is preprocessed into a closure schedule: each new basis slot
unlocks the pattern points it makes fully determined, which are checked
immediately for early pruning, and each point carries the basic orbits of
Aut(N) it lies in, so that every copy of N is found once.  The orbits
come from pinned searches for N in itself, and each automorphism such a
search finds settles, with no search, every point it reaches.  A
schedule is a function of N's point set alone, and is cached by it: the
dimension N is declared in plays no part in containment or in copy
counting, nor in ``canonical_key``, the one key of N, computed over its
span, by which a family dedups its members, the catalog keys its
entries, the decomposition family keys its slices and ``isomorphic``
compares.  ``isomorphic`` first compares the line counts of the two
sets, an invariant that costs what their points cost, and computes keys
only when those agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from bmx import kernels
from bmx.errors import CapacityError
from bmx.gf2core import bitset_of, points_of
from bmx.kernels import EX_MAX_DIM
from bmx.matroid import Matroid, recoordinatize

CANON_MAX_DIM = 8


@dataclass(frozen=True)
class CanonicalKey:
    """Minimal characteristic bitstring of a set's span over GL(rank, 2)."""

    rank: int
    bits: str

    def matroid(self) -> Matroid:
        mask = 0
        for i, ch in enumerate(self.bits):
            if ch == "1":
                mask |= 1 << i
        return Matroid.from_mask(self.rank, mask)


@dataclass(frozen=True)
class _Schedule:
    basis: tuple[int, ...]
    checks: tuple[tuple[int, ...], ...]
    bounds: tuple[tuple[int, ...], ...]  # aligned with checks


def _schedule(mask: int) -> _Schedule:
    """Greedy basis from the points of the bitset ``mask``, ordered to
    close as many points as possible as early as possible, with the
    lex-leader bounds of ``_orbit_bounds``.

    ``span`` maps each vector of the span of the basis so far to its
    coefficient mask.  A remaining point lies outside that span, so a
    candidate b closes it exactly when ``p ^ b`` is in the table.
    """
    remaining = points_of(mask)
    span = {0: 0}
    basis: list[int] = []
    checks: list[tuple[int, ...]] = []
    while remaining:
        best_closed: list[int] = []
        for b in remaining:
            closed = [p for p in remaining if p ^ b in span]
            if len(closed) > len(best_closed):
                best_b, best_closed = b, closed
        bit = 1 << len(basis)
        basis.append(best_b)
        checks.append(tuple(span[p ^ best_b] | bit for p in best_closed))
        remaining = [p for p in remaining if p ^ best_b not in span]
        span.update([(v ^ best_b, c | bit) for v, c in span.items()])
    return _Schedule(tuple(basis), tuple(checks), _orbit_bounds(checks))


def _orbit_bounds(checks: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """For each point that ``checks[j][k]`` closes, the bitset of the slots
    i whose basic orbit O_i - {b_i} holds it (``kernels._embeddings``).

    In slot coordinates the basis is b_i = 1 << i and the pattern is the
    set of its coefficient masks.  A point x outside span(b_0..b_{i-1})
    lies in O_i iff N embeds into itself with b_h -> b_h for h < i and
    b_i -> x; such an embedding permutes N's points, so it is an
    automorphism.  A test is one existence search with that prefix
    pinned, and no list of Aut(N) is ever built.

    The slots are walked from r - 1 down to 0, and each search that
    succeeds keeps its automorphism as a map of N's points.  One found at
    slot j fixes b_0..b_{j-1}, so it lies in the stabiliser G_i of
    b_0..b_{i-1} for every i <= j, and O_i is the orbit of b_i under G_i.
    So at slot i every point that the maps kept so far reach from b_i
    lies in O_i, and needs no search.  O_i is a union of G_i-orbits, so
    when the search for x fails, no point those maps reach from x lies in
    O_i either.  Every other point is tested as it would be with no maps
    kept, so the bounds do not depend on them.  Every point of O_i is
    reached or found, so the maps kept by the end of slot i carry b_i
    onto all of O_i, and by induction from the last slot they generate
    G_i: the maps kept are a strong generating set of Aut(N).

    The search runs only for an x that passes two necessary tests: such
    an automorphism s fixes every y in span(b_0..b_{i-1}) and sends
    b_i ^ y to x ^ y, so x ^ y is in N iff b_i ^ y is; and s maps the
    dependencies of N through b_i onto those through x, so the two points
    agree in ``_point_invariants``.
    """
    pts = sorted(c for cs in checks for c in cs)
    mask = bitset_of(pts)
    r = len(checks)
    unbounded = [(0,) * len(cs) for cs in checks]
    slots = dict.fromkeys(pts, 0)
    # profile[x]: bit y - 1 for each y != 0 with x ^ y in N
    profile = {x: sum(1 << (x ^ q) - 1 for q in pts if q != x) for x in pts}
    inv = _point_invariants(pts, r, profile, mask)
    gens: list[dict[int, int]] = []  # the automorphisms found
    imgs = [0] * r
    for i in reversed(range(r)):
        b = 1 << i
        fixed = (1 << b - 1) - 1  # the nonzero y in span(b_0..b_{i-1})
        pinned = tuple(1 << h for h in range(i))
        orbit = _reach({b}, gens)
        outside: set[int] = set()  # failed points and their images
        for x in pts:
            if x in orbit or x in outside:
                continue
            if (x >> i and inv[x] == inv[b]
                    and (profile[x] ^ profile[b]) & fixed == 0):
                found = kernels._embeddings(pts, mask, checks, unbounded,
                                            imgs, pinned + (x,))
                hit = next(found, None)
                if hit is None:
                    outside |= _reach({x}, gens)
                    continue
                last = hit[1]  # as in ``find_embedding``
                imgs[-1] = (last & -last).bit_length() - 1
                span = [0]  # span[c]: the sum of imgs[h] over the bits h of c
                for v in imgs:
                    span += [s ^ v for s in span]
                gens.append({p: span[p] for p in pts})
                orbit = _reach(orbit, gens)
        for x in orbit:
            if x != b:
                slots[x] |= 1 << i
    return tuple(tuple(slots[c] for c in cs) for cs in checks)


def _reach(points: set[int], gens: list[dict[int, int]]) -> set[int]:
    """The points that the maps ``gens`` reach from ``points``."""
    todo = list(points)
    reached = set(points)
    while todo:
        x = todo.pop()
        for g in gens:
            y = g[x]
            if y not in reached:
                reached.add(y)
                todo.append(y)
    return reached


# the most copies ``ex`` or ``count_restrictions`` enumerates, checked
# against ``_copy_count`` before any copy is built
_MAX_COPIES = 5_000_000


def _copy_count(sched: _Schedule, n: int, size: int) -> int:
    """A bound on the copies of a scheduled pattern in a dimension-n host
    of ``size`` points, exact for the full geometry (size 2^n - 1).

    A copy is fixed by the images of the pattern basis, and slot i takes a
    host point outside the span of the earlier images: at most
    min(2^n - 2^i, size - i) choices, which is 2^n - 2^i in the full
    geometry.  A copy comes from exactly |Aut(N)| of these maps.  |Aut(N)|
    is the product of the basic orbit sizes |O_i|, and O_i is b_i with
    the points whose bound has bit i (``_orbit_bounds``).
    """
    r = len(sched.basis)
    maps = aut = 1
    for i in range(r):
        maps *= min((1 << n) - (1 << i), size - i)
        aut *= 1 + sum(b >> i & 1 for bs in sched.bounds for b in bs)
    return maps // aut


# the dependencies are listed only when there are at most 2^this many
_MAX_NULLITY = 8


def _point_invariants(pts: list[int], r: int, profile: dict[int, int],
                      mask: int) -> dict[int, int | list[int]]:
    """A label of each point of N (in slot coordinates, with b_i = 1 << i
    among ``pts``) that every automorphism keeps.

    A dependency is a nonempty set of points that sums to 0.  N has
    2^(|N| - r) - 1 of them, spanned by the fundamental circuits of the
    points outside the basis; when there are few, the label is the sorted
    sizes of those through the point.  Otherwise it is the number of
    triangles through the point, the dependencies of size 3, which
    ``profile`` gives at once.
    """
    if len(pts) - r > _MAX_NULLITY:
        return {x: (profile[x] & mask).bit_count() for x in pts}
    idx = {p: j for j, p in enumerate(pts)}
    deps = [0]
    for p in pts:
        if p & p - 1:  # outside the basis
            circuit = 1 << idx[p]
            for i in range(r):
                if p >> i & 1:
                    circuit |= 1 << idx[1 << i]
            deps += [d ^ circuit for d in deps]
    sizes: list[list[int]] = [[] for _ in pts]
    for d in deps:
        size = d.bit_count()
        while d:
            low = d & -d
            d ^= low
            sizes[low.bit_length() - 1].append(size)
    return {p: sorted(s) for p, s in zip(pts, sizes)}


_schedule_cached = lru_cache(maxsize=256)(_schedule)


def contains(host: Matroid, pattern: Matroid) -> bool:
    """Does host have a pattern-restriction?

    Only the pattern's rank has to fit: its declared dimension plays no
    part, since the search works in span(pattern) coordinates.
    """
    if pattern.rank > host.dim:
        return False
    sched = _schedule_cached(pattern.mask)
    return kernels.find_embedding(host.sorted_points(), host.mask,
                                  sched.checks, sched.bounds) is not None


def canonical_key(m: Matroid) -> CanonicalKey:
    """The key of m over its span (``recoordinatize``): its orbit-minimal
    characteristic bitstring under GL(rank, 2), whatever m's dimension."""
    s = _canon_span(m)
    mask = kernels.canon_mask(s.dim, s.mask)
    total = (1 << s.dim) - 1
    bits = "".join("1" if (mask >> i) & 1 else "0" for i in range(total))
    return CanonicalKey(s.dim, bits)


def _canon_span(m: Matroid) -> Matroid:
    """m over its span, within the canonizer's rank limit."""
    s = recoordinatize(m)
    if s.dim > CANON_MAX_DIM:
        raise CapacityError(f"canonizer limited to rank <= {CANON_MAX_DIM}")
    return s


def _line_counts(s: Matroid) -> list[int]:
    """For each point p of s, the number of points q of s with p ^ q in s
    (twice the lines of s through p), sorted: an invertible map keeps the
    list.  Bit x of ``pm`` is vector x, so the q are the bits of pm that
    stay set when pm is translated by p."""
    pm = s.mask << 1
    lows = kernels._lows(s.dim)
    return sorted((pm & kernels._translate(pm, p, lows)).bit_count()
                  for p in s.points)


def isomorphic(a: Matroid, b: Matroid) -> bool:
    """True iff equal dimension and equal keys: in one dimension, two sets
    are equivalent exactly when their spans are.  Sets of equal size and
    rank are first compared by their line counts, which refute most
    non-isomorphic pairs without a key."""
    if a.dim != b.dim:
        return False
    if a.size != b.size or a.rank != b.rank:
        return False
    if a.points == b.points:
        return True
    sa, sb = _canon_span(a), _canon_span(b)
    if _line_counts(sa) != _line_counts(sb):
        return False
    return canonical_key(sa) == canonical_key(sb)


def count_restrictions(host: Matroid, pattern: Matroid) -> int:
    """Number of distinct subsets of the host that are pattern-restrictions
    (distinct images, not distinct maps).

    Raises CapacityError before enumerating when the host's dimension is
    over ``EX_MAX_DIM`` or ``_copy_count`` bounds the pattern's copies in
    the host above ``_MAX_COPIES``, the same limits as ``ex``.
    The copies are counted as they are found; none is kept.
    """
    if host.dim > EX_MAX_DIM:
        raise CapacityError(
            f"restriction counting limited to host dim <= {EX_MAX_DIM}")
    if pattern.rank > host.dim:
        return 0
    sched = _schedule_cached(pattern.mask)
    if _copy_count(sched, host.dim, host.size) > _MAX_COPIES:
        raise CapacityError("too many restrictions to count")
    return kernels.count_embedding_images(host.sorted_points(), host.mask,
                                          sched.checks, sched.bounds)
