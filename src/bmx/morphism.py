"""Containment, isomorphism, and canonical forms.

Containment search assigns images of a basis of span(N) chosen from N's
own points, so candidate images always range over the host's points.  The
pattern is preprocessed into a closure schedule: each new basis slot
unlocks the pattern points it makes fully determined, which are checked
immediately for early pruning, and each point carries the basic orbits of
Aut(N) it lies in, so that every copy of N is found once.  A schedule is
a function of N's point set alone, and is cached by it: the dimension N
is declared in plays no part in containment or in copy counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from bmx import kernels
from bmx.errors import CapacityError
from bmx.matroid import Matroid

CANON_MAX_DIM = 8
COUNT_MAX_HOST_DIM = 6
COUNT_MAX_PATTERN_RANK = 4


@dataclass(frozen=True)
class CanonicalKey:
    """Lexicographically minimal characteristic bitstring over GL(n,2)."""

    dim: int
    bits: str

    def matroid(self) -> Matroid:
        mask = 0
        for i, ch in enumerate(self.bits):
            if ch == "1":
                mask |= 1 << i
        return Matroid.from_mask(self.dim, mask)


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
    remaining = [p for p in range(1, mask.bit_length() + 1)
                 if mask >> p - 1 & 1]
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
    automorphism.  Each test is one existence search with that prefix
    pinned, and no list of Aut(N) is ever built.

    The search runs only for an x that passes two necessary tests: such
    an automorphism s fixes every y in span(b_0..b_{i-1}) and sends
    b_i ^ y to x ^ y, so x ^ y is in N iff b_i ^ y is; and s maps the
    dependencies of N through b_i onto those through x, so the two points
    agree in ``_point_invariants``.
    """
    pts = sorted(c for cs in checks for c in cs)
    mask = sum(1 << (c - 1) for c in pts)
    r = len(checks)
    unbounded = [(0,) * len(cs) for cs in checks]
    slots = dict.fromkeys(pts, 0)
    # profile[x]: bit y - 1 for each y != 0 with x ^ y in N
    profile = {x: sum(1 << (x ^ q) - 1 for q in pts if q != x) for x in pts}
    inv = _point_invariants(pts, r, profile, mask)
    for i in range(r):
        b = 1 << i
        fixed = (1 << b - 1) - 1  # the nonzero y in span(b_0..b_{i-1})
        pinned = [(1 << h,) for h in range(i)]
        for x in pts:
            if (x >> i and x != b and inv[x] == inv[b]
                    and (profile[x] ^ profile[b]) & fixed == 0):
                cands = pinned + [(x,)] + [pts] * (r - i - 1)
                found = kernels._embeddings(cands, mask, checks, unbounded,
                                            [0] * r)
                if next(found, None) is not None:
                    slots[x] |= 1 << i
    return tuple(tuple(slots[c] for c in cs) for cs in checks)


def _copy_count(sched: _Schedule, n: int) -> int:
    """Copies of a scheduled pattern in the full geometry of dimension n.

    Each injective image of the pattern basis, prod_{i<r} (2^n - 2^i) of
    them, gives a copy, and a copy comes from exactly |Aut(N)| of them.
    |Aut(N)| is the product of the basic orbit sizes |O_i|, and O_i is
    b_i with the points whose bound has bit i (``_orbit_bounds``).
    """
    r = len(sched.basis)
    maps = aut = 1
    for i in range(r):
        maps *= (1 << n) - (1 << i)
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
    """Orbit-minimal characteristic bitstring of m under GL(dim, 2)."""
    if m.dim > CANON_MAX_DIM:
        raise CapacityError(f"canonizer limited to dim <= {CANON_MAX_DIM}")
    mask = kernels.canon_mask(m.dim, m.mask) if m.dim else 0
    total = (1 << m.dim) - 1
    bits = "".join("1" if (mask >> i) & 1 else "0" for i in range(total))
    return CanonicalKey(m.dim, bits)


def isomorphic(a: Matroid, b: Matroid) -> bool:
    """True iff equal dimension and equal canonical keys."""
    if a.dim != b.dim:
        return False
    if a.size != b.size or a.rank != b.rank:
        return False
    if a.points == b.points:
        return True
    return canonical_key(a) == canonical_key(b)


def count_restrictions(host: Matroid, pattern: Matroid) -> int:
    """Number of distinct subsets of the host that are pattern-restrictions
    (distinct images, not distinct maps)."""
    if host.dim > COUNT_MAX_HOST_DIM:
        raise CapacityError(
            f"restriction counting limited to host dim <= {COUNT_MAX_HOST_DIM}")
    if pattern.rank > COUNT_MAX_PATTERN_RANK:
        raise CapacityError(
            f"restriction counting limited to pattern rank <= "
            f"{COUNT_MAX_PATTERN_RANK}")
    if pattern.rank > host.dim:
        return 0
    sched = _schedule_cached(pattern.mask)
    return len(kernels.all_embedding_images(host.sorted_points(), host.mask,
                                            sched.checks, sched.bounds))
