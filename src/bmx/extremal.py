"""Decomposition families, exact Turan-number search, and the exactness /
stability machinery built on top of them."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations

from bmx import kernels
from bmx.errors import CapacityError, UsageError
from bmx.gf2core import enumerate_subspaces, parity_masks, rank_ints
from bmx.matroid import (
    LiftSpec,
    Matroid,
    chi,
    delete,
    from_compact,
    lift,
    recoordinatize,
    to_compact,
)
from bmx.morphism import _copy_count, _schedule_cached, canonical_key, contains

EX_MAX_DIM = 8
NEAREST_MAX_DIM = 10
NEAREST_MAX_ORDER = 3


@dataclass(frozen=True)
class Family:
    """A set of forbidden matroids, pairwise non-isomorphic."""

    members: tuple[Matroid, ...]

    def __post_init__(self):
        if not self.members:
            raise UsageError("family must be nonempty")
        for m in self.members:
            if not m.points:
                raise UsageError("family members must be nonempty matroids")

    @staticmethod
    def from_matroids(matroids) -> "Family":
        """One member per isomorphism class, the first declaration of each
        as given, sorted by rank, size and canonical key of the span.

        Two matroids are compared over their spans (``recoordinatize``),
        so the same points declared in two dimensions are one member.
        """
        matroids = list(matroids)
        if len(matroids) == 1:  # nothing to dedup, skip canonization
            return Family((matroids[0],))
        seen: dict[tuple[int, str], Matroid] = {}
        for m in matroids:
            key = canonical_key(recoordinatize(m))
            seen.setdefault((key.dim, key.bits), m)
        ordered = sorted(
            seen.items(), key=lambda kv: (kv[0][0], kv[1].size, kv[0][1])
        )
        return Family(tuple(m for _k, m in ordered))

    @cached_property
    def k(self) -> int:
        """min critical number over the members, minus one."""
        return min(chi(m) for m in self.members) - 1


@dataclass(frozen=True)
class TuranCertificate:
    """A certified (or budget-limited) Turan-number computation."""

    family: tuple[Matroid, ...]
    n: int
    value: int
    witness: Matroid
    method: str
    certified: bool
    nodes: int
    elapsed_ms: int

    def to_json_dict(self) -> dict:
        return {
            "family": [to_compact(m) for m in self.family],
            "n": self.n,
            "value": self.value,
            "witness": to_compact(self.witness),
            "method": self.method,
            "certified": self.certified,
            "nodes": self.nodes,
            "elapsed_ms": self.elapsed_ms,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "TuranCertificate":
        return TuranCertificate(
            family=tuple(from_compact(s) for s in d["family"]),
            n=int(d["n"]),
            value=int(d["value"]),
            witness=from_compact(d["witness"]),
            method=str(d["method"]),
            certified=bool(d["certified"]),
            nodes=int(d["nodes"]),
            elapsed_ms=int(d["elapsed_ms"]),
        )


_EX_MAX_COPIES = 5_000_000


def _all_copies(family: Family, n: int,
                deadline: float | None = None) -> list[int]:
    """Point-set bitsets of every forbidden restriction inside the full
    geometry, sorted ascending by size then value.

    A member of rank above n has no copy and is skipped.  The members are
    pairwise non-isomorphic, so no copy belongs to two of them.  Raises
    CapacityError before enumerating anything when the members have more
    than ``_EX_MAX_COPIES`` copies in all (``_copy_count``).  The
    enumerator yields each copy of a member once, and the deadline is
    checked as copies arrive and once more after the sort: TimeoutError
    once ``time.monotonic()`` passes ``deadline``.
    """
    host_pts = range(1, 1 << n)
    host_mask = (1 << ((1 << n) - 1)) - 1
    scheds = [_schedule_cached(m.mask)
              for m in family.members if m.rank <= n]
    if sum(_copy_count(s, n) for s in scheds) > _EX_MAX_COPIES:
        raise CapacityError("too many forbidden restrictions to index")
    copies: list[int] = []
    for sched in scheds:
        copies += kernels.all_embedding_images(
            host_pts, host_mask, sched.checks, sched.bounds,
            deadline=deadline)
    # by size, then by value: two stable sorts beat one tuple key
    copies.sort()
    copies.sort(key=int.bit_count)
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("deadline passed while sorting copies")
    return copies


def _incidence(copies: list[int], total: int) -> list[int]:
    """``inc[i]``: the bitset of ids of the copies through point i + 1."""
    nbytes = (len(copies) + 7) // 8
    rows = [bytearray(nbytes) for _ in range(total)]
    for cid, c in enumerate(copies):
        byte, bit = cid >> 3, 1 << (cid & 7)
        while c:
            low = c & -c
            rows[low.bit_length() - 1][byte] |= bit
            c ^= low
    return [int.from_bytes(row, "little") for row in rows]


def _greedy_free(inc: list[int]) -> int:
    """Add points in index order while no copy lies wholly inside.

    A copy through point i lies inside the chosen points plus i exactly
    when it meets no rejected point and no point after i.
    """
    later = [0] * (len(inc) + 1)
    for i in range(len(inc) - 1, -1, -1):
        later[i] = later[i + 1] | inc[i]
    rejected = chosen = 0
    for i, row in enumerate(inc):
        if row & ~(rejected | later[i + 1]):
            rejected |= row
        else:
            chosen |= 1 << i
    return chosen


def _packing(inc: list[int], copies: list[int], und: int, alive: int,
             pairs: int, need: int) -> int:
    """Greedy count, stopping at ``need``, of live copies whose undecided
    parts are pairwise disjoint; each must lose its own undecided point.

    Copies with two undecided points (``pairs``) are packed first, then
    any live copy.  Within a pass the points are visited in index order
    and a point's lowest free copy is taken, so the cost is a few int
    operations per undecided point, not one per copy.
    """
    packed = 0
    free = alive  # live copies disjoint from every packed part
    used = 0
    for pool in (pairs, alive):
        pool &= free
        rest = und & ~used
        while pool and rest and packed < need:
            low = rest & -rest
            rest ^= low
            cand = inc[low.bit_length() - 1] & pool
            if cand:
                packed += 1
                part = copies[(cand & -cand).bit_length() - 1] & und
                used |= part
                rest &= ~part
                while part:
                    low = part & -part
                    row = inc[low.bit_length() - 1]
                    free &= ~row
                    pool &= ~row
                    part ^= low
    return packed


def ex_search(family: Family, n: int,
              time_limit: float | None = None) -> TuranCertificate:
    """Maximum size of an n-dimensional family-free matroid, with witness.

    The forbidden copies are indexed once (``_all_copies``), and the
    search works on an incidence index: ``inc[i]`` is the bitset of copy
    ids through point i + 1.  A node holds ``allowed`` (points not
    excluded), ``kept`` (allowed points protected from exclusion) and
    ``alive`` (the copies inside ``allowed``, as one int); excluding a
    point p makes ``alive & ~inc[p]``.

    At a node, one pass over the undecided points builds bit-sliced
    counters ``ones``, ``twos``, ``threes`` over copy ids: the live
    copies with at least one, two, three undecided points.  A live copy
    with none lies inside ``kept`` and kills the node; a copy with
    exactly one forces the exclusion of that point.  Once nothing is
    forced, live copies whose undecided parts are pairwise disjoint are
    packed greedily; each needs a distinct excluded point, so the node is
    pruned when ``|allowed| - packing <= best``.  Branching takes a copy
    with exactly two undecided points if there is one, else the first
    live copy: for its undecided points p_1 < ... < p_m, child i
    excludes p_i and protects p_1..p_{i-1}, so no state is reached
    twice.  The incumbent is seeded greedily.

    Symmetry.  The copy set is invariant under GL(n,2): a copy is the
    image of a member under an injective linear map, and composing with
    an invertible map gives another one.  So the image of a free set is
    free, of the same size, and a free set larger than the incumbent may
    be replaced by any of its images.  GL(n,2) is 2-transitive on the
    nonzero vectors, so such a set may be assumed to contain e1 and then
    e2 (it has at least one, then two points).  The pointwise stabiliser
    of e1 and e2 has two orbits on the remaining points: {e1+e2} and the
    points outside span(e1, e2).  So the root and the next node have one
    child each (protect e1, then e2), and the third branching has two:
    protect e1+e2, or exclude e1+e2 and protect e3.  Below that the
    search is the plain one above.  Protecting a point turns the copies
    through it into smaller ones, which is what makes the packing bound
    bite: with e1 protected, the triangles through e1 pair up the other
    points, so ex({PG(1,2)}, n) is certified at the second node.

    ``nodes`` counts the search nodes that passed the size test.  The
    deadline also holds while the copies are indexed: if it passes there,
    the certificate is uncertified, with value 0, an empty witness and 0
    nodes.
    """
    if n < 0:
        raise UsageError("need n >= 0")
    if n > EX_MAX_DIM:
        raise CapacityError(f"exact search limited to n <= {EX_MAX_DIM}")
    start = time.monotonic()
    deadline = start + time_limit if time_limit is not None else None
    total = (1 << n) - 1
    all_mask = (1 << total) - 1
    try:
        copies = _all_copies(family, n, deadline)
    except TimeoutError:
        return TuranCertificate(
            family=family.members, n=n, value=0,
            witness=Matroid.from_mask(n, 0), method="branch-bound",
            certified=False, nodes=0,
            elapsed_ms=int((time.monotonic() - start) * 1000))
    inc = _incidence(copies, total)
    best_mask = _greedy_free(inc)
    best = best_mask.bit_count()
    nodes = 0
    certified = True
    stack = [(all_mask, 0, (1 << len(copies)) - 1)]  # (allowed, kept, alive)
    while stack:
        allowed, kept, alive = stack.pop()
        size = allowed.bit_count()
        if size <= best:
            continue
        if deadline is not None and time.monotonic() > deadline:
            certified = False
            break
        nodes += 1
        while True:
            und = allowed & ~kept
            ones = twos = threes = 0
            rest = und
            while rest:
                low = rest & -rest
                rest ^= low
                x = inc[low.bit_length() - 1] & alive
                threes |= twos & x
                twos |= ones & x
                ones |= x
            single = ones & ~twos
            if not single:
                break
            rest = und
            while rest:
                low = rest & -rest
                rest ^= low
                row = inc[low.bit_length() - 1]
                if row & single:
                    allowed ^= low
                    alive &= ~row
            size = allowed.bit_count()
            if size <= best:
                break
        if size <= best or alive & ~ones:
            continue  # bounded, or a copy lies inside kept
        if not alive:
            best, best_mask = size, allowed
            continue
        pairs = twos & ~threes
        if size - _packing(inc, copies, und, alive, pairs,
                           size - best) <= best:
            continue
        if allowed == all_mask and kept in (0, 1, 3) \
                and best >= kept.bit_count():
            # Only reached on the first three branchings, and valid only
            # because the copy set is GL(n,2)-invariant (see the
            # docstring): nothing is excluded, e1 (bit 0) and e2 (bit 1)
            # may be protected, and a set better than ``best`` has more
            # points than are protected, so the stabiliser of the
            # protected points can move one of its other points to e1,
            # e2, or e1+e2 (bit 2) or e3 (bit 3; n = 2 has no e3).
            if kept != 3:
                stack.append((allowed, kept << 1 | 1, alive))
            else:
                if total > 3:
                    stack.append((allowed ^ 4, kept | 8, alive & ~inc[2]))
                stack.append((allowed, kept | 4, alive))
            continue
        sel = pairs or alive
        branch = copies[(sel & -sel).bit_length() - 1] & und
        children = []
        while branch:
            low = branch & -branch
            branch ^= low
            children.append((allowed ^ low, kept,
                             alive & ~inc[low.bit_length() - 1]))
            kept |= low
        stack.extend(reversed(children))
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return TuranCertificate(
        family=family.members, n=n, value=best,
        witness=Matroid.from_mask(n, best_mask),
        method="branch-bound", certified=certified,
        nodes=nodes, elapsed_ms=elapsed_ms,
    )


def _seen(masks: list[int], functionals: tuple[int, ...]) -> int:
    """The points that some functional sees (``masks`` from
    ``parity_masks``): the complement of their common kernel."""
    out = 0
    for a in functionals:
        out |= masks[a]
    return out


def decomposition_family(family: Family) -> Family:
    """The decomposition family: restriction-minimal matroids whose removal
    from some member drops its critical number to k.

    Computed through codimension-k slices of the members (each slice's
    removal leaves a subset of a Bose-Burton geometry of order k), then
    deduplicated up to isomorphism and filtered to restriction-minimal
    representatives in canonical coordinates.  The slice by the common
    kernel W of k functionals drops the points that some functional sees.
    """
    k = family.k
    if k == 0:
        return family
    for m in family.members:
        if m.dim > 8:
            raise CapacityError("decomposition limited to member dim <= 8")
    classes: dict[tuple[int, str], Matroid] = {}
    for m in family.members:
        masks = parity_masks(m.dim)
        for dual in enumerate_subspaces(m.dim, k):
            inside = m.mask & ~_seen(masks, dual.basis)
            sl = recoordinatize(Matroid.from_mask(m.dim, inside))
            key = canonical_key(sl)
            classes.setdefault((key.dim, key.bits), key.matroid())
    reps = sorted(classes.values(), key=lambda m: (m.dim, m.size, m.mask))
    minimal = []
    for r in reps:
        if any(s is not r and contains(r, s) for s in reps):
            continue
        minimal.append(r)
    return Family(tuple(minimal))


@dataclass(frozen=True)
class MaintechResult:
    """Right-hand side of the decomposition formula, with its lift witness."""

    value: int
    k: int
    dfamily: Family
    sub_certificate: TuranCertificate
    witness: Matroid
    witness_free: bool


def maintech_rhs(family: Family, n: int,
                 time_limit: float | None = None) -> MaintechResult:
    """2^n(1 - 2^-k) + ex(D(family), n-k), witnessed by the lift of the
    sub-problem's extremal matroid; the witness is re-checked to be free."""
    k = family.k
    if n < k:
        raise UsageError("need n >= k")
    dfam = decomposition_family(family)
    sub = ex_search(dfam, n - k, time_limit=time_limit)
    value = (1 << n) - (1 << (n - k)) + sub.value
    if k == 0:
        witness = sub.witness
    else:
        witness = lift(LiftSpec(sub.witness, n, k))
    witness_free = all(not contains(witness, m) for m in family.members)
    return MaintechResult(value, k, dfam, sub, witness, witness_free)


def clique_constant(t: int) -> tuple[int, int]:
    """(t0, additive constant) for excluding the clique matroid M(K_t):
    t0 is the largest integer with 2^t0 < t; the constant is
    2^(t - 2^t0 - 1) - 1."""
    if t < 2:
        raise UsageError("need t >= 2")
    t0 = 0
    while (1 << (t0 + 1)) < t:
        t0 += 1
    return t0, (1 << (t - (1 << t0) - 1)) - 1


def critical_edge_check(m: Matroid) -> bool:
    """True iff deleting some single element lowers the critical number."""
    if m.dim > 8:
        raise CapacityError("critical-edge check limited to dim <= 8")
    c = chi(m)
    return any(chi(delete(m, {e})) < c for e in m.points)


@dataclass(frozen=True)
class TierReport:
    """Which exactness regime a family falls into.

    regime 'exact-constant': an independent t-set drops some member's
    critical number to k and no dependent set of size <= t does; the
    Turan number is 2^n(1-2^-k) + 2^(t-1) - 1 for large n, attained by
    lifts of PG(t-2,2).  regime 'finite-computation': only the first
    condition holds; the additive constant is ex(D, t-1).  regime
    'sparse': no independent removal reaches k (or k = 0).
    """

    regime: str
    k: int
    t: int | None
    constant: int | None
    extremal: str | None


def _independent_drop_size(family: Family, k: int) -> int | None:
    max_t = max(m.rank for m in family.members)
    for t in range(1, max_t + 1):
        for m in family.members:
            for sub in combinations(m.sorted_points(), t):
                if rank_ints(sub) == t and chi(delete(m, sub)) <= k:
                    return t
    return None


def _no_small_dependent_drop(family: Family, k: int, t: int) -> bool:
    for m in family.members:
        for s in range(3, t + 1):  # dependent sets in a simple matroid need >= 3 points
            for sub in combinations(m.sorted_points(), s):
                if rank_ints(sub) < s and chi(delete(m, sub)) <= k:
                    return False
    return True


def corollary_tier(family: Family) -> TierReport:
    """Classify the family per the exactness corollaries."""
    for m in family.members:
        if m.dim > 8:
            raise CapacityError("tier classification limited to member dim <= 8")
    k = family.k
    if k == 0:
        return TierReport("sparse", k, None, None, None)
    t = _independent_drop_size(family, k)
    if t is None:
        return TierReport("sparse", k, None, None, None)
    if _no_small_dependent_drop(family, k, t):
        return TierReport(
            "exact-constant", k, t, (1 << (t - 1)) - 1,
            f"PG({t - 2},2)^(n,{k})",
        )
    const = ex_search(decomposition_family(family), t - 1).value
    return TierReport("finite-computation", k, t, const, None)


@dataclass(frozen=True)
class StabilityReport:
    """Nearest Bose-Burton geometry of a given order, in edit distance.

    ``functionals`` is a basis of the dual of the empty flat W: the
    Bose-Burton geometry is the set of points that one of them sees.
    """

    matroid: Matroid
    functionals: tuple[int, ...]
    bose_burton: Matroid
    distance: int
    density: float


def nearest_bose_burton(m: Matroid, k: int) -> StabilityReport:
    """Minimize |M symdiff (F_2^n minus W)| over codimension-k subspaces W.

    W runs over the kernels of the k-dimensional dual spaces, in the order
    of ``enumerate_subspaces``; the first minimum wins.
    """
    if m.dim > NEAREST_MAX_DIM:
        raise CapacityError(f"stability scan limited to dim <= {NEAREST_MAX_DIM}")
    if not 1 <= k <= NEAREST_MAX_ORDER:
        raise UsageError(f"order must be in 1..{NEAREST_MAX_ORDER}")
    if k > m.dim:
        raise UsageError("order exceeds dimension")
    masks = parity_masks(m.dim)
    best = None
    for dual in enumerate_subspaces(m.dim, k):
        b_mask = _seen(masks, dual.basis)
        d = (m.mask ^ b_mask).bit_count()
        if best is None or d < best[0]:
            best = (d, dual.basis, b_mask)
    assert best is not None
    d, functionals, b_mask = best
    return StabilityReport(
        matroid=m, functionals=functionals,
        bose_burton=Matroid.from_mask(m.dim, b_mask),
        distance=d, density=m.size / (1 << m.dim),
    )


def _spanning_triangle_free(r: int, mask: int) -> bool:
    """Is the point set of ``mask`` free of triangles and of rank r?"""
    points = []
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        points.append(low.bit_length())
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            if (mask >> ((a ^ b) - 1)) & 1:
                return False
    return rank_ints(points) == r


def _aes_threshold(r: int, t: int) -> int:
    """Largest integer size NOT exceeding 2^r(1 - 2^(1-t) - 3*2^(-2-t))."""
    num = (1 << r) * ((1 << (t + 2)) - (1 << 3) - 3)
    den = 1 << (t + 2)
    return num // den


def _aes_guard(r: int, t: int) -> None:
    if t < 2 or r < t + 2:
        raise UsageError("need t >= 2 and r >= t + 2")
    if r > 4 or t != 2:
        raise CapacityError("exhaustive scan limited to (r, t) = (4, 2)")


@cache
def _aes_largest(r: int, t: int) -> Matroid | None:
    """The first largest rank-r, triangle-free matroid with critical
    number > t-1, over all masks in ascending order, or None."""
    total = (1 << r) - 1
    best: Matroid | None = None
    for mask in range(1, 1 << total):
        if best is not None and mask.bit_count() <= best.size:
            continue
        if not _spanning_triangle_free(r, mask):
            continue
        m = Matroid.from_mask(r, mask)
        if chi(m) > t - 1:
            best = m
    return best


def aes_check(r: int, t: int = 2) -> bool:
    """Exhaustively verify: every rank-r PG(t-1,2)-free matroid larger than
    the density threshold has critical number at most t-1."""
    _aes_guard(r, t)
    best = _aes_largest(r, t)
    return best is None or best.size <= _aes_threshold(r, t)


def aes_probe(r: int, t: int = 2) -> tuple[int, Matroid]:
    """Largest rank-r, PG(t-1,2)-free matroid with critical number > t-1;
    probes the tightness of the density threshold."""
    _aes_guard(r, t)
    best = _aes_largest(r, t)
    if best is None:
        raise UsageError("no qualifying matroid exists")
    return best.size, best
