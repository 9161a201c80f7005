"""Decomposition families, exact Turan-number search, and the exactness /
stability machinery built on top of them."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator

from bmx import kernels, morphism
from bmx.errors import CapacityError, FormatError, UsageError
from bmx.gf2core import flats, points_of, rank_ints
from bmx.matroid import (
    LiftSpec,
    Matroid,
    chi,
    delete,
    from_compact,
    lift,
    pg,
    recoordinatize,
    to_compact,
)
from bmx.morphism import (
    EX_MAX_DIM,
    CanonicalKey,
    _copy_count,
    _schedule_cached,
    canonical_key,
    contains,
)

NEAREST_MAX_DIM = 10
NEAREST_MAX_ORDER = 3
# the largest member rank whose codimension-k slices are enumerated
SLICE_MAX_RANK = 8


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
        as given, sorted by rank, size and ``canonical_key``.

        Two matroids are compared by ``canonical_key``, so the same points
        declared in two dimensions are one member.
        """
        matroids = list(matroids)
        if len(matroids) == 1:  # nothing to dedup, skip canonization
            return Family((matroids[0],))
        seen: dict[CanonicalKey, Matroid] = {}
        for m in matroids:
            seen.setdefault(canonical_key(m), m)
        ordered = sorted(
            seen.items(), key=lambda kv: (kv[0].rank, kv[1].size, kv[0].bits)
        )
        return Family(tuple(m for _k, m in ordered))

    @cached_property
    def spans(self) -> tuple[Matroid, ...]:
        """Each member over its own span (``recoordinatize``), aligned
        with ``members``; ``k``, ``decomposition_family`` and
        ``corollary_tier`` compute on these."""
        return tuple(map(recoordinatize, self.members))

    @cached_property
    def k(self) -> int:
        """min critical number over the members, minus one."""
        return min(chi(s) for s in self.spans) - 1


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
        """Read back ``to_json_dict``.  Nothing is coerced: the counts
        must be JSON integers, ``method`` a string and ``certified`` a
        JSON boolean, or FormatError is raised."""
        fields = {"n": int, "value": int, "nodes": int, "elapsed_ms": int,
                  "method": str, "certified": bool}
        for name, kind in fields.items():
            # exact types: bool is a subclass of int, and no count
            if type(d[name]) is not kind:
                raise FormatError(
                    f"payload field {name!r} is not {kind.__name__}")
        return TuranCertificate(
            family=tuple(from_compact(s) for s in d["family"]),
            witness=from_compact(d["witness"]),
            **{name: d[name] for name in fields},
        )


def _all_copies(family: Family, n: int,
                deadline: float | None = None) -> list[int]:
    """Point-set bitsets of every forbidden restriction inside the full
    geometry, sorted ascending by size then value.

    A member of rank above n has no copy and is skipped.  The members are
    pairwise non-isomorphic, so no copy belongs to two of them.  Raises
    CapacityError before enumerating anything when the members have more
    than ``morphism._MAX_COPIES`` copies in all (``_copy_count``).  The
    enumerator yields each copy of a member once, and the deadline is
    checked as copies arrive and once more after the sort: TimeoutError
    once ``time.monotonic()`` passes ``deadline``.
    """
    total = (1 << n) - 1
    host_pts = range(1, total + 1)
    host_mask = (1 << total) - 1
    scheds = [_schedule_cached(m.mask)
              for m in family.members if m.rank <= n]
    if sum(_copy_count(s, n, total) for s in scheds) > morphism._MAX_COPIES:
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


# copies transposed at a time by ``_incidence``: a multiple of 8, so that
# each chunk but the last fills whole bytes of a row
_INCIDENCE_CHUNK = 1 << 12
# _BIT_DIGITS[b] maps a byte to the digit "1" when its bit b is set, else "0"
_BIT_DIGITS = [bytes(b"01"[x >> b & 1] for x in range(256)) for b in range(8)]


def _incidence(copies: list[int], total: int) -> list[int]:
    """``inc[i]``: the bitset of ids of the copies through point i + 1.

    A byte transpose, in the idiom of ``gf2core.points_of``.  The copies
    are packed little-endian, ``width`` bytes each, so the strided slice
    from byte i // 8 holds that byte of every copy, in id order; it is
    translated to the digits of bit i % 8, reversed, and read as one int.
    The copies go in chunks, so the packed bytes and digits stay small,
    and each row keeps its chunks as bytes until they are joined.
    """
    width = (total + 7) // 8
    parts: list[list[bytes]] = [[] for _ in range(total)]
    for start in range(0, len(copies), _INCIDENCE_CHUNK):
        chunk = copies[start:start + _INCIDENCE_CHUNK]
        packed = b"".join([c.to_bytes(width, "little") for c in chunk])
        nbytes = (len(chunk) + 7) // 8
        for i in range(total):
            if i & 7 == 0:
                column = packed[i >> 3::width]
            digits = column.translate(_BIT_DIGITS[i & 7])[::-1]
            parts[i].append(int(digits, 2).to_bytes(nbytes, "little"))
    return [int.from_bytes(b"".join(row), "little") for row in parts]


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


def _flats(family: Family, n: int,
           deadline: float | None) -> list[tuple[int, int]]:
    """(point set, cap) of every r-flat W of F_2^n whose full charge
    2^r - 1 - ex(family, r) is at least 2, for each member rank r <= n - 2.

    A free set meets W in a free set of a PG(r-1,2), so it misses at
    least |allowed & W| - cap of W's points.  A full flat charges at least
    2 exactly when PG(r-1,2) minus a point contains a member (the points
    are one orbit), so that one ``contains`` call comes before the
    recursive solve for the cap (``_certified_ex``).  A cap that the
    deadline left uncertified is not used: its rank is skipped.
    """
    all_mask = (1 << (1 << n) - 1) - 1
    charged: list[tuple[int, int]] = []
    for r in sorted({m.rank for m in family.members if m.rank <= n - 2}):
        punctured = delete(pg(r), [1])
        if not any(contains(punctured, m) for m in family.members):
            continue
        cap = _certified_ex(family, r, deadline)
        if cap is not None:
            charged += [(all_mask & ~outside, cap)
                        for _functionals, outside in flats(n, n - r)]
    return charged


def _certified_ex(family: Family, n: int,
                  deadline: float | None) -> int | None:
    """ex(family, n) from a recursive ``ex_search`` under what is left
    before ``deadline`` (None: no limit), or None if that solve is not
    certified."""
    left = None if deadline is None else max(0.0, deadline - time.monotonic())
    sub = ex_search(family, n, time_limit=left)
    return sub.value if sub.certified else None


def _packing(inc: list[int], copies: list[int], und: int, alive: int,
             pairs: int, allowed: int, hot: list[tuple[int, int]],
             need: int) -> int:
    """Greedy count, stopping at ``need``, of the points that the node
    must still exclude, over regions of undecided points that are
    pairwise disjoint.

    Hot flats (``_flats`` entries charging at least 2) come first, fewest
    undecided points first: each one whose undecided part misses the
    parts taken so far charges its deficit |allowed & W| - cap.  Then
    live copies missing every taken part charge 1 each, those with two
    undecided points (``pairs``) first.  Within a copy pass the points
    are visited in index order and a point's lowest free copy is taken,
    so the cost is a few int operations per undecided point, not one per
    copy.
    """
    packed = 0
    used = 0
    free = alive  # live copies disjoint from every packed part
    if hot:
        for w, cap in sorted(hot, key=lambda f: (f[0] & und).bit_count()):
            part = w & und
            if not part & used:
                packed += (allowed & w).bit_count() - cap
                used |= part
                if packed >= need:
                    return packed
        rest = used
        while rest:
            low = rest & -rest
            rest ^= low
            free &= ~inc[low.bit_length() - 1]
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
    forced, regions of undecided points that are pairwise disjoint are
    packed greedily (``_packing``), each charged the exclusions it still
    needs: a live copy charges 1, a flat its deficit (below).  The node
    is pruned when ``|allowed| - packing <= best``.  Branching takes a
    copy with exactly two undecided points if there is one, else the
    first live copy: for its undecided points p_1 < ... < p_m, child i
    excludes p_i and protects p_1..p_{i-1}, so no state is reached
    twice.  The incumbent is seeded greedily, or with a Bose-Burton
    geometry (below).

    Symmetry.  The copy set is invariant under GL(n,2): a copy is the
    image of a member under an injective linear map, and composing with
    an invertible map gives another one.  So the image of a free set is
    free, of the same size.  One rule uses this at every node that is
    about to branch.  Let j be the number of coordinates of the highest
    decided (kept or excluded) point, so that every decided point lies in
    span(e1..ej).  If j < n and 2^j - 1 - |excluded| <= best, the node has
    one child, which also protects e_{j+1}.  A set of the node larger
    than ``best`` cannot fit inside the span, which holds only
    2^j - 1 - |excluded| allowed points, so it has a point outside.  The
    pointwise stabiliser of span(e1..ej) fixes every decided point and
    is transitive on the points outside the span, so it moves that point
    to e_{j+1} and the set to a set of the same node, free and of the
    same size.  At the root this protects e1, then e2, then e3 once
    ``best`` >= 3, and so on.  Protecting a point turns the copies
    through it into smaller ones, which is what makes the packing bound
    bite: with e1 protected, the triangles through e1 pair up the other
    points, so ex({PG(1,2)}, n) is certified at the second node.

    Flat charge.  A free set meets an r-flat W (an r-dimensional
    subspace, read as its points) in a free set of a PG(r-1,2), so W
    must lose its deficit |allowed & W| - ex(family, r).  The flats are
    every r-flat for each member rank r <= n - 2 whose full flat charges
    at least 2, that is, whose PG(r-1,2) minus a point contains a member
    (``_flats``).  Each cap is a certified recursive ``ex_search`` at
    n = r under what is left of the time limit; a rank whose cap is not
    certified is skipped.  A flat's charge only falls down the tree, so
    each stack entry carries the flats still charging at least 2 and a
    node rescans only those.  With e1, e2 protected, the planes through
    that line split the other points, which is what certifies
    ex({M(K4)}, 5) = 17 in 394 nodes instead of 1,831.  A stronger
    valid bound prunes only subtrees holding no set larger than the
    incumbent, so incumbents, value and witness are unchanged by it.

    Bose-Burton seed and hyperplane bound.  Let k be the least critical
    number over the members of rank <= n, minus one; a member of higher
    rank has no copy, and its critical number is never computed.  For
    k >= 1 the incumbent is BB(n, k), the points outside
    span(e_{k+1}..e_n), when that beats the greedy set.  It is free with
    no containment test: it misses a codimension-k subspace, so each of
    its restrictions has critical number at most k, below every
    member's.  While the incumbent is at most |BB(n, k)|, a recursive
    solve of ex(family, n - 1) under what is left of the time limit gives
    a bound, if it is certified.  A free set S meets each hyperplane in a
    free set of a PG(n-2,2), and each point lies in 2^(n-1) - 1 of the
    2^n - 1 hyperplanes, so (2^(n-1) - 1)|S| <= (2^n - 1) ex(family, n-1).
    An incumbent at the bound is certified at once, with 0 nodes and no
    flats; otherwise the search stops at the first leaf that reaches it.
    Write ex(family, n - 1) = |BB(n-1, k)| + c.  For
    0 <= c < 2^(n-1-k) - 1 the bound is |BB(n, k)| + 2c, so it closes on
    BB(n, k) exactly when c = 0, that is, when ex(family, n - 1) is the
    Bose-Burton value.  A greedy set larger than |BB(n, k)| shows c > 0.
    The bound is then 2c above |BB(n, k)|, where the paper's lift
    reaches only c above it once ex(D(family), .) has settled, so the
    solve is skipped there and the search closes the gap itself.

    ``nodes`` counts the search nodes that passed the size test, not
    those of the recursive solves for the caps and the bound.  The
    deadline also holds while the copies are indexed, during the solve
    for the bound and while the flats are set up.  If it
    passes during indexing, the certificate is uncertified, with value 0,
    an empty witness and 0 nodes.  ``time_limit`` must be >= 0 (``inf``
    means none); a NaN would never pass and is refused.
    """
    if time_limit is not None and not time_limit >= 0:
        raise UsageError("time limit must be >= 0")
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
    ub = total  # no free set is larger; the hyperplane bound may lower it
    spans = [s for s in family.spans if s.dim <= n]
    k = min(map(chi, spans)) - 1 if spans else 0
    if k >= 1:
        # BB(n, k) lies outside the first flat, span(e_{k+1}..e_n).  k < n
        # (chi is at most the rank), so 2^(n-1) - 1 below is at least 1
        _functionals, bb_mask = next(flats(n, k))
        bb_size = bb_mask.bit_count()
        if best < bb_size:
            best, best_mask = bb_size, bb_mask
        if best <= bb_size:
            cap = _certified_ex(family, n - 1, deadline)
            if cap is not None:
                ub = total * cap // ((1 << (n - 1)) - 1)
    nodes = 0
    certified = True
    # (allowed, kept, alive, hot): hot lists the flats that the parent
    # left charging at least 2
    stack = [] if best >= ub else [
        (all_mask, 0, (1 << len(copies)) - 1, _flats(family, n, deadline))]
    while stack:
        allowed, kept, alive, hot = stack.pop()
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
            if best >= ub:
                break
            continue
        pairs = twos & ~threes
        if hot:
            hot = [f for f in hot
                   if (allowed & f[0]).bit_count() - f[1] >= 2]
        if size - _packing(inc, copies, und, alive, pairs, allowed, hot,
                           size - best) <= best:
            continue
        # the symmetry rule (see the docstring): every decided point lies
        # in span(e1..ej); when the total - size excluded points leave it
        # no room for a set larger than best, protect e_{j+1}, the point
        # 2^j at bit 2^j - 1
        j = (kept | all_mask ^ allowed).bit_length().bit_length()
        if j < n and (1 << j) - 1 - (total - size) <= best:
            stack.append((allowed, kept | 1 << (1 << j) - 1, alive, hot))
            continue
        sel = pairs or alive
        branch = copies[(sel & -sel).bit_length() - 1] & und
        children = []
        while branch:
            low = branch & -branch
            branch ^= low
            children.append((allowed ^ low, kept,
                             alive & ~inc[low.bit_length() - 1], hot))
            kept |= low
        stack.extend(reversed(children))
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return TuranCertificate(
        family=family.members, n=n, value=best,
        witness=Matroid.from_mask(n, best_mask),
        method="branch-bound", certified=certified,
        nodes=nodes, elapsed_ms=elapsed_ms,
    )


def _slices(family: Family) -> Iterator[Matroid]:
    """Every slice M & W of every member's span M, for W a
    codimension-k flat of span(M) (k = ``family.k``, W from
    ``gf2core.flats``).

    Removing X from M leaves critical number <= k exactly when X contains
    a slice, and for k < chi(M) no slice is empty.  The slices are taken
    in each member's span (``Family.spans``), so the declared dimension
    plays no part: a codimension-k subspace of the declared space meets
    the span in codimension at most k, and when less, its slice contains
    a codimension-k one.  Every member's rank is checked against
    ``SLICE_MAX_RANK`` before k, and so before any chi search.
    """
    if any(s.dim > SLICE_MAX_RANK for s in family.spans):
        raise CapacityError(
            f"codimension-k slices limited to member rank <= {SLICE_MAX_RANK}")
    k = family.k
    for s in family.spans:
        for _functionals, outside in flats(s.dim, k):
            yield Matroid.from_mask(s.dim, s.mask & ~outside)


def decomposition_family(family: Family) -> Family:
    """The decomposition family: the restriction-minimal slices of the
    members (``_slices``), deduplicated by ``canonical_key``, in canonical
    coordinates.  ``critical_edge_check`` and ``corollary_tier`` read
    their answers off the same slices.
    """
    if family.k == 0:
        return family
    classes: dict[CanonicalKey, Matroid] = {}
    for piece in _slices(family):
        key = canonical_key(piece)
        classes.setdefault(key, key.matroid())
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
    return MaintechResult(value, k, sub, witness, witness_free)


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
    """True iff deleting some single element lowers the critical number c
    of m's span: m is nonempty and some codimension-(c - 1) slice
    (``_slices``) is a single point."""
    return m.size > 0 and any(piece.size == 1
                              for piece in _slices(Family((m,))))


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


def corollary_tier(family: Family) -> TierReport:
    """Classify the family per the exactness corollaries, computed on the
    members' spans.  A removal that drops a member to k contains a slice,
    so t is the least size of an independent slice; a dependent removal of
    at most t points contains a slice, which is then dependent, so the
    tier is exact when every dependent slice has more than t points."""
    independent, dependent = [], []
    for piece in _slices(family):
        sizes = independent if piece.rank == piece.size else dependent
        sizes.append(piece.size)
    k = family.k
    if k == 0 or not independent:
        return TierReport("sparse", k, None, None, None)
    t = min(independent)
    if min(dependent, default=t + 1) > t:
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

    functionals: tuple[int, ...]
    bose_burton: Matroid
    distance: int
    density: float


def nearest_bose_burton(m: Matroid, k: int) -> StabilityReport:
    """Minimize |M symdiff (F_2^n minus W)| over codimension-k subspaces W.

    W runs over the codimension-k flats in the order of
    ``gf2core.flats``; the first minimum wins.
    """
    if m.dim > NEAREST_MAX_DIM:
        raise CapacityError(f"stability scan limited to dim <= {NEAREST_MAX_DIM}")
    if not 1 <= k <= NEAREST_MAX_ORDER:
        raise UsageError(f"order must be in 1..{NEAREST_MAX_ORDER}")
    if k > m.dim:
        raise UsageError("order exceeds dimension")
    best = None
    for functionals, outside in flats(m.dim, k):
        d = (m.mask ^ outside).bit_count()
        if best is None or d < best[0]:
            best = (d, functionals, outside)
    d, functionals, b_mask = best
    return StabilityReport(
        functionals=functionals,
        bose_burton=Matroid.from_mask(m.dim, b_mask),
        distance=d, density=m.size / (1 << m.dim),
    )


def _spanning_triangle_free(r: int, mask: int) -> bool:
    """Is the point set of ``mask`` free of triangles and of rank r?"""
    points = points_of(mask)
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


def aes_check() -> bool:
    """Exhaustively verify at rank 4: every triangle-free (PG(1,2)-free)
    rank-4 matroid larger than the density threshold has critical
    number 1."""
    best = _aes_largest(4, 2)
    return best is None or best.size <= _aes_threshold(4, 2)


def aes_probe() -> tuple[int, Matroid]:
    """Largest rank-4, triangle-free matroid with critical number > 1;
    probes the tightness of the density threshold."""
    best = _aes_largest(4, 2)
    if best is None:
        raise UsageError("no qualifying matroid exists")
    return best.size, best
