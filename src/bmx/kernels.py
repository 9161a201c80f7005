"""Search kernels.

These are the hot inner loops: canonical-form backtracking, which skips
branches that an automorphism of the matroid maps onto explored ones
(automorphisms of a span it can see at once, and those it finds as pairs
of equal leaves), one embedding enumerator behind containment, copy
indexing and copy counting, and the parity-functional covering search
behind the critical number, which works on the point bitset through
``gf2core.parity_masks``.  The enumerator visits each copy of a pattern
once: it keeps only the least basis-image tuple of each orbit of the
pattern's automorphism group, checking it against the basic orbits of a
stabiliser chain as the closure checks fix each point.  Each basis slot
finds all of its passing images at once, as one bitset over the vectors
of the host's space, and the last slot's bitset is handed back whole, to
be counted, expanded or read for its lowest image (see ``_embeddings``).
They are plain Python; there is no compiled variant.

All inputs are primitive: vectors are ints, point sets are characteristic
bitsets (bit p-1 set iff point p is present).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections.abc import Iterator, Sequence

from bmx.gf2core import parity_masks

# the benchmark harness (perfbench/worker.py) prints it with every result
ACTIVE_BACKEND = "python"

# the largest dimension in which ``ex`` searches and ``count_restrictions``
# counts; ``_embeddings`` reads every host inside it off whole bitsets
EX_MAX_DIM = 8

_LOWS: dict[int, list[int]] = {}


def _lows(n: int) -> list[int]:
    """``_lows(n)[i]``: the bitset of the vectors of F_2^n (bit x for
    vector x) whose bit i is clear, built by doubling a block of 2^(i+1)
    bits, in time linear in its 2^n bits.  Cached for n <= EX_MAX_DIM."""
    lows = _LOWS.get(n)
    if lows is None:
        size = 1 << n
        lows = []
        for i in range(n):
            half = 1 << i
            low, width = (1 << half) - 1, 2 * half
            while width < size:
                low |= low << width
                width *= 2
            lows.append(low)
        if n <= EX_MAX_DIM:
            _LOWS[n] = lows
    return lows


def _whole_slots(dim: int, size: int) -> bool:
    """Does ``_embeddings`` read each slot off whole bitsets over F_2^dim,
    for a host of ``size`` points whose highest point needs dim bits?

    Inside EX_MAX_DIM a bitset is a few machine words.  Above it every
    bitset costs 2^dim bits, and a scan does one set lookup per host
    point.  The scan wins on sparse hosts; the size test stays for dense
    ones, where the scan took ``contains`` of Fano in BB(9,2) from 84 to
    515 ms, in BB(10,2) from 0.74 to 4.35 s, and of the triangle in
    BB(12,1) from 10 to 210 ms (one core of a 2-core VM).
    """
    return dim <= EX_MAX_DIM or size >= 5 * dim


def _translate(bits: int, t: int, lows: list[int]) -> int:
    """{x ^ t : x in bits}: XOR with 2^i swaps the halves of every block
    of 2^(i+1) bits, and lows[i] marks the lower halves."""
    while t:
        half = t & -t
        t ^= half
        low = lows[half.bit_length() - 1]
        bits = (bits & low) << half | (bits >> half) & low
    return bits


def canon_mask(n: int, pmask: int) -> int:
    """Characteristic bitset of the GL(n,2)-minimal copy of a matroid.

    Minimizes the characteristic bitstring (index 1 first) of h(M) over
    invertible h, by assigning h on e_1..e_n level by level.  Level k
    fixes string positions 2^(k-1)..2^k-1 exactly, so sibling branches
    compare on equal terms and only locally-minimal segments recurse.  A
    segment is found bit by bit on bitsets: ``tr[a]`` holds the vectors v
    with v + a in M, and each position keeps the candidates that read 0
    there, if any do.

    Two tied siblings in one orbit of the automorphisms of M that fix the
    assigned prefix pointwise lead to the same least string, since such
    an automorphism carries one subtree's leaves onto the other's with
    equal strings.  So a tied candidate is skipped when it lies in the
    orbit of an explored sibling, with orbits from two sources:

    - (a) Let M' be the complement of M and T the span of the prefix and
      M'.  Every invertible map that fixes T pointwise keeps M' and so M,
      and such maps carry any vector outside T to any other; one
      candidate outside T stands for all of them.  (M itself spans,
      since keys are taken over the span.)
    - (b) Two leaves h*, h' with equal strings give the automorphism
      g = h' h*^-1 of M (McKay & Piperno, "Practical graph isomorphism
      II", 2014).  The reference leaf h* is the first leaf since ``best``
      last changed, so every later leaf that is reached equals it.  A
      node closes its explored siblings under the generators that fix
      its prefix.  And g fixes the prefix that h' shares with h* and
      maps the branch of h* below it onto the branch of h', so the
      search returns to the node where the two paths part.
    """
    total = (1 << n) - 1
    full = (1 << total) - 1
    if pmask == 0 or pmask == full:
        return pmask
    # inside, bit x of a bitset stands for vector x, and bit 0 for zero
    size = 1 << n
    lows = _lows(n)
    pm = pmask << 1
    tr = [pm]  # tr[a] is tr[a ^ half] translated by half, the low bit of a
    for a in range(1, size):
        half = a & -a
        low, b = lows[half.bit_length() - 1], tr[a ^ half]
        tr.append((b & low) << half | (b >> half) & low)
    comp = (full << 1) ^ pm
    t0 = 1  # span(M')
    for p in range(1, size):
        if comp >> p & 1:
            t0 |= _translate(t0, p, lows)
    img = [0] * size
    best = [-1] * (n + 1)
    gens: list[list[int]] = []  # automorphisms of M, as lookup tables
    ref: list[int] | None = None  # the reference leaf h*

    def level(k: int, span: int, t: int) -> int:
        # returns the level to go back to, or 0 to go on as usual
        nonlocal ref
        m = 1 << (k - 1)
        cands = ((1 << size) - 1) & ~span
        seg = 0
        bound = best[k]
        for j in range(m):
            seg <<= 1
            zero = cands & ~tr[img[j]]
            if zero:
                cands = zero
            else:
                seg |= 1
                if bound >= 0 and seg > bound >> (m - 1 - j):
                    return 0
        if bound < 0 or seg < bound:
            best[k] = seg
            for kk in range(k + 1, n + 1):
                best[kk] = -1
            ref = None
        fixed = [img[1 << i] for i in range(k - 1)]
        stab: list[list[int]] = []  # the generators that fix the prefix
        tried = 0  # gens[:tried] were filtered into stab
        orbit: list[int] = []  # explored siblings and their images
        seen = 0  # the same, as a bitset
        outside = False  # an explored sibling lies outside T
        while cands:
            v = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            if tried < len(gens):
                stab += [g for g in gens[tried:]
                         if all(g[b] == b for b in fixed)]
                tried = len(gens)
                seen = _close(orbit, seen, 0, stab)
            if seen >> v & 1:
                continue
            if not t >> v & 1:
                if outside:
                    continue
                outside = True
            img[m:2 * m] = [v ^ w for w in img[:m]]
            if k < n:
                back = level(k + 1, span | _translate(span, v, lows),
                             t if t >> v & 1 else t | _translate(t, v, lows))
                if back and back < k:
                    return back
            elif ref is None:
                ref = img[:]
            else:
                g = [0] * size
                for x, y in zip(ref, img):
                    g[x] = y
                gens.append(g)
                back = 1
                while img[1 << (back - 1)] == ref[1 << (back - 1)]:
                    back += 1
                if back < k:
                    return back
            orbit.append(v)
            seen = _close(orbit, seen | 1 << v, len(orbit) - 1, stab)
        return 0

    level(1, 1, t0)
    out = 0
    for k in range(1, n + 1):
        m = 1 << (k - 1)
        seg = best[k]
        for j in range(m):
            if (seg >> (m - 1 - j)) & 1:
                out |= 1 << (m + j - 1)
    return out


def _close(members: list[int], bits: int, start: int,
           gens: list[list[int]]) -> int:
    """Close ``members`` (also the bitset ``bits``) under ``gens``, which
    are applied to members[start:] and to every new member."""
    i = start
    while i < len(members):
        x = members[i]
        i += 1
        for g in gens:
            y = g[x]
            if not bits >> y & 1:
                bits |= 1 << y
                members.append(y)
    return bits


def _embeddings(host_pts: Sequence[int], host_mask: int,
                checks: Sequence[Sequence[int]],
                bounds: Sequence[Sequence[int]], imgs: list[int],
                pinned: Sequence[int] = (), build_image: bool = False,
                ) -> Iterator[tuple[int, int, list[int]]]:
    """An iterator over ``(image, last, offsets)``, one for each prefix of
    basis images that some image of the last slot completes to an
    injective embedding whose basis-image tuple is the least in its orbit
    under Aut(N).

    Slot j takes images v from the host points ``host_pts``, or only
    ``pinned[j]`` when j < len(pinned); ``checks[j]`` lists the
    coefficient masks (over basis slots 0..j, bit j always set) of the
    pattern points that slot j closes, and each such point must land on a
    host point.  Every pattern point is closed by exactly one slot, so a
    copy's image is built level by level from the closure checks, and the
    images stay linearly independent.

    Each slot finds all of its passing images at once, as a bitset over
    vectors (bit v for vector v): its candidates, minus the span of the
    earlier images, minus everything at or below its lex-leader floor;
    then each closure check ANDs in the host points it may land on,
    XOR-translated by the check's offset t (the sum of the earlier images
    in its mask), since v ^ t is the point it closes.  Only the survivors
    are recursed into, in ascending order.  The last slot is never
    recursed into: its bitset ``last`` comes with ``image``, the
    bitset of the prefix's points in the same vector coordinates, and the
    last slot's ``offsets``, so a survivor v adds the points v and v ^ t
    for t in offsets.  ``image`` is built only under ``build_image`` and
    is 0 otherwise: finding and counting never read it, and on a host
    above EX_MAX_DIM it costs 2^dim bits per prefix.  As each tuple
    arrives ``imgs`` holds the basis images of every slot but the last.
    An empty pattern gives one tuple, with a last slot holding only the
    zero vector.

    On a sparse host of high dimension (``_whole_slots``), a bitset over
    every vector costs more than the few points the host offers, so each
    slot scans its candidates one by one, looking up the host points and
    the span of the earlier images in sets, and only the last slot
    gathers its survivors into a bitset.

    Lex-leader rule.  Let b_j = 1 << j be the basis in slot coordinates
    and O_j the orbit of b_j under the automorphisms of N that fix
    b_0..b_{j-1} pointwise.  ``bounds[j][k]`` is the bitset of the slots
    i with x in O_i - {b_i}, for the point x that ``checks[j][k]``
    closes.  An embedding phi is kept iff phi(b_i) < phi(x) for all such
    i and x, and the kept ones are exactly the least tuple
    (phi(b_0), ..., phi(b_{r-1})) of each orbit {phi s : s in Aut(N)}:

    - If phi is least and x = s(b_i) != b_i with s fixing b_0..b_{i-1},
      then phi s agrees with phi before position i and has phi(x) at
      position i, so phi(b_i) <= phi(x), and phi(b_i) != phi(x) since
      phi is injective.
    - Conversely, let phi pass and s be in Aut(N) with phi s != phi.  At
      the first position i where the tuples differ, phi(s(b_h)) =
      phi(b_h) for h < i gives s(b_h) = b_h by injectivity, so x =
      s(b_i) lies in O_i - {b_i}, and phi s is larger at position i.

    Two embeddings with the same image differ by an automorphism of N,
    so every copy of N is met exactly once.  A point of O_i lies
    outside span(b_0..b_{i-1}), so it is closed at slot i or later, when
    imgs[i] is known.  For the bitsets: a closed point x = v ^ t must
    exceed the floor lb of its bound's earlier slots, so the host is cut
    to the points above lb before the translation; when the bound also
    names slot j itself, x > v, which holds iff v lacks the top bit of t.
    """
    r = len(checks)
    if r == 0:
        return iter([(0, 1, ())])
    hm = host_mask << 1
    dim = host_mask.bit_length().bit_length()
    lows = _lows(dim) if _whole_slots(dim, len(host_pts)) else None
    host = set(host_pts) if lows is None else None
    own = [0] * r  # own[j]: the slots bounding the basis point b_j
    # closes[j]: (coefficients of the earlier slots, the earlier slots of
    # its bound, whether its bound names slot j) for each point slot j
    # closes besides b_j
    closes: list[list[tuple[int, int, int]]] = [[] for _ in range(r)]
    for j, (cs, bs) in enumerate(zip(checks, bounds)):
        for c, b in zip(cs, bs):
            if c == 1 << j:
                own[j] = b
            else:
                closes[j].append((c ^ 1 << j, b & (1 << j) - 1, b >> j & 1))
    span = [0]  # span[c]: the sum of imgs[i] over the bits i of c

    def floor(slots: int) -> int:
        # the largest imgs[i] over the bits i of slots, or 0
        lo = 0
        while slots:
            i = slots.bit_length() - 1
            slots ^= 1 << i
            if imgs[i] > lo:
                lo = imgs[i]
        return lo

    def survivors(j: int, blocked: int) -> tuple[int | list[int], list[int]]:
        # slot j's passing images, as a bitset for the last slot and as an
        # ascending list before it, and its checks' offsets; ``blocked`` is
        # the bitset of ``span``, kept only when reading whole slots
        offsets = [span[c] for c, _b, _strict in closes[j]]
        lo = floor(own[j]) + 1
        if lows is not None:
            bits = 1 << pinned[j] if j < len(pinned) else hm
            bits = bits >> lo << lo
            bits ^= bits & blocked
            for t, (_c, b, strict) in zip(offsets, closes[j]):
                if not bits:
                    break
                lb = floor(b) + 1
                h = hm >> lb << lb
                if strict:
                    # v lacks the top bit of t, and v ^ t is in h
                    top = 1 << t.bit_length() - 1
                    h = h >> top & lows[top.bit_length() - 1]
                    t ^= top
                bits &= _translate(h, t, lows)
            return (bits if j + 1 == r else _members(bits)), offsets
        ts = [(t, floor(b), 1 << t.bit_length() - 1 if strict else 0)
              for t, (_c, b, strict) in zip(offsets, closes[j])]
        pts = (pinned[j],) if j < len(pinned) else host_pts
        spanned = set(span)
        found = []
        for v in pts[bisect_left(pts, lo):]:
            if v in spanned:
                continue
            for t, lb, top in ts:
                x = v ^ t
                if x not in host or x <= lb or v & top:
                    break
            else:
                found.append(v)
        if j + 1 < r:
            return found, offsets
        bits = 0
        for v in found:
            bits |= 1 << v
        return bits, offsets

    def level(j: int, image: int, blocked: int, found: list[int],
              offsets: list[int]):
        # recurse into the passing images ``found`` of slot j < r - 1
        penultimate = j + 2 == r
        for v in found:
            img = image
            if build_image:
                img |= 1 << v
                for t in offsets:
                    img |= 1 << (v ^ t)
            imgs[j] = v
            size = len(span)
            span.extend([v ^ s for s in span])
            inner = blocked
            if lows is not None:
                for w in span[size:]:
                    inner |= 1 << w
            last, last_offsets = survivors(j + 1, inner)
            if last and penultimate:
                yield img, last, last_offsets
            elif last:
                yield from level(j + 1, img, inner, last, last_offsets)
            del span[size:]

    first, offsets = survivors(0, 1)
    if r == 1:
        return iter([(0, first, offsets)] if first else [])
    return level(0, 0, 1, first, offsets)


def find_embedding(host_pts: Sequence[int], host_mask: int,
                   checks: Sequence[Sequence[int]],
                   bounds: Sequence[Sequence[int]]) -> list[int] | None:
    """Images of the pattern basis under the first injective embedding
    into the host point set, or None: the first prefix with the lowest
    image of its last slot.  That is the least basis-image tuple of all,
    which is the least of its orbit, so the lex-leader rule of
    ``_embeddings`` never skips it."""
    imgs = [0] * len(checks)
    for _image, last, _offsets in _embeddings(host_pts, host_mask, checks,
                                              bounds, imgs):
        if imgs:
            imgs[-1] = (last & -last).bit_length() - 1
        return imgs
    return None


def all_embedding_images(host_pts: Sequence[int], host_mask: int,
                         checks: Sequence[Sequence[int]],
                         bounds: Sequence[Sequence[int]],
                         deadline: float | None = None) -> list[int]:
    """Image point sets (as bitsets) of the injective embeddings, each
    copy of the pattern once, in the order ``_embeddings`` meets them.

    Once per last-slot batch (at most 2^n images for a host in F_2^n),
    raises TimeoutError once ``time.monotonic()`` has passed
    ``deadline``.
    """
    out: list[int] = []
    # no slot pinned, and the images built
    for image, last, offsets in _embeddings(host_pts, host_mask, checks,
                                            bounds, [0] * len(checks),
                                            (), True):
        for v in _members(last):
            img = image | 1 << v
            for t in offsets:
                img |= 1 << (v ^ t)
            out.append(img >> 1)
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("deadline passed while indexing copies")
    return out


def count_embedding_images(host_pts: Sequence[int], host_mask: int,
                           checks: Sequence[Sequence[int]],
                           bounds: Sequence[Sequence[int]]) -> int:
    """Number of the images ``all_embedding_images`` returns: the
    popcounts of the last-slot bitsets, so that no image is built."""
    return sum(last.bit_count() for _image, last, _offsets
               in _embeddings(host_pts, host_mask, checks, bounds,
                              [0] * len(checks)))


def _members(bits: int) -> list[int]:
    """The positions of the set bits of ``bits``, ascending."""
    out = []
    while bits:
        low = bits & -bits
        bits ^= low
        out.append(low.bit_length() - 1)
    return out


def cover_exists(n: int, pmask: int, depth: int) -> list[int] | None:
    """Find <= depth parity functionals covering every point, or None.

    A functional a covers p when <a, p> = 1; a full cover means the common
    kernel of the chosen functionals misses the point set ``pmask``
    entirely.  The search branches on the lowest uncovered point, and
    choosing a leaves ``uncovered & ~parity_masks(n)[a]``.

    A functional whose leading bit leads one already chosen is skipped,
    so the chosen ones have distinct leading bits.  This loses no cover:
    every uncovered point lies in the kernel of the chosen ones, so all
    functionals of a coset of their span cover the same uncovered points,
    and reducing by the chosen ones whose leading bits it shares gives a
    member of the coset that is not skipped (and not 0, since it covers
    the branch point).  So whether a search from ``uncovered`` with d
    functionals left succeeds depends on those two alone, and the
    ``failed`` memo keys on them.

    A node fails at once when it has too many uncovered points to miss.
    With s functionals chosen (independent, by their leading bits) and d
    left, the uncovered points lie in a kernel of dimension n - s, and d
    more functionals cut from it a subspace of at least 2^(n-s-d) - 1
    points, which must miss them all; so there can be at most
    2^(n-s) - 2^(n-s-d) of them.  Since s + d = depth <= n, that bound is
    (2^d - 1) * 2^(n-depth), and at d = 0 it is 0.
    """
    if pmask == 0:
        return []
    depth = min(depth, n)  # at most n distinct leading bits
    table = parity_masks(n)
    failed: dict[int, int] = {}
    chosen: list[int] = []
    room = n - depth

    def search(uncovered: int, d: int, leads: int) -> bool:
        if uncovered == 0:
            return True
        if uncovered.bit_count() > ((1 << d) - 1) << room:
            return False
        if failed.get(uncovered, -1) >= d:
            return False
        v = (uncovered & -uncovered).bit_length()
        for i in range(n):
            if leads >> i & 1:
                continue
            for a in range(1 << i, 2 << i):
                if not (a & v).bit_count() & 1:
                    continue
                chosen.append(a)
                if search(uncovered & ~table[a], d - 1, leads | 1 << i):
                    return True
                chosen.pop()
        failed[uncovered] = d
        return False

    return chosen if search(pmask, depth, 0) else None
