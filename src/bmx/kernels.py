"""Search kernels.

These are the hot inner loops: canonical-form backtracking, which skips
branches that an automorphism of the matroid maps onto explored ones
(automorphisms of a span it can see at once, and those it finds as pairs
of equal leaves), one embedding enumerator behind both containment and
copy counting, and the parity-functional covering search behind the
critical number, which works on the point bitset through
``gf2core.parity_masks``.  The enumerator visits each copy of a pattern
once: it keeps only the least basis-image tuple of each orbit of the
pattern's automorphism group, checking it against the basic orbits of a
stabiliser chain as the closure checks fix each point (see
``_embeddings``).  They are plain Python; there is no compiled variant.

All inputs are primitive: vectors are ints, point sets are characteristic
bitsets (bit p-1 set iff point p is present).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections.abc import Iterator, Sequence

from bmx.gf2core import parity_masks

# the benchmark harness (perfbench/worker.py) prints it with every result
ACTIVE_BACKEND = "python"


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

    - (a) Let M' be the smaller of M and its complement and T the span of
      the prefix and M'.  Every invertible map that fixes T pointwise
      keeps M' and so M, and such maps carry any vector outside T to any
      other; one candidate outside T stands for all of them.
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
    lows = [((1 << size) - 1) // ((1 << 2 * s) - 1) * ((1 << s) - 1)
            for s in (1 << i for i in range(n))]

    def shift(bits: int, v: int) -> int:
        # {x ^ v : x in bits}; XOR with 2^i swaps the halves of every
        # block of 2^(i+1) bits, and lows[i] marks the lower halves
        for i, low in enumerate(lows):
            if v >> i & 1:
                s = 1 << i
                bits = (bits & low) << s | (bits >> s) & low
        return bits

    pm = pmask << 1
    tr = [shift(pm, a) for a in range(size)]
    small = pm if 2 * pmask.bit_count() <= total else (full << 1) ^ pm
    t0 = 1  # span(M')
    for p in range(1, size):
        if small >> p & 1:
            t0 |= shift(t0, p)
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
                back = level(k + 1, span | shift(span, v),
                             t if t >> v & 1 else t | shift(t, v))
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


def _embeddings(cands: Sequence[Sequence[int]], host_mask: int,
                checks: Sequence[Sequence[int]],
                bounds: Sequence[Sequence[int]],
                imgs: list[int]) -> Iterator[int]:
    """Yield the image point set (a bitset) of every injective embedding
    whose basis-image tuple is the least in its orbit under Aut(N).

    Slot j takes images v, in ascending order, from ``cands[j]``;
    ``checks[j]`` lists the coefficient masks (over basis slots 0..j, bit
    j always set) of the pattern points that slot j closes, and each such
    point must land on a host point.  Every pattern point is closed by
    exactly one slot, so a copy's image is built level by level from the
    closure checks, and the images stay linearly independent.  At each
    yield ``imgs`` holds the basis images.

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
    so every copy of N is yielded exactly once.  A point of O_i lies
    outside span(b_0..b_{i-1}), so it is closed at slot i or later, when
    imgs[i] is known.
    """
    r = len(checks)
    if r == 0:
        yield 0
        return
    # inside, bit x of a bitset stands for vector x, and bit 0 for zero
    hm = host_mask << 1
    own = [0] * r  # own[j]: the slots bounding the basis point b_j
    lows: list[list[tuple[int, int]]] = [[] for _ in range(r)]
    for j, (cs, bs) in enumerate(zip(checks, bounds)):
        for c, b in zip(cs, bs):
            if c == 1 << j:
                own[j] = b
            else:
                lows[j].append((c ^ (1 << j), b))
    span = [0]  # span[c]: the sum of imgs[i] over the bits i of c

    def floor(slots: int) -> int:
        # the largest imgs[i] over the bits i of slots, or 0
        lo = 0
        while slots:
            low = slots & -slots
            slots ^= low
            lo = max(lo, imgs[low.bit_length() - 1])
        return lo

    def level(j: int, image: int, blocked: int) -> Iterator[int]:
        # a closed point x = v ^ t must exceed lb, and also v where top
        # is the top bit of t: x > v iff v lacks that bit
        earlier = (1 << j) - 1
        ts = [(span[low], floor(b & earlier),
               1 << span[low].bit_length() - 1 if b >> j & 1 else 0)
              for low, b in lows[j]]
        last = j + 1 == r
        pts = cands[j]
        for v in pts[bisect_right(pts, floor(own[j])):]:
            if blocked >> v & 1:
                continue
            img = image | 1 << v
            for t, lb, top in ts:
                x = v ^ t
                if not hm >> x & 1 or x <= lb or v & top:
                    break
                img |= 1 << x
            else:
                imgs[j] = v
                if last:
                    yield img >> 1
                    continue
                size = len(span)
                span.extend([v ^ s for s in span])
                inner = blocked
                for w in span[size:]:
                    inner |= 1 << w
                yield from level(j + 1, img, inner)
                del span[size:]

    yield from level(0, 0, 1)


def find_embedding(host_pts: Sequence[int], host_mask: int,
                   checks: Sequence[Sequence[int]],
                   bounds: Sequence[Sequence[int]]) -> list[int] | None:
    """Images of the pattern basis under the first injective embedding
    into the host point set, or None.  The first is the least basis-image
    tuple of all, which is the least of its orbit, so the lex-leader rule
    of ``_embeddings`` never skips it."""
    imgs = [0] * len(checks)
    for _image in _embeddings([host_pts] * len(checks), host_mask, checks,
                              bounds, imgs):
        return imgs
    return None


# the deadline is checked once per this many images
_CHECK_EVERY = 1024


def all_embedding_images(host_pts: Sequence[int], host_mask: int,
                         checks: Sequence[Sequence[int]],
                         bounds: Sequence[Sequence[int]],
                         deadline: float | None = None) -> list[int]:
    """Image point sets (as bitsets) of the injective embeddings, each
    copy of the pattern once.

    Every ``_CHECK_EVERY`` images, raises TimeoutError once
    ``time.monotonic()`` has passed ``deadline``.
    """
    out: list[int] = []
    for image in _embeddings([host_pts] * len(checks), host_mask, checks,
                             bounds, [0] * len(checks)):
        out.append(image)
        if (deadline is not None and len(out) % _CHECK_EVERY == 0
                and time.monotonic() > deadline):
            raise TimeoutError("deadline passed while indexing copies")
    return out


def count_embedding_images(host_pts: Sequence[int], host_mask: int,
                           checks: Sequence[Sequence[int]],
                           bounds: Sequence[Sequence[int]]) -> int:
    """Number of the images ``all_embedding_images`` returns, counted as
    they are generated, so that none is kept."""
    return sum(1 for _image in _embeddings([host_pts] * len(checks),
                                           host_mask, checks, bounds,
                                           [0] * len(checks)))


def cover_exists(n: int, pmask: int, depth: int) -> list[int] | None:
    """Find <= depth parity functionals covering every point, or None.

    A functional a covers p when <a, p> = 1; a full cover means the common
    kernel of the chosen functionals misses the point set ``pmask``
    entirely.  The search branches on the lowest uncovered point, and
    choosing a leaves ``uncovered & ~parity_masks(n)[a]``.
    """
    if pmask == 0:
        return []
    table = parity_masks(n)
    failed: dict[int, int] = {}
    chosen: list[int] = []

    def search(uncovered: int, d: int) -> bool:
        if uncovered == 0:
            return True
        if d == 0:
            return False
        if failed.get(uncovered, -1) >= d:
            return False
        v = (uncovered & -uncovered).bit_length()
        for a in range(1, len(table)):
            if not (a & v).bit_count() & 1:
                continue
            chosen.append(a)
            if search(uncovered & ~table[a], d - 1):
                return True
            chosen.pop()
        failed[uncovered] = d
        return False

    return chosen if search(pmask, depth) else None
