"""Search kernels.

These are the hot inner loops: canonical-form backtracking, one
embedding enumerator behind both containment and copy counting, and the
parity-functional covering search behind the critical number, which
works on the point bitset through ``gf2core.parity_masks``.  They are
plain Python; there is no compiled variant.

All inputs are primitive: vectors are ints, point sets are characteristic
bitsets (bit p-1 set iff point p is present).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from bmx.gf2core import parity_masks

# the benchmark harness (perfbench/worker.py) prints it with every result
ACTIVE_BACKEND = "python"


def canon_mask(n: int, pmask: int) -> int:
    """Characteristic bitset of the GL(n,2)-minimal copy of a matroid.

    Minimizes the characteristic bitstring (index 1 first) of h(M) over
    invertible h, by assigning h on e_1..e_n level by level.  Level k
    fixes string positions 2^(k-1)..2^k-1 exactly, so sibling branches
    compare on equal terms and only locally-minimal segments recurse.
    """
    total = (1 << n) - 1
    if pmask == 0 or pmask == (1 << total) - 1:
        return pmask
    img = [0] * (1 << n)
    best = [-1] * (n + 1)

    def level(k: int, span_mask: int) -> None:
        m = 1 << (k - 1)
        locmin = -1
        cands: list[tuple[int, int]] = []
        for v in range(1, total + 1):
            if (span_mask >> (v - 1)) & 1:
                continue
            seg = 0
            for j in range(m):
                seg = (seg << 1) | ((pmask >> ((v ^ img[j]) - 1)) & 1)
            if locmin < 0 or seg < locmin:
                locmin = seg
                cands = [(v, seg)]
            elif seg == locmin:
                cands.append((v, seg))
        if best[k] >= 0 and locmin > best[k]:
            return
        if best[k] < 0 or locmin < best[k]:
            best[k] = locmin
            for kk in range(k + 1, n + 1):
                best[kk] = -1
        for v, _seg in cands:
            new_span = span_mask
            for j in range(m):
                w = v ^ img[j]
                img[m + j] = w
                new_span |= 1 << (w - 1)
            if k < n:
                level(k + 1, new_span)
            # img slots above m are overwritten by the next sibling

    level(1, 0)
    out = 0
    for k in range(1, n + 1):
        m = 1 << (k - 1)
        seg = best[k]
        for j in range(m):
            if (seg >> (m - 1 - j)) & 1:
                out |= 1 << (m + j - 1)
    return out


def _embeddings(host_pts: Sequence[int], host_mask: int,
                checks: Sequence[Sequence[int]], injective: bool,
                imgs: list[int]) -> Iterator[int]:
    """Yield the image point set (a bitset) of every embedding.

    Slot j takes images v from ``host_pts``; ``checks[j]`` lists the
    coefficient masks (over basis slots 0..j, bit j always set) of the
    pattern points that slot j closes, and each such point must land on
    a host point.  Every pattern point is closed by exactly one slot, so
    a copy's image is built level by level from the closure checks.
    With ``injective`` the images must stay linearly independent.  At
    each yield ``imgs`` holds the basis images.
    """
    r = len(checks)
    if r == 0:
        yield 0
        return
    # inside, bit x of a bitset stands for vector x, and bit 0 for zero
    hm = host_mask << 1
    lows = [[c ^ (1 << j) for c in cs if c != 1 << j]
            for j, cs in enumerate(checks)]
    span = [0]  # span[c]: the sum of imgs[i] over the bits i of c

    def level(j: int, image: int, blocked: int) -> Iterator[int]:
        ts = [span[low] for low in lows[j]]
        last = j + 1 == r
        for v in host_pts:
            if blocked >> v & 1:
                continue
            img = image | 1 << v
            for t in ts:
                x = v ^ t
                if not hm >> x & 1:
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
                if injective:
                    for w in span[size:]:
                        inner |= 1 << w
                yield from level(j + 1, img, inner)
                del span[size:]

    yield from level(0, 0, 1 if injective else 0)


def find_embedding(host_pts: Sequence[int], host_mask: int,
                   checks: Sequence[Sequence[int]],
                   injective: bool) -> list[int] | None:
    """Images of the pattern basis under the first embedding into the
    host point set, or None.  Without ``injective`` the map need only
    send every pattern point to a host point."""
    imgs = [0] * len(checks)
    for _image in _embeddings(host_pts, host_mask, checks, injective, imgs):
        return imgs
    return None


def all_embedding_images(host_pts: Sequence[int], host_mask: int,
                         checks: Sequence[Sequence[int]]) -> set[int]:
    """Distinct image point sets (as bitsets) over all injective
    embeddings."""
    return set(_embeddings(host_pts, host_mask, checks, True,
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
