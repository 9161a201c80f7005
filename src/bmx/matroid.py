"""The Matroid type, the standard constructions, and basic invariants.

A matroid here is a set of nonzero vectors of F_2^n together with its
declared ambient dimension n.  Points are stored as ints (point index =
vector encoding); ``mask`` gives the characteristic bitset over indices
1..2^n-1.

Containment, restriction counts and ex depend only on a pattern's rank,
not on its declared dimension.  The critical number ``chi`` is computed
on a matroid's span (``recoordinatize``), and so are canonical keys, a
forbidden family's critical elements, decomposition family and catalog
key; only ``isomorphic`` also compares the declared dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, TYPE_CHECKING

from bmx import kernels
from bmx.errors import CapacityError, FormatError, UsageError
from bmx.gf2core import MAX_DIM, bitset_of, points_of, rank_ints, rref_ints

if TYPE_CHECKING:
    from bmx.graphs import SimpleGraph

CHI_MAX_DIM = 12


@dataclass(frozen=True)
class Matroid:
    dim: int
    points: frozenset[int]

    def __post_init__(self):
        if not 0 <= self.dim <= MAX_DIM:
            raise UsageError(f"dimension must be in 0..{MAX_DIM}")
        for p in self.points:
            if not 0 < p < (1 << self.dim):
                raise UsageError(f"point {p} outside F_2^{self.dim} \\ {{0}}")

    @cached_property
    def mask(self) -> int:
        return bitset_of(self.points)

    @cached_property
    def rank(self) -> int:
        return rank_ints(self.points)

    @property
    def size(self) -> int:
        return len(self.points)

    def sorted_points(self) -> list[int]:
        return sorted(self.points)

    @staticmethod
    def from_mask(dim: int, mask: int) -> "Matroid":
        return Matroid(dim, frozenset(points_of(mask)))


@dataclass(frozen=True)
class LiftSpec:
    """Parameters for placing a matroid in the empty flat of a Bose-Burton
    geometry: inner matroid N, target dimension n, flat codimension t.
    N's points, not its declared dimension, must fit in the flat."""

    inner: Matroid
    n: int
    t: int

    def __post_init__(self):
        if not 1 <= self.t <= self.n <= MAX_DIM:
            raise UsageError("need 1 <= t <= n <= 24")
        if any(p >> (self.n - self.t) for p in self.inner.points):
            raise UsageError("inner matroid does not fit inside the flat")


def pg(t: int) -> Matroid:
    """The rank-t projective geometry: all of F_2^t \\ {0}."""
    if not 1 <= t <= MAX_DIM:
        raise UsageError(f"rank must be in 1..{MAX_DIM}")
    return Matroid(t, frozenset(range(1, 1 << t)))


def ag(t: int) -> Matroid:
    """The rank-t affine geometry: vectors with coordinate t equal to 1."""
    if not 1 <= t <= MAX_DIM:
        raise UsageError(f"rank must be in 1..{MAX_DIM}")
    top = 1 << (t - 1)
    return Matroid(t, frozenset(top | v for v in range(top)))


def bb(n: int, t: int) -> Matroid:
    """The Bose-Burton geometry of dimension n and order t: the complement
    of span(e_1..e_{n-t})."""
    if not 1 <= t <= n <= MAX_DIM:
        raise UsageError("need 1 <= t <= n <= 24")
    low = 1 << (n - t)
    return Matroid(n, frozenset(range(low, 1 << n)))


def free(t: int) -> Matroid:
    """The free matroid: a basis e_1..e_t of F_2^t."""
    if t < 1:
        raise UsageError("size must be >= 1")
    if t > MAX_DIM:
        raise UsageError(f"size must be <= {MAX_DIM}")
    return Matroid(t, frozenset(1 << i for i in range(t)))


def circuit(m: int) -> Matroid:
    """The m-point circuit: e_1..e_{m-1} plus their sum, in F_2^{m-1}."""
    if m < 3:
        raise UsageError("circuit needs at least 3 points")
    if m - 1 > MAX_DIM:
        raise UsageError(f"circuit dimension must be <= {MAX_DIM}")
    pts = [1 << i for i in range(m - 1)]
    pts.append((1 << (m - 1)) - 1)
    return Matroid(m - 1, frozenset(pts))


def lift(spec: LiftSpec) -> Matroid:
    """N^{n,t}: a copy of N inside the empty flat span(e_1..e_{n-t}) of
    BB(n-1,2,t), together with everything outside that flat."""
    low = 1 << (spec.n - spec.t)
    pts = set(range(low, 1 << spec.n))
    pts.update(spec.inner.points)
    return Matroid(spec.n, frozenset(pts))


def graphic(g: "SimpleGraph") -> Matroid:
    """Cycle matroid of a simple graph: columns of its incidence matrix."""
    pts = frozenset((1 << u) | (1 << v) for u, v in g.edges)
    return Matroid(g.n, pts)


def delete(m: Matroid, xs: Iterable[int]) -> Matroid:
    """Remove the given points; the ambient dimension is kept."""
    xs = frozenset(xs)
    if not xs <= m.points:
        raise UsageError("can only delete points of the matroid")
    return Matroid(m.dim, m.points - xs)


def recoordinatize(m: Matroid) -> Matroid:
    """Rewrite m over a reduced basis of its span, so dim becomes rank.

    A full-rank input is already over its span and is returned as it is;
    the empty matroid maps to the dimension-0 empty matroid.
    """
    if m.rank == m.dim:
        return m
    if not m.points:
        return Matroid(0, frozenset())
    basis, pivots = rref_ints(m.points)
    new_pts = set()
    for p in m.points:
        coeff = 0
        for i, piv in enumerate(pivots):
            if (p >> piv) & 1:
                coeff |= 1 << i
        new_pts.add(coeff)
    return Matroid(len(basis), frozenset(new_pts))


def chi(m: Matroid) -> int:
    """Critical number: least codimension of a subspace disjoint from m,
    computed on m's span (``recoordinatize``), which alone decides it.

    Searches ascending c from 1; ``kernels.cover_exists`` looks for c
    parity functionals that jointly cover every point, and refuses at its
    root a c below the counting bound (a codimension-c subspace that
    misses m has 2^(r-c) - 1 points, all among the 2^r - 1 - |m| points
    of the span outside m).
    """
    s = recoordinatize(m)
    if s.dim > CHI_MAX_DIM:
        raise CapacityError(f"critical number limited to rank <= {CHI_MAX_DIM}")
    if not s.points:
        return 0
    for c in range(1, s.dim + 1):
        if kernels.cover_exists(s.dim, s.mask, c) is not None:
            return c
    raise AssertionError("full geometry is always covered at c = rank")


# --- text formats -----------------------------------------------------------

BM1_MAGIC = "BM1"


def to_bm1(m: Matroid) -> str:
    """BM1 text: magic line, dim line, one n-character element per line with
    coordinate 1 leftmost."""
    lines = [BM1_MAGIC, f"dim {m.dim}"]
    for p in m.sorted_points():
        lines.append("".join("1" if (p >> i) & 1 else "0" for i in range(m.dim)))
    return "\n".join(lines) + "\n"


def from_bm1(text: str) -> Matroid:
    offset = 0
    rows: list[tuple[str, int]] = []
    for raw in text.splitlines(keepends=True):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((line, offset))
        offset += len(raw)
    if not rows:
        raise FormatError("empty BM1 input")
    if rows[0][0] != BM1_MAGIC:
        raise FormatError("missing BM1 magic line", rows[0][1])
    if len(rows) < 2 or not rows[1][0].startswith("dim "):
        raise FormatError("missing dim line", rows[1][1] if len(rows) > 1 else None)
    try:
        n = int(rows[1][0][4:])
    except ValueError:
        raise FormatError("bad dim line", rows[1][1]) from None
    if not 0 <= n <= MAX_DIM:
        raise FormatError(f"dim out of range 0..{MAX_DIM}", rows[1][1])
    pts = set()
    for line, off in rows[2:]:
        if len(line) != n or any(ch not in "01" for ch in line):
            raise FormatError(f"element line must be {n} chars over 0/1", off)
        p = 0
        for i, ch in enumerate(line):
            if ch == "1":
                p |= 1 << i
        if p == 0:
            raise FormatError("zero vector is not a matroid element", off)
        pts.add(p)
    return Matroid(n, frozenset(pts))


def to_compact(m: Matroid) -> str:
    """Compact form bm:<n>:<hex>, characteristic bitset little-endian by
    point index."""
    nbytes = max(1, ((1 << m.dim) - 1 + 7) // 8) if m.dim else 1
    return f"bm:{m.dim}:{m.mask.to_bytes(nbytes, 'little').hex()}"


def from_compact(text: str) -> Matroid:
    parts = text.strip().split(":")
    if len(parts) != 3 or parts[0] != "bm":
        raise FormatError("compact form must be bm:<n>:<hex>")
    try:
        n = int(parts[1])
        mask = int.from_bytes(bytes.fromhex(parts[2]), "little")
    except ValueError:
        raise FormatError("bad compact matroid encoding") from None
    if not 0 <= n <= MAX_DIM:
        raise FormatError(f"dim out of range 0..{MAX_DIM}")
    if mask >> ((1 << n) - 1):
        raise FormatError("bitset has points outside the ambient space")
    return Matroid.from_mask(n, mask)
