"""Simple graphs: graph6 and edge-list ingestion, and the graph side of
the paper's graphic examples.

Every coloring question here is one exact test, ``_k_colorable``: the
chromatic number is the least k it accepts, a forest removal succeeds
when the rest passes it at the target, and the cubic-graph remark rejects
a graph that passes it at k = 2 (a bipartite one).  The cubic remark
also computes the least matching whose complement is a cut."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from bmx.errors import FormatError, UsageError

MAX_VERTICES = 16


@dataclass(frozen=True)
class SimpleGraph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise UsageError(f"graphs limited to {MAX_VERTICES} vertices")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise UsageError("loops are not allowed")
            if not (0 <= u < v < self.n):
                raise UsageError("edges must be sorted pairs of vertex ids")
            if (u, v) in seen:
                raise UsageError("parallel edges are not allowed")
            seen.add((u, v))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        norm = sorted({(min(u, v), max(u, v)) for u, v in edges})
        return SimpleGraph(n, tuple(norm))

    def adjacency_masks(self) -> list[int]:
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def without_edges(self, removed: Iterable[tuple[int, int]]) -> "SimpleGraph":
        gone = {(min(u, v), max(u, v)) for u, v in removed}
        return SimpleGraph(self.n, tuple(e for e in self.edges if e not in gone))


def is_acyclic(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Union-find cycle test on an edge subset."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def parse_graph6(text: str | bytes) -> SimpleGraph:
    """Decode one graph6 line (<= 16 vertices)."""
    if isinstance(text, str):
        data = text.strip().encode("ascii", errors="replace")
    else:
        data = text.strip()
    base = 0
    if data.startswith(b">>graph6<<"):
        base = 10
        data = data[10:]
    if not data:
        raise FormatError("empty graph6 input", base)
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise FormatError("bad graph6 order byte", base)
    if n > MAX_VERTICES:
        raise FormatError(f"graph6 order {n} exceeds {MAX_VERTICES}", base)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[1:]
    if len(body) < need:
        raise FormatError("truncated graph6 body", base + len(data))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[k // 6] - 63
            if not 0 <= byte <= 63:
                raise FormatError("bad graph6 body byte", base + 1 + k // 6)
            if (byte >> (5 - k % 6)) & 1:
                edges.append((i, j))
            k += 1
    return SimpleGraph(n, tuple(edges))


def parse_graph6_file(text: str) -> Iterator[SimpleGraph]:
    for line in text.splitlines():
        line = line.strip()
        if line:
            yield parse_graph6(line)


def parse_edgelist(text: str) -> SimpleGraph:
    """Edge-list format: one `u v` pair per line, 0-indexed vertices."""
    edges = []
    top = -1
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = raw.split("#", 1)[0].strip()
        if line:
            parts = line.split()
            if len(parts) != 2:
                raise FormatError("edge line must be `u v`", offset)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError("edge endpoints must be integers", offset) from None
            if u < 0 or v < 0:
                raise FormatError("vertex ids must be >= 0", offset)
            edges.append((u, v))
            top = max(top, u, v)
        offset += len(raw)
    return SimpleGraph.from_edges(top + 1, edges)


def _k_colorable(adj: list[int], k: int) -> bool:
    """Exact k-colorability of the graph with adjacency bitsets ``adj``:
    backtracking over the vertices by descending degree, where a vertex
    may open at most one fresh color (colors are interchangeable)."""
    order = sorted(range(len(adj)), key=lambda u: -adj[u].bit_count())
    colors = [-1] * len(adj)

    def place(idx: int, used: int) -> bool:
        if idx == len(order):
            return True
        u = order[idx]
        forbidden = 0
        nbrs = adj[u]
        while nbrs:
            v = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            if colors[v] >= 0:
                forbidden |= 1 << colors[v]
        for c in range(min(used + 1, k)):
            if (forbidden >> c) & 1:
                continue
            colors[u] = c
            if place(idx + 1, max(used, c + 1)):
                return True
            colors[u] = -1
        return False

    return place(0, 0)


def chromatic_number(g: SimpleGraph) -> int:
    """Exact chromatic number: the least k >= 1 with ``_k_colorable``, or
    0 for the graph with no vertices."""
    if g.n == 0:
        return 0
    adj = g.adjacency_masks()
    k = 1
    while not _k_colorable(adj, k):
        k += 1
    return k


@dataclass(frozen=True)
class ForestCertificate:
    """An acyclic edge set whose removal brings the chromatic number down
    to the requested target."""

    forest: tuple[tuple[int, int], ...]
    chi_after: int
    target: int


def min_forest_drop(g: SimpleGraph, target: int) -> ForestCertificate | None:
    """Smallest forest F with chi(G - F) <= target, by size-ascending
    enumeration of acyclic edge subsets; lexicographically least on ties.
    Each candidate costs one ``_k_colorable`` test at ``target``."""
    if target < 1:
        return None
    for s in range(0, g.n):
        for combo in combinations(g.edges, s):
            if not is_acyclic(g.n, combo):
                continue
            rest = g.without_edges(combo)
            if _k_colorable(rest.adjacency_masks(), target):
                return ForestCertificate(tuple(combo), chromatic_number(rest),
                                         target)
    return None


def cubic_remark_data(g: SimpleGraph) -> tuple[int, int]:
    """For a cubic nonbipartite graph: the minimum size nu of a matching
    whose complement is a cut, and the predicted constant 2^(nu-1) - 1."""
    adj = g.adjacency_masks()
    if g.n == 0 or any(a.bit_count() != 3 for a in adj):
        raise UsageError("graph must be cubic")
    if _k_colorable(adj, 2):
        raise UsageError("graph must be nonbipartite")
    best = None
    for side in range(1 << (g.n - 1)):
        mask = side << 1  # vertex 0 stays on the low side
        comp = [e for e in g.edges
                if ((mask >> e[0]) & 1) == ((mask >> e[1]) & 1)]
        touched = 0
        ok = True
        for u, v in comp:
            if (touched >> u) & 1 or (touched >> v) & 1:
                ok = False
                break
            touched |= (1 << u) | (1 << v)
        if ok and (best is None or len(comp) < best):
            best = len(comp)
    if best is None or best == 0:
        raise UsageError("no cut with a nonempty matching complement exists")
    return best, (1 << (best - 1)) - 1
