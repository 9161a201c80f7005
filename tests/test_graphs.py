"""Graphs: parsing, coloring, forest removal, cubic data."""

from __future__ import annotations

import random
from itertools import combinations, product

import networkx as nx
import pytest

from bmx.errors import FormatError, UsageError
from bmx.graphs import (
    SimpleGraph,
    chromatic_number,
    cubic_remark_data,
    is_acyclic,
    min_forest_drop,
    parse_edgelist,
    parse_graph6,
    parse_graph6_file,
)
from bmx.verify import corpus_graphs, octahedron
from conftest import component_count


def naive_chromatic(g: SimpleGraph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for coloring in product(range(k), repeat=g.n):
            if all(coloring[u] != coloring[v] for u, v in g.edges):
                return k
    raise AssertionError


def complete(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def petersen() -> SimpleGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return SimpleGraph.from_edges(10, outer + inner + spokes)


# --- SimpleGraph ------------------------------------------------------------

def test_simple_graph_validation():
    with pytest.raises(UsageError):
        SimpleGraph(2, ((0, 0),))
    with pytest.raises(UsageError):
        SimpleGraph(2, ((1, 0),))
    with pytest.raises(UsageError):
        SimpleGraph(17, ())
    g = SimpleGraph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == ((0, 2), (1, 2))


def test_components_and_bipartite():
    g = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert component_count(g) == 2
    assert chromatic_number(g) == 2
    assert chromatic_number(complete(3)) == 3
    assert is_acyclic(5, [(0, 1), (1, 2), (3, 4)])
    assert not is_acyclic(3, [(0, 1), (1, 2), (0, 2)])


# --- parsers ----------------------------------------------------------------

def test_graph6_matches_networkx_on_corpus():
    with open("src/bmx/data/connected6.g6", "rb") as f:
        lines = f.read().splitlines()
    assert len(lines) == 112
    for line in lines:
        ours = parse_graph6(line)
        theirs = nx.from_graph6_bytes(line)
        assert ours.n == theirs.number_of_nodes()
        assert set(ours.edges) == {
            (min(u, v), max(u, v)) for u, v in theirs.edges()
        }


def test_graph6_random_roundtrip_vs_networkx():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 10)
        g = nx.gnp_random_graph(n, 0.4, seed=rng.randint(0, 10**6))
        data = nx.to_graph6_bytes(g, header=False).strip()
        ours = parse_graph6(data)
        assert ours.n == n
        assert set(ours.edges) == {(min(u, v), max(u, v)) for u, v in g.edges()}


def test_graph6_header_and_errors():
    g = parse_graph6(">>graph6<<DQc")
    assert g.n == 5
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError):
        parse_graph6(chr(126) + "AAA")  # order byte out of range
    with pytest.raises(FormatError):
        parse_graph6("E")  # truncated body


def test_parse_edgelist():
    g = parse_edgelist("0 1\n1 2 # comment\n\n2 0\n")
    assert g.n == 3 and len(g.edges) == 3
    with pytest.raises(FormatError):
        parse_edgelist("0 1 2\n")
    with pytest.raises(FormatError):
        parse_edgelist("a b\n")
    with pytest.raises(FormatError):
        parse_edgelist("-1 0\n")


def test_parse_graph6_file():
    text = "\n".join(["BW", "Bw"]) + "\n"
    gs = list(parse_graph6_file(text))
    assert len(gs) == 2 and all(g.n == 3 for g in gs)


# --- chromatic number -------------------------------------------------------

def test_chromatic_examples():
    assert chromatic_number(complete(4)) == 4
    assert chromatic_number(octahedron()) == 3
    assert chromatic_number(petersen()) == 3
    assert chromatic_number(SimpleGraph(3, ())) == 1
    assert chromatic_number(SimpleGraph(0, ())) == 0


def test_chromatic_matches_naive():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 7)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = SimpleGraph.from_edges(n, edges)
        assert chromatic_number(g) == naive_chromatic(g)


def test_chromatic_on_small_connected_graphs():
    # all connected graphs on <= 5 vertices, against the naive solver
    for g_nx in nx.graph_atlas_g()[1:]:
        n = g_nx.number_of_nodes()
        if n == 0 or n > 5 or not nx.is_connected(g_nx):
            continue
        g = SimpleGraph.from_edges(n, list(g_nx.edges()))
        assert chromatic_number(g) == naive_chromatic(g)


# --- forest removal ---------------------------------------------------------

def test_min_forest_drop_trivial():
    tri = complete(3)
    cert = min_forest_drop(tri, 3)
    assert cert is not None and cert.forest == ()
    cert = min_forest_drop(tri, 2)
    assert cert is not None and len(cert.forest) == 1


def test_min_forest_drop_octahedron():
    """Frozen oracle value: O6 needs a 4-edge forest to reach chi <= 2.

    Independent justification checked here: every edge of O6 lies in
    exactly 2 of its 8 triangles, so 3 edges cannot break all triangles.
    """
    g = octahedron()
    triangles = [
        t for t in combinations(range(6), 3)
        if all((min(a, b), max(a, b)) in g.edges
               for a, b in combinations(t, 2))
    ]
    assert len(triangles) == 8
    for e in g.edges:
        assert sum(1 for t in triangles if e[0] in t and e[1] in t) == 2
    for sub in combinations(g.edges, 3):
        assert chromatic_number(g.without_edges(sub)) > 2
    cert = min_forest_drop(g, 2)
    assert cert is not None
    assert len(cert.forest) == 4
    assert is_acyclic(6, cert.forest)
    assert naive_chromatic(g.without_edges(cert.forest)) <= 2


def test_min_forest_drop_none():
    # K5 cannot become 1-colorable by removing a forest
    assert min_forest_drop(complete(5), 1) is None
    assert min_forest_drop(complete(3), 0) is None


# --- cubic data -------------------------------------------------------------

def naive_cubic_nu(g: SimpleGraph) -> int | None:
    best = None
    for side in range(1 << g.n):
        comp = [e for e in g.edges
                if ((side >> e[0]) & 1) == ((side >> e[1]) & 1)]
        used = set()
        ok = True
        for u, v in comp:
            if u in used or v in used:
                ok = False
                break
            used.update((u, v))
        if ok and comp and (best is None or len(comp) < best):
            best = len(comp)
    return best


def test_cubic_remark_data():
    nu, const = cubic_remark_data(complete(4))
    assert (nu, const) == (naive_cubic_nu(complete(4)), (1 << (nu - 1)) - 1)
    assert nu == 2 and const == 1
    p = petersen()
    nu_p, const_p = cubic_remark_data(p)
    assert nu_p == naive_cubic_nu(p)
    assert const_p == (1 << (nu_p - 1)) - 1


def test_cubic_remark_guards():
    with pytest.raises(UsageError):
        cubic_remark_data(complete(5))  # not cubic
    k33 = SimpleGraph.from_edges(
        6, [(u, v) for u in range(3) for v in range(3, 6)]
    )
    with pytest.raises(UsageError):
        cubic_remark_data(k33)  # bipartite


def test_corpus_loader():
    gs = corpus_graphs()
    assert len(gs) == 112
    assert all(g.n == 6 and component_count(g) == 1 for g in gs)
