"""Matroid constructions, invariants, chi, and text formats."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmx import kernels
from bmx.errors import CapacityError, FormatError, UsageError
from bmx.gf2core import flats, parity_masks
from bmx.graphs import SimpleGraph
from bmx.matroid import (
    LiftSpec,
    Matroid,
    ag,
    bb,
    chi,
    circuit,
    delete,
    free,
    from_bm1,
    from_compact,
    graphic,
    lift,
    pg,
    recoordinatize,
    to_bm1,
    to_compact,
)
from conftest import component_count, naive_chi, random_matroid, time_budget


# --- constructions ----------------------------------------------------------

def test_pg():
    assert pg(1).points == {1}
    assert pg(3).size == 7 and pg(3).rank == 3
    assert pg(4).size == 15


def test_ag():
    assert ag(2).points == {0b10, 0b11}
    assert ag(3).size == 4
    for t in range(1, 6):
        assert chi(ag(t)) == 1
        assert ag(t).size == 1 << (t - 1)


def test_bb():
    assert bb(4, 1).size == 8
    assert bb(3, 3).points == pg(3).points
    assert chi(bb(5, 2)) == 2
    for n, t in [(3, 1), (4, 2), (5, 2)]:
        assert bb(n, t).size == (1 << n) - (1 << (n - t))
    with pytest.raises(UsageError):
        bb(3, 4)


def test_free():
    assert free(1).points == {1}
    m = free(4)
    assert m.rank == m.dim == 4 and m.size == 4
    with pytest.raises(UsageError):
        free(0)


def test_circuit():
    assert circuit(3).points == {0b01, 0b10, 0b11}
    c4 = circuit(4)
    assert c4.dim == 3 and c4.size == 4 and c4.rank == 3
    # every proper subset independent
    for p in c4.points:
        assert delete(c4, {p}).rank == 3
    with pytest.raises(UsageError):
        circuit(2)


def test_graphic():
    k3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    m = graphic(k3)
    assert m.size == 3 and m.rank == 2
    path = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert graphic(path).rank == 2


def test_graphic_rank_is_vertices_minus_components():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 7)
        edges = [
            (u, v)
            for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        g = SimpleGraph.from_edges(n, edges)
        assert graphic(g).rank == n - component_count(g)


def test_lift():
    inner = Matroid(2, frozenset({1, 2, 3}))
    m = lift(LiftSpec(inner, 4, 2))
    assert m.size == (1 << 4) - (1 << 2) + 3
    assert bb(4, 2).points <= m.points
    assert m.points <= pg(4).points
    # lift(AG(d-k-1,2), d, k) is BB(d-1,2,k+1): check sizes and chi
    d, k = 4, 1
    m2 = lift(LiftSpec(ag(d - k), d, k))
    assert m2.size == bb(d, k + 1).size
    assert chi(m2) == k + 1
    # empty inner gives exactly bb
    assert lift(LiftSpec(Matroid(0, frozenset()), 4, 2)).points == bb(4, 2).points
    with pytest.raises(UsageError):
        LiftSpec(pg(3), 4, 2)
    # where the points lie decides, not the declared dimension
    tri5 = Matroid(5, frozenset({1, 2, 3}))
    assert lift(LiftSpec(tri5, 4, 1)).points == lift(LiftSpec(pg(2), 4, 1)).points
    with pytest.raises(UsageError):
        LiftSpec(Matroid(5, frozenset({8})), 4, 1)


def test_delete_and_flat_slice():
    tri = pg(2)
    assert delete(tri, {3}).points == {1, 2}
    assert delete(tri, set()).points == tri.points
    with pytest.raises(UsageError):
        delete(tri, {3, 4})
    # the slice of the Fano plane by a hyperplane, as the decomposition
    # family takes it, is the line of points the hyperplane contains
    for (a,), _outside in flats(3, 1):
        line = Matroid.from_mask(3, pg(3).mask & ~parity_masks(3)[a])
        assert line.size == 3 and line.dim == 3
        assert line.points == {p for p in range(1, 8)
                               if (a & p).bit_count() % 2 == 0}


def test_recoordinatize():
    tri5 = Matroid(5, frozenset({0b00110, 0b01010, 0b01100}))
    r = recoordinatize(tri5)
    assert r.dim == 2 and r.points == {1, 2, 3}
    assert recoordinatize(pg(3)).points == pg(3).points
    assert recoordinatize(Matroid(4, frozenset())).dim == 0


def test_recoordinatize_returns_a_full_rank_input_itself():
    fano = pg(3)
    assert recoordinatize(fano) is fano
    deficient = Matroid(4, fano.points)
    r = recoordinatize(deficient)
    assert r is not deficient and r.dim == 3 and r.points == fano.points


# --- chi --------------------------------------------------------------------

def test_chi_examples():
    assert chi(Matroid(3, frozenset())) == 0
    for t in range(1, 6):
        assert chi(pg(t)) == t
    assert chi(graphic_k(5)) == 3
    assert chi(graphic_k(4)) == 2


def graphic_k(t: int) -> Matroid:
    g = SimpleGraph.from_edges(
        t, [(u, v) for u in range(t) for v in range(u + 1, t)]
    )
    return graphic(g)


def test_chi_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matroid(rng, n, rng.choice([0.3, 0.5, 0.8]))
        assert chi(m) == naive_chi(m), m


def test_cover_exists_witness():
    for m in [pg(3), bb(4, 2), ag(4), graphic_k(5)]:
        c = chi(m)
        funs = kernels.cover_exists(m.dim, m.mask, c)
        assert funs is not None and len(funs) <= c
        # every point is covered by some witness functional
        for p in m.points:
            assert any((a & p).bit_count() & 1 for a in funs)
        assert kernels.cover_exists(m.dim, m.mask, c - 1) is None


@given(st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_chi_monotone_under_restriction(n, data):
    pts = data.draw(st.sets(st.integers(1, (1 << n) - 1)))
    m = Matroid(n, frozenset(pts))
    sub = data.draw(st.sets(st.sampled_from(sorted(pts)))) if pts else set()
    assert chi(Matroid(n, frozenset(sub))) <= chi(m)


def test_chi_dim7():
    # a triangle and the Bose-Burton geometry of order 3 in F_2^7
    assert chi(Matroid(7, frozenset({1, 2, 3}))) == 2
    assert chi(bb(7, 3)) == 3


def test_chi_capacity():
    # the limit is on the rank: a point declared in dimension 13 has rank 1
    assert chi(Matroid(13, frozenset({1}))) == 1
    with pytest.raises(CapacityError, match="rank <= 12"):
        chi(free(13))


# --- formats ----------------------------------------------------------------

def test_bm1_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        m = random_matroid(rng, rng.randint(0, 5))
        assert from_bm1(to_bm1(m)) == m
        assert from_compact(to_compact(m)) == m


def test_bm1_format():
    text = to_bm1(pg(2))
    assert text.splitlines()[0] == "BM1"
    assert text.splitlines()[1] == "dim 2"
    # leftmost char is coordinate 1
    assert "10" in text.splitlines()[2:]
    parsed = from_bm1("BM1\ndim 2\n# comment\n10\n\n01\n11\n")
    assert parsed == pg(2)


def test_bm1_errors_carry_offsets():
    with pytest.raises(FormatError):
        from_bm1("")
    with pytest.raises(FormatError) as ei:
        from_bm1("BMX\ndim 2\n10\n")
    assert ei.value.offset == 0
    with pytest.raises(FormatError) as ei:
        from_bm1("BM1\ndim 2\n101\n")
    assert ei.value.offset == len("BM1\ndim 2\n")
    with pytest.raises(FormatError):
        from_bm1("BM1\ndim 2\n00\n")  # zero vector


def test_compact_form():
    assert to_compact(pg(2)) == "bm:2:07"
    assert from_compact("bm:2:07") == pg(2)
    with pytest.raises(FormatError):
        from_compact("xx:2:07")
    with pytest.raises(FormatError):
        from_compact("bm:2:ff")  # bits outside the space
    with pytest.raises(FormatError):
        from_compact("bm:2:zz")


def test_compact_form_costs_linear_time_in_its_bitset():
    # the last point of F_2^20 is bit 2^20 - 2 of a 128 KiB bitset
    last = Matroid(20, frozenset({(1 << 20) - 1}))
    text = to_compact(last)
    with time_budget(1):
        assert from_compact(text) == last


def test_matroid_validation():
    with pytest.raises(UsageError):
        Matroid(2, frozenset({4}))
    with pytest.raises(UsageError):
        Matroid(25, frozenset())


def _cover_cases(rng):
    for _ in range(150):
        n = rng.randint(1, 5)
        yield n, random_matroid(rng, n, rng.choice([0.2, 0.5, 0.8, 1.0]))
    # dense sets of dimension 6, where the counting bound prunes
    for density in (0.9, 0.95) * 10:
        yield 6, random_matroid(rng, 6, density)


def test_cover_exists_matches_the_naive_chi():
    # random sets of dimension 1 to 6: the least depth that finds a cover
    # is chi, and each cover found covers every point with functionals of
    # distinct leading bits
    for n, m in _cover_cases(random.Random(16)):
        c = naive_chi(m)
        for depth in range(c, n + 1):
            funs = kernels.cover_exists(n, m.mask, depth)
            assert funs is not None and len(funs) <= depth
            assert all(any((a & p).bit_count() & 1 for a in funs)
                       for p in m.points)
            leads = [a.bit_length() for a in funs]
            assert len(set(leads)) == len(leads)
        if c:
            assert kernels.cover_exists(n, m.mask, c - 1) is None
