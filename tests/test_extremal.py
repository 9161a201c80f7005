"""Decomposition families, Turan search, exactness and stability."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from bmx import extremal, kernels
from bmx.errors import CapacityError, UsageError
from bmx.extremal import (
    Family,
    TuranCertificate,
    aes_check,
    aes_probe,
    clique_constant,
    corollary_tier,
    critical_edge_check,
    decomposition_family,
    ex_search,
    maintech_rhs,
    nearest_bose_burton,
)
from bmx.gf2core import enumerate_subspaces
from bmx.graphs import SimpleGraph
from bmx.matroid import (
    Matroid,
    ag,
    bb,
    chi,
    circuit,
    delete,
    free,
    graphic,
    pg,
    recoordinatize,
)
from bmx.morphism import (
    _copy_count,
    _schedule_cached,
    contains,
    count_restrictions,
    isomorphic,
)
from conftest import random_matroid, time_budget


def complete_graphic(t: int) -> Matroid:
    g = SimpleGraph.from_edges(
        t, [(u, v) for u in range(t) for v in range(u + 1, t)]
    )
    return graphic(g)


def octahedron_matroid() -> Matroid:
    non_edges = {(0, 1), (2, 3), (4, 5)}
    g = SimpleGraph.from_edges(6, [
        (u, v) for u in range(6) for v in range(u + 1, 6)
        if (u, v) not in non_edges
    ])
    return graphic(g)


def naive_ex(family: Family, n: int) -> int:
    """Exhaustive maximum over all subsets of F_2^n \\ {0}."""
    total = (1 << n) - 1
    best = 0
    for mask in range(1 << total):
        if mask.bit_count() <= best:
            continue
        m = Matroid.from_mask(n, mask)
        if all(not contains(m, f) for f in family.members):
            best = m.size
    return best


# --- Family -----------------------------------------------------------------

def test_family_dedup_and_k():
    tri_b = Matroid(2, frozenset({1, 2, 3}))
    fam = Family.from_matroids([pg(2), tri_b, free(2)])
    assert len(fam.members) == 2
    assert fam.k == chi(free(2)) - 1 == 0
    assert Family.from_matroids([pg(3)]).k == 2
    with pytest.raises(UsageError):
        Family(())
    with pytest.raises(UsageError):
        Family.from_matroids([Matroid(2, frozenset())])


# --- ex_search --------------------------------------------------------------

def test_ex_matches_naive_exhaustive():
    cases = [
        (Family.from_matroids([pg(2)]), 3),
        (Family.from_matroids([free(3)]), 3),
        (Family.from_matroids([circuit(4)]), 3),
        (Family.from_matroids([free(4), circuit(4)]), 3),
        (Family.from_matroids([free(2)]), 3),
    ]
    for fam, max_n in cases:
        # n = 1, 2 stop inside the symmetric first levels of the search
        for n in range(1, max_n + 1):
            cert = ex_search(fam, n)
            assert cert.certified
            assert cert.value == naive_ex(fam, n)
            # witness is free and has the claimed size
            assert cert.witness.size == cert.value
            assert all(not contains(cert.witness, m) for m in fam.members)


def test_ex_bose_burton_values():
    for t, n in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        cert = ex_search(Family.from_matroids([pg(t + 1)]), n)
        assert cert.value == (1 << n) - (1 << (n - t))
        assert isomorphic(cert.witness, bb(n, t))
    # larger cells, certified within a budget (isomorphism is too slow here)
    for t, n in [(1, 5), (1, 6), (1, 7), (2, 6), (3, 6)]:
        with time_budget(20):
            cert = ex_search(Family.from_matroids([pg(t + 1)]), n,
                             time_limit=10)
        assert cert.certified
        assert cert.value == cert.witness.size == (1 << n) - (1 << (n - t))
        assert not contains(cert.witness, pg(t + 1))


def test_ex_search_is_deterministic():
    for fam, n in [
        (Family.from_matroids([pg(3)]), 5),
        (Family.from_matroids([circuit(4)]), 5),
        (Family.from_matroids([pg(2), circuit(4)]), 4),
    ]:
        a, b = ex_search(fam, n), ex_search(fam, n)
        assert (a.value, a.witness, a.nodes) == (b.value, b.witness, b.nodes)


def test_ex_free_families():
    for t in range(1, 5):
        for n in range(max(t - 1, 0), 6):
            cert = ex_search(Family.from_matroids([free(t)]), n)
            assert cert.value == min((1 << (t - 1)) - 1, (1 << n) - 1)


def test_ex_octahedron_subproblem():
    fam = Family.from_matroids([free(4), circuit(4)])
    cert = ex_search(fam, 3)
    assert cert.value == 4 == naive_ex(fam, 3)


def test_ex_monotonicity():
    fams = [
        Family.from_matroids([pg(2)]),
        Family.from_matroids([free(3)]),
        Family.from_matroids([circuit(4)]),
    ]
    for fam in fams:
        vals = [ex_search(fam, n).value for n in range(1, 5)]
        assert vals == sorted(vals)
    # adding a member never raises the value
    base = Family.from_matroids([pg(2)])
    bigger = Family.from_matroids([pg(2), free(3)])
    for n in range(1, 5):
        assert ex_search(bigger, n).value <= ex_search(base, n).value


def test_ex_budget_expiry():
    cert = ex_search(Family.from_matroids([pg(2)]), 5, time_limit=0.0)
    assert not cert.certified
    # the incumbent is still a valid free matroid
    assert all(not contains(cert.witness, m) for m in cert.family)
    assert cert.witness.size == cert.value


def test_ex_capacity():
    with pytest.raises(CapacityError):
        ex_search(Family.from_matroids([pg(2)]), 9)


def test_ex_deadline_holds_while_indexing():
    # {I4} at n = 6 has 546,840 copies, under the cap; enumerating them
    # takes about 0.75 s, so a 0.2 s limit passes while they arrive
    with time_budget(5):
        cert = ex_search(Family.from_matroids([free(4)]), 6, time_limit=0.2)
    assert not cert.certified
    assert (cert.value, cert.witness.size, cert.nodes) == (0, 0, 0)


def test_ex_copy_cap_holds_while_indexing(monkeypatch):
    # the cap is checked against the copy count before any member is
    # enumerated, so no image set is ever built past it
    finished = []
    real = kernels._embeddings

    def watched(*args):
        yield from real(*args)
        finished.append(True)

    monkeypatch.setattr(kernels, "_embeddings", watched)
    monkeypatch.setattr(extremal, "_EX_MAX_COPIES", 100)
    with pytest.raises(CapacityError):
        ex_search(Family.from_matroids([circuit(4)]), 5)  # 1,085 copies
    assert not finished
    monkeypatch.setattr(extremal, "_EX_MAX_COPIES", 2000)
    assert ex_search(Family.from_matroids([circuit(4)]), 5).value == 7
    assert finished


@pytest.mark.parametrize("member", [
    pg(2), pg(3), circuit(4), circuit(5), complete_graphic(4), free(3),
    free(4)], ids=["tri", "Fano", "C4", "C5", "M(K4)", "I3", "I4"])
def test_copy_count_matches_the_enumeration(member):
    sched = _schedule_cached(member.mask)
    for n in (4, 5):
        images = kernels.all_embedding_images(
            range(1, 1 << n), (1 << (1 << n) - 1) - 1, sched.checks,
            sched.bounds)
        assert _copy_count(sched, n) == len(images)


def test_copy_count_of_i5_in_pg5():
    sched = _schedule_cached(free(5).mask)
    assert _copy_count(sched, 6) == 5_249_664


def test_declared_dimension_does_not_matter(rng):
    # the same points declared in dimension k and in k + 2 are one
    # matroid: containment, copy counts and ex agree on the two
    for _ in range(200):
        k = rng.randint(1, 3)
        size = rng.randint(1, min(4, (1 << k) - 1))
        pts = frozenset(rng.sample(range(1, 1 << k), size))
        low, high = Matroid(k, pts), Matroid(k + 2, pts)
        host = random_matroid(rng, rng.randint(1, 4),
                              rng.choice([0.5, 0.8, 1.0]))
        assert contains(host, low) == contains(host, high)
        assert (count_restrictions(host, low)
                == count_restrictions(host, high))
        n = rng.randint(1, 4)
        a = ex_search(Family.from_matroids([low]), n)
        b = ex_search(Family.from_matroids([high]), n)
        assert (a.value, a.certified) == (b.value, b.certified)


def test_ex_k4_at_its_rank():
    # M(K4) is declared in dimension 4 with rank 3: in n = 3 the answer
    # is the matroid one, 5, not 2^3 - 1
    cert = ex_search(Family.from_matroids([complete_graphic(4)]), 3)
    assert cert.certified and cert.value == 5
    assert not contains(cert.witness, complete_graphic(4))


def test_family_dedups_by_span(monkeypatch):
    # M(K4) declared in dimension 4 and the same points in dimension 5
    # are one member, so its 1,085 copies at n = 5 are indexed once
    k4 = complete_graphic(4)
    fam = Family.from_matroids([k4, Matroid(5, k4.points)])
    assert fam.members == (k4,)
    calls = []
    real = kernels.all_embedding_images

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "all_embedding_images", counted)
    copies = extremal._all_copies(fam, 5)
    assert len(copies) == len(set(copies)) == 1085
    assert len(calls) == 1


def test_ex_deadline_holds_over_the_sort():
    # enumerating the 546,840 copies of {I4} at n = 6 takes about 0.75 s
    # and sorting them about 0.5 s; a 1 s limit must still end the call
    with time_budget(3):
        cert = ex_search(Family.from_matroids([free(4)]), 6, time_limit=1)
    assert not cert.certified


def test_certificate_json_roundtrip():
    cert = ex_search(Family.from_matroids([pg(2), free(3)]), 3)
    d = cert.to_json_dict()
    back = TuranCertificate.from_json_dict(d)
    assert back == cert
    assert set(d) == {"family", "n", "value", "witness", "method",
                      "certified", "nodes", "elapsed_ms"}


# --- decomposition families -------------------------------------------------

def test_decomposition_octahedron():
    dfam = decomposition_family(Family.from_matroids([octahedron_matroid()]))
    assert len(dfam.members) == 2
    assert any(isomorphic(m, free(4)) for m in dfam.members)
    assert any(isomorphic(m, circuit(4)) for m in dfam.members)


def test_decomposition_cliques_and_pg():
    # K4 and K6 decompose to a 2-point free matroid, K3 and K5 to a point
    for t, s in [(3, 1), (4, 2), (5, 1), (6, 2)]:
        dfam = decomposition_family(Family.from_matroids([complete_graphic(t)]))
        assert len(dfam.members) == 1
        assert isomorphic(dfam.members[0], free(s))
    dfam = decomposition_family(Family.from_matroids([pg(2)]))
    assert len(dfam.members) == 1
    assert isomorphic(dfam.members[0], free(1))


def test_decomposition_k0_is_identity():
    fam = Family.from_matroids([free(2)])  # affine member, k = 0
    assert decomposition_family(fam) is fam


def test_decomposition_invariants():
    fams = [
        Family.from_matroids([octahedron_matroid()]),
        Family.from_matroids([complete_graphic(4)]),
        Family.from_matroids([complete_graphic(6)]),
        Family.from_matroids([pg(2)]),
        Family.from_matroids([pg(3), complete_graphic(4)]),
    ]
    for fam in fams:
        k = fam.k
        dfam = decomposition_family(fam)
        for d in dfam.members:
            assert d.rank == d.dim  # full-rank representatives
        assert any(chi(d) == 1 for d in dfam.members)
        for a, b in combinations(dfam.members, 2):
            assert not contains(a, b) and not contains(b, a)
        # third-characterization cross-check: every member shows up as a
        # slice of some source whose removal drops chi to k
        for d in dfam.members:
            witnessed = False
            for src in fam.members:
                for w in enumerate_subspaces(src.dim, src.dim - k):
                    sl = frozenset(p for p in src.points if w.contains_int(p))
                    if isomorphic(recoordinatize(Matroid(src.dim, sl)), d):
                        if chi(delete(src, sl)) <= k:
                            witnessed = True
                            break
                if witnessed:
                    break
            assert witnessed, d


# --- the decomposition formula ----------------------------------------------

def test_maintech_octahedron():
    fam = Family.from_matroids([octahedron_matroid()])
    mt = maintech_rhs(fam, 6)
    assert mt.k == 1
    assert mt.value == 36 == (1 << 6) - (1 << 5) + 4
    assert mt.witness.size == 36
    assert mt.witness_free


def test_maintech_lower_bound_soundness():
    fams = [
        Family.from_matroids([pg(2)]),
        Family.from_matroids([pg(3)]),
        Family.from_matroids([complete_graphic(4)]),
        Family.from_matroids([complete_graphic(5)]),
        Family.from_matroids([octahedron_matroid()]),
    ]
    for fam in fams:
        for n in range(fam.k + 1, 6):
            mt = maintech_rhs(fam, n)
            assert mt.witness_free, (fam, n)
            assert mt.witness.size == mt.value


def test_maintech_matches_search_small():
    # at dimensions where equality is known, the formula equals the search
    fam = Family.from_matroids([pg(2)])
    for n in range(2, 6):
        assert maintech_rhs(fam, n).value == ex_search(fam, n).value


# --- exactness corollaries --------------------------------------------------

def test_clique_constant():
    assert clique_constant(3) == (1, 0)
    assert clique_constant(4) == (1, 1)
    assert clique_constant(5) == (2, 0)
    assert clique_constant(6) == (2, 1)
    with pytest.raises(UsageError):
        clique_constant(1)


def test_critical_edge_check():
    assert critical_edge_check(pg(2))  # the triangle
    # deleting any Fano point leaves {0,e} as a disjoint codim-2 subspace
    fano = pg(3)
    assert all(chi(delete(fano, {e})) == 2 for e in fano.points)
    assert critical_edge_check(fano)
    assert not critical_edge_check(bb(4, 2))
    assert not critical_edge_check(ag(3))


def test_corollary_tier():
    rep = corollary_tier(Family.from_matroids([complete_graphic(6)]))
    assert rep.regime == "exact-constant"
    assert rep.k == 2 and rep.t == 2 and rep.constant == 1
    rep = corollary_tier(Family.from_matroids([octahedron_matroid()]))
    assert rep.regime == "finite-computation"
    assert rep.k == 1 and rep.t == 4 and rep.constant == 4
    rep = corollary_tier(Family.from_matroids([circuit(4)]))
    assert rep.regime == "sparse"


# --- stability --------------------------------------------------------------

def test_nearest_bb_identity_and_one_edit():
    for n, k in [(3, 1), (4, 2), (5, 1)]:
        rep = nearest_bose_burton(bb(n, k), k)
        assert rep.distance == 0
        assert rep.bose_burton.points == bb(n, k).points
    m = delete(bb(5, 1), {16})
    assert nearest_bose_burton(m, 1).distance == 1


def test_nearest_bb_ag5_exhaustive():
    # cross-check the reported minimum against a direct scan by hand
    m = Matroid(5, ag(5).points)
    rep = nearest_bose_burton(m, 1)
    best = min(
        len(m.points ^ frozenset(
            p for p in range(1, 32) if not w.contains_int(p)))
        for w in enumerate_subspaces(5, 4)
    )
    assert rep.distance == best == 0  # ag(5) is a hyperplane complement


def test_nearest_bb_guards():
    with pytest.raises(UsageError):
        nearest_bose_burton(pg(3), 0)
    with pytest.raises(UsageError):
        nearest_bose_burton(pg(3), 4)
    with pytest.raises(CapacityError):
        nearest_bose_burton(Matroid(11, frozenset({1})), 1)


# --- the density theorem at rank 4 ------------------------------------------

def test_aes_check_and_probe():
    assert aes_check(4, 2) is True
    size, witness = aes_probe(4, 2)
    assert size == 5  # frozen regression constant from the exhaustive run
    assert witness.rank == 4 and chi(witness) > 1
    # witness is triangle-free
    pts = witness.sorted_points()
    for a, b in combinations(pts, 2):
        assert (a ^ b) not in witness.points


def test_aes_guards():
    with pytest.raises(UsageError):
        aes_check(3, 2)  # r < t + 2
    with pytest.raises(CapacityError):
        aes_check(5, 2)
    with pytest.raises(UsageError):
        aes_probe(3, 2)
