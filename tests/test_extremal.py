"""Decomposition families, Turan search, exactness and stability."""

from __future__ import annotations

import random
import time
from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace

import pytest

from bmx import extremal, kernels, morphism
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
    to_compact,
)
from bmx.morphism import (
    _copy_count,
    _schedule_cached,
    contains,
    count_restrictions,
    isomorphic,
)
from conftest import (
    coordinates,
    naive_chi,
    naive_copies,
    random_gl,
    random_matroid,
    rank,
    subspaces,
    time_budget,
)


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
    """Exhaustive maximum over all subsets of F_2^n \\ {0}: the largest
    set that holds none of the copies from ``conftest.naive_copies``.
    The sets that hold a copy are the up-closure of the copies, built as
    one bitset over all 2^(2^n - 1) sets (bit s for set s), adding one
    point at a time."""
    sets = 1 << (1 << n) - 1
    holding = sum(1 << c for c in naive_copies(n, family.members))
    for i in range((1 << n) - 1):
        step = 1 << i
        # the sets without point i + 1: runs of ``step`` bits every 2 step
        without = int(("0" * step + "1" * step) * (sets // (2 * step)), 2)
        holding |= (holding & without) << step
    bits = f"{holding:0{sets}b}"[::-1]
    return max(s.bit_count() for s, b in enumerate(bits) if b == "0")


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
    # larger cells, certified at the root by the hyperplane bound
    # (isomorphism is too slow here)
    for t, n in [(1, 5), (1, 6), (1, 7), (2, 6), (2, 7), (3, 6)]:
        with time_budget(20):
            cert = ex_search(Family.from_matroids([pg(t + 1)]), n,
                             time_limit=10)
            assert not contains(cert.witness, pg(t + 1))
        assert cert.certified and cert.nodes == 0
        assert cert.value == cert.witness.size == (1 << n) - (1 << (n - t))


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


def test_ex_time_limit_must_be_at_least_zero():
    # a NaN deadline never passes; infinity is no limit at all
    fam = Family.from_matroids([pg(2)])
    for limit in (float("nan"), -1.0):
        with pytest.raises(UsageError):
            ex_search(fam, 3, time_limit=limit)
    cert = ex_search(fam, 4, time_limit=float("inf"))
    assert cert.certified and cert.value == 8


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
    monkeypatch.setattr(morphism, "_MAX_COPIES", 100)
    with pytest.raises(CapacityError):
        ex_search(Family.from_matroids([circuit(4)]), 5)  # 1,085 copies
    assert not finished
    monkeypatch.setattr(morphism, "_MAX_COPIES", 2000)
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
        assert _copy_count(sched, n, (1 << n) - 1) == len(images)


def test_copy_count_of_i5_in_pg5():
    sched = _schedule_cached(free(5).mask)
    assert _copy_count(sched, 6, 63) == 5_249_664


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


def test_ex_deadline_holds_over_the_sort(monkeypatch):
    # the whole solve of {I4} at n = 6 (546,840 copies) can finish inside
    # 1 s, so the clock of ``extremal`` is made to jump: its first reading
    # (the start) is true and every later one is past the deadline.  The
    # clock of ``kernels`` stays before the deadline, however long the
    # copies take to arrive, so only the check after the sort can end the
    # call
    readings = []

    def jumping():
        readings.append(time.monotonic() + (100 if readings else 0))
        return readings[-1]

    monkeypatch.setattr(extremal, "time", SimpleNamespace(monotonic=jumping))
    monkeypatch.setattr(kernels, "time", SimpleNamespace(monotonic=lambda: 0.0))
    with time_budget(3):
        cert = ex_search(Family.from_matroids([free(4)]), 6, time_limit=1)
    assert not cert.certified
    assert (cert.value, cert.nodes) == (0, 0)  # stopped while indexing


# the five cells of the ``search`` benchmark: (members, n, value, witness,
# nodes at most); the witnesses and the first four counts are those of the
# search that charged each packed copy 1, before flats were charged
SEARCH_CELLS = {
    "tri": ([pg(2)], 5, 16, "bm:5:cbb4344b", 2),
    "Fano": ([pg(3)], 5, 24, "bm:5:77777777", 448),
    "C4": ([circuit(4)], 5, 7, "bm:5:8f880000", 7694),
    "M(K4)": ([complete_graphic(4)], 5, 17, "bm:5:9fe1611e", 1000),
    "tri-6": ([pg(2)], 6, 32, "bm:6:cbb434cb344bcb34", 2),
}


@pytest.mark.parametrize("cell", SEARCH_CELLS)
def test_search_cells_keep_their_witnesses(cell):
    # a stronger valid bound prunes only subtrees without a better set, so
    # value and witness stay put and no node count rises; M(K4) took
    # 18,160 nodes before its planes were charged 2 each
    members, n, value, witness, most = SEARCH_CELLS[cell]
    cert = ex_search(Family.from_matroids(members), n)
    assert cert.certified and cert.method == "branch-bound"
    assert (cert.value, to_compact(cert.witness)) == (value, witness)
    assert cert.nodes <= most


def test_ex_matches_brute_force_on_random_families():
    # the symmetry rule protects e_{j+1} only when span(e1..ej) cannot
    # hold a better set.  Members with a coloop (a point outside the span
    # of the others) are where that size test can matter: without coloops
    # a free set inside the span extends by e_{j+1}.  So half the members
    # are a random set plus a point outside its span.  At n = 4 no family
    # tried needs the size test, since the greedy incumbent fills
    # span(e1..ej) first; the next test is a cell at n = 5 that does
    rng = random.Random(20)
    for _ in range(40):
        members = []
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(2, 3)
            pts = set(rng.sample(range(1, 1 << k),
                                 rng.randint(2, (1 << k) - 1)))
            if rng.random() < 0.5:
                pts.add(1 << k)
            members.append(Matroid(k + 1, frozenset(pts)))
        fam = Family.from_matroids(members)
        cert = ex_search(fam, 4)
        assert cert.certified and cert.value == naive_ex(fam, 4)
        assert all(not contains(cert.witness, m) for m in members)


def test_ex_keeps_an_optimum_that_lies_in_a_hyperplane():
    # a triangle plus a coloop, and C4 plus two coloops.  A set of rank 5
    # holding a triangle holds the first, and one holding a C4 the second,
    # so a spanning free set is {C3, C4}-free: at most ex({C3, C4}, 5) = 6
    # points.  Inside a hyperplane only the first member fits, which
    # leaves the 8 points of AG(3,2).  The greedy set is a line, 3 points,
    # so the search must find the optimum inside span(e1..e4), and a rule
    # that protected e5 without its size test would answer 6
    tri_plus = Matroid(3, frozenset({1, 2, 3, 4}))
    c4_plus = Matroid(5, frozenset({1, 2, 4, 7, 8, 16}))
    cert = ex_search(Family.from_matroids([tri_plus, c4_plus]), 5)
    assert cert.certified
    assert cert.value == naive_ex(Family.from_matroids([tri_plus]), 4) == 8
    assert cert.witness.rank == 4
    assert not any(contains(cert.witness, m) for m in (tri_plus, c4_plus))


def test_ex_certifies_the_sidon_cells():
    # a C4-free set is a Sidon set; the values at n = 6 are 9 and 8, and
    # translating by a point shows ex({C4}, n) = ex({C3, C4}, n) + 1
    values = {}
    with time_budget(10):
        for members in ([circuit(4)], [pg(2), circuit(4)]):
            for n in (5, 6):
                cert = ex_search(Family.from_matroids(members), n)
                assert cert.certified and cert.witness.size == cert.value
                assert all(not contains(cert.witness, m) for m in members)
                values[len(members), n] = cert.value
    assert (values[1, 6], values[2, 6]) == (9, 8)
    assert all(values[1, n] == values[2, n] + 1 for n in (5, 6))


@pytest.mark.parametrize("members, value", [
    ([free(3)], 3), ([circuit(4), free(4)], 4)], ids=["I3", "C4+I4"])
def test_ex_with_flats_certifies(members, value):
    # both pass the charge-2 test at rank 3, so planes are charged
    fam = Family.from_matroids(members)
    assert extremal._flats(fam, 5, None)
    cert = ex_search(fam, 5)
    assert cert.certified and cert.value == cert.witness.size == value
    assert all(not contains(cert.witness, m) for m in fam.members)


def test_ex_flats_need_two_missing_points():
    # PG(r-1,2) minus a point holds no triangle, Fano or PG(3,2), so no
    # cap is solved for them and no flat is charged
    for member, n in [(pg(2), 6), (pg(3), 5), (pg(4), 6)]:
        assert extremal._flats(Family.from_matroids([member]), n, None) == []


def test_ex_deadline_covers_the_flats():
    cert = ex_search(Family.from_matroids([complete_graphic(4)]), 5,
                     time_limit=0)
    assert not cert.certified and cert.value <= 17


def test_ex_flat_caps_get_what_is_left_of_the_deadline(monkeypatch):
    real = extremal.ex_search
    limits = []

    def slow(family, n, time_limit=None):
        limits.append(time_limit)
        time.sleep(0.6)
        return real(family, n, time_limit=time_limit)

    monkeypatch.setattr(extremal, "ex_search", slow)
    cert = real(Family.from_matroids([complete_graphic(4)]), 5,
                time_limit=0.5)
    assert len(limits) == 1 and 0 <= limits[0] <= 0.5
    assert not cert.certified and cert.value <= 17
    assert all(not contains(cert.witness, m) for m in cert.family)


def test_ex_skips_an_uncertified_flat_cap(monkeypatch):
    # a cap that the sub-solve did not certify is never a bound
    real = extremal.ex_search
    flats = {}  # n -> the flats set up for the search at n
    real_flats = extremal._flats

    def uncertified(family, n, time_limit=None):
        return replace(real(family, n, time_limit), certified=False)

    def watched(family, n, deadline):
        flats[n] = real_flats(family, n, deadline)
        return flats[n]

    monkeypatch.setattr(extremal, "ex_search", uncertified)
    monkeypatch.setattr(extremal, "_flats", watched)
    cert = real(Family.from_matroids([complete_graphic(4)]), 5)
    assert flats[5] == []
    assert cert.certified and cert.value == 17 and cert.nodes == 1831


@pytest.mark.parametrize("member", [free(13), pg(13)], ids=["I13", "PG13"])
def test_ex_ignores_members_too_large_to_embed(member):
    # a member of rank 13 has no copy in F_2^5, and its critical number
    # (limited to rank 12) is never asked for
    cert = ex_search(Family.from_matroids([member]), 5)
    assert cert.certified and (cert.value, cert.nodes) == (31, 0)


@pytest.mark.parametrize("member, value", [
    (circuit(5), 32), (complete_graphic(5), 48)], ids=["C5", "M(K5)"])
def test_ex_root_bound_certifies_bose_burton(member, value):
    # beyond the PG cells of test_ex_bose_burton_values: the hyperplane
    # bound from a certified ex(F, 5) closes on BB(6, 1) and BB(6, 2)
    with time_budget(20):
        cert = ex_search(Family.from_matroids([member]), 6)
        assert not contains(cert.witness, member)
    assert cert.certified and cert.method == "branch-bound"
    assert (cert.value, cert.witness.size, cert.nodes) == (value, value, 0)


@pytest.mark.parametrize("member, nodes", [
    (complete_graphic(4), 394), (circuit(4), 68)], ids=["M(K4)", "C4"])
def test_ex_solves_no_hyperplane_cap_when_the_bound_cannot_close(
        monkeypatch, member, nodes):
    # M(K4): the greedy 17 beats BB(5, 1); C4: k = 0, no Bose-Burton seed
    real = extremal.ex_search
    asked = []

    def counted(family, n, time_limit=None):
        asked.append(n)
        return real(family, n, time_limit=time_limit)

    monkeypatch.setattr(extremal, "ex_search", counted)
    cert = real(Family.from_matroids([member]), 5)
    assert 4 not in asked
    assert cert.certified and cert.nodes == nodes


def test_ex_hyperplane_solve_gets_what_is_left_of_the_deadline(monkeypatch):
    real = extremal.ex_search
    limits = []

    def slow(family, n, time_limit=None):
        limits.append((n, time_limit))
        time.sleep(0.6)
        return real(family, n, time_limit=time_limit)

    monkeypatch.setattr(extremal, "ex_search", slow)
    cert = real(Family.from_matroids([pg(3)]), 4, time_limit=0.5)
    assert limits[0][0] == 3 and 0 <= limits[0][1] <= 0.5
    assert not cert.certified
    assert cert.value == cert.witness.size == 12
    assert not contains(cert.witness, pg(3))


def test_ex_uncertified_hyperplane_solve_gives_no_bound(monkeypatch):
    # the Bose-Burton seed stays, but the search has to certify it
    real = extremal.ex_search

    def uncertified(family, n, time_limit=None):
        return replace(real(family, n, time_limit), certified=False)

    monkeypatch.setattr(extremal, "ex_search", uncertified)
    cert = real(Family.from_matroids([pg(3)]), 5)
    assert cert.certified and cert.nodes > 0
    assert (cert.value, to_compact(cert.witness)) == (24, "bm:5:77777777")


@pytest.mark.parametrize("members", [
    [pg(2)], [pg(3)], [circuit(5)], [pg(2), complete_graphic(4)]],
    ids=["tri", "Fano", "C5", "tri+M(K4)"])
def test_hyperplane_bound_is_at_least_the_naive_ex(monkeypatch, members):
    # the bound taken from each recursive solve at n - 1 against the
    # exhaustive maximum at n
    fam = Family.from_matroids(members)
    real = extremal.ex_search
    subs = {}

    def recorded(family, n, time_limit=None):
        subs[n] = real(family, n, time_limit=time_limit)
        return subs[n]

    monkeypatch.setattr(extremal, "ex_search", recorded)
    bounded = 0
    for n in range(2, 5):
        subs.clear()
        want = naive_ex(fam, n)
        assert real(fam, n).value == want
        if n - 1 in subs:
            sub = subs[n - 1]
            assert sub.certified
            bounded += 1
            assert ((1 << n) - 1) * sub.value // ((1 << (n - 1)) - 1) >= want
    assert bounded


def _mask(points) -> int:
    return sum(1 << (p - 1) for p in points if p)


def _fewest_exclusions(copies: list[int], allowed: int, und: int) -> int:
    """Least number of undecided points whose removal leaves no copy
    inside ``allowed``, by trying every set of them by size."""
    live = [c for c in copies if not c & ~allowed]
    points = [1 << i for i in range(und.bit_length()) if und >> i & 1]
    for k in range(len(points) + 1):
        for xs in combinations(points, k):
            rest = allowed & ~sum(xs)
            if not any(not c & ~rest for c in live):
                return k
    raise AssertionError("a copy lies inside kept")


@pytest.mark.parametrize("members", [
    [complete_graphic(4)], [circuit(4)], [free(3)], [circuit(4), pg(2)]],
    ids=["M(K4)", "C4", "I3", "C4+tri"])
def test_packing_charges_no_more_than_a_free_set_loses(members):
    # node states built around planes through one line, so that some
    # flats are hot; copies, planes, caps and the minimum all come from
    # the brute-force routines of conftest
    rng = random.Random(15)
    fam = Family.from_matroids(members)
    charged = 0
    for n in (4, 5):
        total = (1 << n) - 1
        copies = naive_copies(n, fam.members)
        inc = [sum(1 << i for i, c in enumerate(copies) if c >> p & 1)
               for p in range(total)]
        planes = [_mask(w) for w in subspaces(n, 3)]
        lines = [_mask(w) for w in subspaces(n, 2)]
        flats = extremal._flats(fam, n, None)
        if n == 4:
            assert flats == []  # rank 3 > n - 2
        else:
            fano = naive_copies(3, fam.members)
            cap = max(s.bit_count() for s in range(1 << 7)
                      if not any(not c & ~s for c in fano))
            assert sorted(flats) == sorted((w, cap) for w in planes)
        for _ in range(40):
            line = rng.choice(lines)
            through = [w for w in planes if w & line == line]
            allowed = line
            for w in rng.sample(through, rng.randint(1, 2)):
                allowed |= w
            for p in rng.sample(range(total), 2):
                allowed |= 1 << p
            if rng.random() < 0.5:
                kept = line
            else:
                pts = [1 << i for i in range(total) if allowed >> i & 1]
                kept = sum(rng.sample(pts, rng.randint(0, 3)))
            if any(not c & ~kept for c in copies):
                continue  # no free set holds kept
            und = allowed & ~kept
            alive = sum(1 << i for i, c in enumerate(copies)
                        if not c & ~allowed)
            pairs = sum(1 << i for i, c in enumerate(copies)
                        if alive >> i & 1 and (c & und).bit_count() == 2)
            hot = [f for f in flats
                   if (allowed & f[0]).bit_count() - f[1] >= 2]
            charged += bool(hot)
            packed = extremal._packing(inc, copies, und, alive, pairs,
                                       allowed, hot, total)
            assert packed <= _fewest_exclusions(copies, allowed, und)
    assert charged


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
                for w in subspaces(src.dim, src.dim - k):
                    sl = src.points & w
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


def test_maintech_with_k0_is_the_search():
    # C4 has chi 1, so k = 0: no lift, and the formula is the search of
    # the family itself, value and witness
    fam = Family.from_matroids([circuit(4)])
    mt = maintech_rhs(fam, 4)
    cert = ex_search(fam, 4)
    assert mt.k == 0 and cert.certified
    assert (mt.value, mt.witness) == (cert.value, cert.witness)
    assert mt.witness_free


def test_maintech_matches_search_small():
    # at dimensions where equality is known, the formula equals the
    # certified search
    cases = [(pg(2), n, 1 << (n - 1)) for n in range(2, 6)]
    cases += [(complete_graphic(4), 4, 9), (complete_graphic(4), 5, 17),
              (pg(3), 4, 12), (pg(3), 5, 24)]
    for member, n, want in cases:
        fam = Family.from_matroids([member])
        cert = ex_search(fam, n)
        assert cert.certified
        assert maintech_rhs(fam, n).value == cert.value == want


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
    # computed on the span: a triangle declared in dimension 9, past the
    # rank <= 8 limit
    assert critical_edge_check(Matroid(9, frozenset({1, 2, 3})))


def test_a_member_is_computed_on_its_span(rng):
    # k, the decomposition family and the tier of a member do not depend
    # on the dimension it is declared in: the same matroid at its rank, at
    # rank + 1 and rank + 2 (under random injective maps), and that last
    # point set once more in dimension 9, past the rank <= 8 guards
    checked = 0
    while checked < 12:
        base = recoordinatize(random_matroid(rng, rng.randint(2, 4),
                                             rng.uniform(0.4, 0.9)))
        if base.dim == 0 or chi(base) < 2:
            continue
        checked += 1
        declared = []
        for extra in (0, 1, 2):
            table = random_gl(rng, base.dim + extra)
            declared.append(Matroid(base.dim + extra,
                                    frozenset(table[p] for p in base.points)))
        declared.append(Matroid(9, declared[-1].points))
        want = None
        for m in declared:
            fam = Family.from_matroids([m])
            assert fam.spans == (recoordinatize(m),)
            got = (fam.k, decomposition_family(fam).members,
                   corollary_tier(fam))
            want = want or got
            assert got == want, m


def _oracle_tier_and_edges(members):
    """((regime, k, t), [critical edge of each member]) by the subset
    searches that the slices replace: every point subset of each member's
    span, tried with ``naive_chi``."""
    spans = []
    for m in members:
        basis, coeff = coordinates(m.points)
        spans.append(Matroid(len(basis), frozenset(coeff[p] for p in m.points)))
    chis = [naive_chi(s) for s in spans]
    edges = [any(naive_chi(Matroid(s.dim, s.points - {e})) < c
                 for e in s.points) for s, c in zip(spans, chis)]
    k = min(chis) - 1
    if k == 0:
        return ("sparse", k, None), edges

    def drops(size, independent):
        return any(
            (rank(sub) == size) == independent
            and naive_chi(Matroid(s.dim, s.points - set(sub))) <= k
            for s in spans for sub in combinations(sorted(s.points), size))

    t = next((size for size in range(1, max(s.dim for s in spans) + 1)
              if drops(size, True)), None)
    if t is None:
        return ("sparse", k, None), edges
    small = any(drops(size, False) for size in range(3, t + 1))
    regime = "finite-computation" if small else "exact-constant"
    return (regime, k, t), edges


def test_tier_and_critical_edges_match_the_subset_searches():
    rng = random.Random(20261019)
    families = [[complete_graphic(4)], [complete_graphic(5)],
                [octahedron_matroid()], [pg(3)], [circuit(4)]]
    while len(families) < 45:
        members = [random_matroid(rng, rng.randint(2, 4),
                                  rng.choice([0.3, 0.5, 0.7, 0.9]))
                   for _ in range(rng.randint(1, 2))]
        if all(m.points for m in members):
            families.append(members)
    regimes = set()
    for members in families:
        rep = corollary_tier(Family.from_matroids(members))
        want_tier, want_edges = _oracle_tier_and_edges(members)
        assert (rep.regime, rep.k, rep.t) == want_tier, members
        assert [critical_edge_check(m) for m in members] == want_edges
        regimes.add(rep.regime)
    assert regimes == {"exact-constant", "finite-computation", "sparse"}


def test_clique_tiers_match_the_closed_form():
    # one slice enumeration per member keeps even M(K8) well inside 5 s
    with time_budget(5):
        for t in range(3, 9):
            rep = corollary_tier(Family.from_matroids([complete_graphic(t)]))
            t0, constant = clique_constant(t)
            assert (rep.regime, rep.k, rep.constant) == \
                ("exact-constant", t0, constant), t


def test_slices_are_limited_to_member_rank_8(monkeypatch):
    # a triangle and seven more independent points: rank 9, chi 2
    m = Matroid(9, frozenset({1, 2, 3} | {1 << i for i in range(2, 9)}))
    def refused():
        return pytest.raises(CapacityError, match=(
            "codimension-k slices limited to member rank <= 8"))

    with refused():
        decomposition_family(Family((m,)))
    # the tier and the critical-element check refuse before any chi search
    monkeypatch.setattr(extremal, "chi", None)
    with refused():
        corollary_tier(Family((m,)))
    with refused():
        critical_edge_check(m)


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
        len(m.points ^ frozenset(p for p in range(1, 32) if p not in w))
        for w in subspaces(5, 4)
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
    assert aes_check() is True
    size, witness = aes_probe()
    assert size == 5  # frozen regression constant from the exhaustive run
    assert witness.rank == 4 and chi(witness) > 1
    # witness is triangle-free
    pts = witness.sorted_points()
    for a, b in combinations(pts, 2):
        assert (a ^ b) not in witness.points


def _incidence_by_bits(copies: list[int], total: int) -> list[int]:
    """The per-bit loop that ``extremal._incidence`` replaced: each set
    bit of each copy sets the copy's id in its point's row."""
    nbytes = (len(copies) + 7) // 8
    rows = [bytearray(nbytes) for _ in range(total)]
    for cid, c in enumerate(copies):
        byte, bit = cid >> 3, 1 << (cid & 7)
        while c:
            low = c & -c
            rows[low.bit_length() - 1][byte] |= bit
            c ^= low
    return [int.from_bytes(row, "little") for row in rows]


@pytest.mark.parametrize("n", range(1, 9))
def test_incidence_matches_the_per_bit_loop(n):
    # byte widths 1 to 32; no copy, one copy, and more copies than one
    # chunk of the transpose, with its last chunk partly filled
    rng = random.Random(n)
    total = (1 << n) - 1
    chunk = extremal._INCIDENCE_CHUNK
    for count in (0, 1, 9, chunk, 2 * chunk + 13):
        copies = [rng.getrandbits(total) for _ in range(count)]
        if copies:
            copies[0] = (1 << total) - 1  # every point, the top one too
        assert (extremal._incidence(copies, total)
                == _incidence_by_bits(copies, total)), (n, count)


def test_incidence_of_the_indexed_copies():
    fam = Family.from_matroids([circuit(4), pg(2)])
    copies = extremal._all_copies(fam, 5)
    assert extremal._incidence(copies, 31) == _incidence_by_bits(copies, 31)
