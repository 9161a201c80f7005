"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every expected value here is either computed by an independent oracle in
this file / conftest.py, re-derived from raw sets at assertion time, or a
frozen regression constant produced by an earlier exhaustive run.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from bmx.catalog import Catalog
from bmx.extremal import (
    Family,
    aes_check,
    aes_probe,
    clique_constant,
    decomposition_family,
    ex_search,
    maintech_rhs,
    nearest_bose_burton,
)
from bmx.graphs import SimpleGraph, chromatic_number
from bmx.matroid import (
    Matroid,
    bb,
    chi,
    circuit,
    free,
    graphic,
    pg,
    recoordinatize,
)
from bmx.morphism import canonical_key, contains, count_restrictions, isomorphic
from bmx.verify import corpus_graphs, octahedron
from conftest import naive_chi, naive_contains, naive_isomorphic, random_matroid


@contextmanager
def criterion(capfd, number: int, limit_s: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"\nCRITERION {number} FAIL")
        raise
    elapsed = time.perf_counter() - start
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {number} took {elapsed:.1f}s"
    with capfd.disabled():
        print(f"\nCRITERION {number} PASS ({elapsed:.1f}s)", end="")


def complete_graphic(t: int) -> Matroid:
    g = SimpleGraph.from_edges(
        t, [(u, v) for u in range(t) for v in range(u + 1, t)]
    )
    return graphic(g)


def test_criterion_01_bose_burton_exactness(capfd):
    # ex({PG(t,2)}, n) = 2^n - 2^(n-t), witness isomorphic to bb(n, t)
    with criterion(capfd, 1, 60.0):
        cells = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
                 (3, 4)]
        for t, n in cells:
            cert = ex_search(Family.from_matroids([pg(t + 1)]), n)
            assert cert.certified
            assert cert.value == (1 << n) - (1 << (n - t)), (t, n)
            assert isomorphic(cert.witness, bb(n, t)), (t, n)


def test_criterion_02_octahedron_pipeline(capfd):
    with criterion(capfd, 2, 120.0):
        fam = Family.from_matroids([graphic(octahedron())])
        dfam = decomposition_family(fam)
        assert len(dfam.members) == 2
        assert any(isomorphic(d, free(4)) for d in dfam.members)
        assert any(isomorphic(d, circuit(4)) for d in dfam.members)
        sub = ex_search(Family.from_matroids([free(4), circuit(4)]), 3)
        assert sub.certified and sub.value == 4
        mt = maintech_rhs(fam, 6)
        assert mt.value == 36
        assert mt.witness_free
        assert not contains(mt.witness, fam.members[0])


def test_criterion_03_clique_constants(capfd):
    # additive constant from the decomposition pipeline vs the closed form
    with criterion(capfd, 3, 300.0):
        for t, want in [(3, 0), (4, 1), (5, 0), (6, 1)]:
            fam = Family.from_matroids([complete_graphic(t)])
            t0, closed = clique_constant(t)
            assert closed == want
            assert fam.k == t0
            n = t0 + 3
            mt = maintech_rhs(fam, n)
            computed = mt.value - ((1 << n) - (1 << (n - t0)))
            assert computed == closed, t
            assert mt.witness_free
            assert not contains(mt.witness, fam.members[0])


def test_criterion_04_free_matroid_families(capfd):
    with criterion(capfd, 4, None):
        for t in range(1, 5):
            for n in range(t - 1, 6):
                cert = ex_search(Family.from_matroids([free(t)]), n)
                assert cert.certified
                assert cert.value == (1 << (t - 1)) - 1, (t, n)
                if t == 1:
                    assert cert.witness.size == 0
                else:
                    assert isomorphic(recoordinatize(cert.witness), pg(t - 1))


def test_criterion_05_chi_log_formula(capfd):
    # chi(M(G)) = ceil(log2 chi(G)) over the 6-vertex connected corpus
    with criterion(capfd, 5, 60.0):
        graphs = corpus_graphs()
        assert len(graphs) == 112
        for g in graphs:
            want = math.ceil(math.log2(chromatic_number(g)))
            assert chi(graphic(g)) == want


def test_criterion_06_aes_analogue(capfd):
    with criterion(capfd, 6, 120.0):
        assert aes_check() is True
        size, witness = aes_probe()
        assert size == 5  # frozen constant from the exhaustive run
        assert witness.rank == 4 and chi(witness) > 1
        for a, b in combinations(witness.sorted_points(), 2):
            assert (a ^ b) not in witness.points


def test_criterion_07_stability_properties(capfd):
    # 200 random large triangle-free matroids at n in {5, 6}: the reported
    # distance is re-derived from raw sets, vanishes exactly on Bose-Burton
    # geometries, and respects the trivial bound
    with criterion(capfd, 7, None):
        rng = random.Random(20260823)
        for trial in range(200):
            n = 5 if trial % 2 == 0 else 6
            floor = (1 - 2 ** (1 - 2) - 0.05) * (1 << n)
            f = rng.randrange(1, 1 << n)
            comp = [p for p in range(1, 1 << n) if (p & f).bit_count() & 1]
            # drop a few points but stay above the size floor
            slack = len(comp) - math.ceil(floor)
            drop = rng.randint(0, slack) if trial % 4 else 0
            pts = frozenset(rng.sample(comp, len(comp) - drop))
            m = Matroid(n, pts)
            assert m.size >= floor
            for a, b in combinations(sorted(pts), 2):
                assert (a ^ b) not in pts  # triangle-free by construction
            rep = nearest_bose_burton(m, 1)
            assert rep.distance == len(m.points ^ rep.bose_burton.points)
            # M is isomorphic to bb(n, 1) iff it is exactly the complement
            # of some hyperplane (GL permutes hyperplanes transitively)
            is_bb = any(
                pts == frozenset(
                    p for p in range(1, 1 << n) if (p & g).bit_count() & 1)
                for g in range(1, 1 << n)
            )
            assert (rep.distance == 0) == is_bb
            assert rep.distance <= 1 << n


def test_criterion_08_oracle_equivalences(capfd):
    with criterion(capfd, 8, None):
        dim3 = [Matroid(3, frozenset(
            p for p in range(1, 8) if (mask >> (p - 1)) & 1))
            for mask in range(1 << 7)]
        for m in dim3:
            assert chi(m) == naive_chi(m)
        keys = [canonical_key(m) for m in dim3]
        for i, a in enumerate(dim3):
            for j, b in enumerate(dim3):
                assert contains(a, b) == naive_contains(a, b), (i, j)
                want_iso = naive_isomorphic(a, b)
                assert isomorphic(a, b) == want_iso
                # canonical keys induce exactly the isomorphism classes
                assert (keys[i] == keys[j]) == want_iso
        rng = random.Random(20260823)
        pairs = [(random_matroid(rng, 4, rng.uniform(0.2, 0.7)),
                  random_matroid(rng, 4, rng.uniform(0.2, 0.7)))
                 for _ in range(500)]
        # 1-3 points that do not span F_2^4, keyed over their spans
        pairs += [tuple(Matroid(4, frozenset(rng.sample(range(1, 16), k)))
                        for k in (rng.randint(1, 3), rng.randint(1, 3)))
                  for _ in range(100)]
        for a, b in pairs:
            assert chi(a) == naive_chi(a)
            assert contains(a, b) == naive_contains(a, b)
            assert contains(b, a) == naive_contains(b, a)
            assert isomorphic(a, b) == naive_isomorphic(a, b)


def test_criterion_09_counting(capfd):
    with criterion(capfd, 9, None):
        assert count_restrictions(pg(3), circuit(3)) == 7
        for n in range(2, 6):
            assert count_restrictions(bb(n, 1), circuit(3)) == 0


def test_criterion_10_catalog_integrity(capfd, tmp_path):
    with criterion(capfd, 10, None):
        cat = Catalog(tmp_path / "cache")
        keys = [
            cat.put(ex_search(Family.from_matroids([pg(2)]), n))
            for n in (2, 3, 4)
        ]
        keys.append(cat.put(ex_search(Family.from_matroids([free(3)]), 4)))
        report = cat.verify_all()
        assert report.checked == 4 and not report.failures

        victim = keys[1]
        path = cat.root / victim[:2] / victim[2:4] / f"{victim}.json"
        d = json.loads(path.read_text())
        prefix, ndim, hexs = d["payload"]["witness"].split(":")
        raw = bytearray(bytes.fromhex(hexs))
        raw[0] ^= 1
        d["payload"]["witness"] = f"{prefix}:{ndim}:{raw.hex()}"
        path.write_text(json.dumps(d))

        report = cat.verify_all()
        assert [k for k, _ in report.failures] == [victim]
        assert cat.get(victim) is None
        for k in keys:
            if k != victim:
                assert cat.get(k) is not None
