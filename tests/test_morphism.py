"""Containment, homomorphism, isomorphism, canonical keys."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmx.errors import CapacityError
from bmx.matroid import Matroid, ag, bb, circuit, delete, free, pg
from bmx.morphism import (
    canonical_key,
    contains,
    count_restrictions,
    homomorphic,
    isomorphic,
)
from conftest import (
    naive_contains,
    naive_count_restrictions,
    naive_isomorphic,
    random_matroid,
)


def test_contains_examples():
    assert contains(pg(3), pg(2))
    assert contains(pg(3), circuit(4))
    assert not contains(bb(4, 1), pg(2))  # affine hosts are triangle-free
    assert not contains(pg(2), pg(3))
    assert contains(pg(2), Matroid(2, frozenset()))
    # dimension gate: the pattern's ambient must fit
    assert not contains(pg(2), Matroid(3, frozenset({1})))


def test_contains_dim7():
    tri = Matroid(7, frozenset({1, 2, 3}))
    assert contains(tri, pg(2)) and not contains(tri, free(3))
    assert not contains(tri, pg(3))
    assert contains(bb(7, 3), pg(3))


def test_contains_witness():
    emb = contains(pg(3), circuit(4), want_witness=True)
    assert emb is not None
    assert emb.map.is_injective()
    assert emb.image <= pg(3).points
    assert len(emb.image) == 4
    # image points must realize the circuit relation
    x = 0
    for p in emb.image:
        x ^= p
    # the 4 image points form a circuit: they sum to zero, rank 3
    assert x == 0
    assert Matroid(3, frozenset(emb.image)).rank == 3


def test_contains_matches_naive_exhaustive_dim3():
    all_m = [Matroid(3, frozenset(
        p for p in range(1, 8) if (mask >> (p - 1)) & 1))
        for mask in range(128)]
    rng = random.Random(2)
    pats = [pg(2), free(2), free(3), circuit(4), Matroid(3, frozenset())]
    for host in all_m:
        for pat in pats:
            assert bool(contains(host, pat)) == naive_contains(host, pat)


def test_contains_matches_naive_random_dim4(rng):
    for _ in range(120):
        host = random_matroid(rng, 4, rng.choice([0.3, 0.6, 0.9]))
        psize = rng.randint(0, 5)
        pat = Matroid(4, frozenset(rng.sample(range(1, 16), psize)))
        assert bool(contains(host, pat)) == naive_contains(host, pat)


def test_homomorphic():
    tri = pg(2)
    point = Matroid(1, frozenset({1}))
    # a map sending both e1, e2 to the point sends e1+e2 to zero
    assert not homomorphic(tri, Matroid(2, frozenset({1})))
    assert homomorphic(free(3), Matroid(3, frozenset({1})))
    assert homomorphic(tri, pg(3))
    assert homomorphic(Matroid(2, frozenset()), point)
    assert not homomorphic(point, Matroid(1, frozenset()))
    # chi characterization: M has a homomorphism to pg(chi(M))
    for m in [pg(2), bb(4, 2), ag(3)]:
        from bmx.matroid import chi
        assert homomorphic(m, pg(chi(m)))
        if chi(m) > 1:
            assert not homomorphic(m, pg(chi(m) - 1))


def test_isomorphic_basics():
    assert isomorphic(pg(3), pg(3))
    assert isomorphic(ag(3), bb(3, 1))
    assert not isomorphic(pg(2), free(2))
    assert not isomorphic(pg(2), Matroid(3, frozenset({1, 2, 3})))  # dim differs
    tri_b = Matroid(2, frozenset({1, 2, 3}))
    assert isomorphic(pg(2), tri_b)


def test_isomorphic_matches_naive_exhaustive_dim3():
    ms = [Matroid(3, frozenset(
        p for p in range(1, 8) if (mask >> (p - 1)) & 1))
        for mask in range(128)]
    rng = random.Random(9)
    for _ in range(300):
        a, b = rng.choice(ms), rng.choice(ms)
        assert isomorphic(a, b) == naive_isomorphic(a, b)


def test_canonical_key_partitions_dim3_like_isomorphism():
    ms = [Matroid(3, frozenset(
        p for p in range(1, 8) if (mask >> (p - 1)) & 1))
        for mask in range(128)]
    by_key: dict[str, list[Matroid]] = {}
    for m in ms:
        by_key.setdefault(canonical_key(m).bits, []).append(m)
    # same key -> isomorphic (check within classes)
    for cls in by_key.values():
        rep = cls[0]
        for other in cls[1:]:
            assert naive_isomorphic(rep, other)
    # different key -> not isomorphic (check across class representatives)
    reps = [cls[0] for cls in by_key.values()]
    for a, b in combinations(reps, 2):
        assert not naive_isomorphic(a, b)


@given(st.integers(1, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_canonical_key_is_gl_invariant(n, data):
    from conftest import gl_maps, _GL_CACHE
    pts = frozenset(data.draw(st.sets(st.integers(1, (1 << n) - 1))))
    m = Matroid(n, pts)
    if n not in _GL_CACHE:
        _GL_CACHE[n] = gl_maps(n)
    table = data.draw(st.sampled_from(_GL_CACHE[n]))
    m2 = Matroid(n, frozenset(table[p] for p in pts))
    assert canonical_key(m) == canonical_key(m2)
    # the canonical representative is itself in the orbit with the same key
    rep = canonical_key(m).matroid()
    assert canonical_key(rep) == canonical_key(m)


def test_canonical_key_capacity():
    with pytest.raises(CapacityError):
        canonical_key(Matroid(9, frozenset({1})))


def test_count_restrictions():
    assert count_restrictions(pg(3), pg(2)) == 7  # the 7 Fano lines
    assert count_restrictions(pg(3), circuit(3)) == 7
    for n in range(2, 6):
        assert count_restrictions(bb(n, 1), circuit(3)) == 0
    assert count_restrictions(pg(3), free(1)) == 7
    assert count_restrictions(pg(3), Matroid(1, frozenset())) == 1
    assert count_restrictions(pg(2), pg(3)) == 0


def test_count_restrictions_brute_dim3(rng):
    tri3 = Matroid(3, frozenset({1, 2, 3}))
    for _ in range(25):
        host = random_matroid(rng, 3, 0.6)
        brute = sum(
            1 for sub in combinations(host.sorted_points(), 3)
            if naive_isomorphic(Matroid(3, frozenset(sub)), tri3)
        )
        assert count_restrictions(host, pg(2)) == brute
    # C4, I3, Fano, C5: copies counted over every injective map
    for pattern in [circuit(4), free(3), pg(3), circuit(5)]:
        for _ in range(10):
            host = random_matroid(rng, rng.randint(3, 4),
                                  rng.choice([0.5, 0.8, 1.0]))
            assert count_restrictions(host, pattern) == \
                naive_count_restrictions(host, pattern), (host, pattern)

