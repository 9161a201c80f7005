"""Containment, isomorphism, canonical keys, copy enumeration."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmx import kernels
from bmx.errors import CapacityError
from bmx.gf2core import rank_ints
from bmx.graphs import SimpleGraph
from bmx.matroid import (
    Matroid,
    ag,
    bb,
    circuit,
    delete,
    free,
    from_compact,
    graphic,
    pg,
    recoordinatize,
)
from bmx.morphism import (
    _schedule,
    _schedule_cached,
    canonical_key,
    contains,
    count_restrictions,
    isomorphic,
)
from conftest import (
    _GL_CACHE,
    _naive_images,
    gl_maps,
    naive_contains,
    naive_count_restrictions,
    naive_isomorphic,
    random_gl,
    random_matroid,
    time_budget,
)


def test_contains_examples():
    assert contains(pg(3), pg(2))
    assert contains(pg(3), circuit(4))
    assert not contains(bb(4, 1), pg(2))  # affine hosts are triangle-free
    assert not contains(pg(2), pg(3))
    assert contains(pg(2), Matroid(2, frozenset()))
    # only the pattern's rank must fit, not its declared dimension
    assert contains(pg(2), Matroid(3, frozenset({1})))


def test_contains_dim7():
    tri = Matroid(7, frozenset({1, 2, 3}))
    assert contains(tri, pg(2)) and not contains(tri, free(3))
    assert not contains(tri, pg(3))
    assert contains(bb(7, 3), pg(3))


def test_contains_patterns_declared_above_the_host_dim():
    # M(O6) and M(K6) are declared in dimension 6 and have rank 5
    k6 = graphic(SimpleGraph.from_edges(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6)]))
    o6 = delete(k6, {0b11, 0b1100, 0b110000})
    assert contains(pg(5), o6) and contains(pg(5), k6)
    assert not contains(pg(4), o6)


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


def _lexmin_mask(n: int, pts, maps) -> int:
    """The least characteristic string (index 1 first) of h(M) over the
    given maps h, as a bitset."""
    total = (1 << n) - 1
    best = min("".join("1" if i in image else "0" for i in range(1, total + 1))
               for image in ({table[p] for p in pts} for table in maps))
    return sum(1 << i for i, ch in enumerate(best) if ch == "1")


def _points(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def test_canon_mask_is_the_brute_force_lexmin():
    # every mask of dimension 3; in dimension 4 sparse sets (a point, two,
    # a triangle, three and four independent points), their complements
    # and two random sets
    sparse = [0b1, 0b11, 0b111, 0b1011, 0b100000000010110]
    rng = random.Random(44)
    dim4 = sparse + [((1 << 15) - 1) ^ m for m in sparse]
    dim4 += [rng.getrandbits(15) for _ in range(2)]
    with time_budget(10):
        for n, masks in ((3, range(128)), (4, dim4)):
            if n not in _GL_CACHE:
                _GL_CACHE[n] = gl_maps(n)
            for mask in masks:
                assert kernels.canon_mask(n, mask) == \
                    _lexmin_mask(n, _points(mask), _GL_CACHE[n]), mask


@pytest.mark.parametrize("n", [5, 6])
def test_sparse_and_cosparse_canonical_forms(n):
    # any one point, or any two, can be sent to the last positions, and
    # the missing points of a complement to the first ones
    total = (1 << n) - 1
    rng = random.Random(n)
    with time_budget(10):
        for k, last in ((1, {total}), (2, {total - 1, total})):
            pts = frozenset(rng.sample(range(1, total + 1), k))
            key = canonical_key(Matroid(n, pts))
            assert key.matroid().points == last
            rest = frozenset(range(1, total + 1))
            key = canonical_key(Matroid(n, rest - pts))
            assert key.matroid().points == rest - set(range(1, k + 1))


def test_two_point_dim6_key_is_pinned():
    with time_budget(10):
        m = from_compact("bm:6:0080000008000000")
        assert m.points == {16, 36}
        assert canonical_key(m).bits == "0" * 61 + "11"


def test_sparse_dim6_images_share_a_key():
    rng = random.Random(61)
    with time_budget(10):
        for k in (1, 2, 3, 4):
            m = Matroid(6, frozenset(rng.sample(range(1, 64), k)))
            key = canonical_key(m)
            for _ in range(2):
                table = random_gl(rng, 6)
                image = Matroid(6, frozenset(table[p] for p in m.points))
                assert canonical_key(image) == key
            assert key.matroid().size == k


def test_cosparse_dim5_images_share_a_key():
    rng = random.Random(51)
    with time_budget(10):
        for k in (1, 2, 3, 4):
            missing = rng.sample(range(1, 32), k)
            m = Matroid(5, frozenset(range(1, 32)) - frozenset(missing))
            key = canonical_key(m)
            for _ in range(2):
                table = random_gl(rng, 5)
                image = Matroid(5, frozenset(table[p] for p in m.points))
                assert canonical_key(image) == key
            assert key.matroid().size == 31 - k


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



def _mk4() -> Matroid:
    return graphic(SimpleGraph.from_edges(
        4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))


def _mask_points(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def test_schedule_closes_each_point_once():
    # slot j's checks have top bit j, and the basis points they select sum
    # to the point closed; over all slots, each point is closed once
    rng = random.Random(69)
    mk5 = graphic(SimpleGraph.from_edges(
        5, [(u, v) for u in range(5) for v in range(u + 1, 5)]))
    patterns = [pg(2), pg(3), circuit(4), circuit(5), _mk4(), mk5, free(4),
                pg(4), pg(5)]
    for _ in range(300):
        n = rng.randint(1, 7)
        size = rng.randint(1, min(16, (1 << n) - 1))
        patterns.append(Matroid(n, frozenset(rng.sample(range(1, 1 << n),
                                                        size))))
    with time_budget(30):
        for pattern in patterns:
            sched = _schedule(pattern.mask)
            assert rank_ints(sched.basis) == len(sched.basis) == pattern.rank
            closed = []
            for j, cs in enumerate(sched.checks):
                for c in cs:
                    assert c.bit_length() - 1 == j
                    x = 0
                    for i, b in enumerate(sched.basis):
                        if c >> i & 1:
                            x ^= b
                    closed.append(x)
            assert sorted(closed) == pattern.sorted_points(), pattern


@pytest.mark.parametrize("name,pattern,order", [
    ("triangle", pg(2), 6), ("C4", circuit(4), 24), ("I4", free(4), 24),
    ("M(K4)", _mk4(), 24), ("C5", circuit(5), 120), ("Fano", pg(3), 168),
    ("PG(3,2)", pg(4), 20160),
])
def test_basic_orbits_multiply_to_the_automorphism_count(name, pattern, order):
    # |Aut(N)| by brute force: the distinct point permutations induced by
    # the invertible maps of span(N) that keep N
    spanning = recoordinatize(pattern)
    pts = spanning.sorted_points()
    n = spanning.dim
    if n not in _GL_CACHE:
        _GL_CACHE[n] = gl_maps(n)
    perms = {tuple(g[p] for p in pts) for g in _GL_CACHE[n]
             if all(g[p] in spanning.points for p in pts)}
    assert len(perms) == order
    # |O_i| is 1 (b_i itself) plus the points whose bound has bit i
    sched = _schedule(pattern.mask)
    product_of_orbits = 1
    for i in range(len(sched.checks)):
        product_of_orbits *= 1 + sum(b >> i & 1 for bs in sched.bounds
                                     for b in bs)
    assert product_of_orbits == order, name


def test_orbit_bounds_are_the_basic_orbits_of_aut():
    # bit i of a point's bound is set iff some automorphism fixes
    # b_0..b_{i-1} and sends b_i to it; Aut(N) by brute force over GL
    rng = random.Random(68)
    patterns = [pg(2), pg(3), circuit(4), free(3), free(4), _mk4(), bb(4, 1),
                ag(3), ag(4), pg(4)]
    patterns += [random_matroid(rng, n, d) for n in (2, 3, 4)
                 for d in (0.2, 0.4, 0.6, 0.8) for _ in range(6)]
    with time_budget(60):
        for pattern in patterns:
            if not pattern.points:
                continue
            n = pattern.dim
            if n not in _GL_CACHE:
                _GL_CACHE[n] = gl_maps(n)
            auts = [g for g in _GL_CACHE[n]
                    if all(g[p] in pattern.points for p in pattern.points)]
            sched = _schedule(pattern.mask)
            basis = sched.basis
            for cs, bs in zip(sched.checks, sched.bounds):
                for c, bound in zip(cs, bs):
                    x = 0
                    for j in range(len(basis)):
                        if c >> j & 1:
                            x ^= basis[j]
                    want = 0
                    for i in range(len(basis)):
                        if x != basis[i] and any(
                                g[basis[i]] == x
                                and all(g[basis[h]] == basis[h]
                                        for h in range(i))
                                for g in auts):
                            want |= 1 << i
                    assert bound == want, (pattern, x)


def test_each_copy_is_enumerated_once():
    # image sets against every injective map tried by brute force
    rng = random.Random(66)
    patterns = [pg(2), circuit(4), free(3), free(4), pg(3), circuit(5), _mk4()]
    with time_budget(20):
        for pattern in patterns:
            for n in (3, 4, 5):
                if n < pattern.dim:
                    continue
                if n == 5 and pattern.rank == 4:
                    continue  # 625k injective maps per host: too slow
                for density in (0.6, 1.0):
                    host = random_matroid(rng, n, density)
                    sched = _schedule_cached(pattern.mask)
                    images = kernels.all_embedding_images(
                        host.sorted_points(), host.mask, sched.checks,
                        sched.bounds)
                    assert len(images) == len(set(images))
                    assert {_mask_points(c) for c in images} == \
                        set(_naive_images(host, pattern)), (pattern, host)


def _lex_least_embedding(host: Matroid, basis, pattern: Matroid):
    """The least injective basis-image tuple, in ascending host points,
    that sends every pattern point to a host point; by brute force."""
    r = len(basis)
    coeffs = []
    for p in pattern.points:
        for c in range(1, 1 << r):
            x = 0
            for i in range(r):
                if c >> i & 1:
                    x ^= basis[i]
            if x == p:
                coeffs.append(c)
                break
    for imgs in product(host.sorted_points(), repeat=r):
        if rank_ints(imgs) < r:
            continue
        for c in coeffs:
            x = 0
            for i in range(r):
                if c >> i & 1:
                    x ^= imgs[i]
            if x not in host.points:
                break
        else:
            return list(imgs)
    return None


def test_find_embedding_is_the_lex_least_tuple():
    rng = random.Random(67)
    patterns = [pg(2), circuit(4), free(3), pg(3), _mk4(), free(2)]
    with time_budget(30):
        for _ in range(60):
            pattern = rng.choice(patterns)
            if rng.random() < 0.3:
                pattern = random_matroid(rng, 3, 0.5)
                if not pattern.points:
                    continue
            n = rng.randint(max(3, pattern.dim), 4)
            host = random_matroid(rng, n, rng.choice([0.4, 0.7, 1.0]))
            sched = _schedule_cached(pattern.mask)
            got = kernels.find_embedding(host.sorted_points(), host.mask,
                                         sched.checks, sched.bounds)
            assert got == _lex_least_embedding(host, sched.basis, pattern)


def test_pg3_copies_in_pg5():
    # [6 choose 4]_2 = 651 solids; the ordered bases number 13 million
    with time_budget(10):
        assert count_restrictions(pg(6), pg(4)) == 651
