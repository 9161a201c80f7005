"""Containment, isomorphism, canonical keys, copy enumeration."""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmx import kernels, morphism
from bmx.errors import CapacityError
from bmx.gf2core import bitset_of
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
    rank,
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


def test_isomorphic_matches_naive_on_equal_size_and_rank_dim4():
    # half the pairs are GL images, the rest random sets of the same size
    # and rank, which the line counts refute or the keys decide
    rng = random.Random(71)
    pairs = 0
    with time_budget(30):
        while pairs < 120:
            size = rng.randint(2, 13)
            a = Matroid(4, frozenset(rng.sample(range(1, 16), size)))
            if pairs % 2 == 0:
                table = random_gl(rng, 4)
                b = Matroid(4, frozenset(table[p] for p in a.points))
            else:
                b = Matroid(4, frozenset(rng.sample(range(1, 16), size)))
                if b.rank != a.rank:
                    continue
            assert isomorphic(a, b) == naive_isomorphic(a, b), (a, b)
            pairs += 1


def test_unequal_line_counts_refute_without_a_key(monkeypatch):
    # two 4-point sets of rank 3 declared in dimension 12: a line and a
    # point, and a 4-circuit, which holds no line
    def no_key(*_args):
        raise AssertionError("a key was computed")

    monkeypatch.setattr(kernels, "canon_mask", no_key)
    a, b, c = 1 << 11, 1 << 10, 1 << 9
    with_line = Matroid(12, frozenset({a, b, a ^ b, c}))
    c4 = Matroid(12, frozenset({a, b, c, a ^ b ^ c}))
    assert with_line.rank == c4.rank == 3
    assert not isomorphic(with_line, c4)
    assert not isomorphic(c4, with_line)


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
    # a k-point independent set is keyed over its span, as free(k); the
    # missing points of a complement go to the first positions
    total = (1 << n) - 1
    rng = random.Random(n)
    with time_budget(10):
        for k in (1, 2):
            pts = frozenset(rng.sample(range(1, total + 1), k))
            assert canonical_key(Matroid(n, pts)) == canonical_key(free(k))
            rest = frozenset(range(1, total + 1))
            key = canonical_key(Matroid(n, rest - pts))
            assert key.matroid().points == rest - set(range(1, k + 1))


def test_two_point_dim6_key_is_pinned():
    with time_budget(10):
        m = from_compact("bm:6:0080000008000000")
        assert m.points == {16, 36}
        assert canonical_key(m) == morphism.CanonicalKey(2, "011")


def test_sparse_dim7_keys_come_from_the_span():
    # six random points of dimension 7 have rank 6: each is keyed as I6,
    # in dimension 6
    sets = [Matroid(7, frozenset(random.Random(s).sample(range(1, 128), 6)))
            for s in range(3)]
    with time_budget(5):
        keys = [canonical_key(m) for m in sets]
    assert set(keys) == {canonical_key(free(6))}
    rng = random.Random(7)
    for m, key in zip(sets, keys):
        table = random_gl(rng, 7)
        image = Matroid(7, frozenset(table[p] for p in m.points))
        assert canonical_key(image) == key
        assert isomorphic(m, image)


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
    # the limit is on the rank, not on the declared dimension
    with pytest.raises(CapacityError, match="rank <= 8"):
        canonical_key(free(9))
    assert canonical_key(Matroid(9, frozenset({1}))) == canonical_key(free(1))


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
            assert rank(sched.basis) == len(sched.basis) == pattern.rank
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


def _orbit_bounds_by_search(checks):
    """The per-candidate search that ``morphism._orbit_bounds`` replaced:
    one pinned existence search for every point that passes the two
    filters, slot by slot, with no automorphism kept."""
    pts = sorted(c for cs in checks for c in cs)
    mask = bitset_of(pts)
    r = len(checks)
    unbounded = [(0,) * len(cs) for cs in checks]
    slots = dict.fromkeys(pts, 0)
    profile = {x: sum(1 << (x ^ q) - 1 for q in pts if q != x) for x in pts}
    inv = morphism._point_invariants(pts, r, profile, mask)
    for i in range(r):
        b = 1 << i
        fixed = (1 << b - 1) - 1
        pinned = tuple(1 << h for h in range(i))
        for x in pts:
            if (x >> i and x != b and inv[x] == inv[b]
                    and (profile[x] ^ profile[b]) & fixed == 0):
                found = kernels._embeddings(pts, mask, checks, unbounded,
                                            [0] * r, pinned + (x,))
                if next(found, None) is not None:
                    slots[x] |= 1 << i
    return tuple(tuple(slots[c] for c in cs) for cs in checks)


def test_orbit_bounds_match_the_per_candidate_search():
    # the automorphisms kept from earlier searches change which searches
    # run, never a bound
    rng = random.Random(70)
    # PG(t-1,2) for t <= 5 (the triangle and Fano among them), the
    # benchmark's other patterns C4, M(K4) and I4, and C5 and I3
    patterns = [pg(t) for t in range(1, 6)]
    patterns += [circuit(4), circuit(5), _mk4(), free(3), free(4)]
    for _ in range(300):
        n = rng.randint(1, 5)
        size = rng.randint(1, (1 << n) - 1)
        patterns.append(Matroid(n, frozenset(rng.sample(range(1, 1 << n),
                                                        size))))
    with time_budget(30):
        for pattern in patterns:
            checks = _schedule(pattern.mask).checks
            assert (morphism._orbit_bounds(checks)
                    == _orbit_bounds_by_search(checks)), pattern


def test_pg3_runs_fewer_searches_than_it_has_candidates(monkeypatch):
    # PG(3,2) is transitive, so every point outside span(b_0..b_{i-1})
    # other than b_i passes both filters: 14 + 13 + 11 + 7 candidates
    checks = _schedule(pg(4).mask).checks
    calls = []
    embeddings = kernels._embeddings

    def counted(*args):
        calls.append(args)
        return embeddings(*args)

    monkeypatch.setattr(kernels, "_embeddings", counted)
    want = _orbit_bounds_by_search(checks)
    by_search = len(calls)
    assert by_search == sum(15 - (1 << i) for i in range(4))
    del calls[:]
    assert morphism._orbit_bounds(checks) == want
    assert 0 < len(calls) < by_search


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
        if rank(imgs) < r:
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


def test_counts_beyond_the_old_dimension_and_rank_limits():
    # the copy cap alone decides: 2,667 triangles in PG(6,2), and the
    # 63 hyperplanes of PG(5,2) are its copies of PG(4,2)
    with time_budget(10):
        assert count_restrictions(pg(7), pg(2)) == 2_667
        assert count_restrictions(pg(6), pg(5)) == 63


def test_count_over_the_copy_cap_builds_no_image(monkeypatch):
    # the cap of ex, checked against the copy count before any image is
    # enumerated; scheduling runs pinned searches, so it is done first
    started = []
    real = kernels._embeddings

    def watched(*args):
        started.append(True)
        yield from real(*args)

    for m in (circuit(4), free(5)):
        _schedule_cached(m.mask)
    monkeypatch.setattr(kernels, "_embeddings", watched)
    # {I5} has 5,249,664 copies in PG(5,2), over the cap of 5 million
    with time_budget(2), pytest.raises(CapacityError):
        count_restrictions(pg(6), free(5))
    monkeypatch.setattr(morphism, "_MAX_COPIES", 100)
    with pytest.raises(CapacityError):
        count_restrictions(pg(5), circuit(4))  # 1,085 copies
    assert not started
    # a host above the dimension limit of ex, whatever it holds
    with pytest.raises(CapacityError, match="host dim <= 8"):
        count_restrictions(Matroid(9, frozenset({1, 2, 3})), pg(2))
    assert not started
    monkeypatch.setattr(morphism, "_MAX_COPIES", 2000)
    assert count_restrictions(pg(5), circuit(4)) == 1_085
    assert started


def test_count_caps_by_the_host_points():
    # I4 has about 168 million copies in PG(7,2), but a host of dimension
    # 8 holding five independent points has exactly five of them
    assert count_restrictions(Matroid(8, frozenset({1, 2, 4, 8, 16})),
                              free(4)) == 5
    # a sparse dimension-8 host is counted, not refused: its copies of I4
    # are its independent 4-subsets
    host = Matroid(8, frozenset(random.Random(8).sample(range(1, 256), 24)))
    want = sum(1 for sub in combinations(host.sorted_points(), 4)
               if rank(sub) == 4)
    with time_budget(10):
        assert count_restrictions(host, free(4)) == want


def test_pg3_copies_in_pg5():
    # [6 choose 4]_2 = 651 solids; the ordered bases number 13 million
    with time_budget(10):
        assert count_restrictions(pg(6), pg(4)) == 651


def test_a_pattern_declared_in_dimension_20_is_scheduled_from_its_points():
    # a triangle on the top two coordinates of F_2^20: its bitset has
    # 786,432 bits, its schedule three points
    def tri20():
        return Matroid(20, frozenset({1 << 19, 1 << 18, 3 << 18}))

    _schedule_cached.cache_clear()
    with time_budget(1):
        assert contains(pg(4), tri20())
    _schedule_cached.cache_clear()
    with time_budget(1):
        assert count_restrictions(pg(4), tri20()) == 35  # lines of PG(3,2)



def test_count_and_images_agree_with_the_naive_count():
    # the popcounts of the last-slot bitsets, the expanded images and the
    # brute-force count over every injective map, on seeded sparse hosts
    rng = random.Random(16)
    patterns = [pg(2), free(2), free(3), circuit(4), pg(3), _mk4(), free(4)]
    with time_budget(30):
        for n in (3, 4, 5, 6):
            for _ in range(3):
                host = random_matroid(rng, n, rng.choice([0.3, 0.5]))
                for pattern in patterns:
                    if pattern.rank > n or pattern.rank > 7 - n:
                        continue  # rank 4 in F_2^5: 625k maps per host
                    sched = _schedule_cached(pattern.mask)
                    args = (host.sorted_points(), host.mask, sched.checks,
                            sched.bounds)
                    count = kernels.count_embedding_images(*args)
                    assert count == len(kernels.all_embedding_images(*args))
                    assert count == naive_count_restrictions(host, pattern)


def _images_over_host_points(host: Matroid, pattern: Matroid) -> set:
    """The image of every injective map that sends a basis of the pattern
    to distinct host points and every pattern point into the host, by
    trying each tuple of host points: the basis lies in the pattern, so
    its images are host points in any embedding."""
    basis = [p for p in pattern.sorted_points()
             if rank([q for q in pattern.sorted_points() if q <= p])
             > rank([q for q in pattern.sorted_points() if q < p])]
    coords = []
    for p in pattern.points:
        for c in range(1, 1 << len(basis)):
            x = 0
            for i, b in enumerate(basis):
                if c >> i & 1:
                    x ^= b
            if x == p:
                coords.append(c)
    coords.sort(key=lambda c: -c.bit_count())  # the closed points first
    images = set()
    for imgs in permutations(host.sorted_points(), len(basis)):
        image = set()
        for c in coords:
            x = 0
            for i, y in enumerate(imgs):
                if c >> i & 1:
                    x ^= y
            if x not in host.points:
                break
            image.add(x)
        else:
            if len(image) == len(coords):
                images.add(frozenset(image))
    return images


@pytest.mark.parametrize("size, whole", [(48, True), (16, False)],
                         ids=["whole", "scan"])
def test_both_sides_of_the_slot_bitset_choice(size, whole):
    # above EX_MAX_DIM a host of at least 5 points per dimension has its
    # slots read off whole bitsets, and a sparser one is scanned; both
    # give every copy once
    rng = random.Random(17 + size)
    n = 9
    assert kernels.EX_MAX_DIM < n
    for _ in range(3):
        pts = frozenset(rng.sample(range(1, 1 << n), size - 4))
        # the Fano plane spanned by three points with the top coordinate,
        # so that every pattern has copies to find
        x, y, z = rng.sample(range(1 << 8, 1 << n), 3)
        pts |= {x, y, x ^ y, z, x ^ z, y ^ z, x ^ y ^ z}
        host = Matroid(n, pts)
        assert kernels._whole_slots(n, host.size) == whole
        for pattern in (pg(2), circuit(4), pg(3), _mk4()):
            sched = _schedule_cached(pattern.mask)
            args = (host.sorted_points(), host.mask, sched.checks,
                    sched.bounds)
            images = kernels.all_embedding_images(*args)
            assert len(images) == kernels.count_embedding_images(*args)
            want = _images_over_host_points(host, pattern)
            assert {_mask_points(c) for c in images} == want
            assert len(images) == len(want)
            assert contains(host, pattern) == bool(want)
            assert (kernels.find_embedding(*args) is None) == (not want)


def test_slot_bitset_sides_agree(monkeypatch):
    # the same hosts read both ways: the same images in the same order,
    # and the same first embedding
    rng = random.Random(18)
    hosts = [random_matroid(rng, n, d) for n in (4, 5, 6)
             for d in (0.3, 0.7)]
    patterns = [pg(2), circuit(4), pg(3), _mk4(), free(3)]
    results = {}
    for whole in (True, False):
        monkeypatch.setattr(kernels, "_whole_slots",
                            lambda dim, size, whole=whole: whole)
        results[whole] = [
            (kernels.all_embedding_images(*args),
             kernels.find_embedding(*args))
            for host in hosts for pattern in patterns
            for sched in [_schedule(pattern.mask)]
            for args in [(host.sorted_points(), host.mask, sched.checks,
                          sched.bounds)]]
    assert results[True] == results[False]


def test_a_four_point_host_in_dimension_24():
    # a bitset over F_2^24 has 16 million bits: such a sparse host is
    # scanned, and counting refuses it before looking at its points
    host = Matroid(24, frozenset({1 << 23, 1 << 22, 3 << 22, 5}))
    with time_budget(2):
        assert contains(host, pg(2))
        assert not contains(host, circuit(4))
        assert contains(host, free(3))
        assert not contains(host, pg(3))
        with pytest.raises(CapacityError, match="host dim <= 8"):
            count_restrictions(host, pg(2))
