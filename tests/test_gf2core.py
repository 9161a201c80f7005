"""Core GF(2) linear algebra."""

from __future__ import annotations


import pytest
from hypothesis import given
from hypothesis import strategies as st

from bmx.gf2core import (
    bitset_of,
    flats,
    parity_masks,
    points_of,
    rank_ints,
    rref_ints,
)
from conftest import gaussian_binomial, rank, span, subspaces

vectors4 = st.integers(min_value=0, max_value=15)


@given(st.lists(vectors4, max_size=8))
def test_rank_matches_rref(vs):
    basis, pivots = rref_ints(vs)
    assert rank_ints(vs) == len(basis) == rank(vs)
    assert span(basis) == span(vs)
    assert len(basis) == len(set(pivots))
    # RREF: each pivot bit appears in exactly its own row
    for row, piv in zip(basis, pivots):
        assert row & -row == 1 << piv
        for other in basis:
            if other is not row:
                assert not (other >> piv) & 1


@pytest.mark.parametrize("n,k", [(n, k) for n in range(5) for k in range(n + 1)])
def test_subspace_enumeration_count(n, k):
    subs = [functionals for functionals, _outside in flats(n, k)]
    assert len(subs) == gaussian_binomial(n, k)
    # each basis spans a distinct subspace, and every subspace is met
    assert all(len(w) == rank(w) == k for w in subs)
    assert {span(w) for w in subs} == set(subspaces(n, k))
    # reduced row-echelon bases, grouped by pivot set in ascending order
    pivots = [tuple(v & -v for v in w) for w in subs]
    assert pivots == sorted(pivots)
    for w, pivs in zip(subs, pivots):
        assert list(pivs) == sorted(pivs)
        assert all(v & p == (p if v & -v == p else 0) for v in w for p in pivs)


@pytest.mark.parametrize("n,c", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 2)])
def test_codim_enumeration(n, c):
    # the kernels of the c-dimensional dual spaces are the codimension-c
    # subspaces, each once; the points outside are the OR of parity masks
    masks = parity_masks(n)
    kernels = set()
    for dual, seen in flats(n, c):
        outside = 0
        for a in dual:
            outside |= masks[a]
        assert seen == outside
        kernel = frozenset(p for p in range(1, 1 << n)
                           if not outside >> (p - 1) & 1)
        assert all((a & p).bit_count() % 2 == 0
                   for a in dual for p in kernel)
        assert len(kernel) == (1 << (n - c)) - 1
        kernels.add(kernel)
    assert len(kernels) == gaussian_binomial(n, c)


def test_parity_masks_match_brute_force():
    for n in range(6):
        masks = parity_masks(n)
        assert len(masks) == 1 << n
        for a in range(1 << n):
            want = 0
            for p in range(1, 1 << n):
                if sum((a >> i) & (p >> i) & 1 for i in range(n)) % 2:
                    want |= 1 << (p - 1)
            assert masks[a] == want, (n, a)
    assert parity_masks(4) is parity_masks(4)  # built once per n


def test_parity_masks_complement_hyperplanes():
    # the points a functional does not see form the hyperplane ker(a)
    for w in subspaces(3, 2):
        a = next(a for a in range(1, 8)
                 if all((a & b).bit_count() % 2 == 0 for b in w))
        outside = parity_masks(3)[a]
        for p in range(1, 8):
            assert bool((outside >> (p - 1)) & 1) != (p in w)


@given(st.integers(0, 8), st.integers(0, 8))
def test_gaussian_binomial_symmetry(n, k):
    assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)


def naive_points(mask: int) -> list[int]:
    """The points of a bitset, one bit test per index."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def naive_bitset(points) -> int:
    """The bitset of a set of points, one shift per point."""
    mask = 0
    for p in points:
        mask |= 1 << (p - 1)
    return mask


@given(st.sets(st.integers(min_value=1, max_value=300)))
def test_points_and_bitsets_round_trip(points):
    mask = naive_bitset(points)
    assert bitset_of(points) == bitset_of(sorted(points)) == mask
    assert points_of(mask) == naive_points(mask) == sorted(points)


def test_points_and_bitsets_at_the_ends():
    assert points_of(0) == [] and bitset_of([]) == 0
    top = (1 << 20) - 1  # the last point of F_2^20
    assert points_of(1 << (top - 1)) == [top]
    assert bitset_of(iter([top, 1])) == (1 << (top - 1)) | 1

