"""Core GF(2) linear algebra."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmx.gf2core import (
    enumerate_subspaces,
    gaussian_binomial,
    parity_masks,
    rank_ints,
    reduce_against,
    rref_ints,
)

vectors4 = st.integers(min_value=0, max_value=15)


def _span(vs):
    """Every sum of a subset of vs, by brute force."""
    out = {0}
    for v in vs:
        out |= {x ^ v for x in out}
    return out


@given(st.lists(vectors4, max_size=8))
def test_rank_matches_rref(vs):
    basis, pivots = rref_ints(vs)
    assert rank_ints(vs) == len(basis)
    assert len(basis) == len(set(pivots))
    # RREF: each pivot bit appears in exactly its own row
    for row, piv in zip(basis, pivots):
        assert row & -row == 1 << piv
        for other in basis:
            if other is not row:
                assert not (other >> piv) & 1


@given(st.lists(vectors4, max_size=8), vectors4)
def test_reduce_against_membership(vs, v):
    basis, pivots = rref_ints(vs)
    assert (reduce_against(basis, pivots, v) == 0) == (v in _span(vs))


@pytest.mark.parametrize("n,k", [(n, k) for n in range(5) for k in range(n + 1)])
def test_subspace_enumeration_count(n, k):
    subs = list(enumerate_subspaces(n, k))
    assert len(subs) == gaussian_binomial(n, k)
    # pairwise distinct element sets, each the span of the basis
    members = [frozenset(v for v in range(1 << n) if w.contains_int(v))
               for w in subs]
    assert len(set(members)) == len(subs)
    for w, elems in zip(subs, members):
        assert w.dim == k
        assert elems == _span(w.basis)
        assert len(elems) == 1 << k


@pytest.mark.parametrize("n,c", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 2)])
def test_codim_enumeration(n, c):
    # the kernels of the c-dimensional dual spaces are the codimension-c
    # subspaces, each once; the points outside are the OR of parity masks
    masks = parity_masks(n)
    kernels = set()
    for dual in enumerate_subspaces(n, c):
        outside = 0
        for a in dual.basis:
            outside |= masks[a]
        kernel = frozenset(p for p in range(1, 1 << n)
                           if not outside >> (p - 1) & 1)
        assert all((a & p).bit_count() % 2 == 0
                   for a in dual.basis for p in kernel)
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
    for w in enumerate_subspaces(3, 2):
        a = next(a for a in range(1, 8)
                 if all((a & b).bit_count() % 2 == 0 for b in w.basis))
        outside = parity_masks(3)[a]
        for p in range(1, 8):
            assert bool((outside >> (p - 1)) & 1) != w.contains_int(p)


@given(st.integers(0, 8), st.integers(0, 8))
def test_gaussian_binomial_symmetry(n, k):
    assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)
