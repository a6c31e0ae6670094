"""Exact SOS decompositions: LDL^T, Gram bookkeeping, rounding and caps."""
import random
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

from cylcert.errors import CapExceededError, SosStalledError
from cylcert.poly import BlockShape, BlockedPoly
from cylcert.sos import (
    default_gram_basis,
    gram_groups,
    project_affine_exact,
    rational_ldlt,
    sos_decompose,
)


# --- rational LDL^T --------------------------------------------------------

def test_ldlt_simple_psd():
    perm, diag, lower = rational_ldlt([[F(4), F(2)], [F(2), F(2)]])
    assert all(d >= 0 for d in diag)
    # reconstruct P G P^T = L D L^T entry by entry
    g = [[F(4), F(2)], [F(2), F(2)]]
    for i in range(2):
        for j in range(2):
            got = sum(lower[i][k] * diag[k] * lower[j][k] for k in range(2))
            assert got == g[perm[i]][perm[j]]


def test_ldlt_rejects_indefinite():
    assert rational_ldlt([[F(1), F(2)], [F(2), F(1)]]) is None
    assert rational_ldlt([[F(0), F(1)], [F(1), F(0)]]) is None
    assert rational_ldlt([[F(-1)]]) is None


def test_ldlt_handles_zero_rows():
    perm, diag, lower = rational_ldlt([[F(1), F(0)], [F(0), F(0)]])
    assert sorted(diag) == [F(0), F(1)]


def test_ldlt_random_gramians_factor_exactly():
    rng = random.Random(9)
    for _ in range(25):
        dim = rng.randrange(2, 5)
        rows = rng.randrange(1, dim + 2)
        b = [
            [F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(dim)]
            for _ in range(rows)
        ]
        g = [
            [sum(b[k][i] * b[k][j] for k in range(rows)) for j in range(dim)]
            for i in range(dim)
        ]
        fact = rational_ldlt(g)
        assert fact is not None
        perm, diag, lower = fact
        assert all(d >= 0 for d in diag)
        for i in range(dim):
            for j in range(dim):
                got = sum(lower[i][k] * diag[k] * lower[j][k] for k in range(dim))
                assert got == g[perm[i]][perm[j]]


# --- Gram bookkeeping ------------------------------------------------------

def test_gram_groups_partition_all_pairs():
    basis = [(0, 0), (1, 0), (0, 1)]
    groups = gram_groups(basis)
    npairs = sum(len(v) for v in groups.values())
    assert npairs == 6  # upper triangle of a 3x3
    assert groups[(1, 1)] == [(1, 2)]
    assert (0, 0) in groups and (2, 0) in groups


def test_exact_affine_projection_enforces_every_coefficient():
    rng = random.Random(2)
    basis = [(0, 0), (1, 0), (0, 1), (1, 1)]
    groups = gram_groups(basis)
    for _ in range(20):
        gram = [
            [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(4)]
            for _ in range(4)
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                gram[j][i] = gram[i][j]
        coeffs = {
            m: F(rng.randrange(-5, 6), rng.randrange(1, 4)) for m in groups
        }
        project_affine_exact(gram, groups, coeffs)
        for mono, pairs in groups.items():
            have = sum(gram[i][j] * (1 if i == j else 2) for i, j in pairs)
            assert have == coeffs[mono]
        # still symmetric
        for i in range(4):
            for j in range(4):
                assert gram[i][j] == gram[j][i]


# --- decomposition round trips --------------------------------------------

def _random_interior_sos(rng, shape, deg=2):
    """Sum of random squares plus a small multiple of every basis square."""
    width = shape.width
    monos = [e for e in iproduct(range(deg + 1), repeat=width) if sum(e) <= deg]
    p = BlockedPoly.zero(shape)
    for _ in range(len(monos)):
        terms = {}
        for e in monos:
            if rng.random() < 0.6:
                terms[e] = F(rng.randrange(-4, 5), rng.randrange(1, 4))
        if terms:
            q = BlockedPoly(shape, terms)
            p = p + q * q
    for e in monos:
        p = p + (BlockedPoly(shape, {e: F(1)}) ** 2).scale(F(1, 8))
    return p


def test_sos_round_trips_are_exact():
    rng = random.Random(101)
    for trial in range(100):
        shape = BlockShape(rng.randrange(1, 3), rng.randrange(0, 2))
        p = _random_interior_sos(rng, shape)
        deco = sos_decompose(p)
        assert deco.verify(p), f"trial {trial} failed to verify"
        assert all(w > 0 for w in deco.weights)


def test_sos_of_a_binary_quartic_form():
    shape = BlockShape(0, 1, 0, ("Z",))
    p = BlockedPoly(shape, {(4, 0): F(1), (0, 4): F(1)})  # y^4 + z^4
    deco = sos_decompose(p)
    assert deco.verify(p)
    # the homogeneous filter keeps only degree-2 monomials
    assert all(sum(e) == 2 for e in deco.basis)


def test_sos_of_a_positive_quadratic_form_is_the_coefficient_matrix():
    shape = BlockShape(0, 2, 0, ("Z",))
    p = BlockedPoly(shape, {(2, 0, 0): F(2), (0, 2, 0): F(3), (0, 0, 2): F(1),
                            (1, 1, 0): F(1)})
    deco = sos_decompose(p)
    assert deco.verify(p)


def test_verification_catches_tampering():
    shape = BlockShape(1, 0)
    p = BlockedPoly(shape, {(0,): F(1), (1,): F(1), (2,): F(1)})
    deco = sos_decompose(p)
    assert deco.verify(p)
    assert not deco.verify(p + BlockedPoly.constant(shape, F(1, 10**9)))


def test_motzkin_form_stalls():
    """Nonnegative but not SOS: the numeric stage must give up loudly."""
    shape = BlockShape(2, 0)
    x = BlockedPoly.variable(shape, 0)
    y = BlockedPoly.variable(shape, 1)
    motzkin = (
        (x ** 4) * (y ** 2)
        + (x ** 2) * (y ** 4)
        - ((x ** 2) * (y ** 2)).scale(F(3))
        + BlockedPoly.constant(shape, 1)
    )
    with pytest.raises(SosStalledError):
        sos_decompose(motzkin)


def test_zero_polynomial_decomposes_trivially():
    shape = BlockShape(1, 0)
    deco = sos_decompose(BlockedPoly.zero(shape))
    assert deco.weights == ()
    assert deco.as_poly() == BlockedPoly.zero(shape)


def test_unproducible_monomial_is_rejected_up_front():
    shape = BlockShape(1, 0)
    p = BlockedPoly(shape, {(3,): F(1), (0,): F(1)})  # odd degree
    with pytest.raises(ValueError):
        sos_decompose(p)


def test_basis_cap_is_enforced():
    shape = BlockShape(4, 0)
    p = BlockedPoly.constant(shape, F(1))
    for i in range(4):
        v = BlockedPoly.variable(shape, i)
        p = p + (v ** 4)
    with pytest.raises(CapExceededError):
        sos_decompose(p, basis_cap=5)


def test_default_basis_respects_homogeneity():
    shape = BlockShape(2, 0)
    p = BlockedPoly(shape, {(4, 0): F(1), (2, 2): F(1), (0, 4): F(1)})
    basis = default_gram_basis(p)
    assert all(sum(e) == 2 for e in basis)

