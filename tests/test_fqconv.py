"""Bruhat cells and the convolution realization of the Hecke relations."""

import time
from collections import Counter
from fractions import Fraction as F
from itertools import product as cartesian
from random import Random

import numpy as np
import pytest

from hecketrace.fqconv import (
    borel_order,
    borel_subgroup,
    bruhat_table,
    cell_indicator,
    cell_product,
    check_size,
    convolve,
    enumerate_gl,
    expand_in_cells,
    general_linear_order,
    mat_mul,
    perm_matrix,
    sigma_element,
    structure_constants_check,
    unit_function,
)
from hecketrace.permutations import all_perms, length


# ---------------------------------------------------------------------------
# enumeration


def test_gl22_brute_force():
    # independent oracle: 2x2 determinant ad - bc over F_2
    invertible = [
        ((a, b), (c, d))
        for a, b, c, d in cartesian(range(2), repeat=4)
        if (a * d - b * c) % 2 != 0
    ]
    assert len(invertible) == 6
    assert set(enumerate_gl(2, 2)) == set(invertible)


@pytest.mark.parametrize("n,p,count", [(2, 2, 6), (2, 3, 48), (3, 2, 168)])
def test_gl_counts(n, p, count):
    assert general_linear_order(n, p) == count
    assert len(enumerate_gl(n, p)) == count


@pytest.mark.parametrize("n,p,count", [(2, 2, 2), (2, 3, 12), (3, 2, 8)])
def test_borel_counts(n, p, count):
    assert borel_order(n, p) == count
    assert len(borel_subgroup(n, p)) == count


def test_borel_is_upper_triangular():
    for b in borel_subgroup(3, 2):
        for i in range(3):
            assert b[i][i] != 0
            for j in range(i):
                assert b[i][j] == 0


def test_guards():
    with pytest.raises(ValueError):
        enumerate_gl(2, 4)  # composite
    with pytest.raises(ValueError):
        enumerate_gl(3, 41)  # 41^9 blows the size guard
    with pytest.raises(ValueError):
        enumerate_gl(0, 2)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (2, 5), (3, 2), (2, 7), (3, 3), (4, 2)])
def test_size_guard_admits(n, p):
    check_size(n, p)


@pytest.mark.parametrize("n,p", [(3, 5), (2, 53), (4, 3), (5, 2)])
def test_size_guard_refuses_by_bruhat_products(n, p):
    # n! |B|^2, the bound on the group order: 3.8e8 at (3,5), 4.1e10 at (2,53)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match=r"n! \|B\|\^2"):
        structure_constants_check(n, p)
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# Bruhat cells


def test_bruhat_cells_22():
    table = bruhat_table(2, 2)
    assert sorted(len(c) for c in table.values()) == [2, 4]


def test_bruhat_cells_32():
    table = bruhat_table(3, 2)
    assert len(table) == 6
    assert sorted(len(c) for c in table.values()) == [8, 16, 16, 32, 32, 64]
    assert sum(len(c) for c in table.values()) == general_linear_order(3, 2)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_cell_size_law(n, p):
    table = bruhat_table(n, p)
    b = borel_order(n, p)
    for w, cell in table.items():
        assert len(cell) == p ** length(w) * b


def _cells_by_borel_products(n, p):
    """Oracle for bruhat_table: each cell B w B as every product b1 w b2."""
    borel = borel_subgroup(n, p)
    cells = {}
    for w in all_perms(n):
        left = [mat_mul(b, perm_matrix(w), p) for b in borel]
        cells[w] = frozenset(mat_mul(m, b, p) for m in left for b in borel)
    return cells


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (2, 5)])
def test_bruhat_table_equals_borel_products(n, p):
    assert bruhat_table(n, p) == _cells_by_borel_products(n, p)


def test_perm_matrix_convention():
    # rows are images: P e_j = e_{w(j)}
    assert perm_matrix((2, 1)) == ((0, 1), (1, 0))
    assert perm_matrix((2, 3, 1)) == ((0, 0, 1), (1, 0, 0), (0, 1, 0))


# ---------------------------------------------------------------------------
# convolution


def test_unit_is_idempotent():
    e = unit_function(2, 2)
    assert convolve(e, e) == e


def test_unit_is_neutral_on_biinvariant_functions():
    f = cell_indicator((2, 1), 2, 3).scale(F(3, 7)) + unit_function(2, 3)
    assert convolve(unit_function(2, 3), f) == f
    assert convolve(f, unit_function(2, 3)) == f


def test_sigma_squared_22():
    s1 = sigma_element(1, 2, 2)
    assert s1.values == {(2, 1): F(1)}
    assert len(bruhat_table(2, 2)[(2, 1)]) == 4  # q * |B| = 2 * 2
    got = convolve(s1, s1)
    want = s1.scale(1) + unit_function(2, 2).scale(2)  # (q-1) sigma + q at q=2
    assert got == want


def test_braid_relation_32():
    s1 = sigma_element(1, 3, 2)
    s2 = sigma_element(2, 3, 2)
    assert convolve(convolve(s1, s2), s1) == convolve(convolve(s2, s1), s2)


def _ids(mats, p):
    """Base-p ids of matrices, row-major with the first entry most
    significant (p < 10 here)."""
    return [int("".join(str(x) for row in m for x in row), p) for m in mats]


def test_biinvariance_closed_under_convolution():
    # count the products of two random cells of GL(3,2) matrix by matrix:
    # the count vector must pass the constancy check and give cell_product
    rng = Random(7)
    perms = all_perms(3)
    table = bruhat_table(3, 2)
    for _ in range(5):
        w1, w2 = rng.choice(perms), rng.choice(perms)
        hits = Counter(_ids([mat_mul(y, z, 2) for y in table[w1] for z in table[w2]], 2))
        counts = np.zeros(2**9, dtype=np.int64)
        counts[list(hits)] = list(hits.values())
        coeffs = expand_in_cells(counts, 3, 2)
        b = borel_order(3, 2)
        assert {w: F(c, b) for w, c in coeffs.items()} == cell_product(w1, w2, 3, 2)


def test_convolution_associativity_random_cells():
    rng = Random(11)
    perms = all_perms(3)
    for _ in range(5):
        f, g, h = (cell_indicator(rng.choice(perms), 3, 2) for _ in range(3))
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_group_mismatch_rejected():
    with pytest.raises(ValueError):
        convolve(unit_function(2, 2), unit_function(2, 3))


def test_cell_indicator_rejects_wrong_rank():
    with pytest.raises(ValueError):
        cell_indicator((2, 1), 3, 2)


def test_expand_in_cells_detects_non_invariance():
    table = bruhat_table(2, 2)
    counts = np.zeros(2**4, dtype=np.int64)
    counts[_ids(table[(2, 1)], 2)] = 3
    assert expand_in_cells(counts, 2, 2) == {(2, 1): 3}
    counts[_ids([next(iter(table[(1, 2)]))], 2)] = 1  # one matrix of B only
    with pytest.raises(ValueError, match="not constant"):
        expand_in_cells(counts, 2, 2)


def test_expand_in_cells_detects_support_outside_group():
    counts = np.zeros(2**4, dtype=np.int64)
    counts[_ids([((1, 1), (1, 1))], 2)] = 1  # singular
    with pytest.raises(ValueError, match="outside"):
        expand_in_cells(counts, 2, 2)


# ---------------------------------------------------------------------------
# structure constants against the T-basis


def test_structure_constants_22_quadratic_row():
    results = {r.name: r for r in structure_constants_check(2, 2)}
    assert all(r.passed for r in results.values())
    # and the actual coefficients of sigma_1 * sigma_1
    got = convolve(sigma_element(1, 2, 2), sigma_element(1, 2, 2)).values
    assert got == {(1, 2): F(2), (2, 1): F(1)}


def test_structure_constants_identity_row():
    e = (1, 2, 3)
    table = bruhat_table(3, 2)
    for w in table:
        prod = convolve(cell_indicator(e, 3, 2), cell_indicator(w, 3, 2))
        assert prod.values == {w: F(1)}


def test_structure_constants_length_additive_product():
    got = convolve(sigma_element(1, 3, 2), sigma_element(2, 3, 2)).values
    assert got == {(2, 3, 1): F(1)}  # the single cell of s1 s2


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_structure_constants_full(n, p):
    results = structure_constants_check(n, p)
    assert len(results) == len(all_perms(n)) ** 2
    bad = [r.line() for r in results if not r.passed]
    assert not bad, bad


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3)])
def test_brute_force_oracle_agrees_with_cell_product(n, p):
    # independent oracle: (f * g)(x) = |B|^{-1} sum over pairs y z = x,
    # accumulated matrix by matrix as exact Fractions
    table = bruhat_table(n, p)
    norm = F(1, borel_order(n, p))
    for w1, w2 in cartesian(table, repeat=2):
        values = {}
        for y in table[w1]:
            for z in table[w2]:
                x = mat_mul(y, z, p)
                values[x] = values.get(x, F(0)) + norm
        coeffs = {}
        for w, cell in table.items():
            cell_values = {values.pop(x, F(0)) for x in cell}
            assert len(cell_values) == 1, (w1, w2, w)
            if cell_values != {0}:
                coeffs[w] = cell_values.pop()
        assert not values  # nothing outside the group
        assert cell_product(w1, w2, n, p) == coeffs
