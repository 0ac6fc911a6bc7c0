"""Borel-bi-invariant functions on GL(n, F_p) under convolution.

This is the concrete double-coset model of the Hecke algebra: the group
GL(n, F_p) decomposes into n! Bruhat cells B w B indexed by permutations
(B the invertible upper-triangular subgroup), the indicator functions of
the cells form a basis of the bi-invariant functions, and convolution

    (f * g)(x) = |B|^{-1} sum_y f(y) g(y^{-1} x)

makes the cell indicator of B the unit and the cell indicators sigma_m of
the simple transpositions satisfy the Hecke relations at q = p.  The
normalization by |B| (indicator unit rather than probability measures) is
what makes sigma_m^2 = (p-1) sigma_m + p come out exactly.

A bi-invariant function is stored as its exact Fraction coefficients on the
cell indicators.  Convolution is bilinear, so everything reduces to one
primitive, `cell_product`: it counts, for every x in the group, the products
y z = x with y in B w1 B and z in B w2 B.  The counting runs over base-p
integer ids of the matrices with numpy; `expand_in_cells` then checks that
the counts are constant on every Bruhat cell and vanish off the group, and
the coefficients are the per-cell counts divided once by |B|.

Everything is enumerated directly at desk scale: matrices are tuples of
tuples of residues, groups are explicit lists, and each Bruhat cell is built
once as U_w w B, with U_w the unipotent upper-triangular matrices whose free
entries sit at the inversions of w, so the whole table takes |GL| matrix
products.  A size guard rejects parameter pairs with n! |B|^2 > 10^6, an
upper bound on |GL| (a cell holds p^length(w) |B| <= |B|^2 matrices).  Only
prime fields are supported; prime powers would need extension-field
arithmetic without exercising anything new.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product as _cartesian
from math import factorial
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .hecke import HeckeElement, mul as hecke_mul
from .permutations import (
    Perm,
    adjacent_transposition,
    all_perms,
    format_perm,
    identity,
    inverse,
    is_perm,
    length,
)
from .report import CheckResult
from .scalars import sparse_sum

Matrix = tuple[tuple[int, ...], ...]

SIZE_GUARD = 10**6  # max n! |B|^2, an upper bound on |GL|
_CHUNK = 2**18  # matrix products per numpy batch in cell_product

__all__ = [
    "FqFunction",
    "enumerate_gl",
    "borel_subgroup",
    "general_linear_order",
    "borel_order",
    "check_size",
    "cell_product",
    "convolve",
    "unit_function",
    "cell_indicator",
    "sigma_element",
    "bruhat_table",
    "expand_in_cells",
    "structure_constants_check",
    "mat_mul",
    "perm_matrix",
]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_size(n: int, p: int):
    """Raise ValueError unless GL(n, F_p) is a supported, desk-scale group:
    n >= 1, p prime, and n! |B|^2 <= SIZE_GUARD."""
    if n < 1:
        raise ValueError(f"n = {n}: the matrix size must be at least 1")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime (prime fields only)")
    cost = factorial(n) * borel_order(n, p) ** 2
    if cost > SIZE_GUARD:
        raise ValueError(
            f"size guard exceeded: GL({n},{p}) has n! |B|^2 = {cost} > {SIZE_GUARD} "
            f"(n! |B|^2 bounds the group order)"
        )


# ---------------------------------------------------------------------------
# matrices over F_p


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt) for row in a
    )


def _det_mod(a: Matrix, p: int) -> int:
    n = len(a)
    m = [list(row) for row in a]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        inv = pow(m[col][col], p - 2, p)
        det = det * m[col][col] % p
        for r in range(col + 1, n):
            f = m[r][col] * inv % p
            if f:
                for c in range(col, n):
                    m[r][c] = (m[r][c] - f * m[col][c]) % p
    return det % p


def perm_matrix(w: Perm) -> Matrix:
    n = len(w)
    return tuple(
        tuple(1 if w[j] == i + 1 else 0 for j in range(n)) for i in range(n)
    )


def _digits(a: np.ndarray, base: int) -> np.ndarray:
    """Read the last axis of an integer array as base-`base` digits, most
    significant first.  Applied twice to (k, n, n) matrices (base p, then
    base p^n) it gives their row-major ids in [0, p^(n^2))."""
    return a @ (base ** np.arange(a.shape[-1], dtype=np.int64))[::-1]


# ---------------------------------------------------------------------------
# group enumeration


def general_linear_order(n: int, p: int) -> int:
    """|GL(n, p)| = prod_{k=0}^{n-1} (p^n - p^k)."""
    out = 1
    for k in range(n):
        out *= p**n - p**k
    return out


def borel_order(n: int, p: int) -> int:
    """|B| = (p-1)^n p^(n(n-1)/2)."""
    return (p - 1) ** n * p ** (n * (n - 1) // 2)


@lru_cache(maxsize=None)
def enumerate_gl(n: int, p: int) -> tuple[Matrix, ...]:
    """Every invertible n x n matrix over F_p exactly once; the count is
    asserted against the closed-form group order."""
    check_size(n, p)
    out = []
    for entries in _cartesian(range(p), repeat=n * n):
        m = tuple(entries[i * n : (i + 1) * n] for i in range(n))
        if _det_mod(m, p) != 0:
            out.append(m)
    expected = general_linear_order(n, p)
    if len(out) != expected:
        raise RuntimeError(
            f"enumeration of GL({n},{p}) found {len(out)} elements, expected {expected}"
        )
    return tuple(out)


def _upper_triangular(n: int, p: int, diagonals, free) -> list[Matrix]:
    """Every matrix with one of the given diagonals, any residue at the
    positions `free` above the diagonal, and zero elsewhere."""
    out = []
    for diag in diagonals:
        for values in _cartesian(range(p), repeat=len(free)):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = diag[i]
            for (i, j), v in zip(free, values):
                m[i][j] = v
            out.append(tuple(tuple(row) for row in m))
    return out


@lru_cache(maxsize=None)
def borel_subgroup(n: int, p: int) -> tuple[Matrix, ...]:
    """All invertible upper-triangular matrices, enumerated directly from
    their free coordinates."""
    check_size(n, p)
    above = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = _upper_triangular(n, p, _cartesian(range(1, p), repeat=n), above)
    if len(out) != borel_order(n, p):
        raise RuntimeError("Borel enumeration does not match the closed formula")
    return tuple(out)


@lru_cache(maxsize=None)
def bruhat_table(n: int, p: int) -> dict[Perm, frozenset]:
    """The Bruhat cells B w B, one per permutation, each enumerated once as
    U_w (perm matrix of w) B.  U_w is the unipotent upper-triangular group
    with free entries at the (i, j), i < j, with w^-1(i) > w^-1(j), so the
    cell takes p^length(w) |B| products and the table |GL| in all.  Asserts
    that the cells are disjoint, exhaust the group, and have sizes
    p^length(w) |B|, which also shows that no product repeats."""
    borel = borel_subgroup(n, p)
    cells: dict[Perm, frozenset] = {}
    seen: set[Matrix] = set()
    for w in all_perms(n):
        winv = inverse(w)
        free = [(i, j) for i in range(n) for j in range(i + 1, n) if winv[i] > winv[j]]
        pw = perm_matrix(w)
        left = [mat_mul(u, pw, p) for u in _upper_triangular(n, p, [(1,) * n], free)]
        cell = {mat_mul(m, b, p) for m in left for b in borel}
        expected = p ** length(w) * len(borel)
        if len(cell) != expected:
            raise RuntimeError(
                f"cell of {format_perm(w)} has size {len(cell)}, expected {expected}"
            )
        if cell & seen:
            raise RuntimeError(f"cell of {format_perm(w)} overlaps another cell")
        seen |= cell
        cells[w] = frozenset(cell)
    if len(seen) != general_linear_order(n, p):
        raise RuntimeError("Bruhat cells do not exhaust the group")
    return cells


@lru_cache(maxsize=None)
def _cell_arrays(n: int, p: int):
    """Each Bruhat cell as a (k, n, n) integer array with the base-p ids of
    its matrices, plus a mask over all p^(n^2) ids marking the singular
    matrices."""
    cells = {}
    singular = np.ones(p ** (n * n), dtype=bool)
    for w, cell in bruhat_table(n, p).items():
        mats = np.array(list(cell), dtype=np.int64).reshape(-1, n, n)
        ids = _digits(_digits(mats, p), p**n)
        singular[ids] = False
        cells[w] = (mats, ids)
    return cells, singular


# ---------------------------------------------------------------------------
# bi-invariant functions


class FqFunction:
    """A Borel-bi-invariant function on GL(n, F_p), stored as its exact
    coefficients on the Bruhat-cell indicators, keyed by permutation."""

    __slots__ = ("n", "p", "values")

    def __init__(self, n: int, p: int, values: Mapping[Perm, Fraction] = ()):
        self.n = n
        self.p = p
        self.values: dict[Perm, Fraction] = {
            w: Fraction(v) for w, v in sparse_sum(values).items()
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqFunction)
            and (self.n, self.p) == (other.n, other.p)
            and self.values == other.values
        )

    def __add__(self, other: "FqFunction") -> "FqFunction":
        self._check(other)
        return FqFunction(self.n, self.p, chain(self.values.items(), other.values.items()))

    def scale(self, c) -> "FqFunction":
        return FqFunction(self.n, self.p, {w: v * c for w, v in self.values.items()})

    def _check(self, other: "FqFunction"):
        if (self.n, self.p) != (other.n, other.p):
            raise ValueError(
                f"mismatched groups: GL({self.n},{self.p}) vs GL({other.n},{other.p})"
            )

    def __repr__(self):
        return f"FqFunction<GL({self.n},{self.p}), {len(self.values)} cells>"


def expand_in_cells(counts: np.ndarray, n: int, p: int) -> dict[Perm, int]:
    """The per-cell values of a vector indexed by the base-p ids of all
    n x n matrices; raises ValueError if the vector is not constant on some
    Bruhat cell or is nonzero on a singular matrix."""
    cells, singular = _cell_arrays(n, p)
    if counts[singular].any():
        raise ValueError("function supported outside the enumerated group")
    coeffs: dict[Perm, int] = {}
    for w, (_, ids) in cells.items():
        vals = counts[ids]
        if (vals != vals[0]).any():
            raise ValueError(f"function is not constant on the cell of {format_perm(w)}")
        if vals[0]:
            coeffs[w] = int(vals[0])
    return coeffs


@lru_cache(maxsize=None)
def cell_product(w1: Perm, w2: Perm, n: int, p: int) -> Mapping[Perm, Fraction]:
    """Cell coefficients of the convolution of the indicators of B w1 B and
    B w2 B: every product y z is counted at its id, the counts are expanded
    in cells, and the result is divided by |B|.

    Row i of y z is (row i of y) z, so each z in B w2 B first gets a table of
    the ids of r z for all p^n row vectors r; the id of y z is then a sum of
    n table lookups, one per row of y."""
    cells, singular = _cell_arrays(n, p)
    y, z = cells[w1][0], cells[w2][0]
    vectors = np.array(list(_cartesian(range(p), repeat=n)), dtype=np.int64)
    row_ids = _digits((vectors @ z) % p, p)  # (|z|, p^n)
    y_rows = _digits(y, p)  # (|y|, n): y's rows as indices into the tables
    weights = (p ** (n * np.arange(n, dtype=np.int64)))[::-1]
    counts = np.zeros(singular.size, dtype=np.int64)
    step = max(1, _CHUNK // len(z))
    for lo in range(0, len(y), step):
        ids = sum(weights[i] * row_ids[:, y_rows[lo : lo + step, i]] for i in range(n))
        counts += np.bincount(ids.ravel(), minlength=counts.size)
    norm = borel_order(n, p)
    return MappingProxyType(
        {w: Fraction(c, norm) for w, c in expand_in_cells(counts, n, p).items()}
    )


def convolve(f: FqFunction, g: FqFunction) -> FqFunction:
    """(f * g)(x) = |B|^{-1} sum_y f(y) g(y^{-1} x), expanded bilinearly
    over the products of cell indicators."""
    f._check(g)
    products = (
        (w, a * b * c)
        for w1, a in f.values.items()
        for w2, b in g.values.items()
        for w, c in cell_product(w1, w2, f.n, f.p).items()
    )
    return FqFunction(f.n, f.p, products)


def cell_indicator(w: Perm, n: int, p: int) -> FqFunction:
    if not (is_perm(w) and len(w) == n):
        raise ValueError(f"{w!r} is not a permutation of rank {n}")
    return FqFunction(n, p, {w: Fraction(1)})


def unit_function(n: int, p: int) -> FqFunction:
    """The indicator of B, the unit of the convolution algebra."""
    return cell_indicator(identity(n), n, p)


def sigma_element(m: int, n: int, p: int) -> FqFunction:
    """The generator sigma_m: the indicator of the cell of the simple
    transposition s_m."""
    return cell_indicator(adjacent_transposition(m, n), n, p)


# ---------------------------------------------------------------------------
# structure constants against the abstract Hecke algebra


def _hecke_coeffs_at(w1: Perm, w2: Perm, p: int) -> dict[Perm, Fraction]:
    prod = hecke_mul(HeckeElement.basis(w1), HeckeElement.basis(w2))
    return {w: c(Fraction(p)) for w, c in prod.terms.items()}


def structure_constants_check(n: int, p: int) -> list[CheckResult]:
    """Expand every product of cell indicators in the cell basis and
    compare, coefficient by coefficient, with the abstract T-basis product
    evaluated at q = p."""
    check_size(n, p)
    results = []
    perms = sorted(all_perms(n))
    for w1 in perms:
        for w2 in perms:
            got = cell_product(w1, w2, n, p)
            expected = _hecke_coeffs_at(w1, w2, p)
            name = f"structure.gl({n},{p}).{format_perm(w1)}*{format_perm(w2)}"
            if got == expected:
                results.append(CheckResult(name, True))
            else:
                results.append(
                    CheckResult(
                        name,
                        False,
                        f"cells gave {_fmt_coeffs(got)}, T-basis gave {_fmt_coeffs(expected)}",
                    )
                )
    return results


def _fmt_coeffs(coeffs: Mapping[Perm, Fraction]) -> str:
    return (
        "{"
        + ", ".join(f"{format_perm(w)}: {coeffs[w]}" for w in sorted(coeffs))
        + "}"
    )
