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

A bi-invariant function is stored as its exact coefficients on the cell
indicators, ints while they are integral.  Convolution is bilinear, so
everything reduces to one primitive, `cell_product`, a lookup in one
structure-constant table of integers per group.  B w1 B is the disjoint
union of the cosets u w1 B, u in U_w1, so the coefficient of the cell of
w in (B w1 B) * (B w2 B) is the number of u with P(w1)^-1 u P(w) in
B w2 B (P the permutation matrix), a cell that `bruhat_cell` names by
elimination: n! [n]_p! eliminations in all, and no group enumerated.
Every product must satisfy the counting identity
sum_w c_w p^length(w) = p^(length(w1) + length(w2)) (its mass over |B|).

The groups themselves are enumerated directly at desk scale, as explicit
lists of tuples of tuples of residues, and each Bruhat cell is built once
as U_w w B, U_w the unipotent upper-triangular matrices with free entries
at the inversions of w.  A size guard rejects parameter pairs with
n! |B|^2 > 10^6, an upper bound on |GL| (a cell holds p^length(w) |B| <=
|B|^2 matrices).  Only prime fields are supported; prime powers would need
extension-field arithmetic without exercising anything new.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from itertools import chain, product as _cartesian, repeat
from math import isqrt
from operator import mul
from types import MappingProxyType
from typing import Mapping

from .hecke import HeckeElement, _of_rank, left_multiples
from .permutations import (
    Perm,
    adjacent_transposition,
    all_perms,
    format_perm,
    identity,
    is_perm,
    length,
)
from .report import CheckResult
from .scalars import CrossCheckError, _exact, sparse_sum

Matrix = tuple[tuple[int, ...], ...]

SIZE_GUARD = 10**6  # max n! |B|^2, an upper bound on |GL|

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
    "bruhat_cell",
    "expand_in_cells",
    "structure_constants_check",
    "mat_mul",
    "perm_matrix",
]


@cache  # keeps the groups admitted: a refused one raises, which is not kept
def check_size(n: int, p: int):
    """Raise ValueError unless GL(n, F_p) is a supported, desk-scale group:
    n >= 1, p prime, and n! |B|^2 = n! (p-1)^(2n) p^(n(n-1)) <= SIZE_GUARD.
    The bound is tested before the sqrt(p) trial division, multiplying its
    factors in only until the product passes SIZE_GUARD^2."""
    if n < 1:
        raise ValueError(f"n = {n}: the matrix size must be at least 1")
    if p < 2:
        raise ValueError(f"p = {p} is not prime (prime fields only)")
    cost = 1
    for factor in chain(range(2, n + 1), repeat(p - 1, 2 * n), repeat(p, n * (n - 1))):
        cost *= factor
        if cost > SIZE_GUARD**2:
            break
    if cost > SIZE_GUARD:
        shown = ">" if cost > SIZE_GUARD**2 else f"= {cost} >"
        raise ValueError(
            f"size guard exceeded: GL({n},{p}) has n! |B|^2 {shown} {SIZE_GUARD} "
            f"(n! |B|^2 bounds the group order)"
        )
    if any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"p = {p} is not prime (prime fields only)")


# ---------------------------------------------------------------------------
# matrices over F_p


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    return _mul_columns(a, tuple(zip(*b)), p)


def _mul_columns(a: Matrix, columns: Matrix, p: int) -> Matrix:
    """a b for b given by its columns."""
    return tuple(tuple(sum(map(mul, row, col)) % p for col in columns) for row in a)


def perm_matrix(w: Perm) -> Matrix:
    n = len(w)
    return tuple(
        tuple(1 if w[j] == i + 1 else 0 for j in range(n)) for i in range(n)
    )


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


@cache
def enumerate_gl(n: int, p: int) -> tuple[Matrix, ...]:
    """Every invertible n x n matrix over F_p exactly once, in lexicographic
    order of the row-major entries; the count is asserted against the
    closed-form group order.  Each row is any row outside the span of the
    rows above it, and the span grows by one row at a time."""
    check_size(n, p)
    rows = list(_cartesian(range(p), repeat=n))
    out: list[Matrix] = [()]
    for _ in range(n):
        grown = []
        for m in out:
            span = {rows[0]}
            for r in m:
                span = {
                    tuple((a + c * b) % p for a, b in zip(v, r)) for v in span for c in range(p)
                }
            grown += [m + (r,) for r in rows if r not in span]
        out = grown
    expected = general_linear_order(n, p)
    if len(out) != expected:
        raise CrossCheckError(
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


@cache
def borel_subgroup(n: int, p: int) -> tuple[Matrix, ...]:
    """All invertible upper-triangular matrices, enumerated directly from
    their free coordinates."""
    check_size(n, p)
    above = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = _upper_triangular(n, p, _cartesian(range(1, p), repeat=n), above)
    if len(out) != borel_order(n, p):
        raise CrossCheckError("Borel enumeration does not match the closed formula")
    return tuple(out)


def _unipotent(w: Perm, p: int) -> list[Matrix]:
    """U_w: the unipotent upper-triangular matrices with free entries at the
    (w(b), w(a)) for the inversions a < b, w(a) > w(b) of w.  It is a group of
    order p^length(w), and B w B is the disjoint union of its cosets u w B."""
    n = len(w)
    free = [(w[b] - 1, w[a] - 1) for a in range(n) for b in range(a + 1, n) if w[a] > w[b]]
    return _upper_triangular(n, p, [(1,) * n], free)


@cache
def bruhat_table(n: int, p: int) -> dict[Perm, frozenset]:
    """The Bruhat cells B w B, one per permutation, each enumerated once as
    U_w (perm matrix of w) B, so the table takes |GL| products.  u P(w) is u
    with its columns permuted, column j being column w(j) of u, and each b of
    B is transposed once.  Asserts that the cells are disjoint, exhaust the
    group, and have sizes p^length(w) |B|, which also shows that no product
    repeats."""
    borel = borel_subgroup(n, p)
    columns = [tuple(zip(*b)) for b in borel]
    cells: dict[Perm, frozenset] = {}
    seen: set[Matrix] = set()
    for w in all_perms(n):
        left = [tuple(tuple(row[i - 1] for i in w) for row in u) for u in _unipotent(w, p)]
        cell = {_mul_columns(m, bt, p) for m in left for bt in columns}
        expected = p ** length(w) * len(borel)
        if len(cell) != expected:
            raise CrossCheckError(
                f"cell of {format_perm(w)} has size {len(cell)}, expected {expected}"
            )
        if cell & seen:
            raise CrossCheckError(f"cell of {format_perm(w)} overlaps another cell")
        seen |= cell
        cells[w] = frozenset(cell)
    if len(seen) != general_linear_order(n, p):
        raise CrossCheckError("Bruhat cells do not exhaust the group")
    return cells


def bruhat_cell(g: Matrix, p: int) -> Perm | None:
    """The permutation w with g in B w B, or None if g is singular, found
    column by column: the pivot is the lowest unused row with a nonzero
    entry, row operations from below (b g) clear the column above it, and
    column operations from the left (g b) clear the pivot row to its right
    (a column is not read again, so only entries right of it are updated).

    >>> all(bruhat_cell(perm_matrix(w), 3) == w for w in all_perms(3))
    True
    >>> bruhat_cell(((0, 1), (1, 1)), 2), bruhat_cell(((1, 1), (1, 1)), 2)
    ((2, 1), None)
    """
    n = len(g)
    m = [list(row) for row in g]
    w = []
    for j in range(n):
        for i in range(n - 1, -1, -1):
            if m[i][j] and i + 1 not in w:
                break
        else:
            return None
        pivot = m[i]
        for row in m[:i]:
            if row[j]:
                c = row[j] * pow(pivot[j], -1, p) % p
                for k in range(j + 1, n):
                    row[k] = (row[k] - c * pivot[k]) % p
        pivot[j + 1 :] = [0] * (n - j - 1)
        w.append(i + 1)
    return tuple(w)


@cache
def _structure_table(n: int, p: int) -> dict[tuple[Perm, Perm], Counter]:
    """counts[w1, w2][w] = the coefficient of the cell of w in the product of
    the cells of w1 and w2: the number of u in U_w1 (a group, so u stands for
    u^-1) with P(w1)^-1 u P(w), entry (i, j) = u[w1(i)][w(j)], in B w2 B.
    Raises CrossCheckError at a product that breaks the counting identity."""
    perms = all_perms(n)
    table = defaultdict(Counter)
    for w1 in perms:
        for u in _unipotent(w1, p):
            rows = [u[i - 1] for i in w1]
            for w in perms:
                w2 = bruhat_cell(tuple(tuple(row[j - 1] for j in w) for row in rows), p)
                table[w1, w2][w] += 1
    for w1, w2 in _cartesian(perms, repeat=2):
        mass = sum(c * p ** length(w) for w, c in table.get((w1, w2), {}).items())
        if mass != p ** (length(w1) + length(w2)):
            raise CrossCheckError(
                f"GL({n},{p}) {format_perm(w1)}*{format_perm(w2)} breaks the counting "
                f"identity: sum_w c_w p^length(w) = {mass}, not p^(l(w1) + l(w2))"
            )
    return table


# ---------------------------------------------------------------------------
# bi-invariant functions


class FqFunction:
    """A Borel-bi-invariant function on GL(n, F_p), stored as its exact
    coefficients on the Bruhat-cell indicators, keyed by rank-n permutation.
    An int or Fraction coefficient is stored as given, as in `QPoly`."""

    __slots__ = ("n", "p", "values")

    def __init__(self, n: int, p: int, values: Mapping[Perm, Fraction | int] = ()):
        self.n = n
        self.p = p
        self.values: dict[Perm, Fraction | int] = {
            w: _exact(v) for w, v in sparse_sum(_of_rank(n, values)).items()
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


def expand_in_cells(values: Mapping[Matrix, object], n: int, p: int) -> dict[Perm, object]:
    """The per-cell values of a function {matrix: value} on the n x n
    matrices over F_p, an absent matrix standing for 0; raises ValueError
    if the function is nonzero on a singular matrix or is not constant on
    some Bruhat cell."""
    cells: dict[Perm | None, list] = {}
    for m, v in values.items():
        if v:
            cells.setdefault(bruhat_cell(m, p), []).append(v)
    if None in cells:
        raise ValueError("function supported outside the enumerated group")
    for w, vals in cells.items():
        if len(vals) != p ** length(w) * borel_order(n, p) or len(set(vals)) != 1:
            raise ValueError(f"function is not constant on the cell of {format_perm(w)}")
    return {w: vals[0] for w, vals in cells.items()}


def cell_product(w1: Perm, w2: Perm, n: int, p: int) -> Mapping[Perm, int]:
    """Cell coefficients of the convolution of the indicators of B w1 B and
    B w2 B: a read-only view of the coset counts in the structure-constant
    table of GL(n, F_p)."""
    check_size(n, p)
    for w in (w1, w2):
        if not (is_perm(w) and len(w) == n):
            raise ValueError(f"{w!r} is not a rank-{n} permutation")
    return MappingProxyType(_structure_table(n, p)[w1, w2])


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
    return FqFunction(n, p, {w: 1})


def unit_function(n: int, p: int) -> FqFunction:
    """The indicator of B, the unit of the convolution algebra."""
    return cell_indicator(identity(n), n, p)


def sigma_element(m: int, n: int, p: int) -> FqFunction:
    """The generator sigma_m: the indicator of the cell of the simple
    transposition s_m."""
    return cell_indicator(adjacent_transposition(m, n), n, p)


# ---------------------------------------------------------------------------
# structure constants against the abstract Hecke algebra


def structure_constants_check(n: int, p: int) -> list[CheckResult]:
    """Expand every product of cell indicators in the cell basis and
    compare, coefficient by coefficient, with the abstract T-basis product
    evaluated at q = p.  For each w2 the products T_w1 T_w2 of every w1
    come from hecke.left_multiples, one kernel step each."""
    check_size(n, p)
    results = []
    perms = sorted(all_perms(n))
    products = {w2: left_multiples(HeckeElement.basis(w2)) for w2 in perms}
    for w1 in perms:
        for w2 in perms:
            got = cell_product(w1, w2, n, p)
            prod = products[w2][w1]
            expected = {w: c(p) for w, c in prod.terms.items()}
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


def _fmt_coeffs(coeffs: Mapping[Perm, int]) -> str:
    return (
        "{"
        + ", ".join(f"{format_perm(w)}: {coeffs[w]}" for w in sorted(coeffs))
        + "}"
    )
