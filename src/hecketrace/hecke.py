"""Iwahori-Hecke algebras H_n(q) of type A in the T-basis.

An element is a finite linear combination of basis symbols T_w, one per
permutation w of {1, .., n}, with coefficients that are polynomials in the
indeterminate q.  Multiplication is driven entirely by the quadratic
relation for the generators sigma_m = T_{s_m},

    sigma_m^2 = (q - 1) sigma_m + q,

together with the braid and distant-commutation relations, via the
standard rule for left multiplication by a generator:

    T_{s_m} T_w = T_{s_m w}                     if length(s_m w) > length(w),
    T_{s_m} T_w = (q-1) T_w + q T_{s_m w}       otherwise.

General products expand the left factor along a reduced word; the result
does not depend on the word chosen (checked by the test suite through the
braid relations rather than assumed).

Coefficients stay polynomial inside this module, in Z[q] for products of
basis elements; evaluating q at a number happens only at the trace /
tensor-model boundary and in the check against GL(n, F_p).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, chain
from typing import Union

from .permutations import (
    Perm,
    adjacent_transposition,
    format_perm,
    identity,
    inverse,
    is_perm,
    promote,
    reduced_word,
)
from .scalars import QPoly, sparse_sum

Scalar = Union[QPoly, Fraction, int]
_Q, _Q_MINUS_1 = QPoly.var(), QPoly((-1, 1))

__all__ = [
    "HeckeElement",
    "gen_mul_left",
    "zeta_interval",
    "zeta_partition",
    "check_partition",
]


def _as_poly(c: Scalar) -> QPoly:
    return c if isinstance(c, QPoly) else QPoly.const(c)


def _of_rank(rank: int, terms):
    """The (w, c) pairs of terms, raising ValueError at any w that is not a
    permutation of the given rank."""
    for w, c in terms.items() if isinstance(terms, Mapping) else terms:
        if not is_perm(w) or len(w) != rank:
            raise ValueError(f"{w!r} is not a rank-{rank} permutation")
        yield w, c


class HeckeElement:
    """Element of H_n(q): a map from permutations of rank n to QPoly
    coefficients, with zero coefficients never stored."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Perm, Scalar] = ()):
        self.rank = rank
        self.terms: dict[Perm, QPoly] = {
            w: _as_poly(c) for w, c in sparse_sum(_of_rank(rank, terms)).items()
        }

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "HeckeElement":
        return cls(rank, {})

    @classmethod
    def unit(cls, rank: int) -> "HeckeElement":
        return cls(rank, {identity(rank): QPoly.const(1)})

    @classmethod
    def basis(cls, w: Perm) -> "HeckeElement":
        return cls(len(w), {w: QPoly.const(1)})

    @classmethod
    def generator(cls, m: int, rank: int) -> "HeckeElement":
        """sigma_m = T_{s_m} in rank n."""
        return cls.basis(adjacent_transposition(m, rank))

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        a, b = promote_pair(self, other)
        return HeckeElement(a.rank, chain(a.terms.items(), b.terms.items()))

    def scale(self, c: Scalar) -> "HeckeElement":
        return HeckeElement(self.rank, {w: v * c for w, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (QPoly, Fraction, int)):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (QPoly, Fraction, int)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        a, b = promote_pair(self, other)
        return a.terms == b.terms

    # equality promotes ranks, so there is no rank-stable hash; elements
    # are not usable as dict keys
    __hash__ = None

    # -- structure maps -------------------------------------------------

    def promote(self, rank: int) -> "HeckeElement":
        """Embed into H_rank(q) by appending fixed points; coefficients are
        unchanged."""
        if rank == self.rank:
            return self
        return HeckeElement(
            rank, {promote(w, rank): c for w, c in self.terms.items()}
        )

    def star(self) -> "HeckeElement":
        """The involution: anti-linear anti-automorphism fixing every
        generator.  On the T-basis it sends T_w to T_{w^{-1}}; coefficient
        conjugation is the identity on rational polynomials."""
        return HeckeElement(
            self.rank, {inverse(w): c for w, c in self.terms.items()}
        )

    # The transposition, the linear anti-automorphism fixing every
    # generator, is T_w -> T_{w^{-1}} too: with rational coefficients it
    # coincides with the involution.
    transpose = star

    # -- access / output -------------------------------------------------

    def support(self) -> list[Perm]:
        return sorted(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in self.support():
            c = str(self.terms[w])
            c = c if ("+" not in c and " - " not in c) else f"({c})"
            parts.append(f"{c}*T{format_perm(w)}" if c != "1" else f"T{format_perm(w)}")
        return " + ".join(parts)


def promote_pair(a: HeckeElement, b: HeckeElement):
    n = max(a.rank, b.rank)
    return a.promote(n), b.promote(n)


def gen_mul_left(m: int, x: HeckeElement) -> HeckeElement:
    """Left multiplication sigma_m * x, extended linearly over the terms
    of x using the quadratic relation."""
    n = x.rank
    if not 1 <= m <= n - 1:
        raise ValueError(f"generator index {m} out of range for rank {n}")

    def images():
        for w, c in x.terms.items():
            sw = list(w)
            # s_m acts on values: swap the letters m and m+1 in one-line form
            i, j = w.index(m), w.index(m + 1)
            sw[i], sw[j] = sw[j], sw[i]
            swt = tuple(sw)
            if i < j:  # length(s_m w) = length(w) + 1
                yield swt, c
            else:
                yield w, _Q_MINUS_1 * c
                yield swt, _Q * c

    return HeckeElement(n, images())


def mul(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """Product in H_n(q); operands of unequal rank are promoted first.

    Each basis term T_w of the left factor acts on y through a reduced
    word of w, one generator at a time.

    >>> s1, q = HeckeElement.generator(1, 2), QPoly.var()
    >>> mul(s1, s1)
    q*T[1,2] + (-1 + q)*T[2,1]
    >>> mul(s1, s1) == s1.scale(q - 1) + HeckeElement.unit(2).scale(q)
    True
    """
    x, y = promote_pair(x, y)

    def products():
        for w, c in x.terms.items():
            acc = y
            for a in reversed(reduced_word(w)):
                acc = gen_mul_left(a, acc)
            for v, d in acc.terms.items():
                yield v, c * d

    return HeckeElement(x.rank, products())


# ---------------------------------------------------------------------------
# zeta elements


def _cycle_basis(blocks, rank: int) -> HeckeElement:
    """T_w for w the product of the cycles lo -> hi -> hi-1 -> .. -> lo on
    the disjoint intervals [lo, hi] of blocks: w(lo) = hi, w(k) = k - 1."""
    w = list(identity(rank))
    for lo, hi in blocks:
        w[lo - 1 : hi] = [hi, *range(lo, hi)]
    return HeckeElement.basis(tuple(w))


def zeta_interval(lo: int, hi: int, rank: int | None = None) -> HeckeElement:
    """The descending generator product sigma_{hi-1} sigma_{hi-2} .. sigma_{lo},
    a single T-basis element (the word is reduced); lo == hi gives the unit.
    Needs 1 <= lo <= hi <= rank (rank defaults to hi).

    As a permutation this is the hi-lo+1 cycle lo -> hi -> hi-1 -> .. -> lo
    on the interval [lo, hi].
    """
    n = hi if rank is None else rank
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"interval [{lo}, {hi}] at rank {n}: need 1 <= lo <= hi <= rank")
    return _cycle_basis([(lo, hi)], n)


def check_partition(parts: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(parts)
    if any(p <= 0 for p in parts):
        raise ValueError("partition parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be nonincreasing")
    return parts


def zeta_partition(parts: Sequence[int], rank: int | None = None) -> HeckeElement:
    """Product of disjoint cycle blocks, one per partition part, on
    consecutive intervals: part j acts on [sum(parts[:j-1])+1, sum(parts[:j])].

    The blocks commute, the product is a single T-basis element, and a
    one-part partition (m,) reduces to zeta_interval(1, m).
    """
    parts = check_partition(parts)
    sums = list(accumulate(parts))
    total = sums[-1] if sums else 0
    n = rank if rank is not None else max(total, 1)
    if n < total:
        raise ValueError(f"rank {n} too small for a partition of {total}")
    return _cycle_basis(zip([1] + [s + 1 for s in sums], sums), n)
