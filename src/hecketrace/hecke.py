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

Every product runs through one step kernel, _step, which applies the rule
above to a plain dict {w: coefficient tuple}, the QPoly coefficients
lowest degree first with no trailing zero, with no zero term; it sums and
multiplies tuples by the coefficient kernel of scalars (_add, _times), the
one QPoly runs.  mul walks each term of the left factor along its word on
such dicts, and gen_mul_left and left_multiples call the kernel too; each
wraps its result as a HeckeElement once, at the end.  HeckeElement defines
no *: mul is the product and scale the scalar multiple.  Validation happens
where input comes from outside: HeckeElement(rank, terms) tests every key
and sums repeated ones, while every element this module derives from valid
ones (products, star and transpose, promote, sums, scalings and the cycle
elements) is built by HeckeElement._of, which takes its terms as they are.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, chain
from operator import sub
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
from .scalars import QPoly, _add, _times, sparse_sum

Scalar = Union[QPoly, Fraction, int]
_ONE = QPoly.const(1)

__all__ = [
    "HeckeElement",
    "gen_mul_left",
    "left_multiples",
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
    coefficients, with zero coefficients never stored.

    The constructor validates its input: every key must be a rank-n
    permutation, and repeated keys are summed.  Elements derived from
    valid ones are built by _of, which tests nothing."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Perm, Scalar] = ()):
        self.rank = rank
        self.terms: dict[Perm, QPoly] = {
            w: _as_poly(c) for w, c in sparse_sum(_of_rank(rank, terms)).items()
        }

    @classmethod
    def _of(cls, rank: int, terms: dict[Perm, QPoly]) -> "HeckeElement":
        """The element with exactly these terms: rank-`rank` permutation
        keys and nonzero QPoly values, taken as they are."""
        x = object.__new__(cls)
        x.rank, x.terms = rank, terms
        return x

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "HeckeElement":
        return cls._of(rank, {})

    @classmethod
    def unit(cls, rank: int) -> "HeckeElement":
        return cls._of(rank, {identity(rank): _ONE})

    @classmethod
    def basis(cls, w: Perm) -> "HeckeElement":
        return cls(len(w), {w: _ONE})

    @classmethod
    def generator(cls, m: int, rank: int) -> "HeckeElement":
        """sigma_m = T_{s_m} in rank n."""
        return cls._of(rank, {adjacent_transposition(m, rank): _ONE})

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        a, b = promote_pair(self, other)
        return HeckeElement._of(a.rank, sparse_sum(chain(a.terms.items(), b.terms.items())))

    def scale(self, c: Scalar) -> "HeckeElement":
        return HeckeElement._of(
            self.rank, {w: p for w, v in self.terms.items() if (p := v * c)}
        )

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
        return HeckeElement._of(
            rank, {promote(w, rank): c for w, c in self.terms.items()}
        )

    def star(self) -> "HeckeElement":
        """The involution: anti-linear anti-automorphism fixing every
        generator.  On the T-basis it sends T_w to T_{w^{-1}}; coefficient
        conjugation is the identity on rational polynomials."""
        return HeckeElement._of(
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


# ---------------------------------------------------------------------------
# the step kernel on {w: coefficient tuple} dicts


def _add_into(out: dict, key: Perm, c: tuple):
    """Add the coefficient tuple c at key; a sum that cancels stays as ()."""
    old = out.get(key)
    out[key] = c if old is None else _add(old, c)


def _swap(w: Perm, i: int, j: int) -> Perm:
    """w with the letters at positions i and j exchanged."""
    sw = list(w)
    sw[i], sw[j] = sw[j], sw[i]
    return tuple(sw)


def _step(m: int, terms: dict) -> dict:
    """sigma_m times the element {w: coefficient tuple}, by the rule of the
    module docstring, with no zero term: s_m swaps the letters m and m + 1
    of w in one-line form, and it lengthens w when m comes first.  On a
    shortening w the coefficient c gives q c at s_m w and (q - 1) c at w."""
    out: dict = {}
    for w, c in terms.items():
        i, j = w.index(m), w.index(m + 1)
        sw = _swap(w, i, j)
        if i < j:
            _add_into(out, sw, c)
        else:
            qc = (0, *c)
            _add_into(out, w, tuple(map(sub, qc, (*c, 0))))
            _add_into(out, sw, qc)
    return {w: c for w, c in out.items() if c}


def _tuples(x: HeckeElement) -> dict:
    """The terms of x as the kernel's {w: coefficient tuple}."""
    return {w: c.coeffs for w, c in x.terms.items()}


def _wrap(rank: int, terms: dict) -> HeckeElement:
    """The kernel's {w: coefficient tuple} as a HeckeElement; no zero term."""
    return HeckeElement._of(rank, {w: QPoly._of(c) for w, c in terms.items() if c})


def gen_mul_left(m: int, x: HeckeElement) -> HeckeElement:
    """Left multiplication sigma_m * x, extended linearly over the terms
    of x using the quadratic relation."""
    n = x.rank
    if not 1 <= m <= n - 1:
        raise ValueError(f"generator index {m} out of range for rank {n}")
    return _wrap(n, _step(m, _tuples(x)))


def mul(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """Product in H_n(q); operands of unequal rank are promoted first.

    Each basis term T_w of the left factor acts on y through a reduced
    word of w, one kernel step per generator, and the terms are summed as
    coefficient tuples.

    >>> s1, q = HeckeElement.generator(1, 2), QPoly.var()
    >>> mul(s1, s1)
    q*T[1,2] + (-1 + q)*T[2,1]
    >>> mul(s1, s1) == s1.scale(q - 1) + HeckeElement.unit(2).scale(q)
    True
    """
    x, y = promote_pair(x, y)
    start = _tuples(y)
    out: dict = {}
    for w, c in x.terms.items():
        acc = start
        for a in reversed(reduced_word(w)):
            acc = _step(a, acc)
        c = c.coeffs
        for v, d in acc.items():
            _add_into(out, v, d if c == (1,) else _times(c, d))
    return _wrap(x.rank, out)


def left_multiples(y: HeckeElement) -> dict[Perm, HeckeElement]:
    """T_w y for every permutation w of y's rank, keyed by w.

    The permutations are reached in length order from the identity, each
    w = s_m u from a u one shorter, so T_w y is one kernel step, sigma_m
    (T_u y), from a product already formed: rank! - 1 steps in all, where
    mul walks a whole reduced word of each w."""
    n = y.rank
    rows = {identity(n): _tuples(y)}
    level = list(rows)
    while level:
        longer = []
        for u in level:
            for m in range(1, n):
                i, j = u.index(m), u.index(m + 1)
                if i < j and (w := _swap(u, i, j)) not in rows:
                    rows[w] = _step(m, rows[u])
                    longer.append(w)
        level = longer
    return {w: _wrap(n, row) for w, row in rows.items()}


# ---------------------------------------------------------------------------
# zeta elements


def _cycle_basis(blocks, rank: int) -> HeckeElement:
    """T_w for w the product of the cycles lo -> hi -> hi-1 -> .. -> lo on
    the disjoint intervals [lo, hi] of blocks: w(lo) = hi, w(k) = k - 1."""
    w = list(identity(rank))
    for lo, hi in blocks:
        w[lo - 1 : hi] = [hi, *range(lo, hi)]
    return HeckeElement._of(rank, {tuple(w): _ONE})


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
