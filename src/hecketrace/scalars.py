"""Exact scalar arithmetic: polynomials in q, truncated power series in z,
and a formal square-root extension of the rationals.

Nothing in this package is ever a float.  Plain rationals are
`fractions.Fraction` (always reduced, positive denominator, exact
arithmetic).  On top of those this module provides:

  QPoly       polynomials in the indeterminate q, dense coefficient tuple
              (ints stay ints), lowest degree first, trailing zeros trimmed;
              its + and * are the one sum and product of such tuples,
              _add and _times, that series_mul and hecke's kernel run too;
  PowerSeries formal series in z truncated at a fixed order M, coefficients
              of degree 0..M only (ints stay ints), multiplied by
              series_mul only;
  SqrtTable / RootElem
              the commutative ring Q[s_1, ..., s_s] / (s_i^2 - x_i) of
              formal square roots of a fixed finite set of positive
              rationals x_i.  An element is a map from subsets of the
              symbol set to rational coefficients; multiplication combines
              subsets by symmetric difference, with every squared symbol
              contributing its bound value.  Every symbol stays formal, also
              when its value is a perfect rational square, so the
              rationality check (all components off the empty subset
              vanish) is the same formal check at every parameter value.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Iterable, Union

Rat = Union[Fraction, int]

__all__ = [
    "CrossCheckError",
    "sparse_sum",
    "QPoly",
    "PowerSeries",
    "series_mul",
    "SqrtTable",
    "RootElem",
    "format_fraction",
    "parse_fraction",
]


def _exact(c) -> Rat:
    """c itself if it is an int or a Fraction, else Fraction(c); ints stay
    ints, since 1 == Fraction(1) with the same hash and str."""
    return c if type(c) in (int, Fraction) else Fraction(c)


class CrossCheckError(RuntimeError):
    """Two supposedly-identical exact computations disagreed, or an exact
    invariant (such as rationality of a trace value) failed.

    This is never a usage error: it always indicates a bug in the library.
    """


def format_fraction(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(x)


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal such as "-1.5e-3"; ValueError if
    malformed, or if CPython bounds the digits of an int string and the
    exponent is above that bound, before 10^exponent is formed."""
    limit = sys.get_int_max_str_digits()
    exponent = re.search(r"E[-+]?(\d+(?:_\d+)*)\s*\Z", text, re.I)
    if limit and exponent and int(exponent[1]) > limit:
        raise ValueError(
            f"the exponent of {text.strip()!r} is above {limit}, the limit on the digits "
            "of an int string (sys.get_int_max_str_digits())"
        )
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def sparse_sum(terms) -> dict:
    """The sparse linear combination of (key, coefficient) pairs: the
    coefficients of a repeated key are added, and keys whose sum is zero
    (falsy) are dropped.  A mapping stands for its items.  Every sparse
    type of the package (RootElem, TensorState, HeckeElement, FqFunction)
    stores what this returns, and so do the normal-form tables.

    >>> sparse_sum([("a", 1), ("b", Fraction(1, 2)), ("a", -1), ("b", 1)])
    {'b': Fraction(3, 2)}
    """
    if isinstance(terms, Mapping):
        terms = terms.items()
    out = {}
    for k, c in terms:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


def _signed_join(parts: list[str]) -> str:
    """Join signed terms with " + " / " - ", e.g. ["q", "-2"] -> "q - 2"."""
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# ---------------------------------------------------------------------------
# polynomials in q: the coefficient kernel and QPoly


def _add(a: tuple, b: tuple) -> tuple:
    """The coefficient tuple of the sum of two polynomials, trimmed, so a
    sum that cancels is ()."""
    if len(a) < len(b):
        a, b = b, a
    out = [*map(add, a, b), *a[len(b) :]]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _times(a: tuple, b: tuple) -> tuple:
    """The coefficient tuple of a product, () when a factor is (); trimmed
    when both factors are."""
    if not (a and b):
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


class QPoly:
    """Polynomial in q with rational coefficients.

    Stored lowest degree first; the zero polynomial has an empty coefficient
    tuple and degree() None.  An int or Fraction coefficient is stored as
    given and anything else as a Fraction, so int products stay in Z[q].

    >>> (QPoly.var() - 1) * (QPoly.var() + 1) == QPoly([-1, 0, 1])
    True
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Rat, ...] = tuple(cs)

    @classmethod
    def _of(cls, coeffs: tuple[Rat, ...]) -> "QPoly":
        """The polynomial with exactly this coefficient tuple, taken as it
        is: ints and Fractions with a nonzero last entry."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def const(cls, c: Rat) -> "QPoly":
        return cls((c,))

    @classmethod
    def var(cls) -> "QPoly":
        """The polynomial q itself."""
        return cls((0, 1))

    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly._of(_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly._of(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "QPoly":
        return self + (-other if isinstance(other, QPoly) else QPoly.const(-other))

    def __rsub__(self, other) -> "QPoly":
        return (-self) + other

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly._of(_times(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __call__(self, q: Rat) -> Rat:
        """Evaluate at a rational value of q (Horner), in the arithmetic of q:
        an int polynomial gives an int at an int q, a Fraction at a Fraction."""
        acc = q * 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPoly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(format_fraction(c))
            else:
                mono = "q" if d == 1 else f"q^{d}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{format_fraction(c)}*{mono}")
        return _signed_join(parts)


# ---------------------------------------------------------------------------
# truncated power series in z


class PowerSeries:
    """Series in z truncated at a fixed order: coefficients of z^0 .. z^M.

    Operations never consult or produce coefficients above the truncation
    order, and combining series of different orders is an error (silent
    truncation would silently weaken identity checks downstream).  Like a
    QPoly coefficient, an int or Fraction coefficient is stored as given,
    so products of int series stay in Z.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Rat] = ()):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [_exact(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError(
                f"got {len(cs)} coefficients for truncation order {order}"
            )
        cs.extend([0] * (order + 1 - len(cs)))
        self.order = order
        self.coeffs: tuple[Rat, ...] = tuple(cs)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls(order, (1,))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PowerSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"PowerSeries({self.order}, {list(self.coeffs)!r})"


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at the common order."""
    if a.order != b.order:
        raise ValueError(f"truncation orders differ: {a.order} != {b.order}")
    return PowerSeries(a.order, _times(a.coeffs, b.coeffs)[: a.order + 1])


# ---------------------------------------------------------------------------
# formal square roots


class SqrtTable:
    """Symbol table of a square-root extension ring.

    Binds each symbol name to a positive rational value; the ring element
    sqrt(name) squares to that value.  Every name is a formal symbol, also
    when its value is a perfect rational square: sqrt(4) is not the
    rational 2 but a symbol that squares to 4, so a rationality check on
    these elements is formal at every bound value.

    >>> t = SqrtTable({"sqrt_q": 4})
    >>> t.sqrt("sqrt_q")
    sqrt_q
    >>> t.sqrt("sqrt_q") * t.sqrt("sqrt_q")
    4
    >>> t.sqrt("sqrt_q") == t.from_rational(2)
    False
    """

    __slots__ = ("formal", "_zero", "_one")

    def __init__(self, bindings: Mapping[str, Rat]):
        formal: dict[str, Fraction] = {}
        for name, raw in bindings.items():
            val = Fraction(raw)
            if val <= 0:
                raise ValueError(f"symbol {name!r} must bind a positive value")
            formal[name] = val
        self.formal = formal
        self._zero = RootElem(self, {})
        self._one = RootElem(self, {frozenset(): Fraction(1)})

    def same_symbols(self, other: "SqrtTable") -> bool:
        return self.formal == other.formal

    def zero(self) -> "RootElem":
        return self._zero

    def one(self) -> "RootElem":
        return self._one

    def from_rational(self, c: Rat) -> "RootElem":
        c = Fraction(c)
        if c == 0:
            return self._zero
        return RootElem(self, {frozenset(): c})

    def sqrt(self, name: str) -> "RootElem":
        """The element sqrt(value bound to name)."""
        if name not in self.formal:
            raise KeyError(f"unknown square-root symbol {name!r}")
        return RootElem(self, {frozenset((name,)): Fraction(1)})

    def __repr__(self):
        items = ", ".join(f"{k}={v}" for k, v in sorted(self.formal.items()))
        return f"SqrtTable({items})"


class RootElem:
    """Element of a square-root extension ring: a finitely supported map
    from subsets of the formal symbol set to rational coefficients.

    Zero coefficients are never stored, so equality is dict equality.
    """

    __slots__ = ("table", "comps")

    def __init__(self, table: SqrtTable, comps=()):
        self.table = table
        self.comps: dict[frozenset, Fraction] = sparse_sum(comps)

    def _check(self, other: "RootElem"):
        if self.table is not other.table and not self.table.same_symbols(other.table):
            raise ValueError("operands belong to different symbol tables")

    def __bool__(self) -> bool:
        return bool(self.comps)

    def __add__(self, other: "RootElem") -> "RootElem":
        self._check(other)
        return RootElem(self.table, chain(self.comps.items(), other.comps.items()))

    def __neg__(self) -> "RootElem":
        return RootElem(self.table, {k: -v for k, v in self.comps.items()})

    def __mul__(self, other) -> "RootElem":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.table.zero()
            return RootElem(
                self.table, {k: v * other for k, v in self.comps.items()}
            )
        if not isinstance(other, RootElem):
            return NotImplemented
        self._check(other)
        values = self.table.formal

        def products():
            for ka, va in self.comps.items():
                for kb, vb in other.comps.items():
                    coeff = va * vb
                    for sym in ka & kb:
                        coeff *= values[sym]
                    yield ka ^ kb, coeff

        return RootElem(self.table, products())

    __rmul__ = __mul__

    def rational_part(self) -> tuple[Fraction, bool]:
        """The coefficient of the empty symbol subset, and a purity flag
        that is True iff every other component vanishes."""
        rat = self.comps.get(frozenset(), Fraction(0))
        pure = all(not k for k in self.comps)
        return rat, pure

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootElem)
            and self.table.same_symbols(other.table)
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash(frozenset((k, v) for k, v in self.comps.items()))

    def to_pairs(self) -> list[tuple[list[str], str]]:
        """Canonical serialization: (sorted symbol subset, coefficient)
        pairs, sorted by subset."""
        items = sorted((sorted(k), v) for k, v in self.comps.items())
        return [(syms, format_fraction(v)) for syms, v in items]

    def __repr__(self):
        if not self.comps:
            return "0"
        parts = []
        for syms, v in self.to_pairs():
            if not syms:
                parts.append(v)
            else:
                radical = "*".join(syms)
                if v == "1":
                    parts.append(radical)
                elif v == "-1":
                    parts.append(f"-{radical}")
                else:
                    parts.append(f"{v}*{radical}")
        return _signed_join(parts)

