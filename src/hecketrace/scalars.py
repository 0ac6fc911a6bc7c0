"""Exact scalar arithmetic: polynomials in q, truncated power series in z,
and a formal square-root extension of the rationals.

Nothing in this package is ever a float.  Plain rationals are
`fractions.Fraction` (always reduced, positive denominator, exact
arithmetic).  On top of those this module provides:

  QPoly       polynomials in the indeterminate q, dense coefficient tuple,
              lowest degree first, trailing zeros trimmed;
  PowerSeries formal series in z truncated at a fixed order M, coefficients
              of degree 0..M only;
  SqrtTable / RootElem
              the commutative ring Q[sqrt(x_1), ..., sqrt(x_s)] for a fixed
              finite set of positive rationals x_i.  An element is a map
              from subsets of the symbol set to rational coefficients;
              multiplication combines subsets by symmetric difference, with
              every squared symbol contributing its bound value.  Symbols
              whose bound value is a perfect rational square are resolved
              to that square root when the table is built, so every value
              has exactly one representation and equality is a plain
              component comparison.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Union

Rat = Union[Fraction, int]

__all__ = [
    "CrossCheckError",
    "sparse_sum",
    "QPoly",
    "PowerSeries",
    "series_mul",
    "series_linear_fraction",
    "SqrtTable",
    "RootElem",
    "exact_sqrt",
    "format_fraction",
    "parse_fraction",
]


class CrossCheckError(RuntimeError):
    """Two supposedly-identical exact computations disagreed, or an exact
    invariant (such as rationality of a trace value) failed.

    This is never a usage error: it always indicates a bug in the library.
    """


def format_fraction(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(x)


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or "p" (sign on the numerator)."""
    return Fraction(text.strip())


def sparse_sum(terms) -> dict:
    """The sparse linear combination of (key, coefficient) pairs: the
    coefficients of a repeated key are added, and keys whose sum is zero
    (falsy) are dropped.  A mapping stands for its items.  Every sparse
    type of the package (RootElem, TensorState, PermDiagOperator tables,
    HeckeElement, FqFunction) stores what this returns.

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
# polynomials in q


class QPoly:
    """Polynomial in q with rational coefficients.

    Stored lowest degree first; the zero polynomial has an empty coefficient
    tuple and degree() None.

    >>> (QPoly.var() - 1) * (QPoly.var() + 1) == QPoly([-1, 0, 1])
    True
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "QPoly":
        return self + (-other if isinstance(other, QPoly) else QPoly.const(-other))

    def __rsub__(self, other) -> "QPoly":
        return (-self) + other

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            return QPoly(c * other for c in self.coeffs)
        if not isinstance(other, QPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __call__(self, q: Rat) -> Fraction:
        """Evaluate at a rational value of q (Horner)."""
        q = Fraction(q)
        acc = Fraction(0)
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

    def to_list(self) -> list[str]:
        """Coefficient strings, lowest degree first."""
        return [format_fraction(c) for c in self.coeffs]


# ---------------------------------------------------------------------------
# truncated power series in z


class PowerSeries:
    """Series in z truncated at a fixed order: coefficients of z^0 .. z^M.

    Operations never consult or produce coefficients above the truncation
    order, and combining series of different orders is an error (silent
    truncation would silently weaken identity checks downstream).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Rat] = ()):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError(
                f"got {len(cs)} coefficients for truncation order {order}"
            )
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        self.order = order
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls(order, (1,))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return series_mul(self, other)

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
        raise ValueError(
            f"truncation orders differ: {a.order} != {b.order}"
        )
    m = a.order
    out = [Fraction(0)] * (m + 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j in range(m + 1 - i):
            cb = b.coeffs[j]
            if cb != 0:
                out[i + j] += ca * cb
    return PowerSeries(m, out)


def series_linear_fraction(b: Rat, c: Rat, order: int) -> PowerSeries:
    """Expansion of (1 + b z) / (1 + c z) to the given order.

    The coefficient of z^k for k >= 1 is (-c)^(k-1) (b - c); for b == c the
    factors cancel and the result is the constant series 1.
    """
    b, c = Fraction(b), Fraction(c)
    coeffs = [Fraction(1)]
    diff = b - c
    power = Fraction(1)  # (-c)^(k-1)
    for _ in range(order):
        coeffs.append(power * diff)
        power *= -c
    return PowerSeries(order, coeffs)


# ---------------------------------------------------------------------------
# formal square roots


def exact_sqrt(x: Fraction):
    """The rational square root of x, or None when x is not a perfect
    square.  x must be nonnegative."""
    if x < 0:
        raise ValueError("exact_sqrt of a negative rational")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


class SqrtTable:
    """Symbol table of a square-root extension ring.

    Binds each symbol name to a positive rational value; the ring element
    sqrt(name) squares to that value.  Names whose value is a perfect
    rational square never become formal symbols: sqrt(name) is resolved to
    the exact root instead (so e.g. binding q = 1 makes sqrt_q the plain
    rational 1, and representations stay canonical).
    """

    __slots__ = ("formal", "resolved", "_zero", "_one")

    def __init__(self, bindings: Mapping[str, Rat]):
        formal: dict[str, Fraction] = {}
        resolved: dict[str, Fraction] = {}
        for name, raw in bindings.items():
            val = Fraction(raw)
            if val <= 0:
                raise ValueError(f"symbol {name!r} must bind a positive value")
            root = exact_sqrt(val)
            if root is None:
                formal[name] = val
            else:
                resolved[name] = root
        self.formal = formal
        self.resolved = resolved
        self._zero = RootElem(self, {})
        self._one = RootElem(self, {frozenset(): Fraction(1)})

    def same_symbols(self, other: "SqrtTable") -> bool:
        return self.formal == other.formal and self.resolved == other.resolved

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
        if name in self.resolved:
            return self.from_rational(self.resolved[name])
        if name not in self.formal:
            raise KeyError(f"unknown square-root symbol {name!r}")
        return RootElem(self, {frozenset((name,)): Fraction(1)})

    def __repr__(self):
        bound = {**{k: v * v for k, v in self.resolved.items()}, **self.formal}
        items = ", ".join(f"{k}={v}" for k, v in sorted(bound.items()))
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

