"""Exact scalar layer: polynomials, truncated series, square-root ring."""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from hecketrace.scalars import (
    PowerSeries,
    QPoly,
    RootElem,
    SqrtTable,
    format_fraction,
    parse_fraction,
    series_mul,
)


# ---------------------------------------------------------------------------
# rationals (serialization only; arithmetic is fractions.Fraction)


def test_fraction_roundtrip():
    for text in ("5/4", "-5/4", "7", "0", "-3"):
        assert format_fraction(parse_fraction(text)) == text


def test_exponent_bound_follows_the_int_digit_bound():
    limit = sys.get_int_max_str_digits()
    assert limit  # CPython's default, 4300
    assert parse_fraction(f"1e-{limit}") == F(1, 10**limit)
    for text in (f"1e-{limit + 1}", f"2.5E+{limit + 1}", "1e-10000000", "1e-1_000_000"):
        with pytest.raises(ValueError, match=f"is above {limit}, the limit"):
            parse_fraction(text)
    sys.set_int_max_str_digits(0)
    try:
        assert parse_fraction(f"1e-{limit + 1}") == F(1, 10 ** (limit + 1))
    finally:
        sys.set_int_max_str_digits(limit)


def test_fraction_field_sample():
    # (a/b) * b == a for a spread of small rationals
    vals = [F(n, d) for n in range(-4, 5) for d in range(1, 5)]
    for a in vals:
        for b in vals:
            if b != 0:
                assert (a / b) * b == a


# ---------------------------------------------------------------------------
# polynomials in q


def test_qpoly_basics():
    q = QPoly.var()
    assert (q - 1) * (q + 1) == QPoly([-1, 0, 1])
    assert QPoly([0, 0, 0]).is_zero()
    assert QPoly().degree() is None
    assert (q * q).degree() == 2
    assert QPoly([1, 2, 3])(F(1, 2)) == F(1) + F(1) + F(3, 4)


def test_qpoly_trailing_zeros_trimmed():
    assert QPoly([1, 1, 0, 0]).coeffs == (F(1), F(1))
    assert (QPoly([0, 1]) - QPoly([0, 1])).is_zero()


def test_qpoly_str():
    q = QPoly.var()
    assert str(q * q - q + 1) == "1 - q + q^2"
    assert str(QPoly()) == "0"


def test_qpoly_int_and_fraction_coefficients_are_one_value():
    a, b = QPoly([1, 2]), QPoly([F(1), F(2)])
    assert a == b and hash(a) == hash(b) and str(a) == str(b) == "1 + 2*q"
    assert [type(c) for c in a.coeffs] == [int, int]
    assert [type(c) for c in QPoly([True, 0.5, "1/3"]).coeffs] == [F, F, F]


def test_qpoly_evaluates_in_the_arithmetic_of_q():
    p = QPoly([1, -2, 3])
    assert type(p(2)) is int and p(2) == 9
    assert type(p(F(1, 2))) is F and p(F(1, 2)) == F(3, 4)
    assert type(p(F(2))) is F and p(F(2)) == 9
    assert type(QPoly()(F(1, 2))) is F
    assert type((p * p)(3)) is int


# the loops that QPoly's + and * and series_mul ran before the coefficient
# kernel, kept as its oracle


def _oracle_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return QPoly(out).coeffs


def _oracle_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return QPoly(out).coeffs


def _oracle_series_mul(a, b):
    m = a.order
    out = [0] * (m + 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j in range(m + 1 - i):
            cb = b.coeffs[j]
            if cb != 0:
                out[i + j] += ca * cb
    return PowerSeries(m, out)


_COEFFS = st.one_of(
    st.lists(st.integers(-3, 3), max_size=5),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=5),
)


@st.composite
def _poly_pairs(draw):
    """Two coefficient lists; half the time the top of the second cancels
    the top of the first, so their sum is shorter or zero."""
    a = draw(_COEFFS)
    if draw(st.booleans()):
        return a, draw(_COEFFS)
    k = draw(st.integers(0, len(a)))
    return a, draw(_COEFFS)[:k] + [-c for c in a[k:]]


def _types(coeffs):
    return [type(c) for c in coeffs]


@given(pair=_poly_pairs())
def test_qpoly_sum_and_product_equal_the_oracle(pair):
    a, b = (QPoly(cs) for cs in pair)
    for got, want in ((a + b, _oracle_add(a.coeffs, b.coeffs)),
                      (a * b, _oracle_mul(a.coeffs, b.coeffs))):
        assert got.coeffs == want and _types(got.coeffs) == _types(want)
        assert not got.coeffs or got.coeffs[-1] != 0
    if all(type(c) is int for c in (*a.coeffs, *b.coeffs)):
        assert all(type(c) is int for c in (a + b).coeffs + (a * b).coeffs)


def test_qpoly_sum_that_cancels_is_zero():
    a = QPoly([1, F(1, 2), 3])
    assert (a + -a).coeffs == () and (a - a).coeffs == ()
    assert (a * QPoly()).coeffs == () and (a * 0).coeffs == ()
    assert (QPoly([1, 3]) + QPoly([2, -3])).coeffs == (3,)


@given(order=st.integers(0, 8), data=st.data())
def test_series_mul_equals_the_oracle(order, data):
    coeffs = st.lists(st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)),
                      max_size=order + 1)
    a, b = (PowerSeries(order, data.draw(coeffs)) for _ in range(2))
    got = series_mul(a, b)
    assert got == _oracle_series_mul(a, b) and got.order == order
    if all(type(c) is int for c in (*a.coeffs, *b.coeffs)):
        assert all(type(c) is int for c in got.coeffs)


# ---------------------------------------------------------------------------
# truncated power series


def test_series_mul_difference_of_squares():
    one_plus = PowerSeries(3, [1, 1])
    one_minus = PowerSeries(3, [1, -1])
    assert series_mul(one_plus, one_minus) == PowerSeries(3, [1, 0, -1, 0])


def test_series_mul_identity():
    s = PowerSeries(4, [1, F(1, 2), 0, -3, F(2, 7)])
    assert series_mul(PowerSeries.one(4), s) == s


def test_series_mul_geometric_inverse():
    # (1 + 2z + 4z^2 + 8z^3)(1 - 2z) = 1, truncated at order 3
    geo = PowerSeries(3, [1, 2, 4, 8])
    assert series_mul(geo, PowerSeries(3, [1, -2])) == PowerSeries.one(3)


def test_series_mul_order_mismatch():
    with pytest.raises(ValueError):
        series_mul(PowerSeries.one(3), PowerSeries.one(4))


def test_int_series_stay_int_and_equal_their_fraction_twins():
    s = PowerSeries(4, [1, -2, 0, 5])
    assert [type(c) for c in s.coeffs] == [int] * 5
    twin = PowerSeries(4, [F(1), F(-2), F(0), F(5), F(0)])
    assert s == twin and hash(s) == hash(twin)
    assert PowerSeries(2, ["1/2"]).coeffs == (F(1, 2), 0, 0)
    # (1 + 3z)/(1 - 2z) to order 4
    fraction = PowerSeries(4, [1, 5, 10, 20, 40])
    product = series_mul(s, fraction)
    assert all(type(c) is int for c in product.coeffs)
    assert product == series_mul(twin, PowerSeries(4, [F(c) for c in fraction.coeffs]))


# ---------------------------------------------------------------------------
# square-root ring


def table_q2():
    return SqrtTable({"sqrt_q": 2})


def test_sqrt_squares_to_value():
    t = table_q2()
    r = t.sqrt("sqrt_q")
    assert r * r == t.from_rational(2)


def test_sqrt_product_of_distinct_symbols():
    t = SqrtTable({"sqrt_a1": F(1, 2), "sqrt_a2": F(1, 3)})
    prod = t.sqrt("sqrt_a1") * t.sqrt("sqrt_a2")
    assert prod.comps == {frozenset(("sqrt_a1", "sqrt_a2")): F(1)}


def test_binomial_square():
    # (1 + sqrt(q))^2 = 4 + 2 sqrt(q) at q = 3
    t = SqrtTable({"sqrt_q": 3})
    x = t.one() + t.sqrt("sqrt_q")
    assert x * x == t.from_rational(4) + t.sqrt("sqrt_q") * 2


def test_rational_part():
    t = table_q2()
    assert t.from_rational(F(5, 4)).rational_part() == (F(5, 4), True)
    mixed = t.from_rational(2) + t.sqrt("sqrt_q") * 3
    assert mixed.rational_part() == (F(2), False)
    assert t.zero().rational_part() == (F(0), True)


def test_square_values_stay_formal():
    # sqrt(1/4) and sqrt(1) are formal symbols, not the rationals 1/2 and 1
    t = SqrtTable({"sqrt_a1": F(1, 4), "sqrt_q": 1})
    assert t.formal == {"sqrt_a1": F(1, 4), "sqrt_q": F(1)}
    for name, root in (("sqrt_a1", F(1, 2)), ("sqrt_q", F(1))):
        s = t.sqrt(name)
        assert s.rational_part() == (F(0), False)
        assert s * s == t.from_rational(root * root)
        assert s != t.from_rational(root)


def test_mismatched_tables_rejected():
    a = SqrtTable({"sqrt_q": 2})
    b = SqrtTable({"sqrt_q": 3})
    with pytest.raises(ValueError):
        a.sqrt("sqrt_q") * b.sqrt("sqrt_q")


def test_serialization_pairs():
    t = SqrtTable({"sqrt_q": 2, "sqrt_a1": F(1, 2)})
    x = t.from_rational(3) + t.sqrt("sqrt_q") * t.sqrt("sqrt_a1") * F(-1, 2)
    assert x.to_pairs() == [([], "3"), (["sqrt_a1", "sqrt_q"], "-1/2")]


_TABLE = SqrtTable({"sqrt_q": 2, "sqrt_a1": F(1, 2), "sqrt_a2": F(2, 3)})


@st.composite
def root_elems(draw):
    keys = [
        frozenset(),
        frozenset(("sqrt_q",)),
        frozenset(("sqrt_a1",)),
        frozenset(("sqrt_a2",)),
        frozenset(("sqrt_q", "sqrt_a1")),
        frozenset(("sqrt_a1", "sqrt_a2")),
    ]
    comps = {}
    for k in draw(st.lists(st.sampled_from(keys), max_size=4)):
        comps[k] = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return RootElem(_TABLE, comps)


@given(x=root_elems(), y=root_elems(), z=root_elems())
def test_rootring_ring_laws(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
