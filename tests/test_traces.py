"""Closed-form trace evaluators and their internal cross-checks."""

import inspect
import textwrap
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import factorial, lcm, prod
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from hecketrace import traces
from hecketrace.hecke import zeta_interval
from hecketrace.scalars import CrossCheckError, PowerSeries, format_fraction, series_mul
from hecketrace.tensor import ModelContext, matrix_element
from hecketrace.traces import (
    TraceParams,
    delta_eigenvalue,
    enumerate_multiplicities,
    generating_series,
    partition_trace,
    series_from_traces,
    super_newton,
    thoma_trace,
    zeta_trace,
    zeta_trace_diagonal,
)


def params(q, alpha=(), beta=(), gamma=0):
    return TraceParams(
        q=F(q), alpha=tuple(F(a) for a in alpha), beta=tuple(F(b) for b in beta),
        gamma=F(gamma),
    )


P_FLAT = params(2, alpha=("1/2", "1/2"))
P_TRIV = params(2, alpha=(1,))
P_SIGN = params(2, beta=(1,))
P_MIX = params(2, alpha=("1/2",), beta=("1/2",))


# ---------------------------------------------------------------------------
# parameter validation


def test_params_sum_must_be_one():
    with pytest.raises(ValueError, match=r"off by -1/2"):
        params(2, alpha=("1/4", "1/4"))
    with pytest.raises(ValueError, match=r"off by 1/3"):
        params(2, alpha=("2/3", "1/3"), gamma="1/3")


def test_params_monotonicity():
    with pytest.raises(ValueError):
        params(2, alpha=("1/4", "3/4"))
    with pytest.raises(ValueError):
        params(0, alpha=(1,))


def test_params_record_roundtrip():
    p = params("1/2", alpha=("1/2",), beta=("1/4",), gamma="1/4")
    rec = p.to_record()
    assert rec == {"q": "1/2", "alpha": ["1/2"], "beta": ["1/4"], "gamma": "1/4"}
    assert TraceParams.from_record(rec) == p


def fields_by_fractions(q, alpha=(), beta=(), gamma=0):
    """The Fraction body of TraceParams validation, the oracle of its
    integer check: the fields (q, alpha, beta, gamma), or the ValueError it
    raises."""
    q, gamma = F(q), F(gamma)
    alpha, beta = tuple(F(a) for a in alpha), tuple(F(b) for b in beta)
    if q <= 0:
        raise ValueError("q must be positive")
    for name, seq in (("alpha", alpha), ("beta", beta)):
        if any(x < 0 for x in seq):
            raise ValueError(f"{name} entries must be nonnegative")
        if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError(f"{name} must be nonincreasing")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    total = sum(alpha) + sum(beta) + gamma
    if total != 1:
        raise ValueError(
            "alpha, beta, gamma must sum to 1 exactly; "
            f"off by {format_fraction(total - 1)}"
        )
    return q, alpha, beta, gamma


def _checked(build, record):
    try:
        return build(**record)
    except ValueError as exc:
        return type(exc), str(exc)


def _valid_records(rng, count):
    """Seeded valid records: 0-3 alpha and 0-3 beta weights, zeros
    included, a gamma on about half of them, every weight k/D for one D up
    to 30 (so the weights' own denominators differ), and q = 1 or a
    fraction with numerator and denominator up to 30.  Values come as
    Fraction, int or str, all of which TraceParams takes."""
    for _ in range(count):
        n_alpha, n_beta, n_gamma = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 1)
        D = rng.randint(1, 30)
        cuts = sorted(rng.randint(0, D) for _ in range(n_alpha + n_beta + n_gamma - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, D])]
        if n_alpha + n_beta + n_gamma == 0:
            parts, n_gamma = [D], 1  # no weight at all: gamma = 1
        weights = [rng.choice((F, str))(F(k, D)) for k in parts]
        alpha = sorted(weights[:n_alpha], key=F, reverse=True)
        beta = sorted(weights[n_alpha : n_alpha + n_beta], key=F, reverse=True)
        q = F(rng.randint(1, 30), rng.randint(1, 30))
        if rng.random() < 0.2:
            q = rng.choice((1, F(1)))
        record = {"q": q, "alpha": alpha, "beta": beta}
        if n_gamma:
            record["gamma"] = weights[-1]
        yield record


# one record per reason TraceParams rejects, in the order it checks them,
# each also breaking every later check it can
INVALID_RECORDS = {
    "q_zero": {"q": 0, "alpha": (F(1, 2),), "beta": (F(-1, 2),), "gamma": -1},
    "q_negative": {"q": F(-2, 3), "alpha": (1,)},
    "alpha_negative": {"q": 2, "alpha": (F(3, 2), F(-1, 2)), "beta": (F(-1, 4),)},
    "alpha_increasing": {"q": 2, "alpha": (F(1, 4), F(3, 4)), "beta": (F(-1, 4),)},
    "beta_negative": {"q": 2, "alpha": (F(1, 2),), "beta": (F(-1, 6),), "gamma": F(-1, 3)},
    "beta_increasing": {"q": 2, "beta": (F(1, 6), F(1, 3)), "gamma": F(-1, 2)},
    "gamma_negative": {"q": 2, "alpha": (F(3, 2),), "gamma": F(-1, 2)},
    "sum_below": {"q": 1, "alpha": (F(1, 4), F(1, 4)), "beta": (F(1, 6),)},
    "sum_above": {"q": 3, "alpha": (F(2, 3), F(1, 3)), "gamma": F(1, 3)},
    # one unit over the common denominator 30, above and below
    "sum_above_by_one_thirtieth": {"q": 2, "alpha": (1,), "gamma": F(1, 30)},
    "sum_below_by_one_thirtieth": {"q": 2, "beta": (F(29, 30),)},
    "nothing": {"q": 2},
}


@pytest.mark.parametrize("record", INVALID_RECORDS.values(), ids=INVALID_RECORDS.keys())
def test_params_rejects_as_the_fraction_check(record):
    want = _checked(fields_by_fractions, record)
    assert want[0] is ValueError
    assert _checked(TraceParams, record) == want


def test_params_integer_check_equals_the_fraction_check():
    # fields and the stored numerators on seeded valid records
    rng = Random(2025)
    for record in _valid_records(rng, 600):
        p = TraceParams(**record)
        q, alpha, beta, gamma = fields_by_fractions(**record)
        assert (p.q, p.alpha, p.beta, p.gamma) == (q, alpha, beta, gamma)
        assert all(type(x) is F for x in (p.q, *p.alpha, *p.beta, p.gamma))
        # the nonzero weights lead each nonincreasing sequence, so the
        # stored numerators sit at the indices 1, 2, .. and -1, -2, ..
        weights = weights_by_index(alpha, beta)
        d, by_index = p.numerators_by_index
        assert d == lcm(*(w.denominator for w in (*alpha, *beta)))
        assert list(by_index) == sorted(weights)
        assert {i: F(n, d) for i, n in by_index.items()} == weights


def test_params_keep_a_fraction_as_given():
    q, a = F(5, 4), F(1, 2)
    p = TraceParams(q=q, alpha=(a, a))
    assert p.q is q and all(x is a for x in p.alpha)


# ---------------------------------------------------------------------------
# super-Newton sums


def test_super_newton_examples():
    assert super_newton(1, params(2, alpha=("1/2", "1/2"))) == 1
    assert super_newton(2, P_SIGN) == -1
    assert super_newton(3, P_MIX) == F(1, 4)


def test_super_newton_rejects_k0():
    with pytest.raises(ValueError):
        super_newton(0, P_TRIV)


# ---------------------------------------------------------------------------
# partition enumeration


def test_multiplicity_enumeration_small():
    assert list(enumerate_multiplicities(1)) == [{1: 1}]
    two = list(enumerate_multiplicities(2))
    assert {frozenset(mu.items()) for mu in two} == {
        frozenset({(1, 2)}),
        frozenset({(2, 1)}),
    }


def test_multiplicity_enumeration_counts():
    # partition numbers p(1..8)
    expected = [1, 2, 3, 5, 7, 11, 15, 22]
    for m, count in enumerate(expected, start=1):
        vecs = list(enumerate_multiplicities(m))
        assert len(vecs) == count
        assert all(sum(k * c for k, c in mu.items()) == m for mu in vecs)
        # no duplicates
        assert len({frozenset(mu.items()) for mu in vecs}) == count


# ---------------------------------------------------------------------------
# the cycle-value recurrence against the paper's partition sum


def paper_partition_sum(m, p):
    """The paper's formula, literally: a sum over the partitions of m,
    divided by (q - 1); singular at q = 1."""
    q = p.q
    total = F(0)
    for mu in enumerate_multiplicities(m):
        term = F(1)
        for k, count in mu.items():
            term *= (q**k - 1) ** count
            term /= k**count * factorial(count)
            if k >= 2:
                term *= super_newton(k, p) ** count
        total += term
    return total / (q - 1)


@pytest.mark.parametrize("q", ["2", "3", "1/2", "5/3"])
@pytest.mark.parametrize(
    "alpha,beta,gamma",
    [
        ((1,), (), 0),
        ((), (1,), 0),
        ((), (), 1),
        (("1/2", "1/4"), ("1/8",), "1/8"),
        (("2/3", "1/6"), ("1/6",), 0),
    ],
)
def test_recurrence_matches_partition_sum(q, alpha, beta, gamma):
    p = params(q, alpha=alpha, beta=beta, gamma=gamma)
    for m in range(1, 13):
        assert zeta_trace(m, p) == paper_partition_sum(m, p)


def test_zeta_trace_m1_is_one():
    for p in (P_FLAT, P_TRIV, P_SIGN, P_MIX):
        assert zeta_trace(1, p) == 1


def test_zeta_trace_one_dimensional_anchors():
    # alpha = (1): the one-dimensional representation sending sigma to q
    for m in range(1, 7):
        assert zeta_trace(m, P_TRIV) == F(2) ** (m - 1)
        assert zeta_trace(m, params(3, alpha=(1,))) == F(3) ** (m - 1)
    # beta = (1): the sign-type representation sending sigma to -1
    for m in range(1, 7):
        assert zeta_trace(m, P_SIGN) == F(-1) ** (m - 1)


def test_zeta_trace_flat_pair():
    assert zeta_trace(2, P_FLAT) == F(5, 4)
    assert zeta_trace(3, P_FLAT) == F(3, 2)


@pytest.mark.parametrize(
    "alpha,beta,gamma",
    [((1,), (), 0), ((), (1,), 0), (("1/2", "1/4"), ("1/8",), "1/8"), (("1/2",), ("1/2",), 0)],
)
def test_zeta_trace_at_q1_is_thoma(alpha, beta, gamma):
    p = params(1, alpha=alpha, beta=beta, gamma=gamma)
    for m in range(1, 11):
        assert zeta_trace(m, p) == thoma_trace(m, p)


def test_zeta_trace_rejects_m0():
    with pytest.raises(ValueError):
        zeta_trace(0, P_FLAT)


def test_zeta_trace_accepts_positive_gamma():
    # the formula depends on gamma only through the normalization constraint
    p = params(2, alpha=("1/2",), gamma="1/2")
    assert zeta_trace(1, p) == 1
    # hand expansion: (q-1)^2/2 + (q^2-1)/2 * p_2 with p_2 = 1/4, over q-1
    assert zeta_trace(2, p) == F(7, 8)


def test_partition_trace_examples():
    assert partition_trace((1, 1, 1), P_FLAT) == 1
    assert partition_trace((2, 2), P_FLAT) == F(25, 16)
    assert partition_trace((3,), params(3, alpha=(1,))) == 9


# ---------------------------------------------------------------------------
# Thoma degeneration at q = 1


def test_thoma_values():
    assert thoma_trace(2, params(1, alpha=("1/2", "1/2"))) == F(1, 2)
    assert thoma_trace(1, params(1, beta=(1,))) == 1
    assert thoma_trace(3, params(1, beta=(1,))) == 1


# ---------------------------------------------------------------------------
# generating function


def test_generating_series_geometric():
    got = generating_series(P_TRIV, 4)
    assert got == PowerSeries(4, [1, 1, 2, 4, 8])


def test_generating_series_constant_term():
    for p in (P_FLAT, P_SIGN, P_MIX):
        assert generating_series(p, 5).coeffs[0] == 1


def test_generating_series_sign_representation():
    got = generating_series(P_SIGN, 4)
    assert got == PowerSeries(4, [1, 1, -1, 1, -1])


def test_generating_series_rejects_gamma():
    with pytest.raises(ValueError):
        generating_series(params(2, alpha=("1/2",), gamma="1/2"), 3)


def test_generating_series_trivial_at_q1():
    got = generating_series(params(1, alpha=("1/2", "1/2")), 6)
    assert got == PowerSeries.one(6)


def test_series_from_traces_examples():
    assert series_from_traces(P_TRIV, 3) == PowerSeries(3, [1, 1, 2, 4])
    assert series_from_traces(P_MIX, 5).coeffs[0] == 1
    assert series_from_traces(P_FLAT, 2) == PowerSeries(2, [1, 1, F(5, 4)])


@pytest.mark.parametrize("q", ["2", "3", "1/2", "5/3"])
@pytest.mark.parametrize(
    "alpha,beta",
    [
        ((1,), ()),
        ((), (1,)),
        (("1/2", "1/2"), ()),
        (("1/2",), ("1/2",)),
        (("2/3", "1/6"), ("1/6",)),
    ],
)
def test_series_identity(q, alpha, beta):
    p = params(q, alpha=alpha, beta=beta)
    assert series_from_traces(p, 8) == generating_series(p, 8)


# ---------------------------------------------------------------------------
# diagonal route


def test_delta_eigenvalue_examples():
    q = F(7, 2)
    assert delta_eigenvalue((1, 1), q) == q
    assert delta_eigenvalue((-1, -1), q) == -1
    assert delta_eigenvalue((1, 2), q) == q - 1


def test_delta_eigenvalue_mixed():
    q = F(2)
    # two negative blocks and one positive block: (q-1)^2, sign from
    # multiplicities 2 and 1, q-power from multiplicity 3
    assert delta_eigenvalue((-3, -3, -1, 2, 2, 2), q) == (-1) * q**2 * (q - 1) ** 2


def test_delta_eigenvalue_validation():
    with pytest.raises(ValueError):
        delta_eigenvalue((2, 1), 2)
    with pytest.raises(ValueError):
        delta_eigenvalue((0, 1), 2)
    with pytest.raises(ValueError):
        delta_eigenvalue((), 2)


def test_diagonal_route_examples():
    assert zeta_trace_diagonal(2, P_FLAT) == F(5, 4)
    for p in (P_FLAT, P_SIGN, P_MIX):
        assert zeta_trace_diagonal(1, p) == 1
    assert zeta_trace_diagonal(3, P_TRIV) == 4


def test_diagonal_route_guards():
    with pytest.raises(ValueError):
        zeta_trace_diagonal(2, params(2, alpha=("1/2",), gamma="1/2"))
    for p in (params(1, alpha=(1,)), params(1, alpha=("1/2",), beta=("1/3", "1/6"))):
        for m in range(1, 7):
            assert zeta_trace_diagonal(m, p) == thoma_trace(m, p)


def test_diagonal_disagreement_names_the_parameters(monkeypatch):
    monkeypatch.setattr(traces, "_zeta_by_exponents", lambda m, p, q: F(7))
    with pytest.raises(CrossCheckError, match=r"m=2, params \{'q': '2', 'alpha': \['1/2', '1/2'\]"):
        zeta_trace_diagonal(2, P_FLAT)


@pytest.mark.parametrize("q", ["2", "3", "1/2"])
@pytest.mark.parametrize(
    "alpha,beta",
    [
        ((1,), ()),
        ((), (1,)),
        (("1/2", "1/2"), ()),
        (("1/2",), ("1/2",)),
        (("2/3", "1/6"), ("1/6",)),
    ],
)
def test_diagonal_route_agrees_with_formula(q, alpha, beta):
    p = params(q, alpha=alpha, beta=beta)
    for m in range(1, 7):
        assert zeta_trace_diagonal(m, p) == zeta_trace(m, p)


# ---------------------------------------------------------------------------
# every applicable route on random parameters


@st.composite
def random_params(draw):
    """Valid (alpha, beta, gamma) with up to 2 alpha and 2 beta weights and
    an optional positive gamma, and a q > 0, with q = 1 drawn as a branch of
    its own."""
    n_alpha = draw(st.integers(0, 2))
    n_beta = draw(st.integers(0, 2))
    n_gamma = draw(st.integers(0 if n_alpha + n_beta else 1, 1))
    size = n_alpha + n_beta + n_gamma
    raw = draw(st.lists(st.integers(1, 6), min_size=size, max_size=size))
    weights = [F(r, sum(raw)) for r in raw]
    alpha = sorted(weights[:n_alpha], reverse=True)
    beta = sorted(weights[n_alpha : n_alpha + n_beta], reverse=True)
    gamma = weights[-1] if n_gamma else 0
    q = draw(st.one_of(st.just(F(1)), st.fractions(F(1, 5), 5, max_denominator=6)))
    return TraceParams(q=q, alpha=alpha, beta=beta, gamma=gamma)


@settings(max_examples=50, deadline=None)
@given(p=random_params())
def test_all_routes_agree_on_random_parameters(p):
    for m in range(1, 9):
        value = zeta_trace(m, p)
        assert value == (thoma_trace(m, p) if p.q == 1 else paper_partition_sum(m, p))
        if p.gamma == 0:
            assert zeta_trace_diagonal(m, p) == value
            if m <= 4 and len(p.alpha) + len(p.beta) <= 2:
                slots = max(m, 2)
                ctx = ModelContext.create(p, slots=slots)
                assert matrix_element(ctx, zeta_interval(1, m, rank=slots)) == value


# ---------------------------------------------------------------------------
# the integer routes against their Fraction oracles


def cycle_values_by_fractions(m, p):
    """The recurrence k chi_k = [k]_q p_k + (q-1) sum_{j<k} [j]_q p_j chi_{k-j}
    run step by step in Fraction; the oracle for the integer route
    traces._cycle_values."""
    q = p.q
    weighted = []  # weighted[k-1] = [k]_q p_k
    q_int = F(0)
    for k in range(1, m + 1):
        q_int = q_int * q + 1
        weighted.append(q_int if k == 1 else q_int * super_newton(k, p))
    chi = []
    for k in range(1, m + 1):
        tail = sum((weighted[j - 1] * chi[k - j - 1] for j in range(1, k)), F(0))
        chi.append((weighted[k - 1] + (q - 1) * tail) / k)
    return chi


def linear_fraction_by_fractions(b, c, order):
    """(1 + b z)/(1 + c z) to the given order: the coefficient of z^k for
    k >= 1 is (-c)^(k-1) (b - c)."""
    return PowerSeries(order, [F(1)] + [(-c) ** (k - 1) * (b - c) for k in range(1, order + 1)])


def generating_series_by_fractions(p, order):
    """The product formula for G(z) expanded factor by factor in Fraction
    in the variable z itself; the oracle for the integer expansion in
    u = z/(b d) of traces.generating_series."""
    q = p.q
    out = PowerSeries.one(order)
    for b in p.beta:
        if b != 0:
            out = series_mul(out, linear_fraction_by_fractions(b * q, b, order))
    for a in p.alpha:
        if a != 0:
            out = series_mul(out, linear_fraction_by_fractions(-a, -a * q, order))
    return out


# pure-alpha, pure-beta and mixed profiles at gamma = 0, 1/3 and 1, one of
# them with a zero weight entry
ORACLE_PROFILES = [
    (("1/2", "0"), ("1/2",), 0),
    (("2/3", "1/3"), (), 0),
    ((), ("3/4", "1/4"), 0),
    (("1/3",), ("1/3",), "1/3"),
    (("2/3",), (), "1/3"),
    ((), ("1/2", "1/6"), "1/3"),
    ((), (), 1),
]


@pytest.mark.parametrize("q", ["1", "2", "4", "1/3", "5/3"])
@pytest.mark.parametrize("alpha,beta,gamma", ORACLE_PROFILES)
def test_integer_routes_equal_the_fraction_oracles(q, alpha, beta, gamma):
    p = params(q, alpha=alpha, beta=beta, gamma=gamma)
    assert traces._cycle_values(0, p) == []
    chi = traces._cycle_values(40, p)
    assert chi == cycle_values_by_fractions(40, p)
    for m, value in enumerate(chi[:14], start=1):
        assert value == (thoma_trace(m, p) if p.q == 1 else paper_partition_sum(m, p))
    if p.gamma == 0:
        for order in (0, 1, 40):
            got = generating_series(p, order)
            assert got == generating_series_by_fractions(p, order)
            assert got == series_from_traces(p, order)


@settings(max_examples=40, deadline=None)
@given(p=random_params().filter(lambda p: p.gamma == 0))
def test_gamma0_values_are_integers_over_one_denominator(p):
    # trace values lie in Z[q, alpha, beta], of degree m-1 in q and
    # homogeneous of degree m in the weights
    b = p.q.denominator
    d = lcm(*(w.denominator for w in (*p.alpha, *p.beta)))
    for m, value in enumerate(traces._cycle_values(30, p), start=1):
        assert (value * b ** (m - 1) * d**m).denominator == 1
    for k, c in enumerate(generating_series(p, 30).coeffs):
        assert (c * (b * d) ** k).denominator == 1


# the Fraction bodies of the two diagonal-sum strategies, kept as the
# oracles of the integer sums in traces


def weights_by_index(alpha, beta):
    """{i: a_i} over the nonzero weights, alpha_j at j and beta_j at -j."""
    weights = {j: a for j, a in enumerate(alpha, 1) if a}
    weights.update({-j: b for j, b in enumerate(beta, 1) if b})
    return weights


def zeta_by_tuples_by_fractions(m, p, q):
    """sum over the nondecreasing tuples I of nonzero-weight indices of
    delta_eigenvalue(I, q) prod_k a_(I_k), one Fraction per tuple."""
    weights = weights_by_index(p.alpha, p.beta)
    total = F(0)
    for tup in combinations_with_replacement(sorted(weights), m):
        total += delta_eigenvalue(tup, q) * prod(map(weights.__getitem__, tup))
    return total


def zeta_by_exponents_by_fractions(m, p, q):
    """The same sum over exponent vectors: each nonzero block contributes
    -(-beta_i)^phi_i resp. (q alpha_j)^psi_j / q, and r nonzero blocks
    (q-1)^(r-1), in Fraction."""
    betas = [b for b in p.beta if b != 0]
    alphas = [a for a in p.alpha if a != 0]
    total = F(0)
    for combo in traces._compositions(m, len(betas) + len(alphas)):
        phi, psi = combo[: len(betas)], combo[len(betas):]
        term = (q - 1) ** (sum(1 for e in combo if e) - 1)
        for b, e in zip(betas, phi):
            if e:
                term *= -((-b) ** e)
        for a, e in zip(alphas, psi):
            if e:
                term *= (q * a) ** e / q
        total += term
    return total


@settings(max_examples=40, deadline=None)
@given(p=random_params().filter(lambda p: p.gamma == 0))
def test_diagonal_strategies_are_integers_over_one_denominator(p):
    # both sums lie in Z[q, alpha, beta], of degree m-1 in q and homogeneous
    # of degree m in the weights, so b^(m-1) d^m times each is an integer;
    # the integer strategies equal their Fraction oracles
    b = p.q.denominator
    d = lcm(*(w.denominator for w in (*p.alpha, *p.beta)))
    for m in range(1, 8):
        scale = b ** (m - 1) * d**m
        by_tuples = zeta_by_tuples_by_fractions(m, p, p.q)
        by_exponents = zeta_by_exponents_by_fractions(m, p, p.q)
        assert by_tuples == by_exponents
        assert (by_tuples * scale).denominator == 1
        assert traces._zeta_by_tuples(m, p, p.q) == by_tuples
        assert traces._zeta_by_exponents(m, p, p.q) == by_exponents


def test_one_weight_function_per_parameter_record():
    # the record keeps its weights by index once (numerators_by_index), and
    # zeta_trace_diagonal and every model of the record read them there;
    # extra indices of weight 0 widen a model's support, not the record
    p = TraceParams(q=F(2), alpha=(F(2, 3), F(1, 6)), beta=(F(1, 6),))
    by_index = p.numerators_by_index
    assert by_index == (6, {-1: 1, 1: 4, 2: 1})
    for m in range(1, 5):
        zeta_trace_diagonal(m, p)
    ctx = ModelContext.create(p, 3)
    assert ctx.support == (-1, 1, 2) and ctx.numerators == by_index
    widened = ModelContext.create(p, 3, extra_indices=(3, 1, 3))
    assert widened.support == (-1, 1, 2, 3)
    assert widened.numerators == (6, {-1: 1, 1: 4, 2: 1, 3: 0})
    assert [widened.weight(i) for i in (-2, -1, 1, 2, 3)] == [0, F(1, 6), F(2, 3), F(1, 6), 0]
    assert p.numerators_by_index is by_index


def _mutated(fn, old, new):
    """fn recompiled from its source with the one occurrence of old replaced
    by new, in the globals of its module."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    code = compile(source.replace(old, new), inspect.getsourcefile(fn), "exec")
    namespace = {}
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__]


@pytest.mark.parametrize("strategy", ["_zeta_by_tuples", "_zeta_by_exponents"])
def test_a_wrong_power_of_a_minus_b_in_one_strategy_raises(monkeypatch, strategy):
    # (q - 1)^r for (q - 1)^(r - 1) in one integer sum: the other strategy
    # catches it at every m, for a - b = 2, -2 and 2
    wrong = _mutated(getattr(traces, strategy), "(a - b) ** (r - 1)", "(a - b) ** r")
    monkeypatch.setattr(traces, strategy, wrong)
    for q in ("3", "1/3", "5/3"):
        p = params(q, alpha=("2/3", "1/6"), beta=("1/6",))
        for m in range(1, 6):
            with pytest.raises(CrossCheckError, match=f"disagree at m={m}, params"):
                zeta_trace_diagonal(m, p)


def test_zeta_trace_forms_one_fraction(monkeypatch):
    # zeta_trace divides out chi_m only; series_from_traces still gets every
    # value, each formed once
    p = params("5/4", alpha=("1/2", "1/4"), beta=("1/4",))
    want = cycle_values_by_fractions(30, p)
    made = []
    original = traces.Fraction

    class Counted(original):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return original(*args, **kwargs)

    monkeypatch.setattr(traces, "Fraction", Counted)
    value = zeta_trace(30, p)
    assert len(made) == 1 and value == want[-1]
    made.clear()
    assert traces._cycle_values(30, p) == want
    assert len(made) == 30
