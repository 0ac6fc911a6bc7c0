"""The R-matrix tensor model and its evaluation paths."""

from fractions import Fraction as F
from itertools import product as cartesian
from math import factorial, lcm, prod
from random import Random
from time import perf_counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hecketrace import tensor
from hecketrace.hecke import HeckeElement, mul, zeta_interval, zeta_partition
from hecketrace.permutations import (
    all_perms,
    compose,
    cycles,
    identity,
    inverse,
    length,
    reduced_word,
)
from hecketrace.scalars import CrossCheckError, QPoly, RootElem, SqrtTable, sparse_sum
from hecketrace.suites import default_profiles, profile_params
from hecketrace.tensor import (
    ModelContext,
    TensorState,
    apply_hecke,
    apply_r,
    bimodule_checks,
    diag_coeff,
    diagonal_zeta,
    gram_matrix,
    ldlt_pivots,
    matrix_element,
    normal_form,
    omega_trace,
    r_matrix_laws,
    xi_state,
)
from hecketrace.traces import TraceParams, partition_trace, thoma_trace, zeta_trace


def params(q, alpha=(), beta=()):
    return TraceParams(
        q=F(q), alpha=tuple(F(a) for a in alpha), beta=tuple(F(b) for b in beta)
    )


P_FLAT = params(2, alpha=("1/2", "1/2"))
P_TRIV = params(2, alpha=(1,))
P_SIGN = params(2, beta=(1,))
P_MIX = params(2, alpha=("1/2",), beta=("1/2",))
P_WIDE = params(2, alpha=("2/3", "1/6"), beta=("1/6",))
# two beta weights: the walks meet the indices -1 and -2 side by side
P_TWO_BETA = params(2, alpha=("1/2",), beta=("1/3", "1/6"))

# P1-P5, P5 with an extra index of weight 0, and the two-beta profile with
# one: the models on which the integer routes are compared with the
# RootElem action
ORACLE_MODELS = [(name, alpha, beta, ()) for name, alpha, beta in default_profiles()] + [
    ("P5_zero_weight", P_WIDE.alpha, P_WIDE.beta, (3,)),
    ("two_beta_zero_weight", P_TWO_BETA.alpha, P_TWO_BETA.beta, (-3,)),
]
ORACLE_QS = ["2", "2/3", "1", "9/4"]


def test_create_rejects_gamma_and_the_index_zero():
    with pytest.raises(ValueError, match="require gamma = 0"):
        ModelContext.create(TraceParams(q=F(2), alpha=(F(1, 2),), gamma=F(1, 2)), 3)
    with pytest.raises(ValueError, match="index 0 is not allowed"):
        ModelContext.create(P_WIDE, 3, extra_indices=(3, 0))
    with pytest.raises(ValueError, match="need at least one slot"):
        ModelContext.create(P_WIDE, 0)


def test_equal_models_hash_equal_and_share_a_dict_key():
    # the fields are (params, slots, support): extra indices given twice, in
    # another order or already in the support name the same model, and the
    # integer model cached on one of them does not enter its hash
    a = ModelContext.create(P_WIDE, 3, extra_indices=(3, -2, 1, 3))
    b = ModelContext.create(params(2, alpha=("2/3", "1/6"), beta=("1/6",)), 3, (-2, 3))
    a.walk
    assert a == b and hash(a) == hash(b) and a is not b
    assert {a: "model"}[b] == "model"
    assert len({a, b, ModelContext.create(P_WIDE, 3)}) == 2


def oracle_context(model, q, slots):
    _, alpha, beta, extra = model
    return ModelContext.create(TraceParams(q=F(q), alpha=alpha, beta=beta), slots, extra)


def random_state(ctx, rng: Random, terms: int = 4) -> TensorState:
    support = ctx.support
    n = ctx.slots
    out = {}
    for _ in range(terms):
        ti = tuple(rng.choice(support) for _ in range(n))
        tj = tuple(rng.choice(support) for _ in range(n))
        out[(ti, tj)] = ctx.table.from_rational(F(rng.randrange(-3, 4), rng.randrange(1, 3)))
    return TensorState(ctx.table, out)


def _homogeneous(value: RootElem, grade: int) -> F:
    """The coefficient phi of a RootElem oracle value phi sqrt(q)^grade,
    asserting that the value has no other component."""
    root = frozenset({tensor._SQRT_Q}) if grade else frozenset()
    assert set(value.comps) <= {root}, (value, grade)
    return value.comps.get(root, F(0))


def _pure_rational(value: RootElem) -> F:
    """The rational value of a RootElem oracle value, asserting that every
    root component cancels."""
    return _homogeneous(value, 0)


# ---------------------------------------------------------------------------
# the distinguished state


def test_xi_single_weight():
    ctx = ModelContext.create(P_TRIV, slots=3)
    xi = xi_state(ctx)
    assert list(xi.terms) == [((1, 1, 1), (1, 1, 1))]
    # a_1 = 1 on three slots: sqrt_a1 cubed is sqrt_a1, not 1
    assert xi.terms[((1, 1, 1), (1, 1, 1))] == ctx.table.sqrt("sqrt_a1")


@pytest.mark.parametrize("p", [P_FLAT, P_TRIV, P_SIGN, P_MIX, P_WIDE])
def test_xi_is_a_unit_vector(p):
    ctx = ModelContext.create(p, slots=3)
    xi = xi_state(ctx)
    assert xi.inner(xi) == ctx.table.one()


def test_xi_flat_pair_coefficients():
    ctx = ModelContext.create(P_FLAT, slots=2)
    xi = xi_state(ctx)
    assert len(xi.terms) == 4
    # diagonal pairs square the root: rational 1/2
    assert xi.terms[((1, 1), (1, 1))] == ctx.table.from_rational(F(1, 2))
    # mixed pairs stay formal: sqrt(a_1) sqrt(a_2)
    mixed = xi.terms[((1, 2), (1, 2))]
    assert mixed.rational_part() == (F(0), False)
    assert mixed == ctx.sqrt_weight(1) * ctx.sqrt_weight(2)


def _xi_by_tuples(ctx):
    """Oracle for xi_state: each coefficient as the product of its slot
    roots, formed afresh for every tuple."""
    live = [i for i in ctx.support if ctx.weight(i) != 0]
    terms = {}
    for tup in cartesian(live, repeat=ctx.slots):
        coeff = ctx.table.one()
        for i in tup:
            coeff = coeff * ctx.sqrt_weight(i)
        terms[(tup, tup)] = coeff
    return TensorState(ctx.table, terms)


@pytest.mark.parametrize(
    "p,extra",
    [
        (P_WIDE, ()),
        (P_MIX, ()),
        (params(2, alpha=("1/2", "1/4"), beta=("1/4",)), ()),  # square weights
        (P_FLAT, (5, -2)),
    ],
    ids=["wide", "mix", "square_weight", "zero_weight_extras"],
)
@pytest.mark.parametrize("slots", [1, 2, 4])
def test_xi_by_slot_products_equals_per_tuple_products(p, extra, slots):
    ctx = ModelContext.create(p, slots, extra)
    xi = xi_state(ctx)
    assert xi == _xi_by_tuples(ctx)
    assert len(xi.terms) == len(p.alpha + p.beta) ** slots
    assert not any(i in extra for ti, _ in xi.terms for i in ti)


def test_xi_keeps_a_square_weight_formal():
    ctx = ModelContext.create(params(2, alpha=("3/4", "1/4")), slots=2)
    xi = xi_state(ctx)
    assert xi.terms[((2, 2), (2, 2))] == ctx.table.from_rational(F(1, 4))
    assert xi.terms[((1, 2), (1, 2))] == ctx.table.sqrt("sqrt_a1") * ctx.table.sqrt(
        "sqrt_a2"
    )


# ---------------------------------------------------------------------------
# R action on states


def test_r_on_equal_positive_pair():
    ctx = ModelContext.create(P_FLAT, slots=2)
    eta = TensorState(ctx.table, {((1, 1), (2, 2)): ctx.table.one()})
    got = apply_r(ctx, 1, "left", eta)
    assert got == eta.scale(ctx.q)


def test_r_on_equal_negative_pair():
    ctx = ModelContext.create(P_MIX, slots=2)
    eta = TensorState(ctx.table, {((-1, -1), (1, 1)): ctx.table.one()})
    assert apply_r(ctx, 1, "left", eta) == eta.scale(F(-1))


def test_r_on_increasing_pair():
    ctx = ModelContext.create(P_FLAT, slots=2)
    eta = TensorState(ctx.table, {((1, 2), (1, 1)): ctx.table.one()})
    got = apply_r(ctx, 1, "left", eta)
    want = TensorState(
        ctx.table,
        {
            ((1, 2), (1, 1)): ctx.table.from_rational(ctx.q - 1),
            ((2, 1), (1, 1)): -ctx.sqrt_q(),
        },
    )
    assert got == want


def test_r_right_side_acts_on_second_row():
    ctx = ModelContext.create(P_FLAT, slots=2)
    eta = TensorState(ctx.table, {((1, 1), (1, 2)): ctx.table.one()})
    got = apply_r(ctx, 1, "right", eta)
    want = TensorState(
        ctx.table,
        {
            ((1, 1), (1, 2)): ctx.table.from_rational(ctx.q - 1),
            ((1, 1), (2, 1)): -ctx.sqrt_q(),
        },
    )
    assert got == want


@pytest.mark.parametrize("p", [P_FLAT, P_MIX, P_WIDE])
@pytest.mark.parametrize("side", ["left", "right"])
def test_r_quadratic_on_random_states(p, side):
    ctx = ModelContext.create(p, slots=3)
    rng = Random(42)
    for _ in range(5):
        state = random_state(ctx, rng)
        twice = apply_r(ctx, 2, side, apply_r(ctx, 2, side, state))
        once = apply_r(ctx, 2, side, state)
        assert twice == once.scale(ctx.q - 1) + state.scale(ctx.q)


def test_slot_bounds():
    ctx = ModelContext.create(P_FLAT, slots=2)
    with pytest.raises(ValueError):
        apply_r(ctx, 2, "left", xi_state(ctx))
    with pytest.raises(ValueError):
        apply_r(ctx, 1, "middle", xi_state(ctx))


# ---------------------------------------------------------------------------
# lifting Hecke elements


def test_lift_unit_is_identity():
    ctx = ModelContext.create(P_WIDE, slots=2)
    xi = xi_state(ctx)
    assert apply_hecke(ctx, HeckeElement.unit(2), "left", xi) == xi


def test_lift_respects_quadratic_relation():
    ctx = ModelContext.create(P_FLAT, slots=2)
    xi = xi_state(ctx)
    t1 = HeckeElement.generator(1, 2)
    twice = apply_hecke(ctx, t1, "left", apply_hecke(ctx, t1, "left", xi))
    combo = t1.scale(F(2) - 1) + HeckeElement.unit(2).scale(F(2))
    assert twice == apply_hecke(ctx, combo, "left", xi)


def test_lift_rank_guard():
    ctx = ModelContext.create(P_FLAT, slots=2)
    with pytest.raises(ValueError):
        apply_hecke(ctx, HeckeElement.unit(3), "left", xi_state(ctx))
    with pytest.raises(ValueError):
        matrix_element(ctx, HeckeElement.unit(3))


@pytest.mark.parametrize(
    "p,extra",
    [(P_MIX, ()), (P_WIDE, ()), (P_MIX, (2, -2)), (P_TWO_BETA, ())],
    ids=["pair", "three_mixed", "pair_zero_weight_extras", "two_beta"],
)
@pytest.mark.parametrize("q", ["2", "1/3", "1", "3/2"])
@pytest.mark.parametrize("rank", [3, 4])
def test_matrix_element_equals_one_walk_inner_product(rank, q, p, extra):
    # the closed integer walk against the one-walk oracle <T_w Xi, Xi> on
    # RootElem states
    ctx = ModelContext.create(TraceParams(q=F(q), alpha=p.alpha, beta=p.beta), rank, extra)
    xi = xi_state(ctx)

    def one_walk(x):
        return _pure_rational(apply_hecke(ctx, x, "left", xi).inner(xi))

    for w in all_perms(rank):
        x = HeckeElement.basis(w)
        assert matrix_element(ctx, x) == one_walk(x)
    # T_w T_s = (q-1) T_w + q T_ws when l(ws) < l(w); the first coefficient
    # vanishes at q = 1
    t3 = HeckeElement.generator(rank - 1, rank)
    x = mul(HeckeElement.basis(tuple(range(rank, 0, -1))), t3)
    assert len(x.terms) == 2
    assert matrix_element(ctx, x) == one_walk(x)


@pytest.mark.parametrize("q", ["2", "1/3", "1"])
@pytest.mark.parametrize("profile", default_profiles(), ids=lambda p: p[0])
def test_r_matrix_is_symmetric(profile, q):
    # the premise of the adjoint step in matrix_element and gram_matrix:
    # the coefficient of (x', y') in R(x, y) is that of (x, y) in R(x', y')
    ctx = ModelContext.create(profile_params(profile, F(q)), 2, extra_indices=(7, -7))
    coeff = {(src, img): (k, v) for src, rows in ctx.r_matrix.items() for img, k, v in rows}
    assert all(coeff.get((img, src)) == c for (src, img), c in coeff.items())


@pytest.mark.parametrize("q", ORACLE_QS)
def test_r_matrix_rows_read_back_as_the_r_of_the_module_docstring(q):
    # the rows (image, k, v) of b R, read back as R = (b R) / b with t^k / b
    # = 1 / b or sqrt(q), against R written out: q on (x, x) for x > 0, -1
    # on (x, x) for x < 0, and on x != y -sqrt(q) (y, x) plus (q - 1) (x, y)
    # when x < y; a zero coefficient has no row
    q = F(q)
    ctx = ModelContext.create(TraceParams(q=q, alpha=P_WIDE.alpha, beta=P_WIDE.beta), 2, (3, -2))
    assert {ctx.weight(i) > 0 for i in ctx.support} == {True, False} and min(ctx.support) < 0
    assert ctx.r_matrix is ctx.r_matrix
    b = q.denominator
    for x, y in cartesian(ctx.support, repeat=2):
        # each image as (rational coefficient, coefficient of sqrt(q))
        if x == y:
            want = {(x, x): (q if x > 0 else F(-1), 0)}
        else:
            want = {(y, x): (0, -1), (x, y): (q - 1 if x < y else 0, 0)}
        want = {image: c for image, c in want.items() if c != (0, 0)}
        got = {}
        for image, k, v in ctx.r_matrix[x, y]:
            assert image not in got and type(v) is int, (x, y, image)
            got[image] = (0, v) if k == 1 else (F(v, b), 0)
        assert got == want, (x, y)


def test_matrix_element_purity_guard_names_the_parameters(monkeypatch):
    # the message names the element, whose repr is formed only on failure
    shown = []
    show = HeckeElement.__repr__
    monkeypatch.setattr(HeckeElement, "__repr__", lambda x: shown.append(x) or show(x))
    x = HeckeElement.generator(1, 2)
    assert matrix_element(ModelContext.create(P_FLAT, slots=2), x) == F(5, 4)
    assert shown == []
    ctx = ModelContext.create(P_FLAT, slots=2)
    ctx.r_matrix[(1, 1)] = [((1, 1), 1, 1)]  # R(1, 1) = sqrt(q), and b = 1
    with pytest.raises(CrossCheckError) as err:
        matrix_element(ctx, x)
    message = str(err.value)
    assert message.startswith("matrix element of T[2,1] has non-cancelling")
    assert str(P_FLAT.to_record()) in message and "2 slots" in message


def _record_closed_walks(monkeypatch) -> list:
    """A list that gets (model, steps) for every closed walk from now on."""
    walked = []
    closed_walk = tensor._closed_walk

    def recorded(ctx, walk, steps):
        walked.append((ctx, tuple(steps)))
        return closed_walk(ctx, walk, steps)

    monkeypatch.setattr(tensor, "_closed_walk", recorded)
    return walked


def test_matrix_element_walks_each_word_once_per_model(monkeypatch):
    walked = _record_closed_walks(monkeypatch)
    ctx = ModelContext.create(P_WIDE, slots=4)
    x = mul(HeckeElement.basis((3, 4, 1, 2)), HeckeElement.basis((4, 3, 2, 1)))
    value = matrix_element(ctx, x)
    assert len(walked) == len(x.terms) > 1
    assert all(model is ctx for model, _ in walked)
    # the same element again walks nothing; beside one new term, only that
    # term's word; and the new term at a lower rank has the same word
    walked.clear()
    assert matrix_element(ctx, x) == value
    assert walked == []
    s1 = HeckeElement.generator(1, 4)
    assert not set(s1.terms) & set(x.terms)
    matrix_element(ctx, x + s1)
    assert walked == [(ctx, (1,))]
    matrix_element(ctx, HeckeElement.generator(1, 3))
    assert walked == [(ctx, (1,))]
    # an equal model keeps its own memo and walks every word itself
    walked.clear()
    twin = ModelContext.create(P_WIDE, slots=4)
    assert twin == ctx and hash(twin) == hash(ctx)
    assert matrix_element(twin, x) == value
    assert len(walked) == len(x.terms) and all(model is twin for model, _ in walked)


def test_bimodule_gram_identity_walks_each_word_once(monkeypatch):
    # the five Hecke products of the gram identity share most of their
    # terms on the one model of the checks
    walked = _record_closed_walks(monkeypatch)
    ctx = ModelContext.create(P_FLAT, slots=4)
    results = bimodule_checks(ctx, Random(2026))
    assert all(r.passed for r in results)
    steps = [s for _, s in walked]
    assert len(steps) == len(set(steps)) <= factorial(4)


@pytest.mark.parametrize("q", ["1", "4", "2", "9/4", "1/4"])
def test_rationality_check_holds_at_square_q(q):
    # R(2, 2) becomes (q - 1 + sqrt(q)) (2, 2), which equals the true image
    # q (2, 2) at q = 1 if sqrt(q) were read as the rational root; a formal
    # sqrt(q) leaves a root component that must not cancel at any q, also
    # when the walk reads it as t = b sqrt(q) with b > 1 (at 9/4, t^2 = 36
    # is itself a square); the normal form meets it as an entry of the
    # identity table at t^1, off its grade.  In b R, for q = a/b, the image
    # is (a - b) t^0 + 1 t^1.
    q = F(q)
    p = params(q, alpha=("2/3", "1/6"), beta=("1/6",))
    x = HeckeElement.generator(1, 3)
    routes = {
        "matrix element": lambda ctx: matrix_element(ctx, x),
        "normal form": lambda ctx: omega_trace(ctx, normal_form(ctx, x)),
        "diagonal route for m=2": lambda ctx: diagonal_zeta(ctx, 2),
        "trace-property matrix element": lambda ctx: bimodule_checks(ctx, Random(2026), 10, 5, 3),
    }
    for route, evaluate in routes.items():
        ctx = ModelContext.create(p, slots=3)
        ctx.r_matrix[(2, 2)] = [((2, 2), 0, q.numerator - q.denominator), ((2, 2), 1, 1)]
        with pytest.raises(CrossCheckError) as err:
            evaluate(ctx)
        message = str(err.value)
        assert route in message
        assert f"'q': '{q}'" in message and "3 slots" in message


def test_integer_terms_stay_exact_at_int_coefficients():
    # at an int q every coefficient evaluates to an int, here one above
    # 2^53, where a true division would round
    big = 3**40 + 1
    x = HeckeElement(3, {(2, 3, 1): QPoly([big]), (1, 2, 3): QPoly([1, big])})
    terms, denom = tensor._integer_terms(SimpleNamespace(q=7), x)
    assert denom == 1
    assert sorted(terms) == [([], 1 + 7 * big), ([1, 2], big)]
    assert all(type(f) is int for _, f in terms)


@pytest.mark.parametrize("q", ["1", "2", "1/3", "9/4", "5/7"])
def test_integer_terms_equal_the_coefficients_evaluated_at_q(q):
    # the oracle is poly(q) / b^l(w) in Fraction; the element has Fraction
    # coefficients, an int one above 2^53 and the term (q - 1) T_w, which
    # cancels at q = 1 and must then be dropped
    q = F(q)
    big = 3**40 + 1
    x = HeckeElement(
        4,
        {
            (1, 2, 3, 4): QPoly([F(1, 6), 0, F(-3, 4), F(2, 9)]),
            (2, 1, 3, 4): QPoly([-1, 1]),
            (4, 3, 2, 1): QPoly([big, F(1, 3), -big]),
            (1, 3, 2, 4): QPoly([F(5, 2), F(-7, 10)]),
        },
    )
    terms, denom = tensor._integer_terms(SimpleNamespace(q=q), x)
    assert type(denom) is int and all(type(f) is int for _, f in terms)
    got = {tuple(word): F(f, denom) for word, f in terms}
    b = q.denominator
    want = {}
    for w, poly in x.terms.items():
        word = reduced_word(w)
        if poly(q) != 0:
            want[tuple(word)] = poly(q) / b ** len(word)
    assert got == want
    assert len(terms) == len(want) == (3 if q == 1 else 4)
    # one denominator, the least one over which every term is an int
    assert denom == lcm(*(c.denominator for c in want.values()))


def matrix_element_by_midpoint_split(ctx, x):
    """Oracle for matrix_element: each term c T_w as c <T_v Xi, T_u* Xi>
    for w = u v split at the midpoint of a reduced word, two half-length
    integer walks from the unweighted diagonal Xi_1 paired with the weights
    n_J over the full |S|^slots width (R is symmetric, so T_u* acts as the
    adjoint of T_u)."""
    walk = ctx.walk
    xi1, nums, d_slots = ctx.unit_diagonal
    terms, denom = tensor._integer_terms(ctx, x)
    even = odd = 0
    for word, f in terms:
        h = len(word) // 2
        left = tensor._int_walk(walk, reversed(word[h:]), xi1)
        right = tensor._int_walk(walk, word[:h], xi1)
        e, o = tensor._pairing(walk, left, right, nums)
        even, odd = even + f * e, odd + f * o
    return tensor._rational(ctx, even, odd, denom * d_slots, f"matrix element of {x!r}")


def diagonal_zeta_by_pairing(ctx, m):
    """Oracle for diagonal_zeta: the diagonal rows walked at the slots 1,
    .., m - 1 from Xi_1 over the full width, paired with Xi_1."""
    walk = ctx.diagonal_walk
    xi1, nums, d_slots = ctx.unit_diagonal
    even, odd = tensor._pairing(walk, tensor._int_walk(walk, range(1, m), xi1), xi1, nums)
    return tensor._rational(ctx, even, odd, ctx.q.denominator ** (m - 1) * d_slots, "diagonal")


# P5, two beta weights, and P5 with an index of weight zero
CLOSED_WALK_MODELS = [
    ("P5", P_WIDE.alpha, P_WIDE.beta, ()),
    ("two_beta", P_TWO_BETA.alpha, P_TWO_BETA.beta, ()),
    ("P5_zero_weight", P_WIDE.alpha, P_WIDE.beta, (3,)),
]


@pytest.mark.parametrize("q", ["2", "1/3", "1"])
@pytest.mark.parametrize("model", CLOSED_WALK_MODELS, ids=lambda m: m[0])
def test_closed_walks_equal_the_full_width_oracles(model, q):
    # every cycle type of n <= 7 at rank 7, so the blocks leave up to six
    # slots untouched; the longest element of S_5, whose walk opens every
    # slot at once, and a two-term element; the diagonal route for m <= 6
    ctx = oracle_context(model, q, 7)
    for n in range(1, 8):
        for parts in _partitions(n):
            x = zeta_partition(parts, rank=7)
            assert matrix_element(ctx, x) == matrix_element_by_midpoint_split(ctx, x), parts
    for m in range(1, 7):
        assert diagonal_zeta(ctx, m) == diagonal_zeta_by_pairing(ctx, m), m
    ctx = oracle_context(model, q, 5)
    w0 = HeckeElement.basis((5, 4, 3, 2, 1))
    x = mul(w0, HeckeElement.generator(4, 5))
    assert len(x.terms) == 2
    for element in (w0, x):
        assert matrix_element(ctx, element) == matrix_element_by_midpoint_split(ctx, element)


@pytest.mark.parametrize(
    "p",
    [P_WIDE, params(2, alpha=("1/2", "1/4"), beta=("1/8", "1/8"))],
    ids=["three_weights", "four_weights"],
)
def test_no_walked_state_of_a_cycle_type_exceeds_three_slots(monkeypatch, p):
    # a cycle type walks each block slot by slot, so the state never holds
    # more than |S|^3 keys, where a walk over the full width starts from
    # |S|^7 of them
    sizes = []
    int_walk = tensor._int_walk

    def recorded(walk, slots, state):
        out = int_walk(walk, slots, state)
        sizes.extend((len(state), len(out)))
        return out

    monkeypatch.setattr(tensor, "_int_walk", recorded)
    for q in ("2", "1/3"):
        ctx = ModelContext.create(TraceParams(q=F(q), alpha=p.alpha, beta=p.beta), 7)
        for n in range(1, 8):
            for parts in _partitions(n):
                value = matrix_element(ctx, zeta_partition(parts, rank=7))
                assert value == partition_trace(parts, ctx.params)
    assert sizes and max(sizes) <= len(ctx.support) ** 3, max(sizes)


def _tuple_walk(table, ab, side, slots, state):
    """Oracle for the integer walk: b R from the rows of ctx.r_matrix on a
    state keyed by index tuples, {(I, J, k): coefficient} for coefficient
    t^k on eta[I; J], ab = t^2; the right action is the left walk on the
    keys (J, I, k)."""

    def transposed(state):
        return {(tj, ti, k): c for (ti, tj, k), c in state.items()}

    if side == "right":
        return transposed(_tuple_walk(table, ab, "left", slots, transposed(state)))
    for a in slots:
        j = a - 1
        out = {}
        for (ti, tj, k), c in state.items():
            head, tail = ti[:j], ti[j + 2 :]
            for image, k2, v in table[ti[j : j + 2]]:
                key = (head + image + tail, tj, k ^ k2)
                out[key] = out.get(key, 0) + (c * v * ab if k & k2 else c * v)
        state = {key: c for key, c in out.items() if c}
    return state


def _key_codec(ctx):
    """The key layout of the integer walks, written out: code(I) =
    sum_k pos(I_k) |S|^(k-1) for the position pos in the sorted support,
    and key = 2 (code(I) + |S|^slots code(J)) + k.  Returns (encode,
    decode) between keys and (I, J, k)."""
    support, n = ctx.support, ctx.slots
    size, span = len(support), len(support) ** n

    def code(tup):
        return sum(support.index(x) * size**k for k, x in enumerate(tup))

    def tup(code):
        return tuple(support[code // size**k % size] for k in range(n))

    def encode(ti, tj, k):
        return 2 * (code(ti) + span * code(tj)) + k

    def decode(key):
        code_j, code_i = divmod(key >> 1, span)
        return tup(code_i), tup(code_j), key & 1

    return encode, decode


@pytest.mark.parametrize("q", ["2", "2/3"])
@pytest.mark.parametrize("rank", [3, 4])
def test_int_keyed_walk_equals_the_tuple_keyed_walk(rank, q):
    # two beta weights and an extra index of weight 0, so the walk moves
    # -1 beside -2 and beside an index off the support of Xi; from every
    # basis tensor eta[I; I] and from a mixed state of both grades
    p = TraceParams(q=F(q), alpha=P_TWO_BETA.alpha, beta=P_TWO_BETA.beta)
    ctx = ModelContext.create(p, rank, extra_indices=(2,))
    assert ctx.support == (-2, -1, 1, 2)
    encode, decode = _key_codec(ctx)
    basis = {(tup, tup, 0): 1 for tup in cartesian(ctx.support, repeat=rank)}
    rng = Random(rank)
    mixed = {
        (tuple(rng.choices(ctx.support, k=rank)), tuple(rng.choices(ctx.support, k=rank)), k): c
        for k, c in zip([0, 1] * 20, range(1, 41))
    }
    walk = tensor._walk_of(ctx)
    for start in (basis, mixed):
        keyed = {encode(*key): c for key, c in start.items()}
        assert {decode(key): c for key, c in keyed.items()} == start
        for w in all_perms(rank):
            word = reduced_word(w)
            for side, shift in (("left", 0), ("right", rank)):
                got = tensor._nonzero_walk(walk, [a + shift for a in word], keyed)
                want = _tuple_walk(ctx.r_matrix, ctx.t_squared, side, word, start)
                assert {decode(key): c for key, c in got.items()} == want, (w, side)


def test_unit_diagonal_is_xi1_under_the_key_layout():
    ctx = ModelContext.create(P_TWO_BETA, 3, extra_indices=(2,))
    encode, decode = _key_codec(ctx)
    xi1, nums, d_slots = ctx.unit_diagonal
    live = [i for i in ctx.support if ctx.weight(i) != 0]
    assert xi1 == {encode(tup, tup, 0): 1 for tup in cartesian(live, repeat=3)}
    assert d_slots == 6**3
    for key in xi1:
        tup, _, _ = decode(key)
        assert nums[key // (2 * 4**3)] == prod(ctx.weight(i) * 6 for i in tup)


def test_walk_keys_on_the_two_betas_have_distinct_hashes():
    # hash(-1) == hash(-2) in CPython, so every index tuple over {-2, -1} of
    # one length shares one hash; the int keys of the walks do not collide
    assert hash(-1) == hash(-2)
    ctx = ModelContext.create(params(2, beta=("1/2", "1/2")), slots=6)
    assert ctx.support == (-2, -1)
    walk = tensor._walk_of(ctx)
    xi1, _, _ = ctx.unit_diagonal
    state = tensor._int_walk(walk, reversed(reduced_word((6, 5, 4, 3, 2, 1))), xi1)
    assert len(xi1) == 64 and len(state) > len(xi1)
    for keys in (xi1, state):
        assert all(type(key) is int for key in keys)
        assert len({hash(key) for key in keys}) == len(keys)
    _, decode = _key_codec(ctx)
    assert len({hash(decode(key)) for key in state}) < len(state) // 8


def _both_grade_states(ctx, rng):
    """A small state of random keys and the full basis sum_I eta[I; I],
    each at both grades with distinct coefficients, keyed by (I, J, k)."""
    n = ctx.slots
    small = {
        (tuple(rng.choices(ctx.support, k=n)), tuple(rng.choices(ctx.support, k=n)), k): c
        for k, c in zip([0, 1] * 10, range(1, 21))
    }
    tuples = cartesian(ctx.support, repeat=n)
    full = {(tup, tup, k): 2 * c + k + 1 for c, tup in enumerate(tuples) for k in (0, 1)}
    return small, full


def test_one_row_table_walks_every_slot_like_the_tuple_keyed_walk():
    # a 7-slot model on three indices: one step at each slot, on both
    # sides, from a small state and from the full basis
    ctx = ModelContext.create(params("2/3", alpha=("2/3", "1/6"), beta=("1/6",)), 7)
    assert len(ctx.support) == 3
    encode, decode = _key_codec(ctx)
    walk = ctx.walk
    small, full = _both_grade_states(ctx, Random(7))
    for start in (small, full):
        keyed = {encode(*key): c for key, c in start.items()}
        for side, shift in (("left", 0), ("right", 7)):
            for a in range(1, 7):
                got = tensor._nonzero_walk(walk, [a + shift], keyed)
                want = _tuple_walk(ctx.r_matrix, ctx.t_squared, side, [a], start)
                assert {decode(key): c for key, c in got.items()} == want, (len(start), side, a)


def test_walk_rows_do_not_depend_on_the_slot_count():
    # one row table of 2 |S|^2 lists serves every slot, at any width
    p = params("2/3", alpha=("2/3", "1/6"), beta=("1/6",))
    narrow, wide = (ModelContext.create(p, n) for n in (3, 8))
    for diagonal in (False, True):
        rows = tensor._walk_of(narrow, diagonal).rows
        assert tensor._walk_of(wide, diagonal).rows == rows
        assert [len(grade) for grade in rows] == [9, 9]
    # per grade: three equal pairs, three increasing pairs with q - 1 and
    # the swaps of the six unequal pairs
    assert sum(len(images) for grade in wide.walk.rows for images in grade) == 2 * (3 + 3 + 6)


def test_an_edited_r_matrix_row_reaches_a_step_at_the_last_slot():
    # the row of the pair (1, 2) is edited before the model's first walk;
    # a step at slot 6 of 7 applies the edited row, from a small state and
    # from the full basis
    ctx = ModelContext.create(params("2/3", alpha=("2/3", "1/6"), beta=("1/6",)), 7)
    edited = [((1, 2), 0, 5), ((2, 1), 1, -3), ((-1, 2), 0, 7)]
    ctx.r_matrix[1, 2] = edited
    encode, decode = _key_codec(ctx)
    small, full = _both_grade_states(ctx, Random(6))
    tail = (-1,) * 5
    small[tail + (1, 2), tail + (1, 2), 0] = 11
    for start in (small, full):
        keyed = {encode(*key): c for key, c in start.items()}
        got = {decode(key): c for key, c in tensor._int_walk(ctx.walk, [6], keyed).items()}
        assert got == _tuple_walk(ctx.r_matrix, ctx.t_squared, "left", [6], start)
        tj = tail + (1, 2)
        c = start[tail + (1, 2), tj, 0]
        assert got[tail + (-1, 2), tj, 0] == 7 * c
        assert got[tail + (2, 1), tj, 1] == -3 * c


def test_matrix_element_of_unit():
    for p in (P_FLAT, P_MIX, P_WIDE):
        ctx = ModelContext.create(p, slots=2)
        assert matrix_element(ctx, HeckeElement.unit(2)) == 1


def test_matrix_element_zeta2_flat():
    ctx = ModelContext.create(P_FLAT, slots=2)
    assert matrix_element(ctx, zeta_interval(1, 2)) == F(5, 4)


def test_matrix_element_length_two_words_at_trivial():
    # in the one-dimensional trace with alpha = (1), T_w evaluates to
    # q^length(w); both length-2 products in H_3 give 4 at q = 2
    ctx = ModelContext.create(P_TRIV, slots=3)
    t1t2 = mul(HeckeElement.generator(1, 3), HeckeElement.generator(2, 3))
    assert matrix_element(ctx, t1t2) == 4
    assert matrix_element(ctx, zeta_interval(1, 3)) == 4


@pytest.mark.parametrize("p", [P_FLAT, P_SIGN, P_MIX, P_WIDE])
def test_matrix_element_matches_formula(p):
    for m in range(1, 5):
        ctx = ModelContext.create(p, slots=max(m, 2))
        assert matrix_element(ctx, zeta_interval(1, m, rank=max(m, 2))) == zeta_trace(
            m, p
        )


def test_left_right_actions_commute_on_xi():
    ctx = ModelContext.create(P_MIX, slots=3)
    xi = xi_state(ctx)
    rng = Random(5)
    for _ in range(5):
        x = HeckeElement.basis(tuple(rng.sample(range(1, 4), 3)))
        y = HeckeElement.basis(tuple(rng.sample(range(1, 4), 3)))
        lr = apply_hecke(ctx, x, "left", apply_hecke(ctx, y, "right", xi))
        rl = apply_hecke(ctx, y, "right", apply_hecke(ctx, x, "left", xi))
        assert lr == rl


def test_truncation_exactness_zero_weight_index():
    # enlarging the support by a weight-0 index changes nothing
    base = ModelContext.create(P_FLAT, slots=3)
    wide = ModelContext.create(P_FLAT, slots=3, extra_indices=(5, -2))
    assert len(wide.support) == len(base.support) + 2
    for m in (2, 3):
        el = zeta_interval(1, m, rank=3)
        assert matrix_element(wide, el) == matrix_element(base, el)
    op = normal_form(wide, zeta_interval(1, 3, rank=3))
    assert omega_trace(wide, op) == matrix_element(base, zeta_interval(1, 3, rank=3))


# ---------------------------------------------------------------------------
# normal form and the cycle-sum evaluation


def _normal_form_by_composition(ctx, x):
    """Oracle for normal_form: the operator algebra on {sigma: table}
    normal forms, composing one generator operator per letter of each
    reduced word."""

    def operator(terms):
        tables = {sigma: sparse_sum(table) for sigma, table in dict(terms).items()}
        return {sigma: table for sigma, table in tables.items() if table}

    def identity_op():
        one = ctx.table.one()
        table = {tup: one for tup in cartesian(ctx.support, repeat=ctx.slots)}
        return operator({identity(ctx.slots): table})

    def compose_ops(left, right):
        # T(s)D(F) . T(t)D(G) = T(st) D(F o rho_t * G), with rho_t the
        # permutation action I -> I o t^{-1} on tuples
        out = {}
        for sigma, ftab in left.items():
            for tau, gtab in right.items():
                tinv = inverse(tau)
                pairs = out.setdefault(compose(sigma, tau), [])
                for i, g in gtab.items():
                    f = ftab.get(tuple(i[j - 1] for j in tinv))
                    if f is not None:
                        pairs.append((i, f * g))
        return operator(out)

    def generator_operator(m):
        n = ctx.slots
        r = tensor._reference_r(ctx)
        diag_table = {}
        swap_table = {}
        for tup in cartesian(ctx.support, repeat=n):
            pair = tup[m - 1 : m + 1]
            for image, coeff in r[pair]:
                (diag_table if image == pair else swap_table)[tup] = coeff
        swap = tuple(m + 1 if k == m else m if k == m + 1 else k for k in range(1, n + 1))
        return operator({identity(n): diag_table, swap: swap_table})

    out = {}
    for w, poly in x.terms.items():
        c = poly(ctx.q)
        if c == 0:
            continue
        op = identity_op()
        for a in reduced_word(w):
            op = compose_ops(op, generator_operator(a))
        for sigma, table in op.items():
            out.setdefault(sigma, []).extend((i, v * c) for i, v in table.items())
    return operator(out)


def _graded(op):
    """A normal form of RootElem tables as graded tables {sigma: {I: phi}},
    each entry asserted to be phi sqrt(q)^(l(sigma) mod 2)."""
    return {
        sigma: {tup: _homogeneous(v, length(sigma) % 2) for tup, v in table.items()}
        for sigma, table in op.items()
    }


def _entry(ctx, sigma, phi):
    """The RootElem Phi_sigma(I) = sqrt(q)^(l(sigma) mod 2) phi of a graded
    entry phi."""
    return ctx.sqrt_q() * phi if length(sigma) % 2 else ctx.table.from_rational(phi)


def _omega_by_cycle_tuples(ctx, op):
    """Oracle for omega_trace: for each permutation term, enumerate every
    index tuple constant on its cycles, weight it by prod_k a_{i_k} and
    look it up in the diagonal table."""
    acc = ctx.table.zero()
    for sigma, table in op.items():
        sigma_cycles = cycles(sigma)
        for values in cartesian(ctx.support, repeat=len(sigma_cycles)):
            img = [0] * ctx.slots
            weight = F(1)
            for cyc, v in zip(sigma_cycles, values):
                for pos in cyc:
                    img[pos - 1] = v
                weight *= ctx.weight(v) ** len(cyc)
            if weight == 0:
                continue
            phi = table.get(tuple(img))
            if phi is not None:
                acc = acc + _entry(ctx, sigma, phi * weight)
    return _pure_rational(acc)


def _apply_normal_form(ctx, op, state):
    """The operator sum_sigma T(sigma) D(Phi_sigma) of a graded normal form
    applied to a state."""

    def images():
        for sigma, table in op.items():
            sinv = inverse(sigma)
            for (ti, tj), c in state.terms.items():
                phi = table.get(ti)
                if phi is not None:
                    yield (tuple(ti[j - 1] for j in sinv), tj), c * _entry(ctx, sigma, phi)

    return TensorState(ctx.table, images())


def test_normal_form_of_unit():
    ctx = ModelContext.create(P_FLAT, slots=2)
    op = normal_form(ctx, HeckeElement.unit(2))
    assert set(op) == {identity(2)}
    assert all(v == 1 for v in op[identity(2)].values())


def test_normal_form_of_generator():
    ctx = ModelContext.create(P_FLAT, slots=2)
    op = normal_form(ctx, HeckeElement.generator(1, 2))
    swap = (2, 1)
    assert set(op) == {identity(2), swap}
    diag = op[identity(2)]
    assert diag[(1, 1)] == 2
    assert diag[(1, 2)] == 1  # q - 1
    assert (2, 1) not in diag  # decreasing pairs carry 0
    # the swap is odd, so its entries -1 stand for -sqrt(q)
    off = op[swap]
    assert off[(1, 2)] == -1
    assert off[(2, 1)] == -1
    assert (1, 1) not in off


# P5 and the (alpha, beta) pair P4, each with one extra index of weight 0,
# and the two-beta profile
NORMAL_FORM_MODELS = [(P_WIDE, (3,)), (P_MIX, (-2,)), (P_TWO_BETA, ())]
NORMAL_FORM_IDS = ["P5", "pair", "two_beta"]


@pytest.mark.parametrize("p,extra", NORMAL_FORM_MODELS, ids=NORMAL_FORM_IDS)
@pytest.mark.parametrize("q", ["2", "1/3", "1"])
@pytest.mark.parametrize("rank", [3, 4])
def test_normal_form_walk_equals_composition(rank, q, p, extra):
    ctx = ModelContext.create(TraceParams(q=F(q), alpha=p.alpha, beta=p.beta), rank, extra)
    for w in all_perms(rank):
        x = HeckeElement.basis(w)
        op = normal_form(ctx, x)
        assert op == _graded(_normal_form_by_composition(ctx, x)), w
        assert omega_trace(ctx, op) == _omega_by_cycle_tuples(ctx, op), w
    # two terms whose T_w tables overlap on the identity permutation
    x = HeckeElement.basis(tuple(range(rank, 0, -1))) + HeckeElement.generator(1, rank).scale(
        F(-3, 2)
    )
    op = normal_form(ctx, x)
    assert op == _graded(_normal_form_by_composition(ctx, x))
    assert omega_trace(ctx, op) == _omega_by_cycle_tuples(ctx, op)


@pytest.mark.parametrize("p,extra", NORMAL_FORM_MODELS, ids=NORMAL_FORM_IDS)
@pytest.mark.parametrize("q", ["2", "1/3", "1"])
def test_normal_form_tables_are_nonempty_and_nonzero(p, extra, q):
    ctx = ModelContext.create(TraceParams(q=F(q), alpha=p.alpha, beta=p.beta), 3, extra)
    perms = set(all_perms(3))
    for w in all_perms(3):
        for x in (HeckeElement.basis(w), HeckeElement.basis(w) + HeckeElement.generator(1, 3)):
            op = normal_form(ctx, x)
            assert op and set(op) <= perms
            assert all(table and all(table.values()) for table in op.values())
            assert all(len(tup) == 3 for table in op.values() for tup in table)


def test_normal_form_drops_a_cancelled_table():
    # with a single index every T_w acts as q^length(w) on the identity
    # table, so T_w - q^length(w) has the empty normal form
    ctx = ModelContext.create(P_TRIV, slots=3)
    x = HeckeElement.basis((3, 2, 1)) + HeckeElement.unit(3).scale(-(ctx.q**3))
    assert normal_form(ctx, x) == {}
    assert normal_form(ctx, HeckeElement.basis((3, 2, 1))) == {identity(3): {(1, 1, 1): ctx.q**3}}


@pytest.mark.parametrize("q", ["2", "1"])
@pytest.mark.parametrize("rank", [3, 4])
def test_no_normal_form_entry_off_the_identity_fixes_its_tuple(rank, q):
    # R swaps only unequal indices, so equal indices never cross: an entry
    # (sigma, I) with sigma != id has I o sigma != I, in the walk and in the
    # composition oracle alike, so omega_trace reads only the identity table
    p = TraceParams(q=F(q), alpha=P_WIDE.alpha, beta=P_WIDE.beta)
    ctx = ModelContext.create(p, rank, extra_indices=(3,))
    for w in all_perms(rank):
        x = HeckeElement.basis(w)
        for op in (normal_form(ctx, x), _normal_form_by_composition(ctx, x)):
            assert op[identity(rank)]
            for sigma, table in op.items():
                fixed = [tup for tup in table if all(tup[s - 1] == i for s, i in zip(sigma, tup))]
                assert sigma == identity(rank) or not fixed, (w, sigma, fixed)


# the per-entry bodies that normal_form and omega_trace replaced, kept as
# their oracles


def carrying_by_sorts(start, end):
    """The permutation sigma with end[k] = start[sigma(k) - 1] that keeps
    equal indices in their order, by two stable sorts per pair of tuples."""
    sigma = [0] * len(end)
    order = sorted(range(len(start)), key=start.__getitem__)
    for k, s in zip(sorted(range(len(end)), key=end.__getitem__), order):
        sigma[k] = s + 1
    return tuple(sigma)


def normal_form_by_carrying(ctx, x):
    """Oracle for normal_form: the same walk from every basis tensor, with
    sigma found per walked entry by carrying_by_sorts, its grade asserted,
    and the coefficients summed keyed by (sigma, I)."""
    walk = tensor._walk_of(ctx)
    span = walk.span
    tuples = [tup[::-1] for tup in cartesian(ctx.support, repeat=ctx.slots)]
    tagged = tensor._diagonal_keys(span, range(span))
    terms, denom = tensor._integer_terms(ctx, x)
    raw = {}
    for word, f in terms:
        for key, v in tensor._int_walk(walk, word, tagged).items():
            code_tag, code = divmod(key >> 1, span)
            entry = carrying_by_sorts(tuples[code_tag], tuples[code]), tuples[code]
            assert key & 1 == length(entry[0]) % 2, entry
            raw[entry] = raw.get(entry, 0) + v * f
    out = {}
    for (sigma, tup), v in raw.items():
        if v:
            out.setdefault(sigma, {})[tup] = F(v * ctx.q.denominator ** (length(sigma) % 2), denom)
    return out


def omega_trace_by_fractions(ctx, op):
    """Oracle for omega_trace: every entry whose permutation fixes its
    tuple adds phi prod_k a_(I_k) in Fraction to the part of its grade."""
    parts = [F(0), F(0)]
    for sigma, table in op.items():
        grade = length(sigma) % 2
        for tup, phi in table.items():
            if all(tup[s - 1] == i for s, i in zip(sigma, tup)):
                parts[grade] += phi * prod(map(ctx.weight, tup))
    return tensor._rational(ctx, parts[0], parts[1] / ctx.q.denominator, 1, "omega trace")


def test_stable_sort_tables_equal_carrying_by_sorts():
    # every pair of tuples of 4 slots over 3 indices, not only the pairs a
    # walk reaches
    tuples = [tup[::-1] for tup in cartesian((-1, 1, 2), repeat=4)]
    starts, parity, decode = tensor._stable_sorts(3, 4)
    assert len(starts) == len(parity) == len(decode) == 81
    for c, tup in enumerate(tuples):
        assert parity[c] == length(starts[c]) % 2 == length(carrying_by_sorts(tuples[0], tup)) % 2
        for tag_code, tag in enumerate(tuples):
            assert decode[c](starts[tag_code]) == carrying_by_sorts(tag, tup), (tag, tup)


def stable_sorts_by_rebuilding(size, slots):
    """Oracle for _stable_sorts: the tables built from one slot on every
    call, appending position k with support place p at place le[p]."""
    starts, parity, le = [()], [0], [(0,) * size]
    for k in range(1, slots + 1):
        starts = [s[: g[p]] + (k,) + s[g[p] :] for p in range(size) for s, g in zip(starts, le)]
        parity = [x ^ ((k - 1 - g[p]) & 1) for p in range(size) for x, g in zip(parity, le)]
        if k < slots:
            le = [g[:p] + tuple(v + 1 for v in g[p:]) for p in range(size) for g in le]
    ranks = tuple(tuple(sorted(range(slots), key=start.__getitem__)) for start in starts)
    return tuple(starts), ranks, tuple(parity)


def stable_sorts_as_rebuilt(size, slots):
    """_stable_sorts in the form of stable_sorts_by_rebuilding, each
    getter's ranks read off the identity start."""
    starts, parity, decode = tensor._stable_sorts(size, slots)
    probe = tuple(range(slots))
    return starts, tuple(d(probe) for d in decode), parity


def _fresh_sort_tables(monkeypatch) -> dict:
    """An empty memo of stable-sort tables for the test, returned so that
    it can count the ranks built per support size."""
    tables = {}
    monkeypatch.setattr(tensor, "_sort_tables", tables)
    return tables


@pytest.mark.parametrize("order", ["rising", "falling"])
def test_stable_sorts_equal_the_tables_rebuilt_from_one_slot(monkeypatch, order):
    # rising ranks extend the memo one slot at a time, falling ones read it
    _fresh_sort_tables(monkeypatch)
    ranks = range(1, 9) if order == "rising" else range(8, 0, -1)
    for slots in ranks:
        for size in (1, 2, 3):
            assert stable_sorts_as_rebuilt(size, slots) == stable_sorts_by_rebuilding(size, slots)


def test_stable_sorts_at_rank_n_after_rank_n_minus_1_build_one_slot(monkeypatch):
    tables = _fresh_sort_tables(monkeypatch)
    tensor._stable_sorts(2, 3)
    assert len(tables[2]) == 4  # ranks 0 to 3
    for slots in range(4, 9):
        built = list(tables[2])
        tensor._stable_sorts(2, slots)
        assert len(tables[2]) == slots + 1
        assert all(x is y for a, b in zip(tables[2], built) for x, y in zip(a, b))
    # another size keeps its own list
    tensor._stable_sorts(3, 2)
    tensor._stable_sorts(2, 9)
    assert {size: len(ranks) for size, ranks in tables.items()} == {2: 10, 3: 3}


def test_stable_sorts_in_falling_order_after_the_top_rank_build_nothing(monkeypatch):
    tables = _fresh_sort_tables(monkeypatch)
    tensor._stable_sorts(3, 6)
    built = list(tables[3])
    for slots in range(6, 0, -1):
        assert all(a is b for a, b in zip(tensor._stable_sorts(3, slots), built[slots]))
    assert tables == {3: built}


def test_stable_sorts_build_a_cold_rank_900_in_a_loop(monkeypatch):
    # one weight: one code per rank, built one slot at a time without
    # recursing per rank
    tables = _fresh_sort_tables(monkeypatch)
    starts, parity, decode = tensor._stable_sorts(1, 900)
    assert (starts, parity) == ((tuple(range(1, 901)),), (0,))
    assert decode[0](starts[0]) == starts[0]
    assert len(tables[1]) == 901


# P1-P5, each without and with an extra index of weight 0
PER_ENTRY_MODELS = [
    (name, alpha, beta, extra) for name, alpha, beta in default_profiles() for extra in ((), (-2,))
]


@pytest.mark.parametrize("q", ["2", "1/3", "1", "5/4"])
@pytest.mark.parametrize(
    "model", PER_ENTRY_MODELS, ids=lambda m: m[0] + ("_zero_weight" if m[3] else "")
)
def test_normal_form_and_omega_trace_equal_their_per_entry_oracles(model, q):
    for rank in (3, 4):
        ctx = oracle_context(model, q, rank)
        elements = [HeckeElement.basis(w) for w in all_perms(rank)]
        elements.append(
            HeckeElement.basis(tuple(range(rank, 0, -1)))
            + HeckeElement.generator(1, rank).scale(F(-3, 2))
        )
        for x in elements:
            op = normal_form(ctx, x)
            assert op == normal_form_by_carrying(ctx, x), x
            value = omega_trace(ctx, op)
            assert value == omega_trace_by_fractions(ctx, op) == matrix_element(ctx, x), x


@pytest.mark.parametrize("q", ["2", "1"])
@pytest.mark.parametrize(
    "model", PER_ENTRY_MODELS, ids=lambda m: m[0] + ("_zero_weight" if m[3] else "")
)
def test_normal_form_equals_its_per_entry_oracle_at_ranks_1_2_and_5(model, q):
    # rank 1 decodes sigma with the whole-tuple slice, since itemgetter with
    # one index returns a bare item; rank 5 on the longest element, the
    # cycle and a two-term element
    for rank in (1, 2):
        ctx = oracle_context(model, q, rank)
        for w in all_perms(rank):
            x = HeckeElement.basis(w)
            op = normal_form(ctx, x)
            assert op == normal_form_by_carrying(ctx, x), x
            assert omega_trace(ctx, op) == matrix_element(ctx, x), x
    ctx = oracle_context(model, q, 5)
    w0 = HeckeElement.basis((5, 4, 3, 2, 1))
    for x in (w0, zeta_interval(1, 5), w0 + HeckeElement.generator(2, 5).scale(F(-3, 2))):
        op = normal_form(ctx, x)
        assert op == normal_form_by_carrying(ctx, x), x
        assert omega_trace(ctx, op) == omega_trace_by_fractions(ctx, op) == matrix_element(ctx, x)


def test_normal_form_of_the_unit_at_rank_1_is_keyed_by_1_tuples():
    ctx = ModelContext.create(P_WIDE, slots=3)
    op = normal_form(ctx, HeckeElement.unit(1))
    assert op == {(1,): {(i,): F(1) for i in ctx.support}}
    assert all(type(sigma) is tuple for sigma in op)
    # rank 0 reads the rank-0 entry of the sort tables: one empty tuple
    unit = HeckeElement.unit(0)
    assert normal_form(ctx, unit) == {(): {(): F(1)}}
    assert omega_trace(ctx, normal_form(ctx, unit)) == matrix_element(ctx, unit) == 1


@pytest.mark.parametrize("size,slots", [(1, 1), (3, 1), (1, 4), (2, 3), (3, 4)])
def test_sort_getters_decode_sigma_like_the_rank_tables(size, slots):
    _, ranks, _ = stable_sorts_by_rebuilding(size, slots)
    starts, _, decode = tensor._stable_sorts(size, slots)
    assert len(decode) == len(ranks) == size**slots
    for c, rank in enumerate(ranks):
        for start in starts:
            assert decode[c](start) == tuple(map(start.__getitem__, rank))


def test_normal_form_forms_one_fraction_per_distinct_value():
    # zeta_8 on P5 at q = 2: 26,973 entries over 128 permutations, 15 values
    ctx = ModelContext.create(P_WIDE, slots=8)
    op = normal_form(ctx, zeta_interval(1, 8))
    entries = [phi for table in op.values() for phi in table.values()]
    assert (len(op), len(entries), len(set(entries))) == (128, 26973, 15)
    assert len({id(phi) for phi in entries}) == 15
    assert omega_trace(ctx, op) == zeta_trace(8, P_WIDE)


def test_parity_from_cycles_equals_the_parity_of_the_length():
    rng = Random(26)
    cycle = tuple(range(2, 301)) + (1,)
    perms = [cycle, identity(1), identity(7)]
    perms += [tuple(rng.sample(range(1, n + 1), n)) for n in range(1, 40) for _ in range(5)]
    for sigma in perms:
        assert tensor._parity(sigma) == length(sigma) % 2, sigma
    assert tensor._parity(cycle) == 1


@pytest.mark.parametrize("seed", range(40))
def test_omega_trace_of_random_hand_built_tables_equals_its_fraction_oracle(seed):
    # tables on random permutations of rank 1-4, with entries on tuples that
    # are constant on the cycles of their permutation and entries on random
    # tuples, over the support and one index of weight 0
    rng = Random(seed)
    ctx = ModelContext.create(P_WIDE, slots=2, extra_indices=(3,))
    rank = rng.randint(1, 4)
    op = {}
    for _ in range(rng.randint(1, 4)):
        sigma = tuple(rng.sample(range(1, rank + 1), rank))
        table = op.setdefault(sigma, {})
        for _ in range(rng.randint(4, 16)):
            if rng.random() < 0.5:
                tup = [0] * rank
                for cyc in cycles(sigma):
                    i = rng.choice(ctx.support)
                    for point in cyc:
                        tup[point - 1] = i
                tup = tuple(tup)
            else:
                tup = tuple(rng.choice(ctx.support) for _ in range(rank))
            table[tup] = F(rng.randint(-9, 9) or 1, rng.randint(1, 7))
    try:
        want = omega_trace_by_fractions(ctx, op)
    except CrossCheckError as oracle:
        with pytest.raises(CrossCheckError) as got:
            omega_trace(ctx, op)
        assert str(got.value) == str(oracle)
    else:
        assert omega_trace(ctx, op) == want


def test_omega_trace_sums_mixed_denominators_like_its_fraction_oracle():
    # entries over 1, 3, 4, 5, 6, 7 and 10, one on the index 3 of weight 0,
    # and an even 3-cycle that fixes only constant tuples; an odd table
    # whose entries on (1, 1, 2) and (-1, -1, 2) fix their tuples leaves a
    # sqrt(q) part, and both sums must raise the same error
    ctx = ModelContext.create(P_WIDE, slots=3, extra_indices=(3,))
    op = {
        identity(3): {
            (1, 1, 1): F(1, 3),
            (1, 2, -1): F(-2, 5),
            (2, 2, 2): F(7),
            (3, 1, 1): F(5),
            (-1, 1, 2): F(1, 6),
        },
        (2, 3, 1): {(1, 1, 1): F(3, 7), (2, 2, 1): F(9, 4), (-1, -1, -1): F(1, 10)},
    }
    want = (
        F(1, 3) * F(2, 3) ** 3
        - F(2, 5) * F(2, 3) * F(1, 6) ** 2
        + 7 * F(1, 6) ** 3
        + F(1, 6) * F(1, 6) * F(2, 3) * F(1, 6)
        + F(3, 7) * F(2, 3) ** 3
        + F(1, 10) * F(1, 6) ** 3
    )
    assert omega_trace(ctx, op) == omega_trace_by_fractions(ctx, op) == want
    op[(2, 1, 3)] = {(1, 1, 2): F(2, 3), (2, 1, 1): F(5, 9), (-1, -1, 2): F(1, 4)}
    with pytest.raises(CrossCheckError, match="omega trace .* 3 slots") as got:
        omega_trace(ctx, op)
    with pytest.raises(CrossCheckError) as oracle:
        omega_trace_by_fractions(ctx, op)
    assert str(got.value) == str(oracle.value)


def test_generator_operator_matches_apply_r():
    ctx = ModelContext.create(P_WIDE, slots=4)
    rng = Random(31)
    for m in (1, 2, 3):
        op = normal_form(ctx, HeckeElement.generator(m, 4))
        for _ in range(3):
            state = random_state(ctx, rng)
            assert _apply_normal_form(ctx, op, state) == apply_r(ctx, m, "left", state)


def test_operator_composition_matches_sequential_application():
    # the walk composes R along a reduced word; apply_hecke applies it
    ctx = ModelContext.create(P_WIDE, slots=3)
    rng = Random(8)
    for w in all_perms(3):
        x = HeckeElement.basis(w)
        op = normal_form(ctx, x)
        for _ in range(3):
            state = random_state(ctx, rng)
            assert _apply_normal_form(ctx, op, state) == apply_hecke(ctx, x, "left", state)


def test_normal_form_agrees_with_lift():
    ctx = ModelContext.create(P_FLAT, slots=3)
    rng = Random(12)
    xi = xi_state(ctx)
    for _ in range(5):
        x = HeckeElement.basis(tuple(rng.sample(range(1, 4), 3)))
        assert _apply_normal_form(ctx, normal_form(ctx, x), xi) == apply_hecke(ctx, x, "left", xi)


def test_omega_trace_of_identity_table():
    ctx = ModelContext.create(P_WIDE, slots=3)
    assert omega_trace(ctx, normal_form(ctx, HeckeElement.unit(3))) == 1


def test_omega_trace_of_bare_swap():
    # in a graded table a bare transposition with constant entry 1 stands for
    # sqrt(q) times the swap: it contributes sqrt(q) sum a_i^2, no rational
    # value; a bare 3-cycle is even and contributes sum a_i^3
    ctx = ModelContext.create(P_FLAT, slots=2)
    table = {tup: F(1) for tup in cartesian(ctx.support, repeat=2)}
    with pytest.raises(CrossCheckError, match=r"omega trace .*: 0 \+ 1/2\*sqrt_q"):
        omega_trace(ctx, {(2, 1): table})
    ctx = ModelContext.create(P_FLAT, slots=3)
    table = {tup: F(1) for tup in cartesian(ctx.support, repeat=3)}
    assert omega_trace(ctx, {(2, 3, 1): table}) == F(1, 4)


def test_omega_trace_of_zeta2():
    ctx = ModelContext.create(P_FLAT, slots=2)
    assert omega_trace(ctx, normal_form(ctx, zeta_interval(1, 2))) == F(5, 4)


def test_omega_trace_reads_only_the_given_entries():
    # one entry per table at |S| = 8 and 6 slots: the cost must follow the
    # two entries, not the 8^6 tuples constant on the identity's cycles;
    # (2, 1, 3, ..) does not fix (1, 2, 1, ..), so that entry contributes 0
    ctx = ModelContext.create(TraceParams(q=F(2), alpha=(F(1, 8),) * 8), slots=6)
    op = {identity(6): {(1,) * 6: F(1)}, (2, 1, 3, 4, 5, 6): {(1, 2, 1, 1, 1, 1): F(1)}}
    start = perf_counter()
    assert omega_trace(ctx, op) == F(1, 8) ** 6
    assert perf_counter() - start < 1


def test_omega_trace_purity_guard():
    # the odd entries on (1, 1, 1) and (2, 2, 2) cancel in the sqrt(q) part,
    # so only the identity entry is left; an odd entry that fixes its tuple
    # alone leaves a sqrt(q) part
    ctx = ModelContext.create(P_FLAT, slots=3)
    cycle = {(1, 1, 1): F(1), (2, 2, 2): F(-1)}
    assert omega_trace(ctx, {(2, 1, 3): cycle, identity(3): {(1, 1, 1): F(1)}}) == F(1, 8)
    op = {(2, 1, 3): {(1, 1, 2): F(3)}}
    with pytest.raises(CrossCheckError, match="omega trace .* 3 slots"):
        omega_trace(ctx, op)


# ---------------------------------------------------------------------------
# diagonal fast path


def test_diag_coeff_table():
    q = F(3)
    assert diag_coeff(q, 2, 2) == 3
    assert diag_coeff(q, -1, -1) == -1
    assert diag_coeff(q, -1, 2) == 2
    assert diag_coeff(q, 2, -1) == 0


def test_diagonal_zeta_examples():
    ctx = ModelContext.create(P_FLAT, slots=2)
    assert diagonal_zeta(ctx, 1) == 1
    assert diagonal_zeta(ctx, 2) == F(5, 4)
    ctx = ModelContext.create(P_SIGN, slots=3)
    assert diagonal_zeta(ctx, 3) == 1  # (-1)^(m-1) with m odd


@pytest.mark.parametrize("p", [P_FLAT, P_MIX, P_WIDE])
def test_diagonal_zeta_matches_matrix_element(p):
    ctx = ModelContext.create(p, slots=4)
    for m in range(1, 5):
        assert diagonal_zeta(ctx, m) == matrix_element(ctx, zeta_interval(1, m, rank=4))


def _diagonal_zeta_on_xi_state(ctx, m):
    """Oracle for diagonal_zeta: the diagonal parts diag_coeff applied to
    the RootElem state Xi at the slots 1, .., m - 1, paired with Xi."""
    xi = xi_state(ctx)
    terms = dict(xi.terms)
    for j in range(1, m):
        nxt = {}
        for (ti, tj), c in terms.items():
            d = diag_coeff(ctx.q, ti[j - 1], ti[j])
            if d != 0:
                nxt[(ti, tj)] = c * d
        terms = nxt
    acted = TensorState(ctx.table, terms)
    return _pure_rational(acted.inner(xi))


@pytest.mark.parametrize("q", ORACLE_QS)
@pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: m[0])
def test_diagonal_zeta_equals_diagonal_walk_on_xi_state(model, q):
    ctx = oracle_context(model, q, 4)
    for m in range(1, 5):
        assert diagonal_zeta(ctx, m) == _diagonal_zeta_on_xi_state(ctx, m)


def test_diagonal_zeta_purity_guard_names_the_route():
    ctx = ModelContext.create(P_WIDE, slots=3)
    ctx.r_matrix[(1, 1)] = [((1, 1), 1, 1)]  # R(1, 1) = sqrt(q), and b = 1
    with pytest.raises(CrossCheckError, match="diagonal route for m=3 .* 3 slots"):
        diagonal_zeta(ctx, 3)


# P1-P5, each without and with an extra index of weight 0
DIAGONAL_WALK_MODELS = [
    (name, alpha, beta, extra) for name, alpha, beta in default_profiles() for extra in ((), (3,))
]


@pytest.mark.parametrize("q", ["2", "1/2", "1", "5/4"])
@pytest.mark.parametrize(
    "model", DIAGONAL_WALK_MODELS, ids=lambda m: m[0] + ("_zero_weight" if m[3] else "")
)
def test_diagonal_walk_for_every_m_equals_one_closed_walk_per_m(model, q):
    # the per-m closed walk of the diagonal rows is the oracle of the one
    # walk that gives every m, for every m up to the slot count
    for slots in (1, 4, 6):
        ctx = oracle_context(model, q, slots)
        b, (d, _) = ctx.q.denominator, ctx.numerators
        got = list(tensor._diagonal_numerators(ctx, slots))
        want = [
            (*tensor._closed_walk(ctx, ctx.diagonal_walk, list(range(1, m))),
             b ** (m - 1) * d**slots)
            for m in range(1, slots + 1)
        ]
        assert got == want
        values = list(tensor._diagonal_values(ctx, slots))
        assert values == [diagonal_zeta(ctx, m) for m in range(1, slots + 1)]
        assert values == [zeta_trace(m, ctx.params) for m in range(1, slots + 1)]


def test_diagonal_walk_bounds_m_by_the_slots():
    ctx = ModelContext.create(P_WIDE, slots=3)
    for m in (0, 4):
        with pytest.raises(ValueError, match=f"need 1 <= m <= 3, got {m}"):
            next(tensor._diagonal_values(ctx, m))
        with pytest.raises(ValueError, match=f"need 1 <= m <= 3, got {m}"):
            diagonal_zeta(ctx, m)


@pytest.mark.parametrize("q", ["2", "1/3"])
@pytest.mark.parametrize("x", [1, -1])
def test_diagonal_walk_fails_at_every_m_on_a_diagonal_row_off_by_one(x, q):
    # b R(x, x) one too large: the walk for every m must read it, so the
    # value at every m >= 2 leaves the formula; m = 1 takes no step
    p = TraceParams(q=F(q), alpha=P_WIDE.alpha, beta=P_WIDE.beta)
    ctx = ModelContext.create(p, slots=7)
    ((image, k, v),) = ctx.r_matrix[x, x]
    ctx.r_matrix[x, x] = [(image, k, v + 1)]
    values = list(tensor._diagonal_values(ctx, 7))
    formula = [zeta_trace(m, p) for m in range(1, 8)]
    assert values[0] == formula[0]
    assert all(got != want for got, want in zip(values[1:], formula[1:])), values


def test_diagonal_values_are_checked_one_m_at_a_time():
    # a sqrt(q) part in b R(1, 1) first shows at m = 2, after the step at
    # slot 1: the value at m = 1 comes out, and only the next one raises
    ctx = ModelContext.create(P_WIDE, slots=3)
    ctx.r_matrix[1, 1] = [((1, 1), 1, 1)]
    values = tensor._diagonal_values(ctx, 3)
    assert next(values) == 1
    with pytest.raises(CrossCheckError, match="diagonal route for m=2 "):
        next(values)


# ---------------------------------------------------------------------------
# R-matrix laws on every basis tensor of V^(3)


@pytest.mark.parametrize("p", [P_TRIV, P_FLAT, P_WIDE])
@pytest.mark.parametrize("q", ["2", "3", "1/2"])
def test_dense_quadratic_and_braid(p, q):
    p = TraceParams(q=F(q), alpha=p.alpha, beta=p.beta)
    ctx = ModelContext.create(p, slots=3)
    assert r_matrix_laws(ctx) == (True, True)


def _cyclic_order(q, x, y):
    """diag_coeff for -1 < 1 < 2 < -1, which is no order: each pair keeps one
    increasing direction, so R stays quadratic, but the braid law fails."""
    if x == y:
        return diag_coeff(q, x, y)
    return q - 1 if (x < y) != ({x, y} == {-1, 2}) else F(0)


@pytest.mark.parametrize(
    "wrong,laws",
    [
        (lambda q, x, y: q - 1 if x > y else diag_coeff(q, x, y), (False, False)),
        (lambda q, x, y: diag_coeff(q, x, y) + (1 if x < y else 0), (False, False)),
        (_cyclic_order, (True, False)),
    ],
    ids=["decreasing_pair_gets_q_minus_1", "increasing_pair_gets_plus_1", "cyclic_order"],
)
def test_r_matrix_laws_reject_a_wrong_r(monkeypatch, wrong, laws):
    monkeypatch.setattr(tensor, "diag_coeff", wrong)
    ctx = ModelContext.create(P_WIDE, slots=3)
    assert r_matrix_laws(ctx) == laws


def _r_matrix_laws_by_apply_r(ctx, side):
    """Oracle for r_matrix_laws: both laws on the RootElem action apply_r,
    applied to sum_I eta[I; I] over every I in S^slots."""
    one = ctx.table.one()
    basis = TensorState(
        ctx.table, {(tup, tup): one for tup in cartesian(ctx.support, repeat=ctx.slots)}
    )

    def r(slot, state):
        return apply_r(ctx, slot, side, state)

    once = r(1, basis)
    quadratic = r(1, once) == once.scale(ctx.q - 1) + basis.scale(ctx.q)
    braid = r(1, r(2, once)) == r(2, r(1, r(2, basis)))
    return quadratic, braid


@pytest.mark.parametrize(
    "wrong",
    [
        None,
        lambda q, x, y: q - 1 if x > y else diag_coeff(q, x, y),
        _cyclic_order,
    ],
    ids=["true_r", "decreasing_pair_gets_q_minus_1", "cyclic_order"],
)
@pytest.mark.parametrize("q", ORACLE_QS)
@pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: m[0])
def test_r_matrix_laws_equal_the_laws_of_apply_r(monkeypatch, model, q, wrong):
    if wrong is not None:
        monkeypatch.setattr(tensor, "diag_coeff", wrong)
    # the right action is the left one conjugated by the swap of I and J,
    # which fixes the test state, so one result holds for both sides
    ctx = oracle_context(model, q, 3)
    laws = r_matrix_laws(ctx)
    for side in ("left", "right"):
        assert _r_matrix_laws_by_apply_r(ctx, side) == laws


def test_r_matrix_laws_need_three_slots():
    ctx = ModelContext.create(P_WIDE, slots=2)
    with pytest.raises(ValueError, match="the R-matrix laws need at least 3 slots, have 2"):
        r_matrix_laws(ctx)


@st.composite
def law_contexts(draw):
    """A three-slot model with at most 3 positive weights, a q from a small
    set that includes 1, and one extra index of weight 0."""
    n_alpha = draw(st.integers(0, 3))
    n_beta = draw(st.integers(0 if n_alpha else 1, 3 - n_alpha))
    raw = draw(st.lists(st.integers(1, 6), min_size=n_alpha + n_beta, max_size=n_alpha + n_beta))
    weights = [F(r, sum(raw)) for r in raw]
    alpha = sorted(weights[:n_alpha], reverse=True)
    beta = sorted(weights[n_alpha:], reverse=True)
    q = draw(st.sampled_from([F(1), F(2), F(3), F(1, 2), F(2, 3)]))
    extra = draw(st.sampled_from([n_alpha + 1, -(n_beta + 1)]))
    return ModelContext.create(TraceParams(q=q, alpha=alpha, beta=beta), 3, (extra,))


@settings(max_examples=25, deadline=None)
@given(ctx=law_contexts(), m=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
def test_r_matrix_laws_and_generator_operator_on_random_models(ctx, m, seed):
    assert r_matrix_laws(ctx) == (True, True)
    state = random_state(ctx, Random(seed))
    op = normal_form(ctx, HeckeElement.generator(m, 3))
    assert _apply_normal_form(ctx, op, state) == apply_r(ctx, m, "left", state)


# ---------------------------------------------------------------------------
# bimodule identities, Gram positivity, Thoma degeneration


def test_bimodule_checks_pass():
    ctx = ModelContext.create(P_FLAT, slots=4)
    results = bimodule_checks(ctx, Random(2026), 10, 5, 3)
    assert all(r.passed for r in results), [r.line() for r in results]


@pytest.mark.parametrize("q", ORACLE_QS)
@pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: m[0])
def test_bimodule_values_equal_the_root_elem_action(monkeypatch, model, q):
    # the left-hand values that bimodule_checks pairs from integer walks,
    # recorded at its rationality checks, against apply_hecke on Xi; the
    # seeded draws are replayed in the order bimodule_checks makes them
    ctx = oracle_context(model, q, 3)
    seen = []
    check = tensor._rational

    def recorded(ctx, even, odd, scale, route):
        value = check(ctx, even, odd, scale, route)
        seen.append((route, value))
        return value

    monkeypatch.setattr(tensor, "_rational", recorded)
    results = bimodule_checks(ctx, Random(11), 4, 3, 3)
    assert all(r.passed for r in results), [r.line() for r in results]

    rng = Random(11)
    xi = xi_state(ctx)

    def draw():
        return tensor._random_basis_element(rng, 3)

    def act(x, side, state):
        return apply_hecke(ctx, x, side, state)

    want = []
    for _ in range(4):
        a, b = draw(), draw()
        value = act(a, "left", act(b, "left", xi)).inner(xi)
        want.append(("trace-property matrix element", _pure_rational(value)))
    for _ in range(3):
        x = draw()
        assert act(x, "right", xi) == act(x.transpose(), "left", xi)
    for _ in range(3):
        a, b, c, d = (draw() for _ in range(4))
        left, right = act(b, "right", act(a, "left", xi)), act(d, "right", act(c, "left", xi))
        want.append(("bimodule Gram element", _pure_rational(left.inner(right))))
    routes = {route for route, _ in want}
    assert [(route, v) for route, v in seen if route in routes] == want


def _bimodule_results(ctx):
    return {r.name: r.passed for r in bimodule_checks(ctx, Random(2026), 10, 5, 3)}


def _weigh_by_the_first_slot(monkeypatch, ctx):
    # a pairing whose weights depend on the slot: the state is no trace
    # state; nums is keyed by code(J), whose lowest digit is the position of
    # J_1 in the support
    _, nums, _ = ctx.unit_diagonal
    for code in nums:
        nums[code] *= (1 + (ctx.support[code % len(ctx.support)] > 0)) ** 2


def _walk_forwards_on_the_right(monkeypatch, ctx):
    # a right action that reads each reduced word from its start acts by
    # T_{w^-1}, not T_w: the steps above slot n, on the J digits, are
    # taken in reverse order, and the left steps are left alone
    walk, n = tensor._nonzero_walk, ctx.slots

    def forwards_on_the_right(model, slots, state):
        slots = list(slots)
        right = iter([a for a in slots if a > n][::-1])
        return walk(model, [next(right) if a > n else a for a in slots], state)

    monkeypatch.setattr(tensor, "_nonzero_walk", forwards_on_the_right)


def _star_without_inverse(monkeypatch, ctx):
    # T_w* = T_w instead of T_{w^-1}; transpose keeps its own binding
    monkeypatch.setattr(HeckeElement, "star", lambda self: self)


BIMODULE_FAULTS = [
    ("bimodule.trace_property", _weigh_by_the_first_slot),
    ("bimodule.right_equals_transposed_left", _walk_forwards_on_the_right),
    ("bimodule.gram_identity", _star_without_inverse),
]


def test_bimodule_trace_property_fails_on_slot_dependent_weights(monkeypatch):
    ctx = ModelContext.create(P_WIDE, slots=4)
    _weigh_by_the_first_slot(monkeypatch, ctx)
    assert not _bimodule_results(ctx)["bimodule.trace_property"]


def test_bimodule_transpose_check_fails_on_a_forward_right_walk(monkeypatch):
    ctx = ModelContext.create(P_WIDE, slots=4)
    _walk_forwards_on_the_right(monkeypatch, ctx)
    assert not _bimodule_results(ctx)["bimodule.right_equals_transposed_left"]


def test_bimodule_gram_identity_fails_on_a_wrong_star(monkeypatch):
    ctx = ModelContext.create(P_WIDE, slots=4)
    _star_without_inverse(monkeypatch, ctx)
    assert not _bimodule_results(ctx)["bimodule.gram_identity"]


@pytest.mark.parametrize("check,fault", BIMODULE_FAULTS, ids=[c for c, _ in BIMODULE_FAULTS])
def test_a_failing_bimodule_check_names_the_parameters_and_slots(monkeypatch, check, fault):
    # the witness names the model as well as the drawn elements; the names
    # and the number of checks stay
    ctx = ModelContext.create(P_WIDE, slots=4)
    fault(monkeypatch, ctx)
    results = bimodule_checks(ctx, Random(2026), 10, 5, 3)
    assert [r.name for r in results] == [name for name, _ in BIMODULE_FAULTS]
    (result,) = [r for r in results if r.name == check]
    assert not result.passed
    assert result.detail.endswith(f" (params {P_WIDE.to_record()}, 4 slots)"), result.detail
    assert str(P_WIDE.to_record()) in result.line()


def test_transpose_identity_directly():
    ctx = ModelContext.create(P_MIX, slots=2)
    xi = xi_state(ctx)
    t1 = HeckeElement.generator(1, 2)
    assert apply_hecke(ctx, t1, "right", xi) == apply_hecke(
        ctx, t1.transpose(), "left", xi
    )


@pytest.mark.parametrize("p", [P_FLAT, P_MIX])
def test_gram_is_psd(p):
    gram = gram_matrix(p, 3)
    assert len(gram) == 6
    pivots, psd = ldlt_pivots(gram)
    assert psd
    assert all(d >= 0 for d in pivots)


def test_gram_diagonal_is_trace_of_star_products():
    # G[u][u] = trace(T_u* T_u) must be positive for a faithful state
    gram = gram_matrix(P_FLAT, 3)
    assert all(gram[i][i] > 0 for i in range(6))


def _count_root_elements(monkeypatch) -> list:
    """A list that gets one item per RootElem or SqrtTable constructed from
    now on."""
    made = []
    for cls in (RootElem, SqrtTable):

        def counted(self, *args, init=cls.__init__):
            made.append(1)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_matrix_element_multiplies_no_root_elements_per_walk_step(monkeypatch):
    # the context, the walks and the pairing run on plain integers and end in
    # two ints, where RootElem walks make thousands of RootElems on this model
    made = _count_root_elements(monkeypatch)
    ctx = ModelContext.create(profile_params(default_profiles()[4], F(2)), slots=6)
    x = mul(HeckeElement.basis((3, 6, 1, 5, 2, 4)), HeckeElement.basis((4, 2, 6, 1, 5, 3)))
    assert len(x.terms) > 1
    matrix_element(ctx, x)
    assert not made


def test_normal_form_and_omega_trace_form_no_root_element(monkeypatch):
    made = _count_root_elements(monkeypatch)
    ctx = ModelContext.create(P_WIDE, slots=5, extra_indices=(3,))
    x = HeckeElement.basis((3, 5, 1, 4, 2)) + HeckeElement.generator(2, 5).scale(F(-3, 2))
    op = normal_form(ctx, x)
    assert omega_trace(ctx, op) == matrix_element(ctx, x)
    assert op and not made


def test_diagonal_route_and_r_matrix_laws_multiply_no_root_elements(monkeypatch):
    made = _count_root_elements(monkeypatch)
    wide = ModelContext.create(P_WIDE, slots=5, extra_indices=(3,))
    laws = ModelContext.create(P_WIDE, slots=3, extra_indices=(3,))
    for m in range(1, 6):
        assert diagonal_zeta(wide, m) == zeta_trace(m, P_WIDE)
    assert r_matrix_laws(laws) == (True, True)
    assert not made


def test_bimodule_checks_multiply_no_root_elements_outside_matrix_element(monkeypatch):
    # nor inside it: the three Gram identities evaluate matrix_element too
    made = _count_root_elements(monkeypatch)
    ctx = ModelContext.create(P_WIDE, slots=4)
    assert all(_bimodule_results(ctx).values())
    assert not made


def test_gram_matrix_forms_no_root_element_beyond_its_context(monkeypatch):
    # nor in the context it creates; only the reference action builds the
    # context's SqrtTable, and the count sees it
    made = _count_root_elements(monkeypatch)
    gram_matrix(P_WIDE, 3)
    ctx = ModelContext.create(P_WIDE, 3)
    assert not made
    xi_state(ctx)
    assert made


def _gram_of_xi_states(p, rank):
    """Oracle for gram_matrix: the inner products <T_u Xi, T_v Xi> of the
    rank! RootElem states T_u Xi, every entry checked to be rational."""
    ctx = ModelContext.create(p, rank)
    xi = xi_state(ctx)
    states = [apply_hecke(ctx, HeckeElement.basis(u), "left", xi) for u in all_perms(rank)]
    return [[_pure_rational(a.inner(b)) for b in states] for a in states]


@pytest.mark.parametrize("q", ["2", "2/3"])
@pytest.mark.parametrize(
    "profile",
    [*default_profiles(), ("two_beta", P_TWO_BETA.alpha, P_TWO_BETA.beta)],
    ids=lambda p: p[0],
)
def test_gram_of_integer_walks_equals_gram_of_xi_states(profile, q):
    p = profile_params(profile, F(q))
    assert gram_matrix(p, 3) == _gram_of_xi_states(p, 3)


def test_gram_of_integer_walks_equals_gram_of_xi_states_at_n4():
    p = profile_params(default_profiles()[2], F(2, 3))
    assert gram_matrix(p, 4) == _gram_of_xi_states(p, 4)


def _hecke_gram_entry(ctx, u, v):
    return matrix_element(ctx, mul(HeckeElement.basis(v).star(), HeckeElement.basis(u)))


def _gram_by_hecke_products(p, rank):
    """Oracle for gram_matrix: each entry trace(T_v* T_u) from a full
    Hecke product evaluated as one matrix element."""
    ctx = ModelContext.create(p, rank)
    basis = all_perms(rank)
    return [[_hecke_gram_entry(ctx, u, v) for v in basis] for u in basis]


@pytest.mark.parametrize("q", ["2", "1/3", "1"])
@pytest.mark.parametrize("profile", default_profiles(), ids=lambda p: p[0])
@pytest.mark.parametrize("rank", [2, 3])
def test_gram_of_states_equals_hecke_products(rank, profile, q):
    p = profile_params(profile, F(q))
    assert gram_matrix(p, rank) == _gram_by_hecke_products(p, rank)


def test_gram_of_states_equals_hecke_products_sampled_at_n4():
    # the full n = 4 oracle takes seconds; 24 seeded entries of 576 suffice
    ctx = ModelContext.create(P_FLAT, 4)
    gram = gram_matrix(P_FLAT, 4)
    basis = all_perms(4)
    rng = Random(4)
    for _ in range(24):
        i, j = rng.randrange(24), rng.randrange(24)
        assert gram[i][j] == _hecke_gram_entry(ctx, basis[i], basis[j])


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def _hook_dimension(shape):
    """f^shape, the number of standard tableaux, by the hook length formula."""
    conj = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = prod(r - j + conj[j] - i - 1 for i, r in enumerate(shape) for j in range(r))
    return factorial(sum(shape)) // hooks


def test_hook_dimensions():
    assert [_hook_dimension(s) for s in _partitions(4)] == [1, 3, 2, 3, 1]
    assert sum(_hook_dimension(s) ** 2 for s in _partitions(5)) == factorial(5)


# (alpha, beta) with a alpha and b beta weights, for (a, b) = (2, 0), (1, 1),
# (1, 0), (0, 1), (3, 0), (1, 2)
RANK_PROFILES = [
    (("1/2", "1/2"), ()),
    (("1/2",), ("1/2",)),
    ((1,), ()),
    ((), (1,)),
    (("1/2", "1/3", "1/6"), ()),
    (("1/2",), ("1/3", "1/6")),
]


@pytest.mark.parametrize(
    "rank,q",
    [(3, "2"), (3, "1/3"), (3, "1"), (4, "2")],
    ids=["n3-q2", "n3-q1/3", "n3-q1", "n4-q2"],
)
@pytest.mark.parametrize(
    "alpha,beta", RANK_PROFILES, ids=[f"a{len(a)}b{len(b)}" for a, b in RANK_PROFILES]
)
def test_gram_rank_law(alpha, beta, rank, q):
    # H_n(q) is semisimple, so the form has rank sum (f^lambda)^2 over the
    # lambda whose hook Schur coefficient is nonzero: by Berele and Regev
    # those that fit the (a, b)-hook, lambda_{a+1} <= b
    a, b = len(alpha), len(beta)
    want = sum(
        _hook_dimension(lam) ** 2
        for lam in _partitions(rank)
        if (lam[a] if a < len(lam) else 0) <= b
    )
    pivots, psd = ldlt_pivots(gram_matrix(params(q, alpha, beta), rank))
    assert psd
    assert sum(1 for d in pivots if d != 0) == want


def test_ldlt_on_known_matrices():
    assert ldlt_pivots([[F(2), F(1)], [F(1), F(2)]]) == ([F(2), F(3, 2)], True)
    pivots, psd = ldlt_pivots([[F(1), F(2)], [F(2), F(1)]])
    assert not psd and pivots == [F(1), F(-3)]
    assert ldlt_pivots([[F(0), F(0)], [F(0), F(5)]]) == ([F(0), F(5)], True)
    pivots, psd = ldlt_pivots([[F(0), F(1)], [F(1), F(0)]])
    assert not psd
    with pytest.raises(ValueError):
        ldlt_pivots([[F(0), F(1)], [F(2), F(0)]])


def test_ldlt_rejects_a_matrix_that_is_not_square():
    # a 1x2 matrix, a row longer than the rest (whose extra entry no pivot
    # would read) and one shorter (which the symmetry test would index past)
    for matrix in ([[1, 2]], [[2, 1], [1, 2, 9]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="matrix is not square"):
            ldlt_pivots(matrix)


def ldlt_pivots_by_fractions(matrix):
    """Oracle for ldlt_pivots: the same sweep as Fraction elimination."""
    n = len(matrix)
    a = [[F(x) for x in row] for row in matrix]
    pivots = []
    for k in range(n):
        d = a[k][k]
        pivots.append(d)
        if d == 0:
            if any(a[k][j] != 0 for j in range(k + 1, n)):
                return pivots, False
            continue
        if d < 0:
            return pivots, False
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f == 0:
                continue
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return pivots, True


def _random_symmetric(rng, n, kind):
    """A symmetric n x n matrix over small fractions: B B^T for a B of
    rank <= n with zero rows mixed in (semidefinite, often singular), or
    a random symmetric matrix with zero entries (mostly indefinite)."""

    def entry():
        return F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6]))

    if kind == "gram":
        r = rng.randint(0, n)
        b = [[entry() for _ in range(r)] if rng.random() < 0.8 else [F(0)] * r for _ in range(n)]
        return [[sum((x * y for x, y in zip(u, v)), F(0)) for v in b] for u in b]
    a = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = entry() if rng.random() < 0.7 else F(0)
    return a


@pytest.mark.parametrize("kind", ["gram", "symmetric"])
def test_integer_ldlt_equals_fraction_elimination(kind):
    rng = Random(2207)
    singular = psd = 0
    for _ in range(400):
        matrix = _random_symmetric(rng, rng.randint(0, 6), kind)
        got = ldlt_pivots(matrix)
        assert got == ldlt_pivots_by_fractions(matrix), matrix
        assert all(type(d) is F for d in got[0])
        psd += got[1]
        singular += got[1] and 0 in got[0][:-1]
    # both rules are met: semidefinite matrices with a skipped zero pivot
    # before the last, and indefinite ones that stop the sweep
    assert singular and (psd < 400 if kind == "symmetric" else psd == 400)


def test_integer_ldlt_of_int_and_mixed_entries_equals_fraction_elimination():
    # each matrix as ints (times the lcm of its denominators) and with its
    # integral entries turned into ints one by one, so that an int may
    # face a Fraction of the same value across the diagonal; as floats, as
    # strings, and mixed with one float entry, which are read as the
    # Fractions that Fraction() makes of them
    rng = Random(29)
    for kind in ("gram", "symmetric"):
        for _ in range(100):
            matrix = _random_symmetric(rng, rng.randint(1, 6), kind)
            s = lcm(*(x.denominator for row in matrix for x in row))
            ints = [[int(x * s) for x in row] for row in matrix]
            mixed = [
                [int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in row]
                for row in matrix
            ]
            floats = [[float(x) for x in row] for row in matrix]
            strings = [[str(x) for x in row] for row in matrix]
            one_float = [row[:] for row in mixed]
            one_float[0][0] = float(one_float[0][0])
            for m in (ints, mixed, floats, strings, one_float):
                got = ldlt_pivots(m)
                assert got == ldlt_pivots_by_fractions(m), m
                assert all(type(d) is F for d in got[0])
    # equal numerators over unequal denominators, an int against a
    # Fraction of another value, and two unequal floats
    for matrix in (
        [[F(0), F(1, 2)], [F(1, 3), F(0)]],
        [[0, 1], [F(1, 2), 0]],
        [[1.0, 0.5], [0.25, 1.0]],
    ):
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            ldlt_pivots(matrix)


@pytest.mark.parametrize(
    "p", [P_FLAT, P_MIX, P_WIDE, P_TWO_BETA], ids=["flat", "mix", "wide", "two_beta"]
)
def test_integer_ldlt_of_rank_four_grams(p):
    gram = gram_matrix(TraceParams(q=F(2, 3), alpha=p.alpha, beta=p.beta), 4)
    pivots, psd = ldlt_pivots(gram)
    assert (pivots, psd) == ldlt_pivots_by_fractions(gram)
    assert psd and len(pivots) == 24


@pytest.mark.parametrize("p", [P_FLAT, P_MIX])
def test_thoma_degeneration_at_q1(p):
    p1 = TraceParams(q=F(1), alpha=p.alpha, beta=p.beta)
    for m in range(2, 5):
        ctx = ModelContext.create(p1, slots=m)
        assert matrix_element(ctx, zeta_interval(1, m, rank=m)) == thoma_trace(m, p1)


def test_matrix_elements_are_pure_rational():
    # the rationality invariant, checked on the raw inner product
    ctx = ModelContext.create(P_WIDE, slots=3)
    xi = xi_state(ctx)
    for m in (2, 3):
        val = apply_hecke(ctx, zeta_interval(1, m, rank=3), "left", xi).inner(xi)
        rat, pure = val.rational_part()
        assert pure
        assert rat == zeta_trace(m, P_WIDE)


def test_state_dump_format():
    ctx = ModelContext.create(P_TRIV, slots=2)
    lines = xi_state(ctx).dump_lines()
    assert lines == ["I=[1,1] J=[1,1] coeff=1"]


# ---------------------------------------------------------------------------
# one model per parameter set: every route walks only the slots its element
# touches, so a value does not depend on the width of the model


def _elements_of_rank(rank):
    """Every eighth-or-so basis element of H_rank, and from rank 2 on a
    combination of the longest element and a generator."""
    elements = [HeckeElement.basis(w) for w in all_perms(rank)]
    if rank > 1:
        elements.append(
            HeckeElement.basis(tuple(range(rank, 0, -1)))
            + HeckeElement.generator(1, rank).scale(F(-3, 2))
        )
    return elements[:: max(1, len(elements) // 8)]


@pytest.mark.parametrize("q", ["2", "1/3", "1"])
def test_one_model_gives_every_rank_the_values_of_a_fresh_model(q):
    # P5 with the zero-weight index 3: each route on a 5-slot model, at
    # every rank r, equals the route on a model created with r slots
    model = ORACLE_MODELS[5]
    assert model[0] == "P5_zero_weight"
    wide = oracle_context(model, q, 5)
    for rank in range(1, 6):
        fresh = oracle_context(model, q, rank)
        assert diagonal_zeta(wide, rank) == diagonal_zeta(fresh, rank)
        for x in _elements_of_rank(rank):
            assert matrix_element(wide, x) == matrix_element(fresh, x), x
            op = normal_form(wide, x)
            assert op == normal_form(fresh, x), x
            assert all(len(tup) == rank for table in op.values() for tup in table), x
            assert omega_trace(wide, op) == omega_trace(fresh, op), x


def test_normal_form_walks_only_the_rank_of_its_element(monkeypatch):
    # on a 5-slot model the walk of an element of rank r starts from the
    # |S|^r tagged basis tensors, not from the |S|^5 of the model
    starts = []
    int_walk = tensor._int_walk

    def recorded(walk, slots, state):
        starts.append(len(state))
        return int_walk(walk, slots, state)

    monkeypatch.setattr(tensor, "_int_walk", recorded)
    ctx = oracle_context(ORACLE_MODELS[5], "2", 5)
    size = len(ctx.support)
    for rank in range(1, 5):
        starts.clear()
        for x in _elements_of_rank(rank):
            normal_form(ctx, x)
        assert starts and max(starts) <= size**rank, (rank, max(starts))


@pytest.mark.parametrize("ranks", [(2, 3, 4, 5), (5, 4, 3, 2)], ids=["low_rank_first", "high_rank_first"])
def test_a_fault_in_r_matrix_reaches_every_rank(ranks):
    # R(1, 1) = q - 1 + sqrt(q), b R = (a - b) + t: a sqrt(q) part that the
    # matrix element, the diagonal route and the normal form of the one
    # model must report at every rank, whichever rank builds the walk first
    q = F(2, 3)
    ctx = ModelContext.create(params(q, alpha=("1/2", "1/2")), 5)
    ctx.r_matrix[(1, 1)] = [((1, 1), 0, q.numerator - q.denominator), ((1, 1), 1, 1)]
    for rank in ranks:
        routes = {
            "matrix element": lambda: matrix_element(ctx, HeckeElement.generator(1, rank)),
            f"diagonal route for m={rank}": lambda: diagonal_zeta(ctx, rank),
            "normal form": lambda: normal_form(ctx, HeckeElement.generator(1, rank)),
        }
        for route, evaluate in routes.items():
            with pytest.raises(CrossCheckError) as err:
                evaluate()
            assert route in str(err.value) and "5 slots" in str(err.value)
