"""The R-matrix tensor model and its evaluation paths."""

from fractions import Fraction as F
from math import factorial, prod
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from hecketrace import tensor
from hecketrace.hecke import HeckeElement, mul, zeta_interval
from hecketrace.permutations import all_perms, identity
from hecketrace.scalars import CrossCheckError
from hecketrace.suites import default_profiles, profile_params
from hecketrace.tensor import (
    ModelContext,
    PermDiagOperator,
    TensorState,
    apply_hecke,
    apply_r,
    bimodule_checks,
    diag_coeff,
    diagonal_zeta,
    generator_operator,
    gram_matrix,
    ldlt_pivots,
    matrix_element,
    normal_form,
    omega_trace,
    r_matrix_laws,
    xi_state,
)
from hecketrace.traces import TraceParams, thoma_trace, zeta_trace


def params(q, alpha=(), beta=()):
    return TraceParams(
        q=F(q), alpha=tuple(F(a) for a in alpha), beta=tuple(F(b) for b in beta)
    )


P_FLAT = params(2, alpha=("1/2", "1/2"))
P_TRIV = params(2, alpha=(1,))
P_SIGN = params(2, beta=(1,))
P_MIX = params(2, alpha=("1/2",), beta=("1/2",))
P_WIDE = params(2, alpha=("2/3", "1/6"), beta=("1/6",))


def random_state(ctx, rng: Random, terms: int = 4) -> TensorState:
    support = ctx.support
    n = ctx.slots
    out = {}
    for _ in range(terms):
        ti = tuple(rng.choice(support) for _ in range(n))
        tj = tuple(rng.choice(support) for _ in range(n))
        out[(ti, tj)] = ctx.table.from_rational(F(rng.randrange(-3, 4), rng.randrange(1, 3)))
    return TensorState(ctx.table, out)


# ---------------------------------------------------------------------------
# the distinguished state


def test_xi_single_weight():
    ctx = ModelContext.create(P_TRIV, slots=3)
    xi = xi_state(ctx)
    assert list(xi.terms) == [((1, 1, 1), (1, 1, 1))]
    assert xi.terms[((1, 1, 1), (1, 1, 1))] == ctx.table.one()


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


def test_normal_form_of_unit():
    ctx = ModelContext.create(P_FLAT, slots=2)
    op = normal_form(ctx, HeckeElement.unit(2))
    assert set(op.terms) == {identity(2)}
    assert all(v == ctx.table.one() for v in op.terms[identity(2)].values())


def test_normal_form_of_generator():
    ctx = ModelContext.create(P_FLAT, slots=2)
    op = normal_form(ctx, HeckeElement.generator(1, 2))
    swap = (2, 1)
    assert set(op.terms) == {identity(2), swap}
    diag = op.terms[identity(2)]
    assert diag[(1, 1)] == ctx.table.from_rational(F(2))
    assert diag[(1, 2)] == ctx.table.from_rational(F(1))  # q - 1
    assert (2, 1) not in diag  # decreasing pairs carry 0
    off = op.terms[swap]
    assert off[(1, 2)] == -ctx.sqrt_q()
    assert off[(2, 1)] == -ctx.sqrt_q()
    assert (1, 1) not in off


def test_generator_operator_matches_apply_r():
    ctx = ModelContext.create(P_WIDE, slots=3)
    rng = Random(31)
    for m in (1, 2):
        op = generator_operator(ctx, m)
        for _ in range(3):
            state = random_state(ctx, rng)
            assert op.apply(state) == apply_r(ctx, m, "left", state)


def test_operator_composition_matches_sequential_application():
    ctx = ModelContext.create(P_FLAT, slots=3)
    rng = Random(8)
    g1, g2 = generator_operator(ctx, 1), generator_operator(ctx, 2)
    comp = g1.compose(g2)
    for _ in range(5):
        state = random_state(ctx, rng)
        assert comp.apply(state) == apply_r(ctx, 1, "left", apply_r(ctx, 2, "left", state))


def test_normal_form_agrees_with_lift():
    ctx = ModelContext.create(P_FLAT, slots=3)
    rng = Random(12)
    xi = xi_state(ctx)
    for _ in range(5):
        x = HeckeElement.basis(tuple(rng.sample(range(1, 4), 3)))
        assert normal_form(ctx, x).apply(xi) == apply_hecke(ctx, x, "left", xi)


def test_omega_trace_of_identity_table():
    ctx = ModelContext.create(P_WIDE, slots=3)
    assert omega_trace(ctx, PermDiagOperator.identity_op(ctx)) == 1


def test_omega_trace_of_bare_swap():
    # a bare transposition with constant table 1 contributes sum of a_i^2
    ctx = ModelContext.create(P_FLAT, slots=2)
    table = {
        tup: ctx.table.one()
        for tup in [(i, j) for i in ctx.support for j in ctx.support]
    }
    op = PermDiagOperator(ctx, {(2, 1): table})
    assert omega_trace(ctx, op) == F(1, 2)


def test_omega_trace_of_zeta2():
    ctx = ModelContext.create(P_FLAT, slots=2)
    assert omega_trace(ctx, normal_form(ctx, zeta_interval(1, 2))) == F(5, 4)


def test_omega_trace_purity_guard():
    ctx = ModelContext.create(P_FLAT, slots=2)
    table = {
        tup: ctx.sqrt_q()
        for tup in [(i, j) for i in ctx.support for j in ctx.support]
    }
    op = PermDiagOperator(ctx, {identity(2): table})
    with pytest.raises(CrossCheckError):
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


# ---------------------------------------------------------------------------
# R-matrix laws on every basis tensor of V^(3)


@pytest.mark.parametrize("p", [P_TRIV, P_FLAT, P_WIDE])
@pytest.mark.parametrize("q", ["2", "3", "1/2"])
def test_dense_quadratic_and_braid(p, q):
    p = TraceParams(q=F(q), alpha=p.alpha, beta=p.beta)
    ctx = ModelContext.create(p, slots=3)
    assert r_matrix_laws(ctx, "left") == (True, True)
    assert r_matrix_laws(ctx, "right") == (True, True)


@pytest.mark.parametrize(
    "wrong",
    [
        lambda q, x, y: q - 1 if x > y else diag_coeff(q, x, y),
        lambda q, x, y: diag_coeff(q, x, y) + (1 if x < y else 0),
    ],
    ids=["decreasing_pair_gets_q_minus_1", "increasing_pair_gets_plus_1"],
)
def test_r_matrix_laws_reject_a_wrong_r(monkeypatch, wrong):
    monkeypatch.setattr(tensor, "diag_coeff", wrong)
    ctx = ModelContext.create(P_WIDE, slots=3)
    assert r_matrix_laws(ctx, "left") == (False, False)
    assert r_matrix_laws(ctx, "right") == (False, False)


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
    assert r_matrix_laws(ctx, "left") == (True, True)
    assert r_matrix_laws(ctx, "right") == (True, True)
    state = random_state(ctx, Random(seed))
    assert generator_operator(ctx, m).apply(state) == apply_r(ctx, m, "left", state)


# ---------------------------------------------------------------------------
# bimodule identities, Gram positivity, Thoma degeneration


def test_bimodule_checks_pass():
    ctx = ModelContext.create(P_FLAT, slots=4)
    results = bimodule_checks(ctx, Random(2026), 10, 5, 3)
    assert all(r.passed for r in results), [r.line() for r in results]


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
