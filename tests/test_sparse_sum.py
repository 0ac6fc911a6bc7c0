"""scalars.sparse_sum, and the five sparse types that store what it returns."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hecketrace.fqconv import FqFunction
from hecketrace.hecke import HeckeElement
from hecketrace.scalars import QPoly, RootElem, SqrtTable, sparse_sum
from hecketrace.tensor import ModelContext, PermDiagOperator, TensorState
from hecketrace.traces import TraceParams

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)
pairs = st.lists(st.tuples(st.sampled_from("abcd"), coefficients), max_size=12)


@settings(max_examples=100, deadline=None)
@given(terms=pairs, cancelling=pairs, rng=st.randoms(use_true_random=False))
def test_sparse_sum_is_the_keywise_sum(terms, cancelling, rng):
    terms = terms + [t for k, c in cancelling for t in ((k, c), (k, -c))]
    rng.shuffle(terms)
    totals = {k: sum(c for key, c in terms if key == k) for k, _ in terms}
    want = {k: total for k, total in totals.items() if total != 0}
    assert sparse_sum(terms) == want
    assert sparse_sum(want) == want  # a mapping stands for its items


TABLE = SqrtTable({"x": 2})
CTX = ModelContext.create(TraceParams(q=F(2), alpha=(F(1),)), slots=2, extra_indices=(-1,))

# type -> (build from pairs and return the stored dict, key a, key b, coefficient)
CONSTRUCTORS = {
    "RootElem": (lambda t: RootElem(TABLE, t).comps, frozenset({"x"}), frozenset(), F(3, 2)),
    "TensorState": (
        lambda t: TensorState(TABLE, t).terms, ((1,), (1,)), ((1,), (-1,)), TABLE.sqrt("x")
    ),
    "PermDiagOperator": (
        lambda t: PermDiagOperator(CTX, {(2, 1): t}).terms[(2, 1)], (1, 1), (1, -1), CTX.sqrt_q()
    ),
    "HeckeElement": (lambda t: HeckeElement(2, t).terms, (1, 2), (2, 1), QPoly([1, -1])),
    "FqFunction": (lambda t: FqFunction(2, 2, t).values, (1, 2), (2, 1), F(1, 3)),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_constructor_sums_repeated_keys_and_drops_cancelled_ones(name):
    stored, a, b, c = CONSTRUCTORS[name]
    assert stored([(a, c), (b, c), (a, c), (b, -c)]) == {a: c + c}


def test_perm_diag_operator_drops_a_cancelled_table():
    c = CTX.sqrt_q()
    op = PermDiagOperator(CTX, {(2, 1): [((1, 1), c), ((1, 1), -c)], (1, 2): {(1, 1): c}})
    assert list(op.terms) == [(1, 2)]


def test_hecke_element_checks_cancelled_keys_too():
    with pytest.raises(ValueError, match="rank-2"):
        HeckeElement(2, [((1, 2, 3), 1), ((1, 2, 3), -1)])
