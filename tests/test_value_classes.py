"""The three value classes on report.Value, CheckResult, TraceParams and
ModelContext: equality, hash and repr over their fields only, no
assignment or deletion, and copies and pickles equal to the original."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from hecketrace.report import CheckResult, format_records
from hecketrace.tensor import ModelContext
from hecketrace.traces import TraceParams


def _params():
    return TraceParams(q=F(2), alpha=(F(1, 2),), beta=(F(1, 2),))


# name -> a builder of fresh, equal instances, and one instance that differs
INSTANCES = {
    "CheckResult": (lambda: CheckResult("a", True), CheckResult("a", True, "x")),
    "TraceParams": (_params, TraceParams(q=F(2), alpha=(F(1),))),
    "ModelContext": (lambda: ModelContext.create(_params(), 3), ModelContext.create(_params(), 4)),
}

# the reprs of the instances above: the class name, then name=repr(value)
# for each field in order
REPRS = {
    "CheckResult": "CheckResult(name='a', passed=True, detail='')",
    "TraceParams": (
        "TraceParams(q=Fraction(2, 1), alpha=(Fraction(1, 2),), beta=(Fraction(1, 2),), "
        "gamma=Fraction(0, 1))"
    ),
    "ModelContext": (
        "ModelContext(params=TraceParams(q=Fraction(2, 1), alpha=(Fraction(1, 2),), "
        "beta=(Fraction(1, 2),), gamma=Fraction(0, 1)), slots=3, support=(-1, 1))"
    ),
}

FIELDS = {
    "CheckResult": "name",
    "TraceParams": "q",
    "ModelContext": "slots",
}

NAMES = list(INSTANCES)


@pytest.mark.parametrize("name", NAMES)
def test_values_compare_by_their_fields(name):
    build, other = INSTANCES[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != other and other != a
    assert a.__eq__(object()) is NotImplemented
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_weight_numerators_and_cached_properties_are_not_fields():
    a, b = _params(), _params()
    a.numerators_by_index  # cached on a, not on b
    a.__dict__["weight_numerators"] = (7, (), ())
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "numerators" not in repr(a)
    assert b.weight_numerators == (2, (1,), (1,))


def test_trace_params_never_equal_a_tuple():
    p = _params()
    fields = (p.q, p.alpha, p.beta, p.gamma)
    assert p != fields and fields != p
    assert p.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("name", NAMES)
def test_values_refuse_assignment_and_deletion(name):
    instance = INSTANCES[name][0]()
    field = FIELDS[name]
    value = getattr(instance, field)
    for attr in (field, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
            setattr(instance, attr, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{attr}'"):
            delattr(instance, attr)
    assert getattr(instance, field) is value and not hasattr(instance, "other")


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_equal_the_original(name):
    instance = INSTANCES[name][0]()
    for twin in (copy.copy(instance), pickle.loads(pickle.dumps(instance))):
        assert twin is not instance and type(twin) is type(instance)
        assert twin == instance and repr(twin) == repr(instance)
        assert vars(twin) == vars(instance)
        with pytest.raises(AttributeError):
            setattr(twin, FIELDS[name], 1)


@pytest.mark.parametrize("name", NAMES)
def test_reprs_list_the_fields(name):
    assert repr(INSTANCES[name][0]()) == REPRS[name]


def test_format_records_writes_the_three_fields():
    results = [CheckResult("b", False, 'off by "1"'), CheckResult("a", True)]
    assert format_records(results) == [
        '{"name": "a", "passed": true, "detail": ""}',
        '{"name": "b", "passed": false, "detail": "off by \\"1\\""}',
    ]
