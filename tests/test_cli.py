"""Command-line surface: outputs, formats, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from hecketrace import cli, suites, tensor
from hecketrace.cli import (
    MAX_CROSS_CHECK,
    MAX_SIZE,
    MAX_TENSOR_SIZE,
    MAX_VALUE_BITS,
    _check_size,
    _check_tensor_size,
    main,
)
from hecketrace.scalars import PowerSeries
from hecketrace.tensor import ModelContext
from hecketrace.traces import TraceParams, generating_series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# trace


def test_trace_single_cycle(capsys):
    code, out, _ = run(capsys, "trace", "--m", "3", "--q", "2", "--alpha", "1",
                       "--beta", "")
    assert code == 0
    assert out.strip() == "4"


def test_trace_partition(capsys):
    code, out, _ = run(
        capsys, "trace", "--partition", "2,2", "--q", "2", "--alpha", "1/2,1/2"
    )
    assert code == 0
    assert out.strip() == "25/16"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["trace", "--m", "301"], "--m"),
        (["trace", "--partition", "200,101"], "the sum of --partition"),
        (["series", "--degree", "301"], "--degree"),
    ],
    ids=["m", "partition", "degree"],
)
def test_size_bound_exit_2_fast(capsys, argv, flag):
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv, "--q", "2", "--alpha", "1/2,1/2")
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert f"{flag} must be <= {MAX_SIZE}, got 301" in err


def test_verify_m_is_bounded_on_a_one_weight_profile(capsys):
    # one weight gives 1^slots basis tensors, which the tensor-size bound
    # lets through, but the suite's cost still grows about cubically in m
    t0 = time.monotonic()
    code, out, err = run(
        capsys, "verify", "--suite", "tensor", "--m", "301", "--q", "5/4", "--beta", "1"
    )
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert f"--m must be <= {MAX_SIZE}, got 301" in err


WIDE_TINY_Q = ["--q", "1e-300", "--alpha", "1/2,1/3", "--beta", "1/6"]


@pytest.mark.parametrize(
    "argv,flag,product",
    [
        (["trace", "--m", "300", *WIDE_TINY_Q], "--m 300", 300 * 1001),
        (["trace", "--partition", "150,150", *WIDE_TINY_Q], "the sum of --partition 300", 300 * 1001),
        (["trace", "--m", "20", "--cross-check", *WIDE_TINY_Q], "--m 20", 20 * 1001),
        (["series", "--degree", "300", *WIDE_TINY_Q], "--degree 300", 300 * 1001),
        (["verify", "--suite", "tensor", "--m", "300", "--q", "1e-30", "--beta", "1"], "--m 300", 300 * 102),
        (["verify", "--suite", "all", "--q", "1e-1000", "--beta", "1"], "--m 5", 5 * 3324),
    ],
    ids=["m", "partition", "cross_check", "degree", "verify_m", "verify_default_m"],
)
def test_value_bits_bound_exit_2_fast(capsys, argv, flag, product):
    # without the bound the first of these runs for minutes: the recurrence
    # carries the 300th powers of q's 1001-bit denominator
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, "")
    assert f"{flag} times the " in err
    assert f"is {product}, more than MAX_VALUE_BITS = {MAX_VALUE_BITS}" in err


def test_value_bits_bound_edge(capsys):
    # bits(1) + bits(2^k) + bits(6) = k + 5 bits for q = 1/2^k and weights
    # over 6; at m = 300 the bound admits k = 49 and refuses k = 50
    wide = dict(alpha=(Fraction(1, 2), Fraction(1, 3)), beta=(Fraction(1, 6),))
    _check_size("--m", 300, TraceParams(q=Fraction(1, 2**49), **wide))
    with pytest.raises(ValueError, match="--m 300 times the 55 bits"):
        _check_size("--m", 300, TraceParams(q=Fraction(1, 2**50), **wide))
    # a suite that runs no cycle length reads the bound at its slot count:
    # 3 slots of 999 bits pass, 3 of 13290 bits do not
    code, out, _ = run(capsys, "verify", "--suite", "rmatrix", "--q", "1e-300", "--beta", "1")
    assert code == 0 and out
    code, out, err = run(capsys, "verify", "--suite", "rmatrix", "--q", "1e-4000", "--beta", "1")
    assert (code, out) == (2, "")
    assert "the rmatrix suite's slot count 3 times the 13290 bits" in err


HALF_TINY_Q = ["--alpha", "1/2,1/2", "--q"]


@pytest.mark.parametrize(
    "argv,what,product",
    [
        (["gram", "--n", "3", *HALF_TINY_Q, "1e-2000"], "--n 3", 3 * 6647),
        (["gram", "--n", "3", *HALF_TINY_Q, "1e-4300"], "--n 3", 3 * 14288),
        (["verify", "--suite", "gram", *HALF_TINY_Q, "1e-2000"], "the gram suite's slot count 4", 4 * 6647),
        (["verify", "--suite", "gram", *HALF_TINY_Q, "1e-4300"], "the gram suite's slot count 4", 4 * 14288),
        (["verify", "--suite", "all", "--m", "1", *HALF_TINY_Q, "1e-4000"], "the all suite's slot count 5", 5 * 13291),
    ],
    ids=["gram", "gram_4300", "verify_gram", "verify_gram_4300", "verify_all_m1"],
)
def test_value_bits_bound_on_slots_exit_2_fast(capsys, argv, what, product):
    # without the bound these take 0.9 to 10 s as fresh processes
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, "")
    assert f"{what} times the " in err
    assert f"is {product}, more than MAX_VALUE_BITS = {MAX_VALUE_BITS}" in err


def test_gram_just_inside_the_value_bits_bound(capsys):
    # 3 slots of 1 + 5448 + 2 bits = 16353 <= 16384
    code, out, err = run(capsys, "gram", "--n", "3", *HALF_TINY_Q, "1e-1640")
    assert (code, err) == (0, "")
    assert out.endswith("psd,yes\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--m", "1", "--q", "1e-10000000", "--alpha", "1"],
        ["verify", "--suite", "all", "--q", "1e-5000", "--beta", "1"],
        ["series", "--degree", "1", "--q", "2", "--alpha", "1E+4301"],
    ],
    ids=["trace", "verify", "series_weight"],
)
def test_exponent_bound_exit_2_fast(capsys, argv):
    # Fraction("1e-10000000") alone forms 10^10000000, about 12 s
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, "")
    assert f"is above {sys.get_int_max_str_digits()}, the limit on the digits of an int string" in err


def test_trace_thoma_at_q1(capsys):
    code, out, _ = run(capsys, "trace", "--m", "2", "--q", "1", "--alpha", "1/2,1/2")
    assert code == 0
    assert out.strip() == "1/2"


def test_trace_cross_check(capsys):
    code, out, _ = run(
        capsys,
        "trace", "--partition", "2,2", "--q", "2", "--alpha", "1/2,1/2",
        "--cross-check",
    )
    assert code == 0
    assert out.strip() == "25/16"


def test_trace_cross_check_mismatch_exit_3(capsys, monkeypatch):
    # a tensor route one off the formula must exit 3 and say what disagreed
    matrix_element = tensor.matrix_element
    monkeypatch.setattr(tensor, "matrix_element", lambda ctx, x: matrix_element(ctx, x) + 1)
    code, out, err = run(
        capsys,
        "trace", "--partition", "2,1", "--q", "2", "--alpha", "1/2,1/2",
        "--cross-check",
    )
    params = TraceParams(q=Fraction(2), alpha=(Fraction(1, 2), Fraction(1, 2)))
    assert code == 3
    assert out == ""
    assert "cross-check mismatch on partition [2, 1]" in err
    assert str(params.to_record()) in err
    assert "formula 5/4, tensor model 9/4" in err


def _fault_every_model(monkeypatch):
    """Every model built from now on has R(x, x) = q - 1 + sqrt(q) for x > 0,
    b R = (a - b) + t for q = a/b: a sqrt(q) part that no route may pass."""
    create = ModelContext.create.__func__

    def faulty(cls, *args, **kwargs):
        ctx = create(cls, *args, **kwargs)
        a, b = ctx.q.numerator, ctx.q.denominator
        for x in ctx.support:
            if x > 0:
                ctx.r_matrix[x, x] = [((x, x), 0, a - b), ((x, x), 1, 1)]
        return ctx

    monkeypatch.setattr(ModelContext, "create", classmethod(faulty))


@pytest.mark.parametrize(
    "argv,route",
    [
        (["trace", "--m", "2", "--cross-check"], "matrix element of T[2,1]"),
        (["gram", "--n", "2"], "Gram entry (0, 1)"),
        (["verify", "--suite", "tensor", "--m", "2"], "matrix element of T[2,1]"),
    ],
    ids=["trace", "gram", "verify"],
)
def test_broken_invariant_exit_3(capsys, monkeypatch, argv, route):
    # a CrossCheckError inside a route is a cross-check that disagreed: exit
    # 3 with the message on stderr, not a traceback
    _fault_every_model(monkeypatch)
    code, out, err = run(capsys, *argv, "--q", "2", "--alpha", "1/2,1/2")
    params = TraceParams(q=Fraction(2), alpha=(Fraction(1, 2), Fraction(1, 2)))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {route} has non-cancelling square-root components")
    assert f"params {params.to_record()}" in err


def test_trace_records_format(capsys):
    code, out, _ = run(
        capsys, "trace", "--m", "2", "--q", "2", "--alpha", "1/2,1/2",
        "--format", "records",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == "5/4"
    assert rec["partition"] == [2]


# the m = 150 cycle on one weight at q = 10^-30 is 10^-4470, whose
# denominator has more digits than CPython converts to a string by default
LONG_VALUE = ["--m", "150", "--q", "1e-30", "--alpha", "1"]
TINY = "1/1" + "0" * 4470


@pytest.mark.parametrize(
    "extra", [[], ["--cross-check"], ["--format", "records"]], ids=["csv", "cross_check", "records"]
)
def test_trace_prints_a_value_over_4300_digits_in_full(capsys, extra):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "trace", *LONG_VALUE, *extra)
    assert (code, err) == (0, "")
    records = extra == ["--format", "records"]
    assert (json.loads(out)["value"] if records else out.removesuffix("\n")) == TINY
    assert sys.get_int_max_str_digits() == limit  # main puts the bound back


def test_trace_mismatch_and_broken_invariant_print_long_values_in_full(capsys, monkeypatch):
    matrix_element = tensor.matrix_element
    monkeypatch.setattr(tensor, "matrix_element", lambda ctx, x: matrix_element(ctx, x) + 1)
    code, out, err = run(capsys, "trace", *LONG_VALUE, "--cross-check")
    assert (code, out) == (3, "")
    assert f"formula {TINY}, tensor model 1{'0' * 4469}1/1{'0' * 4470}\n" in err
    monkeypatch.undo()
    _fault_every_model(monkeypatch)
    code, out, err = run(capsys, "trace", *LONG_VALUE, "--cross-check")
    assert (code, out) == (3, "")
    assert "has non-cancelling square-root components" in err
    assert max(map(len, err.split())) > 4300


def test_an_input_literal_over_the_digit_bound_exit_2(capsys):
    code, out, err = run(capsys, "trace", "--m", "2", "--q", "1" + "0" * 4400, "--alpha", "1")
    assert (code, out) == (2, "")
    assert "Exceeds the limit (4300 digits)" in err


def test_trace_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "trace", "--m", "2", "--q", "2", "--alpha", "1/4,1/4")
    assert code == 2
    assert "off by -1/2" in err


def test_trace_requires_m_or_partition(capsys):
    code, _, err = run(capsys, "trace", "--q", "2", "--alpha", "1")
    assert code == 2


@pytest.mark.parametrize("partition", ["2,1", ""])
def test_trace_m_and_partition_exit_2(capsys, partition):
    # one of them would be dropped without a word
    code, out, err = run(
        capsys, "trace", "--m", "3", "--partition", partition, "--q", "2", "--alpha", "1"
    )
    assert code == 2
    assert out == ""
    assert "--m and --partition" in err


@pytest.mark.parametrize("partition", ["", ",", " , ,"])
def test_trace_empty_partition_exit_2(capsys, partition):
    code, out, err = run(capsys, "trace", "--partition", partition, "--q", "2", "--alpha", "1")
    assert code == 2
    assert out == ""
    assert "has no parts" in err


@pytest.mark.parametrize("m", ["0", "-2"])
@pytest.mark.parametrize("extra", [[], ["--cross-check"]], ids=["plain", "cross_check"])
def test_trace_m_below_one_exit_2(capsys, m, extra):
    code, out, err = run(capsys, "trace", "--m", m, "--q", "2", "--alpha", "1", *extra)
    assert code == 2
    assert out == ""
    assert f"--m must be >= 1, got {m}" in err


def test_trace_cross_check_rejects_gamma(capsys):
    code, _, err = run(
        capsys,
        "trace", "--m", "2", "--q", "2", "--alpha", "1/2", "--gamma", "1/2",
        "--cross-check",
    )
    assert code == 2
    assert "gamma" in err


def weights(count: int) -> str:
    return ",".join([f"1/{count}"] * count)


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["trace", "--m", "300", "--q", "2", "--alpha", weights(21), "--cross-check"],
            "21 weights on 300 slots, |S|^2 slots = 132300",
        ),
        (
            ["trace", "--partition", "5,4", "--q", "2", "--alpha", ",".join(["1/120"] * 60),
             "--beta", ",".join(["1/120"] * 60), "--cross-check"],
            "120 weights on 9 slots, |S|^2 slots = 129600",
        ),
        (["verify", "--suite", "tensor", "--m", "9"], "3^9 basis tensors per side"),
        (["gram", "--n", "3", "--q", "2", "--alpha", weights(19)], "19^3 basis tensors per side"),
    ],
    ids=["trace_m", "trace_partition", "verify_tensor", "gram"],
)
def test_tensor_size_bound_exit_2_fast(capsys, argv, message):
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert message in err
    if argv[0] == "trace":
        assert f"more than MAX_CROSS_CHECK = {MAX_CROSS_CHECK}" in err
    else:
        assert f"more than MAX_TENSOR_SIZE = {MAX_TENSOR_SIZE}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--m", "9", "--q", "2", "--alpha", "1/2,1/4", "--beta", "1/4"],
        ["--m", "300", "--q", "5/4", "--alpha", "1/4,1/4", "--beta", "1/4,1/4"],
        ["--partition", "2,1", "--q", "3", "--alpha", weights(100)],
    ],
    ids=["m9_three_weights", "m300_four_weights", "rank3_100_weights"],
)
def test_cross_check_admits_models_past_the_basis_bound(capsys, argv):
    # |S|^slots far past MAX_TENSOR_SIZE, |S|^2 slots within MAX_CROSS_CHECK
    code, out, err = run(capsys, "trace", *argv, "--cross-check")
    assert (code, err) == (0, "")
    assert run(capsys, "trace", *argv) == (0, out, "")


def test_tensor_size_bound_admits_seven_slots_of_three_weights():
    # the largest model the benchmark builds; 3^8 is the last one admitted
    alpha, beta = (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 6),)
    for slots in (7, 8):
        _check_tensor_size("test", alpha, beta, slots)
    for slots in (9, 10**9):  # the second is refused without forming 3^slots
        with pytest.raises(ValueError, match=rf"3\^{slots} basis"):
            _check_tensor_size("test", alpha, beta, slots)
    _check_tensor_size("test", (Fraction(1),), (), 10**9)  # one weight, one tensor


@pytest.mark.parametrize("suite", ["rmatrix", "tensor", "gram", "all"])
def test_model_slots_is_the_largest_model_a_suite_builds_on_the_profile(monkeypatch, suite):
    # the bound cmd_verify checks is the model the suite really builds
    from hecketrace.tensor import ModelContext

    custom = (Fraction(2, 3), Fraction(1, 3))
    built = []
    create = ModelContext.create.__func__

    def spy(cls, params, slots, *rest):
        if params.alpha == custom:
            built.append(slots)
        return create(cls, params, slots, *rest)

    monkeypatch.setattr(ModelContext, "create", classmethod(spy))
    suites.run_suite(
        suite, qs=(Fraction(2),), m_max=3, profiles=[("custom", custom, ())], cases=((1, 2),)
    )
    assert max(built) == suites.model_slots(suite, 3)
    assert suites.model_slots("hecke") == suites.model_slots("convolution") == 0


def test_tensor_suite_builds_models_only_on_its_own_parameters(monkeypatch):
    # the shift checks included: no model on a default profile or q
    from hecketrace.tensor import ModelContext
    from hecketrace.traces import TraceParams

    custom = TraceParams(q=Fraction(5, 4), alpha=(Fraction(2, 3),), beta=(Fraction(1, 3),))
    built = []
    create = ModelContext.create.__func__

    def spy(cls, params, slots, *rest):
        built.append((params, slots))
        return create(cls, params, slots, *rest)

    monkeypatch.setattr(ModelContext, "create", classmethod(spy))
    results = suites.tensor_suite(
        profiles=[("custom", custom.alpha, custom.beta)], qs=(custom.q,), m_max=2
    )
    assert [r.name for r in results if ".shift." in r.name] == [
        "tensor.shift.m2.k1", "tensor.shift.m2.k2", "tensor.shift.m3.k1", "tensor.shift.m3.k2"
    ]
    assert all(r.passed for r in results)
    assert {params for params, _ in built} == {custom}
    assert max(slots for _, slots in built) == suites.model_slots("tensor", 2) == 5


@pytest.mark.parametrize("m_max", [1, 3, 5])
def test_tensor_suite_creates_one_model_per_parameter_set(monkeypatch, m_max):
    # one model per (profile, q) at the suite's model_slots, from which the
    # four-way and the shift checks derive theirs, and one per P3 and P4 at
    # q = 1 for the Thoma checks (none below m = 2)
    built = []
    create = ModelContext.create.__func__

    def spy(cls, params, slots, *rest):
        built.append((params, slots))
        return create(cls, params, slots, *rest)

    monkeypatch.setattr(ModelContext, "create", classmethod(spy))
    results = suites.tensor_suite(m_max=m_max)
    assert all(r.passed for r in results)
    slots = suites.model_slots("tensor", m_max)
    want = [
        (suites.profile_params(profile, q), slots)
        for q in suites.DEFAULT_QS
        for profile in suites.default_profiles()
    ]
    if m_max >= 2:
        want += [
            (suites.profile_params(profile, Fraction(1)), min(m_max, 4))
            for profile in suites.default_profiles()
            if profile[0] in ("P3", "P4")
        ]
    assert built == want


def test_tensor_suite_runs_the_recurrence_once_per_parameter_set(monkeypatch):
    # one run to m_max gives every four-way value, one to order 8 the
    # series identity, per (profile, q): the run to each m is not repeated
    from hecketrace import traces

    runs = []
    run_to = traces._cycle_numerators

    def spy(m, params):
        runs.append(m)
        return run_to(m, params)

    monkeypatch.setattr(traces, "_cycle_numerators", spy)
    results = suites.tensor_suite(m_max=5)
    assert all(r.passed for r in results)
    assert runs == [5, 8] * len(suites.DEFAULT_QS) * len(suites.default_profiles())


def test_tensor_suite_walks_the_diagonal_once_per_parameter_set(monkeypatch):
    # one diagonal walk to m_max gives every tensor-diagonal value of the
    # four-way checks, per (profile, q); no walk per m
    runs = []
    walk_to = tensor._diagonal_numerators

    def spy(ctx, m_max):
        runs.append(m_max)
        return walk_to(ctx, m_max)

    monkeypatch.setattr(tensor, "_diagonal_numerators", spy)
    results = suites.tensor_suite(m_max=5)
    assert all(r.passed for r in results)
    assert runs == [5] * len(suites.DEFAULT_QS) * len(suites.default_profiles())


def test_shift_checks_form_one_base_element_per_cycle_length(monkeypatch):
    # zeta_m on [1, m] once per m, and one shifted element per (m, k)
    calls = []
    matrix_element = tensor.matrix_element

    def spy(ctx, x):
        calls.append(x)
        return matrix_element(ctx, x)

    monkeypatch.setattr(tensor, "matrix_element", spy)
    params = TraceParams(q=Fraction(2), alpha=(Fraction(1, 2), Fraction(1, 2)))
    results = suites._shift_checks(ModelContext.create(params, 5))
    assert [r.name for r in results] == [
        "tensor.shift.m2.k1", "tensor.shift.m2.k2", "tensor.shift.m3.k1", "tensor.shift.m3.k2"
    ]
    assert all(r.passed for r in results)
    assert len(calls) == 6


def test_verify_tensor_bounds_the_shift_models_by_the_profile(capsys):
    # six weights: the normal form of the m = 5 cycle walks all 6^5 tensors
    six = ",".join(["1/6"] * 6)
    code, out, err = run(
        capsys, "verify", "--suite", "tensor", "--m", "5", "--q", "2", "--alpha", six
    )
    assert code == 2
    assert out == ""
    assert "6^5 basis tensors per side" in err
    assert f"more than MAX_TENSOR_SIZE = {MAX_TENSOR_SIZE}" in err


def test_verify_tensor_admits_what_its_normal_forms_walk(capsys):
    # six weights at m = 2: the normal forms walk 6^2 tensors; the shift
    # checks on five slots walk closed, so they are not bounded by 6^5
    six = ",".join(["1/6"] * 6)
    code, out, err = run(
        capsys, "verify", "--suite", "tensor", "--m", "2", "--q", "2", "--alpha", six
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "passed 7/7"


@pytest.mark.parametrize("suite", ["rmatrix", "tensor", "gram", "all"])
@pytest.mark.parametrize("m_max", [1, 3, 5])
def test_walk_slots_is_the_widest_full_basis_walk_of_a_suite(monkeypatch, suite, m_max):
    # every walk over all basis tensors starts from _diagonal_keys, and the
    # R table of a model holds |S|^2 pairs: on two weights the larger of
    # the two is 2^_walk_slots
    widest = [0]
    keys = tensor._diagonal_keys

    def spy(span, codes):
        codes = list(codes)
        widest[0] = max(widest[0], len(codes))
        return keys(span, codes)

    monkeypatch.setattr(tensor, "_diagonal_keys", spy)
    custom = (Fraction(2, 3), Fraction(1, 3))
    suites.run_suite(
        suite, qs=(Fraction(2),), m_max=m_max, profiles=[("custom", custom, ())], cases=((1, 2),)
    )
    assert max(widest[0], 2**2) == 2 ** suites._walk_slots(suite, m_max)
    assert suites._walk_slots("hecke") == suites._walk_slots("convolution") == 0


# ---------------------------------------------------------------------------
# series


def test_series_geometric(capsys):
    code, out, _ = run(
        capsys, "series", "--q", "2", "--alpha", "1", "--degree", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["0,1", "1,1", "2,2", "3,4", "4,8"]


def test_series_sign_representation(capsys):
    code, out, _ = run(capsys, "series", "--q", "2", "--beta", "1", "--degree", "4")
    assert code == 0
    coeffs = [line.split(",")[1] for line in out.strip().splitlines()]
    assert coeffs == ["1", "1", "-1", "1", "-1"]


def test_series_dual_path_match_column(capsys):
    code, out, _ = run(
        capsys,
        "series", "--q", "2", "--alpha", "1/2,1/2", "--degree", "5", "--dual-path",
    )
    assert code == 0
    for line in out.strip().splitlines():
        parts = line.split(",")
        assert len(parts) == 4
        assert parts[1] == parts[2]
        assert parts[3] == "ok"


def test_series_dual_path_mismatch_exit_3(capsys, monkeypatch):
    series_from_traces = cli.series_from_traces

    def off_in_degree_2(params, order):
        series = series_from_traces(params, order)
        coeffs = list(series.coeffs)
        coeffs[2] += 1
        return PowerSeries(order, coeffs)

    monkeypatch.setattr(cli, "series_from_traces", off_in_degree_2)
    code, out, _ = run(
        capsys,
        "series", "--q", "2", "--alpha", "1/2,1/2", "--degree", "3", "--dual-path",
    )
    assert code == 3
    matches = [line.rsplit(",", 1)[1] for line in out.strip().splitlines()]
    assert matches == ["ok", "ok", "MISMATCH", "ok"]


def test_series_dual_path_at_q1(capsys):
    code, out, _ = run(
        capsys,
        "series", "--q", "1", "--alpha", "1/2", "--beta", "1/2", "--degree", "6", "--dual-path",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.endswith(",ok") for line in lines)


def test_series_rejects_gamma(capsys):
    code, _, err = run(
        capsys, "series", "--q", "2", "--alpha", "1/2", "--gamma", "1/2",
        "--degree", "3",
    )
    assert code == 2


def test_series_prints_coefficients_over_4300_digits_in_full(capsys):
    code, out, err = run(capsys, "series", "--degree", "150", "--q", "1e-30", "--alpha", "1")
    assert (code, err) == (0, "")
    rows = [row.split(",") for row in out.splitlines()]
    assert max(len(c) for _, c in rows) > 4300
    expected = generating_series(TraceParams(q=Fraction(1, 10**30), alpha=(Fraction(1),)), 150)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        parsed = [(int(d), Fraction(c)) for d, c in rows]
    finally:
        sys.set_int_max_str_digits(limit)
    assert parsed == list(enumerate(expected.coeffs))


def test_series_records(capsys):
    code, out, _ = run(
        capsys,
        "series", "--q", "2", "--alpha", "1", "--degree", "3",
        "--dual-path", "--format", "records",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["coefficients"] == ["1", "1", "2", "4"]
    assert rec["match"] is True


# ---------------------------------------------------------------------------
# gram


def test_gram_csv(capsys):
    code, out, _ = run(
        capsys, "gram", "--q", "2", "--alpha", "1/2,1/2", "--n", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    # 2x2 matrix, pivot line, verdict line
    assert len(lines) == 4
    assert lines[-1] == "psd,yes"
    assert lines[-2].startswith("pivots,")


def test_gram_h3(capsys):
    code, out, _ = run(
        capsys, "gram", "--q", "2", "--alpha", "1/2,1/2", "--n", "3",
        "--format", "records",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["psd"] is True
    assert len(rec["gram"]) == 6
    assert len(rec["pivots"]) == 6


def test_gram_rank_guard(capsys):
    code, _, err = run(capsys, "gram", "--q", "2", "--alpha", "1", "--n", "4")
    assert code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_rmatrix_custom_params(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "rmatrix", "--q", "2", "--alpha", "1/2,1/2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("passed ")


def test_verify_convolution_single_case(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "convolution", "--n", "2", "--p", "2"
    )
    assert code == 0
    assert "PASS convolution.gl(2,2).quadratic_at_q=p" in out


@pytest.mark.parametrize("n,p,count", [("2", "7", 6), ("3", "2", 7), ("4", "2", 8)])
def test_verify_convolution_check_counts(capsys, n, p, count):
    code, out, _ = run(capsys, "verify", "--suite", "convolution", "--n", n, "--p", p)
    assert code == 0
    assert out.strip().splitlines()[-1] == f"passed {count}/{count}"
    assert ("distant_commute" in out) == (n == "4")


def test_verify_convolution_rank_one_has_no_vacuous_checks(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "convolution", "--n", "1", "--p", "3"
    )
    assert code == 0
    assert "quadratic" not in out
    assert "braid" not in out
    assert out.strip().splitlines()[-1] == "passed 5/5"


@pytest.mark.parametrize(
    "n,p,message",
    [
        ("2", "4", "not prime"),
        ("3", "41", "n! |B|^2"),
        ("3", "5", "n! |B|^2 = 384000000"),
        ("0", "2", "at least 1"),
        ("1", "1", "not prime"),
        ("1", "1002", "n! |B|^2 = 1002001 > 1000000"),
        ("2", str(2**61 - 1), "n! |B|^2 > 1000000"),
        ("2", str(2**89 - 1), "n! |B|^2 > 1000000"),
        ("2", str(2**89), "n! |B|^2 > 1000000"),
        ("2000", "2", "GL(2000,2) has n! |B|^2 > 1000000"),
    ],
)
def test_verify_convolution_bad_group_exit_2(capsys, n, p, message):
    # the bound comes before the trial division and forms no huge product,
    # so even a group at a large prime or a large n is refused at once
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", "--suite", "convolution", "--n", n, "--p", p)
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert message in err


def test_verify_tensor_custom(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "tensor", "--m", "4", "--q", "3",
        "--alpha", "1/2", "--beta", "1/2",
    )
    assert code == 0
    assert "PASS tensor.four_way.custom.q=3.m4" in out


Q1_TENSOR = ("verify", "--suite", "tensor", "--q", "1", "--alpha", "1/2", "--beta", "1/2")


def test_verify_tensor_at_q1(capsys):
    code, out, _ = run(capsys, *Q1_TENSOR)
    assert code == 0
    assert out.strip().splitlines()[-1] == "passed 10/10"


@pytest.mark.parametrize(
    "route,wrong",
    [
        # the suite reads every recurrence value from one _cycle_values run
        ("_cycle_values", lambda m, params: [Fraction(7)] * m),
        ("zeta_trace_diagonal", lambda m, params: Fraction(7)),
    ],
    ids=["zeta_trace", "zeta_trace_diagonal"],
)
def test_verify_tensor_at_q1_compares_the_closed_routes(capsys, monkeypatch, route, wrong):
    monkeypatch.setattr(suites, route, wrong)
    code, out, _ = run(capsys, *Q1_TENSOR)
    assert code == 1
    assert "FAIL tensor.four_way.custom.q=1.m1" in out


def test_verify_gram_uses_given_parameters(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gram", "--q", "3", "--alpha", "1")
    assert code == 0
    psd = [line for line in out.splitlines() if ".psd." in line]
    assert psd == ["PASS gram.psd.custom.q=3.n3"]
    assert out.strip().splitlines()[-1] == "passed 4/4"


def test_verify_gram_defaults(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gram")
    assert code == 0
    lines = out.strip().splitlines()
    assert "PASS gram.psd.P3.q=2.n3" in lines and "PASS gram.psd.P4.q=2.n3" in lines
    assert lines[-1] == "passed 5/5"


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_verify_verbose_dumps_states(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "tensor", "--m", "2", "--q", "2",
        "--alpha", "1", "-v",
    )
    assert code == 0
    assert "# state custom q=2" in out
    assert "I=[1,1] J=[1,1] coeff=1" in out


def test_verify_report_is_sorted_and_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "hecke")
    _, out2, _ = run(capsys, "verify", "--suite", "hecke")
    assert out1 == out2
    lines = out1.strip().splitlines()[:-1]
    names = [line.split()[1] for line in lines]
    assert names == sorted(names)


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    run(capsys, "trace", "--m", "2", "--q", "2", "--alpha", "1")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ["trace", "--m", "5", "--q", "2", "--alpha", "1/2,1/2"],
        ["series", "--degree", "3", "--q", "2", "--alpha", "1"],
        ["verify", "--suite", "hecke"],
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0
    assert built == []


def _through_the_top_level_parser(argv):
    """The oracle of main's parse: all of argv through the top-level parser,
    which scans every flag and hands the subcommand's words to its parser.
    The subcommand reads the request and returns its answer, which runs."""
    args = cli.build_parser().parse_args(argv)
    return args.func(args)()


def _outcome(capsys, request, argv):
    try:
        code = request(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARAMS = ("--q", "2", "--alpha", "1/2,1/2")
PARSE_CASES = {
    "trace": ("trace", "--m", "3", *PARAMS),
    "series": ("series", "--degree", "3", *PARAMS),
    "gram": ("gram", "--n", "2", *PARAMS),
    "verify": ("verify", "--suite", "hecke"),
    "trace_help": ("trace", "-h"),
    "series_help": ("series", "-h"),
    "gram_help": ("gram", "-h"),
    "verify_help": ("verify", "-h"),
    "help": ("--help",),
    "no_argv": (),
    "unknown_command": ("bogus", "--m", "3"),
    "unknown_flag": ("trace", "--m", "3", *PARAMS, "--bogus"),
    "unknown_flags_and_word": ("verify", "--suite", "hecke", "-x", "--y=3", "z"),
    "bad_int": ("trace", "--m", "abc", *PARAMS),
    "bad_choice": ("trace", "--m", "3", *PARAMS, "--format", "table"),
    "abbreviation": ("trace", "--m", "3", "--q", "2", "--alph", "1/2,1/2"),
}


@pytest.mark.parametrize("argv", PARSE_CASES.values(), ids=PARSE_CASES.keys())
def test_one_parse_answers_as_the_top_level_parser(capsys, argv):
    # the subcommand's parser alone reads its flags; exit code, stdout and
    # stderr are those of the top-level parser's path, and so is the request
    want = _outcome(capsys, _through_the_top_level_parser, argv)
    assert _outcome(capsys, main, argv) == want
    if want[0] == 0 and "-h" not in argv and "--help" not in argv:
        assert cli._parse(list(argv)) == cli.build_parser().parse_args(list(argv))


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--suite", "rmatrix", "--n", "2", "--p", "3"), "--n"),
        (("--suite", "hecke", "--m", "3"), "--m"),
        (("--suite", "convolution", "--q", "2", "--alpha", "1"), "--q"),
        (("--suite", "gram", "-v"), "-v"),
    ],
)
def test_verify_rejects_flags_its_suite_does_not_read(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert f"does not read {flag};" in err
    assert " and all" in err


def test_verify_rejects_the_retired_expensive_flag(capsys):
    # every convolution case runs by default; --expensive is an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "convolution", "--expensive"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --expensive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "hecke"),
        ("--suite", "rmatrix"),
        ("--suite", "tensor"),
        ("--suite", "convolution", "--n", "2", "--p", "2"),
        ("--suite", "rmatrix", "--q", "3/2", "--alpha", "1/2", "--beta", "1/2"),
        ("--suite", "tensor", "--q", "2", "--alpha", "2/3,1/3"),
    ],
)
def test_verify_accepts_each_suites_own_flags(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("passed ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--suite", "rmatrix", "--gamma", "1/2"), "q is required"),
        (("--suite", "tensor", "--m", "0"), "--m must be >= 1"),
        (("--suite", "tensor", "-v", "--format", "records"), "-v dumps states"),
    ],
)
def test_verify_bad_flag_values_exit_2(capsys, argv, message):
    code, _, err = run(capsys, "verify", *argv)
    assert code == 2
    assert message in err


def test_verify_records_format(capsys):
    _, csv_out, _ = run(capsys, "verify", "--suite", "hecke")
    code, out, _ = run(capsys, "verify", "--suite", "hecke", "--format", "records")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    *checks, total = records
    csv_lines = csv_out.strip().splitlines()
    assert [c["name"] for c in checks] == [line.split()[1] for line in csv_lines[:-1]]
    assert all(set(c) == {"name", "passed", "detail"} for c in checks)
    assert all(c["passed"] is True and c["detail"] == "" for c in checks)
    assert total == {"passed": len(checks), "total": len(checks)}


@pytest.mark.parametrize("command", ["trace", "series", "verify"])
def test_table_format_exists_only_for_gram(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "table"])
    assert exc.value.code == 2
    assert "invalid choice: 'table'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parameter files


def test_params_file(tmp_path, capsys):
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"q": "2", "alpha": ["1/2", "1/2"], "beta": []}))
    code, out, _ = run(capsys, "trace", "--m", "2", "--params", str(f))
    assert code == 0
    assert out.strip() == "5/4"


def test_params_file_flag_override_warns(tmp_path, capsys):
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"q": "2", "alpha": ["1/2", "1/2"]}))
    code, out, err = run(capsys, "trace", "--m", "3", "--q", "3", "--alpha", "1",
                         "--params", str(f))
    assert code == 0
    assert out.strip() == "9"
    assert "overrides" in err


@pytest.mark.parametrize(
    "record,flags,warns",
    [
        ({"q": 2, "alpha": ["1/2", "1/2"]}, ("--q", "2"), False),
        ({"q": "2", "alpha": ["1/2", "1/2"]}, ("--alpha", "2/4,1/2"), False),
        ({"q": "4/2", "alpha": [0.5, "1/2"]}, ("--q", "2", "--alpha", "1/2, 2/4"), False),
        ({"q": "2", "alpha": ["1/2", "1/2"]}, ("--alpha", "1/2,1/2,0"), True),
        ({"q": "abc", "alpha": ["1/2", "1/2"]}, ("--q", "2"), True),
    ],
    ids=["int_q", "alpha_in_other_terms", "float_and_string", "longer_alpha", "unparsed_q"],
)
def test_params_file_flag_override_warns_only_on_another_value(tmp_path, capsys, record,
                                                               flags, warns):
    # the file value and the flag are compared as Fractions, element by
    # element; a file value that does not parse differs, and the flag wins
    f = tmp_path / "params.json"
    f.write_text(json.dumps(record))
    code, out, err = run(capsys, "trace", "--m", "2", "--params", str(f), *flags)
    assert code == 0
    assert out.strip() == "5/4"
    assert ("overrides" in err) == warns
    assert err == "" or warns


def test_missing_params_file(capsys):
    code, _, err = run(capsys, "trace", "--m", "2", "--params", "/nonexistent.json")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--m", "3", "--q", "2", "--alpha", "1/0"),
        ("trace", "--m", "3", "--q", "1/0", "--alpha", "1"),
        ("series", "--degree", "2", "--q", "2", "--alpha", "1", "--beta", "1/0"),
        ("gram", "--n", "2", "--q", "2", "--alpha", "1", "--gamma", "1/0"),
        ("verify", "--suite", "tensor", "--q", "1/0", "--alpha", "1"),
    ],
    ids=["trace_alpha", "trace_q", "series", "gram", "verify"],
)
def test_zero_denominator_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "zero denominator in '1/0'" in err


def test_params_file_zero_denominator_exit_2(tmp_path, capsys):
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"q": "3/0", "alpha": ["1"]}))
    code, out, err = run(capsys, "trace", "--m", "2", "--params", str(f))
    assert code == 2
    assert out == ""
    assert "zero denominator in '3/0'" in err


@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_params_file_weights_must_be_a_list(tmp_path, capsys, key):
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"q": "2", key: "1/2,1/2"}))
    code, out, err = run(capsys, "trace", "--m", "2", "--params", str(f))
    assert code == 2
    assert out == ""
    assert f"{key} must be a list of weights, got '1/2,1/2'" in err


def test_params_file_refuses_a_key_it_does_not_read(tmp_path, capsys):
    # a misspelled beta is not dropped: alpha 1/2 and gamma 1/2 would give
    # the value of another trace
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"q": "2", "alpha": ["1/2"], "betas": ["1/2"], "gamma": "1/2"}))
    code, out, err = run(capsys, "trace", "--m", "2", "--params", str(f))
    assert (code, out) == (2, "")
    assert err == "error: a record holds only q, alpha, beta and gamma, not 'betas'\n"


def test_params_file_refuses_a_repeated_key(tmp_path, capsys):
    f = tmp_path / "params.json"
    f.write_text('{"q": "2", "alpha": ["1"], "q": "3"}')
    code, out, err = run(capsys, "trace", "--m", "2", "--params", str(f))
    assert (code, out) == (2, "")
    assert err == f"error: params file {f} repeats the key 'q'\n"


def test_params_file_nested_too_deeply_exits_2(tmp_path, capsys):
    f = tmp_path / "params.json"
    f.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "trace", "--m", "2", "--params", str(f))
    assert (code, out) == (2, "")
    assert err == f"error: params file {f} nests too deeply to read\n"


@pytest.mark.parametrize("content", ["null", "5", '"q"', "[1, 2]"])
@pytest.mark.parametrize("flags", [(), ("--q", "2", "--alpha", "1")], ids=["file", "flags"])
def test_params_file_must_hold_an_object(tmp_path, capsys, content, flags):
    f = tmp_path / "params.json"
    f.write_text(content)
    code, out, err = run(capsys, "trace", "--m", "2", "--params", str(f), *flags)
    assert code == 2
    assert out == ""
    assert f"params file {f} must hold a JSON object" in err


@pytest.mark.parametrize(
    "argv,code,out",
    [(["--m", "3"], 0, "4\n"), (["--m", "0"], 2, "")],
    ids=["ok", "bad_params"],
)
def test_module_entry_point_exit_codes(argv, code, out):
    # python -m hecketrace.cli runs main in a fresh process and exits with
    # its code
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "hecketrace.cli", "trace", *argv, "--q", "2", "--alpha", "1"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stdout) == (code, out), done.stderr


CLOSED_STDOUT_COMMANDS = {
    "trace": ["--m", "3", "--q", "2", "--alpha", "1"],
    "series": ["--degree", "300", "--q", "5/4", "--alpha", "1/2,1/2", "--dual-path"],
    "gram": ["--n", "3", "--q", "2", "--alpha", "1/2,1/2"],
    "verify": ["--suite", "hecke"],
}


# help on a closed stdout: a buffered one takes argparse's write, and main's
# flush fails
CLOSED_STDOUT_HELP = {"help": ["--help"], "trace_help": ["trace", "-h"]}


def _on_a_closed_stdout(argv, buffered):
    """(exit code, stderr) of `python -m hecketrace.cli` with argv, its
    stdout a pipe whose read end is closed before the child writes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hecketrace.cli", *argv],
            env=env,
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write)
    return done.returncode, done.stderr


CLOSED_STDOUT_CASES = {
    f"{command}-{mode}": ([command, *rest], mode == "buffered")
    for command, rest in CLOSED_STDOUT_COMMANDS.items()
    for mode in ("buffered", "unbuffered")
} | {f"{name}-buffered": (argv, True) for name, argv in CLOSED_STDOUT_HELP.items()}


@pytest.mark.parametrize(
    "argv,buffered", CLOSED_STDOUT_CASES.values(), ids=CLOSED_STDOUT_CASES.keys()
)
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(argv, buffered):
    # a buffered stdout fails at main's flush, an unbuffered one at the
    # first print, and either way the child exits 128 + SIGPIPE without a word
    assert _on_a_closed_stdout(argv, buffered) == (cli.EXIT_BROKEN_PIPE, "")
    assert cli.EXIT_BROKEN_PIPE == 141


@pytest.mark.parametrize("argv", CLOSED_STDOUT_HELP.values(), ids=CLOSED_STDOUT_HELP.keys())
def test_help_on_a_closed_unbuffered_stdout_exits_0_with_nothing_on_stderr(argv):
    # argparse's own printing drops the write that fails, so nothing is left
    # for main's flush to fail on
    assert _on_a_closed_stdout(argv, buffered=False) == (0, "")
