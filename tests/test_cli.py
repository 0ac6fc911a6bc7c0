"""Command-line surface: outputs, formats, exit codes."""

import json
import time
from fractions import Fraction

import pytest

from hecketrace import suites
from hecketrace.cli import MAX_SIZE, MAX_TENSOR_SIZE, _check_tensor_size, main


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


def test_trace_records_format(capsys):
    code, out, _ = run(
        capsys, "trace", "--m", "2", "--q", "2", "--alpha", "1/2,1/2",
        "--format", "records",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == "5/4"
    assert rec["partition"] == [2]


def test_trace_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "trace", "--m", "2", "--q", "2", "--alpha", "1/4,1/4")
    assert code == 2
    assert "off by -1/2" in err


def test_trace_requires_m_or_partition(capsys):
    code, _, err = run(capsys, "trace", "--q", "2", "--alpha", "1")
    assert code == 2


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


@pytest.mark.parametrize(
    "argv,power",
    [
        (
            ["trace", "--m", "300", "--q", "2", "--alpha", "1/2,1/2", "--cross-check"],
            "2^300",
        ),
        (
            ["trace", "--partition", "5,4", "--q", "2", "--alpha", "1/2,1/3",
             "--beta", "1/6", "--cross-check"],
            "3^9",
        ),
        (["verify", "--suite", "tensor", "--m", "9"], "3^9"),
        (["gram", "--n", "3", "--q", "2", "--alpha", ",".join(["1/19"] * 19)], "19^3"),
    ],
    ids=["trace_m", "trace_partition", "verify_tensor", "gram"],
)
def test_tensor_size_bound_exit_2_fast(capsys, argv, power):
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert f"{power} basis tensors per side" in err
    assert f"more than MAX_TENSOR_SIZE = {MAX_TENSOR_SIZE}" in err


def test_tensor_size_bound_admits_seven_slots_of_three_weights():
    # the largest model the benchmark builds; 3^8 is the last one admitted
    alpha, beta = (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 6),)
    for slots in (7, 8):
        _check_tensor_size("test", alpha, beta, slots)
    for slots in (9, 10**9):  # the second is refused without forming 3^slots
        with pytest.raises(ValueError, match=rf"3\^{slots} basis"):
            _check_tensor_size("test", alpha, beta, slots)
    _check_tensor_size("test", (Fraction(1),), (), 10**9)  # one weight, one tensor


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
    ],
)
def test_verify_convolution_bad_group_exit_2(capsys, n, p, message):
    code, out, err = run(capsys, "verify", "--suite", "convolution", "--n", n, "--p", p)
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


@pytest.mark.parametrize("route", ["zeta_trace", "zeta_trace_diagonal"])
def test_verify_tensor_at_q1_compares_the_closed_routes(capsys, monkeypatch, route):
    monkeypatch.setattr(suites, route, lambda m, params: Fraction(7))
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


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--suite", "rmatrix", "--n", "2", "--p", "3"), "--n"),
        (("--suite", "hecke", "--m", "3"), "--m"),
        (("--suite", "convolution", "--q", "2", "--alpha", "1"), "--q"),
        (("--suite", "gram", "-v"), "-v"),
        (("--suite", "tensor", "--expensive"), "--expensive"),
    ],
)
def test_verify_rejects_flags_its_suite_does_not_read(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert f"does not read {flag};" in err
    assert " and all" in err


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


def test_missing_params_file(capsys):
    code, _, err = run(capsys, "trace", "--m", "2", "--params", "/nonexistent.json")
    assert code == 2
