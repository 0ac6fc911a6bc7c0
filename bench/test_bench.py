"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hecketrace.hecke import check_partition  # noqa: E402
from hecketrace.traces import TraceParams, thoma_trace, zeta_trace  # noqa: E402


def request_error(op):
    """Why the program must reject this request, or None if it is valid."""
    try:
        if op["params"] is not None:
            TraceParams.from_record(op["params"])
        if op.get("m") is not None and op["m"] < 1:
            raise ValueError("m must be >= 1")
        if op.get("parts") is not None:
            check_partition(op["parts"])
        if op.get("degree") is not None and op["degree"] < 0:
            raise ValueError("degree must be >= 0")
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_valid_ops_build_params_and_invalid_ops_do_not(workload, seed):
    for op in workloads.generate(workload, seed):
        error = request_error(op)
        if op["expect_exit"] == 0:
            assert error is None, op
        else:
            assert error is not None, op


@pytest.mark.parametrize("workload", ["trace_queries", "tensor_models"])
def test_invalid_share_is_fixed(workload):
    reasons = {
        seed: sorted(op["invalid"] for op in workloads.generate(workload, seed) if op.get("invalid"))
        for seed in (1, 2)
    }
    assert reasons[1] == reasons[2]
    assert "m_zero" in reasons[1]


def test_percentile_keeps_ten_samples_beyond_p90():
    for n in range(run.PERCENTILE_MIN_OPS, 400):
        value, beyond = run.percentile(range(n), 90)
        assert beyond >= 10
        assert value == sorted(range(n))[n - beyond - 1]
    for workload in workloads.WORKLOADS:
        assert len(workloads.generate(workload, 1)) >= run.PERCENTILE_MIN_OPS


def test_percentile_nearest_rank():
    assert run.percentile([5, 1, 3, 2, 4], 50) == (3, 2)
    assert run.percentile([1.0], 90) == (1.0, 0)


def test_scaling_to_reference_speed_cancels_a_slowdown():
    # the same pass on a CPU 1.8x slower throughout, and on one that turns
    # 2x slower half way: scaled times match the pass at full speed
    fast = {"setup_s": 0.1, "cal_ms": [5.0] * 8, "ops": [{"ms": 2.0, "cal": 0}, {"ms": 30.0, "cal": 6}]}
    slow = {"setup_s": 0.18, "cal_ms": [9.0] * 8, "ops": [{"ms": 3.6, "cal": 0}, {"ms": 54.0, "cal": 6}]}
    turns = {"setup_s": 0.1, "cal_ms": [5.0] * 4 + [10.0] * 4, "ops": [{"ms": 2.0, "cal": 0}, {"ms": 60.0, "cal": 6}]}
    assert run.normalised_ms(fast) == pytest.approx([2.0 * 5 / run.CAL_REF_MS, 30.0 * 5 / run.CAL_REF_MS])
    for doc in (slow, turns):
        assert run.normalised_ms(doc) == pytest.approx(run.normalised_ms(fast))
        assert run.setup_at_reference(doc) == pytest.approx(run.setup_at_reference(fast))


def test_failed_valid_request_is_a_wrong_answer():
    valid = {"id": "v", "kind": "verify", "suite": "hecke", "params": None, "expect_exit": 0}
    invalid = {"id": "i", "kind": "trace_m", "m": 0, "expect_exit": 2}
    ref = oracle.reference(valid)
    ok = {"code": 0, "out": f"PASS x\n" * ref + f"passed {ref}/{ref}\n", "error": None}
    assert run.check_pass([valid], [ref], [ok])[:2] == (0, 0)
    for code in (1, 3):  # a failed check, a cross-check mismatch
        assert run.check_pass([valid], [ref], [{**ok, "code": code}])[:2] == (1, 1)
    # an invalid request rejected with the wrong code fails but is not wrong
    assert run.check_pass([invalid], [None], [{"code": 1, "out": "", "error": "ValueError"}])[:2] == (1, 0)
    assert run.check_pass([invalid], [None], [{"code": 0, "out": "1\n", "error": None}])[:2] == (1, 1)


def test_self_times_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    spans = [
        ["root", 0.0, 10.0, -1, "op"],
        ["a", 1.0, 4.0, 0, "op"],
        ["b", 5.0, 9.0, 0, "op"],
        ["c", 6.0, 8.0, 2, "op"],
        ["a", 11.0, 12.5, -1, "op2"],
    ]
    self_s, calls = tracing.self_times(spans)
    assert self_s == {"root": 3.0, "a": 4.5, "b": 2.0, "c": 2.0}
    assert calls == {"root": 1, "a": 2, "b": 1, "c": 1}


def test_oracle_matches_partition_sum():
    records = [
        {"q": "3/2", "alpha": ["1/2", "1/4"], "beta": ["1/8"], "gamma": "1/8"},
        {"q": "1/3", "alpha": [], "beta": ["1"], "gamma": "0"},
        {"q": "2", "alpha": [], "beta": [], "gamma": "1"},
    ]
    for rec in records:
        ref = oracle.TraceOracle(rec)
        params = TraceParams.from_record(rec)
        for m in range(1, 13):
            assert ref.value(m) == zeta_trace(m, params)
    rec = {"q": "1", "alpha": ["2/3"], "beta": ["1/6"], "gamma": "1/6"}
    params = TraceParams.from_record(rec)
    for m in range(1, 8):
        assert oracle.TraceOracle(rec).value(m) == thoma_trace(m, params)


def test_series_reference_rejects_short_output():
    op = {"kind": "series", "degree": 2, "expect_exit": 0}
    ref = [Fraction(1), Fraction(1), Fraction(1, 2)]
    oracle.check(op, ref, {"out": "0,1,1,ok\n1,1,1,ok\n2,1/2,1/2,ok\n"})
    with pytest.raises(oracle.Mismatch):
        oracle.check(op, ref, {"out": "0,1,1,ok\n1,1,1,ok\n"})


def test_wrappers_rebind_every_alias_and_cover_benchmark_json():
    from hecketrace import cli, hecke, suites, tensor

    original = hecke.mul
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tensor.hecke_mul is hecke.mul is suites.mul is not original
        cli.main(["trace", "--partition", "2,1", "--cross-check", "--q", "2", "--alpha", "1/2,1/2"])
        metrics = tracing.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert tensor.hecke_mul is hecke.mul is suites.mul is original
    assert metrics["cli.main.calls"] == 1 and metrics["tensor.matrix_element.calls"] == 1
    assert metrics["traces.zeta_trace.calls"] == 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics) | {"trace_overhead"}
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)


def _traced_counts(workload, seed, limit, tmp_path):
    env = {**os.environ, **run.CHILD_ENV, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--t0", "0", "--limit", str(limit), "--trace", str(tmp_path / "spans.jsonl")],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True, timeout=120,
    )
    layers = json.loads(out.stdout)["layers"]
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


@pytest.mark.parametrize(
    "workload,limit",
    [("trace_queries", 40), ("tensor_models", 25), ("verify_sweep", 4)],
)
def test_two_traced_runs_give_identical_counts(workload, limit, tmp_path):
    first = _traced_counts(workload, 1, limit, tmp_path)
    assert first == _traced_counts(workload, 1, limit, tmp_path)
    assert first["cli.main.calls"] > 0
