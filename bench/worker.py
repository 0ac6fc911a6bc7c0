"""One pass of a workload in a fresh interpreter: import hecketrace,
generate the ops from the seed, run them as a closed loop (one client,
each op sent when the previous one has completed) and print one JSON
document with per-op results and timings on stdout.

The parent (run.py) checks the outputs; nothing here computes a
reference.  Run from the repository root:

    PYTHONPATH=src python3 bench/worker.py --workload trace_queries --seed 1 --t0 0
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

import hecketrace.cli
import hecketrace.fqconv
import hecketrace.tensor
from hecketrace.traces import TraceParams

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hecketrace.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a request
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error exits 1 in the console script
            return {"code": 1, "out": out.getvalue(), "error": f"{type(exc).__name__}: {exc}"}
    return {"code": code, "out": out.getvalue(), "error": None}


def run_lib(op):
    try:
        if op["call"] == "gram_matrix":
            params = TraceParams.from_record(op["params"])
            gram = hecketrace.tensor.gram_matrix(params, op["n"])
            pivots, psd = hecketrace.tensor.ldlt_pivots(gram)
            out = {
                "gram": [[str(x) for x in row] for row in gram],
                "pivots": [str(x) for x in pivots],
                "psd": psd,
            }
        else:
            results = hecketrace.fqconv.structure_constants_check(op["n"], op["p"])
            out = [(r.name, r.passed) for r in results]
    except Exception as exc:
        return {"code": 1, "out": None, "error": f"{type(exc).__name__}: {exc}"}
    return {"code": 0, "out": out, "error": None}


CAL_EVERY_S = 0.1  # a calibration round after every 100 ms of ops
CAL_SETUP_ROUNDS = 15  # rounds in an interpreter that only sets up


def calibration_round() -> float:
    """Time in ms of a fixed piece of pure-Python work of the two kinds
    the program does: Fraction arithmetic in dicts keyed by tuples (the
    deep queries) and building and running an argparse parser (the CLI
    overhead of small queries).  The two slow down by different amounts
    on a loaded host, so the round holds both.  It uses only the standard
    library, so no change to hecketrace moves it; it moves only with the
    speed of the CPU the pass runs on."""
    t = time.perf_counter()
    acc: dict = {}
    for i in range(1000):
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, 0) + Fraction(i % 97 + 1, 6 + i % 11)
    sorted(acc.items(), key=lambda kv: (kv[1], kv[0]))
    for _ in range(4):
        parser = argparse.ArgumentParser(prog="calibration")
        sub = parser.add_subparsers(dest="command").add_parser("trace")
        for k in range(12):
            sub.add_argument(f"--option-{k}", default=None, help="an option")
        parser.parse_args(["trace", "--option-1", "3/2"])
    return (time.perf_counter() - t) * 1e3


def run_pass(ops, tracer=None):
    """Run the ops as a closed loop.  Calibration rounds run before the
    first op, between ops after every CAL_EVERY_S of op time, and after
    the last op; they are outside every op's time and the pass's wall."""
    results = []
    calibration = [calibration_round()]
    clock = time.perf_counter
    wall = since_cal = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op = op["id"]
        t = clock()
        res = run_cli(op["argv"]) if "argv" in op else run_lib(op)
        elapsed = clock() - t
        res["ms"] = elapsed * 1e3
        res["id"] = op["id"]
        res["cal"] = len(calibration) - 1  # the calibration round before the op
        results.append(res)
        wall += elapsed
        since_cal += elapsed
        if since_cal >= CAL_EVERY_S:
            calibration.append(calibration_round())
            since_cal = 0.0
    calibration.append(calibration_round())
    return results, wall, calibration


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--trace", help="write spans and counters to this file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--limit", type=int, help="run only the first N ops")
    args = parser.parse_args()

    ops = workloads.generate(args.workload, args.seed)[: args.limit]
    setup_s = time.monotonic() - args.t0
    doc = {"setup_s": setup_s}
    if args.setup_only:
        doc["cal_ms"] = [calibration_round() for _ in range(CAL_SETUP_ROUNDS)]
    else:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        doc["ops"], doc["wall_s"], doc["cal_ms"] = run_pass(ops, tracer)
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            doc["layers"] = tracing.layer_metrics(tracer)
            tracer.dump(args.trace)
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
