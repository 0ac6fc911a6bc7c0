"""hecketrace benchmark: seeded workloads run through the public CLI and a
few library calls, each pass in a fresh single-threaded interpreter.

    python3 bench/run.py --workload trace_queries --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload tensor_models --seed 1 --list-ops

Run from the repository root.  See bench/README.md for the workloads and
metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170  # a run must finish well inside 180 s
# Times are reported at a reference CPU speed, the one at which a worker's
# calibration round takes CAL_REF_MS (see bench/README.md).
CAL_REF_MS = 5.0
SETUP_PROBES_PER_ROUND = 3
PERCENTILE_MIN_OPS = 100  # ops per pass where p90 must have 10 ops beyond it
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def percentile(samples, p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples above its
    rank.  With 100 or more samples, p = 90 leaves at least 10 beyond."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def speed_factor(cal_ms: list[float], j: int) -> float:
    """Scale from the CPU speed around calibration round j to the reference
    speed: the median of the rounds just before and after it."""
    return CAL_REF_MS / median(cal_ms[max(0, j - 1) : j + 3])


def normalised_ms(doc) -> list[float]:
    """Each op's latency in the pass, in ms at the reference speed."""
    return [op["ms"] * speed_factor(doc["cal_ms"], op["cal"]) for op in doc["ops"]]


def setup_at_reference(doc) -> float:
    """A set-up time in s at the reference speed, scaled by the speed of
    the first calibration rounds after it."""
    return doc["setup_s"] * speed_factor(doc["cal_ms"], 0)


def per_op(docs, pick) -> list[float]:
    """Each op's normalised latency in ms, picked over the given passes."""
    columns = [normalised_ms(doc) for doc in docs]
    return [pick(col[i] for col in columns) for i in range(len(columns[0]))]


class Child:
    """A worker interpreter pinned to one CPU; waits for it with a deadline
    and kills it on expiry, so no process outlives the run."""

    def __init__(self, args: list[str], deadline: float, cpu: int):
        self.t0 = time.monotonic()
        env = {**os.environ, **CHILD_ENV}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "--t0", repr(self.t0), *args],
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        self.deadline = deadline

    def result(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("worker passed the run deadline") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        return json.loads(out)


def provenance(workload: str, seed: int, ops: list[dict]) -> dict:
    import numpy

    kinds: dict[str, int] = {}
    for op in ops:
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "ops_per_pass": len(ops),
        "ops_by_kind": kinds,
        "child_env": CHILD_ENV,
    }


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_pass(ops, refs, results) -> tuple[int, int, list[str]]:
    """Failures and wrong answers of one pass.  A failure is an exception,
    an exit code other than the expected one, or a wrong or short output.
    A wrong answer is a failure of a valid request (a crash, a failed
    check, a cross-check mismatch, bad output) or an invalid request that
    was answered; an invalid request rejected with the wrong exit code
    only fails."""
    failed = wrong = 0
    notes = []
    for op, ref, res in zip(ops, refs, results):
        if res["code"] != op["expect_exit"]:
            failed += 1
            wrong += op["expect_exit"] == 0 or res["code"] == 0
            notes.append(f"{op['id']}: exit {res['code']}, expected {op['expect_exit']} {res['error'] or ''}".rstrip())
            continue
        try:
            oracle.check(op, ref, res)
        except oracle.Mismatch as exc:
            failed += 1
            wrong += 1
            notes.append(f"{op['id']}: {exc}")
    return failed, wrong, notes


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    ops = workloads.generate(workload, seed)
    refs = [oracle.reference(op) for op in ops]

    probe = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    setup = []
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{workload}-seed{seed}.spans.jsonl"
    passes = {False: [], True: []}
    # Passes alternate between the CPUs this process may use: on a shared
    # host each vCPU switches speed on its own, and a process left on one
    # slow vCPU would give every pass of the run at the slow speed.
    cpus = sorted(os.sched_getaffinity(0))
    t_measure = time.monotonic()
    while True:
        # a traced run alternates untraced and traced passes, so that the
        # tracing overhead is measured under the same conditions
        for trace in (False, True) if traced else (False,):
            args = ["--workload", workload, "--seed", str(seed)]
            if trace:
                args += ["--trace", str(span_file)]
            cpu = cpus[(len(passes[trace]) + trace) % len(cpus)]
            doc = Child(args, deadline, cpu).result()
            setup.append(doc)
            passes[trace].append(doc)
        # and interpreters that only set up, so that set-up samples are
        # many and spread over the run
        for k in range(SETUP_PROBES_PER_ROUND):
            cpu = cpus[(len(passes[False]) + k) % len(cpus)]
            setup.append(Child(probe, deadline, cpu).result())
        elapsed = time.monotonic() - t_measure
        per_round = elapsed / len(passes[False])
        if elapsed + per_round / 2 > seconds:
            break

    attempted = failed = wrong = 0
    notes: list[str] = []
    for doc in passes[False] + passes[True]:
        f, w, n = check_pass(ops, refs, doc["ops"])
        attempted += len(ops)
        failed += f
        wrong += w
        notes += n

    # Every time is scaled to the reference CPU speed by the calibration
    # rounds next to it, and each op's time is its median over the run's
    # passes: on a shared host each vCPU switches between speeds up to 1.9x
    # apart, for seconds to many minutes (bench/README.md).
    plain = passes[False]
    ms = per_op(plain, median)
    p50, _ = percentile(ms, 50)
    p90, beyond = percentile(ms, 90)
    end_to_end = {
        "wall_s": sum(ms) / 1e3,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "setup_s": median(setup_at_reference(d) for d in setup),
        "peak_rss_mb": median(d["peak_rss_mb"] for d in plain),
        "ok_ratio": (attempted - failed) / attempted,
    }
    raw_ms = [median(d["ops"][i]["ms"] for d in plain) for i in range(len(ops))]
    layers = {}
    counts_repeat = True
    if traced:
        traced_docs = passes[True]
        layers = dict(traced_docs[0]["layers"])
        counts_repeat = all(
            d["layers"][name] == value
            for d in traced_docs
            for name, value in layers.items()
            if not name.endswith("_s")
        )
        for name in layers:
            if name.endswith("_s"):
                layers[name] = median(d["layers"][name] for d in traced_docs)
        layers["trace_overhead"] = sum(per_op(traced_docs, median)) / sum(ms)
    info = provenance(workload, seed, ops)
    if traced:
        info["counts_repeat"] = counts_repeat
    info.update(
        passes=len(plain),
        pass_wall_s=[d["wall_s"] for d in plain],
        traced_passes=len(passes[True]),
        ops_in_percentiles=len(ms),
        raw_wall_s=sum(raw_ms) / 1e3,
        raw_setup_s=median(d["setup_s"] for d in setup),
        raw_p50_ms=percentile(raw_ms, 50)[0],
        raw_p90_ms=percentile(raw_ms, 90)[0],
        cal_ms_median=median(c for d in plain for c in d["cal_ms"]),
        samples_beyond_p90=beyond,
        setup_samples=len(setup),
        fail_ratio=failed / attempted,
        run_s=time.monotonic() - start,
    )
    return {
        "correct": wrong == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "layers": layers,
        "provenance": info,
        "notes": sorted(set(notes)),
        "setup_samples_s": [d["setup_s"] for d in setup],
        "op_ms": {op["id"]: [doc["ops"][i]["ms"] for doc in plain] for i, op in enumerate(ops)},
        "op_cal": {op["id"]: [doc["ops"][i]["cal"] for doc in plain] for i, op in enumerate(ops)},
        "pass_cal_ms": [doc["cal_ms"] for doc in plain],
        "setup_cal_ms": [doc["cal_ms"] for doc in setup],
    }


def list_ops(workload: str, seed: int):
    """Print the op list of one pass, one op per line, with a command that
    reruns it by hand from the repository root."""
    for op in workloads.generate(workload, seed):
        if "argv" in op:
            cmd = "PYTHONPATH=src python3 -m hecketrace.cli " + " ".join(op["argv"])
        elif op["call"] == "gram_matrix":
            cmd = (
                "PYTHONPATH=src python3 -c 'from hecketrace import *; "
                f"g = gram_matrix(TraceParams.from_record({op['params']!r}), {op['n']}); print(ldlt_pivots(g))'"
            )
        else:
            cmd = (
                "PYTHONPATH=src python3 -c 'from hecketrace import fqconv; "
                f"print(fqconv.structure_constants_check({op['n']}, {op['p']}))'"
            )
        note = f" invalid:{op['invalid']}" if op.get("invalid") else ""
        print(f"{op['id']} {op['kind']} exit={op['expect_exit']}{note} :: {cmd}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-ops", action="store_true", help="print the op list and exit")
    args = parser.parse_args(argv)

    if args.list_ops:
        list_ops(args.workload, args.seed)
        return 0
    if not (SRC / "hecketrace" / "__init__.py").is_file():
        print(f"error: no hecketrace sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    for key, value in CHILD_ENV.items():
        os.environ.setdefault(key, value)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True))

    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for note in result["notes"]:
        print(f"failed {note}")
    print(f"fail_ratio {result['provenance']['fail_ratio']:.6f} ratio")
    values = {**result["end_to_end"], **result["layers"]}
    for group in ("end_to_end", "per_layer") if args.trace else ("end_to_end",):
        for m in spec[group]:
            print(f"{m['name']} {values[m['name']]} {m['unit']}")
    chosen = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
