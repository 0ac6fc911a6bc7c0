"""Command-line surface: exact trace evaluation, generating-function
emission, Gram reports, and the verification suites.

Every number printed is an exact rational string; there is no
floating-point formatting anywhere in the output layer.  Exit codes:

    0   success
    1   a verification check failed
    2   invalid parameters (the message names the exact deficit)
    3   a requested cross-check between evaluation routes disagreed

Parameters can come from flags (--q, --alpha, --beta, --gamma) or from a
JSON file via --params; flags win on conflict, with a warning on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fqconv, suites, tensor
from .hecke import check_partition, zeta_partition
from .permutations import all_perms, format_perm
from .report import all_passed, format_records, format_results
from .scalars import format_fraction
from .tensor import ModelContext
from .traces import (
    TraceParams,
    generating_series,
    partition_trace,
    series_from_traces,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_MISMATCH = 3

# largest cycle length, partition size or series degree accepted: the
# cycle-value recurrence costs O(m^2) exact operations on numbers whose size
# grows with m, about 2.5 s at 300 and minutes past 1000
MAX_SIZE = 300

# most basis tensors |S|^slots per side of a tensor model the CLI builds, for
# |S| nonzero weights: 3^8 takes a few seconds per matrix element, and the
# cost grows about |S|-fold with each slot
MAX_TENSOR_SIZE = 3**8


def _split_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in _split_list(text))


def _add_param_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--q", help="deformation parameter, a positive rational")
    sub.add_argument("--alpha", help="comma-separated alpha weights, e.g. 1/2,1/2")
    sub.add_argument("--beta", help="comma-separated beta weights")
    sub.add_argument("--gamma", help="remainder weight (default 0)")
    sub.add_argument("--params", help="JSON file with q/alpha/beta/gamma")


def _check_size(flag: str, value: int):
    if value > MAX_SIZE:
        raise ValueError(f"{flag} must be <= {MAX_SIZE}, got {value}")


def _check_tensor_size(what: str, alpha, beta, slots: int):
    weights = sum(1 for a in (*alpha, *beta) if a != 0)
    # slots > MAX_TENSOR_SIZE decides without forming a huge power
    if weights > 1 and (slots > MAX_TENSOR_SIZE or weights**slots > MAX_TENSOR_SIZE):
        raise ValueError(
            f"{what} builds a tensor model of {weights}^{slots} basis tensors per "
            f"side, more than MAX_TENSOR_SIZE = {MAX_TENSOR_SIZE}"
        )


def _resolve_params(args) -> TraceParams:
    record = {}
    if args.params:
        with open(args.params) as fh:
            record = json.load(fh)
    flags = {
        "q": args.q,
        "alpha": None if args.alpha is None else _split_list(args.alpha),
        "beta": None if args.beta is None else _split_list(args.beta),
        "gamma": args.gamma,
    }
    for key, val in flags.items():
        if val is None:
            continue
        if args.params and key in record and record[key] != val:
            print(
                f"warning: --{key} overrides the value from {args.params}",
                file=sys.stderr,
            )
        record[key] = val
    if "q" not in record:
        raise ValueError("q is required (flag --q or a params file)")
    return TraceParams.from_record(record)


# ---------------------------------------------------------------------------
# subcommands


def cmd_trace(args) -> int:
    try:
        params = _resolve_params(args)
        if args.m is not None:
            if args.m < 1:
                raise ValueError(f"--m must be >= 1, got {args.m}")
            parts = (args.m,)
        elif args.partition:
            parts = check_partition(_int_list(args.partition))
        else:
            raise ValueError("one of --m or --partition is required")
        _check_size("--m" if args.m is not None else "the sum of --partition", sum(parts))
        rank = max(sum(parts), 2)
        if args.cross_check:
            if params.gamma != 0:
                raise ValueError("--cross-check requires gamma = 0")
            _check_tensor_size("--cross-check", params.alpha, params.beta, rank)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS

    value = partition_trace(parts, params)

    if args.cross_check:
        ctx = ModelContext.create(params, slots=rank)
        other = tensor.matrix_element(ctx, zeta_partition(parts, rank=rank))
        if other != value:
            print(
                f"error: cross-check mismatch: formula {format_fraction(value)}, "
                f"tensor model {format_fraction(other)}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH

    if args.format == "records":
        print(
            json.dumps(
                {
                    "partition": list(parts),
                    "params": params.to_record(),
                    "value": format_fraction(value),
                },
                sort_keys=True,
            )
        )
    else:
        print(format_fraction(value))
    return EXIT_OK


def cmd_series(args) -> int:
    try:
        params = _resolve_params(args)
        if params.gamma != 0:
            raise ValueError("the generating function requires gamma = 0")
        order = args.degree
        if order is None or order < 0:
            raise ValueError("--degree M with M >= 0 is required")
        _check_size("--degree", order)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS

    product = generating_series(params, order)
    dual = None
    if args.dual_path:
        dual = series_from_traces(params, order)

    if args.format == "records":
        rec = {
            "params": params.to_record(),
            "degree": order,
            "coefficients": [format_fraction(c) for c in product.coeffs],
        }
        if dual is not None:
            rec["from_traces"] = [format_fraction(c) for c in dual.coeffs]
            rec["match"] = dual == product
        print(json.dumps(rec, sort_keys=True))
    else:
        for d in range(order + 1):
            line = f"{d},{format_fraction(product.coeffs[d])}"
            if dual is not None:
                match = "ok" if dual.coeffs[d] == product.coeffs[d] else "MISMATCH"
                line += f",{format_fraction(dual.coeffs[d])},{match}"
            print(line)
    if dual is not None and dual != product:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_gram(args) -> int:
    try:
        params = _resolve_params(args)
        if params.gamma != 0:
            raise ValueError("the Gram report requires gamma = 0")
        rank = args.n
        if rank is None or not 1 <= rank <= 3:
            raise ValueError("--n N with 1 <= N <= 3 is required")
        _check_tensor_size("gram", params.alpha, params.beta, rank)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS

    gram = tensor.gram_matrix(params, rank)
    pivots, psd = tensor.ldlt_pivots(gram)
    basis = all_perms(rank)
    if args.format == "records":
        print(
            json.dumps(
                {
                    "params": params.to_record(),
                    "basis": [format_perm(w) for w in basis],
                    "gram": [[format_fraction(x) for x in row] for row in gram],
                    "pivots": [format_fraction(x) for x in pivots],
                    "psd": psd,
                },
                sort_keys=True,
            )
        )
    elif args.format == "table":
        width = max(len(format_fraction(x)) for row in gram for x in row)
        for row in gram:
            print("  ".join(format_fraction(x).rjust(width) for x in row))
        print("pivots: " + ", ".join(format_fraction(x) for x in pivots))
        print(f"psd: {'yes' if psd else 'no'}")
    else:
        for row in gram:
            print(",".join(format_fraction(x) for x in row))
        print("pivots," + ",".join(format_fraction(x) for x in pivots))
        print(f"psd,{'yes' if psd else 'no'}")
    return EXIT_OK if psd else EXIT_CHECK_FAILED


_PARAM_FLAGS = ("q", "alpha", "beta", "gamma", "params")

# optional verify flag (argparse attribute) -> the suites that read it; the
# `all` suite reads every flag
_FLAG_READERS = {
    **dict.fromkeys(_PARAM_FLAGS, ("rmatrix", "tensor", "gram")),
    **dict.fromkeys(("m", "verbose"), ("tensor",)),
    **dict.fromkeys(("n", "p", "expensive"), ("convolution",)),
}


def cmd_verify(args) -> int:
    try:
        if args.suite not in suites.SUITE_NAMES:
            raise ValueError(
                f"unknown suite {args.suite!r}; choose one of "
                + ", ".join(suites.SUITE_NAMES)
            )
        for attr, readers in _FLAG_READERS.items():
            if getattr(args, attr) not in (None, False) and args.suite not in (*readers, "all"):
                flag = "-v" if attr == "verbose" else f"--{attr}"
                raise ValueError(
                    f"the {args.suite} suite does not read {flag}; "
                    f"it is read by {', '.join(readers)} and all"
                )
        if args.m is not None and args.m < 1:
            raise ValueError(f"--m must be >= 1, got {args.m}")
        if args.verbose and args.format == "records":
            raise ValueError("-v dumps states as text; use it without --format records")
        profiles = None
        qs = suites.DEFAULT_QS
        if any(getattr(args, name) is not None for name in _PARAM_FLAGS):
            params = _resolve_params(args)
            if params.gamma != 0:
                raise ValueError("verification suites require gamma = 0")
            profiles = [("custom", params.alpha, params.beta)]
            qs = (params.q,)
        m_max = args.m or 5
        # slots of the largest tensor model each suite builds on a profile
        model_slots = {"rmatrix": 3, "tensor": max(m_max, 2), "gram": 4}
        slots = max(
            (v for k, v in model_slots.items() if args.suite in (k, "all")), default=0
        )
        for name, alpha, beta in profiles or suites.default_profiles():
            _check_tensor_size(
                f"verify --suite {args.suite} on profile {name}", alpha, beta, slots
            )
        cases = None
        if args.n is not None or args.p is not None:
            if args.n is None or args.p is None:
                raise ValueError("--n and --p must be given together")
            fqconv.check_size(args.n, args.p)
            cases = ((args.n, args.p),)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS

    results = suites.run_suite(
        args.suite,
        qs=qs,
        m_max=m_max,
        expensive=args.expensive,
        profiles=profiles,
        cases=cases,
    )
    passed = sum(1 for r in results if r.passed)
    if args.format == "records":
        for line in format_records(results):
            print(line)
        print(json.dumps({"passed": passed, "total": len(results)}))
    else:
        for line in format_results(results):
            print(line)
        print(f"passed {passed}/{len(results)}")
    if args.verbose and args.suite in ("tensor", "all"):
        _dump_states(profiles, qs)
    return EXIT_OK if all_passed(results) else EXIT_CHECK_FAILED


def _dump_states(profiles, qs):
    """Diagnostic dump of the distinguished two-slot states used by the
    tensor checks."""
    for profile in profiles if profiles is not None else suites.default_profiles():
        name, alpha, beta = profile
        params = TraceParams(q=qs[0], alpha=alpha, beta=beta)
        ctx = ModelContext.create(params, slots=2)
        print(f"# state {name} q={format_fraction(qs[0])}")
        for line in tensor.xi_state(ctx).dump_lines():
            print(line)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecketrace",
        description="Exact traces on Iwahori-Hecke algebras, cross-checked "
        "through an R-matrix tensor model and a finite-field realization.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_trace = subs.add_parser("trace", help="evaluate a trace value exactly")
    _add_param_flags(p_trace)
    p_trace.add_argument("--m", type=int, help="single cycle length")
    p_trace.add_argument("--partition", help="comma-separated partition, e.g. 2,2")
    p_trace.add_argument(
        "--cross-check",
        action="store_true",
        help="also evaluate through the tensor model and require equality",
    )
    p_trace.add_argument("--format", choices=("csv", "records"), default="csv")
    p_trace.set_defaults(func=cmd_trace)

    p_series = subs.add_parser("series", help="emit the generating function")
    _add_param_flags(p_series)
    p_series.add_argument("--degree", type=int, help="truncation order M")
    p_series.add_argument(
        "--dual-path",
        action="store_true",
        help="also emit coefficients rebuilt from trace values, with a match column",
    )
    p_series.add_argument("--format", choices=("csv", "records"), default="csv")
    p_series.set_defaults(func=cmd_series)

    p_gram = subs.add_parser("gram", help="Gram matrix of H_n with exact LDL^T pivots")
    _add_param_flags(p_gram)
    p_gram.add_argument("--n", type=int, help="rank (n <= 3)")
    p_gram.add_argument("--format", choices=("csv", "table", "records"), default="csv")
    p_gram.set_defaults(func=cmd_gram)

    p_verify = subs.add_parser("verify", help="run a verification suite")
    _add_param_flags(p_verify)
    p_verify.add_argument(
        "--suite",
        default="all",
        help="one of " + ", ".join(suites.SUITE_NAMES),
    )
    p_verify.add_argument("--m", type=int, help="largest cycle length to check")
    p_verify.add_argument("--n", type=int, help="matrix size for the convolution suite")
    p_verify.add_argument("--p", type=int, help="prime for the convolution suite")
    p_verify.add_argument(
        "--expensive",
        action="store_true",
        help="include the large finite-field cases, e.g. GL(3,3)",
    )
    p_verify.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also dump the distinguished tensor states used by the checks",
    )
    p_verify.add_argument("--format", choices=("csv", "records"), default="csv")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
