"""Command-line surface: exact trace evaluation, generating-function
emission, Gram reports, and the verification suites.

Every number printed is an exact rational string; there is no
floating-point formatting anywhere in the output layer.  Exit codes:

    0   success
    1   a verification check failed
    2   invalid parameters (the message names the exact deficit)
    3   a requested cross-check between evaluation routes disagreed, or an
        exact invariant inside a route failed (CrossCheckError)
    141 stdout was closed before the output was written (128 + SIGPIPE,
        as a shell shows for `yes | head -1`); nothing goes to stderr

Parameters can come from flags (--q, --alpha, --beta, --gamma) or from a
JSON file via --params; flags win on conflict, with a warning on stderr.

A subcommand (cmd_*) reads its request, bounding every input and raising
on a bad one, and returns its answer: a function of no arguments that
computes, prints and returns the exit code.  main is the one place that
maps an outcome to an exit code.

argv is parsed once: when its first word names a subcommand, that
subcommand's parser reads the rest, and the top-level parser reads only
what names none (no argv, -h/--help, an unknown command).  Both come from
the one parser build_parser() builds per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable

from . import fqconv, suites, tensor
from .hecke import check_partition, zeta_partition
from .permutations import all_perms, format_perm
from .report import all_passed, format_records, format_results
from .scalars import CrossCheckError, format_fraction, parse_fraction
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
EXIT_BROKEN_PIPE = 141

# largest cycle length, partition size or series degree accepted: the
# cycle-value recurrence costs O(m^2) integer operations on numbers whose
# size grows with m, 0.05-0.07 s at 300, 0.3-0.4 s at 500 and 3-5 s at 1000
# (CPython 3.11, shared 2-vCPU VM), so at 300 every query stays well under
# a second
MAX_SIZE = 300

# most bits m (bits(a) + bits(b) + bits(d)) for a size or slot count m, q = a/b and
# the common denominator d of the weights: the recurrences carry the powers of
# a, b and d up to the m-th.  For m = 300 and weights 1/2,1/3,1/6 a trace takes
# 0.50 s at q = 1e-10 (11,400 bits), 1.3 s at 1e-20 (21,000) and 2.4 s at
# 1e-30 (31,200) (CPython 3.11, shared VM); at the bound it stays about a second
MAX_VALUE_BITS = 2**14

# most basis tensors |S|^slots per side of the widest walk over all of them in
# `gram` and `verify`, for |S| nonzero weights: a cost about |S|-fold per slot
MAX_TENSOR_SIZE = 3**8

# most |S|^2 slots for `trace --cross-check`, whose closed walk holds a few open
# slots over the |S|^2 pairs of the R-matrix table: at the bound 20 weights on
# 300 slots take 1.3-1.5 s and 100 weights on 12 slots 0.25 s (same machine)
MAX_CROSS_CHECK = 20**2 * 300


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


def _check_size(flag: str, value: int, params: TraceParams | None = None):
    """Bound a size by MAX_SIZE and, given the parameters it is taken at,
    the bits it carries by MAX_VALUE_BITS."""
    if value > MAX_SIZE:
        raise ValueError(f"{flag} must be <= {MAX_SIZE}, got {value}")
    if params is None:
        return
    q, d = params.q, params.weight_numerators[0]
    bits = q.numerator.bit_length() + q.denominator.bit_length() + d.bit_length()
    if value * bits > MAX_VALUE_BITS:
        raise ValueError(
            f"{flag} {value} times the {bits} bits of q and of the weights' common "
            f"denominator is {value * bits}, more than MAX_VALUE_BITS = {MAX_VALUE_BITS}"
        )


def _check_tensor_size(what: str, alpha, beta, slots: int):
    weights = sum(1 for a in (*alpha, *beta) if a != 0)
    # slots > MAX_TENSOR_SIZE decides without forming a huge power
    if weights > 1 and (slots > MAX_TENSOR_SIZE or weights**slots > MAX_TENSOR_SIZE):
        raise ValueError(
            f"{what} builds a tensor model of {weights}^{slots} basis tensors per "
            f"side, more than MAX_TENSOR_SIZE = {MAX_TENSOR_SIZE}"
        )


def _same_value(old, new) -> bool:
    """Whether a params-file value and a flag value are equal as Fractions,
    element by element for a list.  A value that does not parse differs
    from every other."""
    if isinstance(new, list):
        if not isinstance(old, (list, tuple)) or len(old) != len(new):
            return False
        return all(map(_same_value, old, new))
    try:
        return parse_fraction(str(old)) == parse_fraction(new)
    except ValueError:
        return False


def _read_params_file(path: str) -> dict:
    """The JSON object in a params file, each key once and no deeper than json can nest."""

    def unique(pairs):
        obj = {}
        for key, val in pairs:
            if key in obj:
                raise ValueError(f"params file {path} repeats the key {key!r}")
            obj[key] = val
        return obj

    with open(path) as fh:
        try:
            record = json.load(fh, object_pairs_hook=unique)
        except RecursionError:
            raise ValueError(f"params file {path} nests too deeply to read") from None
    if not isinstance(record, dict):
        raise ValueError(f"params file {path} must hold a JSON object")
    return record


def _resolve_params(args, gamma_refusal: str | None = None) -> TraceParams:
    """The parameters of the flags and params file; a nonzero gamma raises gamma_refusal."""
    record = _read_params_file(args.params) if args.params else {}
    flags = {
        "q": args.q,
        "alpha": None if args.alpha is None else _split_list(args.alpha),
        "beta": None if args.beta is None else _split_list(args.beta),
        "gamma": args.gamma,
    }
    for key, val in flags.items():
        if val is None:
            continue
        if args.params and key in record and not _same_value(record[key], val):
            print(f"warning: --{key} overrides the value from {args.params}", file=sys.stderr)
        record[key] = val
    if "q" not in record:
        raise ValueError("q is required (flag --q or a params file)")
    params = TraceParams.from_record(record)
    if gamma_refusal and params.gamma != 0:
        raise ValueError(gamma_refusal)
    return params


# ---------------------------------------------------------------------------
# subcommands


def cmd_trace(args) -> Callable[[], int]:
    if args.m is not None and args.partition is not None:
        raise ValueError("--m and --partition exclude each other; give one of them")
    params = _resolve_params(args)
    if args.m is not None:
        if args.m < 1:
            raise ValueError(f"--m must be >= 1, got {args.m}")
        parts = (args.m,)
    elif args.partition is not None:
        parts = check_partition(_int_list(args.partition))
        if not parts:
            raise ValueError(f"--partition {args.partition!r} has no parts")
    else:
        raise ValueError("one of --m or --partition is required")
    _check_size("--m" if args.m is not None else "the sum of --partition", sum(parts), params)
    rank = max(sum(parts), 2)
    if args.cross_check:
        if params.gamma != 0:
            raise ValueError("--cross-check requires gamma = 0")
        weights = sum(1 for a in (*params.alpha, *params.beta) if a != 0)
        if weights**2 * rank > MAX_CROSS_CHECK:
            raise ValueError(
                f"--cross-check walks {weights} weights on {rank} slots, |S|^2 slots = "
                f"{weights**2 * rank}, more than MAX_CROSS_CHECK = {MAX_CROSS_CHECK}"
            )

    def answer() -> int:
        value = partition_trace(parts, params)
        if args.cross_check:
            ctx = ModelContext.create(params, slots=rank)
            other = tensor.matrix_element(ctx, zeta_partition(parts, rank=rank))
            if other != value:
                print(
                    f"error: cross-check mismatch on partition {list(parts)} (params "
                    f"{params.to_record()}): formula {format_fraction(value)}, "
                    f"tensor model {format_fraction(other)}",
                    file=sys.stderr,
                )
                return EXIT_MISMATCH
        text = format_fraction(value)
        if args.format == "records":
            rec = {"partition": list(parts), "params": params.to_record(), "value": text}
            text = json.dumps(rec, sort_keys=True)
        print(text)
        return EXIT_OK

    return answer


def cmd_series(args) -> Callable[[], int]:
    params = _resolve_params(args, "the generating function requires gamma = 0")
    order = args.degree
    if order is None or order < 0:
        raise ValueError("--degree M with M >= 0 is required")
    _check_size("--degree", order, params)

    def answer() -> int:
        product = generating_series(params, order)
        dual = series_from_traces(params, order) if args.dual_path else None
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

    return answer


def cmd_gram(args) -> Callable[[], int]:
    params = _resolve_params(args, "the Gram report requires gamma = 0")
    rank = args.n
    if rank is None or not 1 <= rank <= 3:
        raise ValueError("--n N with 1 <= N <= 3 is required")
    _check_size("--n", rank, params)
    _check_tensor_size("gram", params.alpha, params.beta, rank)

    def answer() -> int:
        gram = tensor.gram_matrix(params, rank)
        pivots, psd = tensor.ldlt_pivots(gram)
        if args.format == "records":
            rec = {
                "params": params.to_record(),
                "basis": [format_perm(w) for w in all_perms(rank)],
                "gram": [[format_fraction(x) for x in row] for row in gram],
                "pivots": [format_fraction(x) for x in pivots],
                "psd": psd,
            }
            print(json.dumps(rec, sort_keys=True))
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

    return answer


_PARAM_FLAGS = ("q", "alpha", "beta", "gamma", "params")

# optional verify flag (argparse attribute) -> the suites that read it; the
# `all` suite reads every flag
_FLAG_READERS = {
    **dict.fromkeys(_PARAM_FLAGS, ("rmatrix", "tensor", "gram")),
    **dict.fromkeys(("m", "verbose"), ("tensor",)),
    **dict.fromkeys(("n", "p"), ("convolution",)),
}


def cmd_verify(args) -> Callable[[], int]:
    if args.suite not in suites.SUITE_NAMES:
        raise ValueError(
            f"unknown suite {args.suite!r}; choose one of {', '.join(suites.SUITE_NAMES)}"
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
    profiles = params = None
    qs = suites.DEFAULT_QS
    if any(getattr(args, name) is not None for name in _PARAM_FLAGS):
        params = _resolve_params(args, "verification suites require gamma = 0")
        profiles = [("custom", params.alpha, params.beta)]
        qs = (params.q,)
    m_max = args.m or 5
    # values carry the tensor suite's cycle lengths and every model's slots
    if args.suite in (*_FLAG_READERS["m"], "all"):
        _check_size("--m", m_max, params)
    slots = suites.model_slots(args.suite, m_max)
    _check_size(f"the {args.suite} suite's slot count", slots, params)
    width = suites._walk_slots(args.suite, m_max)
    for name, alpha, beta in profiles or suites.default_profiles():
        _check_tensor_size(f"verify --suite {args.suite} on profile {name}", alpha, beta, width)
    cases = None
    if args.n is not None or args.p is not None:
        if args.n is None or args.p is None:
            raise ValueError("--n and --p must be given together")
        fqconv.check_size(args.n, args.p)
        cases = ((args.n, args.p),)

    def answer() -> int:
        results = suites.run_suite(args.suite, qs=qs, m_max=m_max, profiles=profiles, cases=cases)
        passed = sum(1 for r in results if r.passed)
        if args.format == "records":
            for line in format_records(results):
                print(line)
            print(json.dumps({"passed": passed, "total": len(results)}))
        else:
            for line in format_results(results):
                print(line)
            print(f"passed {passed}/{len(results)}")
        if args.verbose:  # -v passed _FLAG_READERS: dump the tensor checks' states
            for name, alpha, beta in profiles or suites.default_profiles():
                ctx = ModelContext.create(TraceParams(q=qs[0], alpha=alpha, beta=beta), slots=2)
                print(f"# state {name} q={format_fraction(qs[0])}")
                for line in tensor.xi_state(ctx).dump_lines():
                    print(line)
        return EXIT_OK if all_passed(results) else EXIT_CHECK_FAILED

    return answer


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused."""
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
        "-v",
        "--verbose",
        action="store_true",
        help="also dump the distinguished tensor states used by the checks",
    )
    p_verify.add_argument("--format", choices=("csv", "records"), default="csv")
    p_verify.set_defaults(func=cmd_verify)

    # the subcommand parsers by name, for _parse
    parser.commands = subs.choices
    return parser


def _parse(argv) -> argparse.Namespace:
    """The parsed request.  When argv[0] names a subcommand, only that
    subcommand's parser reads argv[1:]; the top-level parser would scan
    every flag before handing them to it.  Leftover arguments get the
    top-level parser's error, as they would through it.  Anything else (no
    argv, -h or --help, an unknown command) goes to the top-level parser."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    """Run one request, argv or sys.argv[1:], and return its exit code; the
    one place that maps outcomes to codes.  argparse's exit passes through
    once stdout is flushed.  A ValueError, KeyError or OSError while the
    request is read, under CPython's bound on int string digits, exits 2.
    The answer then runs with the bound lifted, to print values in full."""
    limit = sys.get_int_max_str_digits()
    try:
        try:
            args = _parse(argv)
            answer = args.func(args)
        except SystemExit:
            sys.stdout.flush()  # help written to a closed stdout fails here
            raise
        except (ValueError, KeyError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_PARAMS
        sys.set_int_max_str_digits(0)  # the request is read: values print in full
        code = answer()
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except CrossCheckError as exc:
        # a broken invariant inside a route; no route prints before it ends
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's final flush of what is left stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
