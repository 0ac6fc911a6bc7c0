"""Seeded op lists for the three benchmark workloads.

An op is a plain dict.  CLI ops carry the ``argv`` handed to
``hecketrace.cli.main``; library ops carry a ``call`` name and the
parameter record.  Everything else in the dict (``m``, ``parts``,
``degree``, ``expect_exit``, ...) is read only by the reference checks,
never by the program under test.

The shape of each workload (how many ops of each kind, and the sizes of
the heavy ones) is fixed; the seed draws parameters, small sizes and the
order.  Keeping the shape fixed keeps the cost of one pass nearly the same
across seeds, so run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

WORKLOADS = ("trace_queries", "tensor_models", "verify_sweep")

# q values: 1 (the Thoma route) and values on both sides of it.
Q_VALUES = ("1", "2", "3", "1/2", "1/3", "2/3", "3/2", "5/4", "4/5", "5/2")
Q_NOT_ONE = tuple(q for q in Q_VALUES if q != "1")
DENOMINATORS = (2, 3, 4, 5, 6, 8, 10, 12)

# Per-op latency percentiles are order statistics of the op mix, so each
# workload is laid out with the 50th and 90th percentiles inside a class
# of ops of near-equal cost, never on the boundary between two classes.
# Otherwise a seed that moves one op across the boundary moves p90 by the
# whole gap between the classes.

# trace_queries.  The partition sum grows like p(m) and hardly depends on
# the parameters, so cost is set by m and by q = 1 (the free Thoma route).
# The top 10% are the deep queries, p90 falls inside a plateau of m = 20
# queries, and the rest are small queries whose latency is mostly CLI.
N_TRACE_M_SMALL = 56  # m in 1..12
TRACE_M_PLATEAU = (20,) * 12
TRACE_M_DEEP = (24, 26, 28, 30)
N_TRACE_PARTITION = 45  # totals up to 30, parts at most 12
N_SERIES_SMALL = 21  # degree in 2..12
SERIES_DEEP = (22, 24, 26)

# tensor_models: (slots, nonzero weights) -> cross-checks per pass, in
# rising cost.  p50 falls inside the 5x2 class and p90 inside the 6x3
# class; a 7-slot model with 3 weights holds 3^7 basis tensors per side
# and costs about a second, so it stays rare.  Partitions have at most two
# parts, since extra unit parts shorten the element and cut the cost by
# up to 3x within a class.
CROSS_CHECK_CLASSES = (
    ((4, 1), 6), ((5, 1), 6), ((6, 1), 5), ((7, 1), 5),
    ((4, 2), 13),
    ((5, 2), 30),
    ((6, 2), 8), ((4, 3), 6), ((7, 2), 6), ((5, 3), 6),
    ((6, 3), 16),
    ((7, 3), 2),
)
N_GRAM3 = 10  # 1 or 2 weights, so that no Gram op reaches the 6x3 class
GRAM4_PARAMS = {"q": "2", "alpha": ["1/2", "1/2"], "beta": [], "gamma": "0"}


def _composition(rng: Random, total: int, pieces: int) -> list[int]:
    """``pieces`` positive integers summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), pieces - 1))
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(pieces)]


def draw_params(
    rng: Random,
    n_alpha: int,
    n_beta: int,
    gamma: bool = False,
    qs=Q_VALUES,
) -> dict:
    """A valid parameter record: nonincreasing positive weights with small
    denominators summing to exactly 1 together with gamma."""
    pieces = n_alpha + n_beta + (1 if gamma else 0)
    if pieces == 0:
        raise ValueError("need at least one weight or gamma")
    denom = rng.choice([d for d in DENOMINATORS if d >= pieces])
    parts = [Fraction(k, denom) for k in _composition(rng, denom, pieces)]
    alpha = sorted(parts[:n_alpha], reverse=True)
    beta = sorted(parts[n_alpha : n_alpha + n_beta], reverse=True)
    return {
        "q": rng.choice(qs),
        "alpha": [str(a) for a in alpha],
        "beta": [str(b) for b in beta],
        "gamma": str(parts[-1]) if gamma else "0",
    }


def _splits(k: int) -> list[tuple[int, int]]:
    """The ways to split k nonzero weights into (alpha count, beta count)
    with at most 3 alpha and 2 beta weights."""
    return [(k - n_beta, n_beta) for n_beta in range(max(0, k - 3), min(2, k) + 1)]


def _random_partition(rng: Random, total: int, largest: int) -> tuple[int, ...]:
    parts = []
    left = total
    while left:
        part = rng.randint(1, min(left, largest))
        parts.append(part)
        left -= part
    return tuple(sorted(parts, reverse=True))


def _two_part_partitions(total: int) -> list[tuple[int, ...]]:
    """The partitions of total into at most two parts."""
    firsts = range(total, (total - 1) // 2, -1)
    return [(first, total - first) if first < total else (first,) for first in firsts]


def param_flags(rec: dict) -> list[str]:
    flags = ["--q", rec["q"]]
    if rec["alpha"]:
        flags += ["--alpha", ",".join(rec["alpha"])]
    if rec["beta"]:
        flags += ["--beta", ",".join(rec["beta"])]
    if rec["gamma"] != "0":
        flags += ["--gamma", rec["gamma"]]
    return flags


def _trace_op(kind: str, params: dict, **fields) -> dict:
    if kind == "trace_m":
        argv = ["trace", "--m", str(fields["m"])]
    elif kind == "trace_partition":
        argv = ["trace", "--partition", ",".join(map(str, fields["parts"]))]
    elif kind == "cross_check":
        argv = ["trace", "--partition", ",".join(map(str, fields["parts"])), "--cross-check"]
    elif kind == "series":
        argv = ["series", "--degree", str(fields["degree"]), "--dual-path"]
    elif kind == "gram":
        argv = ["gram", "--n", str(fields["n"])]
    elif kind == "verify":
        argv = ["verify", "--suite", fields["suite"]]
        if "n" in fields:
            argv += ["--n", str(fields["n"]), "--p", str(fields["p"])]
    else:
        raise ValueError(f"unknown CLI op kind {kind!r}")
    if params is not None:
        argv += param_flags(params)
    return {"kind": kind, "argv": argv, "params": params, "expect_exit": 0, **fields}


def _invalid(kind: str, params: dict, reason: str, **fields) -> dict:
    op = _trace_op(kind, params, **fields)
    op["expect_exit"] = 2
    op["invalid"] = reason
    return op


def _broken_params(rng: Random, reason: str) -> dict:
    """A parameter record that is invalid for the stated reason only."""
    rec = draw_params(rng, 2, 1)
    if reason == "sum":
        rec["alpha"][0] = str(Fraction(rec["alpha"][0]) + Fraction(1, 7))
    elif reason == "q":
        rec["q"] = rng.choice(("0", "-1", "-1/2"))
    elif reason == "increasing_alpha":
        rec["alpha"] = ["1/4", "1/2"]
        rec["beta"] = ["1/4"]
    return rec


def _invalid_ops(rng: Random, with_series: bool, cross_check: bool) -> list[dict]:
    """The fixed invalid share: one op per kind of mathematical invalidity.
    Every one must exit 2."""
    kind = "cross_check" if cross_check else "trace_partition"
    ops = [
        _invalid(kind, _broken_params(rng, "sum"), "sum", parts=(2, 1)),
        _invalid(kind, _broken_params(rng, "q"), "q", parts=(2, 1)),
        _invalid(kind, _broken_params(rng, "increasing_alpha"), "increasing_alpha", parts=(2, 1)),
        _invalid(kind, draw_params(rng, 2, 0), "partition_order", parts=(1, 2)),
        _invalid("trace_m", draw_params(rng, 2, 0), "m_zero", m=0),
    ]
    if cross_check:
        ops[-1]["argv"].append("--cross-check")
    if with_series:
        ops.append(
            _invalid(
                "series", draw_params(rng, 1, 1, qs=Q_NOT_ONE), "degree", degree=-1
            )
        )
    return ops


def _trace_params(rng: Random, i: int, qs=Q_VALUES) -> dict:
    """Parameters of the i-th op of a kind: 0-3 alpha and 0-2 beta weights,
    gamma > 0 on a third, and q run through fixed cycles, so that every seed
    has the same mix; the seed draws the weights."""
    n_alpha, n_beta = i % 4, i // 4 % 3
    gamma = n_alpha + n_beta == 0 or i % 3 == 0
    return draw_params(rng, n_alpha, n_beta, gamma, (qs[i % len(qs)],))


def _cycled_params(rng: Random, i: int, k: int) -> dict:
    """Parameters of the i-th op of a kind with k nonzero weights and gamma
    = 0; the alpha/beta split and q run through fixed cycles."""
    splits = _splits(k)
    n_alpha, n_beta = splits[i % len(splits)]
    return draw_params(rng, n_alpha, n_beta, qs=(Q_VALUES[i % len(Q_VALUES)],))


def _cycle(sizes: range, count: int) -> list[int]:
    """``count`` sizes taken from ``sizes`` in turn, the same for every seed."""
    return [sizes[i % len(sizes)] for i in range(count)]


def trace_queries(rng: Random) -> list[dict]:
    # Sizes, weight counts and q are the same for every seed; the seed draws
    # the weights, the partition shapes and the order.  p50 falls among the
    # small queries, whose cost still grows with m and drops at q = 1, so a
    # seeded mix of sizes or of q would move p50 with the seed.
    small = _cycle(range(1, 13), N_TRACE_M_SMALL)
    ops = [_trace_op("trace_m", _trace_params(rng, i), m=m) for i, m in enumerate(small)]
    for i, m in enumerate(TRACE_M_PLATEAU + TRACE_M_DEEP):
        ops.append(_trace_op("trace_m", _trace_params(rng, i, Q_NOT_ONE), m=m))
    n_large = N_TRACE_PARTITION // 5
    totals = _cycle(range(2, 15), N_TRACE_PARTITION - n_large) + _cycle(range(15, 31, 2), n_large)
    for i, total in enumerate(totals):
        parts = _random_partition(rng, total, largest=12)
        ops.append(_trace_op("trace_partition", _trace_params(rng, i), parts=parts))
    degrees = _cycle(range(2, 13), N_SERIES_SMALL) + list(SERIES_DEEP)
    for i, degree in enumerate(degrees):
        splits = _splits(i % 4 + 1)
        n_alpha, n_beta = splits[i // 4 % len(splits)]
        params = draw_params(rng, n_alpha, n_beta, qs=(Q_NOT_ONE[i % len(Q_NOT_ONE)],))
        ops.append(_trace_op("series", params, degree=degree))
    ops += _invalid_ops(rng, with_series=True, cross_check=False)
    rng.shuffle(ops)
    return ops


def tensor_models(rng: Random) -> list[dict]:
    # Within a class the partition shape, the alpha/beta split and q run
    # through fixed cycles and the seed draws only the weights and the
    # order: q = 1 costs 30% less, a 6-slot model of one part 25% more than
    # one of (5, 1), and two beta weights 25% more than one, so seeded
    # choices moved a pass's cost by 15-25% from seed to seed.
    ops = []
    for (slots, k), count in CROSS_CHECK_CLASSES:
        shapes = _two_part_partitions(slots)
        for i in range(count):
            params = _cycled_params(rng, i, k)
            ops.append(_trace_op("cross_check", params, parts=shapes[i % len(shapes)]))
    for i in range(N_GRAM3):
        ops.append(_trace_op("gram", _cycled_params(rng, i, i % 2 + 1), n=3))
    # The CLI caps gram at n = 3, so rank 4 goes through the library.  Its
    # parameters are the fixed profile P3 (alpha = 1/2, 1/2) at q = 2: this
    # one op is a third to a half of the pass, and its cost moves by 2x with
    # the weights, so a seeded draw would move wall_s with the seed.
    ops.append(
        {
            "kind": "lib_gram",
            "call": "gram_matrix",
            "params": GRAM4_PARAMS,
            "n": 4,
            "expect_exit": 0,
        }
    )
    ops += _invalid_ops(rng, with_series=False, cross_check=True)
    rng.shuffle(ops)
    return ops


# verify_sweep: `verify --suite all` split into one op per suite with
# default parameters, except that the convolution suite runs its default
# cases one op each and leaves out GL(2,5): that one case takes 5-8 s, three
# quarters of a pass, which left three passes per run and no steady figure.
# Seeded small `rmatrix` and `tensor` suites fill the pass up to 100 ops, so
# that p90 has 10 ops beyond it: p50 falls inside the custom `rmatrix` class
# (2-3 ms each) and p90 inside the custom `tensor` class (25-45 ms).
DEFAULT_SUITES = ("hecke", "rmatrix", "tensor", "gram")
CONVOLUTION_CASES = ((2, 2), (2, 3), (3, 2))
N_CUSTOM_RMATRIX = 70
N_CUSTOM_TENSOR = 22


def verify_sweep(rng: Random) -> list[dict]:
    ops = [_trace_op("verify", None, suite=s) for s in DEFAULT_SUITES]
    ops += [_trace_op("verify", None, suite="convolution", n=n, p=p) for n, p in CONVOLUTION_CASES]
    # custom parameters: `verify --suite gram` ignores them, so only the
    # rmatrix and tensor suites get seeded parameters, two weights each
    for suite, count in (("rmatrix", N_CUSTOM_RMATRIX), ("tensor", N_CUSTOM_TENSOR)):
        for _ in range(count):
            n_alpha, n_beta = rng.choice(_splits(2))
            ops.append(_trace_op("verify", draw_params(rng, n_alpha, n_beta), suite=suite))
    ops.append(
        {
            "kind": "lib_structure",
            "call": "structure_constants_check",
            "params": None,
            "n": 2,
            "p": 7,
            "expect_exit": 0,
        }
    )
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "trace_queries": trace_queries,
    "tensor_models": tensor_models,
    "verify_sweep": verify_sweep,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of one pass; the same (workload, seed) gives the same
    list in every process."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    rng = Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng)
    prefix = "".join(w[0] for w in workload.split("_"))
    for i, op in enumerate(ops):
        op["id"] = f"{prefix}-{i:03d}"
    return ops
