"""Reference answers for benchmark ops, along routes other than the one
each op exercises.

Trace values come from the exponential recurrence

    chi(zeta_m) = [z^m] exp(sum_k (q^k - 1) p_k z^k / k) / (q - 1),

with p_1 := 1 and p_k the super-Newton sums, which the series
f = exp(g) gives in O(m^2) exact steps through m f_m = sum_k k g_k f_{m-k}
(the partition-sum formula is the same coefficient expanded over
partitions of m).  At q = 1 the value is the power sum p_m.  Gram entries
are re-evaluated through the normal-form cycle sum instead of the
R-matrix action.  Everything here runs in the benchmark's parent process,
outside every timed and traced region.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from random import Random


def parse_params(rec: dict) -> tuple[Fraction, tuple, tuple, Fraction]:
    return (
        Fraction(rec["q"]),
        tuple(Fraction(a) for a in rec["alpha"]),
        tuple(Fraction(b) for b in rec["beta"]),
        Fraction(rec["gamma"]),
    )


def power_sum(k: int, alpha, beta) -> Fraction:
    sign = 1 if k % 2 else -1
    return sum(a**k for a in alpha) + sign * sum(b**k for b in beta)


class TraceOracle:
    """Trace values chi(zeta_m) for one parameter record, extended on
    demand."""

    def __init__(self, rec: dict):
        self.q, self.alpha, self.beta, _ = parse_params(rec)
        self.f = [Fraction(1)]  # coefficients of exp(g)
        self.g = [Fraction(0)]

    def _extend(self, m: int):
        q = self.q
        while len(self.f) <= m:
            n = len(self.f)
            p_n = Fraction(1) if n == 1 else power_sum(n, self.alpha, self.beta)
            self.g.append((q**n - 1) * p_n / n)
            self.f.append(sum(k * self.g[k] * self.f[n - k] for k in range(1, n + 1)) / n)

    def value(self, m: int) -> Fraction:
        if m < 1:
            raise ValueError("m must be >= 1")
        if self.q == 1:
            return Fraction(1) if m == 1 else power_sum(m, self.alpha, self.beta)
        self._extend(m)
        return self.f[m] / (self.q - 1)

    def partition_value(self, parts) -> Fraction:
        out = Fraction(1)
        for part in parts:
            out *= self.value(part)
        return out

    def series(self, degree: int) -> list[Fraction]:
        """Coefficients 1, (q-1) chi_1, ..., (q-1) chi_degree of G(z)."""
        self._extend(degree)
        return list(self.f[: degree + 1])


# verify: checks per suite.  Defaults: hecke 4 checks at each rank 2..5;
# rmatrix 2 laws x 3 q values x 5 profiles; tensor 3 x 5 x (5 four-way + 1
# series) + 6 Thoma + 4 shift; gram 2 PSD + 3 bimodule.  The convolution
# suite runs one case per op: 6 checks at GL(2,p), plus the braid at
# GL(3,2).  With custom parameters one profile at one q remains, and the
# Thoma checks (profiles P3/P4 only) drop out.
DEFAULT_CHECKS = {"hecke": 16, "rmatrix": 30, "tensor": 100, "gram": 5}
VERIFY_M_MAX = 5


def expected_checks(op: dict) -> int:
    suite = op["suite"]
    if suite == "convolution":
        return 7 if op["n"] == 3 else 6
    if op["params"] is None:
        return DEFAULT_CHECKS[suite]
    if suite == "rmatrix":
        return 2
    if suite == "tensor":
        return VERIFY_M_MAX + 1 + 4
    raise ValueError(f"no custom-parameter count for suite {suite!r}")


def _is_symmetric(mat) -> bool:
    n = len(mat)
    return all(mat[i][j] == mat[j][i] for i in range(n) for j in range(i))


class Mismatch(Exception):
    """An op's output disagrees with its reference or drops work."""


def _need(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def gram_reference(rec: dict, n: int, samples: int, seed: str) -> dict:
    """Gram entries at a few seeded positions, each evaluated as the
    normal-form cycle sum omega_trace(T_v* T_u)."""
    from hecketrace import hecke, tensor
    from hecketrace.permutations import all_perms
    from hecketrace.traces import TraceParams

    params = TraceParams.from_record(rec)
    ctx = tensor.ModelContext.create(params, n)
    basis = all_perms(n)
    rng = Random(seed)
    entries = {}
    for _ in range(samples):
        i, j = rng.randrange(len(basis)), rng.randrange(len(basis))
        prod = hecke.mul(hecke.HeckeElement.basis(basis[j]).star(), hecke.HeckeElement.basis(basis[i]))
        entries[(i, j)] = tensor.omega_trace(ctx, tensor.normal_form(ctx, prod))
    return entries


GRAM_SAMPLES = {3: 3, 4: 2}


def reference(op: dict):
    """What the parent needs to check one op, computed once per run."""
    kind = op["kind"]
    if op["expect_exit"] != 0:
        return None
    if kind in ("trace_m", "trace_partition", "cross_check"):
        parts = (op["m"],) if kind == "trace_m" else op["parts"]
        return TraceOracle(op["params"]).partition_value(parts)
    if kind == "series":
        return TraceOracle(op["params"]).series(op["degree"])
    if kind in ("gram", "lib_gram"):
        return gram_reference(op["params"], op["n"], GRAM_SAMPLES[op["n"]], op["id"])
    if kind == "verify":
        return expected_checks(op)
    if kind == "lib_structure":
        return factorial(op["n"]) ** 2
    raise ValueError(f"no reference for op kind {kind!r}")


def _lines(out: str) -> list[str]:
    return out.strip().splitlines()


def check(op: dict, ref, result: dict):
    """Raise Mismatch if the output of a completed op is wrong, short or
    malformed."""
    try:
        _check(op, ref, result)
    except (ValueError, IndexError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise Mismatch(f"malformed output: {type(exc).__name__}: {exc}") from None


def _check(op: dict, ref, result: dict):
    kind, out = op["kind"], result["out"]
    if op["expect_exit"] != 0:
        _need(not out.strip(), "invalid request printed a result")
        return
    if kind in ("trace_m", "trace_partition", "cross_check"):
        lines = _lines(out)
        _need(len(lines) == 1, f"expected one value line, got {len(lines)}")
        _need(Fraction(lines[0]) == ref, f"value {lines[0]} != reference {ref}")
    elif kind == "series":
        lines = [line.split(",") for line in _lines(out)]
        _need(len(lines) == op["degree"] + 1, f"{len(lines)} coefficients for degree {op['degree']}")
        for d, (row, want) in enumerate(zip(lines, ref)):
            _need(len(row) == 4 and int(row[0]) == d, f"malformed series row {row}")
            _need(Fraction(row[1]) == want and Fraction(row[2]) == want, f"coefficient {d} != {want}")
            _need(row[3] == "ok", f"coefficient {d} not marked ok")
    elif kind in ("gram", "lib_gram"):
        size = factorial(op["n"])
        if kind == "gram":
            lines = _lines(out)
            _need(len(lines) == size + 2, f"{len(lines)} gram lines for n={op['n']}")
            gram = [[Fraction(x) for x in line.split(",")] for line in lines[:size]]
            pivots = lines[size].split(",")[1:]
            psd = lines[size + 1] == "psd,yes"
        else:
            gram = [[Fraction(x) for x in row] for row in out["gram"]]
            pivots, psd = out["pivots"], out["psd"]
        _need(len(gram) == size and all(len(row) == size for row in gram), "gram matrix is not n! x n!")
        _need(_is_symmetric(gram), "gram matrix is not symmetric")
        _need(len(pivots) == size and psd, "gram matrix not reported PSD with n! pivots")
        for (i, j), want in ref.items():
            _need(gram[i][j] == want, f"gram[{i}][{j}] = {gram[i][j]} != omega trace {want}")
    elif kind == "verify":
        lines = _lines(out)
        passes = [line for line in lines if line.startswith("PASS ")]
        _need(len(passes) == ref and len(lines) == ref + 1, f"{len(passes)} PASS lines, expected {ref}")
        _need(lines[-1] == f"passed {ref}/{ref}", f"summary {lines[-1]!r}, expected {ref}/{ref}")
    elif kind == "lib_structure":
        _need(len(out) == ref and all(passed for _, passed in out), f"{len(out)} structure checks, expected {ref} passing")
    else:
        raise ValueError(f"no check for op kind {kind!r}")
