"""Verification suites: batteries of exact identity checks over the whole
library, shared by the command-line `verify` subcommand and the acceptance
tests.

Every check is exact (tolerance zero).  Each suite returns a list of
CheckResult records; report ordering is canonicalized by the caller via
report.format_results.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from random import Random

from . import fqconv, tensor
from .hecke import HeckeElement, gen_mul_left, mul, zeta_interval
from .permutations import length
from .report import CheckResult
from .scalars import PowerSeries, QPoly
from .tensor import ModelContext
from .traces import (
    TraceParams,
    generating_series,
    series_from_traces,
    thoma_trace,
    zeta_trace,
    zeta_trace_diagonal,
)

__all__ = [
    "SUITE_NAMES",
    "DEFAULT_QS",
    "default_profiles",
    "profile_params",
    "hecke_suite",
    "rmatrix_suite",
    "tensor_suite",
    "convolution_suite",
    "gram_suite",
    "run_suite",
]

SUITE_NAMES = ("hecke", "rmatrix", "tensor", "convolution", "gram", "all")

DEFAULT_QS = (Fraction(2), Fraction(3), Fraction(1, 2))

CONVOLUTION_CASES = ((2, 2), (2, 3), (2, 5), (3, 2))
EXPENSIVE_CONVOLUTION_CASES = ((3, 3),)

# weight profiles: (name, alpha, beta); the q value is supplied separately
_H = Fraction(1, 2)
_PROFILES = (
    ("P1", (Fraction(1),), ()),
    ("P2", (), (Fraction(1),)),
    ("P3", (_H, _H), ()),
    ("P4", (_H,), (_H,)),
    ("P5", (Fraction(2, 3), Fraction(1, 6)), (Fraction(1, 6),)),
)


def default_profiles():
    """The standard spread of weight profiles used throughout the checks:
    the two one-dimensional anchors, a flat alpha pair, a mixed pair, and
    an asymmetric three-weight profile."""
    return _PROFILES


def profile_params(profile, q: Fraction) -> TraceParams:
    _, alpha, beta = profile
    return TraceParams(q=q, alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# Hecke presentation


def hecke_suite(ranks=range(2, 6), seed: int = 20260810) -> list[CheckResult]:
    results = []
    q = QPoly.var()
    one = QPoly.const(1)
    rng = Random(seed)
    for n in ranks:
        unit = HeckeElement.unit(n)
        gens = {m: HeckeElement.generator(m, n) for m in range(1, n)}
        ok = all(
            mul(gens[m], gens[m]) == gens[m].scale(q - one) + unit.scale(q)
            for m in range(1, n)
        )
        results.append(CheckResult(f"hecke.quadratic.n{n}", ok))
        ok = all(
            mul(mul(gens[m], gens[m + 1]), gens[m])
            == mul(mul(gens[m + 1], gens[m]), gens[m + 1])
            for m in range(1, n - 1)
        )
        results.append(CheckResult(f"hecke.braid.n{n}", ok))
        ok = all(
            mul(gens[m], gens[l]) == mul(gens[l], gens[m])
            for m in range(1, n)
            for l in range(m + 2, n)
        )
        results.append(CheckResult(f"hecke.distant_commute.n{n}", ok))
        # products of up to 6 generators stay inside the n!-element T-basis
        ok = True
        for _ in range(10):
            x = unit
            for _ in range(6):
                x = gen_mul_left(rng.randrange(1, n), x)
            if len(x.terms) > factorial(n) or not all(len(w) == n for w in x.terms):
                ok = False
                break
        results.append(CheckResult(f"hecke.basis_closure.n{n}", ok))
    return results


# ---------------------------------------------------------------------------
# R-matrix laws


def _dense_scale(mat, c):
    return {src: {dst: v * c for dst, v in col.items()} for src, col in mat.items()}


def _dense_add(a, b):
    out = {src: dict(col) for src, col in a.items()}
    for src, col in b.items():
        dst = out.setdefault(src, {})
        for k, v in col.items():
            dst[k] = dst[k] + v if k in dst else v
    return out


def _dense_identity(keys, one):
    return {k: {k: one} for k in keys}


def rmatrix_suite(profiles=None, qs=DEFAULT_QS) -> list[CheckResult]:
    """Dense verification of R^2 = (q-1) R + q and the braid identity on
    the truncated two- and three-slot spaces, exact in the square-root
    ring."""
    results = []
    for q in qs:
        for profile in profiles if profiles is not None else default_profiles():
            name = profile[0]
            params = profile_params(profile, q)
            ctx = ModelContext.create(params, slots=3)
            s = len(ctx.support)
            r = tensor.r_matrix_dense(ctx)
            lhs = tensor.compose_dense(r, r)
            rhs = _dense_add(
                _dense_scale(r, ctx.q - 1),
                _dense_scale(_dense_identity(r.keys(), ctx.table.one()), ctx.q),
            )
            results.append(
                CheckResult(
                    f"rmatrix.quadratic.{name}.s{s}.q={q}",
                    tensor.dense_equal(lhs, rhs),
                )
            )
            r12, r23 = tensor.braid_matrices(ctx)
            lhs = tensor.compose_dense(r12, tensor.compose_dense(r23, r12))
            rhs = tensor.compose_dense(r23, tensor.compose_dense(r12, r23))
            results.append(
                CheckResult(
                    f"rmatrix.braid.{name}.s{s}.q={q}",
                    tensor.dense_equal(lhs, rhs),
                )
            )
    return results


# ---------------------------------------------------------------------------
# trace agreement, generating function, Thoma degeneration, shift invariance


def tensor_suite(profiles=None, qs=DEFAULT_QS, m_max: int = 5) -> list[CheckResult]:
    results = []
    profiles = profiles if profiles is not None else default_profiles()
    for q in qs:
        for profile in profiles:
            params = profile_params(profile, q)
            results.extend(_four_way_checks(profile[0], params, m_max))
            results.append(_series_check(profile[0], params))
    results.extend(_thoma_checks(profiles, m_max=min(m_max, 4)))
    results.extend(_shift_checks())
    return results


def _four_way_checks(name: str, params: TraceParams, m_max: int) -> list[CheckResult]:
    """The same trace value along independent routes: the closed
    partition-sum formula, the scalar diagonal sum, the tensor-side
    diagonal sum, the full R-matrix matrix element, and the normal-form
    cycle sum.  At q = 1 the closed routes are replaced by the Thoma
    value, which is what the singular formula degenerates to."""
    out = []
    for m in range(1, m_max + 1):
        slots = max(m, 2)
        ctx = ModelContext.create(params, slots=slots)
        element = zeta_interval(1, m, rank=slots)
        direct = tensor.matrix_element(ctx, element)
        diag_tensor = tensor.diagonal_zeta(ctx, m)
        omega = tensor.omega_trace(ctx, tensor.normal_form(ctx, element))
        if params.q == 1:
            closed = diag_scalar = thoma_trace(m, params)
        else:
            closed = zeta_trace(m, params)
            diag_scalar = zeta_trace_diagonal(m, params)
        agree = closed == diag_scalar == diag_tensor == direct == omega
        detail = (
            ""
            if agree
            else (
                f"formula={closed} diagonal={diag_scalar} "
                f"tensor-diagonal={diag_tensor} matrix={direct} omega={omega}"
            )
        )
        out.append(
            CheckResult(f"tensor.four_way.{name}.q={params.q}.m{m}", agree, detail)
        )
    return out


def _series_check(name: str, params: TraceParams, order: int = 8) -> CheckResult:
    rhs = generating_series(params, order)
    if params.q == 1:
        # all factors cancel at q = 1; the series must be constant
        lhs = PowerSeries.one(order)
    else:
        lhs = series_from_traces(params, order)
    return CheckResult(
        f"tensor.series_identity.{name}.q={params.q}",
        lhs == rhs,
        "" if lhs == rhs else f"traces {list(lhs.coeffs)}, product {list(rhs.coeffs)}",
    )


def _thoma_checks(profiles, m_max: int = 4) -> list[CheckResult]:
    """At q = 1 the tensor matrix element degenerates to the classical
    character value p_m(alpha, beta)."""
    out = []
    for profile in profiles:
        if profile[0] not in ("P3", "P4"):
            continue
        params = profile_params(profile, Fraction(1))
        for m in range(2, m_max + 1):
            ctx = ModelContext.create(params, slots=m)
            got = tensor.matrix_element(ctx, zeta_interval(1, m, rank=m))
            want = thoma_trace(m, params)
            out.append(
                CheckResult(
                    f"tensor.thoma.{profile[0]}.m{m}",
                    got == want,
                    "" if got == want else f"matrix element {got}, Thoma value {want}",
                )
            )
    return out


def _shift_checks() -> list[CheckResult]:
    """Trace values of interval cycles do not depend on where the interval
    sits: shifting [1, m] to [1+k, m+k] leaves the matrix element alone."""
    out = []
    params = profile_params(_PROFILES[2], Fraction(2))  # flat alpha pair
    for m in (2, 3):
        for k in (1, 2):
            slots = m + k
            ctx = ModelContext.create(params, slots=slots)
            base = tensor.matrix_element(ctx, zeta_interval(1, m, rank=slots))
            shifted = tensor.matrix_element(
                ctx, zeta_interval(1 + k, m + k, rank=slots)
            )
            out.append(
                CheckResult(
                    f"tensor.shift.m{m}.k{k}",
                    base == shifted,
                    "" if base == shifted else f"{shifted} != {base}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# finite-field realization


def convolution_suite(cases=CONVOLUTION_CASES, expensive: bool = False) -> list[CheckResult]:
    results = []
    all_cases = tuple(cases) + (EXPENSIVE_CONVOLUTION_CASES if expensive else ())
    for n, p in all_cases:
        tag = f"convolution.gl({n},{p})"
        gl = fqconv.enumerate_gl(n, p)
        results.append(
            CheckResult(
                f"{tag}.group_order",
                len(gl) == fqconv.general_linear_order(n, p),
            )
        )
        borel = fqconv.borel_subgroup(n, p)
        results.append(
            CheckResult(f"{tag}.borel_order", len(borel) == fqconv.borel_order(n, p))
        )
        table = fqconv.bruhat_table(n, p)
        sizes_ok = len(table) == factorial(n) and all(
            len(cell) == p ** length(w) * len(borel) for w, cell in table.items()
        )
        results.append(CheckResult(f"{tag}.bruhat_cells", sizes_ok))

        unit = fqconv.unit_function(n, p)
        sigmas = {m: fqconv.sigma_element(m, n, p) for m in range(1, n)}
        ok = fqconv.convolve(unit, unit) == unit and all(
            fqconv.convolve(unit, s) == s and fqconv.convolve(s, unit) == s
            for s in sigmas.values()
        )
        results.append(CheckResult(f"{tag}.unit", ok))
        ok = all(
            fqconv.convolve(s, s) == s.scale(p - 1) + unit.scale(p)
            for s in sigmas.values()
        )
        results.append(CheckResult(f"{tag}.quadratic_at_q=p", ok))
        if n >= 3:
            ok = all(
                fqconv.convolve(fqconv.convolve(sigmas[m], sigmas[m + 1]), sigmas[m])
                == fqconv.convolve(
                    fqconv.convolve(sigmas[m + 1], sigmas[m]), sigmas[m + 1]
                )
                for m in range(1, n - 1)
            )
            results.append(CheckResult(f"{tag}.braid", ok))

        structure = fqconv.structure_constants_check(n, p)
        bad = [r for r in structure if not r.passed]
        results.append(
            CheckResult(
                f"{tag}.structure_constants",
                not bad,
                bad[0].detail if bad else "",
            )
        )
    if expensive:
        # distant commutation needs rank 4; (4,2) is the smallest instance
        sigmas = {m: fqconv.sigma_element(m, 4, 2) for m in (1, 3)}
        ok = fqconv.convolve(sigmas[1], sigmas[3]) == fqconv.convolve(
            sigmas[3], sigmas[1]
        )
        results.append(CheckResult("convolution.gl(4,2).distant_commute", ok))
    return results


# ---------------------------------------------------------------------------
# positivity and bimodule structure


def gram_suite(qs=(Fraction(2),), rank: int = 3, seed: int = 20260810) -> list[CheckResult]:
    results = []
    for q in qs:
        for profile in default_profiles():
            if profile[0] not in ("P3", "P4"):
                continue
            params = profile_params(profile, q)
            gram = tensor.gram_matrix(params, rank)
            pivots, psd = tensor.ldlt_pivots(gram)
            results.append(
                CheckResult(
                    f"gram.psd.{profile[0]}.q={q}.n{rank}",
                    psd,
                    "" if psd else f"pivots {pivots}",
                )
            )
    params = profile_params(_PROFILES[2], Fraction(2))
    ctx = ModelContext.create(params, slots=4)
    results.extend(tensor.bimodule_checks(ctx, Random(seed)))
    return results


# ---------------------------------------------------------------------------
# dispatch


def run_suite(
    suite: str,
    qs=DEFAULT_QS,
    m_max: int = 5,
    expensive: bool = False,
    profiles=None,
    cases=None,
) -> list[CheckResult]:
    if suite == "hecke":
        return hecke_suite()
    if suite == "rmatrix":
        return rmatrix_suite(profiles=profiles, qs=qs)
    if suite == "tensor":
        return tensor_suite(profiles=profiles, qs=qs, m_max=m_max)
    if suite == "convolution":
        return convolution_suite(
            cases=CONVOLUTION_CASES if cases is None else cases, expensive=expensive
        )
    if suite == "gram":
        return gram_suite()
    if suite == "all":
        out = []
        for name in SUITE_NAMES[:-1]:
            out.extend(
                run_suite(
                    name,
                    qs=qs,
                    m_max=m_max,
                    expensive=expensive,
                    profiles=profiles,
                    cases=cases,
                )
            )
        return out
    raise ValueError(f"unknown suite {suite!r}; choose one of {', '.join(SUITE_NAMES)}")
