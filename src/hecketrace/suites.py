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
from .permutations import is_perm, length
from .report import CheckResult
from .scalars import QPoly
from .tensor import ModelContext
from .traces import (
    TraceParams,
    _cycle_values,
    generating_series,
    series_from_traces,
    thoma_trace,
    zeta_trace_diagonal,
)

__all__ = [
    "SUITE_NAMES",
    "DEFAULT_QS",
    "default_profiles",
    "profile_params",
    "model_slots",
    "hecke_suite",
    "rmatrix_suite",
    "tensor_suite",
    "convolution_suite",
    "gram_suite",
    "run_suite",
]

SUITE_NAMES = ("hecke", "rmatrix", "tensor", "convolution", "gram", "all")

DEFAULT_QS = (Fraction(2), Fraction(3), Fraction(1, 2))

CONVOLUTION_CASES = ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2))

# the seed of the random draws in the hecke and gram suites
SEED = 20260810

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


def _presentation(mul, unit, gens, q) -> tuple[bool, bool, bool]:
    """Whether the generators gens = (sigma_1, .., sigma_(n-1)) satisfy the
    three laws of the Hecke presentation under the product mul, as
    (quadratic, braid, distant_commute): sigma_m^2 = (q-1) sigma_m + q,
    sigma_m sigma_(m+1) sigma_m = sigma_(m+1) sigma_m sigma_(m+1), and
    sigma_m sigma_l = sigma_l sigma_m for l >= m + 2.  A law with no pair
    of generators holds."""
    quadratic = all(mul(g, g) == g.scale(q - 1) + unit.scale(q) for g in gens)
    braid = all(mul(mul(g, h), g) == mul(mul(h, g), h) for g, h in zip(gens, gens[1:]))
    distant = all(
        mul(g, h) == mul(h, g) for i, g in enumerate(gens) for h in gens[i + 2 :]
    )
    return quadratic, braid, distant


def hecke_suite() -> list[CheckResult]:
    results = []
    rng = Random(SEED)
    for n in range(2, 6):
        unit = HeckeElement.unit(n)
        gens = [HeckeElement.generator(m, n) for m in range(1, n)]
        laws = _presentation(mul, unit, gens, QPoly.var())
        for law, ok in zip(("quadratic", "braid", "distant_commute"), laws):
            results.append(CheckResult(f"hecke.{law}.n{n}", ok))
        # products of up to 6 generators stay inside the T-basis: every key
        # is a permutation in S_n
        ok = True
        for _ in range(10):
            x = unit
            for _ in range(6):
                x = gen_mul_left(rng.randrange(1, n), x)
            if not all(len(w) == n and is_perm(w) for w in x.terms):
                ok = False
                break
        results.append(CheckResult(f"hecke.basis_closure.n{n}", ok))
    return results


def model_slots(suite: str, m_max: int = 5) -> int:
    """Slots of the largest tensor model `suite` builds on a weight profile:
    3 for the R-matrix laws, max(m_max, 5) for the tensor suite's cycles up
    to length m_max and its shift checks on up to 5 slots, 4 for the gram
    suite's bimodule checks, the largest of these for `all`, and 0 for a
    suite that builds none."""
    slots = {"rmatrix": 3, "tensor": max(m_max, 5), "gram": 4}
    return max(slots.values()) if suite == "all" else slots.get(suite, 0)


def _walk_slots(suite: str, m_max: int = 5) -> int:
    """Slots of the widest walk over all basis tensors in `suite`: as in
    model_slots, but max(m_max, 2) for the normal forms and the R table of
    the tensor suite, whose shift checks and matrix elements walk closed."""
    slots = {"rmatrix": 3, "tensor": max(m_max, 2), "gram": 4}
    return max(slots.values()) if suite == "all" else slots.get(suite, 0)


# ---------------------------------------------------------------------------
# R-matrix laws


def rmatrix_suite(profiles=None, qs=DEFAULT_QS) -> list[CheckResult]:
    """R^2 = (q-1) R + q and the braid identity, checked exactly on the
    left integer walk that every tensor route applies, over every basis
    tensor of the three-slot space (tensor.r_matrix_laws)."""
    results = []
    for q in qs:
        for profile in profiles if profiles is not None else default_profiles():
            name = profile[0]
            ctx = ModelContext.create(profile_params(profile, q), model_slots("rmatrix"))
            s = len(ctx.support)
            quadratic, braid = tensor.r_matrix_laws(ctx)
            results.append(CheckResult(f"rmatrix.quadratic.{name}.s{s}.q={q}", quadratic))
            results.append(CheckResult(f"rmatrix.braid.{name}.s{s}.q={q}", braid))
    return results


# ---------------------------------------------------------------------------
# trace agreement, generating function, Thoma degeneration, shift invariance


def tensor_suite(profiles=None, qs=DEFAULT_QS, m_max: int = 5) -> list[CheckResult]:
    """One model per (profile, q), at model_slots("tensor", m_max) slots,
    on which the four-way checks evaluate every cycle length and the shift
    checks every shift.  The Thoma checks build one model per profile at
    q = 1."""
    results = []
    profiles = profiles if profiles is not None else default_profiles()
    widest = max(profiles, key=lambda p: sum(1 for a in (*p[1], *p[2]) if a != 0))
    shift_model = None
    for q in qs:
        for profile in profiles:
            params = profile_params(profile, q)
            model = ModelContext.create(params, model_slots("tensor", m_max))
            if shift_model is None and profile is widest:  # at the first q
                shift_model = model
            results.extend(_four_way_checks(profile[0], model, m_max))
            results.append(_series_check(profile[0], params))
    results.extend(_thoma_checks(profiles, m_max=min(m_max, 4)))
    results.extend(_shift_checks(shift_model))
    return results


def _four_way_checks(name: str, model: ModelContext, m_max: int) -> list[CheckResult]:
    """The same trace value along five routes: the cycle-value recurrence
    (one run up to m_max gives every m) and the scalar diagonal sum, which
    are the independent ones, and three tensor routes that all walk the
    one table of b R, ctx.r_matrix, with _int_walk: the tensor-side
    diagonal sum (the diagonal rows of the table, one walk up to m_max
    giving every m, read lazily), the R-matrix matrix element, and the
    normal-form cycle sum.
    The matrix element takes each slot's weighted sum during its walk,
    where the normal form walks every basis tensor of the cycle's rank and
    reads sigma off the walked tuples.  Every cycle runs on `model`, which
    has at least m_max slots."""
    params = model.params
    diagonal = tensor._diagonal_values(model, m_max)
    out = []
    for m, closed in enumerate(_cycle_values(m_max, params), start=1):
        element = zeta_interval(1, m)
        direct = tensor.matrix_element(model, element)
        diag_tensor = next(diagonal)  # after the matrix element at m, not before
        omega = tensor.omega_trace(model, tensor.normal_form(model, element))
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
        if profile[0] not in ("P3", "P4") or m_max < 2:
            continue
        params = profile_params(profile, Fraction(1))
        model = ModelContext.create(params, slots=m_max)
        for m in range(2, m_max + 1):
            got = tensor.matrix_element(model, zeta_interval(1, m))
            want = thoma_trace(m, params)
            out.append(
                CheckResult(
                    f"tensor.thoma.{profile[0]}.m{m}",
                    got == want,
                    "" if got == want else f"matrix element {got}, Thoma value {want}",
                )
            )
    return out


def _shift_checks(model: ModelContext) -> list[CheckResult]:
    """Trace values of interval cycles do not depend on where the interval
    sits: shifting [1, m] to [1+k, m+k] leaves the matrix element alone.
    The tensor suite runs them on its profile with the most nonzero weights
    (the first on a tie) at its first q, on `model`, which has at least 5
    slots."""
    out = []
    for m in (2, 3):
        base = tensor.matrix_element(model, zeta_interval(1, m))
        for k in (1, 2):
            shifted = tensor.matrix_element(model, zeta_interval(1 + k, m + k))
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


def convolution_suite(cases=CONVOLUTION_CASES) -> list[CheckResult]:
    results = []
    for n, p in cases:
        tag = f"convolution.gl({n},{p})"
        gl = fqconv.enumerate_gl(n, p)
        borel = fqconv.borel_subgroup(n, p)
        table = fqconv.bruhat_table(n, p)
        # the enumerations assert their own sizes; these compare members
        ok = set(gl) == set().union(*table.values())
        results.append(CheckResult(f"{tag}.group_order", ok))
        upper = {g for g in gl if not any(g[i][j] for i in range(n) for j in range(i))}
        results.append(CheckResult(f"{tag}.borel_order", set(borel) == upper))
        ok = len(table) == factorial(n) and all(
            len(cell) == p ** length(w) * len(borel)
            and all(fqconv.bruhat_cell(m, p) == w for m in cell)
            for w, cell in table.items()
        )
        results.append(CheckResult(f"{tag}.bruhat_cells", ok))

        unit = fqconv.unit_function(n, p)
        sigmas = [fqconv.sigma_element(m, n, p) for m in range(1, n)]
        ok = fqconv.convolve(unit, unit) == unit and all(
            fqconv.convolve(unit, s) == s and fqconv.convolve(s, unit) == s for s in sigmas
        )
        results.append(CheckResult(f"{tag}.unit", ok))
        # each law from the rank at which it has a pair of generators
        laws = _presentation(fqconv.convolve, unit, sigmas, p)
        for law, ok in zip(("quadratic_at_q=p", "braid", "distant_commute")[: n - 1], laws):
            results.append(CheckResult(f"{tag}.{law}", ok))

        structure = fqconv.structure_constants_check(n, p)
        bad = [r for r in structure if not r.passed]
        results.append(
            CheckResult(
                f"{tag}.structure_constants",
                not bad,
                bad[0].detail if bad else "",
            )
        )
    return results


# ---------------------------------------------------------------------------
# positivity and bimodule structure


def gram_suite(profiles=None, qs=(Fraction(2),)) -> list[CheckResult]:
    """Gram positivity of H_3 at each (profile, q), and the bimodule
    identities on the first profile at the first q.  By default the
    profiles are P3 and P4 at q = 2."""
    if profiles is None:
        profiles = [p for p in default_profiles() if p[0] in ("P3", "P4")]
    results = []
    for q in qs:
        for profile in profiles:
            params = profile_params(profile, q)
            gram = tensor.gram_matrix(params, 3)
            pivots, psd = tensor.ldlt_pivots(gram)
            results.append(
                CheckResult(
                    f"gram.psd.{profile[0]}.q={q}.n3",
                    psd,
                    "" if psd else f"pivots {pivots}",
                )
            )
    ctx = ModelContext.create(profile_params(profiles[0], qs[0]), model_slots("gram"))
    results.extend(tensor.bimodule_checks(ctx, Random(SEED)))
    return results


# ---------------------------------------------------------------------------
# dispatch


def run_suite(
    suite: str,
    qs=DEFAULT_QS,
    m_max: int = 5,
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
        return convolution_suite(CONVOLUTION_CASES if cases is None else cases)
    if suite == "gram":
        # without given parameters the gram suite keeps its own default,
        # q = 2 only, not the three default q values of the other suites
        if profiles is None:
            return gram_suite()
        return gram_suite(profiles=profiles, qs=qs)
    if suite == "all":
        out = []
        for name in SUITE_NAMES[:-1]:
            out.extend(
                run_suite(name, qs=qs, m_max=m_max, profiles=profiles, cases=cases)
            )
        return out
    raise ValueError(f"unknown suite {suite!r}; choose one of {', '.join(SUITE_NAMES)}")
