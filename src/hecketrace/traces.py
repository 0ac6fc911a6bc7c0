"""Closed-form evaluators for the indecomposable traces on the infinite
Iwahori-Hecke algebra.

A trace in this family is indexed by a Thoma-type parameter triple: two
nonincreasing nonnegative sequences alpha, beta and a remainder gamma with
sum(alpha) + sum(beta) + gamma = 1, together with the rational deformation
parameter q > 0.  The paper gives its value on the descending cycle
element zeta_m as a sum over the partitions of m, divided by (q - 1):

    (1/(q-1)) * sum over {mu : sum(k mu_k) = m} of
        prod_{k>=1} (q^k - 1)^{mu_k} / (k^{mu_k} mu_k!)
        * prod_{k>=2} p_k(alpha, beta)^{mu_k},

where p_k(alpha, beta) = sum(alpha_i^k) + (-1)^(k+1) sum(beta_i^k) are the
super-Newton sums.  That sum is the z^m coefficient of
exp(sum_k (q^k - 1) p_k z^k / k) / (q - 1) with p_1 := 1, and the
exp/Newton identity regroups it without the division: with
[k]_q = 1 + q + ... + q^(k-1),

    m chi_m = [m]_q p_m + (q - 1) sum_{k<m} [k]_q p_k chi_{m-k},

which gives chi_1..chi_m in O(m^2) exact operations at every q > 0.  At
q = 1 it reduces to chi_m = p_m, the classical Thoma character value.
Values on products of disjoint cycle blocks multiply.  The recurrence runs
in integers: with q = a/b and the nonzero weights n_i/d, m_j/d over their
common denominator d, Y_k = k! b^(k-1) d^k chi_k satisfies

    Y_k = (k-1)! W_k + (a - b) sum_{j<k} (k-1)!/(k-j)! W_j Y_{k-j},

where W_k = b^(k-1) [k]_q * d^k p_k is an integer, and each chi_k is one
division at the end; zeta_trace divides out chi_m alone.

Two further evaluation routes are provided for cross-checking: the
generating function

    G(z) = prod_i (1 + beta_i q z)/(1 + beta_i z)
           * prod_j (1 - alpha_j z)/(1 - alpha_j q z)

whose coefficients repackage the same values (expanded in integers in
u = z/(b d), where every factor has int coefficients, and divided by
(b d)^k once per coefficient), and a diagonal-operator sum that evaluates
the trace as a weighted sum of eigenvalues over nondecreasing index tuples
(the scalar shadow of the tensor model in `tensor`, but computed here
without any tensor machinery).  Its two summation strategies, by tuples and
by exponent vectors, each run in integers over b^(m-1) d^m and divide once.

All arithmetic is exact; every function either returns a Fraction or an
exact PowerSeries.  TraceParams is an immutable value class on
report.Value: it checks and converts its fields in its one constructor,
and compares, hashes and prints by those fields alone.  It is the one
record of the weights: the integer routes and the tensor model read the
numerators it keeps instead of working them out again.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import lcm, prod
from typing import Iterator, Mapping, Sequence

from .report import Value
from .scalars import (
    CrossCheckError,
    PowerSeries,
    Rat,
    format_fraction,
    parse_fraction,
)

__all__ = [
    "TraceParams",
    "super_newton",
    "enumerate_multiplicities",
    "zeta_trace",
    "partition_trace",
    "thoma_trace",
    "generating_series",
    "series_from_traces",
    "delta_eigenvalue",
    "zeta_trace_diagonal",
]


def _fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _check_weights(name: str, numerators: list[int]):
    if any(n < 0 for n in numerators):
        raise ValueError(f"{name} entries must be nonnegative")
    if any(numerators[i] < numerators[i + 1] for i in range(len(numerators) - 1)):
        raise ValueError(f"{name} must be nonincreasing")


class TraceParams(Value):
    """Thoma-type parameters (alpha, beta, gamma) plus the deformation
    parameter q; validated so that sum(alpha) + sum(beta) + gamma == 1
    holds exactly.

    The check runs in integers: with d the common denominator of the alpha
    and beta weights, alpha_i = n_i/d and beta_j = m_j/d, the weights are
    compared by their numerators and the sum is checked over the common
    denominator of d and gamma.  Each instance keeps weight_numerators =
    (d, (n_i), (m_j)) with the numerators of the nonzero weights only (a
    prefix of each nonincreasing sequence), which the integer routes of
    this module read instead of working them out per call; it is not a
    field, so equality, hash and repr leave it out."""

    _fields = ("q", "alpha", "beta", "gamma")

    def __init__(
        self,
        q: Fraction,
        alpha: tuple[Fraction, ...] = (),
        beta: tuple[Fraction, ...] = (),
        gamma: Fraction = Fraction(0),
    ):
        q, gamma = _fraction(q), _fraction(gamma)
        alpha = tuple(map(_fraction, alpha))
        beta = tuple(map(_fraction, beta))
        if q.numerator <= 0:
            raise ValueError("q must be positive")
        d = lcm(*(w.denominator for w in (*alpha, *beta)))
        alphas = [w.numerator * (d // w.denominator) for w in alpha]
        betas = [w.numerator * (d // w.denominator) for w in beta]
        _check_weights("alpha", alphas)
        _check_weights("beta", betas)
        g, h = gamma.numerator, gamma.denominator
        if g < 0:
            raise ValueError("gamma must be nonnegative")
        # sum(alpha) + sum(beta) + gamma - 1 over the denominator d h
        excess = (sum(alphas) + sum(betas) - d) * h + g * d
        if excess:
            raise ValueError(
                "alpha, beta, gamma must sum to 1 exactly; "
                f"off by {format_fraction(Fraction(excess, d * h))}"
            )
        nonzero = (tuple(n for n in alphas if n), tuple(m for m in betas if m))
        self.__dict__.update(
            q=q, alpha=alpha, beta=beta, gamma=gamma, weight_numerators=(d, *nonzero)
        )

    @cached_property
    def numerators_by_index(self) -> tuple[int, dict[int, int]]:
        """(d, {i: n_i}): the nonzero weights by index over their common
        denominator d, alpha_j = n_j / d at j and beta_j = n_(-j) / d at -j,
        in increasing index order.  Read from weight_numerators on first use
        and kept."""
        d, alphas, betas = self.weight_numerators
        by_index = {-j: betas[j - 1] for j in range(len(betas), 0, -1)}
        by_index.update(enumerate(alphas, start=1))
        return d, by_index

    # -- serialization --------------------------------------------------

    @classmethod
    def from_record(cls, rec: Mapping) -> "TraceParams":
        unknown = ", ".join(repr(key) for key in rec if key not in cls._fields)
        if unknown:
            raise ValueError(f"a record holds only q, alpha, beta and gamma, not {unknown}")
        for key in ("alpha", "beta"):
            if not isinstance(rec.get(key, ()), (list, tuple)):
                raise ValueError(f"{key} must be a list of weights, got {rec[key]!r}")
        return cls(
            q=parse_fraction(str(rec["q"])),
            alpha=tuple(parse_fraction(str(a)) for a in rec.get("alpha", ())),
            beta=tuple(parse_fraction(str(b)) for b in rec.get("beta", ())),
            gamma=parse_fraction(str(rec.get("gamma", "0"))),
        )

    def to_record(self) -> dict:
        return {
            "q": format_fraction(self.q),
            "alpha": [format_fraction(a) for a in self.alpha],
            "beta": [format_fraction(b) for b in self.beta],
            "gamma": format_fraction(self.gamma),
        }


# ---------------------------------------------------------------------------
# super-Newton sums and the cycle-value recurrence


def super_newton(k: int, params: TraceParams) -> Fraction:
    """p_k(alpha, beta) = sum(alpha_i^k) + (-1)^(k+1) sum(beta_i^k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sign = 1 if k % 2 == 1 else -1
    return sum((a**k for a in params.alpha), Fraction(0)) + sign * sum(
        (b**k for b in params.beta), Fraction(0)
    )


def enumerate_multiplicities(m: int) -> Iterator[dict[int, int]]:
    """All finitely supported multiplicity vectors {k: mu_k} with
    sum(k * mu_k) = m, i.e. the partitions of m; each exactly once.  They
    index the paper's partition sum, which the tests evaluate literally as
    an oracle for zeta_trace."""
    if m < 1:
        raise ValueError("m must be >= 1")

    def rec(remaining: int, largest: int) -> Iterator[dict[int, int]]:
        if remaining == 0:
            yield {}
            return
        for k in range(min(remaining, largest), 0, -1):
            for count in range(remaining // k, 0, -1):
                for rest in rec(remaining - k * count, k - 1):
                    yield {k: count, **rest}

    return rec(m, m)


def _cycle_numerators(m: int, params: TraceParams) -> Iterator[tuple[int, int]]:
    """The pairs (Y_k, k! b^(k-1) d^k) for k = 1, .., m, chi(zeta_k) = Y_k /
    (k! b^(k-1) d^k), by the recurrence
    k chi_k = [k]_q p_k + (q-1) sum_{j<k} [j]_q p_j chi_{k-j}, p_1 := 1,
    run in integers.  With q = a/b and the weights over their common
    denominator d, Q_k = b^(k-1) [k]_q, P_k = d^k p_k and W_k = Q_k P_k are
    integers, and so is Y_k = k! b^(k-1) d^k chi_k:

        Y_k = (k-1)! W_k + (a-b) sum_{j<k} (k-1)!/(k-j)! W_j Y_{k-j}.

    At gamma = 0, chi_k lies in Z[q, alpha, beta], of degree k-1 in q and
    homogeneous of degree k in the weights, so b^(k-1) d^k chi_k is already
    an integer; the k! keeps gamma > 0 integral too (pure gamma gives
    (q-1)^(k-1)/k!), so one path serves every q > 0 and gamma >= 0.  No
    value is divided here: the caller forms each chi_k it needs as a
    Fraction once.
    """
    a, b = params.q.numerator, params.q.denominator
    d, alphas, betas = params.weight_numerators
    neg_betas = [-x for x in betas]
    alpha_pows, beta_pows = [1] * len(alphas), [1] * len(betas)  # n_i^k, (-m_j)^k
    W, Y = [0], [0]  # W[k], Y[k]; index 0 unused
    q_k, fact, b_pow, d_pow = 0, 1, 1, 1  # Q_k, (k-1)!, b^(k-1), d^k
    for k in range(1, m + 1):
        q_k = a * q_k + b_pow
        d_pow *= d
        alpha_pows = [p * n for p, n in zip(alpha_pows, alphas)]
        beta_pows = [p * n for p, n in zip(beta_pows, neg_betas)]
        W.append(q_k * (d if k == 1 else sum(alpha_pows) - sum(beta_pows)))
        tail = 0  # by Horner: the factor between the j and j+1 terms is k-j
        for j in range(k - 1, 0, -1):
            tail = tail * (k - j) + W[j] * Y[k - j]
        Y.append(fact * W[k] + (a - b) * tail)
        yield Y[k], k * fact * b_pow * d_pow
        fact *= k
        b_pow *= b


def _cycle_values(m: int, params: TraceParams) -> list[Fraction]:
    """[chi(zeta_1), ..., chi(zeta_m)], each formed as a Fraction once from
    _cycle_numerators."""
    return [Fraction(y, scale) for y, scale in _cycle_numerators(m, params)]


def zeta_trace(m: int, params: TraceParams) -> Fraction:
    """Trace value on the m-cycle element zeta_m, by the cycle-value
    recurrence; defined at every q > 0.  Only chi_m is divided out.

    >>> half = Fraction(1, 2)
    >>> zeta_trace(2, TraceParams(q=2, alpha=(half, half)))
    Fraction(5, 4)
    >>> zeta_trace(2, TraceParams(q=1, alpha=(half, half)))
    Fraction(1, 2)
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    *_, (y, scale) = _cycle_numerators(m, params)
    return Fraction(y, scale)


def partition_trace(parts: Sequence[int], params: TraceParams) -> Fraction:
    """Trace value on a product of disjoint cycle blocks: the product of
    the single-block values (traces in this family are multiplicative over
    blocks)."""
    out = Fraction(1)
    for p in parts:
        out *= zeta_trace(p, params)
    return out


def thoma_trace(m: int, params: TraceParams) -> Fraction:
    """The classical character value of the infinite symmetric group: 1 for
    m = 1 and p_m(alpha, beta) for m >= 2; what zeta_trace gives at q = 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return Fraction(1)
    return super_newton(m, params)


# ---------------------------------------------------------------------------
# generating function


def generating_series(params: TraceParams, order: int) -> PowerSeries:
    """The product formula for G(z), expanded exactly to the given order.

    Expanded in integers in u = z/(b d), for q = a/b and the weights over
    their common denominator d: a beta factor is (1 + m a u)/(1 + m b u)
    and an alpha factor (1 - n b u)/(1 - n a u), so the z^k coefficient is
    an integer over (b d)^k.  Well defined for every q > 0 including q = 1,
    where all factors cancel and G is the constant series 1.

    Each factor (1 + B u)/(1 + C u) is applied to the coefficients in
    place: times 1 + B u from the top degree down, then divided by 1 + C u
    from degree 1 up, 2 order int steps per factor.
    """
    if params.gamma != 0:
        raise ValueError("the generating function requires gamma = 0")
    a, b = params.q.numerator, params.q.denominator
    d, alphas, betas = params.weight_numerators
    factors = [(m_j * a, m_j * b) for m_j in betas] + [(-n_i * b, -n_i * a) for n_i in alphas]
    coeffs = [1] + [0] * order
    for up, down in factors:
        if up == down:
            continue
        for k in range(order, 0, -1):
            coeffs[k] += up * coeffs[k - 1]
        for k in range(1, order + 1):
            coeffs[k] -= down * coeffs[k - 1]
    scale = b * d
    return PowerSeries(order, (Fraction(c, scale**k) for k, c in enumerate(coeffs)))


def series_from_traces(params: TraceParams, order: int) -> PowerSeries:
    """G(z) rebuilt from trace values:
    1 + (q-1) (z + sum_{m>=2} chi(zeta_m) z^m), truncated at the order.

    Must agree with generating_series coefficientwise; the test suites
    assert this identity."""
    if params.gamma != 0:
        raise ValueError("the trace series requires gamma = 0")
    q = params.q
    coeffs = [Fraction(1)] + [(q - 1) * c for c in _cycle_values(order, params)]
    return PowerSeries(order, coeffs)


# ---------------------------------------------------------------------------
# diagonal-operator route


def delta_eigenvalue(indices: Sequence[int], q: Rat) -> Fraction:
    """Eigenvalue of the chained diagonal operators on the basis tensor
    labelled by a nondecreasing tuple of nonzero integers.

    With u distinct negative entries of multiplicities mu_1..mu_u and v
    distinct positive entries of multiplicities nu_1..nu_v, the value is

        (-1)^(sum(mu_k - 1)) * q^(sum(nu_l - 1)) * (q-1)^(u + v - 1).
    """
    indices = tuple(indices)
    if not indices:
        raise ValueError("need at least one index")
    if any(i == 0 for i in indices):
        raise ValueError("indices must be nonzero")
    if any(indices[i] > indices[i + 1] for i in range(len(indices) - 1)):
        raise ValueError("indices must be nondecreasing")
    q = Fraction(q)
    sign, e, r = _eigen_exponents(indices)
    return sign * q**e * (q - 1) ** (r - 1)


def _eigen_exponents(indices: Sequence[int]) -> tuple[int, int, int]:
    """(sign, e, r) of the eigenvalue sign q^e (q-1)^(r-1) of delta_eigenvalue
    on a tuple of nonzero indices: sign = (-1)^(sum(mu_k - 1)) over the
    negative blocks, e = sum(nu_l - 1) over the positive ones, and r the
    number of blocks, u + v."""
    negative = [i for i in indices if i < 0]
    positive = [i for i in indices if i > 0]
    u, v = len(set(negative)), len(set(positive))
    sign = -1 if (len(negative) - u) % 2 else 1
    return sign, len(positive) - v, u + v


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _zeta_by_tuples(m: int, params: TraceParams, q: Fraction) -> Fraction:
    """The sum over nondecreasing tuples I of nonzero-weight indices of
    delta_eigenvalue(I) prod_k a_(I_k), in integers: with q = a/b and a_i =
    n_i/d, the tuple adds sign a^e (a-b)^(r-1) b^(m-e-r) prod_k n_(I_k) over
    b^(m-1) d^m (e + r <= m, the number of positive entries plus the
    negative blocks).  The tuples are grouped by (sign, e, r), and one
    Fraction is formed."""
    a, b = q.numerator, q.denominator
    d, numerators = params.numerators_by_index
    groups: dict[tuple[int, int, int], int] = {}
    for tup in combinations_with_replacement(numerators, m):
        exponents = _eigen_exponents(tup)
        groups[exponents] = groups.get(exponents, 0) + prod(map(numerators.__getitem__, tup))
    total = sum(
        sign * a**e * (a - b) ** (r - 1) * b ** (m - e - r) * n
        for (sign, e, r), n in groups.items()
    )
    return Fraction(total, b ** (m - 1) * d**m)


def _zeta_by_exponents(m: int, params: TraceParams, q: Fraction) -> Fraction:
    """Grouped form of the same sum: exponent vectors phi over the nonzero
    beta entries and psi over the nonzero alpha entries, sum(phi) +
    sum(psi) = m; each nonzero exponent block contributes
    -(-beta_i)^phi_i resp. (q alpha_j)^psi_j / q, and r nonzero blocks
    together contribute (q-1)^(r-1).  In integers, with q = a/b and the
    weights m_i/d, n_j/d: a block adds -(-m_i)^phi_i resp. a^(psi_j - 1)
    n_j^psi_j, and the term is over b^(r - 1 + sum(psi_j - 1)) d^m, the
    sum over the nonzero psi_j, which divides b^(m-1) d^m; one Fraction is
    formed."""
    a, b = q.numerator, q.denominator
    d, alphas, betas = params.weight_numerators
    total = 0
    for combo in _compositions(m, len(betas) + len(alphas)):
        phi, psi = combo[: len(betas)], combo[len(betas):]
        r = sum(1 for e in combo if e)
        term, shift = (a - b) ** (r - 1), r - 1  # shift: the power of b taken
        for m_i, e in zip(betas, phi):
            if e:
                term *= -((-m_i) ** e)
        for n_j, e in zip(alphas, psi):
            if e:
                term *= a ** (e - 1) * n_j**e
                shift += e - 1
        total += term * b ** (m - 1 - shift)
    return Fraction(total, b ** (m - 1) * d**m)


def zeta_trace_diagonal(m: int, params: TraceParams) -> Fraction:
    """Trace value on zeta_m by the diagonal-eigenvalue sum, evaluated by
    both summation strategies (per-tuple and grouped-by-exponents); any
    disagreement between the two is a hard failure, not a usage error."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if params.gamma != 0:
        raise ValueError("the diagonal route requires gamma = 0")
    q = params.q
    by_tuples = _zeta_by_tuples(m, params, q)
    by_exponents = _zeta_by_exponents(m, params, q)
    if by_tuples != by_exponents:
        raise CrossCheckError(
            f"diagonal sum strategies disagree at m={m}, params {params.to_record()}: "
            f"{by_tuples} (tuples) vs {by_exponents} (exponents)"
        )
    return by_tuples
