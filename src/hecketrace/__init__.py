"""Exact computation in Iwahori-Hecke algebras of type A.

The package evaluates the indecomposable normalized traces on the
infinite-rank Hecke algebra (indexed by Thoma-type parameter triples and
the deformation parameter q) along four independent routes and checks
them against each other with zero tolerance:

  * the paper's partition sum over super-Newton sums, regrouped as a
    division-free recurrence for the cycle values, defined at every q > 0
    and equal to the classical Thoma character at q = 1 (`traces`),
  * the generating-function product expansion (`traces`),
  * diagonal-operator eigenvalue sums (`traces` and `tensor`),
  * matrix elements of an R-matrix action on a weighted tensor power
    (`tensor`), including a normal-form cycle-sum oracle that also covers
    arbitrary algebra elements.

It also realizes the finite-rank algebras concretely as convolution
algebras of Borel-bi-invariant functions on GL(n, F_p) and verifies the
structure constants against the abstract T-basis at q = p (`fqconv`).

All arithmetic is exact: rationals, polynomials in q, and a formal
square-root extension ring; no floats appear anywhere.
"""

from .hecke import HeckeElement, zeta_interval, zeta_partition
from .scalars import (
    CrossCheckError,
    PowerSeries,
    QPoly,
    RootElem,
    SqrtTable,
    series_mul,
)
from .tensor import (
    ModelContext,
    TensorState,
    apply_hecke,
    apply_r,
    diagonal_zeta,
    gram_matrix,
    ldlt_pivots,
    matrix_element,
    normal_form,
    omega_trace,
    xi_state,
)
from .traces import (
    TraceParams,
    delta_eigenvalue,
    enumerate_multiplicities,
    generating_series,
    partition_trace,
    series_from_traces,
    super_newton,
    thoma_trace,
    zeta_trace,
    zeta_trace_diagonal,
)

__version__ = "0.1.0"

__all__ = [
    "CrossCheckError",
    "HeckeElement",
    "ModelContext",
    "PowerSeries",
    "QPoly",
    "RootElem",
    "SqrtTable",
    "TensorState",
    "TraceParams",
    "apply_hecke",
    "apply_r",
    "delta_eigenvalue",
    "diagonal_zeta",
    "enumerate_multiplicities",
    "generating_series",
    "gram_matrix",
    "ldlt_pivots",
    "matrix_element",
    "normal_form",
    "omega_trace",
    "partition_trace",
    "series_from_traces",
    "series_mul",
    "super_newton",
    "thoma_trace",
    "xi_state",
    "zeta_interval",
    "zeta_partition",
    "zeta_trace",
    "zeta_trace_diagonal",
]
