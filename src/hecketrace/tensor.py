"""The R-matrix tensor model realizing the traces as matrix elements.

The model truncates the pair space V tensor W to a finite support S of
nonzero integer indices carrying positive weights a_i with sum 1 (alpha
weights on positive indices, beta weights on negative ones).  States live
in (V tensor W)^n for a fixed number of slots n and are sparse sums of
pure tensors eta[I; J], I and J tuples over S, with coefficients in the
square-root ring generated by sqrt(q) and the sqrt(a_i).

The R-matrix acts on two adjacent V-slots (or W-slots, for the right
action) by

    (x, x) with x > 0   ->   q * (x, x)
    (x, x) with x < 0   ->   -1 * (x, x)
    (x, y) with x != y  ->   -sqrt(q) * (y, x),  plus
    (x, y) with x < y   ->   (q - 1) * (x, y),

which satisfies both the quadratic Hecke relation R^2 = (q-1) R + q and
the braid relation, so sigma_j -> R at slots (j, j+1) extends to the whole
Hecke algebra along reduced words.  R is written down once per model, as
b R in the |S|^2 table ModelContext.r_matrix (see below), which the
integer walks read and apply_r reads back as R = (b R) / b;
r_matrix_laws checks the two relations on the integer walk that every
evaluation route uses.  The distinguished state Xi (the n-fold product of
the weighted diagonal vector xi) turns matrix elements into trace values:
<X Xi, Xi> is the trace of X at the parameters behind the weights.

Besides the direct action the module implements two structured evaluation
paths used for cross-checking:

  * every operator in the algebra generated by V-permutations and
    V-diagonal operators has a normal form sum_sigma T(sigma) D(Phi_sigma),
    which normal_form returns as graded tables {sigma: {I: phi}} with
    Phi_sigma(I) = sqrt(q)^(l(sigma) mod 2) phi, built by one walk of b R
    along each reduced word; its Xi-matrix element is a
    weighted sum of the table entries whose permutation fixes their index
    tuple (omega_trace);

  * for the descending cycle elements only the diagonal part of each R
    survives in the Xi-matrix element, giving a swap-free evaluation
    (diagonal_zeta).  The walk of zeta_(m+1) is the walk of zeta_m and
    one step more, so one walk over the diagonal rows gives every m up to
    a bound, one step per m (_diagonal_values).

<X Xi, Xi> = sum_J a_J <J| X |J> is a weighted trace of X on the V-slots
(see Xi_1 below), and a step at slot a touches only the slots a and a + 1.
So matrix_element walks a reduced word of each w once, in action order,
opens each slot at the first step that touches it and closes it, taking
that slot's weighted sum, after the last: the walked state holds the open
slots only, a few keys per cycle block where the full width has
|S|^slots basis tensors.  R is a symmetric table, so T_u* acts as the
adjoint of T_u for the inner product of the eta-basis.  The Gram matrix
G[u][v] = trace(T_v* T_u) is built from the n! states T_u Xi as
<T_u Xi, T_v Xi>, so it is positive semidefinite by construction.

Every route walks in exact integers.  Write Xi = S Xi_1, where Xi_1 =
sum_J eta[J; J] is the diagonal with every coefficient 1 over the tuples
of nonzero-weight indices and S multiplies eta[I; J] by sqrt(a_J).  The
left action never touches J, and the right action only permutes it, which
leaves prod_k sqrt(a_{J_k}) alone; so S commutes with both actions, and
the weights a_J enter only in the pairing, or where matrix_element closes
a slot.  With q = a/b the walks apply b R, with coefficients a, -b, a - b
and -t for t = b sqrt(q): the routes compute in Z[t], t formal with
t^2 = a b.  The context writes b R once, as
rows (image, k, v) for v t^k.  A walk term is an int times t^k, k in
{0, 1}: a swap flips k, and a swap from k = 1 lands on t^2 = a b.

A walk term is keyed by one int.  The support is sorted, so numbering it
by position keeps the index order.  With B = |S| and code(I) = sum_k
pos(I_k) B^(k-1), a walk over n slots stores the term c t^k on eta[I; J]
as the entry key: c, where key = 2 (code(I) + B^n code(J)) + k.  At slot a
the pair (I_a, I_(a+1)) is the digit (key // u_a) % B^2 for the slot's
unit u_a = 2 B^(a-1), and each image adds d u_a + dk to the key, for the
change d of the pair digit and the change dk of the grade bit.  So one
table of rows (d, dk, v) per pair and grade serves every slot, and the
step applies the slot's unit (_int_walk).  Each model derives the table
from ctx.r_matrix once, on first use (ModelContext.walk, and
ModelContext.diagonal_walk for the diagonal rows), in O(B^2) at any slot
count, and every route of the model reads it there.  A value does not depend on the width it is
taken at: the traces live on the union of the H_n.  So no route walks more
slots than its element touches.  matrix_element and diagonal_zeta open
only the slots a step touches, and normal_form walks the x.rank slots of
its element, so one model per parameter set evaluates every element of
rank up to its slot count.  Index tuples make poor keys: in CPython
hash(-1) == hash(-2), so all tuples of one length over the two beta
indices -1 and -2 share one hash, and a dict lookup among them walks one
long collision chain.
The key is the code of the 2n-tuple I followed by J, so the right action
is the left walk on the J digits: its step at slot a is the left step at
slot n + a of the same key, on the slots n + 1 to 2n.

The power of sqrt(q) is a grade, not a ring element.  The pairing, and the
closed walk of matrix_element, sum the even and the odd power of t into
two ints, and each route divides once, by b^(steps) d^slots for d the
common denominator of the weights.  Trace values are rational, so every
route asserts that the odd sum vanishes and raises CrossCheckError
otherwise.  normal_form keeps the grade in sigma, which it decodes per
entry with one itemgetter per code over the stable-sort ranks, and forms
one Fraction per distinct entry value.  omega_trace reads the odd
permutations, by parity from the cycle count, as the sqrt(q) part that
must vanish; it tests each entry off the identity with one itemgetter
comparison and sums its entries in integers over d^n, for n the length of
their tuples, one Fraction per denominator of the entries.  No route forms
a RootElem.  apply_r, apply_hecke and xi_state keep the RootElem states in
Q[sqrt(q), sqrt(a_i)] as the reference action: verify -v prints Xi, and
the tests hold them as the oracle of the walks.  Only they build the
context's SqrtTable.

ModelContext is an immutable value class on report.Value with the three
fields params, slots and support: two models of equal fields are equal and
hash equal, and the integer model is kept beside them, built by cached
properties on first use and never compared, as is the memo of the closed
walks that matrix_element has taken on the instance.  The weights are not a
field: the model reads them by index from params (ModelContext.numerators).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, product as _cartesian
from math import gcd, lcm, prod
from operator import itemgetter
from random import Random
from typing import Iterable, Iterator, Literal, Mapping, NamedTuple

from .hecke import HeckeElement, mul as hecke_mul
from .permutations import Perm, all_perms, cycles, reduced_word
from .report import CheckResult, Value
from .scalars import CrossCheckError, RootElem, SqrtTable, format_fraction, sparse_sum
from .traces import TraceParams

Side = Literal["left", "right"]

__all__ = [
    "ModelContext",
    "TensorState",
    "xi_state",
    "diag_coeff",
    "apply_r",
    "apply_hecke",
    "matrix_element",
    "normal_form",
    "omega_trace",
    "diagonal_zeta",
    "r_matrix_laws",
    "bimodule_checks",
    "gram_matrix",
    "ldlt_pivots",
]


_SQRT_Q = "sqrt_q"


def _weight_symbol(i: int) -> str:
    return f"sqrt_a{i}"


class ModelContext(Value):
    """Fixed data of one model instance: parameters, slot count and weight
    support, and the integer model built from them on first use.

    Extra indices of weight zero may be present in the support; they carry
    no component of Xi and provide the truncation-exactness check.

    One model serves every element of rank up to its slot count: each
    route walks only the slots its element touches (see the module
    docstring), so a suite that evaluates one parameter set at several
    ranks builds r_matrix and the walk rows once, and a fault put into
    r_matrix reaches every rank.

    Beside the walk rows the instance keeps closed_walks, the integer
    closed walk of each reduced word matrix_element has walked on it.  The
    memo is not a field: it lives and dies with the instance, so a request
    that builds its own model starts with an empty one, and two equal
    models never share it."""

    _fields = ("params", "slots", "support")

    def __init__(self, params: TraceParams, slots: int, support: tuple[int, ...]):
        self.__dict__.update(params=params, slots=slots, support=support)

    @classmethod
    def create(
        cls,
        params: TraceParams,
        slots: int,
        extra_indices: Iterable[int] = (),
    ) -> "ModelContext":
        if slots < 1:
            raise ValueError("need at least one slot")
        if params.gamma != 0:
            raise ValueError("tensor models require gamma = 0")
        _, by_index = params.numerators_by_index
        extra = set(extra_indices).difference(by_index)
        if 0 in extra:
            raise ValueError("index 0 is not allowed")
        return cls(params, slots, tuple(sorted((*by_index, *extra))))

    @property
    def q(self) -> Fraction:
        return self.params.q

    @cached_property
    def numerators(self) -> tuple[int, dict[int, int]]:
        """(d, {i: n_i}): the weight a_i = n_i / d of every index of the
        support, over the common denominator d of the weights, with n_i = 0
        at an extra index."""
        d, by_index = self.params.numerators_by_index
        return d, {i: by_index.get(i, 0) for i in self.support}

    @cached_property
    def r_matrix(self) -> dict:
        """b R for q = a/b over Z[t], t = b sqrt(q), as the table {(x, y):
        [((x', y'), k, v), ...]}: the image (x', y') of the pair gets the int
        v times t^k.  The diagonal part diag_coeff, q, -1 or q - 1, scales to
        a, -b or a - b at t^0, and the swap -sqrt(q) to -1 at t^1.  This is
        the one place the R coefficients are formed."""
        b = self.q.denominator
        table = {}
        for x in self.support:
            for y in self.support:
                rows = table[x, y] = []
                diag = diag_coeff(self.q, x, y)
                if diag != 0:
                    rows.append(((x, y), 0, diag.numerator * b // diag.denominator))
                if x != y:
                    rows.append(((y, x), 1, -1))
        return table

    @cached_property
    def walk(self) -> "_Walk":
        """The integer walk of b R, read from r_matrix on first use; every
        route of the model walks it."""
        return _walk_of(self)

    @cached_property
    def diagonal_walk(self) -> "_Walk":
        """The walk of the diagonal rows of r_matrix only (diagonal_zeta)."""
        return _walk_of(self, diagonal=True)

    @cached_property
    def closed_walks(self) -> dict:
        """{reduced word: (even, odd)}: the closed walk of every word that
        matrix_element has walked on this model, so each T_w is walked once
        per model.  The memo lives as long as the instance; equal models
        do not share it."""
        return {}

    @property
    def t_squared(self) -> int:
        """t^2 = a b for q = a/b."""
        return self.q.numerator * self.q.denominator

    @cached_property
    def unit_diagonal(self) -> tuple[dict, dict, int]:
        """Xi_1 as a flat state, the numerators n_J = prod_k n_{J_k} of the
        weights a_i = n_i / d keyed by code(J), and d^slots."""
        size = len(self.support)
        d, numerators = self.numerators
        live = [(p, numerators[i]) for p, i in enumerate(self.support) if numerators[i]]
        nums = {0: 1}
        for k in range(self.slots):
            unit = size**k
            nums = {code + p * unit: n * m for code, n in nums.items() for p, m in live}
        return _diagonal_keys(size**self.slots, nums), nums, d**self.slots

    @cached_property
    def table(self) -> SqrtTable:
        """The square-root symbols of the reference action: sqrt(q) and the
        root of each nonzero weight."""
        bindings = {_SQRT_Q: self.q}
        for i in self.support:
            if self.weight(i) != 0:
                bindings[_weight_symbol(i)] = self.weight(i)
        return SqrtTable(bindings)

    def sqrt_q(self) -> RootElem:
        return self.table.sqrt(_SQRT_Q)

    def sqrt_weight(self, i: int) -> RootElem:
        if self.weight(i) == 0:
            return self.table.zero()
        return self.table.sqrt(_weight_symbol(i))

    def weight(self, i: int) -> Fraction:
        """a_i, 0 off the support and at an extra index."""
        d, numerators = self.numerators
        return Fraction(numerators.get(i, 0), d)


class TensorState:
    """Sparse vector over pure tensors eta[I; J] with RootElem
    coefficients; zero coefficients are never stored."""

    __slots__ = ("table", "terms")

    def __init__(
        self,
        table: SqrtTable,
        terms: Mapping[tuple[tuple[int, ...], tuple[int, ...]], RootElem] = (),
    ):
        self.table = table
        self.terms = sparse_sum(terms)

    def __add__(self, other: "TensorState") -> "TensorState":
        return TensorState(self.table, chain(self.terms.items(), other.terms.items()))

    def scale(self, c) -> "TensorState":
        return TensorState(self.table, {k: v * c for k, v in self.terms.items()})

    def inner(self, other: "TensorState") -> RootElem:
        """Inner product in the orthonormal eta-basis (coefficients are
        real, so no conjugation is involved)."""
        small, big = sorted((self.terms, other.terms), key=len)
        products = ((v * big[k]).comps.items() for k, v in small.items() if k in big)
        return RootElem(self.table, chain.from_iterable(products))

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorState) and self.terms == other.terms

    def dump_lines(self) -> list[str]:
        out = []
        for (ti, tj) in sorted(self.terms):
            coeff = self.terms[(ti, tj)]
            out.append(
                "I=[{}] J=[{}] coeff={}".format(
                    ",".join(map(str, ti)), ",".join(map(str, tj)), coeff
                )
            )
        return out

    def __repr__(self):
        return f"TensorState<{len(self.terms)} terms>"


def xi_state(ctx: ModelContext) -> TensorState:
    """The distinguished unit vector: sum over I in S^n of
    prod_k sqrt(a_{i_k}) times eta[I; I].  <Xi, Xi> = 1 exactly.

    The coefficients are extended one slot at a time from the |S| roots,
    so each is one product more than the coefficient of its prefix."""
    roots = [(i, ctx.sqrt_weight(i)) for i in ctx.support if ctx.weight(i) != 0]
    coeffs = {(): ctx.table.one()}
    for _ in range(ctx.slots):
        coeffs = {tup + (i,): c * root for tup, c in coeffs.items() for i, root in roots}
    return TensorState(ctx.table, {(tup, tup): c for tup, c in coeffs.items()})


def diag_coeff(q: Fraction, x: int, y: int) -> Fraction:
    """Diagonal part of the R-matrix on the index pair (x, y)."""
    if x == y:
        return q if x > 0 else Fraction(-1)
    return q - 1 if x < y else Fraction(0)


def _reference_r(ctx: ModelContext) -> dict:
    """R = (b R) / b read back from the rows of ctx.r_matrix, as the table
    {(x, y): [((x', y'), coeff), ...]} of the reference action: t^k / b is
    1 / b or sqrt(q), so a row v t^0 gives the Fraction v / b and a row
    v t^1 the RootElem v sqrt(q)."""
    b, sqrt_q = ctx.q.denominator, ctx.sqrt_q()
    return {
        pair: [(image, sqrt_q * v if k else Fraction(v, b)) for image, k, v in rows]
        for pair, rows in ctx.r_matrix.items()
    }


def apply_r(ctx: ModelContext, slot: int, side: Side, state: TensorState) -> TensorState:
    """Apply the R-matrix at (slot, slot+1) on the V-indices (side left)
    or the W-indices (side right)."""
    n = ctx.slots
    if not 1 <= slot <= n - 1:
        raise ValueError(f"slot {slot} out of range for {n} slots")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    r = _reference_r(ctx)
    j = slot - 1

    def images():
        for (ti, tj), c in state.terms.items():
            tup = ti if side == "left" else tj
            for (nx, ny), coeff in r[tup[j], tup[j + 1]]:
                new = tup[:j] + (nx, ny) + tup[j + 2 :]
                yield ((new, tj) if side == "left" else (ti, new)), c * coeff

    return TensorState(ctx.table, images())


def _check_rank(ctx: ModelContext, x: HeckeElement):
    if x.rank > ctx.slots:
        raise ValueError(
            f"element of rank {x.rank} needs at least {x.rank} slots, have {ctx.slots}"
        )


def apply_hecke(
    ctx: ModelContext, x: HeckeElement, side: Side, state: TensorState
) -> TensorState:
    """Apply a Hecke element through the R-matrix representation, with q
    evaluated at the context's rational value.  Each T_w acts along a
    reduced word of w."""
    _check_rank(ctx, x)

    def terms():
        for w, poly in x.terms.items():
            c = poly(ctx.q)
            if c == 0:
                continue
            acc = state
            for a in reversed(reduced_word(w)):
                acc = apply_r(ctx, a, side, acc)
            if c == 1:
                yield from acc.terms.items()
            else:
                yield from ((k, v * c) for k, v in acc.terms.items())

    return TensorState(ctx.table, terms())


# ---------------------------------------------------------------------------
# integer walks from the unweighted diagonal Xi_1 (see the module docstring):
# <X Xi, Y Xi> = sum_(I, J) a_J c_X(I, J) c_Y(I, J) for the coefficients c of
# X Xi_1 and Y Xi_1.  A walk state is a flat dict {key: coefficient} for the
# term coefficient * t^k on eta[I; J], key = 2 (code(I) + span code(J)) + k.


class _Walk(NamedTuple):
    """The integer walk of b R on one model, derived from ctx.r_matrix.

    ab is t^2, size = |S|, and span = |S|^slots is the radix of code(J).
    One row table serves every slot: rows[k][p] lists the images of the
    pair code p = pos(x) + size pos(y) from grade k as (d, dk, v), with d
    the change of the pair code and dk the change of the grade bit.  A
    step at slot a reads the pair (I_a, I_(a+1)) of a key as the code
    (key // unit) % size^2 for the slot's unit = 2 |S|^(a - 1), and an
    image adds d unit + dk to the key, which moves the pair and, on a
    swap, flips the grade bit; a swap from k = 1 carries t^2."""

    ab: int
    size: int
    span: int
    rows: tuple[list, list]


def _walk_of(ctx: ModelContext, diagonal: bool = False) -> _Walk:
    """The walk of b R read from ctx.r_matrix, with diagonal only the rows
    whose image is the pair itself: the builder behind ModelContext.walk and
    ModelContext.diagonal_walk.  The rows are in digit units, so they do
    not depend on the slot or the slot count: a model builds 2 |S|^2 lists
    whatever its width."""
    support, ab = ctx.support, ctx.t_squared
    size = len(support)
    pos = {x: i for i, x in enumerate(support)}
    from_even, from_odd = [], []
    for p in range(size * size):
        x, y = support[p % size], support[p // size]
        rows = ctx.r_matrix[x, y]
        if diagonal:
            rows = [row for row in rows if row[0] == (x, y)]
        shifted = [(pos[x2] + size * pos[y2] - p, k, v) for (x2, y2), k, v in rows]
        from_even.append(shifted)
        from_odd.append([(d, -k, v * ab if k else v) for d, k, v in shifted])
    return _Walk(ab, size, size**ctx.slots, (from_even, from_odd))


def _diagonal_keys(span: int, codes: Iterable[int]) -> dict:
    """The state sum eta[I; I] over the given codes of I, coefficients 1."""
    return {2 * (span + 1) * code: 1 for code in codes}


def _int_walk(walk: _Walk, slots: Iterable[int], state: dict) -> dict:
    """Apply b R at each slot in turn, the first slot first, to a flat
    state.  The keys whose terms cancel stay, with coefficient 0: a closed
    walk steps one slot at a time and _close_slot drops them, and the
    full-basis walks drop them once, after the last step (_nonzero_walk)."""
    rows, pairs = walk.rows, walk.size**2
    for a in slots:
        unit = 2 * walk.size ** (a - 1)
        out: dict = {}
        get = out.get
        for key, c in state.items():
            for d, k, v in rows[key & 1][key // unit % pairs]:
                key2 = key + d * unit + k
                out[key2] = get(key2, 0) + c * v
        state = out
    return state


def _nonzero_walk(walk: _Walk, slots: Iterable[int], state: dict) -> dict:
    """_int_walk without the keys whose terms cancel."""
    return {key: c for key, c in _int_walk(walk, slots, state).items() if c}


def _pairing(walk: _Walk, left: dict, right: dict, nums: dict) -> tuple[int, int]:
    """sum_(I, J) n_J c_L(I, J) c_R(I, J) for two flat states, as the two
    ints (even, odd) of even + odd t: each key of left meets key (same
    grade) and key ^ 1 (the other grade) in right.  The caller divides by
    b^(walk steps) d^slots."""
    ab, radix = walk.ab, 2 * walk.span
    get = right.get
    even = odd = 0
    for key, c in left.items():
        same, other = get(key), get(key ^ 1)
        if same or other:
            c *= nums[key // radix]
            if same:
                even += c * same * ab if key & 1 else c * same
            if other:
                odd += c * other
    return even, odd


def _rational(ctx: ModelContext, even, odd, scale: int, route: str) -> Fraction:
    """The value (even + odd t) / scale of a route, t = b sqrt(q), which
    must be rational: a nonzero odd part raises CrossCheckError."""
    value = Fraction(even, scale)
    if odd:
        root = format_fraction(Fraction(odd * ctx.q.denominator, scale))
        raise CrossCheckError(
            f"{route} has non-cancelling square-root components: {format_fraction(value)}"
            f" + {root}*{_SQRT_Q} (params {ctx.params.to_record()}, {ctx.slots} slots)"
        )
    return value


def _integer_terms(ctx: ModelContext, x: HeckeElement) -> tuple[list, int]:
    """The terms c T_w of x with c != 0 over one denominator, for q = a/b:
    the list of (reduced word of w, f) and denom with c / b^l(w) = f / denom.
    A walk of b R along the word, times f / denom, is the walk of c T_w.

    Each coefficient P = sum_i c_i q^i is evaluated in integers: over the
    lcm L of the denominators of its c_i, b^deg L P(q) = sum_i L c_i a^i
    b^(deg - i) by Horner in a and b, so c / b^l(w) is that int over
    L b^(deg + l(w)), brought to lowest terms; denom is the lcm of these
    denominators."""
    a, b = ctx.q.numerator, ctx.q.denominator
    terms = []
    for w, poly in x.terms.items():
        scale = lcm(*(c.denominator for c in poly.coeffs))
        num, b_pow = 0, 1
        for c in reversed(poly.coeffs):
            num = num * a + c.numerator * (scale // c.denominator) * b_pow
            b_pow *= b
        if num:
            word = reduced_word(w)
            den = scale * b_pow // b * b ** len(word)  # L b^(deg + l(w))
            g = gcd(num, den)
            terms.append((word, num // g, den // g))
    denom = lcm(*(den for _, _, den in terms))
    return [(word, num * (denom // den)) for word, num, den in terms], denom


def r_matrix_laws(ctx: ModelContext) -> tuple[bool, bool]:
    """Whether R satisfies R_1 R_1 = (q-1) R_1 + q and R_1 R_2 R_1 =
    R_2 R_1 R_2, as (quadratic, braid).  The laws are checked on the
    integer walk that every route applies, scaled by b for q = a/b:
    (b R_1)^2 = (a - b) b R_1 + a b, and the braid law for b R.

    The test state is sum_I eta[I; I] over every I in S^slots, indices of
    weight zero included.  On the W-slots, which R does not act on, each
    basis tensor is tagged with its own index tuple, so the columns cannot
    mix: equal states mean equal operators.  The right action is this walk
    on the J digits, the slots n + 1 to 2n of the same key; exchanging I and
    J maps the test state to itself and carries one walk to the other, so
    the right action satisfies the laws exactly when the left one does.
    Needs at least 3 slots."""
    if ctx.slots < 3:
        raise ValueError(f"the R-matrix laws need at least 3 slots, have {ctx.slots}")
    walk = ctx.walk
    a, b, ab = ctx.q.numerator, ctx.q.denominator, walk.ab
    basis = _diagonal_keys(walk.span, range(walk.span))

    def r(slots: list[int], state: dict) -> dict:
        return _nonzero_walk(walk, slots, state)

    once = r([1], basis)
    combination = chain(
        ((key, (a - b) * c) for key, c in once.items()),
        ((key, ab * c) for key, c in basis.items()),
    )
    quadratic = r([1], once) == sparse_sum(combination)
    braid = r([2, 1], once) == r([2, 1, 2], basis)
    return quadratic, braid


def _slot_weights(ctx: ModelContext) -> tuple[list[int], list[int]]:
    """The weight numerators n_i by position in the support, and the
    positions of nonzero weight, on which a closed walk opens its slots."""
    _, numerators = ctx.numerators
    weight = [numerators[i] for i in ctx.support]
    return weight, [p for p, n in enumerate(weight) if n]


def _open_slot(walk: _Walk, s: int, live: list[int], state: dict) -> dict:
    """Open slot s of a closed walk: each key branches into I_s = J_s = p,
    coefficient 1, for every position p in live."""
    shift = 2 * (walk.span + 1) * walk.size ** (s - 1)  # one in each of I_s and J_s
    return {key + p * shift: c for key, c in state.items() for p in live}


def _close_slot(walk: _Walk, s: int, weight: list[int], state: dict) -> dict:
    """Close slot s of a closed walk: keep the keys with I_s = J_s, times
    n_(I_s), with both digits reset to 0."""
    size, span = walk.size, walk.span
    unit = 2 * size ** (s - 1)
    shift = unit * (span + 1)
    out: dict = {}
    get = out.get
    for key, c in state.items():
        p = key // unit % size
        if p == key // (unit * span) % size:
            key -= p * shift
            out[key] = get(key, 0) + c * weight[p]
    return {key: c for key, c in out.items() if c}


def _closed_walk(ctx: ModelContext, walk: _Walk, steps: list[int]) -> tuple[int, int]:
    """sum_J n_J <J| b R_(a_k) .. b R_(a_1) |J> over the tuples J of
    nonzero-weight indices, for the slots a_1, .., a_k of steps in action
    order, as the two ints (even, odd) of even + odd t.  The caller divides
    by b^k d^slots.

    This is a weighted trace, so each slot's sum is taken as soon as no
    later step touches the slot.  The walk starts from {0: 1}, every slot
    closed with digit 0 in I and in J.  Before the first step at a slot
    the walk opens it (_open_slot) and after the last step at a slot it
    closes it (_close_slot).  A slot that no step touches gives the factor
    sum_i n_i.  The walk ends on the keys 0 and 1, the even and the odd
    part."""
    weight, live = _slot_weights(ctx)
    first, last = {}, {}
    for i, a in enumerate(steps):
        for s in (a, a + 1):
            first.setdefault(s, i)
            last[s] = i
    state = {0: 1}
    for i, a in enumerate(steps):
        for s in (a, a + 1):
            if first[s] == i:
                state = _open_slot(walk, s, live, state)
        state = _int_walk(walk, (a,), state)
        for s in (a, a + 1):
            if last[s] == i:
                state = _close_slot(walk, s, weight, state)
    free = sum(weight) ** (ctx.slots - len(first))
    return state.get(0, 0) * free, state.get(1, 0) * free


def matrix_element(ctx: ModelContext, x: HeckeElement) -> Fraction:
    """<X Xi, Xi> for the left action; this is the trace value of X.

    With Xi = S Xi_1, <T_w Xi, Xi> = sum_J a_J <J| T_w |J> over the tuples
    J of nonzero-weight indices, a weighted trace of T_w on the V-slots.
    Each term c T_w walks b R along a reduced word of w in action order,
    the last letter first, in exact integers, and takes each slot's sum as
    soon as no later step touches it (_closed_walk): a slot is opened
    before its first step and closed after its last, so the walked state
    holds only the slots in between.  Nothing assumes that the value is
    multiplicative over cycle blocks; the closed slots make it so.  The
    model keeps the two ints of every word walked (ModelContext.closed_walks),
    so a T_w met again on it, in this element or a later one, is not walked
    again.  The terms are summed as two ints over one denominator, and the sum is
    divided once and checked to be rational, which is asserted, not
    assumed."""
    _check_rank(ctx, x)
    walk, walked = ctx.walk, ctx.closed_walks
    terms, denom = _integer_terms(ctx, x)
    even = odd = 0
    for word, f in terms:
        key = tuple(word)
        if key not in walked:
            walked[key] = _closed_walk(ctx, walk, word[::-1])
        e, o = walked[key]
        even, odd = even + f * e, odd + f * o
    d, _ = ctx.numerators
    # the route label is read only on failure, and repr(x) is not cheap
    route = f"matrix element of {x!r}" if odd else "matrix element"
    return _rational(ctx, even, odd, denom * d**ctx.slots, route)


# ---------------------------------------------------------------------------
# normal form: sums of permutation times V-diagonal operators


def normal_form(
    ctx: ModelContext, x: HeckeElement
) -> dict[Perm, dict[tuple[int, ...], Fraction]]:
    """Normal form sum_sigma T(sigma) D(Phi_sigma) of a lifted Hecke
    element, as the graded tables {sigma: {I: phi}} with Phi_sigma(I) =
    sqrt(q)^(l(sigma) mod 2) phi: T(sigma) permutes the V-slots and D(Phi)
    multiplies eta[I; J] by Phi(I).  No table holds a zero entry and no
    table is empty.

    Each term c T_w starts as c times the identity, the entries (id, I) for
    every I in S^n, and is multiplied on the right by R at a_1, .., a_k
    along a reduced word of w.  At each step every entry (sigma, I) goes
    through the r_matrix images of its pair (I_a, I_{a+1}): an image equal
    to the pair keeps sigma, and the -sqrt(q) image moves the entry to
    (sigma s_a, s_a I), since D(Phi) T(s_a) = T(s_a) D(Phi o s_a) and R is
    symmetric.

    That is the integer walk of b R, for q = a/b, along a_1, .., a_k from
    the basis tensors eta[I; I]: the tag J = I of each walked term names
    the entry it started from.  R swaps only unequal indices, so equal
    indices never cross, and sigma is the one permutation that carries the
    tag to the walked tuple keeping equal indices in their order: with
    start(I) the stable sorting order of I as a permutation, sigma =
    start(tag) start(I)^-1, that is sigma[k] = start(tag)[rank(I)[k]] for
    rank(I)[k] the place of position k in the stable sort.  The walk runs
    over the x.rank slots of the element, not the model's slot count, so
    its tags are the |S|^rank codes and the tables are keyed by
    x.rank-tuples.  The sort tables hold one entry per code, so no entry
    sorts a tuple: each code has an itemgetter over its ranks, which reads
    sigma off start(tag) in one call.  The tables depend only on the
    support and the rank, and each is built once per process:
    _stable_sorts keeps every rank of a support size, and _code_tuples the
    tuples of each support and rank.  A swap flips the power k of t and moves
    sigma by one transposition, so every walked term sits at the grade
    k = l(sigma) mod 2, the sum of the parities of start(tag) and
    start(I); this is asserted, and a term off its grade raises
    CrossCheckError.  The entry
    (sigma, I) determines its tag, so the terms of x are summed on the walked
    keys themselves; sigma and I are decoded only for the final nonzero
    entries, c and the division by b^k are applied once per final entry,
    and one Fraction is formed per distinct final value: the m = 8 cycle
    on three weights has 26,973 entries and 15 values.

    >>> ctx = ModelContext.create(TraceParams(q=Fraction(2), alpha=(Fraction(1, 2),) * 2), 2)
    >>> op = normal_form(ctx, HeckeElement.generator(1, 2))
    >>> for sigma, table in sorted(op.items()):
    ...     print(sigma, {tup: str(phi) for tup, phi in sorted(table.items())})
    (1, 2) {(1, 1): '2', (1, 2): '1', (2, 2): '2'}
    (2, 1) {(1, 2): '-1', (2, 1): '-1'}
    >>> print(omega_trace(ctx, op))
    5/4
    """
    _check_rank(ctx, x)
    walk = ctx.walk
    span = walk.size**x.rank  # the radix of code(J) on x.rank slots
    tuples = _code_tuples(ctx.support, x.rank)
    starts, parity, decode = _stable_sorts(walk.size, x.rank)
    tagged = _diagonal_keys(span, range(span))
    terms, denom = _integer_terms(ctx, x)
    raw: dict = {}  # every walked key, also where the terms cancel
    get = raw.get
    for word, f in terms:
        for key, v in _nonzero_walk(walk, word, tagged).items():
            raw[key] = get(key, 0) + v * f
    scales = (1, ctx.q.denominator)  # b^k
    values: dict[int, Fraction] = {}  # one Fraction per distinct entry value
    out: dict[Perm, dict[tuple[int, ...], Fraction]] = {}
    for key, v in raw.items():
        code_tag, code = divmod(key >> 1, span)
        grade = parity[code_tag] ^ parity[code]
        if key & 1 != grade:
            sigma = decode[code](starts[code_tag])
            raise CrossCheckError(
                f"normal form entry {sigma} at {tuples[code]} from {tuples[code_tag]} has "
                f"t^{key & 1}, off its grade {grade} (params {ctx.params.to_record()}, "
                f"{ctx.slots} slots)"
            )
        if v:
            sigma = decode[code](starts[code_tag])
            table = out.get(sigma)
            if table is None:
                table = out[sigma] = {}
            v *= scales[grade]
            phi = values.get(v)
            if phi is None:
                phi = values[v] = Fraction(v, denom)
            table[tuples[code]] = phi
    return out


# The tables of normal_form depend only on the support and the slot count,
# never on q, the weights or r_matrix, so no fault put into a model can hide
# in them.  Each is kept for the process: a size has |S| + 1 model supports
# (-b, .., -1, 1, .., a), and a rank at most cli.MAX_TENSOR_SIZE codes in the CLI.
@cache
def _code_tuples(support: tuple[int, ...], slots: int) -> tuple[tuple[int, ...], ...]:
    """The index tuple of every code, tuples[code(I)] = I: the product
    varies its last entry fastest."""
    return tuple(tup[::-1] for tup in _cartesian(support, repeat=slots))


_sort_tables: dict[int, list[tuple]] = {}  # size -> (starts, parity, decode) by rank


def _stable_sorts(size: int, slots: int) -> tuple[tuple, tuple, tuple]:
    """The stable sort of every index tuple over `size` indices, by code:
    (starts, parity, decode) with starts[c] = start(I) = (p_1 + 1, ..,
    p_n + 1) for I[p_1] <= .. <= I[p_n], equal indices in their order,
    parity[c] = l(start(I)) mod 2, and decode[c](start(tag)) = sigma,
    sigma[k] = start(tag)[rank(I)[k]] for rank(I)[k] the place of position
    k in that sort, for I the tuple of code c: one itemgetter per code, so
    an entry decodes in one C-level call.  At one slot it is the
    whole-tuple slice, since itemgetter with one index returns a bare item.

    A call extends the ranks kept for the size (_sort_tables) one slot at a
    time, in code order: rank n after rank n - 1 costs one slot, a rank
    built before nothing.  Appending position k + 1 with support place p to
    a tuple of k entries puts it at place le[p] of the sort, behind the
    k - le[p] larger entries it adds as inversions, for le[c][r] the count
    of entries of place <= r in the tuple of code c; the top rank keeps le
    at one slot fewer, for the next step.  rank(I) inverts start(I)."""
    tables = _sort_tables.get(size)
    if tables is None:  # ranks 0 and 1, whose tuples are their own sort
        whole = itemgetter(slice(None))
        tables = _sort_tables[size] = [(((),), (0,), (whole,))]
        tables.append((((1,),) * size, (0,) * size, (whole,) * size, [(0,) * size]))
    starts, parity, decode, le = tables[-1]
    for k in range(len(tables) - 1, slots):
        tables[k] = starts, parity, decode  # only the top rank keeps le
        le = [g[:p] + tuple(v + 1 for v in g[p:]) for p in range(size) for g in le]
        starts = tuple(
            [s[: g[p]] + (k + 1,) + s[g[p] :] for p in range(size) for s, g in zip(starts, le)]
        )
        parity = tuple([x ^ ((k - g[p]) & 1) for p in range(size) for x, g in zip(parity, le)])
        places = range(k + 1)
        decode = tuple([itemgetter(*sorted(places, key=s.__getitem__)) for s in starts])
        tables.append((starts, parity, decode, le))
    return tables[slots][:3]


def _parity(sigma: Perm) -> int:
    """l(sigma) mod 2, as n minus the number of cycles of sigma: O(n)."""
    return (len(sigma) - len(cycles(sigma))) & 1


def omega_trace(
    ctx: ModelContext, op: Mapping[Perm, Mapping[tuple[int, ...], Fraction]]
) -> Fraction:
    """Xi-matrix element of a graded normal form {sigma: {I: phi}}, as
    normal_form returns it, summed combinatorially over the entries (sigma,
    I) whose permutation fixes their tuple, that is I constant on the
    cycles of sigma: each such entry contributes prod_k a_{I_k} times
    Phi_sigma(I) = sqrt(q)^(l(sigma) mod 2) phi, and no other entry
    contributes.  The even permutations give the value; the odd ones give
    its sqrt(q) part, which must vanish.

    On the output of normal_form only the identity table contributes: R
    swaps only unequal indices, so no entry with sigma != id fixes its
    tuple.  Every entry given is still read, so a normal form from elsewhere
    is summed in full.  The index tuples may have any length n, which
    need not be the model's slot count: each entry is weighted over its own
    tuple.

    A table off the identity keeps the entries I with sigma(I) = I, where
    sigma(I)_k = I_(sigma(k)), each tested by one C-level itemgetter call
    that compares whole tuples, so the tuples of a table must have the
    length of its permutation, as they do in normal_form's output.  The grade
    of a table is l(sigma) mod 2, read as n minus the number of cycles of
    sigma in O(n).  The sums run in integers: a_i = n_i / d, and
    phi.numerator n_I for n_I = prod_k n_(I_k) is summed per grade and per
    phi.denominator, over d^n; one Fraction is formed per distinct
    denominator."""
    d, numerators = ctx.numerators
    weight = defaultdict(int, numerators).__getitem__  # 0 off the support
    sums: tuple[dict, dict] = ({}, {})  # per grade: {(n, phi.denominator): sum}
    for sigma, table in op.items():
        images = [s - 1 for s in sigma]
        fixed = table.items()
        if images != list(range(len(images))):
            fixes = itemgetter(*images)  # two points at least: returns a tuple
            fixed = [(tup, phi) for tup, phi in fixed if fixes(tup) == tup]
        acc = sums[_parity(sigma)]
        for tup, phi in fixed:
            n = prod(map(weight, tup))
            if n:
                key = len(tup), phi.denominator
                acc[key] = acc.get(key, 0) + phi.numerator * n
    parts = [
        sum((Fraction(n, den * d**slots) for (slots, den), n in acc.items()), Fraction(0))
        for acc in sums
    ]
    # sqrt(q) = t / b
    return _rational(ctx, parts[0], parts[1] / ctx.q.denominator, 1, "omega trace")


def _diagonal_numerators(ctx: ModelContext, m_max: int) -> Iterator[tuple[int, int, int]]:
    """(even, odd, scale) of the diagonal route for m = 1, .., m_max, the
    value (even + odd t) / scale with scale = b^(m - 1) d^slots, from one
    closed walk of the diagonal rows at the slots 1, 2, .. in turn.

    The closed walk of zeta_m steps at 1, .., m - 1 and closes each slot
    after its step, so the walks of zeta_m and zeta_(m+1) agree up to the
    step at m - 1.  This walk goes on from there: with slot m open, a copy
    closed at slot m gives zeta_m, and the walk opens slot m + 1, steps at
    m and closes m.  Diagonal rows keep I = J, so between steps the state
    holds the one open slot, at most 2 |S| keys, and every m costs one
    step.  Each value is yielded before the next step is taken."""
    if not 1 <= m_max <= ctx.slots:
        raise ValueError(f"need 1 <= m <= {ctx.slots}, got {m_max}")
    walk = ctx.diagonal_walk
    weight, live = _slot_weights(ctx)
    total = sum(weight)
    d, _ = ctx.numerators
    scale = d**ctx.slots
    state = _open_slot(walk, 1, live, {0: 1})
    for m in range(1, m_max + 1):
        if m > 1:
            state = _int_walk(walk, (m - 1,), _open_slot(walk, m, live, state))
            state = _close_slot(walk, m - 1, weight, state)
            scale *= ctx.q.denominator
        closed = _close_slot(walk, m, weight, state)
        free = total ** (ctx.slots - m)  # the slots past m, untouched
        yield closed.get(0, 0) * free, closed.get(1, 0) * free, scale


def _diagonal_values(ctx: ModelContext, m_max: int) -> Iterator[Fraction]:
    """diagonal_zeta(ctx, m) for m = 1, .., m_max from one walk, each value
    formed and checked rational when it is asked for, so a caller that
    interleaves other routes meets their failures at an m in order."""
    for m, (even, odd, scale) in enumerate(_diagonal_numerators(ctx, m_max), start=1):
        yield _rational(ctx, even, odd, scale, f"diagonal route for m={m}")


def diagonal_zeta(ctx: ModelContext, m: int) -> Fraction:
    """Xi-matrix element of the descending cycle element zeta_m computed
    with the diagonal parts of the R-matrices only (the swap parts cannot
    contribute to this particular matrix element).

    The walk applies the diagonal part of b R, for q = a/b, at the slots
    1, .., m - 1 in exact integers: its coefficients are a, -b and a - b.
    It is the closed walk of matrix_element on the diagonal rows, so each
    slot is weighted by n_(I_s) and closed after its step, and one division
    by b^(m - 1) d^slots returns to true units.  It is the one walk that
    gives every m up to a bound (_diagonal_numerators, which the tensor
    suite reads through _diagonal_values), run to m; only the value at m
    is formed and checked rational."""
    *_, (even, odd, scale) = _diagonal_numerators(ctx, m)
    return _rational(ctx, even, odd, scale, f"diagonal route for m={m}")


# ---------------------------------------------------------------------------
# bimodule and positivity checks


def _random_basis_element(rng: Random, rank: int) -> HeckeElement:
    perm = tuple(rng.sample(range(1, rank + 1), rank))
    return HeckeElement.basis(perm)


def bimodule_checks(
    ctx: ModelContext,
    rng: Random,
    n_trace_pairs: int = 20,
    n_transpose: int = 10,
    n_quadruples: int = 5,
) -> list[CheckResult]:
    """Exact identities tying the two commuting actions together:

    (i)   <A B Xi, Xi> = <B A Xi, Xi> for left-acting basis pairs;
    (ii)  X acting on the right equals its transpose acting on the left,
          as an identity of states applied to Xi;
    (iii) <A^l B^r Xi, C^l D^r Xi> = trace(C* A B^t (D*)^t).

    Both actions are integer walks of b R from the unweighted diagonal
    Xi_1, the right one at the slots n + 1 to 2n of the J digits, and S
    commutes with both (Xi = S Xi_1, see the module docstring).
    So (i) and (iii) pair the walked states with the weights a_J, and (ii)
    compares the walked states themselves, which is exact because S is
    invertible on the tuples of nonzero-weight indices.  The two sides of
    (i) take walks of equal length, so they are compared as the ints of
    their pairings.  The right side of (iii) is a Hecke product evaluated
    by matrix_element.
    """
    n = ctx.slots
    walk = ctx.walk
    xi1, nums, d_slots = ctx.unit_diagonal
    where = f"(params {ctx.params.to_record()}, {n} slots)"

    def act(*steps: tuple[HeckeElement, Side]) -> tuple[dict, int]:
        # the basis elements T_w of steps applied to Xi_1 in turn, each along
        # a reduced word of w read from its end, and the walk steps taken
        state, taken = xi1, 0
        for x, side in steps:
            (w,) = x.terms
            word = reduced_word(w)
            shift = 0 if side == "left" else n  # the J digits are slots n + 1 .. 2n
            state = _nonzero_walk(walk, [a + shift for a in reversed(word)], state)
            taken += len(word)
        return state, taken

    def inner(left: tuple[dict, int], right: tuple[dict, int]) -> tuple[int, int, int]:
        # the pairing as (even, odd, scale), the value (even + odd t) / scale
        scale = ctx.q.denominator ** (left[1] + right[1]) * d_slots
        return (*_pairing(walk, left[0], right[0], nums), scale)

    results = []
    unit = act()

    ok = True
    witness = ""
    for _ in range(n_trace_pairs):
        a = _random_basis_element(rng, n)
        b = _random_basis_element(rng, n)
        lhs = inner(act((b, "left"), (a, "left")), unit)
        rhs = inner(act((a, "left"), (b, "left")), unit)
        _rational(ctx, *lhs, "trace-property matrix element")
        if lhs != rhs:
            ok, witness = False, f"A={a!r} B={b!r} {where}"
            break
    results.append(CheckResult("bimodule.trace_property", ok, witness))

    ok = True
    witness = ""
    for _ in range(n_transpose):
        x = _random_basis_element(rng, n)
        # equal states after walks of equal length: w and w^-1 have one length
        if act((x, "right")) != act((x.transpose(), "left")):
            ok, witness = False, f"X={x!r} {where}"
            break
    results.append(CheckResult("bimodule.right_equals_transposed_left", ok, witness))

    ok = True
    witness = ""
    for _ in range(n_quadruples):
        a, b, c, d = (_random_basis_element(rng, n) for _ in range(4))
        left_state = act((a, "left"), (b, "right"))
        right_state = act((c, "left"), (d, "right"))
        lhs = _rational(ctx, *inner(left_state, right_state), "bimodule Gram element")
        prod = hecke_mul(
            hecke_mul(c.star(), a),
            hecke_mul(b.transpose(), d.star().transpose()),
        )
        rhs = matrix_element(ctx, prod)
        if lhs != rhs:
            ok, witness = False, f"A={a!r} B={b!r} C={c!r} D={d!r} {where}"
            break
    results.append(CheckResult("bimodule.gram_identity", ok, witness))
    return results


def gram_matrix(params: TraceParams, rank: int) -> list[list[Fraction]]:
    """The Gram matrix G[u][v] = trace(T_v* T_u) over the full T-basis of
    H_rank, as the inner products <T_u Xi, T_v Xi> of the rank! states.

    Each state is walked once from the unweighted diagonal Xi_1 (Xi =
    S Xi_1) by b R in exact integers, and each entry is the pairing
    weighted by a_J, divided by b^(l(u) + l(v)) d^rank.  The pairing is
    symmetric, so the entries below the diagonal are copied from above;
    the first entry of the matrix that fails the rationality check lies on
    or above the diagonal."""
    ctx = ModelContext.create(params, rank)
    walk = ctx.walk
    xi1, nums, d_slots = ctx.unit_diagonal
    words = [reduced_word(u) for u in all_perms(rank)]
    states = [_nonzero_walk(walk, reversed(word), xi1) for word in words]
    b = ctx.q.denominator
    gram = [[Fraction(0)] * len(words) for _ in words]
    for i, state in enumerate(states):
        for j in range(i, len(words)):
            even, odd = _pairing(walk, state, states[j], nums)
            scale = b ** (len(words[i]) + len(words[j])) * d_slots
            gram[i][j] = gram[j][i] = _rational(ctx, even, odd, scale, f"Gram entry ({i}, {j})")
    return gram


def ldlt_pivots(matrix: list[list[Fraction | int]]) -> tuple[list[Fraction], bool]:
    """Exact LDL^T pivots of a symmetric rational matrix, and whether the
    matrix is positive semidefinite.

    A zero pivot is admissible only when its entire trailing row vanishes
    (as it must for a semidefinite matrix); a negative pivot, or a zero
    pivot with a nonzero trailing entry, witnesses indefiniteness and
    stops the sweep.

    The sweep runs in integers: the matrix times the lcm s of its
    denominators goes through fraction-free (Bareiss) elimination, where
    after the nonzero pivots so far each trailing entry is the Schur
    complement entry times prev, the last nonzero Bareiss pivot (1 before
    the first).  So pivot k is a[k][k] / (prev s), and a skipped zero
    pivot leaves prev as it is.  A matrix that is not square or not
    symmetric raises ValueError.  Fraction and int entries are read as
    (numerator, denominator) in lowest terms, so the symmetry test
    compares those pairs, once per pair i < j; a matrix with any other
    entry that Fraction() takes (a float, a Decimal, a string) is read as
    its Fractions first."""
    try:
        s = lcm(*(x.denominator for row in matrix for x in row))
    except AttributeError:
        matrix = [[Fraction(x) for x in row] for row in matrix]
        s = lcm(*(x.denominator for row in matrix for x in row))
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    for i in range(n):
        row = matrix[i]
        for j in range(i + 1, n):
            x, y = row[j], matrix[j][i]
            if x.numerator != y.numerator or x.denominator != y.denominator:
                raise ValueError("matrix is not symmetric")
    a = [[x.numerator * (s // x.denominator) for x in row] for row in matrix]
    pivots: list[Fraction] = []
    prev = 1
    for k in range(n):
        d = a[k][k]
        pivots.append(Fraction(d, prev * s))
        if d == 0:
            if any(a[k][j] != 0 for j in range(k + 1, n)):
                return pivots, False
            continue
        if d < 0:
            return pivots, False
        row_k = a[k]
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (d * row[j] - f * row_k[j]) // prev
        prev = d
    return pivots, True
