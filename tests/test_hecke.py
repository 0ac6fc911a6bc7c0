"""T-basis arithmetic in H_n(q)."""

from fractions import Fraction
from functools import reduce
from random import Random

import pytest

from hecketrace.hecke import (
    HeckeElement,
    gen_mul_left,
    left_multiples,
    mul,
    zeta_interval,
    zeta_partition,
)
from hecketrace import fqconv, hecke, permutations, suites
from hecketrace.permutations import adjacent_transposition, all_perms, compose
from hecketrace.scalars import QPoly

Q = QPoly.var()
ONE = QPoly.const(1)


def s(m, n):
    return adjacent_transposition(m, n)


def random_element(rng: Random, rank: int, terms: int = 3) -> HeckeElement:
    out = HeckeElement.zero(rank)
    for _ in range(terms):
        w = tuple(rng.sample(range(1, rank + 1), rank))
        c = QPoly([rng.randrange(-3, 4) for _ in range(rng.randrange(1, 3))])
        out = out + HeckeElement(rank, {w: c})
    return out


# ---------------------------------------------------------------------------
# generator multiplication


def test_quadratic_relation_on_generator():
    t1 = HeckeElement.generator(1, 2)
    got = gen_mul_left(1, t1)
    want = t1.scale(Q - ONE) + HeckeElement.unit(2).scale(Q)
    assert got == want


def test_generator_times_unit():
    assert gen_mul_left(1, HeckeElement.unit(2)) == HeckeElement.generator(1, 2)


def test_braid_relation_via_generators():
    e = HeckeElement.unit(3)
    lhs = gen_mul_left(1, gen_mul_left(2, gen_mul_left(1, e)))
    rhs = gen_mul_left(2, gen_mul_left(1, gen_mul_left(2, e)))
    assert lhs == rhs
    # the common value is the single basis element of the longest word
    assert lhs == HeckeElement.basis((3, 2, 1))


# ---------------------------------------------------------------------------
# full product


def test_unit_is_neutral():
    rng = Random(3)
    for _ in range(10):
        x = random_element(rng, 3)
        assert mul(HeckeElement.unit(3), x) == x
        assert mul(x, HeckeElement.unit(3)) == x


def test_product_with_descent():
    # (T_{s1} T_{s2}) T_{s2} = (q-1) T_{s1 s2} + q T_{s1}
    s1s2 = compose(s(1, 3), s(2, 3))
    got = mul(HeckeElement.basis(s1s2), HeckeElement.generator(2, 3))
    want = HeckeElement(
        3,
        {
            s1s2: Q - ONE,
            s(1, 3): Q,
        },
    )
    assert got == want


def test_associativity_samples():
    rng = Random(5)
    for _ in range(10):
        x, y, z = (random_element(rng, 3, 2) for _ in range(3))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_multiplication_word_independent():
    # two distinct reduced words of the longest element of S_3
    w0 = (3, 2, 1)
    via_121 = mul(
        mul(HeckeElement.generator(1, 3), HeckeElement.generator(2, 3)),
        HeckeElement.generator(1, 3),
    )
    via_212 = mul(
        mul(HeckeElement.generator(2, 3), HeckeElement.generator(1, 3)),
        HeckeElement.generator(2, 3),
    )
    assert via_121 == via_212 == HeckeElement.basis(w0)
    rng = Random(9)
    for _ in range(5):
        y = random_element(rng, 3)
        assert mul(via_121, y) == mul(via_212, y)


def test_rank_promotion_commutes_with_mul():
    rng = Random(13)
    for _ in range(10):
        x = random_element(rng, 3)
        y = random_element(rng, 3)
        assert mul(x, y).promote(5) == mul(x.promote(5), y.promote(5))


def test_basis_closure():
    rng = Random(17)
    for n in (3, 4):
        x = HeckeElement.unit(n)
        for _ in range(6):
            x = gen_mul_left(rng.randrange(1, n), x)
        assert all(len(w) == n for w in x.terms)


def test_basis_closure_check_rejects_a_key_that_is_no_permutation(monkeypatch):
    # a product whose one key has length n but repeats a letter: within n!
    # keys of length n, yet outside the T-basis
    def faulty(m, x):
        out = HeckeElement.unit(x.rank)
        out.terms = {(1,) * x.rank: QPoly.const(1)}
        return out

    assert all(r.passed for r in suites.hecke_suite())
    monkeypatch.setattr(suites, "gen_mul_left", faulty)
    closure = {r.name: r.passed for r in suites.hecke_suite() if ".basis_closure." in r.name}
    assert closure == {f"hecke.basis_closure.n{n}": False for n in range(2, 6)}


# ---------------------------------------------------------------------------
# one fault per presentation law, in the T-basis and in the cell algebra


def _generator(coeffs, one):
    """m when coeffs, {w: coefficient}, is the one term one * T_{s_m}, else
    None."""
    if len(coeffs) == 1:
        ((w, c),) = coeffs.items()
        if c == one and permutations.length(w) == 1:
            return next(i for i, v in enumerate(w, start=1) if v != i)
    return None


def _break_quadratic(product, generator):
    # sigma_m sigma_m comes out doubled
    def faulty(x, y):
        out = product(x, y)
        m = generator(x)
        return out.scale(2) if m is not None and generator(y) == m else out

    return faulty


def _break_braid(product, generator):
    # a product times a generator is taken in the other order: only the
    # braid law multiplies a product of generators
    def faulty(x, y):
        if generator(x) is None and generator(y) is not None:
            return product(y, x)
        return product(x, y)

    return faulty


def _break_distant_commute(product, generator):
    # sigma_m sigma_l with l >= m + 2 comes out doubled, sigma_l sigma_m not
    def faulty(x, y):
        out = product(x, y)
        m, l = generator(x), generator(y)
        return out.scale(2) if m is not None and l is not None and l >= m + 2 else out

    return faulty


# law -> (fault, the ranks at which the law has a pair of generators)
LAW_FAULTS = {
    "quadratic": (_break_quadratic, (2, 3, 4, 5)),
    "braid": (_break_braid, (3, 4, 5)),
    "distant_commute": (_break_distant_commute, (4, 5)),
}


@pytest.mark.parametrize("law", LAW_FAULTS)
def test_a_fault_in_one_law_fails_that_law_of_the_hecke_suite_only(monkeypatch, law):
    fault, ranks = LAW_FAULTS[law]
    monkeypatch.setattr(suites, "mul", fault(mul, lambda x: _generator(x.terms, ONE)))
    failing = {r.name for r in suites.hecke_suite() if not r.passed}
    assert failing == {f"hecke.{law}.n{n}" for n in ranks}


@pytest.mark.parametrize("law", LAW_FAULTS)
def test_a_fault_in_one_law_fails_that_law_of_the_convolution_suite_only(monkeypatch, law):
    fault, ranks = LAW_FAULTS[law]
    check = "quadratic_at_q=p" if law == "quadratic" else law
    cases = ((2, 2), (3, 2), (4, 2))
    convolve = fqconv.convolve
    monkeypatch.setattr(fqconv, "convolve", fault(convolve, lambda f: _generator(f.values, 1)))
    failing = {r.name for r in suites.convolution_suite(cases) if not r.passed}
    assert failing == {f"convolution.gl({n},{p}).{check}" for n, p in cases if n in ranks}


# ---------------------------------------------------------------------------
# the step kernel against the step-by-step products it replaced


def oracle_gen_mul_left(m, x):
    """sigma_m x with every coefficient a QPoly and every step a whole
    HeckeElement, validated and summed: the product before the kernel."""
    def images():
        for w, c in x.terms.items():
            sw = list(w)
            i, j = w.index(m), w.index(m + 1)
            sw[i], sw[j] = sw[j], sw[i]
            if i < j:
                yield tuple(sw), c
            else:
                yield w, (Q - ONE) * c
                yield tuple(sw), Q * c

    return HeckeElement(x.rank, images())


def oracle_mul(x, y):
    x, y = hecke.promote_pair(x, y)

    def products():
        for w, c in x.terms.items():
            acc = y
            for a in reversed(permutations.reduced_word(w)):
                acc = oracle_gen_mul_left(a, acc)
            for v, d in acc.terms.items():
                yield v, c * d

    return HeckeElement(x.rank, products())


def rational_element(rng: Random, rank: int) -> HeckeElement:
    """Up to 4 terms with int and Fraction coefficients of degree up to 2."""
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        w = tuple(rng.sample(range(1, rank + 1), rank))
        terms[w] = QPoly(
            [Fraction(rng.randrange(-3, 4), rng.choice((1, 1, 2, 3))) for _ in range(rng.randrange(1, 4))]
        )
    return HeckeElement(rank, terms)


def assert_same_terms(got, want):
    assert got.rank == want.rank
    assert got.terms == want.terms
    assert all(c and c.coeffs[-1] != 0 for c in got.terms.values()), got.terms


def test_kernel_products_equal_the_step_by_step_products():
    rng = Random(41)
    for rank in range(2, 6):
        for _ in range(12):
            x, y = rational_element(rng, rank), rational_element(rng, rank)
            assert_same_terms(mul(x, y), oracle_mul(x, y))
            m = rng.randrange(1, rank)
            assert_same_terms(gen_mul_left(m, y), oracle_gen_mul_left(m, y))


def test_kernel_products_promote_unequal_ranks():
    rng = Random(43)
    for low, high in ((2, 3), (2, 5), (3, 4), (4, 5)):
        x, y = rational_element(rng, low), rational_element(rng, high)
        assert_same_terms(mul(x, y), oracle_mul(x, y))
        assert_same_terms(mul(y, x), oracle_mul(y, x))


def test_kernel_products_store_no_cancelled_term():
    # (T_s - q)(T_s + 1) = 0, so every term of the product cancels, and a
    # Fraction factor that sums to an int coefficient keeps no zero either
    rng = Random(47)
    for rank in range(2, 6):
        for m in range(1, rank):
            t = HeckeElement.generator(m, rank)
            unit = HeckeElement.unit(rank)
            left = t + unit.scale(-Q)
            right = mul(t + unit, rational_element(rng, rank))
            assert mul(left, right).terms == {} == oracle_mul(left, right).terms
            half = t.scale(Fraction(1, 2))
            twice = mul(half, t) + mul(half, t)
            assert_same_terms(twice, oracle_mul(t, t))


def test_kernel_steps_drop_a_term_that_cancels_inside_a_word():
    # sigma_m (T_v + (1 - q) T_{s_m v}) for s_m v < v has no term at v: the
    # (q - 1) T_v of the quadratic relation meets (1 - q) T_v.  The cancelled
    # term must not ride along the rest of the word of the left factor
    for rank in (3, 4):
        for v in all_perms(rank):
            for m in range(1, rank):
                i, j = v.index(m), v.index(m + 1)
                if i < j:
                    continue
                sv = list(v)
                sv[i], sv[j] = sv[j], sv[i]
                y = HeckeElement(rank, {v: ONE, tuple(sv): ONE - Q})
                assert v not in gen_mul_left(m, y).terms
                for w in all_perms(rank):
                    x = HeckeElement.basis(w)
                    assert_same_terms(mul(x, y), oracle_mul(x, y))


def test_left_multiples_equal_mul():
    rng = Random(53)
    for rank in range(1, 5):
        ys = [HeckeElement.basis(w) for w in all_perms(rank)]
        ys.append(rational_element(rng, rank))
        for y in ys:
            rows = left_multiples(y)
            assert sorted(rows) == all_perms(rank)
            for w, row in rows.items():
                assert_same_terms(row, mul(HeckeElement.basis(w), y))


def test_derived_elements_skip_the_key_test(monkeypatch):
    # outside input is validated once, by HeckeElement(rank, terms); what
    # the module derives from valid elements tests no key again
    x = HeckeElement(3, {(2, 3, 1): Q, (1, 3, 2): Fraction(1, 2)})
    y = HeckeElement.basis((3, 1, 2))

    def refuse(w):
        raise AssertionError("a derived element tested its keys")

    monkeypatch.setattr(hecke, "is_perm", refuse)
    mul(x, y).star().transpose().promote(5)
    gen_mul_left(2, x) + x.scale(Q)
    left_multiples(y)
    zeta_partition((2, 1), 4)
    with pytest.raises(AssertionError, match="tested its keys"):
        HeckeElement(3, {(1, 2, 3): 1})


# ---------------------------------------------------------------------------
# star and transpose


def test_star_fixes_generators():
    t1 = HeckeElement.generator(1, 2)
    assert t1.star() == t1
    assert t1.transpose() == t1


def test_star_reverses_words():
    s1s2 = compose(s(1, 3), s(2, 3))
    s2s1 = compose(s(2, 3), s(1, 3))
    assert HeckeElement.basis(s1s2).star() == HeckeElement.basis(s2s1)


def test_star_is_involutive_antiautomorphism():
    rng = Random(23)
    for _ in range(10):
        x = random_element(rng, 3)
        y = random_element(rng, 3)
        assert x.star().star() == x
        assert mul(x, y).star() == mul(y.star(), x.star())
        assert mul(x, y).transpose() == mul(y.transpose(), x.transpose())


# ---------------------------------------------------------------------------
# zeta elements


def test_zeta_interval_unit():
    assert zeta_interval(1, 1) == HeckeElement.unit(1)


def test_zeta_interval_examples():
    # sigma_2 sigma_1 in rank 3 is the cycle (3,1,2)
    assert zeta_interval(1, 3) == HeckeElement.basis((3, 1, 2))
    # shifted block: sigma_3 sigma_2 in rank 4
    assert zeta_interval(2, 4) == HeckeElement.basis((1, 4, 2, 3))


def test_zeta_interval_is_generator_product():
    # sigma_{hi-1} .. sigma_lo by hecke.mul, the construction that
    # zeta_interval replaces, for every interval within rank 7
    for rank in range(1, 8):
        for lo in range(1, rank + 1):
            for hi in range(lo, rank + 1):
                gens = [HeckeElement.generator(a, rank) for a in range(hi - 1, lo - 1, -1)]
                want = reduce(mul, gens, HeckeElement.unit(rank))
                assert zeta_interval(lo, hi, rank) == want, (lo, hi, rank)


def test_zeta_partition_single_block_matches_interval():
    for m in range(1, 6):
        assert zeta_partition((m,)) == zeta_interval(1, m)


def test_zeta_partition_trivial():
    assert zeta_partition((1, 1, 1)) == HeckeElement.unit(3)


def test_zeta_partition_two_blocks():
    got = zeta_partition((2, 2))
    want = mul(HeckeElement.generator(1, 4), HeckeElement.generator(3, 4))
    assert got == want
    # disjoint blocks commute
    assert want == mul(HeckeElement.generator(3, 4), HeckeElement.generator(1, 4))


def test_zeta_partition_validation():
    with pytest.raises(ValueError):
        zeta_partition((1, 2))
    with pytest.raises(ValueError):
        zeta_partition((2, 0))


@pytest.mark.parametrize("lo, hi", [(0, 0), (-2, -2), (0, 2)])
def test_zeta_interval_needs_lo_at_least_1(lo, hi):
    with pytest.raises(ValueError, match=rf"\[{lo}, {hi}\]"):
        zeta_interval(lo, hi)
    with pytest.raises(ValueError, match=rf"\[{lo}, {hi}\]"):
        zeta_interval(lo, hi, rank=4)


@pytest.mark.parametrize("lo, hi, rank", [(3, 2, 4), (2, 5, 4), (1, 3, 2)])
def test_zeta_interval_needs_lo_at_most_hi_at_most_rank(lo, hi, rank):
    with pytest.raises(ValueError, match=rf"\[{lo}, {hi}\] at rank {rank}"):
        zeta_interval(lo, hi, rank)


def _partitions(n, largest=None):
    """Every partition of n, as a nonincreasing tuple."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def test_zeta_partition_is_the_product_of_its_blocks():
    for n in range(7):
        for parts in _partitions(n):
            for rank in range(max(n, 1), n + 3):
                blocks, lo = [], 1
                for part in parts:
                    blocks.append(zeta_interval(lo, lo + part - 1, rank))
                    lo += part
                want = reduce(mul, blocks, HeckeElement.unit(rank))
                assert zeta_partition(parts, rank) == want, (parts, rank)


def test_zeta_elements_form_no_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cycle element is built as its permutation")

    monkeypatch.setattr(hecke, "mul", refuse)
    monkeypatch.setattr(permutations, "compose", refuse)
    monkeypatch.setattr(hecke, "compose", refuse, raising=False)
    assert zeta_interval(2, 5, 6) == HeckeElement.basis((1, 5, 2, 3, 4, 6))
    assert zeta_partition((3, 2, 1), 7) == HeckeElement.basis((3, 1, 2, 5, 4, 6, 7))


def test_basis_products_have_int_coefficients():
    perms = all_perms(4)
    for u in perms:
        for v in perms:
            for c in mul(HeckeElement.basis(u), HeckeElement.basis(v)).terms.values():
                assert all(type(a) is int for a in c.coeffs), (u, v, c)


# ---------------------------------------------------------------------------
# misc interface


def test_generator_index_validation():
    with pytest.raises(ValueError):
        HeckeElement.generator(2, 2)
    with pytest.raises(ValueError):
        gen_mul_left(3, HeckeElement.unit(3))
