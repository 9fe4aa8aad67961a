"""Property-based checks of RF canonicalisation on drawn polynomials.

_make must be a fixed point of its own output, and a rational constant
times such an output (which skips _make) must equal what _make builds from
the product.  _make hands _cancel no negative exponent, and on such inputs
its one cancellation pass returns term for term what the pairwise
reduction returns; its integer images never reject a divisor.  The value
image that a product or a sum hands _make is its numerator's and changes
nothing that _make returns.
dpoly and drf return term for term what the Fraction-coefficient grouping
and the chained quotient rule return.  A quotient lowered by RF division
equals, in value, the dividend times the divisor's reciprocal.  Needs
hypothesis; skipped without it."""
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ode3geom.expr import (from_rf, is_zero, normalize, num,  # noqa: E402
                           parse, poly, var)
from test_expr import (cancelled_terms, chained_drf,  # noqa: E402
                       derivative_pair, grouped_dpoly, pairwise_cancel)

NAMES = ("x", "y", "p", "q")
# negative and fractional exponents exercise the Laurent clearing and the
# monomial denominators of _make
EXPS = st.sampled_from([0, 0, 1, 2, -1, Fraction(1, 2), Fraction(-1, 2)])
TERM = st.tuples(st.integers(-3, 3).filter(bool),
                 st.fixed_dictionaries({v: EXPS for v in NAMES}))
POLY = st.lists(TERM, min_size=1, max_size=4)
COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=9) \
    .filter(bool)


def _raw_poly(terms) -> dict:
    """The polynomial of (coeff, {name: exponent}) terms, negative
    exponents kept."""
    out: dict = {}
    for c, exps in terms:
        m = poly.mono_from((poly.var_atom(v), poly._exp_norm(Fraction(e)))
                           for v, e in exps.items() if e)
        out = poly.poly_add(out, {m: c})
    return out


def _rf(terms) -> poly.RF:
    """_make's RF of a sum of (coeff, {name: exponent}) terms."""
    return poly._make(Fraction(1), _raw_poly(terms), ())


def _terms(rf):
    return type(rf.c), rf.c, tuple(rf.num.items()), rf.den


@settings(max_examples=150, deadline=None)
@given(POLY, POLY, POLY, POLY, COEFF)
def test_make_is_a_fixed_point_of_its_output(a, b, c, d, k):
    A, B, C, D = map(_rf, (a, b, c, d))
    if B.is_zero_poly() or (B + C).is_zero_poly() or D.is_zero_poly():
        return
    # common factors on both sides: the trial divisions hit and miss
    rfs = [A * B / (B + C), (A * D + C) / (D * (B + C)), A / D - C / B]
    for x in rfs:
        if x.is_zero_poly():
            continue
        assert x._made
        assert _terms(poly._make(x.c, x.num, x.den)) == _terms(x)
        want = _terms(poly._make(k * x.c, x.num, x.den))
        assert _terms(poly.rf_const(k) * x) == want
        assert _terms(x * poly.rf_const(k)) == want


# integer polynomials over the jet variables and one kernel atom, with
# nonnegative int exponents: both integer images apply
INT_TERM = st.tuples(st.integers(-4, 4).filter(bool),
                     st.lists(st.sampled_from([0, 0, 1, 2, 3]),
                              min_size=len(NAMES) + 1,
                              max_size=len(NAMES) + 1))
INT_POLY = st.lists(INT_TERM, min_size=1, max_size=4)


def _int_poly(terms, atoms) -> dict:
    out: dict = {}
    for c, exps in terms:
        m = poly.mono_from((aid, e) for aid, e in zip(atoms, exps) if e)
        out = poly.poly_add(out, {m: c})
    return out


@settings(max_examples=150, deadline=None)
@given(INT_POLY, INT_POLY)
def test_image_never_rejects_a_divisor(q_terms, b_terms):
    atoms = [poly.var_atom(v) for v in NAMES] \
        + [poly.kern_atom("exp", _rf([(1, {"q": 1})]))]
    q, b = _int_poly(q_terms, atoms), _int_poly(b_terms, atoms)
    assume(q and b)
    _c, b = poly.poly_primitive(b)
    a = poly.poly_mul(q, b)
    sb, vb = sum(b.values()), poly._id_image(b)
    assert sb == 0 or sum(a.values()) % sb == 0
    assert vb == 0 or poly._id_image(a) % vb == 0
    assert poly.poly_div_exact(a, b) == q
    if len(b) > 1:
        assert poly._cancel(a, ((poly.poly_key(b), b, 1),)) == (q, ())


def _terms_with(exps, min_size, max_size):
    term = st.tuples(st.integers(-3, 3).filter(bool),
                     st.fixed_dictionaries({v: exps for v in NAMES}))
    return st.lists(term, min_size=min_size, max_size=max_size)


@settings(max_examples=150, deadline=None)
@given(POLY, POLY, POLY, POLY)
def test_cancel_gets_no_negative_exponent(a, b, c, d):
    """_make clears negative exponents before it calls _cancel, so the draws
    of the next test, which have none, are all that _cancel can get."""
    seen = []
    inner = poly._cancel

    def spy(num, den, image=None):
        seen.append((num, *(f for _k, f, _e in den)))
        return inner(num, den, image)
    with mock.patch.object(poly, "_cancel", spy):
        A, B, C, D = map(_rf, (a, b, c, d))
        if not (B.is_zero_poly() or (B + C).is_zero_poly()
                or D.is_zero_poly()):
            _ = A * B / (B + C), (A * D + C) / (D * (B + C)), A / D - C / B
    assert all(e > 0 for polys in seen for p in polys for m in p
               for _aid, e in m)


# fractional exponents and no negative ones, as _make hands _cancel
NONNEG = st.sampled_from([0, 0, 1, 2, Fraction(1, 2)])
FACTOR = st.tuples(_terms_with(NONNEG, 2, 3), st.integers(1, 3),
                   st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(st.lists(FACTOR, min_size=1, max_size=3), _terms_with(NONNEG, 1, 3),
       st.booleans(), st.sampled_from([None, None, 1, 2]),
       st.sampled_from([3, 12, poly._DIV_GUARD]), st.booleans())
def test_cancel_pass_matches_pairwise_reduction(factors, cofactor, shared,
                                                noise, guard, halve):
    """Repeated factors (num holds up to f^3 against f^e), a factor that
    shares a factor with another, fractional exponents, a term that breaks
    divisibility, Fraction coefficients (not screened), and a step guard
    small enough to leave divisions undecided."""
    fs = []
    for terms, e, power in factors:
        _c, f = poly.poly_primitive(_raw_poly(terms) or {poly.MONE: 1})
        fs.append([f, e, power])
    if shared and len(fs) > 1:
        fs[1][0] = poly.poly_mul(fs[0][0], fs[1][0])
    den: dict = {}
    for f, e, _power in fs:
        if len(f) > 1:
            k = poly.poly_key(f)
            den[k] = (k, f, den[k][2] + e if k in den else e)
    num = _raw_poly(cofactor)
    for f, _e, power in fs:
        num = poly.poly_mul(num, poly.poly_pow(f, power))
    if noise is not None:
        num = poly.poly_add(num, _raw_poly([cofactor[0]]) if noise == 1
                            else {poly.MONE: noise})
    if halve:
        num = poly.poly_scale(num, Fraction(1, 2))
    den = tuple(sorted(den.values()))
    assume(den and num and not poly.poly_is_const(num))
    saved = poly._DIV_GUARD
    poly._DIV_GUARD = guard
    try:
        got = cancelled_terms(poly._cancel(num, den))
        want = cancelled_terms(pairwise_cancel(num, den))
    finally:
        poly._DIV_GUARD = saved
    assert got == want


# an RF over some of a few multi-term factors, each of which it may also
# hold in its numerator: two such RFs share factors or not.  A polynomial
# has int exponents, which have a value image, or also fractional or
# negative ones.  A numerator may hold sgn(q - 1), which _make splices
# out of a product that holds it twice
INT_ONLY = st.sampled_from([0, 0, 1, 2])
IMAGE_FACTOR = st.one_of(_terms_with(INT_ONLY, 2, 3),
                         _terms_with(NONNEG, 2, 3))
IMAGE_RF = st.tuples(st.one_of(_terms_with(INT_ONLY, 1, 3),
                               _terms_with(st.sampled_from(
                                   [0, 0, 1, 2, -1, Fraction(1, 2)]), 1, 3)),
                     st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2)),
                              max_size=2),
                     st.lists(st.integers(0, 2), max_size=2), st.booleans(),
                     st.booleans())


def _image_rf(draw, factors) -> poly.RF:
    """The drawn RF, made by _make; with forget, a copy whose image is not
    known."""
    terms, den_picks, num_picks, signed, forget = draw
    num = _raw_poly(terms)
    if signed:
        sgn = poly.kern_atom("sgn", _rf([(1, {"q": 1}), (-1, {})]))
        num = poly.poly_mul(num, {((sgn, 1),): 1})
    for i in num_picks:
        num = poly.poly_mul(num, factors[i % len(factors)])
    den: dict = {}
    for i, e in den_picks:
        f = factors[i % len(factors)]
        k = poly.poly_key(f)
        den[k] = (k, f, den[k][2] + e if k in den else e)
    rf = poly._make(Fraction(1), num, tuple(sorted(den.values())))
    return poly.RF._raw(rf.c, rf.num, rf.den) if forget else rf


@settings(max_examples=150, deadline=None)
@given(st.lists(IMAGE_FACTOR, min_size=1, max_size=3), IMAGE_RF, IMAGE_RF)
def test_products_and_sums_carry_their_numerator_images(factors, a, b):
    """An image handed to _make is the numerator's, changes no result, and
    the RF it makes keeps the image of its own numerator or none."""
    fs = [f for terms in factors
          if len(f := poly.poly_primitive(_raw_poly(terms) or {poly.MONE: 1})
                 [1]) > 1]
    assume(fs)
    A, B = _image_rf(a, fs), _image_rf(b, fs)
    handed = []
    make = poly._make

    def spy(c, num, den, v=0):
        if v:
            handed.append((c, num, den, v))
        return make(c, num, den, v)
    with mock.patch.object(poly, "_make", spy):
        made = [A * B, A + B, A - B]
    for rf in made:
        assert not rf._img or rf._img == poly._id_image(rf.num)
    for c, num, den, v in handed:
        assert v == poly._id_image(num)
        assert _terms(make(c, num, den, v)) == _terms(make(c, num, den))


# jet polynomials with int exponents (dpoly's exponent path) or fractional
# ones, and the atoms a derivative meets: kernels, prime atoms and power
# bases over a jet polynomial
INT_EXPS = st.sampled_from([0, 0, 1, 2])
JET_POLY = _terms_with(INT_EXPS, 1, 3)
FRAC_POLY = _terms_with(st.sampled_from([0, 0, 1, 2, Fraction(1, 2),
                                         Fraction(-1, 2), Fraction(3, 2)]),
                        1, 3)
ATOM = st.sampled_from([*poly.KERNEL_NAMES, ("prime", 2), ("prime", 6),
                        ("prime", Fraction(2, 3)), ("pbase", Fraction(1, 2)),
                        ("pbase", Fraction(-1, 2)), ("pbase", Fraction(4, 3))])


def _atom_rf(kind, arg):
    """An atom over arg, a jet polynomial that is not constant; a power
    base is arg + 1, which mostly has no monomial content."""
    if kind in poly.KERNEL_NAMES:
        return poly.rf_kernel(kind, arg)
    kind, k = kind
    if kind == "prime":
        return poly.rf_pow(poly.rf_const(Fraction(k)), Fraction(1, 3))
    base = arg + poly.RF_ONE
    return poly.rf_pow(base, k) if not base.is_const() else poly.RF_ONE


@st.composite
def derivative_inputs(draw):
    """A sum of up to three terms, each a jet polynomial times up to two
    atoms, over up to two multi-term factors, each repeated up to three
    times."""
    out = poly.RF_ZERO
    for _ in range(draw(st.integers(1, 3))):
        term = _rf(draw(st.one_of(JET_POLY, FRAC_POLY)))
        for kind in draw(st.lists(ATOM, max_size=2)):
            arg = _rf(draw(JET_POLY))
            if not arg.is_const():
                term = term * _atom_rf(kind, arg)
        out = out + term
    for terms, n in draw(st.lists(st.tuples(_terms_with(INT_EXPS, 2, 3),
                                            st.integers(1, 3)), max_size=2)):
        f = _rf(terms)
        if not f.is_const():
            for _ in range(n):
                out = out / f
    return out


def _content_free(rf):
    """Every multi-term denominator factor has no monomial content, so
    dividing by it once more only raises its multiplicity."""
    return all(poly.poly_mono_content(f) == poly.MONE
               for _k, f, _e in rf.den if len(f) > 1)


@settings(max_examples=150, deadline=None)
@given(derivative_inputs(), st.sampled_from(NAMES))
def test_derivatives_match_the_grouped_and_chained_oracles(rf, name):
    v = poly.var_atom(name)
    assert _content_free(rf)
    got, want = derivative_pair(poly.drf, chained_drf, rf, v)
    assert _terms(got) == _terms(want) and _content_free(got)
    got, want = derivative_pair(poly.dpoly, grouped_dpoly, rf.num, v)
    assert _terms(got) == _terms(want)


# sums of rational monomials over a denominator factor, like the random
# rationals of tests/test_forms.py; dividend and divisor share the factor
SHARED = st.sampled_from(["1 + p^2", "x - 2", "y*q + 1", "exp(q) + p"])
QUOTIENT_TERMS = st.lists(
    st.tuples(COEFF, st.fixed_dictionaries({v: st.integers(0, 2)
                                            for v in NAMES})),
    min_size=1, max_size=3)


def _over(terms, factor, k):
    out = num(0)
    for c, exps in terms:
        mono = num(c)
        for v, e in exps.items():
            mono = mono * var(v) ** e
        out = out + mono
    return out / parse(factor) ** k


@settings(max_examples=100, deadline=None)
@given(QUOTIENT_TERMS, QUOTIENT_TERMS, SHARED, st.integers(1, 2),
       st.integers(1, 2), st.one_of(st.none(), SHARED))
def test_quotient_equals_dividend_times_reciprocal(a_terms, b_terms, shared,
                                                   ka, kb, own):
    a = _over(a_terms, shared, ka)
    b = _over(b_terms, shared, kb)
    if own is not None:
        b = b / parse(own)
    assume(not b.rf.is_zero_poly())
    got = normalize(a / b).rf
    want = a.rf * poly.rf_pow(b.rf, -1)
    # the keys may differ: expanded powers are opaque denominator factors
    assert is_zero(from_rf(got - want)).is_zero
