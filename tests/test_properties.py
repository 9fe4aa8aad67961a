"""Property-based checks of RF canonicalisation on drawn polynomials.

_make must be a fixed point of its own output, and a rational constant
times such an output (which skips _make) must equal what _make builds from
the product.  The integer-image test of exact division never rejects a
divisor.  Needs hypothesis; skipped without it."""
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ode3geom.expr import poly  # noqa: E402

NAMES = ("x", "y", "p", "q")
# negative and fractional exponents exercise the Laurent clearing and the
# monomial denominators of _make
EXPS = st.sampled_from([0, 0, 1, 2, -1, Fraction(1, 2), Fraction(-1, 2)])
TERM = st.tuples(st.integers(-3, 3).filter(bool),
                 st.fixed_dictionaries({v: EXPS for v in NAMES}))
POLY = st.lists(TERM, min_size=1, max_size=4)
COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=9) \
    .filter(bool)


def _rf(terms) -> poly.RF:
    """_make's RF of a sum of (coeff, {name: exponent}) terms."""
    out: dict = {}
    for c, exps in terms:
        m = poly.mono_from((poly.var_atom(v), poly._exp_norm(Fraction(e)))
                           for v, e in exps.items() if e)
        out = poly.poly_add(out, {m: c})
    return poly._make(Fraction(1), out, ())


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
# nonnegative int exponents: both integer points of _image_rejects apply
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
    assert not poly._image_rejects(a, b)
    assert poly.poly_div_exact(a, b) == q
