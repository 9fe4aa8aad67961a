"""The W != 0 builders against a Leibniz-tree derivative oracle.

Every basic function and reduced invariant of the W != 0 branches is built
from exact derivatives of canonical forms.  The oracle below differentiates
expression trees by the Leibniz rule instead and never combines the result
over a common denominator; the same formulas built with it must take the
same values at admissible sample points.
"""
import math
from fractions import Fraction
from itertools import islice

import pytest

from ode3geom import contact, jet, point
from ode3geom.expr import (DEFAULT_CONFIG, DomainError, SingularPointError,
                           add, eval_tree_dual, fun, mul, num, parse,
                           partial, pow_, sample_points, var)
from ode3geom.jet import Ode3, klmw
from ode3geom.transform import pullback_ode, random_point_transforms

_ZERO, _ONE = num(0), num(1)


def _leibniz(e, v):
    """d/dv of the tree e, unexpanded; canonical leaves go through the
    exact derivative, and zero terms are dropped as they arise."""
    k = e.kind
    if k is None:
        return partial(e, v)
    if k == "num":
        return _ZERO
    if k == "var":
        return _ONE if e.data == v else _ZERO
    if k == "add":
        parts = [t for t in (_leibniz(t, v) for t in e.args)
                 if t is not _ZERO]
        return add(*parts) if parts else _ZERO
    if k == "mul":
        terms = []
        for i, f in enumerate(e.args):
            df = _leibniz(f, v)
            if df is not _ZERO:
                terms.append(mul(df, *e.args[:i], *e.args[i + 1:]))
        return add(*terms) if terms else _ZERO
    if k == "pow":
        db = _leibniz(e.args[0], v)
        if db is _ZERO:
            return _ZERO
        return mul(num(e.data), pow_(e.args[0], e.data - 1), db)
    u = e.args[0]
    du = _leibniz(u, v)
    if du is _ZERO or e.data == "sgn":
        return _ZERO
    if e.data == "exp":
        return mul(e, du)
    if e.data == "log":
        return mul(du, pow_(u, Fraction(-1)))
    if e.data == "atan":
        return mul(du, pow_(add(_ONE, mul(u, u)), Fraction(-1)))
    return mul(fun("sgn", u), du)         # abs


def _leibniz_pd(e, *vs):
    for v in vs:
        e = _leibniz(e, v)
    return e


def _leibniz_d(e, F):
    """The total derivative D as a Leibniz tree."""
    return (_leibniz(e, "x") + var("p") * _leibniz(e, "y")
            + var("q") * _leibniz(e, "p") + F * _leibniz(e, "q"))


def _builders(ode):
    """name -> expression of every W != 0 formula under test."""
    out = {"a": contact.bas_a(ode), "e": contact.bas_e(ode),
           "h": contact.bas_h(ode), "k": contact.bas_k(ode),
           "point b": point.point_bas_b(ode),
           "point e": point.point_bas_e(ode),
           "point h": point.point_bas_h(ode),
           "point k": point.point_bas_k(ode)}
    om = contact.omega_section(ode)
    out.update((f"omega {v}", c) for v, c in zip("xypq", om.components()))
    W = klmw(ode).W
    if not partial(W, "q").rf.is_zero_poly():      # I1p..I4p need W_q != 0
        out.update(point.point_reduced_w_nonzero(ode))
    return out


def _oracle_builders(monkeypatch, F):
    """_builders of a fresh equation, with every derivative, Z and its D
    taken by the oracle."""
    for mod in (contact, point):
        monkeypatch.setattr(mod, "pd", _leibniz_pd)
        monkeypatch.setattr(mod, "total_derivative",
                            lambda e, ode: _leibniz_d(e, ode.F))
    monkeypatch.setattr(jet.KLMW, "Z", property(
        lambda self: _leibniz_d(self.W, self.F) / self.W
        - _leibniz(self.F, "q")))
    try:
        return _builders(Ode3(F))
    finally:
        monkeypatch.undo()


def _value(e, env):
    """e at env, with the rule of values_on_samples: a value that cancels
    to below 1e-9 of its term mass is ill-conditioned, not a value."""
    val, _dv, mass, _dm = eval_tree_dual(e, (), env, {}, 1e-12)
    if val != 0.0 and abs(val) < 1e-9 * mass:
        raise SingularPointError("ill-conditioned evaluation point")
    return val


def _values_agree(got, want, n=4):
    """got and want agree to 1e-9 relative at the first n seeded points
    where both take a well-conditioned value."""
    seen = 0
    for env in islice(sample_points(DEFAULT_CONFIG), DEFAULT_CONFIG.attempts):
        try:
            a, b = _value(got, env), _value(want, env)
        except (SingularPointError, DomainError, OverflowError):
            continue
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9), (env, a, b)
        seen += 1
        if seen == n:
            return
    pytest.fail(f"only {seen} admissible sample points")


def _right_hand_side(text):
    """F of the text, or of a criterion-7 pullback of exp(q) for "#i"."""
    if text.startswith("#"):
        t = random_point_transforms(20260808, 2)[int(text[1:])]
        return pullback_ode(Ode3.from_text("exp(q)"), t).F
    return parse(text)


@pytest.mark.parametrize("text", [
    "exp(q)", "q^(7/4)", "-2*5*p + y", "(q^2+1)^(3/2)*exp(atan(q)/2)",
    "#0", "#1"], ids=["exp(q)", "q^(7/4)", "linear", "row V",
                      "exp(q) pullback 0", "exp(q) pullback 1"])
def test_builders_equal_the_leibniz_oracle(monkeypatch, text):
    F = _right_hand_side(text)
    want = _oracle_builders(monkeypatch, F)
    got = _builders(Ode3(F))
    assert got.keys() == want.keys()
    for name in got:
        _values_agree(got[name], want[name])


def test_one_z():
    ode = Ode3.from_text("exp(q)")
    assert contact._z_data(ode)[0] is klmw(ode).Z
