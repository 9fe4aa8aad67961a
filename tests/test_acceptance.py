"""Acceptance suite: one test per criterion, tolerances pinned inline."""
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from ode3geom.chazy import (FIXED_CLASSES, c5_residual, chazy_class,
                            chazy_classify, chazy_invariants, chazy_tau,
                            chazy_transform, syzygy_residuals)
from ode3geom.contact import (classify_contact, contact_branch,
                              linearizable_contact)
from ode3geom.expr import (DEFAULT_CONFIG, JetPoint, eval_at,
                           eval_with_bound, is_zero, normalize, num,
                           partial, var)
from ode3geom.forms import d as ext_d, df
from ode3geom.geometry import (NonWunschmannError, cotton_components,
                               lorentz_check, lorentz_scalar,
                               maxwell_matches_b, weyl_b_functions,
                               weyl_structure)
from ode3geom.jet import Ode3, jet_invariants, pd, total_derivative
from ode3geom.point import (classify_point, point_reduced_w_nonzero,
                            point_trivial_check)
from ode3geom.transform import pullback_ode, random_point_transforms

CRITERIA = {
    1: "contact table reproduction",
    2: "point table reproduction",
    3: "flatness corollaries",
    4: "contact linearization",
    5: "Einstein-Weyl identities",
    6: "Cotton vanishing",
    7: "invariance battery",
    8: "Chazy suite",
    9: "engine properties",
}

CFG = DEFAULT_CONFIG
CFG_VIII = replace(CFG, box={"x": (-1, 1), "y": (0.8, 1.0),
                             "p": (0.5, 0.7), "q": (1.2, 2.0)})
CFG_CHAZY = replace(CFG, box={"x": (-1, 1), "y": (0.5, 1.5),
                              "p": (0.5, 2), "q": (0.5, 2)})

CORPUS_12 = ["0", "-2*5*p + y", "-2*x*p", "q^(7/4)",
             "(q^2+1)^(3/2)*exp(atan(q)/2)", "exp(q)",
             "(2*q*y - p^2)^(3/2)/y^2", "q^(3/2)", "(q^2+1)^(3/2)",
             "3/2*q^2/p", "3*q^2*p/(1+p^2)", "3*q^2/p"]


# ---------------------------------------------------------------- criterion 1

CONTACT_ROWS = [
    ("0", CFG, "I", 10, None),
    ("-2*5*p + y", CFG, "II", 5, ("mu", Fraction(5))),
    ("-2*x*p", CFG, "III", 4, ("mu_of_x", "x")),
    ("q^(7/4)", CFG, "IV", 4, ("mu", Fraction(4))),
    ("(q^2+1)^(3/2)*exp(atan(q)/2)", CFG, "V", 4, ("mu", Fraction(4))),
    ("exp(q)", CFG, "VI", 4, None),
    ("(2*q*y - p^2)^(3/2)/y^2", CFG_VIII, "VIII", 4, ("mu", Fraction(1))),
    ("q^(3/2)", CFG, "XII", 4, None),
    ("(q^2+1)^(3/2)", CFG, "XI", 4, None),
]


@pytest.mark.parametrize("text,cfg,row,dim,param", CONTACT_ROWS,
                         ids=[r[2] for r in CONTACT_ROWS])
def test_criterion_1(text, cfg, row, dim, param):
    res = classify_contact(Ode3.from_text(text), cfg)
    assert res.row == row and res.dimension == dim
    if param is not None:
        key, want = param
        got = res.parameters[key]
        if key == "mu_of_x":
            assert str(normalize(got)) == want
        elif isinstance(want, Fraction):
            assert got == want                    # closed-form equality
        else:
            assert abs(float(got) - float(want)) <= 1e-9


# ---------------------------------------------------------------- criterion 2

POINT_ROWS = [
    ("0", "I.1", None),
    ("3/2*q^2/p", "I.2", None),
    ("3*q^2*p/(1+p^2)", "I.3", None),
    ("q^3", "I.4", None),
    ("q^2", "IV", ("mu", Fraction(2))),
    ("exp(q)", "VI", None),
    ("q^(3/2)", "XII", None),
]


@pytest.mark.parametrize("text,row,param", POINT_ROWS,
                         ids=[r[1] for r in POINT_ROWS])
def test_criterion_2(text, row, param):
    res = classify_point(Ode3.from_text(text))
    assert res.row == row
    if param is not None:
        key, want = param
        assert res.parameters[key] == want


def test_criterion_2_exact_i1p():
    v = point_reduced_w_nonzero(Ode3.from_text("exp(q)"))
    assert str(normalize(v["I1p"])) == "(-3)"
    v = point_reduced_w_nonzero(Ode3.from_text("q^2"))
    assert str(normalize(v["I1p"])) == "(-2)"


# ---------------------------------------------------------------- criterion 3

def test_criterion_3():
    for text in ("3*q^2/p", "0"):
        ode = Ode3.from_text(text)
        assert contact_branch(ode).branch == "trivial-flat"
        assert point_trivial_check(ode) is True
    assert point_trivial_check(Ode3.from_text("3/2*q^2/p")) is False


# ---------------------------------------------------------------- criterion 4

def test_criterion_4():
    out = linearizable_contact(Ode3.from_text("-2*x*p"))
    assert out.status == "mu_of_x"
    assert is_zero(out.mu - var("x")).is_zero
    for v in ("y", "p", "q"):
        assert is_zero(partial(out.mu, v)).is_zero


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_b4_scalar_identity():
    for text in CORPUS_12:
        ode = Ode3.from_text(text)
        b4 = weyl_b_functions(ode)[3]
        assert is_zero(6 * b4 - lorentz_scalar(ode)).is_zero


def test_criterion_5_maxwell():
    for text in ("0", "3*q^2/p", "3/2*q^2/p", "3*q^2*p/(1+p^2)"):
        assert maxwell_matches_b(Ode3.from_text(text))


def test_criterion_5_flat_weyl_potential():
    wd = weyl_structure(Ode3.from_text("3*q^2/p"))
    comps = [normalize(c) for c in wd.phi.components()]
    assert str(comps[2]) == "2*p^(-1)"
    assert all(c.rf.is_zero_poly() for i, c in enumerate(comps) if i != 2)
    assert all(is_zero(c).is_zero for c in ext_d(wd.phi).c)


def test_criterion_5_ricci_values():
    wd = weyl_structure(Ode3.from_text("3/2*q^2/p"))
    assert str(normalize(wd.R)) == "(-3/2)*p^(-2)"
    lr = lorentz_check(Ode3.from_text("3*q^2*p/(1+p^2)"))
    assert lr.ok and lr.sign == +1


# ---------------------------------------------------------------- criterion 6

def test_criterion_6():
    for text in ("0", "3*q^2/p", "3/2*q^2/p", "3*q^2*p/(1+p^2)", "q^3"):
        assert contact_branch(Ode3.from_text(text)).branch == "trivial-flat"
        dps = cotton_components(Ode3.from_text(text))
        assert all(tf.is_zero_on() for tf in dps)
    # non-flat witness: the gate is closed for a Wunschmann-nonzero member
    with pytest.raises(NonWunschmannError):
        cotton_components(Ode3.from_text("exp(q)"))
    # and the W=0, F_qqqq != 0 members have nonzero Cotton outright
    dps = cotton_components(Ode3.from_text("q^(3/2)"))
    assert any(any(is_zero(c).is_nonzero for c in tf.c) for tf in dps)


# ---------------------------------------------------------------- criterion 7

BATTERY_ROWS = [
    ("0", "I.1", {}),
    ("3/2*q^2/p", "I.2", {}),
    ("-2*5*p + y", "II.1", {"mu": Fraction(5)}),
    ("exp(q)", "VI", {}),
]


def _eps1(ode):
    W = jet_invariants(ode).W
    Wq = pd(W, "q")
    e = normalize(2 * Wq * Wq - 3 * W * pd(W, "q", "q"))
    v = is_zero(e)
    if v.is_zero:
        return 0
    from ode3geom.expr import sign_on_domain
    return sign_on_domain(e)


def test_criterion_7():
    start = time.time()
    transforms = random_point_transforms(20260808, 8)
    for text, row, params in BATTERY_ROWS:
        base = Ode3.from_text(text)
        base_res = classify_point(base)
        assert base_res.row == row and base_res.parameters == params
        w_status = jet_invariants(base).w_verdict.status
        eps = _eps1(base) if w_status == "nonzero" else None
        for t in transforms:
            pb = pullback_ode(base, t)
            res = classify_point(pb)
            assert res.row == row, (text, str(t.chi), str(t.phi), res.row)
            assert res.parameters == params
            assert jet_invariants(pb).w_verdict.status == w_status
            if eps is not None:
                assert _eps1(pb) == eps
    assert time.time() - start <= 60.0


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_syzygies():
    classes = [chazy_class(cid) for cid in FIXED_CLASSES] \
        + [chazy_class("XI", sigma=5)]
    for cls in classes:
        ode = cls.canonical_ode()
        tau = chazy_tau(ode)
        assert tau.rf.is_const()
        assert tau.rf.const_value() == cls.tau      # exact rationals
        inv = chazy_invariants(ode)
        for e in (*inv.conditions.values(), c5_residual(cls, inv)):
            assert is_zero(e, config=CFG_CHAZY).is_zero, cls.id
        res = syzygy_residuals(cls, inv)
        for name, e in res.items():
            assert is_zero(e, config=CFG_CHAZY).is_zero, (cls.id, name)
    assert chazy_class("II").tau == Fraction(5, 12)
    assert chazy_class("IV").tau == Fraction(1, 12)


def test_criterion_8_round_trip():
    from ode3geom.transform import PointTransform
    ode = chazy_class("II").canonical_ode()
    pb = pullback_ode(ode, PointTransform.from_text("2*x", "y"), CFG_CHAZY)
    rep = chazy_classify(pb, CFG_CHAZY)
    assert rep.matched is not None and rep.matched.id == "II"
    maps = chazy_transform(pb, JetPoint(0, 1, 0, 0), c1=1.0, c2=0.0,
                           matched=rep.matched, config=CFG_CHAZY)
    rng = random.Random(3)
    samples = [(rng.uniform(-0.4, 0.4), rng.uniform(0.6, 1.4))
               for _ in range(20)]
    x0, y0 = samples[0]
    alpha = y0 / maps.ybar(x0, y0)
    beta = maps.xbar(x0) - 2 * x0 / alpha
    for x, y in samples:
        assert abs(maps.xbar(x) - (2 * x / alpha + beta)) <= 1e-7
        assert abs(maps.ybar(x, y) - y / alpha) <= 1e-7


# ---------------------------------------------------------------- criterion 9

def _random_expr(rng, depth=2):
    from ode3geom.expr import atan, exp
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.6:
            return var(rng.choice(["x", "y", "p", "q"]))
        return num(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    op = rng.random()
    if op < 0.35:
        return _random_expr(rng, depth - 1) + _random_expr(rng, depth - 1)
    if op < 0.7:
        return _random_expr(rng, depth - 1) * _random_expr(rng, depth - 1)
    if op < 0.85:
        return _random_expr(rng, depth - 1) ** rng.choice([2, 3, -1])
    fn = exp if rng.random() < 0.5 else atan
    return fn(_random_expr(rng, depth - 1))


def test_criterion_9():
    rng = random.Random(424242)
    ode = Ode3.from_text("q^2 + y*p")
    counts = {"mixed": 0, "ddzero": 0, "leibniz": 0, "edge": 0}
    total_target = 10000
    # mixed partials commute
    while counts["mixed"] < 3000:
        e = _random_expr(rng)
        v1, v2 = rng.sample(["x", "y", "p", "q"], 2)
        try:
            diff = partial(partial(e, v1), v2) - partial(partial(e, v2), v1)
        except ZeroDivisionError:
            continue
        assert diff.rf.is_zero_poly() or not is_zero(diff).is_nonzero
        counts["mixed"] += 1
    # d(df) = 0
    while counts["ddzero"] < 2000:
        e = _random_expr(rng)
        try:
            dd = ext_d(df(e))
        except ZeroDivisionError:
            continue
        assert all(c.rf.is_zero_poly() or not is_zero(c).is_nonzero
                   for c in dd.c)
        counts["ddzero"] += 1
    # Leibniz for the total derivative
    while counts["leibniz"] < 2000:
        f = _random_expr(rng)
        g = _random_expr(rng)
        try:
            diff = total_derivative(f * g, ode) \
                - f * total_derivative(g, ode) - g * total_derivative(f, ode)
        except ZeroDivisionError:
            continue
        assert diff.rf.is_zero_poly() or not is_zero(diff).is_nonzero
        counts["leibniz"] += 1
    # normalize/eval consistency at 1e-12 relative
    while counts["edge"] < total_target - 7000:
        e = _random_expr(rng)
        pt = JetPoint(rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(0.5, 2), rng.uniform(0.5, 2))
        try:
            a = eval_at(e, pt, margin=1e-9)
            _v, bound = eval_with_bound(e, pt, margin=1e-9)
            if bound > 1e-13 * (1.0 + abs(a)):
                continue          # point is not float-admissible at 1e-12
            b = eval_at(normalize(e), pt, margin=1e-9)
        except (ArithmeticError, OverflowError, ZeroDivisionError):
            continue
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))
        counts["edge"] += 1
    assert sum(counts.values()) == total_target
