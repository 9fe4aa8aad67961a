"""Reduced Chazy recognition and the transformation quadrature."""
import argparse
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ode3geom import chazy, cli
from ode3geom.chazy import (ChazyTransformError, FIXED_CLASSES,
                            NotReducibleError, admissible_sigma, c5_residual,
                            chazy_PQ, chazy_class, chazy_classify,
                            chazy_coframe, chazy_frame, chazy_invariants,
                            chazy_preconditions, chazy_tau, chazy_transform,
                            syzygy_residuals)
from ode3geom.expr import (DEFAULT_CONFIG, JetPoint, eval_at, is_zero,
                           normalize, parse, num, sample_points)
from ode3geom.jet import Ode3, klmw
from ode3geom.transform import PointTransform, pullback_ode, \
    random_fp_transforms

CFG = replace(DEFAULT_CONFIG,
              box={"x": (-1, 1), "y": (0.5, 1.5), "p": (0.5, 2),
                   "q": (0.5, 2)})

ALL_CLASSES = [chazy_class(cid) for cid in FIXED_CLASSES] \
    + [chazy_class("XI", sigma=5)]

FP_BATTERY = random_fp_transforms(13, 8)

TAUS = {"II": Fraction(5, 12), "IV": Fraction(1, 12), "V": Fraction(1, 12),
        "VI": Fraction(1, 12), "VII": Fraction(31, 12),
        "XI": Fraction(5, 6)}


class TestPreconditions:
    def test_class_ii(self):
        pre = chazy_preconditions(chazy_class("II").canonical_ode(), CFG)
        assert all(v.is_zero for v in pre.values())

    def test_exp_fails_first(self):
        pre = chazy_preconditions(Ode3.from_text("exp(q)"), CFG)
        assert pre["F_qq"].is_nonzero

    def test_zero_passes_preconditions(self):
        pre = chazy_preconditions(Ode3.from_text("0"), CFG)
        assert all(v.is_zero for v in pre.values())


class TestPQ:
    def test_class_ii(self):
        P, Q = chazy_PQ(chazy_class("II").canonical_ode(), CFG)
        assert str(normalize(P)) == "2"
        assert is_zero(Q - parse("10*y/3"), config=CFG).is_zero

    def test_zero_not_reducible(self):
        with pytest.raises(NotReducibleError):
            chazy_PQ(Ode3.from_text("0"), CFG)

    def test_tau_values(self):
        for cls in ALL_CLASSES:
            tau = chazy_tau(cls.canonical_ode())
            assert tau.rf.is_const()
            assert tau.rf.const_value() == TAUS[cls.id]
            assert cls.tau == TAUS[cls.id]


class TestSyzygies:
    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.id)
    def test_all_residuals_vanish(self, cls):
        ode = cls.canonical_ode()
        inv = chazy_invariants(ode)
        for e in (*inv.conditions.values(), c5_residual(cls, inv)):
            assert is_zero(e, config=CFG).is_zero
        res = syzygy_residuals(cls, inv)
        for name, e in res.items():
            assert is_zero(e, config=CFG).is_zero, f"{cls.id}: {name}"

    def test_class_ii_named_values(self):
        cls = chazy_class("II")
        ode = cls.canonical_ode()
        inv = chazy_invariants(ode)
        frame = chazy_frame(ode)
        # a2 = tau = 5/12 and a3 = 0
        assert is_zero(frame[1](inv.a) - num(Fraction(5, 12)),
                       config=CFG).is_zero
        assert frame[2](inv.a).rf.is_zero_poly()

    def test_frame_dual_to_coframe(self):
        for cls in (chazy_class("II"), chazy_class("IV")):
            ode = cls.canonical_ode()
            cof = chazy_coframe(ode)
            frame = chazy_frame(ode)
            for i, th in enumerate(cof.theta):
                for j, X in enumerate(frame):
                    want = 1 if i == j else 0
                    assert is_zero(th.pair(X) - num(want),
                                   config=CFG).is_zero


class TestClassify:
    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.id)
    def test_canonical_forms(self, cls):
        rep = chazy_classify(cls.canonical_ode(), CFG)
        assert rep.matched is not None
        assert rep.matched.id == cls.id
        assert rep.matched.sigma == cls.sigma
        assert rep.tau == TAUS[cls.id]

    def test_none_for_flat(self):
        rep = chazy_classify(Ode3.from_text("0"), CFG)
        assert rep.matched is None
        assert "P = 0" in rep.reason

    def test_scaled_member_matches(self):
        # pullback of class II under chi = 2x keeps the class
        pb = pullback_ode(chazy_class("II").canonical_ode(),
                          PointTransform.from_text("2*x", "y"), CFG)
        rep = chazy_classify(pb, CFG)
        assert rep.matched is not None and rep.matched.id == "II"

    def test_fp_battery_stability(self):
        cls = chazy_class("II")
        for t in random_fp_transforms(13, 4):
            pb = pullback_ode(cls.canonical_ode(), t, CFG)
            rep = chazy_classify(pb, CFG)
            assert rep.matched is not None and rep.matched.id == "II"

    def test_sigma_admissibility(self):
        assert admissible_sigma(5)
        assert not admissible_sigma(6)
        assert not admissible_sigma(11)
        assert not admissible_sigma(12)
        with pytest.raises(ValueError):
            chazy_class("XI", sigma=11)


class TestTransform:
    def test_self_map_is_affine_multiplicative(self):
        ode = chazy_class("II").canonical_ode()
        maps = chazy_transform(ode, JetPoint(0, 1, 0, 0), c1=1.0, c2=0.0,
                               config=CFG)
        xs = [-0.3, 0.0, 0.2, 0.5]
        ys = [0.6, 1.0, 1.4]
        for x in (0.0, 0.4):
            ratios = [maps.ybar(x, y) / y for y in ys]
            assert max(ratios) - min(ratios) < 1e-9
        slope = (maps.xbar(0.5) - maps.xbar(0.0)) / 0.5
        for x in xs:
            assert abs(maps.xbar(x) - (slope * x + maps.xbar(0.0))) < 1e-9

    def test_round_trip_recovery(self):
        ode = chazy_class("II").canonical_ode()
        pb = pullback_ode(ode, PointTransform.from_text("2*x", "y"), CFG)
        rep = chazy_classify(pb, CFG)
        maps = chazy_transform(pb, JetPoint(0, 1, 0, 0), c1=1.0, c2=0.0,
                               matched=rep.matched, config=CFG)
        rng = random.Random(3)
        samples = [(rng.uniform(-0.4, 0.4), rng.uniform(0.6, 1.4))
                   for _ in range(20)]
        x0, y0 = samples[0]
        alpha = y0 / maps.ybar(x0, y0)
        beta = maps.xbar(x0) - 2 * x0 / alpha
        for x, y in samples:
            assert abs(maps.xbar(x) - (2 * x / alpha + beta)) < 1e-7
            assert abs(maps.ybar(x, y) - y / alpha) < 1e-7

    def test_singular_base_point(self):
        ode = chazy_class("II").canonical_ode()
        with pytest.raises(ArithmeticError):
            # Q = (10/3) y vanishes at y = 0
            maps = chazy_transform(ode, JetPoint(0, 0, 0, 0), c1=1.0,
                                   c2=0.0, config=CFG)
            maps.ybar(0.1, 0.5)

    def test_needs_match(self):
        with pytest.raises((ChazyTransformError, NotReducibleError)):
            chazy_transform(Ode3.from_text("exp(q)"), JetPoint(0, 1, 0, 0),
                            c1=1.0, c2=0.0, config=CFG)

    def test_base_point_on_q_zero_is_refused(self):
        # transform 1 of the fp battery maps (0, 1, 0, 0) onto Q = 0
        pb = pullback_ode(chazy_class("II").canonical_ode(), FP_BATTERY[1],
                          CFG)
        with pytest.raises(ChazyTransformError, match="Q = 0"):
            chazy_transform(pb, JetPoint(0, 1, 0, 0), c1=1.0, c2=0.0,
                            config=CFG)


class TestOneGate:
    def test_pq_tested_once_and_frame_built_once(self, monkeypatch):
        # a class VI pullback has tau = 1/12, so IV, V and VI are all tried;
        # the syzygies are built only for VI, the first whose conditions
        # hold
        pb = pullback_ode(chazy_class("VI").canonical_ode(), FP_BATTERY[0],
                          CFG)
        tested, built, tried, syzygies = [], [], [], []
        real_is_zero = chazy.is_zero
        real_coframe = chazy.reduced_point_coframe
        real_c5 = chazy.c5_residual
        real_residuals = chazy.syzygy_residuals

        def spy_is_zero(e, *args, **kwargs):
            tested.append(str(e))
            return real_is_zero(e, *args, **kwargs)

        def spy_coframe(*args):
            built.append(args)
            return real_coframe(*args)

        def spy_c5(cls, inv):
            tried.append(cls.id)
            return real_c5(cls, inv)

        def spy_residuals(cls, inv):
            syzygies.append(cls.id)
            return real_residuals(cls, inv)

        monkeypatch.setattr(chazy, "is_zero", spy_is_zero)
        monkeypatch.setattr(chazy, "reduced_point_coframe", spy_coframe)
        monkeypatch.setattr(chazy, "c5_residual", spy_c5)
        monkeypatch.setattr(chazy, "syzygy_residuals", spy_residuals)
        args = argparse.Namespace(transform=True, base="0,1,0,0", c1=1.0,
                                  c2=0.0)
        out = cli.report_chazy(pb, CFG, args)
        assert out["matched"]["class"] == "VI" and out["transform"]
        assert tried == ["IV", "V", "VI"]
        assert syzygies == ["VI"]
        P, Q = chazy._pq(pb)
        assert tested.count(str(P)) == 1
        assert tested.count(str(Q)) == 1
        assert len(built) == 1


class TestSympyOracle:
    """K, W, P, Q and tau recomputed by sympy from F alone."""

    @pytest.mark.parametrize("pulled", [False, True],
                             ids=["canonical", "fp-pullback"])
    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.id)
    def test_pq_and_tau(self, cls, pulled):
        sympy = pytest.importorskip("sympy")
        syms = sympy.symbols("x y p q", real=True)
        x, y, p, q = syms
        ode = cls.canonical_ode()
        if pulled:
            ode = pullback_ode(ode, FP_BATTERY[0], CFG)
        F = sympy.parse_expr(str(ode.F).replace("^", "**"),
                             local_dict=dict(zip("xypq", syms)))

        def D(e):
            return e.diff(x) + p * e.diff(y) + q * e.diff(p) \
                + F * e.diff(q)

        Fq = F.diff(q)
        K = D(Fq) / 6 - Fq ** 2 / 9 - F.diff(p) / 2
        W = D(K) - 2 * Fq * K / 3 + F.diff(y)
        P = D(F.diff(q, p)) - F.diff(q, y)
        Q = 2 * W.diff(p) - D(W.diff(q)) + Fq * W.diff(q)
        tau = (Q.diff(y) + Q * F.diff(q, p) / 3) / (2 * P ** 2)
        want = [sympy.lambdify(syms, e, modules="math")
                for e in (K, W, P, Q, tau)]
        got = (klmw(ode).K, klmw(ode).W, *chazy._pq(ode),
               chazy_tau(ode))
        for env, _ in zip(sample_points(CFG), range(4)):
            at = [env[v] for v in "xypq"]
            for g, w in zip(got, want):
                assert eval_at(g, env) == pytest.approx(w(*at), rel=1e-9,
                                                        abs=1e-12)
