"""Total derivative and the scalar invariants K, L, M, W, Z."""
import gc
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from ode3geom.expr import (DEFAULT_CONFIG, ZeroConfig, is_zero, normalize,
                           num, parse, partial, var)
from ode3geom.jet import (Ode3, VectorField, WunschmannZeroError,
                          frame_derivative, jet_invariants, klmw, pd,
                          total_derivative, zee)
from test_golden import CASES

Y, P, Q = var("y"), var("p"), var("q")


class TestTotalDerivative:
    def test_definition(self):
        ode = Ode3.from_text("exp(q)")
        assert is_zero(total_derivative(Y, ode) - P).is_zero
        assert is_zero(total_derivative(Q, ode) - ode.F).is_zero

    def test_dfq_exp(self):
        ode = Ode3.from_text("exp(q)")
        out = total_derivative(pd(ode.F, "q"), ode)
        assert is_zero(out - parse("exp(q)^2")).is_zero

    def test_leibniz_randomized(self):
        rng = random.Random(31)
        ode = Ode3.from_text("q^2 + y*p")
        for _ in range(20):
            f = _rand(rng)
            g = _rand(rng)
            lhs = total_derivative(f * g, ode)
            rhs = f * total_derivative(g, ode) + g * total_derivative(f, ode)
            assert is_zero(lhs - rhs).is_zero


class TestJetInvariants:
    def test_zero_ode(self):
        inv = jet_invariants(Ode3.from_text("0"))
        for e in (inv.K, inv.L, inv.M, inv.W):
            assert e.rf.is_zero_poly()
        assert inv.Z is None
        with pytest.raises(WunschmannZeroError):
            zee(Ode3.from_text("0"))

    def test_constant_linear(self):
        # F = -2 mu p + y with mu = 3: K = mu, W = 1, Z = 0
        inv = jet_invariants(Ode3.from_text("-2*3*p + y"))
        assert str(normalize(inv.K)) == "3"
        assert str(normalize(inv.W)) == "1"
        assert inv.Z is not None and inv.Z.rf.is_zero_poly()

    def test_exponential(self):
        inv = jet_invariants(Ode3.from_text("exp(q)"))
        assert is_zero(inv.K - parse("exp(q)^2/18")).is_zero
        assert is_zero(inv.W - parse("2*exp(q)^3/27")).is_zero
        assert is_zero(inv.Z - parse("2*exp(q)")).is_zero

    def test_intro_example(self):
        inv = jet_invariants(Ode3.from_text("3*q^2/p"))
        assert is_zero(inv.K + parse("q^2/(2*p^2)")).is_zero
        assert inv.W.rf.is_zero_poly()

    @pytest.mark.parametrize("alpha", [Fraction(7, 4), 2, Fraction(5, 2)])
    def test_power_law_w(self, alpha):
        # W(q^alpha) = alpha (alpha-3)(2 alpha-3)/27 q^(3 alpha - 3)
        from ode3geom.expr import pow_
        ode = Ode3(pow_(Q, alpha))
        c = Fraction(alpha) * (alpha - 3) * (2 * alpha - 3) / 27
        want = num(c) * pow_(Q, 3 * Fraction(alpha) - 3)
        assert is_zero(jet_invariants(ode).W - want).is_zero

    def test_w_constant_for_constant_linear(self):
        # any F linear in y, p, q with constant coefficients has constant W
        import random as _r
        rng = _r.Random(6)
        texts = ["2*y - 3*p + 5*q"]
        for _ in range(3):
            a, b, c = (rng.randint(-4, 4) for _ in range(3))
            texts.append(f"{a}*y + {b}*p + {c}*q")
        for text in texts:
            W = jet_invariants(Ode3.from_text(text)).W
            for v in ("x", "y", "p", "q"):
                assert is_zero(partial(W, v)).is_zero

    def test_w_vanishing_is_invariant(self):
        # relative invariance at the vanishing level across point pullbacks
        from ode3geom.transform import pullback_ode, random_point_transforms
        ts = random_point_transforms(99, 3)
        for text in ("3*q^2/p", "exp(q)"):
            ode = Ode3.from_text(text)
            status = jet_invariants(ode).w_verdict.status
            for t in ts:
                pb = pullback_ode(ode, t)
                assert jet_invariants(pb).w_verdict.status == status


class TestVerdictMemo:
    """A verdict is kept on the equation once per config, keyed by value."""

    @staticmethod
    def draws(monkeypatch) -> list:
        from ode3geom.expr import zerotest
        configs = []
        draw = zerotest.sample_points

        def spy(cfg):
            configs.append(cfg)
            return draw(cfg)
        monkeypatch.setattr(zerotest, "sample_points", spy)
        return configs

    def test_equal_configs_share_one_entry(self, monkeypatch):
        from ode3geom.expr.zerotest import DEFAULT_BOX
        ode = Ode3.from_text("exp(q)")
        one = ZeroConfig(seed=3, box=dict(DEFAULT_BOX))
        two = ZeroConfig(seed=3,
                         box=dict(reversed(list(DEFAULT_BOX.items()))))
        assert one == two and hash(one) == hash(two)
        draws = self.draws(monkeypatch)
        first = jet_invariants(ode, one)
        assert draws == [one]
        assert jet_invariants(ode, two) is first
        assert draws == [one]

    def test_omitted_config_is_the_default(self):
        ode = Ode3.from_text("exp(q)")
        inv = jet_invariants(ode)
        assert jet_invariants(ode, DEFAULT_CONFIG) is inv
        assert jet_invariants(ode, ZeroConfig()) is inv

    def test_other_seed_or_box_draws_its_own(self, monkeypatch):
        # a verdict on the input's box never serves a representative's box
        from ode3geom.classify import rep_config
        ode = Ode3.from_text("exp(q)")
        cfg = ZeroConfig(seed=3)
        jet_invariants(ode, cfg)
        draws = self.draws(monkeypatch)
        other_seed, other_box = replace(cfg, seed=4), rep_config("VIII", cfg)
        assert other_box.box != cfg.box
        jet_invariants(ode, other_seed)
        jet_invariants(ode, other_box)
        assert draws == [other_seed, other_box]


class TestLazyInvariants:
    """klmw builds each of K, L, M, W and Z the first time it is read."""

    @staticmethod
    def built(ode) -> set:
        return {"K", "L", "M", "W", "Z"} & set(vars(klmw(ode)))

    @pytest.mark.parametrize("text,built", [
        ("exp(q)", {"K", "W", "Z"}),      # the W != 0 path reads klmw's Z
        ("0", {"K", "W"})], ids=["exp(q)", "0"])
    def test_point_classifier_and_w_verdict_build_no_l_or_m(self, text,
                                                            built):
        # one pullback of criterion 7's battery
        from ode3geom.point import classify_point
        from ode3geom.transform import pullback_ode, random_point_transforms
        t = random_point_transforms(20260808, 1)[0]
        pb = pullback_ode(Ode3.from_text(text), t)
        classify_point(pb, DEFAULT_CONFIG)
        jet_invariants(pb, DEFAULT_CONFIG).w_verdict
        assert self.built(pb) == built

    def test_each_is_built_once_and_unpacking_builds_all(self):
        ode = Ode3.from_text("exp(q)")
        inv = klmw(ode)
        assert self.built(ode) == set()
        assert inv.M is klmw(ode).M
        assert self.built(ode) == {"K", "L", "M"}
        K, L, M, W = klmw(ode)
        assert all(a is b for a, b in zip((K, L, M, W), inv))
        assert is_zero(W - parse("2*exp(q)^3/27")).is_zero

    def test_z_is_built_when_read_and_only_where_w_is_nonzero(self):
        ode = Ode3.from_text("exp(q)")
        inv = jet_invariants(ode)
        assert inv.w_verdict.is_nonzero and self.built(ode) == {"K", "W"}
        assert inv.Z is klmw(ode).Z is zee(ode)
        assert self.built(ode) == {"K", "W", "Z"}
        flat = Ode3.from_text("0")
        assert jet_invariants(flat).Z is None
        assert "Z" not in self.built(flat)

    def test_no_reference_cycle_keeps_the_equation(self):
        # the Ode3's memo holds klmw's object, which must not point back
        gc.disable()
        try:
            ode = Ode3.from_text("exp(q)")
            klmw(ode).Z
            ref = weakref.ref(ode)
            del ode
            assert ref() is None
        finally:
            gc.enable()


class TestSympyOracle:
    """L and M recomputed by sympy from F alone, on the table
    representatives."""

    @pytest.mark.parametrize("stem,text,box", CASES,
                             ids=[c[0] for c in CASES])
    def test_l_and_m(self, stem, text, box):
        sympy = pytest.importorskip("sympy")
        from ode3geom.cli import parse_box
        from ode3geom.expr import DomainError, SingularPointError, eval_at
        from ode3geom.expr.zerotest import sample_points
        syms = sympy.symbols("x y p q", real=True)
        x, y, p, q = syms
        F = sympy.parse_expr(text.replace("^", "**"),
                             local_dict=dict(zip("xypq", syms)))

        def D(e):
            return e.diff(x) + p * e.diff(y) + q * e.diff(p) \
                + F * e.diff(q)

        Fq, Fqq = F.diff(q), F.diff(q, q)
        K = D(Fq) / 6 - Fq ** 2 / 9 - F.diff(p) / 2
        L = Fqq * K / 3 - Fq * K.diff(q) / 3 - K.diff(p) - F.diff(q, y) / 3
        M = (2 * K.diff(q, q) * K - 2 * K.diff(q, y) + Fqq * L / 3
             - 2 * Fq * L.diff(q) / 3 - 2 * L.diff(p))
        want = [sympy.lambdify(syms, e, modules="math") for e in (L, M)]
        inv = klmw(Ode3.from_text(text))
        cfg = DEFAULT_CONFIG if box is None else \
            replace(DEFAULT_CONFIG, box=parse_box(box))
        checked = 0
        for env, _ in zip(sample_points(cfg), range(100)):
            try:
                got = [eval_at(e, env) for e in (inv.L, inv.M)]
            except (DomainError, SingularPointError):
                continue
            at = [env[v] for v in "xypq"]
            for g, w in zip(got, want):
                assert g == pytest.approx(w(*at), rel=1e-9, abs=1e-12)
            checked += 1
            if checked == 4:
                break
        assert checked == 4


class TestFrameDerivative:
    def test_coordinate_frame(self):
        zero = num(0)
        one = num(1)
        frame = (VectorField(one, zero, zero, zero),
                 VectorField(zero, one, zero, zero),
                 VectorField(zero, zero, one, zero),
                 VectorField(zero, zero, zero, one))
        outs = frame_derivative(Q * Q, frame)
        assert outs[3] == partial(Q * Q, "q")
        assert is_zero(outs[3] - 2 * Q).is_zero

    def test_chazy_frame_syzygy(self):
        # X2(a) = tau = 5/12 on class II; X4(constant) = 0
        from dataclasses import replace
        from ode3geom.chazy import (chazy_class, chazy_frame,
                                    chazy_invariants)
        from ode3geom.expr import DEFAULT_CONFIG
        cfg = replace(DEFAULT_CONFIG,
                      box={"x": (-1, 1), "y": (0.5, 1.5),
                           "p": (0.5, 2), "q": (0.5, 2)})
        ode = chazy_class("II").canonical_ode()
        inv = chazy_invariants(ode)
        frame = chazy_frame(ode)
        x2a = frame[1](inv.a)
        assert is_zero(x2a - num(Fraction(5, 12)), config=cfg).is_zero
        assert frame[3](num(7)).rf.is_zero_poly()


def _rand(rng):
    out = num(0)
    for _ in range(rng.randint(1, 2)):
        mono = num(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for v in ("x", "y", "p", "q"):
            mono = mono * var(v) ** rng.randint(0, 2)
        out = out + mono
    return out if not out.rf.is_zero_poly() else num(1)
