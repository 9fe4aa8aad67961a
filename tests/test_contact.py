"""Contact-equivalence pipeline: branches, invariants, table rows."""
from dataclasses import replace
from fractions import Fraction

import pytest

from ode3geom.classify import const_value, is_constant
from ode3geom.contact import (CBRT6_OVER_3, NotApplicableError, contact_branch,
                              classify_contact, contact_projective_data,
                              invariants_5d, invariants_reduced,
                              linearizable_contact)
from ode3geom.expr import (DEFAULT_CONFIG, is_zero, normalize, parse, partial,
                           sign_on_domain)
from ode3geom.jet import Ode3, WunschmannZeroError, jet_invariants, pd

CFG_VIII = replace(DEFAULT_CONFIG,
                   box={"x": (-1, 1), "y": (0.8, 1.0),
                        "p": (0.5, 0.7), "q": (1.2, 2.0)})
CFG_IX = replace(DEFAULT_CONFIG,
                 box={"x": (-1, 1), "y": (-1, 1),
                      "p": (0.5, 0.9), "q": (1.2, 2.0)})


class TestBranch:
    @pytest.mark.parametrize("text,want", [
        ("0", "trivial-flat"),
        ("3*q^2/p", "trivial-flat"),
        ("q^3", "trivial-flat"),
        ("exp(q)", "Wnonzero"),
        ("q^(3/2)", "W0-Fqqqq"),
    ])
    def test_branches(self, text, want):
        assert contact_branch(Ode3.from_text(text)).branch == want


class TestInvariants5d:
    def test_linear_mu3(self):
        inv = invariants_5d(Ode3.from_text("-2*3*p + y"))
        assert str(normalize(inv.a)) == "3"
        assert inv.a_constant
        assert inv.k.rf.is_zero_poly()
        # 2 W_q^2 - 3 W W_qq = 0 here (W = 1)
        assert inv.u_weights == (0, -1, -1, -1, -2)

    def test_exp_a_constant(self):
        inv = invariants_5d(Ode3.from_text("exp(q)"))
        assert inv.a_constant
        assert abs(const_value(inv.a) - (-3 * 2 ** (1 / 3) / 4)) < 1e-9

    def test_linear_discriminant_vanishes(self):
        # 2 W_q^2 - 3 W W_qq = 0 for constant-coefficient linear members
        W = jet_invariants(Ode3.from_text("-2*3*p + y")).W
        disc = 2 * pd(W, "q") ** 2 - 3 * W * pd(W, "q", "q")
        assert is_zero(disc).is_zero

    def test_eps1_slot_is_minus_one_for_exp(self):
        # the theta^2 ^ theta^3 slot of d theta^4 carries epsilon_1
        red = invariants_reduced(Ode3.from_text("exp(q)"))
        slot = red.slots["dtheta4@23"]
        assert is_zero(slot + parse("1")).is_zero

    def test_needs_wunschmann(self):
        with pytest.raises(WunschmannZeroError):
            invariants_5d(Ode3.from_text("0"))


class TestInvariantsReduced:
    def test_exp_row_vi(self):
        red = invariants_reduced(Ode3.from_text("exp(q)"))
        assert red.case == 1
        assert red.eps == -1
        assert abs(const_value(red.I["I1"]) + 2) < 1e-9
        assert all(is_constant(ex) for ex in red.I.values())
        # the closed form 2 W_q^2 - 3 W W_qq has the sign of epsilon_1
        W = jet_invariants(Ode3.from_text("exp(q)")).W
        eps1 = 2 * pd(W, "q") ** 2 - 3 * W * pd(W, "q", "q")
        assert sign_on_domain(eps1) == red.eps

    def test_solved_system_on_row_vi(self):
        # the undisplayed slot a equals I1 * I2 under is_zero
        red = invariants_reduced(Ode3.from_text("exp(q)"))
        a_slot = red.slots["dtheta1@12"]
        assert is_zero(a_slot - red.I["I1"] * red.I["I2"]).is_zero

    def test_q74_row_iv(self):
        red = invariants_reduced(Ode3.from_text("q^(7/4)"))
        assert red.eps == 1
        i1 = const_value(red.I["I1"])
        mu = 1 + 4 * red.eps / (i1 * i1)
        assert abs(mu - 4) < 1e-7

    def test_q32_row_xii(self):
        red = invariants_reduced(Ode3.from_text("q^(3/2)"))
        assert red.branch == "W0-Fqqqq"
        assert red.eps == -1
        assert abs(const_value(red.I["I7"]) - CBRT6_OVER_3) < 1e-9

    def test_q2_plus_1_row_xi(self):
        red = invariants_reduced(Ode3.from_text("(q^2+1)^(3/2)"))
        assert red.eps == 1
        assert abs(const_value(red.I["I7"]) - CBRT6_OVER_3) < 1e-9

    def test_eps2_variants_reported(self):
        # 2 L_qq F_qqqq - 3 K_qqq^n has the sign of epsilon_2 for n = 2 and
        # n = 3: K_qqq = 0 for q^(3/2), so both exponent readings agree
        ode = Ode3.from_text("q^(3/2)")
        red = invariants_reduced(ode)
        inv = jet_invariants(ode)
        Lqq, Kqqq = pd(inv.L, "q", "q"), pd(inv.K, "q", "q", "q")
        Fq4 = pd(ode.F, "q", "q", "q", "q")
        for n in (2, 3):
            assert sign_on_domain(2 * Lqq * Fq4 - 3 * Kqqq ** n) == red.eps
        assert red.eps == -1

    def test_trivial_flat_refuses(self):
        with pytest.raises(NotApplicableError):
            invariants_reduced(Ode3.from_text("0"))


ROWS = [
    ("0", None, "I", 10, {}),
    ("-2*5*p + y", None, "II", 5, {"mu": Fraction(5)}),
    ("-2*x*p", None, "III", 4, {"mu_of_x": "x"}),
    ("q^(7/4)", None, "IV", 4, {"mu": Fraction(4)}),
    ("(q^2+1)^(3/2)*exp(atan(q)/2)", None, "V", 4, {"mu": Fraction(4)}),
    ("exp(q)", None, "VI", 4, {}),
    ("(2*q*y - p^2)^(3/2)/y^2", CFG_VIII, "VIII", 4, {"mu": Fraction(1)}),
    ("q^(3/2)", None, "XII", 4, {}),
    ("(q^2+1)^(3/2)", None, "XI", 4, {}),
    # mu = 2 members of rows VIII and IX: eps2 != 0, off the degenerate
    # discriminant that the mu = 1 member of row VIII takes
    ("2*(2*q*y - p^2)^(3/2)/y^2", CFG_VIII, "VIII", 4, {"mu": Fraction(2)}),
    ("8*(q - p^2)^(3/2) + 6*q*p - 4*p^3", CFG_IX, "IX", 4,
     {"mu": Fraction(2)}),
]


class TestClassify:
    @pytest.mark.parametrize("text,cfg,row,dim,params", ROWS)
    def test_table_rows(self, text, cfg, row, dim, params):
        res = classify_contact(Ode3.from_text(text), cfg or DEFAULT_CONFIG)
        assert res.row == row
        assert res.dimension == dim
        for key, want in params.items():
            got = res.parameters[key]
            if key == "mu_of_x":
                assert str(normalize(got)) == want
            else:
                assert got == want

    def test_general(self):
        res = classify_contact(Ode3.from_text("q^2 + y"))
        assert res.row == "general"

    def test_sign_flip_is_an_inconclusive_result(self):
        # an abs/sgn argument in the reduced invariants of x*q^2 changes
        # sign on the default box: an honest inconclusive, not a leak
        res = classify_contact(Ode3.from_text("x*q^2"))
        assert res.inconclusive
        assert res.diagnostics == {
            "reason": "abs/sgn argument changes sign on the sample box"}


class TestInvariance:
    def test_contact_battery_row_ii(self):
        # swap and the Legendre-type map are genuine contact transforms
        from ode3geom.transform import (legendre_like, pullback_ode, scale,
                                        swap_xy)
        base = Ode3.from_text("-2*5*p + y")
        for t in (swap_xy(), legendre_like(), scale(2, 3)):
            res = classify_contact(pullback_ode(base, t))
            assert res.row == "II"
            assert res.parameters["mu"] == Fraction(5)

    def test_contact_battery_row_vi(self):
        from ode3geom.transform import pullback_ode, scale, translate
        base = Ode3.from_text("exp(q)")
        for t in (scale(2, 1), translate(1, 0)):
            res = classify_contact(pullback_ode(base, t))
            assert res.row == "VI"

    def test_eps2_preserved(self):
        from ode3geom.transform import PointTransform, pullback_ode, scale
        base = Ode3.from_text("q^(3/2)")
        for t in (scale(2, 1), PointTransform.from_text("2*x", "y/2 + 1")):
            red = invariants_reduced(pullback_ode(base, t))
            assert red.eps == -1
            assert abs(const_value(red.I["I7"]) - CBRT6_OVER_3) < 1e-9

    def test_structure_slots_match_printed_functions(self):
        # d theta^3 - Omega ^ theta^3 slots reproduce the printed a and e
        # and the fixed -1 torsion slot
        from ode3geom.contact import PAIR, _dtheta3_slots, bas_a, bas_e
        from ode3geom.expr import num
        from ode3geom.transform import pullback_ode, swap_xy
        for ode in (Ode3.from_text("exp(q)"),
                    pullback_ode(Ode3.from_text("-2*5*p + y"), swap_xy())):
            slots = _dtheta3_slots(ode)
            assert is_zero(slots[PAIR[(1, 4)]] + num(1)).is_zero
            assert is_zero(slots[PAIR[(2, 4)]] - bas_a(ode)).is_zero
            assert is_zero(slots[PAIR[(2, 3)]] - bas_e(ode)).is_zero


class TestLinearizable:
    def test_flat(self):
        out = linearizable_contact(Ode3.from_text("0"))
        assert out.linearizable and out.status == "constant"

    def test_mu_of_x(self):
        out = linearizable_contact(Ode3.from_text("-2*x*p"))
        assert out.status == "mu_of_x"
        mu = out.mu
        assert is_zero(mu - parse("x")).is_zero
        for v in ("y", "p", "q"):
            assert is_zero(partial(mu, v)).is_zero

    def test_exp_not(self):
        assert not linearizable_contact(Ode3.from_text("exp(q)")).linearizable


class TestContactProjective:
    def test_cubic(self):
        a3, a2, a1, a0 = contact_projective_data(Ode3.from_text("q^3"))
        assert [str(normalize(c)) for c in (a3, a2, a1, a0)] == \
            ["1", "0", "0", "0"]

    def test_zero(self):
        out = contact_projective_data(Ode3.from_text("0"))
        assert all(c.rf.is_zero_poly() for c in out)

    def test_mixed_coefficients(self):
        a3, a2, a1, a0 = contact_projective_data(
            Ode3.from_text("2*q^3 - x*q^2 + y*q - p"))
        assert str(normalize(a3)) == "2"
        assert is_zero(a2 + parse("x")).is_zero
        assert is_zero(a1 - parse("y")).is_zero
        assert is_zero(a0 + parse("p")).is_zero

    def test_refuses_quartic(self):
        with pytest.raises(NotApplicableError):
            contact_projective_data(Ode3.from_text("exp(q)"))
