"""Point-equivalence pipeline: basic invariants, triviality, table rows."""
from dataclasses import replace
from fractions import Fraction

import pytest

from ode3geom.expr import DEFAULT_CONFIG, is_zero, normalize, parse
from ode3geom.jet import Ode3
from ode3geom.point import (classify_point, point_basic_invariants,
                            point_reduced_w4d, point_reduced_w_nonzero,
                            point_trivial_check)


class TestBasicInvariants:
    def test_zero(self):
        pb = point_basic_invariants(Ode3.from_text("0"))
        for e in (pb.A1, pb.B1, pb.B2, pb.B4, pb.C1):
            assert e.rf.is_zero_poly()

    def test_three_halves(self):
        pb = point_basic_invariants(Ode3.from_text("3/2*q^2/p"))
        assert pb.A1.rf.is_zero_poly()
        assert is_zero(pb.B1 + parse("1/(4*p^2)")).is_zero
        assert is_zero(pb.B4 + parse("1/(4*p^2)")).is_zero

    def test_q_squared(self):
        pb = point_basic_invariants(Ode3.from_text("q^2"))
        assert is_zero(pb.A1 + parse("2*q^3/27")).is_zero
        assert pb.B2.rf.is_zero_poly()
        # B2 = F_qqq / 6
        pb3 = point_basic_invariants(Ode3.from_text("q^3"))
        assert str(normalize(pb3.B2)) == "1"


class TestTrivial:
    @pytest.mark.parametrize("text,want", [
        ("0", True),
        ("3*q^2/p", True),       # swap-oracle witness
        ("3/2*q^2/p", False),
        ("exp(q)", False),
        ("q^3", False),
    ])
    def test_verdicts(self, text, want):
        assert point_trivial_check(Ode3.from_text(text)) is want

    def test_c1_variant_disagrees_on_swap_oracle(self):
        rep = point_trivial_check(Ode3.from_text("3*q^2/p"), full=True)
        assert rep.trivial
        assert rep.c1_variant_agrees is False

    def test_invariant_under_battery(self):
        from ode3geom.transform import pullback_ode, random_point_transforms
        for t in random_point_transforms(5, 3):
            pb = pullback_ode(Ode3.from_text("0"), t)
            assert point_trivial_check(pb)


class TestReducedInvariants:
    def test_i1p_exact_values(self):
        v = point_reduced_w_nonzero(Ode3.from_text("exp(q)"))
        assert str(normalize(v["I1p"])) == "(-3)"
        v = point_reduced_w_nonzero(Ode3.from_text("q^2"))
        assert str(normalize(v["I1p"])) == "(-2)"

    @pytest.mark.parametrize("alpha", [Fraction(7, 4), Fraction(2),
                                       Fraction(5, 2)])
    def test_i1p_power_law(self, alpha):
        # I1p(q^alpha) = -3 (3 alpha - 4)/(3 alpha - 3)
        from ode3geom.expr import pow_, var
        ode = Ode3(pow_(var("q"), alpha))
        v = point_reduced_w_nonzero(ode)
        want = -3 * (3 * alpha - 4) / (3 * alpha - 3)
        assert is_zero(v["I1p"] - parse(f"{want.numerator}/{want.denominator}")
                       if want.denominator != 1 else
                       v["I1p"] - parse(str(want.numerator))).is_zero

    def test_i8p_exact(self):
        v = point_reduced_w4d(Ode3.from_text("q^(3/2)"))
        assert str(normalize(v["I8p"])) == "(-3/2)"


ROWS = [
    ("0", "I.1", 7, {}),
    ("3/2*q^2/p", "I.2", 6, {}),
    ("3*q^2*p/(1+p^2)", "I.3", 6, {}),
    ("q^3", "I.4", 4, {}),
    ("q^2", "IV", 4, {"mu": Fraction(2)}),
    ("exp(q)", "VI", 4, {}),
    ("q^(3/2)", "XII", 4, {}),
    ("3*q^2/p", "I.1", 7, {}),
    ("-2*5*p + y", "II.1", 5, {"mu": Fraction(5)}),
    ("-2*x*p", "III", 4, {}),
    ("4*q^2/p", "II.2", 4, {"mu": Fraction(4)}),
    ("(3*p + 2)*q^2/(p^2 + 1)", "II.3", 4, {"mu": Fraction(2)}),
    ("q^(5/2)", "IV", 4, {"mu": Fraction(5, 2)}),
    ("2*(2*q*y - p^2)^(3/2)/y^2", "VIII", 4, {"mu": Fraction(2)}),
    ("8*(q - p^2)^(3/2) + 6*q*p - 4*p^3", "IX", 4, {"mu": Fraction(2)}),
]
# The box column of ROWS, where it is not the default box: the W = 0 rows
# VIII and IX are real and guarded only on a box of their own.
BOXES = {
    "2*(2*q*y - p^2)^(3/2)/y^2": {"y": (0.8, 1.0), "p": (0.5, 0.7),
                                  "q": (1.2, 2.0)},
    "8*(q - p^2)^(3/2) + 6*q*p - 4*p^3": {"p": (0.5, 0.9), "q": (1.2, 2.0)},
}


class TestClassify:
    @pytest.mark.parametrize("text,row,dim,params", ROWS)
    def test_table_rows(self, text, row, dim, params):
        cfg = replace(DEFAULT_CONFIG,
                      box=dict(DEFAULT_CONFIG.box, **BOXES.get(text, {})))
        res = classify_point(Ode3.from_text(text), cfg)
        assert res.row == row
        assert res.dimension == dim
        for key, want in params.items():
            assert res.parameters[key] == want

    def test_general(self):
        res = classify_point(Ode3.from_text("q^2 + y"))
        assert res.row == "general"

    def test_unfinished_rep_check_on_the_w_zero_path(self, monkeypatch):
        # row XII (W = 0) checks I5p, I7p, I8p against q^(3/2); a check that
        # cannot be completed leaves the row inconclusive, not "general"
        from ode3geom import point
        from ode3geom.classify import InconclusiveError

        def starved(*_args):
            raise InconclusiveError("no admissible samples for constant value")
        monkeypatch.setattr(point, "_verify_point_rep", starved)
        res = classify_point(Ode3.from_text("(q+5)^(3/2)"))
        assert (res.row, res.inconclusive) == ("XII", True)
        assert res.diagnostics["tuple_verified"] is None
        assert res.diagnostics["reason"] == (
            "representative check inconclusive: "
            "no admissible samples for constant value")

    def test_rep_mismatch_on_the_w_zero_path_names_its_reason(self,
                                                              monkeypatch):
        # a check that completes and finds another tuple demotes row XII to
        # "general" with the reason a demoted contact row carries
        from ode3geom import point
        monkeypatch.setattr(point, "_verify_point_rep", lambda *_args: False)
        res = classify_point(Ode3.from_text("(q+5)^(3/2)"))
        assert (res.row, res.dimension, res.inconclusive) == (
            "general", None, False)
        assert res.diagnostics["tuple_verified"] is False
        assert res.diagnostics["reason"] == (
            "candidate tuple differs from canonical representative")

    def test_row_i4_goes_through_the_same_check(self, monkeypatch):
        # row I.4 compares its constant F_qqq-branch slots with those of
        # q^3 and is confirmed, or demoted, like every other row
        from ode3geom import point
        res = classify_point(Ode3.from_text("q^3"))
        assert (res.row, res.diagnostics["tuple_verified"]) == ("I.4", True)
        assert res.evidence[-1] == "constant coframe slots match q^3"
        monkeypatch.setattr(point, "_verify_point_rep", lambda *_args: False)
        res = classify_point(Ode3.from_text("q^3"))
        assert (res.row, res.dimension, res.inconclusive) == (
            "general", None, False)
        assert res.diagnostics["tuple_verified"] is False
        assert res.diagnostics["reason"] == (
            "candidate tuple differs from canonical representative")
        assert "constant coframe slots match q^3" not in res.evidence

    def test_contact_rows_dominate_their_point_rows(self):
        # point symmetries embed in contact symmetries, so each contact-row
        # canonical form lands in a point row of equal or smaller dimension
        from ode3geom.contact import classify_contact
        for text in ("0", "-2*5*p + y", "-2*x*p", "exp(q)", "q^(3/2)"):
            ode = Ode3.from_text(text)
            c = classify_contact(ode)
            p = classify_point(ode)
            assert c.dimension is not None
            if p.dimension is not None:
                assert p.dimension <= c.dimension

    def test_nan_sample_leaves_the_row(self):
        # pullback 7 of criterion 7's battery at seed 11: one sample of a
        # constant invariant evaluates to nan, and it must not count as a
        # value (it once spread the constant and gave row "general")
        from ode3geom.transform import pullback_ode, random_point_transforms
        cfg = replace(DEFAULT_CONFIG, seed=11)
        t = random_point_transforms(20260808, 8)[7]
        res = classify_point(pullback_ode(Ode3.from_text("exp(q)"), t, cfg),
                             cfg)
        assert res.row == "VI"
