"""Exterior calculus: d, wedge, decomposition."""
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ode3geom import forms
from ode3geom.expr import is_zero, normalize, num, var
from ode3geom.forms import (DX, DY, DP, DQ, Coframe, DegenerateCoframeError,
                            OneForm, d, decompose, decompose_many, df,
                            reconstruct, wedge)
from ode3geom.jet import Ode3

P, Q = var("p"), var("q")


def form_is_zero(tf):
    return all(not is_zero(c).is_nonzero for c in tf.c)


class TestD:
    def test_contact_form(self):
        w1 = OneForm(-P, num(1), num(0), num(0))       # dy - p dx
        out = d(w1)
        # -dp^dx = dx^dp: coefficient +1 at slot dx^dp
        assert str(normalize(out.c[1])) == "1"
        assert all(c.rf.is_zero_poly() for i, c in enumerate(out.c) if i != 1)

    def test_q_dx(self):
        out = d(OneForm(Q, num(0), num(0), num(0)))
        # dq^dx = -dx^dq
        assert str(normalize(out.c[2])) == "(-1)"

    def test_exact_weyl_potential(self):
        out = d(OneForm(num(0), num(0), 2 / P, num(0)))  # 2 dp / p
        assert form_is_zero(out)

    def test_dd_zero_randomized(self):
        rng = random.Random(5)
        for _ in range(25):
            f = _random_rational(rng)
            assert form_is_zero(d(df(f)))

    def test_leibniz(self):
        rng = random.Random(11)
        for _ in range(10):
            f = _random_rational(rng)
            w = OneForm(*(_random_rational(rng) for _ in range(4)))
            lhs = d(f * w)
            rhs = wedge(df(f), w) + f * d(w)
            assert form_is_zero(lhs - rhs)


class TestWedge:
    def test_self_zero(self):
        assert form_is_zero(wedge(DX, DX))

    def test_antisymmetry_random(self):
        rng = random.Random(3)
        for _ in range(10):
            a = OneForm(*(_random_rational(rng) for _ in range(4)))
            b = OneForm(*(_random_rational(rng) for _ in range(4)))
            assert form_is_zero(wedge(a, b) + wedge(b, a))

    def test_contact_wedge(self):
        w1 = OneForm(-P, num(1), num(0), num(0))
        out = wedge(w1, DX)
        assert str(normalize(out.c[0])) == "(-1)"   # -dx^dy


class TestDecompose:
    def test_identity_coframe(self):
        cf = Coframe((DX, DY, DP, DQ))
        t = decompose(wedge(DX, DY), cf)
        assert [str(normalize(c)) for c in t] == \
            ["1", "0", "0", "0", "0", "0"]

    def test_reconstruct_roundtrip(self):
        w1 = OneForm(-P, num(1), num(0), num(0))
        cf = Coframe((w1, DX, OneForm(num(0), Q, P, num(1)), DQ))
        om = wedge(cf.theta[0], cf.theta[2]) - 2 * wedge(cf.theta[1],
                                                         cf.theta[3])
        t = decompose(om, cf)
        assert form_is_zero(reconstruct(t, cf) - om)

    def test_many_matches_single(self):
        w1 = OneForm(-P, num(1), num(0), num(0))
        cf = Coframe((w1, DX, OneForm(num(0), Q, P, num(1)), DQ))
        oms = [d(th) for th in cf.theta]
        many = decompose_many(oms, cf)
        for om, got in zip(oms, many):
            single = decompose(om, cf)
            assert all(is_zero(a - b).is_zero for a, b in zip(got, single))

    def test_degenerate_coframe(self):
        cf = Coframe((DX, DX, DP, DQ))
        with pytest.raises(DegenerateCoframeError):
            decompose(wedge(DX, DP), cf)


def _tree_solve(mat, rhss, config):
    """The elimination as expression trees: each update is the tree
    old - (f/piv)*x, lowered when next read.  The oracle for the RF-level
    solve in forms._solve_linear_multi."""
    n = len(mat)
    k = len(rhss)
    rows = [list(mat[i]) + [rhss[j][i] for j in range(k)] for i in range(n)]
    for col in range(n):
        pivot_row = None
        best = None
        best_size = None
        for r in range(col, n):
            e = rows[r][col]
            if e.rf.is_zero_poly():
                continue
            if e.rf.is_const():
                pivot_row = r
                break
            size = len(e.rf.num)
            if (best_size is None or size < best_size) \
                    and is_zero(e, config=config).is_nonzero:
                best, best_size = r, size
        if pivot_row is None:
            pivot_row = best
        if pivot_row is None:
            raise DegenerateCoframeError(
                "coframe degenerate on the sample domain")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        piv = rows[col][col]
        for r in range(n):
            if r == col:
                continue
            f = rows[r][col]
            if f.rf.is_zero_poly():
                continue
            ratio = f / piv
            for c2 in range(col + 1, n + k):
                if not rows[col][c2].rf.is_zero_poly():
                    rows[r][c2] = rows[r][c2] - ratio * rows[col][c2]
            rows[r][col] = num(0)
    return [[normalize(rows[i][n + j] / rows[i][i]) for i in range(n)]
            for j in range(k)]


def _solves_of(monkeypatch, build):
    """The arguments of every solve that build() runs."""
    calls = []
    inner = forms._solve_linear_multi

    def spy(mat, rhss, config):
        calls.append((mat, rhss, config))
        return inner(mat, rhss, config)
    monkeypatch.setattr(forms, "_solve_linear_multi", spy)
    build()
    monkeypatch.undo()
    return calls


def _reduced_contact(text, box=None):
    from ode3geom.cli import parse_box
    from ode3geom.contact import invariants_reduced
    from ode3geom.expr import DEFAULT_CONFIG
    cfg = DEFAULT_CONFIG if box is None else \
        replace(DEFAULT_CONFIG, box=parse_box(box))
    return lambda: invariants_reduced(Ode3.from_text(text), cfg)


def _point_q3():
    from ode3geom.point import point_reduced_fqqq
    point_reduced_fqqq(Ode3.from_text("q^3"))


def _maxwell():
    from ode3geom.geometry import maxwell_matches_b
    assert maxwell_matches_b(Ode3.from_text("3*q^2/p"))


@pytest.mark.parametrize("build", [
    _reduced_contact("exp(q)"),            # W != 0, with the b slots
    _reduced_contact("q^(7/4)"),           # W != 0
    _reduced_contact("q^(3/2)"),           # W = 0, F_qqqq != 0
    # W = 0, row VIII at mu = 2: subtracting RF ratios instead changes 9
    # of its 24 entries, 7 of them as printed
    _reduced_contact("2*(2*q*y - p^2)^(3/2)/y^2",
                     "x:-1:1,y:0.8:1.0,p:0.5:0.7,q:1.2:2.0"),
    _point_q3,                             # point I.4 coframe
    _maxwell,                              # geometry: d(phi) in the cobasis
], ids=["exp(q)", "q^(7/4)", "q^(3/2)", "VIII mu=2", "point q^3",
        "maxwell 3q^2/p"])
def test_solve_is_the_tree_elimination_term_for_term(monkeypatch, build):
    """Each entry has the tree solve's coefficient, numerator terms in the
    same order and denominator, not only an equal value."""
    calls = _solves_of(monkeypatch, build)
    assert calls
    for mat, rhss, config in calls:
        got = forms._solve_linear_multi(mat, rhss, config)
        want = _tree_solve(mat, rhss, config)
        assert len(got) == len(want)
        for grow, wrow in zip(got, want):
            for g, w in zip(grow, wrow):
                assert g.rf.c == w.rf.c
                assert tuple(g.rf.num.items()) == tuple(w.rf.num.items())
                assert g.rf.den == w.rf.den


def _random_rational(rng):
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        mono = num(c)
        for v in ("x", "y", "p", "q"):
            mono = mono * var(v) ** rng.randint(0, 2)
        terms.append(mono)
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    if rng.random() < 0.4:
        out = out / (1 + P * P)
    return out
