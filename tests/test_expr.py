"""Expression core: parsing, printing, calculus, zero testing."""
import math
import random
import sys
from fractions import Fraction

import pytest

from ode3geom.classify import JET
from ode3geom.expr import poly
from ode3geom.expr import (DEFAULT_CONFIG, DomainError, JetPoint, ParseError,
                           PartialDraws, SignConsistencyError,
                           SingularPointError, ZeroConfig, ZeroVerdict, abs_,
                           add, atan, eval_at, eval_tree_dual, exp, from_rf,
                           is_zero, log, normalize, num, parse, partial,
                           partial_is_zero, pow_, sample_points, sgn,
                           sign_on_domain, values_on_samples, var)

Q = var("q")
P = var("p")


class TestParse:
    def test_product_quotient(self):
        e = parse("3*q^2/p")
        assert is_zero(e - 3 * Q * Q / P).is_zero

    def test_rational_exponent(self):
        e = parse("q^(7/4)")
        assert e.kind == "pow"
        assert e.data == Fraction(7, 4)

    def test_incomplete_power(self):
        with pytest.raises(ParseError) as err:
            parse("q^")
        assert err.value.offset == 2

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse("foo(q)")

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse("z + q")

    @pytest.mark.parametrize("text", [
        "3*q^2/p - q^(7/4)",
        "exp(q) - 1 - q",
        "-x + (x+y)^2/3",
        "sqrt(abs(p))*sgn(q - 1)",
        "atan(q)/2",
        "q^(-2) + p^(1/2)",
        "1/2/3",
    ])
    def test_print_parse_roundtrip(self, text):
        e = parse(text)
        assert parse(str(e)) == e

    @pytest.mark.parametrize("e, printed", [
        # a sum that starts with "(" and ends with ")" inside a product
        (normalize(parse("(exp(q)-1)/p")), "((-1) + exp(q))*p^(-1)"),
        # ... and as the base of a power
        (normalize(parse("p*(exp(q)-1)^(1/3)")), "p*((-1) + exp(q))^(1/3)"),
        # a product of two sums as the base of a power
        (pow_(parse("(exp(q)-1)*(p+1)"), Fraction(1, 3)),
         "((exp(q) - 1)*(p + 1))^(1/3)"),
        # canonical children of tree nodes: a sum as a factor, a sum as a
        # power base, a negative constant as a term
        (normalize(parse("q+1")) * P, "(1 + q)*p"),
        (pow_(normalize(parse("q+1")), 2), "(1 + q)^2"),
        (P + normalize(parse("-3")), "p - 3"),
    ])
    def test_printed_string_keeps_the_value(self, e, printed):
        assert str(e) == printed
        pt = JetPoint(0.1, 0.9, 0.6, 1.5)
        assert eval_at(parse(printed), pt) == pytest.approx(eval_at(e, pt),
                                                            rel=1e-12)


class TestPartial:
    def test_simple(self):
        assert is_zero(partial(Q * Q, "q") - 2 * Q).is_zero

    def test_quotient(self):
        e = parse("3*q^2/p")
        assert is_zero(partial(e, "p") + parse("3*q^2/p^2")).is_zero

    def test_exp_x(self):
        assert partial(exp(Q), "x").rf.is_zero_poly()

    def test_chain_rules(self):
        pt = JetPoint(0.3, -0.2, 1.1, 1.4)
        h = 1e-6
        for e in (exp(Q * P), log(1 + Q * Q), atan(Q * P),
                  pow_(1 + Q * Q, Fraction(3, 2)),
                  pow_(abs_(Q * Q - P), Fraction(1, 6))):
            d = eval_at(partial(e, "q"), pt)
            up = eval_at(e, JetPoint(pt.x, pt.y, pt.p, pt.q + h))
            dn = eval_at(e, JetPoint(pt.x, pt.y, pt.p, pt.q - h))
            assert abs(d - (up - dn) / (2 * h)) < 1e-5 * (1 + abs(d))

    def test_abs_sgn_rules(self):
        # d|u| = sgn(u) du and d sgn(u) = 0 away from the kink
        u = Q * Q - P
        d = partial(abs_(u), "q")
        assert is_zero(d - sgn(u) * 2 * Q).is_zero
        assert partial(sgn(u), "q").rf.is_zero_poly()

    def test_mixed_partials_commute_randomized(self):
        rng = random.Random(7)
        checked = 0
        while checked < 60:
            e = _random_expr(rng, depth=3)
            v1, v2 = rng.sample(["x", "y", "p", "q"], 2)
            try:
                diff = partial(partial(e, v1), v2) \
                    - partial(partial(e, v2), v1)
                verdict = is_zero(diff)
            except ZeroDivisionError:
                continue
            assert not verdict.is_nonzero
            checked += 1


class TestNormalize:
    def test_expansion_to_zero(self):
        e = parse("(p+q)^2 - p^2 - 2*p*q - q^2")
        assert str(normalize(e)) == "0"

    def test_collapse_quotient(self):
        assert str(normalize(parse("q/q"))) == "1"

    def test_no_kernel_merging(self):
        assert str(normalize(parse("exp(q)*exp(q)"))) == "exp(q)^2"

    def test_log_exp_cancellation(self):
        assert normalize(log(exp(Q))) == normalize(Q)

    def test_idempotent(self):
        rng = random.Random(19)
        checked = 0
        while checked < 40:
            e = _random_expr(rng, depth=3, rational_only=True)
            try:
                n1 = normalize(e)
            except ZeroDivisionError:
                continue  # generator produced a literal 1/0
            assert normalize(n1) == n1
            checked += 1

    def test_constant_roots(self):
        e = pow_(num(2), Fraction(1, 2)) * pow_(num(8), Fraction(1, 2))
        assert str(normalize(e)) == "4"

    @pytest.mark.parametrize("text", ["(-4)^(1/2)", "(-1)^(1/2)",
                                      "(-8)^(3/4)", "sqrt(-2)", "log(0)",
                                      "log(-3/2)", "log(1-1)"])
    def test_undefined_constants_are_rejected_when_built(self, text):
        with pytest.raises(DomainError):
            normalize(parse(text))

    @pytest.mark.parametrize("text, want", [
        ("(-8)^(1/3)", "(-2)"), ("4^(1/2)", "2"), ("log(1)", "0"),
        ("abs(-4)^(1/2)", "2")])
    def test_defined_constants_are_kept(self, text, want):
        assert str(normalize(parse(text))) == want

    def test_nonconstant_bases_keep_the_abs_route(self):
        # -q^2 - 1 is negative everywhere, but only constants are
        # decided when built; the sampler rejects the points
        assert "abs" in str(normalize(parse("(-q^2-1)^(1/2)")))

    def test_fractional_power_merge(self):
        assert str(normalize(parse("q^(1/2)*q^(1/2)"))) == "q"

    @pytest.mark.parametrize("n", [1, 3])
    def test_unfactored_rational_root_stays_exact(self, n):
        # 10000000000037 is too large to factor, so n/10000000000037 is
        # kept as one atom; it must print and evaluate as itself
        text = f"({n}/10000000000037)^(1/2)"
        e = normalize(parse(text))
        assert str(e) == text
        assert eval_at(e, {}) == pytest.approx(
            math.sqrt(n / 10000000000037), rel=1e-12)


class TestQuotientLowering:
    """A product's factor b^-1 lowers as RF division by b."""

    def test_shared_denominator_cancels_by_key(self, monkeypatch):
        # multiplying by 1/b would expand 1 + p^2 into the numerator and
        # divide it out again
        x, y = var("x"), var("y")
        a, b = x / (1 + P * P), y / (1 + P * P)
        want = a.rf / b.rf
        divisions = _count_calls(monkeypatch, "poly_div_exact")
        got = normalize(a / b).rf
        assert divisions == []
        assert (got.c, tuple(got.num.items()), got.den) == \
            (want.c, tuple(want.num.items()), want.den)

    @pytest.mark.parametrize("build", [
        lambda: var("x") / (var("y") - var("y")),
        lambda: parse("x/(y-y)"),
        lambda: parse("1/0")], ids=["tree", "parsed", "constant"])
    def test_division_by_zero_is_rejected_when_built(self, build):
        with pytest.raises(ZeroDivisionError,
                           match="division by symbolically zero expression"):
            normalize(build())


class TestEval:
    def test_basic(self):
        assert eval_at(parse("3*q^2/p"), JetPoint(0, 0, 2, 4)) == 24.0

    def test_exp(self):
        assert eval_at(exp(Q), JetPoint(0, 0, 1, 0)) == 1.0

    def test_singular(self):
        with pytest.raises(SingularPointError):
            eval_at(parse("1/p"), JetPoint(0, 0, 0, 1), margin=1e-9)

    def test_real_odd_root(self):
        assert eval_at(pow_(num(-8), Fraction(1, 3)), JetPoint(0, 0, 1, 1)) \
            == -2.0

    def test_even_root_negative(self):
        with pytest.raises(DomainError):
            eval_at(pow_(var("y"), Fraction(1, 2)), JetPoint(0, -1, 1, 1))

    def test_interval_error_bound(self):
        from ode3geom.expr import eval_with_bound
        import random as _r
        rng = _r.Random(99)
        checked = 0
        while checked < 25:
            e = _random_expr(rng, depth=3)
            pt = JetPoint(rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(0.5, 2), rng.uniform(0.5, 2))
            try:
                v, bound = eval_with_bound(e, pt, margin=1e-9)
            except (ArithmeticError, OverflowError, ZeroDivisionError):
                continue
            # the enclosure must contain the plain evaluation
            assert bound >= 0.0
            assert bound <= 1e-9 * (1.0 + abs(v)) or bound < 1e-6
            checked += 1

    def test_normalize_consistency_randomized(self):
        rng = random.Random(23)
        cfg = DEFAULT_CONFIG
        checked = 0
        attempts = 0
        while checked < 50 and attempts < 500:
            attempts += 1
            e = _random_expr(rng, depth=3)
            pt = JetPoint(rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(0.5, 2), rng.uniform(0.5, 2))
            try:
                a = eval_at(e, pt, margin=1e-9)
                b = eval_at(normalize(e), pt, margin=1e-9)
            except (SingularPointError, DomainError, OverflowError,
                    ZeroDivisionError):
                continue
            assert abs(a - b) <= 1e-12 * (1 + abs(a)) + 1e-9 * abs(a)
            checked += 1
        assert checked >= 30


class TestIsZero:
    def test_trivial_zero(self):
        assert is_zero(parse("(p+q)^2 - p^2 - 2*p*q - q^2")).is_zero

    def test_wunschmann_of_3q2_over_p(self):
        # K = -q^2/(2p^2), D K = -2q^3/p^3, (2/3) F_q K = -2q^3/p^3
        from ode3geom.jet import Ode3, jet_invariants
        inv = jet_invariants(Ode3.from_text("3*q^2/p"))
        assert is_zero(inv.W).is_zero
        assert is_zero(inv.K - parse("-q^2/(2*p^2)")).is_zero

    def test_nonzero_with_witness(self):
        v = is_zero(parse("exp(q) - 1 - q"))
        assert v.is_nonzero
        assert v.witness is not None
        assert abs(eval_at(parse("exp(q) - 1 - q"), v.witness)) > 0

    def test_reproducible(self):
        e = parse("exp(q) - 1 - q")
        v1 = is_zero(e, config=ZeroConfig(seed=123))
        v2 = is_zero(e, config=ZeroConfig(seed=123))
        assert v1.status == v2.status
        assert v1.witness == v2.witness

    def test_inconclusive_when_domain_starves(self):
        cfg = ZeroConfig(box={"x": (-1.0, 1.0), "y": (-1.0, 1.0),
                              "p": (0.5, 2.0), "q": (0.5, 2.0)},
                         attempts=40)
        # log of a mostly-negative argument starves the sampler
        e = log(var("y") - num(5)) + num(1)
        assert is_zero(e, config=cfg).status == "inconclusive"


FLIP = "abs/sgn argument changes sign on the sample box"


class TestSamplerContract:
    """One sampler behind is_zero, partial_is_zero, values_on_samples and
    sign_on_domain: the same admissible points, the same abs/sgn sign check
    and the same reasons."""

    def test_sign_flip_is_inconclusive_on_the_rf_path(self):
        x = var("x")
        e = sgn(x) * abs_(x) - x
        assert is_zero(e) == ZeroVerdict("inconclusive", reason=FLIP)
        assert partial_is_zero(e, "q") == ZeroVerdict("inconclusive",
                                                      reason=FLIP)
        # shared draws end in the flip for every partial that reaches it
        draws = PartialDraws(e, ("p", "q"))
        for v in ("p", "q"):
            assert partial_is_zero(e, v, draws=draws) == ZeroVerdict(
                "inconclusive", reason=FLIP)

    def test_sign_flip_is_inconclusive_on_the_tree_path(self):
        """A large unlowered tree whose cancelling pairs leave the flip:
        is_zero lowers it to its rational form and reports the same flip."""
        x, p, q = var("x"), var("p"), var("q")
        pairs = [t for i in range(1, 12)
                 for t in (num(i) * p * q, -(num(i) * p * q))]
        e = add(sgn(x) * abs_(x), -x, *pairs)
        assert e._rf is None and len(e.args) == 24
        assert is_zero(e) == ZeroVerdict("inconclusive", reason=FLIP)
        assert e._rf is not None
        assert partial_is_zero(e, "q") == ZeroVerdict("inconclusive",
                                                      reason=FLIP)

    def test_sign_flip_raises_from_values_and_sign(self):
        e = abs_(var("x")) * Q
        # the flip shows only after the first sample, where is_zero stops
        assert is_zero(e).is_nonzero
        with pytest.raises(SignConsistencyError, match=FLIP):
            values_on_samples(e)
        with pytest.raises(SignConsistencyError, match=FLIP):
            sign_on_domain(e)

    def test_starved_domain_names_the_count(self):
        cfg = ZeroConfig(attempts=40)
        e = log(var("y") - num(Fraction(1, 2)))   # admissible for y > 1/2
        assert partial_is_zero(e, "q", config=cfg) == ZeroVerdict(
            "inconclusive", reason="only 7 admissible sample points")
        assert len(values_on_samples(e, cfg)) == 7
        assert partial_is_zero(e, "q").is_zero

    def test_derivative_singular_point_drops_out_for_its_variable(self):
        # d/dx of x^2 needs 2*x'/x at x = 0: every point fails for x only
        from ode3geom.expr.zerotest import DEFAULT_BOX
        cfg = ZeroConfig(box=dict(DEFAULT_BOX, x=(0.0, 0.0)))
        e = parse("x^2*y + p")
        alone = {v: partial_is_zero(e, v, config=cfg) for v in JET}
        assert alone["x"] == ZeroVerdict(
            "inconclusive", reason="only 0 admissible sample points")
        assert alone["y"] == alone["q"] == ZeroVerdict("zero",
                                                       reason="sampled")
        assert alone["p"].is_nonzero and alone["p"].witness.x == 0.0
        assert alone["p"].witness.y == -0.9499784895546661
        # one gradient pass per point gives the same four verdicts
        draws = PartialDraws(e, JET, cfg)
        assert {v: partial_is_zero(e, v, draws=draws) for v in JET} == alone
        # and is_constant says why it cannot decide
        from ode3geom.classify import is_constant, run_classifier
        res = run_classifier("point",
                             lambda _ode, config: is_constant(e, config),
                             None, cfg)
        assert res.inconclusive and res.row == "general"
        assert res.diagnostics == {"reason": "constancy of invariant in x: "
                                             "only 0 admissible sample points"}

    def test_non_finite_sample_is_inadmissible(self):
        # for q > 709.8/601 both products overflow and the value is
        # inf - inf = nan: such a point is skipped, like an overflow
        from ode3geom.expr.zerotest import DEFAULT_BOX
        starved = ZeroVerdict("inconclusive",
                              reason="only 0 admissible sample points")
        e = parse("exp(300*q)*exp(301*q) - exp(300*q)*exp(302*q)")
        cfg = ZeroConfig(box=dict(DEFAULT_BOX, q=(1.5, 2.0)))
        assert is_zero(e, config=cfg) == starved
        draws = PartialDraws(e, JET, cfg)
        assert all(partial_is_zero(e, v, draws=draws) == starved
                   for v in JET)
        vals = values_on_samples(e)
        assert len(vals) == 16 and all(math.isfinite(v) for v in vals)
        # here the value is finite but d/dq is inf - inf: a non-finite
        # residual drops the point for that variable alone
        e = parse("exp(350*q)*exp(351*q) - exp(350*q)*exp(352*q)")
        cfg = ZeroConfig(box=dict(DEFAULT_BOX, q=(1.004, 1.01)))
        assert is_zero(e, config=cfg).is_nonzero
        draws = PartialDraws(e, JET, cfg)
        got = {v: partial_is_zero(e, v, draws=draws) for v in JET}
        assert got == {"x": ZeroVerdict("zero", reason="sampled"),
                       "y": ZeroVerdict("zero", reason="sampled"),
                       "p": ZeroVerdict("zero", reason="sampled"),
                       "q": starved}
        assert partial_is_zero(e, "q", config=cfg) == starved

    def test_unbound_variable_is_a_domain_error(self):
        with pytest.raises(DomainError):
            eval_at(var("z"), JetPoint(0, 0, 1, 1))
        with pytest.raises(DomainError):
            eval_at(var("z") * Q + exp(var("z")), JetPoint(0, 0, 1, 1))
        with pytest.raises(DomainError):
            eval_at(normalize(var("z") * Q), JetPoint(0, 0, 1, 1))


def _poly(*terms):
    """{monomial: coeff} from (coeff, {"q": exponent, ...}) pairs."""
    out = {}
    for c, exps in terms:
        m = tuple(sorted((poly.var_atom(v), poly._exp_norm(Fraction(e)))
                         for v, e in exps.items() if e))
        out = poly.poly_add(out, {m: c})
    return out


def _count_calls(monkeypatch, name):
    """Count the calls of poly.<name> for the rest of the test."""
    calls = []
    real = getattr(poly, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(poly, name, counted)
    return calls


def _den(*factors):
    """A factored denominator from (polynomial, multiplicity) pairs."""
    return tuple(sorted((poly.poly_key(f), f, e) for f, e in factors))


def _division_outcomes(monkeypatch):
    """The outcome of each poly.poly_div_exact call for the rest of the
    test: "hit", None for a miss, or "undecided"."""
    seen = []
    real = poly.poly_div_exact

    def spy(*args):
        try:
            q = real(*args)
        except poly._DivisionUndecided:
            seen.append("undecided")
            raise
        seen.append(None if q is None else "hit")
        return q
    monkeypatch.setattr(poly, "poly_div_exact", spy)
    return seen


def pairwise_cancel(num, den):
    """The pairwise reduction, the oracle of poly._cancel: each multi-term
    factor tried by poly_div_exact on the tuple-keyed pair, with no integer
    screen, while num is not constant."""
    again = True
    while again:
        undecided = divided = False
        new_den = []
        for k, f, e in den:
            while e > 0 and len(f) > 1 and not poly.poly_is_const(num):
                try:
                    q = poly.poly_div_exact(num, f)
                except poly._DivisionUndecided:
                    undecided = True
                    break
                if q is None:
                    break
                num, e, divided = q, e - 1, True
            if e:
                new_den.append((k, f, e))
        den = tuple(new_den)
        again = undecided and divided
    return num, den


def cancelled_terms(out):
    """A (num, den) pair of a cancellation term for term."""
    num, den = out
    return [(m, type(c), c) for m, c in num.items()], den


def grouped_dpoly(p, v):
    """The Fraction-coefficient grouping, the oracle of poly.dpoly: each
    entry's piece m * c * e * datom_ratio, with its Fraction coefficient,
    added into the group of the ratio's denominator, and each group made
    with c = 1."""
    groups, dens = {}, {}
    for m, c in p.items():
        for aid, e in m:
            ratio = poly.datom_ratio(aid, v)
            if ratio.is_zero_poly():
                continue
            piece = poly.poly_mul({m: c * e * ratio.c}, ratio.num)
            dk = poly._den_key(ratio.den)
            if dk in groups:
                groups[dk] = poly.poly_add(groups[dk], piece)
            else:
                groups[dk] = piece
                dens[dk] = ratio.den
    total = poly.RF_ZERO
    for dk, numpart in groups.items():
        total = total + poly._make(Fraction(1), numpart, dens[dk])
    return total


def chained_drf(rf, v):
    """The quotient rule as a chain of products, the oracle of poly.drf:
    each term num * f' times 1/den, then divided by f; no cache."""
    out = grouped_dpoly(rf.num, v)
    if rf.den:
        inv_den = poly.RF._raw(Fraction(1), dict(poly.P_ONE), rf.den)
        out = out * inv_den
        num_rf = poly.RF._raw(Fraction(1), rf.num, ())
        for _k, f, e in rf.den:
            dfac = grouped_dpoly(f, v)
            if dfac.is_zero_poly():
                continue
            term = num_rf * dfac * inv_den / poly.RF._raw(Fraction(1), f, ())
            out = out + poly._rescaled(term.c * (-e), term)
    if rf.c != 1 and not out.is_zero_poly():
        out = poly._rescaled(out.c * rf.c, out)
    return out


def derivative_pair(new, oracle, *args):
    """(new(*args), oracle(*args)), each from empty derivative caches.  The
    oracle runs with poly.dpoly and poly.drf replaced by the oracles, which
    kernel and power-base atoms then differentiate their arguments by."""
    saved = poly.dpoly, poly.drf
    try:
        poly._datom_cache.clear()
        poly.dpoly, poly.drf = grouped_dpoly, chained_drf
        want = oracle(*args)
    finally:
        poly.dpoly, poly.drf = saved
        poly._datom_cache.clear()
        poly._drf_cache.clear()
    return new(*args), want


HALF = Fraction(1, 2)


class TestExactDivision:
    @pytest.mark.parametrize("q, b", [
        # fractional exponents
        (_poly((1, {"q": HALF, "p": 1}), (3, {})),
         _poly((1, {"q": Fraction(3, 2)}), (-2, {"p": Fraction(1, 3)}))),
        # negative leading coefficients
        (_poly((-1, {"q": 1}), (5, {"p": 1})),
         _poly((-3, {"q": 2}), (1, {"p": 1}))),
        # a not primitive
        (_poly((6, {"q": 1}), (4, {"p": 1})),
         _poly((1, {"q": 1}), (-1, {"p": 1}))),
        # b not primitive, so the quotient is fractional
        (_poly((HALF, {})),
         _poly((2, {"q": 1}), (2, {"p": 1}))),
        # Fraction coefficients in the quotient and in b
        (_poly((HALF, {"q": 1}), (Fraction(2, 3), {"p": 1})),
         _poly((1, {"q": 1}), (-1, {"p": 1}))),
        (_poly((2, {"q": 1})),
         _poly((HALF, {"q": 1}), (1, {"p": 1}))),
        # several atoms, trailing term not constant
        (_poly((1, {"y": 2, "q": 1}), (-7, {"x": 1}), (2, {"p": 3})),
         _poly((3, {"x": 1, "q": 1}), (1, {"y": 1, "p": 1}),
               (-2, {"p": 2}))),
    ])
    def test_hits_are_never_rejected(self, q, b):
        # integral coefficients as ints, as in canonical polynomials
        a = {m: poly._frac_c(c, 1) for m, c in poly.poly_mul(q, b).items()}
        assert poly.poly_div_exact(a, b) == q
        assert poly._cancel(a, _den((b, 1))) == (q, ())

    @pytest.mark.parametrize("a, b, alone", [
        # lead monomial: q^4 does not divide q^3
        pytest.param(_poly((1, {"q": 3}), (1, {"q": 1})),
                     _poly((1, {"q": 4}), (1, {"q": 1})), True, id="a0-b0"),
        # trailing monomial: q does not divide 1
        pytest.param(_poly((1, {"q": 3}), (1, {})),
                     _poly((1, {"q": 2}), (1, {"q": 1})), True, id="a1-b1"),
        # Gauss: lc(b) = 2 does not divide lc(a) = 3
        pytest.param(_poly((3, {"q": 2}), (1, {})),
                     _poly((2, {"q": 1}), (1, {})), True, id="a2-b2"),
        # Gauss: tc(b) = 2 does not divide tc(a) = 3
        pytest.param(_poly((2, {"q": 2}), (3, {})),
                     _poly((1, {"q": 1}), (2, {})), True, id="a3-b3"),
        # integer image: the coefficient sums 6 and 3 pass, but at
        # q = 2**20 + id b's value does not divide a's.  The division
        # alone needs a second step.
        pytest.param(_poly((2, {"q": 3}), (2, {"q": 2}), (1, {"q": 1}),
                           (1, {})),
                     _poly((2, {"q": 1}), (1, {})), False, id="a4-b4"),
    ])
    def test_misses_rejected_without_reducing(self, monkeypatch, a, b,
                                              alone):
        # a second step would raise: the pass's integer images find each
        # miss before any division, and the division alone finds the
        # first four before a second step
        monkeypatch.setattr(poly, "_DIV_GUARD", 1)
        divisions = _division_outcomes(monkeypatch)
        den = _den((b, 1))
        assert poly._cancel(a, den) == (a, den)
        assert divisions == []
        if alone:
            assert poly.poly_div_exact(a, b) is None
        else:
            with pytest.raises(poly._DivisionUndecided):
                poly.poly_div_exact(a, b)

    def test_fractional_quotient_coefficient_ends_division(self,
                                                          monkeypatch):
        # (2q^3 + 2q^2 + q + 1) / (2q + 1): the second quotient coefficient
        # would be 1/2, impossible for a primitive integer divisor.  _make's
        # pass rejects this input by its integer images before dividing
        # (test_misses_rejected_without_reducing); the division alone
        # needs the in-loop test.
        a = _poly((2, {"q": 3}), (2, {"q": 2}), (1, {"q": 1}), (1, {}))
        b = _poly((2, {"q": 1}), (1, {}))
        monkeypatch.setattr(poly, "_DIV_GUARD", 2)
        assert poly.poly_div_exact(a, b) is None
        monkeypatch.setattr(poly, "_DIV_GUARD", 1)  # one reduction step
        with pytest.raises(poly._DivisionUndecided):
            poly.poly_div_exact(a, b)

    def test_matches_sympy_div(self):
        sympy = pytest.importorskip("sympy")
        names = ("y", "p", "q")
        syms = {poly.var_atom(v): sympy.Symbol(v) for v in names}

        def to_sympy(a):
            return sum(c * sympy.Mul(*(syms[aid] ** e for aid, e in m))
                       for m, c in a.items())

        def rand_poly(rng, n):
            return _poly(*((rng.choice([-3, -2, -1, 1, 2, 3]),
                            {v: rng.randint(0, 2) for v in names})
                           for _ in range(n)))

        rng = random.Random(20261018)
        hits = 0
        for k in range(80):
            b = rand_poly(rng, rng.randint(2, 3))
            if len(b) < 2:
                continue
            a = poly.poly_mul(rand_poly(rng, rng.randint(1, 4)), b)
            if k % 2:
                a = poly.poly_add(a, rand_poly(rng, 1))
            if not a:
                continue
            got = poly.poly_div_exact(a, b)
            quo, rem = sympy.div(to_sympy(a), to_sympy(b), *syms.values(),
                                 domain="QQ")
            if rem == 0:
                hits += 1
                assert got is not None
                assert sympy.expand(to_sympy(got) - quo) == 0
            else:
                assert got is None
        assert 30 <= hits < 80

    def test_make_cancels_in_one_pass(self, monkeypatch):
        f1 = _poly((1, {"q": 1}), (1, {"p": 1}))
        f2 = _poly((1, {"q": 1}), (-2, {"p": 1}))
        x = _poly((1, {"x": 1}))
        g = _poly((1, {"q": 2}), (1, {}))
        num = poly.poly_mul(poly.poly_mul(poly.poly_pow(f1, 2), f2), g)
        divisions = _division_outcomes(monkeypatch)
        packs = _count_calls(monkeypatch, "_pack_plan")
        rf = poly._make(Fraction(1), num, _den((f1, 3), (f2, 2), (x, 1)))
        assert rf.c == 1 and rf.num == g
        assert rf.den == _den((f1, 1), (f2, 1), (x, 1))
        # f1: two quotients, then its integer images reject the third try;
        # f2: one quotient, then the images reject; x: none, as num has
        # no x.  One plan packs num, f1 and f2.
        assert divisions == ["hit"] * 3
        assert len(packs) == 1 and len(packs[0]) == 4

    def test_make_retries_undecided_division(self, monkeypatch):
        # With at most four reduction steps, num/f (six quotient terms) is
        # undecided until g has divided num, and then takes three steps.
        f1 = _poly((1, {"q": 1}), (-1, {}))
        f2 = _poly((1, {"p": 1}), (-1, {}))
        (_k, f, _e), (_k, g, _e) = _den((f1, 1), (f2, 1))
        v = "q" if f == f1 else "p"
        num = poly.poly_mul(_poly((1, {v: 3}), (-1, {})), g)
        monkeypatch.setattr(poly, "_DIV_GUARD", 4)
        with pytest.raises(poly._DivisionUndecided):
            poly.poly_div_exact(num, f)
        rf = poly._make(Fraction(1), num, _den((f, 1), (g, 1)))
        assert rf.den == ()
        assert rf.num == _poly((1, {v: 2}), (1, {v: 1}), (1, {}))


def _returns(monkeypatch, name):
    """The values poly.<name> returns for the rest of the test."""
    seen = []
    real = getattr(poly, name)

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]
    monkeypatch.setattr(poly, name, spy)
    return seen


# the integer point's value of the atom x
_X_AT_POINT = 2 ** 20 + poly.var_atom("x")


class TestImageRejects:
    """_make's pass rejects a trial division by integer images before
    anything is packed."""

    def test_caught_miss_packs_nothing(self, monkeypatch):
        # (q^2 + 1)/(q - 2): the coefficient sums 2 and -1 pass, but at
        # q = N = 2**20 + id, N^2 + 1 leaves 5 modulo N - 2
        packs = _count_calls(monkeypatch, "_pack_plan")
        divisions = _division_outcomes(monkeypatch)
        images = _returns(monkeypatch, "_id_image")
        a = _poly((1, {"q": 2}), (1, {}))
        b = _poly((1, {"q": 1}), (-2, {}))
        den = _den((b, 1))
        assert poly._cancel(a, den) == (a, den)
        (vb, va), n = images, 2 ** 20 + poly.var_atom("q")
        assert (vb, va) == (n - 2, n * n + 1) and va % vb == 5
        assert packs == [] and divisions == []

    def test_product_takes_its_image_from_the_factors(self, monkeypatch):
        # x * (q^2 + 1)/(q - 2): _make took q^2 + 1's value image when it
        # screened q - 2 out, so the product's is x's times that one, and
        # still rejects the miss before anything is packed
        a = poly._make(Fraction(1), _poly((1, {"q": 2}), (1, {})),
                       _den((_poly((1, {"q": 1}), (-2, {})), 1)))
        x = poly.rf_var("x")
        packs = _count_calls(monkeypatch, "_pack_plan")
        divisions = _division_outcomes(monkeypatch)
        images = _count_calls(monkeypatch, "_id_image")
        got = a * x
        assert got.den == a.den and got.num == poly.poly_mul(a.num, x.num)
        assert all(arg != got.num for arg, in images)
        assert packs == [] and divisions == []
        assert got._img == poly._id_image(got.num) == _X_AT_POINT * a._img

    @pytest.mark.parametrize("q, b, r, screened", [
        # Fraction coefficients: not an integer division, not screened
        (_poly((HALF, {"q": 1}), (1, {})), _poly((1, {"q": 1}), (1, {})),
         _poly((Fraction(1, 3), {})), False),
        # a fractional exponent: sums only, and b's sum is -1
        (_poly((1, {"q": HALF}), (1, {})),
         _poly((1, {"q": HALF}), (-2, {})), _poly((3, {})), True),
        # a negative exponent: sums only (3 divides 6 and 9)
        (_poly((1, {"q": 1}), (1, {})), _poly((1, {"q": -1}), (2, {})),
         _poly((3, {"q": 1})), True),
        # b not primitive: not screened
        (_poly((1, {"q": 1}), (3, {})), _poly((2, {"q": 1}), (2, {})),
         _poly((1, {})), False),
        # b is 0 at the integer point, and r is b's coefficient sum
        (_poly((1, {"x": 1})), _poly((1, {"x": 1}), (-_X_AT_POINT, {})),
         _poly((1 - _X_AT_POINT, {})), True),
    ], ids=["fraction-coeffs", "root", "negative", "not-primitive",
            "zero-image"])
    def test_skips_leave_the_division_to_the_reduction(
            self, monkeypatch, q, b, r, screened):
        hit = {m: poly._frac_c(c, 1) for m, c in poly.poly_mul(q, b).items()}
        miss = poly.poly_add(hit, r)
        den = _den((b, 1))
        packs = _count_calls(monkeypatch, "_pack_plan")
        divisions = _division_outcomes(monkeypatch)
        images = _returns(monkeypatch, "_id_image")
        assert poly._cancel(hit, den) == (q, ())
        assert poly._cancel(miss, den) == (miss, den)
        # screened: the sums pass and b's value image, 0, tells nothing
        assert images == ([0, 0] if screened else [])
        assert divisions == ["hit", None] and len(packs) == 2

    def test_replayed_benchmark_divisions_are_unchanged(self, monkeypatch):
        # every cancellation pass of the benchmark's chazy-fp item
        # chazy:II#0 at seed 1, replayed through the pass and through the
        # pairwise reduction
        import argparse
        from dataclasses import replace

        from ode3geom import cli, transform
        from ode3geom.chazy import chazy_class
        cfg = replace(DEFAULT_CONFIG, seed=1, box=cli.parse_box(
            "x:-1:1,y:0.5:1.5,p:0.5:2,q:0.5:2"))
        args = argparse.Namespace(transform=True, base="0,1,0,0", c1=1.0,
                                  c2=0.0)
        t = transform.random_fp_transforms(13, 8)[0]
        cancel = poly._cancel
        calls = []              # num, den and the image _make hands over

        def recorded(num, den, image=None):
            calls.append((num, den, image and list(image)))
            return cancel(num, den, image)
        monkeypatch.setattr(poly, "_cancel", recorded)
        pb = transform.pullback_ode(chazy_class("II").canonical_ode(), t, cfg)
        cli.report_chazy(pb, cfg, args)

        divisions = _division_outcomes(monkeypatch)
        pairwise = [cancelled_terms(pairwise_cancel(n, d))
                    for n, d, _v in calls]
        by_pairs = list(divisions)
        divisions.clear()
        assert [cancelled_terms(cancel(n, d, v and list(v)))
                for n, d, v in calls] == pairwise
        assert divisions.count("hit") == by_pairs.count("hit")
        misses = by_pairs.count(None)
        assert len(calls) > 100 and misses > 50
        # the images catch at least 9 in 10 of the pairwise misses
        assert len(by_pairs) - len(divisions) >= 0.9 * misses


def _terms(rf):
    """rf's canonical form term for term: c and its type, num in order,
    den."""
    return type(rf.c), rf.c, tuple(rf.num.items()), rf.den


class TestMadeShortcut:
    """A rational constant times an RF that _make returned skips _make."""

    def _made(self):
        # x / (x + y)^2 * (q - 1): a multi-term den the num does not cancel
        num = _poly((1, {"x": 1, "q": 1}), (-1, {"x": 1}))
        rf = poly._make(Fraction(1), num,
                        _den((_poly((1, {"x": 1}), (1, {"y": 1})), 2)))
        assert rf._made and len(rf.den[0][1]) == 2
        return rf

    @pytest.mark.parametrize("k", [Fraction(3, 7), Fraction(-2), 1])
    def test_constant_times_made_tries_no_division(self, monkeypatch, k):
        x = self._made()
        want = _terms(poly._make(k * x.c, x.num, x.den))
        divisions = _count_calls(monkeypatch, "poly_div_exact")
        makes = _count_calls(monkeypatch, "_make")
        got = (poly.rf_const(k) * x, x * poly.rf_const(k))
        assert divisions == [] and makes == []
        assert all(_terms(g) == want and g._made for g in got)

    def test_negation_and_derivative_keep_the_mark(self):
        x = self._made()
        assert (-x)._made
        assert poly.drf(x, poly.var_atom("x"))._made
        assert not poly.RF._raw(Fraction(1), dict(poly.P_ONE), ())._made

    def test_unmarked_raw_rf_goes_through_make(self, monkeypatch):
        # a prime atom to the power 1 is not canonical: _make splices it
        # out into the coefficient
        raw = poly.RF._raw(Fraction(1), {((poly.prime_atom(2), 1),): 1}, ())
        makes = _count_calls(monkeypatch, "_make")
        got = poly.rf_const(Fraction(3)) * raw
        assert len(makes) == 1
        assert _terms(got) == _terms(poly.rf_const(Fraction(6)))


def _makes_from(monkeypatch, caller):
    """The (c, num, den) of every poly._make call made directly by the
    function named caller, for the rest of the test."""
    seen = []
    real = poly._make

    def spy(c, num, den, v=0):
        if sys._getframe(1).f_code.co_name == caller:
            seen.append((c, num, den))
        return real(c, num, den, v)
    monkeypatch.setattr(poly, "_make", spy)
    return seen


# one of each kind of atom a derivative meets
DERIVATIVE_INPUTS = [
    "3*x^2*q + q^3 - 2*p + 5",                       # jet variables only
    "q^(3/2) + x*q^(1/3) - p^(-1/2)",                # fractional exponents
    "exp(q^2*p)*x + q", "log(q^2 + 1)*p", "atan(p*q) - x*q",
    "abs(q - p)*q", "sgn(q - x)*q^2 + abs(x*q)",     # kernels
    "2^(1/2)*q + 6^(1/3)*p^2",                       # prime atoms
    "(q^2 + 1)^(1/2)*p + (p*q - x)^(-2/3)",          # power bases
    # repeated multi-term denominator factors
    ("x", ("q + p", 2), ("q - 1", 3)),
    ("exp(q)*y - q", ("q^2 + p", 2), ("q + p", 1)),
]


def _input_rf(spec):
    """The RF of a text, or of (numerator, (factor, multiplicity), ...):
    dividing by a factor once per multiplicity keeps it unexpanded."""
    if isinstance(spec, str):
        return parse(spec).rf
    rf = parse(spec[0]).rf
    for text, n in spec[1:]:
        for _ in range(n):
            rf = rf / parse(text).rf
    return rf


class TestDerivativeKernel:
    """dpoly hands _make int polynomials only and differentiates a jet
    polynomial by exponent; drf makes each quotient-rule term once."""

    @pytest.mark.parametrize("text", DERIVATIVE_INPUTS)
    def test_equals_the_oracles_term_for_term(self, text):
        rf = _input_rf(text)
        for name in ("x", "y", "p", "q"):
            v = poly.var_atom(name)
            got, want = derivative_pair(poly.drf, chained_drf, rf, v)
            assert _terms(got) == _terms(want)
            got, want = derivative_pair(poly.dpoly, grouped_dpoly, rf.num, v)
            assert _terms(got) == _terms(want)

    @pytest.mark.parametrize("text", DERIVATIVE_INPUTS)
    def test_every_make_from_dpoly_gets_int_coefficients(self, monkeypatch,
                                                         text):
        rf = _input_rf(text)
        poly._datom_cache.clear()
        poly._drf_cache.clear()
        makes = _makes_from(monkeypatch, "dpoly")
        for name in ("x", "y", "p", "q"):
            poly.drf(rf, poly.var_atom(name))
        assert makes
        for c, num, _den in makes:
            assert c.numerator == 1
            assert all(type(k) is int for k in num.values()), num

    def test_scale_is_the_lcm_of_the_piece_denominators(self, monkeypatch):
        # d/dq (q^(1/2) + x*q^(1/3)): pieces 1/2 and 1/3 over q, so L = 6
        q = poly.var_atom("q")
        makes = _makes_from(monkeypatch, "dpoly")
        p = _poly((1, {"q": HALF}), (1, {"x": 1, "q": Fraction(1, 3)}))
        got = poly.dpoly(p, q)
        group = _poly((3, {"q": HALF}), (2, {"x": 1, "q": Fraction(1, 3)}))
        assert [(c, list(num.items()), den) for c, num, den in makes] == \
            [(Fraction(1, 6), list(group.items()), poly.datom_ratio(q, q).den)]
        assert _terms(got) == _terms(grouped_dpoly(p, q))

    def test_jet_polynomial_is_differentiated_by_exponent(self, monkeypatch):
        p = _poly((3, {"x": 2, "q": 1}), (1, {"q": 3}), (-2, {"p": 1}),
                  (5, {}))
        ratios = _count_calls(monkeypatch, "datom_ratio")
        makes = _count_calls(monkeypatch, "_make")
        got = poly.dpoly(p, poly.var_atom("q"))
        assert ratios == [] and len(makes) == 1
        # 3*x^2 + 3*q^2, in p's monomial order
        assert _terms(got) == (Fraction, 3, tuple(
            _poly((1, {"x": 2}), (1, {"q": 2})).items()), ())
        # no monomial holds y: zero, with no _make
        assert poly.dpoly(p, poly.var_atom("y")) is poly.RF_ZERO
        assert ratios == [] and len(makes) == 1

    @pytest.mark.parametrize("text", ["q^(3/2) + q", "exp(q)*q"])
    def test_other_atoms_take_the_grouped_path(self, monkeypatch, text):
        rf = parse(text).rf
        ratios = _count_calls(monkeypatch, "datom_ratio")
        poly.dpoly(rf.num, poly.var_atom("q"))
        assert ratios

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_drf_makes_each_quotient_rule_term_once(self, monkeypatch, k):
        rf = _input_rf(("x*q", ("q + p", 1), ("q^2 + 1", 2),
                        ("q - x", 1))[:k + 1])
        assert len(rf.den) == k and all(len(f) > 1 for _k, f, _e in rf.den)
        q = poly.var_atom("q")
        _got, want = derivative_pair(poly.drf, chained_drf, rf, q)
        poly._drf_cache.clear()
        makes = _count_calls(monkeypatch, "_make")
        divided = _makes_from(monkeypatch, "__truediv__")
        got = poly.drf(rf, q)
        assert _terms(got) == _terms(want)
        # d num and d num / den, then per factor f: f', num * f', the term
        # num * f' / (den * f) and its sum into the result
        assert len(makes) == 2 + 4 * k and divided == []


class TestTablesRollback:
    def test_drops_what_an_older_atom_made(self):
        u = parse("abs(q^3 + 11*p*y - 5)").rf
        (aid, _e), = next(iter(u.num))
        q = poly.var_atom("q")
        poly._datom_cache.pop((aid, q), None)
        poly._drf_cache.pop((u.key(), q), None)
        sgn_key = (poly.KERN, ("sgn", poly._atom_payload[aid][1][1].key()))
        assert sgn_key not in poly._atom_ids
        mark = poly.tables_mark()
        want = str(from_rf(poly.drf(u, q)))
        # d|u| = sgn(u) du: a new atom and entries keyed by the older one
        assert sgn_key in poly._atom_ids
        assert (aid, q) in poly._datom_cache
        assert (u.key(), q) in poly._drf_cache
        poly.tables_rollback(mark)
        assert poly.tables_mark() == mark
        assert len(poly._atom_ids) == mark[0]
        assert sgn_key not in poly._atom_ids
        assert (aid, q) not in poly._datom_cache
        assert (u.key(), q) not in poly._drf_cache
        assert str(from_rf(poly.drf(u, q))) == want


# exponents of one atom in one random term: negative, fractional, and an
# atom that is an int in one term and a Fraction in another
_EXPS = (0, 0, 1, 2, 3, -1, -2, HALF, -HALF, Fraction(3, 2), Fraction(2, 3),
         Fraction(-1, 3))


def _rand_poly(rng, n, exps=_EXPS, names=("x", "y", "p", "q")):
    return _poly(*((rng.choice([-3, -2, -1, 1, 2, 3, HALF]),
                    {v: rng.choice(exps) for v in names})
                   for _ in range(n)))


def _atoms(*polys):
    """The atom ids of the polynomials, increasing."""
    return sorted({aid for p in polys for m in p for aid, _e in m})


def _lex(univ, m):
    """The lex key of poly_div_exact's order: smallest atom id first."""
    exps = dict(m)
    return tuple(exps.get(aid, 0) for aid in univ)


class TestPackedKernels:
    """poly_mul and poly_div_exact against term-by-term references."""

    def test_products_match_tuple_merge(self):
        rng = random.Random(20261018)
        cancelled = mixed = merged = 0
        for k in range(1000):
            # every other case on two atoms, so that terms merge
            shape = (_EXPS, ("x", "y", "p", "q")) if k % 2 else \
                ((0, 1, -1, HALF), ("y", "q"))
            a = _rand_poly(rng, rng.randint(2, 5), *shape)
            b = _rand_poly(rng, rng.randint(2, 5), *shape)
            if len(a) < 2 or len(b) < 2:
                continue
            want: dict = {}
            for ma, ca in a.items():
                for mb, cb in b.items():
                    m = poly.mono_from(ma + mb)
                    cancelled += len(m) < len(dict(ma).keys() | dict(mb))
                    merged += m in want
                    c = want.get(m, 0) + ca * cb
                    if c:
                        want[m] = c
                    else:
                        del want[m]
            exps = {}
            for m in (*a, *b):
                for aid, e in m:
                    exps.setdefault(aid, set()).add(type(e) is int)
            mixed += any(len(kinds) == 2 for kinds in exps.values())
            got = poly.poly_mul(a, b)
            # values and term order: the order feeds the float summation
            # of the sampler
            assert list(got.items()) == list(want.items())
            assert all(type(e) is int or e.denominator > 1
                       for m in got for _aid, e in m)
        assert cancelled > 1000 and mixed > 400 and merged > 200

    def test_quotients_come_back_in_lead_order(self):
        rng = random.Random(20261019)
        nonneg = tuple(e for e in _EXPS if e >= 0)
        hits = 0
        for _ in range(1000):
            b = _rand_poly(rng, rng.randint(2, 4))
            q = _rand_poly(rng, rng.randint(1, 4), exps=nonneg)
            if len(b) < 2 or not q:
                continue
            a = {m: poly._frac_c(c, 1) for m, c in poly.poly_mul(q, b).items()}
            univ = _atoms(a, b)
            want = sorted(q.items(), key=lambda t: _lex(univ, t[0]),
                          reverse=True)
            assert list(poly.poly_div_exact(a, b).items()) == want
            hits += 1
        assert hits > 700

    def test_constant_and_one_term_divisors_take_the_packed_path(self):
        rng = random.Random(20261020)
        nonneg = tuple(e for e in _EXPS if e >= 0)
        hits = {"constant": 0, "one term": 0}
        for k in range(600):
            if k % 2:
                b = {poly.MONE: rng.choice([1, -1, 2, -3, HALF])}
            else:
                b = _rand_poly(rng, 1)
            q = _rand_poly(rng, rng.randint(1, 4), exps=nonneg)
            if not b or not q:
                continue
            a = {m: poly._frac_c(c, 1) for m, c in poly.poly_mul(q, b).items()}
            univ = _atoms(a, b)
            want = sorted(q.items(), key=lambda t: _lex(univ, t[0]),
                          reverse=True)
            assert list(poly.poly_div_exact(a, b).items()) == want
            hits["constant" if poly.poly_is_const(b) else "one term"] += 1
        assert hits["constant"] > 250 and hits["one term"] > 250

    def test_pack_plan_fields_hold_room_times_the_largest_exponent(self):
        rng = random.Random(20261021)
        for room in (1, 2, 7, 2 * (poly._DIV_GUARD + 2)):
            a = _rand_poly(rng, 3)
            b = _rand_poly(rng, 3)
            c = _rand_poly(rng, 2)
            pack, unpack, high = poly._pack_plan(room, a, b, c)
            one = pack(poly.MONE)
            univ = _atoms(a, b, c)

            def rand_mono():
                # m1^k * m2^j with k + j <= room, packed by additions: no
                # exponent exceeds room times the polynomials' largest
                m1, m2 = rng.choice([*a, *b, *c]), rng.choice([*a, *b, *c])
                k = rng.choice([room, rng.randint(0, room)])
                j = rng.randint(0, room - k)
                x = k * pack(m1) + j * pack(m2) - (k + j - 1) * one
                return x, poly.mono_from([(aid, k * e) for aid, e in m1]
                                         + [(aid, j * e) for aid, e in m2])

            for _ in range(200):
                (x1, m1), (x2, m2) = rand_mono(), rand_mono()
                assert unpack(x1) == m1
                assert (x1 < x2) == (_lex(univ, m1) < _lex(univ, m2))
                assert (((x1 | high) - x2) & high == high) == all(
                    e1 >= e2 for e1, e2 in zip(_lex(univ, m1),
                                               _lex(univ, m2)))

    def test_long_miss_drifts_past_operand_exponents(self):
        # (v^4 + 1) / (v - w^9) with v first in the lex order: the leads
        # run v^4, v^3*w^9, ..., w^36, four times the largest exponent of
        # the operands, before w^36 fails to divide
        v, w = sorted(("q", "y"), key=poly.var_atom)
        a = _poly((1, {v: 4}), (1, {}))
        b = _poly((1, {v: 1}), (-1, {w: 9}))
        assert poly.poly_div_exact(a, b) is None
        a = poly.poly_add(a, _poly((-1, {w: 36}), (-1, {})))
        assert poly.poly_div_exact(a, b) == _poly(
            (1, {v: 3}), (1, {v: 2, w: 9}), (1, {v: 1, w: 18}), (1, {w: 27}))

    def test_product_terms_share_entries(self):
        # q*y + q*p times q + x: q^2*y and q^2*p carry one (q, 2) tuple
        a = _poly((1, {"q": 1, "y": 1}), (1, {"q": 1, "p": 1}))
        b = _poly((1, {"q": 1}), (1, {"x": 1}))
        got = poly.poly_mul(a, b)
        q = poly.var_atom("q")
        squares = [ent for m in got for ent in m if ent == (q, 2)]
        ones = [ent for m in got for ent in m if ent == (q, 1)]
        assert len(squares) == 2 and squares[0] is squares[1]
        assert len(ones) == 2 and ones[0] is ones[1]


def _random_expr(rng, depth=3, rational_only=False):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.5:
            return var(rng.choice(["x", "y", "p", "q"]))
        return num(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
    op = rng.choice(["add", "mul", "pow", "fun"]
                    if not rational_only else ["add", "mul", "pow"])
    if op == "add":
        return _random_expr(rng, depth - 1, rational_only) \
            + _random_expr(rng, depth - 1, rational_only)
    if op == "mul":
        return _random_expr(rng, depth - 1, rational_only) \
            * _random_expr(rng, depth - 1, rational_only)
    if op == "pow":
        return pow_(_random_expr(rng, depth - 1, rational_only),
                    rng.choice([2, 3, -1, -2]))
    fn = rng.choice([exp, atan])
    return fn(_random_expr(rng, depth - 1, rational_only))


class TestGradient:
    """The vector-mode dual pass against sympy, and against itself by one
    variable and in value mode."""

    TEXTS = [
        "exp(x*q) + log(p + y^2)*atan(q - x)",
        "abs(y - 2)*sgn(p) + q^(3/2)*p^(-1/3)",
        "(x^2*q + 3*y)/(p^2 + y + 3)",
        "(1 + p^2 + q^2)^(3/2)*y - x",      # a pbase atom once normalised
        "sqrt(q^2 + x^2 + 1)/(p*q) + exp(atan(y*p))",
    ]

    @pytest.mark.parametrize("text", TEXTS)
    def test_matches_sympy_diff(self, text):
        sympy = pytest.importorskip("sympy")
        syms = {v: sympy.Symbol(v, real=True) for v in JET}
        oracle = sympy.parse_expr(
            text.replace("^", "**"),
            local_dict=dict(syms, abs=sympy.Abs, sgn=sympy.sign,
                            atan=sympy.atan, sqrt=sympy.sqrt))
        # d sgn(u) is a delta at u = 0, which no sample point hits
        grads = [sympy.lambdify(list(syms.values()), sympy.diff(oracle, s)
                                .replace(sympy.DiracDelta, lambda *_: 0))
                 for s in syms.values()]
        e = parse(text)
        for tree in (e, normalize(e)):
            for env, _ in zip(sample_points(DEFAULT_CONFIG), range(8)):
                _val, dval, _m, _dm = eval_tree_dual(tree, JET, env, {},
                                                     1e-12)
                args = [env[v] for v in JET]
                for got, fn in zip(dval, grads):
                    assert got == pytest.approx(float(fn(*args)), rel=1e-9,
                                                abs=1e-12)

    @pytest.mark.parametrize("text", TEXTS)
    def test_each_component_is_the_one_variable_pass(self, text):
        e = parse(text)
        for tree in (e, normalize(e)):
            for env, _ in zip(sample_points(DEFAULT_CONFIG), range(8)):
                val, dval, mass, dmass = eval_tree_dual(tree, JET, env, {},
                                                        1e-12)
                for j, v in enumerate(JET):
                    one = eval_tree_dual(tree, (v,), env, {}, 1e-12)
                    assert one == (val, [dval[j]], mass, [dmass[j]])
                assert eval_tree_dual(tree, (), env, {}, 1e-12) \
                    == (val, [], mass, [])
                assert eval_at(tree, env) == val


class TestKernelRules:
    """poly.kernel_dual, the one table of kernel rules, and the atom walk."""

    DU = [0.5, -2.0, 0.0, 3.0]              # du over x, y, p, q

    @staticmethod
    def _sign(t):
        return math.copysign(1.0, t) if t else 0.0

    @pytest.mark.parametrize("u", [-1.5, 0.0, 0.7])
    @pytest.mark.parametrize("fn", poly.KERNEL_NAMES)
    def test_value_and_chain_rule(self, fn, u):
        if fn == "log" and u <= 0:
            with pytest.raises(DomainError):
                poly.kernel_dual(fn, u, self.DU)
            return
        f, df = {"exp": (math.exp, math.exp),
                 "log": (math.log, lambda t: 1.0 / t),
                 "atan": (math.atan, lambda t: 1.0 / (1.0 + t * t)),
                 "abs": (abs, self._sign),
                 "sgn": (self._sign, lambda t: 0.0)}[fn]
        val, dval = poly.kernel_dual(fn, u, self.DU)
        assert val == f(u)
        assert dval == pytest.approx([df(u) * d for d in self.DU],
                                     rel=1e-15)

    def test_exp_overflow(self):
        assert poly.kernel_dual("exp", 700.0, self.DU)[0] == math.exp(700.0)
        with pytest.raises(DomainError):
            poly.kernel_dual("exp", 700.5, self.DU)

    @pytest.mark.parametrize("fn", ["abs", "sgn"])
    def test_abs_and_sgn_at_zero_have_zero_derivatives(self, fn):
        assert poly.kernel_dual(fn, 0.0, self.DU)[1] == [0.0] * 4
        env = {"x": 0.3, "y": 1.2, "p": 0.8, "q": 0.8}
        e = parse(f"{fn}(q - p) + x")
        for tree in (e, normalize(e)):
            val, dval, _m, _dm = eval_tree_dual(tree, JET, env, {}, 0.0)
            assert val == 0.3
            assert dval == [1.0, 0.0, 0.0, 0.0]

    def test_atom_walk_reaches_nested_atoms(self):
        e = parse("exp(abs(x - y))^(1/3) + (p^2 + sgn(q - x))^(1/2)")
        assert e.free_vars() == {"x", "y", "p", "q"}
        assert parse("exp(abs(x - y))^(1/3)").free_vars() == {"x", "y"}
        # abs(x - y) is kept as abs(y - x)
        assert poly.rf_signed_atoms(e.rf) == \
            {parse("y - x").rf, parse("q - x").rf}
        atoms = list(poly.rf_atoms(e.rf))
        assert len(atoms) == len(set(atoms)) == 8
