"""Point-equivalence pipeline: basic invariants at the identity section,
point triviality, and the large point-symmetry classification."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as F3
from typing import Optional

from .classify import (ClassificationResult, const_value, constant_parameter,
                       is_constant, require, run_classifier, snap_rational,
                       table_row, tuples_match)
from .contact import (PAIR, _decompose_all, _mu_of_x, _plain_omegas,
                      _z_data, bas_a, w0_rep)
from .expr import (DEFAULT_CONFIG, Expr, ZeroConfig, is_zero, normalize, num,
                   pow_, sign_on_domain, var)
from .forms import Coframe
from .geometry import (c1_flatness_combination, cartan_second_condition,
                       point_b_functions)
from .jet import Ode3, jet_invariants, klmw, pd, per_ode, total_derivative


@dataclass(frozen=True)
class PointBasicInvariants:
    """A1, B1, B2, B4, C1 at the section u1 = u3 = 1, u2 = 0."""

    A1: Expr
    B1: Expr
    B2: Expr
    B4: Expr
    C1: Expr


@per_ode
def point_basic_invariants(ode: Ode3) -> PointBasicInvariants:
    F = ode.F
    inv = klmw(ode)
    K, W = inv.K, inv.W
    Fq, Fqq = pd(F, "q"), pd(F, "q", "q")
    B1, B2, B4 = point_b_functions(ode)
    C1 = normalize(2 * Fqq * K + F3(2, 3) * Fq * pd(F, "q", "p")
                   - 2 * pd(F, "q", "y") + pd(F, "p", "p")
                   + 2 * pd(W, "q"))
    return PointBasicInvariants(A1=W, B1=B1, B2=B2, B4=B4, C1=C1)


@dataclass(frozen=True)
class PointTrivialReport:
    trivial: bool
    verdicts: dict
    c1_variant_agrees: Optional[bool] = None


@per_ode
def flat_signature(ode: Ode3) -> Expr:
    """F_qq^2 + 6 F_qqp: zero on point row I.1, its sign splits I.2/I.3."""
    return normalize(pd(ode.F, "q", "q") ** 2 + 6 * pd(ode.F, "q", "q", "p"))


@per_ode
def point_trivial_verdicts(ode: Ode3,
                           config: ZeroConfig = DEFAULT_CONFIG) -> dict:
    """The four verdicts of point triviality; taken once per config."""
    return {"W": jet_invariants(ode, config).w_verdict,
            "F_qqq": is_zero(pd(ode.F, "q", "q", "q"), config=config),
            "F_qq^2+6F_qqp": is_zero(flat_signature(ode), config=config),
            "cartan": is_zero(cartan_second_condition(ode), config=config)}


def point_trivial_check(ode: Ode3, config: ZeroConfig = DEFAULT_CONFIG,
                        full: bool = False):
    """Point equivalence to y''' = 0.

    Conditions: W = 0, F_qqq = 0, F_qq^2 + 6 F_qqp = 0, and the
    transport condition D^2 F_qq - D F_qp + F_qy = 0.  The alternative
    C1-based combination is reported as a diagnostic; it disagrees on
    F = 3q^2/p, which the swap oracle proves point-trivial.
    """
    conds = point_trivial_verdicts(ode, config)
    trivial = all(require(v, name) for name, v in conds.items())
    if not full:
        return trivial
    alt = is_zero(c1_flatness_combination(ode), config=config)
    agrees = None
    if alt.status != "inconclusive":
        agrees = alt.is_zero == conds["cartan"].is_zero
    return PointTrivialReport(trivial=trivial,
                              verdicts={k: v.status for k, v in conds.items()},
                              c1_variant_agrees=agrees)


# --------------------------------------------- the five-dimensional layer


@per_ode
def point_bas_k(ode: Ode3) -> Expr:
    W = klmw(ode).W
    return F3(1, 3) * pd(W, "q") / pow_(W, F3(2, 3))


@per_ode
def point_bas_e(ode: Ode3) -> Expr:
    F = ode.F
    inv = klmw(ode)
    W, Z = inv.W, inv.Z
    Wq = pd(W, "q")
    return (F3(1, 6) * pd(F, "q", "q") - F3(1, 3) * pd(Z, "q")
            + (F3(2, 9) * Wq * Z - F3(2, 3) * pd(W, "p")
               - F3(2, 9) * Wq * pd(F, "q")) / W)


@per_ode
def point_bas_b(ode: Ode3) -> Expr:
    F = ode.F
    inv = klmw(ode)
    K, W = inv.K, inv.W
    Z, DZ = _z_data(ode)
    Fq, Fqq = pd(F, "q"), pd(F, "q", "q")
    return ((F3(1, 12) * Fqq + F3(1, 18) * pd(Z, "q")) * Z * Z
            + (pd(K, "q") - F3(1, 3) * pd(Z, "p")
               - F3(1, 9) * Fq * pd(Z, "q")
               + F3(1, 18) * Fqq * Fq) * Z
            - F3(1, 6) * Fqq * DZ - K * pd(Z, "q") + pd(Z, "y")
            + F3(3, 2) * Fqq * K - 3 * pd(K, "p")
            - pd(K, "q") * Fq - pd(F, "q", "y")) \
        / (3 * pow_(W, F3(2, 3)))


@per_ode
def point_bas_h(ode: Ode3) -> Expr:
    F = ode.F
    inv = klmw(ode)
    K, W, Z = inv.K, inv.W, inv.Z
    Fq, Fqq = pd(F, "q"), pd(F, "q", "q")
    Wq = pd(W, "q")
    return ((F3(1, 18) * Wq * Z * Z
             - (F3(1, 3) * pd(W, "p") + F3(1, 9) * Wq * Fq) * Z
             + pd(W, "y") - Wq * K) / W
            - 3 * pd(K, "q") - F3(1, 3) * Fqq * Fq
            - pd(F, "q", "p")) / (3 * pow_(W, F3(1, 3)))


# ------------------------------------------------ reduced point invariants


@per_ode
def point_reduced_w_nonzero(ode: Ode3) -> dict:
    """I1p..I4p for W != 0 with W_q != 0 (identity-section formulas)."""
    F = ode.F
    inv = klmw(ode)
    K, W = inv.K, inv.W
    Z, DZ = _z_data(ode)
    Fq, Fqq = pd(F, "q"), pd(F, "q", "q")
    Wq = pd(W, "q")
    cbw = pow_(W, F3(1, 3))
    cbw2 = pow_(W, F3(2, 3))
    i1 = -3 * pd(W, "q", "q") * W / (Wq * Wq)
    i2 = (3 * pd(W, "p") + Wq * Fq - Wq * Z
          - 3 * W * pd(Z, "q") - 3 * Fqq * W) / (cbw * Wq)
    i3 = -cbw2 * (2 * pd(Z, "q") + Fqq) / (2 * Wq)
    i4 = (Z * Z - 6 * DZ + 18 * K
          + 2 * Z * Fq) / (18 * cbw2)
    return {"I1p": i1, "I2p": i2, "I3p": i3, "I4p": i4}


@per_ode
def point_reduced_w4d(ode: Ode3) -> dict:
    """I5p, I7p and I8p for W = 0, F_qqqq != 0 (identity-section formulas).

    I6p as printed fails constancy even on the canonical members, so the
    gate reads these three and I6p is not built."""
    F = ode.F
    K = klmw(ode).K
    Fq, Fqq = pd(F, "q"), pd(F, "q", "q")
    F3q = pd(F, "q", "q", "q")
    F4q = pd(F, "q", "q", "q", "q")
    F5q = pd(F, "q", "q", "q", "q", "q")
    N = normalize(pd(F, "q", "q", "p") + F3(1, 6) * Fqq * Fqq
                  + F3(1, 3) * F3q * Fq)
    i5 = normalize(F3q * F5q / (F4q * F4q))
    i7 = normalize(F4q * (6 * pd(N, "q") * F3q - 6 * N * F4q
                          + Fqq * F3q * F3q) / F3q ** 4)
    i8 = normalize(F3(-2, 27) * F4q ** 4
                   * (4 * N * Fq * F3q + 6 * total_derivative(N, ode) * F3q
                      - 9 * N * N - Fqq * Fqq * N
                      - 36 * pd(K, "q", "q") * N - 6 * F3q * F3q * K)
                   / F3q ** 8)
    return {"I5p": i5, "I7p": i7, "I8p": i8}


def reduced_point_coframe(ode: Ode3, u1: Expr, u2: Expr, u3: Expr,
                          u8: Expr) -> Coframe:
    """The point coframe theta^1 = u1 w1, theta^2 = u2 w1 + u3 w2,
    theta^3 = u4 w1 + u5 w2 + u6 w3, theta^4 = u8 w1 + u7 w4, with u4..u7
    given by the reduction relations u6 = u3^2/u1, u7 = u1/u3,
    u5 = (u3/u1)(u2 - u3 F_q/3) and u4 = (u3^2/u1) K + u2^2/(2 u1)."""
    F = ode.F
    K = klmw(ode).K
    u6 = normalize(u3 * u3 / u1)
    u7 = normalize(u1 / u3)
    u5 = normalize((u3 / u1) * (u2 - F3(1, 3) * u3 * pd(F, "q")))
    u4 = normalize((u3 * u3 / u1) * K + u2 * u2 / (2 * u1))
    w1, w2, w3, w4 = _plain_omegas(ode)
    th1 = u1 * w1
    th2 = u2 * w1 + u3 * w2
    th3 = u4 * w1 + u5 * w2 + u6 * w3
    th4 = u8 * w1 + u7 * w4
    return Coframe((th1.normalized(), th2.normalized(),
                    th3.normalized(), th4.normalized()))


def point_coframe_fqqq(ode: Ode3) -> Coframe:
    """The point coframe for the branch W = 0, F_qqqq = 0, F_qqq != 0."""
    F = ode.F
    Fq, Fqq = pd(F, "q"), pd(F, "q", "q")
    F3q = pd(F, "q", "q", "q")
    G = normalize(6 * pd(F, "q", "q", "q", "p") + 5 * F3q * Fqq)
    N = normalize(pd(F, "q", "q", "p") + F3(1, 6) * Fqq * Fqq
                  + F3(1, 3) * F3q * Fq)
    u1 = normalize(-(G ** 3) / (36 * F3q ** 4))
    u2 = normalize(-G * N / (6 * F3q * F3q))
    u3 = normalize(-G / (6 * F3q))
    u8 = normalize(u1 * u1 * Fqq / (6 * u3 * u3))
    return reduced_point_coframe(ode, u1, u2, u3, u8)


def point_reduced_fqqq(ode: Ode3, config: ZeroConfig = DEFAULT_CONFIG) -> dict:
    """Structure coefficients of the F_qqq-branch coframe: all 24 slots,
    named T{i}_{ab}."""
    slots = _decompose_all(point_coframe_fqqq(ode), config)
    return {f"T{i + 1}_{a}{b}": slots[i][PAIR[(a, b)]]
            for i in range(4) for (a, b) in PAIR}


@per_ode
def point_tuple(ode: Ode3, family: str,
                config: ZeroConfig = DEFAULT_CONFIG) -> dict:
    """The sampled constants that a point table row is read from and
    compared by, taken once per family and config: I1p..I4p for "W!=0",
    I5p, I7p and I8p for "W=0", and for "F_qqq" the F_qqq-branch slots
    that are constant."""
    if family == "F_qqq":
        slots = point_reduced_fqqq(ode, config)
        exprs = {k: slots[k] for k in sorted(slots)
                 if is_constant(slots[k], config)}
    else:
        exprs = (point_reduced_w_nonzero if family == "W!=0"
                 else point_reduced_w4d)(ode)
    return {k: const_value(e, config) for k, e in exprs.items()}


# ---------------------------------------------------------- classification


def classify_point(ode: Ode3,
                   config: ZeroConfig = DEFAULT_CONFIG) -> ClassificationResult:
    return run_classifier("point", _classify_point, ode, config)


def _classify_point(ode: Ode3, config: ZeroConfig) -> ClassificationResult:
    inv = jet_invariants(ode, config)
    wz = require(inv.w_verdict, "W")
    if wz:
        return _classify_point_w0(ode, config)
    return _classify_point_wnz(ode, config)


def _classify_point_w0(ode: Ode3, config: ZeroConfig) -> ClassificationResult:
    conds = point_trivial_verdicts(ode, config)
    if require(conds["F_qqq"], "F_qqq"):
        rep = point_trivial_check(ode, config, full=True)
        if rep.trivial:
            return ClassificationResult(
                group="point", row="I.1", dimension=7,
                evidence=["W=0", "F_qqq=0", "F_qq^2+6F_qqp=0", "Cartan=0"],
                diagnostics={"c1_variant_agrees":
                             rep.c1_variant_agrees})
        if require(conds["F_qq^2+6F_qqp"], "F_qq^2+6F_qqp"):
            return ClassificationResult(
                group="point", row="general",
                evidence=["W=0", "F_qqq=0", "F_qq^2+6F_qqp=0"],
                diagnostics={"reason": "flat signature but Cartan "
                                       "condition fails",
                             "verdicts": rep.verdicts})
        sign = sign_on_domain(flat_signature(ode), config=config)
        row = "I.2" if sign < 0 else "I.3"
        return ClassificationResult(
            group="point", row=row, dimension=6,
            evidence=["W=0", "F_qqq=0", f"sgn(F_qq^2+6F_qqp)={sign:+d}"])
    if require(is_zero(pd(ode.F, "q", "q", "q", "q"), config=config),
               "F_qqqq"):
        # branch with F_qqq != 0: row I.4, whose representative is q^3
        vals = point_tuple(ode, "F_qqq", config)
        result = table_row(
            "point", "I.4", None,
            lambda r, cfg: _verify_point_rep(vals, r, "F_qqq", cfg),
            ode, Ode3.from_text("q^3"), config,
            evidence=["W=0", "F_qqqq=0", "F_qqq!=0"], diagnostics=dict(vals))
        if result.diagnostics["tuple_verified"]:
            result.evidence.append("constant coframe slots match q^3")
        return result
    if not all(is_constant(e, config)
               for e in point_reduced_w4d(ode).values()):
        return ClassificationResult(
            group="point", row="general",
            evidence=["W=0", "F_qqqq!=0"],
            diagnostics={"reason": "I5p/I7p/I8p not constant"})
    nums = point_tuple(ode, "W=0", config)
    i8 = nums["I8p"]
    if abs(i8 + 1.5) <= 1e-7:
        row, mu = "XII", None
    elif i8 > -1.5:
        row, mu = "VIII", math.sqrt(2.0 / (i8 + 1.5))
    else:
        row, mu = "IX", math.sqrt(-2.0 / (i8 + 1.5))
    return table_row(
        "point", row, mu,
        lambda r, cfg: _verify_point_rep(nums, r, "W=0", cfg),
        ode, w0_rep(row, mu), config,
        evidence=["W=0", "F_qqqq!=0", f"I8p={i8:.9g}"], diagnostics=dict(nums))


def _classify_point_wnz(ode: Ode3, config: ZeroConfig) -> ClassificationResult:
    kz = require(is_zero(point_bas_k(ode), config=config), "point k")
    ez = kz and require(is_zero(point_bas_e(ode), config=config), "point e")
    if ez and kz:
        a = bas_a(ode)
        if is_constant(a, config):
            return ClassificationResult(
                group="point", row="II.1", dimension=5,
                parameters={"mu": constant_parameter(a, config)},
                evidence=["W!=0", "e=k=0", "a constant"])
        bz = require(is_zero(point_bas_b(ode), config=config), "point b")
        hz = bz and require(is_zero(point_bas_h(ode), config=config),
                            "point h")
        if bz and hz:
            return ClassificationResult(
                group="point", row="III", dimension=4,
                parameters={"mu_of_x": normalize(a)},
                evidence=["W!=0", "b=e=h=k=0", "a nonconstant"],
                diagnostics={"a_is_x_only": _mu_of_x(a, config)})
    W = klmw(ode).W
    if require(is_zero(pd(W, "q"), config=config), "W_q"):
        return ClassificationResult(
            group="point", row="general",
            evidence=["W!=0"],
            diagnostics={"reason": "W_q = 0: no u3 reduction available"})
    vals = point_reduced_w_nonzero(ode)
    if not all(is_constant(ex, config) for ex in vals.values()):
        return ClassificationResult(
            group="point", row="general", evidence=["W!=0"],
            diagnostics={"reason": "I1p..I4p not constant"})
    nums = point_tuple(ode, "W!=0", config)
    i1, i2 = nums["I1p"], nums["I2p"]
    q, p = var("q"), var("p")
    candidates = []
    if abs(i1 + 3) <= 1e-7:
        candidates.append(("VI", None, Ode3.from_text("exp(q)")))
    else:
        mu = (i1 + 4.0) / (i1 + 3.0)
        ms = snap_rational(mu)
        if ms is not None and ms not in (0, 1, F3(3, 2), 3):
            candidates.append(("IV", ms, Ode3(pow_(q, ms))))
        # the table's I2 normalisation is a third of the raw slot value
        i2t = i2 / 3.0
        c = i2t ** 3
        cbrt4 = 4.0 ** (1.0 / 3.0)
        if not (-1e-9 <= i2t <= cbrt4 + 1e-9):
            disc = (3 * c - 12) ** 2 - 36 * (4 - c)
            if abs(4 - c) > 1e-12 and disc >= 0:
                for sgn_ in (1, -1):
                    mu = ((12 - 3 * c) + sgn_ * math.sqrt(disc)) / (2 * (4 - c))
                    ms = snap_rational(mu)
                    if ms is not None and ms > F3(3, 2) and ms != 3:
                        candidates.append(
                            ("II.2", ms, Ode3(normalize(num(ms) * q * q / p))))
        if 1e-9 < i2t < cbrt4 - 1e-9:
            mu = 3.0 * math.sqrt(c / (4.0 - c))
            ms = snap_rational(mu)
            if ms is not None and ms > 0:
                candidates.append(
                    ("II.3", ms,
                     Ode3(normalize((3 * p + num(ms)) * q * q
                                    / (p * p + 1)))))
    # the first candidate that matches; else the first one whose check
    # could not be completed
    unsettled = None
    for row, mu, rep in candidates:
        result = table_row(
            "point", row, mu,
            lambda r, cfg: _verify_point_rep(nums, r, "W!=0", cfg),
            ode, rep, config,
            evidence=["W!=0", f"I1p={i1:.9g}", f"I2p={i2:.9g}"],
            diagnostics=dict(nums))
        if result.diagnostics["tuple_verified"]:
            return result
        if result.inconclusive:
            unsettled = unsettled or result
    return unsettled or ClassificationResult(
        group="point", row="general", evidence=["W!=0"],
        diagnostics=dict(nums, reason="no canonical representative matches"))


def _verify_point_rep(nums: dict, rep: Ode3, family: str,
                      config: ZeroConfig) -> bool:
    """Match of the input's point_tuple nums with the representative's of
    the same family on config; may raise ArithmeticError."""
    return tuples_match(nums, point_tuple(rep, family, config))
