"""Fibre-preserving recognition of the reduced Chazy classes II, IV, V,
VI, VII and XI (sigma != 11), and explicit transformation recovery by
quadrature.

The canonical classes all have the form F = kappa y q + lambda p^2
+ mu y^2 p + nu y^4; matching runs through three precondition checks, the
P/Q reduction, the frame-derivative syzygies, and class-constant residuals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as F3
from typing import Callable, Optional

from .classify import exact_const, require, snap_rational
from .expr import (DEFAULT_CONFIG, Expr, JetPoint, SingularPointError,
                   ZeroConfig, abs_, eval_at, is_zero, normalize, num, pow_,
                   var)
from .forms import Coframe
from .jet import Ode3, VectorField, klmw, pd, per_ode, total_derivative
from .point import reduced_point_coframe
from .quadrature import integrate


@dataclass(frozen=True)
class ChazyClass:
    id: str
    kappa: F3
    lam: F3
    mu: F3
    nu: F3
    sigma: Optional[int] = None

    @property
    def tau(self) -> F3:
        return self.mu / self.kappa ** 2 + self.lam / (6 * self.kappa) \
            + F3(1, 4)

    @property
    def lam_over_kappa(self) -> F3:
        return self.lam / self.kappa

    @property
    def nu_over_kappa3(self) -> F3:
        return self.nu / self.kappa ** 3

    def canonical_ode(self) -> Ode3:
        y, p, q = var("y"), var("p"), var("q")
        F = (num(self.kappa) * y * q + num(self.lam) * p * p
             + num(self.mu) * y * y * p + num(self.nu) * y ** 4)
        return Ode3(normalize(F))


_FIXED = {                  # kappa, lambda, mu, nu
    "II": (-2, -2, 0, 0),
    "IV": (-3, -3, -3, 0),
    "V": (-2, -4, -2, 0),
    "VI": (-1, -5, -1, 0),
    "VII": (-1, -2, 2, 0),
}
FIXED_CLASSES = tuple(_FIXED)


def chazy_class(id_: str, sigma: Optional[int] = None) -> ChazyClass:
    if id_ in _FIXED:
        return ChazyClass(id_, *map(F3, _FIXED[id_]))
    if id_ == "XI":
        if sigma is None or not admissible_sigma(sigma):
            raise ValueError("XI needs an admissible integer sigma")
        s = F3(24, sigma * sigma - 1)
        return ChazyClass("XI", F3(-2), F3(-2) + s, 2 * s, s, sigma=sigma)
    raise ValueError(f"unknown reduced Chazy class {id_!r}")


def admissible_sigma(sigma: int) -> bool:
    return sigma >= 2 and sigma % 6 != 0 and sigma != 11


# ------------------------------------------------------------ preconditions


def chazy_preconditions(ode: Ode3,
                        config: ZeroConfig = DEFAULT_CONFIG) -> dict:
    """The three fibre-preserving invariant conditions."""
    F = ode.F
    Fqp = pd(F, "q", "p")
    return {
        "F_qq": is_zero(pd(F, "q", "q"), config=config),
        "F_qpp": is_zero(pd(F, "q", "p", "p"), config=config),
        "F_ppp": is_zero(normalize(pd(F, "p", "p", "p")
                                   - 2 * pd(F, "q", "p", "y")
                                   + F3(2, 3) * Fqp * Fqp), config=config),
    }


class NotReducibleError(ArithmeticError):
    pass


@per_ode
def _pq(ode: Ode3) -> tuple:
    """P = D F_qp - F_qy and Q = 2 W_p - D W_q + F_q W_q."""
    F = ode.F
    W = klmw(ode).W
    P = normalize(total_derivative(pd(F, "q", "p"), ode)
                  - pd(F, "q", "y"))
    Q = normalize(2 * pd(W, "p") - total_derivative(pd(W, "q"), ode)
                  + pd(F, "q") * pd(W, "q"))
    return P, Q


def chazy_PQ(ode: Ode3, config: ZeroConfig = DEFAULT_CONFIG) -> tuple:
    """(P, Q) once both are nonzero on config's box: the one zero test of
    P and Q, which the reduction and the builders below need."""
    P, Q = _pq(ode)
    if require(is_zero(P, config=config), "P"):
        raise NotReducibleError("P = 0: not reducible to a Chazy class")
    if require(is_zero(Q, config=config), "Q"):
        raise NotReducibleError("Q = 0: not reducible to a Chazy class")
    return P, Q


@per_ode
def chazy_tau(ode: Ode3) -> Expr:
    """tau recovered from Q_y + (1/3) Q F_qp - 2 tau P^2 = 0."""
    P, Q = _pq(ode)
    return normalize((pd(Q, "y") + F3(1, 3) * Q * pd(ode.F, "q", "p"))
                     / (2 * P * P))


# --------------------------------------------------------- frame and coframe


@per_ode
def chazy_coframe(ode: Ode3) -> Coframe:
    """The reduced fibre-preserving coframe on J^2.

    Group parameters: u1 = 2P^2/Q and u3 = -4P^3/Q^2, with
    u2 = -u1/(6 tau) + G2 u3 where G2 = (DP/P - S/3)/2 and
    S = F_q - p F_qp + Q/(2 tau P); G2 absorbs the x-dependent
    y-rescaling gauge and vanishes on the canonical members.  The
    remaining parameters follow the standard reduction relations
    (theta^4 = u7 omega^4)."""
    F = ode.F
    P, Q = _pq(ode)
    tau = chazy_tau(ode)
    u1 = normalize(2 * P * P / Q)
    u3 = normalize(-4 * P ** 3 / (Q * Q))
    S = normalize(pd(F, "q") - var("p") * pd(F, "q", "p")
                  + Q / (2 * tau * P))
    G2 = normalize((total_derivative(P, ode) / P - S / 3) / 2)
    u2 = normalize(-u1 / (6 * tau) + G2 * u3)
    return reduced_point_coframe(ode, u1, u2, u3, num(0))


@per_ode
def chazy_frame(ode: Ode3) -> tuple:
    """The frame dual to the reduced coframe.

    X4 = -(2P/Q) D; X1..X3 are obtained by inverting the coframe, which
    is the choice consistent with the generating-invariant relations."""
    (t1, t2, t3, t4) = chazy_coframe(ode).theta
    u1 = t1.cy
    u2, u3 = t2.cy, t2.cp
    u4, u5, u6 = t3.cy, t3.cp, t3.cq
    u7 = t4.cx
    z = num(0)
    X1 = VectorField(z, normalize(1 / u1), normalize(-u2 / (u1 * u3)),
                     normalize((u2 * u5 - u3 * u4) / (u1 * u3 * u6)))
    X2 = VectorField(z, z, normalize(1 / u3), normalize(-u5 / (u3 * u6)))
    X3 = VectorField(z, z, z, normalize(1 / u6))
    inv7 = normalize(1 / u7)
    X4 = VectorField(inv7, normalize(var("p") / u7),
                     normalize(var("q") / u7), normalize(ode.F / u7))
    return X1, X2, X3, X4


# ----------------------------------------------------------- invariants


@dataclass(frozen=True)
class ChazyInvariants:
    """What the recognition needs that does not depend on the class."""
    a: Expr
    a4: Expr             # X4(a)
    b: Expr
    c: Expr
    Xa: tuple            # X1(a), X2(a), X3(a)
    Xa4: tuple           # X1(a4) .. X4(a4)
    conditions: dict     # residuals of the reduction conditions c1, c2, c3
    c5: Expr             # c5 without its class term (2/3 - lambda/kappa) P
    P: Expr


@per_ode
def chazy_invariants(ode: Ode3) -> ChazyInvariants:
    """The basic invariants a, a4 = X4(a), b, c, their frame derivatives
    and the residual reduction conditions (the fourth defines tau)."""
    F = ode.F
    inv = klmw(ode)
    K, W = inv.K, inv.W
    P, Q = _pq(ode)
    Fq = pd(F, "q")
    Fqp = pd(F, "q", "p")
    Wq, Wp = pd(W, "q"), pd(W, "p")
    DP = total_derivative(P, ode)
    DQ = total_derivative(Q, ode)
    DWq = total_derivative(Wq, ode)

    a = normalize(P / Wq
                  + (4 * DP - F3(2, 3) * Fq * P - 2 * P * Wp / Wq) / Q
                  - 2 * P * DQ / (Q * Q))
    b = normalize((F3(5, 2) / (Wq * Wq)
                   + (-F3(10, 3) * Fq / Wq - 10 * Wp / (Wq * Wq)) / Q
                   + (-4 * pd(F, "p") - 4 * K - F3(2, 9) * Fq * Fq
                      + (F3(20, 3) * Wp * Fq
                         - 4 * total_derivative(Wp, ode) + 2 * DQ) / Wq
                      + 10 * Wp * Wp / (Wq * Wq)) / (Q * Q)) * P * P)
    c = normalize(8 * P ** 3 * W / Q ** 3)

    frame = chazy_frame(ode)
    a4 = normalize(frame[3](a))

    Wqy = pd(W, "q", "y")
    conditions = {
        "c1": normalize(2 * pd(W, "p", "p") - Wqy + Fqp * Wq),
        "c2": normalize(Wq * DP - P * DWq),
        "c3": normalize(pd(P, "y") + F3(1, 3) * P * Fqp),
    }
    c5 = normalize(pd(K, "p") + F3(1, 2) * pd(F, "q", "y")
                   - F3(5, 36) * Fq * Fqp
                   + (Fqp * DWq - F3(1, 12) * Fq * Wqy
                      + F3(1, 2) * total_derivative(Wqy, ode)) / Wq
                   - F3(3, 4) * Wqy * DWq / (Wq * Wq))
    return ChazyInvariants(
        a=a, a4=a4, b=b, c=c,
        Xa=tuple(normalize(X(a)) for X in frame[:3]),
        Xa4=tuple(normalize(X(a4)) for X in frame),
        conditions=conditions, c5=c5, P=P)


def c5_residual(cls: ChazyClass, inv: ChazyInvariants) -> Expr:
    """The fourth reduction condition, which pins lambda/kappa."""
    return normalize(inv.c5 + (F3(2, 3) - cls.lam_over_kappa) * inv.P)


def syzygy_residuals(cls: ChazyClass, inv: ChazyInvariants) -> dict:
    """Residuals of the generating-invariant relations for the class."""
    t = cls.tau
    lk = cls.lam_over_kappa
    nk3 = cls.nu_over_kappa3
    a, a4, b, c = inv.a, inv.a4, inv.b, inv.c
    X1a, X2a, X3a = inv.Xa
    X1a4, X2a4, X3a4, X4a4 = inv.Xa4
    res = {}
    res["b"] = b - ((F3(1, 3) - lk) / t * a - 1 / (2 * t)
                    + (F3(1, 3) - lk) / (12 * t * t))
    res["c"] = c - ((lk - F3(7, 6)) / t * a4
                    + 2 * (lk - F3(7, 6)) / t * a * a
                    + (-1 / t + (lk - F3(7, 6)) / (6 * t * t)) * a
                    - 1 / (2 * t * t)
                    + (lk - 144 * nk3 + F3(3, 2)) / (36 * t ** 3))
    res["a1"] = X1a - (-2 * t * a - F3(1, 6))
    res["a2"] = X2a - num(t)
    res["a3"] = X3a
    res["a41"] = X1a4 - (-3 * t * a4 + 2 * t * a * a
                         + (lk - F3(1, 6)) * a
                         + (lk - F3(1, 3)) / (12 * t) + F3(1, 2))
    res["a42"] = X2a4 - (-4 * t * a - F3(1, 6))
    res["a43"] = X3a4 - num(t)
    res["a44"] = X4a4 - (-7 * a4 * a - a4 / (6 * t) - 6 * a ** 3
                         + (lk - 1) / t * a * a
                         + (1 / t + (lk - F3(1, 2)) / (6 * t * t)) * a
                         + 1 / (6 * t * t) + (nk3 - F3(1, 72)) / t ** 3)
    return {k: normalize(v) for k, v in res.items()}


# ------------------------------------------------------------ classification


@dataclass
class ChazyReport:
    preconditions: dict
    P: Optional[Expr] = None
    Q: Optional[Expr] = None
    tau: Optional[object] = None
    matched: Optional[ChazyClass] = None
    cond40: dict = field(default_factory=dict)
    syzygy_status: dict = field(default_factory=dict)
    reason: str = ""


def chazy_classify(ode: Ode3,
                   config: ZeroConfig = DEFAULT_CONFIG) -> ChazyReport:
    pre = chazy_preconditions(ode, config)
    report = ChazyReport(preconditions={k: v.status for k, v in pre.items()})
    if not all(require(v, f"precondition {k}") for k, v in pre.items()):
        report.reason = "preconditions fail"
        return report
    try:
        P, Q = chazy_PQ(ode, config)
    except NotReducibleError as exc:
        report.reason = str(exc)
        return report
    report.P, report.Q = P, Q
    if require(is_zero(pd(klmw(ode).W, "q"), config=config), "W_q"):
        report.reason = "W_q = 0: frame degenerate"
        return report
    tau_expr = chazy_tau(ode)
    report.tau = tau_expr
    texact = exact_const(tau_expr)
    if texact is None:
        from .classify import is_constant, const_value
        if not is_constant(tau_expr, config):
            report.reason = "tau is not constant"
            return report
        texact = snap_rational(const_value(tau_expr, config), max_den=10000)
        if texact is None:
            report.reason = "tau does not snap to a rational"
            return report
    report.tau = texact
    candidates = [chazy_class(cid) for cid in FIXED_CLASSES]
    # XI: tau = 5/12 + 10/(sigma^2 - 1) pins sigma
    excess = texact - F3(5, 12)
    if excess > 0:
        s2 = 1 + F3(10, 1) / excess
        if s2.denominator == 1:
            root = math.isqrt(s2.numerator)
            if root * root == s2.numerator and admissible_sigma(root):
                candidates.append(chazy_class("XI", sigma=root))
    candidates = [cls for cls in candidates if cls.tau == texact]
    if candidates:
        inv = chazy_invariants(ode)
        conditions = {k: is_zero(e, config=config)
                      for k, e in inv.conditions.items()}
    for i, cls in enumerate(candidates, 1):
        cond40 = dict(conditions,
                      c5=is_zero(c5_residual(cls, inv), config=config))
        cond_ok = all(require(v, f"condition {k}")
                      for k, v in cond40.items())
        if not cond_ok and i < len(candidates):
            continue        # the next candidate's statuses replace these
        res = syzygy_residuals(cls, inv)
        verdicts = {k: is_zero(v, config=config) for k, v in res.items()}
        report.cond40 = {k: v.status for k, v in cond40.items()}
        report.syzygy_status = {k: v.status for k, v in verdicts.items()}
        if cond_ok and all(require(v, f"syzygy {k}")
                           for k, v in verdicts.items()):
            report.matched = cls
            return report
    if not report.reason:
        report.reason = "no reduced Chazy class matches"
    return report


# ---------------------------------------------------------------- transform


@dataclass(frozen=True)
class ChazyMaps:
    """Numeric equivalence maps xbar(x) and ybar(x, y) onto the matched
    canonical class, plus the symbolic integrands."""

    x_integrand: Expr        # d log|ybar| / dx part
    y_integrand: Expr        # d log|ybar| / dy part at x = x0
    xbar_integrand: Expr     # Q/(P ybar) (y-independent for true members)
    ybar: Callable[[float, float], float]
    xbar: Callable[[float], float]


class ChazyTransformError(ArithmeticError):
    pass


def _guard_eval(e: Expr, at) -> float:
    return eval_at(e, at, margin=1e-9)


def chazy_transform(ode: Ode3, base: JetPoint, c1: float, c2: float,
                    matched: Optional[ChazyClass] = None,
                    config: ZeroConfig = DEFAULT_CONFIG) -> ChazyMaps:
    """Reconstruct the fibre-preserving map onto the canonical class by
    quadrature of the closed-form logarithmic derivatives.

    The inner y-integral runs at x = x0, the outer x-integral at the
    requested y; the xbar integrand evaluates ybar along y = y0.  A base
    point where P or Q vanishes raises ChazyTransformError before anything
    is built.
    """
    if c1 == 0:
        raise ValueError("c1 must be nonzero")
    if matched is None:
        report = chazy_classify(ode, config)
        if report.matched is None:
            raise ChazyTransformError(
                f"no Chazy class matched: {report.reason}")
        matched = report.matched
    P, Q = _pq(ode)
    for name, e in (("P", P), ("Q", Q)):
        _guard_eval(e, base)                # a pole of e raises here
        try:                                # the pole guard on 1/e
            _guard_eval(pow_(e, -1), base)
        except SingularPointError:
            raise ChazyTransformError(
                f"{name} = 0 at the base point {base}: the maps divide "
                f"by P and Q") from None
    tau = chazy_tau(ode)
    F = ode.F
    kappa = float(matched.kappa)

    prefactor = normalize(pow_(abs_(normalize(Q * Q / P ** 3)),
                                F3(1, 2)))
    x_integrand = normalize(-Q / (12 * tau * P)
                            + F3(1, 6) * (var("p") * pd(F, "q", "p")
                                          - pd(F, "q")))
    y_integrand = normalize(2 * tau * P * P / Q)

    x0, y0 = base.x, base.y
    p0, q0 = base.p, base.q

    def log_ybar(x: float, y: float) -> float:
        envx = {"x": x, "y": y, "p": p0, "q": q0}
        env0 = {"x": x0, "y": y, "p": p0, "q": q0}
        base_term = math.log(_guard_eval(prefactor, envx)) \
            - math.log(_guard_eval(prefactor, env0))
        ypart = integrate(
            lambda s: _guard_eval(y_integrand,
                                  {"x": x0, "y": s, "p": p0, "q": q0}),
            y0, y)
        xpart = integrate(
            lambda t: _guard_eval(x_integrand,
                                  {"x": t, "y": y, "p": p0, "q": q0}),
            x0, x)
        return base_term + ypart + xpart

    sign0 = math.copysign(1.0, c1)

    def ybar(x: float, y: float) -> float:
        return sign0 * abs(c1) * math.exp(log_ybar(x, y))

    xbar_integrand = normalize(Q / P)
    tau0 = eval_at(tau, base)

    def xbar(x: float) -> float:
        val = integrate(
            lambda t: _guard_eval(xbar_integrand,
                                  {"x": t, "y": y0, "p": p0, "q": q0})
            / ybar(t, y0),
            x0, x)
        return -val / (2.0 * kappa * tau0) + c2

    return ChazyMaps(x_integrand=x_integrand, y_integrand=y_integrand,
                     xbar_integrand=xbar_integrand, ybar=ybar, xbar=xbar)

