"""Geometric structures on the solution space at the identity section:
conformal metric, Cotton components, the Einstein-Weyl pair with its
curvature functions, the Lorentzian reduction test, and the normal
connection forms."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F3

from .expr import (DEFAULT_CONFIG, Expr, ZeroConfig, is_zero, normalize, num,
                   sign_on_domain, var)
from .forms import DX, Coframe, OneForm, d, decompose
from .jet import Ode3, jet_invariants, klmw, pd, per_ode, total_derivative


class NonWunschmannError(ArithmeticError):
    """The construction needs W = 0 and the ODE has W != 0."""


class WeylGateError(ArithmeticError):
    """The second (Cartan) projectability condition fails."""


class RicciZeroError(ArithmeticError):
    """The Einstein-Weyl Ricci scalar vanishes; no Lorentzian reduction."""


def _w_zero(ode: Ode3, config: ZeroConfig) -> None:
    """Raise NonWunschmannError unless W is zero on config's box."""
    wv = jet_invariants(ode, config).w_verdict
    if not wv.is_zero:
        raise NonWunschmannError(f"Wunschmann invariant is {wv.status}")


@per_ode
def omega_forms(ode: Ode3) -> tuple:
    """The forms (omega^1, omega^2, omega~^3, omega^4) attached to F."""
    F = ode.F
    K = klmw(ode).K
    Fq = pd(F, "q")
    w1 = OneForm(-var("p"), num(1), num(0), num(0))
    w2 = OneForm(-var("q"), num(0), num(1), num(0))
    w3 = OneForm(normalize(-F + F3(1, 3) * Fq * var("q") - K * var("p")),
                 K, -F3(1, 3) * Fq, num(1))
    w4 = OneForm(num(1), num(0), num(0), num(0))
    return w1, w2, w3, w4


def point_omega4(ode: Ode3) -> OneForm:
    """omega~^4 = dx + (1/6) F_qq (dy - p dx) of the point reduction."""
    c = F3(1, 6) * pd(ode.F, "q", "q")
    return OneForm(normalize(num(1) - c * var("p")), normalize(c),
                   num(0), num(0))


def _sym(a: OneForm, b: OneForm) -> list:
    ac, bc = a.components(), b.components()
    return [[normalize(F3(1, 2) * (ac[i] * bc[j] + ac[j] * bc[i]))
             for j in range(4)] for i in range(4)]


@dataclass(frozen=True)
class QuadraticForm4:
    """Symmetric 4x4 matrix of Expr coefficients in (dx, dy, dp, dq)."""

    m: tuple  # 4-tuple of 4-tuples

    def apply(self, vf) -> tuple:
        """Contract with a vector field: the four covector components."""
        comps = vf.components()
        return tuple(sum((self.m[i][j] * comps[j] for j in range(4)),
                         num(0)) for i in range(4))


@per_ode
def metric(ode: Ode3) -> QuadraticForm4:
    """g = 2 omega^1 omega~^3 - (omega^2)^2, built from the ODE alone: no
    W verdict is taken, so a caller that has not found W = 0 itself calls
    conformal_metric instead."""
    w1, w2, w3, _w4 = omega_forms(ode)
    s13 = _sym(w1, w3)
    s22 = _sym(w2, w2)
    rows = tuple(tuple(normalize(2 * s13[i][j] - s22[i][j]) for j in range(4))
                 for i in range(4))
    return QuadraticForm4(rows)


def conformal_metric(ode: Ode3,
                     config: ZeroConfig = DEFAULT_CONFIG) -> QuadraticForm4:
    """metric(ode), once W is zero on config's box."""
    _w_zero(ode, config)
    return metric(ode)


def cotton_components(ode: Ode3,
                      config: ZeroConfig = DEFAULT_CONFIG) -> tuple:
    """cotton(ode), once W is zero on config's box."""
    _w_zero(ode, config)
    return cotton(ode)


@per_ode
def cotton(ode: Ode3) -> tuple:
    """The three Cotton 2-form components at the identity section, built
    from the ODE alone: no W verdict is taken, so a caller that has not
    found W = 0 itself calls cotton_components instead."""
    F = ode.F
    inv = klmw(ode)
    K, L, M = inv.K, inv.L, inv.M
    Kq = pd(K, "q")
    w1, w2, w3, _ = omega_forms(ode)

    from .forms import wedge
    w12 = wedge(w1, w2)
    w13 = wedge(w1, w3)
    w23 = wedge(w2, w3)

    c_a = normalize(
        F3(1, 2) * pd(M, "p") + F3(1, 6) * pd(F, "q") * pd(M, "q")
        + F3(1, 6) * pd(F, "q", "q", "q") * pd(K, "y")
        + Kq * pd(L, "q")
        - F3(1, 6) * K * K * pd(F, "q", "q", "q", "q")
        + F3(1, 6) * Kq * pd(F, "q", "q", "y")
        - F3(1, 6) * pd(F, "q", "q", "y", "y")
        - F3(1, 3) * pd(F, "q", "q", "q") * Kq * K
        + F3(1, 3) * pd(F, "q", "q", "y") * K)
    c_b = normalize(F3(1, 2) * (pd(M, "q") - pd(K, "q", "q", "q") * K
                                - 2 * pd(K, "q", "q") * Kq
                                + pd(K, "q", "q", "y")))
    c_lqq = pd(L, "q", "q")
    c_kqqq = pd(K, "q", "q", "q")

    dp1 = (c_a * w12 + c_b * w13 - F3(1, 2) * c_lqq * w23).normalized()
    dp2 = (c_b * w12 - c_lqq * w13 + F3(1, 2) * c_kqqq * w23).normalized()
    dp3 = (-F3(1, 2) * c_lqq * w12 + F3(1, 2) * c_kqqq * w13
           - F3(1, 6) * pd(F, "q", "q", "q", "q") * w23).normalized()
    return dp1, dp2, dp3


def cartan_second_condition(ode: Ode3) -> Expr:
    """Cartan's projectability invariant D^2 F_qq - D F_qp + F_qy."""
    F = ode.F
    return normalize(total_derivative(total_derivative(pd(F, "q", "q"), ode), ode)
                     - total_derivative(pd(F, "q", "p"), ode)
                     + pd(F, "q", "y"))


def c1_flatness_combination(ode: Ode3) -> Expr:
    """The alternative C1-based flatness combination
    2 F_qq K + (2/3) F_q F_qp - 2 F_qy + F_pp (diagnostic only; it is
    inconsistent with the swap oracle on F = 3q^2/p)."""
    F = ode.F
    K = klmw(ode).K
    return normalize(2 * pd(F, "q", "q") * K
                     + F3(2, 3) * pd(F, "q") * pd(F, "q", "p")
                     - 2 * pd(F, "q", "y") + pd(F, "p", "p"))


@per_ode
def point_b_functions(ode: Ode3) -> tuple:
    """B1, B2, B4 at the identity section: basic point invariants and
    Einstein-Weyl curvature functions both."""
    F = ode.F
    K = klmw(ode).K
    Fq, Fqq = pd(F, "q"), pd(F, "q", "q")
    B1 = normalize(F3(1, 18) * pd(F, "q", "q", "q") * Fq
                   + F3(1, 36) * Fqq * Fqq + F3(1, 6) * pd(F, "q", "q", "p"))
    B2 = normalize(F3(1, 6) * pd(F, "q", "q", "q"))
    B4 = normalize(pd(K, "q", "q") + F3(1, 9) * pd(F, "q", "q", "q") * Fq
                   + F3(1, 3) * pd(F, "q", "q", "p")
                   + F3(1, 12) * Fqq * Fqq)
    return B1, B2, B4


@per_ode
def weyl_b_functions(ode: Ode3) -> tuple:
    """B1..B4 of the Einstein-Weyl curvature at the identity section."""
    F = ode.F
    inv = klmw(ode)
    K, L = inv.K, inv.L
    Fq, Fqq = pd(F, "q"), pd(F, "q", "q")
    B1, B2, B4 = point_b_functions(ode)
    B3 = normalize(F3(1, 6) * pd(F, "q", "q", "y")
                   - F3(1, 3) * Fqq * pd(K, "q")
                   - F3(1, 6) * pd(F, "q", "q", "q") * K
                   - F3(1, 18) * Fqq * pd(F, "q", "p")
                   - F3(1, 54) * Fqq * Fqq * Fq
                   - pd(L, "q"))
    return B1, B2, B3, B4


def lorentz_scalar(ode: Ode3) -> Expr:
    """6 B4 = 6 K_qq + (2/3) F_qqq F_q + 2 F_qqp + (1/2) F_qq^2."""
    return normalize(6 * point_b_functions(ode)[2])


@dataclass(frozen=True)
class WeylData:
    g: QuadraticForm4
    phi: OneForm
    B1: Expr
    B2: Expr
    B3: Expr
    B4: Expr
    R: Expr


def weyl_structure(ode: Ode3,
                   config: ZeroConfig = DEFAULT_CONFIG) -> WeylData:
    """The Einstein-Weyl pair (g, phi); gated on W = 0 and the Cartan
    condition D^2 F_qq - D F_qp + F_qy = 0."""
    _w_zero(ode, config)
    cart = cartan_second_condition(ode)
    cv = is_zero(cart, config=config)
    if not cv.is_zero:
        raise WeylGateError(f"Cartan condition is {cv.status}")
    g = metric(ode)
    F = ode.F
    K = klmw(ode).K
    w1, w2, _w3, _w4 = omega_forms(ode)
    coef1 = normalize(-(2 * pd(K, "q")
                        + F3(1, 9) * pd(F, "q", "q") * pd(F, "q")
                        + F3(1, 3) * pd(F, "q", "p")))
    phi = (coef1 * w1 + (F3(1, 3) * pd(F, "q", "q")) * w2
           + (F3(1, 3) * pd(F, "q")) * DX).normalized()
    B1, B2, B3, B4 = weyl_b_functions(ode)
    return WeylData(g=g, phi=phi, B1=B1, B2=B2, B3=B3, B4=B4,
                    R=normalize(6 * B4))


def maxwell_matches_b(ode: Ode3, config: ZeroConfig = DEFAULT_CONFIG) -> bool:
    """d(phi) == 2 B3 w1^w2 + (2 B4 - 2 B1) w1^w3 - 2 B2 w2^w3 in the point
    cobasis (w1, w2, w~3, w~4), coefficientwise."""
    data = weyl_structure(ode, config)
    w1, w2, w3, _ = omega_forms(ode)
    cof = Coframe((w1, w2, w3, point_omega4(ode)))
    coeffs = decompose(d(data.phi), cof, config)
    want = (2 * data.B3, normalize(2 * data.B4 - 2 * data.B1),
            num(0), -2 * data.B2, num(0), num(0))
    return all(is_zero(got - w, config=config).is_zero
               for got, w in zip(coeffs, want))


@dataclass(frozen=True)
class LorentzResult:
    ok: bool
    sign: int = 0
    reason: str = ""


def lorentz_check(ode: Ode3,
                  config: ZeroConfig = DEFAULT_CONFIG) -> LorentzResult:
    """Lorentzian reduction: W = 0, nonzero Ricci scalar of consistent
    sign, and vanishing weighted transport (D + (2/3) F_q) scalar."""
    _w_zero(ode, config)
    s = lorentz_scalar(ode)
    sv = is_zero(s, config=config)
    if sv.is_zero:
        raise RicciZeroError("Einstein-Weyl Ricci scalar vanishes")
    if sv.status == "inconclusive":
        return LorentzResult(False, reason="inconclusive scalar verdict")
    sign = sign_on_domain(s, config=config)
    transport = normalize(total_derivative(s, ode)
                          + F3(2, 3) * pd(ode.F, "q") * s)
    tv = is_zero(transport, config=config)
    if not tv.is_zero:
        return LorentzResult(False, sign=sign,
                             reason=f"weighted transport is {tv.status}")
    return LorentzResult(True, sign=sign)


def normal_connection_forms(ode: Ode3) -> dict:
    """omega^1..omega^4 and Omega_1^0..Omega_6^0 at the identity section."""
    F = ode.F
    K, L, M, W = klmw(ode)
    w1, w2, w3, w4 = omega_forms(ode)
    Fq, Fqq = pd(F, "q"), pd(F, "q", "q")
    Kq, Kqq = pd(K, "q"), pd(K, "q", "q")
    Wq, Wqq = pd(W, "q"), pd(W, "q", "q")
    om1 = (-Kq) * w1
    om2 = (normalize(F3(1, 3) * Wq + L)) * w1 + (-Kq) * w2 + (-K) * w4
    om3 = (-Kq) * w1 + (F3(1, 6) * Fqq) * w2 + (F3(1, 3) * Fq) * w4
    om4 = (normalize(-(F3(1, 3) * Wqq + pd(L, "q")))) * w1 \
        + (F3(1, 2) * Kqq) * w2
    om5 = (F3(1, 2) * Kqq) * w1 + (-F3(1, 6) * pd(F, "q", "q", "q")) * w2 \
        + (-F3(1, 6) * Fqq) * w4
    om6 = (normalize(F3(1, 3) * total_derivative(Wqq, ode)
                     - F3(4, 3) * pd(W, "q", "p") - F3(1, 3) * Fq * Wqq
                     + F3(1, 3) * pd(F, "q", "q", "q") * W + M)) * w1 \
        + (normalize(F3(1, 3) * (pd(F, "q", "q", "y")
                                 - pd(F, "q", "q", "q") * K - Wqq))) * w2 \
        + (-Kqq) * w3 \
        + (normalize(F3(2, 3) * pd(F, "q", "y") - F3(1, 3) * Fqq * K
                     - 2 * L - F3(4, 3) * Wq)) * w4
    return {"omega1": w1.normalized(), "omega2": w2.normalized(),
            "omega3": w3.normalized(), "omega4": w4.normalized(),
            "Omega1": om1.normalized(), "Omega2": om2.normalized(),
            "Omega3": om3.normalized(), "Omega4": om4.normalized(),
            "Omega5": om5.normalized(), "Omega6": om6.normalized()}
