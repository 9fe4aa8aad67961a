"""Contact-equivalence pipeline: branch detection, the five-dimensional
basic functions, the fully reduced coframe invariants, the large-symmetry
table, linearizability, and contact-projective data."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as F3
from typing import Optional

from .classify import (ClassificationResult, InconclusiveError, const_value,
                       constant_parameter, is_constant, require,
                       run_classifier, snap_rational, table_row,
                       tuples_match)
from .expr import (DEFAULT_CONFIG, Expr, ZeroConfig, abs_, atan, exp, is_zero,
                   normalize, num, pow_, sign_on_domain, var)
from .forms import Coframe, OneForm, d, decompose, decompose_many
from .jet import (Ode3, WunschmannZeroError, jet_invariants, klmw, pd,
                  per_ode, total_derivative)

TRIVIAL_FLAT = "trivial-flat"
W0_FQQQQ = "W0-Fqqqq"
W_NONZERO = "Wnonzero"

CBRT6_OVER_3 = 6.0 ** (1.0 / 3.0) / 3.0


class NotApplicableError(ArithmeticError):
    pass


@dataclass(frozen=True)
class BranchResult:
    branch: str
    w_verdict: object
    fqqqq_verdict: object


@per_ode
def contact_branch(ode: Ode3,
                   config: ZeroConfig = DEFAULT_CONFIG) -> BranchResult:
    """trivial-flat iff W = 0 and F_qqqq = 0 (contact equivalent to y'''=0);
    taken once per config."""
    wv = jet_invariants(ode, config).w_verdict
    fv = is_zero(pd(ode.F, "q", "q", "q", "q"), config=config)
    if wv.status == "inconclusive" or fv.status == "inconclusive":
        raise InconclusiveError("contact branch verdicts inconclusive")
    if wv.is_zero:
        return BranchResult(TRIVIAL_FLAT if fv.is_zero else W0_FQQQQ, wv, fv)
    return BranchResult(W_NONZERO, wv, fv)


# --------------------------------------------------- five-dimensional layer


@dataclass(frozen=True)
class ContactInvariants5d:
    """Basic functions of the five-dimensional reduction at u = 1.

    The u-weights are (a, b, e, h, k) -> (0, -1, -1, -1, -2)."""

    a: Expr
    b: Expr
    e: Expr
    h: Expr
    k: Expr
    a_constant: bool
    u_weights: tuple = (0, -1, -1, -1, -2)


@per_ode
def _z_data(ode: Ode3) -> tuple:
    """(Z, DZ) for the W != 0 reductions: klmw's Z and its D."""
    Z = klmw(ode).Z
    return Z, total_derivative(Z, ode)


@per_ode
def bas_a(ode: Ode3) -> Expr:
    inv = klmw(ode)
    Z, DZ = _z_data(ode)
    Fq = pd(ode.F, "q")
    return (inv.K + Z * Z / 18 + Z * Fq / 9 - DZ / 3) \
        / pow_(inv.W, F3(2, 3))


def omega_section(ode: Ode3) -> OneForm:
    """The fifth reduced form at the section u = 1."""
    F = ode.F
    W = klmw(ode).W
    Z, DZ = _z_data(ode)
    Fq = pd(F, "q")
    Wq, Wp = pd(W, "q"), pd(W, "p")
    w1, w2, w3, w4 = _plain_omegas(ode)
    c1 = normalize((Wq * DZ / 9 - Wq * Z * Z / 27 + Wp * Z / 9) / W
                   - pd(Z, "p") / 3 - Fq * pd(Z, "q") / 9)
    c2 = normalize(Wp / (3 * W) - pd(Z, "q") / 3)
    c3 = normalize(Wq / (3 * W))
    c4 = normalize(Fq / 3)
    return (c1 * w1 + c2 * w2 + c3 * w3 + c4 * w4).normalized()


@per_ode
def _dtheta3_slots(ode: Ode3, config: ZeroConfig = DEFAULT_CONFIG) -> tuple:
    """Structure coefficients of d(theta^3) - Omega ^ theta^3 at u = 1.

    In lexicographic slot order these are (b, c, -1, e, a, 0); reading b
    off the structure equation keeps the identity "a constant and k = 0
    force b = 0" exact, which closed forms for b tend to break.  The solve
    picks its pivots by zero tests on config's box, so the slots are kept
    once per config.
    """
    from .forms import wedge
    cof = nonwunschmann_coframe(ode, num(1))
    om = omega_section(ode)
    B = d(cof.theta[2]) - wedge(om, cof.theta[2])
    return decompose(B, cof, config)


def bas_b(ode: Ode3, config: ZeroConfig = DEFAULT_CONFIG) -> Expr:
    return _dtheta3_slots(ode, config)[PAIR[(1, 2)]]


@per_ode
def bas_e(ode: Ode3) -> Expr:
    F = ode.F
    inv = klmw(ode)
    W, Z = inv.W, inv.Z
    Wq = pd(W, "q")
    return pd(F, "q", "q") / 3 \
        + (F3(2, 9) * Wq * Z - F3(2, 3) * pd(W, "p")
           - F3(2, 9) * Wq * pd(F, "q")) / W


@per_ode
def bas_h(ode: Ode3) -> Expr:
    F = ode.F
    W = klmw(ode).W
    Z, DZ = _z_data(ode)
    Wq = pd(W, "q")
    return ((Wq * Z * Z / 9 - pd(W, "p") * Z / 3 + pd(W, "y")
             - Wq * DZ / 3) / W
            + total_derivative(pd(Z, "q"), ode)
            + pd(F, "q") * pd(Z, "q") / 3) \
        / (3 * pow_(W, F3(1, 3)))


@per_ode
def bas_k(ode: Ode3) -> Expr:
    W = klmw(ode).W
    Wq = pd(W, "q")
    return (F3(2, 9) * Wq * Wq / W - pd(W, "q", "q") / 3) \
        / pow_(W, F3(1, 3))


def invariants_5d(ode: Ode3,
                  config: ZeroConfig = DEFAULT_CONFIG) -> ContactInvariants5d:
    br = contact_branch(ode, config)
    if br.branch != W_NONZERO:
        raise WunschmannZeroError("five-dimensional reduction needs W != 0")
    a = bas_a(ode)
    return ContactInvariants5d(a=a, b=bas_b(ode, config), e=bas_e(ode),
                               h=bas_h(ode), k=bas_k(ode),
                               a_constant=is_constant(a, config))


# ------------------------------------------------------ reduced coframes


def _plain_omegas(ode: Ode3) -> tuple:
    p, q = var("p"), var("q")
    w1 = OneForm(-p, num(1), num(0), num(0))
    w2 = OneForm(-q, num(0), num(1), num(0))
    w3 = OneForm(normalize(-ode.F), num(0), num(0), num(1))
    w4 = OneForm(num(1), num(0), num(0), num(0))
    return w1, w2, w3, w4


def _u_nonwunschmann(ode: Ode3, case: int, config: ZeroConfig) -> Expr:
    """The last group-parameter substitution for reduction case 1..4."""
    W = klmw(ode).W
    if case == 1:
        X = normalize(F3(2, 9) * pd(W, "q") ** 2 / W - pd(W, "q", "q") / 3)
        return normalize(pow_(abs_(W), F3(-1, 6)) * pow_(abs_(X), F3(1, 2)))
    if case == 2:
        return bas_e(ode)
    if case == 3:
        return bas_h(ode)
    return bas_b(ode, config)


def nonwunschmann_coframe(ode: Ode3, u: Expr) -> Coframe:
    """The reduced contact coframe on J^2 for W != 0."""
    inv = klmw(ode)
    K, W, Z = inv.K, inv.W, inv.Z
    F = ode.F
    w1, w2, w3, w4 = _plain_omegas(ode)
    cbw = pow_(W, F3(1, 3))
    cbw2 = pow_(W, F3(2, 3))
    th1 = (normalize(u * cbw)) * w1
    th2 = (normalize(u * Z / 3)) * w1 + u * w2
    th3 = (normalize(u / cbw * (K + Z * Z / 18))) * w1 \
        + (normalize(u / cbw * (Z - pd(F, "q")) / 3)) * w2 \
        + (normalize(u / cbw)) * w3
    th4 = (normalize(pd(W, "q") * Z / (9 * cbw2) - cbw * pd(Z, "q") / 3)) * w1 \
        + (normalize(pd(W, "q") / (3 * cbw2))) * w2 \
        + cbw * w4
    return Coframe((th1.normalized(), th2.normalized(),
                    th3.normalized(), th4.normalized()))


def _u_w4d(ode: Ode3, config: ZeroConfig) -> tuple:
    """Reduction case and u for the branch W = 0, F_qqqq != 0."""
    F = ode.F
    inv = klmw(ode)
    K, L = inv.K, inv.L
    Fq4 = pd(F, "q", "q", "q", "q")
    Kqqq = pd(K, "q", "q", "q")
    Lqq = pd(L, "q", "q")
    disc1 = normalize(2 * Lqq * Fq4 - 3 * Kqqq * Kqqq)
    if require(is_zero(disc1, config=config), "W4d case-1 discriminant") is False:
        u = normalize(pow_(9 * Lqq - F3(27, 2) * Kqqq * Kqqq / Fq4, F3(1, 3)))
        return 1, u
    Fq5 = pd(F, "q", "q", "q", "q", "q")
    disc2 = normalize(5 * pd(F, "q", "q", "q", "q", "q", "q") * Fq4
                      - 6 * Fq5 * Fq5)
    if require(is_zero(disc2, config=config), "W4d case-2 discriminant") is False:
        u = normalize(25 * Fq4 ** 3 / disc2)
        return 2, u
    u = normalize(pd(F, "q", "q") / 3
                  + (F3(18, 5) * pd(K, "q", "q", "q", "q")
                     + F3(2, 5) * pd(F, "q", "q", "q", "q", "p")
                     + F3(2, 15) * pd(F, "q") * Fq5) / Fq4
                  - F3(12, 5) * Fq5 * Kqqq / (Fq4 * Fq4))
    if require(is_zero(u, config=config), "W4d case-3 quantity"):
        raise NotApplicableError("all W4d reduction quantities vanish")
    return 3, u


def w4d_coframe(ode: Ode3, u: Expr) -> Coframe:
    K = klmw(ode).K
    F = ode.F
    Fq4 = pd(F, "q", "q", "q", "q")
    Fq5 = pd(F, "q", "q", "q", "q", "q")
    Kqqq = pd(K, "q", "q", "q")
    w1, w2, w3, w4 = _plain_omegas(ode)
    root = pow_(abs_(normalize(u / Fq4)), F3(1, 2))
    inv_root = pow_(abs_(normalize(Fq4 / u)), F3(1, 2))
    th1 = (normalize(u * u * root)) * w1
    th2 = (normalize(-3 * u * Kqqq / Fq4)) * w1 + u * w2
    th3 = (normalize(inv_root * (K + F3(9, 2) * Kqqq ** 2 / Fq4 ** 2))) * w1 \
        + (normalize(-inv_root * (pd(F, "q") / 3 + 3 * Kqqq / Fq4))) * w2 \
        + inv_root * w3
    th4 = (normalize(u * root * (3 * pd(K, "q", "q", "q", "q") / Fq4
                                 - F3(12, 5) * Fq5 * Kqqq / Fq4 ** 2))) * w1 \
        + (normalize(-u * root * Fq5 / (5 * Fq4))) * w2 \
        + (normalize(u * root)) * w4
    return Coframe((th1.normalized(), th2.normalized(),
                    th3.normalized(), th4.normalized()))


@dataclass(frozen=True)
class ContactCoframeInvariants:
    branch: str
    case: int
    eps: int                 # epsilon_1 (W != 0) or epsilon_2 (W = 0)
    I: dict                  # {"I1": Expr, ...} per branch
    slots: dict              # all decomposed structure coefficients


def _decompose_all(cof: Coframe, config: ZeroConfig) -> list:
    return decompose_many([d(th) for th in cof.theta], cof, config)


PAIR = {(1, 2): 0, (1, 3): 1, (1, 4): 2, (2, 3): 3, (2, 4): 4, (3, 4): 5}
# "dtheta1@12" to "dtheta4@34", in the order _decompose_all returns them
_SLOT_NAMES = tuple(f"dtheta{i}@{j}{k}" for i in range(1, 5) for j, k in PAIR)

# Per branch of the reduced coframe: the slots that must equal -1, the
# invariants, and the slot whose sign is epsilon with its label.
_SLOT_TABLE = {
    W_NONZERO: (("dtheta1@24", "dtheta2@34", "dtheta3@14"),
                {"I1": "dtheta1@13", "I2": "dtheta1@14",
                 "I3": "dtheta2@14", "I4": "dtheta3@23"},
                ("dtheta4@23", "epsilon1 slot")),
    W0_FQQQQ: (("dtheta1@24", "dtheta2@34"),
               {"I5": "dtheta1@13", "I6": "dtheta1@14",
                "I7": "dtheta3@23", "I8": "dtheta4@23"},
               ("dtheta2@14", "epsilon2 slot")),
}


@per_ode
def invariants_reduced(ode: Ode3, config: ZeroConfig = DEFAULT_CONFIG
                       ) -> ContactCoframeInvariants:
    br = contact_branch(ode, config)
    if br.branch == TRIVIAL_FLAT:
        raise NotApplicableError("trivial-flat: no reduced coframe")
    if br.branch == W_NONZERO:
        case = _reduction_case(ode, config)
        if case == 0:
            raise NotApplicableError(
                "b = e = h = k = 0: linearizable, no coframe reduction")
        cof = nonwunschmann_coframe(ode, _u_nonwunschmann(ode, case, config))
    else:  # W = 0, F_qqqq != 0
        case, u = _u_w4d(ode, config)
        cof = w4d_coframe(ode, u)
    checks, names, (eps_slot, eps_label) = _SLOT_TABLE[br.branch]
    coeffs = _decompose_all(cof, config)
    slots = dict(zip(_SLOT_NAMES, (c for row in coeffs for c in row)))
    for name in checks:
        v = is_zero(slots[name] - num(-1), config=config)
        if not v.is_zero:
            raise ArithmeticError(
                f"coframe self-check failed: {name} is {v.status}")
    I = {nm: slots[slot] for nm, slot in names.items()}
    eps_expr = slots[eps_slot]
    if require(is_zero(eps_expr, config=config), eps_label):
        eps = 0
    else:
        eps = sign_on_domain(eps_expr, config=config)
    return ContactCoframeInvariants(branch=br.branch, case=case, eps=eps,
                                    I=I, slots=slots)


# ---------------------------------------------------------- classification


@per_ode
def _reduction_case(ode: Ode3, config: ZeroConfig) -> int:
    """The W != 0 reduction case: 1 to 4 for the first of k, e, h, b
    (cheapest first) that is nonzero, 0 when all four vanish; taken once
    per config."""
    for case, (nm, builder) in enumerate(
            (("k", bas_k), ("e", bas_e), ("h", bas_h),
             ("b", lambda o: bas_b(o, config))), 1):
        if not require(is_zero(builder(ode), config=config), nm):
            return case
    return 0


def _mu_of_x(a: Expr, config: ZeroConfig) -> bool:
    from .expr import partial_is_zero
    return all(require(partial_is_zero(a, v, config=config), f"a_{v}")
               for v in ("y", "p", "q"))


def classify_contact(ode: Ode3,
                     config: ZeroConfig = DEFAULT_CONFIG) -> ClassificationResult:
    return run_classifier("contact", _classify_contact, ode, config)


def _classify_contact(ode: Ode3, config: ZeroConfig) -> ClassificationResult:
    br = contact_branch(ode, config)
    if br.branch == TRIVIAL_FLAT:
        return ClassificationResult(
            group="contact", row="I", dimension=10,
            evidence=["W=0", "F_qqqq=0"])
    wnz = br.branch == W_NONZERO
    if wnz:
        case = _reduction_case(ode, config)
        a = bas_a(ode)
        if case == 0:
            if is_constant(a, config):
                return ClassificationResult(
                    group="contact", row="II", dimension=5,
                    parameters={"mu": constant_parameter(a, config)},
                    evidence=["W!=0", "b=e=h=k=0", "a constant"])
            return ClassificationResult(
                group="contact", row="III", dimension=4,
                parameters={"mu_of_x": normalize(a)},
                evidence=["W!=0", "b=e=h=k=0", "a nonconstant"],
                diagnostics={"a_is_x_only": _mu_of_x(a, config)})
    red = invariants_reduced(ode, config)
    constancy = {nm: is_constant(ex, config) for nm, ex in red.I.items()}
    if not all(constancy.values()):
        return ClassificationResult(
            group="contact", row="general",
            evidence=[f"case {red.case} reduction"
                      + ("" if wnz else " (W=0)")],
            diagnostics={"constancy": constancy})
    tup = reduced_tuple(ode, config)
    vals = {nm: tup[nm] for nm in red.I}
    found = (_row_w_nonzero if wnz else _row_w0)(red.eps, vals)
    if isinstance(found, str):
        return ClassificationResult(
            group="contact", row="general",
            diagnostics={"reason": found, **tup})
    row, mu, rep, evidence = found
    return table_row("contact", row, mu,
                     lambda r, cfg: _verify_against_rep(tup, r, cfg),
                     ode, rep, config, evidence=evidence, diagnostics=vals)


@per_ode
def reduced_tuple(ode: Ode3, config: ZeroConfig = DEFAULT_CONFIG) -> dict:
    """The sampled constants that a table row is read from and compared
    by: epsilon (eps1 for W != 0, eps2 for W = 0) and the value of each
    reduced invariant; taken once per config."""
    red = invariants_reduced(ode, config)
    return {"eps1" if red.branch == W_NONZERO else "eps2": red.eps,
            **{nm: const_value(ex, config) for nm, ex in red.I.items()}}


def _row_w_nonzero(eps: int, vals: dict):
    """The W != 0 table row that epsilon_1 and I1..I4 point to, as (row,
    mu, representative, evidence), or the reason there is none."""
    i1 = vals["I1"]
    if eps == 0 or abs(i1) < 1e-9:
        return "no large-symmetry solution branch"
    t = 1.0 + 4.0 * eps / (i1 * i1)
    if eps == -1 and abs(t) <= 1e-9 and abs(i1 + 2) <= 1e-7:
        row, mu, rep = "VI", None, Ode3.from_text("exp(q)")
    elif t > 1e-9:
        row, mu = "IV", t
        alpha = snap_rational(1.5 + 1.0 / (2.0 * math.sqrt(mu)))
        rep = Ode3(pow_(var("q"), alpha)) if alpha is not None else None
    elif eps == -1 and t < -1e-9:
        row, mu = "V", -t
        nu = snap_rational(1.0 / math.sqrt(mu))
        rep = Ode3(pow_(var("q") ** 2 + 1, F3(3, 2))
                   * exp(num(nu) * atan(var("q")))) if nu is not None \
            else None
    else:
        return "invariants off every table row"
    return row, mu, rep, [f"eps1={eps}", f"I1={i1:.9g}"]


def _row_w0(eps: int, vals: dict):
    """The W = 0 table row that epsilon_2 and I5..I8 point to, as (row,
    mu, representative, evidence), or the reason there is none."""
    i7, i8 = vals["I7"], vals["I8"]
    row = mu = None
    if eps != 0 and abs(i7 - CBRT6_OVER_3) <= 1e-7:
        row = "XI" if eps == 1 else "XII"
    elif eps == 0:
        # degenerate discriminant: the mu = 1 members of rows VIII / X
        if abs(i8 - 1) <= 1e-7:
            row, mu = "VIII", 1.0
        elif abs(i8 + 1) <= 1e-7:
            row, mu = "X", 1.0
    else:
        denom = 9 * i7 ** 3 - 2
        mu = math.sqrt(abs(9 * i7 ** 3 / denom)) if abs(denom) > 1e-12 \
            else None
        if mu is not None:
            if eps == 1 and 0 < i7 < CBRT6_OVER_3:
                row = "VII"
            elif eps == -1 and 0 < i7 < CBRT6_OVER_3:
                row = "IX"
            elif (eps == 1 and i7 < 0) or (eps == -1 and i7 > CBRT6_OVER_3):
                row = "VIII"
            elif (eps == -1 and i7 < 0) or (eps == 1 and i7 > CBRT6_OVER_3):
                row = "X"
    if row is None:
        return "W=0 invariants off every table row"
    return (row, mu, w0_rep(row, mu),
            [f"eps2={eps}", f"I7={i7:.9g}", f"I8={i8:.9g}"])


def w0_rep(row: str, mu: Optional[float]) -> Optional[Ode3]:
    """The canonical representative of a W = 0 row, VII to XII, of either
    table, with its parameter mu snapped to a small rational; None when
    that fails."""
    y, p, q = var("y"), var("p"), var("q")
    if row in ("XI", "XII"):
        return Ode3(pow_(q * q + 1 if row == "XI" else q, F3(3, 2)))
    ms = snap_rational(mu)
    if ms is None:
        return None
    m = num(ms)
    return Ode3(normalize({
        "VII": lambda: (m * pow_(q * q / (1 - p * p) - p * p + 1, F3(3, 2))
                        - 3 * q * q * p / (1 - p * p) + p ** 3 - p * p),
        "VIII": lambda: m * pow_(2 * q * y - p * p, F3(3, 2)) / (y * y),
        "IX": lambda: (4 * m * pow_(q - p * p, F3(3, 2))
                       + 6 * q * p - 4 * p ** 3),
        "X": lambda: (m * pow_(q * q / (p * p) + p * p, F3(3, 2))
                      + 3 * q * q / p + p ** 3)}[row]()))


def _verify_against_rep(tup: dict, rep: Ode3, config: ZeroConfig) -> bool:
    """Match of the input's reduced_tuple with the representative's on
    config; may raise ArithmeticError."""
    return tuples_match(tup, reduced_tuple(rep, config))


# ---------------------------------------------------------- linearizability


@dataclass(frozen=True)
class LinearizableResult:
    status: str                      # "no" | "constant" | "mu_of_x"
    mu: Optional[object] = None      # Fraction/float or Expr descriptor

    @property
    def linearizable(self) -> bool:
        return self.status != "no"


def linearizable_contact(ode: Ode3, config: ZeroConfig = DEFAULT_CONFIG
                         ) -> LinearizableResult:
    br = contact_branch(ode, config)
    if br.branch == TRIVIAL_FLAT:
        return LinearizableResult(status="constant", mu=F3(0))
    if br.branch == W0_FQQQQ:
        return LinearizableResult(status="no")
    if _reduction_case(ode, config):
        return LinearizableResult(status="no")
    a = bas_a(ode)
    if is_constant(a, config):
        return LinearizableResult(status="constant",
                                  mu=constant_parameter(a, config))
    return LinearizableResult(status="mu_of_x", mu=normalize(a))


# ----------------------------------------------------- contact projective


def contact_projective_data(ode: Ode3,
                            config: ZeroConfig = DEFAULT_CONFIG) -> tuple:
    """Cubic coefficients (a3, a2, a1, a0) of F in q when F_qqqq = 0."""
    F = ode.F
    v = is_zero(pd(F, "q", "q", "q", "q"), config=config)
    if not require(v, "F_qqqq"):
        raise NotApplicableError(
            "no contact-projective structure: F_qqqq != 0")
    q = var("q")
    a3 = normalize(pd(F, "q", "q", "q") / 6)
    a2 = normalize((pd(F, "q", "q") - 6 * a3 * q) / 2)
    a1 = normalize(pd(F, "q") - 3 * a3 * q * q - 2 * a2 * q)
    a0 = normalize(F - a3 * q ** 3 - a2 * q * q - a1 * q)
    return a3, a2, a1, a0
