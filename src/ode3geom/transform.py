"""Prolongation of fibre-preserving, point, and contact transformations to
third jets, and pullback of an ODE along a transformation."""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .expr import (DEFAULT_CONFIG, Expr, ZeroConfig, from_rf, is_zero,
                   normalize, num, parse, partial, var)
from .jet import Ode3, total_derivative

Y3 = var("Y3")   # the third-derivative slot carried through prolongation


class DegenerateTransformError(ArithmeticError):
    pass


@dataclass(frozen=True)
class PointTransform:
    """x -> chi(x, y), y -> phi(x, y)."""

    chi: Expr
    phi: Expr

    @classmethod
    def from_text(cls, chi: str, phi: str) -> "PointTransform":
        return cls(parse(chi), parse(phi))

    def jacobian(self) -> Expr:
        return (partial(self.chi, "x") * partial(self.phi, "y")
                - partial(self.chi, "y") * partial(self.phi, "x"))

    def nondegenerate(self, config: ZeroConfig = DEFAULT_CONFIG) -> bool:
        return is_zero(self.jacobian(), config=config).is_nonzero

    def fibre_preserving(self) -> bool:
        return partial(self.chi, "y").rf.is_zero_poly()

    def compose(self, other: "PointTransform") -> "PointTransform":
        """self after other: first other, then self in the new variables."""
        m = {"x": other.chi, "y": other.phi}
        return PointTransform(self.chi.subs(m), self.phi.subs(m))


@dataclass(frozen=True)
class ContactTransform:
    """x -> chi(x,y,p), y -> phi(x,y,p), y' -> psi(x,y,p)."""

    chi: Expr
    phi: Expr
    psi: Expr

    def contact_conditions(self) -> tuple:
        c1 = self.psi * partial(self.chi, "p") - partial(self.phi, "p")
        c2 = (self.psi * (partial(self.chi, "x")
                          + var("p") * partial(self.chi, "y"))
              - (partial(self.phi, "x") + var("p") * partial(self.phi, "y")))
        return c1, c2

    def is_contact(self, config: ZeroConfig = DEFAULT_CONFIG) -> bool:
        return all(is_zero(c, config=config).is_zero
                   for c in self.contact_conditions())


Transform = Union[PointTransform, ContactTransform]


def prolong(t: Transform, config: ZeroConfig = DEFAULT_CONFIG) -> tuple:
    """(ybar', ybar'', ybar''') as expressions in x, y, p, q and Y3.

    ybar''' is affine in the symbol Y3.
    """
    dchi = total_derivative(t.chi, Y3)    # y''' carried as the symbol Y3
    if is_zero(dchi, config=config).is_zero:
        raise DegenerateTransformError("D(chi) vanishes on the domain")
    if isinstance(t, PointTransform):
        y1 = from_rf((total_derivative(t.phi, Y3) / dchi).rf)
    else:
        y1 = t.psi
    y2 = from_rf((total_derivative(y1, Y3) / dchi).rf)
    y3 = from_rf((total_derivative(y2, Y3) / dchi).rf)
    return y1, y2, y3


def pullback_ode(target: Union[Ode3, Expr], t: Transform,
                 config: ZeroConfig = DEFAULT_CONFIG) -> Ode3:
    """The ODE whose solutions map to solutions of `target` under t.

    Solves ybar'''(x,y,p,q,Y3) = Fbar(chi, phi, ybar', ybar'') for Y3.
    """
    fbar = target.F if isinstance(target, Ode3) else Expr._coerce(target)
    y1, y2, y3 = prolong(t, config)
    lead = partial(y3, "Y3")
    if is_zero(lead, config=config).is_zero:
        raise DegenerateTransformError(
            "prolonged transform has a degenerate leading coefficient")
    a0 = y3.subs({"Y3": num(0)})
    rhs = fbar.subs({"x": t.chi, "y": t.phi, "p": y1, "q": y2})
    out = normalize((rhs - a0) / lead)
    if "Y3" in out.free_vars():
        raise DegenerateTransformError("pullback failed to eliminate y'''")
    return Ode3(out)


# ---------------------------------------------------------------- batteries


_COEFFS = (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2))
_MONOMIALS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def random_point_transforms(seed: int, n: int = 8,
                            config: ZeroConfig = DEFAULT_CONFIG) -> list:
    """Seeded battery of near-identity polynomial point transforms.

    chi = x + small monomials in (x, y) of degree <= 2, phi likewise;
    rejected when the Jacobian guard fails on the sample box.
    """
    rng = random.Random(seed)
    x, y = var("x"), var("y")
    out = []
    attempts = 0
    while len(out) < n and attempts < 200 * n:
        attempts += 1
        def perturb(base):
            e = base
            for (i, j) in rng.sample(_MONOMIALS, rng.randint(1, 2)):
                c = rng.choice(_COEFFS)
                e = e + num(c) * x ** i * y ** j
            return e
        t = PointTransform(perturb(x), perturb(y))
        if t.nondegenerate(config):
            out.append(t)
    if len(out) < n:
        raise RuntimeError("could not build the requested transform battery")
    return out


def random_fp_transforms(seed: int, n: int = 8,
                         config: ZeroConfig = DEFAULT_CONFIG) -> list:
    """Fibre-preserving battery: chi affine in x, phi = alpha(x) y + beta(x)."""
    rng = random.Random(seed)
    x, y = var("x"), var("y")
    out = []
    while len(out) < n:
        a = num(rng.choice((1, 2, Fraction(1, 2), Fraction(3, 2))))
        b = num(rng.choice((0, Fraction(1, 4), Fraction(-1, 4), 1)))
        alpha = num(rng.choice((1, 2, Fraction(1, 2)))) + \
            num(rng.choice((0, Fraction(1, 4), Fraction(-1, 4)))) * x
        beta = num(rng.choice((0, Fraction(1, 2), -1))) * x ** rng.randint(0, 2)
        t = PointTransform(a * x + b, alpha * y + beta)
        if t.nondegenerate(config):
            out.append(t)
    return out


def swap_xy() -> PointTransform:
    return PointTransform(var("y"), var("x"))


def scale(cx, cy) -> PointTransform:
    return PointTransform(num(cx) * var("x"), num(cy) * var("y"))


def translate(cx, cy) -> PointTransform:
    return PointTransform(var("x") + num(cx), var("y") + num(cy))


def legendre_like() -> ContactTransform:
    """The contact map (x, y, p) -> (-2p, 2xp^2 - 2yp, -2xp + y)."""
    x, y, p = var("x"), var("y"), var("p")
    return ContactTransform(-2 * p, 2 * x * p * p - 2 * y * p,
                            -2 * x * p + y)
