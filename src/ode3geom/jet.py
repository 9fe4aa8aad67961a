"""Total derivative and the scalar invariants K, L, M, W, Z of an ODE
y''' = F(x, y, p, q), plus directional derivatives along a frame."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, wraps
from typing import Sequence, Union

from .expr import (DEFAULT_CONFIG, JET_VARS, Expr, ZeroConfig, is_zero,
                   normalize, parse, partial, var)

F3 = Fraction


def pd(e: Expr, *vs: str) -> Expr:
    """Iterated partial derivative, e.g. pd(F, "q", "q")."""
    for v in vs:
        e = partial(e, v)
    return e


class WunschmannZeroError(ArithmeticError):
    """Z requested for an ODE with W = 0."""


@dataclass
class Ode3:
    """A validated right-hand side F."""

    F: Expr
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_text(cls, text: str) -> "Ode3":
        return cls(parse(text))

    def __post_init__(self):
        if not isinstance(self.F, Expr):
            self.F = parse(str(self.F))
        bad = self.F.free_vars() - set(JET_VARS)
        if bad:
            raise ValueError(f"F contains non-jet variables: {sorted(bad)}")


def per_ode(fn):
    """Cache fn(ode, *args) on the ODE, one result per ODE and arguments.

    fn must read nothing else, so the result is the same whoever asks
    first.  An omitted argument counts as its default, and a ZeroConfig
    keys by value: f(ode) and f(ode, DEFAULT_CONFIG) share one entry."""
    defaults = fn.__defaults__ or ()
    required = fn.__code__.co_argcount - 1 - len(defaults)

    @wraps(fn)
    def cached(ode: Ode3, *args):
        key = (fn, *args, *defaults[len(args) - required:])
        got = ode._cache.get(key)
        if got is None:
            got = ode._cache[key] = fn(ode, *args)
        return got
    return cached


class KLMW:
    """K, L, M, W and Z of y''' = F, each built when first read; nothing
    is sampled.  Holds F, not the Ode3 whose memo holds it: no cycle."""

    def __init__(self, F: Expr):
        self.F, self.Fq = F, pd(F, "q")

    def __iter__(self):
        return iter((self.K, self.L, self.M, self.W))

    @cached_property
    def K(self) -> Expr:
        F, Fq = self.F, self.Fq
        return normalize(F3(1, 6) * total_derivative(Fq, F)
                         - F3(1, 9) * Fq * Fq - F3(1, 2) * pd(F, "p"))

    @cached_property
    def L(self) -> Expr:
        F, Fq, K, Kq = self.F, self.Fq, self.K, pd(self.K, "q")
        return normalize(F3(1, 3) * pd(F, "q", "q") * K - F3(1, 3) * Fq * Kq
                         - pd(K, "p") - F3(1, 3) * pd(F, "q", "y"))

    @cached_property
    def M(self) -> Expr:
        F, Fq, K, L = self.F, self.Fq, self.K, self.L
        return normalize(2 * pd(K, "q", "q") * K - 2 * pd(K, "q", "y")
                         + F3(1, 3) * pd(F, "q", "q") * L
                         - F3(2, 3) * Fq * pd(L, "q") - 2 * pd(L, "p"))

    @cached_property
    def W(self) -> Expr:
        F, Fq, K = self.F, self.Fq, self.K
        return normalize(total_derivative(K, F) - F3(2, 3) * Fq * K
                         + pd(F, "y"))

    @cached_property
    def Z(self) -> Expr:
        """Z = DW/W - F_q; defined only where W != 0."""
        W = self.W
        return normalize(total_derivative(W, self.F) / W - self.Fq)


@dataclass(frozen=True)
class JetInvariants:
    """klmw, read through for K, L, M, W and Z, with the W verdict."""
    klmw: KLMW
    w_verdict: object
    K = property(lambda self: self.klmw.K)
    L = property(lambda self: self.klmw.L)
    M = property(lambda self: self.klmw.M)
    W = property(lambda self: self.klmw.W)
    # None unless W is nonzero on the box
    Z = property(lambda self: self.klmw.Z if self.w_verdict.is_nonzero
                 else None)


def total_derivative(e: Expr, ode: Union[Ode3, Expr]) -> Expr:
    """D = d/dx + p d/dy + q d/dp + F d/dq applied to e."""
    F = ode.F if isinstance(ode, Ode3) else ode
    out = (partial(e, "x") + var("p") * partial(e, "y")
           + var("q") * partial(e, "p") + F * partial(e, "q"))
    from .expr import from_rf
    return from_rf(out.rf)


@per_ode
def klmw(ode: Ode3) -> KLMW:
    """K, L, M and W of the equation, each built when first read."""
    return KLMW(ode.F)


@per_ode
def jet_invariants(ode: Ode3, config: ZeroConfig = DEFAULT_CONFIG) -> JetInvariants:
    """klmw(ode) with the W verdict on config's box; Z reads as None
    unless that verdict is nonzero.  Taken once per config."""
    inv = klmw(ode)
    return JetInvariants(inv, w_verdict=is_zero(inv.W, config=config))


def zee(ode: Ode3, config: ZeroConfig = DEFAULT_CONFIG) -> Expr:
    """The invariant Z = DW/W - F_q; errors when W = 0."""
    inv = jet_invariants(ode, config)
    if inv.Z is None:
        raise WunschmannZeroError("Z undefined: Wunschmann invariant vanishes")
    return inv.Z


@dataclass(frozen=True)
class VectorField:
    """A derivation c_x d/dx + c_y d/dy + c_p d/dp + c_q d/dq."""

    cx: Expr
    cy: Expr
    cp: Expr
    cq: Expr

    def __call__(self, f: Expr) -> Expr:
        return (self.cx * partial(f, "x") + self.cy * partial(f, "y")
                + self.cp * partial(f, "p") + self.cq * partial(f, "q"))

    def components(self):
        return (self.cx, self.cy, self.cp, self.cq)


def frame_derivative(f: Expr, frame: Sequence[VectorField]) -> tuple:
    """Coframe derivatives X_i(f) along the four frame fields."""
    return tuple(Xi(f) for Xi in frame)
