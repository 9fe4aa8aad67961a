"""Randomised zero-testing and numeric evaluation on the sample box.

Zero equivalence for the mixed rational/transcendental expressions here is
undecidable in general; we settle it Schwartz-Zippel style.  An expression
counts as zero when its canonical numerator is literally 0 or when all
seeded samples on the guard-respecting box have relative residual below the
tolerance.  Verdicts are deterministic for a fixed seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Optional, Union

from . import poly as _p
from .nodes import Expr, eval_tree, eval_tree_dual
from .poly import DomainError, SingularPointError, ZeroBaseError

DEFAULT_BOX = {"x": (-1.0, 1.0), "y": (-1.0, 1.0),
               "p": (0.5, 2.0), "q": (0.5, 2.0)}
# A negative power is a pole where |base| <= MARGIN * (1 + its term mass).
MARGIN = 1e-7


class SignConsistencyError(ArithmeticError):
    """An abs/sgn argument changes sign across the sample domain, so the
    region-dependent verdict is ill-posed on this box."""


@dataclass(frozen=True)
class JetPoint:
    x: float
    y: float
    p: float
    q: float

    def __post_init__(self):
        for c in (self.x, self.y, self.p, self.q):
            if not math.isfinite(c):
                raise ValueError("jet point coordinates must be finite")

    def env(self) -> dict:
        return {"x": self.x, "y": self.y, "p": self.p, "q": self.q}


@dataclass(frozen=True)
class ZeroVerdict:
    status: str                      # "zero" | "nonzero" | "inconclusive"
    witness: Optional[JetPoint] = None
    residual: float = 0.0
    reason: str = ""

    def __bool__(self):
        return self.status == "zero"

    @property
    def is_zero(self):
        return self.status == "zero"

    @property
    def is_nonzero(self):
        return self.status == "nonzero"


@dataclass(frozen=True)
class ZeroConfig:
    seed: int = 42
    samples: int = 16
    tol: float = 1e-9
    box: dict = field(default_factory=lambda: dict(DEFAULT_BOX))
    attempts: int = 1200

    def __hash__(self):  # by value, like the generated __eq__
        return hash((self.seed, self.samples, self.tol, self.attempts,
                     tuple(sorted(self.box.items()))))


DEFAULT_CONFIG = ZeroConfig()


def sample_points(cfg: ZeroConfig):
    rng = random.Random(cfg.seed)
    while True:
        yield {n: rng.uniform(*r) for n, r in cfg.box.items()}


def _admissible(cfg: ZeroConfig, signed_rfs, signed_trees, measure):
    """Yield (env, measure(env, cache)) at each admissible point among the
    cfg.attempts seeded draws; callers take the first cfg.samples.

    A point is skipped when any evaluation there is singular, out of domain
    or overflows, or when measure returns a non-finite float.  At each
    point the abs/sgn arguments are evaluated first, signed RFs then signed
    trees; SignConsistencyError is raised when one of them takes a nonzero
    sign other than its sign at the first point where all of them
    evaluate.  cache is the point's value-mode cache, which measure may
    share."""
    signed = [(_p.eval_rf_dual, a) for a in signed_rfs]
    signed += [(eval_tree_dual, t) for t in signed_trees]
    signs: dict = {}
    gen = sample_points(cfg)
    for _ in range(cfg.attempts):
        env = next(gen)
        cache: dict = {}
        try:
            vals = [ev(arg, (), env, cache, MARGIN)[0]
                    for ev, arg in signed]
            for i, val in enumerate(vals):
                s = (val > 0) - (val < 0)
                if signs.setdefault(i, s) != s and s != 0:
                    raise SignConsistencyError(
                        "abs/sgn argument changes sign on the sample box")
            out = measure(env, cache)
        except (SingularPointError, DomainError, OverflowError):
            continue
        if type(out) is float and not math.isfinite(out):
            continue
        yield env, out


def _verdict(cfg: ZeroConfig, residuals) -> ZeroVerdict:
    """Zero iff the first cfg.samples of residuals, (env, residual) pairs
    at admissible points, are all <= tol; nonzero comes with the first
    sample past it as witness."""
    worst = 0.0
    count = 0
    try:
        for env, res in islice(residuals, cfg.samples):
            count += 1
            if res > cfg.tol:
                return ZeroVerdict("nonzero",
                                   witness=JetPoint(env.get("x", 0.0),
                                                    env.get("y", 0.0),
                                                    env.get("p", 1.0),
                                                    env.get("q", 1.0)),
                                   residual=res, reason="sampled")
            worst = max(worst, res)
    except SignConsistencyError as exc:
        return ZeroVerdict("inconclusive", reason=str(exc))
    if count < cfg.samples:
        return ZeroVerdict("inconclusive",
                           reason=f"only {count} admissible sample points")
    return ZeroVerdict("zero", residual=worst, reason="sampled")


def is_zero(e: Union[Expr, int],
            config: ZeroConfig = DEFAULT_CONFIG) -> ZeroVerdict:
    """Deterministic randomised zero test.

    Zero iff the canonical numerator is literally 0 or all admissible
    samples have relative residual <= tol; nonzero comes with a witness.
    """
    if isinstance(e, int):
        e = Expr._coerce(e)
    rf = e.rf
    if rf.is_zero_poly():
        return ZeroVerdict("zero", reason="symbolic")
    if rf.is_const():
        v = rf.const_value()
        if v == 0:
            return ZeroVerdict("zero", reason="symbolic")
        return ZeroVerdict("nonzero", residual=abs(float(v)),
                           reason="constant")
    return _verdict(config, _admissible(
        config, _p.rf_signed_atoms(rf), (),
        lambda env, cache: _p.eval_rf_residual(rf, env, cache, MARGIN)))


def sign_on_domain(e: Expr, config: ZeroConfig = DEFAULT_CONFIG) -> int:
    """Consistent sign of e on the box: +1, -1, or 0 (when is_zero says so).

    Raises SignConsistencyError if samples disagree or is_zero is
    inconclusive.
    """
    v = is_zero(e, config=config)
    if v.is_zero:
        return 0
    if v.status == "inconclusive":
        raise SignConsistencyError(v.reason)
    rf = e.rf

    def value(env, cache):
        return _p.eval_rf_dual(rf, (), env, cache, MARGIN)[0]

    sign = 0
    count = 0
    for _env, val in islice(_admissible(config, _p.rf_signed_atoms(rf), (),
                                        value), config.samples):
        count += 1
        s = (val > 0) - (val < 0)
        if s == 0:
            continue
        if sign == 0:
            sign = s
        elif sign != s:
            raise SignConsistencyError("expression changes sign on the box")
    if count < config.samples:
        raise SignConsistencyError("not enough admissible sample points")
    return sign


def _signed_parts(e: Expr):
    """abs/sgn argument expressions whose sign must stay consistent."""
    rfs = set()
    trees = []

    def walk(t: Expr):
        if t.kind is None:
            rfs.update(_p.rf_signed_atoms(t.rf))
            return
        if t.kind == "fun" and t.data in ("abs", "sgn"):
            trees.append(t.args[0])
        for a in t.args:
            walk(a)

    walk(e)
    return rfs, trees


class PartialDraws:
    """The admissible seeded draws of one expression with the relative
    residual of each of its partials by the variables vs: one gradient
    pass per point, filled lazily as partial_is_zero reads it, so the
    partials by vs share their points and evaluations."""

    def __init__(self, e: Expr, vs: tuple,
                 config: ZeroConfig = DEFAULT_CONFIG):
        self.e, self.vs, self.config = e, vs, config
        self._draws = []            # (env, residual or None per variable)
        self._source = _admissible(config, *_signed_parts(e), self._measure)
        self._flip = None           # the sign flip that ended the draws

    def _measure(self, env, _cache):
        # a cache of its own: the point's cache holds value-mode entries
        return _partial_residuals(self.e, self.vs, env)

    def residuals(self, v: str):
        """(env, residual of d/dv) at each draw where d/dv evaluates."""
        j = self.vs.index(v)
        i = 0
        while i < len(self._draws) or self._draw():
            env, res = self._draws[i]
            i += 1
            if res[j] is not None:
                yield env, res[j]

    def _draw(self) -> bool:
        """Append the next admissible draw; False once the draws are spent,
        and the same SignConsistencyError each time if a flip ended them."""
        if self._flip is not None:
            raise SignConsistencyError(self._flip)
        try:
            self._draws.append(next(self._source))
        except StopIteration:
            return False
        except SignConsistencyError as exc:
            self._flip = str(exc)
            raise
        return True


def _partial_residuals(e: Expr, vs: tuple, env: dict):
    """|de/dv| / (1 + |e| + |de/dv| + its mass) for each v in vs, None
    where d/dv cannot be evaluated at env or its residual is not finite.
    A zero base in a derivative sends the point through one pass per
    variable, so that it drops out only for the variables that need that
    derivative."""
    try:
        val, dval, _m, dmass = eval_tree_dual(e, vs, env, {}, MARGIN)
    except ZeroBaseError:
        if len(vs) == 1:
            return (None,)
        out = []
        for v in vs:
            try:
                out += _partial_residuals(e, (v,), env)
            except (SingularPointError, DomainError, OverflowError):
                out.append(None)
        return tuple(out)
    out = (abs(d) / (1.0 + abs(val) + abs(d) + dm)
           for d, dm in zip(dval, dmass))
    return tuple(r if math.isfinite(r) else None for r in out)


def partial_is_zero(e: Expr, v: str, config: ZeroConfig = DEFAULT_CONFIG,
                    draws: Optional[PartialDraws] = None) -> ZeroVerdict:
    """Verdict for d(e)/dv == 0 on the box, sampled by forward-mode dual
    evaluation so the derivative is never assembled symbolically.

    draws, a PartialDraws of e with v among its variables, lets several
    partials share one gradient pass per point, and its config stands for
    config; by default the call draws for v alone."""
    if draws is None:
        draws = PartialDraws(e, (v,), config)
    return _verdict(draws.config, draws.residuals(v))


def eval_at(e: Expr, pt: Union[JetPoint, dict], margin: float = 1e-12) -> float:
    """IEEE double evaluation at a jet point; guards raise
    SingularPointError, domain violations raise DomainError."""
    env = pt.env() if isinstance(pt, JetPoint) else dict(pt)
    return eval_tree(e, env, margin)


def eval_with_bound(e: Expr, pt: Union[JetPoint, dict],
                    margin: float = 1e-12) -> tuple:
    """(value, error bound) from a naive directed-rounding interval pass.

    Every elementary operation widens the enclosure by one unit in the
    last place on each side, so the true real value lies within the
    returned bound of the returned double whenever evaluation succeeds.
    """
    env = pt.env() if isinstance(pt, JetPoint) else dict(pt)
    lo, hi = _eval_interval(e, env, margin)
    val = eval_tree(e, env, margin)
    return val, max(hi - val, val - lo, 0.0)


def _widen(lo: float, hi: float) -> tuple:
    return (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))


def _iadd(a, b):
    return _widen(a[0] + b[0], a[1] + b[1])


def _imul(a, b):
    cands = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _widen(min(cands), max(cands))


def _eval_interval(e: Expr, env: dict, margin: float) -> tuple:
    k = e.kind
    if k is None:
        e = e.materialize()
        k = e.kind
    if k == "num":
        v = e.data
        return _widen(float(v), float(v))
    if k == "var":
        v = float(env[e.data])
        return (v, v)
    if k == "add":
        out = (0.0, 0.0)
        for t in e.args:
            out = _iadd(out, _eval_interval(t, env, margin))
        return out
    if k == "mul":
        out = (1.0, 1.0)
        for t in e.args:
            out = _imul(out, _eval_interval(t, env, margin))
        return out
    if k == "pow":
        lo, hi = _eval_interval(e.args[0], env, margin)
        r = e.data
        if r < 0 and lo <= margin <= hi:
            raise SingularPointError("interval straddles a pole")
        if r.denominator % 2 == 0 and lo < 0 <= hi:
            raise DomainError("interval straddles an even-root branch")
        cands = sorted((_p.real_power(lo, r), _p.real_power(hi, r)))
        if lo < 0 < hi and r.denominator % 2 == 1 and r > 0:
            cands[0] = min(cands[0], 0.0)
        return _widen(cands[0], cands[1])
    # kernels: exp and atan are monotone; log monotone on its domain
    lo, hi = _eval_interval(e.args[0], env, margin)
    fn = e.data
    if fn == "exp":
        if hi > 700:
            raise DomainError("exp overflow")
        return _widen(math.exp(lo), math.exp(hi))
    if fn == "log":
        if lo <= 0:
            raise DomainError("log of non-positive interval")
        return _widen(math.log(lo), math.log(hi))
    if fn == "atan":
        return _widen(math.atan(lo), math.atan(hi))
    if fn == "abs":
        if lo >= 0:
            return (lo, hi)
        if hi <= 0:
            return (-hi, -lo)
        return (0.0, max(-lo, hi))
    # sgn
    if lo > 0:
        return (1.0, 1.0)
    if hi < 0:
        return (-1.0, -1.0)
    return (-1.0, 1.0)


def values_on_samples(e: Expr, config: ZeroConfig = DEFAULT_CONFIG,
                      n: Optional[int] = None) -> list:
    """Values of e at the first n admissible, well-conditioned samples."""
    cfg = config if n is None else replace(config, samples=n)

    def value(env, cache):
        val, _dv, mass, _dm = eval_tree_dual(e, (), env, cache, MARGIN)
        if val != 0.0 and abs(val) < 1e-9 * mass:
            raise SingularPointError("ill-conditioned evaluation point")
        return val

    return [val for _env, val in islice(
        _admissible(cfg, *_signed_parts(e), value), cfg.samples)]
