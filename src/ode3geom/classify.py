"""Shared classification plumbing: results, constancy checks, parameter
snapping, and constant-tuple comparison against canonical representatives."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .expr import (DEFAULT_CONFIG, Expr, JET_VARS as JET,
                   SignConsistencyError, ZeroConfig, is_zero,
                   values_on_samples)

# Relative tolerances: samples of one constant, a sampled value and the
# rational it snaps to, and two tuples of constants that match.
SPREAD_TOL = 1e-7
SNAP_TOL = 1e-7
MATCH_TOL = 1e-6


class InconclusiveError(ArithmeticError):
    """A zero verdict needed by the classifier came back inconclusive."""


@dataclass
class ClassificationResult:
    group: str                       # "contact" | "point"
    row: str                         # table row id or "general"
    dimension: Optional[int] = None
    parameters: dict = field(default_factory=dict)
    evidence: list = field(default_factory=list)
    inconclusive: bool = False
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "row": self.row,
            "dimension": self.dimension,
            "parameters": {k: _jsonable(v) for k, v in self.parameters.items()},
            "evidence": list(self.evidence),
            "inconclusive": self.inconclusive,
            "diagnostics": {k: _jsonable(v) for k, v in
                            self.diagnostics.items()},
        }


def run_classifier(group: str, classify, ode, config: ZeroConfig
                   ) -> ClassificationResult:
    """classify(ode, config), with an inconclusive zero test or a sign flip
    turned into an inconclusive "general" result that carries the reason."""
    try:
        return classify(ode, config)
    except (InconclusiveError, SignConsistencyError) as exc:
        return ClassificationResult(group=group, row="general",
                                    inconclusive=True,
                                    diagnostics={"reason": str(exc)})


def table_row(group: str, row: str, mu, verify, ode, rep,
              config: ZeroConfig, **fields) -> ClassificationResult:
    """A dimension-4 table row with its parameter mu, snapped to a small
    rational when one is close, confirmed by verify(rep, rep_config(row,
    config)), the comparison of the input ode's tuple with that of the
    row's canonical representative rep.

    verify runs on ode itself when rep has its F, so that a tuple ode
    already took on an equal config is read back, not sampled again.  A
    match keeps the row; a mismatch demotes it to "general" with the
    reason; an ArithmeticError that keeps the comparison from being
    completed keeps the row and marks it inconclusive; rep None, no
    representative, leaves the row unconfirmed."""
    result = ClassificationResult(group=group, row=row, dimension=4,
                                  **fields)
    if mu is not None:
        ms = snap_rational(mu)
        result.parameters["mu"] = ms if ms is not None else mu
    if rep is None:
        return result
    try:
        verdict = verify(ode if rep.F.rf == ode.F.rf else rep,
                         rep_config(row, config))
    except ArithmeticError as exc:
        result.inconclusive = True
        result.diagnostics.update(
            tuple_verified=None,
            reason=f"representative check inconclusive: {exc}")
        return result
    result.diagnostics["tuple_verified"] = verdict
    if not verdict:
        result.row, result.dimension = "general", None
        result.diagnostics["reason"] = \
            "candidate tuple differs from canonical representative"
    return result


def _jsonable(v):
    if isinstance(v, Fraction):
        return {"value": f"{v.numerator}/{v.denominator}"
                if v.denominator != 1 else str(v.numerator),
                "provenance": "symbolic"}
    if isinstance(v, Expr):
        return {"value": str(v), "provenance": "symbolic"}
    if isinstance(v, float):
        return {"value": v, "provenance": "sampled"}
    return v


def is_constant(e: Expr, config: ZeroConfig = DEFAULT_CONFIG) -> bool:
    """Rank-zero criterion: all four jet partials vanish under
    partial_is_zero.

    The four verdicts share one gradient pass per sample point (a
    PartialDraws over JET), so no partial is assembled symbolically."""
    from .expr import PartialDraws, partial_is_zero
    draws = PartialDraws(e, JET, config)
    for v in JET:
        ver = partial_is_zero(e, v, config=config, draws=draws)
        if ver.status == "inconclusive":
            raise InconclusiveError(
                f"constancy of invariant in {v}: {ver.reason}")
        if ver.is_nonzero:
            return False
    return True


def const_value(e: Expr, config: ZeroConfig = DEFAULT_CONFIG) -> float:
    """Numeric value of an expression known to be constant on the box.

    Individual samples can lose all their digits to cancellation on large
    pulled-back invariants, so the value is the median of the agreeing
    majority rather than demanding every sample coincide.  With fewer than
    3 well-conditioned samples it is 0.0 if e tests zero, else unknown."""
    rf = e._rf
    if rf is not None and rf.is_const():
        return float(rf.const_value())
    n = min(config.samples, 9)
    vals = values_on_samples(e, config, n=n)
    if len(vals) < 3:
        if is_zero(e, config).is_zero:
            return 0.0
        raise InconclusiveError(f"expected a constant, only {len(vals)} "
                                f"of {n} samples well-conditioned")
    vals.sort()
    med = vals[len(vals) // 2]
    good = [v for v in vals if abs(v - med) <= SPREAD_TOL * (1.0 + abs(med))]
    if len(good) < max(3, (2 * len(vals)) // 3):
        raise SignConsistencyError(
            f"expected a constant, values spread over "
            f"[{vals[0]}, {vals[-1]}]")
    return good[len(good) // 2]


def exact_const(e: Expr) -> Optional[Fraction]:
    rf = e.rf
    if rf.is_const():
        return rf.const_value()
    return None


def constant_parameter(e: Expr, config: ZeroConfig):
    """The value of an expression known to be constant: exact when it is a
    rational constant, else the sampled value snapped to a small rational
    when one is close."""
    mu = exact_const(e)
    if mu is None:
        mv = const_value(e, config)
        mu = snap_rational(mv) or mv
    return mu


def snap_rational(x: float, max_den: int = 64) -> Optional[Fraction]:
    """Nearest small-denominator rational within SNAP_TOL, else None."""
    f = Fraction(x).limit_denominator(max_den)
    if abs(float(f) - x) <= SNAP_TOL * (1.0 + abs(x)):
        return f
    return None


def rep_config(row: str, config: ZeroConfig) -> ZeroConfig:
    """The config on which row's canonical representative is sampled:
    config's seed, samples and tol on the row's own box, where the
    representative is real and guarded.  The compared invariants are
    constants, so the box does not change them."""
    box = dict(DEFAULT_CONFIG.box, **{
        "VII": {"p": (0.5, 0.8)},
        "VIII": {"y": (0.8, 1.0), "p": (0.5, 0.7), "q": (1.2, 2.0)},
        "IX": {"p": (0.5, 0.9), "q": (1.2, 2.0)}}.get(row, {}))
    return ZeroConfig(seed=config.seed, samples=config.samples,
                      tol=config.tol, box=box)


def tuples_match(a: dict, b: dict) -> bool:
    """Two named tuples of sampled constants match: the same names, and
    values within MATCH_TOL."""
    return a.keys() == b.keys() and all(
        abs(a[k] - b[k]) <= MATCH_TOL * (1.0 + abs(a[k]) + abs(b[k]))
        for k in a)


def require(verdict, what: str) -> bool:
    """Map a ZeroVerdict to bool, raising on inconclusive."""
    if verdict.status == "inconclusive":
        raise InconclusiveError(f"{what}: {verdict.reason}")
    return verdict.is_zero
