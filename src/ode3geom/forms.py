"""Exterior calculus on J^2 in the coordinate cobasis (dx, dy, dp, dq).

TwoForms are stored against the lexicographic basis
dx^dy, dx^dp, dx^dq, dy^dp, dy^dq, dp^dq; antisymmetry is structural.
decompose() expresses a 2-form in the wedge basis of a given coframe by a
symbolic linear solve with is_zero pivoting.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .expr import (DEFAULT_CONFIG, JET_VARS, Expr, ZeroConfig, from_rf,
                   is_zero, normalize, num, partial)
from .expr.nodes import RF_ONE, times_factors

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_INDEX = {pq: i for i, pq in enumerate(PAIRS)}

_ZERO = num(0)


class DegenerateCoframeError(ArithmeticError):
    pass


@dataclass(frozen=True)
class OneForm:
    """c_x dx + c_y dy + c_p dp + c_q dq."""

    cx: Expr
    cy: Expr
    cp: Expr
    cq: Expr

    def components(self):
        return (self.cx, self.cy, self.cp, self.cq)

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(*(a + b for a, b in
                         zip(self.components(), other.components())))

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(*(a - b for a, b in
                         zip(self.components(), other.components())))

    def __rmul__(self, f) -> "OneForm":
        return OneForm(*(Expr._coerce(f) * c for c in self.components()))

    def __neg__(self) -> "OneForm":
        return OneForm(*(-c for c in self.components()))

    def pair(self, vf) -> Expr:
        """Contraction with a jet.VectorField."""
        return sum((c * v for c, v in
                    zip(self.components(), vf.components())), _ZERO)

    def normalized(self) -> "OneForm":
        return OneForm(*(normalize(c) for c in self.components()))


@dataclass(frozen=True)
class TwoForm:
    """Coefficients against dx^dy, dx^dp, dx^dq, dy^dp, dy^dq, dp^dq."""

    c: tuple  # six Exprs

    def __add__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(tuple(a - b for a, b in zip(self.c, other.c)))

    def __rmul__(self, f) -> "TwoForm":
        return TwoForm(tuple(Expr._coerce(f) * x for x in self.c))

    def __neg__(self) -> "TwoForm":
        return TwoForm(tuple(-x for x in self.c))

    def is_zero_on(self, config: ZeroConfig = DEFAULT_CONFIG) -> bool:
        return all(is_zero(x, config=config).is_zero for x in self.c)

    def normalized(self) -> "TwoForm":
        return TwoForm(tuple(normalize(x) for x in self.c))


ZERO2 = TwoForm((_ZERO,) * 6)


def dx_i(i: int) -> OneForm:
    comps = [_ZERO] * 4
    comps[i] = num(1)
    return OneForm(*comps)


DX, DY, DP, DQ = (dx_i(i) for i in range(4))


def d(omega) -> TwoForm:
    """Exterior derivative of a OneForm (or of an Expr, giving its df as a
    OneForm when called through df())."""
    comps = omega.components()
    out = []
    for a, b in PAIRS:
        out.append(partial(comps[b], JET_VARS[a])
                   - partial(comps[a], JET_VARS[b]))
    return TwoForm(tuple(out))


def df(f: Expr) -> OneForm:
    return OneForm(partial(f, "x"), partial(f, "y"),
                   partial(f, "p"), partial(f, "q"))


def wedge(alpha: OneForm, beta: OneForm) -> TwoForm:
    a = alpha.components()
    b = beta.components()
    return TwoForm(tuple(a[i] * b[j] - a[j] * b[i] for i, j in PAIRS))


@dataclass(frozen=True)
class Coframe:
    theta: tuple  # four OneForms

    def wedges(self) -> list:
        """The six theta^j ^ theta^k (j<k), lexicographic."""
        return [wedge(self.theta[j], self.theta[k]) for j, k in PAIRS]


_MINUS_ONE = RF_ONE * num(-1).rf    # a product's leading -1, lowered


def _solve_linear_multi(mat: List[List[Expr]], rhss: List[List[Expr]],
                        config: ZeroConfig) -> List[List[Expr]]:
    """Solve mat * t = rhs for several right-hand sides by Gaussian
    elimination with is_zero pivoting.

    Pivot choice prefers structurally constant entries, then syntactically
    small ones verified nonzero on the domain, so that no division by an
    expression vanishing somewhere on the box occurs.  An update is the
    RF that the tree old - (f/piv)*x lowers to, term for term, with
    -1*f/piv built once per row by dividing by the pivot's own RF.
    """
    n, k = len(mat), len(rhss)
    rows = [list(mat[i]) + [rhss[j][i] for j in range(k)] for i in range(n)]
    pivs = []
    for col in range(n):
        pivot_row = best = best_size = None
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
        pivs.append(rows[col][col].rf)
        for r in range(n):
            if r == col:
                continue
            f = rows[r][col]
            if f.rf.is_zero_poly():
                continue
            m = times_factors(_MINUS_ONE, f) / pivs[col]
            for c2 in range(col + 1, n + k):
                x = rows[col][c2]
                if not x.rf.is_zero_poly():
                    rows[r][c2] = from_rf(rows[r][c2].rf + times_factors(m, x))
            rows[r][col] = _ZERO
    return [[from_rf(times_factors(RF_ONE, rows[i][n + j]) / pivs[i])
             for i in range(n)] for j in range(k)]


def decompose(omega: TwoForm, frame: Coframe,
              config: ZeroConfig = DEFAULT_CONFIG) -> tuple:
    """Coefficients T_jk with omega = sum_{j<k} T_jk theta^j ^ theta^k."""
    return decompose_many([omega], frame, config)[0]


def decompose_many(omegas: Sequence[TwoForm], frame: Coframe,
                   config: ZeroConfig = DEFAULT_CONFIG) -> list:
    """Decompose several 2-forms against one coframe in a single solve."""
    basis = frame.wedges()
    mat = [[basis[j].c[i] for j in range(6)] for i in range(6)]
    rhss = [[om.c[i] for i in range(6)] for om in omegas]
    return [tuple(sol) for sol in _solve_linear_multi(mat, rhss, config)]


def reconstruct(coeffs: Sequence[Expr], frame: Coframe) -> TwoForm:
    out = ZERO2
    for t, w in zip(coeffs, frame.wedges()):
        out = out + t * w
    return out
