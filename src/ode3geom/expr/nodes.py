"""Immutable expression trees over the jet variables x, y, p, q.

Node kinds: exact rational constants, variables, n-ary sums and products,
powers with exact rational exponents, and the unary kernels exp, log, atan,
sqrt (stored as power 1/2), abs, sgn.  Every tree lowers to a canonical
rational form (poly.RF); trees built from an RF are materialised lazily.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

from . import poly as _p
from .poly import RF, RF_ONE, RF_ZERO, DomainError, SingularPointError

Rat = Union[int, Fraction]

NUM = "num"
VARK = "var"
ADD = "add"
MUL = "mul"
POW = "pow"
FUN = "fun"


class Expr:
    """An immutable symbolic expression."""

    __slots__ = ("kind", "data", "args", "_rf", "_tree_hash")

    def __init__(self, kind, data=None, args=(), rf=None):
        self.kind = kind
        self.data = data
        self.args = args
        self._rf = rf
        self._tree_hash = None

    # --- lowering ----------------------------------------------------------

    @property
    def rf(self) -> RF:
        r = self._rf
        if r is None:
            r = _lower(self)
            self._rf = r
        return r

    # --- construction sugar --------------------------------------------------

    @staticmethod
    def _coerce(v) -> "Expr":
        if isinstance(v, Expr):
            return v
        if isinstance(v, (int, Fraction)):
            return num(v)
        raise TypeError(f"cannot use {type(v).__name__} as an expression")

    @staticmethod
    def _try(v):
        if isinstance(v, (Expr, int, Fraction)):
            return Expr._coerce(v)
        return None

    def __add__(self, other):
        o = Expr._try(other)
        return NotImplemented if o is None else add(self, o)

    def __radd__(self, other):
        o = Expr._try(other)
        return NotImplemented if o is None else add(o, self)

    def __sub__(self, other):
        o = Expr._try(other)
        return NotImplemented if o is None else add(self, neg(o))

    def __rsub__(self, other):
        o = Expr._try(other)
        return NotImplemented if o is None else add(o, neg(self))

    def __mul__(self, other):
        o = Expr._try(other)
        return NotImplemented if o is None else mul(self, o)

    def __rmul__(self, other):
        o = Expr._try(other)
        return NotImplemented if o is None else mul(o, self)

    def __truediv__(self, other):
        o = Expr._try(other)
        return NotImplemented if o is None else mul(self, pow_(o, Fraction(-1)))

    def __rtruediv__(self, other):
        o = Expr._try(other)
        return NotImplemented if o is None else mul(o, pow_(self, Fraction(-1)))

    def __pow__(self, e):
        return pow_(self, e)

    def __neg__(self):
        return neg(self)

    # --- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return _tree_eq(self, other)

    def __hash__(self):
        h = self._tree_hash
        if h is None:
            if self.kind is None:
                h = hash(("rf", self.rf))
            else:
                h = hash((self.kind, self.data, self.args))
            self._tree_hash = h
        return h

    def materialize(self) -> "Expr":
        """A concrete canonical tree for an RF-backed expression."""
        if self.kind is not None:
            return self
        return rf_to_tree(self.rf)

    def __str__(self):
        return to_str(self)

    def __repr__(self):
        return f"Expr({to_str(self)})"

    def free_vars(self) -> set:
        atoms = _p._atom_payload
        return {atoms[aid][1] for aid in _p.rf_atoms(self.rf)
                if atoms[aid][0] == _p.VAR}

    def subs(self, mapping: dict) -> "Expr":
        """Substitute expressions for variables (by name)."""
        env = {name: Expr._coerce(v) for name, v in mapping.items()}
        return from_rf(_subs_rf(self.rf, env))


def _tree_eq(a: Expr, b: Expr) -> bool:
    if a.kind is None or b.kind is None:
        return a.rf == b.rf
    if a.kind != b.kind or a.data != b.data or len(a.args) != len(b.args):
        return False
    return all(_tree_eq(x, y) for x, y in zip(a.args, b.args))


# ------------------------------------------------------------------ builders


def num(v: Rat) -> Expr:
    f = Fraction(v)
    return Expr(NUM, f, (), rf=_p.rf_const(f))


def var(name: str) -> Expr:
    return Expr(VARK, name, (), rf=_p.rf_var(name))


def add(*terms: Expr) -> Expr:
    flat = []
    for t in terms:
        t = Expr._coerce(t)
        if t.kind == ADD:
            flat.extend(t.args)
        else:
            flat.append(t)
    if not flat:
        return ZERO_E
    if len(flat) == 1:
        return flat[0]
    return Expr(ADD, None, tuple(flat))


def mul(*factors: Expr) -> Expr:
    flat = []
    for f in factors:
        f = Expr._coerce(f)
        if f.kind == MUL:
            flat.extend(f.args)
        else:
            flat.append(f)
    if not flat:
        return ONE_E
    if len(flat) == 1:
        return flat[0]
    return Expr(MUL, None, tuple(flat))


def neg(e: Expr) -> Expr:
    e = Expr._coerce(e)
    if e.kind == NUM:
        return num(-e.data)
    return mul(num(-1), e)


def pow_(base: Expr, expo: Rat) -> Expr:
    f = Fraction(expo)
    if f == 1:
        return Expr._coerce(base)
    return Expr(POW, f, (Expr._coerce(base),))


def fun(name: str, arg: Expr) -> Expr:
    if name == "sqrt":
        return pow_(arg, Fraction(1, 2))
    if name not in _p.KERNEL_NAMES:
        raise ValueError(f"unknown kernel {name!r}")
    return Expr(FUN, name, (Expr._coerce(arg),))


ZERO_E = num(0)
ONE_E = num(1)

X, Y, P, Q = var("x"), var("y"), var("p"), var("q")


def exp(e) -> Expr:
    return fun("exp", Expr._coerce(e))


def log(e) -> Expr:
    return fun("log", Expr._coerce(e))


def atan(e) -> Expr:
    return fun("atan", Expr._coerce(e))


def sqrt(e) -> Expr:
    return pow_(Expr._coerce(e), Fraction(1, 2))


def abs_(e) -> Expr:
    return fun("abs", Expr._coerce(e))


def sgn(e) -> Expr:
    return fun("sgn", Expr._coerce(e))


# ----------------------------------------------------------------- lowering


def _lower(e: Expr) -> RF:
    k = e.kind
    if k == NUM:
        return _p.rf_const(e.data)
    if k == VARK:
        return _p.rf_var(e.data)
    if k == ADD:
        out = RF_ZERO
        for t in e.args:
            out = out + t.rf
        return out
    if k == MUL:
        return times_factors(RF_ONE, e)
    if k == POW:
        return _p.rf_pow(e.args[0].rf, e.data)
    if k == FUN:
        return _p.rf_kernel(e.data, e.args[0].rf)
    raise AssertionError(k)


def times_factors(rf: RF, e: Expr) -> RF:
    """rf times e's factors in a product, in order.  A factor b^-1 divides
    by b, so denominator factors shared with rf cancel by key."""
    for f in e.args if e.kind == MUL else (e,):
        if f.kind == POW and f.data == -1:
            rf = rf / f.args[0].rf
        else:
            rf = rf * f.rf
    return rf


def from_rf(rf: RF) -> Expr:
    return Expr(None, rf=rf)


# --------------------------------------------------------------- un-lowering


def _atom_tree(aid: int, e: Fraction) -> Expr:
    kind, payload = _p._atom_payload[aid]
    if kind == _p.VAR:
        base = var(payload)
    elif kind == _p.PRIME:
        base = num(payload)
    elif kind == _p.PBASE:
        base = _poly_tree(payload)
    else:
        fn, arg = payload
        base = Expr(FUN, fn, (rf_to_tree(arg),))
    if e == 1:
        return base
    return Expr(POW, e, (base,))


def _mono_tree(m: tuple, c) -> Expr:
    factors = []
    if c != 1 or not m:
        factors.append(num(c))
    for aid, e in m:
        factors.append(_atom_tree(aid, Fraction(e)))
    if len(factors) == 1:
        return factors[0]
    return Expr(MUL, None, tuple(factors))


def _poly_tree(p: dict, scale=1) -> Expr:
    if not p:
        return ZERO_E
    terms = [_mono_tree(m, Fraction(c) * scale)
             for m, c in sorted(p.items(), key=lambda it: _p.mono_key(it[0]))]
    if len(terms) == 1:
        return terms[0]
    return Expr(ADD, None, tuple(terms))


def rf_to_tree(rf: RF) -> Expr:
    nt = _poly_tree(rf.num, rf.c)
    if not rf.den or nt is ZERO_E:
        out = nt
    else:
        factors = [nt]
        for _k, f, e in rf.den:
            if len(f) == 1:
                (m, c), = f.items()
                factors.append(_mono_tree(
                    tuple((aid, -Fraction(ee) * e) for aid, ee in m),
                    Fraction(1) / (Fraction(c) ** e)))
            else:
                factors.append(Expr(POW, Fraction(-e), (_poly_tree(f),)))
        out = mul(*factors)
    out._rf = rf
    return out


def normalize(e: Expr) -> Expr:
    """Canonical form: expanded, cancelled, sorted operands.  The concrete
    tree materialises lazily (printing and structural comparison force it;
    comparison of two normalized expressions short-circuits on the
    canonical rational form)."""
    return Expr(None, rf=e.rf)


# ------------------------------------------------------------- differentiation


def partial(e: Expr, v: str) -> Expr:
    """Exact partial derivative with respect to the variable named v."""
    return from_rf(_p.drf(e.rf, _p.var_atom(v)))


# ---------------------------------------------------------------- evaluation


def eval_tree(e: Expr, env: dict, margin: float = 0.0) -> float:
    """Faithful evaluation of the tree (no normalisation)."""
    return eval_tree_dual(e, (), env, {}, margin)[0]


def eval_tree_dual(e: Expr, vs: tuple, env: dict, cache: dict,
                   margin: float = 0.0) -> tuple:
    """(value, derivatives, value-mass, derivative masses) without lowering
    the tree; the derivatives and their masses are sequences over the
    variables vs (see poly.eval_rf_dual).

    rf-backed leaves evaluate through the polynomial layer, once per cache
    however often the tree holds them; tree nodes combine dual numbers, so
    large invariant expressions never have to be expanded symbolically."""
    k = e.kind
    if k is None:
        # keyed by identity: equal RFs may hold their terms in another
        # order, and so round differently; negative, so never an atom id
        rf = e._rf
        key = -id(rf)
        out = cache.get(key)
        if out is None:
            out = cache[key] = _p.eval_rf_dual(rf, vs, env, cache, margin)
        return out
    n = len(vs)
    if k == NUM:
        c = float(e.data)
        zero = [0.0] * n
        return c, zero, abs(c), zero
    if k == VARK:
        try:
            val = float(env[e.data])
        except KeyError:
            raise DomainError(f"unbound variable {e.data!r}")
        dv = [1.0 if w == e.data else 0.0 for w in vs]
        return val, dv, abs(val), dv
    if k == ADD:
        tv = tm = 0.0
        tdv = [0.0] * n
        tdm = [0.0] * n
        for t in e.args:
            a, b, m, dm = eval_tree_dual(t, vs, env, cache, margin)
            tv += a
            tm += m
            if n:
                for j in range(n):
                    tdv[j] += b[j]
                    tdm[j] += dm[j]
        return tv, tdv, tm, tdm
    if k == MUL:
        tv, tm = 1.0, 1.0
        tdv = [0.0] * n
        tdm = [0.0] * n
        for t in e.args:
            a, b, m, dm = eval_tree_dual(t, vs, env, cache, margin)
            if n:
                for j in range(n):
                    tdv[j] = tv * b[j] + tdv[j] * a
                    tdm[j] = tm * dm[j] + tdm[j] * m
            tv, tm = tv * a, tm * m
        return tv, tdv, tm, tdm
    if k == POW:
        a, b, m, _dm = eval_tree_dual(e.args[0], vs, env, cache, margin)
        r = e.data
        if r < 0 and abs(a) <= margin * (1.0 + m):
            raise SingularPointError("power base vanishes at sample point")
        val = _p.real_power(a, r)
        dval = [0.0] * n
        dmass = [0.0] * n
        for j in range(n):
            if b[j] == 0.0:
                continue
            if a == 0.0:
                raise _p.ZeroBaseError("zero base in dual evaluation")
            dval[j] = float(r) * val * b[j] / a
            dmass[j] = abs(dval[j])
        return val, dval, abs(val), dmass
    if k == FUN:
        a, b, _m, _dm = eval_tree_dual(e.args[0], vs, env, cache, margin)
        val, dv = _p.kernel_dual(e.data, a, b)
        if e.data == "sgn":
            return val, dv, 1.0, dv
        dm = b if e.data == "abs" else dv
        return val, dv, abs(val), [abs(d) for d in dm]
    raise AssertionError(k)


# -------------------------------------------------------------- substitution


def _subs_rf(rf: RF, env: dict) -> RF:
    cache: dict = {}

    def sub_atom(aid: int) -> RF:
        got = cache.get(aid)
        if got is not None:
            return got
        kind, payload = _p._atom_payload[aid]
        if kind == _p.VAR:
            out = env[payload].rf if payload in env else _p.rf_var(payload)
        elif kind == _p.PRIME:
            out = _p.rf_atom(aid)
        elif kind == _p.PBASE:
            out = sub_poly(payload)
        else:
            fn, arg = payload
            out = _p.rf_kernel(fn, sub_rf(arg))
        cache[aid] = out
        return out

    def sub_poly(p: dict) -> RF:
        total = RF_ZERO
        for m, c in p.items():
            term = _p.rf_const(c)
            for aid, e in m:
                term = term * _p.rf_pow(sub_atom(aid), e)
            total = total + term
        return total

    def sub_rf(r: RF) -> RF:
        out = sub_poly(r.num)
        for _k, f, e in r.den:
            out = out / sub_poly(f).intpow(e)
        if r.c != 1:
            out = _p.rf_const(r.c) * out
        return out

    return sub_rf(rf)


# ------------------------------------------------------------------ printing


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _pow_exp_str(f: Fraction) -> str:
    if f.denominator == 1 and f >= 0:
        return str(f.numerator)
    return f"({f.numerator}/{f.denominator})" if f.denominator != 1 \
        else f"({f.numerator})"


def to_str(e: Expr) -> str:
    e = e.materialize()
    k = e.kind
    if k == NUM:
        if e.data < 0:
            return f"(-{_frac_str(-e.data)})"
        return _frac_str(e.data)
    if k == VARK:
        return e.data
    if k == FUN:
        return f"{e.data}({to_str(e.args[0])})"
    # parentheses follow the kind of each child, so materialise it first
    args = [t.materialize() for t in e.args]
    if k == ADD:
        parts = []
        for i, t in enumerate(args):
            if i and t.kind == NUM and t.data < 0:
                parts.append(" - " + _frac_str(-t.data))
            else:
                parts.append((" + " if i else "") + to_str(t))
        return "".join(parts)
    if k == MUL:
        return "*".join(f"({to_str(f)})" if f.kind == ADD else to_str(f)
                        for f in args)
    if k == POW:
        b = args[0]
        bs = to_str(b)
        if b.kind in (ADD, MUL, POW) or (b.kind == NUM and b.data >= 0):
            bs = f"({bs})"
        return f"{bs}^{_pow_exp_str(e.data)}"
    raise AssertionError(k)
