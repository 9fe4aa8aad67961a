"""Exact rational-function arithmetic over jet variables and opaque kernels.

Every expression is flattened to c * num / (f1^e1 * ... * fk^ek): an exact
rational prefactor, a primitive integer-coefficient numerator polynomial,
and a factored denominator of primitive integer polynomials.  Polynomial
"atoms" are jet variables, kernel applications (exp, log, atan, abs, sgn of
an inner rational form), fractional powers of multi-term polynomial bases,
and prime integers carrying fractional powers of rational constants.
Monomial exponents are ints or Fractions; integer powers of composite atoms
are spliced back into the polynomial so that q^(1/2)*q^(1/2) is q and
2^(1/2)*8^(1/2) is 4.

Keeping denominators factored makes the operations the invariant pipelines
hammer on cheap: differentiation bumps factor multiplicities by one instead
of squaring denominators, and cancellation is a few exact-division tests
instead of a multivariate gcd.  A derivative is made from int polynomials
with its rational scale in c, so that _cancel screens it; a polynomial in
jet variables is differentiated by exponent, and drf makes each
quotient-rule term in one _make.

Exact division and the multi-term product work on packed exponent vectors
(_pack_plan): each monomial becomes one int, so a monomial product is one
addition and a comparison in the division's lex order one int compare.
_make cancels in one pass (_cancel): the numerator's integer images screen
each factor; one plan packs the numerator and every factor, and the
numerator stays packed across hits.  The value image is a homomorphism, so
a product's or a sum's comes from its operands' (RF._img); where _make
rewrites the numerator first (a splice, the Laurent shift, the monomial
content) and for dpoly's groups, _cancel takes it from the numerator.
What comes out is keyed by tuple monomials in the same order as pairwise
division gives.  Fields hold the operands' exponents times 2 for a product
and 2 * (_DIV_GUARD + 2) per possible hit for a pass, so none can overflow
and nothing checks at run time.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import chain
from typing import Optional, Union

Coeff = Union[int, Fraction]

VAR = "var"
KERN = "kern"
PBASE = "pbase"
PRIME = "prime"

JET_VARS = ("x", "y", "p", "q")
KERNEL_NAMES = ("exp", "log", "atan", "abs", "sgn")


class DomainError(ArithmeticError):
    """Evaluation left the real domain (even root of a negative value, log
    of a non-positive value)."""


class SingularPointError(ArithmeticError):
    """A guard denominator vanished (or nearly vanished) at the point."""


class ZeroBaseError(SingularPointError):
    """A derivative needs d log u at u = 0.  Raised only where the
    derivative of u by one of the variables is nonzero, so the point may
    still serve the others."""


def _exp_norm(e: Coeff) -> Coeff:
    if type(e) is int or e.denominator != 1:
        return e
    return e.numerator


def _exp_den(e: Coeff) -> int:
    return 1 if type(e) is int else e.denominator


def _exp_num(e: Coeff) -> int:
    return e if type(e) is int else e.numerator


def _as_frac(c: Coeff) -> Fraction:
    return Fraction(c) if type(c) is int else c


# ----------------------------------------------------------------- atom table

_atom_payload: list = []     # index -> (kind, payload)
_atom_ids: dict = {}         # key -> index


def _intern_atom(kind, key, payload) -> int:
    aid = _atom_ids.get((kind, key))
    if aid is None:
        aid = len(_atom_payload)
        _atom_ids[(kind, key)] = aid
        _atom_payload.append((kind, payload))
    return aid


def var_atom(name: str) -> int:
    return _intern_atom(VAR, name, name)


def kern_atom(fn: str, arg: "RF") -> int:
    return _intern_atom(KERN, (fn, arg.key()), (fn, arg))


def pbase_atom(base: dict) -> int:
    return _intern_atom(PBASE, poly_key(base), base)


def prime_atom(p: Union[int, Fraction]) -> int:
    """A prime, or a positive rational too large to factor, kept exact."""
    return _intern_atom(PRIME, p, p)


# ---------------------------------------------------------------- monomials

# A monomial: tuple of (atom_id, exponent), strictly increasing in atom id,
# with no zero exponent; exponents are ints when integral, Fractions
# otherwise.  Equal monomials must be equal tuples and mono_mul's merge
# relies on that order, so a monomial assembled from parts in any other
# order goes through mono_from.
MONE: tuple = ()


def mono_from(entries) -> tuple:
    """The monomial of (atom_id, exponent) entries given in any order:
    sorted by atom id, repeated ids merged, zero exponents dropped."""
    acc: dict = {}
    for aid, e in entries:
        acc[aid] = acc.get(aid, 0) + e
    return tuple((aid, _exp_norm(e)) for aid, e in sorted(acc.items()) if e)


def mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ea = a[i]
        eb = b[j]
        if ea[0] < eb[0]:
            out.append(ea)
            i += 1
        elif ea[0] > eb[0]:
            out.append(eb)
            j += 1
        else:
            s = ea[1] + eb[1]
            if s:
                out.append((ea[0], _exp_norm(s)))
            i += 1
            j += 1
    if i < la:
        out.extend(a[i:])
    if j < lb:
        out.extend(b[j:])
    return tuple(out)


def mono_key(a: tuple):
    return tuple((aid, _exp_num(e), _exp_den(e)) for aid, e in a)


class _FieldEntries(dict):
    """The (atom_id, exponent) entry of each value of one packed field:
    the operands' own entry or one made on first use, so that every term
    unpacked in one call shares it."""

    __slots__ = ("aid", "zero", "den")

    def __missing__(self, f: int) -> tuple:
        e = f - self.zero
        ent = self[f] = (self.aid, e if self.den == 1
                         else _exp_norm(Fraction(e, self.den)))
        return ent


def _pack_plan(room: int, *polys: dict) -> tuple:
    """Packed exponent vectors for the monomials of the polynomials
    (Monagan & Pearce, CASC 2007): (pack, unpack, high).

    pack(m), for a monomial m of one of them, is one int with a bit field
    per atom of their joint universe, the smallest atom id in the most
    significant field.  A field holds the exponent times the lcm of that
    atom's exponent denominators, plus a bias of half the field's range,
    under a borrow bit that is 0; high has every borrow bit set.  So the
    ints compare as their monomials do in poly_div_exact's lex order,
    x1 + x2 - pack(MONE) is the packed product, and
    ((x1 | high) - x2) & high == high iff no exponent of x1 is below that
    of x2.  A field holds any scaled exponent up to room times the
    polynomials' largest in absolute value, so a caller that stays within
    that cannot overflow one.  unpack turns a packed int back into a
    tuple monomial.
    """
    ents = set().union(*chain.from_iterable(polys))
    den: dict = {}
    top: dict = {}
    for aid, e in ents:
        d = e.denominator
        n = abs(e.numerator)
        cur = den.get(aid)
        if cur is None:
            den[aid] = d
            top[aid] = n
        else:
            if cur % d:
                den[aid] = cur * d // math.gcd(cur, d)
            if n > top[aid]:
                top[aid] = n
    at: dict = {}
    fields = []
    one = high = shift = 0
    for aid in sorted(den, reverse=True):
        d = den[aid]
        width = (room * top[aid] * d).bit_length() + 1
        tab = _FieldEntries()
        tab.aid, tab.zero, tab.den = aid, 1 << (width - 1), d
        at[aid] = (shift, tab)
        fields.append((shift, (1 << width) - 1, tab.zero, tab))
        one |= tab.zero << shift
        high |= 1 << (shift + width)
        shift += width + 1
    fields.reverse()
    part: dict = {}
    for ent in ents:
        aid, e = ent
        sh, tab = at[aid]
        f = e.numerator * (tab.den // e.denominator)
        part[ent] = f << sh
        tab[tab.zero + f] = ent
    part_of = part.__getitem__

    def pack(m: tuple) -> int:
        return sum(map(part_of, m), one)

    def unpack(x: int) -> tuple:
        return tuple([tab[f] for sh, mask, zero, tab in fields
                      if (f := x >> sh & mask) != zero])

    return pack, unpack, high


# -------------------------------------------------------------- polynomials

# A polynomial is a dict {monomial: coeff}, zero coefficients removed.
# Coefficients are ints in canonical polys; Fractions may appear transiently.


P_ONE = {MONE: 1}


def poly_add(a: dict, b: dict) -> dict:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for m, c in b.items():
        cur = out.get(m)
        if cur is None:
            out[m] = c
        else:
            s = cur + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def poly_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def poly_scale(a: dict, c: Coeff) -> dict:
    if not c:
        return {}
    if c == 1:
        return a
    return {m: cc * c for m, cc in a.items()}


def poly_mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) == 1:
        (ma, ca), = a.items()
        if not ma:
            return poly_scale(b, ca)
    if len(b) == 1:
        (mb, cb), = b.items()
        if not mb:
            return poly_scale(a, cb)
        return {mono_mul(ma, mb): ca * cb for ma, ca in a.items()}
    if len(a) == 1:
        return {mono_mul(ma, mb): ca * cb for mb, cb in b.items()}
    pack, unpack, _high = _pack_plan(2, a, b)
    one = pack(MONE)
    pb = [(pack(m) - one, c) for m, c in b.items()]
    out: dict = {}
    get = out.get
    for ma, ca in a.items():
        xa = pack(ma)
        for yb, cb in pb:
            m = xa + yb
            c = ca * cb
            cur = get(m)
            if cur is None:
                out[m] = c
            else:
                s = cur + c
                if s:
                    out[m] = s
                else:
                    del out[m]
    return {unpack(m): c for m, c in out.items()}


def poly_pow(a: dict, n: int) -> dict:
    if n == 0:
        return dict(P_ONE)
    if n == 1:
        return a
    half = poly_pow(a, n // 2)
    out = poly_mul(half, half)
    if n % 2:
        out = poly_mul(out, a)
    return out


def poly_key(a: dict):
    return tuple(sorted((mono_key(m), _exp_num(c), _exp_den(c))
                        for m, c in a.items()))


def poly_is_const(a: dict) -> bool:
    return not a or (len(a) == 1 and MONE in a)


def poly_lead_mono(a: dict) -> tuple:
    """The largest monomial of a in mono_key order (see poly_primitive)."""
    if any(type(e) is not int for m in a for _aid, e in m):
        return max(a, key=mono_key)
    return max(a)


def poly_primitive(a: dict) -> tuple:
    """(c, b) with a == c*b for a nonzero polynomial a: c a Fraction, b a
    new dict with int coefficients of gcd 1 and a positive coefficient on
    the lead monomial.

    The lead is the largest monomial in mono_key order, which compares a
    fractional exponent by its numerator, then its denominator, not by its
    value: 1/2 ranks above 1 and 3/2 above 2.  With int exponents only,
    mono_key order is plain tuple order, so max(a) finds the same lead."""
    if len(a) == 1:
        (m, c), = a.items()
        return Fraction(c), {m: 1}
    den = 1
    if set(map(type, a.values())) != {int}:
        den = math.lcm(*(c.denominator for c in a.values()))
        a = {m: c.numerator * (den // c.denominator) for m, c in a.items()}
    vals = a.values()
    g = math.gcd(*vals)
    if min(vals) < 0 and (max(vals) < 0 or a[poly_lead_mono(a)] < 0):
        g = -g
    return Fraction(g, den), \
        dict(a) if g == 1 else {m: c // g for m, c in a.items()}


def poly_mono_content(a: dict) -> tuple:
    """Largest monomial dividing every term."""
    common: Optional[dict] = None
    for m in a:
        md = dict(m)
        if common is None:
            common = md
        else:
            for aid in list(common):
                e = md.get(aid)
                if e is None:
                    del common[aid]
                elif e < common[aid]:
                    common[aid] = e
        if not common:
            return MONE
    return mono_from(common.items()) if common else MONE


_DIV_GUARD = 20000


class _DivisionUndecided(Exception):
    """poly_div_exact ran past _DIV_GUARD reduction steps without deciding."""


def poly_div_exact(a: dict, b: dict, plan: Optional[tuple] = None
                   ) -> Optional[dict]:
    """Exact division a/b over the rationals, or None when b does not
    divide a.  a and b nonzero.  Raises _DivisionUndecided when the
    reduction runs past _DIV_GUARD steps.  a, b and the quotient are keyed
    by tuple monomials, or by packed ints under plan, a _pack_plan whose
    room covers the division (see _cancel).  A step's new remainder terms
    lie within the span of b's exponents of its lead, so over _DIV_GUARD
    steps no field leaves 2 * (_DIV_GUARD + 1) times the operands' largest.

    Uses a lexicographic order over the joint atom universe (a genuine
    monomial order), so reduction strictly decreases the lead term.
    Necessary conditions reject many non-divisors early (Monagan & Pearce,
    J. Symb. Comp. 46, 2011).  a = q*b makes lead(a) = lead(q)*lead(b),
    which the first step tests, and trail(a) = trail(q)*trail(b), tested
    before the heap is built.  When a has integer coefficients and b is a
    primitive integer polynomial, Gauss's lemma puts q in Z[...] too, so
    tc(b) must divide tc(a), and the first fractional quotient coefficient
    (lc(a)/lc(b) at the first step) ends the division.
    """
    ints = (all(type(c) is int for c in a.values())
            and all(type(c) is int for c in b.values())
            and math.gcd(*b.values()) == 1)
    pack, unpack, high = plan or _pack_plan(2 * (_DIV_GUARD + 2), a, b)
    rem = dict(a) if plan else {pack(m): c for m, c in a.items()}
    if not plan:
        b = {pack(m): c for m, c in b.items()}
    lead_b = max(b)
    trail_b = min(b)
    cb = b[lead_b]
    trail_a = min(rem)
    if ((trail_a | high) - trail_b) & high != high:
        return None
    if ints and rem[trail_a] % b[trail_b]:
        return None
    steps = [(x - lead_b, c) for x, c in b.items()]
    to_quo = pack(MONE) - lead_b
    heap = [-x for x in rem]           # negated: the min-heap pops the lead
    heapq.heapify(heap)
    quo: dict = {}
    guard = 0
    while rem:
        guard += 1
        if guard > _DIV_GUARD:
            raise _DivisionUndecided
        lead_r = -heapq.heappop(heap)
        while lead_r not in rem:
            lead_r = -heapq.heappop(heap)
        if ((lead_r | high) - lead_b) & high != high:
            return None
        qc = _frac_c(rem[lead_r], cb)
        if ints and type(qc) is not int:
            return None
        quo[lead_r + to_quo] = qc
        for delta, cb2 in steps:
            mm = lead_r + delta
            cur = rem.get(mm)
            nv = (cur if cur is not None else 0) - qc * cb2
            if nv:
                if cur is None:
                    heapq.heappush(heap, -mm)
                rem[mm] = nv
            elif cur is not None:
                del rem[mm]
    if rem or plan:
        return None if rem else quo
    return {unpack(x): c for x, c in quo.items()}


def _id_image(a: dict) -> int:
    """a's value with atom id i at 2**20 + i, or 0 (telling nothing) unless
    every exponent is a nonnegative int.  By Gauss's lemma, if a = q*b, a int
    and b primitive int, b's value here (and its sum) divides a's."""
    ents = set().union(*a)
    if any(type(e) is not int or e < 0 for _aid, e in ents):
        return 0
    power = {ent: ((1 << 20) + ent[0]) ** ent[1] for ent in ents}.__getitem__
    return sum(c * math.prod(map(power, m)) for m, c in a.items())


def _frac_c(a: Coeff, b: Coeff) -> Coeff:
    if type(a) is int and type(b) is int and b != 0 and a % b == 0:
        return a // b
    out = _as_frac(a) / _as_frac(b)
    return out.numerator if out.denominator == 1 else out


# ---------------------------------------------------------------- prime split

def _factorint(n: int) -> Optional[dict]:
    out: dict = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 53
    while d * d <= n and d < 100000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        if n < 10 ** 10:
            out[n] = out.get(n, 0) + 1
        else:
            return None
    return out


def _frac_pow_const_parts(c: Fraction, e: Fraction) -> tuple:
    """c**e for positive rational c: (rational coeff, extra mono entries)."""
    assert c > 0
    if _exp_den(e) == 1:
        return _as_frac(c) ** _exp_num(e), ()
    fn = _factorint(c.numerator)
    fd = _factorint(c.denominator)
    if fn is None or fd is None:
        aid = prime_atom(c)
        return Fraction(1), ((aid, e),)
    powers: dict = dict(fn)
    for p, k in fd.items():
        powers[p] = powers.get(p, 0) - k
    coeff = Fraction(1)
    entries = []
    for p, k in sorted(powers.items()):
        tot = e * k
        n = math.floor(tot)
        rem = _exp_norm(tot - n)
        coeff *= Fraction(p) ** n
        if rem:
            entries.append((prime_atom(p), rem))
    return coeff, mono_from(entries)


# ------------------------------------------------------------ canonical terms


def _canon_term(mono: tuple, coeff: Fraction):
    """Splice integer powers of composite atoms out of one monomial.

    Returns (coeff, mono, extras); extras lists (poly-or-RF, int exp)
    factors still to be multiplied in.
    """
    entries = []
    extras = []
    for aid, e in mono:
        kind, payload = _atom_payload[aid]
        if kind == VAR:
            entries.append((aid, e))
        elif kind == PRIME:
            n = math.floor(e)
            rem = _exp_norm(e - n)
            coeff *= Fraction(payload) ** n
            if rem:
                entries.append((aid, rem))
        elif kind == PBASE:
            n = math.floor(e)
            rem = _exp_norm(e - n)
            if n:
                extras.append((payload, n))
            if rem:
                entries.append((aid, rem))
        else:  # KERN
            fn = payload[0]
            if fn == "sgn" and _exp_den(e) == 1:
                if e % 2:
                    entries.append((aid, 1))
                continue
            if fn == "abs":
                arg = payload[1]
                simple = not arg.den and len(arg.num) == 1
                if not simple:
                    # leave |multi-term|^n alone: expanding the even part
                    # would reintroduce sign-unknown polynomial factors
                    entries.append((aid, e))
                    continue
                n2 = 2 * math.floor(e / 2)
                rem = _exp_norm(e - n2)
                if n2:
                    extras.append((arg, n2))
                if rem:
                    entries.append((aid, rem))
                continue
            entries.append((aid, e))
    return coeff, mono_from(entries), extras


def _needs_canon(num: dict) -> bool:
    for m in num:
        for aid, e in m:
            kind = _atom_payload[aid][0]
            if kind == VAR:
                continue
            if kind == PRIME or kind == PBASE:
                if _exp_den(e) == 1 or e >= 1 or e < 0:
                    return True
            else:
                fn, arg = _atom_payload[aid][1]
                if fn == "sgn" and e != 1:
                    return True
                if fn == "abs" and (e >= 2 or e < 0) \
                        and not arg.den and len(arg.num) == 1:
                    return True
    return False


def _canon_poly(a: dict) -> "RF":
    num: dict = {}
    groups: dict = {}   # den-key -> accumulated numerator poly (Fractions)
    dens: dict = {}
    for m, c in a.items():
        cc, mono, extras = _canon_term(m, _as_frac(c))
        if extras:
            term = RF._raw(cc, {mono: 1}, ())
            for fac, n in extras:
                if isinstance(fac, dict):
                    fc, fp = poly_primitive(fac)
                    term = term * RF._raw(fc ** n, poly_pow(fp, n), ()) \
                        if n > 0 else \
                        term / RF._raw(fc ** (-n), poly_pow(fp, -n), ())
                else:
                    term = term * fac.intpow(n)
            dk = _den_key(term.den)
            piece = poly_scale(term.num, term.c)
            if dk in groups:
                groups[dk] = poly_add(groups[dk], piece)
            else:
                groups[dk] = piece
                dens[dk] = term.den
            continue
        cur = num.get(mono)
        num[mono] = (cur + cc) if cur is not None else cc
        if not num[mono]:
            del num[mono]
    out = RF._raw(*poly_primitive(num), ()) if num else RF_ZERO
    for dk, numpart in groups.items():
        out = out + _make(Fraction(1), numpart, dens[dk])
    return out


# ------------------------------------------------------------------ the RF


def _den_key(den: tuple):
    return tuple((k, e) for k, _p2, e in den)


class RF:
    """c * num / product(f_i^e_i); num and the f_i primitive int polys.

    _made marks an RF that _make returned, or one rescaled from it by a
    nonzero rational: _make returns it unchanged but for c (see __mul__).
    _img is num's value image (_id_image) once known, else None (see
    _image)."""

    __slots__ = ("c", "num", "den", "_key", "_hash", "_made", "_img")

    @staticmethod
    def _raw(c: Fraction, num: dict, den: tuple) -> "RF":
        out = RF.__new__(RF)
        out.c = c
        out.num = num
        out.den = den
        out._key = None
        out._hash = None
        out._made = False
        out._img = None
        return out

    def key(self):
        k = self._key
        if k is None:
            k = (self.c, poly_key(self.num), _den_key(self.den))
            self._key = k
        return k

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.key())
            self._hash = h
        return h

    def __eq__(self, other):
        return isinstance(other, RF) and self.key() == other.key()

    def is_zero_poly(self) -> bool:
        return not self.num

    def is_const(self) -> bool:
        return poly_is_const(self.num) and not self.den

    def const_value(self) -> Fraction:
        assert self.is_const()
        return self.c * self.num.get(MONE, 0)

    # arithmetic ------------------------------------------------------------

    def __add__(self, other: "RF") -> "RF":
        if not self.num:
            return other
        if not other.num:
            return self
        n1, n2 = self.num, other.num
        if self.den == other.den or _den_key(self.den) == _den_key(other.den):
            den, co1, co2 = self.den, (), ()
        else:
            den, co1, co2 = _den_lcm(self.den, other.den)
            for _k, f, e in co1:
                n1 = poly_mul(n1, poly_pow(f, e))
            for _k, f, e in co2:
                n2 = poly_mul(n2, poly_pow(f, e))
        # the value images of n1 and n2, or 0 (not known)
        v1 = v2 = 0
        if _imaged(den, self, other):
            v1, v2 = _image(self), _image(other)
            for _k, f, e in co1:
                v1 = v1 and v1 * _id_image(f) ** e
            for _k, f, e in co2:
                v2 = v2 and v2 * _id_image(f) ** e
        c1, c2 = self.c, other.c
        if c1 == c2:
            return _make(c1, poly_add(n1, n2), den, v1 and v2 and v1 + v2)
        g = Fraction(math.gcd(c1.numerator, c2.numerator),
                     (c1.denominator * c2.denominator
                      // math.gcd(c1.denominator, c2.denominator)))
        if c1 < 0 and c2 < 0:
            g = -g
        r1, r2 = (c1 / g).numerator, (c2 / g).numerator
        s = poly_add(poly_scale(n1, r1) if r1 != 1 else n1,
                     poly_scale(n2, r2) if r2 != 1 else n2)
        return _make(g, s, den, v1 and v2 and r1 * v1 + r2 * v2)

    def __neg__(self) -> "RF":
        return _rescaled(-self.c, self)

    def __sub__(self, other: "RF") -> "RF":
        return self + (-other)

    def __mul__(self, other: "RF") -> "RF":
        if not self.num or not other.num:
            return RF_ZERO
        # A rational constant times a _made RF: _make would find nothing
        # to splice, clear or cancel that it did not find before (scaling
        # by a nonzero rational changes no divisibility), so skip it.
        if other._made and not self.den and len(self.num) == 1 \
                and MONE in self.num:
            return _rescaled(self.c * other.c * self.num[MONE], other)
        if self._made and not other.den and len(other.num) == 1 \
                and MONE in other.num:
            return _rescaled(self.c * other.c * other.num[MONE], self)
        den = _den_mul(self.den, other.den)
        return _make(self.c * other.c, poly_mul(self.num, other.num), den,
                     _image(self) * _image(other)
                     if _imaged(den, self, other) else 0)

    def __truediv__(self, other: "RF") -> "RF":
        if other.is_zero_poly():
            raise ZeroDivisionError("division by symbolically zero expression")
        # cancel common denominator factors before anything expands
        sd = {k: (f, e) for k, f, e in self.den}
        extra_num = []
        for k, f, e in other.den:
            cur = sd.get(k)
            if cur is not None:
                m = min(e, cur[1])
                sd[k] = (cur[0], cur[1] - m)
                e -= m
            if e:
                extra_num.append((f, e))
        num = self.num
        for f, e in extra_num:
            num = poly_mul(num, poly_pow(f, e))
        den = tuple(sorted((k, f, e) for k, (f, e) in sd.items() if e))
        if poly_is_const(other.num):
            return _make(self.c / (other.c * other.num[MONE]), num, den)
        onum = other.num
        mc = poly_mono_content(onum)
        if mc:
            inv = tuple((aid, _exp_norm(-e)) for aid, e in mc)
            onum = poly_mul(onum, {inv: 1})
            num = poly_mul(num, {inv: 1})
        if poly_is_const(onum):
            return _make(self.c / (other.c * onum[MONE]), num, den)
        okey = poly_key(onum)
        return _make(self.c / other.c, num,
                     _den_mul(den, ((okey, onum, 1),)))

    def intpow(self, n: int) -> "RF":
        if n == 0:
            return RF_ONE
        if n == 1:
            return self
        if n > 0:
            return _make(self.c ** n, poly_pow(self.num, n),
                         tuple((k, f, e * n) for k, f, e in self.den))
        inv = RF_ONE / self
        return inv.intpow(-n)


def _rescaled(c: Fraction, rf: RF) -> RF:
    """rf with c for rf.c, keeping its mark: c / rf.c must be a nonzero
    rational."""
    out = RF._raw(c, rf.num, rf.den)
    out._made = rf._made
    out._img = rf._img
    return out


def _imaged(den: tuple, a: RF, b: RF) -> bool:
    """Whether a result over den takes its value image from a's and b's:
    _cancel screens num by it against den's multi-term factors, or one of
    them is known already, so the other, smaller than the result, is all
    that is left to take."""
    return a._img is not None or b._img is not None \
        or any(len(f) > 1 for _k, f, _e in den)


def _image(rf: RF) -> int:
    """rf.num's value image (_id_image), taken at most once per RF."""
    v = rf._img
    if v is None:
        v = rf._img = _id_image(rf.num)
    return v


def _den_mul(d1: tuple, d2: tuple) -> tuple:
    if not d1:
        return d2
    if not d2:
        return d1
    out = {k: (f, e) for k, f, e in d1}
    for k, f, e in d2:
        cur = out.get(k)
        out[k] = (f, e + cur[1]) if cur else (f, e)
    return tuple(sorted((k, f, e) for k, (f, e) in out.items() if e))


def _den_lcm(d1: tuple, d2: tuple) -> tuple:
    all_k = {k: (f, e) for k, f, e in d1}
    for k, f, e in d2:
        cur = all_k.get(k)
        if cur is None or cur[1] < e:
            all_k[k] = (f, e)
    lcm = tuple(sorted((k, f, e) for k, (f, e) in all_k.items()))
    d1m = {k: e for k, _f, e in d1}
    d2m = {k: e for k, _f, e in d2}
    co1 = tuple((k, f, e - d1m.get(k, 0)) for k, f, e in lcm
                if e - d1m.get(k, 0))
    co2 = tuple((k, f, e - d2m.get(k, 0)) for k, f, e in lcm
                if e - d2m.get(k, 0))
    return lcm, co1, co2


_CANCEL_NUM_CAP = 5000


def _make(c: Fraction, num: dict, den: tuple, v: int = 0) -> "RF":
    """Normalise: splice composites, clear Laurent exponents, cancel.  v is
    num's value image (_id_image) when the caller knows it, else 0; it is
    dropped where num is rewritten before _cancel."""
    if not num or not c:
        return RF_ZERO
    if _needs_canon(num):
        rf = _canon_poly(num)
        if rf.is_zero_poly():
            return RF_ZERO
        c = c * rf.c
        num, v = rf.num, 0
        den = _den_mul(den, rf.den)
    # clear negative exponents in the numerator
    worst: dict = {}
    for m in num:
        for aid, e in m:
            if e < 0 and e < worst.get(aid, 0):
                worst[aid] = e
    if worst:
        shift = mono_from((aid, -e) for aid, e in worst.items())
        num, v = poly_mul(num, {shift: 1}), 0
        den = _den_mul(den, tuple(
            (poly_key({((aid, _exp_norm(-e)),): 1}),
             {((aid, _exp_norm(-e)),): 1}, 1)
            for aid, e in sorted(worst.items())))
    # cancel numerator monomial content against monomial den factors
    mono_entries: dict = {}
    out_den = []
    for k, f, e in den:
        if len(f) == 1:
            (fm, fc), = f.items()
            assert fc == 1 or fm, "constant denominator factor"
            for aid, ee in fm:
                mono_entries[aid] = mono_entries.get(aid, 0) + ee * e
            if fc != 1:
                c = c / Fraction(fc) ** e
        else:
            out_den.append((k, f, e))
    if mono_entries:
        nc = poly_mono_content(num)
        ncd = dict(nc)
        inv = []
        for aid, ee in sorted(mono_entries.items()):
            ee = _exp_norm(ee)
            have = ncd.get(aid, 0)
            take = min(ee, have)
            if take > 0:
                inv.append((aid, -take))
                ee = _exp_norm(ee - take)
            if ee:
                fp = {((aid, ee),): 1}
                out_den.append((poly_key(fp), fp, 1))
        if inv:
            num, v = poly_mul(num, {mono_from(inv): 1}), 0
    den = tuple(sorted(out_den))
    if den and len(num) <= _CANCEL_NUM_CAP and not poly_is_const(num):
        image = [v]
        num, den = _cancel(num, den, image)
        v = image[0]
    cc, num = poly_primitive(num)
    out = RF._raw(c if cc == 1 else c * cc, num, den)
    out._made = True
    if v:
        out._img = v // cc.numerator
    return out


def _cancel(num: dict, den: tuple, image: Optional[list] = None) -> tuple:
    """(num, den) with each multi-term factor of den divided out of num as
    often as it divides it; a factor that does not divide num divides no
    quotient num/g either, so one pass suffices unless a division was cut
    off by the step guard and others divided num.  With int coefficients
    and primitive int factors, integer images (_id_image) screen each
    factor: num's value image comes from image = [v] when v is not 0, else
    it is taken from num at most once; after a hit num's images are
    divided by the factor's (the value image becomes 0 if the factor's is
    0), and image[0] is left as the returned num's, or 0.  The first
    division that passes packs num and all multi-term factors under one
    plan.  After k hits no exponent exceeds k + 1 times the plan's largest
    (the Newton polytopes of the quotient and the divisors sum to num's)."""
    fs = {k: f for k, f, _e in den if len(f) > 1}
    if not fs:
        return num, den
    ints = all(type(c) is int for p in (num, *fs.values())
               for c in p.values()) \
        and all(math.gcd(*f.values()) == 1 for f in fs.values())
    images = {k: [sum(f.values()), None] for k, f in fs.items() if ints}
    s = sum(num.values())               # num's images; v None: not taken
    v = (image and image[0]) or None
    cur = plan = None                   # num packed, once a division runs
    undecided = hit = False
    new_den = []
    for k, f, e in den:
        img = images.get(k)
        while e > 0 and len(f) > 1:
            if img:
                sf, vf = img
                if sf and s % sf:
                    break
                if vf is None:
                    vf = img[1] = _id_image(f)
                if vf and v is None:
                    v = _id_image(num)
                if vf and v % vf:
                    break
            if plan is None:
                plan = _pack_plan(2 * (_DIV_GUARD + 2)
                                  * sum(t[2] for t in den), num, *fs.values())
                pack, unpack, _high = plan
                cur = {pack(m): c for m, c in num.items()}
                packed = {k2: {pack(m): c for m, c in g.items()}
                          for k2, g in fs.items()}
            try:
                q = poly_div_exact(cur, packed[k], plan)
            except _DivisionUndecided:
                undecided = True
                break
            if q is None:
                break
            cur, e, hit = q, e - 1, True
            if img:
                s = s // sf if sf else sum(cur.values())
            v = v // vf if img and vf else 0
        if e:
            new_den.append((k, f, e))
    if hit:
        num, den = {unpack(x): c for x, c in cur.items()}, tuple(new_den)
    if image is not None:
        image[0] = v or 0
    return _cancel(num, den, image) if undecided and hit else (num, den)


RF_ZERO = RF._raw(Fraction(0), {}, ())
RF_ONE = RF._raw(Fraction(1), dict(P_ONE), ())


def rf_const(c: Fraction) -> RF:
    c = _as_frac(c)
    return RF._raw(c, dict(P_ONE), ()) if c else RF_ZERO


def rf_var(name: str) -> RF:
    return RF._raw(Fraction(1), {((var_atom(name), 1),): 1}, ())


def rf_atom(aid: int, e: Coeff = 1) -> RF:
    return _make(Fraction(1), {((aid, _exp_norm(e)),): 1}, ())


# ---------------------------------------------------------- fractional powers


def _mono_all_positive(m: tuple) -> bool:
    return all(_atom_positive(aid, e) for aid, e in m)


def _even_pow_safe(base: RF) -> bool:
    """May an even root be taken without routing through abs?

    Safe exactly when the representation does not split the power across
    independently-signed factors: a constant (_frac_power_const rejects a
    negative one), a lone atom, a monomial of manifestly nonnegative atoms
    over such a denominator, or a single multi-term numerator with no
    monomial content and no denominator (it becomes one opaque power base
    with strict real semantics).
    """
    if base.c < 0:
        return base.is_const()
    num = base.num
    if len(num) == 1:
        (m, _c), = num.items()
        if not (len(m) <= 1 and not base.den) \
                and not _mono_all_positive(m):
            return False
        for _k, f, _e in base.den:
            if len(f) != 1:
                return False
            (fm, fc), = f.items()
            if fc < 0 or not _mono_all_positive(fm):
                return False
        return True
    return not base.den and not poly_mono_content(num)


def rf_pow(base: RF, e: Fraction) -> RF:
    """base**e with an exact rational exponent.

    Odd roots are multiplicative over the reals and distribute factorwise;
    even roots of composite bases go through abs (exact wherever the whole
    base is nonnegative, i.e. wherever the expression is real at all)."""
    e = _as_frac(e)
    if e.denominator == 1:
        return base.intpow(e.numerator)
    if base.is_zero_poly():
        if e > 0:
            return RF_ZERO
        raise ZeroDivisionError("0 raised to a negative power")
    if e.denominator % 2 == 0 and not _even_pow_safe(base):
        return rf_pow(rf_kernel("abs", base), e)
    c, num = base.c, base.num
    if c < 0 and e.denominator % 2 == 0:
        # sign must stay inside the even root; push it into the poly part
        c, num = -c, poly_neg(num)
    out = _frac_power_const(c, e) * _frac_power_poly(num, e)
    for _k, f, fe in base.den:
        out = out * _frac_power_poly(f, -e * fe)
    return out


def _frac_power_poly(p: dict, e: Fraction) -> RF:
    """p**e for a nonzero polynomial p with integer coefficients."""
    if e.denominator == 1:
        n = e.numerator
        if n >= 0:
            return RF._raw(Fraction(1), poly_pow(p, n), ())
        return RF_ONE / RF._raw(Fraction(1), poly_pow(p, -n), ())
    if poly_is_const(p):
        return _frac_power_const(_as_frac(p[MONE]), e)
    if len(p) == 1:
        (m, cc), = p.items()
        if cc < 0 and e.denominator % 2 == 0:
            # e.g. (-y)^(1/2): keep the signed monomial as an opaque base
            aid = pbase_atom({m: -1})
            return _frac_power_const(Fraction(-cc), e) * rf_atom(aid, e)
        out = _frac_power_const(_as_frac(cc), e)
        mono = mono_from((aid, ee * e) for aid, ee in m)
        return out * _make(Fraction(1), {mono: 1}, ())
    mc = poly_mono_content(p)
    if mc:
        # distribute over the monomial content (odd-root convention)
        inv = tuple((aid, _exp_norm(-ee)) for aid, ee in mc)
        phat = poly_mul(p, {inv: 1})
        mono = mono_from((aid, ee * e) for aid, ee in mc)
        return _make(Fraction(1), {mono: 1}, ()) * _frac_power_poly(phat, e)
    cc, prim = poly_primitive(p)
    if cc < 0 and e.denominator % 2 == 0:
        # keep the sign inside the base: atom with negative leading sign
        aid = pbase_atom(poly_neg(prim))
        return _frac_power_const(-cc, e) * rf_atom(aid, e)
    out = _frac_power_const(cc, e)
    return out * rf_atom(pbase_atom(prim), e)


def _frac_power_const(c: Fraction, e: Fraction) -> RF:
    if c == 1:
        return RF_ONE
    if c == 0:
        return RF_ZERO
    sign = 1
    if c < 0:
        if e.denominator % 2 == 1:
            sign = 1 if e.numerator % 2 == 0 else -1
            c = -c
        else:
            raise DomainError("even root of a negative constant")
    coeff, extra = _frac_pow_const_parts(c, e)
    return RF._raw(sign * coeff, {extra: 1}, ())


def _unit_rf(aid: int) -> RF:
    return RF._raw(Fraction(1), {((aid, 1),): 1}, ())


def _atom_positive(aid: int, e: Coeff) -> bool:
    """Is atom^e manifestly nonnegative (odd-root semantics)?"""
    kind, payload = _atom_payload[aid]
    if kind == PRIME:
        return True
    if kind == KERN and payload[0] in ("exp", "abs"):
        return True
    return _exp_num(e) % 2 == 0


def _abs_atom_pow(aid: int, e: Coeff) -> RF:
    entry = _abs_entry(aid, e)
    return RF_ONE if entry is None else rf_atom(*entry)


def _sgn_atom_pow(aid: int, e: Coeff) -> RF:
    kind, payload = _atom_payload[aid]
    if kind == KERN and payload[0] == "sgn":
        return rf_atom(aid) if _exp_num(e) % 2 else RF_ONE
    if _atom_positive(aid, e):
        return RF_ONE
    if kind == PBASE:
        return rf_atom(kern_atom("sgn", RF._raw(Fraction(1), payload, ())))
    return rf_atom(kern_atom("sgn", _unit_rf(aid)))


def _abs_entry(aid: int, e: Coeff) -> tuple:
    """(atom, exponent) for |atom^e|; None when it is 1."""
    kind, payload = _atom_payload[aid]
    if kind == KERN and payload[0] == "sgn":
        return None
    if _atom_positive(aid, e):
        return (aid, e)
    if kind == PBASE:
        return (kern_atom("abs", RF._raw(Fraction(1), payload, ())), e)
    return (kern_atom("abs", _unit_rf(aid)), e)


def _abs_rf(arg: RF) -> RF:
    out = rf_const(abs(arg.c))
    rest = arg.num
    mc = poly_mono_content(rest)
    if mc:
        inv = tuple((aid, _exp_norm(-e)) for aid, e in mc)
        rest = poly_mul(rest, {inv: 1})
        for aid, e in mc:
            out = out * _abs_atom_pow(aid, e)
    if not poly_is_const(rest):
        out = out * rf_atom(kern_atom("abs", RF._raw(Fraction(1), rest, ())))
    elif rest.get(MONE, 1) != 1:
        out = out * rf_const(abs(Fraction(rest[MONE])))
    # denominator factors are wrapped in place (no splice-backs that would
    # reintroduce sign-unknown polynomial factors)
    den_extra = []
    for _k, f, e in arg.den:
        if len(f) == 1:
            (fm, _fc), = f.items()
            for aid, ee in fm:
                entry = _abs_entry(aid, _exp_norm(ee * e))
                if entry is not None:
                    fp = {((entry[0], _exp_norm(entry[1])),): 1}
                    den_extra.append((poly_key(fp), fp, 1))
            continue
        aid = kern_atom("abs", RF._raw(Fraction(1), f, ()))
        fp = {((aid, e),): 1}
        den_extra.append((poly_key(fp), fp, 1))
    if den_extra:
        out = RF._raw(out.c, out.num,
                      _den_mul(out.den, tuple(sorted(den_extra))))
    return out


def _sgn_rf(arg: RF) -> RF:
    out = rf_const(Fraction(1 if arg.c > 0 else -1))
    rest = arg.num
    mc = poly_mono_content(rest)
    if mc:
        inv = tuple((aid, _exp_norm(-e)) for aid, e in mc)
        rest = poly_mul(rest, {inv: 1})
        for aid, e in mc:
            out = out * _sgn_atom_pow(aid, e)
    if not poly_is_const(rest):
        out = out * rf_atom(kern_atom("sgn", RF._raw(Fraction(1), rest, ())))
    elif rest.get(MONE, 1) < 0:
        out = -out
    for _k, f, e in arg.den:
        if len(f) == 1:
            (fm, _fc), = f.items()
            for aid, ee in fm:
                out = out * _sgn_atom_pow(aid, _exp_norm(ee * e))
            continue
        if e % 2:
            out = out * rf_atom(kern_atom("sgn", RF._raw(Fraction(1), f, ())))
    return out


def rf_kernel(fn: str, arg: RF) -> RF:
    """Apply a unary kernel.  Only direct composition cancellations plus
    distribution of abs/sgn over monomial factors of known sign."""
    if fn == "abs":
        if arg.is_const():
            return rf_const(abs(arg.const_value()))
        return _abs_rf(arg)
    if fn == "sgn":
        if arg.is_zero_poly():
            return RF_ZERO
        if arg.is_const():
            return rf_const(Fraction(1 if arg.const_value() > 0 else -1))
        return _sgn_rf(arg)
    if fn == "log":
        u = _single_kern_arg(arg, "exp")
        if u is not None:
            return u
        if arg.is_const() and arg.const_value() <= 0:
            raise DomainError("log of a non-positive constant")
        if arg.is_const() and arg.const_value() == 1:
            return RF_ZERO
    if fn == "exp":
        if arg.is_zero_poly():
            return RF_ONE
        u = _single_kern_arg(arg, "log")
        if u is not None:
            return u
    if fn == "atan":
        if arg.is_zero_poly():
            return RF_ZERO
    return rf_atom(kern_atom(fn, arg))


def _single_kern_arg(arg: RF, fn: str) -> Optional[RF]:
    if not arg.den and arg.c == 1 and len(arg.num) == 1:
        (m, c), = arg.num.items()
        if c == 1 and len(m) == 1 and m[0][1] == 1:
            kind, payload = _atom_payload[m[0][0]]
            if kind == KERN and payload[0] == fn:
                return payload[1]
    return None


# ------------------------------------------------------------ differentiation

_datom_cache: dict = {}


def datom_ratio(aid: int, v: int) -> RF:
    """d(atom)/dv divided by the atom itself (closed in the atom span)."""
    key = (aid, v)
    out = _datom_cache.get(key)
    if out is not None:
        return out
    kind, payload = _atom_payload[aid]
    if kind == VAR:
        out = (RF_ONE / rf_var(payload)) if aid == v else RF_ZERO
    elif kind == PRIME:
        out = RF_ZERO
    elif kind == PBASE:
        dfb = dpoly(payload, v)
        out = RF_ZERO if dfb.is_zero_poly() else \
            dfb / RF._raw(Fraction(1), payload, ())
    else:
        fn, arg = payload
        da = drf(arg, v)
        if da.is_zero_poly():
            out = RF_ZERO
        elif fn == "exp":
            out = da
        elif fn == "log":
            out = (da / arg) / rf_atom(aid)
        elif fn == "atan":
            out = (da / (RF_ONE + arg * arg)) / rf_atom(aid)
        elif fn == "abs":
            out = (rf_kernel("sgn", arg) * da) / rf_atom(aid)
        else:  # sgn
            out = RF_ZERO
    _datom_cache[key] = out
    return out


def dpoly(p: dict, v: int) -> RF:
    """Derivative of an integer polynomial with respect to var-atom v, made
    from int polynomials only (see the module docstring)."""
    if all(type(e) is int and e > 0 and _atom_payload[aid][0] == VAR
           for m in p for aid, e in m):
        d = {m[:i] + (((v, e - 1),) if e > 1 else ()) + m[i + 1:]: c * e
             for m, c in p.items() for i, (aid, e) in enumerate(m) if aid == v}
        return _make(Fraction(1), d, ()) if d else RF_ZERO
    pieces = [(m, c * e * ratio.c, ratio) for m, c in p.items()
              for aid, e in m if (ratio := datom_ratio(aid, v)).num]
    L = math.lcm(*(k.denominator for _m, k, _r in pieces))
    groups: dict = {}
    dens: dict = {}
    for m, k, ratio in pieces:
        piece = poly_mul({m: k.numerator * (L // k.denominator)}, ratio.num)
        dk = _den_key(ratio.den)
        groups[dk] = poly_add(groups.get(dk, {}), piece)
        dens.setdefault(dk, ratio.den)
    total = RF_ZERO
    for dk, numpart in groups.items():
        total = total + _make(Fraction(1, L), numpart, dens[dk])
    return total


_drf_cache: dict = {}


def drf(rf: RF, v: int) -> RF:
    key = (rf.key(), v)
    out = _drf_cache.get(key)
    if out is not None:
        return out
    dn = dpoly(rf.num, v)
    if rf.den:
        inv_den = RF._raw(Fraction(1), dict(P_ONE), rf.den)
        out = dn * inv_den
        num_rf = RF._raw(Fraction(1), rf.num, ())
        num_rf._img = rf._img           # the same numerator
        for k, f, e in rf.den:
            dfac = dpoly(f, v)
            if dfac.is_zero_poly():
                continue
            # num * f' / (den * f): dividing by f only raises its power
            term = num_rf * dfac * RF._raw(Fraction(1), P_ONE,
                                           _den_mul(rf.den, ((k, f, 1),)))
            out = out + _rescaled(term.c * (-e), term)
    else:
        out = dn
    if rf.c != 1 and not out.is_zero_poly():
        out = _rescaled(out.c * rf.c, out)
    _drf_cache[key] = out
    return out


def tables_mark() -> tuple:
    """The lengths of the tables that outlive a call: atoms and derivatives."""
    return len(_atom_payload), len(_datom_cache), len(_drf_cache)


def tables_rollback(mark: tuple) -> None:
    """Drop every atom and derivative entry made since mark, also one keyed
    by older atoms only: its value may hold a newer atom (d|u| makes sgn u).
    Use it only where nothing built before the mark is used after it."""
    del _atom_payload[mark[0]:]
    for table, n in zip((_atom_ids, _datom_cache, _drf_cache), mark):
        while len(table) > n:
            table.popitem()


# -------------------------------------------- forward-mode dual evaluation
#
# One evaluator for values and derivatives alike: vs is a tuple of variables
# to differentiate by, () for the value alone, ("q",) for one partial and the
# four jet variables for the gradient.  Derivatives come as lists over vs,
# and each component repeats, operation for operation, what a pass by that
# variable alone computes, so the gradient pass gives each partial bit for
# bit.  A cache serves one vs: it maps an atom id to the atom's value and
# nonzero derivatives, and (nodes.eval_tree_dual) a tree leaf to its result.


def real_power(base: float, e: Coeff) -> float:
    if _exp_den(e) == 1:
        return base ** int(e)
    if base > 0:
        return base ** float(e)
    if base == 0:
        if e > 0:
            return 0.0
        raise SingularPointError("zero base with negative exponent")
    if e.denominator % 2 == 1:
        mag = (-base) ** float(e)
        return -mag if e.numerator % 2 else mag
    raise DomainError("even root of a negative value")


def eval_atom_d(aid: int, vs: tuple, env: dict, cache: dict,
                margin: float) -> tuple:
    """(value, its nonzero derivatives as (index in vs, d) pairs) for one
    atom missing from cache, which receives it."""
    kind, payload = _atom_payload[aid]
    if kind == VAR:
        try:
            val = float(env[payload])
        except KeyError:
            raise DomainError(f"unbound variable {payload!r}")
        out = (val, [(vs.index(payload), 1.0)] if payload in vs else ())
    elif kind == PRIME:
        out = (float(payload), ())
    elif kind == PBASE:
        val, dval, _dm, _vm = eval_poly_d(payload, vs, env, cache, margin)
        out = (val, _nonzero(dval))
    else:
        fn, arg = payload
        u, du, _m, _dm = eval_rf_dual(arg, vs, env, cache, margin)
        val, dval = kernel_dual(fn, u, du)
        out = (val, _nonzero(dval))
    cache[aid] = out
    return out


def kernel_dual(fn: str, u: float, du: list) -> tuple:
    """(value, derivatives) of the kernel fn at u, given the derivatives du
    of u: the kernel rules of both dual evaluators."""
    if fn == "exp":
        if u > 700:
            raise DomainError("exp overflow")
        val = math.exp(u)
        return val, [val * d for d in du]
    if fn == "log":
        if u <= 0:
            raise DomainError("log of non-positive value")
        return math.log(u), [d / u for d in du]
    if fn == "atan":
        return math.atan(u), [d / (1.0 + u * u) for d in du]
    s = math.copysign(1.0, u) if u != 0 else 0.0
    if fn == "abs":
        return abs(u), [s * d for d in du]
    return s, [0.0] * len(du)


def _nonzero(ds: list) -> list:
    """The nonzero entries of ds as (index, value) pairs."""
    return [(j, d) for j, d in enumerate(ds) if d]


def eval_poly_d(p: dict, vs: tuple, env: dict, cache: dict,
                margin: float) -> tuple:
    """(value, derivatives, derivative-term masses, value-term mass)."""
    n = len(vs)
    total = 0.0
    vmass = 0.0
    dtotal = [0.0] * n
    dmass = [0.0] * n
    for m, c in p.items():
        val = 1.0
        datoms = None               # index in vs -> d log(atom^e) terms
        for aid, e in m:
            # the hot loop: cache lookup and integer power inlined
            got = cache.get(aid)
            av, adv = got if got is not None else \
                eval_atom_d(aid, vs, env, cache, margin)
            val *= av ** e if type(e) is int else real_power(av, e)
            if not adv:
                continue
            if av == 0.0:
                raise ZeroBaseError("zero base in dual evaluation")
            if datoms is None:
                datoms = {}
            for j, d in adv:
                dl = datoms.get(j)
                if dl is None:
                    datoms[j] = [float(e) * d / av]
                else:
                    dl.append(float(e) * d / av)
        term = c * val
        total += term
        vmass += abs(term)
        if datoms is None:
            continue
        for j, dl in datoms.items():
            if len(dl) == 1:
                # sum([d]) is d, or +0.0 for d = -0.0: a zero's sign
                # cannot move dtotal, which is never -0.0
                dtotal[j] += term * dl[0]
                dmass[j] += abs(term * dl[0])
            else:
                dtotal[j] += term * sum(dl)
                dmass[j] += sum(abs(term * d) for d in dl)
    return total, dtotal, dmass, vmass


def _eval_den(rf: RF, vs: tuple, env: dict, cache: dict,
              margin: float) -> tuple:
    """(value, d log / d vs, its term masses) of rf's denominator; raises
    SingularPointError where a factor vanishes relative to its mass."""
    n = len(vs)
    dv = 1.0
    dlog = [0.0] * n
    dlog_mass = [0.0] * n
    for _k, f, e in rf.den:
        fval, fdval, _fdm, fmass = eval_poly_d(f, vs, env, cache, margin)
        if abs(fval) <= margin * (1.0 + fmass):
            raise SingularPointError("denominator factor vanishes at point")
        dv *= fval ** e
        for j, d in enumerate(fdval):
            if d:
                dlog[j] += e * d / fval
                dlog_mass[j] += abs(e * d / fval)
    if dv == 0.0 or math.isinf(dv):
        raise SingularPointError("denominator under/overflow at point")
    return dv, dlog, dlog_mass


def eval_rf_dual(rf: RF, vs: tuple, env: dict, cache: dict,
                 margin: float) -> tuple:
    """(value, derivatives, value-mass, derivative masses) for rf at a
    point."""
    dv, dlog, dlog_mass = _eval_den(rf, vs, env, cache, margin)
    nval, ndval, ndmass, nmass = eval_poly_d(rf.num, vs, env, cache, margin)
    c = float(rf.c)
    val = c * nval / dv
    mass = abs(c) * nmass / abs(dv)
    if not vs:                  # value only: no quotient rule to apply
        return val, ndval, mass, ndmass
    dval = [c * nd / dv - val * dl for nd, dl in zip(ndval, dlog)]
    dmass = [abs(c) * ndm / abs(dv) + (abs(val) + mass) * dlm
             + mass * abs(dl)
             for ndm, dlm, dl in zip(ndmass, dlog_mass, dlog)]
    return val, dval, mass, dmass


def eval_rf_residual(rf: RF, env: dict, cache: dict, margin: float) -> float:
    """Relative residual of the numerator: |num| / (1 + sum |num terms|)."""
    _eval_den(rf, (), env, cache, margin)
    nv, _d, _dm, nmass = eval_poly_d(rf.num, (), env, cache, margin)
    return abs(nv) / (1.0 + nmass)


def rf_atoms(rf: RF):
    """Each atom reachable from rf, once: its monomials' atoms and, inside
    them, the atoms of kernel arguments and fractional-power bases."""
    seen: set = set()
    polys = [rf.num, *(f for _k, f, _e in rf.den)]
    while polys:
        for m in polys.pop():
            for aid, _e in m:
                if aid in seen:
                    continue
                seen.add(aid)
                yield aid
                kind, payload = _atom_payload[aid]
                if kind == KERN:
                    arg = payload[1]
                    polys += [arg.num, *(f for _k, f, _e in arg.den)]
                elif kind == PBASE:
                    polys.append(payload)


def rf_signed_atoms(rf: RF) -> set:
    """Arguments of abs/sgn kernels occurring anywhere inside rf."""
    out = set()
    for aid in rf_atoms(rf):
        kind, payload = _atom_payload[aid]
        if kind == KERN and payload[0] in ("abs", "sgn"):
            out.add(payload[1])
    return out
