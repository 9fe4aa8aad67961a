"""Monomials stay sorted by atom id whatever order the atoms were interned in.

Atom ids follow first use, so the order of the ids depends on what ran
earlier in the process.  Dict keys and mono_mul's merge rely on every
monomial being strictly increasing in atom id, with no zero exponent.  The
order tests run a script in a fresh interpreter, so that it controls the
interning order, and wrap RF construction there to count the monomials that
break the order.  The last test checks that poly_primitive picks the same
lead monomial, and so the same sign, as mono_key order."""
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import ode3geom
from ode3geom.expr import poly
from ode3geom.expr.poly import _exp_den, _exp_num, mono_key

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ode3geom.__file__)))

# Prefix of every script: counts monomials of constructed RFs (numerator and
# denominator factors) that are not strictly increasing in atom id or carry
# a zero exponent.
CHECKER = """
import json
from ode3geom.expr import poly

violations = []
_raw = poly.RF._raw


def _checked(c, num, den):
    for f in [num] + [f for _k, f, _e in den]:
        for m in f:
            ids = [aid for aid, _e in m]
            if any(a >= b for a, b in zip(ids, ids[1:])) \\
                    or not all(e for _a, e in m):
                violations.append(repr(m))
    return _raw(c, num, den)


poly.RF._raw = staticmethod(_checked)
"""


def run_fresh(script: str) -> dict:
    """Run CHECKER + script in a fresh interpreter; its last stdout line is
    a JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", CHECKER + script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_primes_interned_out_of_numeric_order():
    got = run_fresh("""
from ode3geom.expr import normalize, parse
for p in (37, 5, 13, 3):
    poly.prime_atom(p)
out = {text: str(normalize(parse(text))) for text in (
    "185^(1/2) - 5^(1/2)*37^(1/2)",
    "185^(1/2)/(5^(1/2)*37^(1/2))",
    "(5/37)^(1/2)*(37/5)^(1/2)",
    "185^(1/3)*185^(2/3)",
    "(185*q)^(1/2) - 5^(1/2)*37^(1/2)*q^(1/2)",
    "195^(1/4)*39^(3/4) - 39*5^(1/4)")}
print(json.dumps({"out": out, "violations": violations[:5]}))
""")
    assert got["out"] == {
        "185^(1/2) - 5^(1/2)*37^(1/2)": "0",
        "185^(1/2)/(5^(1/2)*37^(1/2))": "1",
        "(5/37)^(1/2)*(37/5)^(1/2)": "1",
        "185^(1/3)*185^(2/3)": "185",
        "(185*q)^(1/2) - 5^(1/2)*37^(1/2)*q^(1/2)": "0",
        "195^(1/4)*39^(3/4) - 39*5^(1/4)": "0"}
    assert got["violations"] == []


@pytest.fixture(scope="module")
def cold_row_v():
    """One cold report of contact row V, with the 24 structure coefficients
    of each reduced coframe it reads as their numerator term counts: the
    classifier reads the input's, and so does contact.reduced_tuple, which
    serves the representative check too (row V's representative has the
    input's F, and its box is the input's)."""
    return run_fresh("""
from ode3geom import cli, contact
from ode3geom.expr import DEFAULT_CONFIG

reduced = []
_inner = contact.invariants_reduced


def _spy(ode, config=DEFAULT_CONFIG):
    red = _inner(ode, config)
    reduced.append(red)
    return red


contact.invariants_reduced = _spy
report, code = cli.run_report("(q^2+1)^(3/2)*exp(atan(q)/2)", DEFAULT_CONFIG)
print(json.dumps({
    "code": code, "row": report["contact"]["row"],
    "terms": [{k: len(ex.rf.num) for k, ex in red.slots.items()}
              for red in reduced],
    "violations": len(violations), "first": violations[:5]}))
""")


def test_cold_row_v_builds_only_sorted_monomials(cold_row_v):
    assert cold_row_v["code"] == 0 and cold_row_v["row"] == "V"
    assert cold_row_v["violations"] == 0, cold_row_v["first"]


def test_cold_row_v_structure_coefficients_stay_small(cold_row_v):
    """A structural bound, not a wall-clock one: with monomials out of
    order, exact division stops cancelling and these coefficients grew to
    up to 910 numerator terms; with sorted monomials none has more than 4."""
    terms = cold_row_v["terms"]
    assert len(terms) == 2 and all(len(t) == 24 for t in terms)
    swollen = {k: n for t in terms for k, n in t.items() if n > 20}
    assert not swollen


def _reference_primitive(a: dict) -> tuple:
    """poly_primitive as it was before its int fast paths: content by a
    gcd/lcm loop over every coefficient, lead by max(a, key=mono_key)."""
    if not a:
        return Fraction(0), {}
    num_gcd = 0
    den_lcm = 1
    for c in a.values():
        num_gcd = math.gcd(num_gcd, abs(_exp_num(c)))
        d = _exp_den(c)
        den_lcm = den_lcm * d // math.gcd(den_lcm, d)
    c = Fraction(num_gcd, den_lcm)
    if a[max(a, key=mono_key)] < 0:
        c = -c
    if c == 1:
        return Fraction(1), {m: _exp_num(cc) for m, cc in a.items()}
    inv = 1 / c
    return c, {m: _exp_num(cc * inv) for m, cc in a.items()}


# 1/2 sorts above 1 and 3/2 above 2 in mono_key order, below them by value
_INT_EXPS = (1, 2, 3, -1)
_FRAC_EXPS = (1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2))


def _random_poly(rng: random.Random) -> dict:
    exps = _INT_EXPS if rng.random() < 0.5 else _FRAC_EXPS
    content = rng.choice((1, 1, 2, 6, Fraction(1, 3), Fraction(4, 15)))
    signs = rng.choice(((1,), (-1,), (1, -1)))
    a = {}
    for _ in range(rng.choice((1, 2, 3, 5))):
        m = tuple((aid, poly._exp_norm(Fraction(rng.choice(exps))))
                  for aid in range(3) if rng.random() < 0.6)
        c = rng.randint(1, 9) * rng.choice(signs) * content
        if rng.random() < 0.3:
            c = Fraction(c, rng.randint(1, 5))
        a[m] = c.numerator if c.denominator == 1 and rng.random() < 0.7 \
            else c
    return a


def test_primitive_matches_mono_key_reference():
    rng = random.Random(20261018)
    cases = [_random_poly(rng) for _ in range(4000)]
    kinds = {"single": 0, "int coeffs": 0, "fraction coeffs": 0,
             "negative lead, mixed signs": 0, "all negative": 0,
             "content != 1": 0, "lead differs by value": 0}
    for a in cases:
        vals = list(a.values())
        c, b = poly.poly_primitive(a)
        want_c, want_b = _reference_primitive(a)
        assert type(c) is Fraction and c == want_c, a
        assert list(b.items()) == list(want_b.items()), a
        assert all(type(v) is int for v in b.values()) and b is not a
        lead = max(a, key=mono_key)
        kinds["single"] += len(a) == 1
        kinds["int coeffs"] += all(type(v) is int for v in vals)
        kinds["fraction coeffs"] += any(type(v) is Fraction for v in vals)
        kinds["negative lead, mixed signs"] += \
            a[lead] < 0 < max(vals)
        kinds["all negative"] += len(a) > 1 and max(vals) < 0
        kinds["content != 1"] += abs(c) != 1
        # a value-order max would take the other sign here
        kinds["lead differs by value"] += a[lead] * a[max(a)] < 0
    assert all(n >= 20 for n in kinds.values()), kinds
