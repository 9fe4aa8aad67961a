"""Golden `report --json` bytes of the table representatives and of one
large point pullback, and golden `chazy --json --transform` bytes of two
Chazy pullbacks.

Each report file under tests/golden/ is the output of one cold
`ode3geom report --json --ode F [--box B]` at the default seed 42, and each
Chazy file that of one cold
`ode3geom chazy --json --transform --base 0,1,0,0 --ode F`.  A change
that only makes the program faster must reproduce every byte, verdicts and
printed symbolic strings alike; regenerate a file only together with a
change that means to alter the report.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ode3geom

GOLDEN = Path(__file__).parent / "golden"
BOX_VIII = "x:-1:1,y:0.8:1.0,p:0.5:0.7,q:1.2:2.0"

# (file stem, F, box): the inputs and boxes of the benchmark's table items
CASES = [
    ("zero", "0", None),
    ("linear_mu5", "-2*5*p + y", None),
    ("linear_mu_x", "-2*x*p", None),
    ("q_7_4", "q^(7/4)", None),
    ("row_V", "(q^2+1)^(3/2)*exp(atan(q)/2)", None),
    ("exp_q", "exp(q)", None),
    ("row_VIII", "(2*q*y - p^2)^(3/2)/y^2", BOX_VIII),
    ("q_3_2", "q^(3/2)", None),
    ("row_XI", "(q^2+1)^(3/2)", None),
    ("point_I2", "3/2*q^2/p", None),
    ("point_I3", "3*q^2*p/(1+p^2)", None),
    ("q_3", "q^3", None),
    ("q_2", "q^2", None),
    ("point_I1", "3*q^2/p", None),
]

# (file stem, F): Chazy classes II and V pulled back by transform 0 of
# random_fp_transforms(13, 8); both F carry the quotient /(x - 2)
CHAZY_CASES = [
    ("chazy_II_fp", "(x*y*p - x*y*q - x*p^2 + 1/4*x^2*y*q + 1/4*x^2*p^2"
                    " - 2*y*p + y*q + 1/4*y^2 + p^2 - 3*q)/(x - 2)"),
    ("chazy_V_fp", "(3/2*x*y*p - x*y*q - 3/8*x*y^2*p + 1/8*x*y^3 - 2*x*p^2"
                   " + 1/4*x^2*y*q + 3/16*x^2*y^2*p - 1/32*x^2*y^3"
                   " + 1/2*x^2*p^2 - 1/32*x^3*y^2*p - 3*y*p + y*q"
                   " + 1/2*y^2 + 1/4*y^2*p - 1/8*y^3 + 2*p^2 - 3*q)/(x - 2)"),
]

# exp(q) pulled back by the point transform below: row VI in both groups.
# Its K and W are built from large rational functions, so the sampled
# I1-I4 and I1p-I4p digits pin the order of their numerator terms.
PULLBACK_ARGV = ["--ode", "exp(q)", "--chi", "x - 1/4*x^2",
                 "--phi", "y - 1/2*y"]
PULLBACK_F = (
    "((-36)*x*p + (-96)*x*q + 256*x*exp((2*x*q + (-2)*p + (-4)*q)"
    "*((-2) + x)^(-3)) + 18*x^2*p + 72*x^2*q + (-448)*x^2*exp((2*x*q"
    " + (-2)*p + (-4)*q)*((-2) + x)^(-3)) + (-3)*x^3*p + (-24)*x^3*q"
    " + 448*x^3*exp((2*x*q + (-2)*p + (-4)*q)*((-2) + x)^(-3)) + 3*x^4*q"
    " + (-280)*x^4*exp((2*x*q + (-2)*p + (-4)*q)*((-2) + x)^(-3))"
    " + 112*x^5*exp((2*x*q + (-2)*p + (-4)*q)*((-2) + x)^(-3))"
    " + (-28)*x^6*exp((2*x*q + (-2)*p + (-4)*q)*((-2) + x)^(-3))"
    " + 4*x^7*exp((2*x*q + (-2)*p + (-4)*q)*((-2) + x)^(-3))"
    " + (-1/4)*x^8*exp((2*x*q + (-2)*p + (-4)*q)*((-2) + x)^(-3))"
    " + 24*p + 48*q + (-64)*exp((2*x*q + (-2)*p + (-4)*q)*((-2) + x)^(-3)))"
    "*((-32) + 80*x + (-80)*x^2 + 40*x^3 + (-10)*x^4 + x^5)^(-1)")

_MAIN = "import sys; from ode3geom.cli import main; sys.exit(main(sys.argv[1:]))"


def cold_cli(argv: list, src: str) -> subprocess.CompletedProcess:
    """The CLI run on argv in a fresh interpreter importing from src."""
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", _MAIN, *argv],
                          capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize("stem,text,box", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_match_golden(stem, text, box):
    src = str(Path(ode3geom.__file__).resolve().parent.parent)
    argv = ["report", "--json", "--ode", text]
    proc = cold_cli(argv + (["--box", box] if box else []), src)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{stem}.json").read_bytes()


@pytest.mark.parametrize("stem,text", CHAZY_CASES,
                         ids=[c[0] for c in CHAZY_CASES])
def test_chazy_bytes_match_golden(stem, text):
    src = str(Path(ode3geom.__file__).resolve().parent.parent)
    proc = cold_cli(["chazy", "--json", "--transform", "--base", "0,1,0,0",
                     "--ode", text], src)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{stem}.json").read_bytes()


def test_pullback_report_bytes_match_golden():
    src = str(Path(ode3geom.__file__).resolve().parent.parent)
    made = cold_cli(["pullback", *PULLBACK_ARGV], src)
    assert made.returncode == 0, made.stderr.decode()
    assert made.stdout.decode().strip() == PULLBACK_F
    proc = cold_cli(["report", "--json", "--ode", PULLBACK_F], src)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "pullback_exp_q.json").read_bytes()


# Runs the 14 reports in one fresh interpreter, records every RF that _make
# returns or rescales, and makes each again from its own c, num and den.
_FIXED_POINT = """
import contextlib, io, json, sys
from ode3geom.cli import main
from ode3geom.expr import poly

made = []
_make, _rescaled = poly._make, poly._rescaled


def record(fn):
    def recorded(*args):
        out = fn(*args)
        if out._made:
            made.append(out)
        return out
    return recorded


poly._make, poly._rescaled = record(_make), record(_rescaled)
for text, box in json.loads(sys.argv[1]):
    argv = ["report", "--json", "--ode", text] + (["--box", box] if box else [])
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
poly._make = _make
moved = []
for rf in made:
    again = _make(rf.c, rf.num, rf.den)
    if (type(again.c), again.c, tuple(again.num.items()), again.den) != \
            (type(rf.c), rf.c, tuple(rf.num.items()), rf.den):
        moved.append(repr(rf.key()))
print(json.dumps({"made": len(made), "moved": moved[:3]}))
"""


def test_make_is_a_fixed_point_of_every_report_rf():
    src = str(Path(ode3geom.__file__).resolve().parent.parent)
    cases = json.dumps([[text, box] for _stem, text, box in CASES])
    proc = subprocess.run([sys.executable, "-c", _FIXED_POINT, cases],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["made"] > 1000 and got["moved"] == []


# Runs one report in a fresh interpreter, as the golden file was made, and
# keeps the Expr behind each printed string; then values every symbolic
# string of the golden file, parsed back, against its Expr.
_ROUND_TRIP = """
import contextlib, io, json, math, random, sys
from fractions import Fraction
from ode3geom.cli import main
from ode3geom.expr import (DomainError, SingularPointError, eval_at, nodes,
                           parse)

printed = {}
_str = nodes.Expr.__str__


def spy(e):
    s = _str(e)
    printed.setdefault(s, e)
    return s


nodes.Expr.__str__ = spy
out = io.StringIO()
with contextlib.redirect_stdout(out):
    main(sys.argv[2:])
nodes.Expr.__str__ = _str
box = json.loads(out.getvalue())["config"]["box"]
rng = random.Random(1)
points = [{v: rng.uniform(*r) for v, r in box.items()} for _ in range(40)]


def symbolic(x):
    if isinstance(x, dict):
        if x.get("provenance") == "symbolic" and isinstance(x.get("value"), str):
            yield x["value"]
        for v in x.values():
            yield from symbolic(v)
    elif isinstance(x, list):
        for v in x:
            yield from symbolic(v)


unknown, wrong, valued = [], [], 0
for s in set(symbolic(json.load(open(sys.argv[1])))):
    if s not in printed:
        try:
            Fraction(s)
        except ValueError:
            unknown.append(s)
        continue
    e, back = printed[s], parse(s)
    for pt in points:
        try:
            want = eval_at(e, pt)
        except (DomainError, SingularPointError, OverflowError):
            continue
        got = eval_at(back, pt)
        valued += 1
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
            wrong.append([s, pt, got, want])
            break
print(json.dumps({"unknown": unknown, "wrong": wrong[:3], "valued": valued}))
"""


@pytest.mark.parametrize("stem,text,box", CASES, ids=[c[0] for c in CASES])
def test_printed_strings_parse_back_to_their_values(stem, text, box):
    src = str(Path(ode3geom.__file__).resolve().parent.parent)
    argv = ["report", "--json", "--ode", text] + (["--box", box] if box
                                                  else [])
    proc = subprocess.run([sys.executable, "-c", _ROUND_TRIP,
                           str(GOLDEN / f"{stem}.json"), *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["unknown"] == [] and got["wrong"] == []
    assert got["valued"] > 0
