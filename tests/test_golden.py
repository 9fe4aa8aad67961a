"""Golden `report --json` bytes of the table representatives.

Each file under tests/golden/ is the output of one cold
`ode3geom report --json --ode F [--box B]` at the default seed 42.  A change
that only makes the program faster must reproduce every byte, verdicts and
printed symbolic strings alike; regenerate a file only together with a
change that means to alter the report.
"""
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

_MAIN = "import sys; from ode3geom.cli import main; sys.exit(main(sys.argv[1:]))"


def cold_report(text: str, box, src: str) -> subprocess.CompletedProcess:
    """`report --json` of F in a fresh interpreter importing from src."""
    argv = ["report", "--json", "--ode", text]
    if box is not None:
        argv += ["--box", box]
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", _MAIN, *argv],
                          capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize("stem,text,box", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_match_golden(stem, text, box):
    src = str(Path(ode3geom.__file__).resolve().parent.parent)
    proc = cold_report(text, box, src)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{stem}.json").read_bytes()
