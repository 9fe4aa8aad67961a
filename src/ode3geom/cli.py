"""Command-line front end: classification, invariants, geometry and Chazy
reports as deterministic JSON."""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import __version__
from .chazy import chazy_classify, chazy_transform
from .classify import JET, _jsonable
from .contact import classify_contact, contact_branch
from .expr import (DEFAULT_CONFIG, DomainError, Expr, JetPoint, ParseError,
                   ZeroConfig, normalize, parse)
from .expr.poly import tables_mark, tables_rollback
from .geometry import (RicciZeroError, WeylGateError, cotton, lorentz_check,
                       metric, weyl_structure)
from .jet import Ode3, jet_invariants
from .point import classify_point, point_basic_invariants, point_trivial_check
from .transform import PointTransform, pullback_ode

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INTERNAL = 3


def sym(e) -> dict:
    return _jsonable(normalize(e))


def quad(v) -> dict:
    return {"value": v, "provenance": "quadrature"}


def parse_box(text: str) -> dict:
    box = {}
    for part in text.split(","):
        try:
            name, lo, hi = (s.strip() for s in part.split(":"))
            bounds = (float(lo), float(hi))
        except ValueError:
            raise ValueError(f"box part {part.strip()!r} is not name:lo:hi "
                             f"with numbers lo and hi") from None
        if name not in JET:
            raise ValueError(f"box variable {name!r} is not one of x, y, p, q")
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"box bounds for {name} must be finite")
        if bounds[0] >= bounds[1]:
            raise ValueError(f"box bounds for {name} must have lo < hi, "
                             f"got {lo}:{hi}")
        box[name] = bounds
    for v in JET:
        if v not in box:
            raise ValueError(f"box is missing variable {v}")
    return box


def parse_base(text: str) -> JetPoint:
    """The --base point x,y,p,q: four finite numbers."""
    try:
        vals = [float(s) for s in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != 4 or not all(map(math.isfinite, vals)):
        raise ValueError(f"--base must be four finite numbers x,y,p,q, "
                         f"got {text!r}")
    return JetPoint(*vals)


CONFIG_KEYS = ("seed", "samples", "tol", "box")


def load_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}, not one of "
                                 f"{', '.join(CONFIG_KEYS)}")
            out[key] = val
    return out


def build_config(args, file_opts: dict) -> ZeroConfig:
    """A --config file value, else the flag, else DEFAULT_CONFIG's."""
    vals = {}
    for key, kind in (("seed", int), ("samples", int), ("tol", float)):
        raw = file_opts.get(key, getattr(args, key))
        try:
            vals[key] = getattr(DEFAULT_CONFIG, key) if raw is None \
                else kind(raw)
        except ValueError:
            raise ValueError(f"config key {key!r} must be {kind.__name__}, "
                             f"got {raw!r}") from None
    samples, tol = vals["samples"], vals["tol"]
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    box_text = file_opts.get("box", args.box)
    box = parse_box(box_text) if box_text else dict(DEFAULT_CONFIG.box)
    return replace(DEFAULT_CONFIG, box=box, **vals)


class UndefinedInputError(ValueError):
    """An input (F, or a transform's chi or phi) is undefined as built: it
    divides by a zero expression, or takes an even root of a negative
    constant or the log of a non-positive one."""


def _read_expr(name: str, text: str) -> Expr:
    """parse(text), lowered at once so that an undefined value is an input
    error."""
    e = parse(text)
    try:
        e.rf
    except (ZeroDivisionError, DomainError) as exc:
        raise UndefinedInputError(f"{name} is undefined: {exc}") from exc
    return e


def _read_ode(text: str) -> Ode3:
    if text == "-":
        text = sys.stdin.read().strip()
    return Ode3(_read_expr("F", text))


def _input_error(exc: ValueError) -> str:
    kind = "parse" if isinstance(exc, ParseError) else "input"
    return f"{kind} error: {exc}"


def report_invariants(ode: Ode3, cfg: ZeroConfig) -> dict:
    inv = jet_invariants(ode, cfg)
    pb = point_basic_invariants(ode)
    out = {
        "K": sym(inv.K), "L": sym(inv.L), "M": sym(inv.M), "W": sym(inv.W),
        "W_status": inv.w_verdict.status,
        "Z": sym(inv.Z) if inv.Z is not None else None,
        "A1": sym(pb.A1), "B1": sym(pb.B1), "B2": sym(pb.B2),
        "B4": sym(pb.B4), "C1": sym(pb.C1),
    }
    return out


def report_classify(ode: Ode3, cfg: ZeroConfig, group: str) -> dict:
    return {name: classify(ode, cfg).to_dict() for name, classify in
            (("contact", classify_contact), ("point", classify_point))
            if group in (name, "both")}


def report_geometry(ode: Ode3, cfg: ZeroConfig) -> dict:
    out = {"gates": {}}
    inv = jet_invariants(ode, cfg)
    out["gates"]["W"] = inv.w_verdict.status
    if not inv.w_verdict.is_zero:
        out["error"] = "NonWunschmann"
        return out
    g = metric(ode)
    coords = ("dx", "dy", "dp", "dq")
    out["metric"] = {f"{coords[i]}.{coords[j]}": sym(g.m[i][j])
                     for i in range(4) for j in range(i, 4)
                     if not g.m[i][j].rf.is_zero_poly()}
    dps = cotton(ode)
    out["cotton_zero"] = all(tf.is_zero_on(cfg) for tf in dps)
    try:
        wd = weyl_structure(ode, cfg)
        out["weyl"] = {
            "phi": {c: sym(comp) for c, comp in
                    zip(coords, wd.phi.components())
                    if not comp.rf.is_zero_poly()},
            "B1": sym(wd.B1), "B2": sym(wd.B2),
            "B3": sym(wd.B3), "B4": sym(wd.B4), "R": sym(wd.R),
        }
    except WeylGateError as exc:
        out["gates"]["cartan"] = "nonzero"
        out["weyl"] = None
        out["weyl_error"] = str(exc)
    try:
        lr = lorentz_check(ode, cfg)
        out["lorentz"] = {"ok": lr.ok, "sign": lr.sign,
                          "reason": lr.reason}
    except RicciZeroError:
        out["lorentz"] = {"ok": False, "sign": 0, "reason": "RicciZero"}
    return out


def report_chazy(ode: Ode3, cfg: ZeroConfig, args) -> dict:
    rep = chazy_classify(ode, cfg)
    out = {
        "preconditions": rep.preconditions,
        "P": sym(rep.P) if rep.P is not None else None,
        "Q": sym(rep.Q) if rep.Q is not None else None,
        "tau": _jsonable(rep.tau),
        "matched": None,
        "cond40": rep.cond40,
        "syzygies": rep.syzygy_status,
        "reason": rep.reason,
    }
    if rep.matched:
        m = rep.matched
        out["matched"] = {
            "class": m.id, "sigma": m.sigma,
            "kappa": _jsonable(m.kappa), "lambda": _jsonable(m.lam),
            "mu": _jsonable(m.mu), "nu": _jsonable(m.nu),
            "tau": _jsonable(m.tau),
        }
    if rep.matched and getattr(args, "transform", False):
        base = parse_base(args.base)
        maps = chazy_transform(ode, base, args.c1, args.c2,
                               matched=rep.matched, config=cfg)
        xs = [base.x + 0.05 * i for i in range(-4, 5)]
        out["transform"] = {
            "base": [base.x, base.y, base.p, base.q],
            "c1": args.c1, "c2": args.c2,
            "x_integrand": sym(maps.x_integrand),
            "y_integrand": sym(maps.y_integrand),
            "xbar_integrand": sym(maps.xbar_integrand),
            "xbar_samples": {f"{x:.3f}": quad(maps.xbar(x)) for x in xs},
            "ybar_at_base_line": {f"{x:.3f}": quad(maps.ybar(x, base.y))
                                  for x in xs},
        }
    return out


def run_report(text: str, cfg: ZeroConfig, group: str = "both",
               args=None) -> tuple:
    """Full pipeline report; returns (report dict, exit code)."""
    report = {"input": text, "tool_version": __version__,
              "config": {"seed": cfg.seed, "samples": cfg.samples,
                         "tol": cfg.tol,
                         "box": {k: list(v) for k, v in cfg.box.items()}},
              "diagnostics": {}}
    code = EXIT_OK
    try:
        ode = _read_ode(text)
    except (ParseError, UndefinedInputError) as exc:
        report["error"] = _input_error(exc)
        return report, EXIT_PARSE

    def section(name, thunk):
        nonlocal code
        try:
            report[name] = thunk()
        except ArithmeticError as exc:
            report[name] = None
            report["diagnostics"][name] = f"{type(exc).__name__}: {exc}"
            code = EXIT_INCONCLUSIVE

    def branch_section():
        br = contact_branch(ode, cfg)
        return {"contact": br.branch, "W": br.w_verdict.status,
                "F_qqqq": br.fqqqq_verdict.status}

    section("branch", branch_section)
    section("invariants", lambda: report_invariants(ode, cfg))
    if group in ("contact", "both"):
        section("contact", lambda: classify_contact(ode, cfg).to_dict())
    if group in ("point", "both"):
        section("point", lambda: classify_point(ode, cfg).to_dict())
    section("point_trivial", lambda: point_trivial_check(ode, cfg))
    if report.get("branch") and report["branch"]["W"] == "zero":
        section("geometry", lambda: report_geometry(ode, cfg))
    section("chazy", lambda: report_chazy(ode, cfg, args))
    for name in ("contact", "point"):
        sec = report.get(name)
        if sec and sec.get("inconclusive"):
            code = EXIT_INCONCLUSIVE
    return report, code


# Options whose value is an expression or a point and may start with "-".
# argparse would take "-2*y*q+3*p^2" for an option unless it is attached.
_VALUE_OPTIONS = ("--ode", "-o", "--chi", "--phi", "--base")


def _attach_values(argv: list) -> list:
    """Rewrite `--ode V` as `--ode=V`, so V is always the value."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok in _VALUE_OPTIONS:
            value = next(tokens, None)
            if value is not None:
                tok = f"{tok}={value}"
        out.append(tok)
    return out


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValueError: a config error (exit 1), not 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ode3geom",
        description="Classify third-order ODEs y''' = F(x, y, y', y'') "
                    "up to contact/point/fibre-preserving equivalence.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, batch=False, group=False):
        sp = sub.add_parser(name, help=help)
        src = sp.add_mutually_exclusive_group(required=True) if batch else sp
        src.add_argument("--ode", "-o", required=not batch,
                         help="right-hand side F, or - for stdin")
        if batch:
            src.add_argument("--batch", help="file with one ODE per line")
        for key, kind in (("seed", int), ("samples", int), ("tol", float)):
            sp.add_argument(f"--{key}", type=kind,
                            help=f"default {getattr(DEFAULT_CONFIG, key)}")
        sp.add_argument("--box",
                        help='sample box, e.g. "x:-1:1,y:-1:1,p:0.5:2,q:0.5:2"')
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--json", action="store_true",
                        help="JSON output (always on for batch)")
        if group:
            sp.add_argument("--group", choices=("contact", "point", "both"),
                            default="both")
        return sp

    command("invariants", "K, L, M, W, Z and the basic point invariants")
    command("classify", "table classification", group=True)
    command("geometry", "conformal/Einstein-Weyl data")
    p_chz = command("chazy", "reduced Chazy (fibre-preserving) recognition")
    p_chz.add_argument("--transform", action="store_true")
    p_chz.add_argument("--base", default="0,1,0,0",
                       help="base jet point x,y,p,q")
    p_chz.add_argument("--c1", type=float, default=1.0)
    p_chz.add_argument("--c2", type=float, default=0.0)
    p_pb = command("pullback", "pull an ODE back along a point "
                               "transformation")
    p_pb.add_argument("--chi", required=True)
    p_pb.add_argument("--phi", required=True)
    command("report", "full pipeline report", batch=True, group=True)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(
            _attach_values(sys.argv[1:] if argv is None else argv))
        file_opts = load_config_file(args.config) if args.config else {}
        cfg = build_config(args, file_opts)
        if args.command == "chazy":
            parse_base(args.base)
            if not (math.isfinite(args.c1) and args.c1):
                raise ValueError(f"--c1 must be finite and nonzero, "
                                 f"got {args.c1}")
            if not math.isfinite(args.c2):
                raise ValueError(f"--c2 must be finite, got {args.c2}")
        batch = getattr(args, "batch", None)
        if batch is not None:   # read whole: an unreadable file runs no line
            with open(batch, "r", encoding="utf-8") as fh:
                batch = fh.readlines()
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        if batch is not None:
            return _run_batch(batch, args, cfg)
        return _run_single(args, cfg)
    except (ParseError, UndefinedInputError) as exc:
        print(_input_error(exc), file=sys.stderr)
        return EXIT_PARSE
    except ArithmeticError as exc:
        print(json.dumps({"error": str(exc),
                          "kind": type(exc).__name__}, sort_keys=True))
        return EXIT_INCONCLUSIVE
    except Exception as exc:  # internal
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


def _emit(payload: dict, as_json: bool) -> None:
    print(json.dumps(payload, sort_keys=True, indent=None if as_json else 2))


def _run_single(args, cfg: ZeroConfig) -> int:
    if args.command == "report":
        rep, code = run_report(args.ode, cfg, args.group, args)
        _emit(rep, args.json)
        return code
    ode = _read_ode(args.ode)
    if args.command == "invariants":
        _emit(report_invariants(ode, cfg), args.json)
        return EXIT_OK
    if args.command == "classify":
        payload = report_classify(ode, cfg, args.group)
        _emit(payload, args.json)
        inconclusive = any(sec["inconclusive"] for sec in payload.values())
        return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK
    if args.command == "geometry":
        payload = report_geometry(ode, cfg)
        _emit(payload, args.json)
        return EXIT_INCONCLUSIVE if payload.get("error") else EXIT_OK
    if args.command == "chazy":
        _emit(report_chazy(ode, cfg, args), args.json)
        return EXIT_OK
    # pullback
    t = PointTransform(_read_expr("chi", args.chi),
                       _read_expr("phi", args.phi))
    out = pullback_ode(ode, t, cfg)
    if args.json:
        _emit({"F": sym(out.F)}, True)
    else:
        print(normalize(out.F))
    return EXIT_OK


def _run_batch(lines: list, args, cfg: ZeroConfig) -> int:
    worst = EXIT_OK
    mark = tables_mark()    # each line parses its own F: see tables_rollback
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        rep, code = run_report(text, cfg, args.group, args)
        tables_rollback(mark)
        _emit(rep, True)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
