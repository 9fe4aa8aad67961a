"""Command-line interface: subcommands, exit codes, determinism."""
import json
import subprocess
import sys
from dataclasses import replace

import pytest

from ode3geom.cli import main, parse_box, run_report
from ode3geom.expr import DEFAULT_CONFIG
from test_golden import CASES

BOX_CHAZY = "x:-1:1,y:0.5:1.5,p:0.5:2,q:0.5:2"


# the table inputs sampled on the default box
DEFAULT_BOX_INPUTS = [text for _stem, text, box in CASES if box is None]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def spy_is_zero(monkeypatch) -> list:
    """The expression of every is_zero call from here on, wherever a
    module of the package bound the name."""
    from ode3geom.expr import zerotest
    inner = zerotest.is_zero
    seen = []

    def spy(e, config=DEFAULT_CONFIG):
        seen.append(e)
        return inner(e, config)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("ode3geom") and \
                getattr(mod, "is_zero", None) is inner:
            monkeypatch.setattr(mod, "is_zero", spy)
    return seen


def spy_input(monkeypatch) -> list:
    """The Ode3 of every equation the CLI reads from here on."""
    from ode3geom import cli
    inner = cli._read_ode
    odes = []

    def spy(text):
        odes.append(inner(text))
        return odes[-1]
    monkeypatch.setattr(cli, "_read_ode", spy)
    return odes


def _batch_lines(tmp_path, odes, seed=None) -> dict:
    """The set of lines `report --batch` prints for each input, over runs
    with the inputs in the given order and reversed."""
    lines: dict = {}
    for order in (odes, odes[::-1]):
        batch = tmp_path / "odes.txt"
        batch.write_text("\n".join(order) + "\n")
        seed_args = [] if seed is None else ["--seed", str(seed)]
        proc = subprocess.run(
            [sys.executable, "-m", "ode3geom.cli", "report", "--batch",
             str(batch), *seed_args], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for line in proc.stdout.splitlines():
            lines.setdefault(json.loads(line)["input"], set()).add(line)
    return lines


class TestClassify:
    def test_contact_row(self, capsys):
        code, out = run_cli(["classify", "--group", "contact",
                             "--ode", "exp(q)", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["contact"]["row"] == "VI"
        assert payload["contact"]["dimension"] == 4

    def test_point_row(self, capsys):
        code, out = run_cli(["classify", "--group", "point",
                             "--ode", "q^2", "--json"], capsys)
        payload = json.loads(out)
        assert payload["point"]["row"] == "IV"
        assert payload["point"]["parameters"]["mu"]["value"] == "2"

    def test_parse_error_exit_code(self, capsys):
        code = main(["classify", "--ode", "q^"])
        assert code == 1

    def test_deterministic_json(self, capsys):
        _c1, out1 = run_cli(["classify", "--ode", "exp(q)", "--json",
                             "--seed", "42"], capsys)
        _c2, out2 = run_cli(["classify", "--ode", "exp(q)", "--json",
                             "--seed", "42"], capsys)
        assert out1 == out2


class TestInvariants:
    def test_invariants(self, capsys):
        code, out = run_cli(["invariants", "--ode", "exp(q)", "--json"],
                            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["W_status"] == "nonzero"
        assert payload["B2"]["provenance"] == "symbolic"

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO("q^2"))
        code, out = run_cli(["invariants", "--ode", "-", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["W_status"] == "nonzero"


class TestGeometry:
    def test_flat_weyl(self, capsys):
        code, out = run_cli(["geometry", "--ode", "3*q^2/p", "--json"],
                            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["cotton_zero"] is True
        assert payload["weyl"]["phi"] == \
            {"dp": {"provenance": "symbolic", "value": "2*p^(-1)"}}

    def test_gate_exit_code(self, capsys):
        code, out = run_cli(["geometry", "--ode", "exp(q)", "--json"],
                            capsys)
        assert code == 2

    def test_w_verdict_taken_once_per_gate(self, capsys, monkeypatch):
        # the report's own gate, weyl_structure's and lorentz_check's read
        # one verdict, kept on the equation for its config
        from ode3geom.jet import klmw
        odes, tested = spy_input(monkeypatch), spy_is_zero(monkeypatch)
        code, _out = run_cli(["geometry", "--ode", "3*q^2/p", "--json"],
                             capsys)
        assert code == 0
        W = klmw(odes[0]).W
        assert sum(e is W for e in tested) == 1


class TestChazy:
    def test_class_ii(self, capsys):
        code, out = run_cli(["chazy", "--ode", "-2*y*q - 2*p^2",
                             "--box", BOX_CHAZY, "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["matched"]["class"] == "II"
        assert payload["P"]["value"] == "2"
        assert payload["Q"]["value"] == "10/3*y"
        five_twelfths = {"value": "5/12", "provenance": "symbolic"}
        minus_two = {"value": "-2", "provenance": "symbolic"}
        assert payload["tau"] == five_twelfths
        assert payload["matched"]["tau"] == five_twelfths
        assert payload["matched"]["kappa"] == minus_two
        assert payload["matched"]["lambda"] == minus_two

    def test_leading_minus_ode_is_a_value(self, capsys):
        # Without a space, argparse would take "-2*y*q-2*p^2" for an option.
        for flag in ("--ode", "-o"):
            code, out = run_cli(["chazy", flag, "-2*y*q-2*p^2",
                                 "--box", BOX_CHAZY, "--json"], capsys)
            assert code == 0
            payload = json.loads(out)
            assert payload["matched"]["class"] == "II"
            assert payload["tau"]["value"] == "5/12"

    def test_leading_minus_base_is_a_value(self, capsys):
        args = ["chazy", "--ode", "-2*y*q - 2*p^2", "--box", BOX_CHAZY,
                "--json", "--transform", "--c1", "1", "--c2", "0"]
        _c, attached = run_cli(args + ["--base=-0.5,1,0,0"], capsys)
        code, out = run_cli(args + ["--base", "-0.5,1,0,0"], capsys)
        assert code == 0
        assert out == attached
        assert json.loads(out)["transform"]["xbar_samples"]

    def test_transform(self, capsys):
        code, out = run_cli(["chazy", "--ode", "-2*y*q - 2*p^2",
                             "--box", BOX_CHAZY, "--json", "--transform",
                             "--base", "0,1,0,0", "--c1", "1", "--c2", "0"],
                            capsys)
        payload = json.loads(out)
        samples = payload["transform"]["xbar_samples"]
        assert samples["0.000"]["provenance"] == "quadrature"


    def test_base_point_on_q_zero_exits_2(self, capsys):
        from ode3geom.chazy import chazy_class
        from ode3geom.transform import pullback_ode, random_fp_transforms
        # transform 1 of the fp battery maps (0, 1, 0, 0) onto Q = 0
        pb = pullback_ode(chazy_class("II").canonical_ode(),
                          random_fp_transforms(13, 8)[1])
        code, out = run_cli(["chazy", "--ode", str(pb.F), "--box",
                             BOX_CHAZY, "--json", "--transform", "--base",
                             "0,1,0,0", "--c1", "1", "--c2", "0"], capsys)
        assert code == 2
        err = json.loads(out)
        assert err["kind"] == "ChazyTransformError"
        assert "Q = 0" in err["error"]

    @pytest.mark.parametrize("flags, message", [
        (["--c1", "0"], "--c1 must be finite and nonzero, got 0.0"),
        (["--c1", "inf"], "--c1 must be finite and nonzero, got inf"),
        (["--c2", "nan"], "--c2 must be finite, got nan"),
        (["--base", "0,1,0"],
         "--base must be four finite numbers x,y,p,q, got '0,1,0'"),
        (["--base", "0,1,0,nan"],
         "--base must be four finite numbers x,y,p,q, got '0,1,0,nan'"),
        (["--base", "0,one,0,0"],
         "--base must be four finite numbers x,y,p,q, got '0,one,0,0'"),
    ], ids=("c1-zero", "c1-inf", "c2-nan", "base-short", "base-nan",
            "base-word"))
    def test_bad_transform_option_exits_1(self, capsys, flags, message):
        code = main(["chazy", "--ode", "-2*y*q - 2*p^2", "--transform"]
                    + flags)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == f"config error: {message}\n"


class TestPullback:
    def test_swap(self, capsys):
        code, out = run_cli(["pullback", "--ode", "0", "--chi", "y",
                             "--phi", "x"], capsys)
        assert code == 0
        assert out.strip() == "3*q^2*p^(-1)"

    def test_degenerate_transform_exits_2_with_its_kind(self, capsys):
        # x -> x, y -> x: the new y is not a function of the old ones
        code, out = run_cli(["pullback", "--ode", "q", "--chi", "x",
                             "--phi", "x"], capsys)
        assert code == 2
        assert json.loads(out)["kind"] == "DegenerateTransformError"

    @pytest.mark.parametrize("flag,other", [("--chi", "--phi"),
                                            ("--phi", "--chi")])
    def test_leading_minus_chi_phi_is_a_value(self, capsys, flag, other):
        _c, attached = run_cli(["pullback", "--ode", "p*q", f"{flag}=-y",
                                other, "x"], capsys)
        code, out = run_cli(["pullback", "--ode", "p*q", flag, "-y",
                             other, "x"], capsys)
        assert code == 0
        assert out == attached


class TestBatchAndReport:
    def test_report(self, capsys):
        code, out = run_cli(["report", "--ode", "0", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["contact"]["row"] == "I"
        assert payload["point"]["row"] == "I.1"
        assert payload["geometry"]["cotton_zero"] is True
        assert payload["point_trivial"] is True

    def test_report_leading_minus_ode(self, capsys):
        code, out = run_cli(["report", "--ode", "-q^2", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["input"] == "-q^2"
        assert payload["point"]["row"] == "IV"

    def test_report_chazy_section_on_default_box(self, capsys):
        code, out = run_cli(["report", "--ode", "-2*y*q - 2*p^2", "--json"],
                            capsys)
        payload = json.loads(out)
        ch = payload["chazy"]
        assert ch["matched"]["class"] == "II"
        assert ch["P"]["value"] == "2"
        assert ch["Q"]["value"] == "10/3*y"
        assert ch["tau"] == {"value": "5/12", "provenance": "symbolic"}

    def test_report_sign_flip_is_inconclusive(self, capsys):
        code, out = run_cli(["report", "--ode", "x*q^2", "--json"], capsys)
        assert code == 2
        contact = json.loads(out)["contact"]
        assert contact["inconclusive"] is True
        assert contact["diagnostics"]["reason"] == \
            "abs/sgn argument changes sign on the sample box"

    def test_report_rep_check_on_the_rep_box_is_conclusive(self, capsys):
        # exp(q - 800) is exp(q) under y -> y + 400*x^2, so both tables put
        # it in row VI; exp(q) overflows at every sample of this box, but
        # the representative is sampled on a box of its own
        code, out = run_cli(["report", "--ode", "exp(q-800)", "--json",
                             "--box", "x:-1:1,y:-1:1,p:0.5:2,q:800:810"],
                            capsys)
        assert code == 0
        payload = json.loads(out)
        for group in ("contact", "point"):
            sec = payload[group]
            assert sec["inconclusive"] is False and sec["row"] == "VI"
            assert sec["diagnostics"]["tuple_verified"] is True

    def test_batch(self, tmp_path, capsys):
        batch = tmp_path / "odes.txt"
        batch.write_text("0\nexp(q)\n")
        code, out = run_cli(["report", "--batch", str(batch)], capsys)
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert [l["input"] for l in lines] == ["0", "exp(q)"]
        assert lines[1]["contact"]["row"] == "VI"

    def test_batch_order_keeps_the_bytes(self, tmp_path):
        """q^(7/4) prints the same line after exp(q) as before it (the
        batch once printed I1 = 1.1547005383792515 in one order and ...512
        in the other)."""
        lines = _batch_lines(tmp_path, ["exp(q)", "q^(7/4)"])
        assert len(lines["q^(7/4)"]) == 1
        assert len(lines["exp(q)"]) == 1

    @pytest.mark.parametrize("seed, text", [
        (1, "q^(7/4)"), (2, "(q^2+1)^(3/2)*exp(atan(q)/2)")], ids=("1", "2"))
    def test_batch_order_keeps_the_bytes_at_seeds_1_and_2(self, tmp_path,
                                                          seed, text):
        """Each batch line is its cold report, in either order: atom ids,
        which order sampled sums and printed factors, restart per line."""
        lines = _batch_lines(tmp_path, DEFAULT_BOX_INPUTS, seed)
        assert all(len(printed) == 1 for printed in lines.values())
        proc = subprocess.run(
            [sys.executable, "-m", "ode3geom.cli", "report", "--json",
             "--ode", text, "--seed", str(seed)],
            capture_output=True, text=True)
        assert lines[text] == {proc.stdout.rstrip("\n")}

    def test_undefined_f_is_an_input_error(self, capsys):
        for text in ("1/0", "1/(q-q)", "0^(-1)", "(-4)^(1/2)",
                     "(-1)^(1/2)", "log(0)", "log(-2)"):
            assert main(["classify", "--ode", text]) == 1
            err = capsys.readouterr().err
            assert err.startswith("input error: F is undefined: "), err
        rep, code = run_report("log(0)", DEFAULT_CONFIG)
        assert code == 1
        assert rep["error"] == ("input error: F is undefined: log of a "
                                "non-positive constant")

    @pytest.mark.parametrize("name, chi, phi, why", [
        ("chi", "1/0", "y", "division by symbolically zero expression"),
        ("phi", "x", "1/(y-y)", "division by symbolically zero expression"),
        ("chi", "log(0)", "y", "log of a non-positive constant"),
        ("phi", "x", "(-4)^(1/2)", "even root of a negative constant"),
    ])
    def test_undefined_transform_is_an_input_error(self, capsys, name, chi,
                                                   phi, why):
        code = main(["pullback", "--ode", "q", "--chi", chi, "--phi", phi])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == f"input error: {name} is undefined: {why}\n"

    def test_batch_reports_every_line_past_an_undefined_f(self, tmp_path,
                                                          capsys):
        batch = tmp_path / "odes.txt"
        batch.write_text("1/0\nq^2\n(-4)^(1/2)\n")
        code, out = run_cli(["report", "--batch", str(batch)], capsys)
        assert code == 1
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert [l["input"] for l in lines] == ["1/0", "q^2", "(-4)^(1/2)"]
        assert lines[0]["error"].startswith("input error: F is undefined")
        assert lines[2]["error"].startswith("input error: F is undefined")
        assert "error" not in lines[1]
        assert lines[1]["point"]["row"] == "IV"

    def test_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("seed = 7\ntol = 1e-9\n"
                           f"box = {BOX_CHAZY}\n")
        code, out = run_cli(["chazy", "--ode", "-2*y*q - 2*p^2",
                             "--config", str(cfgfile), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["matched"]["class"] == "II"

    @pytest.mark.parametrize("flags,file_text", [
        (["--tol", "nan"], None),
        (["--tol=-1"], None),
        (["--samples", "0"], None),
        (["--box", "x:nan:1,y:-1:1,p:0.5:2,q:0.5:2"], None),
        (["--box", "x:-1:1,y:-1:1,p:0.5:2,q:0.5:inf"], None),
        (["--box", "x:-1:1,y:-1:1,p:0.5:2,q:0.5:2,z:0:1"], None),
        ([], "tol = inf\n"),
        ([], "samples = -3\n"),
        ([], "box = x:-1:1,y:-inf:1,p:0.5:2,q:0.5:2\n"),
        (["--box", "x:0:0,y:-1:1,p:0.5:2,q:0.5:2"], None),
        (["--box", "x:1:-1,y:-1:1,p:0.5:2,q:0.5:2"], None),
        ([], "box = x:0:0,y:-1:1,p:0.5:2,q:0.5:2\n"),
    ])
    def test_bad_config_is_a_config_error(self, tmp_path, capsys, flags,
                                          file_text):
        if file_text is not None:
            cfgfile = tmp_path / "cfg"
            cfgfile.write_text(file_text)
            flags = ["--config", str(cfgfile)]
        code = main(["report", "--ode", "q^2 + y", "--json"] + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "config error" in captured.err

    @pytest.mark.parametrize("argv", [
        ["classify", "--seed", "abc", "--ode", "q"],
        ["classify", "--group", "bogus", "--ode", "q"],
        ["clasify", "--ode", "q"],
        ["classify", "--batch", "BATCH", "--ode", "q"],
        ["invariants", "--group", "point", "--ode", "q"],
        ["classify", "--group", "fp", "--ode", "q"],
        ["classify"],
        ["report", "--ode", "q", "--batch", "BATCH"],
        ["report", "--batch", "MISSING"],
        ["report", "--batch", "DIR"],
        ["report", "--batch", "NOT_UTF8"],
    ], ids=lambda argv: "-".join(argv))
    def test_bad_command_line_is_a_config_error(self, tmp_path, capsys,
                                                argv):
        # usage errors and unreadable batch files take the config-error
        # path: one line on stderr, nothing run, exit 1 (argparse exits 2,
        # the code of an inconclusive verdict)
        (tmp_path / "batch.txt").write_text("q^2\n")
        # a valid first line: the file is read whole before any line runs
        (tmp_path / "bad.txt").write_bytes(b"q^2\n\xff\n")
        paths = {"BATCH": tmp_path / "batch.txt",
                 "NOT_UTF8": tmp_path / "bad.txt",
                 "MISSING": tmp_path / "missing.txt", "DIR": tmp_path}
        code = main([str(paths.get(a, a)) for a in argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")

    @pytest.mark.parametrize("flags, file_text, want", [
        (["--box", "x:-1"], None, "box part 'x:-1' is not name:lo:hi"),
        ([], "box = x:-1\n", "box part 'x:-1' is not name:lo:hi"),
        (["--box", "x:a:1,y:-1:1,p:0.5:2,q:0.5:2"], None,
         "box part 'x:a:1' is not name:lo:hi"),
        ([], "seed = abc\n", "config key 'seed' must be int, got 'abc'"),
        ([], "tol = tiny\n", "config key 'tol' must be float, got 'tiny'"),
    ], ids=("flag-part", "file-part", "flag-bound", "file-seed", "file-tol"))
    def test_bad_value_names_where_it_is(self, tmp_path, capsys, flags,
                                         file_text, want):
        if file_text is not None:
            cfgfile = tmp_path / "cfg"
            cfgfile.write_text(file_text)
            flags = ["--config", str(cfgfile)]
        assert main(["classify", "--ode", "q"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {want}")

    @pytest.mark.parametrize("argv", [["-h"], ["report", "-h"],
                                      ["--version"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        # a typo is a config error, not a key ignored without a word
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("seed = 3\nsample = 4\n")
        code = main(["report", "--ode", "q^2 + y", "--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "config error: unknown config key 'sample'" in captured.err

    @pytest.mark.parametrize("text,box", [
        ("(2*q*y - p^2)^(3/2)/y^2", "x:-1:1,y:0.8:1.0,p:0.5:0.7,q:1.2:2.0"),
        ("exp(q)", "x:-1:1,y:-1:1,p:0.5:2,q:0.6:2"),
        ("-2*5*p + y", "x:-1:1,y:-1:1,p:0.5:2,q:0.6:2"),
        ("-2*x*p", "x:-1:1,y:-1:1,p:0.5:2,q:0.6:2"),
    ])
    def test_report_samples_only_the_config_box(self, monkeypatch, text, box):
        # the input's own verdicts sample the config box, and the check
        # against a row's representative only that row's rep_config box
        from ode3geom import contact, point
        from ode3geom.classify import rep_config
        from ode3geom.expr import zerotest
        cfg = replace(DEFAULT_CONFIG, box=parse_box(box))
        boxes = {False: [], True: []}
        checking = [False]
        draw = zerotest.sample_points

        def spy(c):
            boxes[checking[0]].append(c.box)
            return draw(c)
        monkeypatch.setattr(zerotest, "sample_points", spy)
        for mod, name in ((contact, "_verify_against_rep"),
                          (point, "_verify_point_rep")):
            def check(*args, inner=getattr(mod, name)):
                checking[0] = True
                try:
                    return inner(*args)
                finally:
                    checking[0] = False
            monkeypatch.setattr(mod, name, check)
        report, _code = run_report(text, cfg)
        assert boxes[False]
        assert [b for b in boxes[False] if b != cfg.box] == []
        rep_boxes = [rep_config(report[g]["row"], cfg).box
                     for g in ("contact", "point")
                     if "tuple_verified" in report[g]["diagnostics"]]
        assert [b for b in boxes[True] if b not in rep_boxes] == []
        # a representative with the input's F on the input's box is read
        # back; on another box it is sampled there
        assert bool(boxes[True]) == any(b != cfg.box for b in rep_boxes)

    def test_w_verdict_taken_once_per_report(self, monkeypatch):
        # the branch, the invariants, both classifiers, the point
        # triviality check and the three geometry gates share one verdict
        from ode3geom.jet import klmw
        odes, tested = spy_input(monkeypatch), spy_is_zero(monkeypatch)
        run_report("0", DEFAULT_CONFIG)
        W = klmw(odes[0]).W
        assert sum(e is W for e in tested) == 1

    def test_reduction_case_taken_once_per_report(self, monkeypatch):
        # the contact classifier, its reduced coframe and the check against
        # row VI's representative exp(q), which is the input itself, share
        # the case
        from ode3geom.contact import bas_k
        odes, tested = spy_input(monkeypatch), spy_is_zero(monkeypatch)
        report, _code = run_report("exp(q)", DEFAULT_CONFIG)
        assert report["contact"]["row"] == "VI"
        k = bas_k(odes[0])
        assert sum(e is k for e in tested) == 1

    @pytest.mark.parametrize("text,row", [("3/2*q^2/p", "I.2"),
                                          ("3*q^2*p/(1+p^2)", "I.3")])
    def test_flat_signature_tested_twice_per_report(self, monkeypatch, text,
                                                    row):
        # one verdict for the point classifier and the point_trivial
        # section, and the one sign_on_domain takes before its sign
        from ode3geom.point import flat_signature
        odes, tested = spy_input(monkeypatch), spy_is_zero(monkeypatch)
        report, _code = run_report(text, DEFAULT_CONFIG)
        assert report["point"]["row"] == row
        assert report["point_trivial"] is False
        s = flat_signature(odes[0])
        assert sum(e is s for e in tested) == 2

    def test_too_few_samples_of_a_zero_invariant(self, capsys):
        # I6 has one well-conditioned sample on this box, but it tests
        # zero: the constant is 0 and the row is found
        code, out = run_cli(
            ["classify", "--group", "contact", "--json",
             "--ode", "(2*q*(y+5) - p^2)^(3/2)/(y+5)^2",
             "--box", "x:-1:1,y:-4.2:-4.0,p:0.5:0.7,q:1.2:2.0"], capsys)
        assert code == 0
        contact = json.loads(out)["contact"]
        assert contact["row"] == "VIII"
        assert contact["inconclusive"] is False
        assert contact["parameters"]["mu"]["value"] == "1"
        assert contact["diagnostics"]["tuple_verified"] is True

    def test_too_few_samples_name_their_count(self, monkeypatch):
        # a nonzero invariant with one well-conditioned sample: the reason
        # gives the count, not a spread over a single value
        from ode3geom import classify
        from ode3geom.expr import X
        monkeypatch.setattr(classify, "values_on_samples",
                            lambda e, config, n: [1.5])
        with pytest.raises(classify.InconclusiveError) as exc:
            classify.const_value(X + 1)
        assert str(exc.value) == \
            "expected a constant, only 1 of 9 samples well-conditioned"

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ode3geom.cli", "classify",
             "--ode", "0", "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["contact"]["row"] == "I"


class TestRepresentativeReuse:
    def test_no_constant_sampled_twice_in_a_group(self, monkeypatch):
        # over the table reports at seed 1, each group of a report values
        # an expression on a config once: a check whose representative is
        # the input, on an equal config, reads back the input's tuple
        from ode3geom import classify, cli
        group, calls = [None], []
        inner = classify.values_on_samples

        def spy(e, config, n=None):
            calls.append((group[0], e.rf.key(), config))
            return inner(e, config, n=n)
        monkeypatch.setattr(classify, "values_on_samples", spy)
        for name in ("classify_contact", "classify_point"):
            def in_group(*args, f=getattr(cli, name), name=name):
                group[0] = name
                try:
                    return f(*args)
                finally:
                    group[0] = None
            monkeypatch.setattr(cli, name, in_group)
        for stem, text, box in CASES:
            cfg = replace(DEFAULT_CONFIG, seed=1)
            if box is not None:
                cfg = replace(cfg, box=parse_box(box))
            calls.clear()
            run_report(text, cfg)
            assert len(calls) == len(set(calls)), stem

    def test_representative_with_the_input_f_is_the_input(self, monkeypatch):
        # contact row IV at mu = 4 has the representative q^(7/4): the
        # check reads the input's own reduced coframe, decomposed once
        from ode3geom import contact
        calls = []
        inner = contact.decompose_many

        def spy(*args):
            calls.append(args)
            return inner(*args)
        monkeypatch.setattr(contact, "decompose_many", spy)
        report, _code = run_report("q^(7/4)", DEFAULT_CONFIG)
        sec = report["contact"]
        assert sec["row"] == "IV" and sec["parameters"]["mu"]["value"] == "4"
        assert sec["diagnostics"]["tuple_verified"] is True
        assert len(calls) == 1

    def test_q3_slots_tested_and_valued_once(self, monkeypatch):
        # point row I.4 compares the slots of q^3 with its own
        from ode3geom import point
        from ode3geom.jet import Ode3
        seen = {"is_constant": [], "const_value": []}
        for name in seen:
            def spy(e, config, inner=getattr(point, name), name=name):
                seen[name].append(id(e))
                return inner(e, config)
            monkeypatch.setattr(point, name, spy)
        assert point.classify_point(Ode3.from_text("q^3")).row == "I.4"
        for ids in seen.values():
            assert ids and len(ids) == len(set(ids))

    def test_pulled_back_row_checks_a_representative_of_its_own(
            self, monkeypatch):
        from ode3geom import point
        from ode3geom.jet import Ode3
        from ode3geom.transform import pullback_ode, random_point_transforms
        pb = pullback_ode(Ode3.from_text("exp(q)"),
                          random_point_transforms(20260808, 8)[0])
        reps = []
        inner = point._verify_point_rep

        def spy(nums, rep, pipeline, cfg):
            reps.append(rep)
            return inner(nums, rep, pipeline, cfg)
        monkeypatch.setattr(point, "_verify_point_rep", spy)
        res = point.classify_point(pb)
        assert res.row == "VI" and res.diagnostics["tuple_verified"] is True
        assert len(reps) == 1 and reps[0] is not pb
        assert str(reps[0].F) == "exp(q)"
