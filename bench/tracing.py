"""Per-layer spans recorded from outside the program.

Each traced function is replaced by a wrapper in every ``ode3geom.*`` module
namespace that holds it, because modules bind names such as
``from .zerotest import is_zero`` at import time; wrapping only the
defining module would miss those calls.  Self time is a span's duration
minus the time of the traced spans nested inside it, so recursive and
nested calls are not counted twice.
"""

import sys
import time

# metric prefix -> (module, attribute).  cli.json_s is the CLI's --json
# serialisation of a report, ``cli._emit``.
TRACED = {
    "cli.run_report": ("ode3geom.cli", "run_report"),
    "cli.report_chazy": ("ode3geom.cli", "report_chazy"),
    "cli.json_s": ("ode3geom.cli", "_emit"),
    "expr.parser.parse": ("ode3geom.expr.parser", "parse"),
    "expr.nodes.normalize": ("ode3geom.expr.nodes", "normalize"),
    "expr.nodes.partial": ("ode3geom.expr.nodes", "partial"),
    "expr.poly._make": ("ode3geom.expr.poly", "_make"),
    "expr.poly.poly_div_exact": ("ode3geom.expr.poly", "poly_div_exact"),
    "expr.poly.drf": ("ode3geom.expr.poly", "drf"),
    "expr.zerotest.is_zero": ("ode3geom.expr.zerotest", "is_zero"),
    "expr.zerotest.partial_is_zero": ("ode3geom.expr.zerotest",
                                      "partial_is_zero"),
    "expr.zerotest.values_on_samples": ("ode3geom.expr.zerotest",
                                        "values_on_samples"),
    "expr.zerotest.sign_on_domain": ("ode3geom.expr.zerotest",
                                     "sign_on_domain"),
    "expr.zerotest.eval_at": ("ode3geom.expr.zerotest", "eval_at"),
    "forms.decompose_many": ("ode3geom.forms", "decompose_many"),
    "jet.jet_invariants": ("ode3geom.jet", "jet_invariants"),
    "jet.total_derivative": ("ode3geom.jet", "total_derivative"),
    "transform.pullback_ode": ("ode3geom.transform", "pullback_ode"),
    "classify.is_constant": ("ode3geom.classify", "is_constant"),
    "contact.classify_contact": ("ode3geom.contact", "classify_contact"),
    "contact._verify_against_rep": ("ode3geom.contact",
                                    "_verify_against_rep"),
    "point.classify_point": ("ode3geom.point", "classify_point"),
    "point._verify_point_rep": ("ode3geom.point", "_verify_point_rep"),
    "geometry.weyl_structure": ("ode3geom.geometry", "weyl_structure"),
    "chazy.chazy_classify": ("ode3geom.chazy", "chazy_classify"),
    "chazy.chazy_transform": ("ode3geom.chazy", "chazy_transform"),
    "quadrature.integrate": ("ode3geom.quadrature", "integrate"),
}
VERDICTS = ("zero", "nonzero", "inconclusive")


class Tracer:
    """Call counts, self time and result counters for the traced functions."""

    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.div_hits = 0
        self.verdicts = dict.fromkeys(VERDICTS, 0)
        self._stack = []            # child time of each open span

    def _wrap(self, label, fn, on_result):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[label] += 1
                self_s[label] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_division(self, out):
        if out is not None:
            self.div_hits += 1

    def _count_verdict(self, out):
        status = getattr(out, "status", None)
        if status in self.verdicts:
            self.verdicts[status] += 1

    def install(self) -> None:
        """Rebind every traced function wherever a loaded module holds it."""
        hooks = {"expr.poly.poly_div_exact": self._count_division,
                 "expr.zerotest.is_zero": self._count_verdict,
                 "expr.zerotest.partial_is_zero": self._count_verdict}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.split(".")[0] == "ode3geom"]
        for label, (modname, attr) in TRACED.items():
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:        # the function no longer exists
                continue
            wrapper = self._wrap(label, orig, hooks.get(label))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)

    def metrics(self) -> dict:
        """Counts and self times, plus the engine's table sizes."""
        poly = sys.modules.get("ode3geom.expr.poly")
        out = {}
        for label in TRACED:
            out[f"{label}.calls"] = self.calls[label]
            out[f"{label}.self_s"] = self.self_s[label]
        divisions = self.calls["expr.poly.poly_div_exact"]
        out["expr.poly.div_exact.hit_ratio"] = \
            self.div_hits / divisions if divisions else 0.0
        for status, n in self.verdicts.items():
            out[f"expr.zerotest.verdicts.{status}"] = n
        out["expr.poly.atom_table_size"] = \
            len(getattr(poly, "_atom_payload", ()))
        out["expr.poly.drf_cache_size"] = len(getattr(poly, "_drf_cache", ()))
        return out
