"""Symbolic expression core: trees, parsing, calculus, zero testing."""
from .nodes import (Expr, P, Q, X, Y, abs_, add, atan, eval_tree_dual, exp,
                    from_rf, fun, log, mul, neg, normalize, num, partial,
                    pow_, rf_to_tree, sgn, sqrt, to_str, var)
from .parser import ParseError, parse
from .poly import JET_VARS, KERNEL_NAMES, DomainError, SingularPointError
from .zerotest import (DEFAULT_CONFIG, JetPoint, PartialDraws,
                       SignConsistencyError, ZeroConfig, ZeroVerdict, eval_at,
                       eval_with_bound, is_zero, partial_is_zero,
                       sample_points, sign_on_domain, values_on_samples)

__all__ = [
    "Expr", "X", "Y", "P", "Q", "num", "var", "add", "mul", "neg", "pow_",
    "fun", "exp", "log", "atan", "sqrt", "abs_", "sgn", "normalize",
    "eval_tree_dual",
    "partial", "parse", "ParseError", "to_str", "from_rf", "rf_to_tree",
    "JetPoint", "ZeroVerdict", "ZeroConfig", "DEFAULT_CONFIG", "is_zero",
    "sign_on_domain", "eval_at", "eval_with_bound", "partial_is_zero",
    "PartialDraws", "values_on_samples", "sample_points",
    "DomainError", "SingularPointError", "SignConsistencyError",
    "JET_VARS", "KERNEL_NAMES",
]
