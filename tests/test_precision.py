"""Every reader of a BetaSequence works at the sequence's ``digits_used``: the
caller's mp.dps, lower or higher, never changes a bit of what it returns."""
import ast
from pathlib import Path

import pytest
from mpmath import mp, mpf

from dfreud import (NumericContext, WeightParams, beta_from_moments, ladder_pair,
                    lowering_residual, sum_rule_residual, compatibility_residuals,
                    ode_coefficients, pn_ode_residual, identity_residuals, beta_prime,
                    beta_second, dpi_residual, ode25_residual, logdet_derivative_exact,
                    logdet_derivative_sum)

SRC = Path(__file__).resolve().parents[1] / "src" / "dfreud"
CTX = NumericContext(digits=30)
PARAMS = WeightParams("0.5", 1, 1)

# z as a string: an mpf made at the caller's precision would be another input
READERS = {
    "ladder_pair": lambda b: ladder_pair(3, "0.9", PARAMS, b),
    "lowering_residual": lambda b: lowering_residual(4, "0.9", PARAMS, b),
    "sum_rule_residual": lambda b: sum_rule_residual(4, PARAMS, b),
    "compatibility_residuals": lambda b: compatibility_residuals(4, "0.9", PARAMS, b),
    "ode_coefficients": lambda b: ode_coefficients(4, "0.9", PARAMS, b),
    "pn_ode_residual": lambda b: pn_ode_residual(4, "0.9", PARAMS, b),
    "identity_residuals": lambda b: identity_residuals(4, "0.9", PARAMS, b),
    "beta_prime": lambda b: beta_prime(5, b, PARAMS),
    "beta_second": lambda b: beta_second(5, b, PARAMS),
    "dpi_residual": lambda b: dpi_residual(b, PARAMS),
    "ode25_residual": lambda b: ode25_residual(5, PARAMS, CTX, b),
    "logdet_derivative_exact": lambda b: logdet_derivative_exact(5, PARAMS, CTX, b),
    "logdet_derivative_sum": lambda b: logdet_derivative_sum(5, PARAMS, CTX, b),
}


def _bits(x):
    """The mpf bit tuples inside a result, containers and dataclasses unpacked."""
    if isinstance(x, mpf):
        return x._mpf_
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return tuple(map(_bits, x))
    return _bits(vars(x)) if hasattr(x, "__dataclass_fields__") else x


@pytest.fixture(scope="module")
def betas():
    return beta_from_moments(PARAMS, 8, CTX)


@pytest.mark.parametrize("offset", [None, 30], ids=["at_15", "above_digits_used"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_caller_precision_is_no_input(betas, name, offset):
    with mp.workdps(betas.digits_used):
        expected = _bits(READERS[name](betas))
    with mp.workdps(15 if offset is None else betas.digits_used + offset):
        assert _bits(READERS[name](betas)) == expected


def _name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _unscoped_mpfs(tree) -> list:
    """(function, line) of each ``.mpfs()`` call outside a ``workdps`` or ``workprec``
    block, inside a public module-level function with a ``betas`` parameter."""
    found = []

    def visit(node, name, scoped):
        if isinstance(node, ast.With):
            scoped = scoped or any(isinstance(item.context_expr, ast.Call)
                                   and _name(item.context_expr.func) in ("workdps", "workprec")
                                   for item in node.items)
        elif isinstance(node, ast.Call) and _name(node.func) == "mpfs" and not scoped:
            found.append((name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, name, scoped)

    for node in tree.body:
        if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and "betas" in [a.arg for a in node.args.args + node.args.kwonlyargs]):
            visit(node, node.name, False)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_sequence_readers_scope_their_precision(path):
    assert _unscoped_mpfs(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("source, bad", [
    ("def f(n, betas, params):\n    with mp.workdps(9):\n        params.mpfs()", []),
    ("def f(n, betas, params):\n    with mp.workprec(9):\n        params.mpfs()", []),
    ("def f(n, betas, params):\n    params.mpfs()", [("f", 2)]),
    ("def f(n, betas, params):\n    with open(p):\n        params.mpfs()", [("f", 3)]),
    ("def f(n, params, *, betas=None):\n    return params.mpfs()", [("f", 2)]),
    ("def f(n, params):\n    params.mpfs()", []),
    ("def _f(n, betas, params):\n    params.mpfs()", []),
])
def test_unscoped_mpfs_are_found(source, bad):
    assert _unscoped_mpfs(ast.parse(source)) == bad
