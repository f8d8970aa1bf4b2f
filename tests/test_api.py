"""The public surface: the names ``lepage`` exports, the functions the traced
benchmark run wraps, and the demos as scripts.
"""
import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lepage

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = """
    Add BaseVar CalibrationError CalibrationReport ChartContext ChartError
    CheckReport CoframeElement Convention DEFAULT_CONVENTION Div
    DivergenceGenerator Dx EvalDomainError ExprError ExprSyntaxError
    ExteriorForm FiberVar Fn FormError FundamentalCoefficients JetVariable
    Lagrangian LagrangianSpec MissingVariableError Mul MultiIndex Omega
    OrderMismatchError OrderReducibilityError Pow PreconditionError
    Rat SamplingFailure ScalarExpr UndefinedFormError Var X Y ZeroPolicy
    ZeroVerdict builtin_calibration_corpus calibrate_convention camassa_holm
    canonicalize caratheodory_first caratheodory_second
    caratheodory_second_blocks closure_check combination_conditions const
    contact_component cos cut_derivative diff dirichlet dx
    el_expansion_crosscheck equals_zero euler_lagrange_expressions
    euler_lagrange_form eval_numeric exp expr_to_latex expr_to_text
    exterior_derivative first_order_corpus form_from_document form_from_json
    form_is_zero form_to_document form_to_json form_to_latex form_to_text
    forms_equal fundamental_coefficients fundamental_first_order
    fundamental_second_order_n2 hessian_determinant horizontalization
    is_lepage_equivalent is_lepage_form is_trivial iterated_total_derivative
    jet_order lagrangian_form levi_civita ln make_divergence_lagrangian
    make_form max_jet_order nontrivial_order_reducible_corpus null_divergence_m2
    omega omega_basis order_reducible parse_expression parse_lagrangian
    principal_lepage random_divergence_lagrangian random_section_oracle
    second_order_corpus sin substitute sym_partial total_derivative
    trivial_conditions_second_order trivial_order_reducible_corpus variables
    wedge wedge_all zero_form
""".split()


def test_public_names_are_pinned():
    exported = sorted(
        name
        for name, value in vars(lepage).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def _traced_layers() -> dict:
    """The ``LAYERS`` literal of ``bench/sample.py``, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "sample.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/sample.py defines no LAYERS")


@pytest.mark.parametrize(
    "module, func", [(m, f) for m, funcs in _traced_layers().items() for f in funcs]
)
def test_traced_functions_resolve(module, func):
    assert callable(getattr(importlib.import_module(f"lepage.{module}"), func))


DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


def _run(*args: str, timeout: float) -> subprocess.CompletedProcess:
    """A fresh interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    done = _run(str(demo), timeout=120)
    assert done.returncode == 0, done.stderr


def test_the_cli_imports_no_dataclass_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize, and every process
    # that starts the CLI would pay for them
    code = ("import lepage.cli, sys; "
            "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    done = _run("-S", "-c", code, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
