"""The public surface: the names ``lepage`` exports, the functions the traced
benchmark run wraps, and the demos as scripts.
"""
import ast
import importlib
import os
import subprocess
import sys
import tokenize
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
    principal_lepage random_divergence_lagrangian
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


# Read from the sources, importing nothing: the packed format (field width,
# exponent bound, intern tables) is lepage.poly's alone, a node's caches are
# lepage.expr's alone, and every module stays below 8,000 tokens, short of the
# about 8,190 past which CPython 3.11 needs about 0.46 MB more to compile one.
SRC = ROOT / "src" / "lepage"
RUNTIME = sorted(SRC.glob("*.py"))
FIELD_NAMES = {"_W", "_HALF", "_FIELD", "_SAFE"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _names(path: Path) -> set:
    """Every name a module spells: as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_the_kernel_imports_only_the_standard_library():
    modules = []
    for node in ast.walk(_tree(SRC / "poly.py")):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module!r}"
            modules.append(node.module)
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert modules
    assert [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names] == []


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.name)
def test_only_the_kernel_names_the_field_layout(path):
    names = _names(path)
    assert bool(names & FIELD_NAMES) == (path.name == "poly.py"), sorted(names & FIELD_NAMES)


# A node's caches (its quotient, canonical mark, atom id, coordinates and
# memo) are lepage.expr's alone: no other module spells their keys or reads
# them as attributes.
CACHE_KEYS = {"_rfc", "_canonical", "_memo", "_aid", "_vars"}


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.name)
def test_only_expr_names_a_node_cache(path):
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant) and node.value in CACHE_KEYS:
            found.add(repr(node.value))
        elif isinstance(node, ast.Attribute) and node.attr in {"_memo", "_rfc"}:
            found.add("." + node.attr)
    assert bool(found) == (path.name == "expr.py"), sorted(found)


# The quotient arithmetic and the rendering of quotients as nodes are
# lepage.poly's and lepage.expr's alone: no other module names an _rf_*
# function or _render, so the operators of every other layer go through
# expr's helpers.
@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.name)
def test_only_the_kernel_modules_name_quotient_arithmetic(path):
    found = {name for name in _names(path) if name.startswith(("_rf_", "_render"))}
    assert bool(found) == (path.name in ("expr.py", "poly.py")), sorted(found)


# A module-level import that nothing reads is dead code that every process
# still compiles and runs; __init__.py imports to re-export, so it is exempt.
@pytest.mark.parametrize("path", [p for p in RUNTIME if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_runtime_module_imports_a_name_it_never_reads(path):
    tree = _tree(path)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: p.name)
def test_every_runtime_module_is_below_8000_tokens(path):
    with path.open(encoding="utf-8") as handle:
        tokens = [t for t in tokenize.generate_tokens(handle.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    assert len(tokens) < 8000
