"""Symbolic variational calculus on finite-order jet bundles.

Builds Lepage equivalents of first- and second-order Lagrangians over an
n-dimensional base (the Poincare-Cartan and Caratheodory forms, the
fundamental Krupka-Betounes form and its second-order analogue for a
2-dimensional base) and mechanically verifies the characterizations that
come with them: the Lepage property, variational triviality,
order-reducibility, and the equivalence "the fundamental form is closed
iff the Lagrangian is trivial".
"""

from .charts import BaseVar, ChartContext, ChartError, FiberVar, JetVariable, MultiIndex, jet_order
from .expr import (
    Add,
    Div,
    EvalDomainError,
    ExprError,
    Fn,
    MissingVariableError,
    Mul,
    Pow,
    Rat,
    SamplingFailure,
    ScalarExpr,
    Var,
    X,
    Y,
    ZeroPolicy,
    ZeroVerdict,
    canonicalize,
    const,
    cos,
    diff,
    equals_zero,
    eval_numeric,
    exp,
    ln,
    max_jet_order,
    sin,
    substitute,
    variables,
)
from .jets import (
    Convention,
    DEFAULT_CONVENTION,
    cut_derivative,
    iterated_total_derivative,
    sym_partial,
    total_derivative,
)
from .forms import (
    CoframeElement,
    Dx,
    ExteriorForm,
    FormError,
    Omega,
    contact_component,
    dx,
    exterior_derivative,
    form_is_zero,
    forms_equal,
    horizontalization,
    levi_civita,
    make_form,
    omega,
    omega_basis,
    wedge,
    wedge_all,
    zero_form,
)
from .variational import (
    FundamentalCoefficients,
    Lagrangian,
    OrderReducibilityError,
    UndefinedFormError,
    caratheodory_first,
    caratheodory_second,
    euler_lagrange_expressions,
    euler_lagrange_form,
    fundamental_coefficients,
    fundamental_first_order,
    fundamental_second_order_n2,
    lagrangian_form,
    principal_lepage,
)
from .verification import (
    CalibrationError,
    CalibrationReport,
    CheckReport,
    DivergenceGenerator,
    PreconditionError,
    builtin_calibration_corpus,
    calibrate_convention,
    camassa_holm,
    closure_check,
    combination_conditions,
    dirichlet,
    el_expansion_crosscheck,
    first_order_corpus,
    hessian_determinant,
    is_lepage_equivalent,
    is_lepage_form,
    is_trivial,
    make_divergence_lagrangian,
    nontrivial_order_reducible_corpus,
    null_divergence_m2,
    order_reducible,
    random_divergence_lagrangian,
    second_order_corpus,
    trivial_conditions_second_order,
    trivial_order_reducible_corpus,
)
from .parsing import ExprSyntaxError, LagrangianSpec, OrderMismatchError, parse_expression, parse_lagrangian
from .serialize import (
    expr_to_latex,
    expr_to_text,
    form_from_document,
    form_from_json,
    form_to_document,
    form_to_json,
    form_to_latex,
    form_to_text,
)

__version__ = "0.1.0"
