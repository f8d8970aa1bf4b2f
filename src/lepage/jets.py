"""Formal derivative operators on jet coordinates.

``total_derivative`` is the i-th formal derivative d_i, chaining through
every jet layer of the chart; ``cut_derivative`` is the variant d_i' that
omits the top-order layer.  ``sym_partial`` resolves derivative indices
given as free (unsorted) tuples, either as plain partials with respect to
the sorted coordinate or divided by the index multiplicity, so that freely
summed index formulas can be evaluated under either convention.

The results are memoized on the differentiated node, in the memo that
``expr.diff`` keeps there: a formal derivative under ``("d", i, top, ctx)``,
so a chart's variable check runs once per node and chart and a failing check
is raised again on every call, and a symmetrized partial under
``("sym", sigma, tuple(index), convention)``.
"""
from __future__ import annotations

from enum import Enum

from .charts import BaseVar, ChartContext, ChartError, FiberVar, MultiIndex, var_key
from .expr import ScalarExpr, Var, _memo, canonicalize, diff, is_zero_expr, scale, variables

from fractions import Fraction
from typing import Iterable


class Convention(str, Enum):
    """How a derivative index given as a free tuple is resolved."""

    PLAIN = "plain"
    SYMMETRIZED = "sym"


# Default fixed by the calibration oracle (verification.calibrate_convention);
# see docs/calibration.md.
DEFAULT_CONVENTION = Convention.SYMMETRIZED


def _check_chart(f: ScalarExpr, ctx: ChartContext) -> list:
    vs = sorted(variables(f), key=var_key)
    for v in vs:
        ctx.check_variable(v)
    return vs


def _formal_derivative(f: ScalarExpr, i: int, ctx: ChartContext, top: int) -> ScalarExpr:
    """d_i f chaining through the fiber coordinates of order below top."""
    memo = _memo(f)
    key = ("d", i, top, ctx)
    out = memo.get(key)
    if out is not None:
        return out
    if not 1 <= i <= ctx.n:
        raise ChartError(f"base index {i} out of range 1..{ctx.n}")
    vs = _check_chart(f, ctx)
    out = diff(f, BaseVar(i))
    for v in vs:
        if isinstance(v, FiberVar) and len(v.jj) < top:
            out = out + diff(f, v) * Var(FiberVar(v.sigma, v.jj.append(i)))
    out = memo[key] = canonicalize(out)
    return out


def total_derivative(f: ScalarExpr, i: int, ctx: ChartContext) -> ScalarExpr:
    """The i-th formal derivative d_i f; the result has order max_order + 1."""
    return _formal_derivative(f, i, ctx, ctx.max_order + 1)


def cut_derivative(f: ScalarExpr, i: int, ctx: ChartContext) -> ScalarExpr:
    """The cut formal derivative d_i' f: d_i with the top-order layer omitted."""
    return _formal_derivative(f, i, ctx, ctx.max_order)


def iterated_total_derivative(f: ScalarExpr, indices: Iterable[int], ctx: ChartContext) -> ScalarExpr:
    """d_{p1} ... d_{pl} f applied left to right (the d_i commute)."""
    out = f
    c = ctx
    for i in indices:
        out = total_derivative(out, i, c)
        c = c.lifted()
    return out


def sym_partial(
    f: ScalarExpr,
    sigma: int,
    index: tuple[int, ...],
    convention: Convention = DEFAULT_CONVENTION,
) -> ScalarExpr:
    """Partial derivative of f by y^sigma with a free (unsorted) index tuple.

    Plain: the partial with respect to the sorted coordinate.  Symmetrized:
    the same divided by the multiplicity of the sorted index.
    """
    memo = _memo(f)
    key = ("sym", sigma, tuple(index), convention)
    out = memo.get(key)
    if out is None:
        jj = MultiIndex(index)
        out = diff(f, FiberVar(sigma, jj))
        if convention != Convention.PLAIN:
            mu = jj.multiplicity()
            if mu != 1:
                out = scale(out, Fraction(1, mu))
        memo[key] = out
    return out


def mixed_partial(
    f: ScalarExpr,
    slots: Iterable[tuple[int, tuple[int, ...]]],
    convention: Convention = DEFAULT_CONVENTION,
) -> ScalarExpr:
    """Iterated sym_partial over (sigma, index-tuple) slots; a zero partial
    ends the chain, since each further partial of zero is zero."""
    out = f
    for sigma, index in slots:
        out = sym_partial(out, sigma, index, convention)
        if is_zero_expr(out):
            break
    return out


def second_partials(f: ScalarExpr, convention: Convention):
    """The function (sigma_a, index_a, sigma_b, index_b) -> mixed partial of f by both slots."""
    return lambda sa, ia, sb, ib: mixed_partial(f, [(sa, ia), (sb, ib)], convention)
