"""Formal derivative operators on jet coordinates.

``total_derivative`` is the i-th formal derivative d_i, chaining through
every jet layer of the chart; ``cut_derivative`` is the variant d_i' that
omits the top-order layer.  ``sym_partial`` resolves derivative indices
given as free (unsorted) tuples, either as plain partials with respect to
the sorted coordinate or divided by the index multiplicity, so that freely
summed index formulas can be evaluated under either convention.

d_i f is one sum of kernel quotients (``expr._chain_sum``): the partial by
x^i, then each memoized partial by a fiber coordinate y^sigma_J times the
quotient of y^sigma_{J+i}, which a table keyed by (coordinate, i) holds once
it is first used, in ``var_key`` order.  No node tree is built on the way;
the raw tree diff(f, x^i) + sum diff(f, v) * y^sigma_{J+i} canonicalizes
to the same node.

The results are memoized on the differentiated node by ``expr._memoized``:
a formal derivative under ``("d", i, top, ctx)``, so a chart's variable
check runs once per node and chart and a failing check is raised again on
every call (the base index is checked before the memo, whose key would take
True for 1), and a symmetrized partial under ``("sym", sigma, tuple(index),
convention)``, where an unsorted index gets the node of the sorted one.
"""
from __future__ import annotations

from enum import Enum

from .charts import ChartContext, ChartError, FiberVar, MultiIndex, var_key
from .expr import ScalarExpr, _chain_sum, _memoized, const, diff, is_zero_expr, variables

from typing import Iterable


class Convention(str, Enum):
    """How a derivative index given as a free tuple is resolved."""

    PLAIN = "plain"
    SYMMETRIZED = "sym"


# Default fixed by the calibration oracle (verification.calibrate_convention);
# see docs/calibration.md.
DEFAULT_CONVENTION = Convention.SYMMETRIZED


def _formal_derivative(f: ScalarExpr, i: int, ctx: ChartContext, top: int) -> ScalarExpr:
    """d_i f chaining through the fiber coordinates of order below top."""
    if i.__class__ is not int or not 1 <= i <= ctx.n:
        # refused before the memo, where True would find the entry of 1
        raise ChartError(f"base index {i!r} out of range 1..{ctx.n}")
    return _memoized(f, ("d", i, top, ctx), _formal, f, i, ctx, top)


def _formal(f: ScalarExpr, i: int, ctx: ChartContext, top: int) -> ScalarExpr:
    vs = sorted(variables(f), key=var_key)
    for v in vs:
        ctx.check_variable(v)
    return _chain_sum(f, i, [v for v in vs if isinstance(v, FiberVar) and len(v.jj) < top])


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
    index = tuple(index)
    return _memoized(f, ("sym", sigma, index, convention), _sym, f, sigma, index, convention)


def _sym(f: ScalarExpr, sigma: int, index: tuple, convention: Convention) -> ScalarExpr:
    jj = MultiIndex(index)
    if jj != index:
        # an unsorted index shares the entry of the sorted one
        return sym_partial(f, sigma, jj, convention)
    out = diff(f, FiberVar(sigma, jj))
    mu = jj.multiplicity()
    if convention == Convention.PLAIN or mu == 1:
        return out
    return const(1, mu) * out


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
