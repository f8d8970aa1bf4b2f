"""Independent oracle: the kernel's canonical forms and partials against sympy.

sympy is a test-only dependency; the module is skipped where it is missing.
"""
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lepage import BaseVar, ExprError, X, Y, canonicalize, diff
from lepage.charts import FiberVar
from lepage.expr import Add, Div, Fn, Mul, Pow, Rat, Var

sympy = pytest.importorskip("sympy")

_POOL = [X(1), Y(1), Y(1, 1), Y(1, 2)]


def _name(v) -> str:
    if isinstance(v, BaseVar):
        return f"x{v.i}"
    return f"y{v.sigma}_" + "".join(map(str, v.jj))


def to_sympy(e):
    if isinstance(e, Rat):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Var):
        return sympy.Symbol(_name(e.ref))
    if isinstance(e, Add):
        return sympy.Add(*map(to_sympy, e.terms))
    if isinstance(e, Mul):
        return sympy.Mul(*map(to_sympy, e.factors))
    if isinstance(e, Pow):
        return to_sympy(e.base) ** e.exponent
    if isinstance(e, Div):
        return to_sympy(e.num) / to_sympy(e.den)
    if isinstance(e, Fn):
        return getattr(sympy, "log" if e.name == "ln" else e.name)(to_sympy(e.arg))
    raise TypeError(e)


_leaves = st.sampled_from(_POOL) | st.fractions(
    min_value=-3, max_value=3, max_denominator=5).map(Rat)


def _combine(children):
    pairs = st.tuples(children, children)
    return (
        pairs.map(lambda ab: ab[0] + ab[1])
        | pairs.map(lambda ab: ab[0] - ab[1])
        | pairs.map(lambda ab: ab[0] * ab[1])
        | pairs.map(lambda ab: ab[0] / ab[1])
        | st.tuples(children, st.integers(-2, 3)).map(lambda bk: bk[0] ** bk[1])
    )


_rational_exprs = st.recursive(_leaves, _combine, max_leaves=8)


def _canonical(e):
    try:
        return canonicalize(e)
    except ExprError:
        # an identically zero denominator: the expression has no value
        assume(False)


def _is_zero(s) -> bool:
    return sympy.simplify(s) == 0


def test_oracle_translation():
    e = (X(1) + Rat(Fraction(1, 2))) ** -1 * Y(1, 2)
    assert to_sympy(e) == sympy.Symbol("y1_2") / (sympy.Symbol("x1") + sympy.Rational(1, 2))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(e=_rational_exprs)
def test_canonicalize_agrees_with_sympy(e):
    got = _canonical(e)
    assert _is_zero(to_sympy(got) - to_sympy(e))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(e=_rational_exprs, slot=st.integers(0, len(_POOL) - 1))
def test_diff_agrees_with_sympy(e, slot):
    _canonical(e)
    v = _POOL[slot].ref
    want = sympy.diff(to_sympy(e), sympy.Symbol(_name(v)))
    assert _is_zero(to_sympy(diff(e, v)) - want)
