"""Independent oracle: the kernel's canonical forms and partials, the formal
derivatives and the Euler-Lagrange expressions against sympy.

sympy is a test-only dependency; the module is skipped where it is missing.
"""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lepage import (
    BaseVar,
    ChartContext,
    ExprError,
    Lagrangian,
    X,
    Y,
    canonicalize,
    cut_derivative,
    diff,
    euler_lagrange_expressions,
    total_derivative,
)
from lepage.charts import FiberVar
from lepage.expr import Add, Div, Fn, Mul, Pow, Rat, Var, is_zero_expr

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


def _is_zero_over_atoms(s, points: int = 3) -> bool:
    """Zero as a rational function of the coordinates and the function atoms,
    taken as independent symbols, decided by exact values at seeded random
    rational points: a nonzero rational function vanishes at such a point with
    negligible probability.  Atoms that sympy merges on its own (exp) must not
    occur, or equal values could be spelled over different atoms."""
    atoms = {a: sympy.Dummy() for a in s.atoms(sympy.Function)}
    r = s.xreplace(atoms)
    rng = random.Random(0)
    finite = 0
    for _ in range(20 * points):
        point = {x: sympy.Rational(rng.randint(-999, 999), rng.randint(1, 999))
                 for x in r.free_symbols}
        value = r.xreplace(point)
        if not value.is_finite:
            continue  # a pole of either side tells nothing
        if value != 0:
            return False
        finite += 1
        if finite == points:
            return True
    raise AssertionError("no sample point away from the poles")


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


def _ln_atoms(pool):
    # ln of a positive argument, so sympy and the kernel agree on its domain
    return st.sampled_from(pool).map(lambda v: Fn("ln", v ** 2 + 1))


@st.composite
def _quotients_in(draw, pool, numerators):
    """(e, v): a numerator over a multi-term denominator in which the
    coordinate v occurs, ln atoms included."""
    v = draw(st.sampled_from(pool))
    extras = draw(st.lists(
        st.tuples(st.integers(-2, 2).filter(bool), st.sampled_from(pool) | _ln_atoms(pool)),
        min_size=1, max_size=2,
    ))
    k = draw(st.integers(1, 2))
    den = Add((v ** k, Rat(Fraction(draw(st.integers(1, 3))))) + tuple(c * a for c, a in extras))
    num = draw(numerators | _ln_atoms(pool))
    return num / den, v


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(ev=_quotients_in(_POOL, st.recursive(_leaves, _combine, max_leaves=4)))
def test_quotient_rule_agrees_with_sympy(ev):
    e, v = ev
    _canonical(e)
    want = sympy.diff(to_sympy(e), sympy.Symbol(_name(v.ref)))
    assert _is_zero_over_atoms(to_sympy(diff(e, v.ref)) - want)


_SHARED_POOL = [X(1), Y(1), Y(1, 1)]

_small_polynomials = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool), st.lists(st.sampled_from(_SHARED_POOL), max_size=2)),
    min_size=1, max_size=3,
).map(lambda terms: Add(tuple(Mul((Rat(Fraction(c)),) + tuple(vs)) for c, vs in terms)))


@st.composite
def _shared_factor_quotients(draw):
    """(P, F, i, Q, j, v): polynomials P, Q and a multi-term factor F with a
    constant term, in which the coordinate v occurs."""
    v = draw(st.sampled_from(_SHARED_POOL))
    w = draw(st.sampled_from(_SHARED_POOL))
    F = Add((v ** draw(st.integers(1, 2)), Rat(Fraction(draw(st.integers(1, 3)))),
             Rat(Fraction(draw(st.integers(0, 2)))) * w))
    P, Q = draw(_small_polynomials), draw(_small_polynomials)
    assume(not is_zero_expr(P) and not is_zero_expr(Q))
    return P, F, draw(st.integers(1, 3)), Q, draw(st.integers(1, 3)), v


def _total_degree(e) -> int:
    s = to_sympy(e)
    return sympy.Poly(s, *sorted(s.free_symbols, key=str)).total_degree()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(case=_shared_factor_quotients(), sign=st.sampled_from([1, -1]))
def test_quotients_that_share_a_factor_agree_with_sympy(case, sign):
    P, F, i, Q, j, v = case
    a, b = P * F ** -i, Q * F ** -j
    total = a + b if sign > 0 else a - b
    partial = diff(total, v.ref)
    for e, got in ((total, canonicalize(total)), (a * b, canonicalize(a * b)),
                   (partial, partial)):
        assert sympy.cancel(to_sympy(got) - to_sympy(e)) == 0
    # the sum sits over F^max(i, j), not F^(i + j); a product adds exponents,
    # and a partial raises F by one
    degree = _total_degree(F)
    if not is_zero_expr(total):
        assert _total_degree(canonicalize(total).den) == max(i, j) * degree
    assert _total_degree(canonicalize(a * b).den) == (i + j) * degree
    if isinstance(partial, Div):
        assert _total_degree(partial.den) <= (max(i, j) + 1) * degree


# ---------------------------------------------------------------------------
# formal derivatives and Euler-Lagrange expressions (n = 2)
# ---------------------------------------------------------------------------

_BASE = (1, 2)
_JET_CTX = ChartContext(2, 1, 2)
_JET_POOL = [X(1), X(2)] + [
    Y(1, *jj) for k in range(3) for jj in itertools.combinations_with_replacement(_BASE, k)
]


def _fiber_name(sigma: int, jj) -> str:
    return f"y{sigma}_" + "".join(map(str, sorted(jj)))


def _chain_rule(s, i: int, top: int):
    """d s/dx^i + sum over y_J with |J| < top of d s/dy_J * y_{J i}, built by sympy."""
    out = sympy.diff(s, sympy.Symbol(f"x{i}"))
    for k in range(top):
        for jj in itertools.combinations_with_replacement(_BASE, k):
            out += sympy.diff(s, sympy.Symbol(_fiber_name(1, jj))) * sympy.Symbol(
                _fiber_name(1, jj + (i,))
            )
    return out


_jet_leaves = (
    st.sampled_from(_JET_POOL)
    | st.fractions(min_value=-3, max_value=3, max_denominator=5).map(Rat)
    | st.tuples(st.sampled_from(["sin", "cos", "exp"]), st.sampled_from(_JET_POOL)).map(
        lambda fv: Fn(fv[0], fv[1])
    )
)
_jet_exprs = st.recursive(_jet_leaves, _combine, max_leaves=6)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(e=_jet_exprs, i=st.sampled_from(_BASE))
def test_formal_derivatives_agree_with_the_chain_rule(e, i):
    _canonical(e)
    s = to_sympy(e)
    got_total = to_sympy(total_derivative(e, i, _JET_CTX))
    assert _is_zero(got_total - _chain_rule(s, i, top=3))
    got_cut = to_sympy(cut_derivative(e, i, _JET_CTX))
    assert _is_zero(got_cut - _chain_rule(s, i, top=2))


_quotient_leaves = (
    st.sampled_from(_JET_POOL)
    | st.fractions(min_value=-3, max_value=3, max_denominator=5).map(Rat)
    | st.tuples(st.sampled_from(["sin", "cos"]), st.sampled_from(_JET_POOL)).map(
        lambda fv: Fn(fv[0], fv[1])
    )
)


def _sums_and_products(children):
    pairs = st.tuples(children, children)
    return pairs.map(lambda ab: ab[0] + ab[1]) | pairs.map(lambda ab: ab[0] * ab[1])


# the numerators stay polynomial in the atoms: a total derivative chains
# through nine coordinates, and nested quotients would make it large
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(ev=_quotients_in(_JET_POOL, st.recursive(_quotient_leaves, _sums_and_products, max_leaves=3)),
       i=st.sampled_from(_BASE))
def test_total_derivative_of_a_quotient_agrees_with_the_chain_rule(ev, i):
    e, _ = ev
    _canonical(e)
    got = to_sympy(total_derivative(e, i, _JET_CTX))
    assert _is_zero_over_atoms(got - _chain_rule(to_sympy(e), i, top=3))


@st.composite
def _polynomial_lagrangians(draw):
    m = draw(st.sampled_from([1, 2]))
    r = draw(st.sampled_from([1, 2]))
    pool = [X(1), X(2)] + [
        Y(sigma, *jj)
        for sigma in range(1, m + 1)
        for k in range(r + 1)
        for jj in itertools.combinations_with_replacement(_BASE, k)
    ]
    monomial = st.tuples(
        st.sampled_from([-3, -2, -1, 1, 2, 3]), st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    ).map(lambda cf: Mul((Rat(Fraction(cf[0])),) + tuple(cf[1])))
    terms = draw(st.lists(monomial, min_size=1, max_size=4))
    return Lagrangian(ChartContext(2, m, r), r, Add(tuple(terms)))


@settings(max_examples=30, deadline=None)
@given(lam=_polynomial_lagrangians())
def test_euler_lagrange_agrees_with_sympy(lam):
    from sympy.calculus.euler import euler_equations

    x = sympy.symbols("x1 x2")
    funcs = [sympy.Function(f"u{sigma}")(*x) for sigma in lam.ctx.fiber_indices]
    # y^sigma_J -> the J-th partial of u_sigma, up to the order 2r of E
    section = {
        sympy.Symbol(_fiber_name(sigma, jj)): (
            funcs[sigma - 1].diff(*(x[j - 1] for j in jj)) if jj else funcs[sigma - 1]
        )
        for sigma in lam.ctx.fiber_indices
        for k in range(2 * lam.r + 1)
        for jj in itertools.combinations_with_replacement(_BASE, k)
    }
    # a free t_sigma * u_sigma term keeps every equation in sympy's list, even
    # one that would otherwise read 0 = 0 or c = 0; it adds t_sigma to E_sigma
    shifts = sympy.symbols(f"t1:{lam.ctx.m + 1}")
    L = to_sympy(lam.L).subs(section, simultaneous=True)
    L += sum(t * u for t, u in zip(shifts, funcs))
    equations = euler_equations(L, funcs, x)
    assert len(equations) == lam.ctx.m
    for eq, t, e_sigma in zip(equations, shifts, euler_lagrange_expressions(lam)):
        want = eq.lhs - eq.rhs - t
        got = to_sympy(e_sigma).subs(section, simultaneous=True)
        assert sympy.expand(got - want) == 0
