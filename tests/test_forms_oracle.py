"""Independent oracle for the forms layer: d commutes with pullback.

For a smooth map delta: R^N -> J^s Y, delta*(d rho) = d(delta* rho).  Here
delta is affine, every chart coordinate an independent affine function of
t = (t_1, ..., t_N), N = n + 2, so

* delta* dx^i = d delta^i and delta* omega^sigma_J =
  d delta^sigma_J - delta^sigma_{Ji} d delta^i are 1-forms on R^N with
  affine components;
* the pullback of a wedge of 1-forms has the minors of their component
  matrix as its coefficients;
* d on R^N takes the partials in t of each coefficient.

Both sides are evaluated exactly, with their first partials in t, at random
rational points t, for the forms that the constructors make and for their
exterior derivatives.  This checks ``exterior_derivative`` with its
structural rule, the wedge signs of ``make_form``, the elimination
dy^sigma_J = omega^sigma_J + y^sigma_{Ji} dx^i and the constructors' forms
against nothing of the engine's but the coefficients it hands over, which
sympy reads back from their ``expr_to_text`` spelling.  sympy is a test-only
dependency; the module is skipped where it is missing.
"""
import itertools
import math
import random
from fractions import Fraction

import pytest

from lepage import (
    ChartContext,
    Dx,
    LagrangianSpec,
    Var,
    X,
    Y,
    caratheodory_first,
    exterior_derivative,
    expr_to_text,
    fundamental_first_order,
    fundamental_second_order_n2,
    parse_lagrangian,
    principal_lepage,
)

sympy = pytest.importorskip("sympy")

_FIRST = LagrangianSpec(2, 1, 1, "y*y_1^2 + x1*y_2^3 + y_1*y_2")
_SECOND = LagrangianSpec(2, 1, 2, "y*y_12 + x2*y_1*y_11 + y_2^2")
_PAIR = LagrangianSpec(2, 2, 1, "1 + y1_1^2 + y2_2^2 + x1*y1_2*y2_1")

FORMS = {
    "theta-2-1-1": lambda: principal_lepage(parse_lagrangian(_FIRST)),
    "fundamental-2-1-1": lambda: fundamental_first_order(parse_lagrangian(_FIRST)),
    "theta-2-1-2": lambda: principal_lepage(parse_lagrangian(_SECOND)),
    "fundamental-2-1-2": lambda: fundamental_second_order_n2(parse_lagrangian(_SECOND))[0],
    "caratheodory-2-2-1": lambda: caratheodory_first(parse_lagrangian(_PAIR)),
}


class Pullback:
    """A random affine map delta: R^N -> J^s Y of the chart (n, m, s), N = n + 2.

    It evaluates pulled-back forms at a point t of R^N exactly, with their
    first partials in t, so no expression in t is built."""

    def __init__(self, ctx: ChartContext, seed: int) -> None:
        rng = random.Random(seed)
        self.ctx = ctx
        self.size = ctx.n + 2
        # coordinate name -> (value at t = 0, gradient in t) of its affine function
        self.affine = {}
        for v in ctx.coordinates():
            c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(self.size + 1)]
            self.affine[expr_to_text(Var(v))] = c[0], c[1:]

    def _slope(self, coordinate) -> list:
        return self.affine[expr_to_text(coordinate)][1]

    def _row(self, el, t: list) -> tuple[list, list]:
        """The components on dt_1..dt_N of the pulled-back coframe element at
        t, and per t_j their partials."""
        zero = [0] * self.size
        if isinstance(el, Dx):
            return self._slope(X(el.i)), [zero] * self.size
        value = list(self._slope(Y(el.sigma, *el.jj)))
        partial = [list(zero) for _ in range(self.size)]
        for i in self.ctx.base_indices:
            base, slope = self.affine[expr_to_text(Y(el.sigma, *el.jj, i))]
            grad = self._slope(X(i))
            prolonged = base + sum(g * tk for g, tk in zip(slope, t))
            for k in range(self.size):
                value[k] -= prolonged * grad[k]
                for j in range(self.size):
                    partial[j][k] -= slope[j] * grad[k]
        return value, partial

    def form(self, terms: list, t: list) -> dict:
        """delta* rho at t, rho given by _terms, as {increasing index tuple K:
        (coefficient of dt_K, its partials in t)}."""
        at = {name: (base + sum(g * tk for g, tk in zip(slope, t)), slope)
              for name, (base, slope) in self.affine.items()}
        out: dict = {}
        for key, c in terms:
            value, dc = _jet(c, at, self.size)
            rows = [self._row(el, t) for el in key]
            for cols in itertools.combinations(range(self.size), len(key)):
                m = _minor(rows, cols)
                # a determinant is linear in each row
                dm = [sum(_minor(rows, cols, r, j) for r in range(len(rows))) for j in range(self.size)]
                f, df = out.get(cols, (0, [0] * self.size))
                out[cols] = (f + value * m, [a + b * m + value * e for a, b, e in zip(df, dc, dm)])
        return out

    @staticmethod
    def d(form: dict) -> dict:
        """The exterior derivative on R^N at t: d(F dt_K) = sum_j dF/dt_j dt_j ^ dt_K."""
        out: dict = {}
        for cols, (_, df) in form.items():
            for j, partial in enumerate(df):
                if j not in cols:
                    key = tuple(sorted(cols + (j,)))
                    out[key] = out.get(key, 0) + (-1) ** sum(k < j for k in cols) * partial
        return out


def _terms(rho) -> list:
    """(key, coefficient) per term of rho, each coefficient in sympy, read
    back from its text."""
    return [(key, sympy.sympify(expr_to_text(c).replace("^", "**"))) for key, c in rho.terms.items()]


def _jet(e, at: dict, size: int) -> tuple:
    """The value and the gradient in t of the rational sympy expression e of
    the coordinates, where at holds each coordinate's value and gradient."""
    if e.is_Symbol:
        return at[e.name]
    if e.is_Rational:
        return Fraction(int(e.p), int(e.q)), [0] * size
    parts = [_jet(arg, at, size) for arg in e.args]
    if e.is_Add:
        return sum(v for v, _ in parts), [sum(col) for col in zip(*(g for _, g in parts))]
    if e.is_Mul:
        value, grad = parts[0]
        for v, g in parts[1:]:
            value, grad = value * v, [value * b + v * a for a, b in zip(grad, g)]
        return value, grad
    assert e.is_Pow and e.exp.is_Integer, e
    (v, g), k = parts[0], int(e.exp)
    # Fraction(0) ** k raises ZeroDivisionError at a pole
    return v ** k, [k * v ** (k - 1) * a for a in g]


def _minor(rows: list, cols: tuple, replaced: int = -1, j: int = 0):
    """The minor of the rows' values on the columns cols, with the row
    numbered replaced taken as its partial in t_j."""
    return _det([[(partial[j] if r == replaced else row)[k] for k in cols]
                 for r, (row, partial) in enumerate(rows)])


def _det(rows: list):
    """The determinant as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(row[k] for row, k in zip(rows, perm))
    return total


@pytest.mark.parametrize("name", FORMS)
def test_d_commutes_with_an_affine_pullback(name):
    rho = FORMS[name]()
    d_rho = exterior_derivative(rho)
    assert d_rho.terms, "the check needs a form that is not closed"
    pullback = Pullback(ChartContext(rho.ctx.n, rho.ctx.m, d_rho.order), seed=1)
    terms, d_terms = _terms(rho), _terms(d_rho)
    rng = random.Random(2)
    checked = 0
    for _ in range(30):
        t = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(pullback.size)]
        try:
            pulled_d = {cols: f for cols, (f, _) in pullback.form(d_terms, t).items()}
            d_pulled = pullback.d(pullback.form(terms, t))
        except ZeroDivisionError:
            continue  # a pole of the coefficients tells nothing
        assert any(pulled_d.values())
        for cols in pulled_d.keys() | d_pulled.keys():
            a, b = pulled_d.get(cols, 0), d_pulled.get(cols, 0)
            assert a == b, f"dt{cols}: delta*(d rho) = {a}, d(delta* rho) = {b}"
        checked += 1
        if checked == 3:
            break
    assert checked == 3
