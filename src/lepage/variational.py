"""Variational objects attached to a Lagrangian.

Constructors for the Euler-Lagrange expressions and form, the principal
Lepage equivalent (the Poincare-Cartan form and its second-order
generalization), the Caratheodory forms of first and second order, the
first-order fundamental (Krupka-Betounes) form, and the second-order
fundamental form over a 2-dimensional base for order-reducible
Lagrangians.

The Lepage equivalents agree with Theta up to 2-contact terms, so they share
one table of momenta, ``_momenta``: p_sigma^{Ji} = sum_l (-1)^l d_{p1}..d_{pl}
dL/dy^sigma_{J p1..pl i} for |J| < r.  ``_theta_entries`` is the one writer
of Theta's entries; both Caratheodory forms and the n = 2 blocks
(A^sigma_j = p_sigma^j, B^sigma_{ij} = p_sigma^{ij}) read the table.

What one Lagrangian derives is kept in the memo of its L node by ``_kept``
alone, under (name, chart at L's order, *args): ``"momenta"`` per convention,
the E_sigma tuple ``"euler-lagrange"``, E_lambda ``"euler-lagrange-form"``,
and per convention the ``"expansion"`` dict of ``lepage.verification``, which
keeps its tc1, c2, block verdicts and order-reducibility reports.
None holds L, and a pickled L carries none.  With the unit operations of
``lepage.expr``, Theta and both fundamental forms hold the same coefficient
nodes for their 0- and 1-contact terms, so each partial and formal
derivative of those terms is taken once.

Over a 2-dimensional base, ``_second_order_n2`` appends to Theta's entries
the 2-contact blocks omega^s ^ omega^n, omega^s ^ omega^n_j, omega^s_i ^
omega^n_j, fed coefficient functions by ``caratheodory_second_blocks`` and
``fundamental_second_order_n2``; ``fundamental_coefficients`` writes each of
P, Q^j and R^{ij} once with free indices.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .charts import ChartContext, ChartError, FiberVar, MultiIndex, Record
from .expr import (
    DEFAULT_POLICY,
    Pow,
    Rat,
    ScalarExpr,
    ZeroPolicy,
    as_expr,
    canonicalize,
    diff,
    equals_zero,
    is_zero_expr,
    max_jet_order,
    variables,
    _memoized,
    _summed,
)
from .forms import (
    Dx,
    ExteriorForm,
    Omega,
    levi_civita,
    make_form,
    wedge_all,
)
from .jets import (
    Convention,
    DEFAULT_CONVENTION,
    cut_derivative,
    iterated_total_derivative,
    second_partials,
    sym_partial,
)


class UndefinedFormError(ValueError):
    """A constructor's precondition fails (e.g. a vanishing Lagrange function)."""


class OrderReducibilityError(ValueError):
    """The second-order fundamental form was requested for a non-reducible Lagrangian."""

    def __init__(self, report):
        super().__init__(f"Lagrangian is not order-reducible: {report.describe()}")
        self.report = report


class Lagrangian(Record):
    """A Lagrange function with its chart and declared order r."""

    ctx: ChartContext
    r: int
    L: ScalarExpr

    def __init__(self, ctx: ChartContext, r: int, L: ScalarExpr) -> None:
        if r < 0:
            raise ChartError(f"negative order {r}")
        L = canonicalize(L)
        actual = max_jet_order(L)
        if actual > r:
            raise ChartError(f"Lagrange function has order {actual}, declared {r}")
        chart = ctx.at_order(r)
        for v in variables(L):
            chart.check_variable(v)
        self.__dict__.update(ctx=chart, r=r, L=L)


def _kept(lam: Lagrangian, name: str, make, *args):
    """make(lam, *args), kept in the memo of lam's L node under (name, chart,
    *args), the chart being at lam's order: every Lagrangian over one L node
    and chart reads the same value, which no caller may change."""
    return _memoized(lam.L, (name, lam.ctx, *args), make, lam, *args)


def lagrangian_form(lam: Lagrangian) -> ExteriorForm:
    """The horizontal n-form L omega_0."""
    key = tuple(Dx(i) for i in lam.ctx.base_indices)
    return make_form(lam.ctx, lam.ctx.n, [(key, lam.L)], lam.r)


def euler_lagrange_expressions(lam: Lagrangian) -> list[ScalarExpr]:
    """E_sigma(L) = sum_k (-1)^k d_{i1}...d_{ik} dL/dy^sigma_{i1..ik} (sorted
    inner sum), derived once per L node, chart and order; the list is new."""
    return list(_kept(lam, "euler-lagrange", _euler_lagrange))


def _euler_lagrange(lam: Lagrangian) -> tuple:
    ctx = lam.ctx
    out = []
    for sigma in ctx.fiber_indices:
        pieces = []
        for k in range(lam.r + 1):
            for jj in ctx.multi_indices(k):
                partial = diff(lam.L, FiberVar(sigma, jj))
                if is_zero_expr(partial):
                    continue
                pieces.append((iterated_total_derivative(partial, jj, ctx), (-1) ** k))
        out.append(_summed(pieces))
    return tuple(out)


def euler_lagrange_form(lam: Lagrangian) -> ExteriorForm:
    """The 1-contact (n+1)-form E_sigma(L) omega^sigma ^ omega_0 at order 2r,
    made once per L node, chart and order."""
    return _kept(lam, "euler-lagrange-form", _euler_lagrange_form)


def _euler_lagrange_form(lam: Lagrangian) -> ExteriorForm:
    ctx = lam.ctx
    order = max(2 * lam.r, 1)
    vol = tuple(Dx(i) for i in ctx.base_indices)
    entries = [((Omega(sigma, MultiIndex()),) + vol, e_sigma)
               for sigma, e_sigma in enumerate(euler_lagrange_expressions(lam), start=1)]
    return make_form(ctx, ctx.n + 1, entries, order)


def _momenta(lam: Lagrangian, convention: Convention) -> dict:
    """The momenta p_sigma^{Ji} = sum_{l=0}^{r-1-|J|} (-1)^l d_{p1}..d_{pl}
    dL/dy^sigma_{J p1..pl i}, keyed (sigma, J, i) for every free index tuple J
    with |J| < r, the derivative indices resolved by sym_partial.  The table
    is built once per L node, chart, order and convention and shared by every
    constructor, so it is read, never written."""
    return _kept(lam, "momenta", _momentum_table, convention)


def _momentum_table(lam: Lagrangian, convention: Convention) -> dict:
    ctx = lam.ctx
    base = list(ctx.base_indices)
    table: dict = {}
    for k in range(lam.r):
        for J in itertools.product(base, repeat=k):
            for i in base:
                for sigma in ctx.fiber_indices:
                    pieces = []
                    for l in range(lam.r - k):
                        for ps in itertools.product(base, repeat=l):
                            partial = sym_partial(lam.L, sigma, J + ps + (i,), convention)
                            if is_zero_expr(partial):
                                continue
                            pieces.append((iterated_total_derivative(partial, ps, ctx), (-1) ** l))
                    table[(sigma, J, i)] = _summed(pieces)
    return table


def _theta_entries(lam: Lagrangian, momenta: dict) -> list:
    """L omega_0 and p_sigma^{Ji} omega^sigma_J ^ omega_i, omega_i = (-1)^(i-1) dx^1 ^ .. (no dx^i) .."""
    base = lam.ctx.base_indices
    return [(tuple(Dx(i) for i in base), lam.L)] + [
        ((Omega(sigma, MultiIndex(J)),) + tuple(Dx(k) for k in base if k != i), p if i % 2 else -p)
        for (sigma, J, i), p in momenta.items()
    ]


def principal_lepage(lam: Lagrangian, convention: Convention = DEFAULT_CONVENTION) -> ExteriorForm:
    """The principal Lepage equivalent (generalized Poincare-Cartan form).

    Theta = L omega_0 + p_sigma^{Ji} omega^sigma_J ^ omega_i over the momenta
    of _momenta, at order 2r - 1.
    """
    if lam.r > 3:
        raise UndefinedFormError(f"principal Lepage equivalent implemented for r <= 3, got {lam.r}")
    entries = _theta_entries(lam, _momenta(lam, convention))
    return make_form(lam.ctx, lam.ctx.n, entries, max(2 * lam.r - 1, 0))


def _require_order(lam: Lagrangian, r: int) -> None:
    if lam.r != r:
        raise UndefinedFormError(f"{('first', 'second')[r - 1]}-order constructor got order {lam.r}")


def _nonvanishing_guard(lam: Lagrangian, policy: ZeroPolicy = DEFAULT_POLICY) -> None:
    if equals_zero(lam.L, policy).is_zero:
        raise UndefinedFormError("Lagrange function vanishes; the form is undefined")


def _caratheodory(lam: Lagrangian, convention: Convention, policy: ZeroPolicy) -> ExteriorForm:
    """L^{1-n} wedge_j (L dx^j + p_sigma^{Jj} omega^sigma_J) at order 2r - 1."""
    _nonvanishing_guard(lam, policy)
    ctx = lam.ctx
    order = 2 * lam.r - 1
    momenta = _momenta(lam, convention)
    factors = []
    for j in ctx.base_indices:
        entries = [((Dx(j),), lam.L)] + [
            ((Omega(sigma, MultiIndex(J)),), p) for (sigma, J, i), p in momenta.items() if i == j
        ]
        factors.append(make_form(ctx, 1, entries, order))
    product = wedge_all(factors)
    return product if ctx.n == 1 else product.scaled(Pow(lam.L, 1 - ctx.n))


def caratheodory_first(lam: Lagrangian, policy: ZeroPolicy = DEFAULT_POLICY) -> ExteriorForm:
    """The Caratheodory form L^{1-n} wedge_j (L dx^j + dL/dy^sigma_j omega^sigma)."""
    _require_order(lam, 1)
    return _caratheodory(lam, DEFAULT_CONVENTION, policy)


def caratheodory_second(
    lam: Lagrangian,
    convention: Convention = DEFAULT_CONVENTION,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> ExteriorForm:
    """The second-order Caratheodory form, a wedge product of n corrected 1-forms."""
    _require_order(lam, 2)
    return _caratheodory(lam, convention, policy)


def _second_order_n2(lam: Lagrangian, momenta: dict, a, b, c) -> ExteriorForm:
    """Theta over ``momenta`` plus the n = 2 blocks a(s, n) omega^s ^ omega^n +
    b(s, n, j) omega^s ^ omega^n_j + c(s, n, j, i) omega^s_i ^ omega^n_j, at order 3."""
    ctx = lam.ctx
    empty = MultiIndex()
    entries = _theta_entries(lam, momenta)
    for sigma in ctx.fiber_indices:
        w = Omega(sigma, empty)
        for nu in ctx.fiber_indices:
            entries.append(((w, Omega(nu, empty)), a(sigma, nu)))
            for j in ctx.base_indices:
                w_nu_j = Omega(nu, MultiIndex((j,)))
                entries.append(((w, w_nu_j), b(sigma, nu, j)))
                for i in ctx.base_indices:
                    entries.append(((Omega(sigma, MultiIndex((i,))), w_nu_j), c(sigma, nu, j, i)))
    return make_form(ctx, 2, entries, 3)


def caratheodory_second_blocks(
    lam: Lagrangian,
    convention: Convention = DEFAULT_CONVENTION,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> ExteriorForm:
    """The explicit n=2 decomposition: Theta plus the three 2-contact blocks,
    with A^sigma_j = p_sigma^j and B^sigma_{ij} = p_sigma^{ij}."""
    if lam.ctx.n != 2:
        raise UndefinedFormError("explicit decomposition is for a 2-dimensional base")
    _require_order(lam, 2)
    _nonvanishing_guard(lam, policy)
    inv_l = Pow(lam.L, -1)
    p = _momenta(lam, convention)
    return _second_order_n2(
        lam, p,
        lambda sigma, nu: inv_l * p[(sigma, (), 1)] * p[(nu, (), 2)],
        lambda sigma, nu, j: inv_l * (p[(nu, (j,), 2)] * p[(sigma, (), 1)]
                                      - p[(nu, (j,), 1)] * p[(sigma, (), 2)]),
        lambda sigma, nu, j, i: inv_l * (p[(sigma, (i,), 1)] * p[(nu, (j,), 2)]),
    )


def fundamental_first_order(lam: Lagrangian) -> ExteriorForm:
    """The first-order fundamental (Krupka-Betounes) form.

    Z = L omega_0 + sum_{k=1}^n 1/((n-k)! (k!)^2)
        d^k L / dy^{s1}_{j1} .. dy^{sk}_{jk} eps_{j1..jk i_{k+1}..i_n}
        omega^{s1} ^ .. ^ omega^{sk} ^ dx^{i_{k+1}} ^ .. ^ dx^{i_n}.
    """
    _require_order(lam, 1)
    ctx = lam.ctx
    n = ctx.n
    if n > 4:
        raise UndefinedFormError(f"combinatorial guard: n <= 4, got {n}")
    base = list(ctx.base_indices)
    fibers = list(ctx.fiber_indices)
    vol_key = tuple(Dx(i) for i in base)
    entries: list = [(vol_key, lam.L)]
    empty = MultiIndex()
    # the nonzero partials by (sigmas, js), the js distinct: eps vanishes on
    # a repeated index, so a partial is extended only by a new direction j
    partials = [((), (), lam.L)]
    for k in range(1, n + 1):
        # the (n-k)! orderings of the remaining base indices wedge to one
        # basis term with one sign, so each partial enters once, with the
        # sorted ones and (n-k)! times the scale
        scale = Fraction(1, factorial(k) ** 2)
        deeper = []
        for sigmas, js, partial in partials:
            for sigma in fibers:
                for j in base:
                    if j in js:
                        continue
                    d = diff(partial, FiberVar(sigma, MultiIndex((j,))))
                    if not is_zero_expr(d):
                        deeper.append((sigmas + (sigma,), js + (j,), d))
        # the entries in the order of product(fibers) x product(base)
        partials = sorted(deeper, key=lambda entry: entry[:2])
        for sigmas, js, partial in partials:
            rest = tuple(i for i in base if i not in js)
            key = tuple(Omega(s, empty) for s in sigmas) + tuple(Dx(i) for i in rest)
            entries.append((key, Rat(scale * levi_civita(js + rest)) * partial))
    return make_form(ctx, n, entries, 1)


class FundamentalCoefficients(Record):
    """Contact coefficients of the second-order fundamental form (n = 2).

    P is skew in (sigma, nu); R^{1,2} = -R^{2,1} with R^{1,1} = R^{2,2} = 0.
    """

    P: dict
    Q1: dict
    Q2: dict
    R12: dict

    def Q(self, j: int) -> dict:
        return self.Q1 if j == 1 else self.Q2

    def R(self, i: int, j: int, sigma: int, nu: int) -> ScalarExpr:
        if i == j:
            return Rat(Fraction(0))
        if (i, j) == (1, 2):
            return self.R12[(sigma, nu)]
        return -as_expr(self.R12[(sigma, nu)])


def fundamental_coefficients(
    lam: Lagrangian, convention: Convention = DEFAULT_CONVENTION
) -> FundamentalCoefficients:
    """The P, Q, R coefficient family of the second-order fundamental form.

    With pp the mixed partials, k = 3 - j, eps_1 = 1 and eps_2 = -1:
      P = (1/2)(pp(s,1;n,2) - pp(n,1;s,2)) - eps_j d_j' (pp(s,j;n,12) - pp(n,j;s,12)),
      Q^j = eps_j (2 pp(s,j;n,12) - pp(n,j;s,12) - pp(n,k;s,jj) - 2 d_k' pp(s,12;n,12)),
      R^{12} = -2 pp(s,12;n,12).
    """
    ctx = lam.ctx.at_order(2)
    pp = second_partials(lam.L, convention)
    P: dict = {}
    Q: dict = {1: {}, 2: {}}
    R12: dict = {}
    for sigma in ctx.fiber_indices:
        for nu in ctx.fiber_indices:
            r_core = pp(sigma, (1, 2), nu, (1, 2))
            p_total = Fraction(1, 2) * (pp(sigma, (1,), nu, (2,)) - pp(nu, (1,), sigma, (2,)))
            for j in ctx.base_indices:
                k, eps = 3 - j, (-1) ** (j - 1)
                skew = pp(sigma, (j,), nu, (1, 2)) - pp(nu, (j,), sigma, (1, 2))
                p_total = p_total - eps * cut_derivative(skew, j, ctx)
                Q[j][(sigma, nu)] = canonicalize(eps * (
                    2 * pp(sigma, (j,), nu, (1, 2))
                    - pp(nu, (j,), sigma, (1, 2))
                    - pp(nu, (k,), sigma, (j, j))
                    - 2 * cut_derivative(r_core, k, ctx)
                ))
            P[(sigma, nu)] = canonicalize(p_total)
            R12[(sigma, nu)] = -2 * r_core
    return FundamentalCoefficients(P, Q[1], Q[2], R12)


def fundamental_second_order_n2(
    lam: Lagrangian,
    theta_convention: Convention = DEFAULT_CONVENTION,
    coeff_convention: Convention | None = None,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> tuple[ExteriorForm, FundamentalCoefficients]:
    """The second-order fundamental form over a 2-dimensional base.

    Z = Theta + (1/2) P omega^s ^ omega^n + Q^j omega^s ^ omega^n_j
              + (1/2) R^{i,j} omega^s_i ^ omega^n_j,
    defined only for order-reducible Lagrangians; otherwise raises
    OrderReducibilityError carrying the violated condition and witness.
    """
    from .verification import order_reducible

    if coeff_convention is None:
        coeff_convention = theta_convention
    if lam.ctx.n != 2:
        raise UndefinedFormError("second-order fundamental form is for a 2-dimensional base")
    _require_order(lam, 2)
    report = order_reducible(lam, convention=theta_convention, policy=policy)
    if not report.passed:
        raise OrderReducibilityError(report)
    coeffs = fundamental_coefficients(lam, coeff_convention)
    half = Fraction(1, 2)
    z = _second_order_n2(
        lam, _momenta(lam, theta_convention),
        lambda sigma, nu: half * coeffs.P[(sigma, nu)],
        lambda sigma, nu, j: coeffs.Q(j)[(sigma, nu)],
        lambda sigma, nu, j, i: half * coeffs.R(i, j, sigma, nu),
    )
    return z, coeffs
