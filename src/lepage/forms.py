"""Exterior polynomials in the contact-adapted coframe {dx^i, omega^sigma_J}.

Forms are stored exclusively in the adapted basis: the raw differentials
dy^sigma_J are eliminated at construction through
dy^sigma_J = omega^sigma_J + y^sigma_{Ji} dx^i.  Horizontalization and the
k-contact projections are then plain term filters, and the exterior
derivative splits each coefficient differential into its horizontal part
(formal derivatives) and contact part (coordinate partials) plus the
structural rule d(omega^sigma_J) = dx^i wedge omega^sigma_{J+i}, one term
at a time (``_d_term``).  A structural term of a key with omega^sigma_J at
position pos enters make_form as dx^i, then the key with omega^sigma_{J+i}
in that place, and its coefficient unchanged: the permutation sign of the
sort is the (-1)^pos of the rule, so no negated coefficient is built.

One cached step, ``_normal_key``, checks a wedge tuple against a chart and
an order and sorts it with its sign, once per distinct (tuple, n, m, order);
make_form, ExteriorForm.coefficient and the JSON reader of lepage.serialize
all go through it, behind the uncached class and int gate ``_coframe_tuple``.
make_form sums the kernel quotients of each key's pieces in one step
(``expr._summed``).  A form's terms are made (a form built directly is taken
as made), so the operations that change only coefficients keep its keys.
Zero tests, negation and jet order are lepage.expr's.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, NamedTuple, Sequence, Union

from .charts import ChartContext, ChartError, FiberVar, MultiIndex, Record, var_key
from .expr import (
    ZERO,
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
    _summed,
)
from .jets import total_derivative


class FormError(ValueError):
    """Malformed exterior form or incompatible operands."""


class Dx(NamedTuple):
    """The base coframe element dx^i."""

    i: int


class Omega(NamedTuple):
    """The contact coframe element omega^sigma_J."""

    sigma: int
    jj: MultiIndex


CoframeElement = Union[Dx, Omega]


def levi_civita(indices: Sequence) -> int:
    """Sign of the permutation; 0 on repeated entries."""
    if len(set(indices)) < len(indices):
        return 0
    return -1 if sum(a > b for a, b in itertools.combinations(indices, 2)) % 2 else 1


class ExteriorForm(Record):
    """Exterior polynomial with ScalarExpr coefficients at a declared jet order."""

    ctx: ChartContext
    degree: int
    terms: dict
    order: int

    def __init__(self, ctx: ChartContext, degree: int, terms: dict, order: int) -> None:
        self.__dict__.update(ctx=ctx, degree=degree, terms=terms, order=order)

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=lambda kv: tuple(map(var_key, kv[0]))))

    def coefficient(self, elements: Sequence[CoframeElement]) -> ScalarExpr:
        normal = _normal_key(_coframe_tuple(elements), self.ctx.n, self.ctx.m, self.order)
        coeff = None if normal is None else self.terms.get(normal[0])
        if coeff is None:
            return ZERO
        return coeff if normal[1] == 1 else -coeff

    def contact_count(self, key: tuple) -> int:
        return sum(1 for el in key if isinstance(el, Omega))

    def is_structurally_zero(self) -> bool:
        return not self.terms

    def max_coeff_order(self) -> int:
        return max((max_jet_order(c) for c in self.terms.values()), default=0)

    def at_order(self, order: int) -> "ExteriorForm":
        """Lift the declared order (a no-op on the stored data)."""
        if order < self.order:
            raise FormError(f"cannot lower declared order {self.order} to {order}")
        if order == self.order:
            return self
        return ExteriorForm(self.ctx.at_order(order), self.degree, dict(self.terms), order)

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self._plus(other, other.terms.items())

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self._plus(other, [(key, -coeff) for key, coeff in other.terms.items()])

    def _plus(self, other: "ExteriorForm", entries) -> "ExteriorForm":
        _check_compatible(self, other)
        if self.degree != other.degree:
            raise FormError(f"cannot add forms of degree {self.degree} and {other.degree}")
        return make_form(self.ctx, self.degree, [*self.terms.items(), *entries], max(self.order, other.order))

    def __neg__(self) -> "ExteriorForm":
        return self.scaled(-1)

    def scaled(self, factor) -> "ExteriorForm":
        f = canonicalize(as_expr(factor))
        order = max(self.order, max_jet_order(f))
        terms = {key: f * coeff for key, coeff in self.terms.items()}
        terms = {key: c for key, c in terms.items() if not is_zero_expr(c)}
        return ExteriorForm(self.ctx.at_order(order), self.degree, terms, order)


def _check_compatible(a: ExteriorForm, b: ExteriorForm) -> None:
    if a.ctx.n != b.ctx.n or a.ctx.m != b.ctx.m:
        raise ChartError(f"chart mismatch: {a.ctx} vs {b.ctx}")


def make_form(
    ctx: ChartContext,
    degree: int,
    entries: Iterable[tuple[Sequence[CoframeElement], object]],
    order: int,
) -> ExteriorForm:
    """Build a form from (wedge tuple, coefficient) entries, normalizing signs."""
    if degree < 0:
        raise FormError(f"negative degree {degree}")
    n, m = ctx.n, ctx.m
    acc: dict[tuple, list] = {}
    for elements, coeff in entries:
        if len(elements) != degree:
            raise FormError(f"wedge tuple {elements!r} does not match degree {degree}")
        if coeff.__class__ is Rat and not coeff.value:
            continue
        normal = _normal_key(_coframe_tuple(elements), n, m, order)
        if normal is None:
            continue
        key, sign = normal
        acc.setdefault(key, []).append((as_expr(coeff), sign))
    terms: dict = {}
    for key, pieces in acc.items():
        total = _summed(pieces)
        if is_zero_expr(total):
            continue
        bad = max_jet_order(total)
        if bad > order:
            raise FormError(f"coefficient of jet order {bad} exceeds declared order {order}")
        terms[key] = total
    return ExteriorForm(ctx.at_order(order), degree, terms, order)


def _coframe_tuple(elements: Sequence) -> tuple:
    # checked before the cache, whose keys compare by value: a BaseVar or
    # FiberVar equals the Dx or Omega of its indices, and True == 1
    for el in elements:
        cls = el.__class__
        if not (cls is Dx or cls is Omega and el.jj.__class__ is MultiIndex):
            raise FormError(f"{el!r} is not a coframe element")
        if el[0].__class__ is not int:
            raise ChartError(f"coframe indices must be ints, got {el!r}")
    return tuple(elements)


# A pass makes a few hundred distinct wedge tuples (under 600 for a dense
# (3,1,2) Lambda_2 with its Lepage check and d), so each is checked and sorted
# once per chart and order; lru_cache keeps no exception, so a bad tuple
# raises on every call.
@functools.lru_cache(maxsize=4096)
def _normal_key(elements: tuple, n: int, m: int, order: int) -> tuple[tuple, int] | None:
    """The wedge tuple of coframe elements sorted by var_key and the sign of
    the sort, or None on a repeated element; an element out of range for the
    chart is a ChartError, a contact label above order - 1 a FormError."""
    for el in elements:
        if el.__class__ is Dx:
            if not 1 <= el.i <= n:
                raise ChartError(f"dx index {el.i} out of range 1..{n}")
        else:
            if not 1 <= el.sigma <= m:
                raise ChartError(f"omega fiber index {el.sigma} out of range 1..{m}")
            if any(not 1 <= j <= n for j in el.jj):
                raise ChartError(f"omega index {el.jj} out of range 1..{n}")
            if len(el.jj) > order - 1:
                raise FormError(
                    f"contact label omega^{el.sigma}_{tuple(el.jj)} needs order {len(el.jj) + 1}, "
                    f"declared {order}"
                )
    sign = levi_civita([var_key(el) for el in elements])
    return (tuple(sorted(elements, key=var_key)), sign) if sign else None


def zero_form(ctx: ChartContext, degree: int, order: int = 0) -> ExteriorForm:
    return make_form(ctx, degree, [], order)


def dx(ctx: ChartContext, i: int) -> ExteriorForm:
    return make_form(ctx, 1, [((Dx(i),), 1)], 0)


def omega(ctx: ChartContext, sigma: int, jj: Sequence[int] = ()) -> ExteriorForm:
    label = Omega(sigma, MultiIndex(jj))
    return make_form(ctx, 1, [((label,), 1)], len(jj) + 1)


def omega_basis(ctx: ChartContext) -> tuple[ExteriorForm, list[ExteriorForm]]:
    """The volume element omega_0 = dx^1 ^ ... ^ dx^n and omega_j = i_{d/dx^j} omega_0."""
    full = tuple(Dx(i) for i in ctx.base_indices)
    omega0 = make_form(ctx, ctx.n, [(full, 1)], 0)
    omegas = []
    for j in ctx.base_indices:
        rest = tuple(Dx(i) for i in ctx.base_indices if i != j)
        sign = (-1) ** (j - 1)
        omegas.append(make_form(ctx, ctx.n - 1, [(rest, sign)], 0))
    return omega0, omegas


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    _check_compatible(a, b)
    degree = a.degree + b.degree
    order = max(a.order, b.order)
    entries = []
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            entries.append((ka + kb, ca * cb))
    return make_form(a.ctx, degree, entries, order)


def wedge_all(factors: Sequence[ExteriorForm]) -> ExteriorForm:
    if not factors:
        raise FormError("empty wedge product")
    out = factors[0]
    for f in factors[1:]:
        out = wedge(out, f)
    return out


def exterior_derivative(a: ExteriorForm) -> ExteriorForm:
    """d in the adapted basis; degree + 1, order + 1, satisfies d(d(.)) = 0."""
    ctx = a.ctx.at_order(a.order)
    entries: list[tuple[tuple, ScalarExpr]] = []
    for key, coeff in a.terms.items():
        entries += _d_term(key, coeff, ctx)
    return make_form(a.ctx, a.degree + 1, entries, a.order + 1)


def _d_term(key: tuple, coeff: ScalarExpr, ctx: ChartContext, vertical: bool = True,
            euler_lagrange: bool = True) -> list:
    """The entries of d(coeff key) over the chart ctx: d_H(coeff) ^ key, then
    d_V(coeff) ^ key unless not vertical, then the structural terms, which
    take each omega^sigma_J of key to dx^i ^ omega^sigma_{J+i}.

    exterior_derivative builds every entry.  Without euler_lagrange, the
    d_H and d_V entries holding an omega^sigma with J empty are left out:
    in p1(d rho) they make the omega^sigma (Euler-Lagrange) part, which the
    Lepage checks do not judge.  The structural terms all stay, since each
    raises J to J + i."""
    entries = []
    free = [i for i in ctx.base_indices if Dx(i) not in key]  # dx^i ^ key = 0 for the rest
    horizontal = euler_lagrange or all(el.__class__ is Dx or el.jj for el in key)
    for i in free if horizontal else ():
        di = total_derivative(coeff, i, ctx)
        if not is_zero_expr(di):
            entries.append(((Dx(i),) + key, di))
    for v in sorted(variables(coeff), key=var_key) if vertical else ():
        if isinstance(v, FiberVar) and (euler_lagrange or v.jj):
            dv = diff(coeff, v)
            if not is_zero_expr(dv):
                entries.append(((Omega(v.sigma, v.jj),) + key, dv))
    for pos, el in enumerate(key):
        if isinstance(el, Omega):
            for i in free:
                # dx^i written first: make_form's sort gives the sign (-1)^pos
                raised = Omega(el.sigma, el.jj.append(i))
                entries.append(((Dx(i),) + key[:pos] + (raised,) + key[pos + 1:], coeff))
    return entries


def horizontalization(a: ExteriorForm) -> ExteriorForm:
    """Projection onto the dx-only monomials."""
    return contact_component(a, 0)


def contact_component(a: ExteriorForm, k: int) -> ExteriorForm:
    """Terms with exactly k contact factors, kept as made; the zero form when k > degree."""
    if k < 0:
        raise FormError(f"negative contact count {k}")
    terms = {key: c for key, c in a.terms.items() if a.contact_count(key) == k}
    return ExteriorForm(a.ctx, a.degree, terms, a.order)


def form_is_zero(a: ExteriorForm, policy: ZeroPolicy | None = None) -> bool:
    """True when every coefficient is zero (symbolically, or numerically if a policy is given)."""
    if policy is None:
        return all(is_zero_expr(c) for c in a.terms.values())
    return all(equals_zero(c, policy).is_zero for c in a.terms.values())


def forms_equal(a: ExteriorForm, b: ExteriorForm, policy: ZeroPolicy | None = None) -> bool:
    if a.degree != b.degree:
        return False
    return form_is_zero(a - b, policy)
