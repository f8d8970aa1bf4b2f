"""Exterior polynomials in the contact-adapted coframe {dx^i, omega^sigma_J}.

Forms are stored exclusively in the adapted basis: the raw differentials
dy^sigma_J are eliminated at construction through
dy^sigma_J = omega^sigma_J + y^sigma_{Ji} dx^i.  Horizontalization and the
k-contact projections are then plain term filters, and the exterior
derivative splits each coefficient differential into its horizontal part
(formal derivatives) and contact part (coordinate partials) plus the
structural rule d(omega^sigma_J) = dx^i wedge omega^sigma_{J+i}.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .charts import ChartContext, ChartError, FiberVar, MultiIndex, Record, jet_order, var_key
from .expr import (
    Add,
    Mul,
    Rat,
    ScalarExpr,
    Var,
    ZeroPolicy,
    as_expr,
    canonicalize,
    diff,
    equals_zero,
    is_zero_expr,
    max_jet_order,
    variables,
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


def _normal_tuple(elements: Sequence, key=var_key) -> tuple[tuple, int] | None:
    """Sort a wedge tuple, tracking the permutation sign; None on repeats."""
    items = list(elements)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and key(items[j]) < key(items[j - 1]):
            items[j], items[j - 1] = items[j - 1], items[j]
            sign = -sign
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b:
            return None
    return tuple(items), sign


def levi_civita(indices: Sequence[int]) -> int:
    """Sign of the permutation; 0 on repeated entries."""
    normal = _normal_tuple(indices, key=lambda i: i)
    return 0 if normal is None else normal[1]


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
        normal = _normal_tuple(elements)
        if normal is None:
            return Rat(Fraction(0))
        key, sign = normal
        coeff = self.terms.get(key)
        if coeff is None:
            return Rat(Fraction(0))
        return canonicalize(Rat(Fraction(sign)) * coeff)

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
        return make_form(self.ctx, self.degree, list(self.terms.items()), order)

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        _check_compatible(self, other)
        if self.degree != other.degree:
            raise FormError(f"cannot add forms of degree {self.degree} and {other.degree}")
        order = max(self.order, other.order)
        entries = list(self.terms.items()) + list(other.terms.items())
        return make_form(self.ctx, self.degree, entries, order)

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + other.scaled(-1)

    def __neg__(self) -> "ExteriorForm":
        return self.scaled(-1)

    def scaled(self, factor) -> "ExteriorForm":
        f = as_expr(factor)
        order = max(self.order, max_jet_order(f))
        entries = [(key, f * coeff) for key, coeff in self.terms.items()]
        return make_form(self.ctx, self.degree, entries, order)


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
    acc: dict[tuple, list] = {}
    for elements, coeff in entries:
        if len(elements) != degree:
            raise FormError(f"wedge tuple {elements!r} does not match degree {degree}")
        if _structurally_zero(coeff):
            continue
        normal = _normal_tuple(elements)
        if normal is None:
            continue
        key, sign = normal
        piece = as_expr(coeff) if sign == 1 else Rat(Fraction(sign)) * as_expr(coeff)
        acc.setdefault(key, []).append(piece)
    terms: dict = {}
    for key, pieces in acc.items():
        total = canonicalize(pieces[0] if len(pieces) == 1 else Add(tuple(pieces)))
        if is_zero_expr(total):
            continue
        _validate_term(ctx, key, total, order)
        terms[key] = total
    return ExteriorForm(ctx.at_order(order), degree, terms, order)


def _structurally_zero(coeff) -> bool:
    """The zero test that needs no canonicalization: a Rat 0, or a raw product
    with a Rat 0 factor whose other factors are rationals or canonical nodes,
    so that the product is defined.  Anything else is left to canonicalize."""
    cls = coeff.__class__
    if cls is Rat:
        return not coeff.value
    if cls is not Mul or "_canonical" in coeff.__dict__:
        return False
    zero = False
    for f in coeff.factors:
        if f.__class__ is Rat:
            zero = zero or not f.value
        elif "_canonical" not in f.__dict__:
            return False
    return zero


def _validate_term(ctx: ChartContext, key: tuple, coeff: ScalarExpr, order: int) -> None:
    for el in key:
        if isinstance(el, Dx):
            if not 1 <= el.i <= ctx.n:
                raise ChartError(f"dx index {el.i} out of range 1..{ctx.n}")
        else:
            if not 1 <= el.sigma <= ctx.m:
                raise ChartError(f"omega fiber index {el.sigma} out of range 1..{ctx.m}")
            if any(not 1 <= j <= ctx.n for j in el.jj):
                raise ChartError(f"omega index {el.jj} out of range 1..{ctx.n}")
            if len(el.jj) > order - 1:
                raise FormError(
                    f"contact label omega^{el.sigma}_{tuple(el.jj)} needs order {len(el.jj) + 1}, "
                    f"declared {order}"
                )
    bad = max((jet_order(v) for v in variables(coeff)), default=0)
    if bad > order:
        raise FormError(f"coefficient of jet order {bad} exceeds declared order {order}")


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
    order = a.order + 1
    entries: list[tuple[tuple, ScalarExpr]] = []
    for key, coeff in a.terms.items():
        for i in ctx.base_indices:
            di = total_derivative(coeff, i, ctx)
            if not is_zero_expr(di):
                entries.append(((Dx(i),) + key, di))
        for v in sorted(variables(coeff), key=var_key):
            if isinstance(v, FiberVar):
                dv = diff(coeff, v)
                if not is_zero_expr(dv):
                    entries.append(((Omega(v.sigma, v.jj),) + key, dv))
        for pos, el in enumerate(key):
            if isinstance(el, Omega):
                sign = (-1) ** pos
                for i in ctx.base_indices:
                    new_key = key[:pos] + (Dx(i), Omega(el.sigma, el.jj.append(i))) + key[pos + 1:]
                    entries.append((new_key, Rat(Fraction(sign)) * coeff))
    return make_form(a.ctx, a.degree + 1, entries, order)


def horizontalization(a: ExteriorForm) -> ExteriorForm:
    """Projection onto the dx-only monomials."""
    entries = [(k, c) for k, c in a.terms.items() if a.contact_count(k) == 0]
    return make_form(a.ctx, a.degree, entries, a.order)


def contact_component(a: ExteriorForm, k: int) -> ExteriorForm:
    """Terms with exactly k contact factors; the zero form when k > degree."""
    if k < 0:
        raise FormError(f"negative contact count {k}")
    if k > a.degree:
        return zero_form(a.ctx, a.degree, a.order)
    entries = [(key, c) for key, c in a.terms.items() if a.contact_count(key) == k]
    return make_form(a.ctx, a.degree, entries, a.order)


def form_is_zero(a: ExteriorForm, policy: ZeroPolicy | None = None) -> bool:
    """True when every coefficient is zero (symbolically, or numerically if a policy is given)."""
    if a.is_structurally_zero():
        return True
    if policy is None:
        return all(is_zero_expr(c) for c in a.terms.values())
    return all(equals_zero(c, policy).is_zero for c in a.terms.values())


def forms_equal(a: ExteriorForm, b: ExteriorForm, policy: ZeroPolicy | None = None) -> bool:
    if a.degree != b.degree:
        return False
    return form_is_zero(a - b, policy)
