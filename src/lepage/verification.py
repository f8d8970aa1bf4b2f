"""Machine checks for the variational characterizations.

Every "if and only if" of the theory is a runnable check here: the Lepage
property of an n-form, which reads p1(d rho) and so differentiates only the
0- and 1-contact terms of rho, variational triviality (by E_sigma and by
the second-order chart conditions), order-reducibility of the principal
equivalent, the triviality conditions restricted to order-reducible
Lagrangians, and closure of a form, on the full d.  The module also houses
the test-Lagrangian generators, the random-section oracle for the formal
derivative, and the calibration oracle that fixes the index convention.

Each check raises its precondition errors at once and is otherwise a lazy
stream of (label, expression, message) conditions, built in a fixed order;
``_judge`` zero-tests them in turn and turns the first nonzero one into the
failing report, so every verdict is decided in that one place.

The second-order checks share one expansion of E_sigma, ``_Expansion``,
which writes each chart coefficient once.  Its symmetrizer sums a
coefficient over the permutations within sorted index groups: the
triviality and combination conditions are such sums, and the expansion
cross-check sums the same coefficients against their coordinates.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .charts import BaseVar, ChartContext, FiberVar, MultiIndex, Record, var_key
from .expr import (
    Add,
    DEFAULT_POLICY,
    EvalDomainError,
    Rat,
    ScalarExpr,
    Var,
    X,
    Y,
    ZERO,
    ZeroPolicy,
    as_expr,
    canonicalize,
    diff,
    equals_zero,
    eval_pole_guarded,
    is_zero_expr,
    max_jet_order,
    substitute,
)
from .forms import (
    ExteriorForm,
    Omega,
    contact_component,
    exterior_derivative,
    horizontalization,
)
from .jets import (
    Convention,
    DEFAULT_CONVENTION,
    cut_derivative,
    mixed_partial,
    second_partials,
    sym_partial,
    total_derivative,
)
from .parsing import LagrangianSpec, parse_expression, parse_lagrangian
from .serialize import coframe_label, expr_to_text
from .variational import (
    Lagrangian,
    OrderReducibilityError,
    euler_lagrange_expressions,
    fundamental_second_order_n2,
    lagrangian_form,
)

class PreconditionError(ValueError):
    """A check was invoked outside its stated precondition."""


class CalibrationError(RuntimeError):
    """No convention combination passes the closure corpus."""


class CheckReport(Record):
    """Outcome of a single check; failures carry a witness."""

    passed: bool
    label: str = ""
    witness: ScalarExpr | None = None
    witness_point: dict | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.passed

    def describe(self, fiber_count: int | None = None) -> str:
        if self.passed:
            return f"PASS {self.label}".strip()
        parts = [f"FAIL {self.label}".strip()]
        if self.witness is not None:
            parts.append(f"witness {expr_to_text(self.witness, fiber_count)}")
        if self.witness_point:
            pt = ", ".join(
                f"{expr_to_text(Var(v))}={value:.6g}"
                for v, value in sorted(self.witness_point.items(), key=lambda kv: var_key(kv[0]))
            )
            parts.append(f"at {pt}")
        if self.message:
            parts.append(self.message)
        return ": ".join(parts)


def _judge(conditions, policy: ZeroPolicy, passed_label: str) -> CheckReport:
    """The one verdict of every check: fail on the first nonzero of the
    (label, expression, message) conditions, else pass as ``passed_label``."""
    for label, expr, message in conditions:
        verdict = equals_zero(expr, policy)
        if not verdict.is_zero:
            return CheckReport(False, label, canonicalize(expr), verdict.witness, message)
    return CheckReport(True, passed_label)


def _form_conditions(terms, label: str, where: str = ""):
    """(basis, coefficient) pairs as conditions; ``where`` prefixes the basis in the message."""
    for key, coeff in terms:
        basis = " ∧ ".join(coframe_label(el) for el in key)
        yield label, coeff, f"{where} {basis}" if where else ""


# ---------------------------------------------------------------------------
# Lepage property
# ---------------------------------------------------------------------------


def _p1_of_d(rho: ExteriorForm) -> ExteriorForm:
    """p1(d rho) = d_V(rho_0) + p1(d_H rho_1): the 2- and more-contact terms never reach it."""
    low = {key: c for key, c in rho.terms.items() if rho.contact_count(key) < 2}
    return contact_component(exterior_derivative(ExteriorForm(rho.ctx, rho.degree, low, rho.order)), 1)


def is_lepage_form(rho: ExteriorForm, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckReport:
    """Pass iff the 1-contact part of d(rho) is generated by the omega^sigma alone."""
    if rho.degree != rho.ctx.n:
        raise PreconditionError(f"expected an n-form (n = {rho.ctx.n}), got degree {rho.degree}")
    higher = ((key, c) for key, c in _p1_of_d(rho) if next(el for el in key if isinstance(el, Omega)).jj)
    conditions = _form_conditions(higher, "lepage-contact", "offending basis term")
    return _judge(conditions, policy, "lepage-contact")


def is_lepage_equivalent(
    rho: ExteriorForm, lam: Lagrangian, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckReport:
    """Pass iff rho is a Lepage form and h(rho) = L omega_0."""
    lepage = is_lepage_form(rho, policy)
    if not lepage.passed:
        return lepage
    mismatch = horizontalization(rho) - lagrangian_form(lam).at_order(rho.order)
    return _judge(_form_conditions(mismatch, "horizontal-mismatch"), policy, "lepage-equivalent")


# ---------------------------------------------------------------------------
# triviality
# ---------------------------------------------------------------------------


def is_trivial(lam: Lagrangian, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckReport:
    """Pass iff every Euler-Lagrange expression vanishes."""
    expressions = enumerate(euler_lagrange_expressions(lam), start=1)
    conditions = ((f"euler-lagrange[{sigma}]", e_sigma, "") for sigma, e_sigma in expressions)
    return _judge(conditions, policy, "euler-lagrange")


class _Expansion:
    """E_sigma of an order-2 Lagrangian in cut derivatives, with free index sums:

        E_sigma = tc1 + c2 y^nu_{pqi} + c3 y^mu_{sti} y^nu_{pqj} + c4 y^nu_{pqij}

    Each coefficient is written once here and takes its partials when read.
    """

    def __init__(self, lam: Lagrangian, convention: Convention, check: str = "second-order"):
        if lam.r != 2:
            raise PreconditionError(f"{check} check got order {lam.r}")
        self.L, self.ctx, self.base, self.convention = lam.L, lam.ctx, lam.ctx.base_indices, convention
        self.pp = second_partials(lam.L, convention)

    def tc1(self, sigma: int) -> ScalarExpr:
        """dL/dy^s - d_i' dL/dy^s_i + d_i' d_j' dL/dy^s_{ij}."""
        L, ctx, conv = self.L, self.ctx, self.convention
        total = sym_partial(L, sigma, (), conv)
        for i in self.base:
            total = total - cut_derivative(sym_partial(L, sigma, (i,), conv), i, ctx)
        for i, j in itertools.product(self.base, repeat=2):
            inner = cut_derivative(sym_partial(L, sigma, (i, j), conv), j, ctx)
            total = total + cut_derivative(inner, i, ctx)
        return canonicalize(total)

    def c2(self, sigma: int, nu: int, p: int, q: int, i: int, cut: bool = True) -> ScalarExpr:
        """The y^nu_{pqi} coefficient; without ``cut``, less its 2 d_j' part."""
        pp = self.pp
        coeff = pp(sigma, (i, q), nu, (p,)) - pp(sigma, (i,), nu, (p, q))
        for j in self.base if cut else ():
            coeff = coeff + 2 * cut_derivative(pp(sigma, (i, j), nu, (p, q)), j, self.ctx)
        return coeff

    def c3(self, mu: int, nu: int, sigma: int, s: int, t: int, j: int, p: int, q: int, i: int) -> ScalarExpr:
        """The y^mu_{sti} y^nu_{pqj} coefficient."""
        return mixed_partial(self.L, [(sigma, (i, j)), (nu, (p, q)), (mu, (s, t))], self.convention)

    def c4(self, sigma: int, nu: int, p: int, q: int, i: int, j: int) -> ScalarExpr:
        """The y^nu_{pqij} coefficient."""
        return self.pp(sigma, (i, j), nu, (p, q))

    def symmetrized(self, term, heads: int, sizes: tuple[int, ...]):
        """For each head of ``heads`` fiber indices and each choice of sorted
        index groups of the given sizes, the canonical sum of
        term(*head, *indices) over all permutations within each group, the
        last group permuting fastest; zero terms are left out of the sum."""
        groups = itertools.product(
            *(itertools.combinations_with_replacement(self.base, k) for k in sizes))
        choices = [[sum(perm, ()) for perm in itertools.product(*map(itertools.permutations, group))]
                   for group in groups]
        for head in itertools.product(self.ctx.fiber_indices, repeat=heads):
            for indices in choices:
                # a repeated index repeats a term: each distinct one is taken once
                value = {index: term(*head, *index) for index in dict.fromkeys(indices)}
                value = {index: v for index, v in value.items() if not is_zero_expr(v)}
                terms = tuple(value[index] for index in indices if index in value)
                yield canonicalize(Add(terms)) if terms else ZERO


def trivial_conditions_second_order(
    lam: Lagrangian,
    convention: Convention = DEFAULT_CONVENTION,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckReport:
    """The four explicit chart conditions equivalent to triviality at order two."""
    return _judge(_triviality_conditions(_Expansion(lam, convention)), policy, "triviality")


def _triviality_conditions(ex: _Expansion):
    for sigma in ex.ctx.fiber_indices:
        yield "triviality[1]", ex.tc1(sigma), ""
    # Sym(pqi) of c2, Sym(stj) Sym(pqi) of c3 and Sym(pqij) of c4
    for label, term, heads, sizes in (("triviality[2]", ex.c2, 2, (3,)),
                                      ("triviality[3]", ex.c3, 3, (3, 3)),
                                      ("triviality[4]", ex.c4, 2, (4,))):
        for condition in ex.symmetrized(term, heads, sizes):
            yield label, condition, ""


# ---------------------------------------------------------------------------
# order-reducibility
# ---------------------------------------------------------------------------


def order_reducible(
    lam: Lagrangian,
    convention: Convention = DEFAULT_CONVENTION,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Pass iff the principal Lepage equivalent stays at the Lagrangian's order."""
    ex = _Expansion(lam, convention, "order-reducibility")
    return _judge(_reducibility_conditions(ex), policy, "order-reducibility")


def _reducibility_conditions(ex: _Expansion):
    pp = ex.pp
    if ex.ctx.n == 2:
        for sigma in ex.ctx.fiber_indices:
            for nu in ex.ctx.fiber_indices:
                # the five partials of a (sigma, nu) pair are all taken before any is judged
                yield from [
                    ("order-reducibility[1]", pp(sigma, (1, 1), nu, (1, 1)), ""),
                    ("order-reducibility[2]", pp(sigma, (1, 2), nu, (1, 1)), ""),
                    ("order-reducibility[3]", pp(sigma, (2, 1), nu, (2, 2)), ""),
                    ("order-reducibility[4]", pp(sigma, (2, 2), nu, (2, 2)), ""),
                    (
                        "order-reducibility[5]",
                        canonicalize(
                            pp(sigma, (2, 2), nu, (1, 1))
                            + 2 * pp(sigma, (1, 2), nu, (1, 2))
                        ),
                        "",
                    ),
                ]
        return
    for sigma in ex.ctx.fiber_indices:
        for nu in ex.ctx.fiber_indices:
            for p, q, i, j in itertools.product(ex.base, repeat=4):
                cyclic = canonicalize(
                    pp(sigma, (i, j), nu, (p, q))
                    + pp(sigma, (q, j), nu, (i, p))
                    + pp(sigma, (p, j), nu, (q, i))
                )
                yield "order-reducibility[cyclic]", cyclic, ""


def combination_conditions(
    lam: Lagrangian,
    convention: Convention = DEFAULT_CONVENTION,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Triviality conditions for order-reducible second-order Lagrangians."""
    ex = _Expansion(lam, convention)
    reducible = order_reducible(lam, convention, policy)
    if not reducible.passed:
        raise PreconditionError(f"Lagrangian is not order-reducible: {reducible.describe()}")
    return _judge(_combination_conditions(ex), policy, "combination")


def _combination_conditions(ex: _Expansion):
    pp = ex.pp
    for sigma in ex.ctx.fiber_indices:
        yield "combination[1]", ex.tc1(sigma), ""
    if ex.ctx.n == 2:
        for sigma in ex.ctx.fiber_indices:
            for nu in ex.ctx.fiber_indices:
                displays = [
                    ("combination[2]", pp(sigma, (1, 1), nu, (1,)) - pp(nu, (1, 1), sigma, (1,))),
                    ("combination[2]", pp(sigma, (2, 2), nu, (2,)) - pp(nu, (2, 2), sigma, (2,))),
                    (
                        "combination[3]",
                        2 * pp(sigma, (1, 2), nu, (1,))
                        - 2 * pp(nu, (1, 2), sigma, (1,))
                        + pp(sigma, (1, 1), nu, (2,))
                        - pp(nu, (1, 1), sigma, (2,)),
                    ),
                    (
                        "combination[4]",
                        2 * pp(sigma, (1, 2), nu, (2,))
                        - 2 * pp(nu, (1, 2), sigma, (2,))
                        + pp(sigma, (2, 2), nu, (1,))
                        - pp(nu, (2, 2), sigma, (1,)),
                    ),
                ]
                for label, expr in displays:
                    yield label, canonicalize(expr), ""
        return
    # Sym(pqi) of c2 less its 2 d_j' part
    def head(sigma, nu, p, q, i):
        return ex.c2(sigma, nu, p, q, i, cut=False)

    for condition in ex.symmetrized(head, 2, (3,)):
        yield "combination[sym]", condition, ""


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def closure_check(rho: ExteriorForm, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckReport:
    """Pass iff d(rho) vanishes; failure reports the first nonzero coefficient."""
    conditions = _form_conditions(exterior_derivative(rho), "closure", "nonzero at basis term")
    return _judge(conditions, policy, "closure")


# ---------------------------------------------------------------------------
# divergence Lagrangians
# ---------------------------------------------------------------------------


class DivergenceGenerator(Record):
    """Functions g^i whose total divergence d_i g^i defines a trivial Lagrangian.

    For second-order components the cyclic condition
    dg^i/dy^s_{jk} + dg^j/dy^s_{ki} + dg^k/dy^s_{ij} = 0 is checked at
    construction.
    """

    ctx: ChartContext
    g: tuple
    s: int
    convention: Convention

    def __init__(self, ctx: ChartContext, g: tuple, s: int,
                 convention: Convention = DEFAULT_CONVENTION) -> None:
        if len(g) != ctx.n:
            raise PreconditionError(f"need {ctx.n} components, got {len(g)}")
        if s > 2:
            raise PreconditionError(f"generator order {s} > 2 is unsupported")
        g = tuple(canonicalize(as_expr(gi)) for gi in g)
        for gi in g:
            if max_jet_order(gi) > s:
                raise PreconditionError(
                    f"component of order {max_jet_order(gi)} exceeds declared order {s}"
                )
        if s == 2:
            chart = ctx.at_order(2)
            for sigma in chart.fiber_indices:
                for i, j, k in itertools.product(chart.base_indices, repeat=3):
                    cyclic = canonicalize(
                        sym_partial(g[i - 1], sigma, (j, k), convention)
                        + sym_partial(g[j - 1], sigma, (k, i), convention)
                        + sym_partial(g[k - 1], sigma, (i, j), convention)
                    )
                    if not equals_zero(cyclic).is_zero:
                        raise PreconditionError(
                            "cyclic condition on dg^i/dy_{jk} fails at "
                            f"(i,j,k)=({i},{j},{k}): {expr_to_text(cyclic)}"
                        )
        self.__dict__.update(ctx=ctx, g=g, s=s, convention=convention)


def make_divergence_lagrangian(gen: DivergenceGenerator) -> Lagrangian:
    """The trivial Lagrangian L = d_i g^i of order s + 1."""
    ctx = gen.ctx.at_order(gen.s)
    total = Add(tuple(total_derivative(gi, i, ctx) for i, gi in enumerate(gen.g, start=1)))
    r = gen.s + 1
    return Lagrangian(gen.ctx.at_order(r), r, canonicalize(total))


# ---------------------------------------------------------------------------
# Euler-Lagrange expansion cross-check
# ---------------------------------------------------------------------------


def el_expansion_crosscheck(
    lam: Lagrangian,
    convention: Convention = DEFAULT_CONVENTION,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Euler-Lagrange expressions versus their cut-derivative expansion."""
    return _judge(_expansion_gaps(_Expansion(lam, convention), lam), policy, "el-expansion")


def _expansion_gaps(ex: _Expansion, lam: Lagrangian):
    fibers, base = ex.ctx.fiber_indices, ex.base
    direct = euler_lagrange_expressions(lam)
    for sigma in fibers:
        expansion = ex.tc1(sigma)
        for nu, p, q, i in itertools.product(fibers, *[base] * 3):
            expansion = expansion + ex.c2(sigma, nu, p, q, i) * Y(nu, p, q, i)
        # c3 is a partial of c4 by (mu, (s, t)), so it vanishes with c4
        for nu, p, q, i, j in itertools.product(fibers, *[base] * 4):
            second = ex.c4(sigma, nu, p, q, i, j)
            if is_zero_expr(second):
                continue
            for mu, s, t in itertools.product(fibers, base, base):
                third = ex.c3(mu, nu, sigma, s, t, j, p, q, i)
                if not is_zero_expr(third):
                    expansion = expansion + third * Y(mu, s, t, i) * Y(nu, p, q, j)
            expansion = expansion + second * Y(nu, p, q, i, j)
        yield f"el-expansion[{sigma}]", canonicalize(direct[sigma - 1] - expansion), ""


# ---------------------------------------------------------------------------
# numeric random-section oracle
# ---------------------------------------------------------------------------


def _random_section_polynomial(ctx: ChartContext, rng: random.Random, degree: int = 4) -> ScalarExpr:
    total = ZERO
    for exponents in itertools.product(range(degree + 1), repeat=ctx.n):
        if sum(exponents) > degree:
            continue
        term = Rat(Fraction(rng.randint(-16, 16), 16))
        for i, e in enumerate(exponents, start=1):
            if e:
                term = term * (X(i) if e == 1 else X(i) ** e)
        total = total + term
    return canonicalize(total)


def prolongation_bindings(
    gamma: list[ScalarExpr], ctx: ChartContext, order: int
) -> dict:
    """Jet coordinates of the prolonged section: y^s_J -> D_J gamma^s."""
    bindings: dict = {}
    for sigma, component in enumerate(gamma, start=1):
        for k in range(order + 1):
            for jj in ctx.multi_indices(k):
                value = component
                for j in jj:
                    value = diff(value, BaseVar(j))
                bindings[FiberVar(sigma, jj)] = value
    return bindings


def _central_difference(f: ScalarExpr, point: dict, x: BaseVar, h: float, guard: float) -> float:
    up = dict(point)
    up[x] += h
    down = dict(point)
    down[x] -= h
    return (eval_pole_guarded(f, up, guard) - eval_pole_guarded(f, down, guard)) / (2 * h)


def random_section_oracle(
    f: ScalarExpr,
    ctx: ChartContext,
    trials: int = 10,
    seed: int = 0,
    points: int = 10,
    step: float = 1e-4,
    tol: float = 1e-5,
    pole_guard: float = 0.3,
) -> CheckReport:
    """Compare d_i f along prolonged polynomial sections with finite differences.

    The reference is the Richardson-extrapolated central difference
    (4 D(h/2) - D(h)) / 3, with D(h) the central difference of step h.

    Sample points where a denominator of the pulled-back function comes
    within the guard of a pole are resampled (at most 10 times per point).
    """
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        gamma = [_random_section_polynomial(ctx, rng) for _ in ctx.fiber_indices]
        bindings = prolongation_bindings(gamma, ctx, ctx.max_order + 1)
        pulled = substitute(f, bindings)
        for i in ctx.base_indices:
            derived = substitute(total_derivative(f, i, ctx), bindings)
            for _ in range(points):
                for _ in range(10):
                    point = {BaseVar(j): rng.uniform(-1.0, 1.0) for j in ctx.base_indices}
                    try:
                        center = eval_pole_guarded(derived, point, pole_guard)
                        wide, narrow = (
                            _central_difference(pulled, point, BaseVar(i), h, pole_guard)
                            for h in (step, step / 2)
                        )
                        # Richardson extrapolation cancels the O(h^2) error term
                        fd = (4 * narrow - wide) / 3
                    except EvalDomainError:
                        continue
                    break
                else:
                    return CheckReport(
                        False,
                        "section-oracle",
                        witness=canonicalize(f),
                        message="sampling failure: poles at every trial point",
                    )
                # tolerance is relative to the local derivative scale
                scale = max(1.0, abs(center), abs(fd))
                gap = abs(fd - center) / scale
                worst = max(worst, gap)
                if gap >= tol:
                    return CheckReport(
                        False,
                        "section-oracle",
                        witness=canonicalize(f),
                        witness_point=point,
                        message=f"finite-difference gap {gap:.3e} at direction {i}",
                    )
    return CheckReport(True, "section-oracle", message=f"max gap {worst:.3e}")


# ---------------------------------------------------------------------------
# corpus of test Lagrangians
# ---------------------------------------------------------------------------


def _lagrangian(n: int, m: int, r: int, source: str) -> Lagrangian:
    return parse_lagrangian(LagrangianSpec(n, m, r, source))


def _divergence(m: int, *g: str) -> Lagrangian:
    """The trivial Lagrangian d_i g^i of first-order generator sources g^i (n = 2)."""
    ctx = ChartContext(2, m, 1)
    gen = DivergenceGenerator(ctx, tuple(parse_expression(gi, ctx) for gi in g), 1)
    return make_divergence_lagrangian(gen)


_NULL_M2 = "y1_1*y2_2 - y1_2*y2_1"


def camassa_holm() -> Lagrangian:
    """L = (1/2)(y1 y2^2 + y12^2 / y1), the quadratic-in-y12 counterexample."""
    return _lagrangian(2, 1, 2, "1/2*(y_1*y_2^2 + y_12^2/y_1)")


def hessian_determinant() -> Lagrangian:
    """L = y11 y22 - y12^2, variationally trivial and nonlinear in second derivatives."""
    return _lagrangian(2, 1, 2, "y_11*y_22 - y_12^2")


def dirichlet(r: int = 1) -> Lagrangian:
    return _lagrangian(2, 1, r, "1/2*(y_1^2 + y_2^2)")


def null_divergence_m2() -> Lagrangian:
    """L = y^1_1 y^2_2 - y^1_2 y^2_1, the m = 2 first-order null Lagrangian."""
    return _lagrangian(2, 2, 1, _NULL_M2)


def random_polynomial(
    rng: random.Random,
    pool: list,
    terms: int = 4,
    degree: int = 2,
) -> ScalarExpr:
    """Random rational-coefficient polynomial in the given coordinates."""
    coeffs = (
        Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(-1, 3),
        Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2),
    )
    total = ZERO
    for _ in range(terms):
        term = Rat(rng.choice(coeffs))
        for _ in range(rng.randint(1, degree)):
            term = term * Var(rng.choice(pool))
        total = total + term
    return canonicalize(total)


def _order1_pool(ctx: ChartContext) -> list:
    pool: list = [BaseVar(i) for i in ctx.base_indices]
    for sigma in ctx.fiber_indices:
        pool.append(FiberVar(sigma, MultiIndex()))
        for j in ctx.base_indices:
            pool.append(FiberVar(sigma, MultiIndex((j,))))
    return pool


def random_divergence_lagrangian(
    ctx: ChartContext, rng: random.Random, terms: int = 3
) -> Lagrangian:
    """A seeded trivial second-order Lagrangian d_i g^i with first-order g^i."""
    pool = _order1_pool(ctx)
    g = tuple(random_polynomial(rng, pool, terms=terms, degree=2) for _ in ctx.base_indices)
    gen = DivergenceGenerator(ctx.at_order(1), g, 1)
    return make_divergence_lagrangian(gen)


def builtin_calibration_corpus() -> list[Lagrangian]:
    """Trivial order-reducible candidates, including the Hessian determinant."""
    return [
        hessian_determinant(),
        # d1( y2^2 / 2 )
        _divergence(1, "1/2*y_2^2", "0"),
        # d1( y1 y2^2 / 2 ): produces y1 y2 y12 cross terms
        _divergence(1, "1/2*y_1*y_2^2", "0"),
        # d2( y1^3 / 3 )
        _divergence(1, "0", "1/3*y_1^3"),
        # x-dependent generator
        _divergence(1, "x2*y_1", "1/2*y^2"),
        # m = 2 generator with cross-fiber coupling
        _divergence(2, "1/2*y2^2 + y1*y2_2", "y1*y2"),
        # seeded random generator
        random_divergence_lagrangian(ChartContext(2, 1, 1), random.Random(7)),
    ]


def first_order_corpus() -> list[Lagrangian]:
    """First-order Lagrangians (n = 2, m in {1, 2}) for the equivalence checks."""
    return [
        dirichlet(),
        _lagrangian(2, 1, 1, "y_1*y_2"),
        _lagrangian(2, 1, 1, "y*y_1"),
        _lagrangian(2, 1, 1, "1/2*y^2"),
        _lagrangian(2, 1, 1, "x1*y_1 + x2*y_2"),
        _lagrangian(2, 1, 1, "y_1^2*y_2"),
        _lagrangian(2, 1, 1, "1 + y_1"),
        null_divergence_m2(),
        _lagrangian(2, 2, 1, "y1_1*y2_2"),
        _lagrangian(2, 2, 1, "y1*y2_1"),
    ]


def second_order_corpus() -> list[Lagrangian]:
    """Second-order Lagrangians (n = 2), mixed trivial and nontrivial, with the
    quadratic-in-y12 counterexample included."""
    product, dirichlet2, x_dependent, y_y12 = nontrivial_order_reducible_corpus()
    return [
        camassa_holm(),
        hessian_determinant(),
        _lagrangian(2, 1, 2, "y_2*y_12"),
        _lagrangian(2, 1, 2, "1/2*y_11^2"),
        product,
        dirichlet2,
        _divergence(1, "1/2*y_1*y_2^2", "0"),
        x_dependent,
        y_y12,
        _lagrangian(2, 2, 2, _NULL_M2),
        _divergence(2, "1/2*y2^2", "y1*y2"),
        _lagrangian(2, 1, 2, "1"),
    ]


def trivial_order_reducible_corpus(count: int = 6, seed: int = 0) -> list[Lagrangian]:
    """Divergence-generated trivial second-order Lagrangians plus the Hessian determinant."""
    members = [hessian_determinant(), _divergence(1, "1/2*y_2^2", "0")]
    rng = random.Random(seed)
    while len(members) < count:
        members.append(random_divergence_lagrangian(ChartContext(2, 1, 1), rng))
    return members


def nontrivial_order_reducible_corpus() -> list[Lagrangian]:
    """Nontrivial second-order Lagrangians whose principal equivalent keeps order two."""
    return [
        _lagrangian(2, 1, 2, "y_1*y_2"),
        dirichlet(r=2),
        _lagrangian(2, 1, 2, "x1*y_11 + y_2^2"),
        _lagrangian(2, 1, 2, "y*y_12"),
    ]


# ---------------------------------------------------------------------------
# convention calibration
# ---------------------------------------------------------------------------


class CalibrationOutcome(Record):
    theta_convention: Convention
    coeff_convention: Convention
    passed: bool
    failures: tuple = ()


class CalibrationReport(Record):
    outcomes: tuple
    passing: tuple
    unique: bool
    winner: tuple | None
    ch_witness: str | None

    def render(self) -> str:
        lines = ["convention calibration (closure of the second-order fundamental form)"]
        for out in self.outcomes:
            status = "PASS" if out.passed else "FAIL"
            lines.append(
                f"  theta={out.theta_convention.value:5s} coeff={out.coeff_convention.value:5s}: {status}"
            )
            for index, reason in out.failures:
                lines.append(f"    corpus[{index}]: {reason}")
        if self.winner is not None:
            lines.append(
                f"unique passing combination: theta={self.winner[0].value}, coeff={self.winner[1].value}"
            )
        else:
            combos = ", ".join(f"({a.value},{b.value})" for a, b in self.passing)
            lines.append(f"ambiguous calibration; passing combinations: [{combos}]")
        if self.ch_witness is not None:
            lines.append(
                "camassa-holm order-reducibility witness (condition 5, shipped convention): "
                + self.ch_witness
            )
        return "\n".join(lines)


def calibrate_convention(
    corpus: list[Lagrangian] | None = None,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CalibrationReport:
    """Determine the derivative-index convention from the closure corpus.

    Runs the second-order fundamental-form construction plus closure check
    under each (theta, coefficient) convention combination and reports which
    pass on the whole trivial corpus.
    """
    if corpus is None:
        corpus = builtin_calibration_corpus()
    if not corpus:
        raise PreconditionError("empty calibration corpus")
    for index, lam in enumerate(corpus):
        verdict = is_trivial(lam, policy)
        if not verdict.passed:
            raise PreconditionError(f"corpus[{index}] is not variationally trivial")
    outcomes = []
    passing = []
    for theta_conv in (Convention.PLAIN, Convention.SYMMETRIZED):
        for coeff_conv in (Convention.PLAIN, Convention.SYMMETRIZED):
            failures = []
            for index, lam in enumerate(corpus):
                try:
                    z, _ = fundamental_second_order_n2(lam, theta_conv, coeff_conv, policy)
                except OrderReducibilityError as err:
                    failures.append((index, f"refused: {err.report.describe()}"))
                    continue
                closed = closure_check(z, policy)
                if not closed.passed:
                    failures.append((index, closed.describe()))
            outcome = CalibrationOutcome(theta_conv, coeff_conv, not failures, tuple(failures))
            outcomes.append(outcome)
            if outcome.passed:
                passing.append((theta_conv, coeff_conv))
    if not passing:
        raise CalibrationError(
            "no convention combination passes the closure corpus:\n"
            + CalibrationReport(tuple(outcomes), (), False, None, None).render()
        )
    winner = passing[0] if len(passing) == 1 else None
    ch_witness = None
    if winner is not None:
        ch_report = order_reducible(camassa_holm(), convention=winner[0], policy=policy)
        if not ch_report.passed and ch_report.witness is not None:
            ch_witness = expr_to_text(ch_report.witness)
    return CalibrationReport(tuple(outcomes), tuple(passing), winner is not None, winner, ch_witness)
