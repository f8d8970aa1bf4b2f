"""Machine checks for the variational characterizations.

Every "if and only if" of the theory is a runnable check here: the Lepage
property of an n-form, variational triviality (by E_sigma and by the
second-order chart conditions), order-reducibility of the principal
equivalent, the triviality conditions restricted to order-reducible
Lagrangians, and closure of a form, on the full d.  The Lepage property
reads p1(d rho) = d_V(rho_0) + p1(d_H rho_1), with rho_k the k-contact part
of rho: d_H of the n-form rho_0 and d_V of rho_1 have no 1-contact term, so
only those two pieces are built, with the per-term d of ``lepage.forms``,
and no 2-contact term is formed.  The Lepage property judges only the terms
of p1 along the omega^sigma_J with |J| >= 1, so ``is_lepage_form`` and
``is_lepage_equivalent`` build those alone: no d_H of a term on omega^sigma
and no partial by y^sigma are taken.  The contract check ``_contract``
builds the full p1, whose omega^sigma part it compares with E_lambda.  The
module also houses the test-Lagrangian generators and the calibration oracle
that fixes the index convention.

Each check raises its precondition errors at once and is otherwise a lazy
stream of (label, expression, message) conditions, built in a fixed order;
``_judge`` zero-tests them in turn and turns the first nonzero one into the
failing report, so every verdict is decided in that one place.  A condition
may be a raw sum, since the zero test reads only its quotient; ``_judge``
canonicalizes the failing one alone, as the witness that the report prints.

The second-order checks read one expansion of E_sigma, ``_Expansion``,
which writes each chart coefficient once.  It is a view of a Lagrangian and
a convention, made per call once the check has refused an order other than
2; its tc1 and c2, block verdicts and order-reducibility reports are kept in
one dict that L's memo holds per chart and convention
(``variational._kept``), so the checks of one L node read the same values.
Its symmetrizer sums a coefficient over the permutations within sorted
index groups: the triviality and combination conditions are such sums, and
the expansion cross-check sums the same coefficients against their
coordinates.  c3 and c4 are partials of the (sigma, nu) block of second
partials by second-order coordinates, so where that block is zero
(``_Expansion.blocked``) the triviality[3] and [4] conditions of the pair
are yielded as zero with no term taken; the condition stream and every
verdict and witness are unchanged.  The checks and the n = 2 fundamental
form of one L node judge order-reducibility once per convention and policy.
"""
from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from .charts import BaseVar, ChartContext, FiberVar, MultiIndex, Record, var_key
from .expr import (
    Add,
    DEFAULT_POLICY,
    Rat,
    ScalarExpr,
    Var,
    Y,
    ZERO,
    ZeroPolicy,
    as_expr,
    canonicalize,
    equals_zero,
    is_zero_expr,
    max_jet_order,
)
from .forms import (
    ExteriorForm,
    Omega,
    _d_term,
    exterior_derivative,
    horizontalization,
    make_form,
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
from .serialize import basis_label, expr_to_text, variable_name
from .variational import (
    Lagrangian,
    OrderReducibilityError,
    _kept,
    euler_lagrange_expressions,
    euler_lagrange_form,
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
                f"{variable_name(v)}={value:.6g}"
                for v, value in sorted(self.witness_point.items(), key=lambda kv: var_key(kv[0]))
            )
            parts.append(f"at {pt}")
        if self.message:
            parts.append(self.message)
        return ": ".join(parts)


def _judge(conditions, policy: ZeroPolicy, passed_label: str) -> CheckReport:
    """The one verdict of every check: fail on the first nonzero of the
    (label, expression, message) conditions, else pass as ``passed_label``.
    A condition is zero-tested as it is given, raw or canonical; only the
    failing one is canonicalized, as the report's witness."""
    for label, expr, message in conditions:
        verdict = equals_zero(expr, policy)
        if not verdict.is_zero:
            return CheckReport(False, label, canonicalize(expr), verdict.witness, message)
    return CheckReport(True, passed_label)


def _form_conditions(terms, label: str, where: str = ""):
    """(basis, coefficient) pairs as conditions; ``where`` prefixes the basis in the message."""
    for key, coeff in terms:
        yield label, coeff, f"{where} {basis_label(key)}" if where else ""


# ---------------------------------------------------------------------------
# Lepage property
# ---------------------------------------------------------------------------


def _p1_of_d(rho: ExteriorForm, euler_lagrange: bool = True) -> ExteriorForm:
    """p1(d rho) of an n-form rho, built as d_V(rho_0) + p1(d_H rho_1) term by
    term (``forms._d_term``): d_H of the n-form rho_0 and d_V of rho_1 have no
    1-contact term, and the 2- and more-contact terms never reach it.  Without
    euler_lagrange only its terms off the omega^sigma are built, which are
    all that the Lepage checks judge; ``_contract`` builds the full p1."""
    if rho.degree != rho.ctx.n:
        raise PreconditionError(f"expected an n-form (n = {rho.ctx.n}), got degree {rho.degree}")
    ctx = rho.ctx.at_order(rho.order)
    entries = []
    for key, c in rho.terms.items():
        contacts = rho.contact_count(key)
        if contacts < 2:
            entries += _d_term(key, c, ctx, vertical=not contacts, euler_lagrange=euler_lagrange)
    return make_form(rho.ctx, rho.degree + 1, entries, rho.order + 1)


def _lepage_conditions(p1: ExteriorForm):
    """The terms of p1 = p1(d rho) off the omega^sigma, which a Lepage form lacks."""
    higher = ((key, c) for key, c in p1 if next(el for el in key if isinstance(el, Omega)).jj)
    return _form_conditions(higher, "lepage-contact", "offending basis term")


def _equivalence_conditions(rho: ExteriorForm, lam: Lagrangian, p1: ExteriorForm):
    """The Lepage conditions of p1 = p1(d rho), then the terms of h(rho) - L omega_0."""
    yield from _lepage_conditions(p1)
    mismatch = horizontalization(rho) - lagrangian_form(lam).at_order(rho.order)
    yield from _form_conditions(mismatch, "horizontal-mismatch")


def is_lepage_form(rho: ExteriorForm, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckReport:
    """Pass iff the 1-contact part of d(rho) is generated by the omega^sigma alone."""
    return _judge(_lepage_conditions(_p1_of_d(rho, euler_lagrange=False)), policy, "lepage-contact")


def is_lepage_equivalent(
    rho: ExteriorForm, lam: Lagrangian, policy: ZeroPolicy = DEFAULT_POLICY
) -> CheckReport:
    """Pass iff rho is a Lepage form and h(rho) = L omega_0."""
    p1 = _p1_of_d(rho, euler_lagrange=False)
    return _judge(_equivalence_conditions(rho, lam, p1), policy, "lepage-equivalent")


def _contract(rho: ExteriorForm, lam: Lagrangian, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckReport:
    """The contract of a Lepage equivalent as one verdict: the conditions of
    ``is_lepage_equivalent``, then the terms of p1(d rho) - E_lambda."""
    p1 = _p1_of_d(rho)
    gap = _form_conditions(p1 - euler_lagrange_form(lam), "p1-euler-lagrange")
    return _judge(itertools.chain(_equivalence_conditions(rho, lam, p1), gap), policy, "lepage-contract")


# ---------------------------------------------------------------------------
# triviality
# ---------------------------------------------------------------------------


def is_trivial(lam: Lagrangian, policy: ZeroPolicy = DEFAULT_POLICY) -> CheckReport:
    """Pass iff every Euler-Lagrange expression vanishes."""
    expressions = enumerate(euler_lagrange_expressions(lam), start=1)
    conditions = ((f"euler-lagrange[{sigma}]", e_sigma, "") for sigma, e_sigma in expressions)
    return _judge(conditions, policy, "euler-lagrange")


def _expansion(lam: Lagrangian, convention: Convention, check: str = "second-order") -> "_Expansion":
    """The expansion of lam under ``convention``; at another order ``check`` refuses."""
    if lam.r != 2:
        raise PreconditionError(f"{check} check got order {lam.r}")
    return _Expansion(lam, convention)


def _stored(method):
    """An ``_Expansion`` method whose value is kept, under its name and its
    arguments, in the expansion's dict in the memo of L's node."""
    name = method.__name__

    @functools.wraps(method)
    def read(ex, *args):
        key = (name, *args)
        out = ex.kept.get(key)  # no kept value is None
        if out is None:
            out = ex.kept[key] = method(ex, *args)
        return out
    return read


class _Expansion:
    """E_sigma of an order-2 Lagrangian in cut derivatives, with free index sums:

        E_sigma = tc1 + c2 y^nu_{pqi} + c3 y^mu_{sti} y^nu_{pqj} + c4 y^nu_{pqij}

    Each coefficient is written once here and takes its partials when read;
    the ``_stored`` methods keep their values in one dict per chart and
    convention in L's memo, and none of those values refers back to L.
    """

    def __init__(self, lam: Lagrangian, convention: Convention):
        self.lam, self.ctx, self.base, self.convention = lam, lam.ctx, lam.ctx.base_indices, convention
        self.pp = second_partials(lam.L, convention)
        self.kept = _kept(lam, "expansion", lambda *_: {}, convention)

    @_stored
    def tc1(self, sigma: int) -> ScalarExpr:
        """dL/dy^s - d_i' dL/dy^s_i + d_i' d_j' dL/dy^s_{ij}."""
        L, ctx, conv = self.lam.L, self.ctx, self.convention
        total = sym_partial(L, sigma, (), conv)
        for i in self.base:
            total = total - cut_derivative(sym_partial(L, sigma, (i,), conv), i, ctx)
        for i, j in itertools.product(self.base, repeat=2):
            inner = cut_derivative(sym_partial(L, sigma, (i, j), conv), j, ctx)
            total = total + cut_derivative(inner, i, ctx)
        return total

    @_stored
    def c2(self, sigma: int, nu: int, p: int, q: int, i: int, cut: bool = True) -> ScalarExpr:
        """The y^nu_{pqi} coefficient; without ``cut``, less its 2 d_j' part."""
        pp = self.pp
        coeff = pp(sigma, (i, q), nu, (p,)) - pp(sigma, (i,), nu, (p, q))
        for j in self.base if cut else ():
            coeff = coeff + 2 * cut_derivative(pp(sigma, (i, j), nu, (p, q)), j, self.ctx)
        return coeff

    def c3(self, mu: int, nu: int, sigma: int, s: int, t: int, j: int, p: int, q: int, i: int) -> ScalarExpr:
        """The y^mu_{sti} y^nu_{pqj} coefficient."""
        return mixed_partial(self.lam.L, [(sigma, (i, j)), (nu, (p, q)), (mu, (s, t))], self.convention)

    def c4(self, sigma: int, nu: int, p: int, q: int, i: int, j: int) -> ScalarExpr:
        """The y^nu_{pqij} coefficient."""
        return self.pp(sigma, (i, j), nu, (p, q))

    @_stored
    def blocked(self, sigma: int, nu: int) -> bool:
        """True iff the (sigma, nu) block of second partials of L by
        y^sigma_I and y^nu_K, |I| = |K| = 2, is zero, so c4 and every c3
        over the pair, a further partial of the block, vanish."""
        pairs = list(itertools.combinations_with_replacement(self.base, 2))
        return all(is_zero_expr(self.pp(sigma, i, nu, k)) for i, k in itertools.product(pairs, pairs))

    @_stored
    def reducibility(self, policy: ZeroPolicy) -> CheckReport:
        """The order-reducibility report under ``policy``."""
        return _judge(_reducibility_conditions(self), policy, "order-reducibility")

    def symmetrized(self, term, heads: int, sizes: tuple[int, ...], skip=None):
        """For each head of ``heads`` fiber indices and each choice of sorted
        index groups of the given sizes, the sum of
        term(*head, *indices) over all permutations within each group, the
        last group permuting fastest; zero terms are left out of the sum.  A
        head for which skip(*head) is true yields ZERO for each choice, with
        no term taken."""
        groups = itertools.product(
            *(itertools.combinations_with_replacement(self.base, k) for k in sizes))
        choices = [[sum(perm, ()) for perm in itertools.product(*map(itertools.permutations, group))]
                   for group in groups]
        for head in itertools.product(self.ctx.fiber_indices, repeat=heads):
            if skip is not None and skip(*head):
                yield from itertools.repeat(ZERO, len(choices))
                continue
            for indices in choices:
                # a repeated index repeats a term: each distinct one is taken once
                value = {index: term(*head, *index) for index in dict.fromkeys(indices)}
                value = {index: v for index, v in value.items() if not is_zero_expr(v)}
                terms = tuple(value[index] for index in indices if index in value)
                yield Add(terms)


def trivial_conditions_second_order(
    lam: Lagrangian,
    convention: Convention = DEFAULT_CONVENTION,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckReport:
    """The four explicit chart conditions equivalent to triviality at order two."""
    return _judge(_triviality_conditions(_expansion(lam, convention)), policy, "triviality")


def _triviality_conditions(ex: _Expansion):
    for sigma in ex.ctx.fiber_indices:
        yield "triviality[1]", ex.tc1(sigma), ""
    # Sym(pqi) of c2, Sym(stj) Sym(pqi) of c3 and Sym(pqij) of c4; c3 and c4
    # of a zero (sigma, nu) block are zero, so their heads take no term
    for label, term, heads, sizes, skip in (
            ("triviality[2]", ex.c2, 2, (3,), None),
            ("triviality[3]", ex.c3, 3, (3, 3), lambda mu, nu, sigma: ex.blocked(sigma, nu)),
            ("triviality[4]", ex.c4, 2, (4,), ex.blocked)):
        for condition in ex.symmetrized(term, heads, sizes, skip):
            yield label, condition, ""


# ---------------------------------------------------------------------------
# order-reducibility
# ---------------------------------------------------------------------------


def order_reducible(
    lam: Lagrangian,
    convention: Convention = DEFAULT_CONVENTION,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Pass iff the principal Lepage equivalent stays at the Lagrangian's order.
    The report is judged once per L node, chart, convention and policy."""
    return _expansion(lam, convention, "order-reducibility").reducibility(policy)


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
                    ("order-reducibility[5]",
                     pp(sigma, (2, 2), nu, (1, 1)) + 2 * pp(sigma, (1, 2), nu, (1, 2)), ""),
                ]
        return
    for sigma in ex.ctx.fiber_indices:
        for nu in ex.ctx.fiber_indices:
            for p, q, i, j in itertools.product(ex.base, repeat=4):
                cyclic = (pp(sigma, (i, j), nu, (p, q)) + pp(sigma, (q, j), nu, (i, p))
                          + pp(sigma, (p, j), nu, (q, i)))
                yield "order-reducibility[cyclic]", cyclic, ""


def combination_conditions(
    lam: Lagrangian,
    convention: Convention = DEFAULT_CONVENTION,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Triviality conditions for order-reducible second-order Lagrangians."""
    ex = _expansion(lam, convention)
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
                    yield label, expr, ""
        return
    # Sym(pqi) of c2 less its 2 d_j' part
    def head(sigma, nu, p, q, i):
        return ex.c2(sigma, nu, p, q, i, False)

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
            conditions = (
                (f"({i},{j},{k})",
                 sym_partial(g[i - 1], sigma, (j, k), convention)
                 + sym_partial(g[j - 1], sigma, (k, i), convention)
                 + sym_partial(g[k - 1], sigma, (i, j), convention), "")
                for sigma in chart.fiber_indices
                for i, j, k in itertools.product(chart.base_indices, repeat=3))
            cyclic = _judge(conditions, DEFAULT_POLICY, "cyclic")
            if not cyclic.passed:
                raise PreconditionError(
                    "cyclic condition on dg^i/dy_{jk} fails at "
                    f"(i,j,k)={cyclic.label}: {expr_to_text(cyclic.witness)}"
                )
        self.__dict__.update(ctx=ctx, g=g, s=s, convention=convention)


def make_divergence_lagrangian(gen: DivergenceGenerator) -> Lagrangian:
    """The trivial Lagrangian L = d_i g^i of order s + 1."""
    ctx = gen.ctx.at_order(gen.s)
    total = Add(tuple(total_derivative(gi, i, ctx) for i, gi in enumerate(gen.g, start=1)))
    return Lagrangian(gen.ctx, gen.s + 1, total)


# ---------------------------------------------------------------------------
# Euler-Lagrange expansion cross-check
# ---------------------------------------------------------------------------


def el_expansion_crosscheck(
    lam: Lagrangian,
    convention: Convention = DEFAULT_CONVENTION,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Euler-Lagrange expressions versus their cut-derivative expansion."""
    return _judge(_expansion_gaps(_expansion(lam, convention), lam), policy, "el-expansion")


def _expansion_gaps(ex: _Expansion, lam: Lagrangian):
    fibers, base = ex.ctx.fiber_indices, ex.base
    direct = euler_lagrange_expressions(lam)
    for sigma in fibers:
        expansion = ex.tc1(sigma)
        for nu, p, q, i in itertools.product(fibers, *[base] * 3):
            first = ex.c2(sigma, nu, p, q, i)
            if not is_zero_expr(first):
                expansion = expansion + first * Y(nu, p, q, i)
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
        yield f"el-expansion[{sigma}]", direct[sigma - 1] - expansion, ""


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
# the terms of each random divergence generator, and the trivial corpus's seed and size
_DIVERGENCE_TERMS, _CORPUS_SEED, _CORPUS_SIZE = 3, 0, 6


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
    terms: int = _DIVERGENCE_TERMS,
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


def random_divergence_lagrangian(ctx: ChartContext, rng: random.Random) -> Lagrangian:
    """A seeded trivial second-order Lagrangian d_i g^i with first-order g^i."""
    pool = _order1_pool(ctx)
    g = tuple(random_polynomial(rng, pool) for _ in ctx.base_indices)
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


def trivial_order_reducible_corpus() -> list[Lagrangian]:
    """Divergence-generated trivial second-order Lagrangians plus the Hessian determinant."""
    members = [hessian_determinant(), _divergence(1, "1/2*y_2^2", "0")]
    rng = random.Random(_CORPUS_SEED)
    while len(members) < _CORPUS_SIZE:
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
