"""Euler-Lagrange operator and the Lepage-equivalent constructors."""
import itertools
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest

from lepage import variational
from lepage import (
    ChartContext,
    ChartError,
    Convention,
    Dx,
    Lagrangian,
    LagrangianSpec,
    MultiIndex,
    Omega,
    OrderReducibilityError,
    UndefinedFormError,
    FiberVar,
    Rat,
    X,
    Y,
    canonicalize,
    caratheodory_first,
    caratheodory_second,
    const,
    contact_component,
    dirichlet,
    euler_lagrange_expressions,
    euler_lagrange_form,
    expr_to_latex,
    expr_to_text,
    exterior_derivative,
    form_is_zero,
    forms_equal,
    fundamental_coefficients,
    fundamental_first_order,
    fundamental_second_order_n2,
    form_to_json,
    form_to_text,
    horizontalization,
    hessian_determinant,
    camassa_holm,
    is_lepage_equivalent,
    is_trivial,
    lagrangian_form,
    levi_civita,
    make_form,
    null_divergence_m2,
    omega_basis,
    order_reducible,
    parse_lagrangian,
    principal_lepage,
    second_order_corpus,
    trivial_conditions_second_order,
    wedge,
)
from lepage.expr import diff, is_zero_expr
from lepage.verification import _contract, first_order_corpus, random_polynomial
from blocks_oracle import caratheodory_second_blocks

CTX21 = ChartContext(2, 1, 1)
CTX22 = ChartContext(2, 1, 2)


def lag(n, m, r, L):
    return Lagrangian(ChartContext(n, m, r), r, L)


class TestEulerLagrange:
    def test_dirichlet(self):
        e = euler_lagrange_expressions(dirichlet())
        assert len(e) == 1
        assert is_zero_expr(e[0] + Y(1, 1, 1) + Y(1, 2, 2))

    def test_hessian_determinant_is_null(self):
        e = euler_lagrange_expressions(hessian_determinant())
        assert is_zero_expr(e[0])

    def test_base_only_lagrangian(self):
        lam = lag(2, 1, 0, X(1) * X(2) ** 2)
        assert all(is_zero_expr(e) for e in euler_lagrange_expressions(lam))

    def test_form_shape(self):
        lam = dirichlet()
        el = euler_lagrange_form(lam)
        key = (Dx(1), Dx(2), Omega(1, MultiIndex()))
        assert el.coefficient(key) is not None
        assert is_zero_expr(
            el.coefficient((Omega(1, MultiIndex()), Dx(1), Dx(2))) + Y(1, 1, 1) + Y(1, 2, 2)
        )

    def test_trivial_gives_zero_form(self):
        assert euler_lagrange_form(hessian_determinant()).is_structurally_zero()


class TestPrincipalLepage:
    def test_first_order_poincare_cartan(self):
        lam = dirichlet()
        theta = principal_lepage(lam)
        omega0, omegas = omega_basis(lam.ctx)
        want = (
            lagrangian_form(lam)
            + wedge(
                make_omega(lam.ctx, 1), omegas[0]
            ).scaled(Y(1, 1))
            + wedge(make_omega(lam.ctx, 1), omegas[1]).scaled(Y(1, 2))
        )
        assert forms_equal(theta, want)

    def test_horizontal_part_is_lagrangian(self):
        lam = lag(2, 1, 2, Y(1, 2) * Y(1, 1, 2))
        theta = principal_lepage(lam)
        assert forms_equal(horizontalization(theta), lagrangian_form(lam).at_order(theta.order))

    def test_p1_d_theta_is_euler_lagrange(self):
        for lam in (dirichlet(), lag(2, 1, 2, Y(1, 2) * Y(1, 1, 2)), camassa_holm()):
            report = _contract(principal_lepage(lam), lam)
            assert report.passed, report.describe()

    def test_linear_second_order_stays_second_order(self):
        lam = lag(2, 1, 2, X(1) * Y(1, 1, 1) + Y(1) * Y(1, 1, 2))
        assert principal_lepage(lam).max_coeff_order() <= 2

    def test_zeroth_order(self):
        lam = lag(2, 1, 0, Y(1) ** 2)
        assert forms_equal(principal_lepage(lam), lagrangian_form(lam))

    def test_third_order_local_formula(self):
        # allowed as a local-chart construction; the full contract still holds
        lam = lag(2, 1, 3, const(1, 2) * Y(1, 1, 1, 2) ** 2)
        report = _contract(principal_lepage(lam), lam)
        assert report.passed, report.describe()

    def test_order_guard(self):
        with pytest.raises(UndefinedFormError):
            principal_lepage(lag(2, 1, 4, Y(1)))


def make_omega(ctx, sigma, jj=()):
    from lepage import omega

    return omega(ctx, sigma, jj)


class TestCaratheodoryFirst:
    def test_n1_classical_cartan_shape(self):
        lam = Lagrangian(ChartContext(1, 1, 1), 1, Y(1) * Y(1, 1) ** 2)
        form = caratheodory_first(lam)
        assert form.coefficient((Dx(1),)) == canonicalize(Y(1) * Y(1, 1) ** 2)
        assert form.coefficient((Omega(1, MultiIndex()),)) == canonicalize(2 * Y(1) * Y(1, 1))

    def test_n2_m1_coincides_with_theta(self):
        # with one fiber coordinate the omega ^ omega cross term cancels
        lam = lag(2, 1, 1, Y(1, 1) * Y(1, 2))
        form = caratheodory_first(lam)
        assert forms_equal(form, principal_lepage(lam))
        assert forms_equal(horizontalization(form), lagrangian_form(lam))

    def test_n2_m2_cross_term(self):
        lam = lag(2, 2, 1, Y(1, 1) * Y(2, 2))
        form = caratheodory_first(lam)
        theta = principal_lepage(lam)
        gap = form - theta.at_order(form.order)
        # only the 2-contact cross term remains:
        # (1/L) dL/dy^s_1 dL/dy^n_2 omega^s ^ omega^n = y2_2 y1_1 / L w1^w2
        assert form_is_zero(contact_component(gap, 0))
        assert form_is_zero(contact_component(gap, 1))
        cross = contact_component(gap, 2)
        key = (Omega(1, MultiIndex()), Omega(2, MultiIndex()))
        from lepage.expr import equals_zero

        assert not form_is_zero(cross)
        assert equals_zero(cross.coefficient(key) - const(1)).is_zero

    def test_difference_from_theta_is_2_contact(self):
        for lam in (dirichlet(), lag(2, 1, 1, const(1) + Y(1, 1))):
            gap = caratheodory_first(lam) - principal_lepage(lam)
            assert form_is_zero(contact_component(gap, 0))
            assert form_is_zero(contact_component(gap, 1))

    def test_vanishing_lagrangian_refused(self):
        with pytest.raises(UndefinedFormError):
            caratheodory_first(lag(2, 1, 1, const(0)))

    def test_dd_vanishes(self):
        # the n = 2 coefficients carry 1/L, so d(rho) differentiates quotients
        for lam in (lag(2, 1, 1, const(1) + Y(1, 1) ** 2 + Y(1) * Y(1, 2)),
                    lag(2, 2, 1, const(1) + Y(1, 1) * Y(2, 2) + Y(2, 1) ** 2)):
            rho = caratheodory_first(lam)
            assert form_is_zero(exterior_derivative(exterior_derivative(rho)))


class TestCaratheodorySecond:
    def test_horizontal_part(self):
        for lam in (camassa_holm(), lag(2, 1, 2, const(1) + Y(1, 1, 2))):
            form = caratheodory_second(lam)
            assert forms_equal(horizontalization(form), lagrangian_form(lam).at_order(form.order))

    def test_explicit_decomposition(self):
        # the m = 2 inputs carry the sigma != nu entries of the three blocks
        m2 = [parse_lagrangian(LagrangianSpec(2, 2, 2, source)) for source in (
            "1 + y1_1*y2_12 + y1_12*y2_2",
            "1 + x1*y1_1*y2_12 + y1_12*y2_2*y1",
            "1 + y1_11*y2_22 - y1_12*y2_12",
        )]
        for lam in [camassa_holm(), lag(2, 1, 2, Y(1) * Y(1, 1, 2)), dirichlet(r=2)] + m2:
            assert forms_equal(caratheodory_second(lam), caratheodory_second_blocks(lam))

    def test_difference_from_theta_is_2_contact(self):
        # both forms read their contact coefficients from one momentum table
        for lam in second_order_corpus():
            gap = caratheodory_second(lam) - principal_lepage(lam)
            assert form_is_zero(contact_component(gap, 0))
            assert form_is_zero(contact_component(gap, 1))

    def test_constant_lagrangian(self):
        lam = lag(2, 1, 2, const(1))
        form = caratheodory_second(lam)
        theta = principal_lepage(lam)
        omega0, _ = omega_basis(lam.ctx)
        assert forms_equal(form, omega0.at_order(form.order))
        assert forms_equal(form, theta.at_order(form.order))

    def test_dd_vanishes(self):
        for L in (const(1) + Y(1, 1) * Y(1, 2, 2), Y(1) + Y(1, 1, 2) ** 2):
            rho = caratheodory_second(lag(2, 1, 2, L))
            assert form_is_zero(exterior_derivative(exterior_derivative(rho)))

    def test_dd_vanishes_where_denominators_used_to_snowball(self):
        # a sum over L^i and L^j lands over L^max(i,j); when it landed over
        # L^(i+j), d(d(rho)) exceeded the term-product limit
        lam = parse_lagrangian(LagrangianSpec(2, 1, 2, "1 + y_1*y_12 + x1*y + y_2^2"))
        assert form_is_zero(exterior_derivative(exterior_derivative(caratheodory_second(lam))))

    def test_lepage_equivalent_on_the_widest_chart(self):
        # the n = 4, m = 2 rung of the wide-chart benchmark ladder
        lam = parse_lagrangian(LagrangianSpec(4, 2, 2, "1 + 3*y1_1*y2_14 + 3*x1*y1 + y1_2^2"))
        assert is_lepage_equivalent(caratheodory_second(lam), lam).passed


def _fundamental_by_products(lam):
    """The first-order fundamental form summed over every index tuple, eps = 0 included."""
    ctx, n = lam.ctx, lam.ctx.n
    base, fibers = list(ctx.base_indices), list(ctx.fiber_indices)
    entries = [(tuple(Dx(i) for i in base), lam.L)]
    for k in range(1, n + 1):
        scale = Fraction(1, factorial(n - k) * factorial(k) ** 2)
        for sigmas in itertools.product(fibers, repeat=k):
            for js in itertools.product(base, repeat=k):
                partial = lam.L
                for sigma, j in zip(sigmas, js):
                    partial = diff(partial, FiberVar(sigma, MultiIndex((j,))))
                if is_zero_expr(partial):
                    continue
                for rest in itertools.product(base, repeat=n - k):
                    eps = levi_civita(js + rest)
                    if eps:
                        key = tuple(Omega(s, MultiIndex()) for s in sigmas)
                        entries.append((key + tuple(Dx(i) for i in rest),
                                        Rat(scale * eps) * partial))
    return make_form(ctx, n, entries, 1)


def _seeded_first_order(n, m):
    """A seeded first-order Lagrangian with a term of one derivative per base direction."""
    ctx = ChartContext(n, m, 1)
    rng = random.Random(f"fundamental/{n}/{m}")
    pool = [v for v in ctx.coordinates() if isinstance(v, FiberVar) or rng.random() < 0.5]
    full = 1
    for j in ctx.base_indices:
        full = full * Y(rng.choice(list(ctx.fiber_indices)), j)
    return Lagrangian(ctx, 1, canonicalize(random_polynomial(rng, pool, 5, n) + full))


FIRST_ORDER = first_order_corpus() + [
    _seeded_first_order(n, m) for n in (2, 3, 4) for m in (1, 2)]
FIRST_ORDER_IDS = [f"corpus{i}" for i in range(len(first_order_corpus()))] + [
    f"n{n}m{m}" for n in (2, 3, 4) for m in (1, 2)]


class TestFundamentalFirstOrder:
    def test_m1_reduces_to_theta(self):
        for lam in (dirichlet(), lag(2, 1, 1, Y(1, 1) * Y(1, 2) + Y(1))):
            z = fundamental_first_order(lam)
            theta = principal_lepage(lam)
            assert z.terms == theta.terms

    def test_m2_null_two_contact_term(self):
        z = fundamental_first_order(null_divergence_m2())
        key = (Omega(1, MultiIndex()), Omega(2, MultiIndex()))
        assert z.coefficient(key) == canonicalize(const(1))
        assert form_is_zero(exterior_derivative(z))

    def test_derivative_free_lagrangian(self):
        lam = lag(2, 1, 1, X(1) * Y(1))
        z = fundamental_first_order(lam)
        assert forms_equal(z, lagrangian_form(lam).at_order(1))

    def test_coefficient_order_bound(self):
        for lam in (dirichlet(), null_divergence_m2()):
            assert fundamental_first_order(lam).max_coeff_order() <= 1

    def test_wrong_order_refused(self):
        with pytest.raises(UndefinedFormError):
            fundamental_first_order(dirichlet(r=2))

    @pytest.mark.parametrize("lam", FIRST_ORDER, ids=FIRST_ORDER_IDS)
    def test_only_nonvanishing_eps_terms_are_built(self, lam):
        m = lam.ctx.m
        want = form_to_text(_fundamental_by_products(lam), m)
        assert form_to_text(fundamental_first_order(lam), m) == want


class TestFundamentalSecondOrder:
    def test_r_coefficient_formula(self):
        lam = hessian_determinant()
        coeffs = fundamental_coefficients(lam)
        # -2 * symmetrized second derivative by y12 twice = -2 * (-1/2) = 1
        assert coeffs.R12[(1, 1)] == canonicalize(const(1))
        assert coeffs.R(2, 1, 1, 1) == canonicalize(const(-1))
        assert is_zero_expr(coeffs.R(1, 1, 1, 1))

    def test_first_order_lagrangian_reduces(self):
        # first-order m=2 Lagrangian viewed as second-order: P antisymmetric part, Q = R = 0
        u1, u2 = Y(1, 1), Y(1, 2)
        v1, v2 = Y(2, 1), Y(2, 2)
        lam = lag(2, 2, 2, u1 * v2 - u2 * v1)
        z, coeffs = fundamental_second_order_n2(lam)
        assert coeffs.P[(1, 2)] == canonicalize(const(1))
        assert coeffs.P[(2, 1)] == canonicalize(const(-1))
        for table in (coeffs.Q1, coeffs.Q2, coeffs.R12):
            assert all(is_zero_expr(v) for v in table.values())

    @pytest.mark.parametrize("m, source, want", [
        (2, "x1*y1_1*y2_12 + y1_12*y2_2*y1", {
            (1, 2): ("-(1/2)*y1_2 - 1/2", "x1", "(1/2)*y1", "0", "0"),
            (2, 1): ("(1/2)*y1_2 + 1/2", "-(1/2)*x1", "-y1", "0", "0"),
        }),
        (1, "y_12^2 - y_11*y_22 + y_1*y_2*y_12", {
            (1, 1): ("0", "(1/2)*y_2", "-(1/2)*y_1", "-1", "1"),
        }),
        (1, "y_1*y_12^2 - y_1*y_11*y_22 + x2*y_2*y_11", {
            (1, 1): ("0", "-x2", "0", "-y_1", "y_1"),
        }),
    ], ids=["m2-cross-fiber", "m1-hessian-plus-cubic", "m1-weighted-hessian"])
    def test_nonzero_coefficients(self, m, source, want):
        # order-reducible and nontrivial: a sign or a j <-> k slip in P, Q^j or R^{ij} shows
        lam = parse_lagrangian(LagrangianSpec(2, m, 2, source))
        assert not is_trivial(lam).passed
        _, coeffs = fundamental_second_order_n2(lam)
        for key, texts in want.items():
            got = (coeffs.P[key], coeffs.Q1[key], coeffs.Q2[key], coeffs.R12[key], coeffs.R(2, 1, *key))
            assert tuple(expr_to_text(e, m) for e in got) == texts

    def test_p_skew_symmetry(self):
        lam = hessian_determinant()
        _, coeffs = fundamental_second_order_n2(lam)
        for sigma in (1,):
            for nu in (1,):
                assert is_zero_expr(coeffs.P[(sigma, nu)] + coeffs.P[(nu, sigma)])

    def test_coefficient_order_bound(self):
        _, coeffs = fundamental_second_order_n2(hessian_determinant())
        from lepage import max_jet_order

        entries = list(coeffs.P.values()) + list(coeffs.Q1.values()) + list(coeffs.Q2.values()) + list(coeffs.R12.values())
        assert all(max_jet_order(e) <= 2 for e in entries)

    def test_camassa_holm_refusal(self):
        with pytest.raises(OrderReducibilityError) as err:
            fundamental_second_order_n2(camassa_holm())
        report = err.value.report
        assert report.label == "order-reducibility[5]"
        assert is_zero_expr(report.witness - const(1, 2) / Y(1, 1))

    def test_camassa_holm_refusal_spells_the_witness(self):
        with pytest.raises(OrderReducibilityError) as err:
            fundamental_second_order_n2(camassa_holm())
        assert str(err.value) == (
            "Lagrangian is not order-reducible: "
            + err.value.report.describe()
        )
        assert str(err.value).startswith(
            "Lagrangian is not order-reducible: FAIL order-reducibility[5]: witness (1/2)*y1_1^(-1)"
        )

    def test_hessian_z_is_theta_plus_unit_block(self):
        lam = hessian_determinant()
        z, _ = fundamental_second_order_n2(lam)
        theta = principal_lepage(lam)
        gap = z - theta.at_order(z.order)
        key = (Omega(1, MultiIndex((1,))), Omega(1, MultiIndex((2,))))
        assert gap.coefficient(key) == canonicalize(const(1))
        assert len(gap.terms) == 1

    @pytest.mark.parametrize("build", [
        lambda lam: fundamental_second_order_n2(lam)[0],
    ], ids=["fundamental"])
    def test_one_momentum_table_per_call(self, monkeypatch, build):
        # Theta's entries and the 2-contact blocks are written from one table of momenta
        calls = []
        momenta = variational._momenta
        monkeypatch.setattr(variational, "_momenta", lambda *a: calls.append(a) or momenta(*a))
        lam = parse_lagrangian(LagrangianSpec(2, 2, 2, "1 + x1*y1_1*y2_12 + y1_12*y2_2*y1"))
        for _ in range(3):
            build(lam)
        assert len(calls) == 3


def test_results_over_two_denominators_are_canonical():
    # partials of this L sit over different denominators, so their sums are
    # raw trees until the library canonicalizes them
    lam = parse_lagrangian(LagrangianSpec(2, 1, 2, "y_11*y_22/(1+y_1^2) - y_12^2/(2+y_2^2)"))
    coeffs = fundamental_coefficients(lam)
    values = [*coeffs.P.values(), *coeffs.Q1.values(), *coeffs.Q2.values(), *coeffs.R12.values(),
              coeffs.R(2, 1, 1, 1), trivial_conditions_second_order(lam).witness]
    assert all(canonicalize(value) is value for value in values)


@pytest.mark.parametrize("run, error, message", [
    (lambda: Lagrangian(CTX21, -1, Y(1)), ChartError, "negative order -1"),
    (lambda: fundamental_second_order_n2(lag(3, 1, 2, Y(1, 1, 1))), UndefinedFormError,
     "second-order fundamental form is for a 2-dimensional base"),
    (lambda: fundamental_coefficients(lag(3, 1, 2, Y(1, 1, 1) * Y(1, 2, 2))), UndefinedFormError,
     "second-order fundamental form is for a 2-dimensional base"),
    (lambda: fundamental_coefficients(lag(1, 1, 2, Y(1, 1, 1) ** 2)), UndefinedFormError,
     "second-order fundamental form is for a 2-dimensional base"),
    (lambda: fundamental_coefficients(lag(2, 1, 3, Y(1, 1, 1, 1) * Y(1, 2))), UndefinedFormError,
     "second-order constructor got order 3"),
    (lambda: fundamental_first_order(lag(5, 1, 1, Y(1, 1))), UndefinedFormError,
     "combinatorial guard: n <= 4, got 5"),
], ids=["negative-order", "fundamental-second-n3", "coefficients-n3", "coefficients-n1",
        "coefficients-order-3", "fundamental-first-n5"])
def test_constructor_refusal(run, error, message):
    with pytest.raises(error) as info:
        run()
    assert str(info.value) == message


def _fundamental(lam):
    """Z_1 at order one, Z_2 of an order-reducible L at order two, else None."""
    if lam.r == 1:
        return fundamental_first_order(lam)
    if order_reducible(lam).passed:
        return fundamental_second_order_n2(lam)[0]
    return None


def _wide_first_order():
    """First-order Lagrangians over n = 3 and 4, where Z_1 wedges each partial
    with (n - k)! orderings of the remaining base indices."""
    return [parse_lagrangian(LagrangianSpec(n, m, 1, source)) for n, m, source in [
        (3, 2, "y1_1*y2_2 - y1_2*y2_1 + y1_3*y2_3^2 + x1*y2"),
        (4, 1, "1 + y_1*y_4 + y_2^2*y_3"),
    ]]


class TestSharedNodes:
    """Theta and the fundamental forms of one Lagrangian hold the same
    coefficient nodes for their 0- and 1-contact terms, as the per-L memos
    and the identity rules of the operators give them."""

    @pytest.mark.parametrize("theta_first", [True, False], ids=["theta-first", "z-first"])
    @pytest.mark.parametrize("corpus", [first_order_corpus, second_order_corpus, _wide_first_order])
    def test_low_contact_coefficients_are_thetas(self, corpus, theta_first):
        compared = 0
        for lam in corpus():
            theta = principal_lepage(lam) if theta_first else None
            z = _fundamental(lam)
            if z is None:
                continue
            if theta is None:
                theta = principal_lepage(lam)
            for key, c in z.terms.items():
                if z.contact_count(key) < 2:
                    assert theta.terms[key] is c, (lam.L, key)
                    compared += 1
        assert compared > 10

    def test_unit_operations_keep_the_node(self):
        x = canonicalize(Y(1, 1) * Y(1, 2) / (1 + Y(1) ** 2) + X(1))
        # -x is memoized on x, and -(-x) on -x: equal to x, not x itself,
        # so no memo entry points back at x
        assert -(-x) == x and -(-x) is -(-x) and -x is -x
        assert expr_to_text(-(-x)) == expr_to_text(x) and expr_to_latex(-(-x)) == expr_to_latex(x)
        assert Rat(Fraction(1)) * x is x
        assert Rat(Fraction(-1)) * x is -x
        # a raw operand keeps its raw tree
        raw = Y(1, 1) + Y(1, 2)
        assert expr_to_text(Rat(Fraction(-1)) * raw) == expr_to_text(-raw)


_BUILDS = {
    "theta": lambda lam, conv: principal_lepage(lam, conv),
    "caratheodory": lambda lam, conv: caratheodory_second(lam, conv),
    # the Hessian part of L is order-reducible under the symmetrized theta convention only
    "fundamental": lambda lam, conv: fundamental_second_order_n2(lam, Convention.SYMMETRIZED, conv)[0],
    "lagrangian": lambda lam, conv: lagrangian_form(lam),
    "euler-lagrange": lambda lam, conv: euler_lagrange_form(lam),
}


class TestLagrangianMemos:
    """What L's node memo keeps is safe to share."""

    SOURCE = "y_11*y_22 - y_12^2 + x1*y_1*y_12 + y_2^2 + 1"

    def _lam(self):
        return parse_lagrangian(LagrangianSpec(2, 1, 2, self.SOURCE))

    def test_euler_lagrange_expressions_are_a_new_list(self):
        lam = hessian_determinant()
        first = euler_lagrange_expressions(lam)
        want = [expr_to_text(e) for e in first]
        first.clear()
        first.append(Y(1))
        second = euler_lagrange_expressions(lam)
        assert second is not first and [expr_to_text(e) for e in second] == want
        assert [expr_to_text(e) for e in euler_lagrange_expressions(self._lam())] == \
            [expr_to_text(e) for e in euler_lagrange_expressions(self._lam())]

    def test_kept_forms_match_a_build_on_a_fresh_node(self):
        warm = self._lam()
        conventions = [Convention.SYMMETRIZED, Convention.PLAIN]
        for conv in conventions * 2:
            for build in _BUILDS.values():
                build(warm, conv)
        for conv in conventions:
            fresh = self._lam()
            assert fresh.L is not warm.L
            for name, build in _BUILDS.items():
                assert form_to_json(build(warm, conv)) == form_to_json(build(fresh, conv)), (name, conv)
            kept, built = variational._momenta(warm, conv), variational._momenta(fresh, conv)
            assert list(kept) == list(built)
            assert [expr_to_text(p) for p in kept.values()] == [expr_to_text(p) for p in built.values()]

    def test_a_pickled_lagrangian_carries_no_memo(self):
        lam = self._lam()
        for build in _BUILDS.values():
            build(lam, Convention.SYMMETRIZED)
        trivial_conditions_second_order(lam)
        assert "_memo" in lam.L.__dict__
        copy = pickle.loads(pickle.dumps(lam))
        assert copy == lam and set(copy.L.__dict__) <= set(copy.L._fields)
        assert form_to_json(principal_lepage(parse_lagrangian(LagrangianSpec(2, 1, 2, self.SOURCE)))) == \
            form_to_json(principal_lepage(lam))
