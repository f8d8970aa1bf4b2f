"""Verification checks: Lepage property, triviality, order-reducibility, closure."""
import gc
import itertools
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lepage import (
    ChartContext,
    Convention,
    DivergenceGenerator,
    Dx,
    ExteriorForm,
    Lagrangian,
    LagrangianSpec,
    Omega,
    PreconditionError,
    Var,
    X,
    Y,
    calibrate_convention,
    camassa_holm,
    caratheodory_first,
    caratheodory_second,
    closure_check,
    combination_conditions,
    const,
    contact_component,
    dirichlet,
    el_expansion_crosscheck,
    euler_lagrange_form,
    exterior_derivative,
    first_order_corpus,
    form_is_zero,
    form_to_json,
    fundamental_first_order,
    fundamental_second_order_n2,
    hessian_determinant,
    is_lepage_equivalent,
    is_lepage_form,
    is_trivial,
    lagrangian_form,
    make_divergence_lagrangian,
    make_form,
    nontrivial_order_reducible_corpus,
    order_reducible,
    parse_lagrangian,
    principal_lepage,
    second_order_corpus,
    trivial_conditions_second_order,
    trivial_order_reducible_corpus,
    zero_form,
)
from lepage import forms, verification
from lepage.expr import Add, DEFAULT_POLICY, ZeroPolicy, canonicalize, is_zero_expr
from lepage.jets import DEFAULT_CONVENTION, mixed_partial, sym_partial
from lepage.serialize import expr_to_text
from blocks_oracle import caratheodory_second_blocks
from lepage.verification import (
    _Expansion,
    _contract,
    _equivalence_conditions,
    _expansion,
    _judge,
    _lepage_conditions,
    _p1_of_d,
    _triviality_conditions,
    random_divergence_lagrangian,
    random_polynomial,
)


def lag(n, m, r, L):
    return Lagrangian(ChartContext(n, m, r), r, L)


class TestLepageChecks:
    def test_theta_is_lepage(self):
        for lam in (dirichlet(), camassa_holm(), hessian_determinant()):
            assert is_lepage_form(principal_lepage(lam)).passed

    def test_bare_lagrangian_form_is_not(self):
        lam = lag(2, 1, 1, const(1, 2) * Y(1, 1) ** 2)
        report = is_lepage_form(lagrangian_form(lam))
        assert not report.passed
        assert report.label == "lepage-contact"
        assert report.witness is not None

    def test_zero_form_passes(self):
        assert is_lepage_form(zero_form(ChartContext(2, 1, 1), 2, 1)).passed

    def test_wrong_degree_rejected(self):
        with pytest.raises(PreconditionError):
            is_lepage_form(zero_form(ChartContext(2, 1, 1), 1, 1))

    def test_equivalence(self):
        lam = dirichlet()
        theta = principal_lepage(lam)
        assert is_lepage_equivalent(theta, lam).passed

    def test_scaling_mismatch(self):
        lam = dirichlet()
        doubled = lag(2, 1, 1, 2 * lam.L)
        report = is_lepage_equivalent(principal_lepage(lam), doubled)
        assert not report.passed
        assert report.label == "horizontal-mismatch"


def _constructors(lam):
    """Every constructor that applies to lam, under both conventions."""
    n, r = lam.ctx.n, lam.r
    for conv in Convention:
        yield principal_lepage(lam, conv)
        if r == 2:
            yield caratheodory_second(lam, conv)
        if (n, r) == (2, 2):
            yield caratheodory_second_blocks(lam, conv)
            if order_reducible(lam, conv).passed:
                yield fundamental_second_order_n2(lam, conv)[0]
    if r == 1:
        yield caratheodory_first(lam)
        yield fundamental_first_order(lam)


@st.composite
def _n_forms(draw):
    """An n-form at order 2 over n in {2, 3}, m in {1, 2}, with a 2-contact term
    and terms of any other contact count."""
    n, m = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2]))
    ctx = ChartContext(n, m, 2)
    coords = [Var(v) for v in ctx.coordinates()]
    labels = [Omega(s, jj) for s in ctx.fiber_indices for k in (0, 1) for jj in ctx.multi_indices(k)]
    entries = []
    for k in [2] + draw(st.lists(st.integers(0, n), max_size=3)):
        contact = draw(st.lists(st.sampled_from(labels), min_size=k, max_size=k, unique=True))
        base = draw(st.permutations(range(1, n + 1)))[:n - k]
        a, b = draw(st.sampled_from(coords)), draw(st.sampled_from(coords))
        coeff = const(draw(st.integers(-3, 3))) * a * b + draw(st.sampled_from([0, a ** 2, 1 / (1 + b ** 2)]))
        entries.append((tuple(contact) + tuple(Dx(i) for i in base), coeff))
    return make_form(ctx, n, entries, 2)


class TestP1OfD:
    """The Lepage check's p1(d rho) equals the 1-contact part of the full d."""

    @staticmethod
    def _assert_full_d_agrees(rho):
        assert form_to_json(_p1_of_d(rho)) == form_to_json(contact_component(exterior_derivative(rho), 1))

    @settings(max_examples=60, deadline=None)
    @given(rho=_n_forms())
    def test_generated_forms(self, rho):
        self._assert_full_d_agrees(rho)

    @pytest.mark.parametrize("corpus", [first_order_corpus, second_order_corpus])
    def test_constructors_over_the_corpora(self, corpus):
        for lam in corpus():
            for rho in _constructors(lam):
                self._assert_full_d_agrees(rho)

    def test_no_two_contact_entry_is_formed(self, monkeypatch):
        # d_V of the 1-contact terms is all 2-contact, so p1(d rho) never
        # forms it: every entry handed to make_form has at most one omega
        lam = camassa_holm()
        rhos = [principal_lepage(lam), caratheodory_second(lam)]
        made = []
        make_form = forms.make_form

        def recording(ctx, degree, entries, order):
            entries = list(entries)
            made.extend(key for key, _ in entries)
            return make_form(ctx, degree, entries, order)

        for module in (forms, verification):
            monkeypatch.setattr(module, "make_form", recording, raising=False)
        for rho in rhos:
            _p1_of_d(rho)
        assert made and all(sum(isinstance(el, Omega) for el in key) < 2 for key in made)


def _off_omega(p1):
    """The terms of a p1(d rho) off the omega^sigma (J empty): those a Lepage check judges."""
    judged = {key: c for key, c in p1.terms.items() if next(el for el in key if isinstance(el, Omega)).jj}
    return ExteriorForm(p1.ctx, p1.degree, judged, p1.order)


def _forms_checked(lam):
    """The bare Lagrangian form, which fails the Lepage checks, then every constructor."""
    yield lagrangian_form(lam)
    yield from _constructors(lam)


class TestJudgedP1:
    """The Lepage checks build p1(d rho) off the omega^sigma alone, and report
    what the full p1 gives."""

    @staticmethod
    def _assert_off_omega(rho):
        judged = _p1_of_d(rho, euler_lagrange=False)
        assert form_to_json(judged) == form_to_json(_off_omega(_p1_of_d(rho)))

    @settings(max_examples=60, deadline=None)
    @given(rho=_n_forms())
    def test_generated_forms(self, rho):
        self._assert_off_omega(rho)

    @pytest.mark.parametrize("corpus", [first_order_corpus, second_order_corpus])
    def test_constructors_over_the_corpora(self, corpus):
        for lam in corpus():
            for rho in _constructors(lam):
                self._assert_off_omega(rho)

    @pytest.mark.parametrize("corpus", [first_order_corpus, second_order_corpus])
    def test_reports_are_those_of_the_full_p1(self, corpus):
        for lam in corpus():
            m = lam.ctx.m
            for rho in _forms_checked(lam):
                full = _p1_of_d(rho)
                form = _judge(_lepage_conditions(full), DEFAULT_POLICY, "lepage-contact")
                equivalent = _judge(_equivalence_conditions(rho, lam, full), DEFAULT_POLICY, "lepage-equivalent")
                assert is_lepage_form(rho).describe(m) == form.describe(m)
                assert is_lepage_equivalent(rho, lam).describe(m) == equivalent.describe(m)

    def test_failing_reports_are_pinned(self):
        lam = camassa_holm()
        point = "at y1_1=1.37769, y1_2=1.03182, y1_12=-0.317714"
        reports = [
            is_lepage_form(lagrangian_form(lam)),
            is_lepage_form(principal_lepage(lam, Convention.PLAIN)),
            is_lepage_equivalent(caratheodory_second(lam, Convention.PLAIN), lam),
        ]
        assert [report.describe(1) for report in reports] == [
            "FAIL lepage-contact: witness (1/2)*y_2^2 - (1/2)*y_1^(-2)*y_12^2: "
            f"{point}: offending basis term dx1 ∧ dx2 ∧ w1_1",
            "FAIL lepage-contact: witness -y_1^(-1)*y_12: at y1_1=1.37769, y1_12=1.03182: "
            "offending basis term dx1 ∧ dx2 ∧ w1_12",
            "FAIL lepage-contact: witness (-y_1^3*y_2^4*y_12 - 2*y_1*y_2^2*y_12^3 - y_1^(-1)*y_12^5)"
            "/(y_12^4 + y_1^4*y_2^4 + 2*y_1^2*y_2^2*y_12^2): "
            f"{point}: offending basis term dx1 ∧ dx2 ∧ w1_12",
        ]

    def test_no_omega_sigma_entry_is_formed(self, monkeypatch):
        # the d_H of a term on omega^sigma and the partials by y^sigma land on
        # omega^sigma, the Euler-Lagrange part, so the checks take neither
        lams = [camassa_holm(), _parsed(2, 1, "y^2*y_1 + y*y_22^2")]
        rhos = [(rho, lam) for lam in lams for rho in _forms_checked(lam)]
        made = []
        make_form = forms.make_form

        def recording(ctx, degree, entries, order):
            entries = list(entries)
            made.extend(key for key, _ in entries)
            return make_form(ctx, degree, entries, order)

        for module in (forms, verification):
            monkeypatch.setattr(module, "make_form", recording, raising=False)
        for rho, lam in rhos:
            is_lepage_form(rho)
            is_lepage_equivalent(rho, lam)
        contact = [el for key in made for el in key if isinstance(el, Omega)]
        assert contact and all(el.jj for el in contact)


@st.composite
def _sparse_lagrangians(draw):
    """L with one to three monomials, each a nonzero integer times at most two
    chart coordinates, at n <= 3, m <= 2, r <= 2."""
    n = draw(st.sampled_from([1, 2, 3]))
    m, r = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    ctx = ChartContext(n, m, r)
    coords = [Var(v) for v in ctx.coordinates()]
    L = const(0)
    for _ in range(draw(st.integers(1, 3))):
        term = const(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
        for v in draw(st.lists(st.sampled_from(coords), max_size=2)):
            term = term * v
        L = L + term
    return Lagrangian(ctx, r, L)


def _contract_forms(lam):
    """Theta, the Caratheodory form and the fundamental form, each where it is
    defined: the Caratheodory form for a nonvanishing L, the fundamental form
    at order one and, at order two, for an order-reducible L over n = 2."""
    yield principal_lepage(lam)
    if not is_zero_expr(lam.L):
        yield (caratheodory_first if lam.r == 1 else caratheodory_second)(lam)
    if lam.r == 1:
        yield fundamental_first_order(lam)
    elif lam.ctx.n == 2 and order_reducible(lam).passed:
        yield fundamental_second_order_n2(lam)[0]


class TestContractProperties:
    """d(d rho) = 0 and the contract (the Lepage property, h(rho) = lambda and
    p1(d rho) = E_lambda), exactly, for every constructor on sparse generated
    Lagrangians."""

    @settings(max_examples=40, deadline=None)
    @given(lam=_sparse_lagrangians())
    def test_contract(self, lam):
        for rho in _contract_forms(lam):
            assert form_is_zero(exterior_derivative(exterior_derivative(rho)))
            report = _contract(rho, lam)
            assert report.passed, report.describe()


class TestContractGuards:
    """The contract fails on each of its three labels, in their order."""

    def test_lepage_contact(self):
        report = _contract(lagrangian_form(dirichlet()), dirichlet())
        assert (report.passed, report.label) == (False, "lepage-contact")

    def test_horizontal_mismatch(self):
        report = _contract(principal_lepage(dirichlet()), _parsed(2, 1, "y_1^2 + y_2^2", 1))
        assert (report.passed, report.label) == (False, "horizontal-mismatch")

    def test_p1_euler_lagrange(self, monkeypatch):
        other = euler_lagrange_form(_parsed(2, 1, "y_1^2 + y_2^2", 1))
        monkeypatch.setattr(verification, "euler_lagrange_form", lambda lam: other)
        report = _contract(principal_lepage(dirichlet()), dirichlet())
        assert (report.passed, report.label) == (False, "p1-euler-lagrange")
        assert report.describe(1) == \
            "FAIL p1-euler-lagrange: witness y_22 + y_11: at y1_11=1.37769, y1_22=1.03182"


class TestTriviality:
    def test_divergence_lagrangians_are_trivial(self):
        rng = random.Random(11)
        for _ in range(3):
            lam = random_divergence_lagrangian(ChartContext(2, 1, 1), rng)
            assert is_trivial(lam).passed

    def test_hessian_is_trivial(self):
        assert is_trivial(hessian_determinant()).passed

    def test_dirichlet_is_not(self):
        report = is_trivial(dirichlet())
        assert not report.passed
        assert is_zero_expr(report.witness + Y(1, 1, 1) + Y(1, 2, 2))

    def test_conditions_match_direct_check(self):
        for lam in second_order_corpus():
            assert trivial_conditions_second_order(lam).passed == is_trivial(lam).passed

    def test_camassa_holm_fails_in_first_family(self):
        report = trivial_conditions_second_order(camassa_holm())
        assert not report.passed
        assert report.label == "triviality[1]"

    def test_constant_lagrangian(self):
        assert trivial_conditions_second_order(lag(2, 1, 2, const(3))).passed


class TestOrderReducibility:
    def test_linear_in_second_derivatives(self):
        lam = lag(2, 1, 2, X(1) * Y(1, 1, 1) + Y(1) * Y(1, 1, 2) + Y(1, 2) * Y(1, 2, 2))
        assert order_reducible(lam).passed

    def test_camassa_holm_condition5(self):
        report = order_reducible(camassa_holm())
        assert not report.passed
        assert report.label == "order-reducibility[5]"
        assert is_zero_expr(report.witness - const(1, 2) / Y(1, 1))

    def test_repeat_run_takes_no_new_partials(self, monkeypatch):
        import lepage.expr

        calls = []
        real = lepage.expr._rf_diff

        def counting(rf, v):
            calls.append(v)
            return real(rf, v)

        monkeypatch.setattr(lepage.expr, "_rf_diff", counting)
        lam = camassa_holm()
        first = order_reducible(lam)
        assert calls
        taken = len(calls)
        second = order_reducible(lam)
        assert len(calls) == taken
        assert second == first

    def test_camassa_holm_plain_witness(self):
        report = order_reducible(camassa_holm(), convention=Convention.PLAIN)
        assert is_zero_expr(report.witness - 2 / Y(1, 1))

    def test_hessian_under_shipped_convention(self):
        assert order_reducible(hessian_determinant()).passed
        assert not order_reducible(hessian_determinant(), convention=Convention.PLAIN).passed

    def test_reducible_theta_keeps_order(self):
        for lam in trivial_order_reducible_corpus():
            assert order_reducible(lam).passed
            assert principal_lepage(lam).max_coeff_order() <= 2


def _generated(m, seed, member):
    """A seeded divergence d_i g^i at n = 2, plus the member-th nontrivial
    order-reducible Lagrangian unless member is None; with whether it is trivial."""
    lam = random_divergence_lagrangian(ChartContext(2, m, 1), random.Random(seed))
    if member is None:
        return lam, True
    extra = nontrivial_order_reducible_corpus()[member].L
    return Lagrangian(lam.ctx, 2, lam.L + extra), False


_order_reducible_lagrangians = st.builds(
    _generated, st.sampled_from([1, 2]), st.integers(0, 2**16),
    st.one_of(st.none(), st.integers(0, 3)),
)


class TestPaperClaims:
    """The paper's characterizations on generated order-reducible second-order
    Lagrangians over a 2-dimensional base."""

    @settings(max_examples=40, deadline=None)
    @given(case=_order_reducible_lagrangians)
    def test_fundamental_form_closed_iff_trivial(self, case):
        # claim (i): d Z_lambda = 0 exactly when lambda is trivial
        lam, trivial = case
        z, _ = fundamental_second_order_n2(lam)
        assert closure_check(z).passed == is_trivial(lam).passed == trivial

    @settings(max_examples=40, deadline=None)
    @given(case=_order_reducible_lagrangians)
    def test_theta_keeps_the_order(self, case):
        # condition (ii): the principal component stays at order two
        lam, _ = case
        assert order_reducible(lam).passed
        assert principal_lepage(lam).max_coeff_order() <= 2


class TestCombinationConditions:
    def test_divergence_members_pass(self):
        gen = DivergenceGenerator(
            ChartContext(2, 1, 1), (const(1, 2) * Y(1, 2) ** 2, const(0)), 1
        )
        lam = make_divergence_lagrangian(gen)
        assert combination_conditions(lam).passed

    def test_linear_trivial(self):
        lam = lag(2, 1, 2, Y(1, 2) * Y(1, 1, 2))
        assert combination_conditions(lam).passed

    def test_nontrivial_first_order_fails_in_tc1_part(self):
        lam = lag(2, 1, 2, Y(1, 1) * Y(1, 2))
        report = combination_conditions(lam)
        assert not report.passed
        assert report.label == "combination[1]"
        assert is_zero_expr(report.witness + 2 * Y(1, 1, 2))

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionError):
            combination_conditions(camassa_holm())

    def test_matches_direct_check_on_reducible_corpus(self):
        for lam in second_order_corpus():
            if order_reducible(lam).passed:
                assert combination_conditions(lam).passed == is_trivial(lam).passed


class TestClosure:
    def test_fundamental_of_null_first_order(self):
        from lepage import null_divergence_m2

        z = fundamental_first_order(null_divergence_m2())
        assert closure_check(z).passed

    def test_trivial_second_order_corpus(self):
        for lam in trivial_order_reducible_corpus():
            z, _ = fundamental_second_order_n2(lam)
            assert closure_check(z).passed

    def test_theta_of_dirichlet_fails_with_el_witness(self):
        report = closure_check(principal_lepage(dirichlet()))
        assert not report.passed
        assert is_zero_expr(report.witness + Y(1, 1, 1) + Y(1, 2, 2))


class TestDivergenceGenerator:
    def test_zeroth_order(self):
        gen = DivergenceGenerator(ChartContext(2, 1, 0), (const(1, 2) * Y(1) ** 2, const(0)), 0)
        lam = make_divergence_lagrangian(gen)
        assert lam.r == 1
        assert is_zero_expr(lam.L - Y(1) * Y(1, 1))
        assert is_trivial(lam).passed

    def test_first_order(self):
        gen = DivergenceGenerator(ChartContext(2, 1, 1), (const(1, 2) * Y(1, 2) ** 2, const(0)), 1)
        lam = make_divergence_lagrangian(gen)
        assert is_zero_expr(lam.L - Y(1, 2) * Y(1, 1, 2))

    def test_antisymmetric_constant_pair(self):
        gen = DivergenceGenerator(ChartContext(2, 1, 0), (X(2), -X(1)), 0)
        lam = make_divergence_lagrangian(gen)
        assert is_zero_expr(lam.L)

    def test_second_order_needs_cyclic_condition(self):
        ctx = ChartContext(2, 1, 2)
        with pytest.raises(PreconditionError):
            DivergenceGenerator(ctx, (Y(1, 1, 1), const(0)), 2)
        # the pair (y_22, -y_12) satisfies the cyclic condition
        gen = DivergenceGenerator(ctx, (Y(1, 2, 2), -Y(1, 1, 2)), 2)
        lam = make_divergence_lagrangian(gen)
        assert is_zero_expr(lam.L)


@pytest.mark.parametrize("run, message", [
    (lambda: trivial_conditions_second_order(dirichlet()), "second-order check got order 1"),
    (lambda: order_reducible(dirichlet()), "order-reducibility check got order 1"),
    (lambda: DivergenceGenerator(ChartContext(2, 1, 1), (Y(1, 1),), 1), "need 2 components, got 1"),
    (lambda: DivergenceGenerator(ChartContext(2, 1, 3), (Y(1), Y(1)), 3),
     "generator order 3 > 2 is unsupported"),
    (lambda: DivergenceGenerator(ChartContext(2, 1, 2), (Y(1, 1, 2), Y(1)), 1),
     "component of order 2 exceeds declared order 1"),
    (lambda: DivergenceGenerator(ChartContext(2, 1, 2), (0, Y(1, 1, 1) * Y(1, 2) / (1 + Y(1, 1) ** 2)), 2),
     "cyclic condition on dg^i/dy_{jk} fails at (i,j,k)=(1,1,2): (y1_2)/(y1_1^2 + 1)"),
], ids=["expansion-order", "reducibility-order", "component-count", "generator-order", "component-order",
        "cyclic-condition"])
def test_precondition_refusal(run, message):
    with pytest.raises(PreconditionError) as info:
        run()
    assert str(info.value) == message


class TestElExpansion:
    def test_random_second_order(self):
        rng = random.Random(2)
        from lepage.verification import random_polynomial

        ctx = ChartContext(2, 1, 2)
        pool = list(ctx.coordinates())
        for _ in range(3):
            lam = Lagrangian(ctx, 2, random_polynomial(rng, pool, terms=3, degree=2))
            assert el_expansion_crosscheck(lam).passed

    def test_camassa_holm(self):
        assert el_expansion_crosscheck(camassa_holm()).passed

    def test_first_order_viewed_as_second(self):
        assert el_expansion_crosscheck(dirichlet(r=2)).passed

    @pytest.mark.parametrize("m", [1, 2])
    def test_cube_of_all_second_order_coordinates(self, m):
        # the expansion is summed one term at a time into one long sum
        coords = " + ".join(f"y1_{a}{b}" for a in range(1, 4) for b in range(a, 4))
        lam = parse_lagrangian(LagrangianSpec(3, m, 2, f"({coords})^3"))
        assert el_expansion_crosscheck(lam).passed


class TestSharedExpansion:
    """The second-order checks of one L node share the kept values of one
    expansion per chart and convention, so they read the same nodes."""

    # a nontrivial L, whose tc1 is nonzero and fails the triviality check
    # at once, and a trivial one, whose triviality check reads every c2,
    # some of them nonzero
    @pytest.mark.parametrize("lam, name", [
        (camassa_holm(), "tc1"),
        (make_divergence_lagrangian(DivergenceGenerator(
            ChartContext(2, 1, 1), (Y(1, 1) * Y(1, 2) ** 2 / 2, const(0)), 1)), "c2"),
    ], ids=["tc1", "c2"])
    def test_two_checks_read_the_identical_nonzero_nodes(self, monkeypatch, lam, name):
        read: dict = {}

        def spying(name):
            method = getattr(_Expansion, name)

            def spy(self, *args, **kwargs):
                out = method(self, *args, **kwargs)
                read.setdefault((name, args, tuple(kwargs.items())), []).append(out)
                return out
            return spy

        for method in ("tc1", "c2"):
            monkeypatch.setattr(_Expansion, method, spying(method))
        trivial_conditions_second_order(lam)
        first = {key: len(outs) for key, outs in read.items()}
        assert el_expansion_crosscheck(lam).passed
        shared = {key: outs for key, outs in read.items() if len(outs) > first.get(key, 0) > 0}
        assert all(out is outs[0] for outs in shared.values() for out in outs)
        assert any(key[0] == name and not is_zero_expr(outs[0]) for key, outs in shared.items())

    def test_one_expansion_per_node_chart_and_convention(self):
        lam = camassa_holm()
        twin = Lagrangian(lam.ctx, 2, lam.L)
        ex, shared = _expansion(lam, DEFAULT_CONVENTION), _expansion(twin, DEFAULT_CONVENTION)
        # two Lagrangians over one L node read the same kept nodes and report
        assert ex.tc1(1) is shared.tc1(1) and ex.c2(1, 1, 1, 1, 2) is shared.c2(1, 1, 1, 1, 2)
        assert order_reducible(lam) is order_reducible(twin)
        # the plain convention gets its own coefficients and report
        plain = _expansion(lam, Convention.PLAIN)
        assert plain.tc1(1) != ex.tc1(1) and plain.c2(1, 1, 1, 1, 2) != ex.c2(1, 1, 1, 1, 2)
        assert order_reducible(lam, Convention.PLAIN) is not order_reducible(lam)
        # and a second zero policy its own report, shared over the node
        policy = ZeroPolicy(seed=1)
        assert order_reducible(lam, policy=policy) is not order_reducible(lam)
        assert order_reducible(lam, policy=policy) is order_reducible(twin, policy=policy)


def _checked_equivalents(lam):
    """Build Theta, the Caratheodory form and, where it is defined, the
    fundamental form of lam, and run the contract and the checks on them and
    on lam; nothing built is returned."""
    equivalents = [principal_lepage(lam)]
    if lam.r == 1:
        equivalents += [caratheodory_first(lam), fundamental_first_order(lam)]
    else:
        equivalents.append(caratheodory_second(lam))
        trivial_conditions_second_order(lam)
        el_expansion_crosscheck(lam)
        if order_reducible(lam).passed:
            equivalents.append(fundamental_second_order_n2(lam)[0])
            combination_conditions(lam)
    for rho in equivalents:
        _contract(rho, lam)
        is_lepage_equivalent(rho, lam)
        closure_check(rho)
    is_trivial(lam)


class TestFreedByReferenceCounting:
    """A memo entry points from a node to what is derived from it, never
    back, so everything the forms and the checks build is freed by reference
    counting once it is dropped, with the cycle collector off."""

    @pytest.mark.parametrize("r, source", [
        (2, "y_11*y_22 - y_12^2 + y_1^2 + 1"),
        (2, "1/2*(y_1*y_2^2 + y_12^2/y_1)"),
        (1, "1/2*(y_1^2 + y_2^2)"),
    ], ids=["hessian-plus", "camassa-holm", "dirichlet"])
    def test_a_dropped_lagrangian_is_freed(self, r, source):
        gc.disable()
        try:
            lam = parse_lagrangian(LagrangianSpec(2, 1, r, source))
            node = weakref.ref(lam.L)
            lagrangian_form(lam)
            euler_lagrange_form(lam)
            _checked_equivalents(lam)
            del lam
            assert node() is None
        finally:
            gc.enable()

    def test_the_corpora_leave_no_cycles(self):
        gc.collect()
        gc.disable()
        try:
            for lam in first_order_corpus() + second_order_corpus():
                _checked_equivalents(lam)
            del lam
            assert gc.collect() == 0
        finally:
            gc.enable()


_SECOND_ORDER_CORPORA = [*second_order_corpus(), *trivial_order_reducible_corpus(),
                         *nontrivial_order_reducible_corpus()]


class TestZeroTerms:
    """The second-order checks leave zero terms out of their sums and stop a
    chain of partials at the first zero; neither changes a condition."""

    @pytest.mark.parametrize("lam", _SECOND_ORDER_CORPORA)
    def test_conditions_match_the_full_permutation_sums(self, lam):
        ex = _Expansion(lam, DEFAULT_CONVENTION)
        base, fibers = ex.base, ex.ctx.fiber_indices
        want = [("triviality[1]", canonicalize(ex.tc1(sigma))) for sigma in fibers]
        for label, term, heads, sizes in (("triviality[2]", ex.c2, 2, (3,)),
                                          ("triviality[3]", ex.c3, 3, (3, 3)),
                                          ("triviality[4]", ex.c4, 2, (4,))):
            groups = list(itertools.product(
                *(itertools.combinations_with_replacement(base, k) for k in sizes)))
            for head in itertools.product(fibers, repeat=heads):
                for group in groups:
                    perms = itertools.product(*map(itertools.permutations, group))
                    total = Add(tuple(term(*head, *sum(perm, ())) for perm in perms))
                    want.append((label, canonicalize(total)))
        got = [(label, canonicalize(condition)) for label, condition, _ in _triviality_conditions(ex)]
        m = lam.ctx.m
        assert [(label, expr_to_text(c, m)) for label, c in got] == \
            [(label, expr_to_text(c, m)) for label, c in want]

    @pytest.mark.parametrize("lam", _SECOND_ORDER_CORPORA)
    def test_mixed_partial_is_the_full_chain(self, lam):
        fibers, base = lam.ctx.fiber_indices, lam.ctx.base_indices
        for mu, nu, sigma in itertools.product(fibers, repeat=3):
            for s, t, j, p, q, i in itertools.product(base, repeat=6):
                slots = [(sigma, (i, j)), (nu, (p, q)), (mu, (s, t))]
                chained = lam.L
                for slot_sigma, index in slots:
                    chained = sym_partial(chained, slot_sigma, index, DEFAULT_CONVENTION)
                assert mixed_partial(lam.L, slots, DEFAULT_CONVENTION) == chained


class TestZeroBlocks:
    """The triviality[3] and [4] heads of a zero (sigma, nu) block of second
    partials yield zero without taking a term; the conditions, the verdict
    and the first failing witness are those of the full sums."""

    @settings(max_examples=60, deadline=None)
    @given(lam=_sparse_lagrangians().filter(lambda lam: lam.r == 2))
    def test_conditions_match_the_full_permutation_sums(self, lam):
        TestZeroTerms().test_conditions_match_the_full_permutation_sums(lam)

    # recorded before the skip; each has a nonzero block, and the two m = 2
    # Lagrangians zero blocks too: the diagonal ones of y1_11*y2_22, and the
    # (2, 2) block of y1_12^2*y2_11
    @pytest.mark.parametrize("m, source, want", [
        (1, "1/2*y_11^2", "FAIL triviality[4]: witness 24"),
        (1, "y_11^2*y_22", "FAIL triviality[3]: witness 24"),
        (2, "y1_11*y2_22", "FAIL triviality[4]: witness 4"),
        (2, "y1_12^2*y2_11", "FAIL triviality[3]: witness 8"),
        (1, "y_11*y_22 - y_12^2", "PASS triviality"),
        (2, "y1_1*y2_2 - y1_2*y2_1", "PASS triviality"),
    ])
    def test_pinned_reports(self, m, source, want):
        lam = parse_lagrangian(LagrangianSpec(2, m, 2, source))
        assert trivial_conditions_second_order(lam).describe(m) == want

    def test_a_zero_block_takes_no_term(self, monkeypatch):
        # the m = 2 null Lagrangian is first order, so every block is zero
        taken = []
        c3, c4 = _Expansion.c3, _Expansion.c4
        monkeypatch.setattr(_Expansion, "c3", lambda self, *a: taken.append(a) or c3(self, *a))
        monkeypatch.setattr(_Expansion, "c4", lambda self, *a: taken.append(a) or c4(self, *a))
        lam = parse_lagrangian(LagrangianSpec(2, 2, 2, "y1_1*y2_2 - y1_2*y2_1"))
        ex = _Expansion(lam, DEFAULT_CONVENTION)
        conditions = [label for label, _, _ in _triviality_conditions(ex)]
        assert not taken
        assert conditions.count("triviality[3]") == 8 * 16 and conditions.count("triviality[4]") == 4 * 5


def _hessian_minors(n, sigma):
    """The sum of the 2x2 principal minors of the Hessian y^sigma_{ab}, a null Lagrangian."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    return sum((Y(sigma, a, a) * Y(sigma, b, b) - Y(sigma, a, b) ** 2 for a, b in pairs), const(0))


def _trivial(chart, seed, kind):
    """A seeded divergence d_i g^i, a sum of Hessian minors, or both."""
    n, m = chart
    rng = random.Random(seed)
    divergence = random_divergence_lagrangian(ChartContext(n, m, 1), rng)
    minors = _hessian_minors(n, rng.randint(1, m))
    L = {"divergence": divergence.L, "minors": minors, "sum": divergence.L + minors}[kind]
    return lag(n, m, 2, L)


def _random_second_order(chart, seed):
    n, m = chart
    ctx = ChartContext(n, m, 2)
    pool = list(ctx.coordinates())
    return Lagrangian(ctx, 2, random_polynomial(random.Random(seed), pool, terms=3, degree=3))


_charts = st.tuples(st.sampled_from([2, 3]), st.sampled_from([1, 2]))
_seeds = st.integers(0, 2**16)


class TestSecondOrderFamilies:
    """The chart conditions, the Euler-Lagrange expressions and their
    expansion agree on generated second-order Lagrangians, n in {2, 3}."""

    @settings(max_examples=25, deadline=None)
    @given(lam=st.builds(_trivial, _charts, _seeds, st.sampled_from(["divergence", "minors", "sum"])))
    def test_trivial_families_pass(self, lam):
        assert trivial_conditions_second_order(lam).passed
        assert is_trivial(lam).passed
        assert el_expansion_crosscheck(lam).passed

    @settings(max_examples=25, deadline=None)
    @given(lam=st.builds(_random_second_order, _charts, _seeds))
    def test_conditions_agree_with_euler_lagrange(self, lam):
        assert trivial_conditions_second_order(lam).passed == is_trivial(lam).passed
        assert el_expansion_crosscheck(lam).passed


class TestCalibration:
    def test_unique_winner(self):
        report = calibrate_convention()
        assert report.unique
        assert report.winner == (Convention.SYMMETRIZED, Convention.SYMMETRIZED)
        assert report.ch_witness is not None
        assert "y1_1" in report.ch_witness

    def test_deterministic(self):
        a = calibrate_convention().render()
        b = calibrate_convention().render()
        assert a == b

    def test_documented_report_is_the_printed_one(self):
        text = (Path(__file__).resolve().parents[1] / "docs" / "calibration.md").read_text(encoding="utf-8")
        block = text.split("## Frozen result", 1)[1].split("```\n")[1]
        assert block == calibrate_convention().render() + "\n"

    def test_empty_corpus_rejected(self):
        with pytest.raises(PreconditionError):
            calibrate_convention(corpus=[])

    def test_nontrivial_member_rejected(self):
        with pytest.raises(PreconditionError):
            calibrate_convention(corpus=[dirichlet(r=2)])

    def test_divergence_only_corpus_may_be_ambiguous(self):
        # degenerate members cannot discriminate: every combination passes
        gen = DivergenceGenerator(ChartContext(2, 1, 0), (X(2) * Y(1), const(0)), 0)
        lam = Lagrangian(ChartContext(2, 1, 2), 2, make_divergence_lagrangian(gen).L)
        report = calibrate_convention(corpus=[lam])
        assert len(report.passing) == 4
        assert not report.unique


def _parsed(n, m, source, r=2):
    return parse_lagrangian(LagrangianSpec(n, m, r, source))


# Every label a check can fail with, each reached by one input; the second-order
# inputs of the unpinned labels come from a seeded random search.
FIRST_FAILURES = [
    ("lepage-contact", lambda: is_lepage_form(lagrangian_form(dirichlet())), 1,
     "FAIL lepage-contact: witness y_1: at y1_1=1.37769: offending basis term dx1 ∧ dx2 ∧ w1_1"),
    ("horizontal-mismatch",
     lambda: is_lepage_equivalent(principal_lepage(dirichlet()), _parsed(2, 1, "y_1^2 + y_2^2", 1)), 1,
     "FAIL horizontal-mismatch: witness -(1/2)*y_2^2 - (1/2)*y_1^2: at y1_1=1.37769, y1_2=1.03182"),
    ("euler-lagrange[1]", lambda: is_trivial(dirichlet()), 1,
     "FAIL euler-lagrange[1]: witness -y_22 - y_11: at y1_11=1.37769, y1_22=1.03182"),
    ("triviality[1]", lambda: trivial_conditions_second_order(camassa_holm()), 1,
     "FAIL triviality[1]: witness -2*y_2*y_12 - y_1*y_22 + y_1^(-3)*y_11*y_12^2: at y1_1=1.37769, "
     "y1_2=1.03182, y1_11=-0.317714, y1_12=-0.964333, y1_22=0.0450989"),
    ("triviality[2]",
     lambda: trivial_conditions_second_order(_parsed(2, 1, "-y_22 + (1/2)*y_2*y_12*y_22")), 1,
     "FAIL triviality[2]: witness 3*y_22: at y1_22=1.37769"),
    ("triviality[3]",
     lambda: trivial_conditions_second_order(
         _parsed(2, 2, "(1/3)*y2_12 - y2_2*y2_11 - y1_11*y1_12*y2_22")), 2,
     "FAIL triviality[3]: witness -4"),
    ("triviality[4]",
     lambda: trivial_conditions_second_order(hessian_determinant(), Convention.PLAIN), 1,
     "FAIL triviality[4]: witness -24"),
    ("order-reducibility[1]", lambda: order_reducible(_parsed(2, 1, "(1/2)*y_11^2")), 1,
     "FAIL order-reducibility[1]: witness 1"),
    ("order-reducibility[5]", lambda: order_reducible(camassa_holm()), 1,
     "FAIL order-reducibility[5]: witness (1/2)*y_1^(-1): at y1_1=1.37769"),
    ("order-reducibility[cyclic]",
     lambda: order_reducible(_parsed(3, 1, "(1/3)*y_11*y_13 - (1/2)*y_1*y_12 + 2*x1")), 1,
     "FAIL order-reducibility[cyclic]: witness 1/2"),
    ("combination[1]", lambda: combination_conditions(dirichlet(r=2)), 1,
     "FAIL combination[1]: witness -y_22 - y_11: at y1_11=1.37769, y1_22=1.03182"),
    ("combination[2]", lambda: combination_conditions(_parsed(2, 2, "2*x2^2 - 2*x2*y1_11*y2_1")), 2,
     "FAIL combination[2]: witness -2*x2: at x2=1.37769"),
    ("combination[3]", lambda: combination_conditions(_parsed(2, 2, "y1_1*y2_12")), 2,
     "FAIL combination[3]: witness -1"),
    ("combination[4]", lambda: combination_conditions(_parsed(2, 2, "2*y1_22*y2_1")), 2,
     "FAIL combination[4]: witness 2"),
    ("combination[sym]", lambda: combination_conditions(_parsed(3, 2, "y1_1*y2_13")), 2,
     "FAIL combination[sym]: witness -2"),
    ("el-expansion[1]", lambda: el_expansion_crosscheck(camassa_holm(), Convention.PLAIN), 1,
     "FAIL el-expansion[1]: witness -3*y_1^(-1)*y_1122 + 3*y_1^(-2)*y_12*y_112 "
     "+ 3*y_1^(-2)*y_11*y_122 - 2*y_1^(-3)*y_11*y_12^2: at y1_1=1.37769, y1_11=1.03182, "
     "y1_12=-0.317714, y1_112=-0.964333, y1_122=0.0450989, y1_1122=-0.380263"),
    ("closure", lambda: closure_check(principal_lepage(dirichlet())), 1,
     "FAIL closure: witness -y_22 - y_11: at y1_11=1.37769, y1_22=1.03182: "
     "nonzero at basis term dx1 ∧ dx2 ∧ w1"),
]


class TestFirstFailureLabels:
    @pytest.mark.parametrize(
        "label, run, m, expected", FIRST_FAILURES, ids=[row[0] for row in FIRST_FAILURES]
    )
    def test_first_failure_is_pinned(self, label, run, m, expected):
        report = run()
        assert not report.passed
        assert report.label == label
        assert report.describe(m) == expected
