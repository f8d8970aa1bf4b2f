"""Exterior algebra in the contact-adapted coframe."""
import itertools
import json
import random
from fractions import Fraction

import pytest

from lepage import (
    BaseVar,
    ChartContext,
    ChartError,
    Dx,
    FiberVar,
    FormError,
    MultiIndex,
    Omega,
    OrderReducibilityError,
    Pow,
    UndefinedFormError,
    X,
    Y,
    canonicalize,
    caratheodory_first,
    caratheodory_second,
    const,
    contact_component,
    diff,
    dx,
    exterior_derivative,
    form_from_json,
    form_is_zero,
    form_to_json,
    forms_equal,
    fundamental_first_order,
    fundamental_second_order_n2,
    horizontalization,
    levi_civita,
    make_form,
    max_jet_order,
    omega,
    omega_basis,
    principal_lepage,
    substitute,
    total_derivative,
    wedge,
    wedge_all,
    zero_form,
)
from lepage.expr import ExprError, Mul, Rat, as_expr, is_zero_expr
from lepage.charts import var_key as coframe_key
from lepage.serialize import SCHEMA_VERSION
from lepage.verification import first_order_corpus, random_polynomial, second_order_corpus

CTX = ChartContext(2, 1, 1)


def test_levi_civita():
    assert levi_civita((1, 2)) == 1
    assert levi_civita((2, 1)) == -1
    assert levi_civita((1, 1)) == 0
    assert levi_civita((3, 1, 2)) == 1


class TestWedge:
    def test_repeated_element_annihilates(self):
        assert wedge(dx(CTX, 1), dx(CTX, 1)).is_structurally_zero()

    def test_graded_commutativity(self):
        a, b = dx(CTX, 1), dx(CTX, 2)
        assert forms_equal(wedge(a, b), wedge(b, a).scaled(-1))

    def test_reordering_sign(self):
        # (y_1 dx1) ^ (w1 ^ dx2) lands on the sorted basis (dx1, dx2, w1)
        left = dx(CTX, 1).scaled(Y(1, 1))
        right = wedge(omega(CTX, 1), dx(CTX, 2))
        out = wedge(left, right)
        key = (Dx(1), Dx(2), Omega(1, MultiIndex()))
        # dx1 ^ w1 ^ dx2 = -(dx1 ^ dx2 ^ w1): one transposition
        assert out.coefficient(key) == canonicalize(-Y(1, 1))

    def test_even_degree_squares(self):
        two_form = wedge(dx(CTX, 1), omega(CTX, 1))
        sq = wedge(two_form, two_form)
        assert sq.is_structurally_zero()  # repeated factors

    def test_odd_degree_square_vanishes(self):
        a = dx(CTX, 1).scaled(Y(1, 1)) + omega(CTX, 1) + dx(CTX, 2).scaled(X(1))
        assert form_is_zero(wedge(a, a))

    def test_chart_mismatch(self):
        with pytest.raises(ChartError):
            wedge(dx(CTX, 1), dx(ChartContext(3, 1, 1), 1))

    def test_associativity(self):
        a = dx(CTX, 1).scaled(Y(1, 1)) + omega(CTX, 1)
        b = dx(CTX, 2).scaled(Y(1)) + omega(CTX, 1).scaled(X(1))
        c = dx(CTX, 2) + dx(CTX, 1).scaled(Y(1, 2))
        assert forms_equal(wedge(wedge(a, b), c), wedge(a, wedge(b, c)))

    def test_graded_sign_mixed_degrees(self):
        one = dx(CTX, 1).scaled(Y(1, 1)) + omega(CTX, 1)
        two = wedge(dx(CTX, 2), omega(CTX, 1)).scaled(Y(1))
        # deg 1 x deg 2: sign (-1)^2 = +1
        assert forms_equal(wedge(one, two), wedge(two, one))


class TestExteriorDerivative:
    def test_base_function(self):
        got = exterior_derivative(dx(CTX, 2).scaled(X(1)))
        assert got.coefficient((Dx(1), Dx(2))) == canonicalize(const(1))
        assert len(got.terms) == 1

    def test_lagrangian_volume(self):
        # d(y omega_0) = omega^1 ^ dx1 ^ dx2 (only the contact part survives)
        omega0, _ = omega_basis(CTX)
        got = exterior_derivative(omega0.scaled(Y(1)))
        key = (Omega(1, MultiIndex()), Dx(1), Dx(2))
        assert got.coefficient(key) == canonicalize(const(1))
        assert len(got.terms) == 1

    def test_structural_rule(self):
        # d(w1) = dx1 ^ w1_1 + dx2 ^ w1_2
        got = exterior_derivative(omega(CTX, 1))
        for i in (1, 2):
            assert got.coefficient((Dx(i), Omega(1, MultiIndex((i,))))) == canonicalize(const(1))
        assert len(got.terms) == 2

    def test_dd_zero_on_random_corpus(self):
        rng = random.Random(5)
        ctx = ChartContext(2, 1, 1)
        pool = list(ctx.coordinates())
        elements = [
            (),
            (Dx(1),),
            (Dx(2),),
            (Omega(1, MultiIndex()),),
            (Dx(1), Omega(1, MultiIndex())),
            (Dx(1), Dx(2)),
        ]
        for degree in (0, 1, 2):
            keys = [k for k in elements if len(k) == degree]
            for _ in range(4):
                entries = [(k, random_polynomial(rng, pool, terms=3, degree=2)) for k in keys]
                form = make_form(ctx, degree, entries, 1)
                dd = exterior_derivative(exterior_derivative(form))
                assert form_is_zero(dd), f"dd != 0 for degree {degree}"


class TestProjections:
    def setup_method(self):
        self.w = omega(CTX, 1)
        self.mixed = wedge(self.w, dx(CTX, 2)) + wedge(dx(CTX, 1), dx(CTX, 2)).scaled(Y(1))

    def test_horizontalization_kills_contact(self):
        assert form_is_zero(horizontalization(wedge(self.w, dx(CTX, 2))))

    def test_lagrangian_extraction(self):
        omega0, _ = omega_basis(CTX)
        lag = omega0.scaled(Y(1, 1) ** 2)
        two_contact = wedge(omega(CTX, 1), omega(CTX, 1).scaled(Y(1)))  # zero anyway
        f = lag + two_contact
        assert forms_equal(horizontalization(f), lag)

    def test_h_is_projection(self):
        h1 = horizontalization(self.mixed)
        assert forms_equal(horizontalization(h1), h1)

    def test_contact_components_partition(self):
        total = zero_form(CTX, 2, self.mixed.order)
        for k in range(self.mixed.degree + 1):
            total = total + contact_component(self.mixed, k)
        assert forms_equal(total, self.mixed)

    def test_contact_orthogonality(self):
        for j in range(3):
            for k in range(3):
                if j != k:
                    pk = contact_component(self.mixed, k)
                    assert form_is_zero(contact_component(pk, j)) or j > pk.degree

    def test_beyond_degree_is_zero(self):
        assert contact_component(self.mixed, 3).is_structurally_zero()

    def test_p0_is_horizontalization(self):
        assert forms_equal(contact_component(self.mixed, 0), horizontalization(self.mixed))

    def test_h_of_d_of_an_n_form_vanishes(self):
        # an (n+1)-horizontal form over an n-dimensional base has no basis
        from lepage import camassa_holm, dirichlet, principal_lepage

        for lam in (dirichlet(), camassa_holm()):
            d_theta = exterior_derivative(principal_lepage(lam))
            assert horizontalization(d_theta).is_structurally_zero()

    def test_h_is_algebra_morphism(self):
        a = dx(CTX, 1).scaled(Y(1, 1)) + omega(CTX, 1).scaled(Y(1))
        b = dx(CTX, 2).scaled(X(2)) + omega(CTX, 1)
        left = horizontalization(wedge(a, b))
        right = wedge(horizontalization(a), horizontalization(b))
        assert forms_equal(left, right)

    def test_made_terms_are_not_made_again(self, monkeypatch):
        # a lifted order, a projection and a difference keep terms that are
        # already normal, canonical, nonzero and valid
        from lepage import forms

        a, b = self.mixed, wedge(dx(CTX, 1), self.w).scaled(X(1)) + wedge(self.w, dx(CTX, 2))
        calls = []
        for name in ("_normal_key", "make_form"):
            real = getattr(forms, name)
            monkeypatch.setattr(forms, name, lambda *a, _real=real, _name=name, **kw:
                                calls.append(_name) or _real(*a, **kw))
        lifted = a.at_order(a.order + 1)
        parts = [horizontalization(a), contact_component(a, 1), contact_component(a, 2)]
        assert calls == []
        assert lifted.terms == a.terms and lifted.order == lifted.ctx.max_order == a.order + 1
        assert [p.terms for p in parts] == [{k: c for k, c in a.terms.items() if a.contact_count(k) == j}
                                            for j in range(3)]
        difference = a - b
        assert calls.count("make_form") == 1
        calls.clear()
        assert difference == a + b.scaled(-1)
        assert calls.count("make_form") == 1
        calls.clear()
        # coefficient-only operations keep the made keys; coefficient checks
        # and sorts its tuple through the same step as make_form
        scaled, negated = b.scaled(X(1)), -b
        assert calls == []
        assert scaled.terms.keys() == negated.terms.keys() == b.terms.keys()
        for key, c in b.terms.items():
            assert b.coefficient(key) is c and b.coefficient(key[::-1]) == canonicalize(-c)
        assert "make_form" not in calls


def _corpus_forms():
    """(Lagrangian, form) for Theta, Lambda and Z of every corpus member, where defined."""
    for lam in first_order_corpus():
        for build in (principal_lepage, caratheodory_first, fundamental_first_order):
            yield lam, build(lam)
    for lam in second_order_corpus():
        for build in (principal_lepage, caratheodory_second, lambda lam: fundamental_second_order_n2(lam)[0]):
            try:
                yield lam, build(lam)
            except (UndefinedFormError, OrderReducibilityError):
                pass


class TestMadeForms:
    """scaled, negation and coefficient keep made keys, and give the nodes
    that remaking the form through make_form gives."""

    def test_same_terms_as_remade(self):
        forms = list(_corpus_forms())
        assert len(forms) > 50
        for lam, rho in forms:
            for factor in (0, -1, Fraction(1, 2), X(1), Pow(lam.L, 1 - lam.ctx.n)):
                f = as_expr(factor)
                remade = make_form(rho.ctx, rho.degree, [(k, f * c) for k, c in rho.terms.items()],
                                   max(rho.order, max_jet_order(f)))
                out = rho.scaled(factor)
                assert list(out.terms.items()) == list(remade.terms.items())
                assert (out.ctx, out.order) == (remade.ctx, remade.order)
            assert list((-rho).terms.items()) == list(rho.scaled(-1).terms.items())
            for key, c in rho.terms.items():
                for perm in itertools.permutations(range(len(key))):
                    expected = canonicalize(const(levi_civita(perm)) * c)
                    assert rho.coefficient([key[i] for i in perm]) == expected


class TestOmegaBasis:
    def test_n2(self):
        _, omegas = omega_basis(CTX)
        assert omegas[0].coefficient((Dx(2),)) == canonicalize(const(1))
        assert omegas[1].coefficient((Dx(1),)) == canonicalize(const(-1))

    def test_defining_identity(self):
        omega0, omegas = omega_basis(CTX)
        for i in (1, 2):
            for j in (1, 2):
                prod = wedge(dx(CTX, i), omegas[j - 1])
                if i == j:
                    assert forms_equal(prod, omega0)
                else:
                    assert form_is_zero(prod)

    def test_n3(self):
        ctx = ChartContext(3, 1, 1)
        _, omegas = omega_basis(ctx)
        assert omegas[1].coefficient((Dx(1), Dx(3))) == canonicalize(const(-1))


class TestAdaptedSplit:
    def test_df_contact_part_matches_partials(self):
        ctx = ChartContext(2, 1, 1)
        f = Y(1, 1) ** 2 * Y(1) + X(2) * Y(1, 2)
        df = exterior_derivative(make_form(ctx, 0, [((), f)], 1))
        p1 = contact_component(df, 1)
        for v in (FiberVar(1, MultiIndex()), FiberVar(1, MultiIndex((1,))), FiberVar(1, MultiIndex((2,)))):
            assert p1.coefficient((Omega(v.sigma, v.jj),)) == diff(f, v)

    def test_df_horizontal_part_matches_total_derivative(self):
        ctx = ChartContext(2, 1, 1)
        f = Y(1, 1) ** 2 * Y(1) + X(2) * Y(1, 2)
        df = exterior_derivative(make_form(ctx, 0, [((), f)], 1))
        h = horizontalization(df)
        for i in (1, 2):
            assert h.coefficient((Dx(i),)) == total_derivative(f, i, ctx)


class TestPullbackOracle:
    def test_pullback_commutes_with_d(self):
        """Pulling a 1-form back along a prolonged section kills the contact
        terms; the exterior derivative must then match the plane curl of the
        pulled-back coefficients."""
        import random as _random

        from lepage import BaseVar, substitute
        from section_oracle import _random_section_polynomial, prolongation_bindings

        ctx = ChartContext(2, 1, 1)
        rng = _random.Random(9)
        pool = list(ctx.coordinates())
        for _ in range(3):
            entries = [
                ((Dx(1),), random_polynomial(rng, pool, terms=3, degree=2)),
                ((Dx(2),), random_polynomial(rng, pool, terms=3, degree=2)),
                ((Omega(1, MultiIndex()),), random_polynomial(rng, pool, terms=3, degree=2)),
            ]
            rho = make_form(ctx, 1, entries, 1)
            d_rho = exterior_derivative(rho)
            gamma = [_random_section_polynomial(ctx, rng, degree=3)]
            bindings = prolongation_bindings(gamma, ctx, 2)
            f1 = substitute(rho.coefficient((Dx(1),)), bindings)
            f2 = substitute(rho.coefficient((Dx(2),)), bindings)
            curl = canonicalize(diff(f2, BaseVar(1)) - diff(f1, BaseVar(2)))
            pulled = substitute(d_rho.coefficient((Dx(1), Dx(2))), bindings)
            assert is_zero_expr(canonicalize(pulled - curl))


class TestValidation:
    @pytest.mark.parametrize("build, error, message", [
        (lambda: zero_form(CTX, 2, 2).at_order(1), FormError, "cannot lower declared order 2 to 1"),
        (lambda: zero_form(CTX, 2) + zero_form(CTX, 1), FormError, "cannot add forms of degree 2 and 1"),
        (lambda: make_form(CTX, -1, [], 1), FormError, "negative degree -1"),
        (lambda: make_form(CTX, 1, [((Omega(2, MultiIndex()),), const(1))], 1),
         ChartError, "omega fiber index 2 out of range 1..1"),
        (lambda: make_form(CTX, 1, [((Omega(1, MultiIndex((3,))),), const(1))], 2),
         ChartError, "omega index (3,) out of range 1..2"),
        (lambda: wedge_all([]), FormError, "empty wedge product"),
        (lambda: contact_component(zero_form(CTX, 2), -1), FormError, "negative contact count -1"),
    ], ids=["lowered-order", "mixed-degrees", "negative-degree", "omega-fiber", "omega-index",
            "empty-wedge", "negative-contact-count"])
    def test_input_error(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message

    def test_contact_label_needs_order(self):
        with pytest.raises(FormError):
            make_form(CTX, 1, [((Omega(1, MultiIndex((1,))),), const(1))], 1)

    def test_a_refused_key_is_refused_on_every_call(self):
        # each wedge tuple is normalized and range-checked once per process;
        # a refusal is not kept, and an element that is not a Dx or Omega is
        # refused, so no plain tuple that equals a Dx or an Omega is kept
        for _ in range(2):
            with pytest.raises(ChartError, match="dx index 3 out of range"):
                make_form(CTX, 1, [((Dx(3),), const(1))], 1)
            with pytest.raises(FormError, match="not a coframe element"):
                make_form(CTX, 1, [((("dx", 1),), const(1))], 1)
        assert list(make_form(CTX, 1, [((Dx(1),), const(1))], 1).terms) == [(Dx(1),)]

    def test_coordinates_are_refused_after_equal_coframe_tuples(self):
        # BaseVar(1) == Dx(1) as tuples, so a coordinate tuple would hit the
        # normalization cache that the dx1 ∧ dx2 form warms
        form = make_form(CTX, 2, [((Dx(1), Dx(2)), Y(1, 1))], 1)
        for elements in [(BaseVar(1), BaseVar(2)), (FiberVar(1, MultiIndex()), Dx(1)), ("junk",)]:
            with pytest.raises(FormError, match="is not a coframe element"):
                make_form(CTX, len(elements), [(elements, Y(1, 1))], 1)
            with pytest.raises(FormError, match="is not a coframe element"):
                form.coefficient(elements)
        with pytest.raises(ChartError, match="is not a coordinate"):
            substitute(X(1) * Y(1, 1), {Dx(1): 3})

    def test_coefficient_order_bound(self):
        with pytest.raises(FormError):
            make_form(CTX, 0, [((), Y(1, 1, 2))], 1)

    def test_cancelled_higher_order_pieces_are_accepted(self):
        # the y_12 pieces cancel, so the order-1 coefficient is 1
        q = Y(1, 1) / (1 + Y(1, 1, 2))
        form = make_form(CTX, 0, [((), q), ((), const(1)), ((), -q)], 1)
        assert form.coefficient(()) == canonicalize(const(1))

    def test_zero_coefficients_are_dropped(self):
        # a Rat 0 is dropped before its key is normalized; canonical operands
        # multiply to a Rat 0 at once, and a raw zero product sums to zero
        zero = canonicalize(const(0))
        products = [const(1, 2) * zero, const(0) * canonicalize(Y(1, 1)), Y(1) * 0]
        assert [p.__class__ for p in products] == [Rat, Rat, Mul]
        keys = [(Dx(1),), (Dx(2),), (Omega(1, MultiIndex()),)]
        entries = [((Dx(1),), zero), ((Dx(2),), const(0)), *zip(keys, products)]
        assert make_form(CTX, 1, entries, 1).is_structurally_zero()

    def test_an_undefined_zero_product_is_refused(self):
        with pytest.raises(ExprError, match="identically zero denominator"):
            make_form(CTX, 1, [((Dx(1),), const(0) * (X(1) / (X(2) - X(2))))], 1)

    def test_degree_mismatch(self):
        with pytest.raises(FormError):
            make_form(CTX, 2, [((Dx(1),), const(1))], 1)

    def test_coframe_order_fixed(self):
        assert coframe_key(Dx(2)) < coframe_key(Omega(1, MultiIndex()))
        assert coframe_key(Omega(1, MultiIndex())) < coframe_key(Omega(1, MultiIndex((1,))))
        assert coframe_key(Omega(1, MultiIndex((2,)))) < coframe_key(Omega(2, MultiIndex()))


# One malformed degree-1 wedge tuple per row over the chart (2, 1, order):
# (elements, order, error, message, the label a form document spells it
# with, or None where no document can)
_MALFORMED_TUPLES = [
    ((Dx(True),), 1, ChartError, "coframe indices must be ints, got Dx(i=True)", None),
    ((BaseVar(1),), 1, FormError, "BaseVar(i=1) is not a coframe element", None),
    ((Dx(3),), 1, ChartError, "dx index 3 out of range 1..2", "dx3"),
    ((Omega(2, MultiIndex()),), 1, ChartError, "omega fiber index 2 out of range 1..1", "w2"),
    ((Omega(1, MultiIndex((3,))),), 2, ChartError, "omega index (3,) out of range 1..2", "w1_3"),
    ((Omega(1, MultiIndex((1,))),), 1, FormError,
     "contact label omega^1_(1,) needs order 2, declared 1", "w1_1"),
]


class TestOneWedgeTuplePath:
    """make_form, ExteriorForm.coefficient and the JSON reader check and sort
    a wedge tuple through one step, so each refuses a malformed one alike."""

    @pytest.mark.parametrize("elements, order, error, message, label", _MALFORMED_TUPLES,
                             ids=["bool-index", "coordinate", "dx-range", "omega-fiber", "omega-index",
                                  "omega-order"])
    def test_every_path_refuses_alike(self, elements, order, error, message, label):
        ctx = ChartContext(2, 1, order)
        # dx1 is made first: True == 1 and BaseVar(1) == Dx(1), so the first
        # two rows would find its cached entry if they reached the cache
        made = make_form(ctx, 1, [((Dx(1),), X(1))], order)
        builds = [lambda: make_form(ctx, 1, [(elements, X(1))], order), lambda: made.coefficient(elements)]
        if label is not None:
            doc = {"schema": SCHEMA_VERSION, "chart": {"n": 2, "m": 1, "order": order}, "degree": 1,
                   "terms": [{"coeff": "x1", "basis": [label]}]}
            builds.append(lambda: form_from_json(json.dumps(doc)))
        for build in builds:
            with pytest.raises(error) as info:
                build()
            assert type(info.value) is error and str(info.value) == message

    def test_an_entry_whose_pieces_cancel_is_checked(self):
        with pytest.raises(ChartError, match="dx index 3 out of range"):
            make_form(CTX, 1, [((Dx(3),), X(1)), ((Dx(3),), -X(1))], 1)

    @pytest.mark.parametrize("label, order, message", [
        ("w1_21", 3, "coframe label 'w1_21' must be spelled 'w1_12'"),
        ("dx01", 1, "coframe label 'dx01' must be spelled 'dx1'"),
        ("w1_12", 3, None),
    ], ids=["unsorted-index", "leading-zero", "written-spelling"])
    def test_a_document_label_is_read_only_as_written(self, label, order, message):
        doc = {"schema": SCHEMA_VERSION, "chart": {"n": 2, "m": 1, "order": order}, "degree": 1,
               "terms": [{"coeff": "x1", "basis": [label]}]}
        if message is not None:
            with pytest.raises(FormError) as info:
                form_from_json(json.dumps(doc))
            assert str(info.value) == message
        else:
            assert json.loads(form_to_json(form_from_json(json.dumps(doc)))) == doc

    def test_a_repeated_document_basis_is_refused(self):
        # the step gives None for a repeated element, which is not the basis
        doc = {"schema": SCHEMA_VERSION, "chart": {"n": 2, "m": 1, "order": 1}, "degree": 2,
               "terms": [{"coeff": "1", "basis": ["dx1", "dx1"]}]}
        with pytest.raises(FormError, match="is not strictly increasing"):
            form_from_json(json.dumps(doc))
