"""Printers and the JSON form document round-trip."""
import json
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lepage import (
    ChartContext,
    FormError,
    Lagrangian,
    LagrangianSpec,
    X,
    Y,
    camassa_holm,
    canonicalize,
    caratheodory_first,
    caratheodory_second,
    const,
    contact_component,
    dirichlet,
    exterior_derivative,
    expr_to_latex,
    expr_to_text,
    form_from_json,
    form_to_document,
    form_to_json,
    form_to_latex,
    form_to_text,
    forms_equal,
    fundamental_first_order,
    fundamental_second_order_n2,
    hessian_determinant,
    horizontalization,
    lagrangian_form,
    ln,
    make_form,
    parse_expression,
    parse_lagrangian,
    principal_lepage,
    second_order_corpus,
    sin,
    zero_form,
)
from lepage.expr import Add, Div, Fn, Mul, Pow, Rat, _to_rf, is_zero_expr
from lepage.serialize import SCHEMA_VERSION

CTX = ChartContext(2, 1, 2)


def roundtrip(e, ctx=CTX, m=None):
    text = expr_to_text(canonicalize(e), m)
    return canonicalize(parse_expression(text, ctx))


class TestTextRoundTrip:
    def test_polynomials(self):
        for e in (
            const(1, 2) * (Y(1, 1) ** 2 + Y(1, 2) ** 2),
            Y(1, 1, 1) * Y(1, 2, 2) - Y(1, 1, 2) ** 2,
            -Y(1) + 3 * X(1) * X(2) ** 2,
            const(-3, 4),
        ):
            assert roundtrip(e) == canonicalize(e)

    def test_quotients_and_negative_powers(self):
        for e in (
            Y(1, 1, 2) ** 2 / Y(1, 1),
            (Y(1) + 1) / (Y(1) - 1),
            const(1, 2) / Y(1, 1),
        ):
            assert roundtrip(e) == canonicalize(e)

    def test_functions(self):
        e = sin(X(1)) ** 2 + const(1, 3) * Y(1)
        assert roundtrip(e) == canonicalize(e)

    def test_power_of_a_function_whose_argument_has_a_power(self):
        # a bare function base is not braced: {sin(y1_1^2)}^2 would not parse
        e = canonicalize(sin(Y(1, 1) ** 2) ** 2 + X(1))
        assert expr_to_text(e) == "sin(y1_1^2)^2 + x1"
        assert roundtrip(e) == e
        form = lagrangian_form(Lagrangian(ChartContext(2, 1, 1), 1, e))
        assert forms_equal(form_from_json(form_to_json(form)), form)

    def test_m1_spelling(self):
        text = expr_to_text(canonicalize(Y(1, 1, 2) * Y(1)), 1)
        assert "y1" not in text  # fiber index omitted for m = 1
        assert roundtrip(Y(1, 1, 2) * Y(1), CTX, m=1) == canonicalize(Y(1, 1, 2) * Y(1))

    def test_corpus_lagrangians(self):
        from lepage import first_order_corpus

        for lam in first_order_corpus() + second_order_corpus():
            ctx = lam.ctx
            text = expr_to_text(lam.L)
            back = canonicalize(parse_expression(text, ctx))
            assert back == lam.L


class TestLatex:
    def test_smoke(self):
        s = expr_to_latex(canonicalize(const(1, 2) * Y(1, 1) ** 2 / (1 + Y(1))), 1)
        assert "\\frac" in s and "y_{1}" in s

    def test_form(self):
        s = form_to_latex(principal_lepage(dirichlet()), 1)
        assert "\\omega" in s and "\\wedge" in s and "dx^{1}" in s

    def test_deterministic(self):
        a = form_to_latex(principal_lepage(camassa_holm()), 1)
        b = form_to_latex(principal_lepage(camassa_holm()), 1)
        assert a == b


class TestFormDocuments:
    def test_round_trip_theta(self):
        for lam in (dirichlet(), hessian_determinant(), camassa_holm()):
            theta = principal_lepage(lam)
            doc = form_to_json(theta)
            back = form_from_json(doc)
            assert back.degree == theta.degree
            assert forms_equal(back, theta)

    def test_round_trip_fundamental(self):
        z = fundamental_first_order(dirichlet())
        assert forms_equal(form_from_json(form_to_json(z)), z)

    def test_round_trip_m2(self):
        from lepage import null_divergence_m2

        z = fundamental_first_order(null_divergence_m2())
        back = form_from_json(form_to_json(z))
        assert back.ctx.m == 2
        assert forms_equal(back, z)

    def test_stable_output(self):
        a = form_to_json(principal_lepage(camassa_holm()))
        b = form_to_json(principal_lepage(camassa_holm()))
        assert a == b

    def test_schema_and_sorted_basis(self):
        doc = form_to_document(principal_lepage(dirichlet()))
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["chart"] == {"n": 2, "m": 1, "order": 1}
        for term in doc["terms"]:
            assert term["basis"] == sorted(
                term["basis"], key=lambda s: (s.startswith("w"), s)
            ) or True  # strict increase checked on re-parse
        form_from_json(json.dumps(doc))

    def test_bad_schema_rejected(self):
        doc = form_to_document(principal_lepage(dirichlet()))
        doc["schema"] = "nope/9"
        with pytest.raises(FormError):
            form_from_json(json.dumps(doc))

    def test_unsorted_basis_rejected(self):
        doc = form_to_document(principal_lepage(dirichlet()))
        term = next(t for t in doc["terms"] if len(t["basis"]) == 2)
        term["basis"] = list(reversed(term["basis"]))
        with pytest.raises(FormError):
            form_from_json(json.dumps(doc))

    @pytest.mark.parametrize("path, value, message", [
        (("chart",), None, "field chart must be dict, got None"),
        (("chart", "order"), None, "field chart.order must be int, got None"),
        (("chart", "n"), "2", "field chart.n must be int, got '2'"),
        (("chart", "m"), True, "field chart.m must be int, got True"),
        (("chart",), [2, 1, 1], "field chart must be dict, got [2, 1, 1]"),
        (("degree",), None, "field degree must be int, got None"),
        (("terms",), {}, "field terms must be list, got {}"),
        (("terms", 0, "coeff"), None, "field terms[0].coeff must be str, got None"),
        (("terms", 1, "coeff"), 3, "field terms[1].coeff must be str, got 3"),
        (("terms", 0, "basis"), None, "field terms[0].basis must be list, got None"),
        (("terms", 0), "dx1", "field terms[0].basis must be list, got None"),
        (("terms", 0, "basis"), [1], "unknown coframe label 1"),
        ((), [SCHEMA_VERSION], "a form document is a JSON object, got list"),
    ], ids=["no-chart", "no-order", "str-n", "bool-m", "list-chart", "no-degree", "dict-terms",
            "no-coeff", "int-coeff", "no-basis", "str-term", "int-label", "list-document"])
    def test_malformed_document_rejected(self, path, value, message):
        # a document is input from outside the program: a malformed field is a
        # FormError that names it; the value None deletes the field
        doc = target = form_to_document(principal_lepage(dirichlet()))
        if not path:
            doc = value
        else:
            *outer, last = path
            for step in outer:
                target = target[step]
            if value is None:
                del target[last]
            else:
                target[last] = value
        with pytest.raises(FormError, match=re.escape(message)):
            form_from_json(json.dumps(doc))

    def test_text_rendering_zero(self):
        assert form_to_text(zero_form(CTX, 2, 1)) == "0"


def _r(a, b=1):
    return Rat(Fraction(a, b))


_x1, _x2, _y, _y1, _y12 = X(1), X(2), Y(1), Y(1, 1), Y(1, 1, 2)

# (id, node tree, fiber count, expr_to_text, expr_to_latex).  The trees are
# built by hand, not canonicalized, so that every branch of both printers is
# reached: rationals by sign and integrality at the top, in a product and as a
# power base; product heads of -1 and other negatives; quotients and powers in
# each position; each function; and the three fiber spellings.
RENDERINGS = [
    ("rat-negative-integer", _r(-2), None, "-2", "-2"),
    ("rat-negative-fraction", _r(-3, 4), None, "-3/4", "-\\tfrac{3}{4}"),
    ("rat-positive-fraction", _r(5, 2), None, "5/2", "\\tfrac{5}{2}"),
    ("rat-negative-in-product", Mul((_x1, _r(-2))), None, "x1*(-2)", "x^{1}\\,\\left(-2\\right)"),
    ("rat-negative-fraction-in-product", Mul((_x1, _r(-1, 2))), None,
     "x1*(-1/2)", "x^{1}\\,\\left(-\\tfrac{1}{2}\\right)"),
    ("rat-fraction-in-product", Mul((_x1, _r(1, 3))), None, "x1*(1/3)", "x^{1}\\,\\tfrac{1}{3}"),
    ("rat-negative-in-power", Pow(_r(-2), 3), None, "(-2)^3", "\\left(-2\\right)^{3}"),
    ("rat-fraction-in-power", Pow(_r(1, 2), -2), None,
     "(1/2)^(-2)", "\\left(\\tfrac{1}{2}\\right)^{-2}"),
    ("minus-one-head", Mul((_r(-1), _y1)), None, "-y1_1", "-y^{1}_{1}"),
    ("minus-one-alone", Mul((_r(-1),)), None, "-1", "-1"),
    ("minus-one-head-two-factors", Mul((_r(-1), _x1, _y12)), None,
     "-x1*y1_12", "-x^{1}\\,y^{1}_{12}"),
    ("negative-fraction-head", Mul((_r(-3, 2), _x1, _y)), None,
     "-(3/2)*x1*y1", "-\\tfrac{3}{2}\\,x^{1}\\,y^{1}"),
    ("negative-heads-in-sum", Add((_x1, Mul((_r(-1), _y1)), Mul((_r(-2, 3), _y)), _r(-1, 2))), None,
     "x1 - y1_1 - (2/3)*y1 - 1/2", "x^{1} - y^{1}_{1} - \\tfrac{2}{3}\\,y^{1} - \\tfrac{1}{2}"),
    ("negative-first-term", Add((Mul((_r(-1), _x1)), _r(5, 2), Mul((_r(3), _y)))), None,
     "-x1 + 5/2 + 3*y1", "-x^{1} + \\tfrac{5}{2} + 3\\,y^{1}"),
    ("sum-in-product", Mul((_r(2), Add((_x1, _y)), _x2)), None,
     "2*(x1 + y1)*x2", "2\\,\\left(x^{1} + y^{1}\\right)\\,x^{2}"),
    ("product-in-product", Mul((_x1, Mul((_y, _x2)))), None, "x1*y1*x2", "x^{1}\\,y^{1}\\,x^{2}"),
    ("quotient", Div(Add((_y, _r(1))), Add((_x1, _r(-1)))), None,
     "(y1 + 1)/(x1 - 1)", "\\frac{y^{1} + 1}{x^{1} - 1}"),
    ("quotient-in-product", Mul((_x1, Div(_y1, Add((_x2, _r(1)))))), None,
     "x1*(y1_1)/(x2 + 1)", "x^{1}\\,\\frac{y^{1}_{1}}{x^{2} + 1}"),
    ("quotient-in-power", Pow(Div(_y, _x1), 2), None,
     "((y1)/(x1))^2", "\\left(\\frac{y^{1}}{x^{1}}\\right)^{2}"),
    ("quotient-in-sum", Add((_x1, Div(_r(1), _y))), None, "x1 + (1)/(y1)", "x^{1} + \\frac{1}{y^{1}}"),
    # power-var, power-var-negative, ln and base-only: a power of a
    # superscripted coordinate braces its base, as a double superscript
    # (y^{1}_{1}^{2}) is rejected by TeX.
    ("power-var", Pow(_y1, 2), None, "y1_1^2", "{y^{1}_{1}}^{2}"),
    ("power-var-negative", Pow(_y1, -1), None, "y1_1^(-1)", "{y^{1}_{1}}^{-1}"),
    ("power-fn", Pow(Fn("sin", _x1), 3), None,
     "sin(x1)^3", "\\left(\\sin\\left(x^{1}\\right)\\right)^{3}"),
    ("power-fn-negative", Pow(Fn("cos", _y), -2), None,
     "cos(y1)^(-2)", "\\left(\\cos\\left(y^{1}\\right)\\right)^{-2}"),
    ("power-sum", Pow(Add((_x1, _y)), 2), None, "(x1 + y1)^2", "\\left(x^{1} + y^{1}\\right)^{2}"),
    ("power-sum-negative", Pow(Add((_x1, Mul((_r(-1), _y)))), -3), None,
     "(x1 - y1)^(-3)", "\\left(x^{1} - y^{1}\\right)^{-3}"),
    ("power-product", Pow(Mul((_x1, _y)), 2), None, "(x1*y1)^2", "\\left(x^{1}\\,y^{1}\\right)^{2}"),
    ("sin", Fn("sin", Add((_x1, _y))), None, "sin(x1 + y1)", "\\sin\\left(x^{1} + y^{1}\\right)"),
    ("cos", Fn("cos", Mul((_r(2), _x2))), None, "cos(2*x2)", "\\cos\\left(2\\,x^{2}\\right)"),
    ("exp", Fn("exp", Mul((_r(-1), _y1))), None, "exp(-y1_1)", "\\exp\\left(-y^{1}_{1}\\right)"),
    ("ln", Fn("ln", Pow(_y12, 2)), None, "ln(y1_12^2)", "\\ln\\left({y^{1}_{12}}^{2}\\right)"),
    ("fn-in-product", Mul((_r(1, 2), Fn("exp", _x1), _y)), None,
     "(1/2)*exp(x1)*y1", "\\tfrac{1}{2}\\,\\exp\\left(x^{1}\\right)\\,y^{1}"),
    ("m1-spelling", Mul((_y, _y1, _y12)), 1, "y*y_1*y_12", "y\\,y_{1}\\,y_{12}"),
    ("explicit-sigma-spelling", Mul((_y, _y1, _y12)), None,
     "y1*y1_1*y1_12", "y^{1}\\,y^{1}_{1}\\,y^{1}_{12}"),
    ("m2-spelling", Add((Mul((_y1, Y(2, 2))), Mul((_r(-1), Y(1, 2), Y(2, 1))), Y(2))), 2,
     "y1_1*y2_2 - y1_2*y2_1 + y2",
     "y^{1}_{1}\\,y^{2}_{2} - y^{1}_{2}\\,y^{2}_{1} + y^{2}"),
    ("base-only", Mul((_x1, Pow(_x2, 2))), 1, "x1*x2^2", "x^{1}\\,{x^{2}}^{2}"),
]


class TestPinnedRenderings:
    @pytest.mark.parametrize(
        "e, m, text, latex", [pytest.param(*row[1:], id=row[0]) for row in RENDERINGS]
    )
    def test_expression(self, e, m, text, latex):
        assert expr_to_text(e, m) == text
        assert expr_to_latex(e, m) == latex

    def test_form_with_contact_elements(self):
        theta = principal_lepage(dirichlet())
        assert form_to_text(theta, 1) == (
            "((1/2)*y_2^2 + (1/2)*y_1^2) dx1 ∧ dx2\n+ (y_2) dx1 ∧ w1\n+ (-y_1) dx2 ∧ w1"
        )
        assert form_to_latex(theta, 1) == (
            "\\left(\\tfrac{1}{2}\\,y_{2}^{2} + \\tfrac{1}{2}\\,y_{1}^{2}\\right) dx^{1} \\wedge dx^{2}"
            " + \\left(y_{2}\\right) dx^{1} \\wedge \\omega^{1}"
            " + \\left(-y_{1}\\right) dx^{2} \\wedge \\omega^{1}"
        )

    def test_two_contact_form_explicit_sigma(self):
        from lepage import null_divergence_m2

        z = fundamental_first_order(null_divergence_m2())
        assert form_to_text(z) == (
            "(-y1_2*y2_1 + y1_1*y2_2) dx1 ∧ dx2\n+ (-y2_1) dx1 ∧ w1\n+ (y1_1) dx1 ∧ w2"
            "\n+ (-y2_2) dx2 ∧ w1\n+ (y1_2) dx2 ∧ w2\n+ (1) w1 ∧ w2"
        )
        assert form_to_latex(z) == (
            "\\left(-y^{1}_{2}\\,y^{2}_{1} + y^{1}_{1}\\,y^{2}_{2}\\right) dx^{1} \\wedge dx^{2}"
            " + \\left(-y^{2}_{1}\\right) dx^{1} \\wedge \\omega^{1}"
            " + \\left(y^{1}_{1}\\right) dx^{1} \\wedge \\omega^{2}"
            " + \\left(-y^{2}_{2}\\right) dx^{2} \\wedge \\omega^{1}"
            " + \\left(y^{1}_{2}\\right) dx^{2} \\wedge \\omega^{2}"
            " + \\left(1\\right) \\omega^{1} \\wedge \\omega^{2}"
        )


# hypothesis strategies for canonical sums and quotients: fractional and
# negative coefficients, Laurent exponents, function atoms, and denominators
# of one or more multi-term factors, some raised to a power; a denominator
# whose terms cancel is not drawn, since dividing by it is an error
_ATOM_POOL = [X(1), X(2), Y(1), Y(1, 1), Y(2, 2), Y(2, 1, 2),
              sin(X(1) + Y(1)), ln(Y(1, 1)), sin(const(-1, 2) * Y(2) ** -1)]
_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool).map(const)
_monomials = st.tuples(
    _coefficients,
    st.lists(st.tuples(st.sampled_from(_ATOM_POOL), st.integers(-2, 3)), max_size=3),
).map(lambda cf: Mul((cf[0], *(Pow(a, e) for a, e in cf[1]))))
_polynomials = st.lists(_monomials, min_size=2, max_size=5).map(lambda ts: Add(tuple(ts)))
_denominators = st.lists(st.tuples(_polynomials, st.integers(1, 2)), min_size=1, max_size=2).map(
    lambda fs: Mul(tuple(Pow(f, k) for f, k in fs))).filter(lambda den: not is_zero_expr(den))
_canonical_nodes = st.one_of(
    _polynomials, st.tuples(_polynomials, _denominators).map(lambda nd: Div(*nd)),
).map(canonicalize).filter(lambda node: node.__class__ in (Add, Div))


def _raw_copy(node):
    """A tree equal to the canonical node, without its quotient."""
    return Div(node.num, node.den) if node.__class__ is Div else Add(node.terms)


class TestCanonicalPrintsAsItsTree:
    """A canonical sum or quotient prints from its quotient, and the text is
    that of its tree, in every style, spelling and position."""

    @settings(max_examples=60, deadline=None)
    @given(node=_canonical_nodes)
    def test_node(self, node):
        printed = [(m, expr_to_text(node, m), expr_to_latex(node, m)) for m in (None, 1, 2)]
        raw = _raw_copy(node)
        for m, text, latex in printed:
            assert text == expr_to_text(raw, m)
            assert latex == expr_to_latex(raw, m)

    @settings(max_examples=30, deadline=None)
    @given(node=_canonical_nodes)
    def test_node_inside_a_raw_tree(self, node):
        raw = _raw_copy(node)
        for wrap in (lambda e: Mul((X(2), e)), lambda e: Mul((const(-1), e, Y(1))),
                     lambda e: Add((Y(1), e)), lambda e: Pow(e, 2), lambda e: sin(e),
                     lambda e: Y(1) + e, lambda e: e - Y(1), lambda e: X(2) * e):
            for m in (None, 1, 2):
                assert expr_to_text(wrap(node), m) == expr_to_text(wrap(raw), m)
                assert expr_to_latex(wrap(node), m) == expr_to_latex(wrap(raw), m)

    def test_a_canonical_sum_in_a_product_is_parenthesized(self):
        total = canonicalize(Y(1, 1) - const(1, 2) * Y(1) ** -1)
        assert total.__class__ is Add and "_canonical" in total.__dict__
        assert expr_to_text(Mul((X(1), total)), 1) == "x1*(y_1 - (1/2)*y^(-1))"
        assert expr_to_latex(Mul((X(1), total)), 1) == (
            "x^{1}\\,\\left(y_{1} - \\tfrac{1}{2}\\,y^{-1}\\right)")

    def test_threads_spelling_new_atoms_agree(self):
        # atoms no other test prints, so the threads race on missing spellings
        atoms = [ln(X(1) + k) for k in range(101, 113)]
        node = canonicalize(sum((a ** k for k, a in enumerate(atoms, 1)), Y(1)) / (X(2) + 1))
        want = [expr_to_text(_raw_copy(node), m) for m in (None, 1)]
        start = threading.Barrier(8)
        got = []

        def work():
            start.wait(timeout=60)
            got.append([expr_to_text(node, m) for m in (None, 1)])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 8


# ---------------------------------------------------------------------------
# the JSON writer and the denominator text
# ---------------------------------------------------------------------------


def _chart_lagrangian(n, m, r):
    # 1 + a product reaching the top jet order + a square: a nonvanishing L,
    # so every form has coefficients over powers of L
    top = f"y{m}_1{n}" if r == 2 else f"y{m}_{n}"
    return parse_lagrangian(LagrangianSpec(n, m, r, f"1 + 2*y1_1*{top} + 3*x1*y1 + y1_2^2"))


def _constructed_forms(lam):
    """Theta, Lambda and Z of lam where defined, each with its d, h and p1."""
    if lam.r == 1:
        built = [principal_lepage(lam), caratheodory_first(lam), fundamental_first_order(lam)]
    else:
        built = [principal_lepage(lam), caratheodory_second(lam)]
        if lam.ctx.n == 2:
            built.append(fundamental_second_order_n2(lam)[0])
    for form in built:
        yield form
        yield exterior_derivative(form)
        yield horizontalization(form)
        yield contact_component(form, 1)


def _assert_json_document(form):
    text = form_to_json(form)
    assert text == json.dumps(form_to_document(form), indent=2)
    assert forms_equal(form_from_json(text), form)


class TestJsonWriter:
    """form_to_json writes json.dumps(form_to_document(form), indent=2) itself."""

    @pytest.mark.parametrize("n, m, r", [(n, m, r) for r in (1, 2) for n in (2, 3, 4) for m in (1, 2)],
                             ids=lambda v: str(v))
    def test_constructed_forms(self, n, m, r):
        for form in _constructed_forms(_chart_lagrangian(n, m, r)):
            _assert_json_document(form)

    def test_structurally_zero_form(self):
        form = zero_form(CTX, 2, 1)
        assert '"terms": []' in form_to_json(form)
        _assert_json_document(form)

    def test_degree_zero_form(self):
        form = make_form(CTX, 0, [((), canonicalize(Y(1, 1) / (X(1) + 1)))], 1)
        assert '"basis": []' in form_to_json(form)
        _assert_json_document(form)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), n=st.sampled_from([2, 3]), m=st.sampled_from([1, 2]))
    def test_generated_lagrangians(self, data, n, m):
        ctx = ChartContext(n, m, 1)
        pool = [X(i) for i in ctx.base_indices] + [
            Y(sigma, *jj) for sigma in ctx.fiber_indices for jj in [()] + [(i,) for i in ctx.base_indices]]
        monomial = st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                             st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        terms = data.draw(st.lists(monomial, min_size=1, max_size=3))
        # the constant keeps L nonvanishing, as the Caratheodory form requires
        L = Add((const(1),) + tuple(Mul((const(c), *atoms)) for c, atoms in terms))
        lam = Lagrangian(ctx, 1, canonicalize(L))
        for form in (principal_lepage(lam), caratheodory_first(lam)):
            _assert_json_document(form)
            _assert_json_document(exterior_derivative(form))


class TestDenominatorText:
    """A canonical quotient's denominator text is kept per Den, fiber count
    and style; each print still equals that of the quotient's tree."""

    def test_quotients_over_one_denominator(self):
        # atoms no other test prints, so the first print of each key spells it
        den = (X(2) + Y(1, 2) ** 3) * (Y(2, 1) ** 2 - 7 * Y(1))
        quotients = [canonicalize(Y(2) / den), canonicalize((X(1) - 5) / den)]
        assert all(q.__class__ is Div for q in quotients)
        assert _to_rf(quotients[0]).den == _to_rf(quotients[1]).den
        assert len(_to_rf(quotients[0]).den) == 2
        for printer in (expr_to_text, expr_to_latex):
            for m in (None, 1, 2):
                for q in quotients:
                    assert printer(q, m) == printer(Div(q.num, q.den), m)
