"""Expression kernel: canonicalization, differentiation, evaluation, zero-testing."""
import copy
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lepage import (
    BaseVar,
    ChartContext,
    EvalDomainError,
    ExprError,
    FiberVar,
    MissingVariableError,
    MultiIndex,
    Rat,
    SamplingFailure,
    X,
    Y,
    ZeroPolicy,
    canonicalize,
    const,
    cos,
    diff,
    equals_zero,
    eval_numeric,
    exp,
    expr_to_text,
    ln,
    parse_expression,
    sin,
    substitute,
    variables,
)
from lepage.expr import (
    PROVEN_NONZERO,
    PROVEN_ZERO,
    ZERO,
    NUMERIC_NONZERO,
    NUMERIC_ZERO,
    _ATOMS,
    _IDS,
    _FACTORS,
    _FIDS,
    _FKEYS,
    _KEYS,
    _MAX_EXP,
    Add,
    Div,
    Fn,
    Mul,
    Pow,
    Var,
    _atom_id,
    _den_entry,
    _den_poly,
    _key,
    _mono,
    _p_leading,
    _RF,
    _den_expand,
    _den_mul,
    _p_add_into,
    _p_mul,
    _p_times,
    _pairs,
    _poly_terms,
    _render,
    _rf_diff,
    _rf_mul,
    _rf_reduce,
    _rf_sum,
    _to_rf,
    _tree_fields,
    constant_value,
    expr_key,
    is_zero_expr,
    scale,
)
from lepage.forms import Dx
from lepage.variational import Lagrangian, caratheodory_first, euler_lagrange_expressions
from lepage.verification import (
    first_order_corpus,
    random_polynomial,
    random_section_oracle,
    second_order_corpus,
)

Y1 = Y(1, 1)
Y2 = Y(1, 2)
Y12 = Y(1, 1, 2)
YY = Y(1)


def fiber(*jj):
    return FiberVar(1, MultiIndex(jj))


class TestCanonicalize:
    def test_unit_zero_folding(self):
        assert canonicalize(const(0) * Y1 + X(1)) == canonicalize(X(1))

    def test_commutativity(self):
        assert is_zero_expr(Y1 * Y2 - Y2 * Y1)

    def test_quotient_stays_quotient(self):
        q = (Y1 ** 2 - 1) / (Y1 - 1)
        c = canonicalize(q)
        from lepage import Div

        assert isinstance(c, Div)
        assert equals_zero(q).kind == PROVEN_NONZERO

    def test_idempotence(self):
        e = (Y1 + Y2) ** 3 / (YY - 2) + sin(X(1)) * Y12
        once = canonicalize(e)
        assert canonicalize(once) is once
        assert canonicalize(canonicalize(e)) == canonicalize(e)

    def test_identically_zero_rational_expression(self):
        # requires combining over a common denominator, but no cancellation
        e = (Y1 ** 2 - 1) / (Y1 - 1) - (Y1 + 1)
        assert is_zero_expr(e)

    def test_laurent_fold_of_monomial_denominator(self):
        e = Y12 ** 2 / Y1
        c = canonicalize(e)
        from lepage import Div

        assert not isinstance(c, Div)  # folded into a negative power

    def test_division_by_canonical_zero_raises(self):
        from lepage import ExprError

        with pytest.raises(ExprError):
            canonicalize(Y1 / (Y2 - Y2))

    def test_nested_quotient_normalization(self):
        # 1/(y1 + y2/y12) = y12/(y1 y12 + y2): denominators inside
        # denominators are cleared by the monomial-content extraction
        e = 1 / (Y1 + Y2 / Y12)
        point = {fiber(1): 2.0, fiber(2): 3.0, fiber(1, 2): 5.0}
        assert eval_numeric(canonicalize(e), point) == pytest.approx(1 / 2.6)
        assert is_zero_expr(e - Y12 / (Y1 * Y12 + Y2))

    def test_quotient_power(self):
        e = ((Y1 + 1) / (Y1 - 1)) ** (-2)
        want = (Y1 - 1) ** 2 / (Y1 + 1) ** 2
        assert is_zero_expr(e - want)

    def test_shared_expressions_across_threads(self):
        # pure values; cached canonical forms must be safe to share
        import concurrent.futures

        e = (Y1 + Y2) ** 3 / (YY - 2) - Y12 * Y1
        point = {fiber(1): 0.3, fiber(2): -0.7, fiber(): 0.1, fiber(1, 2): 1.9}
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(lambda _: eval_numeric(canonicalize(e), point), range(32)))
            derivatives = list(pool.map(lambda _: diff(e, fiber(1)), range(32)))
        assert len(set(values)) == 1
        assert all(d == derivatives[0] for d in derivatives)

    def test_obfuscated_zeros(self):
        a, b, c, d = Y1, Y2 + 1, Y12 - Y1, YY ** 2 + 2
        zeros = [
            a / b + c / d - (a * d + c * b) / (b * d),
            (a + b) ** 2 - a ** 2 - 2 * a * b - b ** 2,
            a / (b * d) - (a / b) / d,
            a / b - a * b ** (-1),
            (a * a - b * b) / (a + b) - (a * a - b * b) * (a + b) ** (-1),
            a * (b / b) - a,
        ]
        for e in zeros:
            assert is_zero_expr(e), e

    def test_cancelled_quotients_leave_no_denominator(self):
        # the group over 1 + y cancels however the raw sums nest, so the sum
        # is the constant 2: flat, nested once, and 2 plus 1,200 quotients of
        # alternating sign nested one level per term
        x, y = X(1), Y(1)
        deep = const(2)
        for k in range(1200):
            deep = Add((deep, (-1) ** k * x / (1 + y)))
        for e in [Add((x / (1 + y), const(2), -x / (1 + y))),
                  Add((Add((x / (1 + y), const(2))), -x / (1 + y))),
                  deep]:
            assert canonicalize(e) == Rat(Fraction(2))
            assert constant_value(e) == 2
            verdict = equals_zero(e)
            assert verdict.kind == PROVEN_NONZERO and verdict.witness == {}

    def test_a_long_folded_product(self):
        # 1,500 factors multiplied one at a time, as a loop with * builds them
        # (one flat chain) and as the Mul constructor nests them, one level
        # per factor
        folded = nested = Y1
        for k in range(1, 1500):
            factor = Y2 if k % 2 else Y1
            folded, nested = folded * factor, Mul((nested, factor))
        for e in (folded, nested):
            assert canonicalize(e) == canonicalize(Y1 ** 750 * Y2 ** 750)

    def test_spellings_of_a_power_share_a_denominator(self):
        # 1/B^2, B^-2 and 1/(B*B) all sit over B^2, and so do their sums and
        # partials
        b = 1 + Y1 ** 2
        spellings = [1 / b ** 2, b ** -2, 1 / (b * b)]
        want = canonicalize(2 * b ** -2)
        for u in spellings:
            for w in spellings:
                assert canonicalize(Add((u, w))) == want
        assert len(_den_poly(_to_rf(want).den)) == 3
        partials = {diff(1 / b ** 3, fiber(1)), diff(b ** -3, fiber(1)),
                    diff(1 / (b * b ** 2), fiber(1))}
        assert len(partials) == 1
        assert partials.pop() == canonicalize(-6 * Y1 * b ** -4)


@pytest.mark.parametrize("raw, want", [
    (Y1 + sin(X(1) * Y2), {fiber(1), BaseVar(1), fiber(2)}),
    (Y1 / (1 + YY ** 2) + exp(Y12), {fiber(1), fiber(), fiber(1, 2)}),
    (ln(Y2) / (1 + cos(X(2))), {fiber(2), BaseVar(2)}),
    (X(1) - X(1) + Y1, {fiber(1)}),
    (sin(Y2 + Y12 - Y12) * Y1, {fiber(2), fiber(1)}),
    (Y1 / (1 + Y2) + 2 - Y1 / (1 + Y2), set()),
    ((Y1 + X(1)) * Y2 - X(1) * Y2, {fiber(1), fiber(2)}),
])
def test_variables_are_those_of_the_canonical_form(raw, want):
    # read from the canonical quotient, so a coordinate that cancels is gone
    assert variables(raw) == want
    assert variables(canonicalize(raw)) == want


class TestDiff:
    def test_product_partial(self):
        assert diff(Y1 * Y12, fiber(1, 2)) == canonicalize(Y1)

    def test_quadratic_quotient_partial(self):
        got = diff(Y12 ** 2 / Y1, fiber(1, 2))
        assert is_zero_expr(got - 2 * Y12 / Y1)

    def test_table_rule(self):
        assert diff(sin(X(1)), BaseVar(1)) == canonicalize(cos(X(1)))
        assert is_zero_expr(diff(cos(X(1)), BaseVar(1)) + sin(X(1)))
        assert diff(exp(Y1), fiber(1)) == canonicalize(exp(Y1))
        assert is_zero_expr(diff(ln(Y1), fiber(1)) - 1 / Y1)

    def test_unrelated_variable(self):
        assert is_zero_expr(diff(Y1 * Y2, fiber(1, 1)))

    def test_chain_rule_through_quotient_argument(self):
        got = diff(sin(Y1 / Y2), fiber(2))
        want = cos(Y1 / Y2) * (-Y1 / Y2 ** 2)
        assert is_zero_expr(got - want)

    def test_ln_chain_rule(self):
        got = diff(ln(Y1 ** 2 + 1), fiber(1))
        want = (2 * Y1) / (Y1 ** 2 + 1)
        assert is_zero_expr(got - want)

    def test_quotient_rule_stays_over_the_squared_denominator(self):
        # (N_v D - N D_v) / D^2, with D = y1_1^2 + x1 + 1 expanded
        e = (Y1 + X(1)) / (Y1 ** 2 + X(1) + 1)
        assert expr_to_text(diff(e, fiber(1))) == (
            "(-y1_1^2 - 2*x1*y1_1 + x1 + 1)"
            "/(y1_1^4 + 2*y1_1^2 + x1^2 + 2*x1*y1_1^2 + 2*x1 + 1)"
        )

    def test_quotient_rule_keeps_a_denominator_free_of_the_variable(self):
        e = (Y1 + X(1)) / (Y2 ** 2 + X(1) + 1)
        assert expr_to_text(diff(e, fiber(1))) == "(1)/(y1_2^2 + x1 + 1)"
        assert expr_to_text(diff(e, fiber(2))) == (
            "(-2*y1_1*y1_2 - 2*x1*y1_2)"
            "/(y1_2^4 + 2*y1_2^2 + x1^2 + 2*x1*y1_2^2 + 2*x1 + 1)"
        )


class TestEval:
    def test_product(self):
        assert eval_numeric(Y1 * Y2, {fiber(1): 2.0, fiber(2): 3.0}) == 6.0

    def test_pole(self):
        with pytest.raises(EvalDomainError):
            eval_numeric(Y12 ** 2 / Y1, {fiber(1): 0.0, fiber(1, 2): 1.0})

    def test_quadratic_kinetic_term(self):
        e = const(1, 2) * (Y1 * Y2 ** 2 + Y12 ** 2 / Y1)
        point = {fiber(1): 1.0, fiber(2): 2.0, fiber(1, 2): 3.0}
        assert eval_numeric(e, point) == pytest.approx(6.5)

    def test_missing_variable(self):
        with pytest.raises(MissingVariableError):
            eval_numeric(Y1 + Y2, {fiber(1): 1.0})

    def test_ln_domain(self):
        with pytest.raises(EvalDomainError):
            eval_numeric(ln(X(1)), {BaseVar(1): -1.0})

    def test_domain_error_keeps_its_reason_apart(self):
        with pytest.raises(EvalDomainError) as info:
            eval_numeric(Y1 ** -1, {fiber(1): 0.0})
        err = info.value
        assert err.reason == "pole: zero base with negative exponent"
        assert err.offender == Y1 ** -1
        assert str(err) == f"{err.reason}: {err.offender!r}"


class TestEqualsZero:
    def test_proven_zero(self):
        assert equals_zero(Y1 * Y2 - Y2 * Y1).kind == PROVEN_ZERO
        assert equals_zero(X(1) - X(1) * 1).kind == PROVEN_ZERO

    def test_numeric_nonzero_with_witness(self):
        # a rational quotient is proven nonzero and keeps its sampled witness;
        # a function atom leaves only the sample
        verdict = equals_zero(2 / Y1)
        assert verdict.kind == PROVEN_NONZERO
        assert verdict.witness is not None and fiber(1) in verdict.witness
        verdict = equals_zero(2 / Y1 + sin(X(1)))
        assert verdict.kind == NUMERIC_NONZERO
        assert verdict.witness is not None and set(verdict.witness) == {fiber(1), BaseVar(1)}

    def test_proven_nonzero_constant(self):
        assert equals_zero(const(3, 2)).kind == PROVEN_NONZERO

    def test_numeric_zero_through_functions(self):
        # not decidable canonically: sin^2 + cos^2 - 1
        e = sin(X(1)) ** 2 + cos(X(1)) ** 2 - 1
        assert equals_zero(e).kind == NUMERIC_ZERO

    def test_tiny_rational_is_proven_nonzero(self):
        verdict = equals_zero(const(1, 10**12) * Y1 ** 2)
        assert verdict.kind == PROVEN_NONZERO
        assert verdict.witness is not None and fiber(1) in verdict.witness
        assert not verdict.is_zero

    def test_sampling_failure(self):
        with pytest.raises(SamplingFailure):
            equals_zero(ln(-2 - exp(YY)))

    def test_deterministic_under_seed(self):
        policy = ZeroPolicy(seed=123)
        a = equals_zero(Y1 + Y2, policy)
        b = equals_zero(Y1 + Y2, policy)
        assert a.witness == b.witness and a.value == b.value

    @pytest.mark.parametrize("fields", [
        {"abs_tol": math.nan}, {"abs_tol": math.inf}, {"abs_tol": -1e-9}, {"samples": 0},
    ], ids=["nan", "inf", "negative", "no-samples"])
    def test_a_policy_that_decides_nothing_is_refused(self, fields):
        # a nan or inf tolerance calls sin(y_1)*y zero, a negative one calls
        # every sample nonzero, and no sample decides nothing
        with pytest.raises(ExprError, match=f"got {next(iter(fields.values()))}$"):
            ZeroPolicy(**fields)


class TestMemo:
    def test_base_and_fiber_partials_do_not_collide(self):
        # BaseVar(2) == (2,) as tuples; the fiber key differs in shape
        e = X(2) ** 2 * Y(2) + Y2 * X(1)
        by_base = diff(e, BaseVar(2))
        by_fiber = diff(e, FiberVar(2, MultiIndex()))
        assert by_base == canonicalize(2 * X(2) * Y(2))
        assert by_fiber == canonicalize(X(2) ** 2)
        assert diff(e, BaseVar(2)) is by_base

    def test_variables_are_memoized(self):
        raw = (Y1 + sin(X(1) * Y2)) / (YY ** 2 + ln(Y12 + 1))
        e = canonicalize(raw)
        got = variables(e)
        assert got == {fiber(1), BaseVar(1), fiber(2), fiber(), fiber(1, 2)}
        assert variables(e) is got
        assert variables(raw) == got

    def test_scale_and_diff_share_the_memo(self):
        e = Y1 ** 2
        half = scale(e, Fraction(1, 2))
        assert half == canonicalize(const(1, 2) * Y1 ** 2)
        assert diff(e, fiber(1)) == canonicalize(2 * Y1)
        assert scale(e, Fraction(1, 2)) is half

    def test_threads_sharing_a_node_agree(self):
        vs = [fiber(1), fiber(2), BaseVar(1), fiber()]
        e = canonicalize((Y1 + Y2 + X(1)) ** 4 / (YY - 3) + sin(Y1) * Y2)
        want = {v: _render(_rf_diff(_to_rf(canonicalize(e + 0)), v)) for v in vs}
        got = []

        def work():
            got.append({v: diff(diff(e, v), v) == diff(want[v], v) and diff(e, v) == want[v]
                        for v in vs})

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
        assert len(got) == 8 and all(all(r.values()) for r in got)


@pytest.fixture
def tree_builds(monkeypatch):
    """The kinds of the canonical trees built from their quotients, in order."""
    from lepage import expr

    builds = []
    real = expr._tree_fields

    def counted(kind, rf):
        builds.append(kind)
        return real(kind, rf)

    monkeypatch.setattr(expr, "_tree_fields", counted)
    return builds


def _built(node):
    """True iff any of the node's fields is stored."""
    return any(name in node.__dict__ for name in node._fields)


class TestLazyTree:
    """A canonical sum or quotient holds its quotient, and builds its tree on
    the first read of a field."""

    # fresh raw trees, so that no other test has read a memoized result
    RAW = {
        "quotient": lambda: (Y1 + 2) ** 2 / (Y2 ** 2 + YY + 1) + X(1) * Y1,
        "sum": lambda: (Y1 + X(1) - 3) ** 2,
    }

    def results(self):
        quotient = self.RAW["quotient"]()
        return [
            canonicalize(quotient),
            diff(quotient, fiber(2)),
            substitute(quotient, {fiber(2): X(1) + X(2)}),
            canonicalize(self.RAW["sum"]()),
        ]

    def test_results_build_no_tree_until_read(self, tree_builds):
        got = self.results()
        assert [node.__class__ for node in got] == [Div, Div, Div, Add]
        assert tree_builds == [] and not any(_built(node) for node in got)
        # printing reads the quotient: no tree is built
        texts = [expr_to_text(node) for node in got]
        assert tree_builds == [] and not any(_built(node) for node in got)
        # reading a field builds the tree once, and it prints the same
        for node in got:
            _ = node.num if node.__class__ is Div else node.terms
        assert tree_builds == [Div, Div, Div, Add]
        for node, text in zip(got, texts):
            raw = Div(node.num, node.den) if node.__class__ is Div else Add(node.terms)
            assert expr_to_text(raw) == text
        assert len(tree_builds) == 4

    @pytest.mark.parametrize("name", ["quotient", "sum"])
    def test_an_unread_node_is_its_tree(self, name):
        def unread():
            node = canonicalize(self.RAW[name]())
            assert not _built(node)
            return node

        kind = unread().__class__
        eager = kind(**_tree_fields(kind, _to_rf(unread())))
        plain = kind(*(getattr(eager, name) for name in eager._fields))
        assert "_rfc" not in plain.__dict__
        for tree in (eager, plain):
            assert unread() == tree and tree == unread()
            assert hash(unread()) == hash(tree)
        assert repr(unread()) == repr(eager)
        assert unread() == unread()

    def test_pickles_and_copies_carry_the_fields_only(self):
        quotient = self.RAW["quotient"]
        want = canonicalize(quotient())
        clones = [pickle.loads(pickle.dumps(canonicalize(quotient()))),
                  copy.copy(canonicalize(quotient())),
                  copy.deepcopy(canonicalize(quotient()))]
        for clone in clones:
            assert set(clone.__dict__) == {"num", "den"}
            assert clone == want

    def test_threads_reading_one_node_agree(self):
        shared = canonicalize(self.RAW["quotient"]())
        want = canonicalize(self.RAW["quotient"]())
        want = (want.num, want.den)
        start = threading.Barrier(8)
        got = []

        def work():
            start.wait(timeout=60)
            got.append((shared.num, shared.den))

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
        assert len(got) == 8 and all(tree == want for tree in got)

    def test_other_names_are_missing(self, tree_builds):
        quotient, total = (canonicalize(raw()) for raw in self.RAW.values())
        for node, name in [(total, "num"), (total, "factors"), (quotient, "terms"),
                           (quotient, "base"), (total, "nonsense"), (quotient, "_memo")]:
            with pytest.raises(AttributeError):
                getattr(node, name)
            assert not hasattr(node, name)
        assert tree_builds == [] and not _built(quotient) and not _built(total)


def _subtrees(e):
    yield e
    if isinstance(e, Add):
        kids = e.terms
    elif isinstance(e, Mul):
        kids = e.factors
    elif isinstance(e, Pow):
        kids = (e.base,)
    elif isinstance(e, Div):
        kids = (e.num, e.den)
    elif isinstance(e, Fn):
        kids = (e.arg,)
    else:
        kids = ()
    for kid in kids:
        yield from _subtrees(kid)


class TestOperatorChains:
    """The operators and the constructors extend a raw sum or product, so a
    chain folded one operand at a time is one flat node and no walk over it
    recurses per operand."""

    @staticmethod
    def long_sum():
        out = Y1
        for k in range(2, 1201):
            out = out + k * Y1 ** k
        return out

    @staticmethod
    def long_product():
        out = Y1
        for k in range(1, 1500):
            out = out * (Y2 if k % 2 else Y1)
        return out

    @staticmethod
    def nested_sum():
        out = X(1)
        for _ in range(1200):
            out = Add((out, X(1)))
        return out

    @staticmethod
    def nested_product():
        out = X(1)
        for _ in range(1200):
            out = Mul((out, X(1)))
        return out

    def test_a_folded_chain_is_one_node(self):
        assert len(self.long_sum().terms) == 1200
        assert len(self.long_product().factors) == 1500
        assert (Y1 + Y2) - Y12 == Add((Y1, Y2, Mul((Rat(Fraction(-1)), Y12))))
        assert Y1 * Y2 * (Y12 * YY) == Mul((Y1, Y2, Y12, YY))
        assert 2 + (Y1 + Y2) == Add((Rat(Fraction(2)), Y1, Y2))

    def test_a_constructor_chain_is_one_node(self):
        assert len(self.nested_sum().terms) == len(self.nested_product().factors) == 1201
        assert expr_to_text(canonicalize(self.nested_sum())) == "1201*x1"
        assert expr_to_text(canonicalize(self.nested_product())) == "x1^1201"
        assert Add((Y1, Add((Y2, Y12)), YY)) == Add((Y1, Y2, Y12, YY))
        assert Div(Div(Y1, Y2), Y12) == Div(Y1, Mul((Y2, Y12)))

    @pytest.mark.parametrize("chain", ["long_sum", "long_product", "nested_sum", "nested_product"])
    @pytest.mark.parametrize("reader", [
        lambda e: eval_numeric(e, {fiber(1): 0.5, fiber(2): 1.5, BaseVar(1): 1.0}),
        lambda e: expr_key(e),
        lambda e: expr_to_text(e),
        lambda e: hash(e),
        lambda e: pickle.loads(pickle.dumps(e)),
    ], ids=["eval_numeric", "expr_key", "expr_to_text", "hash", "pickle"])
    def test_a_folded_chain_is_read_without_recursion(self, chain, reader):
        build = getattr(self, chain)
        assert reader(build()) == reader(build())

    def test_a_canonical_operand_is_not_opened(self, tree_builds):
        total = canonicalize(TestLazyTree.RAW["sum"]())
        monomial = canonicalize(Y1 * Y2)
        assert (total + Y12).terms == (total, Y12)
        assert (Y12 + total).terms == (Y12, total)
        assert (monomial * Y12).factors == (monomial, Y12)
        assert tree_builds == [] and not _built(total)


class TestRepresentationBoundary:
    """Coefficients are ints inside the kernel, Fractions outside it."""

    def test_canonical_trees_hold_fractions(self):
        values = []
        for lam in first_order_corpus() + second_order_corpus():
            trees = [canonicalize(lam.L), *euler_lagrange_expressions(lam)]
            trees += [diff(lam.L, v) for v in lam.ctx.coordinates()]
            for tree in trees:
                values += [node.value for node in _subtrees(tree) if isinstance(node, Rat)]
        assert all(type(v) is Fraction for v in values)
        assert any(v.denominator == 1 and v not in (0, 1) for v in values)
        assert any(v.denominator != 1 for v in values)

    def test_kernel_quotients_are_integral(self):
        # num / (d * den): int coefficients, d > 0 coprime to num, and den a
        # product of multi-term factors with coprime coefficients and a
        # positive leading one, whose expansion has coprime coefficients
        quotient = (Y1 + 2) / (const(3, 2) * Y2 ** 2 - 6 * Y1 + 9)
        trees = [quotient, diff(quotient, fiber(1)), diff(quotient, fiber(2)),
                 Y1 / (1 - 2 * Y2 ** 2)]
        for lam in first_order_corpus() + second_order_corpus():
            trees += [lam.L, *euler_lagrange_expressions(lam)]
            trees += [diff(lam.L, v) for v in lam.ctx.coordinates()]
        for tree in trees:
            rf = _to_rf(tree)
            factors = [_FACTORS[f] for f, _ in rf.den]
            expanded = _den_poly(rf.den)
            assert all(type(c) is int for p in (rf.num, expanded, *factors) for c in p.values())
            assert type(rf.d) is int and rf.d > 0
            assert math.gcd(rf.d, *rf.num.values()) == 1
            for p in factors:
                assert len(p) > 1
                assert math.gcd(*p.values()) == 1
                assert p[_p_leading(p)] > 0
            if rf.den:
                assert math.gcd(*expanded.values()) == 1
        assert any(_to_rf(tree).den for tree in trees)
        assert any(_to_rf(tree).d > 1 for tree in trees)

    def test_expanded_denominators_are_kept_for_quotients_only(self):
        # the partial products a sum multiplies its numerators by are not
        # kept, and the kept expansions are bounded in number; the quotient's
        # own expansion is made when its tree is built, on first read
        b = 1 + Y(3, 1, 1) ** 2
        e = Add((Y1 / b, Y2 / b ** 3))
        _den_entry.cache_clear()
        got = canonicalize(e)
        expr_to_text(got)
        assert _den_entry.cache_info().currsize == 1
        assert _den_poly(_to_rf(got).den) == _den_poly(_to_rf(b ** -3).den)
        assert _den_entry.cache_info().maxsize is not None

    def test_scaled_quotients_share_a_denominator(self):
        q = (Y1 + 2) / (Y2 ** 2 - 4 * Y1 + 6)
        rf = _to_rf(q)
        for c in (const(3, 2), const(-3), const(1, 6)):
            scaled = _to_rf(c * q)
            assert scaled.den == rf.den
            assert list(scaled.num) == list(rf.num)
        # denominators equal up to a constant factor are summed as one
        for den in (1 - 2 * Y2 ** 2, 2 * Y2 ** 2 + 4):
            got = canonicalize(Y1 / den + 1 / (-3 * den))
            assert got == canonicalize((3 * Y1 - 1) / (3 * den))
            assert len(got.den.terms) == 2
        # rendered with a monic denominator
        y = Y(1)
        assert canonicalize(1 / (3 * y + 1)) == Div(const(1, 3), Add((y, const(1, 3))))
        assert canonicalize(2 / (-4 * y + 6)) == Div(const(-1, 2), Add((y, const(-3, 2))))

    def test_constant_value_is_a_fraction(self):
        for e, want in [
            (X(1) - X(1), Fraction(0)),
            (3 * Y1 / Y1, Fraction(3)),
            (const(1, 2) + const(1, 3), Fraction(5, 6)),
            (const(4, 2) * Y2 ** 2 / Y2 ** 2, Fraction(2)),
        ]:
            got = constant_value(e)
            assert got == want and type(got) is Fraction

    def test_pickled_nodes_leave_their_caches_behind(self):
        e = canonicalize(Y1 ** 2 * sin(X(1)) + 3)
        d = diff(e, BaseVar(1))
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e
        assert not set(copy.__dict__) - set(copy._fields)
        assert diff(copy, BaseVar(1)) == d

    def test_threads_intern_each_atom_once(self):
        # coordinates and function atoms no other test uses, so the threads
        # intern them concurrently
        def build():
            u, w = Y(7, 1, 3), Y(8, 2)
            return [
                (u + w / 3) ** 3 / (u * w - 5),
                sin(u * w + const(2, 7)) * exp(w) - ln(u ** 2 + 1) / w,
                cos(sin(u) + w) ** -2 + Fn("exp", u - w) * u,
            ]

        vs = [FiberVar(7, MultiIndex((1, 3))), FiberVar(8, MultiIndex((2,))), BaseVar(1)]

        def run(es):
            return [(canonicalize(e), [diff(diff(e, v), v) for v in vs]) for e in es]

        shared = build()
        start = threading.Barrier(8)
        got = []

        def work():
            start.wait(timeout=60)
            got.append(run(shared))

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
        want = run(build())
        assert len(got) == 8 and all(result == want for result in got)
        assert len(_IDS) == len(_ATOMS) == len(_KEYS)
        assert all(_IDS[atom] == i for i, atom in enumerate(_ATOMS))
        atoms = {node for tree, _ in want for node in _subtrees(tree)
                 if isinstance(node, (Var, Fn))}
        assert atoms and all(atom in _IDS for atom in atoms)
        # the denominators' factors share the table's lock
        assert len(_FIDS) == len(_FACTORS) == len(_FKEYS)
        assert all(_FIDS[frozenset(p.items())] == i for i, p in enumerate(_FACTORS))


class TestSubstitute:
    def test_polynomial_target(self):
        got = substitute(Y1 ** 2, {fiber(1): X(1) + X(2)})
        want = canonicalize(X(1) ** 2 + 2 * X(1) * X(2) + X(2) ** 2)
        assert got == want

    def test_identity_bindings(self):
        e = Y1 * Y2 + YY
        assert substitute(e, {fiber(1): Y1}) == canonicalize(e)

    def test_prolonged_section_consistency(self):
        got = substitute(Y1 * Y2 - YY, {fiber(): X(1) * X(2), fiber(1): X(2), fiber(2): X(1)})
        assert is_zero_expr(got)

    def test_inside_functions(self):
        got = substitute(sin(Y1), {fiber(1): X(1)})
        assert got == canonicalize(sin(X(1)))


# hypothesis strategies for rational expressions over a small coordinate pool
_POOL = [X(1), X(2), Y(1), Y(1, 1), Y(1, 2)]
_atoms = st.sampled_from(_POOL) | st.integers(-3, 3).map(const)


def _combine(children):
    pairs = st.tuples(children, children)
    return (
        pairs.map(lambda ab: ab[0] + ab[1])
        | pairs.map(lambda ab: ab[0] * ab[1])
        | st.tuples(children, st.integers(0, 3)).map(lambda bk: bk[0] ** bk[1])
    )


_rational_exprs = st.recursive(_atoms, _combine, max_leaves=12)


@settings(max_examples=40, deadline=None)
@given(e1=_rational_exprs, e2=_rational_exprs)
def test_product_rule(e1, e2):
    v = fiber(1)
    gap = diff(e1 * e2, v) - diff(e1, v) * e2 - e1 * diff(e2, v)
    assert is_zero_expr(gap)


@settings(max_examples=40, deadline=None)
@given(e1=_rational_exprs, e2=_rational_exprs, a=st.fractions(min_value=-3, max_value=3))
def test_diff_linearity(e1, e2, a):
    v = fiber(2)
    gap = diff(Rat(a) * e1 + e2, v) - (Rat(a) * diff(e1, v) + diff(e2, v))
    assert is_zero_expr(gap)


@settings(max_examples=40, deadline=None)
@given(e=_rational_exprs)
def test_canonicalize_preserves_value(e):
    point = {v.ref: x for v, x in zip(_POOL, (0.37, -1.21, 0.83, 1.52, -0.44))}
    got = eval_numeric(canonicalize(e), point)
    want = eval_numeric(e, point)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(e=_rational_exprs)
def test_finite_difference_matches_diff(e):
    v = fiber(1)
    h = 1e-4
    point = {u.ref: x for u, x in zip(_POOL, (0.31, -0.62, 0.47, 0.89, -0.23))}
    up = dict(point)
    up[v] = point[v] + h
    down = dict(point)
    down[v] = point[v] - h
    fd = (eval_numeric(e, up) - eval_numeric(e, down)) / (2 * h)
    want = eval_numeric(diff(e, v), point)
    assert fd == pytest.approx(want, abs=1e-5 * max(1.0, abs(want)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), slot=st.integers(0, 4))
def test_memoized_diff_matches_a_fresh_node(seed, slot):
    pool = [v.ref for v in _POOL]
    rng = random.Random(seed)
    e = random_polynomial(rng, pool, terms=4, degree=3)
    v = pool[slot]
    first = diff(e, v)
    # a structurally equal node with an empty memo
    fresh = random_polynomial(random.Random(seed), pool, terms=4, degree=3)
    assert fresh == e and fresh is not e
    want = _render(_rf_diff(_to_rf(fresh), v))
    assert first == want
    assert diff(e, v) == want and diff(e, v) is first
    assert diff(diff(e, v), v) == _render(_rf_diff(_to_rf(want), v))


class TestProductBound:
    """One polynomial product may form at most 1,000,000 term products; more is refused."""

    @staticmethod
    def series(v, terms):
        return canonicalize(Add(tuple(v ** i for i in range(terms))))

    def test_a_power_at_the_limit_expands(self):
        # 1000 x 1000 term products, merged into the 1999 powers of x1
        assert len(canonicalize(self.series(X(1), 1000) ** 2).terms) == 1999

    def test_one_term_over_the_limit_is_refused_before_multiplying(self):
        with pytest.raises(ExprError, match="1001-term and a 1000-term .* 1000000 term products"):
            canonicalize(self.series(X(1), 1001) * self.series(X(2), 1000))

    def test_powers_the_library_builds_are_not_refused(self):
        # Caratheodory's L^(1 - n) at n = 8 expands L^7 to 3,432 terms
        ctx = ChartContext(8, 1, 1)
        L = Add(tuple(Y(1, j) ** 2 for j in ctx.base_indices))
        rho = caratheodory_first(Lagrangian(ctx, 1, L), ZeroPolicy())
        horizontal = rho.coefficient(tuple(Dx(j) for j in ctx.base_indices))
        assert equals_zero(horizontal - L).kind == PROVEN_ZERO
        assert random_section_oracle(YY ** 4, ChartContext(2, 1, 1)).passed

    def test_monomial_powers_are_not_limited(self):
        assert canonicalize(YY ** 100000) == YY ** 100000


# atoms of every kind, interned once: the encoder tests draw their ids
_PACKED_POOL = [X(1), X(3), YY, Y1, Y12, Y(2, 2, 2), Y(4), sin(Y1), exp(X(2) * Y2), ln(YY ** 2 + 1)]
_PACKED_IDS = sorted({_atom_id(canonicalize(a)) for a in _PACKED_POOL})


def _exponent_maps(bound):
    exponents = st.integers(-bound, bound).filter(bool)
    return st.dictionaries(st.sampled_from(_PACKED_IDS), exponents, max_size=len(_PACKED_IDS))


class TestPackedMonomials:
    """A monomial is one int with a signed field per atom id (expr._mono); one
    decoder (expr._pairs) reads it back in the atoms' sort-key order."""

    @given(pairs=_exponent_maps(_MAX_EXP))
    def test_decode_inverts_encode(self, pairs):
        decoded = _pairs(_mono(pairs.items()))
        assert dict(decoded) == pairs and len(decoded) == len(pairs)

    @given(a=_exponent_maps(_MAX_EXP // 2), b=_exponent_maps(_MAX_EXP // 2))
    def test_a_product_adds_the_encodings(self, a, b):
        product = {i: a.get(i, 0) + b.get(i, 0) for i in a.keys() | b.keys()}
        want = _mono((i, e) for i, e in product.items() if e)
        assert _mono(a.items()) + _mono(b.items()) == want
        assert _p_mul({_mono(a.items()): 2}, {_mono(b.items()): -3}) == {want: -6}

    @given(pairs=_exponent_maps(_MAX_EXP))
    def test_decoding_follows_the_sort_keys(self, pairs):
        keys = [_KEYS[i] for i, _ in _pairs(_mono(pairs.items()))]
        assert keys == sorted(keys)

    @given(monos=st.lists(_exponent_maps(3), min_size=1, max_size=6, unique_by=lambda m: tuple(sorted(m.items()))))
    def test_terms_print_in_sort_key_order(self, monos):
        # terms print by their monomials' sort keys, descending, and the
        # leading monomial is the first printed
        p = {_mono(m.items()): k + 1 for k, m in enumerate(monos)}
        got = [mono for _, _, mono in _poly_terms(p, 1)]
        assert got == sorted((_pairs(m) for m in p), key=_key, reverse=True)
        assert _p_leading(p) == _mono(got[0])

    def test_high_ids_mix_with_the_first(self):
        # 2,100 fresh coordinates push the ids past 2,000; products, partials
        # and printing of monomials over the first and the last atom agree
        # with the raw trees' values
        fresh = [Y(5000 + k) for k in range(2100)]
        for v in fresh:
            _atom_id(v)
        first = next(atom for atom in _ATOMS if isinstance(atom, Var))
        low, high = fresh[0], fresh[-1]
        assert _atom_id(high) >= 2000
        e = (first ** 2 * high ** -3 + 5 * low * high - first ** -1 * low ** 4) * (high - const(1, 2) * first)
        c = canonicalize(e)
        refs = sorted(variables(e), key=lambda v: repr(v))
        point = {v: 0.4 + 0.15 * k for k, v in enumerate(refs)}
        assert eval_numeric(c, point) == pytest.approx(eval_numeric(e, point), rel=1e-12)
        for v in refs:
            h = 1e-6
            up, down = dict(point), dict(point)
            up[v] += h
            down[v] -= h
            fd = (eval_numeric(e, up) - eval_numeric(e, down)) / (2 * h)
            assert eval_numeric(diff(c, v), point) == pytest.approx(fd, rel=1e-6)
        reread = canonicalize(parse_expression(expr_to_text(c), ChartContext(9, 5000 + 2100, 9)))
        assert reread == c
        assert {first, low, high} <= {Var(v) for v in variables(c)}
        assert len(_IDS) == len(_ATOMS) == len(_KEYS)


def _grouped_sum(items):
    """The sum of quotients by denominator groups alone, zeros included: every
    operand joins its group, the groups whose numerators cancelled drop out,
    and the rest go over their least common multiple."""
    groups = {}
    for rf in items:
        group = groups.setdefault(rf.den, [{}, 1])
        lcm = math.lcm(group[1], rf.d)
        group[0] = _p_times(group[0], lcm // group[1])
        group[1] = lcm
        _p_add_into(group[0], _p_times(rf.num, lcm // rf.d))
    groups = {den: group for den, group in groups.items() if group[0]}
    if not groups:
        return _RF({})
    if len(groups) == 1:
        (den, (num, d)), = groups.items()
        return _rf_reduce(num, den, d)
    top = {}
    for den in groups:
        for f, e in den:
            top[f] = max(e, top.get(f, 0))
    lcm_den = tuple(sorted(top.items(), key=lambda fe: _FKEYS[fe[0]]))
    d = math.lcm(*(gd for _, gd in groups.values()))
    total = {}
    for den in sorted(groups, key=lambda den: _key(den, _FKEYS)):
        num, gd = groups[den]
        num = _p_times(num, d // gd)
        have = dict(den)
        lacking = tuple((f, e - have.get(f, 0)) for f, e in lcm_den if e > have.get(f, 0))
        if lacking:
            num = _p_mul(num, _den_expand(lacking))
        _p_add_into(total, num)
    return _rf_reduce(total, lcm_den, d)


# quotients over a few shared denominators, with fractional scales, and the
# zero quotient in each spelling the kernel meets
_DENOMINATORS = [const(1), const(3), 1 + Y1 ** 2, X(1) + Y2, (1 + Y1 ** 2) * (X(1) + Y2), (1 + Y1 ** 2) ** 2]
_quotients = st.builds(
    lambda e, c, den: _to_rf(canonicalize(Rat(c) * e / den)),
    _rational_exprs, st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
    st.sampled_from(_DENOMINATORS),
)
_zeros = st.sampled_from([ZERO, Y1 - Y1, 0 * Y2, (Y1 - Y1) / (1 + Y1 ** 2)]).map(lambda z: _to_rf(canonicalize(z)))


def _snapshot(rf):
    return list(rf.num.items()), rf.den, rf.d


class TestZeroOperands:
    """_rf_sum drops zero operands and returns a lone nonzero one as it is;
    _rf_mul returns the zero quotient for a zero factor.  Neither changes a
    result: every zero quotient is _RF({}) and every _RF is reduced."""

    @settings(max_examples=60, deadline=None)
    @given(items=st.lists(_quotients | _zeros, max_size=6))
    def test_sum_matches_the_grouping(self, items):
        before = [_snapshot(rf) for rf in items]
        got = _rf_sum(items)
        assert _snapshot(got) == _snapshot(_grouped_sum(items))
        # no operand's numerator is changed, and a lone one is the sum itself
        assert [_snapshot(rf) for rf in items] == before
        nonzero = [rf for rf in items if rf.num]
        if len(nonzero) == 1:
            assert got is nonzero[0]

    @settings(max_examples=30, deadline=None)
    @given(items=st.lists(_quotients | _zeros, max_size=4))
    def test_every_quotient_is_reduced(self, items):
        for rf in items:
            assert _snapshot(_rf_reduce(dict(rf.num), rf.den, rf.d)) == _snapshot(rf)
            assert rf.num or (rf.den, rf.d) == ((), 1)

    @settings(max_examples=30, deadline=None)
    @given(q=_quotients | _zeros, zero=_zeros)
    def test_a_zero_factor_gives_the_zero_quotient(self, q, zero):
        for a, b in ((zero, q), (q, zero)):
            got = _rf_mul(a, b)
            assert got == _RF({}) and (got.den, got.d) == ((), 1)
            assert got == _rf_reduce(_p_mul(a.num, b.num), _den_mul(a.den, b.den), a.d * b.d)


# Run in a fresh interpreter: meets seven atoms and multi-term denominators
# first (argv[1] "forward" or "reversed"), then prints the forms, the
# Euler-Lagrange expressions and zero verdicts of a Lagrangian over them.  Every
# denominator it reads must hold its factors in their sort-key order.
_INTERNING_PROBE = """
import sys
from lepage import (X, Y, LagrangianSpec, canonicalize, caratheodory_second, diff, equals_zero,
                    euler_lagrange_expressions, expr_to_text, form_to_json, parse_lagrangian,
                    principal_lepage, sin)
from lepage.expr import _FKEYS, _to_rf

y1, y2 = Y(1, 1), Y(1, 2)
first = [Y(1, 1, 2), y2, y1, X(1), 2 + y2 ** 2, 1 + y1 ** 2, y1 + 3 * y2 + 5]
for w in first if sys.argv[1] == "forward" else first[::-1]:
    canonicalize(1 / w)


def in_key_order(e):
    keys = [_FKEYS[f] for f, _ in _to_rf(e).den]
    assert keys == sorted(keys), expr_to_text(e)
    return e


lam = parse_lagrangian(LagrangianSpec(
    2, 1, 2, "y_12^2/(1+y_1^2) + y_11*y_22/(2+y_2^2) + 1/(y_1+3*y_2+5)"))
for rho in (principal_lepage(lam), caratheodory_second(lam)):
    print(form_to_json(rho))
    for _, coeff in rho:
        in_key_order(coeff)
for e in euler_lagrange_expressions(lam):
    print(expr_to_text(in_key_order(e)))
    for q in (e + sin(y1) / (2 + y2 ** 2), diff(e, y1.ref), diff(e, y2.ref)):
        verdict = equals_zero(in_key_order(canonicalize(q)))
        print(verdict.kind, repr(verdict.value))
"""


class TestInterningOrder:
    """Ids follow first use, so output must not depend on the order in which a
    process meets atoms and denominator factors."""

    def test_opposite_first_meetings_print_the_same(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        outputs = []
        for order in ("forward", "reversed"):
            done = subprocess.run([sys.executable, "-c", _INTERNING_PROBE, order], cwd=root, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("numeric-") + outputs[0].count("proven-") == 3


class TestExponentBound:
    """An exponent of an atom in a monomial is at most _MAX_EXP in magnitude;
    past that is an input error, never a silent wrap of its field."""

    def test_powers_up_to_the_bound_expand(self):
        assert _MAX_EXP == 2 ** 17
        assert expr_to_text(canonicalize(Y1 ** _MAX_EXP * Y2 ** -_MAX_EXP)) == "y1_1^131072*y1_2^(-131072)"

    @pytest.mark.parametrize("make", [
        lambda: Y1 ** (_MAX_EXP + 1),
        lambda: Y1 ** -(_MAX_EXP + 1),
        lambda: (Y1 ** 2 * Y2) ** (_MAX_EXP // 2 + 1),
        lambda: Y1 ** 1099511627776,
        lambda: Y1 ** _MAX_EXP * Y1,
        lambda: Y1 ** _MAX_EXP / Add((Y1 ** -1, const(0))),
        lambda: Y1 ** _MAX_EXP / (Y1 ** -1 + Y2),
    ], ids=["power", "negative-power", "power-of-product", "huge-power", "product",
            "monomial-divisor", "divisor-content"])
    def test_past_the_bound_is_refused(self, make):
        with pytest.raises(ExprError, match="past the bound of 131072"):
            canonicalize(make())

    def test_repeated_squaring_is_refused(self):
        e = Y1
        for _ in range(17):
            e = canonicalize(e * e)
        assert e == canonicalize(Y1 ** _MAX_EXP)
        with pytest.raises(ExprError, match="exponent 262144 is past the bound"):
            canonicalize(e * e)

    def test_a_partial_past_the_bound_is_refused(self):
        assert diff(Y1 ** -(_MAX_EXP - 1), fiber(1)) == canonicalize(-(_MAX_EXP - 1) * Y1 ** -_MAX_EXP)
        with pytest.raises(ExprError, match="exponent -131073 is past the bound"):
            diff(Y1 ** -_MAX_EXP, fiber(1))
        with pytest.raises(ExprError, match="past the bound"):
            diff(sin(YY) ** -_MAX_EXP, fiber())
