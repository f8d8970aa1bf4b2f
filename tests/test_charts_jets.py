"""Chart model and formal-derivative operators."""
import functools
import os
from pathlib import Path
import random
from fractions import Fraction
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lepage import (
    BaseVar,
    ChartContext,
    ChartError,
    Convention,
    Dx,
    FiberVar,
    MultiIndex,
    Omega,
    X,
    Y,
    canonicalize,
    const,
    cut_derivative,
    diff,
    equals_zero,
    eval_numeric,
    expr_to_text,
    sym_partial,
    total_derivative,
    variables,
)
from lepage.charts import var_key
from lepage.expr import Add, Fn, Mul, Rat, Var, is_zero_expr
from lepage.verification import random_polynomial
from section_oracle import random_section_oracle


def fiber(*jj):
    return FiberVar(1, MultiIndex(jj))


class TestMultiIndex:
    def test_sorted_storage(self):
        assert tuple(MultiIndex((2, 1, 1))) == (1, 1, 2)

    def test_multiplicity(self):
        assert MultiIndex((1, 2)).multiplicity() == 2
        assert MultiIndex((1, 1)).multiplicity() == 1
        assert MultiIndex((1, 2, 3)).multiplicity() == 6
        assert MultiIndex(()).multiplicity() == 1

    def test_append_resorts(self):
        assert tuple(MultiIndex((2, 2)).append(1)) == (1, 2, 2)

    def test_rejects_bad_entries(self):
        with pytest.raises(ChartError):
            MultiIndex((0,))


# Runs the statement argv[1], then prints outputs that name x1, y1_1, y1_11
# and dx1; a refused statement prints one line first.
_BOOL_PROBE = """
import sys
from lepage import *
try:
    exec(sys.argv[1])
except (ChartError, ExprError) as e:
    print("refused:", type(e).__name__)
lam = dirichlet()
print(*map(expr_to_text, euler_lagrange_expressions(lam)), expr_to_text(canonicalize(X(1) ** 2 * X(2))))
print(form_to_text(principal_lepage(lam)))
print(form_to_text(form_from_json(form_to_json(euler_lagrange_form(lam)))))
"""


@functools.cache
def _bool_probe(statement: str) -> str:
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", _BOOL_PROBE, statement], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestBoolIndices:
    """True == 1, so an index spelled True would be interned as the first
    spelling of its coordinate or wedge tuple, and every later output of the
    process would print it; each such index is refused."""

    @pytest.mark.parametrize("statement", [
        "canonicalize(Y(1, True))",
        "canonicalize(Y(True))",
        "canonicalize(X(True))",
        "canonicalize(Var(BaseVar(True)))",
        "total_derivative(Y(1, 1) ** 2, True, ChartContext(2, 1, 1))",
        "canonicalize(X(1) ** True)",
        "make_form(ChartContext(2, 1, 1), 2, [((Dx(True), Dx(2)), Y(1, 1))], 1)",
    ])
    def test_a_bool_index_is_refused_and_changes_no_later_output(self, statement):
        clean = _bool_probe("pass")
        assert not clean.startswith("refused")
        refused, _, rest = _bool_probe(statement).partition("\n")
        assert refused.startswith("refused:")
        assert rest == clean


class TestMemoKeysEqualToACoordinate:
    """A memo compares keys by value: Dx(1) == BaseVar(1), Omega(1, J) ==
    FiberVar(1, J) and True == 1.  So each spelling that is not a coordinate
    or an int index is refused before the memo, also once the equal entry is
    kept."""

    def test_diff_refuses_a_coframe_element(self):
        f = canonicalize(X(1) ** 2 * Y(1, 1))
        g = canonicalize(X(1) * Y(1))
        assert expr_to_text(diff(f, BaseVar(1))) == "2*x1*y1_1"
        assert expr_to_text(diff(g, FiberVar(1, MultiIndex()))) == "x1"
        for e, v in ((f, Dx(1)), (g, Omega(1, MultiIndex()))):
            with pytest.raises(ChartError, match="is not a coordinate"):
                diff(e, v)

    def test_total_derivative_refuses_a_bool_index_after_the_int_one(self):
        ctx = ChartContext(2, 1, 1)
        f = canonicalize(Y(1, 1) ** 2)
        assert expr_to_text(total_derivative(f, 1, ctx)) == "2*y1_1*y1_11"
        with pytest.raises(ChartError, match="base index True out of range"):
            total_derivative(f, True, ctx)


class TestChartContext:
    def test_validation(self):
        with pytest.raises(ChartError):
            ChartContext(0, 1, 1)
        with pytest.raises(ChartError):
            ChartContext(2, 1, -1)

    def test_base_dimension_fits_the_spelling(self):
        # index 10 would print as y1_10, which reads as the index (1, 0)
        assert ChartContext(9, 1, 1).n == 9
        with pytest.raises(ChartError, match="n <= 9"):
            ChartContext(10, 1, 1)

    def test_contains(self):
        ctx = ChartContext(2, 1, 2)
        assert ctx.contains(fiber(1, 2))
        assert not ctx.contains(fiber(1, 2, 2))
        assert not ctx.contains(FiberVar(2, MultiIndex()))
        assert ctx.contains(BaseVar(2))
        assert not ctx.contains(BaseVar(3))

    def test_contains_refuses_a_coframe_element(self):
        # Dx(1) == BaseVar(1) as tuples; contains dispatches on the exact class
        with pytest.raises(ChartError, match="is not a coordinate"):
            ChartContext(2, 1, 1).contains(Dx(1))

    def test_coordinate_count(self):
        ctx = ChartContext(2, 1, 2)
        # x1 x2, y, y_1 y_2, y_11 y_12 y_22
        assert len(list(ctx.coordinates())) == 8


class TestTotalDerivative:
    def test_first_jet(self):
        ctx = ChartContext(2, 1, 1)
        assert total_derivative(Y(1, 1), 1, ctx) == canonicalize(Y(1, 1, 1))

    def test_product(self):
        ctx = ChartContext(2, 1, 1)
        got = total_derivative(Y(1, 1) * Y(1, 2), 1, ctx)
        assert is_zero_expr(got - (Y(1, 1, 1) * Y(1, 2) + Y(1, 1) * Y(1, 1, 2)))

    def test_zeroth_order_chain_rule(self):
        ctx = ChartContext(2, 1, 0)
        g = X(1) * X(2) + Y(1) ** 2
        got = total_derivative(g, 2, ctx)
        assert is_zero_expr(got - (X(1) + 2 * Y(1) * Y(1, 2)))

    def test_a_long_folded_sum(self):
        # the sum of all 660 fiber coordinates at (9, 3, 3), folded one term
        # at a time as a loop with + builds it
        ctx = ChartContext(9, 3, 3)
        fibers = [v for v in ctx.coordinates() if isinstance(v, FiberVar)]
        assert len(fibers) == 660
        f = Var(fibers[0])
        for v in fibers[1:]:
            f = f + Var(v)
        want = Add(tuple(Var(FiberVar(v.sigma, v.jj.append(1))) for v in fibers))
        assert total_derivative(f, 1, ctx) == canonicalize(want)

    def test_index_out_of_range(self):
        with pytest.raises(ChartError):
            total_derivative(Y(1), 3, ChartContext(2, 1, 0))

    def test_chart_mismatch(self):
        with pytest.raises(ChartError):
            total_derivative(Y(1, 1, 2), 1, ChartContext(2, 1, 1))


class TestCutDerivative:
    def test_top_layer_cut_entirely(self):
        ctx = ChartContext(2, 1, 1)
        assert is_zero_expr(cut_derivative(Y(1, 1) * Y(1, 2), 1, ctx))

    def test_second_order_cut(self):
        ctx = ChartContext(2, 1, 2)
        got = cut_derivative(Y(1, 2) * Y(1, 1, 2), 2, ctx)
        assert is_zero_expr(got - Y(1, 2, 2) * Y(1, 1, 2))

    def test_total_minus_cut_is_top_layer(self):
        ctx = ChartContext(2, 1, 2)
        f = Y(1, 1, 1) * Y(1, 2) + Y(1, 1, 2) ** 2
        for i in (1, 2):
            gap = total_derivative(f, i, ctx) - cut_derivative(f, i, ctx)
            top = const(0)
            for v in variables(f):
                if isinstance(v, FiberVar) and len(v.jj) == 2:
                    top = top + diff(f, v) * Var(FiberVar(v.sigma, v.jj.append(i)))
            assert is_zero_expr(gap - top)


class TestSymPartial:
    def test_plain_sorts_indices(self):
        got = sym_partial(Y(1, 1, 2) ** 2, 1, (2, 1), Convention.PLAIN)
        assert is_zero_expr(got - 2 * Y(1, 1, 2))

    def test_symmetrized_divides_by_multiplicity(self):
        got = sym_partial(Y(1, 1, 2) ** 2, 1, (1, 2), Convention.SYMMETRIZED)
        assert got == canonicalize(Y(1, 1, 2))

    def test_double_application(self):
        hess = Y(1, 1, 1) * Y(1, 2, 2) - Y(1, 1, 2) ** 2
        once = sym_partial(hess, 1, (1, 2), Convention.SYMMETRIZED)
        twice = sym_partial(once, 1, (1, 2), Convention.SYMMETRIZED)
        assert twice == canonicalize(const(-1, 2))

    def test_diagonal_indices_agree(self):
        f = Y(1, 1, 1) ** 3
        plain = sym_partial(f, 1, (1, 1), Convention.PLAIN)
        sym = sym_partial(f, 1, (1, 1), Convention.SYMMETRIZED)
        assert plain == sym

    def test_each_convention_keeps_its_own_result(self):
        want_plain = canonicalize(2 * Y(1, 1, 2))
        want_sym = canonicalize(Y(1, 1, 2))
        for order in ((Convention.PLAIN, Convention.SYMMETRIZED),
                      (Convention.SYMMETRIZED, Convention.PLAIN)):
            f = canonicalize(Y(1, 1, 2) ** 2 + Y(1, 1))
            got = {c: sym_partial(f, 1, (2, 1), c) for c in order}
            assert got[Convention.PLAIN] == want_plain
            assert got[Convention.SYMMETRIZED] == want_sym
            for c in order:
                assert sym_partial(f, 1, (1, 2), c) is got[c]


class TestDerivativeProperties:
    def _random_corpus(self, ctx, seed=0, count=6):
        rng = random.Random(seed)
        pool = list(ctx.coordinates())
        return [random_polynomial(rng, pool, terms=3, degree=2) for _ in range(count)]

    def test_commutativity(self):
        ctx = ChartContext(2, 1, 2)
        for f in self._random_corpus(ctx):
            for i, j in ((1, 2), (2, 1), (1, 1)):
                lifted = ctx.lifted()
                a = total_derivative(total_derivative(f, i, ctx), j, lifted)
                b = total_derivative(total_derivative(f, j, ctx), i, lifted)
                assert is_zero_expr(a - b)

    def test_leibniz(self):
        ctx = ChartContext(2, 1, 1)
        corpus = self._random_corpus(ctx, seed=3)
        for f, g in zip(corpus, corpus[1:]):
            for i in (1, 2):
                gap = (
                    total_derivative(f * g, i, ctx)
                    - total_derivative(f, i, ctx) * g
                    - f * total_derivative(g, i, ctx)
                )
                assert is_zero_expr(gap)

    def test_section_oracle_on_polynomials(self):
        ctx = ChartContext(2, 1, 1)
        report = random_section_oracle(Y(1, 1) * Y(1, 2), ctx, trials=3, points=4)
        assert report.passed, report.describe()

    def test_section_oracle_on_quotient(self):
        ctx = ChartContext(2, 1, 2)
        report = random_section_oracle(Y(1, 1, 2) ** 2 / Y(1, 1), ctx, trials=3, points=4)
        assert report.passed, report.describe()

    @pytest.mark.parametrize("f", [Y(1, 1) * Y(1, 2), Y(1, 1, 2) ** 2 / Y(1, 1)])
    def test_section_oracle_fails_on_a_perturbed_total_derivative(self, monkeypatch, f):
        import section_oracle

        real = section_oracle.total_derivative
        monkeypatch.setattr(
            section_oracle,
            "total_derivative",
            lambda g, i, ctx: real(g, i, ctx) + Y(1) / 1000,
        )
        report = random_section_oracle(f, ChartContext(2, 1, 2), trials=3, points=4)
        assert not report.passed
        assert "finite-difference gap" in report.message


@st.composite
def chain_rule_cases(draw):
    """(chart, canonical f, base index): f sums monomials over atoms, some of
    them sin, cos, exp or ln atoms, each over no denominator or over one of
    two multi-term denominators, so that terms share one or not; n <= 3 and
    order <= 2.  Every denominator and ln argument is at least 1."""
    ctx = ChartContext(draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    coords = st.sampled_from([Var(v) for v in ctx.coordinates()])

    def atom():
        a, name = draw(coords), draw(st.sampled_from(("", "sin", "cos", "exp", "ln")))
        if not name:
            return a
        return Fn(name, a ** 2 + 1 if name == "ln" else a * draw(coords) - 1)

    dens = [None] + [draw(coords) ** 2 + draw(coords) + 3 for _ in range(2)]
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        term = Mul((Rat(Fraction(draw(st.integers(-3, 3).filter(bool)))), atom(), atom()))
        den = draw(st.sampled_from(dens))
        terms.append(term if den is None else term / den)
    return ctx, canonicalize(Add(tuple(terms))), draw(st.integers(1, ctx.n))


def raw_chain_rule(f, i, top):
    """d_i f as the raw tree diff(f, x^i) + sum of diff(f, v) * y^sigma_{J+i}
    over the fiber coordinates v = y^sigma_J of f of order below top."""
    fibers = [v for v in sorted(variables(f), key=var_key) if isinstance(v, FiberVar) and len(v.jj) < top]
    return Add((diff(f, BaseVar(i)), *(Mul((diff(f, v), Var(FiberVar(v.sigma, v.jj.append(i))))) for v in fibers)))


@settings(max_examples=40, deadline=None)
@given(case=chain_rule_cases())
def test_formal_derivatives_match_the_raw_chain_rule(case):
    ctx, f, i = case
    point = {v: 0.3 + 0.07 * k for k, v in enumerate(ChartContext(ctx.n, ctx.m, ctx.max_order + 1).coordinates())}
    for got, top in ((total_derivative(f, i, ctx), ctx.max_order + 1), (cut_derivative(f, i, ctx), ctx.max_order)):
        want = canonicalize(raw_chain_rule(f, i, top))
        assert expr_to_text(got) == expr_to_text(want)
        assert equals_zero(got).kind == equals_zero(want).kind
        assert eval_numeric(got, point) == pytest.approx(eval_numeric(want, point), rel=1e-9, abs=1e-12)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Names of the kernel's differentiation and rendering calls, in order."""
    from lepage import expr

    calls = []
    for name in ("_rf_diff", "_render"):
        real = getattr(expr, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(expr, name, counted)
    return calls


class TestDerivativeMemos:
    CTX = ChartContext(2, 1, 2)

    @staticmethod
    def quotient():
        return canonicalize((Y(1, 1, 2) ** 2 + X(1) * Y(1, 1)) / (Y(1, 2) ** 2 + Y(1) + 1))

    def derivatives(self, f):
        return [
            total_derivative(f, 1, self.CTX),
            total_derivative(f, 2, self.CTX),
            cut_derivative(f, 1, self.CTX),
            sym_partial(f, 1, (2, 1)),
            sym_partial(f, 1, (1, 2), Convention.PLAIN),
        ]

    def test_repeats_make_no_kernel_call(self, kernel_calls):
        f = self.quotient()
        first = self.derivatives(f)
        assert "_rf_diff" in kernel_calls
        kernel_calls.clear()
        again = self.derivatives(f)
        assert kernel_calls == []
        assert all(a is b for a, b in zip(first, again))

    def test_sym_partial_and_diff_share_one_memo(self):
        f = self.quotient()
        v = FiberVar(1, MultiIndex((1, 2)))
        halved = sym_partial(f, 1, (1, 2))
        plain = diff(f, v)
        assert plain == canonicalize(diff(self.quotient(), v))
        assert is_zero_expr(2 * halved - plain)
        assert sym_partial(f, 1, (1, 2), Convention.PLAIN) is plain
        assert diff(f, v) is plain and sym_partial(f, 1, (1, 2)) is halved

    def test_a_list_index_is_accepted(self):
        from lepage.jets import mixed_partial

        f = self.quotient()
        assert sym_partial(f, 1, [2, 1]) is sym_partial(f, 1, (2, 1))
        assert sym_partial(f, 1, [1, 2], Convention.PLAIN) is diff(f, FiberVar(1, MultiIndex((1, 2))))
        assert mixed_partial(f, [(1, [1, 2]), (1, [2])]) is mixed_partial(f, [(1, (1, 2)), (1, (2,))])

    def test_chart_error_is_never_cached(self):
        f = canonicalize(Y(1, 1, 2) * Y(1))
        small = ChartContext(2, 1, 1)
        for _ in range(2):
            with pytest.raises(ChartError):
                total_derivative(f, 1, small)
        assert not any(isinstance(k, tuple) and k[:1] == ("d",) for k in f._memo)
        # the same node on a chart that holds it
        assert total_derivative(f, 1, self.CTX) == canonicalize(
            Y(1, 1, 1, 2) * Y(1) + Y(1, 1, 2) * Y(1, 1))
        with pytest.raises(ChartError):
            total_derivative(f, 1, small)

    def test_threads_agree_with_a_serial_run(self):
        want = self.derivatives(self.quotient())
        shared = self.quotient()
        got = []

        def work():
            got.append(self.derivatives(shared))

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
        assert len(got) == 8 and all(run == want for run in got)
