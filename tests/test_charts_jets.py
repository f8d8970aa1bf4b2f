"""Chart model and formal-derivative operators."""
import random

import pytest

from lepage import (
    BaseVar,
    ChartContext,
    ChartError,
    Convention,
    FiberVar,
    MultiIndex,
    X,
    Y,
    canonicalize,
    const,
    cut_derivative,
    diff,
    sym_partial,
    total_derivative,
    variables,
)
from lepage.expr import Var, is_zero_expr
from lepage.verification import random_polynomial, random_section_oracle


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
