"""Expression grammar and Lagrangian specs."""
import pytest

from lepage import (
    ChartContext,
    ExprSyntaxError,
    LagrangianSpec,
    OrderMismatchError,
    X,
    Y,
    canonicalize,
    const,
    equals_zero,
    exp,
    ln,
    parse_expression,
    parse_lagrangian,
    sin,
)
from lepage.expr import PROVEN_NONZERO, is_zero_expr

CTX = ChartContext(2, 1, 2)
CTX22 = ChartContext(2, 2, 2)


def parsed(src, ctx=CTX):
    return canonicalize(parse_expression(src, ctx))


class TestGrammar:
    def test_dirichlet(self):
        got = parsed("1/2*(y_1^2 + y_2^2)")
        want = canonicalize(const(1, 2) * (Y(1, 1) ** 2 + Y(1, 2) ** 2))
        assert got == want

    def test_camassa_holm(self):
        got = parsed("1/2*(y_1*y_2^2 + y_12^2/y_1)")
        want = canonicalize(const(1, 2) * (Y(1, 1) * Y(1, 2) ** 2 + Y(1, 1, 2) ** 2 / Y(1, 1)))
        assert got == want

    def test_hessian(self):
        got = parsed("y_11*y_22 - y_12^2")
        want = canonicalize(Y(1, 1, 1) * Y(1, 2, 2) - Y(1, 1, 2) ** 2)
        assert got == want

    def test_explicit_fiber_index(self):
        got = parsed("y1_12 + y2", CTX22)
        want = canonicalize(Y(1, 1, 2) + Y(2))
        assert got == want

    def test_decimal_number_is_exact(self):
        assert parsed("0.5*y") == canonicalize(const(1, 2) * Y(1))

    def test_precedence(self):
        assert parsed("2*y^2 + 1") == canonicalize(2 * Y(1) ** 2 + 1)
        assert parsed("3/2*y_1") == canonicalize(const(3, 2) * Y(1, 1))
        assert is_zero_expr(parsed("-y^2") + Y(1) ** 2)

    def test_negative_exponent(self):
        assert parsed("y_1^(-2)") == canonicalize(Y(1, 1) ** (-2))

    def test_functions(self):
        assert parsed("sin(x1) + ln(2 + exp(y))") == canonicalize(
            sin(X(1)) + ln(2 + exp(Y(1)))
        )

    def test_base_variables(self):
        assert parsed("x1*x2") == canonicalize(X(1) * X(2))


class TestFoldedSums:
    def test_a_parsed_sum_cancels_like_a_flat_one(self):
        # the parser folds a - b + c into nested sums; they are read as one
        # sum, so the group over 1 + y_2 cancels and leaves the constant 2
        e = parse_expression("y_1/(1+y_2) + 2 - y_1/(1+y_2)", CTX)
        assert canonicalize(e) == canonicalize(const(2))
        verdict = equals_zero(e)
        assert verdict.kind == PROVEN_NONZERO and verdict.witness == {}


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("y_1 + ", CTX)
        assert err.value.pos == 6

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("2 y_1", CTX)

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("tan(x1)", CTX)

    def test_unknown_character(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("y_1 ? 2", CTX)

    def test_fiber_index_required_for_m2(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("y_1", CTX22.at_order(1))

    def test_out_of_range_indices(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("x3", CTX)
        with pytest.raises(ExprSyntaxError):
            parse_expression("y3", CTX22)
        with pytest.raises(ExprSyntaxError):
            parse_expression("y_3", CTX)

    def test_non_integer_exponent(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("y^x1", CTX)
        with pytest.raises(ExprSyntaxError):
            parse_expression("y^1.5", CTX)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            parse_lagrangian(LagrangianSpec(2, 1, 1, "y_12"))


class TestLagrangianSpec:
    def test_declared_order_kept(self):
        lam = parse_lagrangian(LagrangianSpec(2, 1, 2, "y_1*y_2"))
        assert lam.r == 2
        assert lam.ctx.max_order == 2

    def test_canonicalized(self):
        lam = parse_lagrangian(LagrangianSpec(2, 1, 1, "y_1*y_2 - y_2*y_1"))
        assert is_zero_expr(lam.L)
