"""Expression grammar and Lagrangian specs."""
import math
import pickle
from fractions import Fraction

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
    eval_numeric,
    exp,
    expr_to_text,
    ln,
    parse_expression,
    parse_lagrangian,
    sin,
)
from lepage.expr import PROVEN_NONZERO, Add, Div, Mul, Rat, expr_key, is_zero_expr

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
        # the parser reads a - b + c as one sum, so the group over 1 + y_2
        # cancels and leaves the constant 2
        e = parse_expression("y_1/(1+y_2) + 2 - y_1/(1+y_2)", CTX)
        assert canonicalize(e) == canonicalize(const(2))
        verdict = equals_zero(e)
        assert verdict.kind == PROVEN_NONZERO and verdict.witness == {}


class TestOperatorChains:
    """A chain of + and - parses to one Add, a chain of * to one Mul."""

    LONG = " + ".join(f"{k}*y_1^{k}" for k in range(1, 1201))
    CTX11 = ChartContext(2, 1, 1)

    def long_sum(self):
        return parse_expression(self.LONG, self.CTX11)

    def test_a_chain_is_one_node(self):
        y1, y2, y11, y12 = Y(1, 1), Y(1, 2), Y(1, 1, 1), Y(1, 1, 2)
        minus = Rat(Fraction(-1))
        assert parse_expression("y_1 + y_2 - y_11*y_12*y_1 + 1", CTX) == Add(
            (y1, y2, Mul((minus, Mul((y11, y12, y1)))), Rat(Fraction(1)))
        )
        # a division closes the product before it and opens a new one
        assert parse_expression("y_1*y_2/y_11*y_12*y_1", CTX) == Mul(
            (Div(Mul((y1, y2)), y11), y12, y1)
        )
        assert parse_expression("y_1*y_2 + y_11", CTX) == Add((Mul((y1, y2)), y11))
        long = self.long_sum()
        assert long.__class__ is Add and len(long.terms) == 1200

    def test_raw_text_of_a_sum_is_flat(self):
        assert expr_to_text(parse_expression("y_1 + y_2 + y_11", CTX)) == "y1_1 + y1_2 + y1_11"

    def test_eval_numeric_of_a_long_sum(self):
        got = eval_numeric(self.long_sum(), {Y(1, 1).ref: 0.5})
        assert math.isclose(got, sum(k * 0.5 ** k for k in range(1, 1201)))

    def test_expr_key_of_a_long_sum(self):
        key = expr_key(self.long_sum())
        assert key[0] == 5 and len(key[1]) == 1200
        assert key == expr_key(self.long_sum())

    def test_expr_to_text_of_a_long_sum(self):
        assert expr_to_text(self.long_sum(), 1) == self.LONG

    def test_hash_of_a_long_sum(self):
        assert hash(self.long_sum()) == hash(self.long_sum())

    def test_pickle_of_a_long_sum(self):
        long = self.long_sum()
        assert pickle.loads(pickle.dumps(long)) == long


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

    @pytest.mark.parametrize("source, message", [
        ("z1", "unknown identifier 'z1' (at position 0)"),
        ("(y_1", "expected ')', found 'end of input' (at position 4)"),
        ("sin(y_1 y_2)", "expected ')', found 'y_2' (at position 8)"),
    ], ids=["unknown-identifier", "unclosed-parenthesis", "unclosed-call"])
    def test_error_message(self, source, message):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expression(source, CTX)
        assert str(info.value) == message

    def test_unary_plus_is_its_operand(self):
        assert parse_expression("+y_1", CTX) == Y(1, 1)
        assert expr_to_text(parse_expression("-(+y_1)", CTX), 1) == "-y_1"


class TestLagrangianSpec:
    def test_declared_order_kept(self):
        lam = parse_lagrangian(LagrangianSpec(2, 1, 2, "y_1*y_2"))
        assert lam.r == 2
        assert lam.ctx.max_order == 2

    def test_canonicalized(self):
        lam = parse_lagrangian(LagrangianSpec(2, 1, 1, "y_1*y_2 - y_2*y_1"))
        assert is_zero_expr(lam.L)
