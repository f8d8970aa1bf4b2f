"""Expression grammar and Lagrangian parsing.

Grammar: numbers (integer, decimal, or rational written as a division),
coordinates named ``x1``, ``x2``, ... and ``y<sigma>``/``y<sigma>_<digits>``
(the fiber index may be omitted when m = 1), the operators + - * / ^ with
integer exponents, parentheses, and the functions sin, cos, exp, ln.
Implicit multiplication is not allowed.
"""
from __future__ import annotations

import operator
import re
from fractions import Fraction

from .charts import BaseVar, ChartContext, FiberVar, MultiIndex, Record
from .expr import FUNCTIONS, Div, Fn, Pow, Rat, ScalarExpr, Var
from .variational import Lagrangian


class ExprSyntaxError(ValueError):
    """Syntax error with the offending position (0-based)."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class OrderMismatchError(ValueError):
    """A jet coordinate exceeds the declared order."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


_TOKEN = re.compile(
    r"(?:(?P<number>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)

_VAR_X = re.compile(r"^x(\d+)$")
_VAR_Y = re.compile(r"^y(\d*)(?:_(\d+))?$")
_MAX_NESTING = 100  # parentheses, function calls, unary signs and ^ links, counted together


class _Token(Record):
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    out = []
    pos = 0
    size = len(src)
    while pos < size:
        if src[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(src, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos)
        text = match.group(match.lastgroup)
        out.append(_Token(match.lastgroup, text, pos))
        pos = match.end()
    out.append(_Token("end", "", size))
    return out


def _variable(name: str, pos: int, ctx: ChartContext) -> Var:
    mx = _VAR_X.match(name)
    if mx:
        i = int(mx.group(1))
        if not 1 <= i <= ctx.n:
            raise ExprSyntaxError(f"base index of {name!r} out of range 1..{ctx.n}", pos)
        return Var(BaseVar(i))
    my = _VAR_Y.match(name)
    if my:
        sigma_text, jj_text = my.group(1), my.group(2)
        if sigma_text:
            sigma = int(sigma_text)
        elif ctx.m == 1:
            sigma = 1
        else:
            raise ExprSyntaxError(
                f"fiber index required in {name!r} when m = {ctx.m}", pos
            )
        if not 1 <= sigma <= ctx.m:
            raise ExprSyntaxError(f"fiber index of {name!r} out of range 1..{ctx.m}", pos)
        jj = tuple(int(c) for c in (jj_text or ""))
        if any(not 1 <= j <= ctx.n for j in jj):
            raise ExprSyntaxError(f"jet index of {name!r} out of range 1..{ctx.n}", pos)
        if len(jj) > ctx.max_order:
            raise OrderMismatchError(
                f"coordinate {name!r} has order {len(jj)}, declared order is {ctx.max_order}",
                pos,
            )
        return Var(FiberVar(sigma, MultiIndex(jj)))
    raise ExprSyntaxError(f"unknown identifier {name!r}", pos)


class _Parser:
    """Precedence-climbing parser over the token list."""

    P_ADD = 10
    P_MUL = 20
    P_UNARY = 25
    P_POW = 30
    # each binary operator's precedence and the node it builds; a chain of +,
    # of * or of / is one node (the constructors keep it flat)
    BINARY = {"+": (P_ADD, operator.add), "-": (P_ADD, operator.sub),
              "*": (P_MUL, operator.mul), "/": (P_MUL, Div), "^": (P_POW, Pow)}

    def __init__(self, tokens: list[_Token], ctx: ChartContext):
        self.tokens = tokens
        self.ctx = ctx
        self.idx = 0
        self.height = 0

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.advance()
        if tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def parse(self) -> ScalarExpr:
        e = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)
        return e

    def nested(self, depth: int) -> int:
        """depth, or a parse error at the last token read when it is past _MAX_NESTING."""
        if depth > _MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {_MAX_NESTING}", self.tokens[self.idx - 1].pos)
        return depth

    def expression(self, min_prec: int, depth: int = 0) -> ScalarExpr:
        """The expression at depth; self.height is left at the deepest level
        it reached, which a power of it nests one level above."""
        # an atom reads at its depth; a parenthesized one raises self.height
        self.height = self.nested(depth)
        left = self.atom(depth)
        height = self.height
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in self.BINARY:
                break
            prec, build = self.BINARY[tok.text]
            if prec < min_prec:
                break
            self.advance()
            if build is Pow:
                # a power of a power nests, so each link is one more level
                height = self.nested(height + 1)
                left = Pow(left, self.integer_exponent())
            else:
                left = build(left, self.expression(prec + 1, depth))
                height = max(height, self.height)
        self.height = height
        return left

    def atom(self, depth: int) -> ScalarExpr:
        tok = self.advance()
        if tok.kind == "number":
            return Rat(Fraction(tok.text))
        if tok.kind == "ident":
            if self.peek().text == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos)
                self.expect("(")
                arg = self.expression(0, depth + 1)
                self.expect(")")
                return Fn(tok.text, arg)
            return _variable(tok.text, tok.pos, self.ctx)
        if tok.text == "(":
            e = self.expression(0, depth + 1)
            self.expect(")")
            return e
        if tok.text == "-":
            return -self.expression(self.P_UNARY, depth + 1)
        if tok.text == "+":
            return self.expression(self.P_UNARY, depth + 1)
        raise ExprSyntaxError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)

    def integer_exponent(self) -> int:
        tok = self.peek()
        negative = False
        parenthesized = False
        if tok.text == "(":
            parenthesized = True
            self.advance()
            tok = self.peek()
        if tok.text == "-":
            negative = True
            self.advance()
            tok = self.peek()
        if tok.kind != "number" or "." in tok.text:
            raise ExprSyntaxError("exponent must be an integer", tok.pos)
        self.advance()
        value = int(tok.text)
        if parenthesized:
            self.expect(")")
        return -value if negative else value


def parse_expression(src: str, ctx: ChartContext) -> ScalarExpr:
    """Parse a scalar expression against the chart, without canonicalizing."""
    return _Parser(_tokenize(src), ctx).parse()


class LagrangianSpec(Record):
    n: int
    m: int
    order: int
    source: str


def parse_lagrangian(spec: LagrangianSpec) -> Lagrangian:
    """Parse the source string into a Lagrangian with canonicalized Lagrange function."""
    ctx = ChartContext(spec.n, spec.m, spec.order)
    return Lagrangian(ctx, spec.order, parse_expression(spec.source, ctx))
