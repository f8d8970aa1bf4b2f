"""Printers and the JSON form document.

Text output round-trips through the expression grammar; the JSON document
is versioned and stable (sorted term order, exact rational coefficients).
The LaTeX emitter mirrors the usual jet-coordinate notation (omega^sigma_J,
dx^i) so printed forms can be checked visually.
"""
from __future__ import annotations

import json
import re
from typing import Callable, NamedTuple, Optional

from .charts import BaseVar, ChartContext, MultiIndex, var_key
from .expr import Add, Div, Fn, Mul, Pow, Rat, ScalarExpr, Var
from .forms import CoframeElement, Dx, ExteriorForm, FormError, Omega, make_form

SCHEMA_VERSION = "lepage.form/1"

_P_ADD = 10
_P_MUL = 20


def variable_name(ref, fiber_count: Optional[int] = None) -> str:
    """Coordinate spelling: x1, y2_12; the fiber index is dropped when m = 1."""
    if isinstance(ref, BaseVar):
        return f"x{ref.i}"
    sigma = "" if fiber_count == 1 else str(ref.sigma)
    if ref.jj:
        return f"y{sigma}_{''.join(str(j) for j in ref.jj)}"
    return f"y{sigma}"


def _latex_var(ref, m: Optional[int]) -> str:
    if isinstance(ref, BaseVar):
        return f"x^{{{ref.i}}}"
    upper = "" if m == 1 else f"^{{{ref.sigma}}}"
    lower = f"_{{{''.join(str(j) for j in ref.jj)}}}" if ref.jj else ""
    return f"y{upper}{lower}"


class _Style(NamedTuple):
    """How one output language spells each node kind; ``_emit`` does the rest."""

    var: Callable[[object, Optional[int]], str]
    fraction: str  # format string with numerator and denominator slots, signed in front
    wrap_fractions: bool  # a positive non-integral rational factor is parenthesized
    paren: str  # format string; "{}" is the parenthesized text
    times: str  # product separator
    quotient: str  # format string with numerator and denominator slots
    bare_bases: tuple  # node types raised to a power without parentheses
    exponent: Callable[[int], str]
    fn: str  # format string with function-name and argument slots


_TEXT = _Style(
    var=variable_name, fraction="{}/{}", wrap_fractions=True, paren="({})", times="*",
    quotient="({})/({})", bare_bases=(Var, Fn),
    exponent=lambda k: str(k) if k >= 0 else f"({k})", fn="{}({})",
)
_LATEX = _Style(
    var=_latex_var, fraction="\\tfrac{{{}}}{{{}}}", wrap_fractions=False,
    paren="\\left({}\\right)", times="\\,", quotient="\\frac{{{}}}{{{}}}", bare_bases=(Var,),
    exponent="{{{}}}".format, fn="\\{}\\left({}\\right)",
)


def expr_to_text(e: ScalarExpr, fiber_count: Optional[int] = None) -> str:
    """Parseable text rendering."""
    return _emit(e, 0, fiber_count, _TEXT)


def expr_to_latex(e: ScalarExpr, fiber_count: Optional[int] = None) -> str:
    return _emit(e, 0, fiber_count, _LATEX)


def _emit(e: ScalarExpr, prec: int, m: Optional[int], st: _Style) -> str:
    # prec is 0, _P_ADD + 1 (a term of a sum) or _P_MUL (a factor); a power
    # base is printed at 0 and parenthesized whole unless it is bare
    cls = e.__class__
    if prec <= _P_ADD:
        negated = _negated(e, m, st)
        if negated is not None:
            return f"-{negated}"
    if cls is Mul:
        return st.times.join([_emit(f, _P_MUL, m, st) for f in e.factors])
    if cls is Var:
        return st.var(e.ref, m)
    if cls is Pow:
        base = _emit(e.base, 0, m, st)
        if e.base.__class__ not in st.bare_bases:
            base = st.paren.format(base)
        elif "^" in base:
            # a superscripted LaTeX coordinate is braced: {x^{2}}^{2}
            base = f"{{{base}}}"
        return f"{base}^{st.exponent(e.exponent)}"
    if cls is Rat:
        return _rational(e.value.numerator, e.value.denominator, prec, st)
    if cls is Add:
        parts = []
        for t in e.terms:
            negated = _negated(t, m, st)
            if negated is not None:
                parts.append(f" - {negated}" if parts else f"-{negated}")
            else:
                body = _emit(t, _P_ADD + 1, m, st)
                parts.append(f" + {body}" if parts else body)
        s = "".join(parts)
        return st.paren.format(s) if prec > _P_ADD else s
    if cls is Div:
        return st.quotient.format(_emit(e.num, 0, m, st), _emit(e.den, 0, m, st))
    if cls is Fn:
        return st.fn.format(e.name, _emit(e.arg, 0, m, st))
    raise TypeError(f"unknown node {e!r}")


def _rational(num: int, den: int, prec: int, st: _Style) -> str:
    """The rational num/den (den > 0) at precedence prec."""
    if den == 1:
        s = str(num)
    else:
        s = ("-" if num < 0 else "") + st.fraction.format(abs(num), den)
    if prec >= _P_MUL and (num < 0 or (st.wrap_fractions and den != 1)):
        return st.paren.format(s)
    return s


def _negated(t: ScalarExpr, m: Optional[int], st: _Style) -> Optional[str]:
    """The text of -t if t is a negative rational or a product led by one,
    else None; a leading -1 is dropped from a product of more factors."""
    cls = t.__class__
    if cls is Rat:
        v = t.value
        if v.numerator < 0:
            return _rational(-v.numerator, v.denominator, _P_ADD + 1, st)
    elif cls is Mul and t.factors and t.factors[0].__class__ is Rat:
        head = t.factors[0].value
        if head.numerator < 0:
            parts = [_emit(f, _P_MUL, m, st) for f in t.factors[1:]]
            if head.numerator != -1 or head.denominator != 1 or not parts:
                parts.insert(0, _rational(-head.numerator, head.denominator, _P_MUL, st))
            return st.times.join(parts)
    return None


# ---------------------------------------------------------------------------
# coframe labels and form documents
# ---------------------------------------------------------------------------

_LABEL_DX = re.compile(r"^dx(\d+)$")
_LABEL_W = re.compile(r"^w(\d+)(?:_(\d+))?$")


def coframe_label(el: CoframeElement) -> str:
    if isinstance(el, Dx):
        return f"dx{el.i}"
    if el.jj:
        return f"w{el.sigma}_{''.join(str(j) for j in el.jj)}"
    return f"w{el.sigma}"


def parse_coframe_label(text: str) -> CoframeElement:
    mx = _LABEL_DX.match(text)
    if mx:
        return Dx(int(mx.group(1)))
    mw = _LABEL_W.match(text)
    if mw:
        jj = tuple(int(c) for c in (mw.group(2) or ""))
        return Omega(int(mw.group(1)), MultiIndex(jj))
    raise FormError(f"unknown coframe label {text!r}")


def coframe_latex(el: CoframeElement) -> str:
    if isinstance(el, Dx):
        return f"dx^{{{el.i}}}"
    lower = f"_{{{''.join(str(j) for j in el.jj)}}}" if el.jj else ""
    return f"\\omega^{{{el.sigma}}}{lower}"


def form_to_text(form: ExteriorForm, fiber_count: Optional[int] = None) -> str:
    if form.is_structurally_zero():
        return "0"
    lines = []
    for key, coeff in form:
        labels = " ∧ ".join(coframe_label(el) for el in key) or "1"
        lines.append(f"({expr_to_text(coeff, fiber_count)}) {labels}")
    return "\n+ ".join(lines)


def form_to_latex(form: ExteriorForm, fiber_count: Optional[int] = None) -> str:
    if form.is_structurally_zero():
        return "0"
    pieces = []
    for key, coeff in form:
        labels = " \\wedge ".join(coframe_latex(el) for el in key)
        body = f"\\left({expr_to_latex(coeff, fiber_count)}\\right)"
        pieces.append(f"{body} {labels}" if labels else body)
    return " + ".join(pieces)


def form_to_document(form: ExteriorForm) -> dict:
    """The versioned JSON-ready document for a form (coefficients in explicit-sigma spelling)."""
    terms = []
    for key, coeff in form:
        terms.append(
            {
                "coeff": expr_to_text(coeff, fiber_count=None),
                "basis": [coframe_label(el) for el in key],
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "chart": {"n": form.ctx.n, "m": form.ctx.m, "order": form.order},
        "degree": form.degree,
        "terms": terms,
    }


def form_to_json(form: ExteriorForm) -> str:
    return json.dumps(form_to_document(form), indent=2)


def form_from_document(doc: dict) -> ExteriorForm:
    """Rebuild a form from its document; validates the schema and basis ordering."""
    from .parsing import parse_expression

    if doc.get("schema") != SCHEMA_VERSION:
        raise FormError(f"unsupported schema {doc.get('schema')!r}")
    chart = doc["chart"]
    ctx = ChartContext(chart["n"], chart["m"], chart["order"])
    degree = doc["degree"]
    entries = []
    for term in doc["terms"]:
        basis = tuple(parse_coframe_label(label) for label in term["basis"])
        keys = [var_key(el) for el in basis]
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise FormError(f"basis {term['basis']!r} is not strictly increasing")
        coeff = parse_expression(term["coeff"], ctx)
        entries.append((basis, coeff))
    return make_form(ctx, degree, entries, chart["order"])


def form_from_json(text: str) -> ExteriorForm:
    return form_from_document(json.loads(text))
