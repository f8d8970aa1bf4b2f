"""Printers and the JSON form document.

Text output round-trips through the expression grammar; the JSON document
is versioned and stable (sorted term order, exact rational coefficients).
The LaTeX emitter mirrors the usual jet-coordinate notation (omega^sigma_J,
dx^i) so printed forms can be checked visually.

A canonical sum, monomial or quotient prints straight from its kernel
quotient, term by term in the kernel's term order, so printing builds no
tree; the factors of its terms are spelled once per atom, exponent, fiber
count and style, and the text of a quotient's denominator is kept per
denominator, fiber count and style while it stays among the most recently
printed.  A raw tree (parser
output, a tree built by hand) prints node by node, and a canonical sum among
a raw sum's terms as its terms.  Both routes share one speller of signed
terms, so they write the same text.  The JSON text of a form is written
directly, in the layout of json.dumps(document, indent=2).

One speller per language spells a coordinate and a coframe label alike
(``variable_name``, ``_latex_var``): x1, y2_12 with the letters x and y,
dx1, w2_12 with dx and w (omega in LaTeX).  The reader takes a coframe
label only in that spelling, and checks a document's basis with the step of
make_form (``forms._normal_key``): it is valid iff that step gives it back
unchanged with sign 1.
"""
from __future__ import annotations

import functools
import json
import re
from typing import Callable, NamedTuple, Optional

from .charts import ChartContext, MultiIndex
from .expr import Add, Div, Fn, Mul, Pow, Rat, ScalarExpr, Var, _canonical_parts
from .forms import CoframeElement, Dx, ExteriorForm, FormError, Omega, _normal_key, make_form
from .poly import _ATOMS, _den_entry, _poly_terms

SCHEMA_VERSION = "lepage.form/1"

_P_ADD = 10
_P_MUL = 20


def variable_name(ref, fiber_count: Optional[int] = None, base: str = "x", fiber: str = "y") -> str:
    """Coordinate spelling: x1, y2_12; the fiber index is dropped when m = 1.
    With the letters "dx" and "w" it spells a coframe label: dx1, w2_12."""
    if len(ref) == 1:
        return f"{base}{ref.i}"
    sigma = "" if fiber_count == 1 else str(ref.sigma)
    if ref.jj:
        return f"{fiber}{sigma}_{''.join(str(j) for j in ref.jj)}"
    return f"{fiber}{sigma}"


def _latex_var(ref, m: Optional[int], base: str = "x", fiber: str = "y") -> str:
    if len(ref) == 1:
        return f"{base}^{{{ref.i}}}"
    upper = "" if m == 1 else f"^{{{ref.sigma}}}"
    lower = f"_{{{''.join(str(j) for j in ref.jj)}}}" if ref.jj else ""
    return f"{fiber}{upper}{lower}"


class _Style(NamedTuple):
    """How one output language spells each node kind; ``_emit`` does the rest."""

    name: str  # keys the spelling table
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
    name="text", var=variable_name, fraction="{}/{}", wrap_fractions=True, paren="({})",
    times="*", quotient="({})/({})", bare_bases=(Var, Fn),
    exponent=lambda k: str(k) if k >= 0 else f"({k})", fn="{}({})",
)
_LATEX = _Style(
    name="latex", var=_latex_var, fraction="\\tfrac{{{}}}{{{}}}", wrap_fractions=False,
    paren="\\left({}\\right)", times="\\,", quotient="\\frac{{{}}}{{{}}}", bare_bases=(Var,),
    exponent="{{{}}}".format, fn="\\{}\\left({}\\right)",
)
_STYLES = {st.name: st for st in (_TEXT, _LATEX)}


def expr_to_text(e: ScalarExpr, fiber_count: Optional[int] = None) -> str:
    """Parseable text rendering."""
    return _emit(e, 0, fiber_count, _TEXT)


def expr_to_latex(e: ScalarExpr, fiber_count: Optional[int] = None) -> str:
    return _emit(e, 0, fiber_count, _LATEX)


def _emit(e: ScalarExpr, prec: int, m: Optional[int], st: _Style) -> str:
    # prec is 0, _P_ADD + 1 (a term of a sum) or _P_MUL (a factor); a power
    # base is printed at 0 and parenthesized whole unless it is bare
    cls = e.__class__
    # a canonical node prints from its quotient (a sum or a monomial through
    # _signed), so its tree is not built
    if cls is Div:
        parts = _canonical_parts(e)
        if parts is not None:
            num, k, den = parts
            return st.quotient.format(_signed_sum(_poly_parts(num, k, m, st)), _den_text(den, m, st.name))
        return st.quotient.format(_emit(e.num, 0, m, st), _emit(e.den, 0, m, st))
    if cls is Add:
        s = _signed_sum(_signed(e, m, st))
        return st.paren.format(s) if prec > _P_ADD else s
    if prec <= _P_ADD:
        return _signed_sum(_signed(e, m, st))
    if cls is Mul:
        return st.times.join([_emit(f, _P_MUL, m, st) for f in e.factors])
    if cls is Var:
        return st.var(e.ref, m)
    if cls is Pow:
        base = _emit(e.base, 0, m, st)
        if e.base.__class__ not in st.bare_bases:
            base = st.paren.format(base)
        elif e.base.__class__ is Var and "^" in base:
            # a superscripted LaTeX coordinate is braced: {x^{2}}^{2}
            base = f"{{{base}}}"
        return f"{base}^{st.exponent(e.exponent)}"
    if cls is Rat:
        return _rational(e.value.numerator, e.value.denominator, prec, st)
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


def _signed_sum(terms: list) -> str:
    """The sum of (negative, text of the magnitude) terms: the first is led by
    "-" when negative, the others joined by " - " or " + "."""
    parts = []
    for negative, body in terms:
        if parts:
            parts.append(" - " if negative else " + ")
        elif negative:
            parts.append("-")
        parts.append(body)
    return "".join(parts)


def _term(num: int, den: int, factors: list, st: _Style) -> str:
    """The text of the positive coefficient num/den times the factor texts;
    a coefficient of 1 is dropped before factors."""
    if not factors:
        return _rational(num, den, 0, st)
    if num == 1 == den:
        return st.times.join(factors)
    return st.times.join([_rational(num, den, _P_MUL, st), *factors])


def _signed(t: ScalarExpr, m: Optional[int], st: _Style) -> list:
    """t as terms of a sum: [(negative, text of its magnitude)].  A negative
    rational or a product led by one is negative, and a leading -1 is dropped
    from a product of more factors.  A raw sum gives the terms of its terms,
    and a canonical sum or monomial those of its quotient, as its tree would."""
    cls = t.__class__
    if cls is Rat:
        v = t.value
        if v.numerator < 0:
            return [(True, _term(-v.numerator, v.denominator, [], st))]
        return [(False, _emit(t, _P_ADD + 1, m, st))]
    parts = _canonical_parts(t) if cls is Add or cls is Mul or cls is Pow else None
    if parts is not None:
        return _poly_parts(parts[0], parts[1], m, st)
    if cls is Add:
        return [part for u in t.terms for part in _signed(u, m, st)]
    if cls is Mul and t.factors and t.factors[0].__class__ is Rat:
        head = t.factors[0].value
        if head.numerator < 0:
            rest = [_emit(f, _P_MUL, m, st) for f in t.factors[1:]]
            return [(True, _term(-head.numerator, head.denominator, rest, st))]
    return [(False, _emit(t, _P_ADD + 1, m, st))]


# The spelling of each factor a canonical polynomial prints, by (atom id,
# exponent, fiber count, style).  Like the kernel's intern tables it lives as
# long as the process and only grows; threads that race on one entry store
# equal text.
_SPELLINGS: dict = {}


def _spelled(i: int, e: int, m: Optional[int], st: _Style) -> str:
    key = (i, e, m, st.name)
    s = _SPELLINGS.get(key)
    if s is None:
        atom = _ATOMS[i]
        s = _SPELLINGS[key] = _emit(atom if e == 1 else Pow(atom, e), _P_MUL, m, st)
    return s


# The text of a canonical quotient's denominator, kept while it stays among the
# most recently printed: a form puts many coefficients over one denominator.
# Its scale, the leading coefficient, is a function of the Den.
@functools.lru_cache(maxsize=1024)
def _den_text(den: tuple, m: Optional[int], style: str) -> str:
    p, lc = _den_entry(den)
    return _signed_sum(_poly_parts(p, lc, m, _STYLES[style]))


def _poly_parts(p: dict, k: int, m: Optional[int], st: _Style) -> list:
    """The signed terms (_signed_sum's input) of the kernel polynomial p / k,
    in the kernel's term order (poly._poly_terms)."""
    return [(num < 0, _term(abs(num), den, [_spelled(i, e, m, st) for i, e in mono], st))
            for num, den, mono in _poly_terms(p, k)]


# ---------------------------------------------------------------------------
# coframe labels and form documents
# ---------------------------------------------------------------------------

_LABEL_DX = re.compile(r"^dx(\d+)$")
_LABEL_W = re.compile(r"^w(\d+)(?:_(\d+))?$")


def coframe_label(el: CoframeElement) -> str:
    return variable_name(el, None, "dx", "w")


def basis_label(key: tuple) -> str:
    """A wedge tuple spelled as its coframe labels: dx1 ∧ w1_2."""
    return " ∧ ".join(coframe_label(el) for el in key)


def parse_coframe_label(text: str) -> CoframeElement:
    """The coframe element a label spells; only the writer's own spelling is
    read, so "w1_21" (unsorted) and "dx01" (a leading zero) are refused."""
    mx = isinstance(text, str) and _LABEL_DX.match(text)
    mw = isinstance(text, str) and _LABEL_W.match(text)
    if mx:
        el = Dx(int(mx.group(1)))
    elif mw:
        el = Omega(int(mw.group(1)), MultiIndex(tuple(int(c) for c in (mw.group(2) or ""))))
    else:
        raise FormError(f"unknown coframe label {text!r}")
    spelled = coframe_label(el)
    if spelled != text:
        raise FormError(f"coframe label {text!r} must be spelled {spelled!r}")
    return el


def coframe_latex(el: CoframeElement) -> str:
    return _latex_var(el, None, "dx", "\\omega")


def form_to_text(form: ExteriorForm, fiber_count: Optional[int] = None) -> str:
    if form.is_structurally_zero():
        return "0"
    lines = []
    for key, coeff in form:
        lines.append(f"({expr_to_text(coeff, fiber_count)}) {basis_label(key) or '1'}")
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


# json.dumps(document, indent=2) of a form document and of one of its terms;
# with an indent the json module encodes in pure Python, so form_to_json fills
# these in, and json.dumps spells each string.
_JSON_FORM = """{
  "schema": %s,
  "chart": {
    "n": %d,
    "m": %d,
    "order": %d
  },
  "degree": %d,
  "terms": %s
}"""
_JSON_TERM = """{
      "coeff": %s,
      "basis": %s
    }"""


def _json_array(items: list, pad: str) -> str:
    """The JSON array of the encoded items as json.dumps indents it at pad."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def form_to_json(form: ExteriorForm) -> str:
    """json.dumps(form_to_document(form), indent=2)."""
    doc = form_to_document(form)
    chart = doc["chart"]
    terms = [_JSON_TERM % (json.dumps(t["coeff"]), _json_array([json.dumps(b) for b in t["basis"]], "      "))
             for t in doc["terms"]]
    return _JSON_FORM % (json.dumps(doc["schema"]), chart["n"], chart["m"], chart["order"], doc["degree"],
                         _json_array(terms, "  "))


def _field(doc, name: str, kind: type, where: str = ""):
    """doc[name], a kind; anything else (or nothing) is a FormError naming the field."""
    value = doc.get(name) if isinstance(doc, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormError(f"form document field {where}{name} must be {kind.__name__}, got {value!r}")
    return value


def form_from_document(doc: dict) -> ExteriorForm:
    """Rebuild a form from its document; validates its schema, field types and basis order."""
    from .parsing import parse_expression

    if not isinstance(doc, dict):
        raise FormError(f"a form document is a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise FormError(f"unsupported schema {doc.get('schema')!r}")
    chart = _field(doc, "chart", dict)
    ctx = ChartContext(*(_field(chart, name, int, "chart.") for name in ("n", "m", "order")))
    degree = _field(doc, "degree", int)
    entries = []
    for k, term in enumerate(_field(doc, "terms", list)):
        where = f"terms[{k}]."
        basis = tuple(parse_coframe_label(label) for label in _field(term, "basis", list, where))
        if _normal_key(basis, ctx.n, ctx.m, ctx.max_order) != (basis, 1):
            raise FormError(f"basis {term['basis']!r} is not strictly increasing")
        entries.append((basis, parse_expression(_field(term, "coeff", str, where), ctx)))
    return make_form(ctx, degree, entries, ctx.max_order)


def form_from_json(text: str) -> ExteriorForm:
    return form_from_document(json.loads(text))
