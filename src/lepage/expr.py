"""Immutable symbolic scalar expressions over jet coordinates.

The expression class covers rational operations, integer powers and the
elementary functions sin, cos, exp, ln.  Canonicalization rewrites an
expression as a quotient of Laurent polynomials over "atoms" (coordinates
and elementary-function applications):

* sums and products are flattened, sorted under a fixed total order and
  constant-folded.  The constructors keep a raw chain flat: ``Add`` and
  ``Mul`` open a raw operand of their own kind, and ``Div`` reads (a/b)/c as
  a/(b*c), so ``a + b + c`` is one ``Add`` of three terms however it was
  built, and no walk over a tree that a loop of operators, of constructors or
  the parser builds recurses once per link;
* single-term denominators are folded into negative exponents;
* multi-term denominators are kept as a single quotient node, normalized
  monic with trivial monomial content, with no polynomial cancellation.

So a purely rational expression that is identically zero canonicalizes to
the zero constant, while (y1^2 - 1)/(y1 - 1) stays a quotient.  Its canonical
numerator is nonzero exactly when its value is, so zero-testing decides it
both ways; seeded random sampling decides only expressions with function
atoms, and supplies witness points.

The arithmetic on the canonical quotients is ``lepage.poly``'s: packed
Laurent monomials over interned atoms and factored denominators.  This
module interns the atoms (``_atom_id``), turns nodes into quotients
(``_to_rf``) and back (``_render``), and differentiates, substitutes and
zero-tests them.  The atom table holds a private node of each atom, so no
node that a caller holds is ever marked canonical, and it keys a
coordinate's atom by the coordinate (``_coordinate_id``), so a partial or a
formal derivative finds an id without building a ``Var``.  ``_chain_sum``
takes a formal derivative as one sum of quotients (see ``lepage.jets``).

The operators are canonical in, canonical out.  An operand is canonical
when canonicalize made it or it is a ``Rat``.  On two canonical operands,
``*`` and unary ``-`` compute the quotient at once; ``+`` and ``-`` do so
only when both quotients have one denominator, and a canonical zero gives
the other operand itself.  Summed pair by pair over two denominators, a
value could keep a factor that the flat sum of the whole chain drops, since
no factor is related to another; so such a sum stays a raw ``Add`` and
canonicalize sums it flat.  A raw operand keeps the raw chain, so parsed and
hand-built trees print as written.  ``_summed`` adds signed pieces in one
step, as ``lepage.forms.make_form`` needs.  Unit operations keep the node:
-x of a canonical node is memoized on x; a unit ``Rat`` times x is x or -x;
and ``_summed`` returns a lone piece or its memoized negation.  So the forms
of one Lagrangian that agree on a coefficient hold one node for it, and its
partials are taken once.

Each node caches what is derived from it, for as long as the node lives, and
no module but this one reads or writes these caches:

* ``_rfc``: its canonical quotient.  A canonical value other than a
  constant or a bare atom starts as a ``Div``, ``Add``, ``Mul`` or ``Pow``
  holding only ``_rfc``, so a monomial that the next operation reads only as
  a quotient builds no node; its fields are built from the quotient on first
  read (``ScalarExpr.__getattr__``); the printers read it
  (``_canonical_parts``).  Threads that read one unbuilt node build equal trees;
* ``_aid``: the intern id of an atom; ``_vars``: its coordinates;
* ``_memo``: derived values, read and filled by ``_memoized`` and keyed
  here by a coordinate (``diff``) or by ``"neg"`` (the negation); other
  modules store values under tagged tuples through ``_memoized``, and each
  names its own keys.

A memo entry points from a node to values derived from it, never back, so
reference counting frees a dropped node and its memo.  A repeated partial
returns the same node, and ``canonicalize`` returns a node it built as it
is.  Values are immutable, operations pure and caches safe to share across
threads; threads racing on one memo entry compute equal values, and the
last one stored wins.
"""
from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Mapping, Union

from .charts import (BaseVar, ChartError, FiberVar, JetVariable, MultiIndex, Record, checked_coordinate, jet_order,
                     var_key)
from .poly import (_ATOMS, _EMPTY_MONO, _FACTORS, _FN_IDS, _IDS, _KEYS, _RF, ExprError, Poly,
                   _den_expand, _den_mul, _den_poly, _grow_atoms, _intern, _p_atom, _p_partial,
                   _p_times, _pairs, _poly_terms, _reach, _rf_const, _rf_div, _rf_mul, _rf_neg,
                   _rf_pow, _rf_reduce, _rf_scales, _rf_sum, _top_order)

Number = Union[int, Fraction]

FUNCTIONS = ("sin", "cos", "exp", "ln")


class EvalDomainError(ExprError):
    """Numeric evaluation hit a pole or an out-of-domain function argument."""

    def __init__(self, reason: str, offender: "ScalarExpr"):
        super().__init__(f"{reason}: {offender!r}")
        self.reason, self.offender = reason, offender


class MissingVariableError(ExprError):
    """A point assignment does not cover every variable."""


class SamplingFailure(ExprError):
    """Every sample point was rejected by the pole guard."""


# ---------------------------------------------------------------------------
# node types
# ---------------------------------------------------------------------------


class ScalarExpr(Record):
    """Base node; subclasses form the expression tree.  Each writes out its
    constructor: nodes are the records built most often."""

    def __add__(self, other) -> "ScalarExpr":
        return _plus(self, as_expr(other))

    def __radd__(self, other) -> "ScalarExpr":
        return _plus(as_expr(other), self)

    def __sub__(self, other) -> "ScalarExpr":
        return _plus(self, -as_expr(other))

    def __rsub__(self, other) -> "ScalarExpr":
        return _plus(as_expr(other), -self)

    def __mul__(self, other) -> "ScalarExpr":
        return _times(self, as_expr(other))

    def __rmul__(self, other) -> "ScalarExpr":
        return _times(as_expr(other), self)

    def __truediv__(self, other) -> "ScalarExpr":
        return Div(self, as_expr(other))

    def __rtruediv__(self, other) -> "ScalarExpr":
        return Div(as_expr(other), self)

    def __pow__(self, exponent: int) -> "ScalarExpr":
        if type(exponent) is not int:
            raise ExprError(f"only integer powers are supported, got {exponent!r}")
        return Pow(self, exponent)

    def __neg__(self) -> "ScalarExpr":
        rf = _operand_rf(self)
        if rf is None:
            return Mul((Rat(Fraction(-1)), self))
        return _memoized(self, "neg", lambda: _render(_rf_neg(rf)))

    def __getstate__(self) -> dict:
        # the caches hold ids of this process's atom and factor tables, so a
        # pickled node carries its fields only
        return {name: getattr(self, name) for name in self._fields}

    def __getattr__(self, name: str):
        # only a missing name gets here: a field of a canonical node that
        # was made without its tree (_render) is built on first read;
        # anything else is missing
        d = self.__dict__
        if name in self._fields and "_rfc" in d:
            d.update(_tree_fields(self.__class__, d["_rfc"]))
            return d[name]
        raise AttributeError(f"{self.__class__.__name__!r} object has no attribute {name!r}")


class Rat(ScalarExpr):
    """Arbitrary-precision rational constant."""

    value: Fraction

    def __init__(self, value: Fraction) -> None:
        self.__dict__["value"] = value


class Var(ScalarExpr):
    """Reference to a jet coordinate."""

    ref: JetVariable

    def __init__(self, ref: JetVariable) -> None:
        self.__dict__["ref"] = checked_coordinate(ref)


def _flat(kind: type, items: tuple) -> tuple:
    """items with each raw node of kind among them (a sum among a sum's terms,
    a product among a product's factors) opened in place, so a chain is one
    flat node however it was built.  Such a node is flat itself; a canonical
    node stays whole, so its tree is not built."""
    for e in items:
        if e.__class__ is kind and "_canonical" not in e.__dict__:
            break
    else:
        return items
    out = []
    for e in items:
        if e.__class__ is kind and "_canonical" not in e.__dict__:
            out += e.terms if kind is Add else e.factors
        else:
            out.append(e)
    return tuple(out)


class Add(ScalarExpr):
    terms: tuple[ScalarExpr, ...]

    def __init__(self, terms: tuple[ScalarExpr, ...]) -> None:
        self.__dict__["terms"] = _flat(Add, terms)


class Mul(ScalarExpr):
    factors: tuple[ScalarExpr, ...]

    def __init__(self, factors: tuple[ScalarExpr, ...]) -> None:
        self.__dict__["factors"] = _flat(Mul, factors)


class Pow(ScalarExpr):
    base: ScalarExpr
    exponent: int

    def __init__(self, base: ScalarExpr, exponent: int) -> None:
        self.__dict__.update(base=base, exponent=exponent)


class Div(ScalarExpr):
    num: ScalarExpr
    den: ScalarExpr

    def __init__(self, num: ScalarExpr, den: ScalarExpr) -> None:
        if num.__class__ is Div and "_canonical" not in num.__dict__:
            # (a/b)/c is a/(b*c), so a chain of divisions is one node too
            num, den = num.num, Mul((num.den, den))
        self.__dict__.update(num=num, den=den)


class Fn(ScalarExpr):
    """Unary elementary function application (sin, cos, exp, ln)."""

    name: str
    arg: ScalarExpr

    def __init__(self, name: str, arg: ScalarExpr) -> None:
        self.__dict__.update(name=name, arg=arg)


ZERO = Rat(Fraction(0))


def as_expr(value) -> ScalarExpr:
    if isinstance(value, ScalarExpr):
        return value
    if isinstance(value, (int, Fraction)):
        return Rat(Fraction(value))
    raise ExprError(f"cannot interpret {value!r} as a scalar expression")


def const(value: Number, den: int = 1) -> Rat:
    return Rat(Fraction(value, den))


def X(i: int) -> Var:
    """The base coordinate x^i."""
    return Var(BaseVar(i))


def Y(sigma: int, *jj: int) -> Var:
    """The jet coordinate y^sigma_J, e.g. Y(1, 1, 2) for y^1_12."""
    return Var(FiberVar(sigma, MultiIndex(jj)))


def sin(e) -> Fn:
    return Fn("sin", as_expr(e))


def cos(e) -> Fn:
    return Fn("cos", as_expr(e))


def exp(e) -> Fn:
    return Fn("exp", as_expr(e))


def ln(e) -> Fn:
    return Fn("ln", as_expr(e))


def expr_key(e: ScalarExpr) -> tuple:
    """Structural total order over expression trees."""
    if isinstance(e, Rat):
        return (0, e.value.numerator, e.value.denominator)
    if isinstance(e, Var):
        return (1,) + var_key(e.ref)
    if isinstance(e, Fn):
        return (2, e.name, expr_key(e.arg))
    if isinstance(e, Pow):
        return (3, expr_key(e.base), e.exponent)
    if isinstance(e, Mul):
        return (4, tuple(expr_key(f) for f in e.factors))
    if isinstance(e, Add):
        return (5, tuple(expr_key(t) for t in e.terms))
    if isinstance(e, Div):
        return (6, expr_key(e.num), expr_key(e.den))
    raise ExprError(f"unknown node {e!r}")


def variables(e: ScalarExpr) -> frozenset[JetVariable]:
    """All coordinates of the canonical form (function arguments included): in a
    raw tree, a coordinate that cancels, as in ``X(1) - X(1)``, does not count."""
    found = e.__dict__.get("_vars")
    if found is not None:
        return found
    found = frozenset(ref for atom in _rf_atoms(_to_rf(e))
                      for ref in ((atom.ref,) if isinstance(atom, Var) else variables(atom.arg)))
    e.__dict__["_vars"] = found
    return found


def max_jet_order(e: ScalarExpr) -> int:
    """Highest jet order among the coordinates of the expression (function
    arguments included), read from the atoms its quotient reaches."""
    return _top_order(_rf_reach(_to_rf(e)))


# ---------------------------------------------------------------------------
# canonical engine: nodes to and from the quotients of lepage.poly
# ---------------------------------------------------------------------------


def _atom_id(atom: ScalarExpr) -> int:
    """The id of a Var or Fn atom.  _ATOMS holds a private node of each atom,
    so no node that a caller holds is ever marked canonical."""
    i = atom.__dict__.get("_aid")
    if i is None:
        i = _coordinate_id(atom.ref) if atom.__class__ is Var else _intern(
            _IDS, _ATOMS, _KEYS, atom, Fn(atom.name, atom.arg),
            lambda: (1, atom.name, expr_key(atom.arg)), _grow)
        atom.__dict__["_aid"] = i
    return i


def _coordinate_id(v: JetVariable) -> int:
    """The id of the coordinate v's atom: _IDS keys a coordinate atom by the
    coordinate itself, so a partial finds its atom without building a Var."""
    i = _IDS.get(v)
    return i if i is not None else _intern(_IDS, _ATOMS, _KEYS, v, Var(v), lambda: (0,) + var_key(v), _grow)


def _grow(i: int, key: tuple) -> None:
    # under the intern lock, before the id is published: the private node
    # is canonical from the start, wherever it is read.  A function atom's
    # order is its argument's, read from the argument's cached quotient, so
    # nothing is interned here
    atom = _ATOMS[i]
    _grow_atoms(i, key, jet_order(atom.ref) if atom.__class__ is Var else max_jet_order(atom.arg))
    atom.__dict__.update(_aid=i, _rfc=_RF(_p_atom(i)), _canonical=True)


def _to_rf(e: ScalarExpr) -> _RF:
    cached = e.__dict__.get("_rfc")
    if cached is not None:
        return cached
    if isinstance(e, Rat):
        rf = _rf_const(e.value)
    elif isinstance(e, Var):
        rf = _RF(_p_atom(_atom_id(e)))
    elif isinstance(e, Add):
        rf = _rf_sum(map(_to_rf, e.terms))
    elif isinstance(e, Mul):
        rf = functools.reduce(_rf_mul, map(_to_rf, e.factors), _rf_const(1))
    elif isinstance(e, Pow):
        rf = _rf_pow(_to_rf(e.base), e.exponent)
    elif isinstance(e, Div):
        rf = _to_rf(e.num)
        # a divisor written as a product of powers divides factor by factor,
        # so 1/B^k and B^-k share one factor map
        for f in e.den.factors if isinstance(e.den, Mul) else (e.den,):
            if isinstance(f, Pow):
                rf = _rf_mul(rf, _rf_pow(_to_rf(f.base), -f.exponent))
            else:
                rf = _rf_div(rf, _to_rf(f))
    elif isinstance(e, Fn):
        if e.name not in FUNCTIONS:
            raise ExprError(f"unknown function {e.name!r}")
        atom = Fn(e.name, canonicalize(e.arg))
        rf = _RF(_p_atom(_atom_id(atom)))
    else:
        raise ExprError(f"unknown node {e!r}")
    e.__dict__["_rfc"] = rf
    return rf


def _render_poly(p: Poly, k: int) -> ScalarExpr:
    """The polynomial p / k for a nonzero int k."""
    if not p:
        return ZERO
    nodes = []
    for num, den, mono in _poly_terms(p, k):
        factors = [_ATOMS[i] if e == 1 else Pow(_ATOMS[i], e) for i, e in mono]
        if not factors:
            nodes.append(Rat(Fraction(num, den)))
        elif num == 1 == den:
            nodes.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
        else:
            nodes.append(Mul((Rat(Fraction(num, den)), *factors)))
    return nodes[0] if len(nodes) == 1 else Add(tuple(nodes))


def _tree_fields(kind: type, rf: _RF) -> dict:
    """The fields of the canonical Div tree of rf, or of its Add, Mul or Pow
    tree when it has no denominator."""
    kn, kd = _rf_scales(rf)
    if kind is Div:
        return {"num": _render_poly(rf.num, kn), "den": _render_poly(_den_poly(rf.den), kd)}
    return _render_poly(rf.num, kn).__dict__


def _render(rf: _RF) -> ScalarExpr:
    """The canonical node of rf.  A constant is a Rat and a bare atom its
    private node; any other value is a Div, Add, Mul or Pow that holds only
    rf until a field is read."""
    num = rf.num
    if rf.den:
        out = Div.__new__(Div)
    elif len(num) > 1:
        out = Add.__new__(Add)
    else:
        mono, c = next(iter(num.items()), (_EMPTY_MONO, 0))
        pairs = _pairs(mono)
        if not pairs:
            out = Rat(Fraction(c, rf.d)) if c else ZERO
        elif len(pairs) > 1 or c != 1 or rf.d != 1:
            out = Mul.__new__(Mul)
        elif pairs[0][1] == 1:
            return _ATOMS[pairs[0][0]]
        else:
            out = Pow.__new__(Pow)
    d = out.__dict__
    d["_rfc"] = rf
    d["_canonical"] = True
    return out


def _canonical_parts(e: ScalarExpr) -> tuple | None:
    """For a node that canonicalize made, the numerator, its divisor in the
    monic form and the Den of its quotient, which the printers read; else None."""
    d = e.__dict__
    if "_canonical" not in d:
        return None
    rf = d["_rfc"]
    return rf.num, _rf_scales(rf)[0], rf.den


def _memoized(e: ScalarExpr, key, make, *args) -> ScalarExpr:
    """e's memo entry under key; on a miss, make(*args) stored there."""
    try:
        return e.__dict__["_memo"][key]
    except KeyError:
        memo = e.__dict__.setdefault("_memo", {})
    out = memo[key] = make(*args)
    return out


# ---------------------------------------------------------------------------
# public kernel operations
# ---------------------------------------------------------------------------


def _operand_rf(e: ScalarExpr) -> _RF | None:
    """The quotient of a canonical operand (a node canonicalize made, or a
    Rat), else None."""
    d = e.__dict__
    if "_canonical" in d:
        return d["_rfc"]
    return _to_rf(e) if e.__class__ is Rat else None


def _plus(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    """a + b: for two canonical operands over one denominator their canonical
    sum, and for a canonical zero the other operand; else a raw Add, which
    canonicalize sums flat (see the module docstring)."""
    ra = _operand_rf(a)
    rb = None if ra is None else _operand_rf(b)
    if rb is None:
        return Add((a, b))
    if not rb.num:
        return a
    if not ra.num:
        return b
    if ra.den != rb.den:
        return Add((a, b))
    return _render(_rf_sum((ra, rb)))


def _times(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    """a * b: canonical for two canonical operands, else a raw Mul; a unit
    Rat times a node canonicalize made is that node or its negation."""
    ra = _operand_rf(a)
    rb = None if ra is None else _operand_rf(b)
    if rb is None:
        return Mul((a, b))
    if a.__class__ is Rat and a.value in (1, -1) and "_canonical" in b.__dict__:
        return b if a.value == 1 else -b
    return _render(_rf_mul(ra, rb))


def _summed(pieces: list) -> ScalarExpr:
    """The canonical sum of (node, sign) pieces, sign 1 or -1, as one _rf_sum
    over their quotients: a raw Add with sign 1 gives its terms, as ``Add``
    opens it, and a lone canonical piece is returned itself or negated (-e)."""
    if len(pieces) == 1:
        e, sign = pieces[0]
        if "_canonical" in e.__dict__:
            return e if sign == 1 else -e
    rfs = []
    for e, sign in pieces:
        if sign != 1:
            rfs.append(_rf_neg(_to_rf(e)))
        elif e.__class__ is Add and "_canonical" not in e.__dict__:
            rfs += map(_to_rf, e.terms)
        else:
            rfs.append(_to_rf(e))
    return _render(_rf_sum(rfs))


def canonicalize(e: ScalarExpr) -> ScalarExpr:
    """Canonical representative; idempotent and value-preserving."""
    if "_canonical" in e.__dict__:
        return e
    return _render(_to_rf(e))


def is_zero_expr(e: ScalarExpr) -> bool:
    """True iff the canonical form is the zero constant."""
    return not _to_rf(e).num


def constant_value(e: ScalarExpr) -> Fraction | None:
    """The value of a canonically constant expression, else None."""
    rf = _to_rf(e)
    if not rf.num:
        return Fraction(0)
    if not rf.den and len(rf.num) == 1 and _EMPTY_MONO in rf.num:
        return Fraction(rf.num[_EMPTY_MONO], rf.d)
    return None


_FN_EVAL = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _fn_derivative(name: str, arg: ScalarExpr, arg_rf: _RF) -> _RF:
    if name == "sin":
        return _RF(_p_atom(_atom_id(Fn("cos", arg))))
    if name == "cos":
        return _rf_neg(_RF(_p_atom(_atom_id(Fn("sin", arg)))))
    if name == "exp":
        return _RF(_p_atom(_atom_id(Fn("exp", arg))))
    if name == "ln":
        return _rf_div(_rf_const(1), arg_rf)
    raise ExprError(f"unknown function {name!r}")


def _poly_diff(p: Poly, v: JetVariable) -> _RF:
    i = _IDS.get(v)
    plain = {} if i is None else _p_partial(p, i)
    extras = []
    if _FN_IDS and any(_ATOMS[i].__class__ is Fn for i, _ in _pairs(_reach(p))):
        for mono, c in p.items():
            for i, _ in _pairs(mono):
                atom = _ATOMS[i]
                if atom.__class__ is Fn:
                    arg_rf = _to_rf(atom.arg)
                    darg = _rf_diff(arg_rf, v)
                    if darg.num:
                        rest = _RF(_p_partial({mono: c}, i))
                        extras.append(_rf_mul(_rf_mul(rest, _fn_derivative(atom.name, atom.arg, arg_rf)), darg))
    return _rf_sum([_RF(plain)] + extras) if extras else _RF(plain)


def _rf_diff(rf: _RF, v: JetVariable) -> _RF:
    dnum = _poly_diff(rf.num, v)
    # the factors of den that depend on v, with their exponents and partials
    moving = []
    for f, e in rf.den:
        df = _poly_diff(_FACTORS[f], v)
        if df.num:
            moving.append((f, e, df))
    if not moving:
        return _rf_reduce(dnum.num, _den_mul(dnum.den, rf.den), dnum.d * rf.d)
    # the quotient rule over D P, P the product of the moving factors:
    # (N_v P - N sum_f e_f F_f' P / F_f) / (d D P)
    p_den = tuple((f, 1) for f, _, _ in moving)
    terms = []
    for f, e, df in moving:
        others = tuple(fe for fe in p_den if fe[0] != f)
        terms.append(_rf_mul(_RF(_p_times(_den_expand(others), e)), df))
    top = _rf_sum((_rf_mul(dnum, _RF(_den_expand(p_den))),
                   _rf_neg(_rf_mul(_RF(rf.num), _rf_sum(terms)))))
    return _rf_reduce(top.num, _den_mul(top.den, _den_mul(rf.den, p_den)), top.d * rf.d)


def _partial(e: ScalarExpr, v: JetVariable) -> ScalarExpr:
    return _render(_rf_diff(_to_rf(e), v))


def diff(e: ScalarExpr, v: JetVariable) -> ScalarExpr:
    """Plain coordinate partial, treating each sorted jet coordinate as independent."""
    if v.__class__ is not BaseVar and v.__class__ is not FiberVar:
        # refused before the memo, where a Dx or Omega would find the coordinate of its indices
        raise ChartError(f"{v!r} is not a coordinate")
    return _memoized(e, v, _partial, e, v)


@functools.lru_cache(maxsize=None)
def _prolonged(v: FiberVar, i: int) -> _RF:
    """The quotient of y^sigma_{J+i} for v = y^sigma_J, kept from its first use."""
    return _RF(_p_atom(_coordinate_id(FiberVar(v.sigma, v.jj.append(i)))))


def _chain_sum(f: ScalarExpr, i: int, fibers: list) -> ScalarExpr:
    """diff(f, x^i) + sum of diff(f, v) * y^sigma_{J+i} over the fiber
    coordinates v = y^sigma_J in fibers, in their order, as one _rf_sum."""
    first = diff(f, BaseVar(i))
    if not fibers:
        return first
    rf = _to_rf(first)
    rfs = [rf] if rf.num else []
    for v in fibers:
        rf = _to_rf(diff(f, v))
        if rf.num:
            rfs.append(_rf_mul(rf, _prolonged(v, i)))
    return _render(_rf_sum(rfs))


def substitute(e: ScalarExpr, bindings: Mapping[JetVariable, ScalarExpr]) -> ScalarExpr:
    """Simultaneous substitution, then canonicalization."""
    rfs = {checked_coordinate(v): _to_rf(as_expr(t)) for v, t in bindings.items()}
    return _render(_rf_subst(_to_rf(e), rfs))


def _rf_subst(rf: _RF, rfs: Mapping[JetVariable, _RF]) -> _RF:
    num = _poly_subst(rf.num, rfs)
    for f, e in rf.den:
        num = _rf_mul(num, _rf_pow(_poly_subst(_FACTORS[f], rfs), -e))
    return _rf_reduce(num.num, num.den, num.d * rf.d)


def _poly_subst(p: Poly, rfs: Mapping[JetVariable, _RF]) -> _RF:
    pieces: list[_RF] = []
    for mono, c in p.items():
        term = _rf_const(c)
        for i, e in _pairs(mono):
            atom = _ATOMS[i]
            if isinstance(atom, Fn):
                atom = Fn(atom.name, _render(_rf_subst(_to_rf(atom.arg), rfs)))
            target = rfs[atom.ref] if isinstance(atom, Var) and atom.ref in rfs else _RF(_p_atom(_atom_id(atom)))
            term = _rf_mul(term, _rf_pow(target, e))
        pieces.append(term)
    return _rf_sum(pieces)


def eval_numeric(e: ScalarExpr, point: Mapping[JetVariable, float]) -> float:
    """IEEE double value of the expression at the given assignment."""
    if isinstance(e, Rat):
        return float(e.value)
    if isinstance(e, Var):
        try:
            return float(point[e.ref])
        except KeyError:
            raise MissingVariableError(f"no assignment for {e.ref!r}") from None
    if isinstance(e, Add):
        return sum(eval_numeric(t, point) for t in e.terms)
    if isinstance(e, Mul):
        return math.prod(eval_numeric(f, point) for f in e.factors)
    if isinstance(e, Pow):
        base = eval_numeric(e.base, point)
        if base == 0.0 and e.exponent < 0:
            raise EvalDomainError("pole: zero base with negative exponent", e)
        try:
            return base ** e.exponent
        except OverflowError:
            raise EvalDomainError("overflow", e) from None
    if isinstance(e, Div):
        den = eval_numeric(e.den, point)
        if den == 0.0:
            raise EvalDomainError("pole: division by zero", e)
        return eval_numeric(e.num, point) / den
    if isinstance(e, Fn):
        arg = eval_numeric(e.arg, point)
        if e.name == "ln":
            if arg <= 0.0:
                raise EvalDomainError("ln of a non-positive argument", e)
            return math.log(arg)
        try:
            return _FN_EVAL[e.name](arg)
        except OverflowError:
            raise EvalDomainError("overflow", e) from None
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# zero-testing
# ---------------------------------------------------------------------------


class ZeroPolicy(Record):
    """Sampling policy for the randomized zero test."""

    samples: int
    abs_tol: float
    seed: int

    def __init__(self, samples: int = 25, abs_tol: float = 1e-9, seed: int = 0) -> None:
        # a nan or inf tolerance calls every sampled value zero, a negative one none
        if not 0 <= abs_tol < math.inf:
            raise ExprError(f"sampling tolerance must be finite and >= 0, got {abs_tol}")
        if samples < 1:
            raise ExprError(f"sample count must be >= 1, got {samples}")
        self.__dict__.update(samples=samples, abs_tol=abs_tol, seed=seed)


# The fixed part of the sampling: coordinates are drawn from _SAMPLE_BOX, a
# point within _POLE_GUARD of a pole is rejected (_MAX_ATTEMPTS times in a row
# skips the sample), and a value is nonzero from abs_tol + _REL_TOL * magnitude.
_SAMPLE_BOX = (-2.0, 2.0)
_POLE_GUARD = 1e-6
_REL_TOL = 1e-8
_MAX_ATTEMPTS = 60


DEFAULT_POLICY = ZeroPolicy()

PROVEN_ZERO = "proven-zero"
PROVEN_NONZERO = "proven-nonzero"
NUMERIC_ZERO = "numeric-zero"
NUMERIC_NONZERO = "numeric-nonzero"


class ZeroVerdict(Record):
    kind: str
    witness: dict | None = None
    value: float | None = None

    @property
    def is_zero(self) -> bool:
        return self.kind in (PROVEN_ZERO, NUMERIC_ZERO)

    def __bool__(self) -> bool:
        return self.is_zero


# Most zero tests prove a zero, and a verdict is immutable: they all share one.
_ZERO_VERDICT = ZeroVerdict(PROVEN_ZERO)


class _SampleRejected(Exception):
    pass


def _guarded(value: float, guard: float) -> float:
    if abs(value) < guard:
        raise _SampleRejected
    return value


def _rf_eval(rf: _RF, scales: tuple[int, int], point: Mapping[JetVariable, float],
             guard: float) -> tuple[float, float]:
    """Value and a cancellation-aware magnitude estimate of the monic form
    (``scales`` is ``_rf_scales(rf)``); raises on guarded poles."""
    val, mag = _poly_eval(rf.num, scales[0], point, guard)
    if not rf.den:
        return val, mag
    dval, _ = _poly_eval(_den_poly(rf.den), scales[1], point, guard)
    dval = _guarded(dval, guard)
    return val / dval, mag / abs(dval)


def _poly_eval(p: Poly, k: int, point, guard: float) -> tuple[float, float]:
    total = 0.0
    mag = 0.0
    for mono, c in p.items():
        term = c / k  # correctly rounded, as float(Fraction(c, k)) is
        for i, e in _pairs(mono):
            av = _atom_eval(_ATOMS[i], point, guard)
            if e < 0:
                av = _guarded(av, guard)
            try:
                term *= av ** e
            except OverflowError:
                raise _SampleRejected from None
        total += term
        mag += abs(term)
    return total, mag


def _atom_eval(atom: ScalarExpr, point, guard: float) -> float:
    if isinstance(atom, Var):
        return float(point[atom.ref])
    arg_rf = _to_rf(atom.arg)
    arg, _ = _rf_eval(arg_rf, _rf_scales(arg_rf), point, guard)
    if atom.name == "ln":
        if arg < guard:
            raise _SampleRejected
        return math.log(arg)
    try:
        return _FN_EVAL[atom.name](arg)
    except OverflowError:
        raise _SampleRejected from None


def equals_zero(e: ScalarExpr, policy: ZeroPolicy = DEFAULT_POLICY) -> ZeroVerdict:
    """Symbolic zero test with a seeded randomized numeric fallback."""
    rf = _to_rf(e)
    if not rf.num:
        return _ZERO_VERDICT
    value = constant_value(e)
    if value is not None:
        return ZeroVerdict(PROVEN_NONZERO, witness={}, value=float(value))
    vars_ = sorted(variables(e), key=var_key)
    scales = _rf_scales(rf)
    rng = random.Random(policy.seed)
    lo, hi = _SAMPLE_BOX
    largest: tuple[float, dict] | None = None
    for _ in range(policy.samples):
        point = None
        for _ in range(_MAX_ATTEMPTS):
            candidate = {v: rng.uniform(lo, hi) for v in vars_}
            try:
                val, mag = _rf_eval(rf, scales, candidate, _POLE_GUARD)
            except _SampleRejected:
                continue
            point = candidate
            break
        if point is None:
            continue
        if abs(val) >= policy.abs_tol + _REL_TOL * mag:
            return ZeroVerdict(PROVEN_NONZERO if _is_rational(rf) else NUMERIC_NONZERO,
                               witness=point, value=val)
        if largest is None or abs(val) > abs(largest[0]):
            largest = (val, point)
    if _is_rational(rf):
        # distinct Laurent monomials in independent coordinates are linearly
        # independent functions, so a nonzero numerator is a nonzero value
        val, point = largest or (None, None)
        return ZeroVerdict(PROVEN_NONZERO, witness=point, value=val)
    if largest is None:
        raise SamplingFailure("every sample point was rejected by the pole guard")
    return ZeroVerdict(NUMERIC_ZERO)


def _rf_reach(rf: _RF) -> int:
    """The _reach of a quotient's numerator and of its denominator's factors."""
    r = _reach(rf.num)
    for f, _ in rf.den:
        r |= _reach(_FACTORS[f])
    return r


def _rf_atoms(rf: _RF) -> list:
    """The atoms of a quotient: those of its numerator and of its denominator's factors."""
    return [_ATOMS[i] for i, _ in _pairs(_rf_reach(rf))]


def _is_rational(rf: _RF) -> bool:
    """True iff every atom of the quotient is a coordinate (no function atoms)."""
    return all(isinstance(atom, Var) for atom in _rf_atoms(rf))
