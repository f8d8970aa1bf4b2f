"""Immutable symbolic scalar expressions over jet coordinates.

The expression class covers rational operations, integer powers and the
elementary functions sin, cos, exp, ln.  Canonicalization rewrites an
expression as a quotient of Laurent polynomials over "atoms" (coordinates
and elementary-function applications):

* sums and products are flattened, sorted under a fixed total order and
  constant-folded;
* single-term denominators are folded into negative exponents;
* multi-term denominators are kept as a single quotient node, normalized
  monic with trivial monomial content, with no polynomial cancellation.

A purely rational expression that is identically zero therefore
canonicalizes to the zero constant, while quotients such as
(y1^2 - 1)/(y1 - 1) stay quotients.  The canonical numerator of a purely
rational expression is nonzero exactly when its value is, so zero-testing
decides such expressions both ways; seeded random sampling decides only
expressions with function atoms, and supplies witness points.

Each node caches what is derived from it: its canonical quotient, the sort
key of an atom, and a memo of its partials (``diff``) and rational
multiples (``scale``), so a repeated partial returns the same node.  Nodes
built by canonicalization are marked, and ``canonicalize`` returns a marked
node as it is.  The memo lives as long as its node; no module-level cache
holds state.

All values are immutable and the operations are pure; the caches are
attached transparently and are safe to share across threads.  Threads that
race on one memo entry compute equal values, and the last one stored wins.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence, Union

from .charts import BaseVar, FiberVar, JetVariable, MultiIndex, jet_order, var_key

Number = Union[int, Fraction]

FUNCTIONS = ("sin", "cos", "exp", "ln")


class ExprError(ValueError):
    """Malformed expression or undefined operation."""


class EvalDomainError(ExprError):
    """Numeric evaluation hit a pole or an out-of-domain function argument."""

    def __init__(self, message: str, offender: "ScalarExpr"):
        super().__init__(f"{message}: {offender!r}")
        self.offender = offender


class MissingVariableError(ExprError):
    """A point assignment does not cover every variable."""


class SamplingFailure(ExprError):
    """Every sample point was rejected by the pole guard."""


# ---------------------------------------------------------------------------
# node types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarExpr:
    """Base node; subclasses form the expression tree."""

    def __add__(self, other) -> "ScalarExpr":
        return Add((self, as_expr(other)))

    def __radd__(self, other) -> "ScalarExpr":
        return Add((as_expr(other), self))

    def __sub__(self, other) -> "ScalarExpr":
        return Add((self, Mul((Rat(Fraction(-1)), as_expr(other)))))

    def __rsub__(self, other) -> "ScalarExpr":
        return Add((as_expr(other), Mul((Rat(Fraction(-1)), self))))

    def __mul__(self, other) -> "ScalarExpr":
        return Mul((self, as_expr(other)))

    def __rmul__(self, other) -> "ScalarExpr":
        return Mul((as_expr(other), self))

    def __truediv__(self, other) -> "ScalarExpr":
        return Div(self, as_expr(other))

    def __rtruediv__(self, other) -> "ScalarExpr":
        return Div(as_expr(other), self)

    def __pow__(self, exponent: int) -> "ScalarExpr":
        if not isinstance(exponent, int):
            raise ExprError(f"only integer powers are supported, got {exponent!r}")
        return Pow(self, exponent)

    def __neg__(self) -> "ScalarExpr":
        return Mul((Rat(Fraction(-1)), self))


@dataclass(frozen=True)
class Rat(ScalarExpr):
    """Arbitrary-precision rational constant."""

    value: Fraction


@dataclass(frozen=True)
class Var(ScalarExpr):
    """Reference to a jet coordinate."""

    ref: JetVariable


@dataclass(frozen=True)
class Add(ScalarExpr):
    terms: tuple[ScalarExpr, ...]


@dataclass(frozen=True)
class Mul(ScalarExpr):
    factors: tuple[ScalarExpr, ...]


@dataclass(frozen=True)
class Pow(ScalarExpr):
    base: ScalarExpr
    exponent: int


@dataclass(frozen=True)
class Div(ScalarExpr):
    num: ScalarExpr
    den: ScalarExpr


@dataclass(frozen=True)
class Fn(ScalarExpr):
    """Unary elementary function application (sin, cos, exp, ln)."""

    name: str
    arg: ScalarExpr


ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))


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
    """All coordinates occurring in the expression (function arguments included)."""
    out: set[JetVariable] = set()
    _collect_vars(e, out)
    return frozenset(out)


def _collect_vars(e: ScalarExpr, out: set) -> None:
    if isinstance(e, Var):
        out.add(e.ref)
    elif isinstance(e, Add):
        for t in e.terms:
            _collect_vars(t, out)
    elif isinstance(e, Mul):
        for f in e.factors:
            _collect_vars(f, out)
    elif isinstance(e, Pow):
        _collect_vars(e.base, out)
    elif isinstance(e, Div):
        _collect_vars(e.num, out)
        _collect_vars(e.den, out)
    elif isinstance(e, Fn):
        _collect_vars(e.arg, out)


def max_jet_order(e: ScalarExpr) -> int:
    """Highest jet order among the coordinates of the expression."""
    return max((jet_order(v) for v in variables(e)), default=0)


# ---------------------------------------------------------------------------
# canonical engine: Laurent polynomials over atoms, single-quotient forms
# ---------------------------------------------------------------------------
#
# Atom       = Var node | Fn node with canonical argument
# Monomial   = tuple of (atom, exponent), sorted by atom key, exponents != 0
# Poly       = dict mapping monomial -> Fraction (no zero coefficients)
# _RF        = (num: Poly, den: Poly); den == _P_ONE_KEY for Laurent values,
#              otherwise den is monic, content-free and has >= 2 terms.

Mono = tuple
Poly = dict

_EMPTY_MONO: Mono = ()
_P_ONE: Poly = {_EMPTY_MONO: Fraction(1)}


class _RF(NamedTuple):
    num: Poly
    den: Poly


def _atom_key(atom: ScalarExpr) -> tuple:
    try:
        return atom._atom_key
    except AttributeError:
        if isinstance(atom, Var):
            key = (0,) + var_key(atom.ref)
        else:
            key = (1, atom.name, expr_key(atom.arg))
        object.__setattr__(atom, "_atom_key", key)
        return key


def _mono_key(mono: Mono) -> tuple:
    return tuple((_atom_key(a), e) for a, e in mono)


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    ia, ib = 0, 0
    while ia < len(a) and ib < len(b):
        ka, kb = _atom_key(a[ia][0]), _atom_key(b[ib][0])
        if ka == kb:
            e = a[ia][1] + b[ib][1]
            if e:
                out.append((a[ia][0], e))
            ia += 1
            ib += 1
        elif ka < kb:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def _mono_inv(mono: Mono) -> Mono:
    return tuple((a, -e) for a, e in mono)


def _p_const(c: Fraction) -> Poly:
    return {_EMPTY_MONO: c} if c else {}


def _p_atom(atom: ScalarExpr, e: int = 1) -> Poly:
    return {((atom, e),): Fraction(1)}


def _p_add_into(acc: Poly, p: Poly, scale: Fraction = Fraction(1)) -> None:
    for mono, c in p.items():
        v = acc.get(mono, Fraction(0)) + c * scale
        if v:
            acc[mono] = v
        elif mono in acc:
            del acc[mono]


def _p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = _mono_mul(ma, mb)
            v = out.get(mono, Fraction(0)) + ca * cb
            if v:
                out[mono] = v
            elif mono in out:
                del out[mono]
    return out


def _p_pow(a: Poly, k: int) -> Poly:
    out = dict(_P_ONE)
    base = a
    n = k
    while n:
        if n & 1:
            out = _p_mul(out, base)
        n >>= 1
        if n:
            base = _p_mul(base, base)
    return out


def _p_scale(a: Poly, c: Fraction) -> Poly:
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def _p_mono_shift(a: Poly, mono: Mono) -> Poly:
    if not mono:
        return a
    return {_mono_mul(m, mono): v for m, v in a.items()}


def _p_leading(a: Poly) -> Mono:
    return max(a, key=_mono_key)


def _rf_normalize(num: Poly, den: Poly) -> _RF:
    if not den:
        raise ExprError("division by an identically zero denominator")
    if not num:
        return _RF({}, dict(_P_ONE))
    if len(den) == 1:
        (mono, c), = den.items()
        inv = _mono_inv(mono)
        return _RF({_mono_mul(m, inv): v / c for m, v in num.items()}, dict(_P_ONE))
    # factor the monomial content out of the denominator
    content: dict = {}
    first = True
    for mono in den:
        if first:
            content = {_atom_key(a): (a, e) for a, e in mono}
            first = False
        else:
            seen = {_atom_key(a): e for a, e in mono}
            for key in list(content):
                a, e = content[key]
                content[key] = (a, min(e, seen.get(key, 0)))
            for a, e in mono:
                key = _atom_key(a)
                if key not in content and e < 0:
                    content[key] = (a, e)
    content_mono = tuple(
        (a, e) for _, (a, e) in sorted(content.items()) if e != 0
    )
    if content_mono:
        inv = _mono_inv(content_mono)
        den = _p_mono_shift(den, inv)
        num = _p_mono_shift(num, inv)
    lc = den[_p_leading(den)]
    if lc != 1:
        inv_lc = Fraction(1) / lc
        den = _p_scale(den, inv_lc)
        num = _p_scale(num, inv_lc)
    return _RF(num, den)


def _rf_const(c: Fraction) -> _RF:
    return _RF(_p_const(c), dict(_P_ONE))


def _rf_is_laurent(rf: _RF) -> bool:
    return rf.den == _P_ONE


def _rf_add(a: _RF, b: _RF) -> _RF:
    if a.den == b.den:
        num = dict(a.num)
        _p_add_into(num, b.num)
        return _rf_normalize(num, a.den)
    num = _p_mul(a.num, b.den)
    _p_add_into(num, _p_mul(b.num, a.den))
    return _rf_normalize(num, _p_mul(a.den, b.den))


def _den_signature(den: Poly) -> tuple:
    return tuple(sorted(((_mono_key(m), c) for m, c in den.items())))


def _rf_sum(items: Sequence[_RF]) -> _RF:
    groups: dict[tuple, _RF] = {}
    for rf in items:
        sig = _den_signature(rf.den)
        if sig in groups:
            num = dict(groups[sig].num)
            _p_add_into(num, rf.num)
            groups[sig] = _RF(num, groups[sig].den)
        else:
            groups[sig] = _RF(dict(rf.num), rf.den)
    total = _rf_const(Fraction(0))
    for _, rf in sorted(groups.items(), key=lambda kv: kv[0]):
        total = _rf_add(total, _rf_normalize(rf.num, rf.den))
    return total


def _rf_mul(a: _RF, b: _RF) -> _RF:
    return _rf_normalize(_p_mul(a.num, b.num), _p_mul(a.den, b.den))


def _rf_div(a: _RF, b: _RF) -> _RF:
    if not b.num:
        raise ExprError("division by an identically zero denominator")
    return _rf_normalize(_p_mul(a.num, b.den), _p_mul(a.den, b.num))


def _rf_neg(a: _RF) -> _RF:
    return _RF(_p_scale(a.num, Fraction(-1)), a.den)


def _rf_sub(a: _RF, b: _RF) -> _RF:
    return _rf_add(a, _rf_neg(b))


def _rf_pow(a: _RF, k: int) -> _RF:
    if k == 0:
        return _rf_const(Fraction(1))
    if k < 0:
        if not a.num:
            raise ExprError("division by an identically zero denominator")
        return _rf_pow(_rf_normalize(a.den, a.num), -k)
    return _rf_normalize(_p_pow(a.num, k), _p_pow(a.den, k))


def _to_rf(e: ScalarExpr) -> _RF:
    cached = getattr(e, "_rfc", None)
    if cached is not None:
        return cached
    if isinstance(e, Rat):
        rf = _rf_const(e.value)
    elif isinstance(e, Var):
        rf = _RF(_p_atom(e), dict(_P_ONE))
    elif isinstance(e, Add):
        rf = _rf_sum([_to_rf(t) for t in e.terms])
    elif isinstance(e, Mul):
        rf = _rf_const(Fraction(1))
        for f in e.factors:
            rf = _rf_mul(rf, _to_rf(f))
    elif isinstance(e, Pow):
        rf = _rf_pow(_to_rf(e.base), e.exponent)
    elif isinstance(e, Div):
        rf = _rf_div(_to_rf(e.num), _to_rf(e.den))
    elif isinstance(e, Fn):
        if e.name not in FUNCTIONS:
            raise ExprError(f"unknown function {e.name!r}")
        atom = Fn(e.name, canonicalize(e.arg))
        rf = _RF(_p_atom(atom), dict(_P_ONE))
    else:
        raise ExprError(f"unknown node {e!r}")
    object.__setattr__(e, "_rfc", rf)
    return rf


def _render_poly(p: Poly) -> ScalarExpr:
    if not p:
        return ZERO
    nodes = []
    for mono, c in sorted(p.items(), key=lambda kv: _mono_key(kv[0]), reverse=True):
        factors = [atom if e == 1 else Pow(atom, e) for atom, e in mono]
        if not factors:
            nodes.append(Rat(c))
        elif c == 1:
            nodes.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
        else:
            nodes.append(Mul((Rat(c), *factors)))
    return nodes[0] if len(nodes) == 1 else Add(tuple(nodes))


def _render(rf: _RF) -> ScalarExpr:
    if _rf_is_laurent(rf):
        out = _render_poly(rf.num)
    else:
        out = Div(_render_poly(rf.num), _render_poly(rf.den))
    object.__setattr__(out, "_rfc", rf)
    object.__setattr__(out, "_canonical", True)
    return out


def _memo(e: ScalarExpr) -> dict:
    """The per-node memo of derived canonical nodes, created on first use."""
    try:
        return e._memo
    except AttributeError:
        return e.__dict__.setdefault("_memo", {})


# ---------------------------------------------------------------------------
# public kernel operations
# ---------------------------------------------------------------------------


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
    if _rf_is_laurent(rf) and len(rf.num) == 1 and _EMPTY_MONO in rf.num:
        return rf.num[_EMPTY_MONO]
    return None


_FN_EVAL = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _fn_derivative(name: str, arg: ScalarExpr, arg_rf: _RF) -> _RF:
    if name == "sin":
        return _RF(_p_atom(Fn("cos", arg)), dict(_P_ONE))
    if name == "cos":
        return _rf_neg(_RF(_p_atom(Fn("sin", arg)), dict(_P_ONE)))
    if name == "exp":
        return _RF(_p_atom(Fn("exp", arg)), dict(_P_ONE))
    if name == "ln":
        return _rf_div(_rf_const(Fraction(1)), arg_rf)
    raise ExprError(f"unknown function {name!r}")


def _poly_diff(p: Poly, v: JetVariable) -> _RF:
    plain: Poly = {}
    extras: list[_RF] = []
    for mono, c in p.items():
        for pos, (atom, e) in enumerate(mono):
            rest = mono[:pos] + ((atom, e - 1),) + mono[pos + 1:]
            rest = tuple((a, k) for a, k in rest if k != 0)
            if isinstance(atom, Var):
                if atom.ref == v:
                    _p_add_into(plain, {rest: c * e})
            else:
                arg_rf = _to_rf(atom.arg)
                darg = _rf_diff(arg_rf, v)
                if not darg.num:
                    continue
                piece = _rf_mul(_RF({rest: c * e}, dict(_P_ONE)),
                                _fn_derivative(atom.name, atom.arg, arg_rf))
                extras.append(_rf_mul(piece, darg))
    return _rf_sum([_RF(plain, dict(_P_ONE))] + extras)


def _rf_diff(rf: _RF, v: JetVariable) -> _RF:
    dnum = _poly_diff(rf.num, v)
    if _rf_is_laurent(rf):
        return dnum
    den_rf = _RF(rf.den, dict(_P_ONE))
    dden = _poly_diff(rf.den, v)
    return _rf_sub(_rf_div(dnum, den_rf), _rf_mul(rf, _rf_div(dden, den_rf)))


def diff(e: ScalarExpr, v: JetVariable) -> ScalarExpr:
    """Plain coordinate partial, treating each sorted jet coordinate as independent."""
    memo = _memo(e)
    out = memo.get(v)
    if out is None:
        out = memo[v] = _render(_rf_diff(_to_rf(e), v))
    return out


def scale(e: ScalarExpr, c: Fraction) -> ScalarExpr:
    """The canonical form of c * e."""
    # shares the memo of diff: a Fraction key never equals a coordinate tuple
    memo = _memo(e)
    out = memo.get(c)
    if out is None:
        out = memo[c] = canonicalize(Rat(c) * e)
    return out


def substitute(e: ScalarExpr, bindings: Mapping[JetVariable, ScalarExpr]) -> ScalarExpr:
    """Simultaneous substitution, then canonicalization."""
    rfs = {v: _to_rf(as_expr(t)) for v, t in bindings.items()}
    return _render(_rf_subst(_to_rf(e), rfs))


def _rf_subst(rf: _RF, rfs: Mapping[JetVariable, _RF]) -> _RF:
    num = _poly_subst(rf.num, rfs)
    if _rf_is_laurent(rf):
        return num
    return _rf_div(num, _poly_subst(rf.den, rfs))


def _poly_subst(p: Poly, rfs: Mapping[JetVariable, _RF]) -> _RF:
    pieces: list[_RF] = []
    for mono, c in p.items():
        term = _rf_const(c)
        for atom, e in mono:
            if isinstance(atom, Var) and atom.ref in rfs:
                target = rfs[atom.ref]
            elif isinstance(atom, Fn):
                new_arg = _render(_rf_subst(_to_rf(atom.arg), rfs))
                target = _RF(_p_atom(Fn(atom.name, new_arg)), dict(_P_ONE))
            else:
                target = _RF(_p_atom(atom), dict(_P_ONE))
            term = _rf_mul(term, _rf_pow(target, e))
        pieces.append(term)
    return _rf_sum(pieces) if pieces else _rf_const(Fraction(0))


def eval_pole_guarded(e: ScalarExpr, point: Mapping[JetVariable, float], guard: float) -> float:
    """Evaluate via the canonical form, rejecting points where any denominator
    magnitude falls below the guard (raises EvalDomainError)."""
    try:
        value, _ = _rf_eval(_to_rf(e), point, guard)
    except _SampleRejected:
        raise EvalDomainError(f"denominator within {guard} of a pole", e) from None
    return value


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
        out = 1.0
        for f in e.factors:
            out *= eval_numeric(f, point)
        return out
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


@dataclass(frozen=True)
class ZeroPolicy:
    """Sampling policy for the randomized zero test."""

    samples: int = 25
    box: tuple[float, float] = (-2.0, 2.0)
    pole_guard: float = 1e-6
    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    seed: int = 0
    max_attempts: int = 60


DEFAULT_POLICY = ZeroPolicy()

PROVEN_ZERO = "proven-zero"
PROVEN_NONZERO = "proven-nonzero"
NUMERIC_ZERO = "numeric-zero"
NUMERIC_NONZERO = "numeric-nonzero"


@dataclass(frozen=True)
class ZeroVerdict:
    kind: str
    witness: dict | None = None
    value: float | None = None

    @property
    def is_zero(self) -> bool:
        return self.kind in (PROVEN_ZERO, NUMERIC_ZERO)

    def __bool__(self) -> bool:
        return self.is_zero


class _SampleRejected(Exception):
    pass


def _guarded(value: float, guard: float) -> float:
    if abs(value) < guard:
        raise _SampleRejected
    return value


def _rf_eval(rf: _RF, point: Mapping[JetVariable, float], guard: float) -> tuple[float, float]:
    """Value and a cancellation-aware magnitude estimate; raises on guarded poles."""
    val, mag = _poly_eval(rf.num, point, guard)
    if _rf_is_laurent(rf):
        return val, mag
    dval, _ = _poly_eval(rf.den, point, guard)
    dval = _guarded(dval, guard)
    return val / dval, mag / abs(dval)


def _poly_eval(p: Poly, point, guard: float) -> tuple[float, float]:
    total = 0.0
    mag = 0.0
    for mono, c in p.items():
        term = float(c)
        for atom, e in mono:
            av = _atom_eval(atom, point, guard)
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
    arg, _ = _rf_eval(_to_rf(atom.arg), point, guard)
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
        return ZeroVerdict(PROVEN_ZERO)
    value = constant_value(e)
    if value is not None:
        return ZeroVerdict(PROVEN_NONZERO, witness={}, value=float(value))
    vars_ = sorted(variables(e), key=var_key)
    rng = random.Random(policy.seed)
    lo, hi = policy.box
    largest: tuple[float, dict] | None = None
    for _ in range(policy.samples):
        point = None
        for _ in range(policy.max_attempts):
            candidate = {v: rng.uniform(lo, hi) for v in vars_}
            try:
                val, mag = _rf_eval(rf, candidate, policy.pole_guard)
            except _SampleRejected:
                continue
            point = candidate
            break
        if point is None:
            continue
        if abs(val) >= policy.abs_tol + policy.rel_tol * mag:
            return ZeroVerdict(NUMERIC_NONZERO, witness=point, value=val)
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


def _is_rational(rf: _RF) -> bool:
    """True iff every atom of the quotient is a coordinate (no function atoms)."""
    return all(isinstance(a, Var) for p in rf for mono in p for a, _ in mono)
