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

Inside the kernel an atom is an int id from an intern table, and a monomial
is one int, its packed exponent vector: a signed 20-bit field per atom id
(Monagan and Pearce's packed exponents, with balanced fields for Laurent
exponents), so a product of monomials is one integer addition and one
decoder (``_pairs``) reads the (id, exponent) pairs back.  An exponent is at
most 2^17 = 131,072 in magnitude; past that is an ``ExprError``, never a
wrapped field.  Ids follow first use and no order reads them: a monomial
decodes, and a denominator is made, in its atoms' or factors' sort-key order,
and every output order compares those keys as kept.  The table lives as long
as the process and only grows; entries join under a lock (``_intern``), so
every atom gets one id whichever threads meet it first.

Every kernel coefficient is an int: a quotient keeps one positive integer
denominator beside its polynomials, and a multi-term denominator is a
product of powers of factors, integer polynomials with no common factor, so
the cost of the arithmetic does not depend on whether the coefficients
divide each other.  The monic form, with Fraction coefficients, is made
only where a quotient is rendered or evaluated, and constants leave the
kernel as Fractions.

The factors are interned in a second table, and a denominator maps factor
id to exponent.  Dividing by a multi-term polynomial, or raising it to a
negative power, makes it a factor; a divisor written as a product of powers
divides by each base, so 1/B^2 and B^-2 hold the same map.  A product adds
exponents, and a sum goes over the least common multiple of its
denominators (B^i and B^j give B^max(i,j)); a denominator whose numerators
cancelled adds nothing.  A partial of N/(d D) raises by one each factor F
of D that depends on v: with P their product and e_F their exponents, it is
(N_v P - N sum_F e_F F_v P/F) / (d D P).  No factor is ever divided out of
a numerator, and factors are never related to each other.  A quotient
renders its denominator expanded, so a node rebuilt from its rendering
(parsed text, an unpickled node) holds that product as one factor: same
value and rendering, but its partials may sit over higher powers.

Each node caches what is derived from it, for as long as the node lives:

* ``_rfc``: its canonical quotient.  A canonical sum or quotient starts as an
  ``Add`` or ``Div`` holding only ``_rfc``; its fields are built from the
  quotient on first read (``ScalarExpr.__getattr__``), and the printers read
  the quotient.  Threads that read one unbuilt node build equal trees;
* ``_aid``: the intern id of an atom; ``_vars``: its coordinates;
* ``_memo``: derived canonical nodes, keyed by a coordinate (``diff``), a
  Fraction (``scale``), and tagged tuples for the formal and symmetrized
  derivatives of ``jets`` (``("d", ...)``, ``("sym", ...)``).

So a repeated partial returns the same node, and ``canonicalize`` returns a
node it built as it is.  Values are immutable, operations pure and caches
safe to share across threads; threads racing on one memo entry compute
equal values, and the last one stored wins.
"""
from __future__ import annotations

import functools
import math
import random
import threading
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

from .charts import BaseVar, FiberVar, JetVariable, MultiIndex, Record, jet_order, var_key

Number = Union[int, Fraction]

FUNCTIONS = ("sin", "cos", "exp", "ln")


class ExprError(ValueError):
    """Malformed expression or undefined operation."""


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
        return Add((self, as_expr(other)))

    def __radd__(self, other) -> "ScalarExpr":
        return Add((as_expr(other), self))

    def __sub__(self, other) -> "ScalarExpr":
        return Add((self, -as_expr(other)))

    def __rsub__(self, other) -> "ScalarExpr":
        return Add((as_expr(other), -self))

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

    def __getstate__(self) -> dict:
        # the caches hold ids of this process's atom and factor tables, so a
        # pickled node carries its fields only
        return {name: getattr(self, name) for name in self._fields}

    def __getattr__(self, name: str):
        # only a missing name gets here: a field of a canonical sum or
        # quotient that was made without its tree (_render) is built on
        # first read; anything else is missing
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
        self.__dict__["ref"] = ref


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
    """Highest jet order among the coordinates of the expression."""
    return max((jet_order(v) for v in variables(e)), default=0)


# ---------------------------------------------------------------------------
# canonical engine: Laurent polynomials over atoms, single-quotient forms
# ---------------------------------------------------------------------------
#
# Atom       = Var node | Fn node with canonical argument, interned to an id
# Monomial   = int, sum_i e_i * 2**(_W * i) over atom ids i, 0 for 1: a signed
#              _W-bit field per id, borrowing from the fields above it when
#              negative; _mono encodes and _pairs decodes.  |e_i| <= _MAX_EXP
# Poly       = dict mapping monomial -> int coefficient (no zero coefficients)
# Factor     = Poly with >= 2 terms, no monomial content, coefficients with
#              gcd 1 and a positive leading coefficient, interned to an id
# Den        = tuple of (factor id, exponent) pairs in the factors' sort-key
#              order, exponents > 0: the product of those factor powers, () for 1
# _RF        = (num: Poly, den: Den, d: int), the value num / (d * den); d > 0
#              is coprime to num's coefficients, and num == {} forces
#              den == ().  The monic form, num / (d * lc) over den / lc with
#              lc the leading coefficient of the expanded den, is what is
#              rendered and evaluated (_rf_scales); lc may be negative, as
#              the monomial order is not multiplicative.  Scaling by a
#              constant keeps a Poly's terms and their dict order.
#
# Pairs are in sort-key order from the moment they are made: _KEYS for atoms
# (_pairs decodes a monomial so), _FKEYS for factors (_den_mul and _rf_sum
# build a Den so).  _key reads them as they stand: outputs never compare ids.

Mono = int
Poly = dict
Den = tuple

_EMPTY_MONO: Mono = 0
_P_ONE: Poly = {_EMPTY_MONO: 1}

# The field width and the exponent bound: a sum of two exponents within the
# bound stays inside its field, so a product is checked after it is formed.
_W = 20
_HALF = 1 << (_W - 1)
_FIELD = (1 << _W) - 1
_MAX_EXP = 1 << (_W - 3)

# The intern tables: atom -> id, id -> atom, id -> sort key, and factor (as
# the frozenset of its items) -> id, id -> factor, id -> sort key.  They only
# grow; entries are appended under the lock, the lists before the dict, so a
# reader that finds an id finds its entries.  A new atom also extends, under
# the lock (_grow_atoms): _SAFE, the top three bits of each field (_p_mul),
# and _FN_IDS, the ids of function atoms.
_IDS: dict = {}
_ATOMS: list = []
_KEYS: list = []
_SAFE = 0
_FN_IDS: list = []
_FIDS: dict = {}
_FACTORS: list = []
_FKEYS: list = []
_INTERN_LOCK = threading.Lock()

class _RF(NamedTuple):
    num: Poly
    den: Den = ()
    d: int = 1


def _intern(ids: dict, entries: list, keys: list, handle, entry, make_key, grow=None) -> int:
    """handle's id in an intern table; a new entry and make_key() join it
    under the lock, and grow(id, key) runs there before the id is published."""
    i = ids.get(handle)
    if i is None:
        key = make_key()
        with _INTERN_LOCK:
            i = ids.get(handle)
            if i is None:
                i = len(entries)
                entries.append(entry)
                keys.append(key)
                if grow:
                    grow(i, key)
                ids[handle] = i
    return i


def _grow_atoms(i, key):
    global _SAFE
    _SAFE |= 7 << (_W * i + _W - 3)
    if key[0]:
        _FN_IDS.append(i)


def _atom_id(atom: ScalarExpr) -> int:
    i = atom.__dict__.get("_aid")
    if i is not None:
        return i
    i = _intern(_IDS, _ATOMS, _KEYS, atom, atom, lambda: (0,) + var_key(atom.ref)
                if isinstance(atom, Var) else (1, atom.name, expr_key(atom.arg)), _grow_atoms)
    atom.__dict__["_aid"] = i
    return i


def _factor_id(p: Poly) -> int:
    return _intern(_FIDS, _FACTORS, _FKEYS, frozenset(p.items()), p,
                   lambda: tuple(sorted((_key(_pairs(m)), c) for m, c in p.items())))


def _key(pairs: tuple, keys: list = _KEYS) -> tuple:
    """Sort key of (id, exponent) pairs kept in key order: a monomial's over
    _KEYS, a Den's over _FKEYS."""
    return tuple([(keys[i], e) for i, e in pairs])


# Printing and sampling read the same monomials in bursts; 128 recent decodes
# keep most of the hits while the memo adds no measurable memory.
@functools.lru_cache(maxsize=128)
def _pairs(m: Mono) -> tuple:
    """The (atom id, exponent) pairs of the monomial m, in the atoms'
    sort-key order; each step jumps to the lowest nonzero field."""
    pairs = []
    i = 0
    while m:
        skip = ((m & -m).bit_length() - 1) // _W
        m >>= _W * skip
        e = ((m + _HALF) & _FIELD) - _HALF
        pairs.append((i + skip, e))
        m = (m - e) >> _W
        i += skip + 1
    if len(pairs) > 1:
        pairs.sort(key=lambda pair: _KEYS[pair[0]])
    return tuple(pairs)


def _mono(pairs) -> Mono:
    """The monomial of (atom id, exponent) pairs; _pairs decodes it."""
    return sum(e << (_W * i) for i, e in pairs)


def _p_atom(atom: ScalarExpr) -> Poly:
    return {1 << (_W * _atom_id(atom)): 1}


def _reach(p) -> int:
    """The OR of m ^ (m << 1) over the monomials m of p: nonzero in each field
    where an exponent is, top bits clear within the bound (_pairs reads it)."""
    r = 0
    for m in p:
        r |= m ^ (m << 1)
    return r


def _check(exponents) -> None:
    for e in exponents:
        if abs(e) > _MAX_EXP:
            raise ExprError(f"exponent {e} is past the bound of {_MAX_EXP} on an exponent's magnitude")


def _p_add_into(acc: Poly, p: Poly) -> None:
    for mono, c in p.items():
        v = acc.get(mono, 0) + c
        if v:
            acc[mono] = v
        elif mono in acc:
            del acc[mono]


# Most term products one polynomial product may form; a larger product is an
# input error, so every polynomial the kernel builds has at most this many
# terms.  Measured: the tests and demos stay below 600 and the benchmark
# workloads below 50,000; the Caratheodory form of y_1^2 + ... + y_9^2 at
# n = 9 reaches 245,025 (squaring the 495-term L^4).
_MAX_TERM_PRODUCTS = 1_000_000


def _p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) == 1 and _EMPTY_MONO in a:  # a constant moves no exponent
        return _p_times(b, a[_EMPTY_MONO])
    if len(a) * len(b) > _MAX_TERM_PRODUCTS:
        raise ExprError(
            f"expression too large: a product of a {len(a)}-term and a {len(b)}-term "
            f"polynomial exceeds {_MAX_TERM_PRODUCTS} term products"
        )
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = ma + mb
            v = out.get(mono, 0) + ca * cb
            if v:
                out[mono] = v
            elif mono in out:
                del out[mono]
    if (_reach(a) | _reach(b)) & _SAFE:
        _check(e for m in out for _, e in _pairs(m))
    return out


def _p_pow(a: Poly, k: int) -> Poly:
    _check([k * max((e for m in a for _, e in _pairs(m)), key=abs, default=0)])
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


def _p_times(a: Poly, k: int) -> Poly:
    return a if k == 1 else {m: v * k for m, v in a.items()}


def _p_leading(a: Poly) -> Mono:
    return max(a, key=lambda m: _key(_pairs(m)))


def _den_mul(a: Den, b: Den) -> Den:
    """The product a * b of two denominators: exponents add."""
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for f, e in b:
        out[f] = out.get(f, 0) + e
    return tuple(sorted(out.items(), key=lambda fe: _FKEYS[fe[0]]))


def _den_expand(den: Den) -> Poly:
    """The expanded product of den's factor powers."""
    p = _P_ONE
    for f, e in den:
        power = _FACTORS[f] if e == 1 else _p_pow(_FACTORS[f], e)
        p = power if p is _P_ONE else _p_mul(p, power)
    return p


# The denominators of quotients are expanded once per Den while they stay
# among the most recently used; the partial products that sums and partials
# multiply by are expanded each time and never kept.
@functools.lru_cache(maxsize=1024)
def _den_entry(den: Den) -> tuple[Poly, int]:
    """The expanded den and its leading coefficient."""
    p = _den_expand(den)
    return p, p[_p_leading(p)]


def _den_poly(den: Den) -> Poly:
    return _den_entry(den)[0]


def _rf_reduce(num: Poly, den: Den, d: int) -> _RF:
    """num / (d * den) with d made positive and coprime to num's coefficients."""
    if not num:
        return _RF({})
    if d < 0:
        num = {m: -v for m, v in num.items()}
        d = -d
    if d != 1:
        g = math.gcd(d, *num.values())
        if g != 1:
            num = {m: v // g for m, v in num.items()}
            d //= g
    return _RF(num, den, d)


def _rf_scales(rf: _RF) -> tuple[int, int]:
    """The divisors of num and of the expanded den that give the monic form."""
    lc = _den_entry(rf.den)[1]
    return rf.d * lc, lc


def _rf_const(c: Number) -> _RF:
    if not c:
        return _RF({})
    if c.__class__ is int:
        return _RF({_EMPTY_MONO: c})
    return _RF({_EMPTY_MONO: c.numerator}, (), c.denominator)


def _rf_sum(items: Iterable[_RF]) -> _RF:
    # group by denominator, then put the groups over their least common
    # multiple, in denominator sort-key order
    groups: dict = {}
    for rf in items:
        group = groups.get(rf.den)
        if group is None:
            groups[rf.den] = [dict(rf.num), rf.d]
            continue
        num, d = group
        if rf.d != d:
            lcm = math.lcm(d, rf.d)
            if lcm != d:
                for m in num:
                    num[m] *= lcm // d
                group[1] = d = lcm
        _p_add_into(num, _p_times(rf.num, d // rf.d))
    # a group whose numerators cancelled leaves no factor in the common
    # denominator
    groups = {den: group for den, group in groups.items() if group[0]}
    if not groups:
        return _RF({})
    if len(groups) == 1:
        (den, (num, d)), = groups.items()
        return _rf_reduce(num, den, d)
    top: dict = {}
    for den in groups:
        for f, e in den:
            if e > top.get(f, 0):
                top[f] = e
    lcm_den = tuple(sorted(top.items(), key=lambda fe: _FKEYS[fe[0]]))
    d = math.lcm(*(d for _, d in groups.values()))
    total: Poly = {}
    for den in sorted(groups, key=lambda den: _key(den, _FKEYS)):
        num, gd = groups[den]
        num = _p_times(num, d // gd)
        have = dict(den)
        lacking = tuple((f, e - have.get(f, 0)) for f, e in lcm_den if e > have.get(f, 0))
        if lacking:
            num = _p_mul(num, _den_expand(lacking))
        _p_add_into(total, num)
    return _rf_reduce(total, lcm_den, d)


def _rf_mul(a: _RF, b: _RF) -> _RF:
    return _rf_reduce(_p_mul(a.num, b.num), _den_mul(a.den, b.den), a.d * b.d)


def _rf_div(a: _RF, b: _RF) -> _RF:
    """a / b: the monomial and integer content of b's numerator p move to the
    quotient's numerator and d, and the rest of p joins den as a factor."""
    p = b.num
    if not p:
        raise ExprError("division by an identically zero denominator")
    if not a.num:
        return _RF({})
    num, den, d = _p_times(a.num, b.d), a.den, a.d
    if b.den:
        num = _p_mul(num, _den_poly(b.den))
    if len(p) == 1:
        (mono, c), = p.items()
        return _rf_reduce(_p_mul(num, {-mono: 1}), den, d * c)
    # factor out p's monomial content: each atom's least exponent, 0 if absent
    monos = [dict(_pairs(mono)) for mono in p]
    content = _mono((i, min(m.get(i, 0) for m in monos)) for i in set().union(*monos))
    if content:
        p = _p_mul(p, {-content: 1})
        num = _p_mul(num, {-content: 1})
    # move the coefficients' common factor, signed by the leading one, into d
    g = math.gcd(*p.values())
    if p[_p_leading(p)] < 0:
        g = -g
    if g != 1:
        p = {m: v // g for m, v in p.items()}
        d *= g
    return _rf_reduce(num, _den_mul(den, ((_factor_id(p), 1),)), d)


def _rf_neg(a: _RF) -> _RF:
    return _RF({m: -v for m, v in a.num.items()}, a.den, a.d)


def _rf_pow(a: _RF, k: int) -> _RF:
    if k == 0:
        return _rf_const(1)
    if k < 0:
        return _rf_pow(_rf_div(_rf_const(1), a), -k)
    return _rf_reduce(_p_pow(a.num, k), tuple((f, e * k) for f, e in a.den), a.d ** k)


def _to_rf(e: ScalarExpr) -> _RF:
    cached = e.__dict__.get("_rfc")
    if cached is not None:
        return cached
    if isinstance(e, Rat):
        rf = _rf_const(e.value)
    elif isinstance(e, Var):
        rf = _RF(_p_atom(e))
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
        rf = _RF(_p_atom(atom))
    else:
        raise ExprError(f"unknown node {e!r}")
    e.__dict__["_rfc"] = rf
    return rf


def _poly_terms(p: Poly, k: int):
    """The terms of the polynomial p / k (k a nonzero int) in output order,
    monomial sort key descending: (num, den, ((atom id, e), ...)), with
    num/den the coefficient as Fraction(c, k) normalizes it (lowest terms,
    den > 0) and the pairs in the atoms' sort-key order.  The canonical tree
    (_render_poly) and the printer both read a polynomial through this."""
    terms = [(_pairs(mono), c) for mono, c in p.items()]
    if len(terms) > 1:
        terms.sort(key=lambda t: _key(t[0]), reverse=True)
    for mono, c in terms:
        g = math.gcd(c, k)
        if k < 0:
            g = -g
        yield c // g, k // g, mono


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
    """The fields of the canonical Add (a sum, no denominator) or Div tree of rf."""
    kn, kd = _rf_scales(rf)
    if kind is Add:
        return {"terms": _render_poly(rf.num, kn).terms}
    return {"num": _render_poly(rf.num, kn), "den": _render_poly(_den_poly(rf.den), kd)}


def _render(rf: _RF) -> ScalarExpr:
    """The canonical node of rf.  A monomial is built at once; a sum or a
    quotient is an Add or Div that holds only rf until a field is read."""
    if rf.den:
        out = Div.__new__(Div)
    elif len(rf.num) > 1:
        out = Add.__new__(Add)
    else:
        out = _render_poly(rf.num, rf.d)
    d = out.__dict__
    d["_rfc"] = rf
    d["_canonical"] = True
    return out


def _memo(e: ScalarExpr) -> dict:
    """The per-node memo of derived canonical nodes, created on first use."""
    d = e.__dict__
    memo = d.get("_memo")
    return d.setdefault("_memo", {}) if memo is None else memo


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
    if not rf.den and len(rf.num) == 1 and _EMPTY_MONO in rf.num:
        return Fraction(rf.num[_EMPTY_MONO], rf.d)
    return None


_FN_EVAL = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _fn_derivative(name: str, arg: ScalarExpr, arg_rf: _RF) -> _RF:
    if name == "sin":
        return _RF(_p_atom(Fn("cos", arg)))
    if name == "cos":
        return _rf_neg(_RF(_p_atom(Fn("sin", arg))))
    if name == "exp":
        return _RF(_p_atom(Fn("exp", arg)))
    if name == "ln":
        return _rf_div(_rf_const(1), arg_rf)
    raise ExprError(f"unknown function {name!r}")


def _poly_diff(p: Poly, v: JetVariable) -> _RF:
    plain = {}
    i = _IDS.get(Var(v))
    if i is not None:
        # v's exponent is its field, rounded past the borrow of the fields below
        s = _W * i
        offset = (1 << s >> 1) + (_HALF << s)
        for mono, c in p.items():
            e = ((mono + offset) >> s & _FIELD) - _HALF
            if e:
                plain[mono] = c * e
        plain = _p_mul(plain, {-1 << s: 1})
    extras = []
    if _FN_IDS and any(_ATOMS[i].__class__ is Fn for i, _ in _pairs(_reach(p))):
        for mono, c in p.items():
            for i, e in _pairs(mono):
                atom = _ATOMS[i]
                if atom.__class__ is Fn:
                    arg_rf = _to_rf(atom.arg)
                    darg = _rf_diff(arg_rf, v)
                    if darg.num:
                        rest = _RF(_p_mul({mono: c * e}, {-1 << _W * i: 1}))
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
            target = rfs[atom.ref] if isinstance(atom, Var) and atom.ref in rfs else _RF(_p_atom(atom))
            term = _rf_mul(term, _rf_pow(target, e))
        pieces.append(term)
    return _rf_sum(pieces)


def eval_pole_guarded(e: ScalarExpr, point: Mapping[JetVariable, float], guard: float) -> float:
    """Evaluate via the canonical form, rejecting points where any denominator
    magnitude falls below the guard (raises EvalDomainError)."""
    try:
        rf = _to_rf(e)
        value, _ = _rf_eval(rf, _rf_scales(rf), point, guard)
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
        return ZeroVerdict(PROVEN_ZERO)
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


def _rf_atoms(rf: _RF) -> list:
    """The atoms of a quotient: those of its numerator and of its denominator's factors."""
    r = _reach(rf.num)
    for f, _ in rf.den:
        r |= _reach(_FACTORS[f])
    return [_ATOMS[i] for i, _ in _pairs(r)]


def _is_rational(rf: _RF) -> bool:
    """True iff every atom of the quotient is a coordinate (no function atoms)."""
    return all(isinstance(atom, Var) for atom in _rf_atoms(rf))
