"""The packed kernel: Laurent polynomials and factored quotients over atoms.

The module imports only the standard library.  To it an atom is an opaque
handle whose sort key the caller supplies (``_intern``); ``lepage.expr``
interns coordinates and function applications and builds and reads the
nodes, and only this module knows how a monomial is packed and what the
intern tables hold.

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
every atom gets one id whichever threads meet it first.  An atom joins with
its jet order, and for each order k the table keeps a mask of the fields of
the atoms of order at least k; the masks nest, so the jet order of a set of
monomials is read from the fields they reach with at most one AND per order
(``_top_order``), and no monomial is decoded.

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
"""
from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from typing import Iterable, NamedTuple


class ExprError(ValueError):
    """Malformed expression or undefined operation."""


# Atom       = a handle with a caller-supplied sort key, interned to an id: in
#              lepage.expr a Var node, or an Fn node with canonical argument
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

# The intern tables: atom handle -> id (lepage.expr's handle of a coordinate
# atom is the coordinate), id -> atom, id -> sort key, and factor (as the
# frozenset of its items) -> id, id -> factor, id -> sort key.  They only
# grow; entries are appended under the lock, the lists before the dict, so a
# reader that finds an id finds its entries.  A new atom also extends, under
# the lock (_grow_atoms): _SAFE, the top three bits of each field (_p_mul),
# _FN_IDS, the ids of function atoms (those whose key starts nonzero), and
# _ORDERS, whose entry k - 1 holds the fields of the atoms of jet order at
# least k (_top_order).
_IDS: dict = {}
_ATOMS: list = []
_KEYS: list = []
_SAFE = 0
_FN_IDS: list = []
_ORDERS: list = []
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


def _grow_atoms(i, key, order):
    global _SAFE
    _SAFE |= 7 << (_W * i + _W - 3)
    if key[0]:
        _FN_IDS.append(i)
    _ORDERS.extend([0] * (order - len(_ORDERS)))
    for k in range(order):
        _ORDERS[k] |= _FIELD << (_W * i)


def _top_order(reach: int) -> int:
    """The highest jet order among the atoms whose fields reach (a _reach)
    covers, 0 for none: the masks nest, so the first one it misses ends it."""
    k = 0
    for mask in _ORDERS:
        if not reach & mask:
            break
        k += 1
    return k


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


def _p_atom(i: int) -> Poly:
    """The polynomial of the atom with id i."""
    return {1 << (_W * i): 1}


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


def _p_partial(p: Poly, i: int) -> Poly:
    """The partial of p by the atom with id i, every other atom held constant."""
    plain = {}
    # i's exponent is its field, rounded past the borrow of the fields below
    s = _W * i
    offset = (1 << s >> 1) + (_HALF << s)
    for mono, c in p.items():
        e = ((mono + offset) >> s & _FIELD) - _HALF
        if e:
            plain[mono] = c * e
    return _p_mul(plain, {-1 << s: 1})


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


def _rf_const(c: int | Fraction) -> _RF:
    if not c:
        return _RF({})
    if c.__class__ is int:
        return _RF({_EMPTY_MONO: c})
    return _RF({_EMPTY_MONO: c.numerator}, (), c.denominator)


def _rf_sum(items: Iterable[_RF]) -> _RF:
    # zeros add nothing, and one quotient left is its own (reduced) sum
    items = [rf for rf in items if rf.num]
    if len(items) < 2:
        return items[0] if items else _RF({})
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
    if not (a.num and b.num):
        return _RF({})
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
