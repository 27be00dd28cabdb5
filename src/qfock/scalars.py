"""Exact arithmetic in Q(q), the field of rational functions of the
deformation parameter q.

A scalar is a reduced fraction of Laurent polynomials in q with integer
coefficients.  The canonical form is what makes every verification in the
package a plain equality test:

* numerator and denominator share no polynomial factor,
* their integer contents are coprime,
* the denominator is an honest polynomial (lowest exponent 0) with a
  positive leading coefficient.

Any power of q freed while normalizing the denominator migrates into the
numerator, which is allowed to stay Laurent.

Almost every scalar the verifiers produce has a constant denominator d
(a Laurent polynomial, d = 1, or the form braidings' 1/2).  Such a scalar
is held packed: its numerator c_0 q^s + c_1 q^(s+1) + ... is the integer
v = c_0 + c_1 B + c_2 B^2 + ... in base B = 2^64, with balanced digits
-2^63 < c_i < 2^63 and c_0 != 0 (Kronecker substitution), and d is a
positive integer coprime to the coefficients.  Balanced digits are unique,
so the canonical form is the triple (s, v, d) and equality and hashing
compare integers.  A sum is an aligned integer sum (low digits that cancel
are stripped), a product is one integer product, and negation is -v.  The
inverse of a one-digit c q^s / d with d < 2^63 is d q^-s / |c|, and a
packed value divided by one is a packed product.

Exactness never rests on an assumed size.  Each packed scalar carries an
upper bound on the sum of the absolute values of its coefficients, which
bounds every coefficient: a sum's bound is the sum of its operands', a
product's their product.  An operation whose bound reaches 2^63 first
recomputes its operands' bounds from their digits, and if it still could
carry a digit out of range, it leaves the packed path and computes over
dicts.  A value with a coefficient of 2^63 or more, or with a denominator
that is not a constant, is held as sorted (exponent, coefficient) pairs
instead, and its arithmetic goes through :meth:`Scalar.make`, where the
primitive-PRS gcd runs only for true polynomial denominators.  Which form a
value takes depends on the value alone, so equal values are always equal
forms.

A verdict that a linear combination of sparse values vanishes
(:func:`nonzero_sums`, behind every L-identity, ideal and braid
certificate) needs no scalar at all when every scalar in it is Laurent.
Per key, the products c_v x_v shifted to the key's lowest exponent sum to
the integer P(2^64), P the key's true sum polynomial, while the sum of
l1(c) l1(x) over the terms caps every coefficient of P.  A nonzero integer
is a nonzero P, and a zero integer under a cap below 2^63 is P = 0 by the
uniqueness of balanced digits.  Any other group, with an integer or
polynomial denominator or a zero integer under a cap of 2^63 or more, is
summed as scalars.

The verifiers repeat few distinct Laurent (d = 1) sums and products, so
those go through a memo (`_laurent_add`, `_laurent_mul`), a bounded LRU
cache keyed by the two packed numerators.  On `verify --suite currents
--degree 2` it answers 96-99% of them; a hit costs less than even the
packed kernel.  An unbounded memo keeps enough large BMW numerators alive
to raise the peak memory of a BMW double by about 12%
(`_LAURENT_MEMO_SIZE`).  `make` and every other path stay unmemoized.  All
computation is symbolic; :meth:`Scalar.evaluate` exists as a cross-check at
rational points, never as a source of truth.  Scalars are immutable and all
operations are pure, so they are safe to share across concurrent
verification tasks; the only state written after construction is a cached
hash, a cached unpacking and a lowered coefficient bound, each valid in any
order of writes.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Collection
from fractions import Fraction

from .errors import DivisionByZero, NonGenericPoint

# A Laurent polynomial is handled as a dict {exponent: coefficient} while
# mutable, and frozen to a sorted tuple of (exponent, coefficient) pairs
# inside a Scalar that is not packed.
Pairs = tuple[tuple[int, int], ...]

_ONE_POLY: Pairs = ((0, 1),)

# Packed numerators: digits of 64 bits; every digit c has |c| < _HALF.
_BASE = 1 << 64
_MASK = _BASE - 1
_HALF = 1 << 63


def _freeze(p: dict[int, int]) -> Pairs:
    return tuple(sorted((e, c) for e, c in p.items() if c))


def _digits(v: int):
    """The balanced digits of the packed numerator v, lowest first."""
    while v:
        c = v & _MASK
        if c >= _HALF:
            c -= _BASE
        yield c
        v = (v - c) >> 64


def _unpack(s: int, v: int) -> Pairs:
    """The (exponent, coefficient) pairs of the packed numerator (s, v)."""
    return tuple((e, c) for e, c in enumerate(_digits(v), s) if c)


def _digit_gcd(v: int, g: int) -> int:
    """gcd of g with every digit of the packed numerator v."""
    for c in _digits(v):
        if g == 1:
            break
        g = math.gcd(g, c)
    return g


def _strip(s: int, v: int) -> tuple[int, int]:
    """(s, v) with its zero low digits removed; v nonzero."""
    k = ((v & -v).bit_length() - 1) >> 6
    return (s + k, v >> (k << 6)) if k else (s, v)


def _laurent_scalar(terms: dict[int, int], d: int) -> "Scalar":
    """The canonical scalar sum(c q^e) / d, for nonzero terms whose content
    is coprime to the positive integer d."""
    s = min(terms)
    v = l1 = 0
    for e, c in terms.items():
        v += c << ((e - s) << 6)
        l1 += c if c > 0 else -c
    if l1 >= _HALF and max(map(abs, terms.values())) >= _HALF:
        return _pair_scalar(tuple(sorted(terms.items())), ((0, d),))
    return Scalar(s, v, d, l1)


# The arithmetic helpers read (exponent, coefficient) pairs, a frozen tuple
# or a dict's items(), and return a dict without zero terms.
PairsIn = Collection[tuple[int, int]]


def _padd(a: PairsIn, b: PairsIn) -> dict[int, int]:
    out = dict(a)
    for e, c in b:
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _pmul(a: PairsIn, b: PairsIn) -> dict[int, int]:
    out: dict[int, int] = {}
    for ea, ca in a:
        for eb, cb in b:
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _pneg(a: dict[int, int]) -> dict[int, int]:
    return {e: -c for e, c in a.items()}


def _pshift(a: dict[int, int], k: int) -> dict[int, int]:
    return a if k == 0 else {e + k: c for e, c in a.items()}


def _content(a: dict[int, int]) -> int:
    g = 0
    for c in a.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _to_dense(a: dict[int, int]) -> list[int]:
    deg = max(a)
    out = [0] * (deg + 1)
    for e, c in a.items():
        out[e] = c
    return out


def _from_dense(v: list[int]) -> dict[int, int]:
    return {e: c for e, c in enumerate(v) if c}


def _dense_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # pseudo remainder of dense integer polynomials, b nonzero
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def _pgcd(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Primitive-PRS gcd of ordinary (lowest exponent >= 0) polynomials."""
    if not a:
        return _monic_positive(b)
    if not b:
        return _monic_positive(a)
    ca, cb = _content(a), _content(b)
    cg = math.gcd(ca, cb)
    da = _to_dense({e: c // ca for e, c in a.items()})
    db = _to_dense({e: c // cb for e, c in b.items()})
    if len(da) < len(db):
        da, db = db, da
    while db:
        r = _dense_pseudo_rem(da, db)
        da, db = db, r
        if db:
            g = 0
            for c in db:
                g = math.gcd(g, c)
            db = [c // g for c in db]
    g = _from_dense(da)
    out = {e: cg * c for e, c in g.items()}
    return _monic_positive(out)


def _monic_positive(a: dict[int, int]) -> dict[int, int]:
    if not a:
        return a
    if a[max(a)] < 0:
        return _pneg(a)
    return a


def _pdiv_exact(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Exact division a / b over Z[q]; the caller guarantees divisibility."""
    if not a:
        return {}
    da, db = _to_dense(a), _to_dense(b)
    dq = [0] * (len(da) - len(db) + 1)
    lb = db[-1]
    for i in range(len(dq) - 1, -1, -1):
        c = da[i + len(db) - 1]
        if c % lb:
            raise ArithmeticError("inexact polynomial division")
        t = c // lb
        dq[i] = t
        if t:
            for j, bc in enumerate(db):
                da[i + j] -= t * bc
    if any(da):
        raise ArithmeticError("inexact polynomial division")
    return _from_dense(dq)


class Scalar:
    """An element of Q(q) in canonical form.  Immutable and hashable.

    A packed scalar holds its numerator as the shift `_s` and the integer
    `_v`, its denominator as the positive integer `_d`, and a bound `_l` on
    the sum of its coefficients' absolute values; `_num` and `_den` cache
    its pairs once they are unpacked.  Any other scalar has `_d == 0` and
    `_v is None`, and holds its canonical pairs in `_num` and `_den`
    (`_pair_scalar`).  Outside this module the form is read through
    :meth:`to_pairs`.
    """

    __slots__ = ("_s", "_v", "_d", "_l", "_num", "_den", "_hash")

    def __init__(self, s: int | None, v: int | None, d: int, l1: int | None,
                 num: Pairs | None = None, den: Pairs | None = None):
        # trusted constructor: the arguments must already be canonical
        self._s = s
        self._v = v
        self._d = d
        self._l = l1
        self._num = num
        self._den = den
        self._hash: int | None = None

    def _pairs(self) -> tuple[Pairs, Pairs]:
        """(numerator, denominator) as sorted (exponent, coefficient) pairs."""
        num = self._num
        if num is None:
            d = self._d
            self._den = _ONE_POLY if d == 1 else ((0, d),)
            num = self._num = _unpack(self._s, self._v)
        return num, self._den

    def _exact_bound(self) -> int:
        """Lower the packed coefficient bound to its exact value."""
        l1 = self._l = sum(abs(c) for _, c in self._pairs()[0])
        return l1

    # -- construction ------------------------------------------------

    @staticmethod
    def make(num: dict[int, int], den: dict[int, int]) -> "Scalar":
        num = {e: c for e, c in num.items() if c}
        den = {e: c for e, c in den.items() if c}
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return ZERO
        if len(den) == 1:
            # Laurent case, den = d q^k: no polynomial gcd is needed, only
            # the integer content, the sign of d and the shift by k.
            ((k, d),) = den.items()
            g = math.gcd(_content(num), d)
            if d < 0:
                g = -g
            if g != 1 or k:
                num = {e - k: c // g for e, c in num.items()}
            return _laurent_scalar(num, d // g)
        ln, ld = min(num), min(den)
        num = _pshift(num, -ln)
        den = _pshift(den, -ld)
        g = _pgcd(num, den)
        if g != {0: 1}:
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
        cg = math.gcd(_content(num), _content(den))
        if cg > 1:
            num = {e: c // cg for e, c in num.items()}
            den = {e: c // cg for e, c in den.items()}
        if den[max(den)] < 0:
            num = _pneg(num)
            den = _pneg(den)
        num = _pshift(num, ln - ld)
        if len(den) == 1:
            # the gcd left a constant denominator {0: d}
            return _laurent_scalar(num, den[0])
        return _pair_scalar(_freeze(num), _freeze(den))

    @staticmethod
    def from_int(n: int) -> "Scalar":
        return _laurent_scalar({0: n}, 1) if n else ZERO

    @staticmethod
    def from_fraction(f: Fraction | int) -> "Scalar":
        f = Fraction(f)
        if f == 0:
            return ZERO
        return _laurent_scalar({0: f.numerator}, f.denominator)

    @staticmethod
    def q_power(k: int, coeff: int = 1) -> "Scalar":
        return _laurent_scalar({k: coeff}, 1) if coeff else ZERO

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self._v == 0

    def is_one(self) -> bool:
        return self._v == 1 and self._s == 0 and self._d == 1

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if self._v == 0:
            return other
        if other._v == 0:
            return self
        d, e = self._d, other._d
        if d == 1 and e == 1:
            bound = self._l + other._l
            if (bound < _HALF or
                    (bound := self._exact_bound() + other._exact_bound()) < _HALF):
                out = _laurent_add(self._s, self._v, other._s, other._v)
                if out._l > bound:
                    out._l = bound
                return out
        elif d and e:
            out = _packed_sum(self, other)
            if out is not None:
                return out
        num, den = self._pairs()
        onum, oden = other._pairs()
        if den == oden:
            s = _padd(num, onum)
            if not s:
                return ZERO
            return Scalar.make(s, dict(den))
        return Scalar.make(_padd(_pmul(num, oden), _pmul(onum, den).items()),
                           _pmul(den, oden))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        if self._d:
            if self._v == 0:
                return self
            return Scalar(self._s, -self._v, self._d, self._l)
        return _pair_scalar(tuple((e, -c) for e, c in self._num), self._den)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self._v == 0 or other._v == 0:
            return ZERO
        if other._v == 1 and other._s == 0 and other._d == 1:
            return self
        if self._v == 1 and self._s == 0 and self._d == 1:
            return other
        d, e = self._d, other._d
        if d == 1 and e == 1:
            bound = self._l * other._l
            if (bound < _HALF or
                    (bound := self._exact_bound() * other._exact_bound()) < _HALF):
                out = _laurent_mul(self._s, self._v, other._s, other._v)
                if out._l > bound:
                    out._l = bound
                return out
        elif d and e:
            out = _packed_product(self, other)
            if out is not None:
                return out
        num, den = self._pairs()
        onum, oden = other._pairs()
        return Scalar.make(_pmul(num, onum), _pmul(den, oden))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if other._v == 0:
            raise DivisionByZero("division by the zero scalar")
        if self._v == 0:
            return ZERO
        if self._d and (inv := _monomial_inverse(other)) is not None:
            out = _packed_product(self, inv)
            if out is not None:
                return out
        num, den = self._pairs()
        onum, oden = other._pairs()
        return Scalar.make(_pmul(num, oden), _pmul(den, onum))

    def inverse(self) -> "Scalar":
        if self._v == 0:
            raise DivisionByZero("inverse of the zero scalar")
        out = _monomial_inverse(self)
        if out is not None:
            return out
        num, den = self._pairs()
        return Scalar.make(dict(den), dict(num))

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        if self._d:
            return self._v == other._v and self._s == other._s and self._d == other._d
        return other._d == 0 and self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            if self._d:
                h = hash((self._s, self._v, self._d))
            else:
                h = hash((self._num, self._den))
            self._hash = h
        return h

    # -- evaluation and serialization ----------------------------------

    def evaluate(self, q0: Fraction | int) -> Fraction:
        """Exact value at q = q0 (q0 nonzero); poles raise NonGenericPoint."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise NonGenericPoint("q0 must be nonzero")
        num, den = self._pairs()
        d = sum(c * q0 ** e for e, c in den)
        if d == 0:
            raise NonGenericPoint(f"q0 = {q0} is a root of the denominator")
        n = sum(c * q0 ** e for e, c in num)
        return Fraction(n) / d

    def to_pairs(self) -> dict[str, list[list[int]]]:
        num, den = self._pairs()
        return {
            "num": [[e, c] for e, c in num],
            "den": [[e, c] for e, c in den],
        }

    @staticmethod
    def from_pairs(doc: dict) -> "Scalar":
        num = {int(e): int(c) for e, c in doc["num"]}
        den = {int(e): int(c) for e, c in doc["den"]}
        return Scalar.make(num, den)

    # -- display -------------------------------------------------------

    def __repr__(self) -> str:
        num, den = self._pairs()
        if not num:
            return "0"
        n = _poly_str(num)
        if den == _ONE_POLY:
            return n
        d = _poly_str(den)
        if len(num) > 1:
            n = f"({n})"
        if len(den) > 1:
            d = f"({d})"
        return f"{n}/{d}"


def _pair_scalar(num: Pairs, den: Pairs) -> Scalar:
    """A scalar held as canonical pairs: a coefficient of 2^63 or more, or a
    denominator that is not a constant."""
    return Scalar(None, None, 0, None, num, den)


def _poly_str(p: Pairs) -> str:
    parts = []
    for e, c in sorted(p, reverse=True):
        if e == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}q" if e == 1 else f"{mag}q^{e}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, term))
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out


ZERO = Scalar(0, 0, 1, 0)
ONE = Scalar(0, 1, 1, 1)
Q = Scalar(1, 1, 1, 1)
QINV = Scalar(-1, 1, 1, 1)


# ---------------------------------------------------------------------------
# the packed kernel: constant denominators
# ---------------------------------------------------------------------------

# A packed result whose bound reaches _HALF could hold a digit out of range;
# the callers below then return None, and the operator computes over pairs.

def _packed_sum(a: Scalar, b: Scalar) -> Scalar | None:
    """a + b for packed scalars with integer denominators."""
    va, vb, den = a._v, b._v, a._d
    if den == b._d:
        bound = a._l + b._l
    else:
        va, vb = va * b._d, vb * den
        bound = a._l * b._d + b._l * den
        den *= b._d
    if bound >= _HALF:
        return None
    sa, sb = a._s, b._s
    if sa > sb:
        sa, va, sb, vb = sb, vb, sa, va
    v = va + (vb << ((sb - sa) << 6))
    if not v:
        return ZERO
    if sa == sb:
        sa, v = _strip(sa, v)
    return _reduced(sa, v, den, bound)


def _packed_product(a: Scalar, b: Scalar) -> Scalar | None:
    """a * b for packed scalars with integer denominators."""
    bound = a._l * b._l
    if bound >= _HALF:
        return None
    return _reduced(a._s + b._s, a._v * b._v, a._d * b._d, bound)


def _monomial_inverse(a: Scalar) -> Scalar | None:
    """1 / a for a nonzero packed a = c q^s / d with one digit c and
    d < 2^63: d q^-s / |c|, the sign of c moved to the numerator (c and d
    are coprime, so that is canonical); None for any other a."""
    v, d = a._v, a._d
    if d and -_HALF < v < _HALF and d < _HALF:
        return Scalar(-a._s, d if v > 0 else -d, v if v > 0 else -v, d)
    return None


def _reduced(s: int, v: int, den: int, bound: int) -> Scalar:
    """The packed scalar (s, v) / den with their common integer factor
    divided out; dividing every digit by it divides v."""
    g = _digit_gcd(v, den)
    if g != 1:
        v //= g
        den //= g
        bound //= g
    return Scalar(s, v, den, bound)


# ---------------------------------------------------------------------------
# the Laurent fast paths, memoized
# ---------------------------------------------------------------------------

# A sum or product of Laurent polynomials (denominator 1) is a pure function
# of the two packed numerators, and being immutable, one result is shared by
# every caller.  `verify --suite currents --window 2 --degree 2` on
# std-hecke N = 2 makes 171k Laurent products on 606 distinct pairs and 150k
# sums on 1,462; 256 entries answer 99% and 96% of them.  Memo size: an
# unbounded memo raises the peak RSS of the bmw-double benchmark workload by
# 12% (18.4 -> 20.7 MB), 1024 entries by 7%, 256 entries by 2%.  The key is
# the numerators alone, and a result's coefficient bound depends on the
# bounds its caller's operands carry, so a result leaves the memo unbounded
# (_HALF) and each caller lowers its bound to the one it can vouch for.
_LAURENT_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_LAURENT_MEMO_SIZE)
def _laurent_add(sa: int, va: int, sb: int, vb: int) -> Scalar:
    if sa > sb:
        sa, va, sb, vb = sb, vb, sa, va
    v = va + (vb << ((sb - sa) << 6))
    if not v:
        return ZERO
    if sa == sb:
        sa, v = _strip(sa, v)
    return Scalar(sa, v, 1, _HALF)


@functools.lru_cache(maxsize=_LAURENT_MEMO_SIZE)
def _laurent_mul(sa: int, va: int, sb: int, vb: int) -> Scalar:
    return Scalar(sa + sb, va * vb, 1, _HALF)


# ---------------------------------------------------------------------------
# sparse accumulation: dicts {key: nonzero Scalar}
# ---------------------------------------------------------------------------

def add_term(out: dict, key, c: Scalar) -> None:
    """out[key] += c, dropping the key when the sum vanishes.  An absent
    key takes c as it is: no addition to ZERO."""
    s = out.get(key)
    if s is None:
        if c._v != 0:
            out[key] = c
        return
    s = s + c
    if s._v != 0:
        out[key] = s
    else:
        del out[key]


def sum_into(out: dict, src: dict, scale: Scalar = ONE) -> None:
    """out += scale * src, dropping keys whose sum vanishes."""
    unit = scale.is_one()
    for key, c in src.items():
        add_term(out, key, c if unit else scale * c)


def nonzero_sums(groups: dict, value_of) -> list:
    """The keys g, in the order of groups, whose sum of c * value_of(w) over
    the combination groups[g] = {w: c} is not zero; value_of(w) is a
    sparse dict, and each distinct w is evaluated once.

    A group whose scalars are all packed Laurent polynomials (d = 1) is
    decided on integers (_packed_nonzero): per key, the products c_v x_v
    summed at the key's lowest exponent give P(2^64) for the key's true sum
    P, beside the bound l1(c) l1(x) summed over its terms, which caps every
    coefficient of P.  A nonzero integer is a nonzero P; a zero integer is
    P = 0 once the bound is below 2^63, since balanced base-2^64 digits are
    unique.  Any other group (an integer or polynomial denominator, or a
    zero integer under a bound of 2^63 or more) is summed in Q(q) by
    _summed_nonzero."""
    values: dict = {}
    failures = []
    for g, combination in groups.items():
        terms = []
        for w, c in combination.items():
            value = values.get(w)
            if value is None:
                value = values[w] = value_of(w)
            terms.append((c, value))
        nonzero = _packed_nonzero(terms)
        if nonzero is None:
            nonzero = _summed_nonzero(terms)
        if nonzero:
            failures.append(g)
    return failures


def _packed_nonzero(terms: list) -> bool | None:
    """Whether the sum of c * value over the (c, value) terms is nonzero,
    read off one aligned integer per key, or None when that cannot decide
    it (see nonzero_sums)."""
    # key -> [lowest exponent, integer sum at that exponent, bound]
    acc: dict = {}
    for c, value in terms:
        if c._d != 1:
            return None
        cs, cv, cl = c._s, c._v, c._l
        if cl >= _HALF:
            # a memo result carries _HALF until a caller lowers it
            cl = c._exact_bound()
        for key, x in value.items():
            if x._d != 1:
                return None
            xl = x._l
            if xl >= _HALF:
                xl = x._exact_bound()
            t = cs + x._s
            a = acc.get(key)
            if a is None:
                acc[key] = [t, cv * x._v, cl * xl]
                continue
            s = a[0]
            if t >= s:
                a[1] += (cv * x._v) << ((t - s) << 6)
            else:
                a[0] = t
                a[1] = cv * x._v + (a[1] << ((s - t) << 6))
            a[2] += cl * xl
    decided: bool | None = False
    for _, v, bound in acc.values():
        if v:
            return True
        if bound >= _HALF:
            decided = None
    return decided


def _summed_nonzero(terms: list) -> bool:
    """Whether the sum of c * value over the (c, value) terms is nonzero,
    summed in Q(q)."""
    total: dict = {}
    for c, value in terms:
        sum_into(total, value, c)
    return bool(total)
