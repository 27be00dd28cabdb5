"""The list-of-pairs Scalar that qfock.scalars replaced, kept as the
reference for its packed kernel.

A scalar is a reduced fraction of Laurent polynomials in q, each held as a
sorted tuple of (exponent, coefficient) pairs; a Laurent sum or product
builds a dict, sorts it and freezes it, behind the same 256-entry memo.
The differential tests in test_scalars.py check that the packed Scalar
agrees with this one on every operation, equality, hash consistency,
repr, serialization and evaluation.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Collection
from fractions import Fraction

from qfock.errors import DivisionByZero, NonGenericPoint

# A Laurent polynomial is handled as a dict {exponent: coefficient} while
# mutable, and frozen to a sorted tuple of (exponent, coefficient) pairs
# inside a Scalar.
Pairs = tuple[tuple[int, int], ...]

_ONE_POLY: Pairs = ((0, 1),)


def _freeze(p: dict[int, int]) -> Pairs:
    return tuple(sorted((e, c) for e, c in p.items() if c))


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
    """An element of Q(q) in canonical form.  Immutable and hashable."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Pairs, den: Pairs):
        # trusted constructor: `num`/`den` must already be canonical
        self.num = num
        self.den = den
        self._hash: int | None = None

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
            return Scalar(tuple(sorted((e - k, c // g) for e, c in num.items())),
                          ((0, d // g),))
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
        return Scalar(_freeze(num), _freeze(den))

    @staticmethod
    def from_int(n: int) -> "Scalar":
        if n == 0:
            return ZERO
        return Scalar(((0, n),), _ONE_POLY)

    @staticmethod
    def from_fraction(f: Fraction | int) -> "Scalar":
        f = Fraction(f)
        if f == 0:
            return ZERO
        return Scalar(((0, f.numerator),), ((0, f.denominator),))

    @staticmethod
    def q_power(k: int, coeff: int = 1) -> "Scalar":
        if coeff == 0:
            return ZERO
        if coeff > 0:
            return Scalar(((k, coeff),), _ONE_POLY)
        return Scalar.make({k: coeff}, {0: 1})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == _ONE_POLY and self.den == _ONE_POLY

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            if self.den == _ONE_POLY:
                return _laurent_add(self.num, other.num)
            s = _padd(self.num, other.num)
            if not s:
                return ZERO
            return Scalar.make(s, dict(self.den))
        return Scalar.make(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den).items()),
            _pmul(self.den, other.den),
        )

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        if not self.num:
            return self
        return Scalar(tuple((e, -c) for e, c in self.num), self.den)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not self.num or not other.num:
            return ZERO
        if other.is_one():
            return self
        if self.is_one():
            return other
        if self.den == _ONE_POLY and other.den == _ONE_POLY:
            return _laurent_mul(self.num, other.num)
        return Scalar.make(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if not other.num:
            raise DivisionByZero("division by the zero scalar")
        if not self.num:
            return ZERO
        return Scalar.make(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def inverse(self) -> "Scalar":
        if not self.num:
            raise DivisionByZero("inverse of the zero scalar")
        return Scalar.make(dict(self.den), dict(self.num))

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
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            self._hash = h
        return h

    # -- evaluation and serialization ----------------------------------

    def evaluate(self, q0: Fraction | int) -> Fraction:
        """Exact value at q = q0 (q0 nonzero); poles raise NonGenericPoint."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise NonGenericPoint("q0 must be nonzero")
        den = sum(c * q0 ** e for e, c in self.den)
        if den == 0:
            raise NonGenericPoint(f"q0 = {q0} is a root of the denominator")
        num = sum(c * q0 ** e for e, c in self.num)
        return Fraction(num) / den

    def to_pairs(self) -> dict[str, list[list[int]]]:
        return {
            "num": [[e, c] for e, c in self.num],
            "den": [[e, c] for e, c in self.den],
        }

    @staticmethod
    def from_pairs(doc: dict) -> "Scalar":
        num = {int(e): int(c) for e, c in doc["num"]}
        den = {int(e): int(c) for e, c in doc["den"]}
        return Scalar.make(num, den)

    # -- display -------------------------------------------------------

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        n = _poly_str(self.num)
        if self.den == _ONE_POLY:
            return n
        d = _poly_str(self.den)
        if len(self.num) > 1:
            n = f"({n})"
        if len(self.den) > 1:
            d = f"({d})"
        return f"{n}/{d}"


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


ZERO = Scalar((), _ONE_POLY)
ONE = Scalar(_ONE_POLY, _ONE_POLY)
Q = Scalar(((1, 1),), _ONE_POLY)
QINV = Scalar(((-1, 1),), _ONE_POLY)


# ---------------------------------------------------------------------------
# the Laurent fast paths, memoized
# ---------------------------------------------------------------------------

# A sum or product of Laurent polynomials (denominator 1) is a pure function
# of the two frozen numerators, and being immutable, one result is shared by
# every caller.  `verify --suite currents --window 2 --degree 2` on
# std-hecke N = 2 makes 171k Laurent products on 606 distinct pairs and 150k
# sums on 1,462; 256 entries answer 99% and 96% of them.  Memo size: an
# unbounded memo raises the peak RSS of the bmw-double benchmark workload by
# 12% (18.4 -> 20.7 MB), 1024 entries by 7%, 256 entries by 2%.
_LAURENT_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_LAURENT_MEMO_SIZE)
def _laurent_add(a: Pairs, b: Pairs) -> Scalar:
    s = _padd(a, b)
    if not s:
        return ZERO
    return Scalar(tuple(sorted(s.items())), _ONE_POLY)


@functools.lru_cache(maxsize=_LAURENT_MEMO_SIZE)
def _laurent_mul(a: Pairs, b: Pairs) -> Scalar:
    return Scalar(tuple(sorted(_pmul(a, b).items())), _ONE_POLY)
