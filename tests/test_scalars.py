from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.errors import DivisionByZero, NonGenericPoint
from qfock.scalars import (
    ONE, Q, QINV, ZERO, Scalar, _laurent_add, _laurent_mul, _padd, _pgcd, _pmul,
    add_term, nonzero_sums, sum_into,
)

import scalar_reference as ref


def poly(d):
    return Scalar.make(d, {0: 1})


@st.composite
def scalars(draw, allow_zero=True):
    n = draw(st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=3))
    d = draw(st.dictionaries(st.integers(0, 3), st.integers(-4, 4), min_size=1, max_size=3))
    if not any(d.values()):
        d = {0: 1}
    s = Scalar.make(n, d)
    if not allow_zero and s.is_zero():
        return ONE
    return s


# Wide scalars, for the ring laws and for the differential tests against
# scalar_reference.Scalar, the list-of-pairs Scalar that the packed one
# replaced: both are built from the same numerator and denominator dicts,
# and every operation must give the same canonical form.  The coefficients
# reach past a packed digit (|c| < 2^63) and past 2^64, the numerators run
# to 24 terms, and the exponents span q^-40 .. q^40.

WIDE = [2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1, 2**63, 2**63 + 1,
        2**64 - 1, 2**64, 2**64 + 1, 3 * 2**63, 2**90]
wide_coeffs = st.one_of(st.integers(-9, 9),
                        st.sampled_from(WIDE + [-c for c in WIDE]),
                        st.integers(-2**66, 2**66))
wide_numerators = st.one_of(
    st.dictionaries(st.integers(-40, 40), wide_coeffs, max_size=6),
    st.builds(lambda lo, cs: {lo + i: c for i, c in enumerate(cs)},
              st.integers(-12, 12), st.lists(wide_coeffs, min_size=20, max_size=24)),
    st.builds(lambda a, b: {-40: a, 40: b}, wide_coeffs, wide_coeffs),
)
wide_denominators = st.one_of(
    st.just({0: 1}),
    st.builds(lambda k, d: {k: d}, st.integers(-3, 3),
              st.sampled_from([1, 2, 3, 6, -4, 2**63, -(2**64 + 1)])),
    st.sampled_from([{0: 1, 1: 1}, {0: 2, 2: -3}, {1: 1, 3: -1}, {0: -1, 2: 5, 3: 2}]),
)


@st.composite
def with_reference(draw, numerators=wide_numerators, denominators=wide_denominators):
    num, den = draw(numerators), draw(denominators)
    return Scalar.make(num, den), ref.Scalar.make(num, den)


class TestCanonicalForm:
    def test_zero_normalizes(self):
        assert Scalar.make({}, {0: 5}) == ZERO
        assert Scalar.make({2: 0}, {1: 3}) == ZERO

    def test_gcd_reduction(self):
        # (q^2 - 1)/(q - 1) == q + 1
        a = Scalar.make({2: 1, 0: -1}, {1: 1, 0: -1})
        assert a == poly({1: 1, 0: 1})

    def test_denominator_shifted_to_zero(self):
        den = Scalar.make({0: 1}, {3: 2, 5: 4}).to_pairs()["den"]
        assert min(e for e, _ in den) == 0
        assert den[-1][1] > 0

    def test_sign_convention(self):
        den = Scalar.make({0: 1}, {1: -1, 0: 1}).to_pairs()["den"]
        assert den[-1][1] > 0

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            Scalar.make({0: 1}, {})


class TestFieldArith:
    def test_q_minus_qinv(self):
        # q - q^{-1} = (q^2 - 1)/q
        got = Q - QINV
        assert got == Scalar.make({2: 1, 0: -1}, {1: 1})

    def test_mul_identity(self):
        a = Scalar.make({2: 3, -1: 5}, {1: 1, 0: 7})
        assert a * ONE == a

    def test_div_clears_denominators(self):
        # 1 / (q + q^{-1}) = q/(q^2 + 1)
        got = ONE / (Q + QINV)
        assert got == Scalar.make({1: 1}, {2: 1, 0: 1})

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            ONE / ZERO

    def test_pow_negative(self):
        assert Q ** -2 == QINV * QINV


class TestSparseAccumulator:
    def test_add_term_drops_cancelled_keys(self):
        out = {}
        add_term(out, "x", Q)
        add_term(out, "y", ONE)
        add_term(out, "x", -Q)
        assert out == {"y": ONE}

    def test_sum_into_scales_and_cancels(self):
        out = {"x": Q, "y": ONE}
        sum_into(out, {"x": ONE, "z": QINV}, -Q)
        assert out == {"y": ONE, "z": -ONE}
        sum_into(out, {"y": -ONE})
        assert out == {"z": -ONE}

    def test_absent_key_with_zero_term_stores_nothing(self):
        out = {}
        add_term(out, "x", ZERO)
        sum_into(out, {"y": Q}, ZERO)
        assert out == {}

    def test_absent_key_stores_the_term_itself(self):
        c = Scalar.make({0: 1}, {0: 1, 1: 1})
        out = {}
        add_term(out, "x", c)
        sum_into(out, {"y": c})
        assert out["x"] is c and out["y"] is c

    def test_cancelling_sum_removes_key(self):
        c = Scalar.make({0: 1}, {0: 1, 1: 1})
        out = {"x": c, "y": Q}
        add_term(out, "x", -c)
        assert out == {"y": Q}
        sum_into(out, {"y": ONE}, -Q)
        assert out == {}

    def test_sum_into_non_unit_scale(self):
        scale = ONE / (Q + ONE)
        out = {"x": ONE}
        sum_into(out, {"x": -Q, "y": QINV}, scale)
        # 1 - q/(q + 1) = 1/(q + 1)
        assert out == {"x": scale, "y": Scalar.make({-1: 1}, {0: 1, 1: 1})}


class TestNonzeroSums:
    VALUES = {"u": {0: ONE, 1: Q}, "v": {0: -ONE}, "w": {1: ONE}}

    def test_keeps_group_order_and_evaluates_each_word_once(self):
        calls = []

        def value_of(w):
            calls.append(w)
            return self.VALUES[w]

        groups = {"z": {"u": ONE, "v": ONE},        # 1 + q - 1 = q: fails
                  "a": {"u": ONE, "v": ONE, "w": -Q},  # cancels
                  "m": {"w": QINV}}                   # fails
        assert nonzero_sums(groups, value_of) == ["z", "m"]
        assert sorted(calls) == ["u", "v", "w"]

    def test_empty_combination_is_never_evaluated(self):
        def value_of(w):
            raise AssertionError(f"evaluated {w!r}")

        assert nonzero_sums({"g": {}, "h": {}}, value_of) == []


class TestEvaluate:
    def test_classical_limit(self):
        assert (Q - QINV).evaluate(1) == 0

    def test_square(self):
        assert (Q * Q).evaluate(Fraction(3, 2)) == Fraction(9, 4)

    def test_pole(self):
        a = ONE / (Q - ONE)
        with pytest.raises(NonGenericPoint):
            a.evaluate(1)

    def test_zero_point_rejected(self):
        with pytest.raises(NonGenericPoint):
            Q.evaluate(0)


# the ring laws, also on wide coefficients, long numerators and wide gaps
any_scalars = st.one_of(scalars(), with_reference().map(lambda pair: pair[0]))


@given(any_scalars, any_scalars, any_scalars)
@settings(max_examples=150, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(scalars(allow_zero=False))
def test_inverses(a):
    assert a * a.inverse() == ONE
    assert a / a == ONE


@given(scalars(), scalars())
@settings(max_examples=100)
def test_evaluate_is_homomorphism(a, b):
    q0 = Fraction(5, 3)
    try:
        va, vb = a.evaluate(q0), b.evaluate(q0)
    except NonGenericPoint:
        return
    assert (a * b).evaluate(q0) == va * vb
    assert (a + b).evaluate(q0) == va + vb


@given(scalars())
def test_serialization_roundtrip(a):
    assert Scalar.from_pairs(a.to_pairs()) == a


@given(scalars(), scalars())
def test_canonical_equality_iff_value_equality(a, b):
    # equality of canonical forms must coincide with a - b == 0
    assert (a == b) == (a - b).is_zero()


@given(scalars())
def test_canonical_invariants(a):
    pairs = a.to_pairs()
    num, den = ({e: c for e, c in pairs[k]} for k in ("num", "den"))
    assert min(den) == 0                       # denominator starts at q^0
    assert den[max(den)] > 0                   # positive leading coefficient
    if not a.is_zero():
        low = min(num)
        shifted_num = {e - low: c for e, c in num.items()}
        assert _pgcd(shifted_num, den) == {0: 1}   # fully reduced


# -- the Laurent fast path of Scalar.make ----------------------------------
#
# A monomial denominator takes the fast path; multiplying numerator and
# denominator by a non-monomial factor f forces the same value through the
# polynomial gcd.  Both must give the same canonical form.

laurent = st.dictionaries(st.integers(-4, 4), st.integers(-6, 6), max_size=4)
monomials = st.builds(lambda k, c: {k: c}, st.integers(-3, 3),
                      st.integers(-6, 6).filter(bool))
non_monomial_factors = st.sampled_from(
    [{0: 1, 1: 1}, {0: 2, 2: -3}, {0: -1, 3: 5}, {1: 4, 2: 6}])


def via_gcd(num: dict, den: dict, f: dict) -> Scalar:
    return Scalar.make(_pmul(num.items(), f.items()), _pmul(den.items(), f.items()))


@given(laurent, monomials, non_monomial_factors)
@settings(max_examples=300)
def test_laurent_make_matches_gcd_path(num, den, f):
    assert Scalar.make(num, den) == via_gcd(num, den, f)


def slow_add_and_mul(n1: dict, n2: dict, f: dict) -> tuple[Scalar, Scalar]:
    """a + b and a * b through Scalar.make, and again through the gcd."""
    s, p = _padd(n1.items(), n2.items()), _pmul(n1.items(), n2.items())
    assert Scalar.make(s, {0: 1}) == via_gcd(s, {0: 1}, f)
    assert Scalar.make(p, {0: 1}) == via_gcd(p, {0: 1}, f)
    return Scalar.make(s, {0: 1}), Scalar.make(p, {0: 1})


@given(laurent, laurent, non_monomial_factors)
@settings(max_examples=200)
def test_laurent_add_and_mul_match_gcd_path(n1, n2, f):
    a, b = poly(n1), poly(n2)
    want = slow_add_and_mul(n1, n2, f)
    _laurent_add.cache_clear()
    _laurent_mul.cache_clear()
    assert (a + b, a * b) == want                       # cold memo
    hits = _laurent_add.cache_info().hits + _laurent_mul.cache_info().hits
    assert (a + b, a * b) == want                       # warm memo
    if not (a.is_zero() or b.is_zero() or a.is_one() or b.is_one()):
        assert _laurent_add.cache_info().hits + _laurent_mul.cache_info().hits == hits + 2


def test_laurent_memo_evicts_and_stays_exact():
    # 400 distinct pairs overflow the 256 entries; a second pass in the
    # same order then misses on every pair (least recently used first out)
    pairs = [({k: 1, 500: -3}, {-k: 2, 600: 1}) for k in range(400)]
    want = [slow_add_and_mul(n1, n2, {0: 1, 1: 1}) for n1, n2 in pairs]
    _laurent_add.cache_clear()
    _laurent_mul.cache_clear()
    for _ in range(2):
        assert [(poly(n1) + poly(n2), poly(n1) * poly(n2)) for n1, n2 in pairs] == want
    for memo in (_laurent_add, _laurent_mul):
        info = memo.cache_info()
        assert info.currsize == info.maxsize == 256
        assert info.misses == 2 * len(pairs) and info.hits == 0


def test_monomial_denominator_skips_gcd(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return _pgcd(a, b)

    monkeypatch.setattr("qfock.scalars._pgcd", counting)
    # (4 - 6 q^3) / (-2 q^2) = (3 q^3 - 2) / q^2
    assert Scalar.make({0: 4, 3: -6}, {2: -2}).to_pairs() == {"num": [[-2, -2], [1, 3]],
                                                            "den": [[0, 1]]}
    assert Scalar.make({1: 3}, {0: 6}).to_pairs() == {"num": [[1, 1]], "den": [[0, 2]]}
    assert calls == []
    # (q^2 - 1)/(q - 1) = q + 1 needs the gcd
    assert Scalar.make({2: 1, 0: -1}, {1: 1, 0: -1}) == poly({1: 1, 0: 1})
    assert len(calls) >= 1


# -- the packed kernel against the reference ---------------------------------

def assert_agrees(a: Scalar, r: ref.Scalar) -> None:
    assert a.to_pairs() == r.to_pairs()
    assert repr(a) == repr(r)
    assert (a.is_zero(), a.is_one()) == (r.is_zero(), r.is_one())


@given(with_reference(), with_reference(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_operations_agree_with_the_reference(x, y, same):
    (a, ra), (b, rb) = x, y
    if same:  # an equal value built apart from a
        b, rb = Scalar.from_pairs(ra.to_pairs()), ref.Scalar.from_pairs(ra.to_pairs())
    assert_agrees(a, ra)
    assert_agrees(b, rb)
    assert_agrees(a + b, ra + rb)
    assert_agrees(a - b, ra - rb)
    assert_agrees(a * b, ra * rb)
    assert_agrees(-a, -ra)
    if not rb.is_zero():
        assert_agrees(a / b, ra / rb)
        assert_agrees(b.inverse(), rb.inverse())
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    c = (a + b) - b
    assert c == a and hash(c) == hash(a)
    q0 = Fraction(5, 3)
    try:
        want = ra.evaluate(q0)
    except NonGenericPoint:
        with pytest.raises(NonGenericPoint):
            a.evaluate(q0)
    else:
        assert a.evaluate(q0) == want


@given(with_reference(st.dictionaries(st.integers(-40, 40), wide_coeffs, max_size=4)),
       st.integers(-2, 3))
@settings(max_examples=100, deadline=None)
def test_powers_agree_with_the_reference(x, n):
    a, ra = x
    if ra.is_zero() and n < 0:
        return
    assert_agrees(a ** n, ra ** n)


def test_digit_boundary_agrees_with_the_reference():
    # 2^63 - 1 is the largest packed coefficient; 2^63 and beyond are held
    # as pairs, and a sum that returns below the boundary is packed again
    for c in (2**63 - 1, 2**63, 2**63 + 1, 2**64):
        for sign in (1, -1):
            a, ra = Scalar.q_power(3, sign * c), ref.Scalar.q_power(3, sign * c)
            assert_agrees(a, ra)
            one = Scalar.q_power(3, sign)
            assert_agrees(a + one, ra + ref.Scalar.q_power(3, sign))
            assert_agrees(a - one, ra - ref.Scalar.q_power(3, sign))
            assert_agrees(a + one - one, ra)


def test_products_across_the_overflow_guard():
    # A packed product runs only when the operands' coefficient bounds keep
    # every digit of the result below 2^63.  (q + 1)(q - 1) = q^2 - 1 carries
    # the bound 4 for an exact 2, so forty such factors reach the guard
    # (4^32 = 2^64) on bounds alone: each operand's bound is then made
    # exact, and every product still takes the memo.
    f, rf = (Q + ONE) * (Q - ONE), (ref.Q + ref.ONE) * (ref.Q - ref.ONE)
    p, rp = ONE, ref.ONE
    _laurent_mul.cache_clear()
    for _ in range(40):
        p, rp = p * f, rp * rf
        assert_agrees(p, rp)
    assert _laurent_mul.cache_info().misses == 39   # the first is ONE * f
    # (q + 1)^k has coefficients up to C(k, k/2), past 2^63 from k = 67:
    # past the guard the product is computed over pairs, and its values
    # with wide coefficients are held as pairs
    g, rg = Q + ONE, ref.Q + ref.ONE
    powers, rpowers = [ONE], [ref.ONE]
    for _ in range(72):
        powers.append(powers[-1] * g)
        rpowers.append(rpowers[-1] * rg)
        assert_agrees(powers[-1], rpowers[-1])
    top, rtop = powers[-1], rpowers[-1]
    assert max(abs(c) for _, c in top.to_pairs()["num"]) >= 2**63
    assert_agrees(top / powers[-2], rtop / rpowers[-2])   # back to q + 1
    assert_agrees(top - top, rtop - rtop)
    assert_agrees(top * QINV + ONE, rtop * ref.QINV + ref.ONE)
    half, rhalf = Scalar.from_fraction(Fraction(1, 2)), ref.Scalar.from_fraction(Fraction(1, 2))
    assert_agrees(top * half, rtop * rhalf)
    # integer denominators: (2^62 q + 1)/3 * (2^62 q - 1)/5 passes the guard
    a, ra = (Scalar.make({1: 2**62, 0: 1}, {0: 3}), ref.Scalar.make({1: 2**62, 0: 1}, {0: 3}))
    b, rb = (Scalar.make({1: 2**62, 0: -1}, {0: 5}), ref.Scalar.make({1: 2**62, 0: -1}, {0: 5}))
    assert_agrees(a * b, ra * rb)
    assert_agrees(a + b, ra + rb)
    assert_agrees(a * b / b, ra)


# Divisors c q^s / d: one-digit c of either sign, with d on both sides of
# 2^63, where the packed inverse hands over to the pairs path.
MONOMIAL_EDGE = [2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64 + 1]
monomial_divisors = st.builds(
    lambda c, s, d: (c, s, d),
    st.one_of(st.integers(-9, 9).filter(bool),
              st.sampled_from([2**62, 2**63 - 1, -(2**62), -(2**63 - 1), 2**63, -(2**64)])),
    st.integers(-40, 40),
    st.one_of(st.integers(1, 12), st.sampled_from(MONOMIAL_EDGE)))


@given(with_reference(), monomial_divisors)
@settings(max_examples=200, deadline=None)
def test_division_by_a_monomial_agrees_with_the_reference(x, divisor):
    (a, ra), (c, s, d) = x, divisor
    b, rb = Scalar.make({s: c}, {0: d}), ref.Scalar.make({s: c}, {0: d})
    assert_agrees(b, rb)
    assert_agrees(b.inverse(), rb.inverse())
    assert_agrees(a / b, ra / rb)
    assert_agrees(a / b * b, ra)
    assert_agrees(b.inverse().inverse(), rb)


def test_division_by_a_packed_monomial_skips_make(monkeypatch):
    """The inverse of c q^s / d with one digit c and d < 2^63 is packed
    directly, and so is a packed dividend over it; d = 2^63, two digits and
    a polynomial denominator take Scalar.make."""
    calls = []
    make = Scalar.__dict__["make"].__func__

    def counted(num, den):
        calls.append((num, den))
        return make(num, den)

    x = Scalar.make({0: 3, 2: -5, 70: 2}, {0: 7})
    fast = [Q, QINV, Scalar.from_int(-2), Scalar.make({3: -6}, {0: 35})]
    widest = Scalar.make({-4: -(2**63 - 1)}, {0: 2**63 - 2})
    slow = [Scalar.make({0: 1}, {0: 2**63}), Q + ONE,
            Scalar.make({0: 1}, {0: 1, 1: 1})]
    monkeypatch.setattr(Scalar, "make", staticmethod(counted))
    for b in fast:
        b.inverse()
        x / b
    assert widest.inverse().to_pairs() == {"num": [[4, -(2**63 - 2)]],
                                           "den": [[0, 2**63 - 1]]}
    assert calls == []
    # x / widest passes the product guard's bound, and is computed over pairs
    x / widest
    assert len(calls) == 1
    calls.clear()
    for b in slow:
        b.inverse()
    assert len(calls) == len(slow)


def test_bmw_braiding_scalar_work_is_pinned(monkeypatch, capsys):
    # Deterministic counts of the Scalar.make calls of `verify --braiding
    # bmw-orth --n 3 --suite braiding`: all of them, those with a polynomial
    # denominator, and those made inside Scalar.inverse.  The normalized
    # spectral projectors and a make per inverse made 620, 581 and 48; the
    # cleared Lagrange data and the packed monomial inverse leave these.
    from qfock import cli

    calls = {"make": 0, "polyden": 0, "in_inverse": 0}
    depth = [0]
    make, inverse = Scalar.__dict__["make"].__func__, Scalar.inverse

    def counted_make(num, den):
        calls["make"] += 1
        calls["polyden"] += sum(1 for c in den.values() if c) > 1
        calls["in_inverse"] += depth[0] > 0
        return make(num, den)

    def counted_inverse(self):
        depth[0] += 1
        try:
            return inverse(self)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Scalar, "make", staticmethod(counted_make))
    monkeypatch.setattr(Scalar, "inverse", counted_inverse)
    assert cli.main(["verify", "--braiding", "bmw-orth", "--n", "3",
                     "--suite", "braiding"]) == 0
    capsys.readouterr()
    assert calls == {"make": 21, "polyden": 21, "in_inverse": 7}


def test_hecke_currents_scalar_work_is_pinned(monkeypatch, capsys):
    # `verify --braiding std-hecke --n 3 --suite currents` makes no
    # Scalar.make call.  The spot check of the normalized R(u,v) / g(u,v)
    # made 300, every one with a polynomial denominator; the cleared forms
    # of the spectral certificates stay Laurent.
    from qfock import cli

    calls = []
    make = Scalar.__dict__["make"].__func__

    def counted(num, den):
        calls.append(den)
        return make(num, den)

    monkeypatch.setattr(Scalar, "make", staticmethod(counted))
    assert cli.main(["verify", "--braiding", "std-hecke", "--n", "3",
                     "--suite", "currents"]) == 0
    capsys.readouterr()
    assert calls == []


def test_bmw_double_scalar_work_is_pinned(monkeypatch, capsys):
    # Deterministic counts of the scalar work of `verify --braiding bmw-orth
    # --n 3 --suite double --degree 3`: Scalar.make, + and * calls, and the
    # misses of the two Laurent memos.  The list-of-pairs Scalar read the
    # same four counts of + and * work (add 4765, mul 10278, add misses
    # 3008, mul misses 4641): the packed kernel sits behind the memo, whose
    # keys map one-to-one to the old ones, so it sees the same hits and
    # misses.  It made 56 make calls; the packed inverse of a monomial
    # c q^s / d takes no make, which leaves 20.  A diamond test over all six
    # mixed patterns of degree 3, not the two overlaps, made add 4765, mul
    # 10278 and add misses 3008.  The two-overlap diamond test beside the
    # ideal check, which decides the same fact, made add 4651, mul 9816 and
    # mul misses 4641.
    from qfock import cli

    calls = {"make": 0, "add": 0, "mul": 0}
    make, add, mul = Scalar.__dict__["make"].__func__, Scalar.__add__, Scalar.__mul__

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Scalar, "make", staticmethod(counted("make", make)))
    monkeypatch.setattr(Scalar, "__add__", counted("add", add))
    monkeypatch.setattr(Scalar, "__mul__", counted("mul", mul))
    _laurent_add.cache_clear()
    _laurent_mul.cache_clear()
    assert cli.main(["verify", "--braiding", "bmw-orth", "--n", "3",
                     "--suite", "double", "--degree", "3"]) == 0
    capsys.readouterr()
    assert calls == {"make": 20, "add": 4549, "mul": 9632}
    assert _laurent_add.cache_info().misses == 3005
    assert _laurent_mul.cache_info().misses == 4636
