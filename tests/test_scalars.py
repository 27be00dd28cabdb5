from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.errors import DivisionByZero, NonGenericPoint
from qfock.scalars import (
    ONE, Q, QINV, ZERO, Scalar, _laurent_add, _laurent_mul, _padd, _pgcd, _pmul,
    add_term, sum_into,
)


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


class TestCanonicalForm:
    def test_zero_normalizes(self):
        assert Scalar.make({}, {0: 5}) == ZERO
        assert Scalar.make({2: 0}, {1: 3}) == ZERO

    def test_gcd_reduction(self):
        # (q^2 - 1)/(q - 1) == q + 1
        a = Scalar.make({2: 1, 0: -1}, {1: 1, 0: -1})
        assert a == poly({1: 1, 0: 1})

    def test_denominator_shifted_to_zero(self):
        a = Scalar.make({0: 1}, {3: 2, 5: 4})
        assert min(e for e, _ in a.den) == 0
        assert a.den[-1][1] > 0

    def test_sign_convention(self):
        a = Scalar.make({0: 1}, {1: -1, 0: 1})
        assert a.den[-1][1] > 0

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


@given(scalars(), scalars(), scalars())
@settings(max_examples=150)
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
    exps = [e for e, _ in a.den]
    assert min(exps) == 0                      # denominator starts at q^0
    assert a.den[-1][1] > 0                    # positive leading coefficient
    if not a.is_zero():
        low = min(e for e, _ in a.num)
        shifted_num = {e - low: c for e, c in a.num}
        assert _pgcd(shifted_num, dict(a.den)) == {0: 1}   # fully reduced


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
    if a.num and b.num and not (a.is_one() or b.is_one()):
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
    assert Scalar.make({0: 4, 3: -6}, {2: -2}) == Scalar(((-2, -2), (1, 3)), ((0, 1),))
    assert Scalar.make({1: 3}, {0: 6}) == Scalar(((1, 1),), ((0, 2),))
    assert calls == []
    # (q^2 - 1)/(q - 1) = q + 1 needs the gcd
    assert Scalar.make({2: 1, 0: -1}, {1: 1, 0: -1}) == poly({1: 1, 0: 1})
    assert len(calls) >= 1
