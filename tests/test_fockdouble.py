import copy
import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.braidings import (
    BMW,
    HECKE,
    LAMBDA,
    MU_KIND,
    SYM,
    Braiding,
    braiding_to_table,
    dual_square,
    exchange_table,
    load_braiding_table,
    load_builtin,
    make_bmw,
    make_flip,
    make_standard_hecke,
    make_superflip,
    eigenvalues,
    expected_mu,
    projector_decomposition_ok,
    projectors,
    relation_operator,
    specialize,
)
from qfock import fockdouble, scalars, tensorops
from qfock.errors import EmptyComponent, UnsupportedDouble
from qfock.fockdouble import (
    BraidedLie,
    _jacobi_failure,
    _row_differences,
    braided_lie,
    family_flavor,
    fock_representation,
    l_identity_sides,
    left_dual_variant_report,
    make_double,
    representation_l_relations_ok,
    verify_compatibility,
    verify_l_relations,
    verify_lie,
)
from qfock.quadalgebras import (
    GradedQuotient,
    _image_basis,
    _on_square,
    make_algebra,
    super_sym_dims,
)
from qfock.scalars import ONE, Q, QINV, ZERO, Scalar, nonzero_sums, sum_into
from qfock.tensorops import LinOperator, Row, enc_index, mat_transpose, place, solve

import formal_reference
import grid_reference
from dense_operators import dense, dense_identity, dense_matmul, from_dense
from gauge import GAUGES, conjugated, twisted
from hecke_families import FORMS, form_braiding, super_hecke
from jacobi_reference import jacobi_sides
from rewriting_reference import full_diamond_groups, normal_order_act, pending_rewrite
from test_corruptions import bump_constant, bump_exchange


def _records(checks) -> dict:
    """The witness lists of a check's yielded records, keyed by check id."""
    return {check_id: found for check_id, _, found in checks}


def dense_columns(cols, nrows):
    """The full grid of a matrix given by sparse columns {row: entry}."""
    return [[col.get(r, ZERO) for col in cols] for r in range(nrows)]


def sparse_columns(grid):
    return [{r: row[c] for r, row in enumerate(grid) if not row[c].is_zero()}
            for c in range(len(grid[0]))]


MINUS = Scalar.from_int(-1)


def l_gen(i, j):
    """The double element l_i^j = x_i x^j."""
    return {((i,), (j,)): ONE}


def classical_weyl_normal_order(word, N):
    """Brute-force normal ordering in the classical Weyl algebra:
    [a_j, c_i] = delta_ij, word given as (('a', j)|('b', i), ...)."""
    out = {}

    def rec(w, coeff):
        for p in range(len(w) - 1):
            if w[p][0] == "a" and w[p + 1][0] == "b":
                j, i = w[p][1], w[p + 1][1]
                rec(w[:p] + (("b", i), ("a", j)) + w[p + 2:], coeff)
                if i == j:
                    rec(w[:p] + w[p + 2:], coeff)
                return
        b = tuple(sorted(t[1] for t in w if t[0] == "b"))
        a = tuple(sorted(t[1] for t in w if t[0] == "a"))
        out[(b, a)] = out.get((b, a), 0) + coeff

    rec(tuple(word), 1)
    return {k: v for k, v in out.items() if v}


class TestClassicalAnchor:
    def test_weyl_relation(self):
        d = make_double(make_flip(2), "bosonic")
        got = d.normal_order((("a", 1), ("b", 0)))
        assert got == {((0,), (1,)): ONE}
        got = d.normal_order((("a", 0), ("b", 0)))
        assert got == {((0,), (0,)): ONE, ((), ()): ONE}

    def test_weyl_degree_four_word(self):
        d = make_double(make_flip(2), "bosonic")
        got = d.normal_order((("a", 0), ("b", 0), ("a", 0), ("b", 0)))
        assert got == {
            ((), ()): ONE,
            ((0,), (0,)): Scalar.from_int(3),
            ((0, 0), (0, 0)): ONE,
        }

    @given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 1)),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_flip_double_matches_classical_weyl_oracle(self, word):
        d = make_double(make_flip(2), "bosonic")
        got = d.normal_order(tuple(word))
        want = classical_weyl_normal_order(word, 2)
        # in the commutative classical quotient basis words are sorted
        want_scal = {k: Scalar.from_int(v) for k, v in want.items()}
        assert got == want_scal

    def test_classical_commutator_of_l_entries(self):
        d = make_double(make_flip(3), "bosonic")
        N = 3
        for i in range(N):
            for j in range(N):
                for k in range(N):
                    for m in range(N):
                        lhs = dict(d.multiply(l_gen(i, j), l_gen(k, m)))
                        sum_into(lhs, d.multiply(l_gen(k, m), l_gen(i, j)), MINUS)
                        rhs = {}
                        if k == j:
                            sum_into(rhs, l_gen(i, m))
                        if i == m:
                            sum_into(rhs, l_gen(k, j), MINUS)
                        assert lhs == rhs

    def test_flip_annihilation_is_partial_derivative(self):
        d = make_double(make_flip(2), "bosonic")
        got = d.act((1,), (0, 1))
        # d/dx_2 (x_1 x_2) = x_1
        assert got == {(0,): ONE}


class TestActionExamples:
    def test_action_on_unit_and_generators(self):
        d = make_double(make_standard_hecke(2), "bosonic")
        assert d.act((0,), ()) == {}
        for j in range(2):
            for i in range(2):
                got = d.act((j,), (i,))
                bij = d.braiding.B[i].get(j, ZERO)
                want = {(): bij} if not bij.is_zero() else {}
                assert got == want

    def test_action_on_degree_two_formula(self):
        # x^j |> (x_i x_k) = B_i^j x_k + q^{-1} B_k^l Psi_li^mj x_m
        b = make_standard_hecke(2)
        d = make_double(b, "bosonic")
        N = 2
        for j in range(N):
            for i in range(N):
                for k in range(N):
                    got = d.act((j,), d.B.normal_form((i, k)))
                    want = {}
                    def add(word, c):
                        if c.is_zero():
                            return
                        for w2, c2 in d.B.normal_form_word(word).items():
                            s = want.get(w2, ZERO) + c * c2
                            if s.is_zero():
                                want.pop(w2, None)
                            else:
                                want[w2] = s
                    add((k,), b.B[i].get(j, ZERO))
                    for l in range(N):
                        for m in range(N):
                            psi = dense(b.psi)[enc_index((m, j), N)][enc_index((l, i), N)]
                            add((m,), QINV * b.B[k].get(l, ZERO) * psi)
                    assert got == want

    def test_unit_acts_as_identity(self):
        d = make_double(make_standard_hecke(2), "bosonic")
        v = d.B.normal_form((0, 1, 1))
        assert d.act((), v) == v

    def test_representation_property(self):
        d = make_double(make_standard_hecke(2), "bosonic")
        words_a = [(0,), (1,), (0, 1), (1, 0), (0, 1, 1), (1, 0, 0)]
        vees = [(0,), (0, 1), (1, 1, 0), (0, 0, 1, 1)]
        for aw1 in words_a:
            for aw2 in words_a:
                for v in vees:
                    prod = {}
                    for w1, c1 in d.A.normal_form(aw1).items():
                        for w2, c2 in d.A.normal_form_word(w1 + aw2).items():
                            s = prod.get(w2, ZERO) + c1 * c2
                            prod[w2] = s
                    vred = d.B.normal_form(v)
                    lhs = d.act(prod, vred)
                    rhs = d.act(d.A.normal_form(aw1), d.act(d.A.normal_form(aw2), vred))
                    assert lhs == rhs


class TestMatrixFormActions:
    def test_contracted_degree_one_action_is_identity(self):
        # sum_{a,b} R_ai^bj (x^a |> x_b) = delta_i^j
        b = make_standard_hecke(2)
        d = make_double(b, "bosonic")
        N = 2
        for i in range(N):
            for j in range(N):
                acc = ZERO
                for a in range(N):
                    for bb in range(N):
                        r = dense(b.R)[enc_index((bb, j), N)][enc_index((a, i), N)]
                        if r.is_zero():
                            continue
                        acted = d.act((a,), (bb,))
                        acc = acc + r * acted.get((), ZERO)
                assert acc == (ONE if i == j else ZERO)

    def test_contracted_degree_two_action(self):
        # x^<1| |> (R12 R23 x_|1> x_|2>) = (R23 + q^{-1} I_23) x_|2>
        from qfock.tensorops import place
        b = make_standard_hecke(2)
        d = make_double(b, "bosonic")
        N = 2
        m = place(b.R, (2, 3), 3) @ place(b.R, (1, 2), 3)
        for i2 in range(N):
            for i3 in range(N):
                got = {}
                for a in range(N):
                    for bb in range(N):
                        for c in range(N):
                            for out in range(N):
                                r = dense(m)[enc_index((bb, c, out), N)][
                                    enc_index((a, i2, i3), N)]
                                if r.is_zero():
                                    continue
                                acted = d.act((a,), d.B.normal_form((bb, c)))
                                for w, v in acted.items():
                                    key = (w, out)
                                    s = got.get(key, ZERO) + r * v
                                    if s.is_zero():
                                        got.pop(key, None)
                                    else:
                                        got[key] = s
                want = {}
                for k in range(N):
                    for out in range(N):
                        v = dense(b.R)[enc_index((k, out), N)][enc_index((i2, i3), N)]
                        if not v.is_zero():
                            key = ((k,), out)
                            want[key] = want.get(key, ZERO) + v
                key = ((i2,), i3)
                want[key] = want.get(key, ZERO) + QINV
                want = {k2: v for k2, v in want.items() if not v.is_zero()}
                assert got == want


class TestClassicalFermionicAnchor:
    def test_flip_fermionic_double_is_exterior_calculus(self):
        d = make_double(make_flip(2), "fermionic")
        # anticommutation: x^l x_k = -x_k x^l + delta_k^l
        for l in range(2):
            for k in range(2):
                got = d.normal_order((("a", l), ("b", k)))
                want = {((k,), (l,)): Scalar.from_int(-1)}
                if k == l:
                    want[((), ())] = ONE
                assert got == want
        # exterior algebra: x_k x_k = 0 in the creation side
        assert d.B.normal_form((0, 0)) == {}
        assert d.B.dim(3) == 0
        # fermionic derivative with the sign rule
        got = d.act((1,), (0, 1))
        assert got == {(0,): Scalar.from_int(-1)}
        got = d.act((0,), (0, 1))
        assert got == {(1,): ONE}


GL_Q_2_1_TABLE = load_braiding_table(braiding_to_table(super_hecke(2, 1)))


class TestAdmissibility:
    """family_flavor reads the family off the braiding; a BMW series fixes
    the flavor, any other braiding takes the one asked for, bosonic by
    default."""

    def test_symplectic_bosonic_rejected(self):
        b = load_builtin("bmw-sympl-2")
        with pytest.raises(UnsupportedDouble, match="bmw-symplectic double is fermionic"):
            family_flavor(b, "bosonic")
        with pytest.raises(UnsupportedDouble):
            make_double(b, "bosonic")

    def test_orthogonal_fermionic_rejected(self):
        b = load_builtin("bmw-orth-3")
        with pytest.raises(UnsupportedDouble, match="bmw-orthogonal double is bosonic"):
            family_flavor(b, "fermionic")
        with pytest.raises(UnsupportedDouble):
            make_double(b, "fermionic")

    @pytest.mark.parametrize("braiding, family", [
        (make_flip(2), "hecke"),
        (make_standard_hecke(2), "hecke"),
        (load_builtin("bmw-orth-3"), "bmw-orthogonal"),
        (load_builtin("bmw-sympl-2"), "bmw-symplectic"),
        (make_superflip(2, 1), "hecke"),
        (GL_Q_2_1_TABLE, "hecke"),
    ])
    def test_family_is_read_from_the_braiding(self, braiding, family):
        assert family_flavor(braiding)[0] == family

    @pytest.mark.parametrize("braiding, flavors", [
        (make_flip(2), ("bosonic", "fermionic")),
        (make_superflip(2, 1), ("bosonic", "fermionic")),
        (make_standard_hecke(2), ("bosonic", "fermionic")),
        (GL_Q_2_1_TABLE, ("bosonic", "fermionic")),
        (load_builtin("bmw-orth-3"), ("bosonic",)),
        (load_builtin("bmw-sympl-2"), ("fermionic",)),
    ], ids=["flip-2", "superflip-2|1", "std-hecke-2", "gl_q-2|1-table",
            "bmw-orth-3", "bmw-sympl-2"])
    def test_admissible_flavors(self, braiding, flavors):
        """The flavors a double on the braiding may take; the first is the
        one an omitted flavor gives."""
        family = family_flavor(braiding)[0]
        assert family_flavor(braiding) == (family, flavors[0])
        for flavor in flavors:
            assert family_flavor(braiding, flavor) == (family, flavor)

    @pytest.mark.parametrize("braiding", [make_standard_hecke(2),
                                          load_builtin("bmw-orth-3")],
                             ids=["std-hecke-2", "bmw-orth-3"])
    def test_unknown_flavor_rejected(self, braiding):
        with pytest.raises(UnsupportedDouble, match="unknown flavor"):
            family_flavor(braiding, "anyonic")

    def test_bmw_without_series_rejected(self):
        b = copy.copy(load_builtin("bmw-orth-3"))
        b.series = None
        with pytest.raises(UnsupportedDouble, match="declares no series"):
            family_flavor(b)
        with pytest.raises(UnsupportedDouble):
            make_double(b, "bosonic")


CLOSED_IDENTITY_DOUBLES = [
    ("hecke2-bos", lambda: make_double(make_standard_hecke(2), "bosonic")),
    ("hecke3-ferm", lambda: make_double(make_standard_hecke(3), "fermionic")),
    ("superflip11-bos", lambda: make_double(make_superflip(1, 1), "bosonic")),
    ("bmw-orth", lambda: make_double(load_builtin("bmw-orth-3"), "bosonic")),
    ("bmw-sympl", lambda: make_double(load_builtin("bmw-sympl-2"), "fermionic")),
]

DOUBLES = [
    ("hecke2-bos", lambda: make_double(make_standard_hecke(2), "bosonic")),
    ("hecke2-ferm", lambda: make_double(make_standard_hecke(2), "fermionic")),
    ("bmw-orth", lambda: make_double(load_builtin("bmw-orth-3"), "bosonic")),
    ("bmw-sympl", lambda: make_double(load_builtin("bmw-sympl-2"), "fermionic")),
]


class TestCompatibility:
    @pytest.mark.parametrize("name,maker", DOUBLES)
    def test_compatibility_suite(self, name, maker):
        rep = _records(verify_compatibility(maker()))
        assert set(rep) == {"compatibility-closed-identity", "compatibility-ideals",
                            "diamond-degree-3"}
        assert not any(rep.values()), rep

    @pytest.mark.parametrize("name,maker", CLOSED_IDENTITY_DOUBLES)
    def test_closed_identity_words_need_no_reduction(self, name, maker):
        # the closed identity sorts its words by _rewrite alone; the path it
        # replaces reduced them in a double with a free creation side
        d = maker()
        N = d.braiding.N
        free = GradedQuotient(N, [])
        for p, q, r in itertools.product(range(N), repeat=3):
            for word in ((("b", p), ("b", q), ("a", r)),
                         (("a", p), ("b", q), ("b", r))):
                fast = fockdouble._rewrite(word, d.rule, d._order_cache, "a", "b")
                assert fast == fockdouble._reduce_keys(fast, free, d.A), word

    @pytest.mark.parametrize("maker", [lambda: make_bmw(3, "orthogonal"),
                                       lambda: make_standard_hecke(3)],
                             ids=["bmw-orth-3", "std-hecke-3"])
    def test_rule_checks_order_each_word_once(self, maker, monkeypatch):
        """verify_compatibility normal-orders each distinct word of the
        ideal groups once, though groups share words, and no other word: a
        relation word of the creation side after an annihilator, or of the
        annihilation side before a creator."""
        d = make_double(maker(), family_flavor(maker())[1])
        gens = range(d.braiding.N)
        words = ({(("a", g), ("b", i), ("b", j)) for rel in d.B.relations
                  for i, j in rel for g in gens}
                 | {(("a", i), ("a", j), ("b", g)) for rel in d.A.relations
                    for i, j in rel for g in gens})
        calls = []
        real = fockdouble.FockDouble.normal_order
        monkeypatch.setattr(fockdouble.FockDouble, "normal_order",
                            lambda self, word: calls.append(word) or real(self, word))
        assert not any(_records(verify_compatibility(d)).values())
        assert len(calls) == len(words)
        assert set(calls) == words

    def test_hecke_n3_compatibility(self):
        d = make_double(make_standard_hecke(3), "bosonic")
        rep = _records(verify_compatibility(d))
        assert not any(rep.values()), rep

    def test_corrupted_exchange_tensor_fails_both_rule_records(self):
        """A bumped exchange coefficient fails the diamond test over all six
        mixed patterns, and diamond-degree-3 shows the ideal witnesses."""
        d = make_double(make_standard_hecke(2), "bosonic")
        (i, j, c) = d.exchange[(0, 1)][0]
        d.exchange[(0, 1)][0] = (i, j, c + ONE)
        d._order_cache.clear()
        rep = _records(verify_compatibility(d))
        assert rep["compatibility-ideals"]
        assert rep["diamond-degree-3"] == rep["compatibility-ideals"]
        assert {w[0] for w in rep["diamond-degree-3"]} <= {"a-ideal", "b-ideal"}
        assert nonzero_sums(full_diamond_groups(2, "a", "b", {"a": d.A, "b": d.B}),
                            d.normal_order)

    @given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 1)),
                    min_size=0, max_size=2),
           st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 1)),
                    min_size=0, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_order_independence_up_to_degree_four(self, w1, w2):
        # ordering a word at once or its two halves first and multiplying
        # them gives the same element of the double
        d = make_double(make_standard_hecke(2), "fermionic")
        w1, w2 = tuple(w1), tuple(w2)
        assert d.normal_order(w1 + w2) == d.multiply(d.normal_order(w1), d.normal_order(w2))


MUTATION_DOUBLES = {
    "hecke2-bos": (make_standard_hecke, 2, "bosonic"),
    "hecke2-ferm": (make_standard_hecke, 2, "fermionic"),
    "bmw-orth": (load_builtin, "bmw-orth-3", "bosonic"),
    "bmw-sympl": (load_builtin, "bmw-sympl-2", "fermionic"),
}


def mutation_double(name):
    maker, arg, flavor = MUTATION_DOUBLES[name]
    return make_double(maker(arg), flavor)


def bump_rule(exchange, constant, which):
    """ONE added to the first move of (0, 1) or to the constant of (0, 0)."""
    if which == "exchange":
        (i, j, c), *rest = exchange[(0, 1)]
        exchange[(0, 1)] = [(i, j, c + ONE), *rest]
    elif which == "constant":
        constant[(0, 0)] = constant[(0, 0)] + ONE


ENGINE_DOUBLES = {
    "flip2-bos": (make_flip, 2, "bosonic"),
    "flip2-ferm": (make_flip, 2, "fermionic"),
    "hecke2-bos": (make_standard_hecke, 2, "bosonic"),
    "hecke2-ferm": (make_standard_hecke, 2, "fermionic"),
    "hecke3-bos": (make_standard_hecke, 3, "bosonic"),
    "hecke3-ferm": (make_standard_hecke, 3, "fermionic"),
    "bmw-orth": (load_builtin, "bmw-orth-3", "bosonic"),
    "bmw-sympl": (load_builtin, "bmw-sympl-2", "fermionic"),
}


@pytest.fixture(scope="module")
def engine_double(request):
    """One double per (name, corruption), shared by the examples of a test
    so that the _pass memo is hit across them."""
    name, which = request.param
    maker, arg, flavor = ENGINE_DOUBLES[name]
    d = make_double(maker(arg), flavor)
    bump_rule(d.exchange, d.constant, which)
    return d


def mixed_words(tags, N):
    return st.lists(st.tuples(st.sampled_from(tags), st.integers(0, N - 1)), max_size=5)


class TestOneRewritingEngine:
    """The right-to-left fold over the memoized _pass sorts every word as
    the pending-word loop it replaced does, on true and bumped rules."""

    @pytest.mark.parametrize("engine_double", [
        (name, which) for name in sorted(ENGINE_DOUBLES)
        for which in (None, "exchange", "constant")], indirect=True,
        ids=lambda p: f"{p[0]}-{p[1]}")
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_double_rule(self, engine_double, data):
        d = engine_double
        word = tuple(data.draw(mixed_words("ab", d.braiding.N)))
        want = pending_rewrite(word, d.exchange, d.constant, "a", "b")
        assert fockdouble._rewrite(word, d.rule, d._order_cache, "a", "b") == want
        assert fockdouble._rewrite(word, d.rule, {}, "a", "b") == want

    @pytest.mark.parametrize("which", [None, "exchange", "constant"])
    @pytest.mark.parametrize("make, n", [(make_flip, 2), (make_standard_hecke, 2),
                                         (make_standard_hecke, 3)])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_left_dual_rule(self, make, n, which, data):
        # the rule left_dual_variant_report builds, left-dual tokens "t" in
        # the place of creators
        b = make(n)
        exch, const = exchange_table(dual_square(b.psi), b.q.inverse(),
                                     mat_transpose(b.C, n))
        bump_rule(exch, const, which)
        word = tuple(data.draw(mixed_words("bt", n)))
        got = fockdouble._rewrite(word, lambda l, k: (exch[(l, k)], const[(l, k)]),
                                  {}, "b", "t")
        assert got == pending_rewrite(word, exch, const, "b", "t")


def tensors(N, max_len):
    """Combinations {word: c} of free words with small nonzero integer
    coefficients."""
    return st.dictionaries(
        st.lists(st.integers(0, N - 1), max_size=max_len).map(tuple),
        st.integers(-3, 3).filter(bool).map(Scalar.from_int), max_size=3)


class TestActionFold:
    """FockDouble.act, the annihilate fold followed by the B reduction,
    equals normal ordering each mixed word and keeping the terms with no
    annihilator left, on true and bumped rules."""

    @pytest.mark.parametrize("engine_double", [
        (name, which) for name in sorted(ENGINE_DOUBLES)
        for which in (None, "exchange", "constant")], indirect=True,
        ids=lambda p: f"{p[0]}-{p[1]}")
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_act_matches_normal_order_reference(self, engine_double, data):
        d = engine_double
        N = d.braiding.N
        a_elem = data.draw(tensors(N, 3))
        v = data.draw(tensors(N, 4))
        assert d.act(a_elem, v) == normal_order_act(d, a_elem, v)


class TestDoubleMutations:
    """Each corruption of the permutation rule flips the gating checks of
    the double suite; the l-quadratic-identity failure counts are pinned."""

    @pytest.mark.parametrize("name, corrupt, l_failures", [
        ("hecke2-bos", bump_exchange, 7),
        ("hecke2-ferm", bump_exchange, 3),
        ("bmw-orth", bump_exchange, 50),
        ("bmw-sympl", bump_exchange, 3),
        ("hecke2-bos", bump_constant, 6),
        ("hecke2-ferm", bump_constant, 6),
        ("bmw-orth", bump_constant, 60),
        ("bmw-sympl", bump_constant, 10),
    ])
    def test_corruption_flips_the_double_checks(self, name, corrupt, l_failures):
        d = corrupt(mutation_double(name))
        comp = _records(verify_compatibility(d))
        assert comp["compatibility-closed-identity"]
        assert all(w[0] == "closed" for w in comp["compatibility-closed-identity"])
        assert comp["compatibility-ideals"]
        assert all(w[0] in ("a-ideal", "b-ideal") for w in comp["compatibility-ideals"])
        assert comp["diamond-degree-3"] == comp["compatibility-ideals"]
        assert len(verify_l_relations(d)) == l_failures
        # the representations see the pairing constant, not the exchange
        reps_ok = corrupt is bump_exchange
        for k in _nonempty_degrees(d):
            assert representation_l_relations_ok(d, fock_representation(d, k)) is reps_ok


def rule_bumps():
    """Single corruptions of the double's rule on ENGINE_DOUBLES: ONE added
    to the first exchange move of each (l, k) that has one, or to each
    pairing constant."""
    for name, (maker, arg, flavor) in sorted(ENGINE_DOUBLES.items()):
        d = make_double(maker(arg), flavor)
        for key in sorted(d.exchange):
            if d.exchange[key]:
                yield pytest.param(name, "exchange", key, id=f"{name}-exchange-{key}")
            yield pytest.param(name, "constant", key, id=f"{name}-constant-{key}")


def bumped_double(name, which, key):
    maker, arg, flavor = ENGINE_DOUBLES[name]
    d = make_double(maker(arg), flavor)
    if which == "exchange":
        (i, j, c), *rest = d.exchange[key]
        d.exchange[key] = [(i, j, c + ONE), *rest]
    else:
        d.constant[key] = d.constant[key] + ONE
    return d


def with_reference_verdicts(monkeypatch) -> list:
    """Patch fockdouble._rule_failures to record, on each call, its
    witnesses, the failing groups of the diamond test over all six mixed
    patterns of degree 3 (full_diamond_groups) on the same sides and the
    same order function, and the rule's two tags (hi, lo)."""
    real = fockdouble._rule_failures
    calls = []

    def recorded(N, hi, lo, algebras, order):
        found = real(N, hi, lo, algebras, order)
        calls.append((found, nonzero_sums(full_diamond_groups(N, hi, lo, algebras), order),
                      (hi, lo)))
        return found

    monkeypatch.setattr(fockdouble, "_rule_failures", recorded)
    return calls


def compatibility_cases():
    """Every single rule bump of the ENGINE_DOUBLES, then the left-dual
    variant of three bosonic Hecke-family doubles, intact and with its rule
    bumped (bump_rule)."""
    for param in rule_bumps():
        yield pytest.param("double", *param.values, id=param.id)
    for name in ("flip2-bos", "hecke2-bos", "hecke3-bos"):
        for which in (None, "exchange", "constant"):
            yield pytest.param("left-dual", name, which, None,
                               id=f"left-dual-{name}-{which}")


def checked_rule(rule, name, which, key, monkeypatch):
    """Run the compatibility check of one case of compatibility_cases:
    the double's rule records, which must agree, or the left-dual report.
    Returns the witnesses and the one recorded with_reference_verdicts
    call."""
    if rule == "double":
        d = bumped_double(name, which, key)
        calls = with_reference_verdicts(monkeypatch)
        comp = _records(verify_compatibility(d))
        assert comp["diamond-degree-3"] == comp["compatibility-ideals"]
        got = comp["compatibility-ideals"]
    else:
        maker, arg, flavor = ENGINE_DOUBLES[name]
        d = make_double(maker(arg), flavor)
        build = fockdouble.exchange_table

        def corrupted(*args):
            moves, constants = build(*args)
            bump_rule(moves, constants, which)
            return moves, constants

        monkeypatch.setattr(fockdouble, "exchange_table", corrupted)
        calls = with_reference_verdicts(monkeypatch)
        got = left_dual_variant_report(d)
    [call] = calls
    return got, call


class TestOneCompatibilityEngine:
    """The ideal groups of _rule_failures are the one compatibility engine:
    its verdict is the diamond test's over all six mixed patterns of
    degree 3, and diamond-degree-3 reads compatibility-ideals' witnesses."""

    @pytest.mark.parametrize("rule,name,which,key", list(compatibility_cases()))
    def test_verdict_equals_the_full_diamond(self, rule, name, which, key, monkeypatch):
        got, (found, reference, _) = checked_rule(rule, name, which, key, monkeypatch)
        assert got == found
        assert bool(found) is bool(reference), (found, reference)

    @pytest.mark.parametrize("rule,name,which,key", list(compatibility_cases()))
    def test_failing_generators_as_the_full_diamond(self, rule, name, which, key,
                                                    monkeypatch):
        """The derivation holds side by side and generator by generator: the
        relations of one side beside generator g order to zero exactly when
        the diamond words of that side's overlap with g do.  Only the
        overlaps (hi, hi, lo) and (hi, lo, lo) fail; in the other four mixed
        patterns the two rewrite orders agree without a relation."""
        _, (found, reference, (hi, lo)) = checked_rule(rule, name, which, key, monkeypatch)
        patterns = {tuple(tag for tag, _ in word) for _, word in reference}
        assert patterns <= {(hi, hi, lo), (hi, lo, lo)}
        assert ({(label.removesuffix("-ideal"), g) for label, g, _ in found}
                == {(word[0][0], word[2][1]) if word[1][0] == hi else (word[2][0], word[0][1])
                    for _, word in reference})


class TestLRelations:
    @pytest.mark.parametrize("name,maker", DOUBLES)
    def test_quadratic_identity(self, name, maker):
        failures = verify_l_relations(maker())
        assert not failures, failures[:5]

    def test_hecke3_quadratic_identity(self):
        d = make_double(make_standard_hecke(3), "bosonic")
        assert not verify_l_relations(d)

    def test_flip_families(self):
        for flavor in ("bosonic", "fermionic"):
            d = make_double(make_flip(2), flavor)
            assert not verify_l_relations(d)


def _double_grid(b):
    """The G of b's double: bosonic, or of the flavor its BMW series fixes."""
    return make_double(b, family_flavor(b)[1]).G


def _bumped(R):
    """R with ONE added to its first nonzero entry (no braiding)."""
    r, c, _ = next(R.nonzeros())
    return R + LinOperator.from_terms([(r, c, ONE)], R.dim, R.legs, R.labels, R.labels_out)


SIDE_BRAIDINGS = {
    "flip-3": lambda: make_flip(3),
    "superflip-2|1": lambda: make_superflip(2, 1),
    **{f"std-hecke-{n}": (lambda n=n: make_standard_hecke(n)) for n in (2, 3, 4)},
    "twisted-hecke-3": lambda: twisted(make_standard_hecke(3)),
    "gl-2|1": lambda: super_hecke(2, 1),
    **{f"form-{n}": (lambda n=n: form_braiding(FORMS[n])) for n in (3, 4)},
    "bmw-orth-3": lambda: make_bmw(3, "orthogonal"),
    "bmw-sympl-2": lambda: make_bmw(2, "symplectic"),
}


class TestLIdentitySides:
    @pytest.mark.parametrize("bumped", [False, True], ids=["exact", "bumped"])
    @pytest.mark.parametrize("name", sorted(SIDE_BRAIDINGS))
    def test_equal_to_formal_products(self, name, bumped):
        """The four sides summed over the nonzeros of R and O are the cell
        rows of the formal written products, for O = R (the braided Lie
        twist) and for the double's G, also for an R with one entry bumped
        by ONE (which is no braiding)."""
        b = SIDE_BRAIDINGS[name]()
        R = _bumped(b.R) if bumped else b.R
        for outer in (R, _double_grid(b)):
            sides = l_identity_sides(R, outer)
            assert all(len(side) == b.N ** 4 for side in sides)
            assert list(sides) == [formal_reference.cell_rows(side, b.N)
                                   for side in formal_reference.pair_sides(R, outer)]
            assert any(sides[0]) and any(sides[2])


GRID_BRAIDINGS = {
    "flip-3": lambda: make_flip(3),
    "superflip-2|1": lambda: make_superflip(2, 1),
    **{f"std-hecke-{n}": (lambda n=n: make_standard_hecke(n)) for n in (2, 3)},
    "twisted-hecke-3": lambda: twisted(make_standard_hecke(3)),
    "gl-2|1": lambda: super_hecke(2, 1),
    "form-3": lambda: form_braiding(FORMS[3]),
    **{f"bmw-orth-{n}": (lambda n=n: make_bmw(n, "orthogonal")) for n in (3, 4)},
    **{f"bmw-sympl-{n}": (lambda n=n: make_bmw(n, "symplectic")) for n in (2, 4)},
}


def _net_rows(R, O) -> dict:
    """The nonzero net coefficients of the L-identity over the outer grid O,
    keyed (cell row, side, column): the quadratic side O L1 R L1 - L1 R L1 O
    and the linear side L1 O - O L1."""
    o_lrl, lrl_o, o_l, l_o = l_identity_sides(R, O)
    net = {}
    for side, rows in (("quad", _row_differences(o_lrl, lrl_o)),
                       ("lin", _row_differences(l_o, o_l))):
        for xy, row in enumerate(rows):
            net.update(((xy, side, col), v) for col, v in row.items())
    return net


class TestGridAgainstProjectorRoute:
    """The double's G against the projector route it replaced
    (tests/grid_reference.py): G = a*O + c*I with a != 0 for the old outer
    grid O, so its net L-identity rows are a times O's; and its image is the
    same relation space."""

    @pytest.mark.parametrize("bumped", [False, True], ids=["exact", "bumped"])
    @pytest.mark.parametrize("name", sorted(GRID_BRAIDINGS))
    def test_net_rows_are_one_multiple_of_the_reference(self, name, bumped):
        b = GRID_BRAIDINGS[name]()
        if bumped:
            b = Braiding(_bumped(b.R), b.kind, series=b.series, q=b.q, name=b.name)
        kinds = (SYM, LAMBDA) if b.kind != BMW else (MU_KIND[b.series],)
        reference = _net_rows(b.R, grid_reference.outer_grid(b))
        assert reference
        for kind in kinds:
            net = _net_rows(b.R, relation_operator(b, kind))
            assert net.keys() == reference.keys(), kind
            ratios = {v * reference[key].inverse() for key, v in net.items()}
            assert len(ratios) == 1 and not next(iter(ratios)).is_zero(), kind

    @pytest.mark.parametrize("name", sorted(GRID_BRAIDINGS))
    def test_relation_bases_equal_the_projector_route(self, name):
        b = GRID_BRAIDINGS[name]()
        for kind, space in itertools.product((SYM, LAMBDA), ("V", "V*")):
            reference = grid_reference.projector_relation_operator(b, kind)
            assert (make_algebra(b, kind, space).relations
                    == _image_basis(_on_square(reference, space))), (kind, space)


class TestRootTable:
    """projectors and kind_polynomial_ok read the root table
    braidings.eigenvalues; the forms they replace, written out kind by kind,
    are the reference (tests/grid_reference.py)."""

    @pytest.mark.parametrize("bumped", [False, True], ids=["exact", "bumped"])
    @pytest.mark.parametrize("q0", [None, Fraction(3, 2)], ids=["generic", "q0=3/2"])
    @pytest.mark.parametrize("name", sorted(GRID_BRAIDINGS))
    def test_equal_to_the_hand_expanded_forms(self, name, q0, bumped):
        """Equal idempotents and verdicts, also for an R with one entry
        bumped by ONE (which is no braiding) and at q = q0."""
        b = GRID_BRAIDINGS[name]()
        if q0 is not None:
            b = specialize(b, q0)
        if bumped:
            b = Braiding(_bumped(b.R), b.kind, series=b.series, q=b.q, name=b.name)
        assert grid_reference.normalized(projectors(b)) == grid_reference.hand_projectors(b)
        assert b.kind_polynomial_ok() is grid_reference.hand_kind_polynomial_ok(b)
        assert b.kind_polynomial_ok() is not bumped
        assert set(eigenvalues(b)) == set(projectors(b))

    @pytest.mark.parametrize("series, N", [("orthogonal", 3), ("orthogonal", 4),
                                           ("symplectic", 2), ("symplectic", 4)])
    def test_mu_follows_from_the_series(self, series, N):
        """The mu of every BMW braiding is the one its series fixes at its
        own q: constructed, loaded, specialized and changed in basis."""
        b = make_bmw(N, series)
        copies = [b, specialize(b, Fraction(3, 2)), twisted(b),
                  *(conjugated(b, g(N)) for g in GAUGES.values())]
        if N < 4:
            short = "orth" if series == "orthogonal" else "sympl"
            copies.append(load_builtin(f"bmw-{short}-{N}"))
        for c in copies:
            assert c.mu == expected_mu(c.series, c.N, c.q), c.name
            assert eigenvalues(c)["mu"] == c.mu
        # at q0 it is the value of the generic mu there, as it was when
        # specialize evaluated mu itself
        assert copies[1].mu == Scalar.from_fraction(b.mu.evaluate(Fraction(3, 2)))

    @pytest.mark.parametrize("name", ["flip-3", "superflip-2|1", "std-hecke-3",
                                      "gl-2|1", "form-3"])
    def test_no_mu_off_bmw(self, name):
        b = GRID_BRAIDINGS[name]()
        assert b.mu is None
        assert list(eigenvalues(b)) == ["q", "-1/q"]


class TestRepresentations:
    def test_component1_action_is_b_contraction(self):
        b = make_standard_hecke(2)
        d = make_double(b, "bosonic")
        reps = fock_representation(d, 1)
        for i in range(2):
            for j in range(2):
                mat = dense_columns(reps[(i, j)], 2)
                for k in range(2):
                    for r in range(2):
                        want = b.B[k].get(j, ZERO) if r == i else ZERO
                        assert mat[r][k] == want

    def test_flip_degree2_classical_action(self):
        d = make_double(make_flip(2), "bosonic")
        reps = fock_representation(d, 2)
        comp = d.B.component(2)
        # l_1^1 = x_1 d/dx_1 counts the degree in x_1
        mat = dense_columns(reps[(0, 0)], len(comp.basis))
        for col, w in enumerate(comp.basis):
            deg = sum(1 for t in w if t == 0)
            for row in range(len(comp.basis)):
                want = Scalar.from_int(deg) if row == col else ZERO
                assert mat[row][col] == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hecke2_representation_identity(self, k):
        d = make_double(make_standard_hecke(2), "bosonic")
        assert representation_l_relations_ok(d, fock_representation(d, k))

    def test_empty_component_raises(self):
        d = make_double(make_standard_hecke(2), "fermionic")
        with pytest.raises(EmptyComponent):
            fock_representation(d, 3)

    def test_homogeneous_preservation(self):
        d = make_double(make_standard_hecke(2), "bosonic")
        reps = fock_representation(d, 2)
        dim = len(d.B.component(2).basis)
        for cols in reps.values():
            assert len(cols) == dim and all(0 <= r < dim for col in cols for r in col)


# (constructor, flavors of its double): each is checked at q = q0 through
# braidings.specialize, where only the braiding's own b.q is a number
SPECIALIZED = [
    (lambda: make_standard_hecke(2), ("bosonic", "fermionic")),
    (lambda: make_standard_hecke(3), ("bosonic", "fermionic")),
    (lambda: make_bmw(3, "orthogonal"), ("bosonic",)),
    (lambda: make_bmw(2, "symplectic"), ("fermionic",)),
]


class TestSpecializedBraidings:
    """Every relation space and q-dependent check reads b.q, so R at a
    rational q0 gets the same verdicts as R over Q(q)."""

    @pytest.fixture(params=[Fraction(3, 2), Fraction(2)], ids=["q0=3/2", "q0=2"])
    def q0(self, request):
        return request.param

    @pytest.mark.parametrize("make", [make for make, _ in SPECIALIZED])
    def test_projectors_and_relation_spaces(self, make, q0):
        b = specialize(make(), q0)
        assert b.validate() == []
        assert projector_decomposition_ok(b)
        assert grid_reference.cleared_decomposition_ok(b)
        # the sym and lambda relation spaces are complementary
        assert (relation_operator(b, SYM) @ relation_operator(b, LAMBDA)).is_zero()
        assert all(len(make_algebra(b, kind, space).relations)
                   for kind in (SYM, LAMBDA) for space in ("V", "V*"))

    @pytest.mark.parametrize("n", [2, 3])
    def test_hecke_poincare_series_are_classical(self, n, q0):
        b = specialize(make_standard_hecke(n), q0)
        for space in ("V", "V*"):
            assert make_algebra(b, SYM, space).poincare(4) == super_sym_dims(n, 0, 4)
            assert make_algebra(b, LAMBDA, space).poincare(4) == super_sym_dims(0, n, 4)

    @pytest.mark.parametrize("make,flavors", SPECIALIZED)
    def test_doubles(self, make, flavors, q0):
        b = specialize(make(), q0)
        for flavor in flavors:
            d = make_double(b, flavor)
            comp = _records(verify_compatibility(d))
            assert not any(comp.values()), comp
            assert not verify_l_relations(d)
            assert representation_l_relations_ok(d, fock_representation(d, 2))


def _dense_representation_ok(d, k):
    """Reference: the L-identity on component k through flattened
    (N^2 dim)-square block matrices over the scalars, outer grid the
    double's G."""
    N = d.braiding.N
    dim = len(d.B.component(k).basis)
    reps = {pair: dense_columns(cols, dim)
            for pair, cols in fock_representation(d, k).items()}
    n2 = N * N

    def written(op):
        grid = dense(op)
        return [[grid[y][x] for y in range(n2)] for x in range(n2)]

    def flat_scalar(grid):
        big = [[ZERO] * (n2 * dim) for _ in range(n2 * dim)]
        for x in range(n2):
            for y in range(n2):
                v = grid[x][y]
                if v.is_zero():
                    continue
                for r in range(dim):
                    big[x * dim + r][y * dim + r] = v
        return big

    def flat_l1():
        big = [[ZERO] * (n2 * dim) for _ in range(n2 * dim)]
        for i, a, j in itertools.product(range(N), repeat=3):
            blk = reps[(i, j)]
            x, y = enc_index((i, a), N), enc_index((j, a), N)
            for r in range(dim):
                for c in range(dim):
                    if not blk[r][c].is_zero():
                        big[x * dim + r][y * dim + c] = blk[r][c]
        return big

    rw = flat_scalar(written(d.braiding.R))
    outer = flat_scalar(written(d.G))
    l1 = flat_l1()
    lhs1 = dense_matmul(dense_matmul(dense_matmul(outer, l1), rw), l1)
    lhs2 = dense_matmul(dense_matmul(dense_matmul(l1, rw), l1), outer)
    rhs1 = dense_matmul(outer, l1)
    rhs2 = dense_matmul(l1, outer)
    size = n2 * dim
    return all(lhs1[r][c] - lhs2[r][c] == rhs1[r][c] - rhs2[r][c]
               for r in range(size) for c in range(size))


EQUIVALENCE_DOUBLES = {
    "hecke2-bos": lambda: make_double(make_standard_hecke(2), "bosonic"),
    "hecke2-ferm": lambda: make_double(make_standard_hecke(2), "fermionic"),
    "hecke3-bos": lambda: make_double(make_standard_hecke(3), "bosonic"),
    "hecke3-ferm": lambda: make_double(make_standard_hecke(3), "fermionic"),
    "flip3-bos": lambda: make_double(make_flip(3), "bosonic"),
    "flip3-ferm": lambda: make_double(make_flip(3), "fermionic"),
    "superflip11-bos": lambda: make_double(make_superflip(1, 1), "bosonic"),
    "superflip11-ferm": lambda: make_double(make_superflip(1, 1), "fermionic"),
    "bmw-orth": lambda: make_double(load_builtin("bmw-orth-3"), "bosonic"),
    "bmw-sympl": lambda: make_double(load_builtin("bmw-sympl-2"), "fermionic"),
}

HECKE_DOUBLES = [n for n in EQUIVALENCE_DOUBLES if not n.startswith("bmw")]


def _nonempty_degrees(d):
    return [k for k in (1, 2, 3) if d.B.component(k).basis]


def _pgcd_counter(monkeypatch):
    calls = []
    original = scalars._pgcd

    def counting(a, b):
        calls.append(None)
        return original(a, b)

    monkeypatch.setattr(scalars, "_pgcd", counting)
    return calls


def _bump_outer(d):
    """ONE added to the first off-diagonal nonzero entry of the double's G
    (a diagonal bump adds a multiple of I, which the L-identity cannot
    see), before its L-identity cells are first read."""
    assert "l_identity_cells" not in vars(d)
    rows = dense(d.G)
    r, c = next((r, c) for r, row in enumerate(rows)
                for c, v in enumerate(row) if r != c and not v.is_zero())
    rows[r][c] = rows[r][c] + ONE
    d.G = from_dense(rows, d.G.dim, d.G.legs, d.G.labels, d.G.labels_out)
    return d


class TestRepresentationFastPath:
    """The representation check evaluates the cached formal cell
    combinations on sparse representing matrices, with the double's G as
    the outer grid; the dense flattened check is the reference."""

    @pytest.mark.parametrize("corrupt", [None, bump_exchange, bump_constant])
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_DOUBLES))
    def test_same_verdict_as_dense_reference(self, name, corrupt):
        d = EQUIVALENCE_DOUBLES[name]()
        if corrupt is not None:
            corrupt(d)
        for k in _nonempty_degrees(d):
            fast = representation_l_relations_ok(d, fock_representation(d, k))
            assert fast is _dense_representation_ok(d, k), k
            if corrupt is None:
                assert fast

    @pytest.mark.parametrize("name, l_failures", [("bmw-orth", 17), ("bmw-sympl", 3)])
    def test_bumped_outer_entry_fails(self, name, l_failures):
        d = _bump_outer(EQUIVALENCE_DOUBLES[name]())
        assert len(verify_l_relations(d)) == l_failures
        verdicts = {k: representation_l_relations_ok(d, fock_representation(d, k))
                    for k in _nonempty_degrees(d)}
        assert verdicts == {k: k == 1 for k in verdicts}
        assert verdicts == {k: _dense_representation_ok(d, k) for k in verdicts}

    def test_bmw_gcd_count_does_not_grow_with_k(self, monkeypatch):
        # the outer grid is the double's G, a Laurent polynomial in R, and
        # every product with it stays Laurent, so no gcd is taken
        calls = _pgcd_counter(monkeypatch)
        counts = []
        for k in (1, 2, 3):
            d = EQUIVALENCE_DOUBLES["bmw-orth"]()
            del calls[:]
            representation_l_relations_ok(d, fock_representation(d, k))
            counts.append(len(calls))
            del calls[:]
            representation_l_relations_ok(d, fock_representation(d, k))
            assert not calls      # the cell combinations are cached
        assert counts == [0, 0, 0]

    @pytest.mark.parametrize("name", HECKE_DOUBLES)
    def test_hecke_doubles_make_no_gcd_call(self, name, monkeypatch):
        d = EQUIVALENCE_DOUBLES[name]()
        calls = _pgcd_counter(monkeypatch)
        for k in _nonempty_degrees(d):
            representation_l_relations_ok(d, fock_representation(d, k))
        assert not calls


class TestBraidedLie:
    def test_flip_rhat_is_the_flip(self):
        bl = braided_lie(make_flip(2))
        n2 = 4
        rhat = dense_columns(bl.rhat, n2 * n2)
        for e1 in range(n2):
            for e2 in range(n2):
                col = enc_index((e1, e2), n2)
                row = enc_index((e2, e1), n2)
                for r in range(n2 * n2):
                    want = ONE if r == row else ZERO
                    assert rhat[r][col] == want

    def test_flip_bracket_is_commutator(self):
        bl = braided_lie(make_flip(2))
        # [l_e1, l_e2] classical: comp(e1,e2) - comp(e2,e1)
        n2 = 4
        comp = dense_columns(bl.comp, n2)
        bracket = dense_columns(bl.bracket, n2)
        for e1 in range(n2):
            for e2 in range(n2):
                col = enc_index((e1, e2), n2)
                for e in range(n2):
                    want = comp[e][col] - comp[e][enc_index((e2, e1), n2)]
                    assert bracket[e][col] == want

    @pytest.mark.parametrize("maker", [
        lambda: make_flip(2),
        lambda: make_flip(3),
        lambda: make_superflip(1, 1),
        lambda: make_standard_hecke(2),
    ])
    def test_full_lie_verification(self, maker):
        rep = _records(verify_lie(braided_lie(maker())))
        assert set(rep) == {"rhat-defining", "rtrace-generators", "rtrace-brackets",
                            "jacobi", "bracket-quadratic-consistency"}
        assert not any(rep.values()), rep

    def test_alpha_matches_trace_of_generators(self):
        bl = braided_lie(make_standard_hecke(2))
        assert bl.alpha == Scalar.q_power(-4)
        for i in range(2):
            for j in range(2):
                want = bl.alpha if i == j else ZERO
                assert bl.rtrace[i * 2 + j] == want

    @pytest.mark.parametrize("maker", [lambda: make_standard_hecke(2),
                                       lambda: make_flip(2)])
    @pytest.mark.parametrize("field, flipped", [
        ("bracket", {"rtrace-brackets", "jacobi", "bracket-quadratic-consistency"}),
        ("rhat", {"rhat-defining", "jacobi"}),
        ("rtrace", {"rtrace-generators", "rtrace-brackets"}),
        ("alpha", {"rtrace-generators"}),
    ])
    def test_corruption_fails_its_checks(self, maker, field, flipped):
        bl = braided_lie(maker())
        assert not any(_records(verify_lie(bl)).values())
        rep = _records(verify_lie(_corrupt(bl, field)))
        assert {k for k, found in rep.items() if found} == flipped

    @pytest.mark.parametrize("maker", [
        lambda: make_flip(2),
        lambda: make_flip(3),
        lambda: make_superflip(1, 1),
        lambda: make_standard_hecke(2),
        lambda: make_standard_hecke(3),
    ])
    def test_leg_local_jacobi_matches_dense(self, maker):
        bl = braided_lie(maker())
        broken = _corrupt(_corrupt(bl, "bracket"), "rhat")
        n2 = bl.braiding.N ** 2
        for cur in (bl, broken):
            sides = tuple(dense_columns(side, n2) for side in jacobi_sides(cur))
            assert sides == _dense_jacobi_sides(cur)
        lhs, rhs = jacobi_sides(broken)
        assert lhs != rhs

    @pytest.mark.parametrize("maker", [
        lambda: make_flip(2),
        lambda: make_flip(3),
        lambda: make_superflip(1, 1),
        lambda: make_standard_hecke(2),
        lambda: make_standard_hecke(3),
        lambda: twisted(make_standard_hecke(3)),
        lambda: super_hecke(2, 1),
        lambda: make_superflip(1, 2),
        lambda: make_superflip(0, 2),
        lambda: conjugated(make_flip(3), GAUGES["upper"](3)),
    ])
    def test_streamed_jacobi_matches_reference(self, maker):
        """The streamed check fails exactly when the reference does.  On a
        Hecke braiding, where both read the Leibniz form, it names the
        reference's first differing third-leg block c and that block's
        first differing column (e1, e2)."""
        bl = braided_lie(maker())
        n2 = bl.braiding.N ** 2
        for cur in (bl, _corrupt(bl, "bracket"), _corrupt(bl, "rhat")):
            lhs, rhs = jacobi_sides(cur)
            assert (_jacobi_failure(cur) is None) == (lhs == rhs)
            if bl.braiding.kind == HECKE:
                assert _jacobi_failure(cur) == first_jacobi_difference(lhs, rhs, n2)
        assert _jacobi_failure(bl) is None
        # a bracket whose one nonzero entry is [l_z, l_z] = l_z, z the last
        # generator: the sides differ only in the last third-leg block,
        # columns (e1, e2, z), so a stream that skips that block passes
        z = n2 - 1
        last = copy.copy(bl)
        last.bracket = [{}] * (n2 * n2 - 1) + [{z: ONE}]
        lhs, rhs = jacobi_sides(last)
        assert {c % n2 for c, (x, y) in enumerate(zip(lhs, rhs)) if x != y} == {z}
        assert _jacobi_failure(last)[0] == z

    @pytest.mark.parametrize("maker", [lambda: make_flip(2),
                                       lambda: make_superflip(1, 1)])
    def test_involutive_forms_agree_on_every_bump(self, maker):
        """The streamed check runs the Leibniz form on an involutive
        braiding, the reference the cyclic one; with ONE added to any one
        nonzero entry of the twist or the bracket the two verdicts agree."""
        bl = braided_lie(maker())
        for field in ("rhat", "bracket"):
            cols = getattr(bl, field)
            for c, r in [(c, r) for c, col in enumerate(cols) for r in col]:
                bumped = [dict(col) for col in cols]
                bumped[c][r] = bumped[c][r] + ONE
                cur = copy.copy(bl)
                setattr(cur, field, bumped)
                lhs, rhs = jacobi_sides(cur)
                assert (_jacobi_failure(cur) is None) == (lhs == rhs), (field, c, r)

    @pytest.mark.parametrize("maker", [lambda: make_flip(2),
                                       lambda: make_standard_hecke(2),
                                       lambda: make_standard_hecke(3)])
    def test_filled_zero_entry_agrees_with_reference(self, maker):
        """The streamed check walks only nonzero summands; ONE set at a zero
        entry, in each bracket column that is empty on the true data and in
        every (N^2 + 1)-th column of the twist, must be seen: the verdicts
        agree with the reference's, and each fill-in breaks the identity."""
        bl = braided_lie(maker())
        n2 = bl.braiding.N ** 2
        n4 = n2 * n2
        cases = [("bracket", c, c % n2) for c, col in enumerate(bl.bracket) if not col]
        cases += [("rhat", k, min(set(range(n4)) - set(bl.rhat[k])))
                  for k in range(0, n4, n2 + 1)]
        assert {field for field, _, _ in cases} == {"bracket", "rhat"}
        for field, c, r in cases:
            filled = [dict(col) for col in getattr(bl, field)]
            filled[c][r] = ONE
            cur = copy.copy(bl)
            setattr(cur, field, filled)
            lhs, rhs = jacobi_sides(cur)
            assert lhs != rhs, (field, c, r)
            assert _jacobi_failure(cur) is not None, (field, c, r)

    def test_jacobi_work_on_std_hecke_4(self, monkeypatch):
        """The check adds only nonzero summands: on std-hecke N = 4 it makes
        no more Scalar products and at most half the sum_into calls of the
        walk over every entry of the twist and the bracket (8,978 products
        and 19,264 sum_into calls)."""
        bl = braided_lie(make_standard_hecke(4))
        calls = {"sum_into": 0, "mul": 0}
        real_sum, real_mul = scalars.sum_into, Scalar.__mul__

        def counted_sum(*args):
            calls["sum_into"] += 1
            return real_sum(*args)

        def counted_mul(self, other):
            calls["mul"] += 1
            return real_mul(self, other)

        monkeypatch.setattr(fockdouble, "sum_into", counted_sum)
        monkeypatch.setattr(tensorops, "sum_into", counted_sum)
        monkeypatch.setattr(Scalar, "__mul__", counted_mul)
        assert _jacobi_failure(bl) is None
        assert calls["mul"] <= 8978, calls
        assert calls["sum_into"] <= 19264 // 2, calls

    @pytest.mark.parametrize("maker", [
        lambda: make_flip(2),
        lambda: make_flip(3),
        lambda: make_superflip(2, 1),
        lambda: make_superflip(1, 2),
        lambda: make_standard_hecke(2),
        lambda: make_standard_hecke(3),
        lambda: twisted(make_standard_hecke(3)),
        lambda: super_hecke(2, 1),
        lambda: super_hecke(1, 2),
        lambda: form_braiding(FORMS[3]),
        *(lambda g=g: conjugated(make_standard_hecke(3), g(3)) for g in GAUGES.values()),
    ])
    def test_twist_equals_its_closed_form(self, maker):
        """The twist built from the dual extensions of R equals the one
        solved from its defining property, which determines it."""
        b = maker()
        assert braided_lie(b).rhat == _solved_twist(b)

    @pytest.mark.parametrize("maker", [
        lambda: make_standard_hecke(4),
        lambda: make_flip(4),
        lambda: make_superflip(2, 2),
    ])
    def test_streamed_jacobi_holds_less_memory(self, maker):
        bl = braided_lie(maker())

        def peak(check):
            tracemalloc.start()
            try:
                check(bl)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        streamed, whole = peak(_jacobi_failure), peak(jacobi_sides)
        assert 3 * streamed < whole, (streamed, whole)


def first_jacobi_difference(lhs, rhs, n2):
    """The first third-leg block c at which the reference Jacobi sides
    differ, with the first column (e1, e2) of that block where they do;
    None when they agree.  Column (e1, e2, c) is e1*N^4 + e2*N^2 + c."""
    differing = [divmod(col, n2) for col, (x, y) in enumerate(zip(lhs, rhs)) if x != y]
    if not differing:
        return None
    k, c = min(differing, key=lambda kc: (kc[1], kc[0]))
    return c, divmod(k, n2)


def _solved_twist(b: Braiding) -> list[Row]:
    """The twist of End(V) (x) End(V) by columns, solved from its defining
    property: it takes each cell of the first side R12 L1 R12 L1 of the
    L-identity to the same cell of the second, L1 R12 L1 R12, so it is X^T
    with M1 X = M2, and the rows of X are its columns."""
    quadratic, twisted_side, _, _ = l_identity_sides(b.R, b.R)
    x = solve(quadratic, twisted_side, b.N ** 4)
    assert x is not None
    return x


def _corrupt(bl: BraidedLie, field: str) -> BraidedLie:
    """A copy of bl with ONE added to one entry of the named field: the
    first nonzero entry of a matrix, rtrace[1], or alpha."""
    out = copy.copy(bl)
    if field == "alpha":
        out.alpha = bl.alpha + ONE
    elif field == "rtrace":
        out.rtrace = list(bl.rtrace)
        out.rtrace[1] = out.rtrace[1] + ONE
    else:
        cols = getattr(bl, field)
        mat = dense_columns(cols, 1 + max(r for col in cols for r in col))
        r, c = next((r, c) for r, row in enumerate(mat)
                    for c, v in enumerate(row) if not v.is_zero())
        mat[r][c] = mat[r][c] + ONE
        setattr(out, field, sparse_columns(mat))
    return out


def _kron(a, b):
    na, nb = len(a), len(b)
    ma, mb = len(a[0]), len(b[0])
    out = [[ZERO] * (ma * mb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(ma):
            v = a[i][j]
            if v.is_zero():
                continue
            for r in range(nb):
                for c in range(mb):
                    w = b[r][c]
                    if not w.is_zero():
                        out[i * nb + r][j * mb + c] = v * w
    return out


def _dense_jacobi_sides(bl: BraidedLie):
    """Reference for jacobi_sides: every leg operator embedded as a dense
    (N^2)^3-square Kronecker product."""
    n2 = bl.braiding.N ** 2
    id2 = dense_identity(n2)
    id6 = dense_identity(n2 ** 3)
    rhat = dense_columns(bl.rhat, n2 * n2)
    bracket = dense_columns(bl.bracket, n2)
    rh12 = _kron(rhat, id2)
    rh23 = _kron(id2, rhat)
    a = dense_matmul(bracket, _kron(id2, bracket))
    if bl.braiding.kind == HECKE:
        rest = [[x - y for x, y in zip(ri, rr)] for ri, rr in zip(id6, rh12)]
        return dense_matmul(a, rest), dense_matmul(bracket, _kron(bracket, id2))
    cyc = dense_matmul(rh12, rh23)
    cyc2 = dense_matmul(rh23, rh12)
    rest = [[x + y + z for x, y, z in zip(ri, rc, rc2)]
            for ri, rc, rc2 in zip(id6, cyc, cyc2)]
    return dense_matmul(a, rest), [[ZERO] * len(id6) for _ in range(n2)]


class TestLeftDualVariant:
    @pytest.mark.parametrize("maker", [lambda: make_flip(2),
                                       lambda: make_standard_hecke(2)])
    def test_variant_is_consistent(self, maker):
        rep = left_dual_variant_report(make_double(maker(), "bosonic"))
        assert not rep, rep[:5]

    @pytest.mark.parametrize("maker, flavor", [
        (lambda: make_standard_hecke(2), "fermionic"),
        (lambda: make_bmw(3, "orthogonal"), "bosonic"),
        (lambda: make_bmw(2, "symplectic"), "fermionic"),
    ])
    def test_other_doubles_are_refused(self, maker, flavor):
        with pytest.raises(UnsupportedDouble):
            left_dual_variant_report(make_double(maker(), flavor))

    # a bumped pairing constant of the flip only rescales the Weyl pairing,
    # which is still consistent, so the flip is corrupted in its exchange
    @pytest.mark.parametrize("maker, which", [
        (lambda: make_flip(2), "exchange"),
        (lambda: make_standard_hecke(2), "exchange"),
        (lambda: make_standard_hecke(2), "constant"),
        (lambda: make_standard_hecke(3), "exchange"),
        (lambda: make_standard_hecke(3), "constant"),
    ])
    def test_corrupted_variant_rule_fails(self, maker, which, monkeypatch):
        # the double is built before the patch, so only the variant's
        # table is corrupted
        d = make_double(maker(), "bosonic")
        build = fockdouble.exchange_table

        def corrupted(*args):
            moves, constants = build(*args)
            if which == "exchange":
                (i, j, c), *rest = moves[(0, 1)]
                moves[(0, 1)] = [(i, j, c + ONE), *rest]
            else:
                constants[(0, 0)] = constants[(0, 0)] + ONE
            return moves, constants

        monkeypatch.setattr(fockdouble, "exchange_table", corrupted)
        rep = left_dual_variant_report(d)
        assert rep
        assert {w[0] for w in rep} <= {"b-ideal", "t-ideal"}


    def test_corrupted_variant_rule_names_its_relations(self, monkeypatch):
        """The variant's ideal witnesses take the double's form
        ("<tag>-ideal", generator, relation) on both of its sides."""
        b = make_standard_hecke(2)
        d = make_double(b, "bosonic")
        build = fockdouble.exchange_table
        real_quotient = fockdouble.GradedQuotient
        made = []

        def corrupted(*args):
            moves, constants = build(*args)
            (i, j, c), *rest = moves[(0, 1)]
            moves[(0, 1)] = [(i, j, c + ONE), *rest]
            return moves, constants

        def recorded(*args, **kwargs):
            made.append(real_quotient(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(fockdouble, "exchange_table", corrupted)
        monkeypatch.setattr(fockdouble, "GradedQuotient", recorded)
        rep = left_dual_variant_report(d)
        [tilde] = made
        relations = {"b": {tuple(r) for r in d.B.relations},
                     "t": {tuple(r) for r in tilde.relations}}
        assert {w[0] for w in rep} == {"b-ideal", "t-ideal"}
        for label, g, rel in rep:
            assert g in range(b.N) and rel in relations[label[0]]


class TestDoubleAlgebra:
    def test_multiplication_is_associative(self):
        d = make_double(make_standard_hecke(2), "bosonic")
        a, b_, c = l_gen(0, 1), l_gen(1, 0), l_gen(0, 0)
        assert d.multiply(d.multiply(a, b_), c) == d.multiply(a, d.multiply(b_, c))

    @given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 1)),
                    min_size=0, max_size=2),
           st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 1)),
                    min_size=0, max_size=2),
           st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 1)),
                    min_size=0, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_associativity_on_random_words(self, w1, w2, w3):
        d = make_double(make_standard_hecke(2), "bosonic")
        e1 = d.normal_order(tuple(w1))
        e2 = d.normal_order(tuple(w2))
        e3 = d.normal_order(tuple(w3))
        assert d.multiply(d.multiply(e1, e2), e3) == d.multiply(e1, d.multiply(e2, e3))

    def test_unit(self):
        d = make_double(make_standard_hecke(2), "bosonic")
        e = l_gen(0, 1)
        one = {((), ()): ONE}
        assert d.multiply(one, e) == e
        assert d.multiply(e, one) == e
