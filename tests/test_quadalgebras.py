import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.braidings import load_builtin, make_flip, make_standard_hecke, make_superflip
from qfock.quadalgebras import (
    GradedQuotient,
    make_algebra,
    mu_eigenspace_degree2_report,
    super_sym_dims,
)
from qfock.scalars import ONE, ZERO, Scalar

from dense_elimination import dense_row_reduce


def _code(word, N):
    code = 0
    for t in word:
        code = code * N + t
    return code


def placed_relation_rows(alg, k):
    """Every relation placed on two adjacent slots of degree k, as dense rows
    over the N^k words in lexicographic order."""
    N = alg.N
    ncols = N ** k
    rows = []
    for pos in range(k - 1):
        for rel in alg.relations:
            for outer in itertools.product(range(N), repeat=k - 2):
                row = [ZERO] * ncols
                for (i, j), c in rel.items():
                    code = _code(outer[:pos] + (i, j) + outer[pos:], N)
                    row[code] = row[code] + c
                rows.append(row)
    return rows


def full_span_dim(alg, k):
    """Independent oracle: rank of all relation placements in degree k."""
    return alg.N ** k - dense_row_reduce(placed_relation_rows(alg, k)).rank


class TestClassicalFlip:
    def test_sym_dims_are_binomials(self):
        alg = make_algebra(make_flip(3), "sym", "V")
        assert alg.poincare(4) == [1, 3, 6, 10, 15]

    def test_sym_n2_degree2(self):
        alg = make_algebra(make_flip(2), "sym", "V")
        assert alg.dim(2) == 3

    def test_lambda_dims(self):
        alg = make_algebra(make_flip(3), "lambda", "V")
        assert alg.poincare(4) == [1, 3, 3, 1, 0]

    def test_commutativity_of_normal_form(self):
        alg = make_algebra(make_flip(2), "sym", "V")
        assert alg.normal_form((1, 0)) == alg.normal_form((0, 1))

    def test_component_zero_is_vacuum(self):
        alg = make_algebra(make_flip(2), "sym", "V")
        comp = alg.component(0)
        assert comp.basis == [()]


class TestHecke:
    def test_n2_lambda_poincare(self):
        alg = make_algebra(make_standard_hecke(2), "lambda", "V")
        assert alg.poincare(4) == [1, 2, 1, 0, 0]

    def test_n2_sym_poincare(self):
        alg = make_algebra(make_standard_hecke(2), "sym", "V")
        assert alg.poincare(5) == [1, 2, 3, 4, 5, 6]

    def test_n3_sym_poincare(self):
        alg = make_algebra(make_standard_hecke(3), "sym", "V")
        assert alg.poincare(3) == [1, 3, 6, 10]

    def test_hecke_projector_complementarity_in_dims(self):
        sym = make_algebra(make_standard_hecke(2), "sym", "V")
        lam = make_algebra(make_standard_hecke(2), "lambda", "V")
        assert sym.dim(2) + lam.dim(2) == 4

    def test_dual_space_same_poincare(self):
        b = make_standard_hecke(2)
        for kind in ("sym", "lambda"):
            v = make_algebra(b, kind, "V")
            vs = make_algebra(b, kind, "V*")
            assert v.poincare(4) == vs.poincare(4)

    def test_lambda_component3_vanishes(self):
        alg = make_algebra(make_standard_hecke(2), "lambda", "V")
        assert alg.component(3).basis == []

    @pytest.mark.parametrize("kind,space", [("sym", "V"), ("lambda", "V"),
                                            ("sym", "V*"), ("lambda", "V*")])
    def test_iterative_dims_match_full_span(self, kind, space):
        alg = make_algebra(make_standard_hecke(2), kind, space)
        for k in (2, 3, 4):
            assert alg.dim(k) == full_span_dim(alg, k)

    def test_classical_comparison_helpers(self):
        assert super_sym_dims(3, 0, 4) == [1, 3, 6, 10, 15]
        assert super_sym_dims(0, 3, 4) == [1, 3, 3, 1, 0]
        # (1 + t)^n / (1 - t)^m: Sym and Lambda of the super space (2|1)
        assert super_sym_dims(2, 1, 4) == [1, 3, 5, 7, 9]
        assert super_sym_dims(1, 2, 4) == [1, 3, 4, 4, 4]


class TestSuperflip:
    def test_super_sym_dims(self):
        # one even and one odd direction: mixed polynomial/exterior counting
        alg = make_algebra(make_superflip(1, 1), "sym", "V")
        assert alg.poincare(4) == [1, 2, 2, 2, 2]


class TestNormalForm:
    def test_relation_elements_reduce_to_zero(self):
        alg = make_algebra(make_standard_hecke(2), "sym", "V")
        for rel in alg.relations:
            assert alg.normal_form(dict(rel)) == {}

    def test_placed_relations_reduce_to_zero(self):
        alg = make_algebra(make_standard_hecke(2), "sym", "V")
        for rel in alg.relations:
            left = {(0,) + w: c for w, c in rel.items()}
            right = {w + (1,): c for w, c in rel.items()}
            assert alg.normal_form(left) == {}
            assert alg.normal_form(right) == {}

    def test_basis_words_are_fixed(self):
        alg = make_algebra(make_standard_hecke(2), "sym", "V")
        for w in alg.component(3).basis:
            assert alg.normal_form(w) == {w: ONE}

    def test_basis_words_are_lex_earliest(self):
        alg = make_algebra(make_flip(2), "sym", "V")
        assert alg.component(2).basis == [(0, 0), (0, 1), (1, 1)]

    def test_projection_after_inclusion_is_identity(self):
        alg = make_algebra(make_standard_hecke(3), "sym", "V")
        comp = alg.component(2)
        for w in comp.basis:
            nf = alg.normal_form(w)
            assert nf == {w: ONE}

    @pytest.mark.parametrize("k", [2, 3])
    def test_candidate_normal_form_is_the_stored_reduction(self, k):
        """Building degree k stores the reduction of each non-basis
        candidate (a degree k-1 basis word and a generator) as its normal
        form, which normal_form_word hands back as stored: a combination of
        basis words that differs from the candidate by placed relations."""
        alg = make_algebra(make_standard_hecke(3), "sym", "V")
        prev, comp = alg.component(k - 1), alg.component(k)
        candidates = [w + (g,) for w in prev.basis for g in range(alg.N)
                      if w + (g,) not in comp.basis_index]
        assert candidates
        stored = {w: alg._nf_cache[w] for w in candidates}
        relations = placed_relation_rows(alg, k)
        rank = dense_row_reduce(relations).rank
        for w in candidates:
            nf = alg.normal_form_word(w)
            assert nf is stored[w]
            assert set(nf) <= set(comp.basis)
            row = [ZERO] * alg.N ** k
            row[_code(w, alg.N)] = ONE
            for y, c in nf.items():
                row[_code(y, alg.N)] = row[_code(y, alg.N)] - c
            assert dense_row_reduce([*relations, row]).rank == rank

    @given(st.lists(st.integers(0, 1), min_size=3, max_size=3),
           st.lists(st.integers(0, 1), min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_normal_form_is_linear(self, w1, w2):
        alg = make_algebra(make_standard_hecke(2), "sym", "V")
        t1, t2 = tuple(w1), tuple(w2)
        lhs = alg.normal_form({t1: ONE, t2: ONE} if t1 != t2 else {t1: Scalar.from_int(2)})
        rhs = {}
        for w, c in alg.normal_form(t1).items():
            rhs[w] = rhs.get(w, ZERO) + c
        for w, c in alg.normal_form(t2).items():
            rhs[w] = rhs.get(w, ZERO) + c
        rhs = {w: c for w, c in rhs.items() if not c.is_zero()}
        assert lhs == rhs


class TestBMW:
    def test_orthogonal_degree2_dims(self):
        b = load_builtin("bmw-orth-3")
        sym = make_algebra(b, "sym", "V")
        lam = make_algebra(b, "lambda", "V")
        assert sym.dim(2) == 6
        assert lam.dim(2) == 3

    def test_symplectic_degree2_dims(self):
        b = load_builtin("bmw-sympl-2")
        sym = make_algebra(b, "sym", "V")
        lam = make_algebra(b, "lambda", "V")
        assert sym.dim(2) == 3
        assert lam.dim(2) == 1

    def test_mu_eigenspace_report(self):
        for name in ("bmw-orth-3", "bmw-sympl-2"):
            # no ("mu-rank", r) entry: the mu eigenspace has rank one
            assert mu_eigenspace_degree2_report(load_builtin(name)) == []

    def test_poincare_report_values_computed(self):
        b = load_builtin("bmw-orth-3")
        sym = make_algebra(b, "sym", "V")
        dims = sym.poincare(3)
        assert dims[:2] == [1, 3]
        assert all(d >= 0 for d in dims)


class TestFreeQuotient:
    def test_free_dims(self):
        alg = GradedQuotient(2, [])
        assert alg.poincare(3) == [1, 2, 4, 8]

    def test_free_normal_form_is_identity(self):
        alg = GradedQuotient(2, [])
        assert alg.normal_form((1, 0, 1)) == {(1, 0, 1): ONE}
