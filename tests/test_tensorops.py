import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.errors import BadPlacement
from qfock.scalars import ONE, Q, QINV, ZERO, Scalar
from qfock.tensorops import (
    LinOperator,
    enc_index,
    kernel_image,
    mat_inv,
    mat_mul,
    partial_trace,
    place,
    row_reduce,
    solve,
)

from dense_elimination import dense_row_reduce


def sc(n):
    return Scalar.from_int(n)


@st.composite
def small_operators(draw, dim=2, legs=1):
    size = dim ** legs
    vals = draw(st.lists(st.integers(-3, 3), min_size=size * size, max_size=size * size))
    rows = [[sc(vals[i * size + j]) for j in range(size)] for i in range(size)]
    return LinOperator.from_rows(rows, dim, legs)


class TestPlace:
    def test_place_two_legs_is_identity_embedding(self):
        p = LinOperator.flip(2)
        assert place(p, (1, 2), 2) == p

    def test_place_identity(self):
        ident = LinOperator.identity(3, 2)
        assert place(ident, (2, 3), 3) == LinOperator.identity(3, 3)

    def test_flip_braid_relation(self):
        p = LinOperator.flip(2)
        p12 = place(p, (1, 2), 3)
        p23 = place(p, (2, 3), 3)
        assert p12 @ p23 @ p12 == p23 @ p12 @ p23

    def test_bad_placement(self):
        p = LinOperator.flip(2)
        with pytest.raises(BadPlacement):
            place(p, (3, 4), 3)
        with pytest.raises(BadPlacement):
            place(p, (0, 1), 3)

    @given(small_operators(), small_operators())
    @settings(max_examples=30)
    def test_place_respects_composition(self, a, b):
        # promote to 2-leg ops acting on leg pair (2,3) of 3 legs
        dim = 2
        rows_a = [[ZERO] * 4 for _ in range(4)]
        rows_b = [[ZERO] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        if j == l:
                            rows_a[enc_index((i, j), dim)][enc_index((k, l), dim)] = a.entries[i][k]
                            rows_b[enc_index((i, j), dim)][enc_index((k, l), dim)] = b.entries[i][k]
        A = LinOperator.from_rows(rows_a, dim, 2)
        B = LinOperator.from_rows(rows_b, dim, 2)
        assert place(A @ B, (2, 3), 4) == place(A, (2, 3), 4) @ place(B, (2, 3), 4)


class TestPartialTrace:
    def test_full_trace_of_flip(self):
        p = LinOperator.flip(3)
        assert partial_trace(p, {1, 2}) == sc(3)

    def test_trace_of_identity_leg(self):
        ident = LinOperator.identity(2, 2)
        t = partial_trace(ident, {2})
        assert t == LinOperator.identity(2, 1).scale(sc(2))

    def test_cyclicity(self):
        a = LinOperator.from_rows([[Q, ONE], [ZERO, QINV]], 2, 1)
        b = LinOperator.from_rows([[ONE, Q], [Q, ONE]], 2, 1)
        assert partial_trace(a @ b, {1}) == partial_trace(b @ a, {1})

    @given(small_operators(legs=2))
    @settings(max_examples=25)
    def test_linearity(self, op):
        doubled = op + op
        t1 = partial_trace(op, {2})
        t2 = partial_trace(doubled, {2})
        assert t1 + t1 == t2


class TestKernelImage:
    def test_identity_has_no_kernel(self):
        m = [[ONE, ZERO, ZERO, ZERO],
             [ZERO, ONE, ZERO, ZERO],
             [ZERO, ZERO, ONE, ZERO],
             [ZERO, ZERO, ZERO, ONE]]
        ki = kernel_image(m)
        assert ki.rank == 4 and not ki.kernel_basis

    def test_flip_symmetric_split(self):
        # kernel of (I - P) on N=2 is the antisymmetric line
        p = LinOperator.flip(2)
        ident = LinOperator.identity(2, 2)
        m = [list(r) for r in (ident - p).entries]
        ki = kernel_image(m)
        assert ki.rank == 1
        assert len(ki.kernel_basis) == 3

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=2, max_size=5))
    @settings(max_examples=40)
    def test_kernel_vectors_annihilate(self, raw):
        m = [[sc(v) for v in row] for row in raw]
        ki = kernel_image(m)
        assert ki.rank + len(ki.kernel_basis) == 4
        for v in ki.kernel_basis:
            for row in m:
                acc = ZERO
                for c, x in v.items():
                    acc = acc + row[c] * x
                assert acc.is_zero()

    def test_rank_plus_nullity(self):
        m = [[ONE, Q], [Q, Q * Q]]
        ki = kernel_image(m)
        assert ki.rank == 1
        assert len(ki.kernel_basis) == 1
        assert ki.image_basis == [{0: ONE, 1: Q}]


class TestMatHelpers:
    def test_inverse(self):
        a = [[Q, ONE], [ZERO, QINV]]
        inv = mat_inv(a)
        assert mat_mul(a, inv) == [[ONE, ZERO], [ZERO, ONE]]

    def test_singular(self):
        assert mat_inv([[ONE, ONE], [ONE, ONE]]) is None

    @given(st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -2, 3, "q"]),
                             min_size=5, max_size=5), min_size=1, max_size=6),
           st.permutations(range(5)))
    @settings(max_examples=60)
    def test_row_reduce_matches_dense_elimination(self, raw, order):
        dense = [[Q if v == "q" else sc(v) for v in row] for row in raw]
        ref = dense_row_reduce(dense, order)

        def relabeled(row):
            # column order[k] becomes column k: the engine's smallest-first
            # pivot choice then follows the dense scan order
            return {k: row[c] for k, c in enumerate(order) if not row[c].is_zero()}

        rows = [relabeled(r) for r in dense]
        before = [dict(r) for r in rows]
        red = row_reduce(rows, 5)
        assert red.pivots == [order.index(c) for c in ref.pivots]
        assert red.rows == [relabeled(r) for r in ref.rows]
        assert rows == before

    def test_row_reduce_col_order(self):
        # pivot on the last column first by numbering columns in descending order
        rows = [{1 - c: e for c, e in enumerate([ONE, Q])}]
        red = row_reduce(rows, 2)
        assert red.pivots == [0]
        assert red.rows == [{0: ONE, 1: QINV}]

    @given(st.data())
    @settings(max_examples=60)
    def test_solve_matches_dense_rank(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 3))
        entry = st.sampled_from([0, 0, 1, -2, 3, "q"])

        def matrix(width):
            return [[Q if v == "q" else sc(v)
                     for v in data.draw(st.lists(entry, min_size=width, max_size=width))]
                    for _ in range(n)]

        def sparse(rows):
            return [{c: e for c, e in enumerate(r) if not e.is_zero()} for r in rows]

        a, b = matrix(n), matrix(m)
        x = solve(sparse(a), sparse(b), m)
        assert (x is None) == (dense_row_reduce(a).rank < n)
        if x is not None:
            assert all(not e.is_zero() and 0 <= c < m for row in x for c, e in row.items())
            assert mat_mul(a, [[row.get(c, ZERO) for c in range(m)] for row in x]) == b
