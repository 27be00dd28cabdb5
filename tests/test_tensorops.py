import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.errors import BadPlacement, NotInvertible
from qfock.scalars import ONE, Q, QINV, ZERO, Scalar
from qfock.tensorops import (
    LinOperator,
    enc_index,
    kernel_image,
    mat_inv,
    mat_mul,
    mat_transpose,
    partial_trace,
    place,
    row_reduce,
    solve,
)

from dense_elimination import dense_row_reduce
from dense_operators import (
    dense,
    dense_add,
    dense_inverse,
    dense_matmul,
    dense_partial_trace,
    dense_place,
    dense_scale,
    from_dense,
)


def sc(n):
    return Scalar.from_int(n)


@st.composite
def small_operators(draw, dim=2, legs=1):
    size = dim ** legs
    vals = draw(st.lists(st.integers(-3, 3), min_size=size * size, max_size=size * size))
    rows = [[sc(vals[i * size + j]) for j in range(size)] for i in range(size)]
    return from_dense(rows, dim, legs)


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
        a, b = dense(a), dense(b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        if j == l:
                            rows_a[enc_index((i, j), dim)][enc_index((k, l), dim)] = a[i][k]
                            rows_b[enc_index((i, j), dim)][enc_index((k, l), dim)] = b[i][k]
        A = from_dense(rows_a, dim, 2)
        B = from_dense(rows_b, dim, 2)
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
        a = from_dense([[Q, ONE], [ZERO, QINV]], 2, 1)
        b = from_dense([[ONE, Q], [Q, ONE]], 2, 1)
        assert partial_trace(a @ b, {1}) == partial_trace(b @ a, {1})

    @given(small_operators(legs=2))
    @settings(max_examples=25)
    def test_linearity(self, op):
        doubled = op + op
        t1 = partial_trace(op, {2})
        t2 = partial_trace(doubled, {2})
        assert t1 + t1 == t2


def sparse_rows(m):
    return [{c: e for c, e in enumerate(row) if not e.is_zero()} for row in m]


class TestKernelImage:
    def test_identity_has_no_kernel(self):
        m = [[ONE, ZERO, ZERO, ZERO],
             [ZERO, ONE, ZERO, ZERO],
             [ZERO, ZERO, ONE, ZERO],
             [ZERO, ZERO, ZERO, ONE]]
        ki = kernel_image(sparse_rows(m), 4)
        assert ki.rank == 4 and not ki.kernel_basis

    def test_flip_symmetric_split(self):
        # kernel of (I - P) on N=2 is the antisymmetric line
        p = LinOperator.flip(2)
        ident = LinOperator.identity(2, 2)
        m = dense(ident - p)
        ki = kernel_image(sparse_rows(m), 4)
        assert ki.rank == 1
        assert len(ki.kernel_basis) == 3

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=2, max_size=5))
    @settings(max_examples=40)
    def test_kernel_vectors_annihilate(self, raw):
        m = [[sc(v) for v in row] for row in raw]
        ki = kernel_image(sparse_rows(m), 4)
        assert ki.rank + len(ki.kernel_basis) == 4
        for v in ki.kernel_basis:
            for row in m:
                acc = ZERO
                for c, x in v.items():
                    acc = acc + row[c] * x
                assert acc.is_zero()

    def test_rank_plus_nullity(self):
        m = [[ONE, Q], [Q, Q * Q]]
        ki = kernel_image(sparse_rows(m), 2)
        assert ki.rank == 1
        assert len(ki.kernel_basis) == 1
        assert ki.image_basis == [{0: ONE, 1: Q}]


class TestMatHelpers:
    def test_inverse(self):
        a = [{0: Q, 1: ONE}, {1: QINV}]
        inv = mat_inv(a)
        assert inv == [{0: QINV, 1: -ONE}, {1: Q}]
        assert mat_mul(a, inv) == [{0: ONE}, {1: ONE}]

    def test_singular(self):
        assert mat_inv([{0: ONE, 1: ONE}, {0: ONE, 1: ONE}]) is None

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
            assert dense_matmul(a, [[row.get(c, ZERO) for c in range(m)] for row in x]) == b


@st.composite
def sparse_operators(draw, dim, legs):
    """A random operator whose entries are mostly zero: the rest are small
    integers, q, 1/q or q - 1/q, so that sums and products can cancel."""
    size = dim ** legs
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, "q", "1/q", "q-1/q"])
    named = {"q": Q, "1/q": QINV, "q-1/q": Q - QINV}
    vals = draw(st.lists(entry, min_size=size * size, max_size=size * size))
    grid = [[named[v] if isinstance(v, str) else sc(v)
             for v in vals[r * size:(r + 1) * size]] for r in range(size)]
    return from_dense(grid, dim, legs)


def stores_no_zero(op):
    return len(op.rows) == op.size and not any(
        v.is_zero() for row in op.rows for v in row.values())


class TestSparseMatchesDense:
    """Every operation of the sparse engine equals the dense list-of-lists
    reference of dense_operators, and every result holds one row per basis
    vector and no stored zero entry."""

    @given(st.data(), st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    @settings(max_examples=60, deadline=None)
    def test_algebra(self, data, shape):
        dim, legs = shape
        a = data.draw(sparse_operators(dim, legs))
        b = data.draw(sparse_operators(dim, legs))
        s = data.draw(st.sampled_from([ZERO, ONE, sc(-2), Q, Q - QINV]))
        da, db = dense(a), dense(b)
        cases = [(a @ b, dense_matmul(da, db)),
                 (a + b, dense_add(da, db)),
                 (a - b, dense_add(da, db, sc(-1))),
                 (a - a, dense_add(da, da, sc(-1))),
                 (a.scale(s), dense_scale(da, s))]
        for got, want in cases:
            assert dense(got) == want
            assert stores_no_zero(got)
            assert got.is_zero() == all(v.is_zero() for row in want for v in row)
        for out in itertools.product(range(dim), repeat=legs):
            for inp in itertools.product(range(dim), repeat=legs):
                assert (a.rows[enc_index(out, dim)].get(enc_index(inp, dim), ZERO)
                        == da[enc_index(out, dim)][enc_index(inp, dim)])

    @given(st.data(), st.sampled_from([(2, 3), (2, 4), (3, 3), (3, 4)]))
    @settings(max_examples=30, deadline=None)
    def test_place(self, data, shape):
        dim, total = shape
        op = data.draw(sparse_operators(dim, 2))
        for i in range(1, total):
            got = place(op, (i, i + 1), total)
            assert dense(got) == dense_place(dense(op), dim, i, total)
            assert stores_no_zero(got)

    @given(st.data(), st.sampled_from([(2, 2), (3, 2), (2, 3)]))
    @settings(max_examples=40, deadline=None)
    def test_partial_trace(self, data, shape):
        dim, legs = shape
        op = data.draw(sparse_operators(dim, legs))
        for r in range(1, legs + 1):
            for traced in itertools.combinations(range(1, legs + 1), r):
                got = partial_trace(op, set(traced))
                want = dense_partial_trace(dense(op), dim, legs, set(traced))
                if r == legs:
                    assert got == want
                else:
                    assert dense(got) == want
                    assert stores_no_zero(got)

    @given(st.data(), st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, data, shape):
        dim, legs = shape
        op = data.draw(sparse_operators(dim, legs))
        want = dense_inverse(dense(op))
        if want is None:
            with pytest.raises(NotInvertible):
                op.inverse()
        else:
            got = op.inverse()
            assert dense(got) == want
            assert stores_no_zero(got)
            assert got @ op == LinOperator.identity(dim, legs)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_plain_matrices(self, data):
        n, m, p = (data.draw(st.integers(1, 4)) for _ in range(3))
        entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, "q", "1/q", "q-1/q"])
        named = {"q": Q, "1/q": QINV, "q-1/q": Q - QINV}

        def grid(rows, cols):
            vals = data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
            return [[named[v] if isinstance(v, str) else sc(v)
                     for v in vals[r * cols:(r + 1) * cols]] for r in range(rows)]

        def rows_of(g):
            return [{c: e for c, e in enumerate(row) if not e.is_zero()} for row in g]

        def grid_of(rows, cols):
            return [[row.get(c, ZERO) for c in range(cols)] for row in rows]

        def stores_no_zero_row(rows):
            return not any(v.is_zero() for row in rows for v in row.values())

        a, b, sq = grid(n, m), grid(m, p), grid(n, n)
        got = mat_mul(rows_of(a), rows_of(b))
        assert grid_of(got, p) == dense_matmul(a, b)
        assert stores_no_zero_row(got)
        tr = mat_transpose(rows_of(a), m)
        assert grid_of(tr, n) == [list(col) for col in zip(*a)]
        assert stores_no_zero_row(tr)
        inv, want = mat_inv(rows_of(sq)), dense_inverse(sq)
        assert (inv is None) == (want is None)
        if inv is not None:
            assert grid_of(inv, n) == want
            assert stores_no_zero_row(inv)
