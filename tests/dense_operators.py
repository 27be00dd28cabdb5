"""Dense list-of-lists operators, the test-side reference for the sparse
LinOperator of qfock.tensorops.  Every function here walks every entry of
a full dim^legs-square grid and shares no code with the operator engine;
`dense` and `from_dense` convert between the two forms."""

import itertools

from qfock.scalars import ONE, ZERO
from qfock.tensorops import LinOperator, dec_index, enc_index

from dense_elimination import dense_row_reduce


def dense(op: LinOperator) -> list:
    """The full entry grid of op, grid[out][in], zeros included."""
    n = op.size
    grid = [[ZERO] * n for _ in range(n)]
    for r, row in enumerate(op.rows):
        for c, v in row.items():
            grid[r][c] = v
    return grid


def from_dense(grid, dim, legs, labels=None, labels_out=None) -> LinOperator:
    return LinOperator.from_terms(
        ((r, c, v) for r, row in enumerate(grid) for c, v in enumerate(row)),
        dim, legs, labels, labels_out)


def dense_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def dense_matmul(a, b):
    """The product a b of grids: every entry of a is scanned, and each
    nonzero a[i][k] adds its multiple of the nonzeros of row k of b."""
    out = [[ZERO] * len(b[0]) for _ in a]
    for arow, orow in zip(a, out):
        for k, x in enumerate(arow):
            if x.is_zero():
                continue
            for j, y in enumerate(b[k]):
                if not y.is_zero():
                    orow[j] = orow[j] + x * y
    return out


def dense_add(a, b, sign=ONE):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(a, s):
    return [[s * x for x in row] for row in a]


def dense_place(grid, dim, i, total):
    """A two-leg grid at legs (i, i+1), 1-based, of a total-leg space, by
    comparing the multi-indices of every pair of basis vectors."""
    size = dim ** total
    out = [[ZERO] * size for _ in range(size)]
    for r in range(size):
        ro = dec_index(r, dim, total)
        for c in range(size):
            co = dec_index(c, dim, total)
            if all(ro[t] == co[t] for t in range(total) if t not in (i - 1, i)):
                out[r][c] = grid[enc_index(ro[i - 1:i + 1], dim)][
                    enc_index(co[i - 1:i + 1], dim)]
    return out


def dense_partial_trace(grid, dim, legs, traced):
    """Contract the 1-based legs in `traced`; all of them gives a Scalar."""
    keep = [t for t in range(legs) if t + 1 not in traced]
    gone = [t for t in range(legs) if t + 1 in traced]

    def full(kept, diag):
        idx = [0] * legs
        for t, v in zip(keep, kept):
            idx[t] = v
        for t, v in zip(gone, diag):
            idx[t] = v
        return enc_index(idx, dim)

    diags = list(itertools.product(range(dim), repeat=len(gone)))
    kept = list(itertools.product(range(dim), repeat=len(keep)))
    out = []
    for ko in kept:
        row = []
        for ki in kept:
            acc = ZERO
            for d in diags:
                acc = acc + grid[full(ko, d)][full(ki, d)]
            row.append(acc)
        out.append(row)
    return out[0][0] if not keep else out


def dense_inverse(grid):
    """The inverse by Gauss-Jordan on [grid | I], or None when singular."""
    n = len(grid)
    aug = [list(row) + [ONE if c == r else ZERO for c in range(n)]
           for r, row in enumerate(grid)]
    red = dense_row_reduce(aug)
    if red.pivots != list(range(n)):
        return None
    return [row[n:] for row in red.rows]
