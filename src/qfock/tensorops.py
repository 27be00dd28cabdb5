"""Dense exact linear algebra on tensor-leg-structured operators.

A :class:`LinOperator` acts on a tensor power of an N-dimensional space,
each leg labeled ``"V"`` or ``"V*"``.  The entry grid uses the global index
convention of the package: for a two-leg operator,

    R(x_i (x) x_j) = R_ij^kl  x_k (x) x_l,

and ``entries[out][in]`` holds ``R_ij^kl`` with ``out`` the row multi-index
(k, l) and ``in`` the column multi-index (i, j).  Lower indices are inputs,
upper indices are outputs, multi-indices are encoded row-major with the
first leg most significant.

Everything is exact over Q(q); the row-reduction engine keeps entries
gcd-canonical at every elimination step to control coefficient growth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BadPlacement, NotInvertible
from .scalars import ONE, ZERO, Scalar

Matrix = list[list[Scalar]]


def enc_index(idx: Sequence[int], dim: int) -> int:
    out = 0
    for i in idx:
        out = out * dim + i
    return out


def dec_index(code: int, dim: int, legs: int) -> tuple[int, ...]:
    out = [0] * legs
    for t in range(legs - 1, -1, -1):
        out[t] = code % dim
        code //= dim
    return tuple(out)


@dataclass(frozen=True)
class LinOperator:
    legs: int
    dim: int
    labels: tuple[str, ...]                  # input leg labels
    entries: tuple[tuple[Scalar, ...], ...]
    labels_out: tuple[str, ...] = ()         # output leg labels; () means same

    def __post_init__(self):
        size = self.dim ** self.legs
        if len(self.labels) != self.legs:
            raise ValueError("one label per leg required")
        if not self.labels_out:
            object.__setattr__(self, "labels_out", self.labels)
        elif len(self.labels_out) != self.legs:
            raise ValueError("one output label per leg required")
        if len(self.entries) != size or any(len(r) != size for r in self.entries):
            raise ValueError("entry grid must be dim^legs square")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Scalar]], dim: int, legs: int,
                  labels: Sequence[str] | None = None,
                  labels_out: Sequence[str] | None = None) -> "LinOperator":
        labels = tuple(labels) if labels is not None else ("V",) * legs
        out = tuple(labels_out) if labels_out is not None else labels
        return LinOperator(legs, dim, labels, tuple(tuple(r) for r in rows), out)

    @staticmethod
    def identity(dim: int, legs: int, labels: Sequence[str] | None = None) -> "LinOperator":
        size = dim ** legs
        rows = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
        return LinOperator.from_rows(rows, dim, legs, labels)

    @staticmethod
    def flip(dim: int) -> "LinOperator":
        """The permutation P(x_i (x) x_j) = x_j (x) x_i."""
        size = dim * dim
        rows = [[ZERO] * size for _ in range(size)]
        for i in range(dim):
            for j in range(dim):
                rows[enc_index((j, i), dim)][enc_index((i, j), dim)] = ONE
        return LinOperator.from_rows(rows, dim, 2)

    # -- basic algebra ----------------------------------------------------

    @property
    def size(self) -> int:
        return self.dim ** self.legs

    def entry(self, out: Sequence[int], inp: Sequence[int]) -> Scalar:
        return self.entries[enc_index(out, self.dim)][enc_index(inp, self.dim)]

    def _check_compatible(self, other: "LinOperator"):
        if (self.legs, self.dim, self.labels, self.labels_out) != \
                (other.legs, other.dim, other.labels, other.labels_out):
            raise ValueError("operators act on different spaces")

    def __add__(self, other: "LinOperator") -> "LinOperator":
        self._check_compatible(other)
        rows = [[a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)]
        return LinOperator.from_rows(rows, self.dim, self.legs, self.labels,
                                     self.labels_out)

    def __sub__(self, other: "LinOperator") -> "LinOperator":
        self._check_compatible(other)
        rows = [[a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)]
        return LinOperator.from_rows(rows, self.dim, self.legs, self.labels,
                                     self.labels_out)

    def scale(self, s: Scalar) -> "LinOperator":
        rows = [[s * a for a in r] for r in self.entries]
        return LinOperator.from_rows(rows, self.dim, self.legs, self.labels,
                                     self.labels_out)

    def __matmul__(self, other: "LinOperator") -> "LinOperator":
        """Operator composition self o other (other applied first)."""
        if (self.legs, self.dim) != (other.legs, other.dim):
            raise ValueError("operators act on different spaces")
        if self.labels != other.labels_out:
            raise ValueError(
                f"cannot compose: input labels {self.labels} do not match "
                f"output labels {other.labels_out}")
        n = self.size
        rows = [[ZERO] * n for _ in range(n)]
        bt = other.entries
        for r in range(n):
            ra = self.entries[r]
            acc = rows[r]
            for k in range(n):
                a = ra[k]
                if a.is_zero():
                    continue
                rb = bt[k]
                for c in range(n):
                    b = rb[c]
                    if not b.is_zero():
                        acc[c] = acc[c] + a * b
        return LinOperator.from_rows(rows, self.dim, self.legs, other.labels,
                                     self.labels_out)

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.entries for e in r)

    def inverse(self) -> "LinOperator":
        inv = mat_inv([list(r) for r in self.entries])
        if inv is None:
            raise NotInvertible("operator is singular")
        return LinOperator.from_rows(inv, self.dim, self.legs, self.labels_out,
                                     self.labels)

    def evaluate(self, q0) -> list[list]:
        return [[e.evaluate(q0) for e in row] for row in self.entries]


def place(op: LinOperator, positions: tuple[int, int], total: int,
          labels: Sequence[str] | None = None) -> LinOperator:
    """Embed a two-leg operator at adjacent legs (i, i+1) of a total-leg space.

    Positions are 1-based; the operator acts as the identity elsewhere.
    `labels` gives the input labels of the full space (defaults to V
    everywhere outside the insertion); output labels follow the operator.
    """
    i, j = positions
    if op.legs != 2 or j != i + 1:
        raise BadPlacement("only adjacent two-leg placements are supported")
    if not (1 <= i and j <= total):
        raise BadPlacement(f"positions {positions} out of range for {total} legs")
    dim = op.dim
    if labels is None:
        lab_in = ["V"] * total
        lab_in[i - 1], lab_in[j - 1] = op.labels
    else:
        lab_in = list(labels)
        if (lab_in[i - 1], lab_in[j - 1]) != op.labels:
            raise BadPlacement(
                f"labels at positions {positions} do not match the operator")
    lab_out = list(lab_in)
    lab_out[i - 1], lab_out[j - 1] = op.labels_out
    size = dim ** total
    rows = [[ZERO] * size for _ in range(size)]
    rest = total - 2
    pair_codes = range(dim * dim)
    for out_pair in pair_codes:
        o = dec_index(out_pair, dim, 2)
        for in_pair in pair_codes:
            v = op.entries[out_pair][in_pair]
            if v.is_zero():
                continue
            ii = dec_index(in_pair, dim, 2)
            for other in itertools.product(range(dim), repeat=rest):
                idx_in = list(other[: i - 1]) + list(ii) + list(other[i - 1:])
                idx_out = list(other[: i - 1]) + list(o) + list(other[i - 1:])
                rows[enc_index(idx_out, dim)][enc_index(idx_in, dim)] = v
    return LinOperator.from_rows(rows, dim, total, lab_in, lab_out)


def partial_trace(op: LinOperator, legs: set[int]) -> LinOperator | Scalar:
    """Contract the named (1-based) legs; tracing every leg yields a Scalar."""
    if not legs <= set(range(1, op.legs + 1)):
        raise BadPlacement(f"legs {legs} not within 1..{op.legs}")
    keep = [t for t in range(op.legs) if (t + 1) not in legs]
    dim = op.dim
    if not keep:
        total = ZERO
        for code in range(op.size):
            total = total + op.entries[code][code]
        return total
    traced = sorted(t - 1 for t in legs)
    size = dim ** len(keep)
    rows = [[ZERO] * size for _ in range(size)]
    for out_keep in itertools.product(range(dim), repeat=len(keep)):
        for in_keep in itertools.product(range(dim), repeat=len(keep)):
            acc = ZERO
            for diag in itertools.product(range(dim), repeat=len(traced)):
                idx_out = [0] * op.legs
                idx_in = [0] * op.legs
                for t, v in zip(keep, out_keep):
                    idx_out[t] = v
                for t, v in zip(keep, in_keep):
                    idx_in[t] = v
                for t, v in zip(traced, diag):
                    idx_out[t] = v
                    idx_in[t] = v
                acc = acc + op.entries[enc_index(idx_out, dim)][enc_index(idx_in, dim)]
            if not acc.is_zero():
                rows[enc_index(out_keep, dim)][enc_index(in_keep, dim)] = acc
    labels = tuple(op.labels[t] for t in keep)
    labels_out = tuple(op.labels_out[t] for t in keep)
    return LinOperator.from_rows(rows, dim, len(keep), labels, labels_out)


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

@dataclass
class Reduced:
    """Reduced row-echelon data: unit pivots, eliminated above and below."""
    pivots: list[int]           # pivot column of each row, in row order
    rows: list[list[Scalar]]
    ncols: int

    @property
    def rank(self) -> int:
        return len(self.pivots)


def row_reduce(rows: Iterable[Sequence[Scalar]], ncols: int,
               col_order: Sequence[int] | None = None) -> Reduced:
    """Exact reduced row echelon form, scanning columns in `col_order`.

    Elimination uses field arithmetic with every entry re-canonicalized,
    which bounds coefficient growth the way fraction-free schemes do at
    this scale.
    """
    work = [list(r) for r in rows if any(not e.is_zero() for e in r)]
    order = list(col_order) if col_order is not None else list(range(ncols))
    pivots: list[int] = []
    top = 0
    for c in order:
        sel = None
        for i in range(top, len(work)):
            if not work[i][c].is_zero():
                sel = i
                break
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        piv = work[top][c]
        if not piv.is_one():
            inv = piv.inverse()
            work[top] = [e * inv for e in work[top]]
        prow = work[top]
        # entries where the pivot row is zero stay as they are
        support = [j for j, b in enumerate(prow) if not b.is_zero()]
        for i in range(len(work)):
            if i == top:
                continue
            f = work[i][c]
            if f.is_zero():
                continue
            row = work[i]
            for j in support:
                row[j] = row[j] - f * prow[j]
        pivots.append(c)
        top += 1
        if top == len(work):
            break
    return Reduced(pivots, work[:top], ncols)


@dataclass
class KernelImage:
    rank: int
    pivot_cols: list[int]
    kernel_basis: list[list[Scalar]]
    image_basis: list[list[Scalar]]


def kernel_image(matrix: Sequence[Sequence[Scalar]]) -> KernelImage:
    """Exact kernel basis, image basis and rank of a matrix over Q(q).

    The kernel is the right null space; the image basis consists of the
    original columns at the pivot positions.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return KernelImage(0, [], [], [])
    ncols = len(rows[0])
    red = row_reduce(rows, ncols)
    pivset = set(red.pivots)
    free = [c for c in range(ncols) if c not in pivset]
    kernel = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for prow, pcol in zip(red.rows, red.pivots):
            coeff = prow[f]
            if not coeff.is_zero():
                v[pcol] = -coeff
        kernel.append(v)
    image = [[row[c] for row in matrix] for c in red.pivots]
    return KernelImage(red.rank, list(red.pivots), kernel, image)


# ---------------------------------------------------------------------------
# small dense matrices (plain lists of lists over Scalar)
# ---------------------------------------------------------------------------

def mat_identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0])
    out = [[ZERO] * p for _ in range(n)]
    for i in range(n):
        for k in range(m):
            x = a[i][k]
            if x.is_zero():
                continue
            for j in range(p):
                y = b[k][j]
                if not y.is_zero():
                    out[i][j] = out[i][j] + x * y
    return out


def mat_inv(a: Matrix) -> Matrix | None:
    n = len(a)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(a)]
    red = row_reduce(aug, 2 * n, col_order=list(range(n)))
    if red.rank < n:
        return None
    rows_by_pivot = {p: r for p, r in zip(red.pivots, red.rows)}
    return [rows_by_pivot[i][n:] for i in range(n)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_diagonal(a: Matrix) -> bool:
    return all(a[i][j].is_zero() for i in range(len(a)) for j in range(len(a)) if i != j)


def mat_scalar_multiple_of_identity(a: Matrix) -> Scalar | None:
    """The scalar c with a == c*I, or None if a is not scalar."""
    if not mat_is_diagonal(a):
        return None
    c = a[0][0]
    if any(a[i][i] != c for i in range(len(a))):
        return None
    return c
