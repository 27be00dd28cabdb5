"""Exact linear algebra on tensor-leg-structured operators.

A :class:`LinOperator` acts on a tensor power of an N-dimensional space,
each leg labeled ``"V"`` or ``"V*"``.  The entry grid uses the global index
convention of the package: for a two-leg operator,

    R(x_i (x) x_j) = R_ij^kl  x_k (x) x_l,

and ``entries[out][in]`` holds ``R_ij^kl`` with ``out`` the row multi-index
(k, l) and ``in`` the column multi-index (i, j).  Lower indices are inputs,
upper indices are outputs, multi-indices are encoded row-major with the
first leg most significant.

Everything is exact over Q(q).  Operators keep dense entry grids; every
elimination (row reduction, kernel and image, solve, inverse, and the
relation spans of the quotient and current algebras) runs on one sparse
engine: rows are {column: Scalar} dicts, inserted one at a time into a
reduced row echelon form in which each pivot row leads at its smallest
column (`echelon_insert`, `row_reduce`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BadPlacement, NotInvertible
from .scalars import ONE, ZERO, Scalar, add_term, sum_into

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
        inv = mat_inv(self.entries)
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
# formal written matrices
# ---------------------------------------------------------------------------
# A formal matrix is an n x n grid of {key: Scalar} cells whose keys are
# tuples of symbols; its written product concatenates the keys.

def formal_grid(op: LinOperator) -> list:
    """The written grid of op, cell [x][y] = {(): op.entries[y][x]},
    with empty cells at the zero entries."""
    n = op.size
    return [[{(): op.entries[y][x]} if not op.entries[y][x].is_zero() else {}
             for y in range(n)] for x in range(n)]


def formal_mul(a: list, b: list, n: int) -> list:
    """Written product of n x n formal matrices; keys concatenate and
    keys whose coefficients cancel drop out."""
    out = []
    for x in range(n):
        row = []
        for y in range(n):
            acc: dict[tuple, Scalar] = {}
            for z in range(n):
                ea = a[x][z]
                if not ea:
                    continue
                eb = b[z][y]
                if not eb:
                    continue
                for ka, va in ea.items():
                    for kb, vb in eb.items():
                        add_term(acc, ka + kb, va * vb)
            row.append(acc)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# sparse elimination
# ---------------------------------------------------------------------------

Row = dict[int, Scalar]      # {column: nonzero entry}; absent columns are zero


def remainder(vec: Row, rows: dict[int, Row]) -> Row:
    """vec minus vec[p] * row_p for each pivot column p of vec.  The rows
    are reduced (no pivot row has an entry at another pivot column), so
    the result has none at a pivot column."""
    rem = dict(vec)
    for t, f in vec.items():
        row = rows.get(t)
        if row is not None:
            sum_into(rem, row, -f)
    return rem


def echelon_insert(rows: dict[int, Row], row: Row) -> None:
    """Add a sparse row to the pivot rows {pivot col: row} of a reduced
    row echelon form.  Each pivot row has a unit entry at its pivot
    column, its leading column; a nonzero remainder of the new row
    becomes a pivot row at its leading column, cleared from the others.
    The reduced form of a row space is unique, so the result does not
    depend on the order in which rows arrive."""
    rem = remainder(row, rows)
    if not rem:
        return
    c = min(rem)
    inv = rem[c].inverse()
    new = {t: e * inv for t, e in rem.items()}
    for prow in rows.values():
        f = prow.get(c)
        if f is not None:
            sum_into(prow, new, -f)
    rows[c] = new


@dataclass
class Reduced:
    """Reduced row echelon form: unit pivots, eliminated above and below."""
    pivots: list[int]           # pivot column of each row, ascending
    rows: list[Row]
    ncols: int

    @property
    def rank(self) -> int:
        return len(self.pivots)


def row_reduce(rows: Iterable[Row], ncols: int) -> Reduced:
    """Exact reduced row echelon form of sparse rows over `ncols` columns.

    Each row is inserted into the pivot rows reduced so far
    (`echelon_insert`); the smallest column of a row is its leading one,
    so callers choose the pivot preference by how they number columns.
    Rows hold their nonzero entries only; elimination touches only those
    and keeps every entry canonical in Q(q).  The input rows are left
    unmodified.
    """
    pivot_rows: dict[int, Row] = {}
    for row in rows:
        echelon_insert(pivot_rows, row)
    pivots = sorted(pivot_rows)
    return Reduced(pivots, [pivot_rows[p] for p in pivots], ncols)


def _sparse(row: Iterable[Scalar], offset: int = 0) -> Row:
    return {offset + c: e for c, e in enumerate(row) if not e.is_zero()}


@dataclass
class KernelImage:
    rank: int
    kernel_basis: list[Row]
    image_basis: list[Row]


def kernel_image(matrix: Sequence[Sequence[Scalar]]) -> KernelImage:
    """Exact kernel basis, image basis and rank of a matrix over Q(q).

    The kernel is the right null space, one sparse vector per free column;
    the image basis consists of the original columns at the pivot
    positions, as sparse {row: entry} vectors.
    """
    ncols = len(matrix[0]) if matrix else 0
    red = row_reduce([_sparse(r) for r in matrix], ncols)
    pivset = set(red.pivots)
    kernel = []
    for f in range(red.ncols):
        if f in pivset:
            continue
        v = {f: ONE}
        for prow, pcol in zip(red.rows, red.pivots):
            coeff = prow.get(f)
            if coeff is not None:
                v[pcol] = -coeff
        kernel.append(v)
    image = [_sparse(row[c] for row in matrix) for c in red.pivots]
    return KernelImage(red.rank, kernel, image)


def solve(a: list[Row], b: list[Row], m: int) -> list[Row] | None:
    """The x with a x = b for a square a, from one reduction of [a | b]:
    a and b are n sparse rows, b's over m columns, and x comes back as n
    sparse rows; None when a is singular.  The pivots are 0..n-1 exactly
    when a is invertible, and the reduced rows then read [I | x]."""
    n = len(a)
    rows = []
    for ra, rb in zip(a, b):
        row = dict(ra)
        row.update((n + c, e) for c, e in rb.items())
        rows.append(row)
    red = row_reduce(rows, n + m)
    if red.pivots != list(range(n)):
        return None
    return [{c - n: e for c, e in row.items() if c >= n} for row in red.rows]


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
    x = solve([_sparse(r) for r in a], [{i: ONE} for i in range(n)], n)
    if x is None:
        return None
    return [[row.get(c, ZERO) for c in range(n)] for row in x]


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
