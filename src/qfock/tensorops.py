"""Exact linear algebra on tensor-leg-structured operators.

A :class:`LinOperator` acts on a tensor power of an N-dimensional space,
each leg labeled ``"V"`` or ``"V*"``.  Entries use the global index
convention of the package: for a two-leg operator,

    R(x_i (x) x_j) = R_ij^kl  x_k (x) x_l,

and ``rows[out][in]`` holds ``R_ij^kl`` with ``out`` the row multi-index
(k, l) and ``in`` the column multi-index (i, j).  Lower indices are inputs,
upper indices are outputs, multi-indices are encoded row-major with the
first leg most significant.

Everything is exact over Q(q) and sparse.  An operator keeps only its
nonzero entries, as {row: {column: Scalar}} with no empty row, so two
operators are equal exactly when their dicts are; products are formed row
by row over the nonzeros (Gustavson 1978).  Every elimination (row
reduction, kernel and image, solve, inverse, and the relation spans of the
quotient and current algebras) runs on one engine on the same rows:
they are inserted one at a time into a reduced row echelon form in which
each pivot row leads at its smallest column (`echelon_insert`,
`row_reduce`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import BadPlacement, NotInvertible
from .scalars import ONE, ZERO, Scalar, add_term, sum_into

Matrix = list[list[Scalar]]             # the N x N pairing matrices B and C
Row = dict[int, Scalar]                 # {column: nonzero entry}; absent columns are zero
Rows = dict[int, Row]                   # {row: nonzero Row}; absent rows are zero


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
    rows: Rows                               # nonzero entries only
    labels_out: tuple[str, ...] = ()         # output leg labels; () means same

    def __post_init__(self):
        if len(self.labels) != self.legs:
            raise ValueError("one label per leg required")
        if not self.labels_out:
            object.__setattr__(self, "labels_out", self.labels)
        elif len(self.labels_out) != self.legs:
            raise ValueError("one output label per leg required")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, int, Scalar]], dim: int, legs: int,
                   labels: Sequence[str] | None = None,
                   labels_out: Sequence[str] | None = None) -> "LinOperator":
        """The operator summing the (row, column, value) terms, with the
        entries that cancel to zero dropped."""
        labels = tuple(labels) if labels is not None else ("V",) * legs
        out = tuple(labels_out) if labels_out is not None else labels
        size = dim ** legs
        rows: Rows = {}
        for r, c, v in terms:
            if not (0 <= r < size and 0 <= c < size):
                raise ValueError(f"entry ({r}, {c}) outside a {size}-square operator")
            add_term(rows.setdefault(r, {}), c, v)
        return LinOperator(legs, dim, labels, _nonempty(rows), out)

    @staticmethod
    def identity(dim: int, legs: int, labels: Sequence[str] | None = None) -> "LinOperator":
        return LinOperator.from_terms(((c, c, ONE) for c in range(dim ** legs)),
                                      dim, legs, labels)

    @staticmethod
    def flip(dim: int) -> "LinOperator":
        """The permutation P(x_i (x) x_j) = x_j (x) x_i."""
        return LinOperator.from_terms(
            ((j * dim + i, i * dim + j, ONE) for i in range(dim) for j in range(dim)),
            dim, 2)

    # -- basic algebra ----------------------------------------------------

    @property
    def size(self) -> int:
        return self.dim ** self.legs

    def entry(self, out: Sequence[int], inp: Sequence[int]) -> Scalar:
        row = self.rows.get(enc_index(out, self.dim))
        return ZERO if row is None else row.get(enc_index(inp, self.dim), ZERO)

    def nonzeros(self) -> Iterable[tuple[int, int, Scalar]]:
        """The (row, column, value) of every nonzero entry."""
        for r, row in self.rows.items():
            for c, v in row.items():
                yield r, c, v

    def _like(self, rows: Rows) -> "LinOperator":
        return LinOperator(self.legs, self.dim, self.labels, rows, self.labels_out)

    def _combine(self, other: "LinOperator", factor: Scalar) -> "LinOperator":
        """self + factor * other."""
        if (self.legs, self.dim, self.labels, self.labels_out) != \
                (other.legs, other.dim, other.labels, other.labels_out):
            raise ValueError("operators act on different spaces")
        rows = {r: dict(row) for r, row in self.rows.items()}
        for r, row in other.rows.items():
            sum_into(rows.setdefault(r, {}), row, factor)
        return self._like(_nonempty(rows))

    def __add__(self, other: "LinOperator") -> "LinOperator":
        return self._combine(other, ONE)

    def __sub__(self, other: "LinOperator") -> "LinOperator":
        return self._combine(other, _MINUS_ONE)

    def scale(self, s: Scalar) -> "LinOperator":
        if s.is_zero():
            return self._like({})
        return self._like({r: {c: s * v for c, v in row.items()}
                           for r, row in self.rows.items()})

    def __matmul__(self, other: "LinOperator") -> "LinOperator":
        """Operator composition self o other (other applied first), row by
        row: row r of the product sums a * (row k of other) over the
        nonzero a at (r, k) of self."""
        if (self.legs, self.dim) != (other.legs, other.dim):
            raise ValueError("operators act on different spaces")
        if self.labels != other.labels_out:
            raise ValueError(
                f"cannot compose: input labels {self.labels} do not match "
                f"output labels {other.labels_out}")
        rows: Rows = {}
        for r, ra in self.rows.items():
            acc: Row = {}
            for k, a in ra.items():
                rb = other.rows.get(k)
                if rb is not None:
                    sum_into(acc, rb, a)
            if acc:
                rows[r] = acc
        return LinOperator(self.legs, self.dim, other.labels, rows, self.labels_out)

    def is_zero(self) -> bool:
        return not self.rows

    def inverse(self) -> "LinOperator":
        n = self.size
        x = solve([self.rows.get(r, {}) for r in range(n)],
                  [{r: ONE} for r in range(n)], n)
        if x is None:
            raise NotInvertible("operator is singular")
        return LinOperator(self.legs, self.dim, self.labels_out,
                           {r: row for r, row in enumerate(x) if row}, self.labels)


_MINUS_ONE = Scalar.from_int(-1)


def _nonempty(rows: Rows) -> Rows:
    return {r: row for r, row in rows.items() if row}


def place(op: LinOperator, positions: tuple[int, int], total: int,
          labels: Sequence[str] | None = None) -> LinOperator:
    """Embed a two-leg operator at adjacent legs (i, i+1) of a total-leg space.

    Positions are 1-based; the operator acts as the identity elsewhere.
    `labels` gives the input labels of the full space (defaults to V
    everywhere outside the insertion); output labels follow the operator.
    Each nonzero entry of op is copied once per index of the other legs:
    the legs before the pair are the high digits of a code, those after it
    the low ones.
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
    d2 = dim * dim
    low = dim ** (total - j)
    rows: Rows = {}
    for high in range(dim ** (i - 1)):
        for pair, row in op.rows.items():
            for rest in range(low):
                rows[(high * d2 + pair) * low + rest] = {
                    (high * d2 + c) * low + rest: v for c, v in row.items()}
    return LinOperator(total, dim, tuple(lab_in), rows, tuple(lab_out))


def partial_trace(op: LinOperator, legs: set[int]) -> LinOperator | Scalar:
    """Contract the named (1-based) legs; tracing every leg yields a Scalar.
    Only the nonzero entries whose traced indices agree contribute."""
    if not legs <= set(range(1, op.legs + 1)):
        raise BadPlacement(f"legs {legs} not within 1..{op.legs}")
    keep = [t for t in range(op.legs) if (t + 1) not in legs]
    dim = op.dim
    if not keep:
        total = ZERO
        for code, row in op.rows.items():
            total = total + row.get(code, ZERO)
        return total
    traced = [t - 1 for t in legs]
    rows: Rows = {}
    for r, c, v in op.nonzeros():
        out = dec_index(r, dim, op.legs)
        inp = dec_index(c, dim, op.legs)
        if all(out[t] == inp[t] for t in traced):
            add_term(rows.setdefault(enc_index([out[t] for t in keep], dim), {}),
                     enc_index([inp[t] for t in keep], dim), v)
    labels = tuple(op.labels[t] for t in keep)
    labels_out = tuple(op.labels_out[t] for t in keep)
    return LinOperator(len(keep), dim, labels, _nonempty(rows), labels_out)


# ---------------------------------------------------------------------------
# formal written matrices
# ---------------------------------------------------------------------------
# A formal matrix holds its nonempty cells {x: {y: {key: Scalar}}}, whose
# keys are tuples of symbols; its written product concatenates the keys.

FormalMatrix = dict[int, dict[int, dict[tuple, Scalar]]]


def formal_cell(m: FormalMatrix, x: int, y: int) -> dict[tuple, Scalar]:
    """Cell (x, y) of a formal matrix, empty when absent."""
    return m.get(x, {}).get(y, {})


def formal_pruned(m: FormalMatrix) -> FormalMatrix:
    """m without its empty cells and rows."""
    out: FormalMatrix = {}
    for x, row in m.items():
        kept = {y: cell for y, cell in row.items() if cell}
        if kept:
            out[x] = kept
    return out


def formal_grid(op: LinOperator) -> FormalMatrix:
    """The written matrix of op: cell (x, y) = {(): entry (y, x) of op}."""
    grid: FormalMatrix = {}
    for r, c, v in op.nonzeros():
        grid.setdefault(c, {})[r] = {(): v}
    return grid


def formal_mul(a: FormalMatrix, b: FormalMatrix) -> FormalMatrix:
    """Written product of formal matrices, row by row over the nonempty
    cells; keys concatenate and keys whose coefficients cancel drop out."""
    out: FormalMatrix = {}
    for x, arow in a.items():
        row: dict[int, dict[tuple, Scalar]] = {}
        for z, ea in arow.items():
            for y, eb in b.get(z, {}).items():
                acc = row.setdefault(y, {})
                for ka, va in ea.items():
                    for kb, vb in eb.items():
                        add_term(acc, ka + kb, va * vb)
        out[x] = row
    return formal_pruned(out)


# ---------------------------------------------------------------------------
# sparse elimination
# ---------------------------------------------------------------------------

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


@dataclass
class KernelImage:
    rank: int
    kernel_basis: list[Row]
    image_basis: list[Row]


def kernel_image(rows: Mapping[int, Row], ncols: int) -> KernelImage:
    """Exact kernel basis, image basis and rank of a matrix over Q(q),
    given as its nonzero rows {row: {column: entry}} over `ncols` columns.

    The kernel is the right null space, one sparse vector per free column;
    the image basis consists of the original columns at the pivot
    positions, as sparse {row: entry} vectors.
    """
    red = row_reduce(rows.values(), ncols)
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
    image: dict[int, Row] = {c: {} for c in red.pivots}
    for r in sorted(rows):
        for c, v in rows[r].items():
            if c in image:
                image[c][r] = v
    return KernelImage(red.rank, kernel, list(image.values()))


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
# the N x N pairing matrices B, C and their inverses (lists of lists)
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
    x = solve([{c: e for c, e in enumerate(r) if not e.is_zero()} for r in a],
              [{i: ONE} for i in range(n)], n)
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
