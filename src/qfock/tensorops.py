"""Exact linear algebra on tensor-leg-structured operators.

A :class:`LinOperator` acts on a tensor power of an N-dimensional space,
each leg labeled ``"V"`` or ``"V*"``.  Entries use the global index
convention of the package: for a two-leg operator,

    R(x_i (x) x_j) = R_ij^kl  x_k (x) x_l,

and ``rows[out][in]`` holds ``R_ij^kl`` with ``out`` the row multi-index
(k, l) and ``in`` the column multi-index (i, j).  Lower indices are inputs,
upper indices are outputs, multi-indices are encoded row-major with the
first leg most significant.

Everything is exact over Q(q) and sparse, and every matrix has one
format: a list of n sparse rows, ``list[Row]``, each row {column: Scalar}
holding its nonzero entries only, ``{}`` for a zero row.  A
:class:`LinOperator` keeps its ``dim ** legs`` rows so, and so does every
plain matrix that is not a tensor-leg operator (the pairings B and C and
their inverses, the representation matrices, the braided-Lie maps, and
the four written sides of the L-identity, whose row per cell holds the
coefficients of the generator symbols, fockdouble.l_identity_sides); two
matrices are equal exactly when their row lists are.  `mat_mul(a, b)` is
the row-by-row product a b over the nonzeros (Gustavson 1978), and
operator composition is `mat_mul` on the operators' rows; `mat_inv`
solves against identity rows.  A matrix kept by columns is the row list
of its transpose, so for column lists `mat_mul(b, a)` is the column list
of a b.

Every elimination (row reduction, kernel and image, solve, inverse, and
the relation spans of the quotient and current algebras) runs on one
engine on the same rows: they are inserted one at a time into a reduced
row echelon form in which each pivot row leads at its smallest column
(`echelon_insert`, `row_reduce`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import BadPlacement, NotInvertible
from .scalars import ONE, ZERO, Scalar, add_term, sum_into

Row = dict[int, Scalar]                 # {column: nonzero entry}; absent columns are zero


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


class LinOperator:
    """A linear operator on a tensor power of a dim-dimensional space, by
    its dim ** legs sparse rows; equal when all five fields are."""

    def __init__(self, legs: int, dim: int, labels: tuple[str, ...],
                 rows: list[Row], labels_out: tuple[str, ...] = ()):
        if len(labels) != legs:
            raise ValueError("one label per leg required")
        if labels_out and len(labels_out) != legs:
            raise ValueError("one output label per leg required")
        self.legs = legs
        self.dim = dim
        self.labels = labels            # input leg labels
        self.rows = rows
        self.labels_out = labels_out or labels   # output leg labels; () means same

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.legs, self.dim, self.labels, self.rows, self.labels_out) == \
            (other.legs, other.dim, other.labels, other.rows, other.labels_out)

    __hash__ = None   # rows is a mutable list

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
        rows: list[Row] = [{} for _ in range(size)]
        for r, c, v in terms:
            if not (0 <= r < size and 0 <= c < size):
                raise ValueError(f"entry ({r}, {c}) outside a {size}-square operator")
            add_term(rows[r], c, v)
        return LinOperator(legs, dim, labels, rows, out)

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

    def nonzeros(self) -> Iterable[tuple[int, int, Scalar]]:
        """The (row, column, value) of every nonzero entry."""
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                yield r, c, v

    def _like(self, rows: list[Row]) -> "LinOperator":
        return LinOperator(self.legs, self.dim, self.labels, rows, self.labels_out)

    def _combine(self, other: "LinOperator", factor: Scalar) -> "LinOperator":
        """self + factor * other."""
        if (self.legs, self.dim, self.labels, self.labels_out) != \
                (other.legs, other.dim, other.labels, other.labels_out):
            raise ValueError("operators act on different spaces")
        rows = [dict(row) for row in self.rows]
        for out, row in zip(rows, other.rows):
            sum_into(out, row, factor)
        return self._like(rows)

    def __add__(self, other: "LinOperator") -> "LinOperator":
        return self._combine(other, ONE)

    def __sub__(self, other: "LinOperator") -> "LinOperator":
        return self._combine(other, _MINUS_ONE)

    def scale(self, s: Scalar) -> "LinOperator":
        if s.is_zero():
            return self._like([{} for _ in self.rows])
        return self._like([{c: s * v for c, v in row.items()} for row in self.rows])

    def __matmul__(self, other: "LinOperator") -> "LinOperator":
        """Operator composition self o other (other applied first): the
        matrix product of their rows."""
        if (self.legs, self.dim) != (other.legs, other.dim):
            raise ValueError("operators act on different spaces")
        if self.labels != other.labels_out:
            raise ValueError(
                f"cannot compose: input labels {self.labels} do not match "
                f"output labels {other.labels_out}")
        return LinOperator(self.legs, self.dim, other.labels,
                           mat_mul(self.rows, other.rows), self.labels_out)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def inverse(self) -> "LinOperator":
        x = mat_inv(self.rows)
        if x is None:
            raise NotInvertible("operator is singular")
        return LinOperator(self.legs, self.dim, self.labels_out, x, self.labels)


_MINUS_ONE = Scalar.from_int(-1)


def lincomb(terms: Iterable[tuple[Scalar, Row]]) -> Row:
    """The sparse row sum of v * row over the (v, row) in terms."""
    acc: Row = {}
    for v, row in terms:
        sum_into(acc, row, v)
    return acc


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
    rows = [{(high * d2 + c) * low + rest: v for c, v in row.items()}
            for high in range(dim ** (i - 1)) for row in op.rows
            for rest in range(low)]
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
        for code, row in enumerate(op.rows):
            total = total + row.get(code, ZERO)
        return total
    traced = [t - 1 for t in legs]
    rows: list[Row] = [{} for _ in range(dim ** len(keep))]
    for r, c, v in op.nonzeros():
        out = dec_index(r, dim, op.legs)
        inp = dec_index(c, dim, op.legs)
        if all(out[t] == inp[t] for t in traced):
            add_term(rows[enc_index([out[t] for t in keep], dim)],
                     enc_index([inp[t] for t in keep], dim), v)
    labels = tuple(op.labels[t] for t in keep)
    labels_out = tuple(op.labels_out[t] for t in keep)
    return LinOperator(len(keep), dim, labels, rows, labels_out)


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


class Reduced:
    """Reduced row echelon form: unit pivots, eliminated above and below."""

    def __init__(self, pivots: list[int], rows: list[Row], ncols: int):
        self.pivots = pivots        # pivot column of each row, ascending
        self.rows = rows
        self.ncols = ncols

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


class KernelImage:
    def __init__(self, rank: int, kernel_basis: list[Row], image_basis: list[Row]):
        self.rank = rank
        self.kernel_basis = kernel_basis
        self.image_basis = image_basis


def kernel_image(rows: list[Row], ncols: int) -> KernelImage:
    """Exact kernel basis, image basis and rank of a matrix over Q(q),
    given as its sparse rows over `ncols` columns.

    The kernel is the right null space, one sparse vector per free column;
    the image basis consists of the original columns at the pivot
    positions, as sparse {row: entry} vectors.
    """
    red = row_reduce(rows, ncols)
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
    for r, row in enumerate(rows):
        for c, v in row.items():
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
# matrices as lists of sparse rows
# ---------------------------------------------------------------------------

def mat_mul(a: list[Row], b: list[Row]) -> list[Row]:
    """The product a b: row i sums a[i][k] * (row k of b) over the nonzero
    a[i][k]."""
    return [lincomb((v, b[k]) for k, v in row.items()) for row in a]


def mat_inv(a: list[Row]) -> list[Row] | None:
    """The inverse of a square a, or None when a is singular."""
    n = len(a)
    return solve(a, [{i: ONE} for i in range(n)], n)


def mat_transpose(a: list[Row], m: int) -> list[Row]:
    """The m rows of the transpose of a, a matrix over m columns."""
    out: list[Row] = [{} for _ in range(m)]
    for i, row in enumerate(a):
        for j, v in row.items():
            out[j][i] = v
    return out
