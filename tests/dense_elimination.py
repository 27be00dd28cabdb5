"""Dense whole-row Gauss-Jordan elimination, the test-side reference for
the sparse elimination engine of qfock.tensorops.  It shares no code with
the engine: every entry of every other row is updated at each pivot."""

from typing import NamedTuple

from qfock.scalars import Scalar


class DenseReduced(NamedTuple):
    pivots: list[int]            # pivot column of each row, in scan order
    rows: list[list[Scalar]]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def dense_row_reduce(rows, order=None) -> DenseReduced:
    """Reduced row echelon form of dense rows, scanning the columns in
    `order` (left to right by default).  The input rows are not modified."""
    work = [list(r) for r in rows if any(not e.is_zero() for e in r)]
    if order is None:
        order = range(len(work[0]) if work else 0)
    pivots, top = [], 0
    for c in order:
        if top == len(work):
            break
        sel = next((i for i in range(top, len(work)) if not work[i][c].is_zero()), None)
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        inv = work[top][c].inverse()
        work[top] = [e * inv for e in work[top]]
        for i in range(len(work)):
            f = work[i][c]
            if i != top and not f.is_zero():
                work[i] = [a - f * b for a, b in zip(work[i], work[top])]
        pivots.append(c)
        top += 1
    return DenseReduced(pivots, work[:top])
