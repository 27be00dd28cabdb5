"""The whole-matrix Jacobi check that qfock.fockdouble._jacobi_holds
replaced, kept as its reference.

It formed both sides of the Jacobi identity as N^2 x N^6 matrices on
End(V)^(x)3, by columns, and compared them: every [,] and rhat acted on
two adjacent legs through its nonzero column entries, but all N^6 columns
of a side were held at once.  For an involutive braiding it forms the
cyclic side, where the streamed check reads the Leibniz one for every
kind, so comparing the two checks one form against the other."""

from qfock.braidings import HECKE
from qfock.scalars import ONE, Scalar
from qfock.tensorops import Row, lincomb

MINUS_ONE = Scalar.from_int(-1)


def after_12(x: list[Row], op: list[Row], n2: int) -> list[Row]:
    """x o (op (x) id) for a two-leg op on legs 1, 2 of a three-leg space
    with legs of dimension n2; column r*n2 + c of x is (op output r, leg c)."""
    return [lincomb((v, x[r * n2 + c]) for r, v in col.items())
            for col in op for c in range(n2)]


def after_23(x: list[Row], op: list[Row], n2: int, n_out: int) -> list[Row]:
    """x o (id (x) op) for a two-leg op on legs 2, 3 with n_out output
    indices; column a*n_out + r of x is (leg a, op output r)."""
    return [lincomb((v, x[a * n_out + r]) for r, v in col.items())
            for a in range(n2) for col in op]


def jacobi_sides(bl) -> tuple[list[Row], list[Row]]:
    """Both sides of the Jacobi identity as N^2 x N^6 matrices on
    End(V)^(x)3, by columns.  Hecke form: [,][,]_23 (I - rhat_12) and [,][,]_12;
    involutive form: [,][,]_23 (I + rhat_12 rhat_23 + rhat_23 rhat_12)
    and 0.  The identity holds when the two are equal."""
    n2 = bl.braiding.N ** 2
    n4 = n2 * n2
    br, rh = bl.bracket, bl.rhat
    a = after_23(br, br, n2, n2)
    a12 = after_12(a, rh, n2)
    if bl.braiding.kind == HECKE:
        lhs = [lincomb(((ONE, p), (MINUS_ONE, t))) for p, t in zip(a, a12)]
        rhs = after_12(br, br, n2)
    else:
        cyc = after_23(a12, rh, n2, n4)
        cyc2 = after_12(after_23(a, rh, n2, n4), rh, n2)
        lhs = [lincomb(((ONE, p), (ONE, t), (ONE, u)))
               for p, t, u in zip(a, cyc, cyc2)]
        rhs = [{}] * len(a)
    return lhs, rhs
