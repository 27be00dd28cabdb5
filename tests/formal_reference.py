"""The formal written-matrix engine that qfock once built the written
L-identity with, kept as the reference for fockdouble.l_identity_sides and
for the T1 and T2 cells of currents._yang_expressions.

A formal matrix holds its nonempty cells {x: {y: {key: Scalar}}}, whose
keys are tuples of symbols standing for their product in that order; its
written product concatenates the keys.  An operator is read as
(M)_x^y = its entry at row y, column x.  The four sides are the formal
products O La R Lb, Lb R La O, O La and La O, formed in that order."""

from itertools import product

from qfock.braidings import exchange_table
from qfock.scalars import ONE, add_term, sum_into
from qfock.tensorops import enc_index


def formal_cell(m, x, y):
    """Cell (x, y) of a formal matrix, empty when absent."""
    return m.get(x, {}).get(y, {})


def formal_pruned(m):
    """m without its empty cells and rows."""
    out = {}
    for x, row in m.items():
        kept = {y: cell for y, cell in row.items() if cell}
        if kept:
            out[x] = kept
    return out


def formal_grid(op):
    """The written matrix of op: cell (x, y) = {(): entry (y, x) of op}."""
    grid = {}
    for r, c, v in op.nonzeros():
        grid.setdefault(c, {})[r] = {(): v}
    return grid


def formal_mul(a, b):
    """Written product of formal matrices, row by row over the nonempty
    cells; keys concatenate and keys whose coefficients cancel drop out."""
    out = {}
    for x, arow in a.items():
        row = {}
        for z, ea in arow.items():
            for y, eb in b.get(z, {}).items():
                acc = row.setdefault(y, {})
                for ka, va in ea.items():
                    for kb, vb in eb.items():
                        add_term(acc, ka + kb, va * vb)
        out[x] = row
    return formal_pruned(out)


def formal_combination(terms):
    """The sum of c * m over the (c, m) in terms, without empty cells."""
    out = {}
    for c, m in terms:
        for x, row in m.items():
            orow = out.setdefault(x, {})
            for y, cell in row.items():
                sum_into(orow.setdefault(y, {}), cell, c)
    return formal_pruned(out)


def formal_l(N, key):
    """The written L1 = L (x) I: cell ((i, a), (j, a)) = {key(i, j): 1}."""
    l1 = {}
    for i, a, j in product(range(N), repeat=3):
        l1.setdefault(enc_index((i, a), N), {})[enc_index((j, a), N)] = {key(i, j): ONE}
    return l1


def l_identity_sides(R, O, La, Lb):
    """The four written sides O La R Lb, Lb R La O, O La and La O."""
    rw, ow = formal_grid(R), formal_grid(O)
    o_la = formal_mul(ow, La)
    return (formal_mul(formal_mul(o_la, rw), Lb),
            formal_mul(formal_mul(formal_mul(Lb, rw), La), ow),
            o_la, formal_mul(La, ow))


def pair_sides(R, O):
    """The four sides with La = Lb = L1 over the pair symbols (i, j)."""
    l1 = formal_l(R.dim, lambda i, j: ((i, j),))
    return l_identity_sides(R, O, l1, l1)


def cell_rows(m, N):
    """The cells of a side over the pair symbols as rows, cell (x, y) at
    row x*N^2 + y: a key of pairs (i, j) is the column e = i*N + j of its
    l_i^j, and a quadratic key the column e1*N^2 + e2 of l_e1 l_e2."""
    n2 = N * N
    return [{enc_index([i * N + j for i, j in key], n2): v
             for key, v in formal_cell(m, x, y).items()}
            for x in range(n2) for y in range(n2)]


def as_cells(m, N):
    """The N^4 cells of a formal matrix as a list, cell (x, y) at x*N^2 + y."""
    n2 = N * N
    return [dict(formal_cell(m, x, y)) for x in range(n2) for y in range(n2)]


def _tagged(mat, dist):
    """Cells {factors: c} of a formal product as {(factors, dist): c}."""
    return {x: {y: {(f, dist): c for f, c in cell.items()} for y, cell in row.items()}
            for x, row in mat.items()}


def yang_expressions(cd):
    """T1 and T2 of the spectral identity as formal matrices, built by
    formal products: T1 = O L1(u) R L1(v) - L1(v) R L1(u) O - (O L1(u) -
    L1(u) O) delta(u-v) with O = R, and T2 the exchange residue."""
    b = cd.cb.base
    N = b.N
    lu, lv = (formal_l(N, lambda i, j, var=var: (("c", i, var), ("a", j, var)))
              for var in "uv")
    sides = l_identity_sides(b.R, b.R, lu, lv)
    quad, lin = (formal_combination(((ONE, s), (-ONE, t)))
                 for s, t in (sides[:2], sides[2:]))
    t1 = formal_combination(((ONE, _tagged(quad, None)), (-ONE, _tagged(lin, "delta"))))

    s = b.q.inverse() * cd.cb.pole()[0]
    moves = exchange_table(b.psi, s, b.B)[0]
    t2 = {}
    for r, c, rv in sorted(b.R.nonzeros(), key=lambda t: t[:2]):
        (w, y2), (z, x2) = divmod(r, N), divmod(c, N)
        for x1, y1 in product(range(N), repeat=2):
            cell = t2.setdefault(enc_index((x1, x2), N), {}).setdefault(
                enc_index((y1, y2), N), {})
            for i, j, sp in moves[(z, w)]:
                coeff = rv * sp
                add_term(cell, ((("c", x1, "u"), ("c", i, "v"),
                                 ("a", j, "u"), ("a", y1, "v")), None), coeff)
                add_term(cell, ((("c", x1, "v"), ("c", i, "u"),
                                 ("a", j, "v"), ("a", y1, "u")), None), -coeff)
    return t1, formal_pruned(t2)
