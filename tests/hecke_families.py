"""Hecke symmetries beyond GL_q(N), as test data.

`super_hecke(m, n)` is the GL_q(m|n) braiding (Manin 1989, "Multiparametric
quantum deformation of the general linear supergroup").  Give e_i the
parity p(i) = 1 for i >= m, else 0.  R maps e_i (x) e_i to q e_i (x) e_i when
p(i) = 0 and to -q^-1 e_i (x) e_i when p(i) = 1, and e_i (x) e_j (i != j) to
(-1)^(p(i) p(j)) e_j (x) e_i, plus (q - q^-1) e_i (x) e_j when i > j.  At
q = 1 it is the superflip of (m|n).

`form_braiding(E)` is R = q I + vec(E) vec(E^-1)^T, with vec(E) the vector
of the entries E_ij at the index pair (i, j).  It is Hecke when the sum over
i, j of E_ij (E^-1)_ij is -(q + q^-1), the Temperley-Lieb condition
(Dubois-Violette and Launer 1990; Gurevich 1991, "Algebraic aspects of the
quantum Yang-Baxter equation").  `FORMS` holds a 3x3 and a 4x4 block E.
At q = 1 neither R is a superflip, and their series are those of no super
space: Lambda ends in degree 2 while Sym grows exponentially.

Run as a script, it writes the table document of GL_q(m|n) or of a form
braiding:

    PYTHONPATH=src python tests/hecke_families.py super-hecke 2 1 gl-2-1.json
    PYTHONPATH=src python tests/hecke_families.py form 3 form-3.json
"""

import json
import sys

from qfock.braidings import HECKE, Braiding, braiding_to_table
from qfock.scalars import ONE, Q, QINV, ZERO, Scalar
from qfock.tensorops import LinOperator, Row, enc_index, mat_inv


def super_hecke(m: int, n: int) -> Braiding:
    """GL_q(m|n): e_i is odd for i >= m."""
    N = m + n
    qdiff = Q - QINV
    terms = []
    for i in range(N):
        for j in range(N):
            if i == j:
                terms.append((enc_index((i, i), N), enc_index((i, i), N),
                              -QINV if i >= m else Q))
            else:
                sign = -ONE if i >= m and j >= m else ONE
                terms.append((enc_index((j, i), N), enc_index((i, j), N), sign))
                if i > j:
                    terms.append((enc_index((i, j), N), enc_index((i, j), N), qdiff))
    return Braiding(LinOperator.from_terms(terms, N, 2), HECKE, name=f"super-hecke-{m}|{n}")


def form_braiding(E: list[Row]) -> Braiding:
    """R = q I + vec(E) vec(E^-1)^T for an invertible N x N matrix E given
    as sparse rows."""
    N = len(E)
    inv = mat_inv(E)
    if inv is None:
        raise ValueError("E is singular")
    ident = ((c, c, Q) for c in range(N * N))
    outer = ((enc_index((k, l), N), enc_index((i, j), N), v * w)
             for k, row in enumerate(E) for l, v in row.items()
             for i, inv_row in enumerate(inv) for j, w in inv_row.items())
    return Braiding(LinOperator.from_terms([*ident, *outer], N, 2), HECKE,
                    name=f"form-{N}")


def _rows(grid) -> list[Row]:
    return [{c: v for c, v in enumerate(row) if not v.is_zero()} for row in grid]


_Z, _1 = ZERO, ONE
FORMS = {
    # E = [[0, 1, 0], [0, 0, 1], [1, -(q + q^-1), 0]]
    3: _rows([[_Z, _1, _Z], [_Z, _Z, _1], [_1, -(Q + QINV), _Z]]),
    # E = [[0, 1], [-q, 0]] (+) [[1, 1], [3, 5]]
    4: _rows([[_Z, _1, _Z, _Z], [-Q, _Z, _Z, _Z],
              [_Z, _Z, _1, _1], [_Z, _Z, Scalar.from_int(3), Scalar.from_int(5)]]),
}


FAMILIES = {"super-hecke": super_hecke, "form": lambda size: form_braiding(FORMS[size])}


def main(argv: list[str]) -> int:
    family, *sizes, out = argv
    b = FAMILIES[family](*(int(s) for s in sizes))
    issues = b.validate()
    if issues:
        raise AssertionError(f"{b.name} fails validation: {issues}")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(braiding_to_table(b), fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
