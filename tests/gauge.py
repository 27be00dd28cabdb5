"""Changes of basis of V for braidings: R -> (g (x) g) R (g (x) g)^-1.

Every gating identity that qfock checks is covariant under such a change,
so a conjugated braiding must get the same verdicts as the original.  The
changes used here are integer and unipotent, up to one permutation:
`upper` is I + E_01, `lower` is I + 2 E_{N-1,0}, and `permuted` is the
cyclic shift e_i -> e_{i+1} composed with `upper`.

`twisted` is not a change of basis but a second Hecke family whose R is
not symmetric: the standard Hecke braiding with each e_i (x) e_j -> e_j (x) e_i
entry scaled by p_ij = i + j + 2 for i < j and by p_ji = 1 / p_ij.

Run as a script, it writes the table document of the standard Hecke
braiding at N, conjugated by `upper` or, when the third argument is
`twisted`, twisted:

    PYTHONPATH=src python tests/gauge.py 3 gauged-hecke-3.json
    PYTHONPATH=src python tests/gauge.py 3 twisted-hecke-3.json twisted
"""

import json
import sys
from fractions import Fraction

from qfock.braidings import Braiding, braiding_to_table, make_standard_hecke
from qfock.scalars import Scalar
from qfock.tensorops import LinOperator, enc_index

Matrix = dict[tuple[int, int], int]     # nonzero integer entries g[row, col]


def upper(N: int) -> Matrix:
    return {**{(i, i): 1 for i in range(N)}, (0, 1): 1}


def lower(N: int) -> Matrix:
    return {**{(i, i): 1 for i in range(N)}, (N - 1, 0): 2}


def permuted(N: int) -> Matrix:
    return {((r + 1) % N, c): v for (r, c), v in upper(N).items()}


GAUGES = {"upper": upper, "lower": lower, "permuted": permuted}


def conjugated(b: Braiding, g: Matrix, tag: str = "gauged") -> Braiding:
    """b with R replaced by (g (x) g) R (g (x) g)^-1; kind, series and q,
    and so mu, are kept."""
    N = b.N
    gg = LinOperator.from_terms(
        ((enc_index((a, b2), N), enc_index((c, d), N), Scalar.from_int(v * w))
         for (a, c), v in g.items() for (b2, d), w in g.items()), N, 2)
    r = gg @ b.R @ gg.inverse()
    return Braiding(r, b.kind, series=b.series, q=b.q, name=f"{b.name} {tag}")


def twisted(b: Braiding) -> Braiding:
    """b with each e_i (x) e_j -> e_j (x) e_i entry, i != j, scaled by
    p_ij = i + j + 2 (i < j) or 1 / p_ji (i > j); kind, series and q, and
    so mu, are kept."""
    N = b.N

    def scaled(r: int, c: int, v: Scalar) -> Scalar:
        (k, l), (i, j) = divmod(r, N), divmod(c, N)
        if (k, l) != (j, i) or i == j:
            return v
        p = Fraction(i + j + 2)
        return v * Scalar.from_fraction(p if i < j else 1 / p)

    r = LinOperator.from_terms(((r, c, scaled(r, c, v)) for r, c, v in b.R.nonzeros()),
                               N, 2)
    return Braiding(r, b.kind, series=b.series, q=b.q, name=f"{b.name} twisted")


def main(argv: list[str]) -> int:
    n, out = int(argv[0]), argv[1]
    hecke = make_standard_hecke(n)
    b = twisted(hecke) if argv[2:] == ["twisted"] else conjugated(hecke, upper(n), "upper")
    issues = b.validate()
    if issues:
        raise AssertionError(f"{b.name} fails validation: {issues}")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(braiding_to_table(b), fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
