#!/usr/bin/env python3
"""Regenerate the braiding tables shipped in src/qfock/tables/.

The standard Hecke tables come straight from the constructor.  The BMW
tables implement the standard orthogonal/symplectic quantum-group R-matrix
in the vector representation: diagonal q / q^{-1} weights on the index
pairs, the (q - q^{-1}) exchange correction below the diagonal, and the
rank-one correction coupling mirrored index pairs through the grading
exponents rho.  For odd orthogonal N the usual half-integer rho are
integerized by an orbit-constant diagonal change of basis, which touches
no property the load-time suite checks.

Every table is validated by the full load suite before it is written.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qfock.braidings import (  # noqa: E402
    BMW,
    Braiding,
    braiding_to_table,
    expected_mu,
    load_braiding_table,
    make_standard_hecke,
)
from qfock.scalars import ONE, Q, QINV, Scalar  # noqa: E402
from qfock.tensorops import LinOperator, enc_index  # noqa: E402

TABLE_DIR = Path(__file__).resolve().parent.parent / "src" / "qfock" / "tables"


def _rho_eps(N: int, series: str) -> tuple[list[int], list[int]]:
    half = Fraction(N, 2)
    rho: list[Fraction] = []
    eps: list[int] = []
    for i in range(1, N + 1):
        ip = N + 1 - i
        if series == "orthogonal":
            eps.append(1)
            if i < ip:
                rho.append(half - i)
            elif i == ip:
                rho.append(Fraction(0))
            else:
                rho.append(half - i + 1)
        else:
            eps.append(1 if i <= N // 2 else -1)
            rho.append(half - i + 1 if i <= N // 2 else half - i)
    if any(r.denominator != 1 for r in rho):
        # orbit-constant shift clearing half-integer exponents (odd N)
        rho = [r - Fraction(1, 2) if 2 * (i + 1) != N + 1 else r
               for i, r in enumerate(rho)]
    assert all(r.denominator == 1 for r in rho), rho
    return [int(r) for r in rho], eps


def make_bmw(N: int, series: str) -> Braiding:
    """Braiding of BMW type for the orthogonal or symplectic series."""
    rho, eps = _rho_eps(N, series)
    terms = []

    def term(a: int, b: int, c: int, d: int, t: Scalar):
        # t * e_ab (x) e_cd contributes R_{bd}^{ac}; composing with the flip,
        # from the RTT form to the braid form, moves it to row (c, a)
        terms.append((enc_index((c, a), N), enc_index((b, d), N), t))

    def iprime(i: int) -> int:
        return N - 1 - i

    qdiff = Q - QINV
    for i in range(N):
        for j in range(N):
            if i == j and i != iprime(i):
                term(i, i, i, i, Q)
            elif i == j:
                term(i, i, i, i, ONE)
            elif i == iprime(j):
                term(i, i, j, j, QINV)
            else:
                term(i, i, j, j, ONE)
    for i in range(N):
        for j in range(N):
            if i <= j:
                continue
            term(i, j, j, i, qdiff)
            coeff = qdiff * Scalar.q_power(rho[i] - rho[j], eps[i] * eps[j])
            term(i, j, iprime(i), iprime(j), -coeff)
    return Braiding(N, LinOperator.from_terms(terms, N, 2), BMW,
                    series=series, mu=expected_mu(series, N),
                    name=f"bmw-{series}-{N}")


def write_table(b: Braiding, filename: str):
    doc = braiding_to_table(b)
    path = TABLE_DIR / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    reloaded = load_braiding_table(path)
    assert reloaded.R == b.R, f"round trip failed for {filename}"
    assert reloaded.skew.strict, f"{filename} is not strictly skew-invertible"
    print(f"wrote {path.name}: N={b.N} kind={b.kind} series={b.series} "
          f"alpha={reloaded.alpha}")


def main():
    write_table(make_standard_hecke(2), "hecke_n2.json")
    write_table(make_standard_hecke(3), "hecke_n3.json")
    write_table(make_bmw(3, "orthogonal"), "bmw_orthogonal_n3.json")
    write_table(make_bmw(2, "symplectic"), "bmw_symplectic_n2.json")


if __name__ == "__main__":
    main()
