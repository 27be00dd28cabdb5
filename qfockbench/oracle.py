"""Checks of qfock's outputs made apart from the program.

Nothing here imports qfock.  A braiding is read from the JSON that
``qfock export`` writes (its table entries and the Psi, B, C matrices as
``num``/``den`` pairs of [exponent, coefficient]) and evaluated at a
rational q0 with ``fractions.Fraction``.  Dimensions are compared with
binomials computed here.  Every function returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from math import comb


def evaluate(pairs: dict, q0: Fraction) -> Fraction:
    num = sum(Fraction(c) * q0 ** e for e, c in pairs["num"])
    den = sum(Fraction(c) * q0 ** e for e, c in pairs["den"])
    if den == 0:
        raise ZeroDivisionError(f"q0 = {q0} is a pole of {pairs}")
    return num / den


def _grid(doc: dict, q0: Fraction) -> list[list[Fraction]]:
    return [[evaluate(v, q0) for v in row] for row in doc["entries"]]


def _apply(r: dict, vec: dict, leg: int) -> dict:
    """Apply R at legs (leg, leg+1), 0-based, to a sparse vector on V^(x)3."""
    out: dict = {}
    for idx, v in vec.items():
        for (k, l), c in r.get((idx[leg], idx[leg + 1]), ()):
            key = idx[:leg] + (k, l) + idx[leg + 2:]
            out[key] = out.get(key, 0) + v * c
    return {k: v for k, v in out.items() if v}


def _apply_shifted(r: dict, vec: dict, shift: Fraction) -> dict:
    """(R - shift I) on a sparse vector on V^(x)2."""
    out = _apply(r, vec, 0)
    for idx, v in vec.items():
        out[idx] = out.get(idx, 0) - shift * v
    return {k: v for k, v in out.items() if v}


def series_mu(series: str, N: int, q0: Fraction) -> Fraction:
    """Cubic eigenvalue of a BMW braiding: q^(1-N) orthogonal,
    -q^(-1-N) symplectic."""
    if series == "orthogonal":
        return q0 ** (1 - N)
    if series == "symplectic":
        return -(q0 ** (-1 - N))
    raise ValueError(f"unknown series {series!r}")


def check_export(doc: dict, q0: Fraction) -> list[str]:
    """Braid relation, minimal polynomial, R Psi = delta delta, B and C."""
    table = doc["table"]
    N = table["N"]
    problems: list[str] = []
    # R_ij^kl as r[(i, j)] = [((k, l), value), ...], 0-based
    r: dict = {}
    for ent in table["entries"]:
        i, j, k, l = (ent[key] - 1 for key in ("i", "j", "k", "l"))
        v = evaluate(ent["value"], q0)
        if v:
            r.setdefault((i, j), []).append(((k, l), v))
    rd = {ij: dict(kl) for ij, kl in r.items()}

    for idx in itertools.product(range(N), repeat=3):
        e = {idx: Fraction(1)}
        lhs = _apply(r, _apply(r, _apply(r, e, 0), 1), 0)
        rhs = _apply(r, _apply(r, _apply(r, e, 1), 0), 1)
        if lhs != rhs:
            problems.append(f"braid relation fails on basis vector {idx}")
            break

    roots = [q0, -1 / q0]
    if table["kind"] == "bmw":
        mu = series_mu(table["series"], N, q0)
        if table["mu"] is None or evaluate(table["mu"], q0) != mu:
            problems.append(f"table mu is not the {table['series']} series value")
        roots.append(mu)
    elif table["kind"] != "hecke":
        problems.append(f"no minimal-polynomial check for kind {table['kind']!r}")
    for idx in itertools.product(range(N), repeat=2):
        w = {idx: Fraction(1)}
        for root in roots:
            w = _apply_shifted(r, w, root)
        if w:
            problems.append(f"minimal polynomial fails on basis vector {idx}")
            break

    # Psi_lm^jn sits at row (j, n), column (l, m)
    psi = _grid(doc["psi"], q0)
    for i, k, m, n in itertools.product(range(N), repeat=4):
        acc = sum(rd.get((i, j), {}).get((k, l), 0) * psi[j * N + n][l * N + m]
                  for j in range(N) for l in range(N))
        if acc != (1 if (m == k and i == n) else 0):
            problems.append(f"R_ij^kl Psi_lm^jn != delta delta at "
                            f"i={i} k={k} m={m} n={n}")
            break
    bmat, cmat = _grid(doc["B"], q0), _grid(doc["C"], q0)
    tr1 = [[sum(psi[t * N + j][t * N + i] for t in range(N)) for j in range(N)]
           for i in range(N)]
    tr2 = [[sum(psi[j * N + t][i * N + t] for t in range(N)) for j in range(N)]
           for i in range(N)]
    if bmat != tr1:
        problems.append("B is not Tr_1 Psi")
    if cmat != tr2:
        problems.append("C is not Tr_2 Psi")
    return problems


def check_report(path: str, expect_fail: bool = False) -> tuple[list[str], dict]:
    """Every gating record passes and exit_status is 0, or, for a known-false
    input, a gating record fails and exit_status is 1."""
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    gating = [c for c in rep["checks"] if c["gating"]]
    failed = [c["check_id"] for c in gating if c["verdict"] != "pass"]
    problems = []
    if expect_fail:
        if rep["exit_status"] != 1 or not failed:
            problems.append(f"known-false input was not refused: {path}")
    else:
        if rep["exit_status"] != 0 or failed or not gating:
            problems.append(f"gating checks did not all pass: {failed}")
    return problems, rep


def _witness(rep: dict, check_id: str) -> str | None:
    for c in rep["checks"]:
        if c["check_id"] == check_id:
            return c["witness"]
    return None


def check_poincare(rep: dict, N: int, kmax: int) -> list[str]:
    """Standard Hecke: dims of S(V), S(V*), Lambda(V), Lambda(V*) are the
    classical binomials C(N+k-1, k) and C(N, k)."""
    problems = []
    for kind, want in (("sym", [comb(N + k - 1, k) for k in range(kmax + 1)]),
                       ("lambda", [comb(N, k) for k in range(kmax + 1)])):
        for space in ("V", "V*"):
            w = _witness(rep, f"poincare-{kind}-{space}")
            got = re.search(r"dims=\[([^\]]*)\]", w or "")
            dims = [int(t) for t in got.group(1).split(",")] if got else None
            if dims != want:
                problems.append(f"poincare-{kind}-{space}: {dims} != {want}")
    return problems


def check_matrix_elements(rep: dict, N: int, window: int, degree: int) -> list[str]:
    """kets * N^4 * (2M+1)^2 with kets = 1 + N(2M+1) + [degree 2] (N(2M+1))^2."""
    singles = N * (2 * window + 1)
    kets = 1 + singles + (singles ** 2 if degree >= 2 else 0)
    want = kets * N ** 4 * (2 * window + 1) ** 2
    w = _witness(rep, "spectral-l-identity") or ""
    got = re.match(r"(\d+) elements", w)
    if not got or int(got.group(1)) != want:
        return [f"spectral-l-identity matrix elements {w[:40]!r} != {want}"]
    return []


def check_repr(path: str, N: int, k: int) -> list[str]:
    """The degree-k component of the bosonic creation algebra has the
    classical dimension C(N+k-1, k); every l[i][j] is square of that size."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    want = comb(N + k - 1, k)
    problems = []
    if len(doc["component_basis"]) != want:
        problems.append(f"repr component dimension {len(doc['component_basis'])}"
                        f" != {want}")
    if len(doc["matrices"]) != N * N or any(
            (m["rows"], m["cols"]) != (want, want) for m in doc["matrices"].values()):
        problems.append("repr matrices are not N^2 squares of the component size")
    if doc["identity_holds"] is not True:
        problems.append("repr reports that the L-identity fails")
    return problems


def perturbed_table(doc: dict, entry: int) -> dict:
    """A copy of a table with one entry's value v replaced by v + 1."""
    doc = json.loads(json.dumps(doc))
    value = doc["entries"][entry]["value"]
    num = {e: c for e, c in value["num"]}
    for e, c in value["den"]:
        num[e] = num.get(e, 0) + c
    value["num"] = [[e, c] for e, c in sorted(num.items()) if c]
    return doc
