"""Braidings on V (x) V and their derived data.

Constructors cover the flip, the graded super-flip, the standard Hecke
symmetry of GL_q type, and table-loaded BMW symmetries of orthogonal or
symplectic type.  Every constructed braiding self-validates: the braid
relation and the kind-specific minimal polynomial are checked exactly, and
table loading fails hard if the transcription does not pass the suite.

The skew inverse Psi is obtained from the defining contraction

    R_ij^kl Psi_lm^jn = delta_m^k delta_i^n,

which in matrix form says Psi is the inverse of the partial transpose
A[(k,i),(l,j)] = R_ij^kl.  The partial traces B = Tr_1 Psi and C = Tr_2 Psi
drive the dual pairings and, through B*C = alpha*I, the normalization of
the R-trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .errors import (
    InconsistentMu,
    InvalidTable,
    NotInvertible,
    NotSkewInvertible,
    NotStrictlySkewInvertible,
    UnsupportedBase,
)
from .scalars import ONE, Q, QINV, ZERO, Scalar, add_term, sum_into
from .tensorops import (
    LinOperator,
    Matrix,
    enc_index,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_scalar_multiple_of_identity,
    partial_trace,
    place,
)

INVOLUTIVE = "involutive"
HECKE = "hecke"
BMW = "bmw"


@dataclass
class SkewData:
    psi: LinOperator
    B: Matrix
    C: Matrix
    B_inv: Matrix | None
    C_inv: Matrix | None
    alpha: Scalar | None

    @property
    def strict(self) -> bool:
        return self.B_inv is not None and self.C_inv is not None


class Braiding:
    """An exactly validated braiding with cached skew-inverse data."""

    def __init__(self, N: int, R: LinOperator, kind: str,
                 series: str | None = None, mu: Scalar | None = None,
                 q: Scalar | None = None, name: str = ""):
        self.N = N
        self.R = R
        self.kind = kind
        self.series = series
        self.mu = mu
        self.q = q if q is not None else (ONE if kind == INVOLUTIVE else Q)
        self.name = name
        self._skew: SkewData | None = None
        self._projectors: dict[str, LinOperator] | None = None

    # -- cached skew inverse and spectral projectors ---------------------

    @property
    def skew(self) -> SkewData:
        if self._skew is None:
            self._skew = skew_inverse(self)
        return self._skew

    @property
    def spectral_projectors(self) -> dict[str, LinOperator]:
        if self._projectors is None:
            self._projectors = projectors(self)
        return self._projectors

    @property
    def psi(self) -> LinOperator:
        return self.skew.psi

    @property
    def B(self) -> Matrix:
        return self.skew.B

    @property
    def C(self) -> Matrix:
        return self.skew.C

    @property
    def alpha(self) -> Scalar | None:
        return self.skew.alpha

    # -- structural checks ----------------------------------------------

    def braid_ok(self) -> bool:
        r12 = place(self.R, (1, 2), 3)
        r23 = place(self.R, (2, 3), 3)
        return r12 @ r23 @ r12 == r23 @ r12 @ r23

    def kind_polynomial_ok(self) -> bool:
        ident = LinOperator.identity(self.N, 2)
        r = self.R
        if self.kind == INVOLUTIVE:
            return r @ r == ident
        if self.kind == HECKE:
            return ((r - ident.scale(self.q)) @ (r + ident.scale(self.q.inverse()))).is_zero()
        if self.kind == BMW:
            if self.mu is None:
                return False
            p = (r - ident.scale(self.q)) @ (r + ident.scale(self.q.inverse()))
            return (p @ (r - ident.scale(self.mu))).is_zero()
        raise ValueError(f"unknown kind {self.kind!r}")

    def validate(self) -> list[str]:
        """List of violated structural properties (empty when sound)."""
        issues = []
        if not self.braid_ok():
            issues.append("braid relation violated")
        if not self.kind_polynomial_ok():
            issues.append(f"{self.kind} minimal polynomial violated")
        return issues

    def __repr__(self) -> str:
        tag = self.name or self.kind
        return f"Braiding({tag}, N={self.N})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_flip(N: int) -> Braiding:
    if N < 1:
        raise ValueError("N must be at least 1")
    return Braiding(N, LinOperator.flip(N), INVOLUTIVE, name=f"flip-{N}")


def make_superflip(m: int, n: int) -> Braiding:
    """Graded flip on a space with m even and n odd basis directions."""
    N = m + n
    if N < 1:
        raise ValueError("m + n must be at least 1")
    minus = Scalar.from_int(-1)
    terms = ((enc_index((j, i), N), enc_index((i, j), N),
              minus if (i >= m and j >= m) else ONE)
             for i in range(N) for j in range(N))
    b = Braiding(N, LinOperator.from_terms(terms, N, 2), INVOLUTIVE,
                 name=f"superflip-{m}|{n}")
    issues = b.validate()
    if issues:
        raise AssertionError(f"superflip failed self-validation: {issues}")
    return b


def make_standard_hecke(N: int) -> Braiding:
    """The standard GL_q-type Hecke symmetry on an N-dimensional space.

    Acts by q on repeated indices, exchanges distinct indices, and adds the
    (q - q^{-1}) correction on the ordered pairs; at q = 1 it degenerates
    to the flip.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    qdiff = Q - QINV
    terms = []
    for i in range(N):
        for j in range(N):
            if i == j:
                terms.append((enc_index((i, i), N), enc_index((i, i), N), Q))
            else:
                terms.append((enc_index((j, i), N), enc_index((i, j), N), ONE))
                if i > j:
                    terms.append((enc_index((i, j), N), enc_index((i, j), N), qdiff))
    b = Braiding(N, LinOperator.from_terms(terms, N, 2), HECKE, name=f"std-hecke-{N}")
    issues = b.validate()
    if issues:
        raise AssertionError(f"standard Hecke failed self-validation: {issues}")
    return b


def specialize(b: Braiding, q0: Fraction | int) -> Braiding:
    """b at q = q0: R, mu and q evaluated there to constant scalars, so
    that the braid and minimal-polynomial checks run on numbers.  Raises
    NonGenericPoint when q0 is a pole of an entry."""
    def at(s: Scalar) -> Scalar:
        return Scalar.from_fraction(s.evaluate(q0))

    r = LinOperator.from_terms(((o, c, at(v)) for o, c, v in b.R.nonzeros()),
                               b.N, 2, b.R.labels, b.R.labels_out)
    return Braiding(b.N, r, b.kind, b.series, None if b.mu is None else at(b.mu),
                    at(b.q), name=f"{b.name} at q = {q0}")


# ---------------------------------------------------------------------------
# skew inverse
# ---------------------------------------------------------------------------

def _relabeled(op: LinOperator, where, labels=("V", "V"),
               labels_out=None) -> LinOperator:
    """The two-leg operator that holds each nonzero entry of op at
    out (k, l), in (i, j) at the (out pair, in pair) where(k, l, i, j)."""
    N = op.dim

    def terms():
        for r, c, v in op.nonzeros():
            out, inp = where(*divmod(r, N), *divmod(c, N))
            yield enc_index(out, N), enc_index(inp, N), v

    return LinOperator.from_terms(terms(), N, 2, labels, labels_out)


def skew_inverse(b: Braiding) -> SkewData:
    """Solve for Psi, take its partial traces, and extract alpha.

    Raises NotSkewInvertible when the defining linear system is singular.
    The result is verified against the defining contraction before it is
    returned: read back as X[(l,j),(m,n)] = Psi_lm^jn, it must satisfy
    A X = I for the partial transpose A[(k,i),(l,j)] = R_ij^kl.
    """
    N = b.N
    amat = _relabeled(b.R, lambda k, l, i, j: ((k, i), (l, j)))
    try:
        x = amat.inverse()
    except NotInvertible:
        raise NotSkewInvertible("partial transpose of R is singular")
    psi = _relabeled(x, lambda l, j, m, n: ((j, n), (l, m)))
    if amat @ _relabeled(psi, lambda j, n, l, m: ((l, j), (m, n))) != \
            LinOperator.identity(N, 2):
        raise NotSkewInvertible("skew inverse failed verification")

    # B = Tr_1 Psi and C = Tr_2 Psi, as B[i][j] = sum_k Psi_ki^kj
    tr1, tr2 = partial_trace(psi, {1}), partial_trace(psi, {2})
    bmat = [[tr1.entry((j,), (i,)) for j in range(N)] for i in range(N)]
    cmat = [[tr2.entry((j,), (i,)) for j in range(N)] for i in range(N)]
    b_inv = mat_inv(bmat)
    c_inv = mat_inv(cmat)
    alpha = mat_scalar_multiple_of_identity(mat_mul(bmat, cmat))
    return SkewData(psi, bmat, cmat, b_inv, c_inv, alpha)


# ---------------------------------------------------------------------------
# dual extensions and pairings
# ---------------------------------------------------------------------------

@dataclass
class DualExtensions:
    v_vstar: LinOperator    # acts on V (x) V*
    vstar_v: LinOperator    # acts on V* (x) V
    vstar_vstar: LinOperator  # acts on V* (x) V*


def dual_square(op: LinOperator) -> LinOperator:
    """The transport X -> F X^T F of an operator on V (x) V to V* (x) V*,
    F the flip; for R, R(x^i (x) x^j) = R_lk^ji x^k (x) x^l.  The map
    reverses products and fixes I, so it carries every polynomial in R to
    the same polynomial in the transported R."""
    return _relabeled(op, lambda j, i, l, k: ((k, l), (i, j)), ("V*", "V*"))


def extend_to_duals(b: Braiding) -> DualExtensions:
    """The three Lyubashenko extensions of R to mixed and dual squares.

    V (x) V* uses the inverse of R, V* (x) V uses the skew inverse, and
    V* (x) V* is the index-reversed transport of R itself.
    """
    try:
        r_inv = b.R.inverse()
    except NotInvertible:
        raise NotInvertible("braiding is not invertible; duals undefined")
    # R(x_i (x) x^j) = x^k (x) x_l (R^{-1})_ki^lj
    v_vstar = _relabeled(r_inv, lambda l, j, k, i: ((k, l), (i, j)),
                         ("V", "V*"), ("V*", "V"))
    # R(x^i (x) x_j) = x_l (x) x^k Psi_kj^li
    vstar_v = _relabeled(b.psi, lambda l, i, k, j: ((l, k), (i, j)),
                         ("V*", "V"), ("V", "V*"))
    return DualExtensions(v_vstar, vstar_v, dual_square(b.R))


@dataclass
class DualPairings:
    right: Matrix          # <x_i, x^j>_r = delta
    left: Matrix           # <x^j, x_i>_l, row i column j
    tilde_matrix: Matrix   # column j expresses the left-dual x~^j over x^k
    tilde_right: Matrix    # <x_i, x~^j>_r


def dual_pairings(b: Braiding) -> DualPairings:
    """Right and left pairings and the left-dual change of basis.

    The left pairing is computed through the V* (x) V extension (pairing
    after braiding), independently of the partial trace that produced B.
    """
    N = b.N
    skew = b.skew
    if skew.B_inv is None:
        raise NotStrictlySkewInvertible("B is singular")
    ext = extend_to_duals(b)
    left = [[ZERO] * N for _ in range(N)]
    # <x^j, x_i>_l = sum_l <x_l, x^k>_r * coefficient of x_l (x) x^k
    for i in range(N):
        for j in range(N):
            acc = ZERO
            for l in range(N):
                acc = acc + ext.vstar_v.entry((l, l), (j, i))
            left[i][j] = acc
    tilde = [list(row) for row in skew.B_inv]
    return DualPairings(mat_identity(N), left, tilde, [list(r) for r in skew.B_inv])


# ---------------------------------------------------------------------------
# the permutation rule of the doubles
# ---------------------------------------------------------------------------

Moves = dict[tuple[int, int], list[tuple[int, int, Scalar]]]


def exchange_table(psi: LinOperator, s: Scalar,
                   const: Matrix) -> tuple[Moves, dict[tuple[int, int], Scalar]]:
    """The permutation rule  x^l x_k = s Psi_jk^il x_i x^j + const_k^l  in
    solved form, read from the nonzero entries psi (i, l) <- (j, k) of a
    two-leg operator: moves[(l, k)] lists the (i, j, s Psi_jk^il), i outer
    and j inner, and constants[(l, k)] = const[k][l]."""
    N = psi.dim
    moves: Moves = {(l, k): [] for l in range(N) for k in range(N)}
    for r, c, v in psi.nonzeros():
        (i, l), (j, k) = divmod(r, N), divmod(c, N)
        moves[(l, k)].append((i, j, s * v))
    for terms in moves.values():
        terms.sort(key=lambda t: t[:2])
    constants = {(l, k): const[k][l] for l in range(N) for k in range(N)}
    return moves, constants


# ---------------------------------------------------------------------------
# spectral projectors
# ---------------------------------------------------------------------------

def projectors(b: Braiding) -> dict[str, LinOperator]:
    """Complete set of spectral idempotents of the braiding.

    Hecke and involutive braidings decompose as q*P+ - q^{-1}*P-, BMW ones
    carry the extra mu idempotent of the cubic polynomial.
    """
    ident = LinOperator.identity(b.N, 2)
    r = b.R
    q = Q if b.kind == HECKE else (b.q if b.kind == BMW else ONE)
    if b.kind in (HECKE, INVOLUTIVE):
        denom = (q + q.inverse()).inverse()
        plus = (r + ident.scale(q.inverse())).scale(denom)
        minus = (ident.scale(q) - r).scale(denom)
        return {"q": plus, "-1/q": minus}
    if b.kind == BMW:
        mu = b.mu
        if mu is None:
            raise ValueError("BMW braiding lacks its mu eigenvalue")
        qi = q.inverse()
        minus = ((r - ident.scale(q)) @ (r - ident.scale(mu))).scale(
            ((q + qi) * (qi + mu)).inverse())
        plus = ((r + ident.scale(qi)) @ (r - ident.scale(mu))).scale(
            ((q + qi) * (q - mu)).inverse())
        pmu = ((r - ident.scale(q)) @ (r + ident.scale(qi))).scale(
            ((mu - q) * (mu + qi)).inverse())
        return {"q": plus, "-1/q": minus, "mu": pmu}
    raise ValueError(f"unknown kind {b.kind!r}")


def projector_decomposition_ok(b: Braiding) -> bool:
    projs = b.spectral_projectors
    ident = LinOperator.identity(b.N, 2)
    total = None
    for p in projs.values():
        if (p @ p) != p:
            return False
        total = p if total is None else total + p
    if total != ident:
        return False
    for k1, p1 in projs.items():
        for k2, p2 in projs.items():
            if k1 != k2 and not (p1 @ p2).is_zero():
                return False
    q = b.q if b.kind != INVOLUTIVE else ONE
    recon = projs["q"].scale(q) - projs["-1/q"].scale(q.inverse())
    if "mu" in projs:
        recon = recon + projs["mu"].scale(b.mu)
    return recon == b.R


# ---------------------------------------------------------------------------
# Baxterization
# ---------------------------------------------------------------------------

RATIONAL = "rational"
TRIGONOMETRIC = "trigonometric"


Monomial = tuple[int, int, int]      # exponents of u, v, w
Poly = dict[Monomial, Scalar]        # nonzero coefficients
Factor = list[tuple[str | None, Poly]]


def _linear(coeffs: dict[int, Scalar], const: Scalar) -> Poly:
    """sum_t coeffs[t] * (variable t) + const."""
    out: Poly = {}
    for t, c in coeffs.items():
        add_term(out, tuple(int(i == t) for i in range(3)), c)
    add_term(out, (0, 0, 0), const)
    return out


@dataclass
class CurrentBraiding:
    """A spectral-parameter braiding R(u,v) = R - h(u,v)*I with its
    normalizer g(u,v), obtained by Baxterizing a constant braiding."""

    base: Braiding
    flavor: str

    def pole_coeff(self, u: Fraction, v: Fraction) -> Scalar:
        """h(u,v), the coefficient of the identity subtracted from R."""
        if self.flavor == RATIONAL:
            return Scalar.from_fraction(Fraction(1, 1) / (u - v))
        return (Q - QINV) * Scalar.from_fraction(u / (u - v))

    def r_at(self, u: Fraction, v: Fraction) -> LinOperator:
        if u == v:
            raise ZeroDivisionError("R(u,v) has a pole at u = v")
        ident = LinOperator.identity(self.base.N, 2, self.base.R.labels)
        return self.base.R - ident.scale(self.pole_coeff(u, v))

    def g_at(self, u: Fraction, v: Fraction) -> Scalar:
        if self.flavor == RATIONAL:
            return ONE - Scalar.from_fraction(Fraction(1, 1) / (u - v))
        return Q - (Q - QINV) * Scalar.from_fraction(u / (u - v))

    def normalized_at(self, u: Fraction, v: Fraction) -> LinOperator:
        g = self.g_at(u, v)
        if g.is_zero():
            raise ZeroDivisionError("normalizer vanishes at this point")
        return self.r_at(u, v).scale(g.inverse())

    # The cleared (pole-free) forms are affine in the spectral variables,
    #   cleared R(x, y) = (x - y) R - (a x + b) I,
    #   cleared g(x, y) = s (x - y) - (a x + b),
    # with (a, b, s) = (q - 1/q, 0, q) trigonometric and (0, 1, 1) rational.
    # Variables are numbered 0, 1, 2 for u, v, w.
    def _affine(self) -> tuple[Scalar, Scalar, Scalar]:
        if self.flavor == RATIONAL:
            return ZERO, ONE, ONE
        return Q - QINV, ZERO, Q

    def cleared_r_form(self, x: int, y: int, letter: str) -> Factor:
        """The cleared R(x, y) as a factor: `letter` standing for R, with
        its polynomial, and the identity (None) with its polynomial."""
        a, b, _ = self._affine()
        return [(letter, _linear({x: ONE, y: -ONE}, ZERO)),
                (None, _linear({x: -a}, -b))]

    def cleared_g_form(self, x: int, y: int) -> Poly:
        a, b, s = self._affine()
        return _linear({x: s - a, y: -s}, -b)

    # The spectral certificates are pure functions of the braiding; each is
    # computed once and shared by every check that rests on it.  They are
    # exact expansions in u, v, w; the check ids and anchors that report
    # them ("spectral-braid-grid", "(grid certificates)") keep the word
    # "grid" of the evaluation method they replaced, so that reports stay
    # byte-stable.
    @cached_property
    def braid_certificate(self) -> dict:
        return spectral_braid_certificate(self)

    @cached_property
    def unitarity_certificate(self) -> dict:
        return unitarity_certificate(self)


def baxterize(b: Braiding, flavor: str) -> CurrentBraiding:
    """Attach spectral parameters to an involutive or Hecke braiding."""
    if flavor == RATIONAL:
        if b.kind != INVOLUTIVE:
            raise UnsupportedBase("rational Baxterization needs an involutive base")
    elif flavor == TRIGONOMETRIC:
        if b.kind != HECKE:
            raise UnsupportedBase("trigonometric Baxterization needs a Hecke base")
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return CurrentBraiding(b, flavor)


def _expand(factors: list[Factor]) -> dict[tuple[Monomial, tuple[str, ...]], Scalar]:
    """The product of affine factors as {(monomial, word): coefficient},
    a word being the letters picked from the factors, in product order."""
    out = {((0, 0, 0), ()): ONE}
    for factor in factors:
        nxt: dict = {}
        for (mono, word), c in out.items():
            for letter, poly in factor:
                w = word if letter is None else word + (letter,)
                for m, d in poly.items():
                    add_term(nxt, (tuple(i + j for i, j in zip(mono, m)), w), c * d)
        out = nxt
    return out


def _word_identity_failures(lhs: list[Factor], rhs: list[Factor],
                            letters: dict[str, LinOperator],
                            ident: LinOperator) -> list[Monomial]:
    """The monomials whose coefficient in lhs - rhs, a combination of
    words in the letters, is not the zero operator.  Each word product
    that occurs is formed once, from its prefix."""
    diff = _expand(lhs)
    sum_into(diff, _expand(rhs), -ONE)
    ops = {(): ident, **{(l,): op for l, op in letters.items()}}

    def word_op(word: tuple[str, ...]) -> LinOperator:
        if word not in ops:
            ops[word] = word_op(word[:-1]) @ letters[word[-1]]
        return ops[word]

    support: dict[tuple[str, ...], list] = {}
    by_mono: dict[Monomial, dict] = {}
    for (mono, word), c in diff.items():
        by_mono.setdefault(mono, {})[word] = c
        if word not in support:
            support[word] = [((r, col), e) for r, col, e in word_op(word).nonzeros()]
    failures = []
    for mono in sorted(by_mono):
        acc: dict = {}
        for word, c in by_mono[mono].items():
            for cell, e in support[word]:
                add_term(acc, cell, c * e)
        if acc:
            failures.append(mono)
    return failures


def spectral_braid_certificate(cb: CurrentBraiding) -> dict:
    """Certify R12(u,v) R23(u,w) R12(v,w) = R23(v,w) R12(u,w) R23(u,v)
    exactly in Q(q)[u, v, w] (x) End(V^3).

    Both sides are multiplied by (u-v)(u-w)(v-w).  Each cleared factor is
    affine in R, so each side expands into polynomials in u, v, w times
    words of length <= 3 in R12 and R23; the relation holds iff the
    coefficient of every monomial, a combination of those words, is zero.
    """
    lab3 = (cb.base.R.labels[0],) * 3
    letters = {"R12": place(cb.base.R, (1, 2), 3, labels=lab3),
               "R23": place(cb.base.R, (2, 3), 3, labels=lab3)}
    r = cb.cleared_r_form
    u, v, w = 0, 1, 2
    failures = _word_identity_failures(
        [r(u, v, "R12"), r(u, w, "R23"), r(v, w, "R12")],
        [r(v, w, "R23"), r(u, w, "R12"), r(u, v, "R23")],
        letters, LinOperator.identity(cb.base.N, 3, lab3))
    return {"passed": not failures, "failures": failures}


def unitarity_certificate(cb: CurrentBraiding) -> dict:
    """Certify g-normalized involutivity R(u,v)R(v,u) = g(u,v)g(v,u) I
    exactly in Q(q)[u, v] (x) End(V^2), over the words I, R and R^2, and
    spot-check the normalized form at three points."""
    ident = LinOperator.identity(cb.base.N, 2, cb.base.R.labels)
    r, g = cb.cleared_r_form, cb.cleared_g_form   # variables u = 0, v = 1
    failures = _word_identity_failures(
        [r(0, 1, "R"), r(1, 0, "R")], [[(None, g(0, 1))], [(None, g(1, 0))]],
        {"R": cb.base.R}, ident)
    spot = []
    candidates = [(Fraction(a), Fraction(b)) for a, b in
                  ((2, 3), (5, 7), (3, 11), (2, 5), (3, 7), (11, 2))]
    checked = 0
    for u, v in candidates:
        if cb.g_at(u, v).is_zero() or cb.g_at(v, u).is_zero():
            continue  # the rational normalizer vanishes at |u-v| = 1
        if cb.normalized_at(u, v) @ cb.normalized_at(v, u) != ident:
            spot.append((u, v))
        checked += 1
        if checked == 3:
            break
    return {
        "passed": not failures and not spot,
        "failures": failures,
        "spot_failures": spot,
    }


# ---------------------------------------------------------------------------
# table format
# ---------------------------------------------------------------------------

TABLE_FORMAT_VERSION = 1


def braiding_to_table(b: Braiding) -> dict:
    """Serialize a braiding as a table document (1-based indices)."""
    entries = []
    N = b.N
    for code_out in sorted(b.R.rows):
        k, l = divmod(code_out, N)
        row = b.R.rows[code_out]
        for code_in in sorted(row):
            i, j = divmod(code_in, N)
            entries.append({"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1,
                            "value": row[code_in].to_pairs()})
    return {
        "format_version": TABLE_FORMAT_VERSION,
        "N": N,
        "kind": b.kind,
        "series": b.series,
        "mu": b.mu.to_pairs() if b.mu is not None else None,
        "name": b.name,
        "entries": entries,
    }


def expected_mu(series: str, N: int) -> Scalar:
    """Cubic eigenvalue fixed by the series: q^(1-N) orthogonal,
    -q^(-1-N) symplectic."""
    if series == "orthogonal":
        return Scalar.q_power(1 - N)
    if series == "symplectic":
        return Scalar.q_power(-1 - N, -1)
    raise ValueError(f"unknown series {series!r}")


def load_braiding_table(doc: dict | str | Path) -> Braiding:
    """Build a braiding from a table document and run the full check suite.

    The property suite is the transcription oracle: a table that violates
    the braid relation or its declared minimal polynomial is rejected with
    InvalidTable, and a BMW mu not matching its series with InconsistentMu.
    """
    if isinstance(doc, (str, Path)):
        try:
            with open(doc, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise InvalidTable(f"cannot read table file: {exc}")
        except json.JSONDecodeError as exc:
            raise InvalidTable(f"table file is not valid JSON: {exc}")
    try:
        version = doc["format_version"]
        N = int(doc["N"])
        kind = doc["kind"]
        series = doc.get("series")
        raw_entries = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise InvalidTable(f"malformed table document: {exc}")
    if version != TABLE_FORMAT_VERSION:
        raise InvalidTable(f"unsupported format_version {version}")
    if kind not in (INVOLUTIVE, HECKE, BMW):
        raise InvalidTable(f"unknown kind {kind!r}")
    mu = Scalar.from_pairs(doc["mu"]) if doc.get("mu") else None
    if kind == BMW:
        if series not in ("orthogonal", "symplectic"):
            raise InvalidTable("BMW table must declare its series")
        if mu is None:
            raise InconsistentMu("BMW table must declare mu")
        if mu != expected_mu(series, N):
            raise InconsistentMu(
                f"mu {mu!r} does not match the {series} series at N={N}")
    values = {}   # a repeated (i, j, k, l) keeps its last value
    for ent in raw_entries:
        i, j, k, l = (int(ent[key]) - 1 for key in ("i", "j", "k", "l"))
        if not all(0 <= t < N for t in (i, j, k, l)):
            raise InvalidTable(f"index out of range in entry {ent}")
        values[enc_index((k, l), N), enc_index((i, j), N)] = Scalar.from_pairs(ent["value"])
    r = LinOperator.from_terms(((o, c, v) for (o, c), v in values.items()), N, 2)
    b = Braiding(N, r, kind, series=series,
                 mu=mu, name=doc.get("name", "table"))
    issues = b.validate()
    if issues:
        raise InvalidTable("; ".join(issues))
    try:
        b.skew
    except NotSkewInvertible:
        raise InvalidTable("table braiding is not skew-invertible")
    return b


_BUILTIN_TABLES = {
    "std-hecke-2": "hecke_n2.json",
    "std-hecke-3": "hecke_n3.json",
    "bmw-orth-3": "bmw_orthogonal_n3.json",
    "bmw-sympl-2": "bmw_symplectic_n2.json",
}


def builtin_table_path(name: str) -> Path:
    if name not in _BUILTIN_TABLES:
        raise KeyError(f"no builtin table {name!r}; have {sorted(_BUILTIN_TABLES)}")
    return Path(str(resources.files("qfock").joinpath("tables", _BUILTIN_TABLES[name])))


def load_builtin(name: str) -> Braiding:
    return load_braiding_table(builtin_table_path(name))
