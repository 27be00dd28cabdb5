"""Braidings on V (x) V and their derived data.

Constructors cover the flip, the graded super-flip, the standard Hecke
symmetry of GL_q type, and the BMW symmetries of orthogonal or symplectic
type at any admissible N.  Every constructed braiding self-validates: the
braid relation and the minimal polynomial, whose roots must be distinct, are
checked exactly, and table loading fails hard if the transcription does not
pass the suite.

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
from functools import cached_property, reduce
from fractions import Fraction
from importlib import resources
from math import isqrt
from operator import add, matmul, mul
from pathlib import Path

from .errors import (
    DivisionByZero,
    InconsistentMu,
    InvalidArgument,
    InvalidTable,
    MalformedTable,
    NonGenericPoint,
    NotInvertible,
    NotSkewInvertible,
    NotStrictlySkewInvertible,
    UnsupportedBase,
    UnsupportedConstruction,
)
from .scalars import ONE, Q, QINV, ZERO, Scalar, add_term, nonzero_sums, sum_into
from .tensorops import (
    LinOperator,
    Row,
    enc_index,
    mat_inv,
    mat_mul,
    mat_transpose,
    partial_trace,
    place,
)

INVOLUTIVE = "involutive"
HECKE = "hecke"
BMW = "bmw"

SYM = "sym"
LAMBDA = "lambda"


@dataclass
class SkewData:
    """Psi and its partial traces B = Tr_1 Psi and C = Tr_2 Psi, N sparse
    rows each: B[i][j] = sum_k Psi_ki^kj, and likewise C over leg 2."""
    psi: LinOperator
    B: list[Row]
    C: list[Row]
    B_inv: list[Row] | None
    C_inv: list[Row] | None
    alpha: Scalar | None

    @property
    def strict(self) -> bool:
        return self.B_inv is not None and self.C_inv is not None


def default_q(kind: str) -> Scalar:
    """The q of a braiding that names none: ONE if involutive, else q."""
    return ONE if kind == INVOLUTIVE else Q


class Braiding:
    """An exactly validated braiding with cached skew-inverse data."""

    def __init__(self, N: int, R: LinOperator, kind: str,
                 series: str | None = None, q: Scalar | None = None,
                 name: str = ""):
        self.N = N
        self.R = R
        self.kind = kind
        self.series = series
        self.q = q if q is not None else default_q(kind)
        self.name = name

    @cached_property
    def mu(self) -> Scalar | None:
        """The third root of a BMW braiding, fixed by its series at b.q."""
        if self.kind == BMW and self.series in MU_KIND:
            return expected_mu(self.series, self.N, self.q)
        return None

    # -- cached skew inverse and spectral projectors ---------------------

    @cached_property
    def skew(self) -> SkewData:
        return skew_inverse(self)

    @cached_property
    def spectral_projectors(self) -> dict[str, LinOperator]:
        return projectors(self)

    @property
    def psi(self) -> LinOperator:
        return self.skew.psi

    @property
    def B(self) -> list[Row]:
        return self.skew.B

    @property
    def C(self) -> list[Row]:
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
        # every relation space reads b.q, so an involutive braiding is held
        # to (R - q)(R + 1/q) at its own q too; at q = 1 this is R^2 = I
        return root_product(self, eigenvalues(self).values()).is_zero()

    def repeated_roots(self) -> list[str]:
        """Each pair of coinciding roots of the minimal polynomial, without
        whose distinctness the spectral idempotents do not exist."""
        roots = list(eigenvalues(self).items())
        return [f"repeated root {m} = {n} = {x!r} of the {self.kind} minimal polynomial"
                for i, (m, x) in enumerate(roots) for n, y in roots[i + 1:] if x == y]

    def validate(self) -> list[str]:
        """List of violated structural properties (empty when sound): the
        braid relation, the minimal polynomial, and distinct roots."""
        issues = []
        if not self.braid_ok():
            issues.append("braid relation violated")
        if not self.kind_polynomial_ok():
            issues.append(f"{self.kind} minimal polynomial violated")
        return issues + self.repeated_roots()

    def __repr__(self) -> str:
        tag = self.name or self.kind
        return f"Braiding({tag}, N={self.N})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_flip(N: int) -> Braiding:
    if N < 1:
        raise InvalidArgument(f"N = {N}, but flip needs N >= 1")
    return Braiding(N, LinOperator.flip(N), INVOLUTIVE, name=f"flip-{N}")


def make_superflip(m: int, n: int) -> Braiding:
    """Graded flip on a space with m even and n odd basis directions."""
    N = m + n
    if m < 0 or n < 0 or N < 1:
        raise ValueError(f"no superflip at m = {m}, n = {n}: m and n must be "
                         f"at least 0, and m + n at least 1")
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
        raise InvalidArgument(f"N = {N}, but std-hecke needs N >= 2")
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


def _rho_eps(N: int, series: str) -> tuple[list[int], list[int]]:
    """The BMW exponents rho and signs eps by 0-based index (see make_bmw)."""
    h = N // 2
    if series == "symplectic":
        return ([h + 1 - i if i <= h else h - i for i in range(1, N + 1)],
                [1 if i <= h else -1 for i in range(1, N + 1)])
    rho = [h - i if 2 * i < N + 1 else 0 if 2 * i == N + 1 else h + 1 - i
           for i in range(1, N + 1)]
    return rho, [1] * N


def make_bmw(N: int, series: str) -> Braiding:
    """The BMW symmetry of the orthogonal or symplectic series on an
    N-dimensional space (Faddeev, Reshetikhin and Takhtajan 1990): the
    quantum-group R-matrix in the vector representation, composed with
    the flip.  Diagonal weights q on repeated indices (1 on the middle
    index of odd orthogonal N) and q^{-1} on mirrored pairs (i, i' =
    N + 1 - i), the (q - q^{-1}) exchange correction below the diagonal,
    and the rank-one correction coupling mirrored pairs with weight
    eps_i eps_j q^(rho_i - rho_j).  Orthogonal: eps = 1 and rho_i = N/2 - i
    for i < i', 0 for i = i', N/2 - i + 1 for i > i'.  Symplectic (even N):
    eps_i = +1, rho_i = N/2 - i + 1 on the first half; eps_i = -1,
    rho_i = N/2 - i on the second.  For odd orthogonal N the half-integer
    rho off the middle index are lowered by 1/2, an orbit-constant
    diagonal change of basis that touches no checked property.  Raises
    InvalidArgument unless N >= 2, and N is even for the symplectic series.
    """
    if series not in ("orthogonal", "symplectic"):
        raise InvalidArgument(f"unknown series {series!r}")
    if N < 2 or (series == "symplectic" and N % 2):
        raise InvalidArgument(f"N = {N}, but bmw-{series} needs "
                              f"{'an even ' * (series == 'symplectic')}N >= 2")
    rho, eps = _rho_eps(N, series)
    terms = []

    def term(a: int, b: int, c: int, d: int, t: Scalar):
        # t * e_ab (x) e_cd contributes R_{bd}^{ac}; composing with the flip,
        # from the RTT form to the braid form, moves it to row (c, a)
        terms.append((enc_index((c, a), N), enc_index((b, d), N), t))

    qdiff = Q - QINV   # 0-based, the mirror of index i is N - 1 - i
    for i in range(N):
        for j in range(N):
            if i == j:
                term(i, i, i, i, ONE if 2 * i == N - 1 else Q)
            else:
                term(i, i, j, j, QINV if i + j == N - 1 else ONE)
    for i in range(N):
        for j in range(i):
            term(i, j, j, i, qdiff)
            coeff = qdiff * Scalar.q_power(rho[i] - rho[j], eps[i] * eps[j])
            term(i, j, N - 1 - i, N - 1 - j, -coeff)
    b = Braiding(N, LinOperator.from_terms(terms, N, 2), BMW, series=series,
                 name=f"bmw-{series}-{N}")
    issues = b.validate()
    if issues:
        raise AssertionError(f"BMW {series} failed self-validation: {issues}")
    return b


def specialize(b: Braiding, q0: Fraction | int) -> Braiding:
    """b at q = q0: R and q, and so mu, evaluated there to constant scalars,
    so that the braid and minimal-polynomial checks run on numbers.  Raises
    NonGenericPoint when q0 is a pole of an entry."""
    def at(s: Scalar) -> Scalar:
        return Scalar.from_fraction(s.evaluate(q0))

    r = LinOperator.from_terms(((o, c, at(v)) for o, c, v in b.R.nonzeros()),
                               b.N, 2, b.R.labels, b.R.labels_out)
    return Braiding(b.N, r, b.kind, b.series, at(b.q), name=f"{b.name} at q = {q0}")


def superflip_limit(b: Braiding) -> tuple[int, int] | None:
    """The (m, n) of the superflip that R is at q = 1 in some basis of V, or
    None (also when b.q is not 1 there, or q = 1 is a pole).  That superflip
    is F (I - 2 P (x) P), F the flip and P a rank-n idempotent: X = (I - F R)/2
    is P (x) P, tr X = n^2 and P = Tr_2 X / n.  Generic Hecke and BMW algebras
    are semisimple, so Sym and Lambda keep the dimensions of the super space
    (m|n) (Gurevich 1991; Phung Ho Hai 1999)."""
    try:
        at_one = specialize(b, 1)
    except NonGenericPoint:
        return None
    N = b.N
    x = (LinOperator.identity(N, 2) - LinOperator.flip(N) @ at_one.R).scale(
        Scalar.from_fraction(Fraction(1, 2)))
    n2 = partial_trace(x, {1, 2}).evaluate(1)
    n = isqrt(max(int(n2), 0))
    if at_one.q != ONE or n * n != n2:
        return None
    # at n = 0, P = Tr_2 X is an idempotent of trace 0, so X = P (x) P = 0
    p = partial_trace(x, {2}).scale(Scalar.from_fraction(Fraction(1, n or 1))).rows
    square = LinOperator.from_terms(
        ((enc_index((i, j), N), enc_index((k, l), N), v * w)
         for i, pi in enumerate(p) for k, v in pi.items()
         for j, pj in enumerate(p) for l, w in pj.items()), N, 2)
    return (N - n, n) if square == x and mat_mul(p, p) == p else None


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

    # B = Tr_1 Psi and C = Tr_2 Psi, as B[i][j] = sum_k Psi_ki^kj: row i
    # of B is the input column i of the one-leg trace
    bmat, cmat = (mat_transpose(tr.rows, N)
                  for tr in (partial_trace(psi, {1}), partial_trace(psi, {2})))
    return SkewData(psi, bmat, cmat, mat_inv(bmat), mat_inv(cmat),
                    _scalar_multiple(mat_mul(bmat, cmat)))


def _scalar_multiple(a: list[Row]) -> Scalar | None:
    """The c with a = c I, or None when a is not scalar."""
    c = a[0].get(0, ZERO)
    if all(row == ({} if c.is_zero() else {i: c}) for i, row in enumerate(a)):
        return c
    return None


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


def mixed_transport(op: LinOperator) -> LinOperator:
    """The entries of an operator X on V (x) V read as a map V (x) V* ->
    V* (x) V: x_i (x) x^j -> x^k (x) x_l X_ki^lj.  Of R^-1 it is the
    extension of R to V (x) V*, and of R the inverse of the one to V* (x) V."""
    return _relabeled(op, lambda l, j, k, i: ((k, l), (i, j)),
                      ("V", "V*"), ("V*", "V"))


def _vstar_v(b: Braiding) -> LinOperator:
    """The extension of R to V* (x) V: R(x^i (x) x_j) = x_l (x) x^k Psi_kj^li."""
    return _relabeled(b.psi, lambda l, i, k, j: ((l, k), (i, j)),
                      ("V*", "V"), ("V", "V*"))


def extend_to_duals(b: Braiding) -> DualExtensions:
    """The three Lyubashenko extensions of R to mixed and dual squares.

    V (x) V* uses the inverse of R, V* (x) V uses the skew inverse, and
    V* (x) V* is the index-reversed transport of R itself.
    """
    try:
        r_inv = b.R.inverse()
    except NotInvertible:
        raise NotInvertible("braiding is not invertible; duals undefined")
    return DualExtensions(mixed_transport(r_inv), _vstar_v(b), dual_square(b.R))


@dataclass
class DualPairings:
    """The left and tilde pairings, N sparse rows each; the right pairing
    <x_i, x^j>_r = delta is the identity."""
    left: list[Row]                 # <x^j, x_i>_l, row i column j
    tilde_right: list[Row] | None   # <x_i, x~^j>_r; None when left is singular


def dual_pairings(b: Braiding) -> DualPairings:
    """The left pairing and the left-dual basis.

    The left pairing is computed through the V* (x) V extension (pairing
    after braiding), independently of the partial trace that produced B.
    The left-dual basis x~^j = sum_k T_kj x^k is fixed by <x~^j, x_i>_l =
    delta, so T is the inverse of the left pairing, and as the right
    pairing is the identity, T is also the matrix of <x_i, x~^j>_r.
    """
    N = b.N
    if b.skew.B_inv is None:
        raise NotStrictlySkewInvertible("B is singular")
    left: list[Row] = [{} for _ in range(N)]
    # <x^j, x_i>_l = sum_l <x_l, x^k>_r * coefficient of x_l (x) x^k
    for r, c, v in _vstar_v(b).nonzeros():
        (l, k), (j, i) = divmod(r, N), divmod(c, N)
        if l == k:
            add_term(left[i], j, v)
    return DualPairings(left, mat_inv(left))


# ---------------------------------------------------------------------------
# the permutation rule of the doubles
# ---------------------------------------------------------------------------

Moves = dict[tuple[int, int], list[tuple[int, int, Scalar]]]


def exchange_table(psi: LinOperator, s: Scalar,
                   const: list[Row]) -> tuple[Moves, dict[tuple[int, int], Scalar]]:
    """The permutation rule  x^l x_k = s Psi_jk^il x_i x^j + const_k^l  in
    solved form, read from the nonzero entries psi (i, l) <- (j, k) of a
    two-leg operator: moves[(l, k)] lists the (i, j, s Psi_jk^il), i outer
    and j inner, and constants[(l, k)] = const[k][l], const as sparse rows."""
    N = psi.dim
    moves: Moves = {(l, k): [] for l in range(N) for k in range(N)}
    for r, c, v in psi.nonzeros():
        (i, l), (j, k) = divmod(r, N), divmod(c, N)
        moves[(l, k)].append((i, j, s * v))
    for terms in moves.values():
        terms.sort(key=lambda t: t[:2])
    constants = {(l, k): const[k].get(l, ZERO) for l in range(N) for k in range(N)}
    return moves, constants


# ---------------------------------------------------------------------------
# spectral projectors
# ---------------------------------------------------------------------------

def eigenvalues(b: Braiding) -> dict[str, Scalar]:
    """The roots of R's minimal polynomial by name: q and -1/q, and for a
    BMW braiding mu, which its series fixes (Faddeev, Reshetikhin and
    Takhtajan 1990).  q is the braiding's own b.q."""
    if b.kind not in (HECKE, INVOLUTIVE) and b.mu is None:
        raise UnsupportedConstruction(f"no minimal polynomial for a {b.kind} "
                                      f"braiding of series {b.series!r}")
    roots = {"q": b.q, "-1/q": -b.q.inverse()}
    return roots if b.mu is None else {**roots, "mu": b.mu}


def root_product(b: Braiding, roots) -> LinOperator:
    """The product of (R - lambda I) over the roots lambda, which commute."""
    ident = LinOperator.identity(b.N, 2)
    return reduce(matmul, (b.R + ident.scale(-root) for root in roots))


def projectors(b: Braiding) -> dict[str, LinOperator]:
    """The spectral idempotents of R by root (Lagrange): P_lambda is the
    product of (R - mu I)/(lambda - mu) over the other roots mu.  Raises
    DivisionByZero when two roots coincide."""
    roots = eigenvalues(b)
    out = {}
    for name, root in roots.items():
        others = [mu for other, mu in roots.items() if other != name]
        denom = reduce(mul, (root - mu for mu in others))
        out[name] = root_product(b, others).scale(denom.inverse())
    return out


# the algebra kind that keeps the mu eigenspace in degree 2, per BMW series
MU_KIND = {"orthogonal": SYM, "symplectic": LAMBDA}


def relation_operator(b: Braiding, kind: str) -> LinOperator:
    """The operator on V (x) V whose image is the degree-2 relation space of
    the sym or lambda algebra: the product of (R - lambda I) over the
    eigenvalues lambda whose eigenspaces the kind keeps in degree 2.  Sym
    keeps q, lambda keeps -1/q, and for a BMW b (Faddeev, Reshetikhin and
    Takhtajan 1990) the kind MU_KIND names for its series also keeps mu.
    Every entry is Laurent when R and mu are."""
    if kind not in (SYM, LAMBDA):
        raise UnsupportedConstruction(f"unknown algebra kind {kind!r}")
    keep = "q" if kind == SYM else "-1/q"
    return root_product(b, [root for name, root in eigenvalues(b).items()
                            if name == keep or name == "mu" and MU_KIND[b.series] == kind])


def projector_decomposition_ok(b: Braiding) -> bool:
    """Orthogonal idempotents that sum to I and to R when weighted by root."""
    projs = b.spectral_projectors
    roots = eigenvalues(b)
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
    return reduce(add, (p.scale(roots[name]) for name, p in projs.items())) == b.R


# ---------------------------------------------------------------------------
# Baxterization
# ---------------------------------------------------------------------------

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
    normalizer g(u,v), obtained by Baxterizing a constant braiding (Jones
    1990): rationally if it is involutive, trigonometrically if Hecke."""

    base: Braiding

    # R(u,v) = R - h(u,v) I and g(u,v) = s - h(u,v) with the pole
    # h(u,v) = (a u + b)/(u - v), (a, b, s) the constants of _affine.
    def r_at(self, u: Fraction, v: Fraction) -> LinOperator:
        ident = LinOperator.identity(self.base.N, 2, self.base.R.labels)
        return self.base.R - ident.scale(self._affine()[2] - self.g_at(u, v))

    def g_at(self, u: Fraction, v: Fraction) -> Scalar:
        if u == v:
            raise ZeroDivisionError("R(u,v) has a pole at u = v")
        a, b, s = self._affine()
        return s - (a * Scalar.from_fraction(u) + b) * Scalar.from_fraction(1 / (u - v))

    def normalized_at(self, u: Fraction, v: Fraction) -> LinOperator:
        g = self.g_at(u, v)
        if g.is_zero():
            raise ZeroDivisionError("normalizer vanishes at this point")
        return self.r_at(u, v).scale(g.inverse())

    # The cleared (pole-free) forms are affine in the spectral variables,
    #   cleared R(x, y) = (x - y) R - (a x + b) I,
    #   cleared g(x, y) = s (x - y) - (a x + b),
    # with (a, b, s) = (q - 1/q, 0, q) on a Hecke base and (0, 1, 1) on an
    # involutive one.  Variables are numbered 0, 1, 2 for u, v, w.
    def _affine(self) -> tuple[Scalar, Scalar, Scalar]:
        if self.base.kind == INVOLUTIVE:
            return ZERO, ONE, ONE
        q = self.base.q
        return q - q.inverse(), ZERO, q

    def pole(self) -> tuple[Scalar, int]:
        """(c, theta) with h(u,v) = c u^(1-theta) / (u - v), whose expansion
        in |u| > |v| is c sum_{p>=0} v^p u^(-p-theta): (a, 0) trigonometric
        and (b, 1) rational."""
        a, b, _ = self._affine()
        return (b, 1) if self.base.kind == INVOLUTIVE else (a, 0)

    def cleared_r_form(self, x: int, y: int, letter: str) -> Factor:
        """The cleared R(x, y) as a factor: `letter` standing for R, with
        its polynomial, and the identity (None) with its polynomial."""
        a, b, _ = self._affine()
        return [(letter, _linear({x: ONE, y: -ONE}, ZERO)),
                (None, _linear({x: -a}, -b))]

    def cleared_g_form(self, x: int, y: int) -> Poly:
        a, b, s = self._affine()
        return _linear({x: s - a, y: -s}, -b)

    # The spectral certificates are pure functions of the braiding, exact
    # expansions in u, v, w; each is computed once per braiding.
    @cached_property
    def braid_certificate(self) -> list:
        return spectral_braid_certificate(self)

    @cached_property
    def unitarity_certificate(self) -> list:
        return unitarity_certificate(self)


def baxterize(b: Braiding) -> CurrentBraiding:
    """Attach spectral parameters to an involutive or Hecke braiding."""
    if b.kind not in (INVOLUTIVE, HECKE):
        raise UnsupportedBase(f"Baxterization needs an involutive or a Hecke "
                              f"base, not a {b.kind} one")
    return CurrentBraiding(b)


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

    by_mono: dict[Monomial, dict] = {}
    for mono, word in sorted(diff):
        by_mono.setdefault(mono, {})[word] = diff[mono, word]
    return nonzero_sums(by_mono, lambda word: {
        (r, col): e for r, col, e in word_op(word).nonzeros()})


def spectral_braid_certificate(cb: CurrentBraiding) -> list[Monomial]:
    """Certify R12(u,v) R23(u,w) R12(v,w) = R23(v,w) R12(u,w) R23(u,v)
    exactly in Q(q)[u, v, w] (x) End(V^3): the failing monomials.

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
    return _word_identity_failures(
        [r(u, v, "R12"), r(u, w, "R23"), r(v, w, "R12")],
        [r(v, w, "R23"), r(u, w, "R12"), r(u, v, "R23")],
        letters, LinOperator.identity(cb.base.N, 3, lab3))


def unitarity_certificate(cb: CurrentBraiding) -> list:
    """Certify g-normalized involutivity R(u,v)R(v,u) = g(u,v)g(v,u) I
    exactly in Q(q)[u, v] (x) End(V^2), over the words I, R and R^2, and
    spot-check the normalized form at three points: the failing monomials,
    then ("spot", u, v) for each failed point, empty on a pass."""
    ident = LinOperator.identity(cb.base.N, 2, cb.base.R.labels)
    r, g = cb.cleared_r_form, cb.cleared_g_form   # variables u = 0, v = 1
    failures = _word_identity_failures(
        [r(0, 1, "R"), r(1, 0, "R")], [[(None, g(0, 1))], [(None, g(1, 0))]],
        {"R": cb.base.R}, ident)
    candidates = [(Fraction(a), Fraction(b)) for a, b in
                  ((2, 3), (5, 7), (3, 11), (2, 5), (3, 7), (11, 2))]
    checked = 0
    for u, v in candidates:
        if cb.g_at(u, v).is_zero() or cb.g_at(v, u).is_zero():
            continue  # the rational normalizer vanishes at |u-v| = 1
        if cb.normalized_at(u, v) @ cb.normalized_at(v, u) != ident:
            failures.append(("spot", u, v))
        checked += 1
        if checked == 3:
            break
    return failures


# ---------------------------------------------------------------------------
# table format
# ---------------------------------------------------------------------------

TABLE_FORMAT_VERSION = 1


def braiding_to_table(b: Braiding) -> dict:
    """Serialize a braiding as a table document (1-based indices); `q` is
    written only when it is not the kind's default."""
    entries = []
    N = b.N
    for code_out, row in enumerate(b.R.rows):
        k, l = divmod(code_out, N)
        for code_in in sorted(row):
            i, j = divmod(code_in, N)
            entries.append({"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1,
                            "value": row[code_in].to_pairs()})
    doc = {
        "format_version": TABLE_FORMAT_VERSION,
        "N": N,
        "kind": b.kind,
        "series": b.series,
        "mu": b.mu.to_pairs() if b.mu is not None else None,
        "name": b.name,
        "entries": entries,
    }
    if b.q != default_q(b.kind):
        doc["q"] = b.q.to_pairs()
    return doc


def expected_mu(series: str, N: int, q: Scalar = Q) -> Scalar:
    """Cubic eigenvalue fixed by the series at q: q^(1-N) orthogonal,
    -q^(-1-N) symplectic."""
    if series == "orthogonal":
        return q ** (1 - N)
    if series == "symplectic":
        return -(q ** (-1 - N))
    raise ValueError(f"unknown series {series!r}")


# The largest |exponent| of a table scalar (constructors emit at most N + 1).
# Polynomial gcds run on dense coefficient lists: on a 2-vCPU box the N = 2
# Hecke table with every entry over 1 + q^256 is rejected in 0.1 to 0.2 s,
# over 1 + q^1024 in 2.2 s.
TABLE_MAX_EXPONENT = 256

# The largest N of a table, refused before anything is built: validation
# places R on three legs and builds N^2-square identities.  On a 2-vCPU
# Xeon a valid std-hecke table loads in 0.9 s at 67 MB peak RSS at N = 32,
# and in 1.7 s at 115 MB at N = 40.
TABLE_MAX_N = 32


def _table_scalar(pairs, what: str) -> Scalar:
    try:
        terms = [(e, c) for part in ("num", "den") for e, c in pairs[part]]
    except (KeyError, TypeError, ValueError):
        terms = None
    if terms is None or any(type(x) is not int for t in terms for x in t):
        raise MalformedTable(f"{what} is not a num/den document of integer pairs")
    top = max((abs(e) for e, _ in terms), default=0)
    if top > TABLE_MAX_EXPONENT:
        raise MalformedTable(f"{what} has the exponent {top}, above "
                             f"TABLE_MAX_EXPONENT = {TABLE_MAX_EXPONENT}")
    try:
        return Scalar.from_pairs(pairs)
    except DivisionByZero:
        raise MalformedTable(f"{what} has a zero denominator")


def load_braiding_table(doc: dict | str | Path) -> Braiding:
    """Build a braiding from a table document and run the full check suite.

    A document that cannot be read as a table (unreadable, not JSON, a
    field missing or mistyped, an N above TABLE_MAX_N, an index out of
    range, an exponent above TABLE_MAX_EXPONENT, a zero q or denominator)
    raises MalformedTable.  The property suite is the transcription
    oracle: a table that violates the braid relation or its declared
    minimal polynomial, whose roots are not distinct, or whose braiding is
    not skew-invertible, is rejected with InvalidTable, and a BMW mu not
    matching its series with InconsistentMu.
    """
    if isinstance(doc, (str, Path)):
        try:
            with open(doc, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise MalformedTable(f"cannot read table file: {exc}")
        except json.JSONDecodeError as exc:
            raise MalformedTable(f"table file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise MalformedTable(f"a table document is a JSON object, "
                             f"got {type(doc).__name__}")
    try:
        version = doc["format_version"]
        N = doc["N"]
        kind = doc["kind"]
        series = doc.get("series")
        raw_entries = doc["entries"]
        name = doc.get("name", "table")
    except (KeyError, TypeError) as exc:
        raise MalformedTable(f"malformed table document: {exc}")
    if type(version) is not int or version != TABLE_FORMAT_VERSION:
        raise MalformedTable(f"unsupported format_version {version!r}")
    if type(N) is not int or N < 1:
        raise MalformedTable(f"N must be an integer >= 1, got {N!r}")
    if N > TABLE_MAX_N:
        raise MalformedTable(f"N = {N} is above TABLE_MAX_N = {TABLE_MAX_N}")
    if kind not in (INVOLUTIVE, HECKE, BMW):
        raise MalformedTable(f"unknown kind {kind!r}")
    if type(name) is not str:
        raise MalformedTable(f"name must be a string, got {name!r}")
    if series is not None and type(series) is not str:
        raise MalformedTable(f"series must be a string, got {series!r}")
    if not isinstance(raw_entries, list):
        raise MalformedTable(f"entries must be a list, got {raw_entries!r}")
    mu = _table_scalar(doc["mu"], "mu") if doc.get("mu") else None
    q = default_q(kind) if doc.get("q") is None else _table_scalar(doc["q"], "q")
    if q.is_zero():
        raise MalformedTable("q must be nonzero")
    if kind == BMW:
        if series not in MU_KIND:
            raise MalformedTable("BMW table must declare its series")
        if mu is None:
            raise MalformedTable("BMW table must declare mu")
    values = {}   # a repeated (i, j, k, l) keeps its last value
    for ent in raw_entries:
        if not isinstance(ent, dict) or \
                any(type(ent.get(key)) is not int for key in "ijkl"):
            raise MalformedTable(f"malformed entry {ent!r}: i, j, k and l "
                                 f"must be integers")
        i, j, k, l = (ent[key] - 1 for key in "ijkl")
        if not all(0 <= t < N for t in (i, j, k, l)):
            raise MalformedTable(f"index out of range in entry {ent}")
        values[enc_index((k, l), N), enc_index((i, j), N)] = \
            _table_scalar(ent.get("value"), f"value of entry {ent!r}")
    r = LinOperator.from_terms(((o, c, v) for (o, c), v in values.items()), N, 2)
    b = Braiding(N, r, kind, series=series, q=q, name=name)
    if kind == BMW and mu != b.mu:
        raise InconsistentMu(f"mu {mu!r} does not match the {series} series at N={N}")
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
