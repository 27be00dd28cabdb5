"""Quantum doubles of Fock type: normal-ordering rewriting between a
creation algebra B (quotient of T(V)) and an annihilation algebra A
(quotient of T(V*)), the annihilation action, the L-matrix identities and
the braided Lie structure.

The permutation rule is stored in solved form

    x^l x_k  =  s * Psi_jk^il  x_i x^j  +  B_k^l,

with s = q^{-1} for the bosonic flavor and s = -q for the fermionic one.
Every rewrite either moves an annihilation generator rightward past a
creation generator or drops the pair, so normal ordering terminates; the
diamond tests assert that the result does not depend on the rewrite order.

All identity verifications here are exact comparisons of normal-ordered
elements; nothing is truncated or approximated.  A double is immutable
after construction apart from the monotone caches inside its graded
quotients and its normal-order memo; verification suites are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .braidings import BMW, HECKE, INVOLUTIVE, Braiding, projectors
from .errors import (
    EmptyComponent,
    IncompatibleDouble,
    NotStrictlySkewInvertible,
    RhatNotDetermined,
    SizeLimitExceeded,
    UnsupportedDouble,
)
from .quadalgebras import FreeAlgebra, GradedQuotient, Tensor, Word, make_algebra
from .scalars import ONE, Q, ZERO, Scalar
from .tensorops import (
    LinOperator,
    Matrix,
    enc_index,
    mat_inv,
    mat_mul,
    place,
)

BOSONIC = "bosonic"
FERMIONIC = "fermionic"

FAMILY_HECKE = "hecke"
FAMILY_BMW_ORTH = "bmw-orthogonal"
FAMILY_BMW_SYMPL = "bmw-symplectic"

Token = tuple[str, int]          # ("b", i) creation, ("a", j) annihilation
Key = tuple[Word, Word]          # (creation word, annihilation word)


class DoubleElement:
    """A finitely supported normal-ordered element of B (x) A."""

    __slots__ = ("double", "terms")

    def __init__(self, double: "FockDouble", terms: dict[Key, Scalar]):
        self.double = double
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DoubleElement") -> "DoubleElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, ZERO) + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return DoubleElement(self.double, out)

    def __sub__(self, other: "DoubleElement") -> "DoubleElement":
        return self + other.scale(_MINUS_ONE)

    def scale(self, s: Scalar) -> "DoubleElement":
        if s.is_zero():
            return DoubleElement(self.double, {})
        return DoubleElement(self.double, {k: s * v for k, v in self.terms.items()})

    def __mul__(self, other: "DoubleElement") -> "DoubleElement":
        return self.double.multiply(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DoubleElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("DoubleElement is not hashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (bw, aw), c in sorted(self.terms.items()):
            word = " ".join([f"x{i+1}" for i in bw] + [f"x^{j+1}" for j in aw]) or "1"
            bits.append(f"({c!r})*{word}")
        return " + ".join(bits)


_MINUS_ONE = Scalar.from_int(-1)


class FockDouble:
    """The quantum double built on a strictly skew-invertible braiding."""

    def __init__(self, braiding: Braiding, flavor: str, family: str,
                 free_b: bool = False):
        _check_admissible(braiding, flavor, family)
        if not braiding.skew.strict:
            raise NotStrictlySkewInvertible(
                "doubles need invertible partial traces of Psi")
        self.braiding = braiding
        self.flavor = flavor
        self.family = family
        self.free_b = free_b
        kind = "sym" if flavor == BOSONIC else "lambda"
        self.A: GradedQuotient = make_algebra(braiding, kind, "V*")
        if free_b:
            self.B: GradedQuotient = FreeAlgebra(braiding.N, "V")
        else:
            self.B = make_algebra(braiding, kind, "V")
        qpar = braiding.q  # ONE for involutive braidings
        self.sign_coeff = qpar.inverse() if flavor == BOSONIC else -qpar
        self._build_exchange_table()
        self._order_cache: dict[tuple[Token, ...], dict[Key, Scalar]] = {}

    def _build_exchange_table(self):
        N = self.braiding.N
        psi = self.braiding.psi
        bmat = self.braiding.B
        s = self.sign_coeff
        exch: dict[tuple[int, int], list[tuple[int, int, Scalar]]] = {}
        const: dict[tuple[int, int], Scalar] = {}
        for l in range(N):
            for k in range(N):
                moves = []
                for i in range(N):
                    for j in range(N):
                        c = psi.entries[enc_index((i, l), N)][enc_index((j, k), N)]
                        if not c.is_zero():
                            moves.append((i, j, s * c))
                exch[(l, k)] = moves
                const[(l, k)] = bmat[k][l]
        self.exchange = exch
        self.constant = const

    # -- element constructors -------------------------------------------

    def zero(self) -> DoubleElement:
        return DoubleElement(self, {})

    def one(self) -> DoubleElement:
        return DoubleElement(self, {((), ()): ONE})

    def scalar(self, c: Scalar) -> DoubleElement:
        return DoubleElement(self, {((), ()): c})

    def b_gen(self, i: int) -> DoubleElement:
        return DoubleElement(self, {(((i,)), ()): ONE})

    def a_gen(self, j: int) -> DoubleElement:
        return DoubleElement(self, {((), (j,)): ONE})

    def l_gen(self, i: int, j: int) -> DoubleElement:
        return DoubleElement(self, {((i,), (j,)): ONE})

    # -- normal ordering --------------------------------------------------

    def normal_order(self, word: tuple[Token, ...] | list[Token],
                     strategy: str = "leftmost") -> DoubleElement:
        """Rewrite a mixed generator word into the reduced normal form."""
        word = tuple(word)
        cache_key = word if strategy == "leftmost" else None
        if cache_key is not None:
            hit = self._order_cache.get(cache_key)
            if hit is not None:
                return DoubleElement(self, dict(hit))
        done: dict[Key, Scalar] = {}
        pending: dict[tuple[Token, ...], Scalar] = {word: ONE}
        while pending:
            w, coeff = pending.popitem()
            pos = _find_disorder(w, strategy)
            if pos is None:
                self._reduce_sorted(w, coeff, done)
                continue
            l = w[pos][1]
            k = w[pos + 1][1]
            for (i, j, c) in self.exchange[(l, k)]:
                w2 = w[:pos] + (("b", i), ("a", j)) + w[pos + 2:]
                _acc_word(pending, w2, coeff * c)
            cst = self.constant[(l, k)]
            if not cst.is_zero():
                w2 = w[:pos] + w[pos + 2:]
                _acc_word(pending, w2, coeff * cst)
        if cache_key is not None:
            self._order_cache[cache_key] = dict(done)
        return DoubleElement(self, done)

    def _reduce_sorted(self, w: tuple[Token, ...], coeff: Scalar,
                       done: dict[Key, Scalar]):
        bword = tuple(t[1] for t in w if t[0] == "b")
        aword = tuple(t[1] for t in w if t[0] == "a")
        for bw, cb in self.B.normal_form_word(bword).items():
            for aw, ca in self.A.normal_form_word(aword).items():
                k = (bw, aw)
                s = done.get(k, ZERO) + coeff * cb * ca
                if s.is_zero():
                    done.pop(k, None)
                else:
                    done[k] = s

    # -- algebra ----------------------------------------------------------

    def multiply(self, e1: DoubleElement, e2: DoubleElement) -> DoubleElement:
        out: dict[Key, Scalar] = {}
        for (b1, a1), c1 in e1.terms.items():
            for (b2, a2), c2 in e2.terms.items():
                c12 = c1 * c2
                mid = self.normal_order(
                    tuple(("a", j) for j in a1) + tuple(("b", i) for i in b2))
                for (bm, am), d in mid.terms.items():
                    coeff = c12 * d
                    for bw, cb in self.B.normal_form_word(b1 + bm).items():
                        for aw, ca in self.A.normal_form_word(am + a2).items():
                            k = (bw, aw)
                            s = out.get(k, ZERO) + coeff * cb * ca
                            if s.is_zero():
                                out.pop(k, None)
                            else:
                                out[k] = s
        return DoubleElement(self, out)

    def act(self, a_elem: Tensor | Word, v: Tensor | Word) -> Tensor:
        """The annihilation action a |> v, an element of B."""
        if isinstance(a_elem, tuple):
            a_elem = {a_elem: ONE}
        if isinstance(v, tuple):
            v = {v: ONE}
        out: Tensor = {}
        for aw, ca in a_elem.items():
            for bw, cb in v.items():
                word = tuple(("a", j) for j in aw) + tuple(("b", i) for i in bw)
                ordered = self.normal_order(word)
                for (bw2, aw2), c in ordered.terms.items():
                    if aw2:
                        continue  # the counit kills surviving annihilators
                    s = out.get(bw2, ZERO) + ca * cb * c
                    if s.is_zero():
                        out.pop(bw2, None)
                    else:
                        out[bw2] = s
        return out

    # -- L-matrix ----------------------------------------------------------

    def l_matrix(self) -> list[list[DoubleElement]]:
        N = self.braiding.N
        return [[self.l_gen(i, j) for j in range(N)] for i in range(N)]


def _acc_word(pending: dict, w: tuple[Token, ...], c: Scalar):
    s = pending.get(w, ZERO) + c
    if s.is_zero():
        pending.pop(w, None)
    else:
        pending[w] = s


def _find_disorder(w: tuple[Token, ...], strategy: str) -> int | None:
    positions = range(len(w) - 1) if strategy == "leftmost" else \
        range(len(w) - 2, -1, -1)
    for p in positions:
        if w[p][0] == "a" and w[p + 1][0] == "b":
            return p
    return None


def _check_admissible(b: Braiding, flavor: str, family: str):
    if flavor not in (BOSONIC, FERMIONIC):
        raise UnsupportedDouble(f"unknown flavor {flavor!r}")
    if family == FAMILY_HECKE:
        if b.kind not in (HECKE, INVOLUTIVE):
            raise UnsupportedDouble("hecke family needs a Hecke or involutive braiding")
    elif family == FAMILY_BMW_ORTH:
        if b.kind != BMW or b.series != "orthogonal":
            raise UnsupportedDouble("bmw-orthogonal family needs an orthogonal BMW braiding")
        if flavor != BOSONIC:
            raise UnsupportedDouble("the orthogonal BMW double is bosonic")
    elif family == FAMILY_BMW_SYMPL:
        if b.kind != BMW or b.series != "symplectic":
            raise UnsupportedDouble("bmw-symplectic family needs a symplectic BMW braiding")
        if flavor != FERMIONIC:
            raise UnsupportedDouble("the symplectic BMW double is fermionic")
    else:
        raise UnsupportedDouble(f"unknown family {family!r}")


def make_double(b: Braiding, flavor: str, family: str,
                free_b: bool = False) -> FockDouble:
    """Construct the Fock double for an admissible (family, flavor) pair."""
    return FockDouble(b, flavor, family, free_b=free_b)


def l_generators(d: FockDouble) -> list[list[DoubleElement]]:
    """The N x N matrix of normal-ordered generators l_i^j = x_i x^j."""
    return d.l_matrix()


# ---------------------------------------------------------------------------
# written-matrix helpers: matrices of double elements multiplied in the
# written order, with grids read as (M)_x^y = entries[y][x]
# ---------------------------------------------------------------------------

def _written_scalar_grid(op: LinOperator) -> Matrix:
    n = op.size
    return [[op.entries[y][x] for y in range(n)] for x in range(n)]


def _dmat_from_scalars(d: FockDouble, grid: Matrix) -> list[list[DoubleElement]]:
    return [[d.scalar(v) for v in row] for row in grid]


def _dmat_l1(d: FockDouble) -> list[list[DoubleElement]]:
    N = d.braiding.N
    n2 = N * N
    out = [[d.zero() for _ in range(n2)] for _ in range(n2)]
    for i in range(N):
        for a in range(N):
            for j in range(N):
                out[enc_index((i, a), N)][enc_index((j, a), N)] = d.l_gen(i, j)
    return out


def _dmat_mul(a: list[list[DoubleElement]], b: list[list[DoubleElement]]) -> list[list[DoubleElement]]:
    n = len(a)
    m = len(b[0])
    out = []
    for x in range(n):
        row = []
        for y in range(m):
            acc = None
            for z in range(len(b)):
                e1 = a[x][z]
                if e1.is_zero():
                    continue
                e2 = b[z][y]
                if e2.is_zero():
                    continue
                prod = e1 * e2
                acc = prod if acc is None else acc + prod
            row.append(acc if acc is not None else a[x][0].double.zero())
        out.append(row)
    return out


def _dmat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# ---------------------------------------------------------------------------
# L-relation verification
# ---------------------------------------------------------------------------

def _reflection_partner(d: FockDouble) -> Matrix:
    """The written grid multiplying L in the quadratic identity: R itself
    for the Hecke family, the two-eigenvalue idempotent sum for BMW."""
    b = d.braiding
    if d.family == FAMILY_HECKE:
        return _written_scalar_grid(b.R)
    pr = projectors(b)
    if d.family == FAMILY_BMW_ORTH:
        combo = pr["q"] + pr["mu"]
    else:
        combo = pr["-1/q"] + pr["mu"]
    return _written_scalar_grid(combo)


def verify_l_relations(d: FockDouble) -> dict:
    """Exact check of the quadratic L-identity satisfied by l_i^j = x_i x^j.

    Hecke family:  R12 L1 R12 L1 - L1 R12 L1 R12 = R12 L1 - L1 R12.
    BMW family:    PP12 L1 R12 L1 - L1 R12 L1 PP12 = PP12 L1 - L1 PP12,
    with PP the sum of the q and mu idempotents (orthogonal) or of the
    -1/q and mu idempotents (symplectic).
    """
    rw = _dmat_from_scalars(d, _written_scalar_grid(d.braiding.R))
    l1 = _dmat_l1(d)
    if d.family == FAMILY_HECKE:
        left_outer = rw
    else:
        left_outer = _dmat_from_scalars(d, _reflection_partner(d))
    lhs = _dmat_sub(
        _dmat_mul(_dmat_mul(_dmat_mul(left_outer, l1), rw), l1),
        _dmat_mul(_dmat_mul(_dmat_mul(l1, rw), l1), left_outer),
    )
    rhs = _dmat_sub(_dmat_mul(left_outer, l1), _dmat_mul(l1, left_outer))
    failures = []
    n = len(lhs)
    for x in range(n):
        for y in range(n):
            if lhs[x][y] != rhs[x][y]:
                failures.append((x, y))
    return {"passed": not failures, "entries": n * n, "failures": failures,
            "family": d.family}


# ---------------------------------------------------------------------------
# compatibility verification
# ---------------------------------------------------------------------------

def _ideal_generator_operator(d: FockDouble) -> tuple[LinOperator, Scalar]:
    """The degree-2 relation map G of the B side and the coefficient of the
    closed identity  G(R_23) x_2 x_3 x^<3| = c * x^<1| R12 R23 G(R_12) x_1 x_2."""
    b = d.braiding
    ident = LinOperator.identity(b.N, 2)
    if d.family == FAMILY_HECKE:
        q = Q if b.kind == HECKE else ONE
        if d.flavor == BOSONIC:
            g = b.R - ident.scale(q)
        else:
            g = b.R + ident.scale(q.inverse())
    elif d.family == FAMILY_BMW_ORTH:
        g = projectors(b)["-1/q"]
    else:
        g = projectors(b)["q"]
    qpar = b.q
    coeff = (qpar * qpar) if d.flavor == BOSONIC else (qpar * qpar).inverse()
    return g, coeff


def verify_compatibility(d: FockDouble, raise_on_failure: bool = False) -> dict:
    """Two independent exact checks that the permutation rule respects the
    quotient relations on both sides.

    (i) the closed matrix identity behind the compatibility proof, checked
        in the free-creation variant of the same double, where both sides
        are nonzero;
    (ii) ideal annihilation in the quotient double (each relation times a
        generator normal-orders to zero) together with a full diamond test
        on degree-3 mixed words under two opposite rewrite strategies.
    """
    b = d.braiding
    N = b.N
    report: dict = {"closed_identity": True, "ideal_checks": True,
                    "diamond": True, "witnesses": []}

    free = d if d.free_b else FockDouble(b, d.flavor, d.family, free_b=True)
    g, coeff = _ideal_generator_operator(d)
    m3 = place(g, (1, 2), 3) @ place(b.R, (2, 3), 3) @ place(b.R, (1, 2), 3)
    for i2 in range(N):
        for i3 in range(N):
            for j3 in range(N):
                lhs = free.zero()
                for a in range(N):
                    for bb in range(N):
                        c = g.entries[enc_index((a, bb), N)][enc_index((i2, i3), N)]
                        if c.is_zero():
                            continue
                        lhs = lhs + free.normal_order(
                            (("b", a), ("b", bb), ("a", j3))).scale(c)
                rhs = free.zero()
                for a in range(N):
                    for bb in range(N):
                        for e in range(N):
                            c = m3.entries[enc_index((bb, e, j3), N)][enc_index((a, i2, i3), N)]
                            if c.is_zero():
                                continue
                            rhs = rhs + free.normal_order(
                                (("a", a), ("b", bb), ("b", e))).scale(c)
                if lhs != rhs.scale(coeff):
                    report["closed_identity"] = False
                    report["witnesses"].append(("closed", (i2, i3, j3)))

    if not d.free_b:
        for rel in d.B.relations:
            for l in range(N):
                acc = d.zero()
                for (i, j), c in rel.items():
                    acc = acc + d.normal_order(
                        (("a", l), ("b", i), ("b", j))).scale(c)
                if not acc.is_zero():
                    report["ideal_checks"] = False
                    report["witnesses"].append(("b-ideal", l, tuple(rel)))
    for rel in d.A.relations:
        for k in range(N):
            acc = d.zero()
            for (i, j), c in rel.items():
                acc = acc + d.normal_order(
                    (("a", i), ("a", j), ("b", k))).scale(c)
            if not acc.is_zero():
                report["ideal_checks"] = False
                report["witnesses"].append(("a-ideal", k, tuple(rel)))

    for pattern in itertools.product("ab", repeat=3):
        if "a" not in pattern or "b" not in pattern:
            continue
        for idx in itertools.product(range(N), repeat=3):
            word = tuple((t, i) for t, i in zip(pattern, idx))
            if d.normal_order(word, "leftmost") != d.normal_order(word, "rightmost"):
                report["diamond"] = False
                report["witnesses"].append(("diamond", word))

    report["passed"] = (report["closed_identity"] and report["ideal_checks"]
                        and report["diamond"])
    if raise_on_failure and not report["passed"]:
        raise IncompatibleDouble(f"compatibility failed: {report['witnesses'][:3]}")
    return report


# ---------------------------------------------------------------------------
# finite-dimensional representations on homogeneous components
# ---------------------------------------------------------------------------

def fock_representation(d: FockDouble, k: int) -> dict[tuple[int, int], Matrix]:
    """Matrices of the l_i^j generators on the degree-k creation component."""
    if k < 1:
        raise ValueError("k must be at least 1")
    comp = d.B.component(k)
    if not comp.basis:
        raise EmptyComponent(f"component {k} of the creation algebra is zero")
    N = d.braiding.N
    dim = len(comp.basis)
    out = {}
    for i in range(N):
        for j in range(N):
            mat = [[ZERO] * dim for _ in range(dim)]
            for col, w in enumerate(comp.basis):
                lowered = d.act((j,), w)
                for y, c in lowered.items():
                    for w2, c2 in d.B.normal_form_word((i,) + y).items():
                        row = comp.basis_index[w2]
                        mat[row][col] = mat[row][col] + c * c2
            out[(i, j)] = mat
    return out


def representation_l_relations_ok(d: FockDouble, k: int) -> bool:
    """Check the family L-identity for the representing matrices on
    component k, via flattened block matrices over the scalars."""
    reps = fock_representation(d, k)
    N = d.braiding.N
    dim = len(d.B.component(k).basis)
    n2 = N * N

    def flat_scalar(grid: Matrix) -> Matrix:
        big = [[ZERO] * (n2 * dim) for _ in range(n2 * dim)]
        for x in range(n2):
            for y in range(n2):
                v = grid[x][y]
                if v.is_zero():
                    continue
                for r in range(dim):
                    big[x * dim + r][y * dim + r] = v
        return big

    def flat_l1() -> Matrix:
        big = [[ZERO] * (n2 * dim) for _ in range(n2 * dim)]
        for i in range(N):
            for a in range(N):
                for j in range(N):
                    blk = reps[(i, j)]
                    x = enc_index((i, a), N)
                    y = enc_index((j, a), N)
                    for r in range(dim):
                        for c in range(dim):
                            if not blk[r][c].is_zero():
                                big[x * dim + r][y * dim + c] = blk[r][c]
        return big

    rw = flat_scalar(_written_scalar_grid(d.braiding.R))
    outer = rw if d.family == FAMILY_HECKE else flat_scalar(_reflection_partner(d))
    l1 = flat_l1()
    lhs1 = mat_mul(mat_mul(mat_mul(outer, l1), rw), l1)
    lhs2 = mat_mul(mat_mul(mat_mul(l1, rw), l1), outer)
    rhs1 = mat_mul(outer, l1)
    rhs2 = mat_mul(l1, outer)
    size = n2 * dim
    for r in range(size):
        for c in range(size):
            if lhs1[r][c] - lhs2[r][c] != rhs1[r][c] - rhs2[r][c]:
                return False
    return True


# ---------------------------------------------------------------------------
# optional left-dual variant of the permutation rule
# ---------------------------------------------------------------------------

def left_dual_variant_report(b: Braiding) -> dict:
    """Consistency of the left-dual permutation rule, report only.

    The variant rule  x_k x~^l = q^{-1} Psi_kj^li x~^j x_i + C_k^l  orders
    left-dual generators in front of creation generators.  The dual-side
    relations are transported into the left-dual basis through the change
    of basis x^a = B_t^a x~^t, and the variant must pass the same diamond
    and ideal-annihilation checks as the main double.  No isomorphism
    between the two doubles is asserted.
    """
    if b.kind not in (HECKE, INVOLUTIVE):
        raise UnsupportedDouble("the left-dual variant is stated for the bosonic family")
    if not b.skew.strict:
        raise NotStrictlySkewInvertible("left-dual basis needs invertible B")
    N = b.N
    psi = b.psi
    s = b.q.inverse()
    exch: dict[tuple[int, int], list[tuple[int, int, Scalar]]] = {}
    const: dict[tuple[int, int], Scalar] = {}
    for k in range(N):
        for l in range(N):
            moves = []
            for j in range(N):
                for i in range(N):
                    c = psi.entries[enc_index((l, i), N)][enc_index((k, j), N)]
                    if not c.is_zero():
                        moves.append((j, i, s * c))
            exch[(k, l)] = moves
            const[(k, l)] = b.C[k][l]

    def order(word: tuple[Token, ...], strategy: str) -> dict:
        done: dict[Key, Scalar] = {}
        pending: dict[tuple[Token, ...], Scalar] = {tuple(word): ONE}
        while pending:
            w, coeff = pending.popitem()
            pos = None
            rng = range(len(w) - 1) if strategy == "leftmost" else \
                range(len(w) - 2, -1, -1)
            for p in rng:
                if w[p][0] == "b" and w[p + 1][0] == "t":
                    pos = p
                    break
            if pos is None:
                key = (tuple(t[1] for t in w if t[0] == "t"),
                       tuple(t[1] for t in w if t[0] == "b"))
                v = done.get(key, ZERO) + coeff
                if v.is_zero():
                    done.pop(key, None)
                else:
                    done[key] = v
                continue
            k0, l0 = w[pos][1], w[pos + 1][1]
            for (j, i, c) in exch[(k0, l0)]:
                _acc_word(pending, w[:pos] + (("t", j), ("b", i)) + w[pos + 2:],
                          coeff * c)
            cst = const[(k0, l0)]
            if not cst.is_zero():
                _acc_word(pending, w[:pos] + w[pos + 2:], coeff * cst)
        return done

    balg = make_algebra(b, "sym", "V")
    astar = make_algebra(b, "sym", "V*")
    trels = []
    for rel in astar.relations:
        out: Tensor = {}
        for (a, bb), c in rel.items():
            for t in range(N):
                for u in range(N):
                    v = c * b.B[t][a] * b.B[u][bb]
                    if not v.is_zero():
                        key = (t, u)
                        sv = out.get(key, ZERO) + v
                        if sv.is_zero():
                            out.pop(key, None)
                        else:
                            out[key] = sv
        trels.append(out)
    atilde = GradedQuotient(N, "V*", "sym", trels, name="left-dual side")

    def reduce_pairs(done: dict) -> dict:
        acc: dict[Key, Scalar] = {}
        for (tw, bw), c in done.items():
            for t2, ct in atilde.normal_form_word(tw).items():
                for b2, cb in balg.normal_form_word(bw).items():
                    key = (t2, b2)
                    sv = acc.get(key, ZERO) + c * ct * cb
                    if sv.is_zero():
                        acc.pop(key, None)
                    else:
                        acc[key] = sv
        return acc

    report = {"diamond": True, "ideal_checks": True, "witnesses": []}
    for pattern in itertools.product("bt", repeat=3):
        if "b" not in pattern or "t" not in pattern:
            continue
        for idx in itertools.product(range(N), repeat=3):
            word = tuple((t, i) for t, i in zip(pattern, idx))
            if reduce_pairs(order(word, "leftmost")) != \
                    reduce_pairs(order(word, "rightmost")):
                report["diamond"] = False
                report["witnesses"].append(("diamond", word))
    for rel in balg.relations:
        for l in range(N):
            total: dict[Key, Scalar] = {}
            for (i, j), c in rel.items():
                for key, v in reduce_pairs(
                        order((("b", i), ("b", j), ("t", l)), "leftmost")).items():
                    sv = total.get(key, ZERO) + c * v
                    if sv.is_zero():
                        total.pop(key, None)
                    else:
                        total[key] = sv
            if total:
                report["ideal_checks"] = False
                report["witnesses"].append(("b-ideal", l))
    for rel in trels:
        for k in range(N):
            total = {}
            for (t, u), c in rel.items():
                for key, v in reduce_pairs(
                        order((("b", k), ("t", t), ("t", u)), "leftmost")).items():
                    sv = total.get(key, ZERO) + c * v
                    if sv.is_zero():
                        total.pop(key, None)
                    else:
                        total[key] = sv
            if total:
                report["ideal_checks"] = False
                report["witnesses"].append(("tilde-ideal", k))
    report["passed"] = report["diamond"] and report["ideal_checks"]
    return report


# ---------------------------------------------------------------------------
# braided Lie structure
# ---------------------------------------------------------------------------

@dataclass
class BraidedLie:
    braiding: Braiding
    rhat: Matrix          # N^4 x N^4 operator on End(V) (x) End(V)
    comp: Matrix          # N^2 x N^4 composition map l (x) l -> l
    bracket: Matrix       # N^2 x N^4, comp o (I - rhat)
    rtrace: list[Scalar]  # R-trace of each l_i^j
    alpha: Scalar


def _formal_mul(a, b, n):
    """Written product of matrices whose entries are dicts
    {tuple_of_generator_pairs: Scalar}; keys concatenate."""
    out = []
    for x in range(n):
        row = []
        for y in range(n):
            acc: dict[tuple, Scalar] = {}
            for z in range(n):
                ea = a[x][z]
                if not ea:
                    continue
                eb = b[z][y]
                if not eb:
                    continue
                for ka, va in ea.items():
                    for kb, vb in eb.items():
                        k = ka + kb
                        s = acc.get(k, ZERO) + va * vb
                        if s.is_zero():
                            acc.pop(k, None)
                        else:
                            acc[k] = s
            row.append(acc)
        out.append(row)
    return out


def _pair_code(key: tuple, N: int) -> int:
    """Index in End(V) (x) End(V) of a quadratic key ((i, j), (k, m))."""
    (i, j), (k, m) = key
    return enc_index((i * N + j, k * N + m), N * N)


def _defining_products(b: Braiding) -> tuple[list, list]:
    """The written matrices R12 L1 R12 L1 and L1 R12 L1 R12, their entries
    dicts {quadratic key: Scalar}; the twist maps the first to the second."""
    N = b.N
    n2 = N * N
    rw = [[{(): v} if not (v := b.R.entries[y][x]).is_zero() else {}
           for y in range(n2)] for x in range(n2)]
    # l1 written matrix: entries linear in generator pairs
    l1 = [[{} for _ in range(n2)] for _ in range(n2)]
    for i in range(N):
        for a in range(N):
            for j in range(N):
                l1[enc_index((i, a), N)][enc_index((j, a), N)] = {((i, j),): ONE}
    m_rlrl = _formal_mul(_formal_mul(_formal_mul(rw, l1, n2), rw, n2), l1, n2)
    m_lrlr = _formal_mul(_formal_mul(_formal_mul(l1, rw, n2), l1, n2), rw, n2)
    return m_rlrl, m_lrlr


# The Jacobi check is leg-local, so the largest dense allocation of the Lie
# suite is the N^4-square solve for the twist in braided_lie: 1296 rows at
# N = 6 (a few seconds), 2401 rows at N = 7.
LIE_MAX_N = 6


def braided_lie(b: Braiding) -> BraidedLie:
    """Reconstruct the braided-Lie operator on End(V) (x) End(V) by a
    linear solve from its defining property, and assemble the composition,
    bracket and R-trace data."""
    if b.kind not in (HECKE, INVOLUTIVE):
        raise UnsupportedDouble("braided Lie structure needs a Hecke or involutive braiding")
    if not b.skew.strict:
        raise NotStrictlySkewInvertible("braided Lie structure needs strictness")
    N = b.N
    if N > LIE_MAX_N:
        raise SizeLimitExceeded(
            f"braided Lie structure at N = {N} exceeds the limit N <= {LIE_MAX_N}: "
            f"its twist is solved from a dense {N ** 4}-square linear system")
    n2 = N * N
    n4 = n2 * n2
    m_rlrl, m_lrlr = _defining_products(b)

    def to_matrix(formal) -> Matrix:
        rows = []
        for x in range(n2):
            for y in range(n2):
                row = [ZERO] * n4
                for key, v in formal[x][y].items():
                    row[_pair_code(key, N)] = v
                rows.append(row)
        return rows

    m1 = to_matrix(m_rlrl)
    m2 = to_matrix(m_lrlr)
    m1_inv = mat_inv(m1)
    if m1_inv is None:
        raise RhatNotDetermined("coefficient matrix of the defining property is singular")
    # rhat applied to the coefficient vector of each entry of m_rlrl gives
    # the corresponding entry of m_lrlr: rhat = (M1^{-1} M2)^T
    x = mat_mul(m1_inv, m2)
    rhat = [[x[c][r] for c in range(n4)] for r in range(n4)]

    bmat = b.B
    comp = [[ZERO] * n4 for _ in range(n2)]
    for i in range(N):
        for j in range(N):
            for k in range(N):
                for m in range(N):
                    phi = enc_index((i * N + j, k * N + m), n2)
                    comp[i * N + m][phi] = comp[i * N + m][phi] + bmat[k][j]
    bracket = [[c - t for c, t in zip(rc, rt)]
               for rc, rt in zip(comp, mat_mul(comp, rhat))]

    cmat = b.C
    rtrace = []
    for i in range(N):
        for j in range(N):
            # Tr_R l_i^j = Tr(C * mat(l_i^j)) with mat(l_i^j) x_k = B_k^j x_i
            acc = ZERO
            for k in range(N):
                acc = acc + cmat[k][i] * bmat[k][j]
            rtrace.append(acc)
    alpha = b.alpha
    if alpha is None:
        raise RhatNotDetermined("B*C is not scalar; the R-trace is not normalized")
    return BraidedLie(b, rhat, comp, bracket, rtrace, alpha)


# A sparse matrix by columns: column c -> {row: nonzero entry}.
Columns = list[dict[int, Scalar]]


def _columns(m: Matrix) -> Columns:
    cols: Columns = [{} for _ in range(len(m[0]))]
    for r, row in enumerate(m):
        for c, v in enumerate(row):
            if not v.is_zero():
                cols[c][r] = v
    return cols


def _lincomb(terms) -> dict[int, Scalar]:
    """The sparse column sum of v * col over the (v, col) in terms."""
    acc: dict[int, Scalar] = {}
    for v, col in terms:
        for r, w in col.items():
            s = acc.get(r, ZERO) + v * w
            if s.is_zero():
                acc.pop(r, None)
            else:
                acc[r] = s
    return acc


def _after_12(x: Columns, op: Columns, n2: int) -> Columns:
    """x o (op (x) id) for a two-leg op on legs 1, 2 of a three-leg space
    with legs of dimension n2; column r*n2 + c of x is (op output r, leg c)."""
    return [_lincomb((v, x[r * n2 + c]) for r, v in col.items())
            for col in op for c in range(n2)]


def _after_23(x: Columns, op: Columns, n2: int, n_out: int) -> Columns:
    """x o (id (x) op) for a two-leg op on legs 2, 3 with n_out output
    indices; column a*n_out + r of x is (leg a, op output r)."""
    return [_lincomb((v, x[a * n_out + r]) for r, v in col.items())
            for a in range(n2) for col in op]


def _dense(cols: Columns, nrows: int) -> Matrix:
    out = [[ZERO] * len(cols) for _ in range(nrows)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            out[r][c] = v
    return out


def _jacobi_sides(bl: BraidedLie) -> tuple[Matrix, Matrix]:
    """Both sides of the Jacobi identity as N^2 x N^6 matrices on
    End(V)^(x)3.  Hecke form: [,][,]_23 (I - rhat_12) and [,][,]_12;
    involutive form: [,][,]_23 (I + rhat_12 rhat_23 + rhat_23 rhat_12)
    and 0.  Each [,] and rhat acts on its two legs through its nonzero
    column entries; no N^6-square matrix is formed."""
    n2 = bl.braiding.N ** 2
    n4 = n2 * n2
    br = _columns(bl.bracket)
    rh = _columns(bl.rhat)
    a = _after_23(br, br, n2, n2)
    a12 = _after_12(a, rh, n2)
    if bl.braiding.kind == HECKE:
        minus = -ONE
        lhs = [_lincomb(((ONE, p), (minus, t))) for p, t in zip(a, a12)]
        rhs = _after_12(br, br, n2)
    else:
        cyc = _after_23(a12, rh, n2, n4)
        cyc2 = _after_12(_after_23(a, rh, n2, n4), rh, n2)
        lhs = [_lincomb(((ONE, p), (ONE, t), (ONE, u)))
               for p, t, u in zip(a, cyc, cyc2)]
        rhs = [{}] * len(a)
    return _dense(lhs, n2), _dense(rhs, n2)


def verify_lie(bl: BraidedLie) -> dict:
    """Full verification of the braided Lie data.

    Checks the defining property of the reconstructed operator, the
    R-trace normalization on generators, vanishing of the R-trace on all
    basis brackets, the Jacobi identity in its Hecke or involutive form,
    and the consistency of the quadratic L-identity with the bracket.
    The Jacobi identity is checked leg-locally: the bracket and the twist
    act on two adjacent legs of End(V)^(x)3 at a time (_jacobi_sides).
    """
    b = bl.braiding
    N = b.N
    n2 = N * N
    n4 = n2 * n2
    report = {"defining": True, "trace_generators": True, "trace_brackets": True,
              "jacobi": True, "quadratic_consistency": True, "witnesses": []}

    # trace on generators: alpha * delta
    for i in range(N):
        for j in range(N):
            want = bl.alpha if i == j else ZERO
            if bl.rtrace[i * N + j] != want:
                report["trace_generators"] = False
                report["witnesses"].append(("trace-gen", i, j))

    # trace on brackets: Tr_R [l_e1, l_e2] = 0
    for phi in range(n4):
        acc = ZERO
        for e in range(n2):
            acc = acc + bl.rtrace[e] * bl.bracket[e][phi]
        if not acc.is_zero():
            report["trace_brackets"] = False
            report["witnesses"].append(("trace-bracket", phi))

    # defining property, re-derived through the double-product expansion
    m_rlrl, m_lrlr = _defining_products(b)
    rh = _columns(bl.rhat)
    for x in range(n2):
        for y in range(n2):
            got = _lincomb((v, rh[_pair_code(key, N)])
                           for key, v in m_rlrl[x][y].items())
            want = {_pair_code(key, N): v for key, v in m_lrlr[x][y].items()}
            if got != want:
                report["defining"] = False
                report["witnesses"].append(("defining", x, y))

    # quadratic-identity consistency: comp((I - rhat) entry) matches the
    # linear entries of R12 L1 - L1 R12
    lin_lhs = mat_mul(bl.bracket, _entry_coeff_matrix(m_rlrl, N))
    lin_rhs = _linear_entries(b, N)
    if lin_lhs != lin_rhs:
        report["quadratic_consistency"] = False
        report["witnesses"].append(("quadratic",))

    # Jacobi identity.  The Hecke form is the Leibniz one,
    #   [,] o [,]_23 o (I - rhat_12) = [,] o [,]_12,
    # whose q -> 1 limit is the classical [x,[y,z]] - [y,[x,z]] = [[x,y],z].
    lhs, rhs = _jacobi_sides(bl)
    if lhs != rhs:
        report["jacobi"] = False
        report["witnesses"].append(
            ("jacobi-hecke",) if b.kind == HECKE else ("jacobi-involutive",))

    report["passed"] = all(report[k] for k in
                           ("defining", "trace_generators", "trace_brackets",
                            "jacobi", "quadratic_consistency"))
    return report


def _entry_coeff_matrix(formal, N: int) -> Matrix:
    """Columns are the quadratic coefficient vectors of the written-matrix
    entries, entry (x,y) at column x*n2+y."""
    n2 = N * N
    n4 = n2 * n2
    out = [[ZERO] * n4 for _ in range(n4)]
    for x in range(n2):
        for y in range(n2):
            col = x * n2 + y
            for key, v in formal[x][y].items():
                out[_pair_code(key, N)][col] = v
    return out


def _linear_entries(b: Braiding, N: int) -> Matrix:
    """Linear generator coefficients of the entries of R12 L1 - L1 R12,
    columns indexed like _entry_coeff_matrix."""
    n2 = N * N
    out = [[ZERO] * (n2 * n2) for _ in range(n2)]
    rg = _written_scalar_grid(b.R)
    for x in range(n2):
        for y in range(n2):
            col = x * n2 + y
            xi, xa = divmod(x, N)
            yj, yb = divmod(y, N)
            # (R12 L1)_x^y = sum_z R_x^z (L1)_z^y ; (L1)_z^y = delta l
            for zi in range(N):
                v = rg[x][enc_index((zi, yb), N)]
                if not v.is_zero():
                    out[zi * N + yj][col] = out[zi * N + yj][col] + v
            for zj in range(N):
                v = rg[enc_index((zj, xa), N)][y]
                if not v.is_zero():
                    out[xi * N + zj][col] = out[xi * N + zj][col] - v
    return out
