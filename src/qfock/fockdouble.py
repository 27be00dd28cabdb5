"""Quantum doubles of Fock type: normal-ordering rewriting between a
creation algebra B (quotient of T(V)) and an annihilation algebra A
(quotient of T(V*)), the annihilation action, the L-matrix identities and
the braided Lie structure.

The permutation rule is stored in solved form

    x^l x_k  =  s * Psi_jk^il  x_i x^j  +  B_k^l,

with s = q^{-1} for the bosonic flavor and s = -q for the fermionic one
(braidings.exchange_table builds it, for the left-dual variant too).
Every rewrite either moves an annihilation generator rightward past a
creation generator or drops the pair, so normal ordering terminates.  The
rule's left-hand sides never overlap, so on free words every rewrite order
gives the same result (Bergman's diamond lemma) and one loop, _rewrite,
serves both rules.  What can fail is compatibility with the quotients: the
closed matrix identity is checked on free words sorted by the double's own
rule, and the diamond test compares, on every mixed degree-3 word, normal
ordering the free word and then reducing (exchange first) with reducing
each same-tag run in its quotient and then normal ordering (reduce first).

The braiding fixes the double's family (double_family): Hecke and
involutive braidings give the hecke family, with a bosonic or a fermionic
flavor; an orthogonal BMW braiding is bosonized and a symplectic one
fermionized (SERIES_FLAVOR).

All identity verifications here are exact comparisons of normal-ordered
elements; nothing is truncated or approximated.  A double is immutable
after construction apart from the monotone caches inside its graded
quotients and its normal-order memo; verification suites are pure.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .braidings import (
    HECKE,
    INVOLUTIVE,
    Braiding,
    Moves,
    dual_square,
    exchange_table,
)
from .errors import (
    EmptyComponent,
    NotStrictlySkewInvertible,
    RhatNotDetermined,
    SizeLimitExceeded,
    UnsupportedDouble,
)
from .quadalgebras import GradedQuotient, Tensor, Word, make_algebra
from .scalars import ONE, Q, ZERO, Scalar, add_term, sum_into
from .tensorops import (
    LinOperator,
    Row,
    FormalMatrix,
    enc_index,
    formal_cell,
    formal_grid,
    formal_mul,
    lincomb,
    mat_mul,
    mat_transpose,
    place,
    solve,
)

BOSONIC = "bosonic"
FERMIONIC = "fermionic"

FAMILY_HECKE = "hecke"
FAMILY_BMW_ORTH = "bmw-orthogonal"
FAMILY_BMW_SYMPL = "bmw-symplectic"

# the flavor each BMW series fixes: orthogonal bosonized, symplectic fermionized
SERIES_FLAVOR = {FAMILY_BMW_ORTH: BOSONIC, FAMILY_BMW_SYMPL: FERMIONIC}

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
        sum_into(out, other.terms)
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

    def __init__(self, braiding: Braiding, flavor: str):
        _check_admissible(braiding, flavor)
        if not braiding.skew.strict:
            raise NotStrictlySkewInvertible(
                "doubles need invertible partial traces of Psi")
        self.braiding = braiding
        self.flavor = flavor
        self.family = double_family(braiding)
        kind = "sym" if flavor == BOSONIC else "lambda"
        self.A: GradedQuotient = make_algebra(braiding, kind, "V*")
        self.B: GradedQuotient = make_algebra(braiding, kind, "V")
        qpar = braiding.q  # ONE for involutive braidings
        self.sign_coeff = qpar.inverse() if flavor == BOSONIC else -qpar
        self.exchange, self.constant = exchange_table(
            braiding.psi, self.sign_coeff, braiding.B)
        self._order_cache: dict[tuple[Token, ...], dict[Key, Scalar]] = {}
        self._l_cells: dict[tuple[int, int], dict[tuple, Scalar]] | None = None

    # -- element constructors -------------------------------------------

    def zero(self) -> DoubleElement:
        return DoubleElement(self, {})

    def one(self) -> DoubleElement:
        return DoubleElement(self, {((), ()): ONE})

    def l_gen(self, i: int, j: int) -> DoubleElement:
        return DoubleElement(self, {((i,), (j,)): ONE})

    # -- normal ordering --------------------------------------------------

    def normal_order(self, word: tuple[Token, ...] | list[Token]) -> DoubleElement:
        """Rewrite a mixed generator word into the reduced normal form."""
        word = tuple(word)
        done = self._order_cache.get(word)
        if done is None:
            done = _reduce_keys(_rewrite(word, self.exchange, self.constant, "a", "b"),
                                self.B, self.A)
            self._order_cache[word] = done
        return DoubleElement(self, done)

    # -- algebra ----------------------------------------------------------

    def multiply(self, e1: DoubleElement, e2: DoubleElement) -> DoubleElement:
        words: dict[Key, Scalar] = {}
        for (b1, a1), c1 in e1.terms.items():
            for (b2, a2), c2 in e2.terms.items():
                c12 = c1 * c2
                mid = self.normal_order(
                    tuple(("a", j) for j in a1) + tuple(("b", i) for i in b2))
                for (bm, am), d in mid.terms.items():
                    add_term(words, (b1 + bm, am + a2), c12 * d)
        return DoubleElement(self, _reduce_keys(words, self.B, self.A))

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
                    if not aw2:  # the counit kills surviving annihilators
                        add_term(out, bw2, ca * cb * c)
        return out

    # -- L-matrix ----------------------------------------------------------

    def l_matrix(self) -> list[list[DoubleElement]]:
        N = self.braiding.N
        return [[self.l_gen(i, j) for j in range(N)] for i in range(N)]


def _rewrite(word: tuple[Token, ...], exchange: Moves, constant: dict,
             hi: str, lo: str) -> dict[Key, Scalar]:
    """Sort a word by the permutation rule: a `hi` token (l) directly before
    a `lo` token (k) becomes sum c (lo, i) (hi, j) over exchange[(l, k)],
    plus constant[(l, k)] times the word without the pair.  Returns the
    sorted words keyed (lo-word, hi-word), before any quotient reduction.

    The left-hand sides of the rule never overlap, so by the diamond lemma
    (Bergman 1978) every rewrite order gives this result; the leftmost
    disorder is rewritten first."""
    done: dict[Key, Scalar] = {}
    pending: dict[tuple[Token, ...], Scalar] = {word: ONE}
    while pending:
        w, coeff = pending.popitem()
        for p in range(len(w) - 1):
            if w[p][0] == hi and w[p + 1][0] == lo:
                break
        else:
            add_term(done, (tuple(i for t, i in w if t == lo),
                            tuple(i for t, i in w if t == hi)), coeff)
            continue
        l, k = w[p][1], w[p + 1][1]
        head, tail = w[:p], w[p + 2:]
        for (i, j, c) in exchange[(l, k)]:
            add_term(pending, head + ((lo, i), (hi, j)) + tail, coeff * c)
        cst = constant[(l, k)]
        if not cst.is_zero():
            add_term(pending, head + tail, coeff * cst)
    return done


def _reduce_keys(words: dict[Key, Scalar], lo: GradedQuotient,
                 hi: GradedQuotient) -> dict[Key, Scalar]:
    """Map sorted words keyed (lo-word, hi-word) into the two quotients."""
    out: dict[Key, Scalar] = {}
    for (lw, hw), c in words.items():
        for lw2, cl in lo.normal_form_word(lw).items():
            for hw2, ch in hi.normal_form_word(hw).items():
                add_term(out, (lw2, hw2), c * cl * ch)
    return out


def double_family(b: Braiding) -> str:
    """The family of the double on b: hecke for a Hecke or involutive
    braiding, the family of its series for a BMW one."""
    if b.kind in (HECKE, INVOLUTIVE):
        return FAMILY_HECKE
    family = {"orthogonal": FAMILY_BMW_ORTH,
              "symplectic": FAMILY_BMW_SYMPL}.get(b.series)
    if family is None:
        raise UnsupportedDouble(f"BMW braiding {b.name!r} declares no series")
    return family


def _check_admissible(b: Braiding, flavor: str):
    if flavor not in (BOSONIC, FERMIONIC):
        raise UnsupportedDouble(f"unknown flavor {flavor!r}")
    family = double_family(b)
    fixed = SERIES_FLAVOR.get(family, flavor)
    if flavor != fixed:
        raise UnsupportedDouble(f"the {family} double is {fixed}")


def make_double(b: Braiding, flavor: str) -> FockDouble:
    """Construct the Fock double of the given flavor on a braiding."""
    return FockDouble(b, flavor)


# ---------------------------------------------------------------------------
# L-relation verification.  Matrices are multiplied in the written order,
# with an operator read as (M)_x^y = its entry at row y, column x; a formal
# entry is a dict
# {tuple of generator pairs (i, j): Scalar}, the tuple standing for the
# product of the l_i^j in that order.  Both checks evaluate one net formal
# combination per cell (_l_identity_cells), built once per double with the
# outer grid's polynomial denominators cleared: the identity is linear and
# homogeneous in the outer grid O, so for a nonzero scalar D the grid D*O
# satisfies it in exactly the cells where O does, and with D the product of
# O's non-monomial denominators every coefficient stays Laurent.
# ---------------------------------------------------------------------------

def _formal_l1(N: int) -> FormalMatrix:
    l1: FormalMatrix = {}
    for i, a, j in itertools.product(range(N), repeat=3):
        l1.setdefault(enc_index((i, a), N), {})[enc_index((j, a), N)] = {((i, j),): ONE}
    return l1


def _defining_products(b: Braiding, outer: LinOperator) -> tuple[FormalMatrix,
                                                                  FormalMatrix]:
    """The written matrices O12 L1 R12 L1 and L1 R12 L1 O12 for an outer
    grid O.  With O = R the twist maps the first to the second."""
    rw, ow, l1 = formal_grid(b.R), formal_grid(outer), _formal_l1(b.N)
    return (formal_mul(formal_mul(formal_mul(ow, l1), rw), l1),
            formal_mul(formal_mul(formal_mul(l1, rw), l1), ow))


def _reflection_partner(d: FockDouble) -> LinOperator:
    """The outer grid of the quadratic identity: R itself for the Hecke
    family, the two-eigenvalue idempotent sum for BMW."""
    b = d.braiding
    if d.family == FAMILY_HECKE:
        return b.R
    pr = b.spectral_projectors
    if d.family == FAMILY_BMW_ORTH:
        return pr["q"] + pr["mu"]
    return pr["-1/q"] + pr["mu"]


def _cleared(op: LinOperator) -> LinOperator:
    """D * op, with D the product of the distinct non-monomial denominators
    among op's entries (D = 1 when op is Laurent, as every Hecke R is)."""
    dens = {v.den for _, _, v in op.nonzeros() if len(v.den) > 1}
    if not dens:
        return op
    clear = ONE
    for den in dens:
        clear = clear * Scalar(den, ONE.den)
    return op.scale(clear)


def _l_identity_cells(d: FockDouble) -> dict[tuple[int, int], dict[tuple, Scalar]]:
    """The nonzero net combinations O L1 R12 L1 - L1 R12 L1 O - O L1 + L1 O
    by cell (x, y), O the cleared outer grid; built once per double."""
    if d._l_cells is None:
        n2 = d.braiding.N ** 2
        outer = _cleared(_reflection_partner(d))
        quad_lhs, quad_rhs = _defining_products(d.braiding, outer)
        ow, l1 = formal_grid(outer), _formal_l1(d.braiding.N)
        lin_lhs, lin_rhs = formal_mul(ow, l1), formal_mul(l1, ow)
        cells = {}
        for x, y in itertools.product(range(n2), repeat=2):
            net: dict[tuple, Scalar] = {}
            for side, sign in ((quad_lhs, ONE), (quad_rhs, _MINUS_ONE),
                               (lin_lhs, _MINUS_ONE), (lin_rhs, ONE)):
                sum_into(net, formal_cell(side, x, y), sign)
            if net:
                cells[(x, y)] = net
        d._l_cells = cells
    return d._l_cells


def _failing_cells(d: FockDouble, value_of) -> list[tuple[int, int]]:
    """The cells whose net combination is not zero once each generator-pair
    key is replaced by value_of(key), a sparse dict; each distinct key is
    evaluated once."""
    values: dict[tuple, dict] = {}
    failures = []
    for cell, net in _l_identity_cells(d).items():
        total: dict = {}
        for key, c in net.items():
            value = values.get(key)
            if value is None:
                value = values[key] = value_of(key)
            sum_into(total, value, c)
        if total:
            failures.append(cell)
    return failures


def verify_l_relations(d: FockDouble) -> dict:
    """Exact check of the quadratic L-identity satisfied by l_i^j = x_i x^j.

    Hecke family:  R12 L1 R12 L1 - L1 R12 L1 R12 = R12 L1 - L1 R12.
    BMW family:    PP12 L1 R12 L1 - L1 R12 L1 PP12 = PP12 L1 - L1 PP12,
    with PP the sum of the q and mu idempotents (orthogonal) or of the
    -1/q and mu idempotents (symplectic).

    Both sides are formed as formal products; each entry's net coefficient
    of every generator-pair key is then evaluated in the double, each
    distinct key once.  The outer grid enters scaled by the product D of its
    non-monomial denominators: both sides are linear in it, so D * PP fails
    in exactly the cells where PP does, and every product stays Laurent.
    """
    def element(key: tuple) -> dict[Key, Scalar]:
        value = d.l_gen(*key[0])
        for pair in key[1:]:
            value = value * d.l_gen(*pair)
        return value.terms

    failures = _failing_cells(d, element)
    return {"passed": not failures, "entries": d.braiding.N ** 4,
            "failures": failures, "family": d.family}


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
        g = b.spectral_projectors["-1/q"]
    else:
        g = b.spectral_projectors["q"]
    qpar = b.q
    coeff = (qpar * qpar) if d.flavor == BOSONIC else (qpar * qpar).inverse()
    return g, coeff


def _ideal_failures(relations: list[Tensor], tag: str, other: str,
                    before: bool, N: int, order) -> list[tuple[int, Tensor]]:
    """The (generator, relation) pairs for which a quadratic relation in
    the `tag` tokens, times an `other` generator placed before or after it,
    does not normal-order to zero."""
    out = []
    for rel in relations:
        for g in range(N):
            total: dict[Key, Scalar] = {}
            for (i, j), c in rel.items():
                pair = ((tag, i), (tag, j))
                sum_into(total, order(((other, g),) + pair if before
                                      else pair + ((other, g),)), c)
            if total:
                out.append((g, rel))
    return out


def _reduce_first(word: tuple[Token, ...], algebras: dict, order) -> dict[Key, Scalar]:
    """Reduce each maximal same-tag run of a word in its quotient, then
    normal-order every resulting word."""
    words: dict[tuple[Token, ...], Scalar] = {(): ONE}
    for tag, run in itertools.groupby(word, key=lambda t: t[0]):
        nf = algebras[tag].normal_form_word(tuple(i for _, i in run))
        words = {w + tuple((tag, i) for i in rw): c * cr
                 for w, c in words.items() for rw, cr in nf.items()}
    out: dict[Key, Scalar] = {}
    for w, c in words.items():
        sum_into(out, order(w), c)
    return out


def _diamond_failures(N: int, hi: str, lo: str, algebras: dict,
                      order) -> list[tuple[Token, ...]]:
    """The mixed degree-3 words whose exchange-first normal form (rewrite,
    then reduce in the quotients) differs from the reduce-first one."""
    out = []
    for pattern in itertools.product((hi, lo), repeat=3):
        if hi not in pattern or lo not in pattern:
            continue
        for idx in itertools.product(range(N), repeat=3):
            word = tuple(zip(pattern, idx))
            if order(word) != _reduce_first(word, algebras, order):
                out.append(word)
    return out


def verify_compatibility(d: FockDouble) -> dict:
    """Three exact checks that the permutation rule respects the quotient
    relations on both sides.

    (i) the closed matrix identity behind the compatibility proof, checked
        on free words sorted by the double's own rule (_rewrite), where
        both sides are nonzero: each word holds one annihilator, so the
        sorted words need no quotient reduction;
    (ii) ideal annihilation in the quotient double: each relation times a
        generator normal-orders to zero;
    (iii) the diamond test on every mixed degree-3 word: normal ordering
        the free word (exchange first) agrees with reducing each same-tag
        run in its quotient first and then normal ordering.
    """
    b = d.braiding
    N = b.N
    report: dict = {"closed_identity": True, "ideal_checks": True,
                    "diamond": True, "witnesses": []}

    @functools.lru_cache(maxsize=None)
    def free_order(word: tuple[Token, ...]) -> dict[Key, Scalar]:
        return _rewrite(word, d.exchange, d.constant, "a", "b")

    g, coeff = _ideal_generator_operator(d)
    m3 = place(g, (1, 2), 3) @ place(b.R, (2, 3), 3) @ place(b.R, (1, 2), 3)
    for i2, i3, j3 in itertools.product(range(N), repeat=3):
        lhs: dict[Key, Scalar] = {}
        for a, bb in itertools.product(range(N), repeat=2):
            c = g.entry((a, bb), (i2, i3))
            if not c.is_zero():
                sum_into(lhs, free_order((("b", a), ("b", bb), ("a", j3))), c)
        rhs: dict[Key, Scalar] = {}
        for a, bb, e in itertools.product(range(N), repeat=3):
            c = m3.entry((bb, e, j3), (a, i2, i3))
            if not c.is_zero():
                sum_into(rhs, free_order((("a", a), ("b", bb), ("b", e))),
                         c * coeff)
        if lhs != rhs:
            report["closed_identity"] = False
            report["witnesses"].append(("closed", (i2, i3, j3)))

    def order(word):
        return d.normal_order(word).terms

    ideal = [("b-ideal", l, tuple(rel))
             for l, rel in _ideal_failures(d.B.relations, "b", "a", True, N, order)]
    ideal += [("a-ideal", k, tuple(rel))
              for k, rel in _ideal_failures(d.A.relations, "a", "b", False, N, order)]
    diamond = _diamond_failures(N, "a", "b", {"a": d.A, "b": d.B}, order)
    report["ideal_checks"] = not ideal
    report["diamond"] = not diamond
    report["witnesses"] += ideal + [("diamond", w) for w in diamond]

    report["passed"] = (report["closed_identity"] and report["ideal_checks"]
                        and report["diamond"])
    return report


# ---------------------------------------------------------------------------
# finite-dimensional representations on homogeneous components
# ---------------------------------------------------------------------------

def fock_representation(d: FockDouble, k: int) -> dict[tuple[int, int], list[Row]]:
    """Matrices of the l_i^j generators on the degree-k creation component,
    by columns: column c, the image of basis word c, is row c of the
    transpose."""
    if k < 1:
        raise ValueError("k must be at least 1")
    comp = d.B.component(k)
    if not comp.basis:
        raise EmptyComponent(f"component {k} of the creation algebra is zero")
    N = d.braiding.N
    out = {}
    for i in range(N):
        for j in range(N):
            cols: list[Row] = []
            for w in comp.basis:
                col: Row = {}
                for y, c in d.act((j,), w).items():
                    for w2, c2 in d.B.normal_form_word((i,) + y).items():
                        add_term(col, comp.basis_index[w2], c * c2)
                cols.append(col)
            out[(i, j)] = cols
    return out


def representation_l_relations_ok(d: FockDouble, k: int) -> bool:
    """Check the family L-identity for the representing matrices on
    component k.  Every cell's net combination, the one verify_l_relations
    evaluates (outer grid cleared of its denominators, which is exact as the
    identity is linear in that grid), must give the zero matrix once each
    generator-pair key is replaced by the written product of the sparse
    representing matrices, each distinct key formed once: on column lists
    the product a b is mat_mul(b, a)."""
    reps = fock_representation(d, k)

    def matrix(key: tuple) -> dict[tuple[int, int], Scalar]:
        cols = functools.reduce(lambda a, b: mat_mul(b, a), (reps[pair] for pair in key))
        return {(r, c): v for c, col in enumerate(cols) for r, v in col.items()}

    return not _failing_cells(d, matrix)


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
    # the variant rule is the generic rule on F Psi^T F and C^T (F the
    # flip), with the left-dual generators "t" in the place of creators
    exch, const = exchange_table(dual_square(b.psi), b.q.inverse(),
                                 mat_transpose(b.C, N))
    balg = make_algebra(b, "sym", "V")
    astar = make_algebra(b, "sym", "V*")
    bcols = mat_transpose(b.B, N)    # bcols[a][t] = B_t^a
    trels = []
    for rel in astar.relations:
        out: Tensor = {}
        for (a, bb), c in rel.items():
            for t, bt in bcols[a].items():
                for u, bu in bcols[bb].items():
                    add_term(out, (t, u), c * bt * bu)
        trels.append(out)
    atilde = GradedQuotient(N, "V*", "sym", trels, name="left-dual side")

    @functools.lru_cache(maxsize=None)
    def order(word: tuple[Token, ...]) -> dict[Key, Scalar]:
        return _reduce_keys(_rewrite(word, exch, const, "b", "t"), atilde, balg)

    diamond = _diamond_failures(N, "b", "t", {"b": balg, "t": atilde}, order)
    ideal = ([("b-ideal", l) for l, _ in
              _ideal_failures(balg.relations, "b", "t", False, N, order)]
             + [("tilde-ideal", k) for k, _ in
                _ideal_failures(trels, "t", "b", True, N, order)])
    return {"diamond": not diamond, "ideal_checks": not ideal,
            "witnesses": [("diamond", w) for w in diamond] + ideal,
            "passed": not diamond and not ideal}


# ---------------------------------------------------------------------------
# braided Lie structure
# ---------------------------------------------------------------------------

@dataclass
class BraidedLie:
    """The braided Lie data, each map by columns over the N^4 basis
    elements l_e1 (x) l_e2 of End(V) (x) End(V), e = i*N + j for l_i^j."""
    braiding: Braiding
    rhat: list[Row]       # the twist, End(V) (x) End(V) -> itself
    comp: list[Row]       # composition l (x) l -> l, rows over the N^2 l_e
    bracket: list[Row]    # comp o (I - rhat)
    rtrace: list[Scalar]  # R-trace of each l_i^j
    alpha: Scalar


def _pair_code(key: tuple, N: int) -> int:
    """Index in End(V) (x) End(V) of a quadratic key ((i, j), (k, m))."""
    (i, j), (k, m) = key
    return enc_index((i * N + j, k * N + m), N * N)


# The Lie suite's cost is the solve for the twist of braided_lie, a system
# of N^4 sparse rows in as many unknowns: 1296 at N = 6 (about a second),
# 2401 at N = 7.
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
            f"its twist is solved from a sparse linear system of {N ** 4} rows "
            f"in {N ** 4} unknowns")
    n2 = N * N
    n4 = n2 * n2
    m_rlrl, m_lrlr = _defining_products(b, b.R)

    def to_rows(formal: FormalMatrix) -> list[Row]:
        return [{_pair_code(key, N): v for key, v in formal_cell(formal, x, y).items()}
                for x in range(n2) for y in range(n2)]

    # rhat applied to the coefficient vector of each entry of m_rlrl gives
    # the corresponding entry of m_lrlr: rhat = X^T with M1 X = M2, so the
    # rows of X are the columns of rhat
    rhat = solve(to_rows(m_rlrl), to_rows(m_lrlr), n4)
    if rhat is None:
        raise RhatNotDetermined("coefficient matrix of the defining property is singular")

    # l_i^j l_k^m = B_k^j l_i^m; columns phi = (i*N + j)*N^2 + k*N + m
    comp = [{i * N + m: v} if (v := b.B[k].get(j)) is not None else {}
            for i, j, k, m in itertools.product(range(N), repeat=4)]
    # bracket = comp o (I - rhat), by columns
    bracket = [lincomb(((ONE, comp[c]), (_MINUS_ONE, rc)))
               for c, rc in enumerate(mat_mul(rhat, comp))]

    # Tr_R l_i^j = Tr(C * mat(l_i^j)) with mat(l_i^j) x_k = B_k^j x_i,
    # that is sum_k C_k^i B_k^j, entry (i, j) of C^T B
    ctb = mat_mul(mat_transpose(b.C, N), b.B)
    rtrace = [ctb[i].get(j, ZERO) for i in range(N) for j in range(N)]
    alpha = b.alpha
    if alpha is None:
        raise RhatNotDetermined("B*C is not scalar; the R-trace is not normalized")
    return BraidedLie(b, rhat, comp, bracket, rtrace, alpha)


def _after_12(x: list[Row], op: list[Row], n2: int) -> list[Row]:
    """x o (op (x) id) for a two-leg op on legs 1, 2 of a three-leg space
    with legs of dimension n2; column r*n2 + c of x is (op output r, leg c)."""
    return [lincomb((v, x[r * n2 + c]) for r, v in col.items())
            for col in op for c in range(n2)]


def _after_23(x: list[Row], op: list[Row], n2: int, n_out: int) -> list[Row]:
    """x o (id (x) op) for a two-leg op on legs 2, 3 with n_out output
    indices; column a*n_out + r of x is (leg a, op output r)."""
    return [lincomb((v, x[a * n_out + r]) for r, v in col.items())
            for a in range(n2) for col in op]


def _jacobi_sides(bl: BraidedLie) -> tuple[list[Row], list[Row]]:
    """Both sides of the Jacobi identity as N^2 x N^6 matrices on
    End(V)^(x)3, by columns.  Hecke form: [,][,]_23 (I - rhat_12) and [,][,]_12;
    involutive form: [,][,]_23 (I + rhat_12 rhat_23 + rhat_23 rhat_12)
    and 0.  Each [,] and rhat acts on its two legs through its nonzero
    column entries; no N^6-square matrix is formed."""
    n2 = bl.braiding.N ** 2
    n4 = n2 * n2
    br, rh = bl.bracket, bl.rhat
    a = _after_23(br, br, n2, n2)
    a12 = _after_12(a, rh, n2)
    if bl.braiding.kind == HECKE:
        lhs = [lincomb(((ONE, p), (_MINUS_ONE, t))) for p, t in zip(a, a12)]
        rhs = _after_12(br, br, n2)
    else:
        cyc = _after_23(a12, rh, n2, n4)
        cyc2 = _after_12(_after_23(a, rh, n2, n4), rh, n2)
        lhs = [lincomb(((ONE, p), (ONE, t), (ONE, u)))
               for p, t, u in zip(a, cyc, cyc2)]
        rhs = [{}] * len(a)
    return lhs, rhs


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
    for phi, col in enumerate(bl.bracket):
        acc = ZERO
        for e, v in col.items():
            acc = acc + bl.rtrace[e] * v
        if not acc.is_zero():
            report["trace_brackets"] = False
            report["witnesses"].append(("trace-bracket", phi))

    # defining property, re-derived through the double-product expansion
    m_rlrl, m_lrlr = _defining_products(b, b.R)
    rh = bl.rhat
    for x in range(n2):
        for y in range(n2):
            got = lincomb((v, rh[_pair_code(key, N)])
                          for key, v in formal_cell(m_rlrl, x, y).items())
            want = {_pair_code(key, N): v
                    for key, v in formal_cell(m_lrlr, x, y).items()}
            if got != want:
                report["defining"] = False
                report["witnesses"].append(("defining", x, y))

    # quadratic-identity consistency: comp((I - rhat) entry) matches the
    # linear entries of R12 L1 - L1 R12
    lin_lhs = [lincomb((v, bl.bracket[_pair_code(key, N)])
                       for key, v in formal_cell(m_rlrl, x, y).items())
               for x in range(n2) for y in range(n2)]
    if lin_lhs != _linear_entries(b, N):
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


def _linear_entries(b: Braiding, N: int) -> list[Row]:
    """Linear generator coefficients of the entries of R12 L1 - L1 R12,
    entry (x, y) at column x*N^2 + y, read from the nonzero entries of R."""
    n2 = N * N
    out: list[Row] = [{} for _ in range(n2 * n2)]
    for r, c, v in b.R.nonzeros():
        # (R12 L1)_x^y = sum_z R_x^z (L1)_z^y with (L1)_z^y = delta l: a
        # nonzero R_x^z, z = (zi, yb), meets every y = (yj, yb)
        zi, yb = divmod(r, N)
        for yj in range(N):
            add_term(out[c * n2 + yj * N + yb], zi * N + yj, v)
        # (L1 R12)_x^y = sum_z (L1)_x^z R_z^y: z = (zj, xa), x = (xi, xa)
        zj, xa = divmod(c, N)
        for xi in range(N):
            add_term(out[(xi * N + xa) * n2 + r], xi * N + zj, -v)
    return out
