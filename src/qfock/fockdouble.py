"""Quantum doubles of Fock type: normal-ordering rewriting between a
creation algebra B (quotient of T(V)) and an annihilation algebra A
(quotient of T(V*)), the annihilation action, the L-matrix identities and
the braided Lie structure.

The permutation rule is stored as a rewrite

    x^l x_k  =  s * Psi_jk^il  x_i x^j  +  B_k^l,

with s = q^{-1} for the bosonic flavor and s = -q for the fermionic one
(braidings.exchange_table builds it, for the left-dual variant too).
Every rewrite either moves an annihilation generator rightward past a
creation generator or drops the pair, so normal ordering terminates.  The
rule's left-hand sides never overlap, so on free words every rewrite order
gives the same result (Bergman's diamond lemma).  One memoized step,
_pass, moves one annihilator through a word of creators under any rule
rule(hi, lo) = (moves, constant) and keeps the paired terms; annihilate
folds it into the annihilation action of the double and of the current
double (currents).  _rewrite sorts with _pass and _moved, the terms whose
annihilator came out on the right.  What can fail is
compatibility with the quotients: the closed matrix identity is checked
on free words sorted by the double's own rule, and each relation times a
generator must normal-order to zero, which also decides the diamond test
of exchange-first against reduce-first ordering (_rule_failures).

The braiding fixes the double's family and, for BMW, its flavor
(family_flavor): Hecke and involutive braidings give the hecke family,
with a bosonic or a fermionic flavor; an orthogonal BMW braiding is
bosonized and a symplectic one fermionized.  The bosonic double quotients
by the sym relations and the fermionic one by the lambda relations, each
the image of braidings.relation_operator; that operator, the double's G,
is both the G of the closed compatibility identity and the outer grid of
the L-identity, for every family.  Every q here is the braiding's own b.q.

An element of the double is a read-only dict {(creation word,
annihilation word): Scalar} of reduced normal-ordered terms.  All
identity verifications here are exact comparisons of such elements;
nothing is truncated or approximated.  A double is immutable after
construction apart from the monotone caches inside its graded quotients
and its _pass memo; verification suites are pure.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator

from .braidings import (
    BMW,
    HECKE,
    INVOLUTIVE,
    LAMBDA,
    MU_KIND,
    SYM,
    Braiding,
    _vstar_v,
    dual_square,
    exchange_table,
    mixed_transport,
    relation_operator,
)
from .errors import (
    EmptyComponent,
    NotStrictlySkewInvertible,
    QfockError,
    RhatNotDetermined,
    SizeLimitExceeded,
    UnsupportedDouble,
)
from .quadalgebras import GradedQuotient, Tensor, Word, make_algebra
from .scalars import ONE, ZERO, Scalar, add_term, nonzero_sums, sum_into
from .tensorops import (
    LinOperator,
    Row,
    dec_index,
    lincomb,
    mat_mul,
    mat_transpose,
    place,
)

# The highest creation component on which the double suite checks the
# representation identity; the CLI refuses a --degree above the largest
# that the selected suites read.
REPRESENTATION_DEGREE_MAX = 3

BOSONIC = "bosonic"
FERMIONIC = "fermionic"

FAMILY_HECKE = "hecke"

Token = tuple[str, int]          # ("b", i) creation, ("a", j) annihilation
Key = tuple[Word, Word]          # (creation word, annihilation word)

_MINUS_ONE = Scalar.from_int(-1)


class FockDouble:
    """The quantum double built on a strictly skew-invertible braiding."""

    def __init__(self, braiding: Braiding, flavor: str):
        self.family, self.flavor = family_flavor(braiding, flavor)
        if not braiding.skew.strict:
            raise NotStrictlySkewInvertible(
                "doubles need invertible partial traces of Psi")
        self.braiding = braiding
        kind = SYM if self.flavor == BOSONIC else LAMBDA
        self.A: GradedQuotient = make_algebra(braiding, kind, "V*")
        self.B: GradedQuotient = make_algebra(braiding, kind, "V")
        # the G of the closed identity and the outer grid of the L-identity,
        # which is linear in that grid and holds for the grid I: G is a*O +
        # c*I (a != 0) for O = R (Hecke family) and for O the sum of the two
        # BMW idempotents beside the middle one, and fails where O does
        self.G: LinOperator = relation_operator(braiding, kind)
        q = braiding.q
        self.sign_coeff = q.inverse() if self.flavor == BOSONIC else -q
        self.exchange, self.constant = exchange_table(
            braiding.psi, self.sign_coeff, braiding.B)
        self._order_cache: dict = {}      # the _pass memo of self.rule

    @functools.cached_property
    def l_identity_cells(self) -> dict[tuple[int, int], dict[tuple, Scalar]]:
        """The nonzero net combinations O L1 R12 L1 - L1 R12 L1 O - O L1 + L1 O
        by cell (x, y), O the double's G, each over the keys (e1, e2) of
        l_e1 l_e2 and (e,) of l_e (l_identity_sides)."""
        n2 = self.braiding.N ** 2
        o_lrl, lrl_o, o_l, l_o = l_identity_sides(self.braiding.R, self.G)
        cells = {}
        for xy, (quad, lin) in enumerate(zip(_row_differences(o_lrl, lrl_o),
                                             _row_differences(l_o, o_l))):
            cell = {divmod(col, n2): v for col, v in quad.items()}
            cell.update(((col,), v) for col, v in lin.items())
            if cell:
                cells[divmod(xy, n2)] = cell
        return cells

    def rule(self, l: int, k: int):
        """The permutation rule on x^l x_k: its moves and its constant."""
        return self.exchange[(l, k)], self.constant[(l, k)]

    def normal_order(self, word: tuple[Token, ...] | list[Token]) -> dict[Key, Scalar]:
        """Rewrite a mixed generator word into the reduced normal form."""
        return _reduce_keys(_rewrite(tuple(word), self.rule, self._order_cache, "a", "b"),
                            self.B, self.A)

    def multiply(self, e1: dict[Key, Scalar], e2: dict[Key, Scalar]) -> dict[Key, Scalar]:
        words: dict[Key, Scalar] = {}
        for (b1, a1), c1 in e1.items():
            for (b2, a2), c2 in e2.items():
                c12 = c1 * c2
                mid = self.normal_order(
                    tuple(("a", j) for j in a1) + tuple(("b", i) for i in b2))
                for (bm, am), d in mid.items():
                    add_term(words, (b1 + bm, am + a2), c12 * d)
        return _reduce_keys(words, self.B, self.A)

    def act(self, a_elem: Tensor | Word, v: Tensor | Word) -> Tensor:
        """The annihilation action a |> v, an element of B: the annihilate
        fold, then the B reduction."""
        if isinstance(a_elem, tuple):
            a_elem = {a_elem: ONE}
        if isinstance(v, tuple):
            v = {v: ONE}
        words: Tensor = {}
        for aw, ca in a_elem.items():
            sum_into(words, annihilate(self.rule, self._order_cache, aw, v), ca)
        out: Tensor = {}
        for w, c in words.items():
            sum_into(out, self.B.normal_form_word(w), c)
        return out


def _pass(rule, memo: dict, hi, word: tuple) -> dict:
    """Move one `hi` token through a word of `lo` tokens by the permutation
    rule, rule(hi, lo) = (moves [(lo', hi', c)], constant): hi lo becomes
    sum c lo' hi' plus the constant times the empty word.  Returns the
    paired part {word': c}, where the pairing absorbed hi, memoized per
    (hi, word)."""
    done = memo.get((hi, word))
    if done is not None:
        return done
    paired: dict = {}
    if word:
        moves, constant = rule(hi, word[0])
        if not constant.is_zero():
            paired[word[1:]] = constant
        for lo2, hi2, c in moves:
            for w, c2 in _pass(rule, memo, hi2, word[1:]).items():
                add_term(paired, (lo2,) + w, c * c2)
    memo[(hi, word)] = paired
    return paired


def _moved(rule, memo: dict, hi, word: tuple) -> dict:
    """The moved part of _pass, {(word', hi'): c} where hi' came out on the
    right, memoized in the same dict under ("moved", hi, word)."""
    key = ("moved", hi, word)
    done = memo.get(key)
    if done is not None:
        return done
    moved: dict = {} if word else {((), hi): ONE}
    if word:
        for lo2, hi2, c in rule(hi, word[0])[0]:
            for (w, h), c2 in _moved(rule, memo, hi2, word[1:]).items():
                add_term(moved, ((lo2,) + w, h), c * c2)
    memo[key] = moved
    return moved


def annihilate(rule, memo: dict, his, terms: dict) -> dict:
    """The action of a word of `hi` tokens on a combination {lo-word: c},
    rightmost token first, each through the paired part of _pass: a term
    whose hi token came out on the right keeps an annihilator, which the
    counit kills."""
    for hi in reversed(his):
        out: dict = {}
        for w, c in terms.items():
            sum_into(out, _pass(rule, memo, hi, w), c)
        terms = out
    return terms


def _rewrite(word: tuple[Token, ...], rule, memo: dict, hi: str,
             lo: str) -> dict[Key, Scalar]:
    """Sort a word by the permutation rule (see _pass), right to left: a
    `lo` token is put in front of the sorted suffix, a `hi` token is passed
    through its lo part.  Returns the sorted words keyed (lo-word,
    hi-word), before any quotient reduction.

    The left-hand sides of the rule never overlap, so by the diamond lemma
    (Bergman 1978) every rewrite order gives this result."""
    done: dict[Key, Scalar] = {((), ()): ONE}
    for tag, x in reversed(word):
        if tag == lo:
            done = {((x,) + lw, hw): c for (lw, hw), c in done.items()}
            continue
        out: dict[Key, Scalar] = {}
        for (lw, hw), c in done.items():
            for w, c2 in _pass(rule, memo, x, lw).items():
                add_term(out, (w, hw), c * c2)
            for (w, h), c2 in _moved(rule, memo, x, lw).items():
                add_term(out, (w, (h,) + hw), c * c2)
        done = out
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


def family_flavor(b: Braiding, flavor: str | None = None) -> tuple[str, str]:
    """The family of the double on b and its flavor.  A Hecke or involutive
    braiding gives the hecke family with the given flavor, bosonic when it
    is None.  A BMW braiding gives the family of its series, whose flavor
    is the one whose algebras keep the mu eigenspace (MU_KIND): orthogonal
    bosonized, symplectic fermionized; a different flavor is refused."""
    if flavor not in (None, BOSONIC, FERMIONIC):
        raise UnsupportedDouble(f"unknown flavor {flavor!r}")
    if b.kind in (HECKE, INVOLUTIVE):
        return FAMILY_HECKE, flavor or BOSONIC
    if b.series not in MU_KIND:
        raise UnsupportedDouble(f"BMW braiding {b.name!r} declares no series")
    family = f"bmw-{b.series}"
    fixed = BOSONIC if MU_KIND[b.series] == SYM else FERMIONIC
    if flavor not in (None, fixed):
        raise UnsupportedDouble(f"the {family} double is {fixed}")
    return family, fixed


def make_double(b: Braiding, flavor: str) -> FockDouble:
    """Construct the Fock double of the given flavor on a braiding."""
    return FockDouble(b, flavor)


# ---------------------------------------------------------------------------
# The written L-identity.  Matrices are multiplied in the written order,
# with an operator read as (M)_x^y = its entry at row y, column x, and
# L1 = L (x) I holds l_i^j = x_i x^j in cell ((i, a), (j, a)).  A side is
# a list[Row] of N^4 cell rows, cell (x, y) at row x*N^2 + y, over the
# symbols in written order: column e = i*N + j stands for l_i^j and
# column e1*N^2 + e2 for the product l_e1 l_e2.  The double reads e as
# x_i x^j, the braided Lie twist as a basis element of End(V), and the
# spectral identity (currents) as a creation and an annihilation current.
# ---------------------------------------------------------------------------

def l_identity_sides(R: LinOperator, O: LinOperator) -> tuple[list[Row], ...]:
    """The four written sides O L1 R L1, L1 R L1 O, O L1 and L1 O of the
    L-identity  O L1 R L1 - L1 R L1 O = O L1 - L1 O  for an outer grid O,
    summed over the nonzeros of R and O.  With O = R the braided Lie
    twist maps the first side to the second."""
    N = R.dim
    n2 = N * N
    sides = tuple([{} for _ in range(n2 * n2)] for _ in range(4))
    o_lrl, lrl_o, o_l, l_o = sides
    columns: list[list[tuple[int, Scalar]]] = [[] for _ in range(n2)]
    for y, z, v in O.nonzeros():
        columns[z].append((y, v))
    # O[x][(i, a)] R[(j, a)][(k, b)] with l_i^j l_k^l in cell (x, (l, b)),
    # and R[(j, a)][(k, b)] O[(l, b)][y] with the same symbols in cell
    # ((i, a), y)
    for r, c, w in R.nonzeros():
        (k, b), (j, a) = divmod(r, N), divmod(c, N)
        for i, l in itertools.product(range(N), repeat=2):
            col = (i * N + j) * n2 + k * N + l
            ia, lb = i * N + a, l * N + b
            for x, v in O.rows[ia].items():
                add_term(o_lrl[x * n2 + lb], col, v * w)
            for y, v in columns[lb]:
                add_term(lrl_o[ia * n2 + y], col, w * v)
    # O[x][(i, a)] l_i^t in cell (x, (t, a)), and l_t^j O[(j, b)][z] in
    # cell ((t, b), z)
    for z, x, v in O.nonzeros():
        (i, a), (j, b) = divmod(z, N), divmod(x, N)
        for t in range(N):
            add_term(o_l[x * n2 + t * N + a], i * N + t, v)
            add_term(l_o[(t * N + b) * n2 + z], t * N + j, v)
    return sides


def _row_differences(a: list[Row], b: list[Row]) -> list[Row]:
    """The rows of a - b."""
    return [lincomb(((ONE, ra), (_MINUS_ONE, rb))) for ra, rb in zip(a, b)]


def verify_l_relations(d: FockDouble) -> list[tuple]:
    """Exact check of the quadratic L-identity satisfied by l_i^j = x_i x^j,

        G12 L1 R12 L1 - L1 R12 L1 G12 = G12 L1 - L1 G12,

    with G the double's relation operator d.G.  For the Hecke family this
    is the identity with R12 in place of G12; for BMW the one with PP12,
    the sum of the q and mu idempotents (orthogonal) or of the -1/q and mu
    idempotents (symplectic).  Returns the failing cells (x, y).

    Both sides are formed as written cell rows (l_identity_sides); each
    cell's net coefficient of every generator-pair key is then evaluated in
    the double, each distinct key once.  Every entry of G is Laurent, so
    every product stays Laurent.
    """
    N = d.braiding.N

    def element(key: tuple) -> dict[Key, Scalar]:
        return d.normal_order([t for e in key for t in (("b", e // N), ("a", e % N))])

    return nonzero_sums(d.l_identity_cells, element)


# ---------------------------------------------------------------------------
# compatibility verification
# ---------------------------------------------------------------------------

def _rule_failures(N: int, hi: str, lo: str, algebras: dict, order) -> list[tuple]:
    """The witnesses ("<tag>-ideal", generator, relation) of a permutation
    rule that sorts the `hi` tokens after the `lo` ones, order(word) being
    the rule's reduced normal form: each quadratic relation of the lo side
    after a hi generator, and of the hi side before a lo generator, must
    order to zero.  An empty list is a pass.

    These groups decide the diamond test too (Bergman 1978).  Its two
    rewrite orders can differ only where a relation overlaps the rule, on
    the words (hi, hi, lo) and (hi, lo, lo); in (hi, lo, hi) and (lo, hi,
    lo) every same-tag run is one letter, and (lo, hi, hi) and (lo, lo, hi)
    are sorted.  On an overlap word the two orders differ by
    order(w - nf(w) times a generator), w a degree-2 word of one side and
    nf its normal form in that side's quotient.  As w ranges, the w - nf(w)
    span that side's relation space, and so does its relation basis; order
    is linear, so every diamond combination orders to zero exactly when
    every group here does."""
    groups: dict = {}
    for tag, other, before in ((lo, hi, True), (hi, lo, False)):
        for r, rel in enumerate(algebras[tag].relations):
            for g in range(N):
                gen = ((other, g),)
                groups[(tag, g, r)] = {
                    gen + ((tag, i), (tag, j)) if before else ((tag, i), (tag, j)) + gen: c
                    for (i, j), c in rel.items()}
    return [(f"{tag}-ideal", g, tuple(algebras[tag].relations[r]))
            for tag, g, r in nonzero_sums(groups, order)]


def verify_compatibility(d: FockDouble) -> Iterator[tuple[str, str, list]]:
    """Yield (check id, anchor, witnesses) for three exact checks that the
    permutation rule respects the quotient relations on both sides, each
    as it finishes:

    (i) the closed matrix identity behind the compatibility proof, checked
        on free words sorted by the double's own rule (_rewrite), where
        both sides are nonzero: each word holds one annihilator, so the
        sorted words need no quotient reduction;
    (ii) ideal annihilation in the quotient double: each relation times a
        generator normal-orders to zero (_rule_failures);
    (iii) the diamond test on the overlap words (a, a, b) and (a, b, b):
        normal ordering the free word (exchange first) agrees with reducing
        each same-tag run in its quotient first and then normal ordering.
        It holds exactly when (ii) does (see _rule_failures), so it reads
        the verdict and the witnesses of (ii).
    """
    b = d.braiding
    N = b.N
    # the closed identity  G(R_23) x_2 x_3 x^<3| = c * x^<1| R12 R23 G(R_12) x_1 x_2,
    # G the B side's relation operator and c = q^2 (bosonic) or q^-2, as one
    # combination per (i2, i3, j3): the G words minus c times the R words
    minus_c = -(b.q * b.q) if d.flavor == BOSONIC else -(b.q * b.q).inverse()
    m3 = place(d.G, (1, 2), 3) @ place(b.R, (2, 3), 3) @ place(b.R, (1, 2), 3)
    groups: dict = {key: {} for key in itertools.product(range(N), repeat=3)}
    for r, col, v in d.G.nonzeros():
        (a, bb), (i2, i3) = dec_index(r, N, 2), dec_index(col, N, 2)
        for j3 in range(N):
            groups[(i2, i3, j3)][(("b", a), ("b", bb), ("a", j3))] = v
    for r, col, v in m3.nonzeros():
        (bb, e, j3), (a, i2, i3) = dec_index(r, N, 3), dec_index(col, N, 3)
        groups[(i2, i3, j3)][(("a", a), ("b", bb), ("b", e))] = minus_c * v
    closed = nonzero_sums(
        groups, lambda word: _rewrite(word, d.rule, d._order_cache, "a", "b"))
    yield ("compatibility-closed-identity",
           "G(R23) x2 x3 x^<3| = q^{+-2} x^<1| R12 R23 G(R12) x1 x2",
           [("closed", key) for key in closed])
    ideals = _rule_failures(N, "a", "b", {"a": d.A, "b": d.B}, d.normal_order)
    yield "compatibility-ideals", "relations times a generator order to zero", ideals
    yield "diamond-degree-3", "two rewrite orders agree on mixed words", ideals


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
    acted = [[d.act((j,), w) for w in comp.basis] for j in range(N)]
    out = {}
    for i in range(N):
        for j in range(N):
            cols: list[Row] = []
            for image in acted[j]:
                col: Row = {}
                for y, c in image.items():
                    for w2, c2 in d.B.normal_form_word((i,) + y).items():
                        add_term(col, comp.basis_index[w2], c * c2)
                cols.append(col)
            out[(i, j)] = cols
    return out


def representation_l_relations_ok(d: FockDouble,
                                  reps: dict[tuple[int, int], list[Row]]) -> bool:
    """Whether representation_l_failures(d, reps) is empty."""
    return not representation_l_failures(d, reps)


def representation_l_failures(d: FockDouble,
                              reps: dict[tuple[int, int], list[Row]]) -> list:
    """The failing cells (x, y) of the family L-identity for the matrices
    reps of d on one component (fock_representation): each cell's net
    combination of verify_l_relations, with every key replaced by the
    written product of the sparse matrices (on column lists a b is
    mat_mul(b, a)), each distinct key formed once, must be zero."""
    N = d.braiding.N

    def matrix(key: tuple) -> dict[tuple[int, int], Scalar]:
        cols = functools.reduce(lambda a, b: mat_mul(b, a),
                                (reps[divmod(e, N)] for e in key))
        return {(r, c): v for c, col in enumerate(cols) for r, v in col.items()}

    return nonzero_sums(d.l_identity_cells, matrix)


def double_records(b: Braiding, flavor: str | None, degree: int):
    """Yield the records of the double of b and flavor: construction,
    compatibility, the L-identity in the double and on each nonzero creation
    component of degree 1 to max(1, min(degree, REPRESENTATION_DEGREE_MAX)),
    the left-dual variant."""
    family, flavor = family_flavor(b, flavor)
    anchor = f"double ({family}, {flavor})"
    try:
        d = make_double(b, flavor)
    except QfockError as exc:
        yield "double-construction", anchor, [exc], exc
        return
    yield "double-construction", anchor, []
    yield from verify_compatibility(d)
    o = "R12" if family == FAMILY_HECKE else "PP12"
    yield ("l-quadratic-identity", f"{o} L1 R12 L1 - L1 R12 L1 {o} = {o} L1 - L1 {o}",
           verify_l_relations(d))
    for k in range(1, max(1, min(degree, REPRESENTATION_DEGREE_MAX)) + 1):
        if not d.B.component(k).basis:
            break
        yield (f"representation-identity-k{k}",
               "the L-identity holds for the representing matrices",
               representation_l_failures(d, fock_representation(d, k)))
    if family == FAMILY_HECKE and flavor == BOSONIC:
        yield ("left-dual-variant", "left-dual rule is diamond and ideal consistent "
               "after the B^{-1} change of basis", left_dual_variant_report(d))


# ---------------------------------------------------------------------------
# optional left-dual variant of the permutation rule
# ---------------------------------------------------------------------------

def left_dual_variant_report(d: FockDouble) -> list[tuple]:
    """Consistency of the left-dual permutation rule of a bosonic
    Hecke-family double d: its "b-ideal" and "t-ideal" witnesses
    (_rule_failures), empty on a pass.

    The variant rule  x_k x~^l = q^{-1} Psi_kj^li x~^j x_i + C_k^l  orders
    left-dual generators in front of creation generators.  The dual-side
    relations of d are transported into the left-dual basis through the
    change of basis x^a = B_t^a x~^t, and the variant must pass the same
    ideal-annihilation check as the main double, which decides its diamond
    test too.  No isomorphism between the two doubles is asserted.
    """
    if d.family != FAMILY_HECKE or d.flavor != BOSONIC:
        raise UnsupportedDouble("the left-dual variant is stated for the "
                                "bosonic Hecke-family double")
    b = d.braiding
    N = b.N
    # the variant rule is the generic rule on F Psi^T F and C^T (F the
    # flip), with the left-dual generators "t" in the place of creators
    exch, const = exchange_table(dual_square(b.psi), b.q.inverse(),
                                 mat_transpose(b.C, N))
    bcols = mat_transpose(b.B, N)    # bcols[a][t] = B_t^a
    trels = []
    for rel in d.A.relations:
        out: Tensor = {}
        for (a, bb), c in rel.items():
            for t, bt in bcols[a].items():
                for u, bu in bcols[bb].items():
                    add_term(out, (t, u), c * bt * bu)
        trels.append(out)
    atilde = GradedQuotient(N, trels, name="left-dual side")

    memo: dict = {}

    def rule(l: int, k: int):
        return exch[(l, k)], const[(l, k)]

    def order(word: tuple[Token, ...]) -> dict[Key, Scalar]:
        return _reduce_keys(_rewrite(word, rule, memo, "b", "t"), atilde, d.B)

    return _rule_failures(N, "b", "t", {"b": d.B, "t": atilde}, order)


# ---------------------------------------------------------------------------
# braided Lie structure
# ---------------------------------------------------------------------------

class BraidedLie:
    """The braided Lie data, each map by columns over the N^4 basis
    elements l_e1 (x) l_e2 of End(V) (x) End(V), e = i*N + j for l_i^j."""

    def __init__(self, braiding: Braiding, rhat: list[Row], comp: list[Row],
                 bracket: list[Row], rtrace: list[Scalar], alpha: Scalar):
        self.braiding = braiding
        self.rhat = rhat          # the twist, End(V) (x) End(V) -> itself
        self.comp = comp          # composition l (x) l -> l, rows over the N^2 l_e
        self.bracket = bracket    # comp o (I - rhat)
        self.rtrace = rtrace      # R-trace of each l_i^j
        self.alpha = alpha


# The Lie suite's cost grows fast with N.  On a 2-vCPU box, `verify
# --suite lie` on std-hecke takes about 0.2 s at N = 4 and 0.5 s at N = 6,
# with a peak RSS of 17 and 19 MB; at N = 8, with this limit raised, it
# takes 1.1 to 1.6 s and 23 MB.  Most of the time is the streamed Jacobi
# check (_jacobi_failure), which walks the nonzero summands of N^2
# third-leg blocks of N^4 columns each.
LIE_MAX_N = 6


def braided_lie(b: Braiding) -> BraidedLie:
    """Build the braided-Lie twist on End(V) (x) End(V) from the dual
    extensions of R, and assemble the composition, bracket and R-trace
    data.  verify_lie holds the twist against the L-identity it is meant
    to satisfy."""
    if b.kind not in (HECKE, INVOLUTIVE):
        raise UnsupportedDouble("braided Lie structure needs a Hecke or involutive braiding")
    if not b.skew.strict:
        raise NotStrictlySkewInvertible("braided Lie structure needs strictness")
    N = b.N
    if N > LIE_MAX_N:
        raise SizeLimitExceeded(
            f"braided Lie structure at N = {N} exceeds the limit N <= {LIE_MAX_N}: "
            f"its Jacobi check walks {N ** 6} columns in {N ** 2} blocks")

    # the twist is P_23^-1 (R^-1)_12 D_34 P_23 on the legs (V, V*, V, V*)
    # of l_e1 (x) l_e2, with P and D the extensions of R to V* (x) V and
    # to V* (x) V*; rhat holds it by columns
    legs = ("V", "V", "V*", "V*")
    twist = (place(mixed_transport(b.R), (2, 3), 4, labels=legs)
             @ place(b.R.inverse(), (1, 2), 4, labels=legs)
             @ place(dual_square(b.R), (3, 4), 4, labels=legs)
             @ place(_vstar_v(b), (2, 3), 4, labels=("V", "V*", "V", "V*")))
    rhat = mat_transpose(twist.rows, N ** 4)

    # l_i^j l_k^m = B_k^j l_i^m; columns phi = (i*N + j)*N^2 + k*N + m
    comp = [{i * N + m: v} if (v := b.B[k].get(j)) is not None else {}
            for i, j, k, m in itertools.product(range(N), repeat=4)]
    # bracket = comp o (I - rhat), by columns
    bracket = [lincomb(((ONE, comp[c]), (_MINUS_ONE, rc)))
               for c, rc in enumerate(mat_mul(rhat, comp))]

    # Tr_R l_i^j = sum_{a,k} C_a^k mat(l_i^j)_k^a, with C_a^k = C[a][k] (lower
    # index first, as B_k^j = B[k][j]) and mat(l_i^j) x_k = B_k^j x_i, so
    # mat(l_i^j)_k^a = delta_i^a B_k^j: the trace is sum_k C_i^k B_k^j,
    # entry (i, j) of C B.  Each sum pairs an upper index with a lower one,
    # which keeps the trace covariant under a change of basis of V.
    cb = mat_mul(b.C, b.B)
    rtrace = [cb[i].get(j, ZERO) for i in range(N) for j in range(N)]
    alpha = b.alpha
    if alpha is None:
        raise RhatNotDetermined("B*C is not scalar; the R-trace is not normalized")
    return BraidedLie(b, rhat, comp, bracket, rtrace, alpha)


def _jacobi_failure(bl: BraidedLie) -> tuple[int, tuple[int, int]] | None:
    """Where the Jacobi identity fails on End(V)^(x)3, whose column
    (e1, e2, e3) is e1*N^4 + e2*N^2 + e3; a = [,] o [,]_23 takes it to
    [l_e1, [l_e2, l_e3]].  The first failing third-leg block c ends the
    check, which returns c and the first column (e1, e2) of that block
    where the two sides differ; None when the identity holds.

    The identity is checked in its Leibniz form, a (I - rhat_12) = [,] o
    [,]_12, for every kind: an involutive rhat is the Hecke case at q = 1,
    and with [,] (I + rhat) = 0 and rhat natural for [,] the cyclic form
    a (I + rhat_12 rhat_23 + rhat_23 rhat_12) = 0 holds exactly when this
    one does.  Neither rhat_12 nor [,]_12 moves the third leg, so the check
    walks over its index c.  It holds only the nonzero columns (e1, e2, c)
    of a, built from the nonzero [l_e2, l_c] and [l_e1, l_s].  It scatters
    each of them through its row of the twist, and each nonzero [l_r, l_c]
    through row r of the bracket, which gives a rhat_12 + [,] o [,]_12 on
    the block; a must equal it there, column by column.  Every summand it
    adds is nonzero."""
    n2 = bl.braiding.N ** 2
    br = bl.bracket
    twist_rows = mat_transpose(bl.rhat, n2 * n2)
    bracket_rows = mat_transpose(br, n2)
    # live[s]: the e1 whose bracket column [l_e1, l_s] is nonzero
    live = [[e1 for e1 in range(n2) if br[e1 * n2 + s]] for s in range(n2)]
    for c in range(n2):
        a: dict[int, Row] = {}
        for e2 in range(n2):
            for s, v in br[e2 * n2 + c].items():
                for e1 in live[s]:
                    sum_into(a.setdefault(e1 * n2 + e2, {}), br[e1 * n2 + s], v)
        a = {k: col for k, col in a.items() if col}
        # a rhat_12 + [,] o [,]_12 on the columns (k, c)
        image: dict[int, Row] = {}
        for r, ar in a.items():
            for k, v in twist_rows[r].items():
                sum_into(image.setdefault(k, {}), ar, v)
        for r, row in enumerate(bracket_rows):
            if brc := br[r * n2 + c]:
                for k, v in row.items():
                    sum_into(image.setdefault(k, {}), brc, v)
        image = {k: col for k, col in image.items() if col}
        if a != image:
            return c, divmod(min(k for k in a.keys() | image.keys()
                                 if a.get(k) != image.get(k)), n2)
    return None


def lie_records(b: Braiding):
    """Yield the records of the braided Lie structure on b, or of its
    refusal for a BMW b: the twist, then verify_lie's."""
    if b.kind == BMW:
        yield ("braided-lie", "not defined for BMW braidings (refused)", None,
               "the BMW quadratic identity determines no twist")
        return
    anchor = "twist P_23^-1 (R^-1 (x) D) P_23 from the dual extensions of R"
    try:
        bl = braided_lie(b)
    except SizeLimitExceeded:
        raise
    except QfockError as exc:
        yield "rhat-reconstruction", anchor, [exc], exc
    else:
        yield "rhat-reconstruction", anchor, []
        yield from verify_lie(bl)


def verify_lie(bl: BraidedLie) -> Iterator[tuple[str, str, list]]:
    """Yield (check id, anchor, witnesses) for each check of the braided
    Lie data as it finishes: the Jacobi identity, checked leg-locally one
    third-leg index at a time (_jacobi_failure), the R-trace normalization
    on generators, the vanishing of the R-trace on all basis brackets, the
    defining property of the twist, and the consistency of the quadratic
    L-identity with the bracket.
    """
    b = bl.braiding
    N = b.N
    n2 = N * N
    # Jacobi identity in its Leibniz form,
    #   [,] o [,]_23 o (I - rhat_12) = [,] o [,]_12,
    # whose q -> 1 limit is the classical [x,[y,z]] - [y,[x,z]] = [[x,y],z];
    # checked before the L-identity sides are built, so that its working
    # set and theirs never add up
    failure = _jacobi_failure(bl)
    yield ("jacobi", "[,][,]_23 (I - twist_12) = [,][,]_12",
           [] if failure is None else [("jacobi-hecke", *failure)])

    # trace on generators: alpha * delta
    yield ("rtrace-generators", "Tr_R l_i^j = alpha delta_i^j",
           [("trace-gen", i, j) for i, j in itertools.product(range(N), repeat=2)
            if bl.rtrace[i * N + j] != (bl.alpha if i == j else ZERO)])

    # trace on brackets: Tr_R [l_e1, l_e2] = 0
    yield "rtrace-brackets", "Tr_R of every basis bracket vanishes", [
        ("trace-bracket", phi) for phi, col in enumerate(bl.bracket)
        if not sum((bl.rtrace[e] * v for e, v in col.items()), ZERO).is_zero()]

    # defining property: rhat takes each cell of the first quadratic side
    # R12 L1 R12 L1 to the same cell of the second, L1 R12 L1 R12
    quadratic, twisted, o_l, l_o = l_identity_sides(b.R, b.R)
    yield ("rhat-defining", "R12 L1 R12 L1 maps to L1 R12 L1 R12",
           [("defining", *divmod(xy, n2)) for xy, (got, want)
            in enumerate(zip(mat_mul(quadratic, bl.rhat), twisted)) if got != want])

    # quadratic-identity consistency: comp((I - rhat) cell) of the first
    # quadratic side matches the cell of the linear side R12 L1 - L1 R12
    yield ("bracket-quadratic-consistency",
           "composing the quadratic identity reproduces the bracket",
           [] if mat_mul(quadratic, bl.bracket) == _row_differences(o_l, l_o)
           else [("quadratic",)])
