"""Current doubles of Zamolodchikov-Faddeev type: mode-level rewriting,
truncated Fock modules, and exact verification of the spectral L-identity.

Mode conventions.  Creation currents expand as x_i(u) = sum_m x_i[m]
u^(-m-1); dual currents are indexed so that the pairing with a creation
mode fires exactly at k + l = 1, which puts x^j(u) = sum_k x^j[k] u^(1-k).
With delta(u - v) = sum_p v^p u^(-p-1) and the region |u| > |v| fixed for
1/(u - v) = sum_{p>=0} v^p u^(-p-1), the mode permutation rule

    x^a[k] x_b[l]  =  q^{-1} x_i[l] x^j[k] Psi_jb^ia  +  B_b^a delta_{k+l,1}

is the coefficient form of the distribution-level exchange.  Exchange
terms keep both mode labels, so annihilation never manufactures new modes
and every matrix element between finite states is a finite sum.  The rule
is CurrentDouble.rule, in the (moves, constant) form of fockdouble._pass,
which applies it: a word of dual modes acts on a combination of creation
words {mode word: Scalar} (zf_act) through fockdouble.annihilate, the same
fold that is the Fock double's annihilation action, and a rule whose
moves shift mode labels fits the same form.

The spectral L-identity is verified through matrix elements on truncated
modules.  The two pole terms of the identity each multiply a delta-bearing
exchange remainder; those ill-defined products cancel pairwise, which is
realized here by substituting the middle exchange symbolically before any
series expansion: what remains of the pole side is a sum of four-factor
current words in which annihilators only ever meet ket modes, so its pole
summation terminates on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import inf

from .braidings import (
    Braiding,
    CurrentBraiding,
    dual_square,
    exchange_table,
)
from .errors import WindowOverflow
from .fockdouble import _pass, annihilate, l_identity_sides
from .scalars import ONE, ZERO, Scalar, add_term, sum_into
from .tensorops import echelon_insert, enc_index, remainder

Mode = tuple[int, int]               # (generator index, mode number)
ModeWord = tuple[Mode, ...]


@dataclass
class CurrentDouble:
    """The mode-level double built on a Baxterized constant braiding."""

    cb: CurrentBraiding
    window: int
    exchange: dict = field(init=False)
    constant: dict = field(init=False)
    # the _pass memo of self.rule; lives as long as the double
    annihilated: dict = field(init=False, default_factory=dict,
                              repr=False, compare=False)

    def __post_init__(self):
        b = self.cb.base
        self.exchange, self.constant = exchange_table(b.psi, b.q.inverse(), b.B)

    def rule(self, a_mode: Mode, b_mode: Mode):
        """The mode permutation rule on x^a[k] x_b[l]: the moves ((i, l),
        (j, k), c), which keep both mode labels, and the pairing constant,
        which fires exactly when k + l = 1."""
        (a, k), (b, l) = a_mode, b_mode
        moves = [((i, l), (j, k), c) for i, j, c in self.exchange[(a, b)]]
        return moves, self.constant[(a, b)] if k + l == 1 else ZERO

    @property
    def N(self) -> int:
        return self.cb.base.N


def make_current_double(cb: CurrentBraiding, window: int) -> CurrentDouble:
    return CurrentDouble(cb, window)


# ---------------------------------------------------------------------------
# mode-level rewriting
# ---------------------------------------------------------------------------

def mode_permute(cd: CurrentDouble, a_mode: Mode, b_mode: Mode):
    """Normal-ordered form of x^a[k] x_b[l]: a list of (pair, coefficient)
    where pair is ((i, l), (j, k)) for exchange terms and None for the
    pairing constant, which fires exactly when k + l = 1."""
    moves, constant = cd.rule(a_mode, b_mode)
    out = [((lo, hi), c) for lo, hi, c in moves]
    if not constant.is_zero():
        out.append((None, constant))
    return out


def _annihilate(cd: CurrentDouble, gen: int, k: int, word: ModeWord) -> dict[ModeWord, Scalar]:
    """Action of the single dual mode x^gen[k] on a creation word; the
    counit kills whatever reaches the vacuum.  Memoized per double; callers
    only read the returned dict."""
    return _pass(cd.rule, cd.annihilated, (gen, k), word)


def zf_act(cd: CurrentDouble, a_modes, terms: dict[ModeWord, Scalar]) -> dict[ModeWord, Scalar]:
    """Act with a word of dual modes on a combination {mode word: Scalar},
    rightmost mode first; a mode of the input outside cd.window raises
    WindowOverflow."""
    if isinstance(a_modes, tuple) and a_modes and isinstance(a_modes[0], int):
        a_modes = [a_modes]
    top = max((abs(m) for w in terms for _, m in w), default=0)
    if top > cd.window:
        raise WindowOverflow(f"mode {top} outside window {cd.window}")
    return annihilate(cd.rule, cd.annihilated, a_modes, terms)


# ---------------------------------------------------------------------------
# expression evaluation for the spectral identity
# ---------------------------------------------------------------------------
# An expression cell is {(factors, dist): coefficient}: factors are current
# symbols ('c'|'a', generator, 'u'|'v') multiplied in written order; dist is
# None or "delta" for a delta(u-v) prefactor.  Every word ends in an
# annihilator, because L = x_i x^j.

Factor = tuple[str, int, str]
Expr = dict[tuple[tuple[Factor, ...], str | None], Scalar]
ExpDict = dict[tuple[int, int], dict[ModeWord, Scalar]]
Entry = tuple[int, int, ModeWord]               # (u-exp, v-exp, word)
Groups = tuple[tuple[Scalar, tuple[Entry, ...]], ...]   # (coeff, its entries)
Box = tuple[float, float, float, float]         # (a_lo, a_hi, b_lo, b_hi)
OPEN: Box = (-inf, inf, -inf, inf)              # the box of a delta(u-v) reader


def _exp_shift(kind: str, mode: int) -> int:
    # creation x_i[m] sits at u^(-m-1); dual x^j[k] sits at u^(1-k)
    return -mode - 1 if kind == "c" else 1 - mode


def _eval_factors(cd: CurrentDouble, factors: tuple[Factor, ...], word: ModeWord,
                  interior_clip: int, window: int, box: Box) -> Groups:
    """Apply the prefix `factors` of a current word to `word`, rightmost
    first, tracking the (u, v)-exponents, and project the result to the
    window.

    Creation modes are enumerated within interior_clip until no annihilator
    is left to remove a mode (annihilation keeps mode labels); from there
    on words outside the window are dropped and creation modes are
    enumerated within it.  The peeled annihilator shifts one exponent by a
    ket mode, in [-window, window], and every key (a, b) that some
    coefficient u^(-r-1) v^(-s-1), |r|, |s| <= window, reads has
    -2 window - 2 <= a + b <= 2 window - 1: only the keys with
    -3 window - 2 <= a + b <= 3 window - 1 inside `box` (its reader's box
    widened by that shift) are kept, as entries (a, b, word) grouped by
    their coefficient, so that a reader forms one product per group.
    """
    leftmost_a = min((p for p, f in enumerate(factors) if f[0] == "a"),
                     default=len(factors))
    current: ExpDict = {(0, 0): {word: ONE}}
    for pos in reversed(range(len(factors))):
        kind, gen, var = factors[pos]
        clip = interior_clip if pos > leftmost_a else min(interior_clip, window)
        new: ExpDict = {}
        for (eu, ev), states in current.items():
            for w, coeff in states.items():
                if kind == "a":
                    for k in {1 - m for (_, m) in w}:
                        acted = _annihilate(cd, gen, k, w)
                        if acted:
                            shift = _exp_shift("a", k)
                            key = (eu + shift, ev) if var == "u" else (eu, ev + shift)
                            sum_into(new.setdefault(key, {}), acted, coeff)
                else:
                    for m in range(-clip, clip + 1):
                        shift = _exp_shift("c", m)
                        key = (eu + shift, ev) if var == "u" else (eu, ev + shift)
                        add_term(new.setdefault(key, {}), ((gen, m),) + w, coeff)
        if pos == leftmost_a:
            new = {key: {w: c for w, c in states.items()
                         if all(abs(m) <= window for (_, m) in w)}
                   for key, states in new.items()}
        current = {k: v for k, v in new.items() if v}
    a_lo, a_hi, b_lo, b_hi = box
    groups: dict[Scalar, list[Entry]] = {}
    for (a, b), states in current.items():
        if a_lo <= a <= a_hi and b_lo <= b <= b_hi and -3 * window - 2 <= a + b < 3 * window:
            for w, c in states.items():
                groups.setdefault(c, []).append((a, b, w))
    return tuple((c, tuple(entries)) for c, entries in groups.items())


def _ket_evaluator(cd: CurrentDouble, ket: ModeWord, prefixes: dict):
    """evaluate(factors, clip, box): a current word on `ket` as pieces
    (c, du, dv, groups), computed once per distinct (factors, clip, box).

    The word's rightmost annihilator x^j[1 - m], for each mode m of the ket,
    takes the ket to words w with coefficients c and shifts the u- or
    v-exponent by m; groups is the evaluation of the rest of the word (the
    prefix) on w.  This split is exact: _eval_factors picks each position's
    clip, and where it projects to the window, from that position's place
    relative to the word's first annihilator, which the prefix alone fixes.
    Words that come off the ket keep its modes, which lie in the window, so
    the projection that follows a peeled first annihilator is the identity.
    The same few w recur for every ket, so `prefixes` holds each prefix's
    evaluation on w once for all kets, keyed by (prefix, clip, w, box): the
    reader's key box `box`, widened by the window on the peeled variable.
    """
    def evaluate(factors, clip, box):
        prefix, (_, gen, var) = factors[:-1], factors[-1]
        a_lo, a_hi, b_lo, b_hi = box
        M = cd.window       # the peel shifts a (var u) or b (var v) by a mode in [-M, M]
        box = ((a_lo - M, a_hi + M, b_lo, b_hi) if var == "u"
               else (a_lo, a_hi, b_lo - M, b_hi + M))
        pieces = []
        for m in {m for (_, m) in ket}:
            for w, c in _annihilate(cd, gen, 1 - m, ket).items():
                groups = prefixes.get((prefix, clip, w, box))
                if groups is None:
                    groups = prefixes[(prefix, clip, w, box)] = _eval_factors(
                        cd, prefix, w, clip, M, box)
                if groups:
                    pieces.append((c, m, 0, groups) if var == "u"
                                  else (c, 0, m, groups))
        return pieces
    return lru_cache(maxsize=None)(evaluate)


def _readers(window: int, theta: int):
    """Key boxes (a_lo, a_hi, b_lo, b_hi) of the T1 plain and the T2
    buckets: every (eu, ev) lies in [-window - 1, window - 1]^2 and the
    pole reads a >= eu + theta, so b <= ev."""
    lo, hi = -window - 1, window - 1
    return (lo, hi, lo, hi), (lo + theta, inf, -inf, hi)


def _buckets(terms: Expr, evaluate, clip: int, box: Box, negate: bool = False):
    """Sum c * states over a cell's terms, once per exponent key: plain
    terms by (a, b) inside `box`, delta(u-v) terms by a + b; `negate`
    takes -c for c.  One product is formed per group of entries."""
    a_lo, a_hi, b_lo, b_hi = box
    plain: ExpDict = {}
    delta: dict[int, dict[ModeWord, Scalar]] = {}
    for (factors, dist), c in terms.items():
        if negate:
            c = -c
        for cp, du, dv, groups in evaluate(factors, clip, OPEN if dist else box):
            scale = c * cp
            for cw, entries in groups:
                prod = scale * cw
                if dist is None:
                    for a, b, w in entries:
                        a += du
                        b += dv
                        if a_lo <= a <= a_hi and b_lo <= b <= b_hi:
                            add_term(plain.setdefault((a, b), {}), w, prod)
                else:
                    for a, b, w in entries:
                        add_term(delta.setdefault(a + b + du + dv, {}), w, prod)
    return plain, delta


def _differences(plain: ExpDict, delta: dict, pole: ExpDict, theta: int,
                 M: int) -> ExpDict:
    """lhs - rhs at the coefficients u^eu v^ev, (eu, ev) in [-M - 1, M - 1]^2,
    that some side reaches; at every other one both sides are zero.  It is
    built in `plain`, the T1 plain bucket, whose box is that grid, and a
    position where the sides cancel maps to {}.
      - delta(u-v) = sum_p v^p u^(-p-1) carries the T1 delta key d to each
        position with eu + ev + 1 = d;
      - the pole is sum_{p>=0} v^p u^(-p-1) (rational, theta = 1) or
        (q - q^-1) sum_{p>=0} v^p u^(-p) (trigonometric, theta = 0), whose
        factor q - q^-1 is folded into the T2 coefficients: at (eu, ev) it
        reads the keys (a, b) with a + b = eu + ev + theta and
        a >= eu + theta.  `pole` is the T2 bucket negated, so each of its
        diagonals is swept once, eu descending, adding the running sum of
        the keys read so far."""
    lo, hi = -M - 1, M - 1
    for d, states in delta.items():
        for eu in range(max(lo, d - 1 - hi), min(hi, d - 1 - lo) + 1):
            sum_into(plain.setdefault((eu, d - 1 - eu), {}), states)
    diagonals: dict[int, list] = {}        # eu + ev -> [(a, states)], a descending
    for a, b in sorted(pole, reverse=True):
        diagonals.setdefault(a + b - theta, []).append((a, pole[(a, b)]))
    for s, keys in diagonals.items():
        running: dict[ModeWord, Scalar] = {}
        read = 0
        for eu in range(min(hi, s - lo), max(lo, s - hi) - 1, -1):
            while read < len(keys) and keys[read][0] >= eu + theta:
                sum_into(running, keys[read][1])
                read += 1
            if running:
                sum_into(plain.setdefault((eu, s - eu), {}), running)
    return plain


# ---------------------------------------------------------------------------
# expression assembly for the spectral L-identity
# ---------------------------------------------------------------------------

def _yang_expressions(cd: CurrentDouble):
    """The pole-free rearrangement of the spectral identity, as N^4 cells
    {(factors, dist): c}, cell (x, y) at x*N^2 + y.

    T1 collects the constant-R side, the written L-identity with O = R and
    L1(u), L1(v) in the written order: R12 L1(u) R12 L1(v) - L1(v) R12
    L1(u) R12 - (R12 L1(u) - L1(u) R12) delta(u-v).  T2 is the exchange
    residue of L1(u) R12 L1(v) - L1(v) R12 L1(u): its middle
    annihilator-creator pair is replaced by its exchange image (the delta
    part of that pair is what cancels against the ill-defined pole-delta
    products), so T1 must equal pole * T2 on every matrix element.  The
    pole's constant factor (q - q^-1, trigonometric) is folded into the T2
    coefficients.
    """
    b = cd.cb.base
    N = b.N
    n2 = N * N

    def factors(es, variables):
        return tuple(t for e, var in zip(es, variables)
                     for t in (("c", e // N, var), ("a", e % N, var)))

    t1: list[dict] = [{} for _ in range(n2 * n2)]
    for side, variables, dist, negate in zip(
            l_identity_sides(b.R, b.R), ("uv", "vu", "u", "u"),
            (None, None, "delta", "delta"), (False, True, True, False)):
        for cell, row in zip(t1, side):
            for col, c in row.items():
                es = divmod(col, n2) if len(variables) == 2 else (col,)
                add_term(cell, (factors(es, variables), dist), -c if negate else c)

    s = b.q.inverse() * cd.cb.pole()[0]
    moves = exchange_table(b.psi, s, b.B)[0]     # (z, w) -> (i, j, s Psi_jw^iz)
    t2: list[dict] = [{} for _ in range(n2 * n2)]
    for r, c, rv in sorted(b.R.nonzeros(), key=lambda t: t[:2]):
        (w, y2), (z, x2) = divmod(r, N), divmod(c, N)
        for x1, y1 in product(range(N), repeat=2):
            cell = t2[enc_index((x1, x2), N) * n2 + enc_index((y1, y2), N)]
            for i, j, sp in moves[(z, w)]:
                coeff = rv * sp
                add_term(cell, ((("c", x1, "u"), ("c", i, "v"),
                                 ("a", j, "u"), ("a", y1, "v")), None), coeff)
                add_term(cell, ((("c", x1, "v"), ("c", i, "u"),
                                 ("a", j, "v"), ("a", y1, "u")), None), -coeff)
    if any(f[-1][0] != "a" for t in (t1, t2) for cell in t for (f, _) in cell):
        raise AssertionError("a current word that does not end in an annihilator")
    return t1, t2


def _kets(N: int, window: int, degree: int) -> list[ModeWord]:
    singles = [((g, m),) for g in range(N) for m in range(-window, window + 1)]
    kets: list[ModeWord] = [(), *singles]
    if degree >= 2:
        kets.extend(w1 + w2 for w1 in singles for w2 in singles)
    return kets


def _relation_instances(cd: CurrentDouble, mode_pairs):
    """The window projection of the (m, n) coefficient, (m, n) in
    `mode_pairs`, of the defining relation R(u,v) x1(u) x2(v) = g(u,v) x2(v)
    x1(u) for each generator pair (i, j): R_ij^kl x_k[m] x_l[n], minus the
    pole tail, minus the g side and its tail.  Only the terms whose two
    modes lie in the window are built: the R and g terms when |m|, |n| <= M,
    the tail terms at the p >= 0 with |m - p - theta|, |n + p| <= M, which
    makes every tail finite.  Yields one list of nonzero ((mode, mode), c)
    terms per instance."""
    b = cd.cb.base
    N = b.N
    M = cd.window
    cf, theta = cd.cb.pole()
    qmain = b.q     # ONE for the involutive base of a rational current
    columns: dict[int, list] = {}       # (i, j) -> the nonzero R_ij^kl, (k, l) ascending
    for r, c, v in sorted(b.R.nonzeros(), key=lambda t: t[:2]):
        columns.setdefault(c, []).append((divmod(r, N), v))
    for (m, n), i, j in product(mode_pairs, range(N), range(N)):
        inside = abs(m) <= M and abs(n) <= M
        terms = [(((k, m), (l, n)), v) for (k, l), v in columns.get(i * N + j, ())
                 if inside]
        for p in range(max(0, m - theta - M, -M - n),
                       min(m - theta + M, M - n) + 1):
            terms.append((((i, m - p - theta), (j, n + p)), -cf))
            terms.append((((i, n + p), (j, m - p - theta)), cf))
        if inside:
            terms.append((((i, n), (j, m)), -qmain))
        yield [(pair, c) for pair, c in terms if not c.is_zero()]


def _exchange_relation_span(cd: CurrentDouble):
    """Reduced row echelon span of the window projections of the defining
    exchange relations on two-mode words, as {pivot col: {col: Scalar}}
    with the column index and its inverse.

    The span is collected from the relation instances with coefficients
    up to far = 3M + 3.  Saturation is not derived from a bound: the
    instances up to 3M + 5 are then added to the same reduction, and a
    rank that still grows raises WindowOverflow."""
    N = cd.N
    M = cd.window
    near, far = 3 * M + 3, 3 * M + 5
    pairs = [((i, a), (j, b2)) for i in range(N) for a in range(-M, M + 1)
             for j in range(N) for b2 in range(-M, M + 1)]
    index = {p: t for t, p in enumerate(pairs)}
    modes = list(product(range(-far, far + 1), repeat=2))
    inner = [(m, n) for m, n in modes if max(abs(m), abs(n)) <= near]
    outer = [(m, n) for m, n in modes if max(abs(m), abs(n)) > near]
    rows: dict[int, dict[int, Scalar]] = {}
    ranks = []
    for stage in (inner, outer):
        for terms in _relation_instances(cd, stage):
            row: dict[int, Scalar] = {}
            for pair, c in terms:
                add_term(row, index[pair], c)
            echelon_insert(rows, row)
        ranks.append(len(rows))
    if ranks[0] != ranks[1]:
        raise WindowOverflow("relation span did not stabilize")
    return rows, index, {t: p for p, t in index.items()}


def verify_yang(cd: CurrentDouble, degree: int = 1) -> dict:
    """Exact matrix-element verification of the spectral L-identity; the
    report's failure list is `mismatches`, the first ten (ket, (x, y),
    (r, s)) that fail the strict comparison, empty on a pass.

    Both sides are expanded in the region |u| > |v|; the coefficient of
    u^{-r-1} v^{-s-1} applied to every ket of degree <= `degree` with
    modes in the window is compared for all r, s in the window.

    Every current word ends in an annihilator.  That last factor takes a
    ket to a few words (degree-2 kets to degree-1 words, degree-1 kets to
    the vacuum), each with a coefficient and an exponent shift, and the
    same few words recur for every ket: the rest of the word (its prefix)
    is evaluated on each of them once per call, projected to the window
    and to the keys its reader reaches, and shared by all kets.  Each cell
    (x, y) sums c * states over its terms once per exponent key (a, b),
    one product per distinct coefficient, and _differences reads lhs - rhs
    off those buckets at (eu, ev) = (-r-1, -s-1), where some side reaches:
      - lhs: the T1 plain bucket at (eu, ev), plus the T1 delta(u-v)
        bucket at a + b = eu + ev + 1;
      - rhs: the T2 bucket summed over the keys with a + b = eu + ev +
        theta and a >= eu + theta; T2 carries the pole's factor q - 1/q
        (trigonometric, theta = 0) or 1 (rational, theta = 1).
    Every other (r, s) has both sides zero and counts without work.  The
    comparison is lhs - rhs against zero.  Degree <= 1 comparisons are
    strict equalities of free mode states.  Outputs reached from degree-2
    kets are only defined up to the defining exchange relations, so there
    a nonzero difference is reduced modulo the window projection of the
    relation span first (the span is in reduced row echelon form, so this
    equals comparing the reduced sides) and a nonzero remainder is counted
    as a residual class, not gated.  Verdicts are window-monotone: on one
    ket the interior mode enumeration is repeated with a larger clip and
    the T1 readout must agree, or WindowOverflow is raised.
    """
    M = cd.window
    if degree > 2 or M > 4:
        raise WindowOverflow("desk scale is degree <= 2 and window <= 4")
    N = cd.N
    n2 = N * N
    theta = cd.cb.pole()[1]
    t1, t2 = _yang_expressions(cd)
    interior = 2 * M + 2
    kets = _kets(N, M, degree)
    if degree >= 2:
        rows, index, _ = _exchange_relation_span(cd)
    lhs_box, rhs_box = _readers(M, theta)
    spot_ket = kets[min(1, len(kets) - 1)]
    prefixes: dict = {}
    mismatches = []
    residual_classes = 0
    for ket in kets:
        deg2_ket = len(ket) >= 2
        evaluate = _ket_evaluator(cd, ket, prefixes)
        if ket == spot_ket:
            spot_evaluate = evaluate
        for x in range(n2):
            for y in range(n2):
                plain, delta = _buckets(t1[x * n2 + y], evaluate, interior, lhs_box)
                pole = _buckets(t2[x * n2 + y], evaluate, M, rhs_box, negate=True)[0]
                diffs = _differences(plain, delta, pole, theta, M)
                for eu, ev in sorted(diffs, reverse=True):     # (r, s) ascending
                    diff = diffs[(eu, ev)]
                    if deg2_ket and diff:
                        diff = remainder({index[w]: c for w, c in diff.items()}, rows)
                    if diff:
                        if deg2_ket:
                            residual_classes += 1
                        else:
                            mismatches.append((ket, (x, y), (-eu - 1, -ev - 1)))
    report = {
        "matrix_elements": len(kets) * n2 * n2 * (2 * M + 1) ** 2,
        "kets": len(kets),
        "window": M,
        "degree": degree,
        "comparison": "strict (degree <= 1)" if degree <= 1 else
        "strict on degree <= 1 kets; degree-2 kets modulo the creation-side "
        "relation span (report-only: free-module elements are defined only "
        "up to the defining ideals there)",
        "mismatches": mismatches[:10],
    }
    if degree >= 2:
        report["degree2_residual_classes"] = residual_classes
    if not mismatches:
        def t1_readout(x, clip):
            buckets = _buckets(t1[x * n2], spot_evaluate, clip, lhs_box)
            return {p: d for p, d in _differences(*buckets, {}, theta, M).items() if d}
        if not all(t1_readout(x, interior) == t1_readout(x, interior + 3)
                   for x in range(n2)):
            raise WindowOverflow("interior mode window too small; enlarge the window")
    return report


# ---------------------------------------------------------------------------
# defining-relation check
# ---------------------------------------------------------------------------

def current_relation_check(cd: CurrentDouble) -> list[tuple]:
    """Consistency of the defining current relations on the dual square:
    ("braid", m) and ("unitarity", w) for each failure m, w of the two
    certificates, empty on a pass.

    The pairwise and triple reorderings of the relation system are
    consistent iff the normalized spectral braiding is involutive and
    satisfies the spectral braid relation.  Both are certified exactly, as
    identities of polynomials in the spectral variables expanded over words
    in the dual-square transport of R.  The same two certificates on R
    itself are the braiding's own `braid_certificate` and
    `unitarity_certificate`.
    """
    base = cd.cb.base
    dual = Braiding(base.N, dual_square(base.R), base.kind,
                    series=base.series, q=base.q, name=f"dual({base.name})")
    dual_cb = CurrentBraiding(dual)
    return ([("braid", m) for m in dual_cb.braid_certificate]
            + [("unitarity", w) for w in dual_cb.unitarity_certificate])
