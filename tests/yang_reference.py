"""The evaluation, the readout and the relation generator of the spectral
L-identity that qfock.currents replaced, kept as references for them.

The evaluation kept each prefix's keys with -3M - 2 <= a + b <= 3M - 1
for every reader, as flat (a, b, word, coefficient) entries, and formed
one product per entry.  The readout built, for every (ket, cell) and every
(r, s) in the window, the lhs and the rhs as dicts, summed the rhs over
its diagonal, took their difference and, for a degree-2 ket, reduced it
modulo the relation span.  The generator built every tail term of every
relation instance, and the span kept only the terms inside the window.
`verify_yang` here is the whole check on that path; it shares with
qfock.currents only the expressions, the kets, the key boxes, the
exponent shifts and the mode rewriting (_annihilate)."""

from functools import lru_cache
from itertools import product

from qfock.currents import (
    _annihilate,
    _exp_shift,
    _kets,
    _readers,
    _yang_expressions,
)
from qfock.errors import WindowOverflow
from qfock.scalars import ONE, add_term, sum_into
from qfock.tensorops import echelon_insert, remainder


def eval_factors(cd, factors, word, interior_clip, window):
    """The prefix `factors` applied to `word`, projected to the window, as
    flat entries (a, b, word, coefficient) with -3 window - 2 <= a + b <=
    3 window - 1."""
    leftmost_a = min((p for p, f in enumerate(factors) if f[0] == "a"),
                     default=len(factors))
    current = {(0, 0): {word: ONE}}
    for pos in reversed(range(len(factors))):
        kind, gen, var = factors[pos]
        clip = interior_clip if pos > leftmost_a else min(interior_clip, window)
        new = {}
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
    return tuple((a, b, w, c) for (a, b), states in current.items()
                 if -3 * window - 2 <= a + b <= 3 * window - 1
                 for w, c in states.items())


def ket_evaluator(cd, ket, prefixes):
    """evaluate(factors, clip): a current word on `ket` as pieces
    (c, du, dv, entries), the prefix evaluated once per (prefix, clip, w)."""
    def evaluate(factors, clip):
        prefix, (_, gen, var) = factors[:-1], factors[-1]
        pieces = []
        for m in {m for (_, m) in ket}:
            for w, c in _annihilate(cd, gen, 1 - m, ket).items():
                entries = prefixes.get((prefix, clip, w))
                if entries is None:
                    entries = prefixes[(prefix, clip, w)] = eval_factors(
                        cd, prefix, w, clip, cd.window)
                if entries:
                    pieces.append((c, m, 0, entries) if var == "u"
                                  else (c, 0, m, entries))
        return pieces
    return lru_cache(maxsize=None)(evaluate)


def buckets(terms, evaluate, clip, box):
    """Sum c * states over a cell's terms, one product per entry: plain
    terms by (a, b) inside `box`, delta(u-v) terms by a + b."""
    a_lo, a_hi, b_lo, b_hi = box
    plain, delta = {}, {}
    for (factors, dist), c in terms.items():
        for cp, du, dv, entries in evaluate(factors, clip):
            scale = c * cp
            for a, b, w, cw in entries:
                a, b = a + du, b + dv
                if dist is not None:
                    add_term(delta.setdefault(a + b, {}), w, scale * cw)
                elif a_lo <= a <= a_hi and b_lo <= b <= b_hi:
                    add_term(plain.setdefault((a, b), {}), w, scale * cw)
    return plain, delta


def by_sum(plain):
    """Pole-side index of a plain bucket: a + b -> [(a, states)]."""
    out = {}
    for (a, b), states in plain.items():
        out.setdefault(a + b, []).append((a, states))
    return out


def lhs(plain, delta, eu, ev):
    """Coefficient of u^eu v^ev of the T1 side: the plain bucket at
    (eu, ev) and the delta(u-v) bucket at a + b = eu + ev + 1."""
    out = dict(plain.get((eu, ev), {}))
    sum_into(out, delta.get(eu + ev + 1, {}))
    return out


def rhs(sums, eu, ev, theta):
    """Coefficient of u^eu v^ev of pole * T2: the keys (a, b) with
    a + b = eu + ev + theta and a >= eu + theta."""
    out = {}
    for a, states in sums.get(eu + ev + theta, ()):
        if a >= eu + theta:
            sum_into(out, states)
    return out


def difference(left, right):
    """left - right, without arithmetic when the two sides agree."""
    if left == right:
        return {}
    out = dict(left)
    for w, c in right.items():
        add_term(out, w, -c)
    return out


def reduce_mod_span(states, rows, index, inv_index):
    """Remainder of a two-mode-word combination modulo the relation span;
    words outside the span's index pass through untouched."""
    out = {}
    vec = {}
    for w, c in states.items():
        t = index.get(w)
        if t is None:
            out[w] = c
        else:
            vec[t] = c
    out.update((inv_index[t], c) for t, c in remainder(vec, rows).items())
    return out


def full_relation_instances(cd, mode_pairs, tail):
    """Every term of the (m, n) coefficient of the defining relation, in or
    out of the window: R_ij^kl x_k[m] x_l[n], minus the pole tail, minus
    the g side and its tail, each tail cut after `tail` terms."""
    b = cd.cb.base
    N = b.N
    cf, theta = cd.cb.pole()
    columns = {}
    for r, c, v in sorted(b.R.nonzeros(), key=lambda t: t[:2]):
        columns.setdefault(c, []).append((divmod(r, N), v))
    for (m, n), i, j in product(mode_pairs, range(N), range(N)):
        terms = [(((k, m), (l, n)), v) for (k, l), v in columns.get(i * N + j, ())]
        for p in range(tail):
            terms.append((((i, m - p - theta), (j, n + p)), -cf))
            terms.append((((i, n + p), (j, m - p - theta)), cf))
        terms.append((((i, n), (j, m)), -b.q))
        yield [(pair, c) for pair, c in terms if not c.is_zero()]


def relation_span(cd):
    """The sparse span built from the full instances, each projected to the
    window term by term: (rows, index, inv_index)."""
    N, M = cd.N, cd.window
    near, far = 3 * M + 3, 3 * M + 5
    pairs = [((i, a), (j, b2)) for i in range(N) for a in range(-M, M + 1)
             for j in range(N) for b2 in range(-M, M + 1)]
    index = {p: t for t, p in enumerate(pairs)}
    modes = list(product(range(-far, far + 1), repeat=2))
    rows = {}
    ranks = []
    for stage in ([(m, n) for m, n in modes if max(abs(m), abs(n)) <= near],
                  [(m, n) for m, n in modes if max(abs(m), abs(n)) > near]):
        for terms in full_relation_instances(cd, stage, far + 2 * M + 2):
            row = {}
            for pair, c in terms:
                t = index.get(pair)
                if t is not None:
                    add_term(row, t, c)
            echelon_insert(rows, row)
        ranks.append(len(rows))
    if ranks[0] != ranks[1]:
        raise WindowOverflow("relation span did not stabilize")
    return rows, index, {t: p for p, t in index.items()}


def verify_yang(cd, degree=1):
    """The report of currents.verify_yang, read off per (r, s)."""
    M = cd.window
    N = cd.N
    n2 = N * N
    theta = cd.cb.pole()[1]
    t1, t2 = _yang_expressions(cd)
    interior = 2 * M + 2
    kets = _kets(N, M, degree)
    coeffs = [(r, s, -r - 1, -s - 1) for r in range(-M, M + 1)
              for s in range(-M, M + 1)]
    span = relation_span(cd) if degree >= 2 else None
    lhs_box, rhs_box = _readers(M, theta)
    spot_ket = kets[min(1, len(kets) - 1)]
    prefixes = {}
    mismatches = []
    residual_classes = 0
    checked = 0
    for ket in kets:
        deg2_ket = len(ket) >= 2
        evaluate = ket_evaluator(cd, ket, prefixes)
        if ket == spot_ket:
            spot_evaluate = evaluate
        for x, y in product(range(n2), repeat=2):
            plain, delta = buckets(t1[x * n2 + y], evaluate, interior, lhs_box)
            sums = by_sum(buckets(t2[x * n2 + y], evaluate, M, rhs_box)[0])
            for (r, s, eu, ev) in coeffs:
                checked += 1
                diff = difference(lhs(plain, delta, eu, ev), rhs(sums, eu, ev, theta))
                if deg2_ket and diff:
                    diff = reduce_mod_span(diff, *span)
                if diff:
                    if deg2_ket:
                        residual_classes += 1
                    else:
                        mismatches.append((ket, (x, y), (r, s)))
    report = {
        "matrix_elements": checked,
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
        stable = True
        for x in range(n2):
            small = buckets(t1[x * n2], spot_evaluate, interior, lhs_box)
            big = buckets(t1[x * n2], spot_evaluate, interior + 3, lhs_box)
            for (_, _, eu, ev) in coeffs:
                if lhs(*small, eu, ev) != lhs(*big, eu, ev):
                    stable = False
        if not stable:
            raise WindowOverflow("interior mode window too small; enlarge the window")
    return report
