import itertools
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import braidings, cli, currents
from qfock.braidings import (
    HECKE, baxterize, make_flip, make_standard_hecke, make_superflip,
    spectral_braid_certificate, unitarity_certificate,
)
from qfock.currents import (
    OPEN,
    CurrentDouble,
    _annihilate,
    _buckets,
    _differences,
    _exchange_relation_span,
    _ket_evaluator,
    _kets,
    _readers,
    _relation_instances,
    _yang_expressions,
    current_relation_check,
    make_current_double,
    mode_permute,
    verify_yang,
    zf_act,
)
from qfock.errors import WindowOverflow
from qfock.scalars import (
    ONE, ZERO, Scalar, _laurent_add, _laurent_mul, add_term, sum_into,
)
from qfock.tensorops import remainder

import formal_reference
import yang_reference
from dense_elimination import dense_row_reduce
from gauge import conjugated, twisted, upper
from rewriting_reference import recursive_annihilate
from yang_reference import full_relation_instances


def flip_double(window=2):
    return make_current_double(baxterize(make_flip(2)), window)


def hecke_double(window=2):
    return make_current_double(baxterize(make_standard_hecke(2)), window)


def superflip_double(window=2):
    return make_current_double(baxterize(make_superflip(1, 1)), window)


def twisted_double(window=2):
    return make_current_double(
        baxterize(twisted(make_standard_hecke(2))), window)


def bump_exchange(cd):
    """Add ONE to the first coefficient of one exchange move."""
    (i, j, c), *rest = cd.exchange[(0, 1)]
    cd.exchange[(0, 1)] = [(i, j, c + ONE), *rest]
    return cd


def bump_constant(cd):
    cd.constant[(0, 0)] = cd.constant[(0, 0)] + ONE
    return cd


# ---------------------------------------------------------------------------
# The term-by-term path that the bucketed comparison of verify_yang replaced,
# kept as a reference: every term re-extracts its (r, s) coefficient from
# its unprojected evaluation, and each side is reduced modulo the dense
# relation span on its own.
# ---------------------------------------------------------------------------

def _eval_factors(cd, factors, ket, interior_clip):
    """Unprojected evaluation: every creation mode within interior_clip."""
    current = {(0, 0): {ket: ONE}}
    for (kind, gen, var) in reversed(factors):
        new = {}
        for (eu, ev), states in current.items():
            for word, coeff in states.items():
                if kind == "a":
                    moves = [(1 - k, _annihilate(cd, gen, k, word))
                             for k in {1 - m for (_, m) in word}]
                else:
                    moves = [(-m - 1, {((gen, m),) + word: ONE})
                             for m in range(-interior_clip, interior_clip + 1)]
                for shift, acted in moves:
                    key = (eu + shift, ev) if var == "u" else (eu, ev + shift)
                    slot = new.setdefault(key, {})
                    for w2, c2 in acted.items():
                        s = slot.get(w2, ZERO) + coeff * c2
                        if s.is_zero():
                            slot.pop(w2, None)
                        else:
                            slot[w2] = s
        current = {k: v for k, v in new.items() if v}
    return current


def _windowed_eval_factors(cd, factors, ket, interior_clip, window):
    """The whole word on one ket, as verify_yang evaluated it before the
    prefixes were shared: clip and projection as in the reference
    evaluation, and only the keys with -2 window - 2 <= a + b <= 2 window - 1."""
    out = {}
    for a, b, w, c in yang_reference.eval_factors(cd, factors, ket, interior_clip, window):
        if -2 * window - 2 <= a + b <= 2 * window - 1:
            out.setdefault((a, b), {})[w] = c
    return out


def _inside(key, box):
    a_lo, a_hi, b_lo, b_hi = box
    return a_lo <= key[0] <= a_hi and b_lo <= key[1] <= b_hi


def _assembled(evaluate, factors, clip, box, window):
    """The pieces of evaluate(factors, clip, box) summed back into one
    windowed evaluation, keyed as _windowed_eval_factors keys it, at the
    keys inside the reader's box.  No coefficient heads two groups."""
    out = {}
    for c, du, dv, groups in evaluate(factors, clip, box):
        assert len({cw for cw, _ in groups}) == len(groups)
        for cw, entries in groups:
            for a, b, w in entries:
                a, b = a + du, b + dv
                if -2 * window - 2 <= a + b <= 2 * window - 1 and _inside((a, b), box):
                    add_term(out.setdefault((a, b), {}), w, c * cw)
    return {key: states for key, states in out.items() if states}


def _project_window(states, window):
    return {w: c for w, c in states.items()
            if all(abs(m) <= window for (_, m) in w)}


class _EvaluatedTerm:
    __slots__ = ("coeff", "dist", "exps")

    def __init__(self, coeff, dist, exps):
        self.coeff = coeff
        self.dist = dist
        self.exps = exps


def _extract(cd, ev_terms, eu, ev, apply_pole):
    window = cd.window
    trig = cd.cb.base.kind == HECKE
    out = {}

    def add_states(states, scale):
        for w, c in _project_window(states, window).items():
            s = out.get(w, ZERO) + scale * c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s

    for term in ev_terms:
        targets = []
        if apply_pole:
            # the T2 coefficients already carry the pole's factor q - 1/q
            offsets = {a - (eu + (0 if trig else 1)) for (a, _) in term.exps}
            for p in sorted(offsets):
                if p >= 0:
                    targets.append((eu + p + (0 if trig else 1), ev - p, ONE))
        else:
            targets.append((eu, ev, ONE))
        for (ua, va, scale0) in targets:
            if term.dist is None:
                states = term.exps.get((ua, va))
                if states:
                    add_states(states, term.coeff * scale0)
            else:
                for (a, b), states in term.exps.items():
                    if a == ua + (va - b) + 1:
                        add_states(states, term.coeff * scale0)
    return out


def _dense_relation_span(cd, far):
    """The relation span as the dense path built it: one dense row per
    relation instance with coefficients up to `far`, row-reduced whole."""
    N, M = cd.N, cd.window
    pairs = [((i, a), (j, b2)) for i in range(N) for a in range(-M, M + 1)
             for j in range(N) for b2 in range(-M, M + 1)]
    index = {p: t for t, p in enumerate(pairs)}
    rows = []
    modes = range(-far, far + 1)
    for terms in full_relation_instances(cd, itertools.product(modes, modes),
                                         far + 2 * M + 2):
        row = [ZERO] * len(pairs)
        touched = False
        for pair, c in terms:
            t = index.get(pair)
            if t is not None:
                row[t] = row[t] + c
                touched = True
        if touched:
            rows.append(row)
    return dense_row_reduce(rows), index


def _dense_pivot_rows(span):
    return {pcol: {t: e for t, e in enumerate(prow) if not e.is_zero()}
            for prow, pcol in zip(span.rows, span.pivots)}


def _dense_reduce_mod_span(states, span, index):
    vec = [ZERO] * len(index)
    out = {w: c for w, c in states.items() if len(w) != 2}
    for w, c in states.items():
        if len(w) == 2:
            t = index.get((w[0], w[1]))
            if t is None:
                out[w] = c
            else:
                vec[t] = vec[t] + c
    for prow, pcol in zip(span.rows, span.pivots):
        f = vec[pcol]
        if not f.is_zero():
            vec = [a - f * bb for a, bb in zip(vec, prow)]
    inv_index = {t: p for p, t in index.items()}
    for t, c in enumerate(vec):
        if not c.is_zero():
            w = inv_index[t]
            s = out.get(w, ZERO) + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
    return out


def classical_mode_normal_order(word):
    """Free-field oracle: [a^j[k], c_i[m]] = delta_ij delta_{k+m,1}, word
    over (('a'|'c', gen, mode), ...); returns {(cword, aword): int}."""
    out = {}

    def rec(w, coeff):
        for p in range(len(w) - 1):
            if w[p][0] == "a" and w[p + 1][0] == "c":
                _, j, k = w[p]
                _, i, m = w[p + 1]
                rec(w[:p] + (w[p + 1], w[p]) + w[p + 2:], coeff)
                if i == j and k + m == 1:
                    rec(w[:p] + w[p + 2:], coeff)
                return
        c = tuple((t[1], t[2]) for t in w if t[0] == "c")
        a = tuple((t[1], t[2]) for t in w if t[0] == "a")
        out[(c, a)] = out.get((c, a), 0) + coeff

    rec(tuple(word), 1)
    return {k: v for k, v in out.items() if v}


class TestModePermute:
    def test_flip_base_classical_exchange(self):
        cd = flip_double()
        got = mode_permute(cd, (0, 0), (1, 5))
        assert got == [(((1, 5), (0, 0)), ONE)]

    def test_kronecker_fires_only_at_sum_one(self):
        cd = flip_double()
        with_const = mode_permute(cd, (0, 0), (0, 1))
        without = mode_permute(cd, (0, 0), (0, 2))
        assert (None, ONE) in with_const
        assert all(p is not None for p, _ in without)

    @given(st.integers(-4, 4), st.integers(-4, 4),
           st.integers(0, 1), st.integers(0, 1))
    @settings(max_examples=50)
    def test_exchange_preserves_mode_labels(self, k, l, a, b):
        cd = hecke_double(4)
        for pair, _ in mode_permute(cd, (a, k), (b, l)):
            if pair is None:
                assert k + l == 1
            else:
                (i, lm), (j, km) = pair
                assert lm == l and km == k


@pytest.fixture(scope="module")
def rule_double(request):
    """One current double per (maker, corruption), shared by the examples
    of a test so that the _pass memo is hit across them."""
    maker, corrupt = request.param
    cd = maker()
    return cd if corrupt is None else corrupt(cd)


class TestModeRuleEngine:
    """_annihilate, the paired part of the memoized _pass under the mode
    rule, matches the recursion it replaced, on true and bumped rules."""

    @pytest.mark.parametrize("rule_double", [
        (maker, corrupt) for maker in (flip_double, hecke_double)
        for corrupt in (None, bump_exchange, bump_constant)], indirect=True,
        ids=lambda p: "-".join(f.__name__ if f else "true" for f in p))
    @given(gen=st.integers(0, 1), k=st.integers(-2, 3),
           word=st.lists(st.tuples(st.integers(0, 1), st.integers(-2, 2)), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_annihilate_matches_recursive_reference(self, rule_double, gen, k, word):
        cd, word = rule_double, tuple(word)
        assert _annihilate(cd, gen, k, word) == recursive_annihilate(cd, gen, k, word)


class TestZfAct:
    def test_vacuum_annihilated(self):
        cd = hecke_double()
        for a in range(2):
            for k in range(-2, 3):
                assert zf_act(cd, (a, k), {(): ONE}) == {}

    def test_degree_one_contraction(self):
        cd = hecke_double()
        b = cd.cb.base
        for a in range(2):
            for bgen in range(2):
                for l in range(-2, 3):
                    st_ = {((bgen, l),): ONE}
                    got = zf_act(cd, (a, 1 - l), st_)
                    want = b.B[bgen].get(a, ZERO)
                    if want.is_zero():
                        assert got == {}
                    else:
                        assert got == {(): want}

    def test_flip_degree_two_matches_classical_oracle(self):
        cd = flip_double()
        for modes in itertools.product(range(-2, 3), repeat=3):
            k, m1, m2 = modes
            for gens in itertools.product(range(2), repeat=3):
                a, g1, g2 = gens
                st_ = {((g1, m1), (g2, m2)): ONE}
                got = zf_act(cd, (a, k), st_)
                word = (("a", a, k), ("c", g1, m1), ("c", g2, m2))
                want = {}
                for (cw, aw), coeff in classical_mode_normal_order(word).items():
                    if not aw:
                        want[cw] = Scalar.from_int(coeff)
                assert got == want

    def test_each_application_lowers_degree_by_one(self):
        cd = hecke_double()
        st_ = {((0, 0), (1, 1)): ONE}
        out = zf_act(cd, (0, 1), st_)
        assert all(len(w) == 1 for w in out)

    def test_window_enforced_on_states(self):
        with pytest.raises(WindowOverflow):
            zf_act(hecke_double(), (0, 1), {((0, 7),): ONE})


class TestYang:
    def test_flip_rational_window2_degree1(self):
        rep = verify_yang(flip_double(), degree=1)
        assert not rep["mismatches"]
        assert rep["matrix_elements"] == 16 * 25 * 11

    def test_hecke_trigonometric_window2_degree1(self):
        rep = verify_yang(hecke_double(), degree=1)
        assert not rep["mismatches"]

    def test_hecke_n3_trigonometric_window1(self):
        cd = make_current_double(
            baxterize(make_standard_hecke(3)), window=1)
        rep = verify_yang(cd, degree=1)
        assert not rep["mismatches"]
        assert rep["matrix_elements"] == 81 * 9 * 10

    def test_vacuum_elements_vanish_off_support(self):
        # the delta side on the vacuum has no support at all; both sides 0
        cd = flip_double()
        t1, t2 = _yang_expressions(cd)
        evaluate = _ket_evaluator(cd, (), {})
        lhs_box, rhs_box = _readers(2, 1)
        plain, delta = _buckets(t1[0], evaluate, 6, lhs_box)
        pole = _buckets(t2[0], evaluate, 2, rhs_box, negate=True)[0]
        assert not any(bucket[key] for bucket in (plain, delta, pole) for key in bucket)
        assert not any(_differences(plain, delta, pole, 1, 2).values())

    def test_desk_scale_guard(self):
        with pytest.raises(WindowOverflow):
            verify_yang(flip_double(), degree=3)
        with pytest.raises(WindowOverflow):
            verify_yang(flip_double(window=5))

    def test_degree_two_is_report_only(self):
        # degree-2 kets live in the free module, which the defining ideals
        # only cut down in the true double; the strict check covers
        # degree <= 1 and the degree-2 residue is reported, not gated
        for maker, window, residual in ((flip_double, 1, 672), (hecke_double, 1, 1104),
                                        (flip_double, 2, 6400), (hecke_double, 2, 10080)):
            rep = verify_yang(maker(window), degree=2)
            assert not rep["mismatches"]      # degree <= 1 part is strict and exact
            assert rep["degree2_residual_classes"] == residual

    @pytest.mark.parametrize("change, residual", [("twisted", 1104), ("upper", 2104)])
    def test_non_symmetric_r_residue_is_pinned(self, change, residual):
        # the twisted and the upper-gauged Hecke N = 2 braidings are the T1
        # inputs whose R is not symmetric, so a transposed factor of the
        # written L-identity shows here and not on the symmetric builtins
        h = make_standard_hecke(2)
        b = twisted(h) if change == "twisted" else conjugated(h, upper(2), change)
        cd = make_current_double(baxterize(b), window=1)
        rep = verify_yang(cd, degree=2)
        assert not rep["mismatches"]
        assert rep["degree2_residual_classes"] == residual

    @pytest.mark.parametrize("maker", [flip_double, hecke_double])
    def test_corrupted_constant_fails(self, maker):
        rep = verify_yang(bump_constant(maker(window=1)), degree=1)
        assert rep["mismatches"]

    @pytest.mark.parametrize("maker, residual", [(flip_double, 672),
                                                 (hecke_double, 1104)])
    def test_corrupted_exchange_moves_the_residue(self, maker, residual):
        # an annihilator only reaches an exchange move on a word of degree
        # >= 2, which degree <= 1 kets never produce: a corrupted exchange
        # entry shows only in the report-only degree-2 residue
        cd = bump_exchange(maker(window=1))
        assert not verify_yang(cd, degree=1)["mismatches"]
        rep = verify_yang(cd, degree=2)
        assert rep["degree2_residual_classes"] != residual

    @pytest.mark.parametrize("side, residual", [(0, 1104), (1, 780)])
    def test_either_side_alone_is_compared(self, monkeypatch, side, residual):
        # a (ket, cell) is skipped only when all of its buckets are empty:
        # with one side's cells emptied, the other must still be read.  The
        # counts are those of the same runs with no cell skipped.
        real = currents._yang_expressions

        def one_side(cd):
            t = list(real(cd))
            t[side] = [{} for _ in t[side]]
            return tuple(t)

        monkeypatch.setattr(currents, "_yang_expressions", one_side)
        rep = verify_yang(hecke_double(window=1), degree=2)
        assert rep["degree2_residual_classes"] == residual

    def test_each_prefix_evaluated_once_per_call(self, monkeypatch):
        calls = []
        real = currents._eval_factors
        monkeypatch.setattr(currents, "_eval_factors",
                            lambda cd, f, w, clip, window, box:
                            calls.append((f, clip, w, box))
                            or real(cd, f, w, clip, window, box))
        M = 1
        cd = flip_double(window=M)
        rep = verify_yang(cd, degree=2)
        assert not rep["mismatches"]
        t1, t2 = _yang_expressions(cd)
        interior = 2 * M + 2
        lhs_box, rhs_box = _readers(M, cd.cb.pole()[1])
        words = {(f, interior, OPEN if d else lhs_box) for cell in t1 for (f, d) in cell}
        words |= {(f, M, rhs_box) for cell in t2 for (f, _) in cell}
        kets = _kets(cd.N, M, 2)
        n2 = cd.N * cd.N
        spot = {(f, interior + 3, OPEN if d else lhs_box)
                for x in range(n2) for (f, d) in t1[x * n2]}

        def widened(box, var):
            # the peeled annihilator shifts a (var u) or b (var v) by a ket mode
            a_lo, a_hi, b_lo, b_hi = box
            return ((a_lo - M, a_hi + M, b_lo, b_hi) if var == "u"
                    else (a_lo, a_hi, b_lo - M, b_hi + M))

        def peeled(ket, words):
            return {(f[:-1], clip, w, widened(box, f[-1][2])) for f, clip, box in words
                    for (_, m) in ket
                    for w in _annihilate(cd, f[-1][1], 1 - m, ket)}

        want = set().union(*(peeled(ket, words) for ket in kets)) | peeled(kets[1], spot)
        assert len(calls) == len(set(calls))
        assert set(calls) == want
        # per ket, the whole words would be evaluated once each
        assert len(calls) < len(kets) * len(words)

    def test_scalar_work_is_pinned(self, monkeypatch):
        # Deterministic counts of the scalar work of one degree-2 call: the
        # misses of the Laurent memo (each runs one _padd or _pmul) and the
        # additions that add_term/sum_into make on an absent key, which
        # store the term instead.  A change that bypasses the memo, or
        # adds to ZERO again, moves these numbers.
        accumulators = (add_term.__code__, sum_into.__code__)
        absent_key_adds = []
        real = Scalar.__add__

        def counting(self, other):
            if self.is_zero() and sys._getframe(1).f_code in accumulators:
                absent_key_adds.append(other)
            return real(self, other)

        cd = hecke_double(window=1)
        monkeypatch.setattr(Scalar, "__add__", counting)
        _laurent_add.cache_clear()
        _laurent_mul.cache_clear()
        rep = verify_yang(cd, degree=2)
        assert not rep["mismatches"] and rep["degree2_residual_classes"] == 1104
        # 1070 and 2244: _annihilate builds only the paired part of _pass,
        # and the negated pole is added where lhs - rhs is taken, with no
        # shortcut for equal sides.  The misses depend on the order in
        # which the memo sees the operations: operators that walked their
        # nonzero rows in insertion order, not by ascending row, gave 1075
        # and 2156, and at that order one product per prefix entry instead
        # of one per coefficient group gave 1061 and 2152 from more products.
        # T1 cells in the term order of the formal written products (the
        # reference in formal_reference.py) give 1071 and 2143.  A second
        # exchange table at s = q^-1 c for T2, in place of the double's own
        # table times c, gave 1070.
        assert _laurent_mul.cache_info().misses == 1066
        assert _laurent_add.cache_info().misses == 2244
        assert absent_key_adds == []

    def test_evaluation_work_is_pinned(self, monkeypatch):
        # The Scalar products of one degree-2 call and the entries of its
        # prefix memo.  11,098 of the products are the evaluation's and 81
        # build T1 and T2; formal written products built them with 193, and
        # a second exchange table for T2 with 82.
        # One product per entry instead of one per coefficient group made
        # 25,339 products (with the formal build), and a memo that keeps
        # every key of the band for every reader holds 2,781 entries on
        # the same 251 keys.
        products, memos = [], []
        real_mul, real_evaluator = Scalar.__mul__, currents._ket_evaluator

        def counted_mul(self, other):
            products.append(None)
            return real_mul(self, other)

        def spied_evaluator(cd, ket, prefixes):
            memos.append(prefixes)
            return real_evaluator(cd, ket, prefixes)

        cd = hecke_double(window=1)
        monkeypatch.setattr(currents, "_ket_evaluator", spied_evaluator)
        monkeypatch.setattr(Scalar, "__mul__", counted_mul)
        rep = verify_yang(cd, degree=2)
        monkeypatch.setattr(Scalar, "__mul__", real_mul)
        assert not rep["mismatches"] and rep["degree2_residual_classes"] == 1104
        [memo] = {id(m): m for m in memos}.values()
        assert len(products) == 11179
        assert len(memo) == 251
        assert sum(len(entries) for groups in memo.values()
                   for _, entries in groups) == 1341

    def test_readout_work_is_pinned(self, monkeypatch):
        # The relation terms that the span is built from and the positions
        # that the readout forms, of one degree-2 call.  Full instances
        # bring 30,345 terms; a full grid read forms 9 positions per readout.
        terms, positions = [], []
        instances, differences = currents._relation_instances, currents._differences

        def counted_instances(cd, mode_pairs):
            for t in instances(cd, mode_pairs):
                terms.append(len(t))
                yield t

        def counted_differences(*args):
            out = differences(*args)
            positions.append(len(out))
            return out

        monkeypatch.setattr(currents, "_relation_instances", counted_instances)
        monkeypatch.setattr(currents, "_differences", counted_differences)
        rep = verify_yang(hecke_double(window=1), degree=2)
        assert rep["degree2_residual_classes"] == 1104
        assert (len(terms), sum(terms)) == (1156, 697)
        assert (len(positions), sum(positions)) == (696, 3392)


class TestBucketedComparison:
    @pytest.mark.parametrize("maker", [flip_double, hecke_double])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_matches_term_by_term_reference(self, maker, corrupt):
        """_differences on the buckets of every (ket, cell) is lhs - rhs as
        the term-by-term path extracts it, at every (r, s), and its
        remainder modulo the sparse span is that of the dense span."""
        M = 1
        cd = maker(window=M)
        if corrupt:
            bump_exchange(cd)
        trig = cd.cb.base.kind == HECKE
        theta = 0 if trig else 1
        interior = 2 * M + 2
        t1, t2 = _yang_expressions(cd)
        dense, index = _dense_relation_span(cd, far=3 * M + 3)
        rows, span_index, _ = _exchange_relation_span(cd)
        lhs_box, rhs_box = _readers(M, theta)
        n2 = cd.N * cd.N
        nonzero = 0
        prefixes = {}
        for ket in _kets(cd.N, M, 2):
            evaluate = _ket_evaluator(cd, ket, prefixes)
            for x, y in itertools.product(range(n2), repeat=2):
                plain, delta = _buckets(t1[x * n2 + y], evaluate, interior, lhs_box)
                pole = _buckets(t2[x * n2 + y], evaluate, M, rhs_box, negate=True)[0]
                diffs = _differences(plain, delta, pole, theta, M)
                ev1 = [_EvaluatedTerm(c, d, _eval_factors(cd, f, ket, interior))
                       for (f, d), c in t1[x * n2 + y].items()]
                ev2 = [_EvaluatedTerm(c, d, _eval_factors(cd, f, ket, M))
                       for (f, d), c in t2[x * n2 + y].items()]
                for r, s in itertools.product(range(-M, M + 1), repeat=2):
                    eu, ev = -r - 1, -s - 1
                    diff = diffs.get((eu, ev), {})
                    want = _extract(cd, ev1, eu, ev, apply_pole=False)
                    for w, c in _extract(cd, ev2, eu, ev, apply_pole=True).items():
                        add_term(want, w, -c)
                    assert diff == want
                    reduced = remainder({span_index[w]: c for w, c in diff.items()}, rows)
                    want = _dense_reduce_mod_span(want, dense, index)
                    assert reduced == {index[w]: c for w, c in want.items()}
                    nonzero += bool(reduced)
        assert nonzero


class TestReadoutMatchesReference:
    """verify_yang reports what the per-(r, s) readout that it replaced
    reports: verdict, mismatches in order, counts, residue and spot check."""

    @pytest.mark.parametrize("maker", [flip_double, hecke_double])
    @pytest.mark.parametrize("window", [0, 1, 2])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("corrupt", [None, bump_constant, bump_exchange],
                             ids=lambda f: f.__name__ if f else "true")
    def test_report_matches_reference(self, maker, window, degree, corrupt):
        doubles = [maker(window) for _ in range(2)]
        if corrupt:
            doubles = [corrupt(cd) for cd in doubles]
        got = verify_yang(doubles[0], degree)
        assert got == yang_reference.verify_yang(doubles[1], degree)
        if corrupt is bump_constant and degree == 1 and window:
            assert got["mismatches"]

    @pytest.mark.parametrize("maker", [twisted_double, superflip_double])
    def test_other_families_match_reference(self, maker):
        got = verify_yang(maker(1), 2)
        assert got == yang_reference.verify_yang(maker(1), 2)
        assert not got["mismatches"]


class TestPrefixSharing:
    @pytest.mark.parametrize("braiding, N, window, degree", [
        ("flip", 2, 1, 2), ("flip", 2, 2, 2),
        ("std-hecke", 2, 1, 2), ("std-hecke", 2, 2, 2),
        ("std-hecke", 3, 1, 1)])
    def test_pieces_match_per_ket_evaluation(self, braiding, N, window, degree):
        """The shared-prefix pieces of every word on every ket sum to the
        whole word evaluated on that ket, at every key that the word's
        reader reads: pruning the prefixes to the reader's box drops only
        keys that it does not read."""
        base = make_flip(N) if braiding == "flip" else make_standard_hecke(N)
        cd = make_current_double(baxterize(base), window)
        t1, t2 = _yang_expressions(cd)
        lhs_box, rhs_box = _readers(window, cd.cb.pole()[1])
        words = {(f, 2 * window + 2, OPEN if d else lhs_box)
                 for cell in t1 for (f, d) in cell}
        words |= {(f, window, rhs_box) for cell in t2 for (f, _) in cell}
        prefixes = {}
        for ket in _kets(N, window, degree):
            evaluate = _ket_evaluator(cd, ket, prefixes)
            for f, clip, box in words:
                whole = _windowed_eval_factors(cd, f, ket, clip, window)
                assert (_assembled(evaluate, f, clip, box, window)
                        == {key: states for key, states in whole.items()
                            if _inside(key, box)})

    def test_merged_terms(self):
        # cancelled (factors, dist) keys drop out of the cells
        t1, t2 = _yang_expressions(hecke_double())
        for cells, count in ((t1, 64), (t2, 32)):
            assert sum(map(len, cells)) == count
            assert not any(c.is_zero() for cell in cells for c in cell.values())
            assert all(f[-1][0] == "a" for cell in cells for (f, _) in cell)


class TestExpressionsMatchFormalReference:
    @pytest.mark.parametrize("maker", [hecke_double, flip_double])
    def test_cells_match_formal_products(self, maker):
        """T1 and T2, cell by cell, are those built from the formal
        written products on std-hecke N = 2 and the flip N = 2."""
        cd = maker(window=1)
        got = _yang_expressions(cd)
        want = [formal_reference.as_cells(t, cd.N)
                for t in formal_reference.yang_expressions(cd)]
        assert [len(t) for t in got] == [cd.N ** 4] * 2
        assert list(got) == want
        assert all(any(t) for t in got)


class TestRelationSpan:
    @pytest.mark.parametrize("maker", [flip_double, hecke_double,
                                       superflip_double, twisted_double])
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_matches_dense_reduction(self, maker, window):
        cd = maker(window)
        rows, index, inv_index = _exchange_relation_span(cd)
        near, _ = _dense_relation_span(cd, 3 * window + 3)
        far, dense_index = _dense_relation_span(cd, 3 * window + 5)
        assert near.rank == far.rank == len(rows)
        assert index == dense_index
        assert inv_index == {t: p for p, t in index.items()}
        assert rows == _dense_pivot_rows(near)

    @pytest.mark.parametrize("maker", [flip_double, hecke_double,
                                       superflip_double, twisted_double])
    def test_instances_are_the_window_projections(self, maker):
        """Each instance brings exactly the terms of the full instance whose
        two modes lie in the window, in the same order."""
        cd = maker(1)
        pairs = list(itertools.product(range(-8, 9), repeat=2))
        inside = [[(pair, c) for pair, c in terms
                   if all(abs(m) <= cd.window for _, m in pair)]
                  for terms in full_relation_instances(cd, pairs, 12)]
        assert list(_relation_instances(cd, pairs)) == inside

    def test_growing_rank_raises(self, monkeypatch):
        """A relation row that only the instances beyond 3M + 3 bring, on
        a word outside the span, makes the rank grow."""
        cd = flip_double(window=1)
        rows, _, inv_index = _exchange_relation_span(cd)
        free = min(set(inv_index) - set(rows))
        real = currents._relation_instances

        def with_extra_row(cd, mode_pairs):
            mode_pairs = list(mode_pairs)
            yield from real(cd, mode_pairs)
            if max(max(abs(m), abs(n)) for m, n in mode_pairs) > 3 * cd.window + 3:
                yield [(inv_index[free], ONE)]

        monkeypatch.setattr(currents, "_relation_instances", with_extra_row)
        with pytest.raises(WindowOverflow):
            _exchange_relation_span(cd)


class TestRelationChecks:
    @pytest.mark.parametrize("maker", [flip_double, hecke_double])
    def test_a_side_certificates(self, maker):
        cb = maker().cb
        assert not current_relation_check(spectral_braid_certificate(cb),
                                          unitarity_certificate(cb))

    def test_a_side_tags_the_failures_of_r(self):
        """The dual square's certificates fail at R's monomials, so the
        a-side check tags R's lists, braid first."""
        assert current_relation_check([(1, 0, 0)], [(0, 2, 0), (2, 0, 0)]) == [
            ("braid", (1, 0, 0)), ("unitarity", (0, 2, 0)), ("unitarity", (2, 0, 0))]

    @pytest.mark.parametrize("failing, record, tag", [
        ("spectral_braid_certificate", "spectral-braid-certificate", "braid"),
        ("unitarity_certificate", "spectral-unitarity-certificate", "unitarity"),
    ])
    def test_either_certificate_can_fail(self, monkeypatch, capsys, tmp_path,
                                         failing, record, tag):
        """A failing certificate function, patched where the currents
        records look it up, fails the braiding's own record and the a-side
        check, which tags its failures "braid" or "unitarity"."""
        monkeypatch.setattr(currents, failing, lambda cb: [(1, 0, 0)])
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--braiding", "flip", "--n", "2", "--suite", "currents",
                         "--window", "0", "--out", str(out)]) == 1
        capsys.readouterr()
        checks = json.loads(out.read_text())["checks"]
        assert {c["check_id"] for c in checks if c["verdict"] == "fail"} == {
            record, "current-relations-a-side"}
        [a_side] = [c for c in checks if c["check_id"] == "current-relations-a-side"]
        assert f"('{tag}', (1, 0, 0))" in a_side["witness"]

    def test_certificates_are_computed_once(self, monkeypatch, capsys):
        """A whole currents suite runs each certificate once, on R; the
        a-side check builds no dual braiding and reads R's lists."""
        calls, built = [], []
        for name in ("spectral_braid_certificate", "unitarity_certificate"):
            real = getattr(currents, name)
            monkeypatch.setattr(currents, name,
                                lambda cb, real=real, name=name:
                                calls.append((name, cb.base.name)) or real(cb))
        init = braidings.Braiding.__init__
        monkeypatch.setattr(braidings.Braiding, "__init__",
                            lambda self, *args, **kwargs:
                            built.append(args) or init(self, *args, **kwargs))
        assert cli.main(["verify", "--braiding", "std-hecke", "--n", "2",
                         "--suite", "currents", "--window", "0"]) == 0
        capsys.readouterr()
        assert sorted(calls) == [("spectral_braid_certificate", "std-hecke-2"),
                                 ("unitarity_certificate", "std-hecke-2")]
        assert len(built) == 1
