import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import braidings
from qfock.braidings import baxterize, make_flip, make_standard_hecke
from qfock.currents import (
    CurrentDouble,
    ModeState,
    current_relation_check,
    make_current_double,
    mode_permute,
    verify_yang,
    zf_act,
)
from qfock.errors import WindowOverflow
from qfock.scalars import ONE, ZERO, Scalar


def flip_double(window=2):
    return make_current_double(baxterize(make_flip(2), "rational"), window)


def hecke_double(window=2):
    return make_current_double(baxterize(make_standard_hecke(2), "trigonometric"), window)


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


class TestZfAct:
    def test_vacuum_annihilated(self):
        cd = hecke_double()
        for a in range(2):
            for k in range(-2, 3):
                assert zf_act(cd, (a, k), ModeState.vacuum(2)).is_zero()

    def test_degree_one_contraction(self):
        cd = hecke_double()
        b = cd.cb.base
        for a in range(2):
            for bgen in range(2):
                for l in range(-2, 3):
                    st_ = ModeState({((bgen, l),): ONE}, 2)
                    got = zf_act(cd, (a, 1 - l), st_)
                    want = b.B[bgen][a]
                    if want.is_zero():
                        assert got.is_zero()
                    else:
                        assert got.terms == {(): want}

    def test_flip_degree_two_matches_classical_oracle(self):
        cd = flip_double()
        for modes in itertools.product(range(-2, 3), repeat=3):
            k, m1, m2 = modes
            for gens in itertools.product(range(2), repeat=3):
                a, g1, g2 = gens
                st_ = ModeState({((g1, m1), (g2, m2)): ONE}, 2)
                got = zf_act(cd, (a, k), st_)
                word = (("a", a, k), ("c", g1, m1), ("c", g2, m2))
                want = {}
                for (cw, aw), coeff in classical_mode_normal_order(word).items():
                    if not aw:
                        want[cw] = Scalar.from_int(coeff)
                assert got.terms == want

    def test_each_application_lowers_degree_by_one(self):
        cd = hecke_double()
        st_ = ModeState({((0, 0), (1, 1)): ONE}, 2)
        out = zf_act(cd, (0, 1), st_)
        assert all(len(w) == 1 for w in out.terms)

    def test_window_enforced_on_states(self):
        with pytest.raises(WindowOverflow):
            ModeState({((0, 7),): ONE}, 2)


class TestYang:
    def test_flip_rational_window2_degree1(self):
        rep = verify_yang(flip_double(), degree=1)
        assert rep["passed"]
        assert rep["window_monotone_spot_check"]
        assert rep["matrix_elements"] == 16 * 25 * 11

    def test_hecke_trigonometric_window2_degree1(self):
        rep = verify_yang(hecke_double(), degree=1)
        assert rep["passed"]

    def test_hecke_n3_trigonometric_window1(self):
        cd = make_current_double(
            baxterize(make_standard_hecke(3), "trigonometric"), window=1)
        rep = verify_yang(cd, degree=1, spot_enlarge=False)
        assert rep["passed"]
        assert rep["matrix_elements"] == 81 * 9 * 10

    def test_vacuum_elements_vanish_off_support(self):
        # the delta side on the vacuum has no support at all; both sides 0
        from qfock.currents import _yang_expressions, _EvaluatedTerm, _eval_factors, _extract
        cd = flip_double()
        t1, t2 = _yang_expressions(cd)
        ev1 = [_EvaluatedTerm(c, d, _eval_factors(cd, f, (), 6))
               for (c, f, d) in t1[0][0]]
        got = _extract(cd, ev1, -4 - 1, -4 - 1, apply_pole=False)
        assert got == {}

    def test_desk_scale_guard(self):
        with pytest.raises(WindowOverflow):
            verify_yang(flip_double(), degree=3)

    def test_degree_two_is_report_only(self):
        # degree-2 kets live in the free module, which the defining ideals
        # only cut down in the true double; the strict check covers
        # degree <= 1 and the degree-2 residue is reported, not gated
        cd = flip_double(window=1)
        rep = verify_yang(cd, degree=2, spot_enlarge=False)
        assert rep["passed"]          # degree <= 1 part is strict and exact
        assert rep["degree2_report_only"]
        assert rep["degree2_residual_classes"] >= 0


class TestRelationChecks:
    @pytest.mark.parametrize("maker", [flip_double, hecke_double])
    def test_b_and_a_side_certificates(self, maker):
        cd = maker()
        assert current_relation_check(cd, "b-side")["passed"]
        assert current_relation_check(cd, "a-side")["passed"]

    @pytest.mark.parametrize("failing", ["spectral_braid_certificate",
                                         "unitarity_certificate"])
    def test_b_side_fails_with_either_certificate(self, monkeypatch, failing):
        monkeypatch.setattr(braidings, failing, lambda cb: {"passed": False})
        assert not current_relation_check(flip_double(), "b-side")["passed"]

    def test_b_side_reuses_grid_certificates(self, monkeypatch):
        calls = []
        for name in ("spectral_braid_certificate", "unitarity_certificate"):
            real = getattr(braidings, name)
            monkeypatch.setattr(braidings, name,
                                lambda cb, real=real, name=name:
                                calls.append(name) or real(cb))
        cd = flip_double()
        assert cd.cb.braid_certificate["passed"]
        assert cd.cb.unitarity_certificate["passed"]
        assert current_relation_check(cd, "b-side")["passed"]
        assert sorted(calls) == ["spectral_braid_certificate",
                                 "unitarity_certificate"]

    @pytest.mark.parametrize("maker", [flip_double, hecke_double])
    def test_half_current_partition(self, maker):
        rep = current_relation_check(maker(), "half-currents")
        assert rep["passed"]
        assert rep["report_only"]
        assert rep["residual_out_of_window_terms"] > 0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            current_relation_check(flip_double(), "c-side")
