"""Acceptance gate: every criterion runs at its stated tolerance (all
checks are exact; the only tolerances are runtime budgets) and prints one
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import pytest

from qfock.braidings import (
    baxterize,
    braiding_to_table,
    builtin_table_path,
    dual_pairings,
    expected_mu,
    load_braiding_table,
    load_builtin,
    make_flip,
    make_standard_hecke,
    make_superflip,
    spectral_braid_certificate,
    unitarity_certificate,
)
from qfock.currents import make_current_double, verify_yang
from qfock.errors import InvalidTable, UnsupportedDouble
from qfock.fockdouble import (
    braided_lie,
    make_double,
    representation_l_relations_ok,
    verify_compatibility,
    verify_l_relations,
    verify_lie,
)
from qfock.quadalgebras import make_algebra, super_sym_dims
from qfock.scalars import ONE, Q, QINV, Scalar, sum_into


def report(number, label, elapsed, budget):
    print(f"ACCEPTANCE {number}: PASS - {label} ({elapsed:.2f}s / budget {budget}s)")


class TestAcceptance:
    def test_1_classical_anchor(self):
        t0 = time.perf_counter()
        for N in (2, 3):
            b = make_flip(N)
            assert b.psi == b.R
            assert b.B == [{i: ONE} for i in range(N)]
            assert b.C == [{i: ONE} for i in range(N)]
        for N in (2, 3):
            d = make_double(make_flip(N), "bosonic")
            # Weyl relations: x^j x_i = x_i x^j + delta_i^j
            for j in range(N):
                for i in range(N):
                    got = d.normal_order((("a", j), ("b", i)))
                    want = {((i,), (j,)): ONE}
                    if i == j:
                        want[((), ())] = ONE
                    assert got == want
        # classical commutator identity for the L-entries l_i^j = x_i x^j
        d3 = make_double(make_flip(3), "bosonic")
        minus = Scalar.from_int(-1)

        def l_gen(i, j):
            return {((i,), (j,)): ONE}

        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for m in range(3):
                        lhs = dict(d3.multiply(l_gen(i, j), l_gen(k, m)))
                        sum_into(lhs, d3.multiply(l_gen(k, m), l_gen(i, j)), minus)
                        rhs = {}
                        if k == j:
                            sum_into(rhs, l_gen(i, m))
                        if i == m:
                            sum_into(rhs, l_gen(k, j), minus)
                        assert lhs == rhs
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        report(1, "flip anchors: Psi=P, B=C=I, Weyl relations, gl-commutators",
               elapsed, 1)

    def test_2_hecke_suite(self):
        t0 = time.perf_counter()
        for N in (2, 3):
            b = make_standard_hecke(N)
            assert b.braid_ok()
            assert b.kind_polynomial_ok()
            sk = b.skew
            assert sk.strict
            assert sk.alpha is not None          # B C = alpha I
            assert sk.alpha == Scalar.q_power(-2 * N)
            dp = dual_pairings(b)
            assert dp.left == sk.B               # left pairing equals B
            assert dp.tilde_right == sk.B_inv    # tilde pairing equals B^{-1}
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        report(2, "standard Hecke N=2,3: braid, Hecke condition, strict "
                  "skew-invertibility, BC=alpha I, dual pairings", elapsed, 30)

    def test_3_compatibility(self):
        t0 = time.perf_counter()
        cases = [
            (make_standard_hecke(2), "bosonic"),
            (make_standard_hecke(2), "fermionic"),
            (load_builtin("bmw-orth-3"), "bosonic"),
            (load_builtin("bmw-sympl-2"), "fermionic"),
        ]
        for b, flavor in cases:
            d = make_double(b, flavor)
            rep = verify_compatibility(d)
            assert not rep["closed_identity"], (d.family, flavor)
            assert not rep["ideal_checks"], (d.family, flavor)
            assert not rep["diamond"], (d.family, flavor)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        report(3, "compatibility identities and degree-3 diamonds for all "
                  "four (family, flavor) pairs", elapsed, 120)

    def test_4_reflection_identity_hecke(self):
        t0 = time.perf_counter()
        for N in (2, 3):
            d = make_double(make_standard_hecke(N), "bosonic")
            assert not verify_l_relations(d)
        d2 = make_double(make_standard_hecke(2), "bosonic")
        d3 = make_double(make_standard_hecke(3), "bosonic")
        for k in (1, 2, 3):
            assert representation_l_relations_ok(d2, k)
            assert representation_l_relations_ok(d3, k)
        elapsed = time.perf_counter() - t0
        report(4, "modified reflection identity exact in the double for "
                  "N=2,3 and for the representing matrices, k <= 3", elapsed,
               "none stated")

    def test_5_bmw_identity(self):
        t0 = time.perf_counter()
        orth = load_builtin("bmw-orth-3")
        assert orth.mu == expected_mu("orthogonal", 3) == Scalar.q_power(-2)
        do = make_double(orth, "bosonic")
        assert not verify_l_relations(do)   # PP = P^q + P^mu
        sympl = load_builtin("bmw-sympl-2")
        assert sympl.mu == expected_mu("symplectic", 2) == Scalar.q_power(-3, -1)
        ds = make_double(sympl, "fermionic")
        assert not verify_l_relations(ds)   # PP = P^{-1/q} + P^mu
        elapsed = time.perf_counter() - t0
        report(5, "BMW quadratic L-identity exact: orthogonal N=3 and "
                  "symplectic N=2 with their series mu values", elapsed,
               "none stated")

    def test_6_braided_lie_suite(self):
        t0 = time.perf_counter()
        bl = braided_lie(make_standard_hecke(2))
        out = verify_lie(bl)
        assert not out["defining"]            # reconstruction property
        assert not out["trace_generators"]    # Tr_R l_i^j = alpha delta
        assert not out["trace_brackets"]      # Tr_R [ , ] = 0 on all basis pairs
        assert not out["jacobi"]              # Hecke Jacobi, all 64 basis triples
        assert not out["quadratic_consistency"]
        for maker in (lambda: make_flip(2), lambda: make_flip(3),
                      lambda: make_superflip(1, 1)):
            assert not verify_lie(braided_lie(maker()))["jacobi"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        report(6, "braided Lie: defining property, R-traces, Hecke Jacobi "
                  "(N=2, all End(V)^3 basis coordinates), involutive Jacobi "
                  "for flip and super-flip", elapsed, 120)

    def test_7_poincare(self):
        t0 = time.perf_counter()
        for N in (2, 3):
            b = make_standard_hecke(N)
            for kind, classical in (("sym", super_sym_dims(N, 0, 5)),
                                    ("lambda", super_sym_dims(0, N, 5))):
                alg = make_algebra(b, kind, "V")
                assert alg.poincare(5) == classical
        # BMW series: deformations of the flip, so compared and gated
        bmw_report = {}
        for name, N in (("bmw-orth-3", 3), ("bmw-sympl-2", 2)):
            b = load_builtin(name)
            for kind, classical in (("sym", super_sym_dims(N, 0, 4)),
                                    ("lambda", super_sym_dims(0, N, 4))):
                dims = make_algebra(b, kind, "V").poincare(4)
                bmw_report[f"{name}:{kind}"] = (dims, classical)
        elapsed = time.perf_counter() - t0
        for key, (dims, classical) in bmw_report.items():
            assert dims == classical, key
        report(7, f"Hecke Poincare classical k<=5 and BMW k<=4 (gating): "
                  f"{sorted(bmw_report)}", elapsed, "none stated")

    def test_8_currents(self):
        t0 = time.perf_counter()
        rational = baxterize(make_flip(2), "rational")
        trig = baxterize(make_standard_hecke(2), "trigonometric")
        for cb in (rational, trig):
            assert not spectral_braid_certificate(cb)
            assert not unitarity_certificate(cb)
        for cb in (rational, trig):
            cd = make_current_double(cb, window=2)
            out = verify_yang(cd, degree=1)
            assert not out["mismatches"]
            assert out["matrix_elements"] == 16 * 25 * 11   # entries*(r,s)*kets
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        report(8, "current certificates (expansion in u, v, w) and spectral "
                  "L-identity matrix elements, degree <= 1, window 2, "
                  "all (r,s), including the pole-delta cancellation",
               elapsed, 300)

    def test_9_negative_controls(self):
        t0 = time.perf_counter()
        # corrupted BMW table is rejected
        with open(builtin_table_path("bmw-orth-3"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["entries"][0]["value"] = (Q + ONE).to_pairs()
        with pytest.raises(InvalidTable):
            load_braiding_table(doc)
        # bosonic symplectic double is rejected
        with pytest.raises(UnsupportedDouble):
            make_double(load_builtin("bmw-sympl-2"), "bosonic")
        # corrupted permutation tensor fails the diamond test
        d = make_double(make_standard_hecke(2), "bosonic")
        (i, j, c) = d.exchange[(0, 1)][0]
        d.exchange[(0, 1)][0] = (i, j, c + ONE)
        d._order_cache.clear()
        rep = verify_compatibility(d)
        assert any(rep.values())
        elapsed = time.perf_counter() - t0
        report(9, "negative controls: bad table, inadmissible flavor, "
                  "corrupted permutation tensor", elapsed, "none stated")
