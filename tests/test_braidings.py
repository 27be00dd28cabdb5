import itertools
import json
from fractions import Fraction

import pytest

from qfock.braidings import (
    BMW,
    TABLE_MAX_EXPONENT,
    Braiding,
    CurrentBraiding,
    baxterize,
    braiding_to_table,
    builtin_table_path,
    dual_pairings,
    dual_square,
    expected_mu,
    extend_to_duals,
    load_braiding_table,
    load_builtin,
    make_bmw,
    make_flip,
    make_standard_hecke,
    make_superflip,
    mixed_transport,
    projector_decomposition_ok,
    projectors,
    skew_inverse,
    specialize,
    spectral_braid_certificate,
    unitarity_certificate,
)
from qfock.errors import (
    InconsistentMu,
    InvalidTable,
    NotSkewInvertible,
    NotStrictlySkewInvertible,
    UnsupportedBase,
)
from qfock.fockdouble import (
    family_flavor,
    make_double,
    verify_compatibility,
    verify_l_relations,
)
from qfock.quadalgebras import make_algebra, super_sym_dims
from qfock.scalars import ONE, Q, QINV, ZERO, Scalar
from qfock.tensorops import (
    LinOperator,
    enc_index,
    kernel_image,
    partial_trace,
    place,
)

from dense_operators import dense, from_dense


def identity_rows(N):
    return [{i: ONE} for i in range(N)]


def traced_flip(N):
    """What Tr_2 R_12 Psi_23 = P_13 looks like after the trace: the flip
    acting between the two surviving legs."""
    return LinOperator.flip(N)


class TestFlip:
    @pytest.mark.parametrize("N", [2, 3])
    def test_psi_is_flip_and_traces_trivial(self, N):
        b = make_flip(N)
        assert b.psi == b.R
        assert b.B == identity_rows(N)
        assert b.C == identity_rows(N)
        assert b.alpha == ONE

    def test_flip3_satisfies_unit_hecke_condition(self):
        # (P - I)(P + I) = 0, the q = 1 shadow of the Hecke condition
        b = make_flip(3)
        ident = LinOperator.identity(3, 2)
        assert ((b.R - ident) @ (b.R + ident)).is_zero()

    @pytest.mark.parametrize("N", [2, 3])
    def test_defining_trace_identity(self, N):
        # Tr_2 R_12 Psi_23 = P_13, checked through the tensorops route
        b = make_flip(N)
        prod = place(b.R, (1, 2), 3) @ place(b.psi, (2, 3), 3)
        assert partial_trace(prod, {2}) == traced_flip(N)


class TestSuperflip:
    def test_b_matrix_signs(self):
        b = make_superflip(1, 1)
        assert b.B == [{0: ONE}, {1: Scalar.from_int(-1)}]
        assert b.C == b.B
        assert b.alpha == ONE

    def test_involutive(self):
        b = make_superflip(1, 2)
        assert not b.validate()
        assert b.skew.strict

    @pytest.mark.parametrize("m,n", [(-1, 3), (2, -1), (0, 0)])
    def test_negative_or_empty_split_rejected(self, m, n):
        with pytest.raises(ValueError, match="at least 0"):
            make_superflip(m, n)


class TestStandardHecke:
    def test_n2_hecke_condition_exact(self):
        b = make_standard_hecke(2)
        ident = LinOperator.identity(2, 2)
        lhs = (b.R - ident.scale(Q)) @ (b.R + ident.scale(QINV))
        assert lhs.is_zero()

    def test_n2_eigenspace_dimensions(self):
        b = make_standard_hecke(2)
        pr = projectors(b)
        assert kernel_image(pr["q"].rows, 4).rank == 3
        assert kernel_image(pr["-1/q"].rows, 4).rank == 1

    def test_n2_image_rank_of_hecke_relation_map(self):
        b = make_standard_hecke(2)
        ident = LinOperator.identity(2, 2)
        m = ident.scale(Q) - b.R
        assert kernel_image(m.rows, 4).rank == 1

    @pytest.mark.parametrize("N", [2, 3])
    def test_skew_data(self, N):
        b = make_standard_hecke(N)
        sk = b.skew
        assert sk.strict
        for i in range(N):
            for j in range(N):
                if i != j:
                    assert sk.B[i].get(j, ZERO).is_zero() and sk.C[i].get(j, ZERO).is_zero()
        assert sk.alpha == Scalar.q_power(-2 * N)

    def test_n2_frozen_b_and_c(self):
        sk = make_standard_hecke(2).skew
        assert sk.B == [{0: Scalar.q_power(-3)}, {1: QINV}]
        assert sk.C == [{0: QINV}, {1: Scalar.q_power(-3)}]

    def test_degenerates_to_flip_at_q_one(self):
        b = make_standard_hecke(2)
        f = make_flip(2)
        at1 = [[e.evaluate(1) for e in row] for row in dense(b.R)]
        flip1 = [[e.evaluate(1) for e in row] for row in dense(f.R)]
        assert at1 == flip1

    def test_partial_trace_route_matches_b(self):
        b = make_standard_hecke(2)
        traced = partial_trace(b.psi, {1})
        assert [[dense(traced)[j][i] for j in range(2)] for i in range(2)] == \
            [[b.B[i].get(j, ZERO) for j in range(2)] for i in range(2)]

    def test_defining_trace_identity(self):
        b = make_standard_hecke(2)
        prod = place(b.R, (1, 2), 3) @ place(b.psi, (2, 3), 3)
        assert partial_trace(prod, {2}) == traced_flip(2)


class TestSkewInverseErrors:
    def test_rank_deficient_operator_rejected(self):
        rows = [[ZERO] * 4 for _ in range(4)]
        rows[0][0] = ONE
        fake = Braiding(2, from_dense(rows, 2, 2), "involutive")
        with pytest.raises(NotSkewInvertible):
            skew_inverse(fake)

    def test_singular_operator_has_no_duals(self):
        from qfock.errors import NotInvertible
        p = LinOperator.flip(2)
        ident = LinOperator.identity(2, 2)
        half = Scalar.make({0: 1}, {0: 2})
        sym = (ident + p).scale(half)   # rank-3 idempotent, not invertible
        fake = Braiding(2, sym, "involutive")
        with pytest.raises(NotInvertible):
            extend_to_duals(fake)


class TestDuals:
    def test_flip_extensions_are_flips(self):
        b = make_flip(2)
        ext = extend_to_duals(b)
        flip_entries = dense(b.R)
        assert dense(ext.v_vstar) == flip_entries
        assert dense(ext.vstar_v) == flip_entries
        assert dense(ext.vstar_vstar) == flip_entries

    @pytest.mark.parametrize("maker", [
        lambda: make_flip(3),
        lambda: make_superflip(2, 1),
        lambda: make_standard_hecke(2),
        lambda: make_standard_hecke(3),
        lambda: make_bmw(3, "orthogonal"),
        lambda: make_bmw(2, "symplectic"),
    ])
    def test_r_on_v_vstar_inverts_the_vstar_v_extension(self, maker):
        """R read as a map V (x) V* -> V* (x) V is the inverse of the
        extension of R to V* (x) V: that is the defining contraction of the
        skew inverse."""
        b = maker()
        p = extend_to_duals(b).vstar_v
        p_inv = mixed_transport(b.R)
        assert p_inv @ p == LinOperator.identity(b.N, 2, ("V*", "V"))
        assert p @ p_inv == LinOperator.identity(b.N, 2, ("V", "V*"))

    def test_vstar_v_reproduces_psi(self):
        b = make_standard_hecke(2)
        ext = extend_to_duals(b)
        N = 2
        for i in range(N):
            for j in range(N):
                for k in range(N):
                    for l in range(N):
                        assert dense(ext.vstar_v)[enc_index((l, k), N)][enc_index((i, j), N)] == \
                            dense(b.psi)[enc_index((l, i), N)][enc_index((k, j), N)]

    @pytest.mark.parametrize("maker", [make_flip, make_standard_hecke])
    def test_mixed_braid_relation_v_v_vstar(self, maker):
        b = maker(2)
        ext = extend_to_duals(b)
        lab0 = ("V", "V", "V*")
        # word R12 R23 R12 applied right to left
        a1 = place(b.R, (1, 2), 3, labels=lab0)
        a2 = place(ext.v_vstar, (2, 3), 3, labels=a1.labels_out)
        a3 = place(ext.v_vstar, (1, 2), 3, labels=a2.labels_out)
        lhs = a3 @ a2 @ a1
        b1 = place(ext.v_vstar, (2, 3), 3, labels=lab0)
        b2 = place(ext.v_vstar, (1, 2), 3, labels=b1.labels_out)
        b3 = place(b.R, (2, 3), 3, labels=b2.labels_out)
        rhs = b3 @ b2 @ b1
        assert lhs == rhs

    def test_dual_square_satisfies_same_minimal_polynomial(self):
        b = make_standard_hecke(3)
        rs = dual_square(b.R)
        ident = LinOperator.identity(3, 2, ("V*", "V*"))
        assert ((rs - ident.scale(Q)) @ (rs + ident.scale(QINV))).is_zero()

    def test_pairings(self):
        b = make_standard_hecke(2)
        dp = dual_pairings(b)
        assert dp.left == b.B                     # left pairing equals B
        assert dp.tilde_right == [{0: Scalar.q_power(3)}, {1: Q}]

    def test_flip_pairings_trivial(self):
        dp = dual_pairings(make_flip(3))
        assert dp.left == identity_rows(3)
        assert dp.tilde_right == identity_rows(3)


class TestProjectors:
    def test_flip_symmetrizer(self):
        b = make_flip(2)
        pr = projectors(b)
        ident = LinOperator.identity(2, 2)
        half = Scalar.make({0: 1}, {0: 2})
        assert pr["q"] == (ident + b.R).scale(half)
        assert pr["-1/q"] == (ident - b.R).scale(half)

    @pytest.mark.parametrize("maker", [make_flip, make_standard_hecke])
    def test_completeness(self, maker):
        assert projector_decomposition_ok(maker(2))

    def test_bmw_orthogonal_mu_rank_one(self):
        b = load_builtin("bmw-orth-3")
        pr = projectors(b)
        assert kernel_image(pr["mu"].rows, 9).rank == 1

    def test_bmw_ranks(self):
        b = load_builtin("bmw-orth-3")
        pr = projectors(b)
        ranks = {k: kernel_image(p.rows, p.size).rank for k, p in pr.items()}
        assert ranks == {"q": 5, "-1/q": 3, "mu": 1}
        assert projector_decomposition_ok(b)
        s = load_builtin("bmw-sympl-2")
        prs = projectors(s)
        ranks = {k: kernel_image(p.rows, p.size).rank for k, p in prs.items()}
        assert ranks == {"q": 3, "-1/q": 0, "mu": 1}


class TestTables:
    def test_roundtrip(self):
        b = make_standard_hecke(2)
        doc = braiding_to_table(b)
        again = load_braiding_table(doc)
        assert again.R == b.R and again.kind == b.kind

    @pytest.mark.parametrize("name", ["std-hecke-2", "std-hecke-3", "bmw-orth-3", "bmw-sympl-2"])
    def test_builtin_tables_load(self, name):
        b = load_builtin(name)
        assert not b.validate()
        assert b.skew.strict
        assert b.alpha is not None

    def test_symplectic_mu_value(self):
        b = load_builtin("bmw-sympl-2")
        assert b.mu == expected_mu("symplectic", 2)
        assert b.mu == Scalar.q_power(-3, -1)

    def test_orthogonal_cubic_polynomial(self):
        b = load_builtin("bmw-orth-3")
        ident = LinOperator.identity(3, 2)
        prod = (b.R - ident.scale(Q)) @ (b.R + ident.scale(QINV)) @ \
            (b.R - ident.scale(Scalar.q_power(-2)))
        assert prod.is_zero()

    def test_corrupted_entry_rejected(self):
        with open(builtin_table_path("bmw-orth-3"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["entries"][0]["value"] = (Q + ONE).to_pairs()
        with pytest.raises(InvalidTable):
            load_braiding_table(doc)

    def test_braid_violation_rejected(self):
        doc = braiding_to_table(make_standard_hecke(2))
        # swap one exchange entry so the braid relation must break
        for ent in doc["entries"]:
            if (ent["i"], ent["j"], ent["k"], ent["l"]) == (1, 2, 2, 1):
                ent["value"] = (Q + Q).to_pairs()
        with pytest.raises(InvalidTable):
            load_braiding_table(doc)

    def test_inconsistent_mu_rejected(self):
        with open(builtin_table_path("bmw-sympl-2"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["mu"] = Scalar.q_power(-3).to_pairs()   # sign flipped
        with pytest.raises(InconsistentMu):
            load_braiding_table(doc)

    def test_malformed_documents_rejected(self):
        with pytest.raises(InvalidTable):
            load_braiding_table({"N": 2})
        doc = braiding_to_table(make_standard_hecke(2))
        doc["format_version"] = 99
        with pytest.raises(InvalidTable):
            load_braiding_table(doc)
        doc = braiding_to_table(make_standard_hecke(2))
        doc["entries"][0]["i"] = 7
        with pytest.raises(InvalidTable):
            load_braiding_table(doc)

    def test_exponent_above_the_bound_rejected(self):
        # the gcds of a polynomial denominator run on dense coefficient
        # lists: an exponent above the bound is refused before any is formed
        doc = braiding_to_table(make_standard_hecke(2))
        for ent in doc["entries"]:
            ent["value"] = {"num": [[0, 1]], "den": [[0, 1], [TABLE_MAX_EXPONENT, 1]]}
        with pytest.raises(InvalidTable, match="minimal polynomial"):
            load_braiding_table(doc)
        doc["entries"][0]["value"]["den"][1][0] = TABLE_MAX_EXPONENT + 1
        with pytest.raises(InvalidTable, match="TABLE_MAX_EXPONENT"):
            load_braiding_table(doc)

    @pytest.mark.parametrize("pair", [[1.0, 1], [1, 1.5], [1, True], [1]])
    def test_non_integer_pairs_rejected(self, pair):
        # int() would read 1.0 and 1.5 as 1, and the table would load
        doc = braiding_to_table(make_standard_hecke(2))
        doc["entries"][0]["value"] = {"num": [pair], "den": [[0, 1]]}
        with pytest.raises(InvalidTable, match="integer pairs"):
            load_braiding_table(doc)

    @pytest.mark.parametrize("make, q0", [
        (lambda: make_standard_hecke(2), Fraction(3, 2)),
        (lambda: make_standard_hecke(3), Fraction(3, 2)),
        (lambda: make_bmw(3, "orthogonal"), 2),
    ])
    def test_specialized_table_keeps_q(self, make, q0):
        b = specialize(make(), q0)
        doc = json.loads(json.dumps(braiding_to_table(b)))
        assert doc["q"] == Scalar.from_fraction(q0).to_pairs()
        again = load_braiding_table(doc)
        assert (again.R, again.q, again.mu) == (b.R, b.q, b.mu)
        doc["q"] = Scalar.from_int(5).to_pairs()
        with pytest.raises(InconsistentMu if b.kind == BMW else InvalidTable):
            load_braiding_table(doc)

    @pytest.mark.parametrize("N, series, repeated", [
        (3, "orthogonal", "q = mu = 1"), (2, "symplectic", "-1/q = mu = -1")])
    def test_repeated_root_rejected(self, N, series, repeated):
        b = specialize(make_bmw(N, series), 1)
        assert b.kind_polynomial_ok()
        assert b.validate() == [f"repeated root {repeated} of the bmw minimal polynomial"]
        with pytest.raises(InvalidTable, match=f"repeated root {repeated} "):
            load_braiding_table(braiding_to_table(b))

    def test_skew_inverse_consistency_of_all_builtins(self):
        for name in ("std-hecke-2", "bmw-orth-3", "bmw-sympl-2"):
            b = load_builtin(name)
            prod = place(b.R, (1, 2), 3) @ place(b.psi, (2, 3), 3)
            assert partial_trace(prod, {2}) == traced_flip(b.N)


class TestMakeBmw:
    @pytest.mark.parametrize("N, series", [(4, "orthogonal"), (5, "orthogonal"),
                                           (4, "symplectic"), (6, "symplectic")])
    def test_sizes_without_a_table(self, N, series):
        b = make_bmw(N, series)
        assert b.validate() == []
        assert b.skew.strict
        d = make_double(b, family_flavor(b)[1])
        assert not any(verify_compatibility(d).values())
        assert not verify_l_relations(d)
        for kind, classical in (("sym", super_sym_dims(N, 0, 3)),
                                ("lambda", super_sym_dims(0, N, 3))):
            for space in ("V", "V*"):
                assert make_algebra(b, kind, space).poincare(3) == classical

    @pytest.mark.parametrize("N, series", [(1, "orthogonal"), (0, "symplectic"),
                                           (3, "symplectic"), (5, "symplectic"),
                                           (3, "unitary")])
    def test_inadmissible_size_or_series(self, N, series):
        with pytest.raises(ValueError):
            make_bmw(N, series)


class TestBaxterize:
    @pytest.mark.parametrize("make, h, g", [
        (make_flip, Scalar.from_fraction(Fraction(1, 2)),
         Scalar.from_fraction(Fraction(1, 2))),
        # h = (q - 1/q) u/(u - v) and g = q - h at u/(u - v) = 3/2
        (make_standard_hecke,
         (Q - QINV) * Scalar.from_fraction(Fraction(3, 2)),
         Q - (Q - QINV) * Scalar.from_fraction(Fraction(3, 2)))],
        ids=["rational", "trigonometric"])
    def test_spectral_form_and_normalizer(self, make, h, g):
        cb = baxterize(make(2))
        u, v = Fraction(3), Fraction(1)
        ident = LinOperator.identity(2, 2)
        assert cb.r_at(u, v) == cb.base.R - ident.scale(h)
        assert cb.g_at(u, v) == g
        with pytest.raises(ZeroDivisionError):
            cb.r_at(u, u)

    def test_trig_normalized_involutive_at_samples(self):
        cb = baxterize(make_standard_hecke(2))
        ident = LinOperator.identity(2, 2)
        for u, v in ((2, 3), (5, 7), (3, 11)):
            u, v = Fraction(u), Fraction(v)
            assert cb.normalized_at(u, v) @ cb.normalized_at(v, u) == ident

    def test_unsupported_bases(self):
        with pytest.raises(UnsupportedBase):
            baxterize(load_builtin("bmw-orth-3"))

    @pytest.mark.parametrize("cb_maker", [
        lambda: baxterize(make_flip(2)),
        lambda: baxterize(make_standard_hecke(2)),
    ])
    def test_grid_certificates(self, cb_maker):
        cb = cb_maker()
        assert not unitarity_certificate(cb)
        assert not spectral_braid_certificate(cb)



# ---------------------------------------------------------------------------
# The grid certificates that the expansion in u, v, w replaced, kept as a
# reference.  Cleared by (u-v)(u-w)(v-w), every entry of the spectral braid
# relation is a polynomial of degree <= 2 in each spectral variable, so
# agreement on 4 points per variable (64 points; 16 for unitarity) is a
# proof of identity.
# ---------------------------------------------------------------------------

_GRID = [Fraction(x) for x in (2, 3, 5, 7)]


def _grid_cleared_r(cb, u, v):
    ident = LinOperator.identity(cb.base.N, 2, cb.base.R.labels)
    uv = Scalar.from_fraction(u - v)
    if cb.base.kind == "involutive":
        return cb.base.R.scale(uv) - ident
    return cb.base.R.scale(uv) - ident.scale((Q - QINV) * Scalar.from_fraction(u))


def _grid_cleared_g(cb, u, v):
    uv = Scalar.from_fraction(u - v)
    if cb.base.kind == "involutive":
        return uv - ONE
    return Q * uv - (Q - QINV) * Scalar.from_fraction(u)


def grid_braid_passed(cb):
    lab3 = (cb.base.R.labels[0],) * 3
    for u, v, w in itertools.product(_GRID, repeat=3):
        l1 = place(_grid_cleared_r(cb, u, v), (1, 2), 3, labels=lab3)
        l2 = place(_grid_cleared_r(cb, u, w), (2, 3), 3, labels=lab3)
        l3 = place(_grid_cleared_r(cb, v, w), (1, 2), 3, labels=lab3)
        r1 = place(_grid_cleared_r(cb, v, w), (2, 3), 3, labels=lab3)
        r2 = place(_grid_cleared_r(cb, u, w), (1, 2), 3, labels=lab3)
        r3 = place(_grid_cleared_r(cb, u, v), (2, 3), 3, labels=lab3)
        if l1 @ l2 @ l3 != r1 @ r2 @ r3:
            return False
    return True


def grid_unitarity_passed(cb):
    """The 16-point grid and the three-point spot check of the normalized
    form, as the grid certificate ran them."""
    ident = LinOperator.identity(cb.base.N, 2, cb.base.R.labels)
    for u, v in itertools.product(_GRID, repeat=2):
        lhs = _grid_cleared_r(cb, u, v) @ _grid_cleared_r(cb, v, u)
        if lhs != ident.scale(_grid_cleared_g(cb, u, v) * _grid_cleared_g(cb, v, u)):
            return False
    checked = 0
    for u, v in ((2, 3), (5, 7), (3, 11), (2, 5), (3, 7), (11, 2)):
        u, v = Fraction(u), Fraction(v)
        if cb.g_at(u, v).is_zero() or cb.g_at(v, u).is_zero():
            continue
        if cb.normalized_at(u, v) @ cb.normalized_at(v, u) != ident:
            return False
        checked += 1
        if checked == 3:
            break
    return True


def dual_transport(b):
    """The braiding of the a-side certificates: R on V* (x) V*."""
    return Braiding(b.N, dual_square(b.R), b.kind, series=b.series, q=b.q,
                    name=f"dual({b.name})")


def bumped(b, out, inp):
    """b with ONE added to its R entry at (out, in); not validated."""
    rows = dense(b.R)
    rows[out][inp] = rows[out][inp] + ONE
    return Braiding(b.N, from_dense(rows, b.N, 2), b.kind,
                    q=b.q, name=f"bumped({b.name})")


_CERTIFIED = {
    "flip-2": lambda: make_flip(2),
    "flip-3": lambda: make_flip(3),
    "superflip-1|1": lambda: make_superflip(1, 1),
    "std-hecke-2": lambda: make_standard_hecke(2),
    "std-hecke-3": lambda: make_standard_hecke(3),
}


def _bumps():
    for name in ("flip-2", "superflip-1|1", "std-hecke-2"):
        b = _CERTIFIED[name]()
        for out, row in enumerate(dense(b.R)):
            for inp, e in enumerate(row):
                if not e.is_zero():
                    yield pytest.param(name, out, inp, id=f"{name}-{out}-{inp}")


class TestSpectralCertificates:
    @pytest.mark.parametrize("transport", [False, True], ids=["R", "dual"])
    @pytest.mark.parametrize("name", sorted(_CERTIFIED))
    def test_expansion_matches_grid_on_true_data(self, name, transport):
        b = _CERTIFIED[name]()
        if transport:
            b = dual_transport(b)
        cb = CurrentBraiding(b)
        assert (not spectral_braid_certificate(cb)) is grid_braid_passed(cb) is True
        assert (not unitarity_certificate(cb)) is grid_unitarity_passed(cb) is True

    @pytest.mark.parametrize("transport", [False, True], ids=["R", "dual"])
    @pytest.mark.parametrize("name,out,inp", list(_bumps()))
    def test_expansion_matches_grid_on_bumped_entries(self, name, out, inp, transport):
        b = bumped(_CERTIFIED[name](), out, inp)
        if transport:
            b = dual_transport(b)
        cb = CurrentBraiding(b)
        assert (not spectral_braid_certificate(cb)) is grid_braid_passed(cb)
        assert (not unitarity_certificate(cb)) is grid_unitarity_passed(cb)

    @pytest.mark.parametrize("name,braid_failures", [
        ("flip-2", [(0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0)]),
        ("std-hecke-2", [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 1), (1, 2, 0),
                         (2, 0, 1), (2, 1, 0)]),
    ])
    def test_one_corrupted_entry_fails_both(self, name, braid_failures):
        """R_10^01 bumped.  The failing monomials are the exponents of
        u, v, w whose coefficient is a nonzero operator; for unitarity
        they are those of the -(u - v)^2 in front of R^2, followed by the
        three spot points, where the rational normalizer skips (2, 3)."""
        b = _CERTIFIED[name]()
        cb = baxterize(bumped(b, enc_index((0, 1), 2), enc_index((1, 0), 2)))
        spots = [(5, 7), (3, 11), (2, 5)] if name == "flip-2" else [(2, 3), (5, 7), (3, 11)]
        assert spectral_braid_certificate(cb) == braid_failures
        assert unitarity_certificate(cb) == [(0, 2, 0), (1, 1, 0), (2, 0, 0)] + [
            ("spot", Fraction(u), Fraction(v)) for u, v in spots]

    def test_operator_work_of_one_certificate_pair(self, monkeypatch):
        """R is placed once at (1,2) and once at (2,3); the braid relation
        forms its six word products, unitarity R^2 and its three spot
        products.  Nothing depends on a grid size."""
        import qfock.braidings as braidings
        calls = {"place": 0, "matmul": 0}
        real_place, real_matmul = braidings.place, LinOperator.__matmul__

        def counted_place(*args, **kwargs):
            calls["place"] += 1
            return real_place(*args, **kwargs)

        def counted_matmul(a, b):
            calls["matmul"] += 1
            return real_matmul(a, b)

        cb = baxterize(make_standard_hecke(3))
        monkeypatch.setattr(braidings, "place", counted_place)
        monkeypatch.setattr(LinOperator, "__matmul__", counted_matmul)
        assert not cb.braid_certificate
        assert not cb.unitarity_certificate
        assert calls == {"place": 2, "matmul": 6 + 1 + 3}


class TestStrictness:
    def test_dual_pairings_need_strictness(self):
        rows = [[ZERO] * 4 for _ in range(4)]
        # an involutive braiding whose B happens to be singular does not
        # exist at N=2 among our constructors, so simulate by zeroing B
        b = make_flip(2)
        data = b.skew
        data.B_inv = None
        with pytest.raises(NotStrictlySkewInvertible):
            dual_pairings(b)
