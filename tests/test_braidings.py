import functools
import itertools
import json
import random
import re
from fractions import Fraction
from operator import add

import pytest

from qfock import braidings
from qfock.braidings import (
    BMW,
    HECKE,
    TABLE_MAX_EXPONENT,
    Braiding,
    CurrentBraiding,
    baxterize,
    braiding_to_table,
    builtin_table_path,
    dual_pairings,
    dual_square,
    eigenvalues,
    evaluation_records,
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
    relation_operator,
    root_product,
    skew_inverse,
    specialize,
    spectral_braid_certificate,
    unitarity_certificate,
)
from qfock.errors import (
    DivisionByZero,
    InconsistentMu,
    InvalidArgument,
    InvalidTable,
    NonGenericPoint,
    NotSkewInvertible,
    NotStrictlySkewInvertible,
    UnsupportedBase,
    UnsupportedConstruction,
)
from qfock.fockdouble import (
    family_flavor,
    make_double,
    verify_compatibility,
    verify_l_relations,
)
from qfock.quadalgebras import (
    _image_basis,
    _on_square,
    make_algebra,
    mu_eigenspace_degree2_report,
    super_sym_dims,
)
from qfock.scalars import ONE, Q, QINV, ZERO, Scalar, nonzero_sums, sum_into
from qfock.tensorops import (
    LinOperator,
    enc_index,
    kernel_image,
    partial_trace,
    place,
)

import grid_reference
from dense_operators import dense, from_dense
from gauge import twisted
from hecke_families import FORMS, form_braiding, super_hecke


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

    @pytest.mark.parametrize("m,n", [(-1, 3), (-1, 2), (2, -1), (0, 0)])
    def test_negative_or_empty_split_rejected(self, m, n):
        # the constructor holds the size rule alone, as the CLI only parses --mn
        with pytest.raises(InvalidArgument, match="at least 0"):
            make_superflip(m, n)


class TestConstructorContract:
    """A Braiding takes only what fixes it: N is R's dimension, and an
    involutive braiding is at q = 1."""

    def test_involutive_braiding_at_another_q_is_refused(self):
        """The refusal lists the braiding's own validation failures at
        that q first, then names the q."""
        with pytest.raises(InvalidArgument) as refused:
            Braiding(LinOperator.flip(2), "involutive", q=Scalar.from_int(2))
        assert str(refused.value) == (
            "involutive minimal polynomial violated; an involutive braiding is at "
            f"q = 1, where its minimal polynomial is R^2 = I; its q is {Scalar.from_int(2)!r}")

    @pytest.mark.parametrize("make", [lambda: make_flip(2), lambda: make_superflip(1, 1)],
                             ids=["flip-2", "superflip-1|1"])
    def test_specialize_keeps_an_involutive_braiding_at_q_1(self, make):
        at = specialize(make(), Fraction(3, 2))
        assert at.kind == "involutive" and at.q == ONE

    @pytest.mark.parametrize("make", [
        lambda: make_flip(3), lambda: make_superflip(2, 1), lambda: make_standard_hecke(3),
        lambda: make_bmw(3, "orthogonal"), lambda: make_bmw(4, "symplectic"),
        lambda: specialize(make_standard_hecke(2), 2), lambda: load_builtin("std-hecke-2"),
        lambda: super_hecke(1, 2), lambda: twisted(make_standard_hecke(2))],
        ids=["flip", "superflip", "std-hecke", "bmw-orth", "bmw-sympl", "specialized",
             "table", "super-hecke", "twisted"])
    def test_n_is_read_from_r(self, make):
        b = make()
        assert b.N == b.R.dim

    @pytest.mark.parametrize("make", [lambda: make_flip(3), lambda: make_superflip(2, 1),
                                      lambda: make_standard_hecke(2),
                                      lambda: make_bmw(3, "orthogonal")],
                             ids=["flip", "superflip", "std-hecke", "bmw"])
    def test_every_builtin_is_validated_at_construction(self, make):
        """Each builtin constructor decides the structural facts before it
        returns, so they are cached on the braiding it hands out."""
        assert "failures" in make().__dict__

    def test_flip_failing_validation_is_refused(self, monkeypatch):
        flip = LinOperator.flip
        monkeypatch.setattr(LinOperator, "flip",
                            staticmethod(lambda N: flip(N).scale(Scalar.from_int(2))))
        with pytest.raises(AssertionError, match="^flip failed self-validation"):
            make_flip(2)


class TestStandardHecke:
    def test_n2_hecke_condition_exact(self):
        b = make_standard_hecke(2)
        ident = LinOperator.identity(2, 2)
        lhs = (b.R - ident.scale(Q)) @ (b.R + ident.scale(QINV))
        assert lhs.is_zero()

    def test_n2_eigenspace_dimensions(self):
        b = make_standard_hecke(2)
        pr = projectors(b)
        assert kernel_image(pr["q"][0].rows, 4).rank == 3
        assert kernel_image(pr["-1/q"][0].rows, 4).rank == 1

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
        fake = Braiding(from_dense(rows, 2, 2), "involutive")
        with pytest.raises(NotSkewInvertible):
            skew_inverse(fake)

    def test_singular_operator_has_no_duals(self):
        from qfock.errors import NotInvertible
        p = LinOperator.flip(2)
        ident = LinOperator.identity(2, 2)
        half = Scalar.make({0: 1}, {0: 2})
        sym = (ident + p).scale(half)   # rank-3 idempotent, not invertible
        fake = Braiding(sym, "involutive")
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

    @pytest.mark.parametrize("labels, labels_out", [
        (("V*", "V*"), ("V*", "V*")),
        (("V", "V*"), ("V*", "V")),
        (("V", "V"), ("V", "V*")),
    ])
    def test_braiding_refuses_r_with_dual_legs(self, labels, labels_out):
        """The structural facts place R on V legs, so an R with a V* leg is
        refused at construction, and the message names its labels."""
        b = make_standard_hecke(2)
        r = LinOperator(2, 2, labels, b.R.rows, labels_out)
        with pytest.raises(InvalidArgument, match=re.escape(f"{labels} to {labels_out}")):
            Braiding(r, b.kind, q=b.q)

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
        """P_q = (I + R)/2 and P_-1/q = (I - R)/2, held as Q / d."""
        b = make_flip(2)
        pr = projectors(b)
        ident = LinOperator.identity(2, 2)
        two = Scalar.from_int(2)
        assert pr["q"] == (ident + b.R, two)
        assert pr["-1/q"] == (b.R - ident, -two)

    @pytest.mark.parametrize("maker", [make_flip, make_standard_hecke])
    def test_completeness(self, maker):
        assert projector_decomposition_ok(maker(2))

    def test_bmw_orthogonal_mu_rank_one(self):
        b = load_builtin("bmw-orth-3")
        pr = projectors(b)
        assert kernel_image(pr["mu"][0].rows, 9).rank == 1

    def test_bmw_ranks(self):
        b = load_builtin("bmw-orth-3")
        pr = projectors(b)
        ranks = {k: kernel_image(p.rows, p.size).rank for k, (p, _) in pr.items()}
        assert ranks == {"q": 5, "-1/q": 3, "mu": 1}
        assert projector_decomposition_ok(b)
        s = load_builtin("bmw-sympl-2")
        prs = projectors(s)
        ranks = {k: kernel_image(p.rows, p.size).rank for k, (p, _) in prs.items()}
        assert ranks == {"q": 3, "-1/q": 0, "mu": 1}


def _twice_r() -> Braiding:
    """std-hecke N = 2 with R doubled: no Hecke braiding."""
    r = make_standard_hecke(2).R
    return Braiding(r.scale(Scalar.from_int(2)), HECKE, name="twice-r")


# every builtin braiding, the Hecke families of tests/hecke_families.py,
# and the twice-R corruption
CLEARED_BRAIDINGS = {
    "flip-3": lambda: make_flip(3),
    "superflip-2|1": lambda: make_superflip(2, 1),
    **{name: (lambda name=name: load_builtin(name))
       for name in ("std-hecke-2", "std-hecke-3", "bmw-orth-3", "bmw-sympl-2")},
    "std-hecke-4": lambda: make_standard_hecke(4),
    "bmw-orth-4": lambda: make_bmw(4, "orthogonal"),
    "bmw-sympl-4": lambda: make_bmw(4, "symplectic"),
    "super-hecke-2|1": lambda: super_hecke(2, 1),
    "super-hecke-1|2": lambda: super_hecke(1, 2),
    **{f"form-{n}": (lambda n=n: form_braiding(FORMS[n])) for n in sorted(FORMS)},
    "twice-r": _twice_r,
}


class TestClearedIdempotents:
    """The cleared Lagrange data (Q, d) and its cleared decomposition check
    against the normalized idempotents and check they replace, and the
    record's verdict against both (tests/grid_reference.py)."""

    @pytest.mark.parametrize("name", sorted(CLEARED_BRAIDINGS))
    def test_equal_to_the_normalized_reference(self, name):
        b = CLEARED_BRAIDINGS[name]()
        reference = grid_reference.normalized_projectors(b)
        assert grid_reference.normalized(b.lagrange) == reference
        assert reference == grid_reference.hand_projectors(b)
        verdict = grid_reference.cleared_decomposition_ok(b)
        assert verdict is grid_reference.normalized_decomposition_ok(b, reference)
        assert verdict is (name != "twice-r")
        assert projector_decomposition_ok(b) is verdict

    @pytest.mark.parametrize("series, N", [("orthogonal", 3), ("orthogonal", 4),
                                           ("orthogonal", 5), ("symplectic", 2),
                                           ("symplectic", 4)])
    def test_mu_image_basis_is_that_of_the_idempotent(self, series, N):
        b = make_bmw(N, series)
        reference = grid_reference.normalized_projectors(b)["mu"]
        assert _image_basis(b.lagrange["mu"][0]) == _image_basis(reference)

    def test_numerators_are_laurent(self):
        """No entry of a numerator Q has a polynomial denominator."""
        for name in ("bmw-orth-3", "bmw-sympl-2"):
            for p, d in load_builtin(name).lagrange.values():
                assert len(d.to_pairs()["den"]) == 1
                assert all(len(v.to_pairs()["den"]) == 1 for _, _, v in p.nonzeros())


def _coincident() -> Braiding:
    """bmw-orth 3 at q = 1, where its series fixes mu = q^(1-N) = 1, the
    root q."""
    return specialize(make_bmw(3, "orthogonal"), 1)


class TestCoincidentRoots:
    def test_mu_equals_q(self):
        b = _coincident()
        roots = eigenvalues(b)
        assert roots["mu"] == roots["q"]
        assert b.repeated_roots()
        with pytest.raises(InvalidTable, match="repeated root q = mu"):
            load_braiding_table(braiding_to_table(b))

    def test_lagrange_data_is_refused(self):
        """The idempotents do not exist, so the record fails on the
        repeated root without building them."""
        with pytest.raises(DivisionByZero):
            projectors(_coincident())
        with pytest.raises(DivisionByZero):
            _coincident().lagrange
        with pytest.raises(DivisionByZero):
            grid_reference.cleared_decomposition_ok(_coincident())
        with pytest.raises(DivisionByZero):
            grid_reference.normalized_projectors(_coincident())
        assert projector_decomposition_ok(_coincident()) is False

    def test_zero_denominator_fails_the_check(self):
        """The Lagrange data built without the refusal: Q and d vanish at
        both coinciding roots, so Q Q = d Q and each weighted sum read
        0 = 0 there; the check fails on a zero d instead."""
        b = _coincident()
        roots = eigenvalues(b)
        data = {}
        for name, root in roots.items():
            others = [mu for other, mu in roots.items() if other != name]
            d = ONE
            for mu in others:
                d = d * (root - mu)
            data[name] = (root_product(b, others), d)
        assert {name for name, (p, d) in data.items()
                if d.is_zero() and p.is_zero()} == {"q", "mu"}
        b.lagrange = data
        assert not grid_reference.cleared_decomposition_ok(b)

    def test_evaluation_records_name_no_option(self):
        """The library names the coinciding roots and no command-line
        option; the CLI adds the --q prefix."""
        with pytest.raises(NonGenericPoint) as exc:
            list(evaluation_records(make_bmw(3, "orthogonal"), Fraction(1)))
        assert str(exc.value).startswith("repeated root q = mu = 1 ")
        assert "--q" not in str(exc.value)


@pytest.mark.parametrize("construct, message", [
    # a BMW braiding of no series has no mu, so no minimal polynomial
    (lambda: eigenvalues(Braiding(make_bmw(3, "orthogonal").R, BMW)),
     "no minimal polynomial for a bmw braiding of series None"),
    (lambda: relation_operator(make_standard_hecke(2), "cubic"),
     "unknown algebra kind 'cubic'"),
    (lambda: _on_square(make_standard_hecke(2).R, "W"), "unknown space 'W'"),
    (lambda: mu_eigenspace_degree2_report(make_standard_hecke(2)),
     "mu eigenspace exists only for BMW braidings"),
], ids=["eigenvalues", "relation-operator", "on-square", "mu-eigenspace"])
def test_unsupported_construction(construct, message):
    with pytest.raises(UnsupportedConstruction, match=f"^{re.escape(message)}$"):
        construct()


def _rebuilt(b: Braiding, r: LinOperator) -> Braiding:
    """A fresh braiding of b's kind, series and q on the operator r; not
    validated (a Braiding caches its structural verdicts, so R is never
    reassigned)."""
    return Braiding(r, b.kind, series=b.series, q=b.q, name=b.name)


class TestDecompositionIdentitiesAlone:
    """Corruptions of the cached Lagrange data, of the root table or of R
    that break one identity of the cleared decomposition check
    (grid_reference.cleared_decomposition_ok) and keep the others.
    Orthogonality never fails alone: idempotents that sum to I over a
    field of characteristic 0 are orthogonal (rank = trace, so their
    images are a direct sum).  Idempotency fails alone only on three
    roots: on two, P_1 + P_2 = I and P_1 P_2 = 0 give P_1 = P_1 P_1 and
    then P_2 = I - P_1 is idempotent."""

    @pytest.mark.parametrize("name", ["std-hecke-2", "bmw-orth-3", "bmw-sympl-2"])
    def test_swapped_roots_fail_the_reconstruction(self, name, monkeypatch):
        """The roots q and -1/q swapped after b.lagrange is cached: Q and
        d are untouched, so only sum lambda e Q = D R reads the swap, and
        the minimal polynomial, a product over the roots, still holds."""
        b = load_builtin(name)
        b.lagrange
        real = braidings.eigenvalues

        def swapped(b):
            roots = real(b)
            return {**roots, "q": roots["-1/q"], "-1/q": roots["q"]}

        monkeypatch.setattr(braidings, "eigenvalues", swapped)
        monkeypatch.setattr(grid_reference, "eigenvalues", swapped)
        assert b.kind_polynomial_ok()
        assert not grid_reference.cleared_decomposition_ok(b)

    @pytest.mark.parametrize("name, dropped", [("std-hecke-2", "-1/q"),
                                               ("bmw-orth-3", "mu"),
                                               ("bmw-sympl-2", "mu")])
    def test_dropped_idempotent_fails_the_completeness(self, name, dropped):
        """One Q zeroed, and R replaced by sum lambda Q / d over the others,
        a singular R: the idempotents are still idempotent and orthogonal
        and reconstruct R, but no longer sum to I.  With R invertible the
        other three identities imply completeness, so a corruption that
        fails it alone must make R singular."""
        b = load_builtin(name)
        roots = eigenvalues(b)
        q_dropped, d_dropped = b.lagrange[dropped]
        lagrange = {**b.lagrange, dropped: (q_dropped.scale(ZERO), d_dropped)}
        b = _rebuilt(b, functools.reduce(add, (p.scale(roots[n] * d.inverse())
                                               for n, (p, d) in lagrange.items()
                                               if n != dropped)))
        b.lagrange = lagrange
        assert not grid_reference.cleared_decomposition_ok(b)

    def test_idempotent_failing_alone_on_three_roots(self):
        """On bmw-orth 3: P_q = E_00, P_mu = E_10 + E_11 and
        P_-1/q = I - P_q - P_mu, each over d = 1, with R = sum lambda P.
        They sum to I, P_i P_j = 0 for i < j, and they reconstruct R, but
        P_-1/q P_-1/q = P_-1/q + E_10."""
        b = load_builtin("bmw-orth-3")
        ident = LinOperator.identity(b.N, 2)
        p_q = LinOperator.from_terms([(0, 0, ONE)], b.N, 2)
        p_mu = LinOperator.from_terms([(1, 0, ONE), (1, 1, ONE)], b.N, 2)
        p_minus = ident - p_q - p_mu
        assert p_minus @ p_minus == p_minus + LinOperator.from_terms([(1, 0, ONE)], b.N, 2)
        lagrange = {"q": (p_q, ONE), "-1/q": (p_minus, ONE), "mu": (p_mu, ONE)}
        roots = eigenvalues(b)
        b = _rebuilt(b, functools.reduce(add, (p.scale(roots[n])
                                               for n, (p, _) in lagrange.items())))
        b.lagrange = lagrange
        assert not grid_reference.cleared_decomposition_ok(b)


# the braidings of the equivalence sweep, built once at collection
_SWEPT = {
    "std-hecke-3": make_standard_hecke(3),
    "bmw-orth-3": make_bmw(3, "orthogonal"),
    "bmw-sympl-2": make_bmw(2, "symplectic"),
    "bmw-sympl-4": make_bmw(4, "symplectic"),
    "flip-3": make_flip(3),
    "superflip-2|1": make_superflip(2, 1),
}


def _swept_bumps():
    """Single-entry bumps by ONE of R on each swept braiding: at up to 8 of
    its nonzero entries and at 8 random positions, from a fixed seed."""
    rng = random.Random(20221)
    for name, b in _SWEPT.items():
        nonzero = sorted((r, c) for r, c, _ in b.R.nonzeros())
        cells = rng.sample(nonzero, min(8, len(nonzero)))
        cells += [(rng.randrange(b.R.size), rng.randrange(b.R.size)) for _ in range(8)]
        for out, inp in cells:
            yield pytest.param(name, out, inp, id=f"{name}-{out}-{inp}")


@pytest.mark.parametrize("name, out, inp", list(_swept_bumps()))
def test_decomposition_is_the_minimal_polynomial(name, out, inp):
    """For distinct roots the four cleared decomposition identities hold
    exactly when the minimal polynomial does (projector_decomposition_ok's
    docstring), so the record, which reads the minimal-polynomial verdict,
    agrees with the identities on every bumped R."""
    b = _SWEPT[name]
    b = _rebuilt(b, b.R + LinOperator.from_terms([(out, inp, ONE)], b.N, 2))
    verdict = b.kind_polynomial_ok()
    assert grid_reference.cleared_decomposition_ok(b) is verdict
    assert projector_decomposition_ok(b) is verdict


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
        assert not any({cid: found for cid, _, found in verify_compatibility(d)}.values())
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
        assert r_at(cb, u, v) == cb.base.R - ident.scale(h)
        assert g_at(cb, u, v) == g
        with pytest.raises(ZeroDivisionError):
            r_at(cb, u, u)

    def test_trig_normalized_involutive_at_samples(self):
        cb = baxterize(make_standard_hecke(2))
        ident = LinOperator.identity(2, 2)
        for u, v in ((2, 3), (5, 7), (3, 11)):
            u, v = Fraction(u), Fraction(v)
            assert normalized_at(cb, u, v) @ normalized_at(cb, v, u) == ident

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
# proof of identity.  The unitarity reference also runs the three-point
# spot check of the normalized form, on the pointwise R(u,v), g(u,v) and
# R(u,v) / g(u,v) below; the library builds only the cleared forms.
# ---------------------------------------------------------------------------

# R(u,v) = R - h(u,v) I and g(u,v) = s - h(u,v) with the pole
# h(u,v) = (a u + b)/(u - v): (a, b, s) = (0, 1, 1) on an involutive base
# (rational) and (q - 1/q, 0, q) on a Hecke one (trigonometric), worked out
# here from the kind and q rather than read from CurrentBraiding.pole.
def affine_constants(cb) -> tuple[Scalar, Scalar, Scalar]:
    if cb.base.kind == "involutive":
        return ZERO, ONE, ONE
    q = cb.base.q
    return q - q.inverse(), ZERO, q


def r_at(cb, u: Fraction, v: Fraction) -> LinOperator:
    ident = LinOperator.identity(cb.base.N, 2, cb.base.R.labels)
    return cb.base.R - ident.scale(affine_constants(cb)[2] - g_at(cb, u, v))


def g_at(cb, u: Fraction, v: Fraction) -> Scalar:
    if u == v:
        raise ZeroDivisionError("R(u,v) has a pole at u = v")
    a, b, s = affine_constants(cb)
    return s - (a * Scalar.from_fraction(u) + b) * Scalar.from_fraction(1 / (u - v))


def expanded_unitarity_failures(cb):
    """The failing monomials of R(u,v) R(v,u) = g(u,v) g(v,u) I, both sides
    multiplied by (u-v)^2 and expanded over the words I, R and R^2: the
    expansion that the closed form of unitarity_certificate replaced."""
    a, b, s = affine_constants(cb)

    def g(x, y):
        return [(None, braidings._linear({x: s - a, y: -s}, -b))]

    r, R = cb.cleared_r_form, cb.base.R
    diff = braidings._expand([r(0, 1, "R"), r(1, 0, "R")])
    sum_into(diff, braidings._expand([g(0, 1), g(1, 0)]), -ONE)
    words = {(): LinOperator.identity(cb.base.N, 2, R.labels), ("R",): R, ("R", "R"): R @ R}
    by_mono = {}
    for mono, word in sorted(diff):
        by_mono.setdefault(mono, {})[word] = diff[mono, word]
    return nonzero_sums(by_mono, lambda word: {
        (row, col): e for row, col, e in words[word].nonzeros()})


def normalized_at(cb, u: Fraction, v: Fraction) -> LinOperator:
    g = g_at(cb, u, v)
    if g.is_zero():
        raise ZeroDivisionError("normalizer vanishes at this point")
    return r_at(cb, u, v).scale(g.inverse())


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


def spot_unitarity_failures(cb):
    """The spot check of the normalized form at the first three points
    where g(u,v) g(v,u) is nonzero: each (u, v) where R(u,v) R(v,u) /
    (g(u,v) g(v,u)) is not I."""
    ident = LinOperator.identity(cb.base.N, 2, cb.base.R.labels)
    candidates = [(Fraction(u), Fraction(v)) for u, v in
                  ((2, 3), (5, 7), (3, 11), (2, 5), (3, 7), (11, 2))]
    points = [(u, v) for u, v in candidates
              if not (g_at(cb, u, v).is_zero() or g_at(cb, v, u).is_zero())][:3]
    return [(u, v) for u, v in points
            if normalized_at(cb, u, v) @ normalized_at(cb, v, u) != ident]


def grid_unitarity_passed(cb):
    """The 16-point grid and the three-point spot check of the normalized
    form, as the grid certificate ran them."""
    ident = LinOperator.identity(cb.base.N, 2, cb.base.R.labels)
    for u, v in itertools.product(_GRID, repeat=2):
        lhs = _grid_cleared_r(cb, u, v) @ _grid_cleared_r(cb, v, u)
        if lhs != ident.scale(_grid_cleared_g(cb, u, v) * _grid_cleared_g(cb, v, u)):
            return False
    return not spot_unitarity_failures(cb)


def dual_transport(b):
    """The dual square of R, the braiding of the a-side relations, read on
    V (x) V through the dual basis, so that its structural facts (which
    place and compare operators on V legs) can be decided too."""
    return Braiding(LinOperator(2, b.N, ("V", "V"), dual_square(b.R).rows),
                    b.kind, series=b.series, q=b.q, name=f"dual({b.name})")


def bumped(b, out, inp):
    """b with ONE added to its R entry at (out, in); not validated."""
    rows = dense(b.R)
    rows[out][inp] = rows[out][inp] + ONE
    return Braiding(from_dense(rows, b.N, 2), b.kind, q=b.q, name=f"bumped({b.name})")


_CERTIFIED = {
    "flip-2": lambda: make_flip(2),
    "flip-3": lambda: make_flip(3),
    "superflip-1|1": lambda: make_superflip(1, 1),
    "std-hecke-2": lambda: make_standard_hecke(2),
    "std-hecke-3": lambda: make_standard_hecke(3),
    # R is not symmetric
    "twisted-std-hecke-2": lambda: twisted(make_standard_hecke(2)),
    "super-hecke-1|1": lambda: super_hecke(1, 1),
}


def _bumps():
    for name in ("flip-2", "superflip-1|1", "std-hecke-2", "twisted-std-hecke-2",
                 "super-hecke-1|1"):
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

    @pytest.mark.parametrize("transport", [False, True], ids=["R", "dual"])
    @pytest.mark.parametrize("name,out,inp", list(_bumps()))
    def test_closed_unitarity_equals_the_expansion(self, name, out, inp, transport):
        """The closed form, the minimal polynomial's verdict at the monomials
        of (u-v)^2, lists what the expansion over I, R and R^2 lists."""
        b = bumped(_CERTIFIED[name](), out, inp)
        if transport:
            b = dual_transport(b)
        cb = CurrentBraiding(b)
        assert unitarity_certificate(cb) == expanded_unitarity_failures(cb)

    @pytest.mark.parametrize("name,out,inp", list(_bumps()))
    def test_dual_square_certificates_equal_those_of_r(self, name, out, inp):
        """The transport X -> P X^T P takes R's cleared braid and unitarity
        differences to the dual square's, monomial by monomial (unitarity
        with u and v swapped), so the failing monomials agree; the
        a-side record reads R's lists for that reason."""
        b = bumped(_CERTIFIED[name](), out, inp)
        cb, dual = CurrentBraiding(b), CurrentBraiding(dual_transport(b))
        assert spectral_braid_certificate(dual) == spectral_braid_certificate(cb)
        assert expanded_unitarity_failures(dual) == expanded_unitarity_failures(cb)
        assert unitarity_certificate(dual) == unitarity_certificate(cb)

    @pytest.mark.parametrize("name,braid_failures", [
        ("flip-2", [(0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0)]),
        ("std-hecke-2", [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 1), (1, 2, 0),
                         (2, 0, 1), (2, 1, 0)]),
    ])
    def test_one_corrupted_entry_fails_both(self, name, braid_failures):
        """R_10^01 bumped.  The failing monomials are the exponents of
        u, v, w whose coefficient is a nonzero operator; for unitarity
        they are those of the -(u - v)^2 in front of R^2.  The reference
        fails too, and so does each of its three spot points, where the
        rational normalizer skips (2, 3)."""
        b = _CERTIFIED[name]()
        cb = baxterize(bumped(b, enc_index((0, 1), 2), enc_index((1, 0), 2)))
        spots = [(5, 7), (3, 11), (2, 5)] if name == "flip-2" else [(2, 3), (5, 7), (3, 11)]
        assert spectral_braid_certificate(cb) == braid_failures
        assert unitarity_certificate(cb) == [(0, 2, 0), (1, 1, 0), (2, 0, 0)]
        assert grid_unitarity_passed(cb) is False
        assert spot_unitarity_failures(cb) == [(Fraction(u), Fraction(v)) for u, v in spots]

    def test_operator_work_of_one_certificate_pair(self, monkeypatch):
        """R is placed once at (1,2) and once at (2,3); the braid relation
        forms its six word products, and unitarity reads the minimal
        polynomial that validation cached.  Nothing depends on a grid
        size."""
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
        assert not spectral_braid_certificate(cb)
        assert not unitarity_certificate(cb)
        assert calls == {"place": 2, "matmul": 6}


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
