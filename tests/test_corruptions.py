"""One table of record corruptions: every gating record of `qfock verify`
fails on at least one targeted corruption, a row of ROWS.

An `input` row edits a braiding table and passes it with `--table`; an
`internal` row patches one named function of qfock.  A table that the
loader accepts is a braiding on which every later suite passes, so nearly
every corruption past `load-braiding` is internal.  The coverage test
holds the rows' targets equal to the gating records that the program
emits, so a new gating record lands with a row here.
"""

import ast
import copy
import json
import re
from functools import partial
from pathlib import Path

import pytest

from qfock import braidings, cli, currents, fockdouble, quadalgebras, scalars
from qfock.braidings import (
    HECKE,
    INVOLUTIVE,
    LAMBDA,
    SYM,
    Braiding,
    braiding_to_table,
    load_braiding_table,
    make_bmw,
    make_flip,
    make_standard_hecke,
    make_superflip,
    specialize,
)
from qfock.errors import InvalidTable
from qfock.scalars import ONE, Q, ZERO, Scalar
from qfock.tensorops import LinOperator

from hecke_families import super_hecke

GOLDEN = Path(__file__).resolve().parent / "golden"

INPUT, INTERNAL = "input", "internal"


def bump_exchange(d):
    """Add ONE to the coefficient of the first exchange move of (0, 1) of a
    double or a current double."""
    (i, j, c), *rest = d.exchange[(0, 1)]
    d.exchange[(0, 1)] = [(i, j, c + ONE), *rest]
    return d


def bump_constant(d):
    """Add ONE to the pairing constant at (0, 0) of a double or a current
    double."""
    d.constant[(0, 0)] = d.constant[(0, 0)] + ONE
    return d


class Row:
    """One corruption of one `verify` run.

    `argv` is the verify argv without `--out`, and without the `--table`
    that the row supplies.  For an INPUT row `corruption` returns the
    edited table document; for an INTERNAL row it is (owner, name, wrap),
    and owner.name is patched with wrap(the real owner.name).  `table`
    returns the unedited table an INTERNAL row runs on.  `witness` maps a
    record id to its expected witness: None or a str must equal it, a
    callable must accept it.  `records`, where given, is the run's whole
    list of record ids.  `unvalidated` turns off the loader's braid and
    minimal-polynomial checks, so that an edited table reaches the
    suites."""

    def __init__(self, name, target, argv, kind, corruption, failing, *,
                 witness=None, records=None, table=None, unvalidated=False):
        self.id = f"{target}:{name}"
        self.target, self.argv, self.kind = target, argv, kind
        self.corruption, self.failing = corruption, set(failing)
        self.witness, self.records, self.table = witness or {}, records, table
        self.unvalidated = unvalidated


def on(braiding, n, suite, *more):
    return ["--braiding", braiding, "--n", str(n), "--suite", suite, *more]


def edited(make, edit):
    """The table of make(), edited in place by edit."""
    def doc():
        d = braiding_to_table(make())
        edit(d)
        return d
    return doc


def bump_entry(k, value=lambda v: v + ONE):
    """Set the k-th entry to value(the old one), ONE more by default."""
    def edit(doc):
        entry = doc["entries"][k]
        entry["value"] = value(Scalar.from_pairs(entry["value"])).to_pairs()
    return edit


# entry 2 of the std-hecke 2 and flip 2 tables is (i, j, k, l) = (1, 2, 2, 1)
R_1221 = 2


def resolving(make, corrupt, kind=HECKE):
    """The CLI's braiding is the one of `kind` whose R is corrupt(make().R)."""
    def wrap(real):
        def resolve(cfg):
            b = make()
            return Braiding(corrupt(b.R), kind, name="corrupted")
        return resolve
    return cli, "_resolve_braiding", wrap


def skew_none(field):
    """The CLI's braiding with its skew-inverse datum `field` unset."""
    def wrap(real):
        def resolve(cfg):
            b = real(cfg)
            setattr(b.skew, field, None)
            return b
        return resolve
    return cli, "_resolve_braiding", wrap


def returned_by(owner, name, corrupt):
    """owner.name whose result passes through corrupt."""
    return owner, name, lambda real: lambda *args: corrupt(real(*args))


def plus_one_at_00(op):
    return op + LinOperator.from_terms([(0, 0, ONE)], op.dim, op.legs, op.labels,
                                       op.labels_out)


def twice(r):
    return r.scale(Scalar.from_int(2))


def sheared(r: LinOperator) -> LinOperator:
    """A R A^{-1} with A = I + E_01 on V (x) V, which is not a g (x) g."""
    ident = LinOperator.identity(r.dim, r.legs, r.labels)
    e01 = LinOperator.from_terms([(0, 1, ONE)], r.dim, r.legs, r.labels, r.labels_out)
    return (ident + e01) @ r @ (ident - e01)


def bumped_tilde(dp):
    """The left pairing intact and one tilde-pairing entry off by one."""
    dp.tilde_right[0] = {**dp.tilde_right[0], 1: ONE}
    return dp


def bumped_inverse(x):
    """An inverse off by ONE at (0, 1): for every inverse that braidings
    computes, the tilde pairing and skew.B_inv then agree, but neither
    inverts B."""
    x[0] = {**x[0], 1: x[0].get(1, ZERO) + ONE}
    return x


def mu_from(choose):
    """The mu record handed a copy of the BMW braiding b whose Lagrange data
    (Q, d) for mu is choose(b)."""
    def wrap(real):
        def report(b):
            copied = Braiding(b.R, b.kind, series=b.series, q=b.q, name=b.name)
            copied.lagrange = {**b.lagrange, "mu": choose(b)}
            return real(copied)
        return report
    return quadalgebras, "mu_eigenspace_degree2_report", wrap


def middle_mu(b):
    """The series' middle idempotent, the eigenspace that the kind keeping
    mu drops: its image is not one invariant line that survives in one
    quotient and dies in the other."""
    return b.lagrange[{SYM: "-1/q", LAMBDA: "q"}[braidings.MU_KIND[b.series]]]


def wider_mu(b):
    """Q_mu plus the numerator of the other idempotent that the kind keeping
    mu keeps (q for sym, -1/q for lambda): its image of rank 1 + 5 still
    survives in that quotient and dies in the other one, so only the rank
    fails.  bmw-sympl 2 has no such pair: its -1/q eigenspace is zero."""
    kept = {SYM: "q", LAMBDA: "-1/q"}[braidings.MU_KIND[b.series]]
    (q_mu, d_mu), (q_kept, _) = b.lagrange["mu"], b.lagrange[kept]
    return q_mu + q_kept, d_mu


def without_last_left_dual_relation(real):
    def dropped(N, relations, name=""):
        if name == "left-dual side":
            relations = relations[:-1]
        return real(N, relations, name)
    return dropped


def without_first_relation_of(kind, space):
    def wrap(real):
        def dropped(b, kind_, space_):
            alg = real(b, kind_, space_)
            if (kind_, space_) == (kind, space):
                alg.relations = alg.relations[1:]
            return alg
        return dropped
    return quadalgebras, "make_algebra", wrap


def singular_b(real):
    """B made singular as the double is made."""
    def make(b, flavor):
        b.skew.B_inv = None
        return real(b, flavor)
    return make


def bumped_l_side(sides):
    """ONE added to the first entry of the written side O L1 of the
    L-identity."""
    o_l = sides[2]
    x = next(x for x, row in enumerate(o_l) if row)
    c = min(o_l[x])
    o_l[x] = {**o_l[x], c: o_l[x][c] + ONE}
    return sides


def bumped_representation_at(k):
    """ONE added at (0, 0) of the l_1^1 matrix on the degree-k component."""
    def wrap(real):
        def represent(d, degree):
            reps = real(d, degree)
            if degree != k:
                return reps
            cols = [dict(col) for col in reps[(0, 0)]]
            cols[0][0] = cols[0].get(0, ZERO) + ONE
            return {**reps, (0, 0): cols}
        return represent
    return fockdouble, "fock_representation", wrap


def bumped_lie(field):
    """ONE added to one input of the braided Lie structure: the first
    nonzero entry (in (row, column) order) of the bracket or the twist,
    rtrace[1] or alpha."""
    def bump(bl):
        bl = copy.copy(bl)
        if field == "alpha":
            bl.alpha = bl.alpha + ONE
        elif field == "rtrace":
            bl.rtrace = list(bl.rtrace)
            bl.rtrace[1] = bl.rtrace[1] + ONE
        else:
            cols = [dict(col) for col in getattr(bl, field)]
            r, c = min((r, c) for c, col in enumerate(cols) for r in col)
            cols[c][r] = cols[c][r] + ONE
            setattr(bl, field, cols)
        return bl
    return returned_by(fockdouble, "braided_lie", bump)


def matching(pattern):
    return lambda witness: re.search(pattern, witness)


def named_by(*labels):
    """A witness list whose entries are labelled by some of `labels`."""
    def holds(witness):
        named = {entry[0] for entry in ast.literal_eval(witness)}
        return named and named <= set(labels)
    return holds


def defining_cells(witness):
    """One to three twist cells, each inside the 4 x 4 twist of N = 2."""
    cells = ast.literal_eval(witness)
    return (1 <= len(cells) <= 3
            and all(label == "defining" and x < 4 and y < 4 for label, x, y in cells))


def l_identity_counts(residual):
    """The witness leads with the element count that harnesses parse, and
    at degree 2 it ends with the count of residual classes."""
    return lambda witness: (re.match(r"\d+ elements", witness)
                            and witness.endswith("residual classes") == residual)


hecke2, flip2 = partial(make_standard_hecke, 2), partial(make_flip, 2)


def involutive_at(q):
    """The Braiding constructor's refusal of an involutive braiding at q."""
    return (f"an involutive braiding is at q = 1, where its minimal polynomial "
            f"is R^2 = I; its q is {q!r}")


def _load_rows():
    makes = (("std-hecke-2", hecke2), ("bmw-orth-3", lambda: make_bmw(3, "orthogonal")),
             ("flip-2", flip2))
    for name, make in makes:
        for k in range(len(braiding_to_table(make())["entries"])):
            yield Row(f"{name}-entry-{k}", "load-braiding", ["--suite", "all"], INPUT,
                      edited(make, bump_entry(k)), {"load-braiding"})
    yield Row("std-hecke-2-1221-is-2q", "load-braiding", [], INPUT,
              edited(hecke2, bump_entry(R_1221, lambda v: Q + Q)), {"load-braiding"})
    # R = flip with q = 2 solves R^2 = I but not (R - q)(R + 1/q) = 0,
    # which every relation space reads: the constructor's refusal names
    # that failure before the q
    yield Row("flip-2-at-q-2", "load-braiding", ["--suite", "braiding"], INPUT,
              edited(flip2, lambda doc: doc.update(q=Scalar.from_int(2).to_pairs())),
              {"load-braiding"},
              witness={"load-braiding": "involutive minimal polynomial violated; "
                       f"{involutive_at(Scalar.from_int(2))}"})
    # std-hecke 2 declared involutive at its own q solves the (R - q)(R + 1/q)
    # that validation reads at b.q, but not R^2 = I, under which the currents
    # suite Baxterizes it rationally
    for suite in ("braiding", "currents"):
        yield Row(f"std-hecke-2-involutive-{suite}", "load-braiding", ["--suite", suite],
                  INPUT, edited(hecke2, lambda doc: doc.update(kind="involutive", q=Q.to_pairs())),
                  {"load-braiding"},
                  witness={"load-braiding": involutive_at(Q)})
    # a BMW table at q = 1 whose mu equals another root solves its minimal
    # polynomial but has no spectral idempotents
    for name, n, series, repeated in (("bmw-orth-3", 3, "orthogonal", "q = mu = 1"),
                                      ("bmw-sympl-2", 2, "symplectic", "-1/q = mu = -1")):
        yield Row(f"{name}-at-q-1", "load-braiding", ["--suite", "braiding"],
                  INPUT, lambda n=n, series=series:
                  braiding_to_table(specialize(make_bmw(n, series), 1)),
                  {"load-braiding"},
                  witness={"load-braiding":
                           f"repeated root {repeated} of the bmw minimal polynomial"})


def _braiding_rows():
    suite = ["--suite", "braiding"]
    hecke_poly = "['hecke minimal polynomial violated']"
    # the projectors are read off the minimal polynomial, so they no longer
    # reconstruct 2R either
    yield Row("twice-r", "projector-decomposition", suite, INTERNAL,
              resolving(hecke2, twice),
              {"minimal-polynomial", "projector-decomposition"},
              witness={"minimal-polynomial": hecke_poly,
                       "projector-decomposition": hecke_poly})
    flip_poly = "['involutive minimal polynomial violated']"
    yield Row("flip-2-twice-r", "minimal-polynomial", suite, INTERNAL,
              resolving(flip2, twice, INVOLUTIVE),
              {"minimal-polynomial", "projector-decomposition"},
              witness={"minimal-polynomial": flip_poly, "projector-decomposition": flip_poly})
    yield Row("sheared-r", "braid-relation", suite, INTERNAL, resolving(hecke2, sheared),
              {"braid-relation"}, witness={"braid-relation": "['braid relation violated']"})
    yield Row("q-identity", "skew-inverse", suite, INTERNAL, resolving(
        hecke2, lambda r: LinOperator.identity(r.dim, r.legs, r.labels).scale(Q)),
              {"skew-inverse"},
              witness={"skew-inverse": "partial transpose of R is singular"})
    # the sheared R keeps the minimal polynomial, so at q = 3/2 the
    # cross-check fails on the specialized braiding's braid relation alone
    yield Row("sheared-r-at-3/2", "evaluation-cross-check", [*suite, "--q", "3/2"],
              INTERNAL, resolving(hecke2, sheared),
              {"braid-relation", "evaluation-cross-check"},
              witness={"evaluation-cross-check": "['braid relation violated']"})
    yield Row("std-hecke-2-1221-bumped-at-3/2", "evaluation-cross-check",
              [*suite, "--q", "3/2"], INPUT, edited(hecke2, bump_entry(R_1221)),
              {"braid-relation", "minimal-polynomial", "projector-decomposition",
               "evaluation-cross-check"}, unvalidated=True)
    yield Row("singular-b", "strict-skew-invertibility", on("std-hecke", 2, "braiding"),
              INTERNAL, skew_none("B_inv"), {"strict-skew-invertibility"})
    # the record names the rows of the pairing that fails: the left pairing
    # against B, or its product with the tilde pairing against I
    for name, corruption, witness in (
            ("left", returned_by(braidings, "_vstar_v", plus_one_at_00), "[('left-row', 0)]"),
            ("tilde", returned_by(braidings, "dual_pairings", bumped_tilde),
             "[('tilde-row', 0)]"),
            ("inverse", returned_by(braidings, "mat_inv", bumped_inverse),
             "[('tilde-row', 0)]")):
        yield Row(f"bumped-{name}", "dual-pairings", on("std-hecke", 2, "braiding"),
                  INTERNAL, corruption, {"dual-pairings"},
                  witness={"dual-pairings": witness})
    for braiding, n in (("bmw-orth", 3), ("bmw-orth", 4), ("bmw-sympl", 2), ("bmw-sympl", 4)):
        yield Row(f"{braiding}-{n}-middle", "mu-eigenspace-degree2",
                  on(braiding, n, "braiding"), INTERNAL, mu_from(middle_mu),
                  {"mu-eigenspace-degree2"})
    for braiding, n in (("bmw-orth", 3), ("bmw-sympl", 4)):
        yield Row(f"{braiding}-{n}-wider", "mu-eigenspace-degree2",
                  on(braiding, n, "braiding"), INTERNAL, mu_from(wider_mu),
                  {"mu-eigenspace-degree2"},
                  witness={"mu-eigenspace-degree2": "[('mu-rank', 6)]"})


def _current_rows():
    # both spectral certificates and the relation check on the dual square
    # fail, naming the first failing monomials (those of test_braidings'
    # test_one_corrupted_entry_fails_both)
    for name, make, braid in (("std-hecke-2", hecke2, [(0, 1, 2), (0, 2, 1), (1, 0, 2)]),
                              ("flip-2", flip2, [(0, 1, 1), (0, 2, 0), (1, 0, 1)])):
        yield Row(f"{name}-1221-bumped", "current-relations-a-side",
                  ["--suite", "currents"], INPUT, edited(make, bump_entry(R_1221)),
                  {"spectral-braid-certificate", "spectral-unitarity-certificate",
                   "current-relations-a-side"},
                  witness={"spectral-braid-certificate": str(braid),
                           "spectral-unitarity-certificate":
                               str([(0, 2, 0), (1, 1, 0), (2, 0, 0)]),
                           "current-relations-a-side":
                               str([("braid", m) for m in braid])},
                  unvalidated=True)
    # a failing certificate function, patched where the currents records
    # look it up, fails the braiding's own record and the a-side check,
    # which tags its failures
    for function, record, tag in (
            ("spectral_braid_certificate", "spectral-braid-certificate", "braid"),
            ("unitarity_certificate", "spectral-unitarity-certificate", "unitarity")):
        yield Row(f"failing-{function}", record, on("flip", 2, "currents", "--window", "0"),
                  INTERNAL, (currents, function, lambda real: lambda cb: [(1, 0, 0)]),
                  {record, "current-relations-a-side"},
                  witness={"current-relations-a-side":
                           matching(re.escape(f"('{tag}', (1, 0, 0))"))})
    # the strict degree <= 1 comparison fails and gates at every --degree
    for degree in ("1", "2"):
        yield Row(f"bumped-constant-degree-{degree}", "spectral-l-identity",
                  on("std-hecke", 2, "currents", "--window", "1", "--degree", degree),
                  INTERNAL, returned_by(currents, "make_current_double", bump_constant),
                  {"spectral-l-identity"},
                  witness={"spectral-l-identity": l_identity_counts(degree == "2")})


def _double_rows():
    # the braiding suite does not run, so strictness is not checked first:
    # the construction names the reason, and no other double record runs
    yield Row("singular-b", "double-construction", on("std-hecke", 2, "double"), INTERNAL,
              (fockdouble, "make_double", singular_b), {"double-construction"},
              witness={"double-construction": "doubles need invertible partial traces of Psi"},
              records=["load-braiding", "double-construction"])
    # the variant rule no longer orders the relations to zero
    yield Row("std-hecke-3-dropped-relation", "left-dual-variant",
              on("std-hecke", 3, "double"), INTERNAL,
              (fockdouble, "GradedQuotient", without_last_left_dual_relation),
              {"left-dual-variant"}, witness={"left-dual-variant": matching(r"\('[bt]-ideal', ")})
    # one exchange coefficient bumped: the three compatibility records fail
    # together; the diamond test holds exactly when the ideal check does, so
    # diamond-degree-3 reads the ideal witnesses (fockdouble._rule_failures)
    for name, argv, target, ideals in (
            ("std-hecke-2", on("std-hecke", 2, "double"), "compatibility-closed-identity",
             [("b-ideal", 0, ((0, 1), (1, 0))), ("a-ideal", 1, ((0, 1), (1, 0)))]),
            ("std-hecke-2-fermionic", on("std-hecke", 2, "double", "--flavor", "fermionic"),
             "compatibility-ideals",
             [("b-ideal", 0, ((0, 1), (1, 0))), ("a-ideal", 1, ((0, 1), (1, 0))),
              ("a-ideal", 0, ((0, 0),))]),
            ("bmw-orth-3", on("bmw-orth", 3, "double"), "diamond-degree-3",
             [("b-ideal", 1, ((1, 2), (2, 1))), ("b-ideal", 2, ((1, 2), (2, 1))),
              ("b-ideal", 0, ((0, 2), (1, 1), (2, 0)))])):
        yield Row(f"{name}-bumped-exchange", target, argv, INTERNAL,
                  returned_by(fockdouble, "make_double", bump_exchange),
                  {"compatibility-closed-identity", "compatibility-ideals",
                   "diamond-degree-3", "l-quadratic-identity"},
                  witness={"compatibility-closed-identity": named_by("closed"),
                           "compatibility-ideals": str(ideals),
                           "diamond-degree-3": str(ideals)})
    # the first cell fails in the double and on every component: no
    # corruption fails l-quadratic-identity alone at this level, as the
    # representation records evaluate the same cells
    l_records = {"l-quadratic-identity", "representation-identity-k1",
                 "representation-identity-k2", "representation-identity-k3"}
    for braiding, n in (("std-hecke", 2), ("bmw-orth", 3)):
        yield Row(f"{braiding}-{n}-bumped-side", "l-quadratic-identity",
                  on(braiding, n, "double", "--degree", "3"), INTERNAL,
                  returned_by(fockdouble, "l_identity_sides", bumped_l_side), l_records,
                  witness=dict.fromkeys(l_records, "[(1, 0)]"))
    for k in (1, 2, 3):
        record = f"representation-identity-k{k}"
        yield Row(f"bumped-degree-{k}", record, on("std-hecke", 2, "double", "--degree", "3"),
                  INTERNAL, bumped_representation_at(k), {record},
                  witness={record: "[(0, 1), (0, 2), (1, 0)]"})


def _lie_rows():
    lie2 = on("std-hecke", 2, "lie")
    yield Row("alpha-unset", "rhat-reconstruction", lie2, INTERNAL, skew_none("alpha"),
              {"rhat-reconstruction"},
              witness={"rhat-reconstruction": "B*C is not scalar; the R-trace is not normalized"})
    yield Row("b-inverse-unset", "rhat-reconstruction", lie2, INTERNAL, skew_none("B_inv"),
              {"rhat-reconstruction"},
              witness={"rhat-reconstruction": "braided Lie structure needs strictness"})
    labels = {"rhat-defining": "defining", "rtrace-generators": "trace-gen",
              "rtrace-brackets": "trace-bracket", "jacobi": "jacobi-hecke",
              "bracket-quadratic-consistency": "quadratic"}

    def witnesses(failing, jacobi=None):
        """Each failing record's witnesses carry its own label, and the
        passing records name none; a failing jacobi names its first
        failing third-leg block c and that block's first failing column
        (e1, e2), given as (c, (e1, e2))."""
        found = {"rhat-reconstruction": None,
                 **{record: named_by(label) if record in failing else None
                    for record, label in labels.items()}}
        if jacobi is not None:
            found["jacobi"] = str([("jacobi-hecke", *jacobi)])
        return found

    # the twist built from a bumped extension of R to V* (x) V no longer
    # satisfies its defining property, and the bracket built on it fails its
    # trace, Jacobi and consistency records, while the R-trace of the
    # generators, which does not read the twist, still passes
    failing = {"rhat-defining", "rtrace-brackets", "jacobi", "bracket-quadratic-consistency"}
    for braiding, n in (("std-hecke", 2), ("std-hecke", 3), ("flip", 2)):
        yield Row(f"{braiding}-{n}-bumped-extension", "jacobi", on(braiding, n, "lie"),
                  INTERNAL, returned_by(fockdouble, "_vstar_v", plus_one_at_00), failing,
                  witness=witnesses(failing, (0, (0, 0))))
    for field, target, failing, jacobi in (
            ("bracket", "bracket-quadratic-consistency",
             {"rtrace-brackets", "jacobi", "bracket-quadratic-consistency"},
             {"std-hecke": (0, (0, 0)), "flip": (0, (1, 2))}),
            ("rhat", "rhat-defining", {"rhat-defining", "jacobi"},
             {"std-hecke": (0, (0, 0)), "flip": (1, (0, 0))}),
            ("rtrace", "rtrace-brackets", {"rtrace-generators", "rtrace-brackets"}, {}),
            ("alpha", "rtrace-generators", {"rtrace-generators"}, {})):
        for braiding in ("std-hecke", "flip"):
            witness = witnesses(failing, jacobi.get(braiding))
            if field == "rhat":
                # the bumped twist entry (0, 0) fails one to three defining cells
                witness["rhat-defining"] = defining_cells
            yield Row(f"{braiding}-2-bumped-{field}", target, on(braiding, 2, "lie"),
                      INTERNAL, bumped_lie(field), failing, witness=witness)


def _poincare_rows():
    every = {f"poincare-{kind}-{space}" for kind in (SYM, LAMBDA) for space in ("V", "V*")}
    for braiding, n in (("std-hecke", 2), ("bmw-orth", 3), ("bmw-sympl", 2)):
        yield Row(f"{braiding}-{n}-truncated-relations", "poincare-sym-V",
                  on(braiding, n, "poincare"), INTERNAL,
                  (quadalgebras, "_image_basis", lambda real: lambda op: real(op)[:-1]),
                  every)
    # the first relation of one of the four algebras dropped: its own
    # record fails, and no other
    for name, make in (("std-hecke-3", lambda: make_standard_hecke(3)),
                       ("superflip-2|1", lambda: make_superflip(2, 1)),
                       ("super-hecke-2|1", lambda: super_hecke(2, 1))):
        for kind in (SYM, LAMBDA):
            for space in ("V", "V*"):
                record = f"poincare-{kind}-{space}"
                yield Row(f"{name}-dropped-relation", record, ["--suite", "poincare"],
                          INTERNAL, without_first_relation_of(kind, space), {record},
                          table=lambda make=make: braiding_to_table(make()))


ROWS = [*_load_rows(), *_braiding_rows(), *_current_rows(), *_double_rows(),
        *_lie_rows(), *_poincare_rows()]


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_row(row, tmp_path, monkeypatch):
    """The row's run exits 1 with exactly its failing gating records, each
    naming its failures, and with the witnesses the row expects."""
    if row.kind == INTERNAL:
        owner, name, wrap = row.corruption
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
        doc = row.table and row.table()
    else:
        doc = row.corruption()
    if row.unvalidated:
        monkeypatch.setattr(Braiding, "validate", lambda self: [])
    argv = ["verify", *row.argv, "--out", str(tmp_path / "report.json")]
    if doc is not None:
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        argv += ["--table", str(table)]
    assert cli.main(argv) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    checks = report["checks"]
    assert report["exit_status"] == 1
    failing = [c for c in checks if c["gating"] and c["verdict"] == "fail"]
    assert {c["check_id"] for c in failing} == row.failing
    assert all(c["witness"] for c in failing), failing
    witnesses = {c["check_id"]: c["witness"] for c in checks}
    for record, expected in row.witness.items():
        got = witnesses[record]
        assert (got == expected if expected is None or isinstance(expected, str)
                else expected(got)), (record, got)
    if row.records is not None:
        assert [c["check_id"] for c in checks] == row.records
    if "load-braiding" in row.failing:
        # the load decides first: its failure is the run's only record, and
        # its witness is the loader's refusal of the same table
        assert len(checks) == 1
        with pytest.raises(InvalidTable) as refused:
            load_braiding_table(doc)
        assert witnesses["load-braiding"] == str(refused.value)


L_IDENTITY_ROWS = [row for row in ROWS if row.target == "l-quadratic-identity"
                   or row.target.startswith("representation-identity-k")]


@pytest.mark.parametrize("row", L_IDENTITY_ROWS, ids=[row.id for row in L_IDENTITY_ROWS])
def test_l_identity_rows_fail_on_the_packed_path(row, tmp_path, monkeypatch):
    """A bumped L-identity side or representation matrix stays Laurent, so
    every group of the run, the failing cells among them, is decided on
    packed integers (scalars._packed_nonzero)."""
    summed = []
    real = scalars._summed_nonzero
    monkeypatch.setattr(scalars, "_summed_nonzero",
                        lambda *args: summed.append(args) or real(*args))
    test_row(row, tmp_path, monkeypatch)
    assert summed == []


def test_every_gating_record_is_a_target():
    """The rows' targets are the gating records of every golden verify
    report, and each row's target fails in it."""
    reports = [json.loads(path.read_text()) for path in GOLDEN.glob("braiding-*.json")]
    emitted = {c["check_id"] for report in reports for c in report["checks"] if c["gating"]}
    assert {row.target for row in ROWS} == emitted
    assert all(row.target in row.failing for row in ROWS)
    assert len({row.id for row in ROWS}) == len(ROWS)
