"""Command-line driver: build braidings and doubles, run named
verification suites, emit Poincare tables, representation matrices and
machine-readable JSON reports.

Every check record carries a stable id and an anchor string naming the
identity it verifies, so reports are auditable.  Reports are deterministic
for a fixed configuration up to the timing fields; the process exit code
is nonzero exactly when a gating check failed or an error surfaced.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import __version__
from .braidings import (
    BMW,
    HECKE,
    INVOLUTIVE,
    Braiding,
    baxterize,
    braiding_to_table,
    dual_pairings,
    load_braiding_table,
    make_bmw,
    make_flip,
    make_standard_hecke,
    make_superflip,
    projector_decomposition_ok,
    specialize,
)
from .currents import current_relation_check, make_current_double, verify_yang
from .errors import (
    InvalidArgument,
    MalformedTable,
    NonGenericPoint,
    QfockError,
    SizeLimitExceeded,
)
from .fockdouble import (
    BOSONIC,
    FAMILY_HECKE,
    FERMIONIC,
    SERIES_FLAVOR,
    braided_lie,
    double_family,
    left_dual_variant_report,
    make_double,
    fock_representation,
    representation_l_relations_ok,
    verify_compatibility,
    verify_l_relations,
    verify_lie,
)
from .quadalgebras import (
    classical_lambda_dim,
    classical_sym_dim,
    make_algebra,
    mu_eigenspace_degree2_report,
)
from .scalars import ONE, ZERO
from .tensorops import LinOperator, mat_mul

SUITES = ("braiding", "double", "lie", "poincare", "currents", "all")


@dataclass
class RunConfig:
    braiding: str | None = None
    table: str | None = None
    n: int = 2
    mn: str = "1,1"
    q: str = "generic"
    flavor: str | None = None
    suite: str = "all"
    kmax: int = 4
    window: int = 2
    degree: int = 1
    out: str | None = None


@dataclass
class CheckRecord:
    check_id: str
    anchor: str
    verdict: str           # "pass" | "fail" | "report-only"
    gating: bool
    witness: str | None = None
    seconds: float = 0.0


@dataclass
class Report:
    tool: str
    version: str
    config: dict
    checks: list[CheckRecord] = field(default_factory=list)
    bad_input: bool = False

    def add(self, check_id: str, anchor: str, passed: bool | None,
            gating: bool, witness=None, seconds: float = 0.0):
        if passed is None:
            verdict = "report-only"
        else:
            verdict = "pass" if passed else "fail"
        self.checks.append(CheckRecord(check_id, anchor, verdict, gating,
                                       None if witness is None else str(witness)[:400],
                                       round(seconds, 4)))

    @property
    def failed(self) -> bool:
        return any(c.verdict == "fail" and c.gating for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "tool": self.tool,
            "version": self.version,
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
            "exit_status": 2 if self.bad_input else 1 if self.failed else 0,
        }
        return json.dumps(doc, indent=1, sort_keys=True)


def _resolve_braiding(cfg: RunConfig) -> Braiding:
    if cfg.table:
        return load_braiding_table(cfg.table)
    name = cfg.braiding or "std-hecke"
    if name == "flip":
        return make_flip(cfg.n)
    if name == "superflip":
        return make_superflip(*_superflip_split(cfg.mn))
    if name == "std-hecke":
        return make_standard_hecke(cfg.n)
    if name in ("bmw-orth", "bmw-sympl"):
        return make_bmw(cfg.n, "orthogonal" if name == "bmw-orth" else "symplectic")
    raise InvalidArgument(f"unknown braiding {name!r}")


def _superflip_split(mn: str) -> tuple[int, int]:
    """The --mn value m,n: two integers >= 0 with m + n >= 1."""
    match = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*", mn)
    m, n = (int(t) for t in match.groups()) if match else (0, 0)
    if m + n < 1:
        raise InvalidArgument(f"--mn must be m,n: two integers >= 0 with "
                              f"m + n >= 1, got {mn!r}")
    return m, n


def _family_flavor(b: Braiding, cfg: RunConfig) -> tuple[str, str]:
    """The braiding's double family and the flavor of its double: --flavor,
    bosonic when omitted.  A BMW series fixes the flavor, and a conflicting
    --flavor is bad input."""
    family = double_family(b)
    fixed = SERIES_FLAVOR.get(family)
    if fixed is None:
        return family, cfg.flavor or BOSONIC
    if cfg.flavor not in (None, fixed):
        raise InvalidArgument(f"--flavor {cfg.flavor} conflicts with the "
                              f"{family} double, which is {fixed}")
    return family, fixed


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_braiding(rep: Report, b: Braiding, cfg: RunConfig):
    ok, dt = _timed(b.braid_ok)
    rep.add("braid-relation", "R12 R23 R12 = R23 R12 R23", ok, True, seconds=dt)
    ok, dt = _timed(b.kind_polynomial_ok)
    poly = {INVOLUTIVE: "R^2 = I",
            HECKE: "(R - q)(R + 1/q) = 0",
            BMW: "(R - q)(R + 1/q)(R - mu) = 0"}[b.kind]
    rep.add("minimal-polynomial", poly, ok, True, seconds=dt)
    try:
        skew, dt = _timed(lambda: b.skew)
        rep.add("skew-inverse", "R_ij^kl Psi_lm^jn = delta delta", True, True,
                seconds=dt)
        rep.add("strict-skew-invertibility", "B = Tr_1 Psi and C = Tr_2 Psi invertible",
                skew.strict, True)
        rep.add("bc-scalar", "B C = alpha I", None, False,
                witness=f"alpha = {skew.alpha!r}" if skew.alpha is not None
                else "B C is not scalar")
        if skew.strict:
            dp, dt = _timed(dual_pairings, b)
            # the tilde pairing is checked by its defining property, so that
            # it can fail apart from the left pairing and from skew.B_inv
            pair_ok = (dp.left == b.B and mat_mul(dp.left, dp.tilde_right)
                       == [{i: ONE} for i in range(b.N)])
            rep.add("dual-pairings", "left pairing = B; tilde pairing = B^{-1}",
                    pair_ok, True, seconds=dt)
        ok, dt = _timed(projector_decomposition_ok, b)
        rep.add("projector-decomposition",
                "idempotent, complementary, reconstruct R", ok, True, seconds=dt)
    except QfockError as exc:
        rep.add("skew-inverse", "R_ij^kl Psi_lm^jn = delta delta", False, True,
                witness=exc)
    if b.kind == BMW:
        mu_rep, dt = _timed(mu_eigenspace_degree2_report, b)
        rep.add("mu-eigenspace-degree2",
                "invariant line survives in the expected degree-2 quotient",
                None, False, witness=mu_rep, seconds=dt)
    if cfg.q != "generic":
        q0 = Fraction(cfg.q)
        at_q0 = specialize(b, q0)
        ok, dt = _timed(lambda: at_q0.braid_ok() and at_q0.kind_polynomial_ok())
        rep.add("evaluation-cross-check",
                f"braid and minimal polynomial at q = {q0}", ok, True, seconds=dt)


def _suite_double(rep: Report, b: Braiding, cfg: RunConfig):
    family, flavor = _family_flavor(b, cfg)
    try:
        d, dt = _timed(make_double, b, flavor)
    except QfockError as exc:
        rep.add("double-construction", f"double ({family}, {flavor})", False,
                True, witness=exc)
        return
    rep.add("double-construction", f"double ({family}, {flavor})", True, True,
            seconds=dt)
    comp, dt = _timed(verify_compatibility, d)

    def witnesses(label: str) -> list | None:
        """The first three witnesses whose label ends in `label`, if any."""
        return [w for w in comp["witnesses"] if w[0].endswith(label)][:3] or None

    rep.add("compatibility-closed-identity",
            "G(R23) x2 x3 x^<3| = q^{+-2} x^<1| R12 R23 G(R12) x1 x2",
            comp["closed_identity"], True, witness=witnesses("closed"), seconds=dt)
    rep.add("compatibility-ideals", "relations times a generator order to zero",
            comp["ideal_checks"], True, witness=witnesses("-ideal"))
    rep.add("diamond-degree-3", "two rewrite orders agree on mixed words",
            comp["diamond"], True, witness=witnesses("diamond"))
    lrel, dt = _timed(verify_l_relations, d)
    anchor = ("R12 L1 R12 L1 - L1 R12 L1 R12 = R12 L1 - L1 R12"
              if family == FAMILY_HECKE else
              "PP12 L1 R12 L1 - L1 R12 L1 PP12 = PP12 L1 - L1 PP12")
    rep.add("l-quadratic-identity", anchor, lrel["passed"], True,
            witness=None if lrel["passed"] else lrel["failures"][:3], seconds=dt)
    for k in range(1, max(1, min(cfg.degree, 3)) + 1):
        if not d.B.component(k).basis:
            break
        ok, dt = _timed(representation_l_relations_ok, d, k)
        rep.add(f"representation-identity-k{k}",
                "the L-identity holds for the representing matrices", ok, True,
                seconds=dt)
    if family == FAMILY_HECKE and flavor == BOSONIC:
        ld, dt = _timed(left_dual_variant_report, b)
        rep.add("left-dual-variant", "left-dual rule is diamond and ideal "
                "consistent after the B^{-1} change of basis", None, False,
                witness=ld, seconds=dt)


def _suite_lie(rep: Report, b: Braiding, cfg: RunConfig):
    if b.kind == BMW:
        rep.add("braided-lie", "not defined for BMW braidings (refused)", None,
                False, witness="the BMW quadratic identity determines no twist")
        return
    try:
        bl, dt = _timed(braided_lie, b)
    except SizeLimitExceeded:
        raise
    except QfockError as exc:
        rep.add("rhat-reconstruction", "twist solved from its defining property",
                False, True, witness=exc)
        return
    rep.add("rhat-reconstruction", "twist solved from its defining property",
            True, True, seconds=dt)
    out, dt = _timed(verify_lie, bl)
    rep.add("rhat-defining", "R12 L1 R12 L1 maps to L1 R12 L1 R12",
            out["defining"], True, seconds=dt)
    rep.add("rtrace-generators", "Tr_R l_i^j = alpha delta_i^j",
            out["trace_generators"], True)
    rep.add("rtrace-brackets", "Tr_R of every basis bracket vanishes",
            out["trace_brackets"], True)
    jac = ("[,][,]_23 (I - twist_12) = [,][,]_12" if b.kind == HECKE
           else "[,][,]_23 (I + twist_12 twist_23 + twist_23 twist_12) = 0")
    rep.add("jacobi", jac, out["jacobi"], True)
    rep.add("bracket-quadratic-consistency",
            "composing the quadratic identity reproduces the bracket",
            out["quadratic_consistency"], True)


def _deforms_flip(b: Braiding) -> bool:
    """Whether the braiding specializes to the plain flip at q = 1; only
    those are gated against the binomial series (a graded flip deforms the
    super-symmetric algebra instead)."""
    flip = LinOperator.flip(b.N)
    if b.kind == INVOLUTIVE:
        return b.R == flip
    try:
        return specialize(b, 1).R == flip
    except NonGenericPoint:
        return False


def _poincare_series(b: Braiding, kmax: int):
    """(kind, space, dims, classical, gating, seconds) for the four graded
    quotients; only deformations of the flip gate, BMW ones included."""
    gating = _deforms_flip(b)
    for kind in ("sym", "lambda"):
        for space in ("V", "V*"):
            alg = make_algebra(b, kind, space)
            dims, dt = _timed(alg.poincare, kmax)
            classical = [classical_sym_dim(b.N, k) if kind == "sym"
                         else classical_lambda_dim(b.N, k)
                         for k in range(kmax + 1)]
            yield kind, space, dims, classical, gating, dt


def _suite_poincare(rep: Report, b: Braiding, cfg: RunConfig):
    for kind, space, dims, classical, gating, dt in _poincare_series(b, cfg.kmax):
        rep.add(f"poincare-{kind}-{space}",
                "dimensions match the classical series",
                dims == classical if gating else None,
                gating,
                witness=f"dims={dims} classical={classical}",
                seconds=dt)


def _suite_currents(rep: Report, b: Braiding, cfg: RunConfig):
    if b.kind == BMW:
        rep.add("currents", "Baxterization is defined for involutive and "
                "Hecke bases only (refused)", None, False)
        return
    flavor = "rational" if b.kind == INVOLUTIVE else "trigonometric"
    cb = baxterize(b, flavor)
    cert, dt = _timed(lambda: cb.braid_certificate)
    rep.add("spectral-braid-grid",
            "R12(u,v) R23(u,w) R12(v,w) = R23(v,w) R12(u,w) R23(u,v)",
            cert["passed"], True, seconds=dt)
    cert, dt = _timed(lambda: cb.unitarity_certificate)
    rep.add("spectral-unitarity-grid", "R(u,v) R(v,u) = g(u,v) g(v,u) I",
            cert["passed"], True, seconds=dt)
    cd = make_current_double(cb, cfg.window)
    for which in ("b-side", "a-side"):
        out, dt = _timed(current_relation_check, cd, which)
        rep.add(f"current-relations-{which}",
                "exchange system consistent (grid certificates)",
                out["passed"], True, seconds=dt)
    out, dt = _timed(current_relation_check, cd, "half-currents")
    rep.add("half-current-truncation",
            "mode sectors partition the current relation on the window",
            None, False,
            witness=f"residual out-of-window terms: "
                    f"{out['residual_out_of_window_terms']}", seconds=dt)
    degree = min(cfg.degree, 2)
    out, dt = _timed(verify_yang, cd, degree)
    # the strict degree <= 1 part gates at every degree; the residue is reported
    witness = (f"{out['matrix_elements']} elements, window {out['window']}, "
               f"degree {out['degree']}; {out['comparison']}")
    if degree >= 2:
        witness += f"; {out['degree2_residual_classes']} residual classes"
    rep.add("spectral-l-identity",
            "R12(u,v) L1(u) R12 L1(v) - L1(v) R12 L1(u) R12(u,v) = "
            "(R12 L1(u) - L1(u) R12) delta(u-v), matrix elements",
            out["passed"], True, witness=witness, seconds=dt)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig) -> int:
    rep = Report("qfock", __version__, _config_echo(cfg))
    try:
        b = _resolve_braiding(cfg)
    except InvalidArgument:
        raise
    except QfockError as exc:
        # a table document that is not a table is bad input (exit 2); a
        # well-formed table whose braiding fails its properties is a gating
        # failure (exit 1)
        rep.add("load-braiding", "construct or load the braiding", False, True,
                witness=exc)
        rep.bad_input = isinstance(exc, MalformedTable)
        _emit(rep, cfg)
        if rep.bad_input:
            raise
        return 1
    rep.add("load-braiding", "construct or load the braiding", True, True,
            witness=b.name)
    suites = [cfg.suite] if cfg.suite != "all" else \
        ["braiding", "double", "lie", "poincare", "currents"]
    for suite in suites:
        {"braiding": _suite_braiding, "double": _suite_double,
         "lie": _suite_lie, "poincare": _suite_poincare,
         "currents": _suite_currents}[suite](rep, b, cfg)
    _emit(rep, cfg)
    return 1 if rep.failed else 0


def cmd_poincare(cfg: RunConfig) -> int:
    rep = Report("qfock", __version__, _config_echo(cfg))
    b = _resolve_braiding(cfg)
    table = {}
    for kind, space, dims, classical, gating, _ in _poincare_series(b, cfg.kmax):
        key = f"{kind}({space})"
        table[key] = {"dims": dims, "classical": classical,
                      "matches_classical": dims == classical,
                      "comparison": "gating" if gating else "report-only"}
        rep.add(f"poincare-{kind}-{space}", "dimension table",
                dims == classical if gating else None, gating,
                witness=table[key])
    print(json.dumps(table, indent=1, sort_keys=True))
    _emit(rep, cfg, quiet=True)
    return 1 if rep.failed else 0


def _matrix_doc(rows: int, cols: int, entry) -> dict:
    """A matrix as printed: every entry(r, c), zeros included, by rows."""
    return {
        "rows": rows,
        "cols": cols,
        "index_base": 1,
        "entries": [[entry(r, c).to_pairs() for c in range(cols)]
                    for r in range(rows)],
    }


def _pairing_doc(mat) -> dict:
    return _matrix_doc(len(mat), len(mat), lambda r, c: mat[r].get(c, ZERO))


def _print_doc(doc: dict, cfg: RunConfig) -> int:
    """Write doc as JSON to --out, or print it when --out is absent."""
    payload = json.dumps(doc, indent=1, sort_keys=True)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def cmd_repr(cfg: RunConfig) -> int:
    b = _resolve_braiding(cfg)
    family, flavor = _family_flavor(b, cfg)
    d = make_double(b, flavor)
    k = max(1, cfg.degree)
    reps = fock_representation(d, k)
    comp = d.B.component(k)
    dim = len(comp.basis)

    def columns_doc(cols) -> dict:
        return _matrix_doc(dim, dim, lambda r, c: cols[c].get(r, ZERO))

    doc = {
        "k": k,
        "family": family,
        "flavor": flavor,
        "component_basis": [[i + 1 for i in w] for w in comp.basis],
        "b_matrix": _pairing_doc(b.B),
        "matrices": {f"l[{i+1}][{j+1}]": columns_doc(reps[(i, j)])
                     for i in range(b.N) for j in range(b.N)},
        "identity_holds": representation_l_relations_ok(d, k),
    }
    return _print_doc(doc, cfg)


def cmd_export(cfg: RunConfig) -> int:
    b = _resolve_braiding(cfg)
    doc = {
        "table": braiding_to_table(b),
        "psi": _matrix_doc(b.psi.size, b.psi.size,
                           lambda r, c: b.psi.rows.get(r, {}).get(c, ZERO)),
        "B": _pairing_doc(b.B),
        "C": _pairing_doc(b.C),
        "alpha": b.alpha.to_pairs() if b.alpha is not None else None,
    }
    return _print_doc(doc, cfg)


def _config_echo(cfg: RunConfig) -> dict:
    return {k: v for k, v in asdict(cfg).items() if v is not None}


def _emit(rep: Report, cfg: RunConfig, quiet: bool = False):
    if not quiet:
        for c in rep.checks:
            status = {"pass": "PASS", "fail": "FAIL",
                      "report-only": "INFO"}[c.verdict]
            line = f"[{status}] {c.check_id}: {c.anchor}"
            if c.witness and c.verdict != "pass":
                line += f"  [{c.witness}]"
            print(line)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json() + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfock",
        description="exact verification of braidings, Fock doubles and currents")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("verify", "run verification suites"),
                        ("poincare", "dimension tables of the graded quotients"),
                        ("repr", "representation matrices on a component"),
                        ("export", "serialize R, Psi, B, C and the table")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--braiding", choices=["flip", "superflip", "std-hecke",
                                              "bmw-orth", "bmw-sympl"])
        p.add_argument("--table", help="path to a braiding table file")
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--mn", default="1,1", help="superflip split m,n")
        p.add_argument("--q", default="generic",
                       help="'generic' or a rational like 3/2 for the "
                            "evaluation cross-check")
        p.add_argument("--flavor", choices=[BOSONIC, FERMIONIC],
                       help="flavor of the double (default bosonic); a BMW "
                            "series fixes it")
        p.add_argument("--suite", choices=SUITES, default="all")
        p.add_argument("--kmax", type=int, default=4)
        p.add_argument("--window", type=int, default=2)
        p.add_argument("--degree", type=int, default=1)
        p.add_argument("--out", help="write the JSON report here")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    cfg = RunConfig(**args)
    try:
        for flag in ("kmax", "window", "degree"):
            if getattr(cfg, flag) < 0:
                raise InvalidArgument(
                    f"--{flag} must be >= 0, got {getattr(cfg, flag)}")
        return {"verify": cmd_verify, "poincare": cmd_poincare,
                "repr": cmd_repr, "export": cmd_export}[command](cfg)
    except (QfockError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
