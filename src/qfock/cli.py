"""Command-line driver: build braidings and doubles, run named
verification suites, emit Poincare tables, representation matrices and
machine-readable JSON reports.

Every check record carries a stable id and an anchor string naming the
identity it verifies, so reports are auditable (the multi-record checks
yield both with each record as its check finishes).  Reports are deterministic
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
    TABLE_MAX_N,
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
    superflip_limit,
)
from .currents import current_relation_check, make_current_double, verify_yang
from .errors import (
    InvalidArgument,
    MalformedTable,
    NonGenericPoint,
    QfockError,
    SizeLimitExceeded,
    UnsupportedDouble,
)
from .fockdouble import (
    BOSONIC,
    FAMILY_HECKE,
    FERMIONIC,
    braided_lie,
    family_flavor,
    left_dual_variant_report,
    make_double,
    fock_representation,
    representation_l_relations_ok,
    verify_compatibility,
    verify_l_relations,
    verify_lie,
)
from .quadalgebras import make_algebra, mu_eigenspace_degree2_report, super_sym_dims
from .scalars import ONE, ZERO
from .tensorops import mat_mul

SUITES = ("braiding", "double", "lie", "poincare", "currents", "all")
# what each command and each verify suite reads beyond --out and the braiding source
READS = {"braiding": ("q",), "double": ("flavor", "degree"), "lie": (),
         "poincare": ("kmax",), "currents": ("window", "degree"),
         "repr": ("flavor", "degree"), "export": (), "verify": ("suite",)}


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
    # the clock reading at the last record, or when the report was made
    _clock: float = field(default_factory=lambda: time.perf_counter(),
                          init=False, repr=False, compare=False)

    def add(self, check_id: str, anchor: str, passed: bool | None, witness=None):
        """Append a record, which gates unless passed is None (report-only);
        its seconds are the time since the previous record, or since the
        report was made."""
        now = time.perf_counter()
        seconds, self._clock = now - self._clock, now
        verdict = "report-only" if passed is None else "pass" if passed else "fail"
        self.checks.append(CheckRecord(check_id, anchor, verdict, passed is not None,
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
    if name == "superflip":
        m, n = _superflip_split(cfg.mn)
        option, size = "--mn", m + n
    else:
        option, size = "--n", cfg.n
    # the bound on a table's N, applied before any constructor runs; each
    # builtin's constructor checks its least N first
    if size > TABLE_MAX_N:
        raise SizeLimitExceeded(f"{option} gives N = {size}, above "
                                f"TABLE_MAX_N = {TABLE_MAX_N}")
    try:
        if name == "superflip":
            return make_superflip(m, n)
        if name == "flip":
            return make_flip(cfg.n)
        if name == "std-hecke":
            return make_standard_hecke(cfg.n)
        return make_bmw(cfg.n, "orthogonal" if name == "bmw-orth" else "symplectic")
    except InvalidArgument as exc:
        raise InvalidArgument(f"{option} gives {exc}") from None


def _reads(command: str, cfg: RunConfig) -> set[str]:
    """The options that a run reads: --out, the READS of its command and, for
    verify, of its suites (`all` reads those of all five), and the braiding
    source: --table alone, or --braiding with --mn (superflip) or --n."""
    runs = [command]
    if command == "verify":
        runs += SUITES[:-1] if cfg.suite == "all" else [cfg.suite]
    source = (["table"] if cfg.table else
              ["braiding", "mn" if cfg.braiding == "superflip" else "n"])
    return {"out", *source}.union(*(READS[r] for r in runs))


def _superflip_split(mn: str) -> tuple[int, int]:
    """The --mn value m,n: two integers >= 0 with m + n >= 1."""
    match = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*", mn)
    m, n = (int(t) for t in match.groups()) if match else (0, 0)
    if m + n < 1:
        raise InvalidArgument(f"--mn must be m,n: two integers >= 0 with "
                              f"m + n >= 1, got {mn!r}")
    return m, n


def _family_flavor_of(b: Braiding, cfg: RunConfig) -> tuple[str, str]:
    """family_flavor of b under --flavor: a flavor that the BMW series of b
    rules out is bad input."""
    try:
        return family_flavor(b, cfg.flavor)
    except UnsupportedDouble as exc:
        raise InvalidArgument(f"--flavor {cfg.flavor}: {exc}") from None


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _add_found(rep: Report, check_id: str, anchor: str, found: list):
    """A gating record that passes when `found`, its witness list, is empty
    and shows its first three witnesses when it fails."""
    rep.add(check_id, anchor, not found, witness=found[:3] or None)


def _suite_braiding(rep: Report, b: Braiding, cfg: RunConfig):
    rep.add("braid-relation", "R12 R23 R12 = R23 R12 R23", b.braid_ok())
    poly = {INVOLUTIVE: "R^2 = I",
            HECKE: "(R - q)(R + 1/q) = 0",
            BMW: "(R - q)(R + 1/q)(R - mu) = 0"}[b.kind]
    rep.add("minimal-polynomial", poly, b.kind_polynomial_ok())
    try:
        skew = b.skew
    except QfockError as exc:
        rep.add("skew-inverse", "R_ij^kl Psi_lm^jn = delta delta", False, witness=exc)
    else:
        rep.add("skew-inverse", "R_ij^kl Psi_lm^jn = delta delta", True)
        rep.add("strict-skew-invertibility", "B = Tr_1 Psi and C = Tr_2 Psi invertible",
                skew.strict,
                witness=f"alpha = {skew.alpha!r}" if skew.alpha is not None
                else "B C is not scalar")
        if skew.strict:
            dp = dual_pairings(b)
            # the tilde pairing is checked by its defining property, so that
            # it can fail apart from the left pairing and from skew.B_inv
            pair_ok = (dp.left == b.B and mat_mul(dp.left, dp.tilde_right)
                       == [{i: ONE} for i in range(b.N)])
            rep.add("dual-pairings", "left pairing = B; tilde pairing = B^{-1}", pair_ok)
    rep.add("projector-decomposition", "idempotent, complementary, reconstruct R",
            projector_decomposition_ok(b))
    if b.kind == BMW:
        _add_found(rep, "mu-eigenspace-degree2",
                   "invariant line survives in the expected degree-2 quotient",
                   mu_eigenspace_degree2_report(b))
    if cfg.q != "generic":
        q0 = Fraction(cfg.q)       # main has checked that it parses
        at_q0 = specialize(b, q0)
        repeated = at_q0.repeated_roots()
        if repeated:
            raise NonGenericPoint(f"--q {q0}: {'; '.join(repeated)}")
        rep.add("evaluation-cross-check",
                f"braid and minimal polynomial at q = {q0}",
                at_q0.braid_ok() and at_q0.kind_polynomial_ok())


def _suite_double(rep: Report, b: Braiding, cfg: RunConfig):
    family, flavor = _family_flavor_of(b, cfg)
    try:
        d = make_double(b, flavor)
    except QfockError as exc:
        rep.add("double-construction", f"double ({family}, {flavor})", False,
                witness=exc)
        return
    rep.add("double-construction", f"double ({family}, {flavor})", True)
    for record in verify_compatibility(d):
        _add_found(rep, *record)
    anchor = ("R12 L1 R12 L1 - L1 R12 L1 R12 = R12 L1 - L1 R12"
              if family == FAMILY_HECKE else
              "PP12 L1 R12 L1 - L1 R12 L1 PP12 = PP12 L1 - L1 PP12")
    _add_found(rep, "l-quadratic-identity", anchor, verify_l_relations(d))
    for k in range(1, max(1, min(cfg.degree, 3)) + 1):
        if not d.B.component(k).basis:
            break
        rep.add(f"representation-identity-k{k}",
                "the L-identity holds for the representing matrices",
                representation_l_relations_ok(d, fock_representation(d, k)))
    if family == FAMILY_HECKE and flavor == BOSONIC:
        _add_found(rep, "left-dual-variant", "left-dual rule is diamond and "
                   "ideal consistent after the B^{-1} change of basis",
                   left_dual_variant_report(d))


_TWIST_ANCHOR = "twist P_23^-1 (R^-1 (x) D) P_23 from the dual extensions of R"


def _suite_lie(rep: Report, b: Braiding, cfg: RunConfig):
    if b.kind == BMW:
        rep.add("braided-lie", "not defined for BMW braidings (refused)", None,
                witness="the BMW quadratic identity determines no twist")
        return
    try:
        bl = braided_lie(b)
    except SizeLimitExceeded:
        raise
    except QfockError as exc:
        rep.add("rhat-reconstruction", _TWIST_ANCHOR, False, witness=exc)
        return
    rep.add("rhat-reconstruction", _TWIST_ANCHOR, True)
    for record in verify_lie(bl):
        _add_found(rep, *record)


def _poincare_table(rep: Report, b: Braiding, kmax: int,
                    split: tuple[int, int] | None) -> dict:
    """{"sym(V)": {"dims", "expected"}, ...} through degree kmax: expected
    is the series of the superflip (m, n) = split that R is at q = 1, and
    gates a record; with no split it is None and there is no record."""
    table = {}
    for kind in ("sym", "lambda"):
        expected = None if split is None else \
            super_sym_dims(*(split if kind == "sym" else split[::-1]), kmax)
        for space in ("V", "V*"):
            dims = make_algebra(b, kind, space).poincare(kmax)
            table[f"{kind}({space})"] = {"dims": dims, "expected": expected}
            if expected is not None:
                rep.add(f"poincare-{kind}-{space}",
                        "dimensions match the series of the superflip that R "
                        "is at q = 1", dims == expected,
                        witness=f"dims={dims} expected={expected} of (m, n) = {split}")
    return table


def _suite_poincare(rep: Report, b: Braiding, cfg: RunConfig):
    split = superflip_limit(b)
    if split is not None:
        _poincare_table(rep, b, cfg.kmax, split)


def _suite_currents(rep: Report, b: Braiding, cfg: RunConfig):
    if b.kind == BMW:
        rep.add("currents", "Baxterization is defined for involutive and "
                "Hecke bases only (refused)", None)
        return
    cb = baxterize(b)
    _add_found(rep, "spectral-braid-certificate",
               "R12(u,v) R23(u,w) R12(v,w) = R23(v,w) R12(u,w) R23(u,v)",
               cb.braid_certificate)
    _add_found(rep, "spectral-unitarity-certificate",
               "R(u,v) R(v,u) = g(u,v) g(v,u) I", cb.unitarity_certificate)
    cd = make_current_double(cb, cfg.window)
    _add_found(rep, "current-relations-a-side", "exchange system consistent",
               current_relation_check(cd))
    # the single-mode kets are always checked, so degree 0 is degree 1
    degree = max(1, min(cfg.degree, 2))
    out = verify_yang(cd, degree)
    # degree <= 1 gates and the residue is reported; mismatches come before Report.add's cut
    found = out["mismatches"]
    shown = f"first mismatches (ket, cell, (r, s)): {found[:3]}; " if found else ""
    witness = (f"{out['matrix_elements']} elements, window {out['window']}, "
               f"degree {out['degree']}; {shown}{out['comparison']}")
    if degree >= 2:
        witness += f"; {out['degree2_residual_classes']} residual classes"
    rep.add("spectral-l-identity",
            "R12(u,v) L1(u) R12 L1(v) - L1(v) R12 L1(u) R12(u,v) = "
            "(R12 L1(u) - L1(u) R12) delta(u-v), matrix elements",
            not found, witness=witness)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig) -> int:
    rep = Report("qfock", __version__, _config_echo(cfg))
    try:
        b = _resolve_braiding(cfg)
    except (InvalidArgument, SizeLimitExceeded):
        raise
    except QfockError as exc:
        # a table document that is not a table is bad input (exit 2); a
        # well-formed table whose braiding fails its properties is a gating
        # failure (exit 1)
        rep.add("load-braiding", "construct or load the braiding", False, witness=exc)
        rep.bad_input = isinstance(exc, MalformedTable)
        _emit(rep, cfg)
        if rep.bad_input:
            raise
        return 1
    rep.add("load-braiding", "construct or load the braiding", True,
            witness=b.name)
    suites = [cfg.suite] if cfg.suite != "all" else SUITES[:-1]
    for suite in suites:
        {"braiding": _suite_braiding, "double": _suite_double,
         "lie": _suite_lie, "poincare": _suite_poincare,
         "currents": _suite_currents}[suite](rep, b, cfg)
    _emit(rep, cfg)
    return 1 if rep.failed else 0


def cmd_poincare(cfg: RunConfig) -> int:
    rep = Report("qfock", __version__, _config_echo(cfg))
    b = _resolve_braiding(cfg)
    print(json.dumps(_poincare_table(rep, b, cfg.kmax, superflip_limit(b)),
                     indent=1, sort_keys=True))
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


def _print_doc(doc: dict, cfg: RunConfig) -> None:
    """Write doc as JSON to --out, or print it when --out is absent."""
    payload = json.dumps(doc, indent=1, sort_keys=True)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def cmd_repr(cfg: RunConfig) -> int:
    b = _resolve_braiding(cfg)
    family, flavor = _family_flavor_of(b, cfg)
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
        "identity_holds": representation_l_relations_ok(d, reps),
    }
    _print_doc(doc, cfg)
    return 0 if doc["identity_holds"] else 1


def cmd_export(cfg: RunConfig) -> int:
    b = _resolve_braiding(cfg)
    doc = {
        "table": braiding_to_table(b),
        "psi": _pairing_doc(b.psi.rows),
        "B": _pairing_doc(b.B),
        "C": _pairing_doc(b.C),
        "alpha": b.alpha.to_pairs() if b.alpha is not None else None,
    }
    _print_doc(doc, cfg)
    return 0


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
        p.add_argument("--n", type=int)
        p.add_argument("--mn", help="superflip split m,n")
        p.add_argument("--q", help="'generic' or a rational like 3/2 for the "
                                   "evaluation cross-check")
        p.add_argument("--flavor", choices=[BOSONIC, FERMIONIC],
                       help="flavor of the double (default bosonic); a BMW "
                            "series fixes it")
        p.add_argument("--suite", choices=SUITES)
        p.add_argument("--kmax", type=int)
        p.add_argument("--window", type=int)
        p.add_argument("--degree", type=int)
        p.add_argument("--out", help="write the JSON report here")
        p.set_defaults(**asdict(RunConfig()))
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    cfg = RunConfig(**args)
    try:
        # argparse hands `--opt=--` over as an empty list
        for option, value in args.items():
            if isinstance(value, list):
                raise InvalidArgument(f"--{option} needs a value, got {value!r}")
        reads, defaults = _reads(command, cfg), asdict(RunConfig())
        for option, value in args.items():
            if option not in reads and value != defaults[option]:
                run = command + (f" --suite {cfg.suite}" if command == "verify" else "")
                raise InvalidArgument(f"--{option} {value} is not read by {run}")
            if option in ("kmax", "window", "degree") and value < 0:
                raise InvalidArgument(f"--{option} must be >= 0, got {value}")
        if cfg.q != "generic":
            try:
                # printed as the braiding suite will print it: a rational
                # too long for int-to-text conversion is a ValueError
                str(Fraction(cfg.q))
            except (ValueError, ZeroDivisionError):
                raise InvalidArgument(
                    f"--q must be 'generic' or a rational like 3/2 short "
                    f"enough to print, got {cfg.q!r}") from None
        return {"verify": cmd_verify, "poincare": cmd_poincare,
                "repr": cmd_repr, "export": cmd_export}[command](cfg)
    except (QfockError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
