"""Command-line driver: build braidings and doubles, run named
verification suites, emit Poincare tables, representation matrices and
machine-readable JSON reports.

Every check record carries a stable id and an anchor string naming the
identity it verifies, so reports are auditable.  Each suite's records,
(check id, anchor, failures[, witness]) as Report.add takes them, come
from the module that decides them as each check finishes (SUITE_RECORDS).
Reports are deterministic for a fixed configuration up to the timing
fields; the process exit code is nonzero exactly when a gating check
failed or an error surfaced.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from fractions import Fraction
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import __version__
from .braidings import (
    TABLE_MAX_N,
    Braiding,
    braiding_records,
    braiding_to_table,
    evaluation_records,
    load_braiding_table,
    make_bmw,
    make_flip,
    make_standard_hecke,
    make_superflip,
)
from .currents import WINDOW_MAX, current_records
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
    FERMIONIC,
    double_records,
    family_flavor,
    fock_representation,
    lie_records,
    make_double,
    representation_l_relations_ok,
)
from .quadalgebras import mu_eigenspace_records, poincare_records
from .scalars import ZERO

# each verify suite's records, from the modules that decide them, in `all`'s order
SUITE_RECORDS = {
    "braiding": lambda b, cfg: chain(
        braiding_records(b), mu_eigenspace_records(b),
        () if cfg.q == "generic" else _evaluation_records(b, Fraction(cfg.q))),
    "double": lambda b, cfg: double_records(b, _family_flavor_of(b, cfg)[1], cfg.degree),
    "lie": lambda b, cfg: lie_records(b),
    "poincare": lambda b, cfg: poincare_records(b, cfg.kmax),
    "currents": lambda b, cfg: current_records(b, cfg.window, cfg.degree),
}
# what each command and each verify suite reads beyond --out and the braiding source
READS = {"braiding": ("q",), "double": ("flavor", "degree"), "lie": (),
         "poincare": ("kmax",), "currents": ("window", "degree"),
         "repr": ("flavor", "degree"), "export": (), "verify": ("suite",)}


class RunConfig:
    def __init__(self, braiding: str | None = None, table: str | None = None,
                 n: int = 2, mn: str = "1,1", q: str = "generic",
                 flavor: str | None = None, suite: str = "all", kmax: int = 4,
                 window: int = 2, degree: int = 1, out: str | None = None):
        self.braiding = braiding
        self.table = table
        self.n = n
        self.mn = mn
        self.q = q
        self.flavor = flavor
        self.suite = suite
        self.kmax = kmax
        self.window = window
        self.degree = degree
        self.out = out


class CheckRecord:
    def __init__(self, check_id: str, anchor: str, verdict: str, gating: bool,
                 witness: str | None = None, seconds: float = 0.0):
        self.check_id = check_id
        self.anchor = anchor
        self.verdict = verdict      # "pass" | "fail" | "report-only"
        self.gating = gating
        self.witness = witness
        self.seconds = seconds


class Report:
    def __init__(self, tool: str, version: str, config: dict):
        self.tool = tool
        self.version = version
        self.config = config
        self.checks: list[CheckRecord] = []
        self.bad_input = False
        # the clock reading at the last record, or when the report was made
        self._clock = time.perf_counter()

    def add(self, check_id: str, anchor: str, failures: list | None, witness=None):
        """Append a record, report-only when `failures` is None and else a
        pass exactly when it is empty; its witness is the one given, else the
        first three failures, and its seconds run from the clock reading."""
        now = time.perf_counter()
        seconds, self._clock = now - self._clock, now
        witness = failures[:3] if witness is None and failures else witness
        verdict = "report-only" if failures is None else "fail" if failures else "pass"
        self.checks.append(CheckRecord(check_id, anchor, verdict, failures is not None,
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
            "checks": [vars(c) for c in self.checks],
            "exit_status": 2 if self.bad_input else 1 if self.failed else 0,
        }
        return _dumps(doc)


_INF = float("inf")


def _leaf(o) -> str | None:
    """A JSON string, number, bool or null spelled as json spells it, or
    None for anything else."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        return "-Infinity" if o == -_INF else float.__repr__(o)
    return None


def _dumps(obj) -> str:
    """json.dumps(obj, indent=1, sort_keys=True), byte for byte, for a
    document whose dict keys are strings, as every qfock document's are
    (another key is a TypeError).  Each container is rendered once per
    depth: a dict or list that the document holds in several places (the
    zero entry of a matrix) is written once and its text reused, keyed by
    (id, depth) for the length of the call."""
    memo: dict[tuple[int, int], str] = {}

    def render(o, depth: int) -> str:
        text = _leaf(o)
        if text is None:
            text = memo.get((id(o), depth))
        if text is not None:
            return text
        inner = "\n" + " " * (depth + 1)
        if isinstance(o, (list, tuple)):
            parts = [render(v, depth + 1) for v in o]
            brackets = "[]"
        elif isinstance(o, dict):
            parts = [f"{encode_basestring_ascii(k)}: {render(v, depth + 1)}"
                     for k, v in sorted(o.items())]
            brackets = "{}"
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        text = (f"{brackets[0]}{inner}{(',' + inner).join(parts)}\n{' ' * depth}{brackets[1]}"
                if parts else brackets)
        memo[(id(o), depth)] = text
        return text

    return render(obj, 0)


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
        runs += SUITE_RECORDS if cfg.suite == "all" else [cfg.suite]
    source = (["table"] if cfg.table else
              ["braiding", "mn" if cfg.braiding == "superflip" else "n"])
    return {"out", *source}.union(*(READS[r] for r in runs))


def _superflip_split(mn: str) -> tuple[int, int]:
    """The --mn value m,n: two unsigned integers.  make_superflip holds the
    rule on their sizes."""
    match = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*", mn)
    if not match:
        raise InvalidArgument(f"--mn must be m,n: two unsigned integers, got {mn!r}")
    m, n = match.groups()
    return int(m), int(n)


def _evaluation_records(b: Braiding, q0: Fraction):
    """evaluation_records of b at --q q0: a q0 that is no generic point is
    bad input, named by the option."""
    try:
        yield from evaluation_records(b, q0)
    except NonGenericPoint as exc:
        raise NonGenericPoint(f"--q {q0}: {exc}") from None


def _family_flavor_of(b: Braiding, cfg: RunConfig) -> tuple[str, str]:
    """family_flavor of b under --flavor: a flavor that the BMW series of b
    rules out is bad input."""
    try:
        return family_flavor(b, cfg.flavor)
    except UnsupportedDouble as exc:
        raise InvalidArgument(f"--flavor {cfg.flavor}: {exc}") from None


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
        rep.add("load-braiding", "construct or load the braiding", [exc], witness=exc)
        rep.bad_input = isinstance(exc, MalformedTable)
        _emit(rep, cfg)
        if rep.bad_input:
            raise
        return 1
    rep.add("load-braiding", "construct or load the braiding", [], witness=b.name)
    for suite in [cfg.suite] if cfg.suite != "all" else SUITE_RECORDS:
        for record in SUITE_RECORDS[suite](b, cfg):
            rep.add(*record)
    _emit(rep, cfg)
    return 1 if rep.failed else 0


def cmd_poincare(cfg: RunConfig) -> int:
    rep = Report("qfock", __version__, _config_echo(cfg))
    table: dict = {}
    for record in poincare_records(_resolve_braiding(cfg), cfg.kmax, table):
        rep.add(*record)
    print(_dumps(table))
    _emit(rep, cfg, quiet=True)
    return 1 if rep.failed else 0


def _matrix_doc(rows: int, cols: int, entry) -> dict:
    """A matrix as printed: every entry(r, c), zeros included, by rows.
    Equal entries share one pairs dict, which _dumps renders once."""
    pairs: dict = {}

    def cell(r: int, c: int) -> dict:
        x = entry(r, c)
        doc = pairs.get(x)
        if doc is None:
            doc = pairs[x] = x.to_pairs()
        return doc

    return {
        "rows": rows,
        "cols": cols,
        "index_base": 1,
        "entries": [[cell(r, c) for c in range(cols)] for r in range(rows)],
    }


def _pairing_doc(mat) -> dict:
    return _matrix_doc(len(mat), len(mat), lambda r, c: mat[r].get(c, ZERO))


def _print_doc(doc: dict, cfg: RunConfig) -> None:
    """Write doc as JSON to --out, or print it when --out is absent."""
    payload = _dumps(doc)
    if cfg.out:
        _write_out(cfg.out, payload)
    else:
        print(payload)


def _write_out(path: str, payload: str) -> None:
    """Write payload and a newline to --out; a failed write is bad input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    except OSError as exc:
        raise InvalidArgument(f"--out {path}: cannot write: {exc.strerror or exc}") from None


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


def _check_out(path: str) -> None:
    """Refuse an --out that names a directory, or whose directory is missing."""
    if os.path.isdir(path):
        raise InvalidArgument(f"--out {path} is a directory")
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise InvalidArgument(f"--out {path}: no directory {folder}")


def _config_echo(cfg: RunConfig) -> dict:
    return {k: v for k, v in vars(cfg).items() if v is not None}


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
        _write_out(cfg.out, rep.to_json())


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
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
        p.add_argument("--suite", choices=[*SUITE_RECORDS, "all"])
        p.add_argument("--kmax", type=int)
        p.add_argument("--window", type=int)
        p.add_argument("--degree", type=int)
        p.add_argument("--out", help="write the JSON report here")
        p.set_defaults(**vars(RunConfig()))
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
        reads, defaults = _reads(command, cfg), vars(RunConfig())
        for option, value in args.items():
            if option not in reads and value != defaults[option]:
                run = command + (f" --suite {cfg.suite}" if command == "verify" else "")
                raise InvalidArgument(f"--{option} {value} is not read by {run}")
            if option in ("kmax", "window", "degree") and value < 0:
                raise InvalidArgument(f"--{option} must be >= 0, got {value}")
        if cfg.window > WINDOW_MAX:
            raise InvalidArgument(f"--window {cfg.window} is above "
                                  f"WINDOW_MAX = {WINDOW_MAX}")
        if cfg.q != "generic":
            try:
                # printed as the braiding suite will print it: a rational
                # too long for int-to-text conversion is a ValueError
                str(Fraction(cfg.q))
            except (ValueError, ZeroDivisionError):
                raise InvalidArgument(
                    f"--q must be 'generic' or a rational like 3/2 short "
                    f"enough to print, got {cfg.q!r}") from None
        if cfg.out:
            _check_out(cfg.out)
        return {"verify": cmd_verify, "poincare": cmd_poincare,
                "repr": cmd_repr, "export": cmd_export}[command](cfg)
    except (QfockError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
