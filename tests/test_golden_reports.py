"""Golden JSON outputs: every `qfock verify` report below must stay
byte-identical to the committed one apart from the timing fields and the
output path, and every `qfock export` and `qfock repr` document below
byte-identical as a whole.

The files under tests/golden/ were written by this module's `write_golden`:
the verify reports from the code before the one-engine-per-job refactor of
the double, the export and repr documents from the code before the sparse
operator type.  The `poincare-*` records of the four BMW `suite-all`
reports were regenerated when the BMW Poincare series began to gate.  All
ten `braiding-*` verify reports were regenerated when every record came to
gate or go: `bc-scalar` folded its alpha into the witness of
`strict-skew-invertibility`; `mu-eigenspace-degree2` (the four BMW reports)
and `left-dual-variant` (the flip, std-hecke and superflip `suite-all`
reports) gate; and in the currents suite `current-relations-b-side`, a copy
of the two certificates, and `half-current-truncation`, a term count, went,
the certificates took the ids `spectral-braid-certificate` and
`spectral-unitarity-certificate`, and `current-relations-a-side` lost the
words "(grid certificates)" from its anchor.  The `poincare-*` records of the
nine reports that run the Poincare suite were regenerated when they came to
gate against the series of the superflip that R is at q = 1: their anchor
and witness changed everywhere, and on the superflip 1|1 their verdict went
from report-only to pass.  A change that is meant to alter a verdict, an
anchor, a witness or a printed matrix must regenerate them and say so.
The nine `suite-all` reports were regenerated when the last checks that
returned a dict with a `passed` flag came to return failure lists: the
passing witness of `left-dual-variant` (flip 2 and 3, std-hecke 2 and 3,
superflip 1|1) and of `mu-eigenspace-degree2` (the four BMW reports), a
dict repr, became null.
The flip 2 and 3 and superflip 1|1 `suite-all` reports were regenerated
when the involutive Jacobi check came to run in the Leibniz form: their
`jacobi` anchor changed from the cyclic form to the Leibniz one.
The flip 2 and 3, std-hecke 2 and 3 and superflip 1|1 `suite-all` reports
were regenerated when the braided-Lie twist came to be built from the dual
extensions of R instead of solved from its defining property: their
`rhat-reconstruction` anchor changed, and nothing else.
The same five `suite-all` reports (flip-n-2, flip-n-3, superflip-mn-1_1,
std-hecke-n-2 and std-hecke-n-3) were regenerated when `verify_lie` came
to yield each record as its check finishes, in the order it computes
them: `jacobi` and `rhat-defining` swapped places, and nothing else
changed.
The `--q 3/2` braiding report, the one golden of `evaluation-cross-check`,
was added later on its own; no other file was rewritten with it.
`test_report_only_records_are_the_named_exceptions` holds every record that
does not gate to the one kind that may not: the BMW refusals `braided-lie`
and `currents`.  `test_no_witness_is_a_passed_dict` keeps the dict reports
from coming back.
Regenerate with

    PYTHONPATH=src python -c "import tests.test_golden_reports as g; g.write_golden()"
"""

import json
import re
import tempfile
from pathlib import Path

import pytest

from qfock.braidings import BMW
from qfock.cli import RunConfig, _resolve_braiding, main

GOLDEN = Path(__file__).resolve().parent / "golden"

ALL_SUITES = [
    ["--braiding", "flip", "--n", "2"],
    ["--braiding", "flip", "--n", "3"],
    ["--braiding", "superflip", "--mn", "1,1"],
    ["--braiding", "std-hecke", "--n", "2"],
    ["--braiding", "std-hecke", "--n", "3"],
    ["--braiding", "bmw-orth", "--n", "3"],
    ["--braiding", "bmw-sympl", "--n", "2"],
]

CASES = (
    [target + ["--suite", "all"] for target in ALL_SUITES]
    + [["--braiding", "bmw-orth", "--n", "3", "--suite", "all", "--degree", "3"],
       ["--braiding", "bmw-sympl", "--n", "2", "--suite", "all", "--degree", "3"],
       ["--braiding", "std-hecke", "--n", "2", "--suite", "currents",
        "--window", "1", "--degree", "2"],
       ["--braiding", "std-hecke", "--n", "2", "--suite", "braiding", "--q", "3/2"]]
)


# (command, arguments): the dense matrices that `export` and `repr` print
DOCUMENTS = [
    ("export", ["--braiding", "flip", "--n", "2"]),
    ("export", ["--braiding", "std-hecke", "--n", "3"]),
    ("export", ["--braiding", "bmw-orth", "--n", "3"]),
    ("repr", ["--braiding", "bmw-orth", "--n", "3", "--degree", "3"]),
    ("repr", ["--braiding", "std-hecke", "--n", "3", "--degree", "2"]),
]


def _name(argv) -> str:
    return "-".join(t.lstrip("-").replace(",", "_").replace("/", "_") for t in argv) + ".json"


def _document_name(case) -> str:
    command, argv = case
    return f"{command}-{_name(argv)}"


def _document(case, out: Path) -> str:
    """The JSON document that `qfock command argv` writes."""
    command, argv = case
    assert main([command, *argv, "--out", str(out)]) == 0
    return out.read_text()


def _normalized(argv, out: Path) -> str:
    """The report of `qfock verify argv` without `seconds` and `config.out`."""
    main(["verify", *argv, "--out", str(out)])
    doc = json.loads(out.read_text())
    for check in doc["checks"]:
        check.pop("seconds")
    doc["config"].pop("out")
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for argv in CASES:
            text = _normalized(argv, Path(scratch) / "report.json")
            (GOLDEN / _name(argv)).write_text(text)
        for case in DOCUMENTS:
            text = _document(case, Path(scratch) / "document.json")
            (GOLDEN / _document_name(case)).write_text(text)


@pytest.mark.parametrize("argv", CASES, ids=_name)
def test_report_matches_golden(argv, tmp_path):
    want = (GOLDEN / _name(argv)).read_text()
    assert _normalized(argv, tmp_path / "report.json") == want


@pytest.mark.parametrize("argv", CASES, ids=_name)
def test_report_only_records_are_the_named_exceptions(argv):
    doc = json.loads((GOLDEN / _name(argv)).read_text())
    b = _resolve_braiding(RunConfig(**doc["config"]))
    for check in doc["checks"]:
        if not check["gating"]:
            cid = check["check_id"]
            assert cid in ("braided-lie", "currents") and b.kind == BMW, cid
            assert check["verdict"] == "report-only", cid


def test_no_witness_is_a_passed_dict():
    """Every record of a golden verify report reads its verdict from one
    failure list, so no witness is a dict repr or names a `passed` flag."""
    for path in GOLDEN.glob("*.json"):
        for check in json.loads(path.read_text()).get("checks", []):
            witness = check["witness"] or ""
            assert not re.fullmatch(r"\{.*\}", witness, re.S), (path.name, check)
            assert "passed" not in witness, (path.name, check)


@pytest.mark.parametrize("case", DOCUMENTS, ids=_document_name)
def test_document_matches_golden(case, tmp_path):
    want = (GOLDEN / _document_name(case)).read_text()
    assert _document(case, tmp_path / "document.json") == want
