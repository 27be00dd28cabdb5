"""Golden JSON reports: every report below must stay byte-identical to the
committed one apart from the timing fields and the output path.

The files under tests/golden/ were written by this module's `write_golden`
from the code before the one-engine-per-job refactor of the double; a change
that is meant to alter a verdict, an anchor or a witness must regenerate them
and say so.  Regenerate with

    PYTHONPATH=src python -c "import tests.test_golden_reports as g; g.write_golden()"
"""

import json
import tempfile
from pathlib import Path

import pytest

from qfock.cli import main

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
        "--window", "1", "--degree", "2"]]
)


def _name(argv) -> str:
    return "-".join(t.lstrip("-").replace(",", "_") for t in argv) + ".json"


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


@pytest.mark.parametrize("argv", CASES, ids=_name)
def test_report_matches_golden(argv, tmp_path):
    want = (GOLDEN / _name(argv)).read_text()
    assert _normalized(argv, tmp_path / "report.json") == want
