"""Basis covariance: a braiding conjugated by g (x) g (tests/gauge.py) gets
the same verdict and witness on every check of the braiding, double
(degree 1), Lie and Poincare suites as the braiding itself: the witnesses
carry alpha (on `strict-skew-invertibility`), the mu eigenspace, the
left-dual variant's failures and the Poincare dimensions.  Its degree-2
representation has the same component dimension and satisfies the
L-identity too.

The twisted standard Hecke braiding, whose R is not symmetric, passes
every gating record of every suite; at q = 1 it is no superflip, so it gets
no Poincare record."""

import json

import pytest

from qfock.braidings import braiding_to_table, make_bmw, make_flip, \
    make_standard_hecke, make_superflip
from qfock.cli import main

from gauge import GAUGES, conjugated, twisted

BUILTINS = {
    "flip-2": (["--braiding", "flip", "--n", "2"], lambda: make_flip(2)),
    "flip-3": (["--braiding", "flip", "--n", "3"], lambda: make_flip(3)),
    "superflip-1|1": (["--braiding", "superflip", "--mn", "1,1"],
                      lambda: make_superflip(1, 1)),
    "std-hecke-2": (["--braiding", "std-hecke", "--n", "2"],
                    lambda: make_standard_hecke(2)),
    "std-hecke-3": (["--braiding", "std-hecke", "--n", "3"],
                    lambda: make_standard_hecke(3)),
    "bmw-orth-3": (["--braiding", "bmw-orth", "--n", "3"],
                   lambda: make_bmw(3, "orthogonal")),
    "bmw-sympl-2": (["--braiding", "bmw-sympl", "--n", "2"],
                    lambda: make_bmw(2, "symplectic")),
}

SUITES = ("braiding", "double", "lie", "poincare")


def _verdicts(argv, out) -> tuple[list, int]:
    """(check id, verdict, gating, witness) of every record of `qfock verify
    argv` over SUITES, and the worst exit status."""
    records, worst = [], 0
    for suite in SUITES:
        worst = max(worst, main(["verify", *argv, "--suite", suite, "--out", str(out)]))
        for c in json.loads(out.read_text())["checks"]:
            if c["check_id"] != "load-braiding":
                records.append((c["check_id"], c["verdict"], c["gating"], c["witness"]))
    return records, worst


def _repr_degree2(argv, out) -> tuple:
    """(exit status, flavor, component dimension, identity verdict) of
    `qfock repr argv --degree 2`."""
    status = main(["repr", *argv, "--degree", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    return status, doc["flavor"], len(doc["component_basis"]), doc["identity_holds"]


@pytest.mark.parametrize("gauge", sorted(GAUGES))
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_change_of_basis_keeps_every_verdict(name, gauge, tmp_path):
    argv, make = BUILTINS[name]
    b = make()
    image = conjugated(b, GAUGES[gauge](b.N), gauge)
    assert (image.R == b.R) == name.startswith("flip")   # g (x) g commutes with the flip
    assert image.validate() == []
    table = tmp_path / "table.json"
    table.write_text(json.dumps(braiding_to_table(image)))
    out = tmp_path / "report.json"
    want, want_exit = _verdicts(argv, out)
    got, got_exit = _verdicts(["--table", str(table)], out)
    assert got == want
    assert (got_exit, want_exit) == (0, 0)
    want_repr = _repr_degree2(argv, out)
    assert _repr_degree2(["--table", str(table)], out) == want_repr
    assert want_repr[0] == 0 and want_repr[3] is True


@pytest.mark.parametrize("n", [2, 3])
def test_twisted_hecke_passes_every_suite(n, tmp_path):
    b = twisted(make_standard_hecke(n))
    transpose = {(c, r): v for r, c, v in b.R.nonzeros()}
    assert transpose != {(r, c): v for r, c, v in b.R.nonzeros()}
    assert b.validate() == []
    table = tmp_path / "table.json"
    table.write_text(json.dumps(braiding_to_table(b)))
    out = tmp_path / "report.json"
    assert main(["verify", "--table", str(table), "--suite", "all", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert all(c["verdict"] == "pass" and c["gating"] for c in checks)
    # at q = 1 the twist is no superflip, so no Poincare series is expected
    assert not [c for c in checks if c["check_id"].startswith("poincare-")]
