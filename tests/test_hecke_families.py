"""Hecke symmetries beyond GL_q(N) (tests/hecke_families.py): GL_q(m|n)
and two form braidings pass every gating record of every suite in both
flavors.  The Poincare records of GL_q(m|n) gate against the series of the
superflip (m|n) that R is at q = 1; a form braiding is no superflip at
q = 1, so it gets no Poincare record, and its series are pinned here."""

import json

import pytest

from qfock.braidings import (
    make_bmw,
    make_flip,
    make_standard_hecke,
    make_superflip,
    superflip_limit,
)
from qfock.cli import main
from qfock.quadalgebras import make_algebra, super_sym_dims

from gauge import conjugated, lower, twisted, upper
from hecke_families import FORMS, form_braiding, main as write_table, super_hecke

POINCARE = {f"poincare-{kind}-{space}" for kind in ("sym", "lambda") for space in ("V", "V*")}

# the (m, n) of the superflip that R is at q = 1, or None
LIMITS = {
    "flip-2": (lambda: make_flip(2), (2, 0)),
    "std-hecke-2": (lambda: make_standard_hecke(2), (2, 0)),
    "std-hecke-3": (lambda: make_standard_hecke(3), (3, 0)),
    "std-hecke-3-upper": (lambda: conjugated(make_standard_hecke(3), upper(3)), (3, 0)),
    "bmw-orth-3": (lambda: make_bmw(3, "orthogonal"), (3, 0)),
    "bmw-orth-4": (lambda: make_bmw(4, "orthogonal"), (4, 0)),
    "bmw-sympl-2": (lambda: make_bmw(2, "symplectic"), (2, 0)),
    "superflip-1|1": (lambda: make_superflip(1, 1), (1, 1)),
    "superflip-2|1": (lambda: make_superflip(2, 1), (2, 1)),
    "superflip-1|2": (lambda: make_superflip(1, 2), (1, 2)),
    "superflip-2|1-lower": (lambda: conjugated(make_superflip(2, 1), lower(3)), (2, 1)),
    **{f"super-hecke-{m}|{n}": ((lambda m=m, n=n: super_hecke(m, n)), (m, n))
       for m, n in ((1, 1), (2, 1), (1, 2), (2, 2), (0, 2))},
    "std-hecke-3-twisted": (lambda: twisted(make_standard_hecke(3)), None),
    "form-3": (lambda: form_braiding(FORMS[3]), None),
    "form-4": (lambda: form_braiding(FORMS[4]), None),
}


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_superflip_limit(name):
    make, want = LIMITS[name]
    b = make()
    assert b.validate() == []
    assert superflip_limit(b) == want
    if want is not None:
        for kind, (m, n) in (("sym", want), ("lambda", want[::-1])):
            for space in ("V", "V*"):
                assert make_algebra(b, kind, space).poincare(5) == super_sym_dims(m, n, 5)


@pytest.mark.parametrize("size, sym, lam", [
    (3, [1, 3, 8, 21, 55, 144], [1, 3, 1, 0, 0, 0]),
    (4, [1, 4, 15, 56, 209], [1, 4, 1, 0, 0]),
])
def test_form_braiding_series(size, sym, lam):
    """Neither series is that of a super space: Sym grows exponentially
    while Lambda ends in degree 2."""
    b = form_braiding(FORMS[size])
    for space in ("V", "V*"):
        assert make_algebra(b, "sym", space).poincare(len(sym) - 1) == sym
        assert make_algebra(b, "lambda", space).poincare(len(lam) - 1) == lam


def _checks(family_argv, verify_argv, tmp_path) -> list[dict]:
    """The records of `qfock verify --table T verify_argv`, T the table that
    `tests/hecke_families.py family_argv` writes; verify must exit 0."""
    table, out = tmp_path / "table.json", tmp_path / "report.json"
    assert write_table([*family_argv, str(table)]) == 0
    assert main(["verify", "--table", str(table), *verify_argv, "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert all(c["verdict"] == "pass" and c["gating"] for c in checks)
    return checks


@pytest.mark.parametrize("flavor", ["bosonic", "fermionic"])
@pytest.mark.parametrize("family", [["super-hecke", "1", "1"], ["super-hecke", "2", "1"],
                                    ["form", "3"]], ids=["gl-1|1", "gl-2|1", "form-3"])
def test_every_suite_passes(family, flavor, tmp_path):
    checks = _checks(family, ["--suite", "all", "--flavor", flavor], tmp_path)
    poincare = {c["check_id"] for c in checks if c["check_id"].startswith("poincare-")}
    assert poincare == (POINCARE if family[0] == "super-hecke" else set())


@pytest.mark.parametrize("suite", ["braiding", "poincare", "double"])
def test_four_dimensional_form_braiding(suite, tmp_path):
    checks = _checks(["form", "4"], ["--suite", suite], tmp_path)
    assert not [c for c in checks if c["check_id"].startswith("poincare-")]
