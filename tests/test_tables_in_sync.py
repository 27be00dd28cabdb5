import json

import pytest

from qfock.braidings import (
    braiding_to_table,
    builtin_table_path,
    make_bmw,
    make_standard_hecke,
)


@pytest.mark.parametrize("make,builtin", [
    (lambda: make_standard_hecke(2), "std-hecke-2"),
    (lambda: make_standard_hecke(3), "std-hecke-3"),
    (lambda: make_bmw(3, "orthogonal"), "bmw-orth-3"),
    (lambda: make_bmw(2, "symplectic"), "bmw-sympl-2"),
], ids=["std-hecke-2", "std-hecke-3", "bmw-orth-3", "bmw-sympl-2"])
def test_tables_match_constructor(make, builtin):
    with open(builtin_table_path(builtin), encoding="utf-8") as fh:
        shipped = json.load(fh)
    assert braiding_to_table(make()) == shipped
