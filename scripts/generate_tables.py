#!/usr/bin/env python3
"""Regenerate the braiding tables shipped in src/qfock/tables/.

Every table comes straight from a library constructor (make_standard_hecke,
make_bmw) and is reloaded through the full load suite after it is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qfock.braidings import (  # noqa: E402
    Braiding,
    braiding_to_table,
    load_braiding_table,
    make_bmw,
    make_standard_hecke,
)

TABLE_DIR = Path(__file__).resolve().parent.parent / "src" / "qfock" / "tables"


def write_table(b: Braiding, filename: str):
    doc = braiding_to_table(b)
    path = TABLE_DIR / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    reloaded = load_braiding_table(path)
    assert reloaded.R == b.R, f"round trip failed for {filename}"
    assert reloaded.skew.strict, f"{filename} is not strictly skew-invertible"
    print(f"wrote {path.name}: N={b.N} kind={b.kind} series={b.series} "
          f"alpha={reloaded.alpha}")


def main():
    write_table(make_standard_hecke(2), "hecke_n2.json")
    write_table(make_standard_hecke(3), "hecke_n3.json")
    write_table(make_bmw(3, "orthogonal"), "bmw_orthogonal_n3.json")
    write_table(make_bmw(2, "symplectic"), "bmw_symplectic_n2.json")


if __name__ == "__main__":
    main()
