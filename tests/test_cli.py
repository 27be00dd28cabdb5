import json
import time

import pytest

from qfock.braidings import braiding_to_table, load_braiding_table, make_standard_hecke
from qfock.cli import main
from qfock.scalars import Q, ONE


def run(argv):
    return main(argv)


class TestVerify:
    def test_flip_lie_suite_passes(self, capsys):
        assert run(["verify", "--braiding", "flip", "--n", "3",
                    "--suite", "lie"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] jacobi" in out

    def test_std_hecke_braiding_suite(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", "braiding", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["exit_status"] == 0
        ids = [c["check_id"] for c in doc["checks"]]
        assert "braid-relation" in ids and "dual-pairings" in ids
        assert all(c["verdict"] in ("pass", "report-only") for c in doc["checks"])

    def test_corrupted_table_rejected(self, tmp_path):
        doc = braiding_to_table(make_standard_hecke(2))
        for ent in doc["entries"]:
            if (ent["i"], ent["j"], ent["k"], ent["l"]) == (1, 2, 2, 1):
                ent["value"] = (Q + Q).to_pairs()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rep.json"
        code = run(["verify", "--table", str(path), "--out", str(out)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["exit_status"] == 1
        assert rep["checks"][0]["verdict"] == "fail"

    def test_report_deterministic_modulo_timing(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(["verify", "--braiding", "flip", "--n", "2",
                 "--suite", "braiding", "--out", str(out)])
            doc = json.loads(out.read_text())
            for c in doc["checks"]:
                c.pop("seconds")
            doc["config"].pop("out")   # the output path is the only delta
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_evaluation_cross_check(self, capsys):
        assert run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", "braiding", "--q", "3/2"]) == 0
        assert "evaluation-cross-check" in capsys.readouterr().out

    def test_bmw_symplectic_all(self):
        assert run(["verify", "--braiding", "bmw-sympl", "--n", "2",
                    "--suite", "double"]) == 0

    def test_fermionic_flavor_flag(self, capsys):
        assert run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", "double", "--flavor", "fermionic"]) == 0
        out = capsys.readouterr().out
        assert "double (hecke, fermionic)" in out

    def test_missing_builtin_table_size(self, capsys):
        assert run(["verify", "--braiding", "bmw-orth", "--n", "2",
                    "--suite", "braiding"]) in (1, 2)

    def test_nonexistent_table_file(self):
        assert run(["verify", "--table", "/no/such/table.json",
                    "--suite", "braiding"]) in (1, 2)

    def test_negative_kmax_rejected(self, capsys):
        code = run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", "poincare", "--kmax", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "InvalidArgument" in captured.err and "-1" in captured.err

    @pytest.mark.parametrize("flag", ["--window", "--degree"])
    def test_negative_window_or_degree_rejected(self, capsys, flag):
        code = run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", "currents", flag, "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "InvalidArgument" in captured.err and flag in captured.err

    def test_lie_size_limit(self, capsys):
        t0 = time.perf_counter()
        code = run(["verify", "--braiding", "std-hecke", "--n", "7",
                    "--suite", "lie"])
        assert code == 2
        assert time.perf_counter() - t0 < 20
        err = capsys.readouterr().err
        assert "SizeLimitExceeded" in err and "N = 7" in err and "N <= 6" in err


class TestPoincare:
    def test_negative_kmax_rejected(self, capsys):
        code = run(["poincare", "--braiding", "flip", "--n", "2",
                    "--kmax", "-2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "InvalidArgument" in captured.err and "-2" in captured.err

    def test_flip_table(self, capsys):
        assert run(["poincare", "--braiding", "flip", "--n", "2",
                    "--kmax", "3"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["sym(V)"]["dims"] == [1, 2, 3, 4]
        assert table["sym(V)"]["comparison"] == "gating"

    def test_bmw_report_only(self, capsys):
        assert run(["poincare", "--braiding", "bmw-orth", "--n", "3",
                    "--kmax", "3"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["sym(V)"]["comparison"] == "report-only"


class TestReprExport:
    def test_repr_k1_matches_contraction(self, capsys):
        assert run(["repr", "--braiding", "std-hecke", "--n", "2",
                    "--degree", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["identity_holds"]
        b = make_standard_hecke(2)
        for i in range(2):
            for j in range(2):
                mat = doc["matrices"][f"l[{i+1}][{j+1}]"]["entries"]
                for r in range(2):
                    for k in range(2):
                        want = b.B[k][j] if r == i else None
                        got = mat[r][k]
                        if want is None or want.is_zero():
                            assert got["num"] == []
                        else:
                            assert got == want.to_pairs()

    def test_export_roundtrips_through_load(self, tmp_path, capsys):
        out = tmp_path / "export.json"
        assert run(["export", "--braiding", "bmw-orth", "--n", "3",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        again = load_braiding_table(doc["table"])
        assert again.N == 3 and again.kind == "bmw"
        assert doc["alpha"] is not None

    def test_unknown_braiding_errors(self, capsys):
        code = run(["verify", "--braiding", "flip", "--n", "0", "--suite",
                    "braiding"])
        assert code in (1, 2)
