import json
import time

import pytest

from qfock import braidings, cli
from qfock.braidings import (
    Braiding,
    braiding_to_table,
    load_braiding_table,
    load_builtin,
    make_bmw,
    make_flip,
    make_standard_hecke,
    projector_decomposition_ok,
)
from qfock.cli import _deforms_flip, main
from qfock.errors import NonGenericPoint
from qfock.tensorops import LinOperator
from qfock.scalars import Q, ONE, ZERO, Scalar


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

    @pytest.mark.parametrize("make", [lambda: make_standard_hecke(2),
                                      lambda: make_flip(2)],
                             ids=["std-hecke-2", "flip-2"])
    def test_corrupted_table_fails_the_current_certificates(
            self, tmp_path, monkeypatch, make):
        """One R entry bumped by ONE.  The table loader rejects the copy
        on its own braid and minimal-polynomial checks; with those turned
        off, the spectral certificates and both relation checks that rest
        on them fail."""
        doc = braiding_to_table(make())
        for ent in doc["entries"]:
            if (ent["i"], ent["j"], ent["k"], ent["l"]) == (1, 2, 2, 1):
                ent["value"] = (Scalar.from_pairs(ent["value"]) + ONE).to_pairs()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rep.json"
        argv = ["verify", "--table", str(path), "--suite", "currents",
                "--out", str(out)]

        def verdicts():
            return {c["check_id"]: c["verdict"]
                    for c in json.loads(out.read_text())["checks"]}

        assert run(argv) == 1
        assert verdicts() == {"load-braiding": "fail"}
        monkeypatch.setattr(Braiding, "validate", lambda self: [])
        assert run(argv) == 1
        got = verdicts()
        assert got["load-braiding"] == "pass"
        for check in ("spectral-braid-grid", "spectral-unitarity-grid",
                      "current-relations-b-side", "current-relations-a-side"):
            assert got[check] == "fail"

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

    @pytest.mark.parametrize("command", ["verify", "repr"])
    @pytest.mark.parametrize("braiding, n, fixed, other", [
        ("bmw-orth", "3", "bosonic", "fermionic"),
        ("bmw-sympl", "2", "fermionic", "bosonic"),
    ])
    def test_bmw_series_fixes_the_flavor(self, command, braiding, n, fixed,
                                         other, capsys):
        argv = [command, "--braiding", braiding, "--n", n]
        if command == "verify":
            argv += ["--suite", "double"]
        for flavor in ([], ["--flavor", fixed]):
            assert run(argv + flavor) == 0
            out = capsys.readouterr().out
            if command == "verify":
                assert f", {fixed})" in out
            else:
                assert json.loads(out)["flavor"] == fixed
        assert run(argv + ["--flavor", other]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "InvalidArgument" in captured.err and other in captured.err

    @pytest.mark.parametrize("command", ["verify", "repr", "export", "poincare"])
    @pytest.mark.parametrize("braiding, n", [("bmw-sympl", "3"), ("bmw-orth", "1")])
    def test_inadmissible_bmw_size_is_bad_input(self, command, braiding, n, capsys):
        assert run([command, "--braiding", braiding, "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"N = {n}" in captured.err

    @pytest.mark.parametrize("base, corrupt, named", [
        ("hecke", lambda d: d["entries"][0].pop("i"), "malformed entry"),
        ("hecke", lambda d: d["entries"][0].update(i="x"), "malformed entry"),
        ("hecke", lambda d: d["entries"][0].update(value=5), "value of entry"),
        ("bmw", lambda d: d.update(mu=5), "mu is not"),
        ("hecke", lambda d: d.update(entries=5), "entries must be a list"),
        ("hecke", lambda d: d.update(entries=[5]), "malformed entry 5"),
        ("hecke", lambda d: d.update(N=0), "N must be"),
        ("hecke", lambda d: d.update(N=-1), "N must be"),
        ("hecke", lambda d: d.update(N="two"), "N must be"),
    ], ids=["entry-without-i", "index-not-an-integer", "value-not-pairs",
            "mu-not-pairs", "entries-not-a-list", "entry-not-a-dict", "n-zero",
            "n-negative", "n-not-an-integer"])
    def test_malformed_table_is_one_failed_load(self, base, corrupt, named,
                                                tmp_path, capsys):
        doc = braiding_to_table(make_standard_hecke(2) if base == "hecke"
                                else make_bmw(2, "symplectic"))
        corrupt(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rep.json"
        assert run(["verify", "--table", str(path), "--suite", "braiding",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().out.startswith("[FAIL] load-braiding")
        [check] = json.loads(out.read_text())["checks"]
        assert check["check_id"] == "load-braiding"
        assert check["verdict"] == "fail" and named in check["witness"]

    def test_evaluation_cross_check_fails_on_a_corrupted_table(
            self, tmp_path, monkeypatch, capsys):
        """One R entry bumped by ONE, with the loader's own braid and
        minimal-polynomial checks turned off: the check at q = 3/2 fails."""
        doc = braiding_to_table(make_standard_hecke(2))
        for ent in doc["entries"]:
            if (ent["i"], ent["j"], ent["k"], ent["l"]) == (1, 2, 2, 1):
                ent["value"] = (Scalar.from_pairs(ent["value"]) + ONE).to_pairs()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(Braiding, "validate", lambda self: [])
        assert run(["verify", "--table", str(path), "--suite", "braiding",
                    "--q", "3/2"]) == 1
        assert "[FAIL] evaluation-cross-check" in capsys.readouterr().out

    def test_evaluation_at_a_pole_is_bad_input(self, capsys):
        assert run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", "braiding", "--q", "0"]) == 2
        assert "NonGenericPoint" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["verify", "export"])
    @pytest.mark.parametrize("mn", ["1", "a,b", "-1,3", "2,-1", "0,0", "1,1,1"])
    def test_malformed_superflip_split_is_bad_input(self, command, mn, capsys):
        assert run([command, "--braiding", "superflip", f"--mn={mn}"]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "InvalidArgument" in captured.err
        assert "--mn" in captured.err and "m,n" in captured.err
        assert "Traceback" not in captured.err

    def test_lie_size_limit(self, capsys):
        t0 = time.perf_counter()
        code = run(["verify", "--braiding", "std-hecke", "--n", "7",
                    "--suite", "lie"])
        assert code == 2
        assert time.perf_counter() - t0 < 20
        err = capsys.readouterr().err
        assert "SizeLimitExceeded" in err and "N = 7" in err and "N <= 6" in err


def bump_projector(b, key="q"):
    """ONE added to the first nonzero entry of b's memoized projector."""
    pr = b.spectral_projectors
    op = pr[key]
    r = min(op.rows)
    c = min(op.rows[r])
    pr[key] = op + LinOperator.from_terms([(r, c, ONE)], op.dim, op.legs,
                                          op.labels, op.labels_out)


class TestDualPairingsMutation:
    def _bump_left(self, monkeypatch):
        """One left-pairing entry, <x^1, x_1>_l, off by one: the V* (x) V
        extension gains ONE at out (x_1, x^1), in (x^1, x_1)."""
        real = braidings._vstar_v

        def bumped(b):
            op = real(b)
            return op + LinOperator.from_terms([(0, 0, ONE)], op.dim, op.legs,
                                               op.labels, op.labels_out)

        monkeypatch.setattr(braidings, "_vstar_v", bumped)

    def _bump_tilde(self, monkeypatch):
        """The left pairing intact and one tilde-pairing entry off by one."""
        real = cli.dual_pairings

        def bumped(b):
            dp = real(b)
            dp.tilde_right[0] = {**dp.tilde_right[0], 1: ONE}
            return dp

        monkeypatch.setattr(cli, "dual_pairings", bumped)

    def _bump_inverse(self, monkeypatch):
        """Every inverse that braidings computes off by ONE at (0, 1): the
        tilde pairing and skew.B_inv then agree, but neither inverts B."""
        real = braidings.mat_inv

        def bumped(a):
            x = real(a)
            x[0] = {**x[0], 1: x[0].get(1, ZERO) + ONE}
            return x

        monkeypatch.setattr(braidings, "mat_inv", bumped)

    @pytest.mark.parametrize("corrupt", ["_bump_left", "_bump_tilde", "_bump_inverse"])
    def test_corrupted_pairing_fails(self, corrupt, monkeypatch, capsys):
        getattr(self, corrupt)(monkeypatch)
        assert run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", "braiding"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] dual-pairings" in out
        assert out.count("[FAIL]") == 1


class TestProjectorMutation:
    @pytest.mark.parametrize("make, argv", [
        (lambda: make_standard_hecke(2), ["--braiding", "std-hecke", "--n", "2"]),
        (lambda: load_builtin("bmw-orth-3"), ["--braiding", "bmw-orth", "--n", "3"]),
    ], ids=["std-hecke-2", "bmw-orth-3"])
    def test_bumped_projector_fails_decomposition(self, make, argv, monkeypatch, capsys):
        b = make()
        assert projector_decomposition_ok(b)
        bump_projector(b)
        assert not projector_decomposition_ok(b)

        real = cli._resolve_braiding

        def bumped(cfg):
            out = real(cfg)
            bump_projector(out)
            return out

        monkeypatch.setattr(cli, "_resolve_braiding", bumped)
        assert run(["verify", *argv, "--suite", "braiding"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] projector-decomposition" in out
        assert out.count("[FAIL]") == 1


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

    def test_pole_at_one_turns_the_gate_off(self, monkeypatch):
        def pole(self, q0):
            raise NonGenericPoint(f"q0 = {q0} is a root of the denominator")

        monkeypatch.setattr(Scalar, "evaluate", pole)
        assert _deforms_flip(make_standard_hecke(2)) is False

    def test_other_evaluation_errors_propagate(self, monkeypatch):
        def broken(self, q0):
            raise RuntimeError("evaluation bug")

        monkeypatch.setattr(Scalar, "evaluate", broken)
        with pytest.raises(RuntimeError, match="evaluation bug"):
            _deforms_flip(make_standard_hecke(2))


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
                        want = b.B[k].get(j, ZERO) if r == i else None
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
