import ast
import contextlib
import copy
import io
import json
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import braidings, cli, fockdouble, quadalgebras
from qfock.braidings import (
    LAMBDA,
    SYM,
    Braiding,
    braiding_to_table,
    builtin_table_path,
    load_braiding_table,
    load_builtin,
    make_bmw,
    make_flip,
    make_standard_hecke,
    make_superflip,
    projector_decomposition_ok,
    specialize,
    superflip_limit,
)
from qfock.cli import main
from qfock.errors import NonGenericPoint, QfockError
from qfock.tensorops import LinOperator
from qfock.scalars import Q, ONE, ZERO, Scalar

from hecke_families import super_hecke


def run(argv):
    return main(argv)


def count_operator_builds(monkeypatch) -> list:
    """A list that gains an entry at each LinOperator.from_terms call, the
    way every braiding's operator is built."""
    built, real = [], LinOperator.from_terms

    def counted(*args, **kwargs):
        built.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(LinOperator, "from_terms", staticmethod(counted))
    return built


def _corrupted_json(b: Braiding, corrupt) -> str:
    doc = braiding_to_table(b)
    corrupt(doc)
    return json.dumps(doc)


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

    @pytest.mark.parametrize("make, braid_failures", [
        (lambda: make_standard_hecke(2), [(0, 1, 2), (0, 2, 1), (1, 0, 2)]),
        (lambda: make_flip(2), [(0, 1, 1), (0, 2, 0), (1, 0, 1)]),
    ], ids=["std-hecke-2", "flip-2"])
    def test_corrupted_table_fails_the_current_certificates(
            self, tmp_path, monkeypatch, make, braid_failures):
        """One R entry bumped by ONE.  The table loader rejects the copy
        on its own braid and minimal-polynomial checks; with those turned
        off, both spectral certificates and the relation check on the dual
        square fail, and their witnesses name the first failing monomials
        (those of test_braidings' test_one_corrupted_entry_fails_both)."""
        doc = braiding_to_table(make())
        for ent in doc["entries"]:
            if (ent["i"], ent["j"], ent["k"], ent["l"]) == (1, 2, 2, 1):
                ent["value"] = (Scalar.from_pairs(ent["value"]) + ONE).to_pairs()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rep.json"
        argv = ["verify", "--table", str(path), "--suite", "currents",
                "--out", str(out)]

        def records():
            return {c["check_id"]: (c["verdict"], c["witness"])
                    for c in json.loads(out.read_text())["checks"]}

        assert run(argv) == 1
        assert {cid: v for cid, (v, _) in records().items()} == {"load-braiding": "fail"}
        monkeypatch.setattr(Braiding, "validate", lambda self: [])
        assert run(argv) == 1
        got = records()
        assert {cid for cid, (v, _) in got.items() if v == "fail"} == {
            "spectral-braid-certificate", "spectral-unitarity-certificate",
            "current-relations-a-side"}
        assert got["spectral-braid-certificate"] == ("fail", str(braid_failures))
        assert got["spectral-unitarity-certificate"] == (
            "fail", str([(0, 2, 0), (1, 1, 0), (2, 0, 0)]))
        assert got["current-relations-a-side"] == (
            "fail", str([("braid", m) for m in braid_failures]))

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

    def test_records_time_themselves(self, tmp_path, monkeypatch):
        """A record's seconds run from the previous record, or from the
        making of the report for the first one: with a clock that advances
        one second per reading, every record of a verify run, load-braiding
        included, shows one second."""
        ticks = iter(range(1000))
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        out = tmp_path / "rep.json"
        assert run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", "braiding", "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert checks[0]["check_id"] == "load-braiding"
        assert {c["seconds"] for c in checks} == {1.0}

    @pytest.mark.parametrize("suite, slowed, before", [
        ("lie", "jacobi", "rhat-reconstruction"),
        ("lie", "rhat-defining", "rtrace-brackets"),
        ("double", "diamond-degree-3", "compatibility-ideals"),
    ])
    def test_streamed_records_time_their_own_check(self, suite, slowed, before,
                                                   tmp_path, monkeypatch):
        """verify_lie and verify_compatibility yield each record as its
        check finishes: 0.2 s added to the Jacobi check, to the building of
        the L-identity sides or to the diamond evaluation lands on its own
        record and not on the one before."""
        # the fockdouble call inside the slowed check, and which of its calls
        # belong to that check
        name, when = {
            "jacobi": ("_jacobi_holds", lambda bl: True),
            "rhat-defining": ("l_identity_sides", lambda R, O: True),
            "diamond-degree-3": ("nonzero_sums", lambda groups, value_of: any(
                key[0] == "diamond" for key in groups)),
        }[slowed]
        real = getattr(fockdouble, name)

        def slow(*args):
            if when(*args):
                time.sleep(0.2)
            return real(*args)

        monkeypatch.setattr(fockdouble, name, slow)
        out = tmp_path / "rep.json"
        assert run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", suite, "--out", str(out)]) == 0
        seconds = {c["check_id"]: c["seconds"]
                   for c in json.loads(out.read_text())["checks"]}
        assert seconds[slowed] >= 0.2
        assert seconds[before] < 0.2

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
                    "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("[FAIL] load-braiding")
        [check] = json.loads(out.read_text())["checks"]
        assert check["check_id"] == "load-braiding"
        assert check["verdict"] == "fail" and named in check["witness"]

    def test_oversized_table_is_bad_input(self, tmp_path, capsys):
        """A table with N above TABLE_MAX_N is refused before anything of
        size N^2 is built; at the bound an empty table loads and fails its
        minimal polynomial."""
        path = tmp_path / "table.json"
        t0 = time.perf_counter()
        for n, code in ((100000, 2), (braidings.TABLE_MAX_N + 1, 2),
                        (braidings.TABLE_MAX_N, 1)):
            path.write_text(json.dumps({"format_version": 1, "N": n,
                                        "kind": "hecke", "entries": []}))
            assert run(["verify", "--table", str(path), "--suite", "braiding"]) == code
            err = capsys.readouterr().err
            assert ("error: MalformedTable:" in err
                    and f"N = {n} is above TABLE_MAX_N" in err) == (code == 2)
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("text, named", [
        (None, "cannot read"),
        (lambda: "not json {", "not valid JSON"),
        (lambda: "[1, 2]", "JSON object"),
        (lambda: _corrupted_json(make_standard_hecke(2), lambda d: d["entries"][0].update(
            value={"num": [[0, 1]], "den": [[0, 0]]})), "zero denominator"),
        (lambda: _corrupted_json(make_bmw(2, "symplectic"), lambda d: d.pop("mu")),
         "must declare mu"),
        (lambda: _corrupted_json(make_standard_hecke(2), lambda d: d.update(
            format_version=True)), "unsupported format_version True"),
        (lambda: _corrupted_json(make_standard_hecke(2), lambda d: d.update(
            format_version=1.0)), "unsupported format_version 1.0"),
        (lambda: _corrupted_json(make_standard_hecke(2), lambda d: d.update(
            name={"std": "hecke"})), "name must be a string"),
    ], ids=["missing-file", "not-json", "not-an-object", "zero-denominator",
            "bmw-without-mu", "version-true", "version-float", "name-dict"])
    def test_table_document_error_is_bad_input(self, text, named, tmp_path, capsys):
        path, out = tmp_path / "table.json", tmp_path / "rep.json"
        if text is not None:
            path.write_text(text())
        assert run(["verify", "--table", str(path), "--suite", "braiding",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedTable:") and named in err
        assert json.loads(out.read_text())["exit_status"] == 2

    @pytest.mark.parametrize("series", [[], {}], ids=["list", "dict"])
    @pytest.mark.parametrize("base", ["bmw-sympl-2", "std-hecke-2"])
    def test_series_not_a_string_is_bad_input(self, base, series, tmp_path, capsys):
        """A series that is neither null nor a string is a malformed table,
        for a BMW table and for one that reads no series."""
        doc = json.loads(builtin_table_path(base).read_text())
        doc["series"] = series
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", "--table", str(path), "--suite", "braiding"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedTable:") and "series must be a string" in err

    def test_each_compatibility_record_shows_its_own_witnesses(
            self, tmp_path, monkeypatch):
        """One exchange coefficient of the std-hecke N = 2 double bumped:
        all three compatibility records fail, each naming its own words."""
        real = cli.make_double

        def bumped(b, flavor):
            d = real(b, flavor)
            (i, j, c), *rest = d.exchange[(0, 1)]
            d.exchange[(0, 1)] = [(i, j, c + ONE), *rest]
            return d

        monkeypatch.setattr(cli, "make_double", bumped)
        out = tmp_path / "rep.json"
        assert run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", "double", "--out", str(out)]) == 1
        checks = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
        for check_id, labels in (("compatibility-closed-identity", {"closed"}),
                                 ("compatibility-ideals", {"a-ideal", "b-ideal"}),
                                 ("diamond-degree-3", {"diamond"})):
            check = checks[check_id]
            assert check["verdict"] == "fail"
            named = {w[0] for w in ast.literal_eval(check["witness"])}
            assert named and named <= labels, (check_id, named)

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

    @pytest.mark.parametrize("braiding, n, q, roots", [
        ("bmw-orth", "3", "1", "q = mu = 1"),
        ("bmw-orth", "3", "-1", "-1/q = mu = 1"),
        ("bmw-orth", "4", "-1", "q = mu = -1"),
        ("bmw-sympl", "2", "1", "-1/q = mu = -1"),
    ], ids=["orth-3-at-1", "orth-3-at-minus-1", "orth-4-at-minus-1", "sympl-2-at-1"])
    def test_evaluation_at_a_repeated_root_is_bad_input(self, braiding, n, q, roots, capsys):
        """A q0 where two roots of the minimal polynomial coincide is no
        generic point, as the same braiding written as a table at q0 is
        refused at load."""
        assert run(["verify", "--braiding", braiding, "--n", n,
                    "--suite", "braiding", "--q", q]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: NonGenericPoint: --q {q}: repeated root {roots} ")

    def test_hecke_at_q_minus_one_is_generic(self, capsys):
        # the roots q = -1 and -1/q = 1 stay distinct
        assert run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", "braiding", "--q", "-1"]) == 0
        assert "[PASS] evaluation-cross-check" in capsys.readouterr().out

    # 9e9999 is a rational of 10,000 digits, past Python's int-to-text limit
    @pytest.mark.parametrize("q", ["1/0", "3/0", "abc", "9e9999"])
    @pytest.mark.parametrize("suite", ["braiding", "double", "lie", "poincare",
                                       "currents", "all"])
    def test_unparsable_q_is_bad_input(self, q, suite, capsys):
        assert run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", suite, "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidArgument: --q ")

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "double"], ["verify", "--suite", "lie"],
        ["verify", "--suite", "poincare"], ["verify", "--suite", "currents"],
        ["poincare"], ["repr"], ["export"],
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
    def test_q_without_the_braiding_suite_is_bad_input(self, argv, capsys):
        """Only the braiding suite reads --q, so a run without it refuses a
        --q other than generic rather than echo a q it never evaluated at."""
        assert run([*argv, "--braiding", "std-hecke", "--n", "2", "--q", "3/2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidArgument: --q 3/2 ")
        assert run([*argv, "--braiding", "std-hecke", "--n", "2", "--q", "generic"]) == 0

    def test_q_with_every_suite_runs_the_cross_check(self, capsys):
        assert run(["verify", "--braiding", "flip", "--n", "1", "--suite", "all",
                    "--q", "3/2"]) == 0
        assert "[PASS] evaluation-cross-check" in capsys.readouterr().out

    @given(st.text(alphabet="0123456789/-+. e", max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_any_short_q_exits_0_1_or_2(self, q):
        # --q=<text>, so that a text that looks like a flag reaches qfock
        assert run(["verify", "--braiding", "std-hecke", "--n", "2",
                    "--suite", "braiding", f"--q={q}"]) in (0, 1, 2)

    def test_currents_degree_0_is_degree_1(self, tmp_path):
        """The single-mode kets are checked at every degree, so degree 0
        reports what degree 1 does."""
        docs = []
        for degree in ("0", "1"):
            out = tmp_path / f"degree-{degree}.json"
            assert run(["verify", "--braiding", "std-hecke", "--n", "2",
                        "--suite", "currents", "--window", "1",
                        "--degree", degree, "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            del doc["config"]
            for check in doc["checks"]:
                del check["seconds"]
            docs.append(doc)
        assert docs[0] == docs[1]

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

    @pytest.mark.parametrize("option", ["braiding", "table", "n", "mn", "q", "flavor",
                                        "suite", "kmax", "window", "degree", "out"])
    def test_double_dash_value_is_bad_input(self, option, capsys):
        # argparse hands `--opt=--` over as an empty list
        assert run(["verify", "--braiding", "superflip", f"--{option}=--"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvalidArgument")
        assert f"--{option} " in captured.err

    @pytest.mark.parametrize("braiding, constructor, option, at, past", [
        ("flip", "make_flip", "n", "32", "33"),
        ("std-hecke", "make_standard_hecke", "n", "32", "33"),
        ("bmw-orth", "make_bmw", "n", "32", "33"),
        ("bmw-sympl", "make_bmw", "n", "32", "33"),
        ("superflip", "make_superflip", "mn", "31,1", "31,2"),
        ("superflip", "make_superflip", "mn", "0,32", "33,0"),
    ])
    def test_size_above_the_table_bound_is_refused_before_building(
            self, braiding, constructor, option, at, past, monkeypatch, capsys):
        """N = TABLE_MAX_N = 32 reaches the constructor, and N = 33 is
        refused before it runs."""
        calls = []
        monkeypatch.setattr(cli, constructor, lambda *args: calls.append(args))
        cfg = cli.RunConfig(braiding=braiding, **{option: at if option == "mn" else int(at)})
        cli._resolve_braiding(cfg)
        assert len(calls) == 1
        assert run(["verify", "--braiding", braiding, f"--{option}", past,
                    "--suite", "braiding"]) == 2
        assert len(calls) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SizeLimitExceeded")
        assert f"--{option} " in err and "TABLE_MAX_N = 32" in err

    @pytest.mark.parametrize("braiding, accepted, refused, needs", [
        ("flip", 1, 0, "flip needs N >= 1"),
        ("std-hecke", 2, 1, "std-hecke needs N >= 2"),
        ("bmw-orth", 2, 1, "bmw-orthogonal needs N >= 2"),
        ("bmw-sympl", 2, 1, "bmw-symplectic needs an even N >= 2"),
        ("bmw-sympl", 4, 3, "bmw-symplectic needs an even N >= 2"),
    ])
    def test_size_below_the_builtin_minimum_is_bad_input(
            self, braiding, accepted, refused, needs, monkeypatch, capsys):
        """An accepted N builds operators, and the first refused one (below
        the minimum, or odd for bmw-sympl) exits 2 before any operator is
        built, with the constructor's InvalidArgument prefixed by --n."""
        built = count_operator_builds(monkeypatch)
        cli._resolve_braiding(cli.RunConfig(braiding=braiding, n=accepted))
        assert built
        built.clear()
        assert run(["verify", "--braiding", braiding, "--n", str(refused),
                    "--suite", "braiding"]) == 2
        assert not built
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: InvalidArgument: --n gives N = {refused}, "
                                f"but {needs}\n")

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
    r = next(r for r, row in enumerate(op.rows) if row)
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


def _failing_gating_checks(argv, out) -> set[str]:
    assert run(["verify", *argv, "--out", str(out)]) == 1
    return {c["check_id"] for c in json.loads(out.read_text())["checks"]
            if c["gating"] and c["verdict"] == "fail"}


def _sheared(r: LinOperator) -> LinOperator:
    """A R A^{-1} with A = I + E_01 on V (x) V, which is not a g (x) g."""
    ident = LinOperator.identity(r.dim, r.legs, r.labels)
    e01 = LinOperator.from_terms([(0, 1, ONE)], r.dim, r.legs, r.labels, r.labels_out)
    return (ident + e01) @ r @ (ident - e01)


def _with_mu(b: Braiding, mu: LinOperator) -> Braiding:
    """A copy of the BMW braiding b whose mu idempotent is `mu`."""
    copy = Braiding(b.N, b.R, b.kind, series=b.series, q=b.q, name=b.name)
    copy.spectral_projectors = {**b.spectral_projectors, "mu": mu}
    return copy


class TestGatingRecordsCanFail:
    """Each gating braiding, double and Poincare record fails on a braiding
    or an algebra built to break its identity."""

    @pytest.mark.parametrize("corrupt, failing", [
        # the Hecke projectors are read off the minimal polynomial, so they
        # no longer reconstruct 2R either
        (lambda r: r.scale(Scalar.from_int(2)),
         {"minimal-polynomial", "projector-decomposition"}),
        (_sheared, {"braid-relation"}),
        (lambda r: LinOperator.identity(r.dim, r.legs, r.labels).scale(Q),
         {"skew-inverse"}),
    ], ids=["twice-r", "sheared-r", "q-identity"])
    def test_corrupted_braiding(self, corrupt, failing, tmp_path, monkeypatch):
        r = corrupt(make_standard_hecke(2).R)
        monkeypatch.setattr(cli, "_resolve_braiding",
                            lambda cfg: Braiding(2, r, braidings.HECKE, name="corrupted"))
        assert _failing_gating_checks(["--suite", "braiding"],
                                      tmp_path / "rep.json") == failing

    def test_singular_b_fails_strict_skew_invertibility(self, tmp_path, monkeypatch):
        real = cli._resolve_braiding

        def singular(cfg):
            b = real(cfg)
            b.skew.B_inv = None
            return b

        monkeypatch.setattr(cli, "_resolve_braiding", singular)
        assert _failing_gating_checks(
            ["--braiding", "std-hecke", "--n", "2", "--suite", "braiding"],
            tmp_path / "rep.json") == {"strict-skew-invertibility"}

    @pytest.mark.parametrize("braiding, n", [("bmw-orth", "3"), ("bmw-orth", "4"),
                                             ("bmw-sympl", "2"), ("bmw-sympl", "4")])
    def test_middle_idempotent_in_place_of_mu(self, braiding, n, tmp_path, monkeypatch):
        """The mu record handed a copy of the braiding whose mu idempotent
        is the series' middle one, the eigenspace that the kind keeping mu
        drops: that image is not one invariant line that survives in one
        quotient and dies in the other."""
        real = cli.mu_eigenspace_degree2_report

        def swapped(b):
            middle = {SYM: "-1/q", LAMBDA: "q"}[braidings.MU_KIND[b.series]]
            return real(_with_mu(b, b.spectral_projectors[middle]))

        monkeypatch.setattr(cli, "mu_eigenspace_degree2_report", swapped)
        assert _failing_gating_checks(
            ["--braiding", braiding, "--n", n, "--suite", "braiding"],
            tmp_path / "rep.json") == {"mu-eigenspace-degree2"}

    @pytest.mark.parametrize("braiding, n", [("bmw-orth", "3"), ("bmw-sympl", "4")])
    def test_wider_idempotent_in_place_of_mu(self, braiding, n, tmp_path, monkeypatch):
        """The mu record handed a copy of the braiding whose mu idempotent
        is P_mu plus the other idempotent that the kind keeping mu keeps
        (q for sym, -1/q for lambda): its image of rank 1 + 5 still survives
        in that quotient and dies in the other one, so only the rank fails.
        bmw-sympl 2 has no such copy: its -1/q eigenspace is zero."""
        real = cli.mu_eigenspace_degree2_report

        def widened(b):
            kept = {SYM: "q", LAMBDA: "-1/q"}[braidings.MU_KIND[b.series]]
            projectors = b.spectral_projectors
            return real(_with_mu(b, projectors["mu"] + projectors[kept]))

        monkeypatch.setattr(cli, "mu_eigenspace_degree2_report", widened)
        out = tmp_path / "rep.json"
        assert _failing_gating_checks(
            ["--braiding", braiding, "--n", n, "--suite", "braiding"],
            out) == {"mu-eigenspace-degree2"}
        [record] = [c for c in json.loads(out.read_text())["checks"]
                    if c["check_id"] == "mu-eigenspace-degree2"]
        assert record["witness"] == "[('mu-rank', 6)]"

    def test_dropped_left_dual_relation(self, tmp_path, monkeypatch):
        """One transported relation dropped from the left-dual side of the
        std-hecke N = 3 double: the variant rule no longer orders the
        relations to zero."""
        real = fockdouble.GradedQuotient

        def dropped(N, relations, name=""):
            if name == "left-dual side":
                relations = relations[:-1]
            return real(N, relations, name)

        monkeypatch.setattr(fockdouble, "GradedQuotient", dropped)
        out = tmp_path / "rep.json"
        assert _failing_gating_checks(
            ["--braiding", "std-hecke", "--n", "3", "--suite", "double"],
            out) == {"left-dual-variant"}
        [record] = [c for c in json.loads(out.read_text())["checks"]
                    if c["check_id"] == "left-dual-variant"]
        assert re.search(r"\('[bt]-ideal', ", record["witness"])

    def test_involutive_table_is_held_to_its_q(self, tmp_path, capsys):
        """An involutive R = flip with q = 2 solves R^2 = I but not
        (R - q)(R + 1/q) = 0, which every relation space reads; it is
        refused at load."""
        doc = braiding_to_table(make_flip(2))
        doc["q"] = Scalar.from_int(2).to_pairs()
        table = tmp_path / "flip-q2.json"
        table.write_text(json.dumps(doc))
        assert _failing_gating_checks(["--table", str(table), "--suite", "braiding"],
                                      tmp_path / "rep.json") == {"load-braiding"}
        assert "involutive minimal polynomial violated" in capsys.readouterr().out

    @pytest.mark.parametrize("n, series, repeated", [
        (3, "orthogonal", "q = mu = 1"), (2, "symplectic", "-1/q = mu = -1")])
    def test_repeated_root_table_is_refused(self, n, series, repeated, tmp_path):
        """A BMW table at q = 1 whose mu equals another root solves its
        minimal polynomial but has no spectral idempotents: it is refused
        at load, with one failing record that names the repeated root."""
        table = tmp_path / "table.json"
        table.write_text(json.dumps(braiding_to_table(specialize(make_bmw(n, series), 1))))
        out = tmp_path / "rep.json"
        assert run(["verify", "--table", str(table), "--suite", "braiding",
                    "--out", str(out)]) == 1
        [record] = json.loads(out.read_text())["checks"]
        assert (record["check_id"], record["verdict"]) == ("load-braiding", "fail")
        assert f"repeated root {repeated} " in record["witness"]

    def test_hecke_table_at_q_minus_one_passes(self, tmp_path):
        """At q = -1 the Hecke roots q and -1/q are -1 and 1, distinct."""
        table = tmp_path / "table.json"
        table.write_text(json.dumps(braiding_to_table(specialize(make_standard_hecke(2), -1))))
        assert run(["verify", "--table", str(table), "--suite", "all"]) == 0

    @pytest.mark.parametrize("target", [
        ["--braiding", "std-hecke", "--n", "2"],
        ["--braiding", "bmw-orth", "--n", "3"],
        ["--braiding", "bmw-sympl", "--n", "2"],
    ], ids=["std-hecke-2", "bmw-orth-3", "bmw-sympl-2"])
    def test_truncated_relations_fail_every_poincare_record(self, target, tmp_path, monkeypatch):
        real = quadalgebras._image_basis
        monkeypatch.setattr(quadalgebras, "_image_basis", lambda op: real(op)[:-1])
        argv = target + ["--suite", "poincare"]
        assert _failing_gating_checks(argv, tmp_path / "rep.json") == {
            f"poincare-{kind}-{space}" for kind in ("sym", "lambda") for space in ("V", "V*")}

    @pytest.mark.parametrize("make", [lambda: make_standard_hecke(3),
                                      lambda: make_superflip(2, 1),
                                      lambda: super_hecke(2, 1)],
                             ids=["std-hecke-3", "superflip-2|1", "super-hecke-2|1"])
    def test_one_dropped_sym_relation_fails_poincare_sym_v(self, make, tmp_path, monkeypatch):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(braiding_to_table(make())))
        real = cli.make_algebra

        def dropped(b, kind, space):
            alg = real(b, kind, space)
            if (kind, space) == ("sym", "V"):
                alg.relations = alg.relations[1:]
            return alg

        monkeypatch.setattr(cli, "make_algebra", dropped)
        argv = ["--table", str(table), "--suite", "poincare"]
        assert _failing_gating_checks(argv, tmp_path / "rep.json") == {"poincare-sym-V"}

    @pytest.mark.parametrize("degree", ["1", "2"])
    def test_bumped_pairing_constant_fails_the_spectral_identity(
            self, degree, tmp_path, monkeypatch, capsys):
        """The pairing constant of the current double bumped: the strict
        degree <= 1 comparison fails and gates at every --degree."""
        real = cli.make_current_double

        def bumped(cb, window):
            cd = real(cb, window)
            cd.constant[(0, 0)] = cd.constant[(0, 0)] + ONE
            return cd

        monkeypatch.setattr(cli, "make_current_double", bumped)
        out = tmp_path / "rep.json"
        assert run(["verify", "--braiding", "std-hecke", "--n", "2", "--suite", "currents",
                    "--window", "1", "--degree", degree, "--out", str(out)]) == 1
        assert "[FAIL] spectral-l-identity" in capsys.readouterr().out
        [record] = [c for c in json.loads(out.read_text())["checks"]
                    if c["check_id"] == "spectral-l-identity"]
        # the witness leads with the element count that harnesses parse
        assert record["gating"] and re.match(r"\d+ elements", record["witness"])
        assert record["witness"].endswith("residual classes") == (degree == "2")

    def test_corrupted_twist_names_its_cells(self, tmp_path, monkeypatch):
        """ONE added to the first nonzero entry of the std-hecke N = 2 twist:
        the defining property and the Jacobi identity fail, each record
        names its witnesses, and the passing records name none."""
        real = cli.braided_lie

        def bumped(b):
            bl = copy.copy(real(b))
            bl.rhat = [dict(col) for col in bl.rhat]
            col = next(col for col in bl.rhat if col)
            r = min(col)
            col[r] = col[r] + ONE
            return bl

        monkeypatch.setattr(cli, "braided_lie", bumped)
        out = tmp_path / "rep.json"
        assert _failing_gating_checks(
            ["--braiding", "std-hecke", "--n", "2", "--suite", "lie"],
            out) == {"rhat-defining", "jacobi"}
        witness = {c["check_id"]: c["witness"]
                   for c in json.loads(out.read_text())["checks"]}
        cells = re.findall(r"\('defining', (\d+), (\d+)\)", witness["rhat-defining"])
        assert 1 <= len(cells) <= 3
        assert all(int(x) < 4 and int(y) < 4 for x, y in cells)
        assert witness["jacobi"] == "[('jacobi-hecke',)]"
        for passing in ("rhat-reconstruction", "rtrace-generators",
                        "rtrace-brackets", "bracket-quadratic-consistency"):
            assert witness[passing] is None

    @pytest.mark.parametrize("braiding, n", [("std-hecke", 2), ("std-hecke", 3),
                                             ("flip", 2)])
    def test_bumped_mixed_extension_fails_the_twist(self, braiding, n, tmp_path,
                                                     monkeypatch):
        """ONE added at (0, 0) of the extension of R to V* (x) V that the
        twist is built from: the twist no longer satisfies its defining
        property, and the bracket built on it fails its trace, Jacobi and
        consistency records, while the R-trace of the generators, which
        does not read the twist, still passes."""
        real = fockdouble._vstar_v

        def bumped(b):
            op = real(b)
            return op + LinOperator.from_terms([(0, 0, ONE)], op.dim, op.legs,
                                               op.labels, op.labels_out)

        monkeypatch.setattr(fockdouble, "_vstar_v", bumped)
        out = tmp_path / "rep.json"
        assert _failing_gating_checks(
            ["--braiding", braiding, "--n", str(n), "--suite", "lie"], out) == {
                "rhat-defining", "rtrace-brackets", "jacobi",
                "bracket-quadratic-consistency"}
        verdicts = {c["check_id"]: c["verdict"]
                    for c in json.loads(out.read_text())["checks"]}
        assert verdicts["rhat-reconstruction"] == verdicts["rtrace-generators"] == "pass"

    @pytest.mark.parametrize("braiding", ["std-hecke", "flip"])
    @pytest.mark.parametrize("field, failing", [
        ("bracket", {"rtrace-brackets", "jacobi", "bracket-quadratic-consistency"}),
        ("rhat", {"rhat-defining", "jacobi"}),
        ("rtrace", {"rtrace-generators", "rtrace-brackets"}),
        ("alpha", {"rtrace-generators"}),
    ])
    def test_each_lie_record_shows_its_own_witnesses(
            self, braiding, field, failing, tmp_path, monkeypatch):
        """ONE added to one Lie input at N = 2 (the nonzero entry of the
        bracket or the twist in the first row that has one, rtrace[1] or
        alpha): the records it breaks fail, and each failing record's
        witnesses carry its own label."""
        real = cli.braided_lie

        def bumped(b):
            bl = copy.copy(real(b))
            if field == "alpha":
                bl.alpha = bl.alpha + ONE
            elif field == "rtrace":
                bl.rtrace = list(bl.rtrace)
                bl.rtrace[1] = bl.rtrace[1] + ONE
            else:
                cols = [dict(col) for col in getattr(bl, field)]
                r, c = min((r, c) for c, col in enumerate(cols) for r in col)
                cols[c][r] = cols[c][r] + ONE
                setattr(bl, field, cols)
            return bl

        monkeypatch.setattr(cli, "braided_lie", bumped)
        out = tmp_path / "rep.json"
        assert _failing_gating_checks(
            ["--braiding", braiding, "--n", "2", "--suite", "lie"], out) == failing
        labels = {"rhat-defining": "defining", "rtrace-generators": "trace-gen",
                  "rtrace-brackets": "trace-bracket", "jacobi": "jacobi-hecke",
                  "bracket-quadratic-consistency": "quadratic"}
        for c in json.loads(out.read_text())["checks"]:
            if c["check_id"] in failing:
                named = {w[0] for w in ast.literal_eval(c["witness"])}
                assert named == {labels[c["check_id"]]}, c


def _mutation():
    """One change to a table document, as a function that makes it in
    place: a dropped or retyped field, a bool or out-of-range N, an index
    out of range, an exponent above 256, a zero q, a dropped or junk entry."""
    junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.sampled_from([10 ** 30, 2.5, float("nan"), "", "x", [], {}]),
                     st.lists(st.integers(-2, 2), max_size=3),
                     st.dictionaries(st.sampled_from(["num", "den", "i"]),
                                     st.integers(-2, 2), max_size=2))
    fields = st.sampled_from(["format_version", "N", "kind", "series", "mu",
                              "q", "name", "entries"])
    entry_fields = st.sampled_from(["i", "j", "k", "l", "value"])

    def entry(doc, at):
        entries = doc.get("entries")
        if isinstance(entries, list) and entries and isinstance(entries[at % len(entries)], dict):
            return entries[at % len(entries)]
        return {}

    def drop(key):
        return lambda doc: doc.pop(key, None)

    # each change puts in a copy of its value: a junk [] or {} is one object
    # across examples, and a document that held it twice could hold itself
    def retype(key, value):
        return lambda doc: doc.__setitem__(key, copy.deepcopy(value))

    def index(at, key, value):
        return lambda doc: entry(doc, at).__setitem__(key, copy.deepcopy(value))

    def drop_entry_field(at, key):
        return lambda doc: entry(doc, at).pop(key, None)

    def exponent(at, e):
        def change(doc):
            ent = entry(doc, at)
            if isinstance(ent.get("value"), dict) and ent["value"].get("num"):
                ent["value"]["num"][0] = [e, 1]
        return change

    def drop_entry(at):
        def change(doc):
            entries = doc.get("entries")
            if isinstance(entries, list) and entries:
                del entries[at % len(entries)]
        return change

    def append_junk(value):
        def change(doc):
            if isinstance(doc.get("entries"), list):
                doc["entries"].append(copy.deepcopy(value))
        return change

    at = st.integers(0, 40)
    return st.one_of(
        st.builds(drop, fields),
        st.builds(retype, fields, junk),
        st.builds(retype, st.just("N"),
                  st.sampled_from([True, False, 0, -1, 1, 3, 33, 10 ** 9, 2.0, "2"])),
        st.builds(index, at, st.sampled_from(["i", "j", "k", "l"]),
                  st.sampled_from([0, -1, 3, 10 ** 9, True, "1", None, 1.0])),
        st.builds(index, at, entry_fields, junk),
        st.builds(drop_entry_field, at, entry_fields),
        st.builds(drop_entry, at),
        st.builds(exponent, at, st.sampled_from([257, -257, 10 ** 6])),
        st.builds(retype, st.just("q"),
                  st.sampled_from([{"num": [], "den": [[0, 1]]},
                                   {"num": [[0, 1]], "den": []},
                                   {"num": [[300, 1]], "den": [[0, 1]]}])),
        st.builds(append_junk, junk),
    )


# what each run reads beyond --out and the braiding source, written out
# apart from cli.READS: by verify suite, then by command
RUN_READS = {
    ("verify", "braiding"): {"suite", "q"},
    ("verify", "double"): {"suite", "flavor", "degree"},
    ("verify", "lie"): {"suite"},
    ("verify", "poincare"): {"suite", "kmax"},
    ("verify", "currents"): {"suite", "window", "degree"},
    ("verify", "all"): {"suite", "q", "flavor", "degree", "kmax", "window"},
    ("poincare",): {"kmax"},
    ("repr",): {"flavor", "degree"},
    ("export",): set(),
}
# each braiding source as arguments and the options it reads
SOURCES = {
    "std-hecke": (["--braiding", "std-hecke", "--n", "2"], {"braiding", "n"}),
    "superflip": (["--braiding", "superflip", "--mn", "1,1"], {"braiding", "mn"}),
    "table": (["--table", str(builtin_table_path("std-hecke-2"))], {"table"}),
}
# a value other than the default for each option that a run may leave
# unread, and the default as written on the command line where it has one
OTHER = {"braiding": "flip", "n": "3", "mn": "2,1", "q": "3/2", "flavor": "fermionic",
         "suite": "lie", "kmax": "3", "window": "1", "degree": "2"}
DEFAULT = {"n": "2", "mn": "1,1", "q": "generic", "suite": "all", "kmax": "4",
           "window": "2", "degree": "1"}


def _unread_cases():
    for run_key, reads in RUN_READS.items():
        run_argv = ["verify", "--suite", run_key[1]] if len(run_key) == 2 else [*run_key]
        for source, (_, source_reads) in SOURCES.items():
            for option in OTHER:
                if option not in reads | source_reads:
                    yield pytest.param(run_argv, source, option,
                                       id=f"{'-'.join(run_key)}-{source}-{option}")


class TestUnreadOptions:
    @pytest.mark.parametrize("run_argv, source, option", list(_unread_cases()))
    def test_unread_option_is_bad_input(self, run_argv, source, option,
                                        monkeypatch, capsys):
        """An option outside the run's read set, given a value other than
        its default, exits 2 before any operator is built; given its
        default, the run goes ahead."""
        built = count_operator_builds(monkeypatch)
        argv = [*run_argv, *SOURCES[source][0]]
        assert run([*argv, f"--{option}", OTHER[option]]) == 2
        captured = capsys.readouterr()
        assert not built
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: InvalidArgument: --{option} {OTHER[option]} is not read by ")
        if option in DEFAULT:
            assert run([*argv, f"--{option}", DEFAULT[option]]) == 0
            assert built

    @pytest.mark.parametrize("argv, option", [
        (["verify", "--table", str(builtin_table_path("std-hecke-2")), "--braiding", "flip",
          "--n", "7", "--suite", "braiding"], "--braiding flip"),
        (["verify", "--braiding", "bmw-orth", "--n", "3", "--suite", "braiding",
          "--flavor", "fermionic"], "--flavor fermionic"),
        (["verify", "--suite", "lie", "--window", "7", "--kmax", "9"], "--kmax 9"),
        (["export", "--braiding", "bmw-orth", "--n", "3", "--window", "9",
          "--flavor", "fermionic", "--suite", "lie"], "--flavor fermionic"),
    ], ids=["table-with-builtin", "flavor-on-braiding-suite", "sizes-on-lie",
            "export-with-verify-options"])
    def test_options_that_were_echoed_unread(self, argv, option, monkeypatch, capsys):
        """Runs that once exited 0 and echoed a config they never read."""
        built = count_operator_builds(monkeypatch)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert not built and captured.out == ""
        assert captured.err.startswith(f"error: InvalidArgument: {option} is not read by ")


class TestSizeArgumentFuzz:
    """verify on each builtin braiding and each single suite, with the size
    arguments that the run reads at, below and past their bounds, exits 0, 1
    or 2, raises nothing and is never refused for an unread option.  The
    window stops at 1: window 2 with degree 2 at N = 3 takes seconds on its
    own."""

    @given(st.sampled_from(["flip", "superflip", "std-hecke", "bmw-orth", "bmw-sympl"]),
           st.sampled_from(["braiding", "double", "lie", "poincare", "currents"]),
           st.integers(-1, 3), st.text(alphabet="012,- ", max_size=3),
           st.integers(-1, 6), st.integers(-1, 3), st.integers(-1, 1))
    @settings(max_examples=100, deadline=None)
    def test_size_arguments(self, braiding, suite, n, mn, kmax, degree, window):
        sizes = {"n": n, "mn": mn, "kmax": kmax, "degree": degree, "window": window}
        reads = RUN_READS[("verify", suite)] | {"mn" if braiding == "superflip" else "n"}
        # --flag=<value>, so that a value that looks like a flag reaches qfock
        argv = ["verify", "--braiding", braiding, "--suite", suite,
                *(f"--{option}={value}" for option, value in sizes.items()
                  if option in reads)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) in (0, 1, 2)
        assert "is not read by" not in err.getvalue()


class TestLoaderFuzz:
    """Mutated std-hecke 2 and bmw-sympl 2 table documents: the loader
    returns a Braiding or raises a QfockError, and verify exits 0, 1 or 2."""

    @given(st.sampled_from(["std-hecke-2", "bmw-sympl-2"]),
           st.lists(_mutation(), min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_mutated_table(self, base, mutations):
        doc = json.loads(builtin_table_path(base).read_text())
        for mutate in mutations:
            mutate(doc)
        try:
            b = load_braiding_table(copy.deepcopy(doc))
        except QfockError:
            pass
        else:
            assert isinstance(b, Braiding)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "table.json"
            path.write_text(json.dumps(doc))
            assert main(["verify", "--table", str(path), "--suite", "braiding"]) in (0, 1, 2)


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
        assert table["sym(V)"] == {"dims": [1, 2, 3, 4], "expected": [1, 2, 3, 4]}
        assert table["lambda(V*)"] == {"dims": [1, 2, 1, 0], "expected": [1, 2, 1, 0]}

    def test_bmw_gates(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run(["poincare", "--braiding", "bmw-orth", "--n", "3",
                    "--kmax", "3", "--out", str(out)]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["sym(V)"] == {"dims": [1, 3, 6, 10], "expected": [1, 3, 6, 10]}
        checks = json.loads(out.read_text())["checks"]
        assert [(c["check_id"], c["verdict"], c["gating"]) for c in checks] == [
            (f"poincare-{kind}-{space}", "pass", True)
            for kind in ("sym", "lambda") for space in ("V", "V*")]

    def test_pole_at_one_turns_the_gate_off(self, monkeypatch):
        def pole(self, q0):
            raise NonGenericPoint(f"q0 = {q0} is a root of the denominator")

        monkeypatch.setattr(Scalar, "evaluate", pole)
        assert superflip_limit(make_standard_hecke(2)) is None

    def test_other_evaluation_errors_propagate(self, monkeypatch):
        def broken(self, q0):
            raise RuntimeError("evaluation bug")

        monkeypatch.setattr(Scalar, "evaluate", broken)
        with pytest.raises(RuntimeError, match="evaluation bug"):
            superflip_limit(make_standard_hecke(2))


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

    def test_repr_failing_identity_exits_1(self, capsys, monkeypatch):
        """One entry of the l_1^1 matrix bumped by ONE: the document is
        still printed, reads identity_holds false, and the exit is 1."""
        real = fockdouble.fock_representation

        def bumped(d, k):
            reps = real(d, k)
            cols = [dict(col) for col in reps[(0, 0)]]
            cols[0][0] = cols[0].get(0, ZERO) + ONE
            return {**reps, (0, 0): cols}

        monkeypatch.setattr(cli, "fock_representation", bumped)
        assert run(["repr", "--braiding", "std-hecke", "--n", "2",
                    "--degree", "2"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["identity_holds"] is False
        assert doc["matrices"]["l[1][1]"]["entries"][0][0] != ZERO.to_pairs()

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
