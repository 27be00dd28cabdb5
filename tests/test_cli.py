import contextlib
import copy
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import braidings, cli, currents, fockdouble, quadalgebras
from qfock.braidings import (
    Braiding,
    braiding_to_table,
    builtin_table_path,
    load_braiding_table,
    load_builtin,
    make_bmw,
    make_standard_hecke,
    specialize,
    superflip_limit,
)
from qfock.cli import main
from qfock.currents import WINDOW_MAX
from qfock.errors import NonGenericPoint, QfockError
from qfock.tensorops import LinOperator
from qfock.scalars import ONE, ZERO, Scalar

from grid_reference import cleared_decomposition_ok, normalized, normalized_decomposition_ok


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
        # entry 0 again, with the value 7, ahead of itself
        ("hecke", lambda d: d["entries"].insert(0, {
            **d["entries"][0], "value": Scalar.from_int(7).to_pairs()}),
         "repeats the indices of an earlier entry"),
    ], ids=["entry-without-i", "index-not-an-integer", "value-not-pairs",
            "mu-not-pairs", "entries-not-a-list", "entry-not-a-dict", "n-zero",
            "n-negative", "n-not-an-integer", "repeated-entry"])
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

    def test_window_above_the_limit_is_refused_before_any_suite(
            self, monkeypatch, capsys):
        """A --window above currents.WINDOW_MAX exits 2 before the braiding
        is built, so no suite runs and no partial report is left."""
        built = count_operator_builds(monkeypatch)
        assert run(["verify", "--braiding", "std-hecke", "--n", "5", "--suite", "all",
                    "--window", str(WINDOW_MAX + 1)]) == 2
        assert not built
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: InvalidArgument: --window {WINDOW_MAX + 1} "
                                f"is above WINDOW_MAX = {WINDOW_MAX}\n")

    def test_window_at_the_limit_reaches_the_run(self, monkeypatch):
        """WINDOW_MAX itself is accepted; the run is stubbed, so no window-4
        suite runs."""
        windows = []
        monkeypatch.setattr(cli, "cmd_verify", lambda cfg: windows.append(cfg.window) or 0)
        for window in (WINDOW_MAX, WINDOW_MAX + 1):
            run(["verify", "--suite", "currents", "--window", str(window)])
        assert windows == [WINDOW_MAX]

    @pytest.mark.parametrize("command", ["verify", "export"])
    @pytest.mark.parametrize("mn", ["1", "a,b", "-1,3", "2,-1", "0,0", "1,1,1"])
    def test_malformed_superflip_split_is_bad_input(self, command, mn, capsys):
        assert run([command, "--braiding", "superflip", f"--mn={mn}"]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "InvalidArgument" in captured.err
        assert "--mn" in captured.err and "m,n" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["verify", "export"])
    def test_empty_superflip_is_refused_by_the_constructor(self, command, capsys):
        # --mn 0,0 parses; make_superflip refuses it, and the CLI names --mn
        assert run([command, "--braiding", "superflip", "--mn", "0,0"]) == 2
        err = capsys.readouterr().err
        assert "InvalidArgument: --mn gives no superflip at m,n = 0,0" in err
        assert "Traceback" not in err

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
    """ONE added to the first nonzero entry of the numerator Q of b's
    memoized Lagrange data (Q, d) for the root `key`."""
    pr = b.lagrange
    op, d = pr[key]
    r = next(r for r, row in enumerate(op.rows) if row)
    c = min(op.rows[r])
    pr[key] = (op + LinOperator.from_terms([(r, c, ONE)], op.dim, op.legs,
                                           op.labels, op.labels_out), d)


def bump_denominator(b, key="q"):
    """ONE added to the denominator d of b's memoized Lagrange data (Q, d)
    for the root `key`."""
    op, d = b.lagrange[key]
    b.lagrange[key] = (op, d + ONE)


def double_numerator(b, key="q"):
    """The numerator Q of b's memoized Lagrange data (Q, d) for the root
    `key` scaled by 2."""
    op, d = b.lagrange[key]
    b.lagrange[key] = (op.scale(Scalar.from_int(2)), d)


class TestEachFactDecidedOnce:
    """The braid relation and the minimal polynomial are decided once per
    braiding and cached (Braiding.failures), whether the constructor, the
    loader or the braiding suite asks first, and once more on the braiding
    that --q specializes.  Only the BMW mu record builds Lagrange data."""

    @staticmethod
    def _count(monkeypatch) -> dict[str, int]:
        calls = dict.fromkeys(("braid_ok", "kind_polynomial_ok", "projectors"), 0)

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in ("braid_ok", "kind_polynomial_ok"):
            monkeypatch.setattr(Braiding, name, counted(name, getattr(Braiding, name)))
        monkeypatch.setattr(braidings, "projectors",
                            counted("projectors", braidings.projectors))
        return calls

    @pytest.mark.parametrize("argv, each, lagrange", [
        (["--braiding", "std-hecke", "--n", "2"], 1, 0),
        (["--table", None], 1, 0),      # None: the exported std-hecke 2
        # make_flip does not validate, so the suite asks first
        (["--braiding", "flip", "--n", "2"], 1, 0),
        (["--braiding", "std-hecke", "--n", "2", "--q", "3/2"], 2, 0),
        (["--braiding", "bmw-orth", "--n", "3"], 1, 1),
    ], ids=["constructor", "table", "lazy", "q0", "bmw"])
    def test_one_decision_per_braiding(self, argv, each, lagrange, tmp_path, monkeypatch):
        table = tmp_path / "std-hecke-2.json"
        table.write_text(json.dumps(braiding_to_table(make_standard_hecke(2))))
        argv = [str(table) if a is None else a for a in argv]
        calls = self._count(monkeypatch)
        assert run(["verify", *argv, "--suite", "braiding"]) == 0
        assert calls == {"braid_ok": each, "kind_polynomial_ok": each,
                         "projectors": lagrange}


class TestEachAlgebraBuiltOnce:
    """Each graded quotient is built once per braiding (Braiding.algebras),
    so the mu record, the double and the Poincare suite of one run share
    its degree components."""

    @pytest.mark.parametrize("argv, builds", [
        (["--braiding", "bmw-orth", "--n", "3", "--degree", "3"], 12),
        (["--braiding", "std-hecke", "--n", "3"], 13),
    ], ids=["bmw-orth-3", "std-hecke-3"])
    def test_component_builds_per_run(self, argv, builds, monkeypatch, capsys):
        built, real = [], quadalgebras.GradedQuotient._build_component

        def counted(alg, k):
            built.append((alg.name, k))
            return real(alg, k)

        monkeypatch.setattr(quadalgebras.GradedQuotient, "_build_component", counted)
        assert run(["verify", *argv, "--suite", "all"]) == 0
        assert len(built) == len(set(built)) == builds


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    """Start-up stays light: importing qfock.cli loads neither dataclasses
    nor the inspect and ast modules that it pulls in.  -S keeps site hooks
    from preloading modules into the child."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qfock.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


class TestProjectorMutation:
    """Corrupted cleared Lagrange data fails the cleared decomposition check
    and its normalized reference (tests/grid_reference.py).  No record
    reads these entries: projector-decomposition is the minimal
    polynomial's verdict, which rows of tests/test_corruptions.py fail
    through R."""

    @pytest.mark.parametrize("make", [
        lambda: make_standard_hecke(2), lambda: load_builtin("bmw-orth-3"),
    ], ids=["std-hecke-2", "bmw-orth-3"])
    def test_bumped_projector_fails_decomposition(self, make):
        b = make()
        assert cleared_decomposition_ok(b)
        bump_projector(b)
        assert not cleared_decomposition_ok(b)

    @pytest.mark.parametrize("corrupt", [
        lambda b: bump_projector(b, "-1/q"),
        bump_denominator,
        double_numerator,
    ], ids=["bumped-numerator", "bumped-denominator", "doubled-numerator"])
    @pytest.mark.parametrize("make", [
        lambda: make_standard_hecke(2), lambda: load_builtin("bmw-orth-3"),
    ], ids=["std-hecke-2", "bmw-orth-3"])
    def test_corrupted_lagrange_data_fails_decomposition(self, make, corrupt):
        """A numerator entry, a denominator, or a whole numerator of the
        cleared idempotents off: the check and the normalized reference
        both fail."""
        b = make()
        corrupt(b)
        assert not cleared_decomposition_ok(b)
        assert not normalized_decomposition_ok(b, normalized(b.lagrange))


class TestGatingRecordsCanFail:
    """The corruptions that fail each gating record are the rows of
    tests/test_corruptions.py.  Their passing neighbour stays here: a table
    that the loader's distinct-roots rule accepts."""

    def test_hecke_table_at_q_minus_one_passes(self, tmp_path):
        """At q = -1 the Hecke roots q and -1/q are -1 and 1, distinct."""
        table = tmp_path / "table.json"
        table.write_text(json.dumps(braiding_to_table(specialize(make_standard_hecke(2), -1))))
        assert run(["verify", "--table", str(table), "--suite", "all"]) == 0


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


def _rendered(record) -> tuple:
    """(check id, anchor, verdict, witness) of a record (check id, anchor,
    failures[, witness]) as a report shows it: report-only when failures is
    None, else a pass exactly when it is empty; the witness is the one
    given, else the first three failures."""
    check_id, anchor, failures, witness = (*record, None)[:4]
    if witness is None and failures:
        witness = failures[:3]
    verdict = "report-only" if failures is None else "fail" if failures else "pass"
    return check_id, anchor, verdict, None if witness is None else str(witness)[:400]


class TestSuitesNeedNoCli:
    """Each module's record generators, called without the CLI, give the
    records of the golden `verify --suite all` report after load-braiding,
    in order."""

    @pytest.mark.parametrize("golden, b", [
        ("braiding-std-hecke-n-3-suite-all.json", lambda: make_standard_hecke(3)),
        ("braiding-bmw-orth-n-3-suite-all-degree-3.json", lambda: make_bmw(3, "orthogonal")),
    ], ids=["std-hecke-3", "bmw-orth-3-degree-3"])
    def test_generators_give_the_golden_records(self, golden, b):
        doc = json.loads((Path(__file__).resolve().parent / "golden" / golden).read_text())
        cfg, b = doc["config"], b()
        records = itertools.chain(
            braidings.braiding_records(b), quadalgebras.mu_eigenspace_records(b),
            fockdouble.double_records(b, None, cfg["degree"]), fockdouble.lie_records(b),
            quadalgebras.poincare_records(b, cfg["kmax"]),
            currents.current_records(b, cfg["window"], cfg["degree"]))
        assert [_rendered(r) for r in records] == [
            (c["check_id"], c["anchor"], c["verdict"], c["witness"]) for c in doc["checks"][1:]]


_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(), st.floats(0, 100).map(lambda x: round(x, 4)),
    st.text())
_json_docs = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30)


class TestDocumentWriter:
    """cli._dumps writes every document byte for byte as
    json.dumps(obj, indent=1, sort_keys=True) does."""

    @given(_json_docs, _json_docs)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, doc, shared):
        """Any document, and one holding an object at depths 1, 2 and 3
        (twice at depth 2), which the writer renders with the indent of
        each place."""
        for d in (doc, {"a": shared, "b": [shared, {"c": shared, "d": doc}, shared]}):
            assert cli._dumps(d) == json.dumps(d, indent=1, sort_keys=True)

    def test_non_ascii_empty_and_special_values(self):
        doc = {"é": ["☃\n\"", [], {}, float("nan"), float("inf"),
                     -float("inf"), -0.0, 0.1 + 0.2, True, False, None, 10 ** 30],
               "": {"": []}, "seconds": round(1 / 3, 4)}
        assert cli._dumps(doc) == json.dumps(doc, indent=1, sort_keys=True)

    def test_refuses_a_set_and_a_key_that_is_no_string(self):
        with pytest.raises(TypeError):
            cli._dumps({"x": {1, 2}})
        with pytest.raises(TypeError):
            cli._dumps({1: 0})

    def test_matrix_doc_shares_equal_entries(self):
        """Equal Scalars share one pairs dict, so the writer renders the
        zero entry once; the printed matrix is the one json.dumps prints."""
        doc = cli._matrix_doc(3, 3, lambda r, c: ONE if r == c else ZERO)
        cells = [cell for row in doc["entries"] for cell in row]
        assert len({id(cell) for cell in cells}) == 2
        assert cli._dumps(doc) == json.dumps(doc, indent=1, sort_keys=True)


class TestOneParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_option_leaks_into_the_next_run(self, tmp_path, capsys):
        """The cached parser keeps no value of an earlier run: --degree 3
        in one run, then no --degree, echoes the default degree 1."""
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        argv = ["verify", "--braiding", "std-hecke", "--n", "2", "--suite", "double"]
        assert main([*argv, "--degree", "3", "--out", str(first)]) == 0
        assert main([*argv, "--out", str(second)]) == 0
        assert json.loads(first.read_text())["config"]["degree"] == 3
        assert json.loads(second.read_text())["config"]["degree"] == 1


_OUT_COMMANDS = {
    "verify": ["verify", "--braiding", "std-hecke", "--n", "2", "--suite", "braiding"],
    "repr": ["repr", "--braiding", "std-hecke", "--n", "2"],
    "poincare": ["poincare", "--braiding", "std-hecke", "--n", "2"],
    "export": ["export", "--braiding", "std-hecke", "--n", "2"],
}


class TestUnwritableOut:
    """An --out that cannot be written exits 2 with an error line naming
    it, never a traceback: a directory, or a path whose directory is
    missing, is refused before the braiding is built; a write that fails
    is refused when it fails."""

    @pytest.mark.parametrize("command", _OUT_COMMANDS)
    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    def test_refused_before_anything_is_built(self, command, where, tmp_path,
                                              monkeypatch, capsys):
        resolved = []
        monkeypatch.setattr(cli, "_resolve_braiding",
                            lambda cfg: resolved.append(cfg) or make_standard_hecke(2))
        out = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
        assert main([*_OUT_COMMANDS[command], "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert resolved == [] and captured.out == ""
        assert captured.err.startswith(f"error: InvalidArgument: --out {out}")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("command", _OUT_COMMANDS)
    def test_failed_write_exits_2(self, command, capsys):
        assert main([*_OUT_COMMANDS[command], "--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidArgument: --out /dev/full: cannot write")


class TestExitContract:
    """A closed standard output exits 141 (128 + SIGPIPE) and an interrupt
    130, each without a traceback."""

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("command", _OUT_COMMANDS)
    def test_closed_stdout_exits_141(self, command, method, monkeypatch, capsys):
        """Closed at the first write, or after the last one, before the
        flush; this stdout has no file descriptor."""
        def closed(*args):
            raise BrokenPipeError(32, "Broken pipe")
        stdout = {"write": len, "flush": lambda: None, method: closed}
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(**stdout))
        assert main(_OUT_COMMANDS[command]) == 141
        assert capsys.readouterr().err == ""

    def test_interrupt_exits_130(self, monkeypatch, capsys):
        def interrupted(b, cfg):
            raise KeyboardInterrupt
        monkeypatch.setitem(cli.SUITE_RECORDS, "lie", interrupted)
        assert main(["verify", "--braiding", "flip", "--n", "2", "--suite", "lie"]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"

    def test_reader_that_stops_after_one_line(self):
        """The 623,548-byte repr document is far larger than a pipe's
        buffer, so the writer meets the closed pipe."""
        src = Path(__file__).resolve().parents[1] / "src"
        child = subprocess.Popen(
            [sys.executable, "-m", "qfock.cli", "repr", "--braiding", "bmw-orth",
             "--n", "4", "--degree", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 141
        assert err == b""     # no traceback and no error line
