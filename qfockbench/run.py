#!/usr/bin/env python3
"""qfock benchmark: time to verdict, set-up time and peak memory.

Usage, from the root of a qfock checkout:

    python3 qfockbench/run.py --workload hecke3-all --seed 1 --seconds 12 --trace 0

A run repeats whole rounds of the workload until --seconds have passed
(at least one round).  Each round is a fresh process (worker.py) that
imports qfock from ./src, builds the workload's braidings, then runs the
workload's commands through ``qfock.cli.main``.  A round also verifies one
known-false input and exports each braiding; the exports and reports are
checked by oracle.py, which does not use qfock.

--trace 0 prints the end-to-end metrics (medians over the run):
  setup_s      import qfock and build the braidings, in a fresh process
               (median over 24 set-up-only processes, half before and
               half after the rounds, and the set-up of every round)
  verify_s     time to all verdicts of the workload's commands
  peak_rss_mb  peak resident memory of the round's process
Times are scaled to a reference machine speed sampled during the
measurement (speed.py); the unscaled wall-time medians are printed too.
--trace 1 wraps the entry points of every layer (tracer.py) and prints the
per-layer counts of the first round and the median self times.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
from tracer import CALL_METRICS, LAYERS, WORK_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 24   # half before the rounds, half after
DEADLINE_S = 170.0

# Evaluation points for the independent check, chosen by the seed.  None is
# a root of a denominator of the shipped braidings (those roots are +-1 and
# roots of unity).
Q0_CHOICES = [Fraction(3, 2), Fraction(5, 3), Fraction(7, 4), Fraction(2),
              Fraction(5, 2), Fraction(7, 5), Fraction(9, 7), Fraction(11, 6)]

KNOWN_FALSE_SOURCE = ROOT / "src" / "qfock" / "tables" / "hecke_n3.json"


def _verify(braiding: str, n: int, *extra: str) -> list[str]:
    return ["verify", "--braiding", braiding, "--n", str(n), *extra]


# name -> braidings built in set-up, and the commands of one round
WORKLOADS = {
    "hecke3-all": {
        "braidings": [("std-hecke", 3)],
        "commands": [_verify("std-hecke", 3, "--suite", "all")],
    },
    "hecke4-lie": {
        "braidings": [("std-hecke", 4)],
        "commands": [_verify("std-hecke", 4, "--suite", "lie")],
    },
    "bmw-double": {
        "braidings": [("bmw-orth", 3), ("bmw-sympl", 2)],
        "commands": [
            _verify("bmw-orth", 3, "--suite", "all", "--degree", "3"),
            _verify("bmw-sympl", 2, "--suite", "all", "--degree", "3"),
            ["repr", "--braiding", "bmw-orth", "--n", "3", "--degree", "3"],
        ],
    },
    "hecke2-currents-deg2": {
        "braidings": [("std-hecke", 2)],
        "commands": [_verify("std-hecke", 2, "--suite", "currents",
                             "--window", "2", "--degree", "2")],
    },
}

END_TO_END = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}


def _arg(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


class Run:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.trace = trace
        self.q0 = Q0_CHOICES[seed % len(Q0_CHOICES)]
        self.dir = OUT / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []   # operations that did not complete
        self.problems: list[str] = []   # wrong outputs of those that did
        self.deadline = time.monotonic() + DEADLINE_S
        self.wall: dict[str, list[float]] = {"setup": [], "verify": []}

        with open(KNOWN_FALSE_SOURCE, encoding="utf-8") as fh:
            table = json.load(fh)
        entry = seed % len(table["entries"])
        self.known_false = self.dir / "known_false.json"
        self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.known_false, "w", encoding="utf-8") as fh:
            json.dump(oracle.perturbed_table(table, entry), fh)

    def _worker(self, spec: dict) -> dict | None:
        spec = {"root": str(ROOT), "braidings": self.spec["braidings"], **spec}
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                capture_output=True, text=True, timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            self.failures.append("a worker did not finish before the deadline")
            return None
        if proc.returncode != 0:
            self.failures.append(f"worker exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-400:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_probe(self) -> float | None:
        out = self._worker({"setup_only": True, "trace": False})
        if out is None:
            return None
        self.wall["setup"].append(out["setup_wall_s"])
        return out["setup_s"]

    def round(self, index: int) -> dict | None:
        """One round; returns the worker's result, with operations counted."""
        rdir = self.dir / f"round{index}"
        rdir.mkdir()
        timed = []
        for c, argv in enumerate(self.spec["commands"]):
            timed.append(argv + ["--out", str(rdir / f"cmd{c}.json")])
        exports = []
        for kind, n in self.spec["braidings"]:
            exports.append(["export", "--braiding", kind, "--n", str(n),
                            "--out", str(rdir / f"export-{kind}-{n}.json")])
        known_false = ["verify", "--table", str(self.known_false),
                       "--suite", "braiding",
                       "--out", str(rdir / "known_false.json")]
        spec = {"setup_only": False, "trace": self.trace,
                "spans_path": str(OUT / f"{self.workload}.spans.json"),
                "timed": timed, "untimed": [known_false, *exports]}
        n_ops = len(timed) + 1 + len(exports)
        self.attempted += n_ops
        out = self._worker(spec)
        if out is None:
            self.failed += n_ops
            return None
        for op in out["timed"] + out["untimed"]:
            op["failed"] = op["error"] is not None or op["exit"] not in (0, 1)
            if op["failed"]:
                self.failed += 1
                self.failures.append(f"{' '.join(op['argv'][:5])}: "
                                     f"exit {op['exit']} {op['error'] or ''}")
        self._check(out, timed, known_false, exports)
        return out

    def _check(self, out: dict, timed, known_false, exports):
        """Independent checks of one round's outputs."""
        ran = {tuple(op["argv"]): op for op in out["timed"] + out["untimed"]}
        problems: list[str] = []
        for argv in timed:
            op = ran[tuple(argv)]
            if op["failed"]:
                continue
            if op["exit"] != 0:
                problems.append(f"{' '.join(argv[:5])} exited {op['exit']}")
                continue
            path = _arg(argv, "--out", "")
            n = int(_arg(argv, "--n", "2"))
            if argv[0] == "repr":
                problems += oracle.check_repr(path, n, int(_arg(argv, "--degree", "1")))
                continue
            found, rep = oracle.check_report(path)
            problems += found
            suite = _arg(argv, "--suite", "all")
            braiding = _arg(argv, "--braiding", "")
            if braiding == "std-hecke" and suite in ("all", "poincare"):
                problems += oracle.check_poincare(rep, n, int(_arg(argv, "--kmax", "4")))
            if braiding == "std-hecke" and suite in ("all", "currents"):
                problems += oracle.check_matrix_elements(
                    rep, n, int(_arg(argv, "--window", "2")),
                    int(_arg(argv, "--degree", "1")))
        op = ran[tuple(known_false)]
        if not op["failed"]:
            if op["exit"] != 1:
                problems.append("known-false input did not exit 1")
            else:
                problems += oracle.check_report(_arg(known_false, "--out", ""),
                                                expect_fail=True)[0]
        for argv in exports:
            op = ran[tuple(argv)]
            if op["exit"] != 0:
                if not op["failed"]:
                    problems.append(f"{' '.join(argv[:5])} exited 1")
                continue
            with open(_arg(argv, "--out", ""), encoding="utf-8") as fh:
                doc = json.load(fh)
            try:
                problems += oracle.check_export(doc, self.q0)
            except ZeroDivisionError as exc:
                problems.append(str(exc))
        self.problems += problems

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(run: Run, seconds: float) -> dict | None:
    setups = []

    def probe(count: int):
        for _ in range(0 if run.trace else count):
            s = run.setup_probe()
            if s is not None:
                setups.append(s)

    probe(SETUP_PROBES // 2)
    rounds = []
    start = time.monotonic()
    index = 0
    while index == 0 or time.monotonic() - start < seconds:
        out = run.round(index)
        index += 1
        if out is None:
            break
        rounds.append(out)
        setups.append(out["setup_s"])
        run.wall["setup"].append(out["setup_wall_s"])
        run.wall["verify"].append(out["verify_wall_s"])
    probe(SETUP_PROBES - SETUP_PROBES // 2)
    if not rounds:
        return None
    verify = [r["verify_s"] for r in rounds]
    if run.trace:
        first = rounds[0]["layers"]
        metrics = {m: {"value": first[m], "unit": "count"}
                   for m in (*CALL_METRICS, *WORK_METRICS)}
        for layer in LAYERS:
            m = f"{layer}.self_s"
            metrics[m] = {"value": statistics.median(r["layers"][m] for r in rounds),
                          "unit": "s"}
        metrics["traced.verify_s"] = {"value": statistics.median(verify), "unit": "s"}
        return metrics
    values = {"setup_s": statistics.median(setups),
              "verify_s": statistics.median(verify),
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}
    return {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qfock" / "cli.py").is_file():
        print(f"error: no qfock sources under {ROOT / 'src'}; run from a "
              "qfock checkout", file=sys.stderr)
        return 2
    # Write the bytecode cache once, untimed, as installing the package does.
    # Imports read it even where PYTHONDONTWRITEBYTECODE stops them writing it.
    if not compileall.compile_dir(ROOT / "src" / "qfock", quiet=1):
        print("error: the qfock sources do not compile", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        metrics = measure(run, args.seconds)
    finally:
        run.close()
    for p in run.failures:
        print(f"failed: {p}", file=sys.stderr)
    for p in run.problems:
        print(f"wrong: {p}", file=sys.stderr)
    if metrics is None:
        print("error: no round completed", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name, values in run.wall.items():
        if values:
            print(f"{args.workload} unscaled wall {name} median = "
                  f"{statistics.median(values):.6g} s over {len(values)}")
    print(f"q0 = {run.q0}; attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
