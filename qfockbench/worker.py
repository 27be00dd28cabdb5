"""One round of a benchmark workload, run in a fresh process.

Usage: python3 worker.py '<json spec>'

The spec names the checkout root, the braidings to build in set-up, the
timed commands, and the untimed commands run after them (the known-false
input and the exports the independent checks read).  The worker prints one
JSON object on its last line: set-up time, time per timed command, exit
codes, peak resident memory and, when traced, the per-layer metrics.
Times are wall times scaled to the reference speed of speed.py; the
unscaled wall times are reported next to them.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler


def _call(main, argv: list[str]) -> dict:
    """Run one qfock command in-process; an exception is a failed operation."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        error = None
    except Exception:  # the operation failed; record it and go on
        code = None
        error = traceback.format_exc(limit=3)[-600:]
    return {"argv": argv, "exit": code, "error": error,
            "seconds": time.perf_counter() - t0}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["root"]) / "src"
    with SpeedSampler() as setup_speed:
        t0 = time.perf_counter()
        sys.path.insert(0, str(src))
        import qfock
        from qfock import braidings, cli
        for kind, n in spec["braidings"]:
            if kind == "std-hecke":
                braidings.make_standard_hecke(n)
            else:
                braidings.load_builtin(f"{kind}-{n}")
        setup_s = time.perf_counter() - t0
    if Path(qfock.__file__).resolve().parent != (src / "qfock").resolve():
        print(f"qfock was imported from {qfock.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result: dict = {"setup_s": setup_speed.scale(setup_s), "setup_wall_s": setup_s}
    if spec["setup_only"]:
        print(json.dumps(result))
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        with SpeedSampler() as speed:
            timed = [_call(cli.main, argv) for argv in spec["timed"]]
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = sum(op["seconds"] for op in timed)
    result["verify_s"] = speed.scale(wall)
    result["verify_wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        # self times at the reference speed, without the sampling time
        ratio = result["verify_s"] / wall
        result["layers"] = {m: v * ratio if m.endswith("_s") else v
                            for m, v in tracer.metrics().items()}
        tracer.dump(spec["spans_path"], spec["timed"])
    result["timed"] = timed
    result["untimed"] = [_call(cli.main, argv) for argv in spec["untimed"]]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
