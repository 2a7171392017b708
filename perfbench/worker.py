#!/usr/bin/env python3
"""Repeat a workload's ineqlab CLI command in this warm process and time each pass.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC.json holds {"src": ..., "argv": [...], "out": ..., "seconds": ...}: the
CLI arguments with "{out}" where the output path goes, the pattern of that
path with "{i}" for the pass number, and the time to measure.  The worker
imports ineqlab once, then runs the command, once per pass, at least once
and again while the next pass is expected to end within `seconds`.  It
writes to RESULT.json, per pass, the output path, the exit code, the wall
time and the CPU time of this process, and its own peak RSS.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_pass(cli, spec: dict, i: int) -> dict:
    out = spec["out"].replace("{i}", str(i))
    argv = [out if a == "{out}" else a for a in spec["argv"]]
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:   # a crash counts against the pass's items
        traceback.print_exc()
        code = -1
    return {"out": out, "code": code,
            "wall_s": time.perf_counter() - start, "cpu_s": time.process_time() - cpu}


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from ineqlab import cli

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, spec, len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > spec["seconds"]:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(sys.argv[2], "w") as fh:
        json.dump({"passes": passes, "peak_rss_mb": peak_mb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
