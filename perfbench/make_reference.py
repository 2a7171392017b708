#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: S and S_interp of every bundled
paper-suite scenario, with the fingerprint of the run that produced them.

Run from the repository root, at the commit that defines the reference:

    python3 perfbench/make_reference.py
"""

import json
import os
import shutil
import sys
import tempfile

import run  # pins the BLAS threads before numpy loads


def main() -> int:
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=run.WORK_ROOT)
    try:
        code, wall, _ = run.run_child(
            [sys.executable, "-m", "ineqlab.cli", "verify", "--config", "paper-suite",
             "--out", work, "--jobs", "1"], os.path.join(work, "cli.log"))
        if code != 0:
            print(f"paper-suite exited with {code}", file=sys.stderr)
            return 1
        payload = run.load_json(os.path.join(work, "report.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    constants = {res["scenario_id"]: {k: res["constants"][k] for k in ("S", "S_interp")}
                 for res in payload["results"]}
    with open(run.REFERENCE_PATH, "w") as fh:
        json.dump({"fingerprint": run.fingerprint(), "constants": constants}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(run.REFERENCE_PATH, run.ROOT)} ({wall:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
