#!/usr/bin/env python3
"""Benchmark of the ineqlab command line: three workloads, end to end and by layer.

Run from the root of an ineqlab checkout:

    python3 perfbench/run.py --workload suite-large --seed 0 --seconds 40 --trace 0

``--trace 0`` times the workload's CLI commands, over and over, in a warm
child process (perfbench/worker.py), times set-up in fresh children, and
prints the end-to-end metrics; ``--trace 1`` runs the workload in this
process under the layer tracer (perfbench/layers.py) and prints the
per-layer metrics.
``--workload all`` runs every workload in turn.  Each run checks the
program's output and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  perfbench/README.md
describes the workloads, the metrics and the seed baseline.
"""

import os

# numpy reads the BLAS thread count once, when it loads; pin it here, before
# any import of numpy, for this process and every child it starts.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "ineqlab")
SUITE_PATH = os.path.join(PACKAGE, "data", "paper_suite.json")
GOLDEN_PATH = os.path.join(ROOT, "tests", "data", "paper_suite_golden.json")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
WORKER_PATH = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPS = 8            # set-up children per run; setup_s is their median
CHILD_TIMEOUT_S = 150.0   # a child still running after this is killed
LARGE_SITES = 1024        # suite scenarios with at least this many sites form suite-large
REL_TOL = 1e-10           # S and S_interp against their references

# Interpreter start, import of the CLI and config load/validation: what every
# CLI run pays before it computes anything.
SETUP_SNIPPET = """\
import json, sys
import ineqlab, ineqlab.cli
with open(sys.argv[1]) as fh:
    config = json.load(fh)
if sys.argv[2] == "verify":
    ineqlab.validate_config(config)
print(ineqlab.__file__)
"""

E2E_UNITS = {"cpu_s": "s", "items_per_cpu_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB", "ok_frac": "frac"}


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def dump_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


# ---------------------------------------------------------------------------
# workload inputs, generated from the seed; seed 0 gives the bundled inputs


def n_sites(scenario: dict) -> int:
    lat = scenario["lattice"]
    return math.prod(lat["extents"]) - len(lat.get("exclusions", []))


def suite_config(seed: int, large: bool) -> dict:
    """Bundled paper-suite scenarios on one side of LARGE_SITES.  A nonzero
    seed moves every potential seed by 1000 * seed."""
    suite = load_json(SUITE_PATH)
    scenarios = [sc for sc in suite["scenarios"] if (n_sites(sc) >= LARGE_SITES) == large]
    if seed:
        for sc in scenarios:
            pot = sc.get("potential", {})
            if "seed" in pot:
                pot["seed"] = int(pot["seed"]) + 1000 * seed
    return {"schema": suite["schema"], "scenarios": scenarios}


def count_config(seed: int) -> dict:
    """Coupling sweep on a 32x32 Dirichlet Laplacian with V = |Normal(0, 0.2 * scale)|."""
    import numpy as np

    side = 32
    scale = 4.0 * (1.0 + math.cos(math.pi / (side + 1)))  # largest eigenvalue, h = 1
    rng = np.random.default_rng(seed)
    V = np.abs(rng.normal(0.0, 0.2 * scale, size=side * side))
    return {"schema": 1, "sweep": {
        "axis": "coupling",
        "values": np.geomspace(0.05, 5.0, 32).tolist(),
        "instance": {"lattice": {"d": 2, "extents": [side, side], "h": 1.0, "bc": "dirichlet"},
                     "operator": {"family": "laplacian"},
                     "potential": {"values": V.tolist()},
                     "kappa": 1.5}}}


# ---------------------------------------------------------------------------
# correctness gates: each returns check(exit_code, output_path) -> one flag per item


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def _constants_ok(result: dict, reference: dict) -> bool:
    """S and S_interp equal the reference, or are lower and certified (slack >= 0)."""
    want = reference.get(result["scenario_id"], {})
    got = result["constants"]
    slack = result["extras"].get("sobolev", {}).get("certificate_slack")
    for key in ("S", "S_interp"):
        a, b = got.get(key), want.get(key)
        if a is None or b is None:
            if a is not b:
                return False
        elif not (_close(a, b) or (0.0 < a < b and slack is not None and slack >= 0.0)):
            return False
    return True


def suite_gate(cfg: dict, seed: int):
    """Exit code 0, n_failed 0, (scenario, tag, status) rows equal to the golden
    file, S/S_interp against perfbench/reference.json, and at seed 0 the golden
    lhs/rhs digits as well."""
    ids = {sc["id"] for sc in cfg["scenarios"]}
    expected = [row for row in load_json(GOLDEN_PATH)["rows"] if row[0] in ids]
    reference = load_json(REFERENCE_PATH)["constants"]

    def check(code: int, out_dir: str) -> list:
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            payload = load_json(os.path.join(out_dir, "report.json"))
            if payload["suite"]["n_failed"] != 0:
                raise ValueError(f"n_failed = {payload['suite']['n_failed']}")
            bad = {res["scenario_id"] for res in payload["results"]
                   if not _constants_ok(res, reference)}
            got = [[r["scenario_id"], r["tag"], r["status"],
                    format(float(r["lhs"]), ".6g"), format(float(r["rhs"]), ".6g")]
                   for res in payload["results"] for r in res["reports"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"gate: {exc!r}", file=sys.stderr)
            return [False] * len(expected)
        flags = []
        for i in range(max(len(expected), len(got))):
            if i >= len(expected) or i >= len(got):
                flags.append(False)
                continue
            g, e = got[i], expected[i]
            ok = g[:3] == e[:3] and g[2] != "fail" and g[0] not in bad
            flags.append(ok and (seed != 0 or g[3:] == e[3:]))
        return flags

    return check, len(expected)


def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def count_gate(cfg: dict, seed: int):
    """Every count equals the Birman-Schwinger count, computed here before the
    timed runs through ineqlab's resolvent-sandwich route (the
    n_birman_schwinger of birman_schwinger_check, without its direct count)."""
    import numpy as np

    sys.path.insert(0, SRC)
    from ineqlab import lattice, operators, spectra

    inst = cfg["sweep"]["instance"]
    lat = inst["lattice"]
    space = lattice.make_lattice(lat["d"], lat["extents"], h=lat.get("h", 1.0),
                                 bc=lat.get("bc", "dirichlet"))
    T = operators.build_laplacian(space)
    V0 = np.asarray(inst["potential"]["values"], dtype=np.float64)
    couplings = [float(c) for c in cfg["sweep"]["values"]]
    expected = [spectra.birman_schwinger(T, c * V0).count_above_one().n for c in couplings]

    def check(code: int, out_csv: str) -> list:
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            rows = _read_csv(out_csv)
            flags = [_close(float(r["c"]), c) and int(r["count"]) == n
                     for r, c, n in zip(rows, couplings, expected)]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"gate: {exc!r}", file=sys.stderr)
            return [False] * len(expected)
        return flags + [False] * abs(len(rows) - len(expected))

    return check, len(expected)


class Workload:
    def __init__(self, name, command, make_config, make_gate):
        self.name = name
        self.command = command        # "verify" or "sweep"
        self.make_config = make_config
        self.make_gate = make_gate

    def cli_args(self, config_path: str, out: str) -> list:
        if self.command == "verify":
            return ["verify", "--config", config_path, "--out", out, "--jobs", "1"]
        return ["sweep", "--config", config_path, "--out", out]

    def output(self, work: str, tag: str) -> str:
        """Output path handed to the CLI: a directory for verify, a CSV for sweep."""
        return os.path.join(work, tag if self.command == "verify" else f"{tag}.csv")

    def report_files(self, out: str) -> list:
        if self.command == "verify":
            return [os.path.join(out, "report.json"), os.path.join(out, "report.csv")]
        return [out]


WORKLOADS = {w.name: w for w in [
    Workload("suite-large", "verify", lambda s: suite_config(s, True), suite_gate),
    Workload("suite-small", "verify", lambda s: suite_config(s, False), suite_gate),
    Workload("count-sweep", "sweep", count_config, count_gate),
]}


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    paths = [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv: list, log_path: str) -> tuple:
    """Run argv to completion; returns (exit code, wall seconds, CPU seconds)."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime


def measure_setup(wl: Workload, config_path: str, work: str, reps: int) -> tuple:
    """CPU times of `reps` set-up children, and whether all of them succeeded."""
    cpus, ok = [], True
    log = os.path.join(work, "setup.log")
    for _ in range(reps):
        code, _, cpu = run_child([sys.executable, "-c", SETUP_SNIPPET, config_path,
                                  wl.command], log)
        cpus.append(cpu)
        with open(log) as fh:
            loaded_from = fh.read().strip()
        if code != 0 or not loaded_from.startswith(PACKAGE + os.sep):
            print(f"setup: exit {code}, ineqlab loaded from {loaded_from!r}", file=sys.stderr)
            ok = False
    return cpus, ok


# ---------------------------------------------------------------------------
# runs


def prepare(wl: Workload, seed: int, work: str) -> tuple:
    """Write the workload's config; returns its path, its gate and its item count."""
    config = wl.make_config(seed)
    config_path = dump_json(os.path.join(work, "config.json"), config)
    check, n_items = wl.make_gate(config, seed)
    return config_path, check, n_items


def run_end_to_end(wl: Workload, seed: int, seconds: float, work: str) -> dict:
    """Time passes of the workload's CLI command in a warm worker child
    (perfbench/worker.py) for about `seconds`, and check every pass's output."""
    config_path, check, n_items = prepare(wl, seed, work)
    # half of the set-up children before the timed passes and half after, so
    # that their median spans the run rather than one moment of it
    setup, setup_ok = measure_setup(wl, config_path, work, SETUP_REPS // 2)
    spec_path = dump_json(os.path.join(work, "spec.json"), {
        "src": SRC, "argv": wl.cli_args(config_path, "{out}"),
        "out": wl.output(work, "pass{i}"), "seconds": seconds})
    result_path = os.path.join(work, "result.json")
    log = os.path.join(work, "worker.log")
    code, _, _ = run_child([sys.executable, WORKER_PATH, spec_path, result_path], log)
    with open(log) as fh:
        sys.stderr.write(fh.read()[-2000:])
    if code != 0:
        raise RuntimeError(f"{wl.name}: worker exited with {code}")
    result = load_json(result_path)
    more, more_ok = measure_setup(wl, config_path, work, SETUP_REPS - SETUP_REPS // 2)

    flags = []
    for p in result["passes"]:
        flags += check(p["code"], p["out"])
    if not (setup_ok and more_ok):
        flags = [False] * len(flags)
    cpu = statistics.median(p["cpu_s"] for p in result["passes"])
    values = {"cpu_s": cpu,
              "items_per_cpu_s": n_items / cpu,
              "setup_s": statistics.median(setup + more),
              "peak_rss_mb": result["peak_rss_mb"],
              "ok_frac": sum(flags) / len(flags)}
    print(f"{wl.name}: {len(result['passes'])} pass(es) of {n_items} items; CPU "
          + " ".join(f"{p['cpu_s']:.3f}" for p in result["passes"]) + " s; wall "
          + " ".join(f"{p['wall_s']:.3f}" for p in result["passes"]) + " s")
    return {"attempted": len(flags), "failed": len(flags) - sum(flags),
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}}


def run_traced(wl: Workload, seed: int, work: str) -> dict:
    """Run the workload in this process, untraced and then traced; report layers."""
    import layers

    config_path, check, _ = prepare(wl, seed, work)
    sys.path.insert(0, SRC)
    from ineqlab import cli

    def invoke(main, out: str) -> tuple:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(wl.cli_args(config_path, out))
        except Exception:   # a crash of the program counts against its items
            traceback.print_exc()
            code = -1
        return code, time.perf_counter() - start

    out_plain, out_traced = wl.output(work, "plain"), wl.output(work, "traced")
    _, wall_plain = invoke(cli.main, out_plain)
    tracer = layers.Tracer()
    root = tracer.wrap("cli.main", cli.main)
    tracer.install()
    try:
        code, wall_traced = invoke(root, out_traced)
    finally:
        tracer.uninstall()

    flags = check(code, out_traced)
    identical = all(_same_bytes(a, b) for a, b in zip(wl.report_files(out_plain),
                                                      wl.report_files(out_traced)))
    if not identical:
        print("trace: traced output differs from the untraced output", file=sys.stderr)
        flags = [False] * len(flags)
    report = wl.report_files(out_traced)[0]
    metrics = tracer.metrics(root="cli.main",
                             report_bytes=os.path.getsize(report) if os.path.exists(report) else 0,
                             overhead_s=wall_traced - wall_plain)
    spans_path = os.path.join(WORK_ROOT, f"spans-{wl.name}-seed{seed}.json")
    tracer.write(spans_path)
    print(f"{wl.name}: untraced {wall_plain:.3f} s, traced {wall_traced:.3f} s, "
          f"{len(tracer.spans)} spans in {os.path.relpath(spans_path, ROOT)}")
    return {"attempted": len(flags), "failed": len(flags) - sum(flags), "metrics": metrics}


def _same_bytes(a: str, b: str) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


# ---------------------------------------------------------------------------


def fingerprint() -> dict:
    """Numeric stack, BLAS build, pinned threads, CPUs, Python and source version."""
    from importlib import metadata

    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:   # numpy < 1.26 has no mode argument
        deps = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(PACKAGE)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                with open(os.path.join(base, name), "rb") as fh:
                    source.update(os.path.relpath(os.path.join(base, name), SRC).encode())
                    source.update(fh.read())
    return {
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT)
    try:
        if trace:
            return run_traced(wl, seed, work)
        return run_end_to_end(wl, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    missing = [path for path in (os.path.join(PACKAGE, "cli.py"), SUITE_PATH, GOLDEN_PATH,
                                 REFERENCE_PATH) if not os.path.isfile(path)]
    if missing:
        print("perfbench: run from the root of an ineqlab checkout; missing "
              + ", ".join(os.path.relpath(m, ROOT) for m in missing), file=sys.stderr)
        return 2

    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} = {m['value']!r} {m['unit']}")
            combined["metrics"][metric if len(names) == 1 else f"{name}.{metric}"] = m
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
