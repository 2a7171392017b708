"""End-to-end checks of the command-line front end.

Everything goes through cli.main() so exit codes, stdout tables, and
on-disk artifacts are exercised exactly as a shell user sees them.
"""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ineqlab import cli, functional, spectra, verify
from ineqlab.lattice import integral, make_lattice
from ineqlab.operators import build_laplacian


# ---------------------------------------------------------------------------
# constants subcommand


def test_constants_table_exact_lines(capsys):
    rc = cli.main(["constants", "--hardy", "1,3", "--al-factor", "1,2,1.5",
                   "--exponents", "1,1.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "hardy_C(s=1, d=3)     0.25",
        "al_factor(1, 2, 1.5)  2.285714285714",
        "q                     3.333333333333",
        "theta                 0.6",
    ]


def test_constants_lieb_bound_and_json_out(tmp_path, capsys):
    K = (4.0 * math.pi) ** -1.5
    path = tmp_path / "constants.json"
    rc = cli.main(["constants", "--lieb-bound", f"{K!r},1.5", "--out", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lieb_L" in out and "lieb_a_star" in out
    assert "0.115621917414" in out
    assert "0.247218903735" in out

    payload = json.loads(path.read_text())
    ref = functional.lieb_bound_from_K(K, 1.5)
    # 17-significant-digit serialization round-trips binary64 exactly
    assert payload["lieb_bound"]["value"] == ref.value
    assert payload["lieb_bound"]["K"] == K
    assert payload["lieb_bound"]["a_star"] == pytest.approx(ref.a_star, rel=1e-12)


def test_constants_lieb_bound_at_large_kappa(capsys):
    # a^(1 - kappa) overflows at a = 1e-4; the minimum near a = kappa - 2
    # is finite
    assert cli.main(["constants", "--lieb-bound", "1,80"]) == 0
    out = capsys.readouterr().out
    assert "lieb_L(K=1, kappa=80)  3.17493" in out
    assert "lieb_a_star            78.02" in out


def test_constants_exit_codes(capsys):
    # no flags at all is a usage error
    assert cli.main(["constants"]) == 2
    assert "config error" in capsys.readouterr().err
    # domain violation (d <= 2s) surfaces as exit 2, not a traceback
    assert cli.main(["constants", "--hardy", "1,1"]) == 2
    assert "error" in capsys.readouterr().err
    # wrong arity and non-numeric input are config errors
    assert cli.main(["constants", "--hardy", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["constants", "--exponents", "a,b"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [
    ("--al-factor", "1,2,inf"), ("--hardy", "0.5,inf"), ("--hardy", "nan,3"),
    ("--lieb-bound", "inf,1.5"), ("--exponents", "1,-inf")])
def test_constants_reject_non_finite_numbers(capsys, flag, value):
    assert cli.main(["constants", flag, value]) == 2
    assert f"config error: {flag} expects finite numbers" in capsys.readouterr().err


def test_constants_lieb_bound_beyond_double_range_exits_2_promptly():
    # the objective overflows at its minimum, its one evaluation
    args, env = _cli_command(["constants", "--lieb-bound", "1e308,1.5"])
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert "outside the double range" in proc.stderr


# ---------------------------------------------------------------------------
# verify subcommand

TINY_CONFIG = {
    "schema": 1,
    "scenarios": [
        {
            "id": "tiny-a",
            "lattice": {"d": 1, "extents": [8], "h": 1.0, "bc": "dirichlet"},
            "operator": {"family": "laplacian"},
            "exponents": {"kappa": 1.5},
            "potential": {"seed": 5, "sigmas": [1.0], "draws": 1},
            "checks": ["CLR"],
        },
        {
            "id": "tiny-b",
            "lattice": {"d": 1, "extents": [6], "h": 1.0, "bc": "dirichlet"},
            "operator": {"family": "laplacian"},
            "exponents": {"gamma": 0.5, "kappa": 2.0, "gamma_tilde": 1.5},
            "potential": {"seed": 9, "sigmas": [0.5], "draws": 2},
            "checks": ["CLR", "LTmoment"],
            "heat_nash": {"grid_points": 12},
        },
    ],
}


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_verify_n1024_box_scenarios_take_no_dense_eigensolver(tmp_path, monkeypatch, capsys):
    # the 1-d Dirichlet and periodic Laplacians of the suite read T's
    # closed-form eigenvalues and apply its basis by FFTs, and the Dirichlet
    # path's draws count by the Sturm recurrence, so no eigh or eigvalsh
    # runs at all
    suite = cli._load_config("paper-suite")
    keep = ("clr-1d-n1024", "periodic-1d-n1024")
    cfg = dict(suite, scenarios=[s for s in suite["scenarios"] if s["id"] in keep])
    calls = []

    def counting(name):
        solver = getattr(np.linalg, name)

        def wrapped(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return solver(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    code = cli.main(["verify", "--config", _write_config(tmp_path, cfg),
                     "--out", str(tmp_path), "--jobs", "1"])
    capsys.readouterr()
    assert code == 0
    assert calls == []


def test_verify_tiny_config_artifacts(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, TINY_CONFIG)
    out1 = tmp_path / "run1"
    rc = cli.main(["verify", "--config", cfg_path, "--out", str(out1), "--jobs", "1"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "tiny-a:" in stdout and "tiny-b:" in stdout
    assert "wrote" in stdout

    report_path = out1 / "report.json"
    csv_path = out1 / "report.csv"
    payload = json.loads(report_path.read_text())
    assert payload["schema"] == 1
    assert payload["suite"]["n_scenarios"] == 2
    assert payload["suite"]["all_passed"] is True
    assert [r["scenario_id"] for r in payload["results"]] == ["tiny-a", "tiny-b"]

    csv_bytes = csv_path.read_bytes()
    assert b"\r" not in csv_bytes
    lines = csv_bytes.decode().splitlines()
    assert lines[0] == "scenario_id,theorem_tag,lhs,rhs,margin,pass,assumption_status"
    n_reports = sum(len(r["reports"]) for r in payload["results"])
    assert len(lines) == 1 + n_reports
    for line in lines[1:]:
        cols = line.split(",")
        assert len(cols) == 7
        assert cols[5] in ("true", "false")

    # rerun into a second directory: artifacts must be byte-identical
    out2 = tmp_path / "run2"
    rc = cli.main(["verify", "--config", cfg_path, "--out", str(out2), "--jobs", "1"])
    capsys.readouterr()
    assert rc == 0
    assert (out2 / "report.json").read_bytes() == report_path.read_bytes()
    assert (out2 / "report.csv").read_bytes() == csv_bytes


def test_verify_report_writes_flags_as_json_booleans(tmp_path, capsys):
    # the vacuity of S and S_interp and the Beurling-Deny verdict and its
    # parts are written true/false, as each report's `passed` is, not 1/0
    rc = cli.main(["verify", "--config", _write_config(tmp_path, TINY_CONFIG),
                   "--out", str(tmp_path), "--jobs", "1"])
    capsys.readouterr()
    assert rc == 0
    text = (tmp_path / "report.json").read_text()
    res = {r["scenario_id"]: r for r in json.loads(text)["results"]}["tiny-b"]
    detail = res["assumptions"]["beurling_deny_detail"]
    flags = [res["extras"]["sobolev"]["vacuous"], res["extras"]["interp"]["vacuous"],
             res["assumptions"]["beurling_deny"], detail["is_real"], detail["cond2"],
             detail["cond3"]]
    assert [type(f) for f in flags] == [bool] * 6
    assert flags == [False, False, True, True, True, True]
    assert '"vacuous": false' in text and '"beurling_deny": true' in text


def test_verify_summary_names_reasons(tmp_path, capsys):
    """Each non-pass count on a scenario's summary line names the distinct
    reasons of its reports, from ``extras.reason``; the artifacts are those
    of the same run with the summary discarded."""
    ring = {"id": "ring", "lattice": {"d": 1, "extents": [8], "bc": "periodic"},
            "exponents": {"gamma": 1.0, "kappa": 1.5},
            "potential": {"seed": 3, "sigmas": [1.0], "draws": 2},
            "checks": ["CLR", "weakLT"], "heat_nash": True}
    cfg_path = _write_config(tmp_path, {"schema": 1,
                                         "scenarios": [ring, TINY_CONFIG["scenarios"][0]]})
    assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
    kernel = "S = 0 (operator has kernel)"
    assert capsys.readouterr().out.splitlines()[:2] == [
        f"ring: 0 pass, 0 fail, 0 n/a, 7 vacuous (CLR: {kernel}; "
        f"weakLT: S_interp = 0 (operator has kernel); heatBound: {kernel}; nash: {kernel})",
        "tiny-a: 1 pass, 0 fail, 0 n/a, 0 vacuous"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
    for name in ("report.json", "report.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # a fail names its tag, an assumption failure the assumption
    reports = [
        {"tag": "CLR", "status": "fail", "extras": {}, "assumptions": {"status": "passed"}},
        {"tag": "CLR", "status": "not-applicable", "extras": {},
         "assumptions": {"beurling_deny": "failed", "status": "failed"}},
        {"tag": "heatBound", "status": "not-applicable", "extras": {},
         "assumptions": {"beurling_deny": "failed", "status": "failed"}},
        {"tag": "nash", "status": "pass", "extras": {}, "assumptions": {}}]
    assert cli._summary_line({"scenario_id": "x", "reports": reports}) == (
        "x: 1 pass, 1 fail (CLR), 2 n/a (CLR: beurling_deny failed; "
        "heatBound: beurling_deny failed), 0 vacuous")


def test_verify_seed_override_changes_draws(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, TINY_CONFIG)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["verify", "--config", cfg_path, "--out", str(out1),
                     "--jobs", "1", "--seed", "123"]) == 0
    assert cli.main(["verify", "--config", cfg_path, "--out", str(out2),
                     "--jobs", "1", "--seed", "124"]) == 0
    capsys.readouterr()
    a = json.loads((out1 / "report.json").read_text())
    b = json.loads((out2 / "report.json").read_text())
    lhs_a = [r["lhs"] for res in a["results"] for r in res["reports"]]
    lhs_b = [r["lhs"] for res in b["results"] for r in res["reports"]]
    assert lhs_a != lhs_b


def test_verify_caps_workers_at_one_per_scenario(tmp_path, monkeypatch):
    import concurrent.futures

    seen = []

    class RecordingPool:
        # stands in for the process pool: records its size, maps in-process
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg_path = _write_config(tmp_path, TINY_CONFIG)     # two scenarios
    one_path = _write_config(tmp_path, dict(TINY_CONFIG, scenarios=TINY_CONFIG["scenarios"][:1]),
                             "one.json")
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--config", cfg_path, "--out", out, "--jobs", "64"]) == 0
    # one worker, asked for, by default or left after the cap, runs serially;
    # a worker count left in the environment is not read
    monkeypatch.setenv("INEQLAB_JOBS", "1000")
    assert cli.main(["verify", "--config", cfg_path, "--out", out]) == 0
    assert cli.main(["verify", "--config", one_path, "--out", out, "--jobs", "64"]) == 0
    assert cli.main(["verify", "--config", cfg_path, "--out", out, "--jobs", "1"]) == 0
    assert seen == [2]


# env: a worker count left in the environment, which nothing reads
@pytest.mark.parametrize("jobs, env, name", [
    ("-3", None, "--jobs"), ("0", None, "--jobs"), ("0", "4", "--jobs")])
def test_verify_bad_worker_count_exits_2(tmp_path, capsys, monkeypatch, jobs, env, name):
    if env is not None:
        monkeypatch.setenv("INEQLAB_JOBS", env)
    out = tmp_path / "out"
    argv = ["verify", "--config", _write_config(tmp_path, TINY_CONFIG), "--out", str(out)]
    assert cli.main(argv + ["--jobs", jobs]) == 2
    assert f"config error: {name}: must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_invalid_configs_exit_2(tmp_path, capsys):
    assert cli.main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    assert "config error" in capsys.readouterr().err

    assert cli.main(["verify", "--config", _write_config(tmp_path, TINY_CONFIG, "ok.json"),
                     "--seed", "-1"]) == 2
    assert "--seed: must be an integer >= 0" in capsys.readouterr().err

    bad = dict(TINY_CONFIG, schema=2)
    assert cli.main(["verify", "--config", _write_config(tmp_path, bad, "bad1.json"),
                     "--out", str(tmp_path / "o1")]) == 2
    assert "schema" in capsys.readouterr().err

    bad = json.loads(json.dumps(TINY_CONFIG))
    bad["scenarios"][0]["exponents"]["kappa"] = 0.9
    assert cli.main(["verify", "--config", _write_config(tmp_path, bad, "bad2.json"),
                     "--out", str(tmp_path / "o2")]) == 2
    assert "kappa" in capsys.readouterr().err

    # checks the scenario's operator family or exponents cannot support
    for i, (over, field) in enumerate([
            ({"checks": ["magneticCLR"]}, "checks"),
            ({"checks": ["diamagnetic"]}, "checks"),
            ({"checks": ["gsrIdentity"]}, "checks"),
            ({"checks": [], "heat_nash": True, "exponents": {}}, "exponents.kappa"),
            # the weak constant's theta = kappa/(gamma + kappa) must lie below 1
            ({"checks": ["weakLT"], "exponents": {"gamma": 0, "kappa": 1.5}},
             "exponents.gamma"),
            # malformed field types
            ({"operator": "laplacian"}, "operator"),
            ({"exponents": []}, "exponents"),
            ({"potential": []}, "potential"),
            ({"potential": {"seed": 5, "sigmas": ["a"]}}, "potential.sigmas"),
            ({"potential": {"seed": 5, "sigmas": [1.0], "draws": "x"}}, "potential.draws"),
            ({"potential": {"seed": 5, "sigmas": [1.0], "draws": 0}}, "potential.draws"),
            # one value per site: tiny-a has 8 sites
            ({"potential": {"values": [0.5, 1.0]}}, "potential.values"),
            ({"lattice": {"d": 1, "extents": [8], "exclusions": [[9]]}},
             "lattice.exclusions"),
            # a JSON boolean is not a number, though Python's bool is an int
            ({"lattice": {"d": True, "extents": [8]}}, "lattice.d"),
            ({"lattice": {"d": 1, "extents": [8], "h": True}}, "lattice.h"),
            ({"potential": {"seed": True, "sigmas": [1.0], "draws": 1}}, "potential.seed"),
            ({"potential": {"seed": 5, "sigmas": [True], "draws": 1}}, "potential.sigmas"),
            ({"potential": {"seed": 5, "sigmas": [1.0], "draws": True}}, "potential.draws"),
            ({"potential": {"values": [True] * 8}}, "potential.values"),
            ({"seed": True}, "seed"),
            ({"seed": "x"}, "seed"),
            # fields that are read: each checked, even when no check reads it
            # a field that left the schema: any value exits 2
            ({"heat_nash": {"nash_samples": 2000}}, "heat_nash.nash_samples"),
            ({"heat_nash": {"grid_points": "x"}}, "heat_nash.grid_points"),
            ({"heat_nash": {"grid_points": 0}}, "heat_nash.grid_points"),
            ({"potential": {"seed": 5, "adversarial": ["a"]}}, "potential.adversarial"),
            ({"potential": {"seed": 5, "adversarial": [-1]}}, "potential.adversarial"),
            # random-draw fields that explicit values leave unread
            ({"potential": {"values": [1.0] * 8, "seed": 5}}, "potential.seed"),
            ({"potential": {"values": [1.0] * 8, "sigmas": [1.0]}}, "potential.sigmas"),
            ({"potential": {"values": [1.0] * 8, "draws": 1}}, "potential.draws"),
            # kinds that do not exist and keys that are not in the schema
            ({"lattice": {"d": 1, "extents": [8], "bc": "periodic"}, "checks": [],
              "operator": {"family": "periodic", "W": {"kind": "sine"}}}, "operator.W.kind"),
            ({"potential": {"seed": 5, "sigma": [1.0]}}, "potential.sigma"),
            ({"potential": {"seed": 5, "floor": True}}, "potential.floor"),
            # blocks that left the schema: the tau grid is gone, the other
            # grids and the restart counts are constants
            ({"grids": {"tau": [1.0]}}, "grids"),
            ({"grids": {"s": [0.05, 0.25, 1.0, 5.0]}}, "grids"),
            ({"sobolev": {"restarts": 16}}, "sobolev"),
            ({"sobolev": {}}, "sobolev"),
            ({"checks": ["CLR"], "note": "x"}, "note"),
            # spacings whose form or spectrum leaves the normal double range:
            # 2d/h^2 underflows, 2d/h^2 overflows, h^d overflows, h^d is subnormal
            ({"lattice": {"d": 1, "extents": [8], "h": 1e200}}, "lattice.h"),
            ({"lattice": {"d": 1, "extents": [8], "h": 1e-200}}, "lattice.h"),
            ({"lattice": {"d": 3, "extents": [2, 2, 2], "h": 1e110}}, "lattice.h"),
            ({"lattice": {"d": 3, "extents": [2, 2, 2], "h": 1e-105}}, "lattice.h"),
            # the moment identity left the suite for a tier-1 property; the
            # heat_nash block's tags are emitted by that block, never listed
            ({"checks": ["CLR", "momentIdentity"]}, "checks"),
            ({"checks": ["heatBound"]}, "checks")]):
        bad = json.loads(json.dumps(TINY_CONFIG))
        bad["scenarios"][0].update(over)
        out = tmp_path / f"o{3 + i}"
        assert cli.main(["verify", "--config", _write_config(tmp_path, bad, f"bad{3 + i}.json"),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"scenario 'tiny-a'.{field}:" in captured.err
        # rejected before any scenario runs
        assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------------
# sweep subcommand

SWEEP_INSTANCE = {
    "lattice": {"d": 2, "extents": [3, 3], "h": 1.0, "bc": "dirichlet"},
    "operator": {"family": "laplacian"},
    "potential": {"values": [0.5, 1.25, 0.5, 3.0, 1.25, 0.5, 1.25, 3.0, 0.5]},
    "profile": {"a": 1.0},
}


def _sweep_config(axis, values, instance=None):
    return {"schema": 1, "sweep": {"axis": axis, "values": values,
                                   "instance": instance or dict(SWEEP_INSTANCE)}}


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_sweep_trotter_axis(tmp_path, capsys):
    cfg = _sweep_config("trotter_n", [1, 2, 4])
    out = tmp_path / "trotter.csv"
    rc = cli.main(["sweep", "--config", _write_config(tmp_path, cfg),
                   "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["n", "estimate", "exact", "bound", "rel_error", "n_panels",
                      "tail_ok"]
    assert [r["n"] for r in rows] == ["1", "2", "4"]
    assert all(r["tail_ok"] == "true" for r in rows)
    exact = {float(r["exact"]) for r in rows}
    assert len(exact) == 1
    errs = [float(r["rel_error"]) for r in rows]
    assert errs[2] < errs[1] < errs[0]
    for r in rows:
        assert float(r["bound"]) >= float(r["estimate"]) >= float(r["exact"])
    # the product formula with a single slice coincides with its own bound
    assert float(rows[0]["estimate"]) == float(rows[0]["bound"])


def test_sweep_trotter_order_over_budget_exits_2_at_once(tmp_path, capsys, monkeypatch):
    """Every swept order is checked against the work budget before the first
    one is computed: n = 446 on the bundled instance (about 6.5e10 units of
    work, a 129 MB count array) exits 2, names the order, computes no order,
    writes no CSV and allocates nothing large."""
    computed = []
    original = spectra.trotter_trace

    def recording(T, V, profile, n):
        computed.append(n)
        return original(T, V, profile, n)

    monkeypatch.setattr(spectra, "trotter_trace", recording)
    cfg = dict(cli._load_config("trotter-sweep"))
    cfg["sweep"] = dict(cfg["sweep"], values=[1, 446])
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "trotter.csv"
    tracemalloc.start()
    try:
        t0 = time.process_time()
        rc = cli.main(["sweep", "--config", path, "--out", str(out)])
        cpu = time.process_time() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert "n=446" in err and "Traceback" not in err
    assert computed == [] and not out.exists()
    assert cpu < 2.0 and peak < 4e6


def test_sweep_coupling_axis(tmp_path, capsys):
    inst = {
        "lattice": {"d": 1, "extents": [10], "h": 1.0, "bc": "dirichlet"},
        "operator": {"family": "laplacian"},
        "potential": {"values": [0.5, 1.5, 2.5, 0.5, 3.5, 1.0, 0.25, 2.0, 0.75, 1.25]},
        "kappa": 1.5,
    }
    cfg = _sweep_config("coupling", [0.25, 1.0, 4.0, 16.0], inst)
    out = tmp_path / "coupling.csv"
    assert cli.main(["sweep", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = _read_csv(out)
    assert header == ["c", "count", "integral", "ratio", "tie"]
    assert all(r["tie"] == "" for r in rows)
    counts = [int(r["count"]) for r in rows]
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]

    space = make_lattice(1, [10])
    T = build_laplacian(space)
    V0 = np.asarray(inst["potential"]["values"])
    for r in rows:
        c = float(r["c"])
        assert int(r["count"]) == spectra.count_below(T, c * V0, 0.0).n
        iv = integral(c * V0, 1.5, space, measure=T.measure)
        assert float(r["integral"]) == pytest.approx(iv, rel=1e-10)


def test_sweep_coupling_axis_counts_all_couplings_in_one_pass(tmp_path, monkeypatch,
                                                              capsys):
    side = 16                          # 256 sites: 8 inertia blocks of 32
    rng = np.random.default_rng(3)
    V0 = np.abs(rng.normal(0.0, 1.5, side * side))
    values = np.geomspace(0.05, 5.0, 12).tolist()
    inst = {"lattice": {"d": 2, "extents": [side, side], "h": 1.0, "bc": "dirichlet"},
            "operator": {"family": "laplacian"},
            "potential": {"values": V0.tolist()}, "kappa": 1.5}
    calls = []

    def counting(name):
        solver = getattr(np.linalg, name)

        def wrapped(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return solver(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    out = tmp_path / "coupling.csv"
    assert cli.main(["sweep", "--config",
                     _write_config(tmp_path, _sweep_config("coupling", values, inst)),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    # 24 pivot calls would fill the 8 blocks: one spectrum of the pencil
    # counts the axis, and its certificate decides every coupling
    assert calls == [("eigvalsh", (side * side, side * side))]

    # the per-coupling loop, one count_below call per coupling
    T = build_laplacian(make_lattice(2, [side, side]))
    rows = []
    for c in values:
        V = float(c) * V0
        counted = spectra.count_below(T, V, 0.0)
        iv = integral(V, 1.5, T.space, measure=T.measure)
        rows.append([float(c), counted.n, iv, (counted.n / iv if iv > 0 else 0.0),
                     counted.tie])
    want = tmp_path / "loop.csv"
    cli._write_csv(str(want), cli.SWEEP_HEADERS["coupling"], rows)
    assert out.read_bytes() == want.read_bytes()


def test_sweep_reports_ties(tmp_path, capsys):
    """On the periodic 8-ring with V = 0, 1, 0, 1, ... both couplings put an
    eigenvalue of T - cV at 0 up to rounding (the constant at c = 0, the
    alternating vector at c = 1).  The exact counts are 0 and 1, and the
    rounded ones may read 1 and 2, so each row names its tie."""
    inst = {"lattice": {"d": 1, "extents": [8], "bc": "periodic"},
            "potential": {"values": [0.0, 1.0] * 4}}
    out = tmp_path / "ring.csv"
    assert cli.main(["sweep", "--config",
                     _write_config(tmp_path, _sweep_config("coupling", [0.0, 1.0], inst)),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    _, rows = _read_csv(out)
    assert [r["c"] for r in rows] == ["0", "1"]
    for r in rows:
        assert 0.0 <= float(r["tie"]) < 1e-12, r


def test_sweep_flux_axis(tmp_path, capsys):
    inst = {
        "lattice": {"d": 2, "extents": [3, 3], "h": 1.0, "bc": "dirichlet"},
        "operator": {"family": "laplacian"},
        "potential": {"values": [0.5, 1.25, 0.5, 3.0, 1.25, 0.5, 1.25, 3.0, 0.5]},
    }
    cfg = _sweep_config("flux", [0.0, math.pi / 2], inst)
    out = tmp_path / "flux.csv"
    assert cli.main(["sweep", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = _read_csv(out)
    assert header == ["flux", "count_magnetic", "count_nonmagnetic", "tie_magnetic",
                      "tie_nonmagnetic"]
    assert all(r["tie_magnetic"] == r["tie_nonmagnetic"] == "" for r in rows)
    base = {r["count_nonmagnetic"] for r in rows}
    assert len(base) == 1
    # zero flux is gauge-equivalent to the plain operator
    assert rows[0]["count_magnetic"] == rows[0]["count_nonmagnetic"]
    # the magnetic count never exceeds the non-magnetic one (domination)
    for r in rows:
        assert int(r["count_magnetic"]) <= int(r["count_nonmagnetic"])


def test_sweep_tau_axis(tmp_path, capsys):
    cfg = _sweep_config("tau", [0.0, 0.1, 1.0, 10.0])
    out = tmp_path / "tau.csv"
    assert cli.main(["sweep", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = _read_csv(out)
    assert header == ["tau", "count", "tie"]
    assert all(r["tie"] == "" for r in rows)
    counts = [int(r["count"]) for r in rows]
    assert counts == sorted(counts, reverse=True)


def test_sweep_empty_values_header_only(tmp_path, capsys):
    cfg = _sweep_config("trotter_n", [])
    out = tmp_path / "empty.csv"
    assert cli.main(["sweep", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == "n,estimate,exact,bound,rel_error,n_panels,tail_ok\n"


def test_sweep_unknown_axis_exit_2(tmp_path, capsys):
    cfg = _sweep_config("bogus", [1, 2])
    assert cli.main(["sweep", "--config", _write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "axis" in capsys.readouterr().err


@pytest.mark.parametrize("axis,values,instance,field", [
    ("coupling", [1.0], {"operator": {"family": "laplacian"}}, "sweep.instance.lattice"),
    ("coupling", ["a", 1.0], None, "sweep.values"),
    ("flux", "0.5", None, "sweep.values"),
    ("tau", [0.0, -0.5], None, "sweep.values"),
    ("trotter_n", [0], None, "sweep.values"),
    ("coupling", [1.0], dict(SWEEP_INSTANCE, potential={"values": [0.5, 1.0, 2.0]}),
     "sweep.instance.potential.values"),
    ("flux", [0.5], dict(SWEEP_INSTANCE, lattice={"d": 1, "extents": [8]},
                         potential={"values": [1.0] * 8}), "sweep.instance.lattice.d"),
    ("coupling", [True, 1.0], None, "sweep.values"),
    ("trotter_n", [True], None, "sweep.values"),
    ("coupling", [1.0], dict(SWEEP_INSTANCE, potential={"values": [True] * 9}),
     "sweep.instance.potential.values"),
    ("coupling", [1.0], dict(SWEEP_INSTANCE, potential={"seed": 3.7}),
     "sweep.instance.potential.seed"),
    ("coupling", [1.0], dict(SWEEP_INSTANCE, potential={"sigma": "x"}),
     "sweep.instance.potential.sigma"),
    ("coupling", [1.0], dict(SWEEP_INSTANCE, kappa="x"), "sweep.instance.kappa"),
    ("coupling", [1.0], dict(SWEEP_INSTANCE, kappa=-1), "sweep.instance.kappa"),
    ("trotter_n", [1], dict(SWEEP_INSTANCE, profile={"a": 0}), "sweep.instance.profile.a"),
    # hinge is the only profile, so its kind is no key
    ("trotter_n", [1], dict(SWEEP_INSTANCE, profile={"kind": "box"}),
     "sweep.instance.profile.kind"),
    ("tau", [1.0], dict(SWEEP_INSTANCE, checks=["CLR"]), "sweep.instance.checks"),
    # random-draw fields that explicit values leave unread
    ("coupling", [1.0], dict(SWEEP_INSTANCE, potential=dict(SWEEP_INSTANCE["potential"], seed=0)),
     "sweep.instance.potential.seed"),
    ("coupling", [1.0],
     dict(SWEEP_INSTANCE, potential=dict(SWEEP_INSTANCE["potential"], sigma=1.0)),
     "sweep.instance.potential.sigma"),
    # the flux axis builds the magnetic Laplacian, so its base must be the Laplacian
    ("flux", [0.0], dict(SWEEP_INSTANCE, operator={"family": "fractional", "s": 0.5}),
     "sweep.instance.operator.family"),
    ("trotter_n", [1], dict(SWEEP_INSTANCE, profile={"kind": "hinge", "a": 1.0}),
     "sweep.instance.profile.kind"),
    ("coupling", [1.0], dict(SWEEP_INSTANCE, lattice=dict(SWEEP_INSTANCE["lattice"], h=1e200)),
     "sweep.instance.lattice.h"),
    ("coupling", [1.0], dict(SWEEP_INSTANCE, lattice=dict(SWEEP_INSTANCE["lattice"], h=1e-200)),
     "sweep.instance.lattice.h"),
])
def test_sweep_invalid_configs_exit_2(tmp_path, capsys, axis, values, instance, field):
    cfg = _sweep_config(axis, values, instance)
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# config fuzzing: a bundled config with one field broken

# field -> values that break its rule wherever the field stands
SCENARIO_BAD = {
    "lattice": ["x", 3, []],
    "lattice.d": [0, -1, 1.5, "x", True],
    "lattice.extents": [8, "x", [0], [[1]]],
    "lattice.h": [0, -1.0, "x", True, [1.0]],
    "lattice.bc": ["torus", 1],
    "lattice.exclusions": ["x", [[-1]], [[99, 99, 99]]],
    "operator": ["laplacian", [], 3],
    "operator.family": ["airy", 1, ["laplacian"]],
    "operator.s": [0, 1.5, "x"],
    "operator.phases": ["spiral", 1],
    "operator.flux": ["x", True],
    "operator.seed": [-1, 2.5, "x"],
    "operator.W": ["x", 1, [1.0]],
    "operator.W.kind": ["sine", 1],
    "operator.W.amplitude": ["x", [1.0]],
    "operator.W.harmonic": ["x", True],
    "exponents": ["x", []],
    "exponents.kappa": [1, 0.5, "x", True],
    "exponents.gamma": [0, -1, "x"],
    "exponents.gamma_tilde": [0, -2.0, "x"],
    "potential": ["x", [1]],
    "potential.values": ["x", [-1.0], [True]],
    "potential.seed": [-1, 3.7, "x", True],
    "potential.sigmas": [[], ["a"], [-1], [0], "x"],
    "potential.draws": [0, -5, 1.5, "x"],
    "potential.adversarial": [[], ["a"], [-1], "x"],
    "checks": ["CLR", [1], ["noSuchTag"]],
    "heat_nash": ["x", 1, []],
    "heat_nash.grid_points": [0, 1.5, "x"],
    "seed": [-1, 3.7, "x", True],
    # keys that left the schema: any value exits 2
    "heat_nash.nash_samples": [2000, -5, "x"],
    "grids": [{}, {"tau": [1.0]}, {"t": [0.1, 1.0, 10.0]}, "x"],
    "sobolev": [{}, {"restarts": 16}, {"sweep_restarts": 8}],
}
SWEEP_BAD = {
    "sweep.axis": ["bogus", 1],
    "sweep.values": ["x", [0], [True], [1.5]],
    "sweep.instance": ["x", []],
    "sweep.instance.potential.values": ["x", [1.0]],
    "sweep.instance.potential.seed": [-1, 3.7],
    "sweep.instance.potential.sigma": ["x", 0],
    "sweep.instance.profile": ["x"],
    "sweep.instance.profile.kind": ["hinge", "box"],   # not a key
    "sweep.instance.profile.a": [0, "x"],
    "sweep.instance.kappa": ["x", -1, 1],
    **{f"sweep.instance.{k}": v for k, v in SCENARIO_BAD.items()
       if k.split(".")[0] in ("lattice", "operator")},
}
SCENARIO_BLOCKS = ("", "lattice", "operator", "operator.W", "exponents", "potential",
                   "heat_nash")
SWEEP_BLOCKS = ("sweep", "sweep.instance", "sweep.instance.lattice", "sweep.instance.operator",
                "sweep.instance.potential", "sweep.instance.profile")
KNOWN_KEYS = ({k.split(".")[-1] for k in {**SCENARIO_BAD, **SWEEP_BAD}}
              | {"id", "schema", "scenarios", "sweep"})


def _at(obj, path):
    """The object at a dotted path, or None."""
    for key in filter(None, path.split(".")):
        obj = obj.get(key) if isinstance(obj, dict) else None
    return obj


@st.composite
def broken_configs(draw):
    """A bundled scenario (as a one-scenario suite) or the bundled sweep with
    one field set to a wrong type or an out-of-range value, or with an
    unknown key; returns the config and the field path the error names."""
    if draw(st.booleans()):
        sc = copy.deepcopy(draw(st.sampled_from(cli._load_config("paper-suite")["scenarios"])))
        cfg, root, prefix = {"schema": 1, "scenarios": [sc]}, sc, f"scenario {sc['id']!r}."
        table, blocks = SCENARIO_BAD, SCENARIO_BLOCKS
    else:
        cfg = cli._load_config("trotter-sweep")
        root, prefix, table, blocks = cfg, "", SWEEP_BAD, SWEEP_BLOCKS
    if draw(st.booleans()):
        block = draw(st.sampled_from([b for b in blocks if isinstance(_at(root, b), dict)]))
        key = draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)
                   .filter(lambda k: k not in KNOWN_KEYS))
        _at(root, block)[key] = 1
        return cfg, f"{prefix}{block}.{key}" if block else f"{prefix}{key}"
    # a missing scenario block reads as {}, so it may be made; deeper parents must exist
    fields = [f for f in table if isinstance(_at(root, f.rpartition(".")[0]), dict)
              or (root is not cfg and f.count(".") == 1 and _at(root, f.split(".")[0]) is None)]
    field = draw(st.sampled_from(fields))
    parent, _, leaf = field.rpartition(".")
    if parent and _at(root, parent) is None:
        root[parent] = {}
    _at(root, parent)[leaf] = draw(st.sampled_from(table[field]))
    return cfg, prefix + field


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=broken_configs())
def test_broken_config_field_exits_2_with_its_path(case):
    cfg, field = case
    command = "verify" if "scenarios" in cfg else "sweep"
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([command, "--config", path, "--out", os.path.join(tmp, "out")])
        assert not os.path.exists(os.path.join(tmp, "out"))
    assert rc == 2, err.getvalue()
    assert f"config error: {field}:" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_removed_nash_samples_exits_2_with_its_path(tmp_path, capsys):
    # the Nash probes are a fixed ladder, so the sample count the bundled
    # clr-1d-n1024 once set is an unknown key, named by its path
    sc = copy.deepcopy(next(s for s in cli._load_config("paper-suite")["scenarios"]
                            if s["id"] == "clr-1d-n1024"))
    sc["heat_nash"]["nash_samples"] = 2000
    path = _write_config(tmp_path, {"schema": 1, "scenarios": [sc]})
    assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert ("config error: scenario 'clr-1d-n1024'.heat_nash.nash_samples: unknown key"
            in err)
    assert not (tmp_path / "out").exists()


def test_bundled_configs_resolve():
    suite = cli._load_config("paper-suite")
    verify.validate_config(suite)
    assert len(suite["scenarios"]) >= 10
    sweep = cli._load_config("trotter-sweep")
    assert sweep["sweep"]["axis"] == "trotter_n"
    assert sweep["sweep"]["values"] == [1, 2, 4, 8, 16, 32]


# ---------------------------------------------------------------------------
# golden pin of the bundled suite

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "paper_suite_golden.json")

# Tags whose lhs is the relative residual of an identity, checked against a
# tolerance in rhs (verify_gsr_identity). Their lhs is rounding noise, so
# its last bits move with the BLAS build and thread count; the golden
# bounds it instead of pinning its digits.
RESIDUAL_TAGS = frozenset({"gsrIdentity"})

# Worst-case relative error of a recursive binary64 sum of n terms is about
# n * eps; n = 1024 is the largest lattice in the bundled suite, so
# RESIDUAL_FLOOR = 1024 * 2**-52 ~ 2.27e-13. That is ~90x above the largest
# golden residual (2.4e-15) and ~440x below the gsrIdentity tolerance
# (1e-10): a real break of the identity still fails the golden test.
RESIDUAL_FLOOR = 1024 * float(np.finfo(np.float64).eps)


def _structural_rows(payload, digits=6):
    rows = []
    for res in payload["results"]:
        for r in res["reports"]:
            rows.append([r["scenario_id"], r["tag"], r["status"],
                         format(float(r["lhs"]), f".{digits}g"),
                         format(float(r["rhs"]), f".{digits}g")])
    return rows


def _row_matches(row, golden_row):
    """A structural row matches its golden (or other run's) row exactly,
    except that an identity-residual lhs (and the golden's own) need only
    lie in [0, RESIDUAL_FLOOR]."""
    if row[1] not in RESIDUAL_TAGS:
        return row == golden_row
    return (row[:3] == golden_row[:3] and row[4] == golden_row[4]
            and 0.0 <= float(row[3]) <= RESIDUAL_FLOOR
            and 0.0 <= float(golden_row[3]) <= RESIDUAL_FLOOR)


def _golden_mismatches(rows, golden_rows):
    assert len(rows) == len(golden_rows)
    return [(i, row, want) for i, (row, want) in enumerate(zip(rows, golden_rows))
            if not _row_matches(row, want)]


def test_bundled_suite_matches_golden(suite_run):
    golden = json.loads(open(GOLDEN_PATH).read())
    payload = suite_run["report"]
    assert payload["suite"] == golden["suite"]
    assert _golden_mismatches(_structural_rows(payload), golden["rows"]) == []


# the comparison itself, on synthetic rows shaped like the golden's

GSR12_ROW = ["ring-schrodinger-n12", "gsrIdentity", "pass", "3.80886e-16", "1e-10"]
GSR_ROW = ["ring-schrodinger-n16", "gsrIdentity", "pass", "1.00556e-14", "1e-10"]
LT_ROW = ["clr-1d-n32", "LTmoment", "pass", "0.413677", "259.015"]


def _with(row, index, value):
    out = list(row)
    out[index] = value
    return out


def test_golden_residual_one_ulp_change_matches():
    # a residual of 2 ulps of a value, and of 1 ulp, both match the golden
    value = 8470.420385369971
    for ulps, expect in ((2, "4.29492e-16"), (1, "2.14746e-16")):
        moved = value
        for _ in range(ulps):
            moved = float(np.nextafter(moved, math.inf))
        rel = abs(value - moved) / max(abs(value), abs(moved))
        row = _with(GSR12_ROW, 3, format(rel, ".6g"))
        assert row[3] == expect
        assert _row_matches(row, GSR12_ROW)
    assert _row_matches(_with(GSR12_ROW, 3, "0"), GSR12_ROW)
    assert _row_matches(_with(GSR_ROW, 3, "3.80886e-16"), GSR_ROW)


@pytest.mark.parametrize("golden_row", [GSR12_ROW, GSR_ROW])
@pytest.mark.parametrize("lhs", ["1e-12", "2.28e-13", "-1e-16", "nan"])
def test_golden_residual_off_floor_fails(golden_row, lhs):
    assert not _row_matches(_with(golden_row, 3, lhs), golden_row)
    # the golden's own residual is held to the same bound
    assert not _row_matches(golden_row, _with(golden_row, 3, lhs))


@pytest.mark.parametrize("golden_row", [GSR12_ROW, GSR_ROW, LT_ROW])
@pytest.mark.parametrize("index,value", [
    (0, "clr-1d-n32x"), (1, "CLR"), (2, "fail"), (4, "1.00001e-06"), (4, "259.016")])
def test_golden_row_field_change_fails(golden_row, index, value):
    assert _row_matches(golden_row, golden_row)
    assert not _row_matches(_with(golden_row, index, value), golden_row)


def test_golden_residual_tag_swap_fails():
    assert not _row_matches(_with(GSR12_ROW, 1, "CLR"), GSR12_ROW)
    assert not _row_matches(_with(GSR_ROW, 1, "nash"), GSR_ROW)


def test_golden_non_residual_lhs_sixth_digit_fails():
    assert not _row_matches(_with(LT_ROW, 3, "0.413678"), LT_ROW)
    assert not _row_matches(_with(LT_ROW, 3, "4.13677e-16"), LT_ROW)


def test_golden_residual_rows_sit_under_floor():
    rows = json.loads(open(GOLDEN_PATH).read())["rows"]
    residual = [r for r in rows if r[1] in RESIDUAL_TAGS]
    assert len(residual) == 2
    for r in residual:
        assert 0.0 <= float(r[3]) <= RESIDUAL_FLOOR / 20
        assert RESIDUAL_FLOOR <= float(r[4]) / 400


# the determinism contract, run on the two 1024-site scenarios, one small
# counting scenario and the two scenarios of the gsrIdentity and diamagnetic checks
CONTRACT_SCENARIOS = ("clr-1d-n32", "clr-1d-n1024", "periodic-1d-n1024",
                      "ring-schrodinger-n16", "diamag-4x4-torus")


def test_determinism_contract_across_blas_threads(tmp_path, suite_config):
    """For one build, report.json is fixed to the byte.  Across BLAS thread
    counts the statuses and every non-residual row are fixed at 12 digits,
    and every residual row lies in [0, RESIDUAL_FLOOR]."""
    cfg = dict(suite_config, scenarios=[sc for sc in suite_config["scenarios"]
                                        if sc["id"] in CONTRACT_SCENARIOS])
    assert len(cfg["scenarios"]) == len(CONTRACT_SCENARIOS)
    cfg_path = _write_config(tmp_path, cfg)
    runs, payloads = {}, {}
    try:
        # three concurrent runs: two at one BLAS thread, one at two
        for name, threads in (("a", 1), ("b", 1), ("c", 2)):
            env = {k: str(threads) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            args, env = _cli_command(["verify", "--config", cfg_path,
                                      "--out", str(tmp_path / name), "--jobs", "1"], env)
            runs[name] = subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL,
                                          stderr=subprocess.PIPE, text=True)
        for name, proc in runs.items():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            payloads[name] = (tmp_path / name / "report.json").read_bytes()
    finally:
        for proc in runs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert payloads["a"] == payloads["b"]
    one, two = (_structural_rows(json.loads(payloads[k]), digits=12) for k in "ac")
    assert _golden_mismatches(two, one) == []


def _cli_command(argv, env_extra=None):
    """(args, env) that run ``python -m ineqlab.cli argv`` in a fresh
    interpreter on this checkout, with ``env_extra`` set."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **(env_extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "ineqlab.cli", *argv], env


def _modules_after_cli_import(*prefixes):
    # the loaded modules named by prefixes after a fresh `import ineqlab.cli`
    code = ("import sys, ineqlab.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")
    _, env = _cli_command([])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_cli_import_leaves_scipy_unloaded():
    """The package needs numpy alone; scipy stays a test-only oracle.

    Measured with numpy 2.4.6 and scipy 1.17.1 at one BLAS thread:
    importing scipy.sparse after numpy adds about 0.3 s of CPU and 22 MB
    of peak RSS (scipy.sparse.linalg: 0.4 s, 32 MB), and a CSR variant of
    the sparse form product raised the peak RSS of the two 1024-site
    suite scenarios from 101.0 to 118.5 MB, where the numpy row list
    lowered it to 93.9 MB.  Every run of the CLI would pay that cost.
    """
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_leaves_process_pool_unloaded():
    # only `verify --jobs N` with N > 1 runs a process pool; importing it
    # at module load pulls in multiprocessing, socket and subprocess
    assert _modules_after_cli_import("concurrent.futures.process", "multiprocessing") == "[]"


def test_bundled_commands_run_with_numpy_alone(tmp_path):
    """`verify --config paper-suite` and `sweep --config trotter-sweep` exit
    0 in a fresh interpreter where scipy, mpmath and hypothesis cannot be
    imported, as after `pip install -e .` with no extras."""
    code = ("import sys\n"
            "for name in ('scipy', 'mpmath', 'hypothesis'):\n"
            "    sys.modules[name] = None\n"
            "from ineqlab import cli\n"
            "out = sys.argv[1]\n"
            "sys.exit(cli.main(['verify', '--config', 'paper-suite', '--out', out])\n"
            "         or cli.main(['sweep', '--config', 'trotter-sweep',\n"
            "                      '--out', out + '/trotter.csv']))\n")
    _, env = _cli_command([])
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").exists() and (tmp_path / "trotter.csv").exists()
