"""Command-line front end: scenario configs in, machine-readable reports out.

Subcommands:
  constants  closed-form constants (Hardy coupling, counting-bound
             minimization, moment-lifting factor, exponent relations)
  verify     run a scenario suite, write report.json / report.csv,
             exit 0 only when every applicable check passes
  sweep      one-axis parameter sweeps to CSV (trotter_n, coupling,
             flux, tau)

All outputs are deterministic functions of the config: floats are
serialized with 17 significant digits in JSON (binary64 round-trip
exact) and 12 in tables; scenario results are merged in scenario-id
order regardless of --jobs.
"""

from __future__ import annotations

import argparse
import json
import json.encoder
import math
import os
import sys
from importlib import resources

import numpy as np

from . import functional, operators, spectra, verify
from .lattice import exponents_from_gamma_kappa, integral

BUNDLED_CONFIGS = {
    "paper-suite": "paper_suite.json",
    "trotter-sweep": "trotter_sweep.json",
}


def _float17(f: float) -> str:
    if not math.isfinite(f):
        raise ValueError(f"non-finite float in report payload: {f}")
    return format(f, ".17g")


def dumps_json(obj) -> str:
    """json.dumps with floats at 17 significant digits."""
    enc = json.encoder._make_iterencode(
        {}, None, json.encoder.encode_basestring_ascii, 2, _float17,
        ": ", ",", False, False, False)
    return "".join(enc(obj, 0)) + "\n"


def _fmt_table(v) -> str:
    """Human-table number format: up to 12 fractional digits, trimmed."""
    if isinstance(v, float):
        if v != 0.0 and (abs(v) >= 1e6 or abs(v) < 1e-4):
            return format(v, ".12g")
        s = format(v, ".12f").rstrip("0").rstrip(".")
        return s if s else "0"
    return str(v)


def _fmt_csv(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _write_csv(path: str, header: list, rows: list):
    # RFC-4180 style: comma-separated, LF endings, no locale dependence
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_csv(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_config(name_or_path: str) -> dict:
    if name_or_path in BUNDLED_CONFIGS:
        ref = resources.files("ineqlab").joinpath("data", BUNDLED_CONFIGS[name_or_path])
        return json.loads(ref.read_text())
    if not os.path.exists(name_or_path):
        raise verify.ConfigError(f"config not found: {name_or_path}")
    with open(name_or_path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# constants


def _parse_floats(text: str, n: int, flag: str) -> list:
    parts = text.split(",")
    if len(parts) != n:
        raise verify.ConfigError(f"{flag} expects {n} comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise verify.ConfigError(f"{flag}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise verify.ConfigError(f"{flag} expects finite numbers, got {text!r}")
    return values


def cmd_constants(args) -> int:
    rows = []
    payload = {}
    if args.hardy:
        s, d = _parse_floats(args.hardy, 2, "--hardy")
        v = functional.hardy_constant(s, d)
        rows.append((f"hardy_C(s={s:g}, d={d:g})", v))
        payload["hardy"] = {"s": s, "d": d, "value": v}
    if args.lieb_bound:
        K, kappa = _parse_floats(args.lieb_bound, 2, "--lieb-bound")
        b = functional.lieb_bound_from_K(K, kappa)
        rows.append((f"lieb_L(K={K:g}, kappa={kappa:g})", b.value))
        rows.append(("lieb_a_star", b.a_star))
        payload["lieb_bound"] = {"K": K, "kappa": kappa, "value": b.value,
                                 "a_star": b.a_star}
    if args.al_factor:
        g, gt, k = _parse_floats(args.al_factor, 3, "--al-factor")
        v = functional.aizenman_lieb_factor(g, gt, k)
        rows.append((f"al_factor({g:g}, {gt:g}, {k:g})", v))
        payload["al_factor"] = {"gamma": g, "gamma_tilde": gt, "kappa": k, "value": v}
    if args.exponents:
        g, k = _parse_floats(args.exponents, 2, "--exponents")
        e = exponents_from_gamma_kappa(g, k)
        rows.append(("q", e.q))
        rows.append(("theta", e.theta))
        payload["exponents"] = {"gamma": g, "kappa": k, "q": e.q, "theta": e.theta}
    if not rows:
        raise verify.ConfigError(
            "constants: give at least one of --hardy, --lieb-bound, --al-factor, --exponents")
    width = max(len(name) for name, _ in rows)
    for name, v in rows:
        print(f"{name:<{width}}  {_fmt_table(v)}")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(dumps_json(payload))
    return 0


# ---------------------------------------------------------------------------
# verify


def _csv_rows(results: list) -> list:
    rows = []
    for res in results:
        for r in res["reports"]:
            if r["status"] in ("not-applicable", "vacuous"):
                astatus = r["status"]
            else:
                astatus = r["assumptions"].get("status", "passed")
            rows.append([r["scenario_id"], r["tag"], float(r["lhs"]), float(r["rhs"]),
                         float(r["margin"]), bool(r["passed"]), astatus])
    return rows


def _reason(rep: dict) -> str:
    """``tag: reason`` of a non-pass report: its ``extras.reason``, else the
    assumptions it failed, else the tag alone (a fail)."""
    reason = rep["extras"].get("reason")
    if reason is None:
        failed = [k for k, v in rep["assumptions"].items() if k != "status" and v == "failed"]
        reason = ", ".join(f"{k} failed" for k in failed) or None
    return rep["tag"] if reason is None else f"{rep['tag']}: {reason}"


def _summary_line(res: dict) -> str:
    """One scenario's status counts; each non-pass count names the distinct
    reasons of its reports (``_reason``)."""
    parts = []
    for status, label in (("pass", "pass"), ("fail", "fail"),
                          ("not-applicable", "n/a"), ("vacuous", "vacuous")):
        reps = [r for r in res["reports"] if r["status"] == status]
        text = f"{len(reps)} {label}"
        if status != "pass" and reps:
            text += f" ({'; '.join(dict.fromkeys(_reason(r) for r in reps))})"
        parts.append(text)
    return f"{res['scenario_id']}: {', '.join(parts)}"


def _jobs(args) -> int:
    """The requested worker count: --jobs, default 1."""
    if args.jobs < 1:
        raise verify.ConfigError(f"--jobs: must be an integer >= 1, got {args.jobs}")
    return args.jobs


def cmd_verify(args) -> int:
    scenarios = verify.validate_config(_load_config(args.config))["scenarios"]
    if args.seed is not None:
        if args.seed < 0:
            raise verify.ConfigError("--seed: must be an integer >= 0")
        for sc in scenarios:
            if sc["potential"]["seed"] is not None:
                sc["potential"]["seed"] = args.seed
    workers = min(_jobs(args), len(scenarios))
    if workers > 1:
        # imported here: the process pool pulls in multiprocessing, socket
        # and subprocess, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(verify.run_scenario_jsonable, scenarios))
    else:
        results = [verify.run_scenario_jsonable(sc) for sc in scenarios]
    results.sort(key=lambda r: r["scenario_id"])

    n_reports = sum(len(r["reports"]) for r in results)
    n_failed = sum(1 for r in results for rep in r["reports"] if rep["status"] == "fail")
    payload = {
        "schema": 1,
        "suite": {"n_scenarios": len(results), "n_reports": n_reports,
                  "n_failed": n_failed, "all_passed": n_failed == 0},
        "results": results,
    }
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w", newline="\n") as fh:
        fh.write(dumps_json(payload))
    csv_path = os.path.join(out_dir, "report.csv")
    _write_csv(csv_path, ["scenario_id", "theorem_tag", "lhs", "rhs", "margin",
                          "pass", "assumption_status"], _csv_rows(results))

    for res in results:
        print(_summary_line(res))
    print(f"wrote {json_path} and {csv_path}")
    return 0 if n_failed == 0 else 1


# ---------------------------------------------------------------------------
# sweep


def _sweep_instance(inst: dict):
    """Space, operator and potential of a normalized sweep instance: built as
    a scenario's are, with a random potential as its single draw."""
    space, T, _, _, _ = verify._build_instance(inst)
    pot = inst["potential"]
    (_, V), = verify._draw_potentials(T, dict(pot, sigmas=[pot["sigma"]], draws=1),
                                      positive_floor=False)
    return space, T, V


SWEEP_HEADERS = {
    "trotter_n": ["n", "estimate", "exact", "bound", "rel_error", "n_panels", "tail_ok"],
    "coupling": ["c", "count", "integral", "ratio", "tie"],
    "flux": ["flux", "count_magnetic", "count_nonmagnetic", "tie_magnetic", "tie_nonmagnetic"],
    "tau": ["tau", "count", "tie"],
}


def _sweep_rows(axis: str, values: list, inst: dict) -> list:
    """One CSV row per swept value on a normalized sweep instance."""
    space, T, V = _sweep_instance(inst)
    rows = []
    if axis == "trotter_n":
        profile = spectra.hinge_profile(inst["profile"]["a"])
        spectra.check_trotter_orders(T, V, values)
        for n in values:
            t = spectra.trotter_trace(T, V, profile, n)
            rows.append([n, t.estimate, t.exact, t.bound, t.rel_error, t.n_panels, t.tail_ok])
    elif axis == "coupling":
        for c, counted in zip(values, spectra.count_couplings(T, V, values)):
            iv = integral(c * V, inst["kappa"], space, measure=T.measure)
            rows.append([c, counted.n, iv, (counted.n / iv if iv > 0 else 0.0), counted.tie])
    elif axis == "flux":
        base = spectra.count_below(T, V, 0.0)
        for phi in values:
            phases = operators.uniform_flux_phases(space, phi)
            T_A = operators.build_magnetic_laplacian(space, phases)
            magnetic = spectra.count_below(T_A, V, 0.0)
            rows.append([phi, magnetic.n, base.n, magnetic.tie, base.tie])
    else:  # tau
        eigs = spectra.schrodinger_eigenvalues(T, V)
        scale = float(np.max(np.abs(eigs)))
        for tau in values:
            counted = spectra.count_from_eigenvalues(eigs, tau, scale=scale)
            rows.append([tau, counted.n, counted.tie])
    return rows


def cmd_sweep(args) -> int:
    sweep = verify.validate_sweep(_load_config(args.config))
    axis, values = sweep["axis"], sweep["values"]
    rows = _sweep_rows(axis, values, sweep["instance"]) if values else []
    out_path = args.out or "sweep.csv"
    _write_csv(out_path, SWEEP_HEADERS[axis], rows)
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ineqlab",
                                description="lattice laboratory for kinetic-form "
                                            "inequalities and their constants")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("constants", help="closed-form constants and exponent relations")
    pc.add_argument("--hardy", metavar="s,d")
    pc.add_argument("--lieb-bound", metavar="K,kappa")
    pc.add_argument("--al-factor", metavar="g,gt,k")
    pc.add_argument("--exponents", metavar="gamma,kappa")
    pc.add_argument("--out", metavar="PATH")
    pc.set_defaults(func=cmd_constants)

    pv = sub.add_parser("verify", help="run a scenario suite and write reports")
    pv.add_argument("--config", required=True,
                    help="config path or bundled name (paper-suite)")
    pv.add_argument("--out", metavar="DIR", help="output directory (default .)")
    pv.add_argument("--jobs", type=int, default=1,
                    help="worker processes, at most one per scenario (default 1)")
    pv.add_argument("--seed", type=int, default=None,
                    help="override every scenario's potential seed")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("sweep", help="one-axis parameter sweep to CSV")
    ps.add_argument("--config", required=True,
                    help="config path or bundled name (trotter-sweep)")
    ps.add_argument("--out", metavar="PATH", help="output CSV path (default sweep.csv)")
    ps.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except verify.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
