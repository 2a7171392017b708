"""Theorem-level verification: operators, spectra, and constants assembled
into pass/fail reports for the counting bounds, moment bounds, magnetic
comparisons, trace bounds, and the structural identities behind them.

Margins are relative to the right-hand side with a 1e-9 floor so that
eigensolver noise cannot flip a proved inequality into a failure.  When
an assumption fails (Beurling-Deny, positivity) the verdict is
"not-applicable"; when a constant vanishes (operator with kernel) it is
"vacuous".  Neither counts as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import functional, operators, spectra
from .lattice import (as_potential, exponents_from_gamma_kappa,
                      exponents_from_q_theta, integral, make_lattice)

MARGIN_REL = 1e-9

OPERATOR_FAMILIES = ("laplacian", "fractional", "magnetic", "periodic", "hardy")


@dataclass(frozen=True)
class CheckNeeds:
    """What a check reads from its scenario."""

    exponents: tuple[str, ...] = ()  # exponent fields it reads
    per_draw: bool = False           # runs once per potential draw
    constant: str | None = None      # Sobolev constant it reads: "S" or "S_interp"
    family: str | None = None        # operator family it requires; None = any


CHECK_NEEDS = {
    "CLR": CheckNeeds(("kappa",), per_draw=True, constant="S"),
    "weakLT": CheckNeeds(("kappa", "gamma"), per_draw=True, constant="S_interp"),
    "LTmoment": CheckNeeds(("kappa", "gamma", "gamma_tilde"), per_draw=True,
                           constant="S_interp"),
    "diamagnetic": CheckNeeds(family="magnetic"),
    "magneticCLR": CheckNeeds(("kappa",), per_draw=True, constant="S", family="magnetic"),
    "liyauTrace": CheckNeeds(("kappa",), per_draw=True, constant="S"),
    "momentIdentity": CheckNeeds(("gamma_tilde",), per_draw=True),
    "gsrIdentity": CheckNeeds(family="periodic"),
}

# the heat-kernel and Nash block of a scenario reads S at exponent kappa
HEAT_NASH_NEEDS = CheckNeeds(("kappa",), constant="S")

THEOREM_TAGS = tuple(CHECK_NEEDS)

# exponent field -> (rule, message); gamma >= 0 with kappa > 1 gives the
# gamma + kappa > 1 the weak bounds need
_EXPONENT_RULES = {
    "kappa": (lambda x: x > 1, "must be > 1 for counting/moment/heat checks"),
    "gamma": (lambda x: x >= 0, "must be >= 0"),
    "gamma_tilde": (lambda x: x > 0, "must be > 0"),
}


class ConfigError(ValueError):
    """Scenario configuration rejected at validation, with a field path."""


def _py(x):
    """Recursively convert numpy containers/scalars to plain Python."""
    if isinstance(x, dict):
        return {k: _py(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_py(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_py(v) for v in x.tolist()]
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    return x


@dataclass
class VerificationReport:
    scenario_id: str
    tag: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    status: str                 # pass | fail | not-applicable | vacuous
    assumptions: dict = field(default_factory=dict)
    ties: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "scenario_id": self.scenario_id, "tag": self.tag,
            "lhs": _py(self.lhs), "rhs": _py(self.rhs),
            "margin": _py(self.margin), "passed": bool(self.passed),
            "status": self.status, "assumptions": _py(self.assumptions),
            "ties": _py(self.ties), "extras": _py(self.extras),
        }


def make_report(scenario_id: str, tag: str, lhs: float, rhs: float, *,
                assumptions=None, ties=(), extras=None, scale: float = 0.0,
                applicable: bool = True, vacuous: bool = False) -> VerificationReport:
    """Verdict with the relative-margin pass rule.

    pass iff margin = rhs - lhs >= -1e-9 * max(|rhs|, scale); an extra
    scale floor covers comparisons whose right side is identically zero
    (domination margins).  Assumption failures yield "not-applicable"
    and vacuous constants yield "vacuous"; neither is a failure.
    """
    if tag not in THEOREM_TAGS:
        raise ValueError(f"unknown theorem tag {tag!r}")
    margin = rhs - lhs
    if vacuous:
        status, passed = "vacuous", True
    elif not applicable:
        status, passed = "not-applicable", True
    elif margin >= -MARGIN_REL * max(abs(rhs), scale):
        status, passed = "pass", True
    else:
        status, passed = "fail", False
    return VerificationReport(
        scenario_id=scenario_id, tag=tag, lhs=float(lhs), rhs=float(rhs),
        margin=float(margin), passed=passed, status=status,
        assumptions=dict(assumptions or {}), ties=list(ties),
        extras=dict(extras or {}))


def _assumption_block(bd, s_provenance: str) -> dict:
    block = {"S_provenance": s_provenance}
    if bd is None:
        block["beurling_deny"] = "not-checked"
        block["status"] = "passed"
    else:
        block["beurling_deny"] = "passed" if bd.passed else "failed"
        block["status"] = "passed" if bd.passed else "failed"
    return block


def verify_clr(T, V, kappa: float, S: float, *, scenario_id: str = "",
               bd=None, tag: str = "CLR", spectrum=None) -> VerificationReport:
    """N(0, T - V) <= e^(kappa-1) S^-kappa int V^kappa against the operator's measure.

    ``spectrum`` (``spectra.shared_spectrum(T, V)``) lets the checks of one
    draw share the T - V spectrum; the weakLT, LTmoment, momentIdentity and
    magneticCLR checks take the same keyword.
    """
    if not kappa > 1.0:
        raise ValueError(f"counting bound requires kappa > 1, got {kappa}")
    V = as_potential(T.space, V)
    assumptions = _assumption_block(bd, "minimized" if S > 0 else "vacuous")
    if not S > 0.0:
        return make_report(scenario_id, tag, 0.0, 0.0, assumptions=assumptions,
                           vacuous=True, extras={"reason": "S = 0 (operator has kernel)"})
    intV = integral(V, kappa, T.space, measure=T.measure)
    count = spectra.count_below(T, V, 0.0, spectrum=spectrum)
    rhs = math.exp(kappa - 1.0) * S ** (-kappa) * intV
    ties = [] if count.tie is None else [{"tau": 0.0, "distance": count.tie}]
    extras = {"count": count.n, "integral": intV, "S": S, "kappa": kappa,
              "ratio": (count.n / intV if intV > 0.0 else 0.0)}
    return make_report(scenario_id, tag, float(count.n), rhs,
                       assumptions=assumptions, ties=ties, extras=extras,
                       applicable=bd is None or bd.passed)


def verify_weak_lt(T, V, gamma: float, kappa: float, tau_grid, S_interp: float,
                   *, scenario_id: str = "", bd=None, spectrum=None) -> VerificationReport:
    """N(-tau, T - V) <= e^(g+k-1) (theta^-theta (1-theta)^(theta-1) S)^-(g+k) tau^-g int V^(g+k)
    across a tau grid; the worst relative margin is reported."""
    exps = exponents_from_gamma_kappa(gamma, kappa)
    V = as_potential(T.space, V)
    tau_grid = [float(t) for t in tau_grid]
    if any(t <= 0.0 for t in tau_grid):
        raise ValueError("tau grid must be strictly positive")
    assumptions = _assumption_block(bd, "minimized" if S_interp > 0 else "vacuous")
    if not S_interp > 0.0:
        return make_report(scenario_id, "weakLT", 0.0, 0.0, assumptions=assumptions,
                           vacuous=True, extras={"reason": "S_interp = 0 (operator has kernel)"})
    _, upper = functional.ltw_bounds_from_S(S_interp, gamma, kappa)
    intV = integral(V, gamma + kappa, T.space, measure=T.measure)
    eigs = spectra.schrodinger_eigenvalues(T, V) if spectrum is None else spectrum()
    scale = float(np.max(np.abs(eigs))) if eigs.size else 1.0
    rows, ties = [], []
    worst = None
    for tau in tau_grid:
        c = spectra.count_from_eigenvalues(eigs, tau, scale=scale)
        rhs = upper * tau ** (-gamma) * intV
        rel = (rhs - c.n) / max(abs(rhs), 1e-300)
        rows.append({"tau": tau, "count": c.n, "rhs": rhs})
        if c.tie is not None:
            ties.append({"tau": tau, "distance": c.tie})
        if worst is None or rel < worst[0]:
            worst = (rel, float(c.n), rhs)
    extras = {"per_tau": rows, "integral": intV, "S_interp": S_interp,
              "gamma": gamma, "kappa": kappa, "theta": exps.theta, "q": exps.q}
    return make_report(scenario_id, "weakLT", worst[1], worst[2],
                       assumptions=assumptions, ties=ties, extras=extras,
                       applicable=bd is None or bd.passed)


def verify_lt_moments(T, V, gamma_tilde: float, gamma: float, kappa: float,
                      L_weak: float, *, scenario_id: str = "",
                      bd=None, spectrum=None) -> VerificationReport:
    """Tr (T-V)_-^gt <= lifting_factor(g, gt, k) * L_weak * int V^(gt+k)."""
    if not gamma_tilde > gamma:
        raise ValueError(f"requires gamma_tilde > gamma, got {gamma_tilde} <= {gamma}")
    V = as_potential(T.space, V)
    assumptions = _assumption_block(bd, "minimized" if L_weak > 0 else "vacuous")
    if not L_weak > 0.0:
        return make_report(scenario_id, "LTmoment", 0.0, 0.0, assumptions=assumptions,
                           vacuous=True, extras={"reason": "weak constant vanished"})
    factor = functional.aizenman_lieb_factor(gamma, gamma_tilde, kappa)
    intV = integral(V, gamma_tilde + kappa, T.space, measure=T.measure)
    lhs = spectra.riesz_mean(T, V, gamma_tilde, spectrum=spectrum)
    rhs = factor * L_weak * intV
    extras = {"lifting_factor": factor, "integral": intV, "L_weak": L_weak,
              "gamma": gamma, "gamma_tilde": gamma_tilde, "kappa": kappa}
    return make_report(scenario_id, "LTmoment", lhs, rhs,
                       assumptions=assumptions, extras=extras,
                       applicable=bd is None or bd.passed)


def verify_moment_identity(T, V, gamma_tilde: float, *, scenario_id: str = "",
                           rel_tol: float = 1e-6, spectrum=None) -> VerificationReport:
    """Riesz mean vs its moment-representation recomputation; lhs is the
    relative discrepancy, rhs the tolerance."""
    direct = spectra.riesz_mean(T, V, gamma_tilde, spectrum=spectrum)
    from_counts = spectra.riesz_mean_from_counts(T, V, gamma_tilde, spectrum=spectrum)
    rel = abs(direct - from_counts) / max(abs(direct), abs(from_counts), 1e-300)
    extras = {"riesz_direct": direct, "riesz_from_counts": from_counts,
              "gamma_tilde": gamma_tilde}
    return make_report(scenario_id, "momentIdentity", rel, rel_tol,
                       assumptions={"status": "passed"}, extras=extras)


def verify_diamagnetic(T, T_A, t_grid, *, scenario_id: str = "",
                       n_pairs: int = 100, seed: int = 20240815) -> VerificationReport:
    """Entrywise |exp(-t T_A)(x,y)| <= exp(-t T)(x,y) over the t grid, plus
    the sampled form inequality t[v, |u|] <= Re t_A[v sgn(u), u] for 0 <= v <= |u|.

    The report's lhs is the worst relative violation over both families
    (nonpositive when everything dominates), compared against 0.
    """
    offT = np.abs(T.form - np.diag(np.diag(T.form)))
    offA = np.abs(T_A.form - np.diag(np.diag(T_A.form)))
    scale = max(float(np.max(offT)), 1e-300)
    if float(np.max(np.abs(offT - offA))) > 1e-12 * scale:
        raise ValueError("magnetic operator does not share the |off-diagonal| structure")
    kernel_excess = -math.inf
    kernel_scale = 0.0
    per_t = []
    for t in [float(t) for t in t_grid]:
        k = spectra.heat_kernel(T, t)
        kA = spectra.heat_kernel(T_A, t)
        excess = float(np.max(np.abs(kA) - np.real(k)))
        kernel_excess = max(kernel_excess, excess)
        kernel_scale = max(kernel_scale, float(np.max(np.abs(k))))
        per_t.append({"t": t, "excess": excess, "kernel_max": float(np.max(np.abs(k)))})
    kernel_rel = kernel_excess / max(kernel_scale, 1e-300)

    rng = np.random.default_rng(seed)
    n = T.n
    form_rel = -math.inf
    for _ in range(n_pairs):
        u = rng.standard_normal(n) + (1j * rng.standard_normal(n) if not T_A.is_real else 0.0)
        v = np.abs(u) * rng.uniform(0.0, 1.0, size=n)
        lhs_f, rhs_f = operators.diamagnetic_form_pair(T, T_A, u, v)
        form_rel = max(form_rel, (lhs_f - rhs_f) / max(abs(lhs_f), abs(rhs_f), 1e-300))

    worst = max(kernel_rel, form_rel)
    extras = {"kernel_excess": kernel_excess, "kernel_scale": kernel_scale,
              "kernel_rel": kernel_rel, "form_rel": form_rel,
              "per_t": per_t, "n_pairs": n_pairs}
    return make_report(scenario_id, "diamagnetic", worst, 0.0, scale=1.0,
                       assumptions={"status": "passed"}, extras=extras)


def verify_magnetic_clr(T_A, V, kappa: float, S_nonmagnetic: float, *,
                        scenario_id: str = "", bd=None,
                        T=None, spectrum=None) -> VerificationReport:
    """Counting bound for the magnetic operator with the non-magnetic constant.

    T_A - V gets its own spectrum; ``spectrum`` is that of T - V, read only
    for the non-magnetic count recorded when T is given.
    """
    report = verify_clr(T_A, V, kappa, S_nonmagnetic, scenario_id=scenario_id,
                        bd=bd, tag="magneticCLR")
    if T is not None and report.status != "vacuous":
        c = spectra.count_below(T, V, 0.0, spectrum=spectrum)
        # recorded for comparison only; no ordering is asserted
        report.extras["count_nonmagnetic"] = c.n
    return report


def verify_liyau_trace(T, V, S: float, kappa: float, s_grid, *,
                       scenario_id: str = "", bd=None) -> VerificationReport:
    """Trace bound sum_j exp(-2 s u_j)/(2 u_j) <= (k-1)^(k-1) (2S)^-k int V^k s^(1-k)
    over the s grid, plus the counting step N <= 2 e^(2t) * lhs(t).

    The grid always includes the optimal t* = (kappa-1)/2, where the
    counting chain reproduces exactly the e^(kappa-1) S^-kappa counting
    constant; the reproduced value is recorded.
    """
    if not kappa > 1.0:
        raise ValueError(f"trace bound requires kappa > 1, got {kappa}")
    V = as_potential(T.space, V)
    assumptions = _assumption_block(bd, "minimized" if S > 0 else "vacuous")
    if not S > 0.0:
        return make_report(scenario_id, "liyauTrace", 0.0, 0.0, assumptions=assumptions,
                           vacuous=True, extras={"reason": "S = 0 (operator has kernel)"})
    ups = spectra.liyau_upsilon(T, V)
    u = ups.eigenvalues()
    intV = integral(V, kappa, T.space, measure=T.measure)
    const = (kappa - 1.0) ** (kappa - 1.0) * (2.0 * S) ** (-kappa) * intV
    t_star = 0.5 * (kappa - 1.0)
    grid = sorted(set(float(s) for s in s_grid) | {t_star})
    if any(s <= 0.0 for s in grid):
        raise ValueError("s grid must be strictly positive")

    count = spectra.count_from_eigenvalues(u - 1.0, 0.0, scale=float(np.max(np.abs(u))))
    ties = [] if count.tie is None else [{"threshold": 1.0, "distance": count.tie}]
    rows = []
    worst = None
    for s in grid:
        lhs_trace = float(np.sum(np.exp(-2.0 * s * u) / (2.0 * u)))
        rhs_trace = const * s ** (1.0 - kappa)
        rhs_count = 2.0 * math.exp(2.0 * s) * lhs_trace
        rows.append({"s": s, "trace_lhs": lhs_trace, "trace_rhs": rhs_trace,
                     "count_rhs": rhs_count})
        for lhs_i, rhs_i in ((lhs_trace, rhs_trace), (float(count.n), rhs_count)):
            rel = (rhs_i - lhs_i) / max(abs(rhs_i), 1e-300)
            if worst is None or rel < worst[0]:
                worst = (rel, lhs_i, rhs_i)
    chain_at_star = 2.0 * math.exp(2.0 * t_star) * const * t_star ** (1.0 - kappa)
    clr_upper = math.exp(kappa - 1.0) * S ** (-kappa) * intV
    extras = {"per_s": rows, "count": count.n, "integral": intV, "S": S,
              "kappa": kappa, "t_star": t_star,
              "chain_constant_at_t_star": chain_at_star,
              "clr_upper_bound": clr_upper,
              "chain_rel_gap": abs(chain_at_star - clr_upper) / clr_upper}
    return make_report(scenario_id, "liyauTrace", worst[1], worst[2],
                       assumptions=assumptions, ties=ties, extras=extras,
                       applicable=bd is None or bd.passed)


def verify_gsr_identity(bundle, *, scenario_id: str = "", n_samples: int = 100,
                        seed: int = 77001, rel_tol: float = 1e-10) -> VerificationReport:
    """Shifted-form identity t[u] - E ||u||^2 = sum_edges w omega_x omega_y |v_x - v_y|^2
    with v = u/omega, sampled on random complex u; lhs is the worst
    relative residual, rhs the tolerance."""
    space = bundle.space
    H = bundle.full_form
    E = bundle.energy
    omega = bundle.omega
    m = space.measures
    w_edges = space.edge_weights
    ex, ey = space.edges[:, 0], space.edges[:, 1]
    ww = w_edges * omega[ex] * omega[ey]
    rng = np.random.default_rng(seed)
    worst = 0.0
    # residuals are measured against the shifted operator's scale so that a
    # flat potential (everything exactly zero) does not divide 1e-16 by 1e-16
    op_scale = bundle.shifted.spectral_scale()
    samples = [omega.astype(np.complex128)]
    samples += [rng.standard_normal(space.n) + 1j * rng.standard_normal(space.n)
                for _ in range(n_samples - 1)]
    for u in samples:
        quad = float(np.real(np.conj(u) @ (H @ u)))
        l2 = float(np.real(np.conj(u) @ (m * u)))
        v = u / omega
        rhs_sum = float(np.sum(ww * np.abs(v[ex] - v[ey]) ** 2))
        lhs_sum = quad - E * l2
        scale = max(abs(quad), abs(E) * l2, rhs_sum, op_scale * l2, 1e-300)
        worst = max(worst, abs(lhs_sum - rhs_sum) / scale)
    extras = {"n_samples": n_samples, "energy": E,
              "ground_residual": bundle.shifted.meta.get("ground_residual")}
    return make_report(scenario_id, "gsrIdentity", worst, rel_tol,
                       assumptions={"status": "passed"}, extras=extras)


# ---------------------------------------------------------------------------
# scenario configs


def _expect(cond: bool, where: str, msg: str):
    if not cond:
        raise ConfigError(f"{where}: {msg}")


def _is_a(x, types) -> bool:
    """isinstance(x, types), except that a JSON boolean is never a number
    (bool subclasses int in Python)."""
    return isinstance(x, types) and not isinstance(x, bool)


def validate_config(config: dict) -> dict:
    """Schema-check a suite config; returns it unchanged on success."""
    _expect(isinstance(config, dict), "config", "must be a JSON object")
    _expect(config.get("schema") == 1, "config.schema", "must be 1")
    scenarios = config.get("scenarios", [])
    _expect(isinstance(scenarios, list), "config.scenarios", "must be a list")
    seen = set()
    for idx, sc in enumerate(scenarios):
        where = f"config.scenarios[{idx}]"
        _expect(isinstance(sc, dict), where, "must be an object")
        sid = sc.get("id")
        _expect(isinstance(sid, str) and sid, f"{where}.id", "must be a nonempty string")
        _expect(sid not in seen, f"{where}.id", f"duplicate scenario id {sid!r}")
        seen.add(sid)
        validate_scenario(sc, where=f"scenario {sid!r}")
    return config


def validate_scenario(sc: dict, *, where: str = "scenario") -> dict:
    lat = sc.get("lattice")
    _expect(isinstance(lat, dict), f"{where}.lattice", "must be an object")
    for block in ("operator", "exponents", "potential", "grids", "sobolev"):
        _expect(isinstance(sc.get(block, {}), dict), f"{where}.{block}", "must be an object")
    d = lat.get("d")
    extents = lat.get("extents")
    _expect(_is_a(d, int) and d >= 1, f"{where}.lattice.d", "must be an integer >= 1")
    _expect(isinstance(extents, list) and len(extents) == d
            and all(_is_a(e, int) and e >= 1 for e in extents),
            f"{where}.lattice.extents", "must be a list of d integers >= 1")
    _expect(lat.get("bc", "dirichlet") in ("dirichlet", "periodic"),
            f"{where}.lattice.bc", "must be 'dirichlet' or 'periodic'")
    h = lat.get("h", 1.0)
    _expect(_is_a(h, (int, float)) and h > 0, f"{where}.lattice.h", "must be > 0")
    excluded = set()
    for x in lat.get("exclusions", []):
        _expect(isinstance(x, list) and len(x) == d
                and all(_is_a(c, int) and 0 <= c < e for c, e in zip(x, extents)),
                f"{where}.lattice.exclusions",
                "each exclusion must be a d-tuple of site coordinates inside the extents")
        excluded.add(tuple(x))

    op = sc.get("operator", {"family": "laplacian"})
    fam = op.get("family")
    _expect(fam in OPERATOR_FAMILIES, f"{where}.operator.family",
            f"must be one of {OPERATOR_FAMILIES}")
    if fam == "fractional" or fam == "hardy":
        s = op.get("s")
        _expect(_is_a(s, (int, float)) and 0 < s <= 1, f"{where}.operator.s",
                "must satisfy 0 < s <= 1")
    if fam == "magnetic":
        kind = op.get("phases", "flux")
        _expect(kind in ("flux", "ring", "random"), f"{where}.operator.phases",
                "must be 'flux', 'ring', or 'random'")
        if kind == "flux":
            _expect(_is_a(op.get("flux"), (int, float)),
                    f"{where}.operator.flux", "must be a number")
        if kind == "random":
            _expect(_is_a(op.get("seed"), int),
                    f"{where}.operator.seed", "random phases require an integer seed")
    if fam == "periodic":
        _expect(lat.get("bc") == "periodic", f"{where}.operator.family",
                "periodic Schroedinger requires periodic bc")
        W = op.get("W")
        _expect(isinstance(W, (list, dict)), f"{where}.operator.W",
                "must be an explicit list or a {kind: cosine, ...} recipe")

    checks = sc.get("checks", [])
    _expect(isinstance(checks, list), f"{where}.checks", "must be a list")
    for c in checks:
        _expect(c in CHECK_NEEDS, f"{where}.checks", f"unknown check {c!r}")
        required = CHECK_NEEDS[c].family
        _expect(required is None or fam == required, f"{where}.checks",
                f"check {c!r} requires operator family {required!r}, got {fam!r}")

    exps = sc.get("exponents", {})
    needs = _scenario_needs(sc)
    for name, (rule, msg) in _EXPONENT_RULES.items():
        if any(name in nd.exponents for nd in needs):
            x = exps.get(name)
            _expect(_is_a(x, (int, float)) and rule(x),
                    f"{where}.exponents.{name}", msg)
    if "LTmoment" in checks:
        _expect(exps["gamma_tilde"] > exps["gamma"], f"{where}.exponents.gamma_tilde",
                "must exceed gamma")

    pot = sc.get("potential", {})
    needs_draws = any(nd.per_draw for nd in needs)
    if needs_draws and "values" not in pot and "adversarial" not in pot:
        _expect(_is_a(pot.get("seed"), int), f"{where}.potential.seed",
                "random potentials require an explicit integer seed")
        sig = pot.get("sigmas", [0.1, 1.0, 10.0])
        _expect(isinstance(sig, list)
                and all(_is_a(s, (int, float)) and s > 0 for s in sig),
                f"{where}.potential.sigmas", "must be positive numbers")
    if "values" in pot:
        n_sites = math.prod(extents) - len(excluded)
        vals = pot["values"]
        _expect(isinstance(vals, list) and len(vals) == n_sites
                and all(_is_a(v, (int, float)) and math.isfinite(v) and v >= 0
                        for v in vals),
                f"{where}.potential.values",
                f"must be a list of {n_sites} finite numbers >= 0, one per site")
    draws = pot.get("draws", 2)
    _expect(_is_a(draws, int) and draws >= 1, f"{where}.potential.draws",
            "must be an integer >= 1")

    _expect(_is_a(sc.get("seed", 0), int), f"{where}.seed", "must be an integer")
    for name, least in (("restarts", 0), ("sweep_restarts", 1)):
        x = sc.get("sobolev", {}).get(name, least)
        _expect(_is_a(x, int) and x >= least, f"{where}.sobolev.{name}",
                f"must be an integer >= {least}")
    return sc


SWEEP_AXES = ("trotter_n", "coupling", "flux", "tau")


def validate_sweep(config: dict) -> dict:
    """Schema-check a sweep config; returns its ``sweep`` block."""
    _expect(isinstance(config, dict) and config.get("schema") == 1,
            "config.schema", "must be 1")
    sweep = config.get("sweep")
    _expect(isinstance(sweep, dict), "config.sweep", "must be an object")
    axis = sweep.get("axis")
    _expect(axis in SWEEP_AXES, "sweep.axis", f"unknown axis {axis!r}")
    values = sweep.get("values", [])
    _expect(isinstance(values, list)
            and all(_is_a(v, (int, float)) and math.isfinite(v) for v in values),
            "sweep.values", "must be a list of finite numbers")
    if axis == "trotter_n":
        _expect(all(v >= 1 and v == int(v) for v in values), "sweep.values",
                "Trotter orders must be integers >= 1")
    if axis in ("coupling", "tau"):
        _expect(all(v >= 0 for v in values), "sweep.values", f"{axis} values must be >= 0")
    inst = sweep.get("instance", {})
    _expect(isinstance(inst, dict), "sweep.instance", "must be an object")
    if values:
        validate_scenario(inst, where="sweep.instance")
        if axis == "flux":
            _expect(inst["lattice"]["d"] == 2, "sweep.instance.lattice.d",
                    "a flux sweep needs a d = 2 lattice")
    return sweep


def _scenario_needs(sc: dict) -> list:
    """The needs of each listed check, plus those of the heat/Nash block."""
    needs = [CHECK_NEEDS[c] for c in sc.get("checks", [])]
    if sc.get("heat_nash"):
        needs.append(HEAT_NASH_NEEDS)
    return needs


def _build_operator(space, op_cfg: dict):
    """Returns (T, T_magnetic_or_None, bundle_or_None, op_extras)."""
    fam = op_cfg.get("family", "laplacian")
    extras: dict = {"family": fam}
    if fam == "laplacian":
        return operators.build_laplacian(space), None, None, extras
    if fam == "fractional":
        return operators.fractional_laplacian(space, float(op_cfg["s"])), None, None, extras
    if fam == "magnetic":
        base = operators.build_laplacian(space)
        kind = op_cfg.get("phases", "flux")
        if kind == "flux":
            phases = operators.uniform_flux_phases(space, float(op_cfg["flux"]))
            extras["flux"] = float(op_cfg["flux"])
        elif kind == "ring":
            phases = operators.ring_flux_phases(space, float(op_cfg["flux"]))
            extras["flux"] = float(op_cfg["flux"])
        else:
            phases = operators.random_phases(space, int(op_cfg["seed"]))
            extras["phase_seed"] = int(op_cfg["seed"])
        return base, operators.build_magnetic_laplacian(space, phases), None, extras
    if fam == "periodic":
        W = op_cfg["W"]
        if isinstance(W, dict):
            n = space.n
            x = np.arange(n)
            W = (float(W.get("amplitude", 1.0))
                 * np.cos(2.0 * math.pi * float(W.get("harmonic", 1)) * x / n))
        W = np.asarray(W, dtype=np.float64)
        bundle = operators.build_periodic_schrodinger(space, W)
        extras["ground_energy"] = bundle.energy
        return bundle.shifted, None, bundle, extras
    if fam == "hardy":
        T = operators.build_hardy_operator(space, float(op_cfg["s"]))
        extras["hardy_shift"] = T.meta.get("hardy_shift")
        extras["lambda_min_unshifted"] = T.meta.get("lambda_min")
        return T, None, None, extras
    raise ConfigError(f"operator.family: unknown family {fam!r}")


def _draw_potentials(space, scale: float, pot_cfg: dict, *, positive_floor: bool):
    """Deterministic |Normal(0, sigma*scale)| draws, optionally floored away from 0."""
    if "values" in pot_cfg:
        V = np.asarray(pot_cfg["values"], dtype=np.float64)
        return [("explicit", V)]
    seed = int(pot_cfg["seed"])
    sigmas = [float(s) for s in pot_cfg.get("sigmas", [0.1, 1.0, 10.0])]
    draws = int(pot_cfg.get("draws", 2))
    out = []
    for si, sigma in enumerate(sigmas):
        for j in range(draws):
            rng = np.random.default_rng([seed, si, j])
            V = np.abs(rng.normal(0.0, sigma * scale, size=space.n))
            if positive_floor:
                V = V + 0.01 * sigma * scale
            out.append((f"sigma={sigma:g}/draw={j}", V))
    return out


def _tau_grid(grid_cfg, scale: float):
    if isinstance(grid_cfg, list):
        return [float(t) for t in grid_cfg]
    cfg = grid_cfg or {}
    points = int(cfg.get("points", 20))
    lo = float(cfg.get("lo_rel", 1e-2)) * scale
    hi = float(cfg.get("hi_rel", 1e1)) * scale
    return list(np.geomspace(lo, hi, points))


@dataclass
class ScenarioResult:
    scenario_id: str
    reports: list
    constants: functional.ConstantsBundle
    assumptions: dict
    extras: dict

    @property
    def failed(self) -> list:
        return [r for r in self.reports if r.status == "fail"]

    def to_jsonable(self) -> dict:
        c = self.constants
        return {
            "scenario_id": self.scenario_id,
            "reports": [r.to_jsonable() for r in self.reports],
            "constants": _py({
                "S": c.S, "S_interp": c.S_interp, "K_measured": c.K_measured,
                "K_bound": c.K_bound, "L_lower": c.L_lower, "L_upper": c.L_upper,
                "L_lieb": c.L_lieb, "provenance": c.provenance,
            }),
            "assumptions": _py(self.assumptions),
            "extras": _py(self.extras),
        }


def run_scenario(sc: dict) -> ScenarioResult:
    """Execute one validated scenario; deterministic given the config."""
    validate_scenario(sc, where=f"scenario {sc.get('id', '?')!r}")
    sid = sc["id"]
    lat = sc["lattice"]
    space = make_lattice(lat["d"], lat["extents"], h=lat.get("h", 1.0),
                         bc=lat.get("bc", "dirichlet"),
                         exclusions=[tuple(x) for x in lat.get("exclusions", [])])
    T, T_A, bundle, op_extras = _build_operator(space, sc.get("operator", {"family": "laplacian"}))
    checks = list(sc.get("checks", []))
    exps = sc.get("exponents", {})
    scale = T.spectral_scale()
    bd = operators.beurling_deny_check(
        T, omega=(bundle.omega if bundle is not None else None))
    assumptions = {
        "beurling_deny": bd.passed,
        "beurling_deny_detail": {
            "is_real": bd.is_real, "offdiag_max": bd.offdiag_max,
            "cond2": bd.cond2_pass, "cond3": bd.cond3_pass,
        },
        "spectral_scale": scale,
    }

    constants = functional.ConstantsBundle()
    reports: list[VerificationReport] = []
    extras: dict = {"operator": op_extras, "n_sites": space.n}

    kappa = float(exps["kappa"]) if "kappa" in exps else None
    gamma = float(exps["gamma"]) if "gamma" in exps else None
    gamma_tilde = float(exps["gamma_tilde"]) if "gamma_tilde" in exps else None

    needs = _scenario_needs(sc)
    if any(nd.constant == "S" for nd in needs):
        q = exponents_from_gamma_kappa(0.0, kappa).q
        restarts = int(sc.get("sobolev", {}).get("restarts", 16))
        S, S_trace = functional.sobolev_constant(T, q, restarts=restarts)
        constants.S = S
        constants.provenance["S"] = "minimized"
        extras["sobolev"] = {"residual": S_trace.residual,
                             "certificate_slack": S_trace.certificate_slack,
                             "restarts": S_trace.restarts, "vacuous": S_trace.vacuous}
        if S > 0.0:
            lo, up = functional.clr_bounds_from_S(S, kappa)
            constants.L_lower, constants.L_upper = lo, up
            constants.provenance["L_bracket"] = "closed-form from minimized S"

    if any(nd.constant == "S_interp" for nd in needs):
        e = exponents_from_gamma_kappa(gamma, kappa)
        interp = functional.sobolev_interp_constant(
            T, e.q, e.theta,
            restarts=int(sc.get("sobolev", {}).get("sweep_restarts", 8)))
        constants.S_interp = interp.value
        constants.provenance["S_interp"] = "minimized (tau step)"
        extras["interp"] = {"tau_star": interp.tau_star,
                            "direct_value": interp.direct_value,
                            "rel_gap": interp.rel_gap, "vacuous": interp.vacuous}

    pot_cfg = sc.get("potential", {})
    per_draw = [c for c in checks if CHECK_NEEDS[c].per_draw]
    draws = []
    if per_draw and ("values" in pot_cfg or "seed" in pot_cfg):
        draws = _draw_potentials(space, scale, pot_cfg,
                                 positive_floor=bool(pot_cfg.get("floor", False))
                                 or "liyauTrace" in checks)

    for label, V in draws:
        spectrum = spectra.shared_spectrum(T, V)
        for check in per_draw:
            if check == "CLR":
                r = verify_clr(T, V, kappa, constants.S, scenario_id=sid, bd=bd,
                               spectrum=spectrum)
            elif check == "weakLT":
                grid = _tau_grid(sc.get("grids", {}).get("tau"), scale)
                r = verify_weak_lt(T, V, gamma, kappa, grid, constants.S_interp,
                                   scenario_id=sid, bd=bd, spectrum=spectrum)
            elif check == "LTmoment":
                L_weak = 0.0
                if constants.S_interp > 0.0:
                    L_weak = functional.ltw_bounds_from_S(constants.S_interp,
                                                          gamma, kappa)[1]
                r = verify_lt_moments(T, V, gamma_tilde, gamma, kappa, L_weak,
                                      scenario_id=sid, bd=bd, spectrum=spectrum)
            elif check == "momentIdentity":
                r = verify_moment_identity(T, V, gamma_tilde, scenario_id=sid,
                                           spectrum=spectrum)
            elif check == "magneticCLR":
                r = verify_magnetic_clr(T_A, V, kappa, constants.S,
                                        scenario_id=sid, bd=bd, T=T, spectrum=spectrum)
            else:  # liyauTrace
                grid = sc.get("grids", {}).get("s", [0.05, 0.25, 1.0, 5.0])
                r = verify_liyau_trace(T, V, constants.S, kappa, grid,
                                       scenario_id=sid, bd=bd)
            r.extras["potential"] = label
            reports.append(r)

    # adversarial coupling sweep: V = c * S * |minimizer|^(q-2) keeps the
    # empirical ratio N / int V^kappa pinned to the bracket ends
    if "CLR" in checks and "adversarial" in pot_cfg and constants.S > 0.0:
        q = exponents_from_gamma_kappa(0.0, kappa).q
        u_hat = np.abs(S_trace.minimizer)
        best_ratio = 0.0
        for c in [float(c) for c in pot_cfg["adversarial"]]:
            V = c * constants.S * u_hat ** (q - 2.0)
            r = verify_clr(T, V, kappa, constants.S, scenario_id=sid, bd=bd)
            r.extras["potential"] = f"adversarial c={c:.9g}"
            best_ratio = max(best_ratio, r.extras["ratio"])
            reports.append(r)
        extras["adversarial_best_ratio"] = best_ratio

    if "diamagnetic" in checks:
        grid = sc.get("grids", {}).get("t", [0.1, 1.0, 10.0])
        reports.append(verify_diamagnetic(T, T_A, grid, scenario_id=sid,
                                          seed=int(sc.get("seed", 20240815))))

    if "gsrIdentity" in checks:
        reports.append(verify_gsr_identity(bundle, scenario_id=sid,
                                           seed=int(sc.get("seed", 77001))))

    hn = sc.get("heat_nash")
    if hn:
        if constants.S > 0.0:
            hb = functional.heat_bound_check(
                T, kappa, constants.S,
                grid_points=int(hn.get("grid_points", 60)) if isinstance(hn, dict) else 60)
            constants.K_measured = hb.K_measured
            constants.K_bound = hb.K_bound
            constants.provenance["K"] = "measured"
            # a measured K can only improve the semigroup-method constant;
            # both are recorded and the smaller drives L_lieb
            K_use = min(hb.K_measured, hb.K_bound)
            constants.L_lieb = functional.lieb_bound_from_K(K_use, kappa).value
            constants.provenance["L_lieb"] = "measured K" \
                if hb.K_measured < hb.K_bound else "bound K"
            q = exponents_from_gamma_kappa(0.0, kappa).q
            samples = int(hn.get("nash_samples", 10_000)) if isinstance(hn, dict) else 10_000
            nr = functional.nash_check(T, q, constants.S, n_samples=samples)
            extras["heat_nash"] = {
                "passed_1inf": hb.passed_1inf, "passed_12": hb.passed_12,
                "K12_measured": hb.K12_measured, "K12_bound": hb.K12_bound,
                "nash_min_slack_rel": nr.min_slack_rel, "nash_passed": nr.passed,
            }
        else:
            extras["heat_nash"] = {"vacuous": True}

    return ScenarioResult(scenario_id=sid, reports=reports, constants=constants,
                          assumptions=assumptions, extras=extras)


def run_scenario_jsonable(sc: dict) -> dict:
    """Worker-friendly wrapper returning plain-dict results."""
    return run_scenario(sc).to_jsonable()
