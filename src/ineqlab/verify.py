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
from .lattice import as_potential, exponents_from_gamma_kappa, integral, make_lattice

MARGIN_REL = 1e-9
# relative tolerances of the heat-bound and Nash verdicts
HEAT_REL = 1e-8
NASH_REL = 1e-10

# the s grid of the liyauTrace checks and the t grid of the diamagnetic
# checks that run_scenario makes
LIYAU_S_GRID = (0.05, 0.25, 1.0, 5.0)
DIAMAGNETIC_T_GRID = (0.1, 1.0, 10.0)

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
    "gsrIdentity": CheckNeeds(family="periodic"),
}

# the heat-kernel and Nash block of a scenario reads S at exponent kappa and
# emits these tags; they are not listed in ``checks``
HEAT_NASH_NEEDS = CheckNeeds(("kappa",), constant="S")
HEAT_NASH_TAGS = ("heatBound", "nash")

THEOREM_TAGS = (*CHECK_NEEDS, *HEAT_NASH_TAGS)

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
    if isinstance(x, (np.bool_, bool)):      # before int: bool is an int
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
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
                applicable: bool = True, vacuous: bool = False,
                rel: float = MARGIN_REL) -> VerificationReport:
    """Verdict with the relative-margin pass rule.

    pass iff margin = rhs - lhs >= -rel * max(|rhs|, scale), with
    rel = MARGIN_REL = 1e-9 unless a check carries its own; an extra
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
    elif margin >= -rel * max(abs(rhs), scale):
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

    The count is ``spectra.count_below``'s: by the inertia pass on a banded
    form, else from the dense spectrum.  ``spectrum``
    (``spectra.shared_spectrum(T, V)``) lets the checks of one draw share
    the T - V spectrum, which the count reads only when the form has no
    inertia route or the pass leaves the count undecided; the weakLT and
    LTmoment checks take the same keyword.
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


def verify_weak_lt(T, V, gamma: float, kappa: float, S_interp: float, *,
                   scenario_id: str = "", bd=None, spectrum=None) -> VerificationReport:
    """sup_(tau > 0) tau^g N(-tau, T - V) <= L int V^(g+k), with the weak constant
    L = e^(g+k-1) (theta^-theta (1-theta)^(theta-1) S_interp)^-(g+k).

    The supremum is read exactly from the spectrum.  With a_1 >= a_2 >= ...
    the magnitudes of the negative eigenvalues, N(-tau) = j for tau just
    below a_j (all of a tied group counted), so the supremum is
    max_j j a_j^g: the limit as tau rises to tau_star = a_(j*), recorded
    in ``extras`` with count = j*.  It is 0 when no eigenvalue is negative.
    For gamma > 0 it is continuous in the eigenvalues, so no tie can move
    it; at gamma = 0 it is N(0, T - V), and a tie at threshold 0 is
    reported as ``verify_clr`` reports it.
    """
    exps = exponents_from_gamma_kappa(gamma, kappa)
    V = as_potential(T.space, V)
    assumptions = _assumption_block(bd, "minimized" if S_interp > 0 else "vacuous")
    if not S_interp > 0.0:
        return make_report(scenario_id, "weakLT", 0.0, 0.0, assumptions=assumptions,
                           vacuous=True, extras={"reason": "S_interp = 0 (operator has kernel)"})
    _, upper = functional.ltw_bounds_from_S(S_interp, gamma, kappa)
    intV = integral(V, gamma + kappa, T.space, measure=T.measure)
    eigs = spectra.schrodinger_eigenvalues(T, V) if spectrum is None else spectrum()
    a = (-np.sort(eigs[eigs < 0.0])).tolist()
    # the last maximizer closes its tied group of magnitudes
    lhs, count = max(((j * x ** gamma, j) for j, x in enumerate(a, 1)), default=(0.0, 0))
    tau_star = a[count - 1] if count else None
    tie = spectra.count_from_eigenvalues(eigs, 0.0).tie if gamma == 0.0 else None
    ties = [] if tie is None else [{"tau": 0.0, "distance": tie}]
    extras = {"tau_star": tau_star, "count": count, "integral": intV, "S_interp": S_interp,
              "gamma": gamma, "kappa": kappa, "theta": exps.theta, "q": exps.q}
    return make_report(scenario_id, "weakLT", lhs, upper * intV,
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


def verify_heat_nash(T, kappa: float, S: float, u, *, scenario_id: str = "", bd=None,
                     grid_points: int = 60):
    """The heat-kernel and Nash links of the chain as three reports, with the
    ``functional.heat_bound_check`` result they read (None when vacuous);
    u is the minimizer that S was read from.

    - ``heatBound`` (1->inf): lhs K_measured = sup_s s^kappa
      ||exp(-sT)||_(1->inf) over the grid, rhs (kappa/S)^kappa;
    - ``heatBound`` (1->2): lhs sup_s s^kappa ||exp(-sT)||_(1->2)^2, rhs
      (kappa/2S)^kappa;
    - ``nash``: t[v]^p ||v||_1^(2-2p) >= S^p ||v||_2^2, p = q/(2(q-1)),
      on the probes v = |u|^k of ``functional.nash_check``; lhs is the
      worst relative shortfall -min (left/right - 1), compared against 0,
      and ``extras.power`` the k of the worst probe.
    Both heat bounds pass within HEAT_REL = 1e-8 relative and the Nash
    bound within NASH_REL = 1e-10.  The heat bounds need an L1-contractive
    semigroup, so they are "not-applicable" when the Beurling-Deny
    criteria fail; the Nash bound follows from S by Hoelder's inequality
    alone.  With S = 0 all three are vacuous.
    """
    provenance = "minimized" if S > 0 else "vacuous"
    # the Nash bound reads no Beurling-Deny criterion
    blocks = {"heatBound": _assumption_block(bd, provenance),
              "nash": _assumption_block(None, provenance)}
    if not S > 0.0:
        return [make_report(scenario_id, tag, 0.0, 0.0, assumptions=blocks[tag],
                            vacuous=True, extras={"reason": "S = 0 (operator has kernel)"})
                for tag in ("heatBound", "heatBound", "nash")], None
    hb = functional.heat_bound_check(T, kappa, S, grid_points=grid_points)
    q = exponents_from_gamma_kappa(0.0, kappa).q
    nr = functional.nash_check(T, q, S, u)
    reports = [make_report(scenario_id, "heatBound", lhs, rhs, assumptions=blocks["heatBound"],
                           extras={"norm": norm}, rel=HEAT_REL,
                           applicable=bd is None or bd.passed)
               for norm, lhs, rhs in (("1->inf", hb.K_measured, hb.K_bound),
                                      ("1->2", hb.K12_measured, hb.K12_bound))]
    reports.append(make_report(scenario_id, "nash", -nr.min_slack_rel, 0.0, scale=1.0,
                               assumptions=blocks["nash"],
                               extras={"q": q, "power": nr.power},
                               rel=NASH_REL))
    return reports, hb


def verify_diamagnetic(T, T_A, t_grid, *, scenario_id: str = "") -> VerificationReport:
    """Entrywise |exp(-t T_A)(x,y)| <= exp(-t T)(x,y) over the t grid.

    The report's lhs is the worst relative violation (nonpositive when the
    kernel of T dominates), compared against 0; ``extras.per_t`` records
    each t.  The form inequality behind the semigroup domination,
    t[v, |u|] <= Re t_A[v sgn u, u] for every u and every 0 <= v <= |u|,
    is decided by the structure alone, so no vector is sampled.  T must be
    real with no positive off-diagonal entry, T_A must share its diagonal
    and its |off-diagonal| entries, or ``ValueError`` is raised.  Under
    that precondition the inequality holds entry by entry: with A, A^A the
    forms and s = sgn u, the difference of the two sides is
    sum_(x != y) v_x |u_y| (A_xy - Re(s_x* A^A_xy s_y)), and each term has
    A_xy - Re(s_x* A^A_xy s_y) <= A_xy + |A^A_xy| = A_xy + |A_xy| = 0,
    while the diagonal terms cancel (A_xx v_x |u_x| on both sides).
    """
    A, A_A = T.form, T_A.form
    gap = np.abs(np.abs(A_A) - np.abs(A))
    np.fill_diagonal(gap, np.abs(np.diag(A_A) - np.diag(A)))
    if (not T.is_real or T._offdiag[0] > 0.0
            or float(np.max(gap)) > 1e-12 * max(float(np.max(np.abs(A))), 1e-300)):
        raise ValueError("magnetic operator does not share the diagonal and "
                         "|off-diagonal| structure of a real form with no positive "
                         "off-diagonal entry")
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
    extras = {"kernel_excess": kernel_excess, "kernel_scale": kernel_scale,
              "kernel_rel": kernel_rel, "per_t": per_t}
    return make_report(scenario_id, "diamagnetic", kernel_rel, 0.0, scale=1.0,
                       assumptions={"status": "passed"}, extras=extras)


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


def verify_gsr_identity(bundle, *, scenario_id: str = "") -> VerificationReport:
    """Ground-state representation t[omega v] - E ||omega v||^2 =
    sum_edges w omega_x omega_y |v_x - v_y|^2, compared as the two matrices
    of these forms in v.

    The left matrix is X = Omega (H - E M) Omega, with Omega = diag(omega),
    H the form of T + W and M the cell measures; the right one is the edge
    Laplacian L with weights w omega_x omega_y.  They differ only on the
    diagonal, by omega_x ((H - E M) omega)_x, the ground state's residual.
    lhs is max|X - L| / max(max|X|, max|L|), rhs the tolerance 1e-10.
    """
    space = bundle.space
    omega = bundle.omega
    ex, ey = space.edges[:, 0], space.edges[:, 1]
    ww = space.edge_weights * omega[ex] * omega[ey]
    X = omega[:, None] * (bundle.full_form - np.diag(bundle.energy * space.measures)) * omega
    L = np.zeros_like(X)
    np.add.at(L, (np.concatenate([ex, ey, ex, ey]), np.concatenate([ex, ey, ey, ex])),
              np.concatenate([ww, ww, -ww, -ww]))
    scale = max(float(np.max(np.abs(X))), float(np.max(np.abs(L))), 1e-300)
    extras = {"energy": bundle.energy,
              "ground_residual": bundle.shifted.meta.get("ground_residual")}
    return make_report(scenario_id, "gsrIdentity", float(np.max(np.abs(X - L))) / scale,
                       1e-10, assumptions={"status": "passed"}, extras=extras)


# ---------------------------------------------------------------------------
# scenario configs
#
# The validators are the one place that knows the config schema.  Each
# returns a normalized copy: every default filled in, every value checked
# and cast, every unknown key rejected with its field path.  The runners
# read only that copy.  A JSON null stands for the default, so a
# normalized copy validates to itself.  Fields that nothing reads (the
# random-draw fields beside explicit potential values) are rejected when
# given and stay null.

_REQUIRED = object()   # default of a field that has none


def _expect(cond: bool, where: str, msg: str):
    if not cond:
        raise ConfigError(f"{where}: {msg}")


def _is_a(x, types) -> bool:
    """isinstance(x, types), except that a JSON boolean is never a number
    (bool subclasses int in Python)."""
    return isinstance(x, types) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A finite JSON number (an integer too large for a float is not)."""
    if not _is_a(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _field(x, where: str, ok, msg: str, default):
    """x when ok(x) holds, the default when x is None (absent)."""
    if x is None:
        _expect(default is not _REQUIRED, where, msg)
        return default
    _expect(ok(x), where, msg)
    return x


def _integer(x, where: str, least: int, default=_REQUIRED):
    return _field(x, where, lambda v: _is_a(v, int) and v >= least,
                  f"must be an integer >= {least}", default)


def _number(x, where: str, rule, msg: str, default=_REQUIRED):
    v = _field(x, where, lambda v: _is_number(v) and rule(v), msg, default)
    return v if v is None else float(v)


def _numbers(x, where: str, rule, msg: str, default=_REQUIRED, length=None):
    """A nonempty list (of ``length`` entries, when given) of numbers passing rule."""
    def ok(v):
        return (isinstance(v, list) and len(v) > 0 and length in (None, len(v))
                and all(_is_number(e) and rule(e) for e in v))

    v = _field(x, where, ok, msg, default)
    return v if v is None else [float(e) for e in v]


def _block(x, where: str, keys, *, required: bool = False) -> dict:
    """A config object whose keys all lie in ``keys``; None (absent) reads as {}."""
    if x is None and not required:
        return {}
    _expect(isinstance(x, dict), where, "must be an object")
    for k in x:
        _expect(k in keys, f"{where}.{k}", f"unknown key; expected one of {sorted(keys)}")
    return x


_BCS = ("dirichlet", "periodic")
_LOG_NORMAL = (math.log(np.finfo(float).tiny), math.log(np.finfo(float).max))
_PHASES = ("flux", "ring", "random")
_OPERATOR_KEYS = {"laplacian": (), "fractional": ("s",), "hardy": ("s",),
                  "magnetic": ("phases", "flux", "seed"), "periodic": ("W",)}


def _parse_lattice(x, where: str) -> dict:
    lat = _block(x, where, ("d", "extents", "h", "bc", "exclusions"), required=True)
    d = _integer(lat.get("d"), f"{where}.d", 1)
    extents = lat.get("extents")
    _expect(isinstance(extents, list) and len(extents) == d
            and all(_is_a(e, int) and e >= 1 for e in extents),
            f"{where}.extents", "must be a list of d integers >= 1")
    excl = _field(lat.get("exclusions"), f"{where}.exclusions",
                  lambda v: isinstance(v, list) and all(
                      isinstance(c, list) and len(c) == d
                      and all(_is_a(i, int) and 0 <= i < e for i, e in zip(c, extents))
                      for c in v),
                  "each exclusion must be a d-tuple of site coordinates inside the extents",
                  [])
    out = {"d": d, "extents": list(extents),
           # the cell measure h^d and the Laplacian's scale 2d/h^2 stay normal doubles
           "h": _number(lat.get("h"), f"{where}.h", lambda v: v > 0 and all(
               _LOG_NORMAL[0] <= e <= _LOG_NORMAL[1]
               for e in (d * math.log(v), math.log(2 * d) - 2 * math.log(v))),
                        "must be > 0, with h^d and 2d/h^2 normal doubles", 1.0),
           "bc": _field(lat.get("bc"), f"{where}.bc", lambda v: v in _BCS,
                        f"must be one of {_BCS}", "dirichlet"),
           # each excluded site once, in order
           "exclusions": [list(c) for c in dict.fromkeys(tuple(c) for c in excl)]}
    _expect(_n_sites(out) >= 1, f"{where}.exclusions", "must leave at least one site")
    return out


def _n_sites(lat: dict) -> int:
    return math.prod(lat["extents"]) - len(lat["exclusions"])


def _potential_values(pot: dict, where: str, lat: dict, draw_keys):
    """The explicit values of a raw potential block, one finite number >= 0
    per site, or None.  Given values leave the random-draw fields
    ``draw_keys`` unread, so each of those must then be absent or null."""
    n = _n_sites(lat)
    values = _numbers(pot.get("values"), f"{where}.values", lambda v: v >= 0,
                      f"must be a list of {n} finite numbers >= 0, one per site",
                      None, length=n)
    if values is not None:
        for k in draw_keys:
            _expect(pot.get(k) is None, f"{where}.{k}",
                    "is never read beside explicit potential values; remove it")
    return values


def _parse_operator(x, lat: dict, where: str) -> dict:
    _expect(x is None or isinstance(x, dict), where, "must be an object")
    fam = _field((x or {}).get("family"), f"{where}.family",
                 lambda v: v in OPERATOR_FAMILIES, f"must be one of {OPERATOR_FAMILIES}",
                 "laplacian")
    op = _block(x, where, ("family",) + _OPERATOR_KEYS[fam])
    out = {"family": fam}
    if fam in ("fractional", "hardy"):
        out["s"] = _number(op.get("s"), f"{where}.s", lambda s: 0 < s <= 1,
                           "must satisfy 0 < s <= 1")
    if fam == "hardy":
        _expect(lat["d"] > 2.0 * out["s"], f"{where}.s", "must satisfy 2s < d")
        _expect(len(lat["exclusions"]) == 1, f"{where}.family",
                "hardy needs exactly one excluded site, the origin")
    if fam == "magnetic":
        kind = _field(op.get("phases"), f"{where}.phases", lambda v: v in _PHASES,
                      f"must be one of {_PHASES}", "flux")
        out["phases"] = kind
        out["flux"] = _number(op.get("flux"), f"{where}.flux", lambda v: True,
                              "must be a number", None if kind == "random" else _REQUIRED)
        out["seed"] = _integer(op.get("seed"), f"{where}.seed", 0,
                               _REQUIRED if kind == "random" else None)
        if kind == "flux":
            _expect(lat["d"] == 2, f"{where}.phases", "flux phases need a d = 2 lattice")
        if kind == "ring":
            _expect(lat["d"] == 1 and lat["bc"] == "periodic", f"{where}.phases",
                    "ring phases need a 1-d periodic lattice")
    if fam == "periodic":
        _expect(lat["bc"] == "periodic", f"{where}.family",
                "periodic Schroedinger requires periodic bc")
        W = op.get("W")
        if isinstance(W, dict):
            W = _block(W, f"{where}.W", ("kind", "amplitude", "harmonic"))
            out["W"] = {
                "kind": _field(W.get("kind"), f"{where}.W.kind", lambda v: v == "cosine",
                               "must be 'cosine'", "cosine"),
                "amplitude": _number(W.get("amplitude"), f"{where}.W.amplitude",
                                     lambda v: True, "must be a number", 1.0),
                "harmonic": _number(W.get("harmonic"), f"{where}.W.harmonic",
                                    lambda v: True, "must be a number", 1.0)}
        else:
            n = _n_sites(lat)
            out["W"] = _numbers(W, f"{where}.W", lambda v: True,
                                f"must be a list of {n} numbers, one per site, "
                                "or a {kind: cosine, ...} recipe", length=n)
    return out


# exponent field -> (rule, message); gamma >= 0 with kappa > 1 gives the
# gamma + kappa > 1 the weak bounds need
_EXPONENT_RULES = {
    "kappa": (lambda x: x > 1, "must be > 1 for counting/moment/heat checks"),
    "gamma": (lambda x: x > 0, "must be > 0"),
    "gamma_tilde": (lambda x: x > 0, "must be > 0"),
}

_SCENARIO_KEYS = ("id", "lattice", "operator", "exponents", "potential", "checks",
                  "heat_nash")
_POSITIVE = "must be a nonempty list of numbers > 0"


def validate_config(config: dict) -> dict:
    """Schema-check a suite config; returns its normalized copy."""
    _expect(isinstance(config, dict), "config", "must be a JSON object")
    _block(config, "config", ("schema", "scenarios"))
    _expect(_is_a(config.get("schema"), int) and config["schema"] == 1,
            "config.schema", "must be 1")
    scenarios = _field(config.get("scenarios"), "config.scenarios",
                       lambda v: isinstance(v, list), "must be a list", [])
    seen, out = set(), []
    for idx, sc in enumerate(scenarios):
        where = f"config.scenarios[{idx}]"
        _expect(isinstance(sc, dict), where, "must be an object")
        sid = sc.get("id")
        _expect(isinstance(sid, str) and sid, f"{where}.id", "must be a nonempty string")
        _expect(sid not in seen, f"{where}.id", f"duplicate scenario id {sid!r}")
        seen.add(sid)
        out.append(validate_scenario(sc))
    return {"schema": 1, "scenarios": out}


def validate_scenario(sc: dict) -> dict:
    """Schema-check one scenario; returns its normalized copy.  Errors name
    the field as ``scenario '<id>'.<path>``."""
    _expect(isinstance(sc, dict), "scenario", "must be an object")
    sid = sc.get("id")
    _expect(isinstance(sid, str) and sid, "scenario.id", "must be a nonempty string")
    where = f"scenario {sid!r}"
    _block(sc, where, _SCENARIO_KEYS)
    lat = _parse_lattice(sc.get("lattice"), f"{where}.lattice")
    op = _parse_operator(sc.get("operator"), lat, f"{where}.operator")
    fam = op["family"]

    checks = _field(sc.get("checks"), f"{where}.checks",
                    lambda v: isinstance(v, list), "must be a list", [])
    for c in checks:
        _expect(isinstance(c, str) and c in CHECK_NEEDS, f"{where}.checks",
                f"unknown check {c!r}")
        required = CHECK_NEEDS[c].family
        _expect(required is None or fam == required, f"{where}.checks",
                f"check {c!r} requires operator family {required!r}, got {fam!r}")

    hn = sc.get("heat_nash")
    _expect(hn is None or isinstance(hn, (bool, dict)), f"{where}.heat_nash",
            "must be an object or a boolean")
    heat_nash = None
    if hn is True or isinstance(hn, dict):
        hn = _block({} if hn is True else hn, f"{where}.heat_nash", ("grid_points",))
        heat_nash = {
            "grid_points": _integer(hn.get("grid_points"), f"{where}.heat_nash.grid_points",
                                    1, 60)}
    needs = _scenario_needs({"checks": checks, "heat_nash": heat_nash})

    exps = _block(sc.get("exponents"), f"{where}.exponents", _EXPONENT_RULES)
    exponents = {
        name: _number(exps.get(name), f"{where}.exponents.{name}", rule, msg,
                      _REQUIRED if any(name in nd.exponents for nd in needs) else None)
        for name, (rule, msg) in _EXPONENT_RULES.items()}
    if "LTmoment" in checks:
        _expect(exponents["gamma_tilde"] > exponents["gamma"],
                f"{where}.exponents.gamma_tilde", "must exceed gamma")

    pw = f"{where}.potential"
    pot = _block(sc.get("potential"), pw, ("values", "seed", "sigmas", "draws", "adversarial"))
    pot_values = _potential_values(pot, pw, lat, ("seed", "sigmas", "draws"))
    # the draw fields that explicit values leave unread get no defaults
    explicit = pot_values is not None
    potential = {
        "values": pot_values,
        "seed": _integer(pot.get("seed"), f"{pw}.seed", 0, None),
        "sigmas": _numbers(pot.get("sigmas"), f"{pw}.sigmas", lambda s: s > 0, _POSITIVE,
                           None if explicit else [0.1, 1.0, 10.0]),
        "draws": _integer(pot.get("draws"), f"{pw}.draws", 1, None if explicit else 2),
        "adversarial": _numbers(pot.get("adversarial"), f"{pw}.adversarial",
                                lambda c: c > 0, _POSITIVE, None)}
    if (any(nd.per_draw for nd in needs) and potential["values"] is None
            and potential["adversarial"] is None):
        _expect(potential["seed"] is not None, f"{pw}.seed",
                "random potentials require an explicit integer seed")

    return {
        "id": sid, "lattice": lat, "operator": op, "exponents": exponents,
        "potential": potential, "checks": list(checks), "heat_nash": heat_nash,
    }


SWEEP_AXES = ("trotter_n", "coupling", "flux", "tau")


def validate_sweep(config: dict) -> dict:
    """Schema-check a sweep config; returns its normalized ``sweep`` block."""
    _expect(isinstance(config, dict) and _is_a(config.get("schema"), int)
            and config["schema"] == 1, "config.schema", "must be 1")
    _block(config, "config", ("schema", "sweep"))
    _expect(isinstance(config.get("sweep"), dict), "config.sweep", "must be an object")
    sweep = _block(config["sweep"], "sweep", ("axis", "values", "instance"))
    axis = sweep.get("axis")
    _expect(axis in SWEEP_AXES, "sweep.axis", f"unknown axis {axis!r}")
    values = _field(sweep.get("values"), "sweep.values",
                    lambda v: isinstance(v, list) and all(_is_number(x) for x in v),
                    "must be a list of finite numbers", [])
    if axis == "trotter_n":
        _expect(all(v >= 1 and v == int(v) for v in values), "sweep.values",
                "Trotter orders must be integers >= 1")
        values = [int(v) for v in values]
    else:
        values = [float(v) for v in values]
    if axis in ("coupling", "tau"):
        _expect(all(v >= 0 for v in values), "sweep.values", f"{axis} values must be >= 0")

    where = "sweep.instance"
    inst = _block(sweep.get("instance"), where,
                  ("lattice", "operator", "potential", "profile", "kappa"), required=True)
    lat = _parse_lattice(inst.get("lattice"), f"{where}.lattice")
    if axis == "flux":
        _expect(lat["d"] == 2, f"{where}.lattice.d", "a flux sweep needs a d = 2 lattice")
    pot = _block(inst.get("potential"), f"{where}.potential", ("values", "seed", "sigma"))
    pot_values = _potential_values(pot, f"{where}.potential", lat, ("seed", "sigma"))
    explicit = pot_values is not None
    prof = _block(inst.get("profile"), f"{where}.profile", ("a",))
    instance = {
        "lattice": lat,
        "operator": _parse_operator(inst.get("operator"), lat, f"{where}.operator"),
        "potential": {
            "values": pot_values,
            "seed": _integer(pot.get("seed"), f"{where}.potential.seed", 0,
                             None if explicit else 0),
            "sigma": _number(pot.get("sigma"), f"{where}.potential.sigma", lambda s: s > 0,
                             "must be > 0", None if explicit else 1.0)},
        "profile": {"a": _number(prof.get("a"), f"{where}.profile.a", lambda a: a > 0,
                                 "must be > 0", 1.0)},
        "kappa": _number(inst.get("kappa"), f"{where}.kappa", *_EXPONENT_RULES["kappa"],
                         default=1.5),
    }
    if axis == "flux":
        # the axis compares the Laplacian with its uniform-flux versions, so
        # its base count must be of that Laplacian
        _expect(instance["operator"]["family"] == "laplacian", f"{where}.operator.family",
                "a flux sweep needs the 'laplacian' family")
    return {"axis": axis, "values": values, "instance": instance}


def _scenario_needs(sc: dict) -> list:
    """The needs of each listed check, plus those of the heat/Nash block."""
    needs = [CHECK_NEEDS[c] for c in sc["checks"]]
    if sc["heat_nash"] is not None:
        needs.append(HEAT_NASH_NEEDS)
    return needs


def _build_instance(sc: dict):
    """(space, T, T_magnetic_or_None, bundle_or_None, op_extras) of a
    normalized scenario or sweep instance."""
    lat = sc["lattice"]
    space = make_lattice(lat["d"], lat["extents"], h=lat["h"], bc=lat["bc"],
                         exclusions=lat["exclusions"])
    return (space, *_build_operator(space, sc["operator"]))


def _build_operator(space, op: dict):
    """Returns (T, T_magnetic_or_None, bundle_or_None, op_extras) for a
    normalized operator block."""
    fam = op["family"]
    extras: dict = {"family": fam}
    if fam == "laplacian":
        return operators.build_laplacian(space), None, None, extras
    if fam == "fractional":
        return operators.fractional_laplacian(space, op["s"]), None, None, extras
    if fam == "magnetic":
        base = operators.build_laplacian(space)
        if op["phases"] == "random":
            phases = operators.random_phases(space, op["seed"])
            extras["phase_seed"] = op["seed"]
        else:
            phases = (operators.uniform_flux_phases if op["phases"] == "flux"
                      else operators.ring_flux_phases)(space, op["flux"])
            extras["flux"] = op["flux"]
        return base, operators.build_magnetic_laplacian(space, phases), None, extras
    if fam == "periodic":
        W = op["W"]
        if isinstance(W, dict):
            x = np.arange(space.n)
            W = W["amplitude"] * np.cos(2.0 * math.pi * W["harmonic"] * x / space.n)
        bundle = operators.build_periodic_schrodinger(space, np.asarray(W, dtype=np.float64))
        extras["ground_energy"] = bundle.energy
        return bundle.shifted, None, bundle, extras
    T = operators.build_hardy_operator(space, op["s"])
    extras["hardy_shift"] = T.meta.get("hardy_shift")
    extras["lambda_min_unshifted"] = T.meta.get("lambda_min")
    return T, None, None, extras


def _draw_potentials(T, pot: dict, *, positive_floor: bool):
    """The explicit potential, or deterministic |Normal(0, sigma * scale)|
    draws (optionally floored away from 0) for a normalized potential block;
    none when it gives neither values nor a seed."""
    if pot["values"] is not None:
        return [("explicit", np.asarray(pot["values"], dtype=np.float64))]
    if pot["seed"] is None:
        return []
    scale = T.spectral_scale()
    out = []
    for si, sigma in enumerate(pot["sigmas"]):
        for j in range(pot["draws"]):
            rng = np.random.default_rng([pot["seed"], si, j])
            V = np.abs(rng.normal(0.0, sigma * scale, size=T.n))
            if positive_floor:
                V = V + 0.01 * sigma * scale
            out.append((f"sigma={sigma:g}/draw={j}", V))
    return out


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
    """Execute one scenario from its normalized copy (``validate_scenario``,
    which normalized copies pass unchanged); deterministic given the config."""
    sc = validate_scenario(sc)
    sid = sc["id"]
    space, T, T_A, bundle, op_extras = _build_instance(sc)
    checks = sc["checks"]
    bd = operators.beurling_deny_check(
        T, omega=(bundle.omega if bundle is not None else None))
    assumptions = {
        "beurling_deny": bd.passed,
        "beurling_deny_detail": {
            "is_real": bd.is_real, "offdiag_max": bd.offdiag_max,
            "cond2": bd.cond2_pass, "cond3": bd.cond3_pass,
        },
        "spectral_scale": T.spectral_scale(),
    }

    constants = functional.ConstantsBundle()
    reports: list[VerificationReport] = []
    extras: dict = {"operator": op_extras, "n_sites": space.n}

    kappa, gamma, gamma_tilde = (sc["exponents"][k] for k in ("kappa", "gamma", "gamma_tilde"))

    needs = _scenario_needs(sc)
    if any(nd.constant == "S" for nd in needs):
        q = exponents_from_gamma_kappa(0.0, kappa).q
        S, S_trace = functional.sobolev_constant(T, q)
        constants.S = S
        constants.provenance["S"] = "minimized"
        extras["sobolev"] = {"residual": S_trace.residual, "vacuous": S_trace.vacuous}
        if S > 0.0:
            lo, up = functional.clr_bounds_from_S(S, kappa)
            constants.L_lower, constants.L_upper = lo, up
            constants.provenance["L_bracket"] = "closed-form from minimized S"

    if any(nd.constant == "S_interp" for nd in needs):
        e = exponents_from_gamma_kappa(gamma, kappa)
        interp = functional.sobolev_interp_constant(T, e.q, e.theta)
        constants.S_interp = interp.value
        constants.provenance["S_interp"] = "minimized (tau step)"
        extras["interp"] = {"tau_star": interp.tau_star, "vacuous": interp.vacuous}

    pot = sc["potential"]
    per_draw = [c for c in checks if CHECK_NEEDS[c].per_draw]
    draws = _draw_potentials(T, pot, positive_floor="liyauTrace" in checks) if per_draw else []

    for label, V in draws:
        spectrum = spectra.shared_spectrum(T, V)
        for check in per_draw:
            if check == "CLR":
                r = verify_clr(T, V, kappa, constants.S, scenario_id=sid, bd=bd,
                               spectrum=spectrum)
            elif check == "weakLT":
                r = verify_weak_lt(T, V, gamma, kappa, constants.S_interp,
                                   scenario_id=sid, bd=bd, spectrum=spectrum)
            elif check == "LTmoment":
                L_weak = 0.0
                if constants.S_interp > 0.0:
                    L_weak = functional.ltw_bounds_from_S(constants.S_interp,
                                                          gamma, kappa)[1]
                r = verify_lt_moments(T, V, gamma_tilde, gamma, kappa, L_weak,
                                      scenario_id=sid, bd=bd, spectrum=spectrum)
            elif check == "magneticCLR":
                # T_A - V gets its own spectrum
                r = verify_clr(T_A, V, kappa, constants.S, scenario_id=sid, bd=bd,
                               tag="magneticCLR")
            else:  # liyauTrace
                r = verify_liyau_trace(T, V, constants.S, kappa, LIYAU_S_GRID,
                                       scenario_id=sid, bd=bd)
            r.extras["potential"] = label
            reports.append(r)

    # adversarial coupling sweep: V = c * S * |minimizer|^(q-2) keeps the
    # empirical ratio N / int V^kappa pinned to the bracket ends
    if "CLR" in checks and pot["adversarial"] is not None and constants.S > 0.0:
        q = exponents_from_gamma_kappa(0.0, kappa).q
        u_hat = np.abs(S_trace.minimizer)
        best_ratio = 0.0
        for c in pot["adversarial"]:
            V = c * constants.S * u_hat ** (q - 2.0)
            r = verify_clr(T, V, kappa, constants.S, scenario_id=sid, bd=bd)
            r.extras["potential"] = f"adversarial c={c:.9g}"
            best_ratio = max(best_ratio, r.extras["ratio"])
            reports.append(r)
        extras["adversarial_best_ratio"] = best_ratio

    if "diamagnetic" in checks:
        reports.append(verify_diamagnetic(T, T_A, DIAMAGNETIC_T_GRID, scenario_id=sid))

    if "gsrIdentity" in checks:
        reports.append(verify_gsr_identity(bundle, scenario_id=sid))

    hn = sc["heat_nash"]
    if hn is not None:
        heat_nash, hb = verify_heat_nash(T, kappa, constants.S, S_trace.minimizer,
                                         scenario_id=sid, bd=bd, **hn)
        reports.extend(heat_nash)
        if hb is not None:
            constants.K_measured = hb.K_measured
            constants.K_bound = hb.K_bound
            constants.provenance["K"] = "measured"
            # a measured K can only improve the semigroup-method constant;
            # both are recorded and the smaller drives L_lieb
            K_use = min(hb.K_measured, hb.K_bound)
            constants.L_lieb = functional.lieb_bound_from_K(K_use, kappa).value
            constants.provenance["L_lieb"] = "measured K" \
                if hb.K_measured < hb.K_bound else "bound K"

    return ScenarioResult(scenario_id=sid, reports=reports, constants=constants,
                          assumptions=assumptions, extras=extras)


def run_scenario_jsonable(sc: dict) -> dict:
    """Worker-friendly wrapper returning plain-dict results."""
    return run_scenario(sc).to_jsonable()
