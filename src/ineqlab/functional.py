"""Sobolev-type constants by Rayleigh-quotient minimization, heat-bound
constants, and the closed-form constant formulas and brackets.

The quotient t[u]/||u||_q^2 is non-convex, so the minimizer reports an
upper bound on the infimum together with a certificate slack measured on
fresh random probes.  Minimization runs the fixed-point iteration
u <- normalize(A^{-1}(m |u|^(q-1) sgn u)) from 16 seeded random starts
plus one positive start.  It is the nonlinear inverse power method for a
ratio of two convex 2-homogeneous functionals (Hein & Buehler, NIPS
2010): each round is a descent step preconditioned by A^{-1}, and a
per-row value guard keeps every round from raising a row's quotient.  It
drives the first-order residual to the 1e-10 level.

The starts run as one block: they are the rows of a k x n array, and
each round solves all live rows with one product in the eigenbasis of A.
A row leaves the block when its residual reaches 1e-10, when its update
vanishes or would raise its value, or after 500 rounds.  The row
reductions treat each row as a vector, but the shared solve does not, so
a row matches its one-row run only to rounding; for a fixed BLAS build
and thread count the result is deterministic to the last bit.

The interpolation constant runs the same fixed point jointly in (u, tau):
every row carries its own shift tau, the solve divides by w + tau in the
cached eigenbasis of A, and after each accepted round tau moves to its
closed-form best value for the row's new point.  At tau = 0 with no tau
step this is the Sobolev path, bit for bit.  It is the only route to the
interpolation constant; its value is an upper bound, attained at the
reported minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._specfun import beta_fn, e1_scaled, hardy_constant, lgamma
from .spectra import heat_norms

__all__ = [
    "MinimizationTrace", "ConstantsBundle", "sobolev_constant",
    "sobolev_interp_constant", "tau_min_value", "nash_check",
    "heat_bound_check", "hardy_constant", "clr_bounds_from_S",
    "ltw_bounds_from_S", "lieb_bound_from_K", "lieb_objective",
    "aizenman_lieb_factor", "aizenman_lieb_unminimized",
    "continuum_sobolev_d3",
]


@dataclass
class MinimizationTrace:
    value: float
    minimizer: np.ndarray | None
    restarts: int
    iterations: int
    residual: float              # ||grad||_2 / max(1, |value|) at the reported minimizer
    certificate_slack: float | None = None
    vacuous: bool = False


@dataclass
class ConstantsBundle:
    """Computed constants of one scenario with provenance per entry.

    provenance values: "closed-form" | "minimized" | "measured".
    """

    S: float | None = None
    S_interp: float | None = None
    K_measured: float | None = None
    K_bound: float | None = None
    L_lower: float | None = None
    L_upper: float | None = None
    L_lieb: float | None = None
    provenance: dict = field(default_factory=dict)


def _rowdot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """u . v for each pair of rows, each summed as a vector dot product."""
    return np.matmul(U[:, None, :], V[:, :, None])[:, 0, 0]


def _norm_q(U: np.ndarray, m: np.ndarray, q: float) -> np.ndarray:
    """||u||_q of each row u of U (of u itself for a vector)."""
    return (m * np.abs(U) ** q).sum(axis=-1) ** (1.0 / q)


def _value_grad(U: np.ndarray, T, q: float, tau=0.0):
    # per row: value and gradient of t[u] + tau ||u||^2 on the manifold
    # ||u||_q = 1, for one shift tau or one per row (a zero shift adds +0.0)
    m = T.measure
    AU = T.form_product(U) + np.reshape(tau, (-1, 1)) * (m * U)
    t = _rowdot(U, AU)
    G = 2.0 * (AU - t[:, None] * m * np.abs(U) ** (q - 1.0) * np.sign(U))
    return t, G


def _polish(T, q, U, *, tau=0.0, theta=None, max_iter=500):
    """Fixed-point iteration u <- normalize((A + tau M)^{-1}(m |u|^(q-1) sgn u))
    on every row u of the k x n block U, for a positive definite T and a
    shift tau >= 0, one for all rows or one per row, solved by ``T.solve``
    at each row's shift.

    Value-guarded per row: a row whose update would increase its quotient
    t[u] + tau ||u||^2 keeps its last point and stops, so a polished row is
    never worse than its seed.  A row also stops when its residual reaches
    1e-10 or after max_iter rounds.  Given theta in (0, 1), each accepted
    round then moves the row's shift to the best one for its new point,
    tau <- t[u] (1-theta) / (theta ||u||^2) (``tau_min_value``), and the
    residual stop also needs that move to be at most 1e-8 relative.

    Returns (values at the final shifts, points, gradient norms, rounds),
    one per row; a row's rounds count every solve it took, the rejected
    last one included.
    """
    m = T.measure
    U = np.array(U, dtype=np.float64)
    tau = np.full(U.shape[0], tau, dtype=np.float64)
    t, G = _value_grad(U, T, q, tau)
    res = np.sqrt(_rowdot(G, G))
    rounds = np.zeros(U.shape[0], dtype=np.int64)
    live = np.flatnonzero(res > 1e-10 * np.maximum(1.0, np.abs(t)))
    for _ in range(max_iter):
        if not live.size:
            break
        rounds[live] += 1
        Ul, tl, sl = U[live], t[live], tau[live]
        B = m * np.abs(Ul) ** (q - 1.0) * np.sign(Ul)
        X = T.solve(B, sl[:, None])     # all rows, each at its own shift
        nq = _norm_q(X, m, q)
        # a row stops when its update vanishes or would raise its value
        ok = nq > 0.0
        live, X, nq, tl, sl = live[ok], X[ok], nq[ok], tl[ok], sl[ok]
        Un = X / nq[:, None]
        tn, Gn = _value_grad(Un, T, q, sl)
        keep = ~(tn > tl + 1e-14 * np.maximum(1.0, np.abs(tl)))
        live, Un, tn, Gn, sl = live[keep], Un[keep], tn[keep], Gn[keep], sl[keep]
        U[live], t[live] = Un, tn
        res[live] = rn = np.sqrt(_rowdot(Gn, Gn))
        settled = rn <= 1e-10 * np.maximum(1.0, np.abs(tn))
        if theta is not None:
            n2 = _rowdot(Un, m * Un)
            t0 = tn - sl * n2
            tau[live] = sn = tau_min_value(t0, n2, theta).tau_star
            t[live] = t0 + sn * n2
            settled &= np.abs(sn - sl) <= 1e-8 * sl
        live = live[~settled]
    return t, U, res, rounds


def _probe_blocks(T, n_samples: int, seed: int):
    """Random probes in blocks of up to 500, each with its form values t[u]:
    the rows of standard normal draws, with every second block replaced by
    its absolute values, so that signed and positive probes alternate."""
    rng = np.random.default_rng(seed)
    for done in range(0, n_samples, 500):
        b = min(500, n_samples - done)
        # probe j is column j of an n x b draw
        U = np.ascontiguousarray(rng.standard_normal((T.n, b)).T)
        if (done // 500) % 2:
            U = np.abs(U)
        yield U, _rowdot(U, T.form_product(U))


def _seeded_starts(n: int, restarts: int, seed: int) -> np.ndarray:
    """``restarts`` seeded standard normal rows plus one positive row."""
    return np.array([np.random.default_rng(seed + k).standard_normal(n)
                     for k in range(restarts)] + [np.ones(n)])


def sobolev_constant(T, q: float, *, restarts: int = 16, seed: int = 0,
                     certificate_samples: int = 2000):
    """Best found value of inf t[u]/||u||_q^2 with a minimization trace.

    Returns (S, trace).  S is an upper bound on the infimum; the trace
    carries the minimizer, the fixed-point rounds summed over the starts
    (``trace.iterations``), the first-order residual, the certificate
    slack min(R(u) - S) over fresh random probes, signed and positive
    (``_probe_blocks``, as ``nash_check`` draws them).  The starts are
    ``restarts`` seeded random rows plus one positive row.
    Operators with nontrivial kernel return S = 0 immediately (the
    infimum vanishes on kernel vectors) with trace.vacuous set.
    """
    if not q > 2.0:
        raise ValueError(f"requires q > 2, got {q}")
    if not T.is_real:
        raise ValueError("Sobolev minimization handles real symmetric forms only")
    if not T.is_positive_definite():
        _, Q = T.eigensystem()
        kern = Q[:, 0] / np.sqrt(T.measure)
        kern = kern / _norm_q(kern, T.measure, q)
        return 0.0, MinimizationTrace(value=0.0, minimizer=kern, restarts=0,
                                      iterations=0, residual=0.0, vacuous=True)

    m = T.measure
    n = T.n
    U0 = _seeded_starts(n, restarts, seed)
    t_p, U_p, res, rounds = _polish(T, q, U0 / _norm_q(U0, m, q)[:, None])
    i = int(np.argmin(t_p))         # the first of equal minima
    best_t, best_u, best_res = float(t_p[i]), U_p[i], float(res[i])

    slack = None
    if certificate_samples > 0:
        worst = np.inf
        worst_u = None
        for U, tvals in _probe_blocks(T, certificate_samples, 1000003):
            ratios = tvals / np.sum(m * np.abs(U) ** q, axis=1) ** (2.0 / q)
            j = int(np.argmin(ratios))
            if ratios[j] < worst:
                worst = float(ratios[j])
                worst_u = U[j].copy()
        if worst < best_t - 1e-9 * max(1.0, best_t):
            # a probe beat the optimizer; polish it and adopt the better value
            t_w, U_w, res_w, _ = _polish(T, q, (worst_u / _norm_q(worst_u, m, q))[None, :])
            if t_w[0] < best_t:
                best_t, best_u, best_res = float(t_w[0]), U_w[0], float(res_w[0])
        slack = worst - best_t

    trace = MinimizationTrace(value=best_t, minimizer=best_u,
                              restarts=U0.shape[0], iterations=int(rounds.sum()),
                              residual=best_res / max(1.0, abs(best_t)),
                              certificate_slack=slack)
    return best_t, trace


def _xpowx(x: float) -> float:
    """x^x with the limit value 1 at x = 0."""
    return 1.0 if x <= 0.0 else math.exp(x * math.log(x))


def _golden_log(f, lo: float, hi: float, *, iterations: int):
    """Golden-section search for the minimum of f over [lo, hi] on a log scale.

    Returns the midpoint (geometric) of the final bracket and the smaller
    of the two final probe values.
    """
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(math.exp(d))
    return math.exp(0.5 * (a + b)), min(fc, fd)


@dataclass
class InterpConstant:
    """S_interp from the joint (u, tau) fixed point: the least value found,
    an upper bound on the infimum, with its best shift tau_star and the
    point that attains it (``minimizer``, with ||u||_q = 1; None when the
    constant is vacuous)."""

    value: float
    tau_star: float
    minimizer: np.ndarray | None
    vacuous: bool = False


def sobolev_interp_constant(T, q: float, theta: float, *, restarts: int = 8,
                            seed: int = 0) -> InterpConstant:
    """Interpolation constant inf t[u]^theta ||u||^(2(1-theta)) / ||u||_q^2.

    Computed through the scaling equivalence
    S_interp = theta^theta (1-theta)^(1-theta) * inf_tau tau^(theta-1) S(T + tau, q)
    as one joint fixed point in (u, tau).  Every row of the seeded start
    block of ``sobolev_constant`` carries its own shift, first the best one
    for its start, tau = t[u] (1-theta) / (theta ||u||^2) (``tau_min_value``).
    Each round of ``_polish`` takes one guarded fixed-point step of S(T + tau)
    in the cached eigenbasis of T and then moves each row's tau to the best
    shift for its new point.  The guard compares values at one tau and the
    tau step minimizes J(u, tau) = tau^(theta-1) (t[u] + tau ||u||^2) over
    tau exactly, so no round raises a row's J, and every value is an upper
    bound.  A row stops when its residual reaches 1e-10 and its tau moves
    by at most 1e-8 relative, when the guard rejects its update, or after
    500 rounds.  The least J over the rows is reported with its tau and
    its row; at that row the value equals t[u]^theta ||u||^(2(1-theta)) to
    rounding.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"requires theta in (0, 1), got {theta}")
    if not q > 2.0:
        raise ValueError(f"requires q > 2, got {q}")
    if not T.is_real:
        raise ValueError("Sobolev minimization handles real symmetric forms only")
    if not T.is_positive_definite():
        return InterpConstant(value=0.0, tau_star=0.0, minimizer=None, vacuous=True)
    m = T.measure

    def parts(U):
        # t[u] and ||u||^2 of each row
        return _rowdot(U, T.form_product(U)), _rowdot(U, m * U)

    U0 = _seeded_starts(T.n, restarts, seed)
    U0 /= _norm_q(U0, m, q)[:, None]
    _, U, _, _ = _polish(T, q, U0, tau=tau_min_value(*parts(U0), theta).tau_star,
                         theta=theta)
    t, n2 = parts(U)
    tau = tau_min_value(t, n2, theta).tau_star
    J = tau ** (theta - 1.0) * (t + tau * n2)
    i = int(np.argmin(J))
    value = _xpowx(theta) * _xpowx(1.0 - theta) * float(J[i])
    return InterpConstant(value=value, tau_star=float(tau[i]), minimizer=U[i])


@dataclass
class TauMinimum:
    value: float | np.ndarray
    tau_star: float | np.ndarray


def tau_min_value(alpha, beta, theta: float) -> TauMinimum:
    """min over tau > 0 of alpha tau^(theta-1) + beta tau^theta, in closed form.

    The minimum equals theta^(-theta) (1-theta)^(theta-1) alpha^theta beta^(1-theta)
    at tau* = alpha (1-theta) / (beta theta), entry by entry for arrays
    alpha and beta of one shape.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if not (np.all(alpha > 0.0) and np.all(beta > 0.0)):
        raise ValueError(f"requires positive alpha, beta; got {alpha}, {beta}")
    if not (0.0 < theta < 1.0):
        raise ValueError(f"requires theta in (0, 1), got {theta}")
    value = np.exp(-theta * math.log(theta) - (1.0 - theta) * math.log(1.0 - theta)
                   + theta * np.log(alpha) + (1.0 - theta) * np.log(beta))
    tau_star = alpha * (1.0 - theta) / (beta * theta)
    return TauMinimum(value=value, tau_star=tau_star)


@dataclass
class NashReport:
    min_slack_rel: float
    n_samples: int
    vacuous: bool = False


def nash_check(T, q: float, S: float, *, n_samples: int = 10_000,
               seed: int = 4242) -> NashReport:
    """Measure t[u]^(q/(2(q-1))) ||u||_1^((q-2)/(q-1)) against S^(q/(2(q-1))) ||u||_2^2
    on random positive and signed functions; reports the minimal relative
    slack, which ``verify.verify_heat_nash`` judges."""
    if S < 0.0:
        raise ValueError(f"requires S >= 0, got {S}")
    if S == 0.0:
        return NashReport(min_slack_rel=math.inf, n_samples=0, vacuous=True)
    m = T.measure
    p = q / (2.0 * (q - 1.0))
    e1 = (q - 2.0) / (q - 1.0)
    worst = np.inf
    for U, tvals in _probe_blocks(T, n_samples, seed):
        n1 = np.sum(m * np.abs(U), axis=1)
        n2sq = np.sum(m * U * U, axis=1)
        lhs = np.maximum(tvals, 0.0) ** p * n1**e1
        rhs = S**p * n2sq
        slack = (lhs - rhs) / np.maximum(rhs, 1e-300)
        worst = min(worst, float(np.min(slack)))
    return NashReport(min_slack_rel=worst, n_samples=n_samples)


@dataclass
class HeatBoundReport:
    K_measured: float
    K_bound: float
    K12_measured: float
    K12_bound: float
    s_grid: np.ndarray


def heat_bound_check(T, kappa: float, S: float, *, s_grid=None,
                     grid_points: int = 60) -> HeatBoundReport:
    """Measure sup_s s^kappa ||exp(-sT)||_(1->inf) with its bound (kappa/S)^kappa,
    and sup_s s^kappa ||exp(-sT)||_(1->2)^2 with its bound (kappa/2S)^kappa,
    over the grid; ``verify.verify_heat_nash`` judges them.  Both norms
    come from the kernel diagonal at every grid point at once
    (``spectra.heat_norms``); no kernel is built.
    """
    if not S > 0.0:
        raise ValueError("heat bound requires S > 0 (operator without kernel)")
    if not kappa > 0.0:
        raise ValueError(f"requires kappa > 0, got {kappa}")
    w = T.eigenvalues()
    if s_grid is None:
        lo = 1e-2 / max(float(w[-1]), 1e-300)
        hi = 50.0 / max(float(w[0]), 1e-300)
        s_grid = np.geomspace(lo, hi, grid_points)
    else:
        s_grid = np.asarray(s_grid, dtype=np.float64)
    n1inf, n12 = heat_norms(T, s_grid)
    K_meas = float(np.max(s_grid**kappa * n1inf))
    K12_meas = float(np.max(s_grid**kappa * n12**2))
    K_bound = (kappa / S) ** kappa
    K12_bound = (kappa / (2.0 * S)) ** kappa
    return HeatBoundReport(
        K_measured=K_meas, K_bound=K_bound,
        K12_measured=K12_meas, K12_bound=K12_bound, s_grid=s_grid,
    )


def clr_bounds_from_S(S: float, kappa: float) -> tuple[float, float]:
    """Bracket (S^-kappa, e^(kappa-1) S^-kappa) for the counting constant."""
    if not S > 0.0:
        raise ValueError(f"requires S > 0, got {S}")
    if not kappa > 0.0:
        raise ValueError(f"requires kappa > 0, got {kappa}")
    lower = S ** (-kappa)
    return lower, math.exp(kappa - 1.0) * lower


def ltw_bounds_from_S(S: float, gamma: float, kappa: float) -> tuple[float, float]:
    """Bracket for the weak counting constant at exponents (gamma, kappa).

    The effective constant is theta^-theta (1-theta)^(theta-1) S with
    theta = kappa/(gamma+kappa); the bracket ratio is e^(gamma+kappa-1).
    """
    if not S > 0.0:
        raise ValueError(f"requires S > 0, got {S}")
    if gamma < 0.0 or not kappa > 0.0 or not gamma + kappa > 1.0:
        raise ValueError(f"requires gamma >= 0, kappa > 0, gamma+kappa > 1; got {gamma}, {kappa}")
    theta = kappa / (gamma + kappa)
    s_eff = S / (_xpowx(theta) * _xpowx(1.0 - theta))
    lower = s_eff ** (-(gamma + kappa))
    return lower, math.exp(gamma + kappa - 1.0) * lower


def lieb_objective(a: float, K: float, kappa: float) -> float:
    """K/(kappa(kappa-1)) * a^(1-kappa) e^a / (1 - a e^a E1(a))."""
    if not a > 0.0:
        raise ValueError(f"requires a > 0, got {a}")
    denom = 1.0 - a * e1_scaled(a)
    if denom <= 0.0:
        raise ArithmeticError(f"objective denominator nonpositive at a={a}")
    log_power = (1.0 - kappa) * math.log(a)
    if abs(log_power) < 700.0 and a < 700.0:
        return K / (kappa * (kappa - 1.0)) * a ** (1.0 - kappa) * math.exp(a) / denom
    # a^(1-kappa) or e^a alone leaves the double range, though their product
    # may not: join them in one exponential (OverflowError if it overflows)
    return K / (kappa * (kappa - 1.0)) * math.exp(log_power + a) / denom


@dataclass
class LiebBound:
    value: float
    a_star: float
    unimodal: bool


def lieb_bound_from_K(K: float, kappa: float) -> LiebBound:
    """Semigroup-method eigenvalue-counting constant from the heat constant K.

    Minimizes the closed-form objective over a > 0 (the inner integral
    int_0^inf e^-lambda/(lambda+a) dlambda equals e^a E1(a)) by a log
    grid bracket plus golden-section refinement.  The grid spans
    [1e-4, 30] and is extended geometrically past an end that holds the
    minimum until the minimum is interior.  Where the objective overflows
    (a^(1-kappa) near a = 0 at large kappa) the search reads it as +inf;
    a minimum that is not a finite positive double, or a starting grid
    with no finite value, raises ValueError.
    """
    if not kappa > 1.0:
        raise ValueError(f"requires kappa > 1, got {kappa}")
    if not K > 0.0:
        raise ValueError(f"requires K > 0, got {K}")

    def f(a: float) -> float:
        try:
            return lieb_objective(a, K, kappa)
        except ArithmeticError:     # overflow, or a nonpositive denominator
            return math.inf

    def out_of_range(value):
        return ValueError(f"the Lieb bound for kappa = {kappa} lies outside the "
                          f"double range (computed {value})")

    grid = [float(a) for a in np.geomspace(1e-4, 30.0, 160)]
    vals = [f(a) for a in grid]
    if not any(map(math.isfinite, vals)):
        # K so large that the objective overflows everywhere: the bracket
        # would only ever grow toward a = 0
        raise out_of_range(min(vals))
    ratio = grid[1] / grid[0]
    i = int(np.argmin(vals))
    while i in (0, len(grid) - 1):
        at, a = (0, grid[0] / ratio) if i == 0 else (len(grid), grid[-1] * ratio)
        grid.insert(at, a)
        vals.insert(at, f(a))
        i = int(np.argmin(vals))
    with np.errstate(invalid="ignore"):     # inf - inf where it overflows
        diffs = np.sign(np.diff(vals))
    changes = int(np.count_nonzero(np.diff(diffs[np.abs(diffs) == 1.0])))
    unimodal = changes <= 1
    a_lo, a_hi = grid[i - 1], grid[i + 1]
    # 40 steps shrink the interior bracket (two grid cells, width 0.159 in
    # log a) below 1e-9
    a_star, _ = _golden_log(f, a_lo, a_hi, iterations=40)
    value = f(a_star)
    if not (value > 0.0 and math.isfinite(value)):
        raise out_of_range(value)
    return LiebBound(value=value, a_star=a_star, unimodal=unimodal)


def aizenman_lieb_factor(gamma: float, gamma_tilde: float, kappa: float) -> float:
    """Moment-lifting multiplier taking a weak bound at gamma to moments gamma_tilde.

    Closed form gt^(gt+1) / (g^g (gt-g)^(gt-g)) * Gamma(g+k+1) Gamma(gt-g) / Gamma(gt+k+1).
    """
    g, gt, k = float(gamma), float(gamma_tilde), float(kappa)
    if not (gt > g > 0.0):
        raise ValueError(f"requires gamma_tilde > gamma > 0, got {g}, {gt}")
    if not k > 0.0:
        raise ValueError(f"requires kappa > 0, got {k}")
    log_val = ((gt + 1.0) * math.log(gt) - g * math.log(g)
               - (gt - g) * math.log(gt - g)
               + lgamma(g + k + 1.0) + lgamma(gt - g) - lgamma(gt + k + 1.0))
    return math.exp(log_val)


def aizenman_lieb_unminimized(gamma: float, gamma_tilde: float, kappa: float,
                              s: float) -> float:
    """The s-dependent expression gt (1-s)^-g s^-(gt-g) B(g+k+1, gt-g)."""
    g, gt, k = float(gamma), float(gamma_tilde), float(kappa)
    if not (gt > g > 0.0):
        raise ValueError(f"requires gamma_tilde > gamma > 0, got {g}, {gt}")
    if not (0.0 < s < 1.0):
        raise ValueError(f"requires s in (0, 1), got {s}")
    return (gt * (1.0 - s) ** (-g) * s ** (-(gt - g))
            * beta_fn(g + k + 1.0, gt - g))


def continuum_sobolev_d3() -> float:
    """Sharp constant of the d = 3, q = 6 gradient-vs-L6 inequality: 3 (pi/2)^(4/3).

    Used as a configured input in the factor comparison against the
    semigroup-method constant; validated in tests by radial quadrature
    of the trial profile (1+|x|^2)^(-1/2).
    """
    return 3.0 * (math.pi / 2.0) ** (4.0 / 3.0)
