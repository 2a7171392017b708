"""Sobolev-type constants by Rayleigh-quotient minimization, heat-bound
constants, and the closed-form constant formulas and brackets.

The quotient t[u]/||u||_q^2 is non-convex, so the minimizer reports an
upper bound on the infimum together with a certificate slack measured on
fresh random probes.  Minimization runs seeded gradient descent with
Barzilai-Borwein steps and a backtracking safeguard from 16 random
starts plus one positive start, then polishes each candidate with the
fixed-point iteration u <- normalize(A^{-1}(m |u|^(q-1) sgn u)), which
drives the first-order residual to the 1e-10 level that plain descent
cannot reach in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._specfun import beta_fn, e1_scaled, hardy_constant, lgamma

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
    hardy: dict | None = None
    al_factor: float | None = None
    provenance: dict = field(default_factory=dict)


def _norm_q(u: np.ndarray, m: np.ndarray, q: float) -> float:
    return float(np.sum(m * np.abs(u) ** q) ** (1.0 / q))


def _value_grad(u: np.ndarray, T, q: float):
    # value and gradient of t[u] on the manifold ||u||_q = 1
    m = T.measure
    Au = T.form_product(u)
    t = float(u @ Au)
    g = 2.0 * (Au - t * m * np.abs(u) ** (q - 1.0) * np.sign(u))
    return t, g


def _bb_descent(T, q, u0, *, max_iter, step0, stall_window=50, tol=1e-6):
    # Hand-off semantics: descent only needs to settle into a basin; the
    # fixed-point polish drives the residual to the 1e-10 level.  Exit on
    # a small gradient or when relative value improvements stall, since
    # the quotient Hessian is too ill-conditioned for gradient descent to
    # reach tight first-order tolerances directly.
    m = T.measure
    u = u0 / _norm_q(u0, m, q)
    t, g = _value_grad(u, T, q)
    best_t, best_u = t, u.copy()
    prev_u = prev_g = None
    step = step0
    last_improve = 0
    iters = 0
    for it in range(max_iter):
        iters = it + 1
        gn2 = float(g @ g)
        if math.sqrt(gn2) <= tol * max(1.0, abs(t)):
            break
        if prev_u is not None:
            du = u - prev_u
            dg = g - prev_g
            denom = float(du @ dg)
            if denom > 0.0:
                step = min(max(float(du @ du) / denom, 1e-12 * step0), 1e12 * step0)
            else:
                step = min(step * 2.0, 1e12 * step0)
        st = step
        accepted = False
        for _ in range(60):
            un = u - st * g
            nq = _norm_q(un, m, q)
            if nq > 0.0:
                un = un / nq
                tn, gn = _value_grad(un, T, q)
                if tn <= t - 1e-4 * st * gn2:
                    accepted = True
                    break
            st *= 0.5
        if not accepted:
            break  # at the numerical floor of the line search
        prev_u, prev_g = u, g
        u, t, g = un, tn, gn
        if t < best_t:
            # only improvements of at least 0.1% reset the stall window;
            # finer progress is left to the polish stage
            if t < best_t * (1.0 - 1e-3):
                last_improve = it
            best_t, best_u = t, u.copy()
        if it - last_improve > stall_window:
            break
    return best_t, best_u, iters


def _polish(T, q, u, *, max_iter=500):
    """Fixed-point refinement u <- normalize(A^{-1}(m |u|^(q-1) sgn u)).

    Value-guarded: reverts and stops if an update increases the quotient,
    so a polished candidate is never worse than its descent seed.
    """
    w, Q = T.eigensystem()
    m = T.measure
    if w[0] <= 1e-10 * max(w[-1], 1e-300):
        t, g = _value_grad(u, T, q)
        return t, u, float(np.linalg.norm(g))
    rs = 1.0 / np.sqrt(m)

    def solve_form(b):
        y = Q.T @ (rs * b)
        return rs * (Q @ (y / w))

    t, g = _value_grad(u, T, q)
    for _ in range(max_iter):
        if float(np.linalg.norm(g)) <= 1e-10 * max(1.0, abs(t)):
            break
        b = m * np.abs(u) ** (q - 1.0) * np.sign(u)
        x = solve_form(b)
        nq = _norm_q(x, m, q)
        if not nq > 0.0:
            break
        un = x / nq
        tn, gn = _value_grad(un, T, q)
        if tn > t + 1e-14 * max(1.0, abs(t)):
            break
        u, t, g = un, tn, gn
    return t, u, float(np.linalg.norm(g))


def sobolev_constant(T, q: float, *, restarts: int = 16, seed: int = 0,
                     max_iter: int = 50_000, certificate_samples: int = 2000):
    """Best found value of inf t[u]/||u||_q^2 with a minimization trace.

    Returns (S, trace).  S is an upper bound on the infimum; the trace
    carries the minimizer, iteration counts, first-order residual, and
    the certificate slack min(R(u) - S) over fresh random probes.
    Operators with nontrivial kernel return S = 0 immediately (the
    infimum vanishes on kernel vectors) with trace.vacuous set.
    """
    if not q > 2.0:
        raise ValueError(f"requires q > 2, got {q}")
    if not T.is_real:
        raise ValueError("Sobolev minimization handles real symmetric forms only")
    w, Q = T.eigensystem()
    scale = T.spectral_scale()
    if w[0] <= 1e-12 * scale:
        kern = Q[:, 0] / np.sqrt(T.measure)
        kern = kern / _norm_q(kern, T.measure, q)
        return 0.0, MinimizationTrace(value=0.0, minimizer=kern, restarts=0,
                                      iterations=0, residual=0.0, vacuous=True)

    m = T.measure
    n = T.n
    step0 = 1.0 / max(float(w[-1]), 1e-300)
    starts = [np.random.default_rng(seed + k).standard_normal(n) for k in range(restarts)]
    starts.append(np.ones(n))

    best_t, best_u, best_res = np.inf, None, np.inf
    total_iters = 0
    for u0 in starts:
        t_bb, u_bb, iters = _bb_descent(T, q, u0, max_iter=max_iter, step0=step0)
        total_iters += iters
        t_p, u_p, res = _polish(T, q, u_bb)
        if t_p < best_t:
            best_t, best_u, best_res = t_p, u_p, res

    slack = None
    if certificate_samples > 0:
        rng = np.random.default_rng(1000003)
        worst = np.inf
        worst_u = None
        done = 0
        while done < certificate_samples:
            b = min(500, certificate_samples - done)
            U = rng.standard_normal((n, b))
            if done % 2:
                U = np.abs(U)
            tvals = np.einsum("ij,ij->j", U, T.form_product(U))
            nq2 = np.sum(m[:, None] * np.abs(U) ** q, axis=0) ** (2.0 / q)
            ratios = tvals / nq2
            j = int(np.argmin(ratios))
            if ratios[j] < worst:
                worst = float(ratios[j])
                worst_u = U[:, j].copy()
            done += b
        if worst < best_t - 1e-9 * max(1.0, best_t):
            # a probe beat the optimizer; polish it and adopt the better value
            t_p, u_p, res = _polish(T, q, worst_u / _norm_q(worst_u, m, q))
            if t_p < best_t:
                best_t, best_u, best_res = t_p, u_p, res
        slack = worst - best_t

    trace = MinimizationTrace(value=float(best_t), minimizer=best_u,
                              restarts=len(starts), iterations=total_iters,
                              residual=best_res / max(1.0, abs(best_t)),
                              certificate_slack=slack)
    return float(best_t), trace


def _xpowx(x: float) -> float:
    """x^x with the limit value 1 at x = 0."""
    return 1.0 if x <= 0.0 else math.exp(x * math.log(x))


@dataclass
class InterpConstant:
    value: float
    tau_star: float
    direct_value: float | None
    rel_gap: float | None
    sweep_taus: np.ndarray
    sweep_values: np.ndarray
    vacuous: bool = False


def _interp_direct(T, q, theta, *, restarts=8, seed=0, max_iter=20_000):
    """Direct minimization of t[u]^theta ||u||_2^(2(1-theta)) / ||u||_q^2."""
    m, n = T.measure, T.n
    w = T.eigenvalues()
    step0 = 1.0 / max(float(w[-1]), 1e-300)

    def vg(u):
        Au = T.form_product(u)
        t = float(u @ Au)
        n2 = float(np.sum(m * u * u))
        J = t**theta * n2 ** (1.0 - theta)
        g = J * (2.0 * theta * Au / t + 2.0 * (1.0 - theta) * m * u / n2
                 - 2.0 * m * np.abs(u) ** (q - 1.0) * np.sign(u))
        return J, g

    best = np.inf
    for k in range(restarts):
        u = np.random.default_rng(seed + 7000 + k).standard_normal(n)
        u /= _norm_q(u, m, q)
        J, g = vg(u)
        prev_u = prev_g = None
        step = step0
        last = 0
        for it in range(max_iter):
            gn2 = float(g @ g)
            if math.sqrt(gn2) <= 1e-8 * max(1.0, J):
                break
            if prev_u is not None:
                du, dg = u - prev_u, g - prev_g
                denom = float(du @ dg)
                step = (min(max(float(du @ du) / denom, 1e-12 * step0), 1e12 * step0)
                        if denom > 0 else min(step * 2.0, 1e12 * step0))
            st, ok = step, False
            for _ in range(60):
                un = u - st * g
                nq = _norm_q(un, m, q)
                if nq > 0:
                    un = un / nq
                    Jn, gn = vg(un)
                    if Jn <= J - 1e-4 * st * gn2:
                        ok = True
                        break
                st *= 0.5
            if not ok:
                break
            prev_u, prev_g = u, g
            u, J, g = un, Jn, gn
            if J < best:
                last = it
            if it - last > 150:
                break
        best = min(best, J)
    return best


def sobolev_interp_constant(T, q: float, theta: float, *, sweep_points: int = 33,
                            sweep_restarts: int = 8, with_direct: bool = True,
                            seed: int = 0) -> InterpConstant:
    """Interpolation constant inf t[u]^theta ||u||^(2(1-theta)) / ||u||_q^2.

    Computed through the scaling equivalence
    S_interp = theta^theta (1-theta)^(1-theta) * inf_tau S_linear(tau^(theta-1)(T+tau), q)
    with a 33-point log tau sweep plus golden-section refinement, and
    cross-checked against direct minimization of the interpolated
    quotient (recorded in the result).
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"requires theta in (0, 1), got {theta}")
    if not q > 2.0:
        raise ValueError(f"requires q > 2, got {q}")
    w = T.eigenvalues()
    scale = T.spectral_scale()
    if w[0] <= 1e-12 * scale:
        return InterpConstant(value=0.0, tau_star=0.0, direct_value=None,
                              rel_gap=None, sweep_taus=np.array([]),
                              sweep_values=np.array([]), vacuous=True)
    lam_max = float(w[-1])
    taus = np.geomspace(1e-4 * lam_max, 1e4 * lam_max, sweep_points)

    def val(tau: float) -> float:
        s, _ = sobolev_constant(T.shifted(tau), q, restarts=sweep_restarts,
                                seed=seed, certificate_samples=0)
        return tau ** (theta - 1.0) * s

    sweep_vals = np.array([val(t) for t in taus])
    i = int(np.argmin(sweep_vals))
    # extend the refinement bracket when the minimum sits on a sweep boundary
    # (e.g. theta near 1, where the infimum is approached as tau -> 0)
    lo = taus[i - 1] if i > 0 else taus[0] * 1e-6
    hi = taus[i + 1] if i < len(taus) - 1 else taus[-1] * 1e6
    # golden-section refinement on log tau
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = val(math.exp(c)), val(math.exp(d))
    for _ in range(30):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = val(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = val(math.exp(d))
    tau_star = math.exp(0.5 * (a + b))
    best = min(float(np.min(sweep_vals)), fc, fd)
    coef = _xpowx(theta) * _xpowx(1.0 - theta)
    value = coef * best

    direct = rel_gap = None
    if with_direct:
        direct = _interp_direct(T, q, theta, restarts=sweep_restarts, seed=seed)
        rel_gap = abs(direct - value) / max(value, 1e-300)
    return InterpConstant(value=float(value), tau_star=float(tau_star),
                          direct_value=direct, rel_gap=rel_gap,
                          sweep_taus=taus, sweep_values=sweep_vals)


@dataclass
class TauMinimum:
    value: float
    tau_star: float


def tau_min_value(alpha: float, beta: float, theta: float) -> TauMinimum:
    """min over tau > 0 of alpha tau^(theta-1) + beta tau^theta, in closed form.

    The minimum equals theta^(-theta) (1-theta)^(theta-1) alpha^theta beta^(1-theta)
    at tau* = alpha (1-theta) / (beta theta).
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise ValueError(f"requires positive alpha, beta; got {alpha}, {beta}")
    if not (0.0 < theta < 1.0):
        raise ValueError(f"requires theta in (0, 1), got {theta}")
    value = math.exp(-theta * math.log(theta) - (1.0 - theta) * math.log(1.0 - theta)
                     + theta * math.log(alpha) + (1.0 - theta) * math.log(beta))
    tau_star = alpha * (1.0 - theta) / (beta * theta)
    return TauMinimum(value=value, tau_star=tau_star)


@dataclass
class NashReport:
    min_slack_rel: float
    passed: bool
    n_samples: int
    vacuous: bool = False


def nash_check(T, q: float, S: float, *, n_samples: int = 10_000,
               seed: int = 4242) -> NashReport:
    """Verify t[u]^(q/(2(q-1))) ||u||_1^((q-2)/(q-1)) >= S^(q/(2(q-1))) ||u||_2^2
    on random positive and signed functions; reports the minimal relative slack."""
    if S < 0.0:
        raise ValueError(f"requires S >= 0, got {S}")
    if S == 0.0:
        return NashReport(min_slack_rel=math.inf, passed=True, n_samples=0, vacuous=True)
    m, n = T.measure, T.n
    p = q / (2.0 * (q - 1.0))
    e1 = (q - 2.0) / (q - 1.0)
    rng = np.random.default_rng(seed)
    worst = np.inf
    done = 0
    while done < n_samples:
        b = min(500, n_samples - done)
        U = rng.standard_normal((n, b))
        if (done // 500) % 2:
            U = np.abs(U)
        tvals = np.einsum("ij,ij->j", U, T.form_product(U))
        n1 = np.sum(m[:, None] * np.abs(U), axis=0)
        n2sq = np.sum(m[:, None] * U * U, axis=0)
        lhs = np.maximum(tvals, 0.0) ** p * n1**e1
        rhs = S**p * n2sq
        slack = (lhs - rhs) / np.maximum(rhs, 1e-300)
        worst = min(worst, float(np.min(slack)))
        done += b
    return NashReport(min_slack_rel=worst, passed=worst >= -1e-10, n_samples=n_samples)


@dataclass
class HeatBoundReport:
    K_measured: float
    K_bound: float
    passed_1inf: bool
    K12_measured: float
    K12_bound: float
    passed_12: bool
    s_grid: np.ndarray
    kernel_min: float           # least real heat-kernel entry over s_grid


def heat_bound_check(T, kappa: float, S: float, *, s_grid=None,
                     grid_points: int = 60) -> HeatBoundReport:
    """Measure sup_s s^kappa ||exp(-sT)||_(1->inf) and compare with (kappa/S)^kappa.

    Also checks the squared 1->2 norm against (kappa/2S)^kappa s^(-kappa)
    pointwise on the grid, and records the least real kernel entry over the
    grid (``kernel_min``) from the same kernels.
    """
    from .spectra import heat_norms  # deferred to avoid import cycle at module load

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
    K_meas = 0.0
    K12_meas = 0.0
    kernel_min = math.inf
    for s in s_grid:
        n1inf, n12, kmin = heat_norms(T, float(s))
        K_meas = max(K_meas, float(s**kappa * n1inf))
        K12_meas = max(K12_meas, float(s**kappa * n12**2))
        kernel_min = min(kernel_min, kmin)
    K_bound = (kappa / S) ** kappa
    K12_bound = (kappa / (2.0 * S)) ** kappa
    return HeatBoundReport(
        K_measured=K_meas, K_bound=K_bound,
        passed_1inf=K_meas <= K_bound * (1.0 + 1e-8),
        K12_measured=K12_meas, K12_bound=K12_bound,
        passed_12=K12_meas <= K12_bound * (1.0 + 1e-8),
        s_grid=s_grid, kernel_min=kernel_min,
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
    return K / (kappa * (kappa - 1.0)) * a ** (1.0 - kappa) * math.exp(a) / denom


@dataclass
class LiebBound:
    value: float
    a_star: float
    unimodal: bool


def lieb_bound_from_K(K: float, kappa: float, *, rel_tol: float = 1e-8) -> LiebBound:
    """Semigroup-method eigenvalue-counting constant from the heat constant K.

    Minimizes the closed-form objective over a > 0 (the inner integral
    int_0^inf e^-lambda/(lambda+a) dlambda equals e^a E1(a)) by a log
    grid bracket plus golden-section refinement.
    """
    if not kappa > 1.0:
        raise ValueError(f"requires kappa > 1, got {kappa}")
    if not K > 0.0:
        raise ValueError(f"requires K > 0, got {K}")
    grid = np.geomspace(1e-4, 30.0, 160)
    vals = np.array([lieb_objective(float(a), K, kappa) for a in grid])
    diffs = np.sign(np.diff(vals))
    changes = int(np.count_nonzero(np.diff(diffs[diffs != 0.0])))
    unimodal = changes <= 1
    i = int(np.argmin(vals))
    a_lo = grid[max(i - 1, 0)]
    a_hi = grid[min(i + 1, len(grid) - 1)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(a_lo), math.log(a_hi)
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc = lieb_objective(math.exp(c), K, kappa)
    fd = lieb_objective(math.exp(d), K, kappa)
    while b - a > rel_tol * 0.1:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = lieb_objective(math.exp(c), K, kappa)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = lieb_objective(math.exp(d), K, kappa)
    a_star = math.exp(0.5 * (a + b))
    return LiebBound(value=lieb_objective(a_star, K, kappa), a_star=a_star,
                     unimodal=unimodal)


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
