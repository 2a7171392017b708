"""Sobolev-type constants by Rayleigh-quotient minimization, heat-bound
constants, and the closed-form constant formulas and brackets.

The quotient t[u]/||u||_q^2 is non-convex, so the minimizer reports an
upper bound on the infimum, attained at the point it returns.
Minimization runs the fixed-point iteration
u <- normalize(A^{-1}(m |u|^(q-1) sgn u)) from 16 seeded random starts
plus one positive start.  It is the nonlinear inverse power method for a
ratio of two convex 2-homogeneous functionals (Hein & Buehler, NIPS
2010): each round is a descent step preconditioned by A^{-1}, and a
per-row value guard keeps every round from raising a row's quotient.  It
drives the first-order residual to the 1e-10 level.

The starts run as one block: they are the rows of a k x n array, and
each round solves all live rows with one product in the eigenbasis of A.
A row leaves the block when its residual reaches 1e-10, when its update
vanishes or would raise its value, after 500 rounds, or when it lies
within ``MERGE_REL`` = 1e-2 of a row that has already settled (up to
sign) with a value no lower than that row's: it has fallen into a basin
that has already been found, and its further rounds would only find that
basin's minimum again.  The row reductions treat each row as a vector, but the
shared solve does not, so a row matches its one-row run only to
rounding; for a fixed BLAS build and thread count the result is
deterministic to the last bit.

The interpolation constant runs the same fixed point jointly in (u, tau),
from the same 17 starts: every row carries its own shift tau, the solve
divides by w + tau in the cached eigenbasis of A, and after each accepted
round tau moves to its closed-form best value for the row's new point.
At tau = 0 with no tau step this is the Sobolev path, bit for bit.  It is
the only route to the interpolation constant; its value is an upper
bound, attained at the reported minimizer.  Neither minimizer takes an
option: each is one fixed search.  So is the Lieb bound, whose minimizer
is the root of one increasing function, found by bisection.

The seeded starts are the only random numbers drawn here.  The Nash bound
that S implies is tested on a fixed ladder of powers |u|^k of the Sobolev
minimizer u (``nash_check``), where a too large S shows first.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._specfun import e1_scaled, hardy_constant, lgamma
from .spectra import heat_norms

__all__ = [
    "MinimizationTrace", "ConstantsBundle", "sobolev_constant",
    "sobolev_interp_constant", "tau_min_value", "nash_check",
    "heat_bound_check", "hardy_constant", "clr_bounds_from_S",
    "ltw_bounds_from_S", "lieb_bound_from_K", "lieb_objective",
    "aizenman_lieb_factor",
]


@dataclass
class MinimizationTrace:
    value: float
    minimizer: np.ndarray | None     # None when the constant is vacuous
    iterations: int
    residual: float              # ||grad||_2 / max(1, |value|) at the reported minimizer
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
    # ||u||_q = 1, for one shift tau or one per row (a zero shift adds +0.0),
    # and |u|^(q-1) sgn u, the next fixed-point right-hand side over m
    m = T.measure
    AU = T.form_product(U) + np.reshape(tau, (-1, 1)) * (m * U)
    t = _rowdot(U, AU)
    P = np.abs(U) ** (q - 1.0) * np.sign(U)
    # a factor sgn u in {-1, 0, 1} is exact, so (t m) P rounds as
    # ((t m) |u|^(q-1)) sgn u would
    G = 2.0 * (AU - t[:, None] * m * P)
    return t, G, P


# A live row stops once its point lies within MERGE_REL of a settled row's
# point, up to sign (the m-weighted 2-norm of the difference, relative to
# the settled row's norm), with a value no lower than that row's: it has
# fallen into a basin that has already settled.  Over 288 random small forms
# (Laplacian, fractional and Hardy; d = 1 and 2; q in {3, 4, 6}; lattice or
# random measure; S and S_interp at theta = 1/2), every radius from 1e-3 to
# 1e-1 moved no block minimum by more than 1.2e-14 relative against the
# loop without the merge, and 1e-2 cut the Sobolev rounds by 24 %.  A merge
# at any distance lost the lowest basin on 13 of the 288, by up to 0.24 %,
# and on a 25-site fractional form of the tests by 2.2 %.
MERGE_REL = 1e-2


def _merged(Ul, vl, V, vs, m):
    """Mask of the live rows Ul (values vl) that lie within MERGE_REL of a
    settled row of V (values vs), up to sign, with a value no lower than
    that row's: one k x s product of the live rows against the settled."""
    n2l, n2s = _rowdot(Ul, m * Ul), _rowdot(V, m * V)
    # ||u -+ v||^2 = ||u||^2 + ||v||^2 -+ 2 <u, v>, the nearer sign taken
    d2 = n2l[:, None] + n2s - 2.0 * np.abs((m * Ul) @ V.T)
    near = d2 <= MERGE_REL**2 * n2s
    return np.any(near & (vl[:, None] >= vs), axis=1)


def _polish(T, q, U, *, tau=0.0, theta=None, max_iter=500):
    """Fixed-point iteration u <- normalize((A + tau M)^{-1}(m |u|^(q-1) sgn u))
    on every row u of the k x n block U, for a positive definite T and a
    shift tau >= 0, one for all rows or one per row, solved by ``T.solve``
    at each row's shift.

    Value-guarded per row: a row whose update would increase its quotient
    t[u] + tau ||u||^2 keeps its last point and stops, so a polished row is
    never worse than its seed.  A row settles when its residual reaches
    1e-10, and stops after max_iter rounds.  Given theta in (0, 1), each
    accepted round then moves the row's shift to the best one for its new
    point, tau <- t[u] (1-theta) / (theta ||u||^2) (``tau_min_value``), and
    settling also needs that move to be at most 1e-8 relative.  A row also
    stops when it lies within ``MERGE_REL`` of a settled row, up to sign,
    with a value no lower than that row's: t, or J = tau^(theta-1) (t[u] +
    tau ||u||^2) given theta.  Such a row has fallen into a basin that has
    already settled, and its further rounds would only find that basin's
    minimum again.

    Returns (values at the final shifts, points, gradient norms, rounds),
    one per row; a row's rounds count every solve it took, the rejected
    last one included.
    """
    m = T.measure
    U = np.array(U, dtype=np.float64)
    tau = np.full(U.shape[0], tau, dtype=np.float64)
    t, G, P = _value_grad(U, T, q, tau)
    res = np.sqrt(_rowdot(G, G))
    rounds = np.zeros(U.shape[0], dtype=np.int64)
    settled = ~(res > 1e-10 * np.maximum(1.0, np.abs(t)))
    live = np.flatnonzero(~settled)

    def value(rows):
        return t[rows] if theta is None else tau[rows] ** (theta - 1.0) * t[rows]

    for _ in range(max_iter):
        if not live.size:
            break
        rounds[live] += 1
        tl, sl = t[live], tau[live]
        X = T.solve(m * P[live], sl[:, None])     # all rows, each at its own shift
        nq = _norm_q(X, m, q)
        # a row stops when its update vanishes or would raise its value
        ok = nq > 0.0
        if not ok.all():
            live, X, nq, tl, sl = live[ok], X[ok], nq[ok], tl[ok], sl[ok]
        Un = X / nq[:, None]
        tn, Gn, Pn = _value_grad(Un, T, q, sl)
        keep = ~(tn > tl + 1e-14 * np.maximum(1.0, np.abs(tl)))
        if not keep.all():
            live, Un, tn, Gn, Pn, sl = (live[keep], Un[keep], tn[keep], Gn[keep],
                                        Pn[keep], sl[keep])
        U[live], t[live], P[live] = Un, tn, Pn
        res[live] = rn = np.sqrt(_rowdot(Gn, Gn))
        done = rn <= 1e-10 * np.maximum(1.0, np.abs(tn))
        if theta is not None:
            n2 = _rowdot(Un, m * Un)
            t0 = tn - sl * n2
            tau[live] = sn = tau_min_value(t0, n2, theta).tau_star
            t[live] = t0 + sn * n2
            done &= np.abs(sn - sl) <= 1e-8 * sl
        settled[live[done]] = True
        live = live[~done]
        s = np.flatnonzero(settled)
        if live.size and s.size:
            live = live[~_merged(U[live], value(live), U[s], value(s), m)]
    return t, U, res, rounds


def _seeded_starts(n: int) -> np.ndarray:
    """The start block of both minimizers: 16 standard normal rows, row k
    seeded with k, plus one positive row."""
    return np.array([np.random.default_rng(k).standard_normal(n) for k in range(16)]
                    + [np.ones(n)])


def sobolev_constant(T, q: float):
    """Best found value of inf t[u]/||u||_q^2 with a minimization trace.

    Returns (S, trace).  S is an upper bound on the infimum, attained at
    the trace's minimizer; the trace also carries the fixed-point rounds
    summed over the starts (``trace.iterations``) and the first-order
    residual.  The starts are the 17 rows of ``_seeded_starts``, polished
    as one block by ``_polish``; a start stops early once it lies within
    ``MERGE_REL`` of a settled start, up to sign, with a value no lower
    than that start's.  Nothing here bounds the infimum from below;
    ``nash_check`` on the minimizer is the check that a too large S fails.
    Operators with nontrivial kernel return S = 0 immediately (the
    infimum vanishes on kernel vectors) with trace.vacuous set and no
    minimizer.
    """
    if not q > 2.0:
        raise ValueError(f"requires q > 2, got {q}")
    if not T.is_real:
        raise ValueError("Sobolev minimization handles real symmetric forms only")
    if not T.is_positive_definite():
        return 0.0, MinimizationTrace(value=0.0, minimizer=None, iterations=0,
                                      residual=0.0, vacuous=True)

    U0 = _seeded_starts(T.n)
    t_p, U_p, res, rounds = _polish(T, q, U0 / _norm_q(U0, T.measure, q)[:, None])
    i = int(np.argmin(t_p))         # the first of equal minima
    best_t = float(t_p[i])
    trace = MinimizationTrace(value=best_t, minimizer=U_p[i], iterations=int(rounds.sum()),
                              residual=float(res[i]) / max(1.0, abs(best_t)))
    return best_t, trace


def _xpowx(x: float) -> float:
    """x^x with the limit value 1 at x = 0."""
    return 1.0 if x <= 0.0 else math.exp(x * math.log(x))


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


def sobolev_interp_constant(T, q: float, theta: float) -> InterpConstant:
    """Interpolation constant inf t[u]^theta ||u||^(2(1-theta)) / ||u||_q^2.

    Computed through the scaling equivalence
    S_interp = theta^theta (1-theta)^(1-theta) * inf_tau tau^(theta-1) S(T + tau, q)
    as one joint fixed point in (u, tau), from the 17 starts of
    ``sobolev_constant`` (``_seeded_starts``).  Every row
    carries its own shift, first the best one for its start,
    tau = t[u] (1-theta) / (theta ||u||^2) (``tau_min_value``).
    Each round of ``_polish`` takes one guarded fixed-point step of S(T + tau)
    in the cached eigenbasis of T and then moves each row's tau to the best
    shift for its new point.  The guard compares values at one tau and the
    tau step minimizes J(u, tau) = tau^(theta-1) (t[u] + tau ||u||^2) over
    tau exactly, so no round raises a row's J, and every value is an upper
    bound.  A row stops when its residual reaches 1e-10 and its tau moves
    by at most 1e-8 relative, when the guard rejects its update, after
    500 rounds, or when it lies within ``MERGE_REL`` of a settled row, up
    to sign, with a J no lower than that row's.  The least J over the rows
    is reported with its tau and its row; at that row the value equals
    t[u]^theta ||u||^(2(1-theta)) to rounding.
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

    U0 = _seeded_starts(T.n)
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


# the powers k of the Nash probes |u|^k of the Sobolev minimizer u
NASH_POWERS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)


@dataclass
class NashReport:
    min_slack_rel: float
    power: float | None             # the k of the probe that attains it
    vacuous: bool = False


def nash_check(T, q: float, S: float, u) -> NashReport:
    """Measure t[v]^p ||v||_1^(2-2p) against S^p ||v||_2^2, p = q/(2(q-1)),
    on the probes v = |u|^k, k in ``NASH_POWERS``, of the Sobolev minimizer
    u at exponent q; reports the least relative slack and the k of the
    probe that attains it (the first of equal ones), which
    ``verify.verify_heat_nash`` judges.

    The bound follows from t[v] >= S ||v||_q^2 and Hoelder's inequality
    ||v||_2^2 <= ||v||_q^(2p) ||v||_1^(2-2p), so at the infimum S no probe
    falls short, and a probe that does shows the reported S too large.
    The probes lie where t[v]/||v||_q^2 is near S, so a too large S shows
    there first.  The seven probes are one block: one form product and
    row reductions, with no random number drawn.
    """
    if S < 0.0:
        raise ValueError(f"requires S >= 0, got {S}")
    if S == 0.0:
        return NashReport(min_slack_rel=math.inf, power=None, vacuous=True)
    m = T.measure
    p = q / (2.0 * (q - 1.0))
    e1 = (q - 2.0) / (q - 1.0)      # = 2 - 2p
    # probe j is row j: |u|^k for the j-th power k
    V = np.abs(np.asarray(u, dtype=np.float64)) ** np.array(NASH_POWERS)[:, None]
    tvals = _rowdot(V, T.form_product(V))
    lhs = np.maximum(tvals, 0.0) ** p * np.sum(m * V, axis=1) ** e1
    rhs = S**p * np.sum(m * V * V, axis=1)
    slack = (lhs - rhs) / np.maximum(rhs, 1e-300)
    j = int(np.argmin(slack))
    return NashReport(min_slack_rel=float(slack[j]), power=NASH_POWERS[j])


@dataclass
class HeatBoundReport:
    K_measured: float
    K_bound: float
    K12_measured: float
    K12_bound: float
    s_grid: np.ndarray


def heat_bound_check(T, kappa: float, S: float, *, grid_points: int = 60) -> HeatBoundReport:
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
    lo = 1e-2 / max(float(w[-1]), 1e-300)
    hi = 50.0 / max(float(w[0]), 1e-300)
    s_grid = np.geomspace(lo, hi, grid_points)
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


def _lieb_stationarity(a: float) -> float:
    """h(a) = a + a (e^a E1(a) (1 + a) - 1) / (1 - a e^a E1(a)).

    a f'(a)/f(a) = h(a) - (kappa - 1) for the objective f of
    ``lieb_objective``, so f is stationary where h(a) = kappa - 1.  h is
    increasing with a < h(a) < a + 1: h(a) - a is
    int a t e^-t/(a+t)^2 dt / int t e^-t/(a+t) dt, and 0 < a/(a+t) < 1.
    """
    g = e1_scaled(a)
    return a + a * (g * (1.0 + a) - 1.0) / (1.0 - a * g)


def lieb_bound_from_K(K: float, kappa: float) -> LiebBound:
    """Semigroup-method eigenvalue-counting constant from the heat constant K.

    Minimizes the closed-form objective over a > 0 (the inner integral
    int_0^inf e^-lambda/(lambda+a) dlambda equals e^a E1(a)).  Its one
    minimum a* is the root of h(a) = kappa - 1 (``_lieb_stationarity``),
    which depends on kappa alone and lies in [kappa - 2, kappa - 1] since
    a < h(a) < a + 1; a* is found by bisecting that bracket in log a
    (below at the smallest normal double) until it stops shrinking, and
    the objective is evaluated once, at a*.  A minimum that is not a
    finite positive double raises ValueError.
    """
    if not kappa > 1.0:
        raise ValueError(f"requires kappa > 1, got {kappa}")
    if not K > 0.0:
        raise ValueError(f"requires K > 0, got {K}")
    lo = math.log(max(kappa - 2.0, sys.float_info.min))
    hi = math.log(kappa - 1.0)
    try:
        # the widest bracket, 708 in log a, is below 4e-17 after 64 halvings
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if _lieb_stationarity(math.exp(mid)) < kappa - 1.0:
                lo = mid
            else:
                hi = mid
        a_star = math.exp(0.5 * (lo + hi))
        value = lieb_objective(a_star, K, kappa)
    except ArithmeticError:     # overflow, or 1 - a e^a E1(a) lost to rounding
        value = math.inf
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"the Lieb bound for kappa = {kappa} lies outside the "
                         f"double range (computed {value})")
    return LiebBound(value=value, a_star=a_star)


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
