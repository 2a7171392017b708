"""Spectra, eigenvalue counting, resolvent-sandwich operators, heat kernels,
profile transforms, and the cyclic-path trace formula.

Counting is strict ("less than -tau", "larger than one") with a relative
tie guard of 1e-9: ties are reported, never silently miscounted.  All
eigenproblems use full dense decompositions; the intended scale is a few
thousand sites at most.  A scenario's checks share one T - V spectrum per
potential draw (``shared_spectrum``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._specfun import exp_integral_e1
from .lattice import as_potential

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

TIE_REL = 1e-9


class CountResult(NamedTuple):
    n: int
    tie: float | None  # distance to the threshold when within the tie guard


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray


def _sym_matrix(op) -> np.ndarray:
    if hasattr(op, "sym"):
        return op.sym()
    return np.asarray(op)


def eigen_sym(op) -> SpectralReport:
    """Full ascending spectrum of a symmetric operator or matrix."""
    B = _sym_matrix(op)
    scale = max(1.0, float(np.max(np.abs(B))))
    if np.iscomplexobj(B) or np.linalg.norm(B - B.T, ord=np.inf) > 1e-12 * scale:
        raise ValueError("eigen_sym requires a real symmetric matrix")
    return SpectralReport(eigenvalues=np.linalg.eigvalsh(B))


def eigen_herm(op) -> SpectralReport:
    """Full ascending spectrum of a Hermitian operator or matrix."""
    B = _sym_matrix(op)
    scale = max(1.0, float(np.max(np.abs(B))))
    if np.linalg.norm(B - B.conj().T, ord=np.inf) > 1e-12 * scale:
        raise ValueError("eigen_herm requires a Hermitian matrix")
    return SpectralReport(eigenvalues=np.linalg.eigvalsh(B))


def schrodinger_eigenvalues(T, V) -> np.ndarray:
    """Spectrum of T - V (V acting by multiplication)."""
    V = as_potential(T.space, V)
    B = T.sym() - np.diag(V)
    return np.linalg.eigvalsh(B)


def shared_spectrum(T, V) -> Callable[[], np.ndarray]:
    """Spectrum of T - V as a zero-argument callable, computed on its first call.

    Checks of one potential draw pass it as their ``spectrum`` keyword, so
    they read one eigendecomposition, and a draw whose checks read no
    spectrum computes none.  Only the callable holds the spectrum; it is
    freed with it.
    """
    return functools.cache(lambda: schrodinger_eigenvalues(T, V))


def _eigenvalues(T, V, spectrum) -> np.ndarray:
    return schrodinger_eigenvalues(T, V) if spectrum is None else spectrum()


def count_from_eigenvalues(eigs: np.ndarray, tau: float, *, scale=None) -> CountResult:
    """Strict count of eigenvalues below -tau with the relative tie guard."""
    eigs = np.asarray(eigs)
    if scale is None:
        scale = float(np.max(np.abs(eigs))) if eigs.size else 1.0
    scale = max(scale, 1e-300)
    n = int(np.count_nonzero(eigs < -tau))
    dist = float(np.min(np.abs(eigs + tau))) if eigs.size else np.inf
    tie = dist if dist <= TIE_REL * scale else None
    return CountResult(n, tie)


def count_below(T, V, tau: float, *, spectrum=None) -> CountResult:
    """N(-tau, T - V): number of eigenvalues strictly below -tau.

    ``spectrum`` (from ``shared_spectrum(T, V)``) supplies the eigenvalues
    of T - V; without it they are computed here.  The same holds for
    ``riesz_mean`` and ``riesz_mean_from_counts``.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return count_from_eigenvalues(_eigenvalues(T, V, spectrum), tau)


def riesz_mean(T, V, gamma: float, *, spectrum=None) -> float:
    """Tr (T - V)_-^gamma = sum |lambda_j|^gamma over negative eigenvalues.

    gamma = 0 returns the plain count N(0).
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    eigs = _eigenvalues(T, V, spectrum)
    neg = eigs[eigs < 0.0]
    if gamma == 0.0:
        return float(neg.size)
    return float(np.sum((-neg) ** gamma))


def riesz_mean_from_counts(T, V, gamma: float, *, spectrum=None) -> float:
    """Riesz mean through the moment representation gamma * int N(-tau) tau^(gamma-1) dtau.

    The counting function is piecewise constant, so the integral is
    evaluated exactly panel by panel between adjacent eigenvalue
    magnitudes, with the count taken at each panel midpoint through the
    independent counting path.
    """
    if not gamma > 0.0:
        raise ValueError(f"moment representation requires gamma > 0, got {gamma}")
    eigs = _eigenvalues(T, V, spectrum)
    mags = np.sort(-eigs[eigs < 0.0])
    if mags.size == 0:
        return 0.0
    breaks = np.concatenate(([0.0], mags))
    scale = float(np.max(np.abs(eigs)))
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        n_mid = count_from_eigenvalues(eigs, mid, scale=scale).n
        total += n_mid * (hi**gamma - lo**gamma)
    return float(total)


@dataclass
class BirmanSchwingerOperator:
    """Resolvent sandwich V^(1/2) (T + tau)^(-1) V^(1/2), symmetric PSD."""

    tau: float
    matrix: np.ndarray
    eigenvalues: np.ndarray

    def count_above_one(self) -> CountResult:
        """Strict count of eigenvalues above 1, with the tie guard."""
        b = self.eigenvalues
        scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
        n = int(np.count_nonzero(b > 1.0))
        dist = float(np.min(np.abs(b - 1.0))) if b.size else np.inf
        tie = dist if dist <= TIE_REL * scale else None
        return CountResult(n, tie)


def birman_schwinger(T, V, tau: float = 0.0) -> BirmanSchwingerOperator:
    """Build the resolvent sandwich at energy -tau; requires T + tau positive definite."""
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    V = as_potential(T.space, V)
    w, Q = T.eigensystem()
    wt = w + tau
    scale = max(float(np.max(np.abs(wt))), 1e-300)
    if np.min(wt) <= 1e-14 * scale:
        raise ValueError(f"T + tau is singular (min eigenvalue {np.min(wt):g})")
    sq = np.sqrt(V)
    half = (sq[:, None] * Q) / np.sqrt(wt)[None, :]
    K = half @ half.conj().T
    K = 0.5 * (K + K.conj().T)
    if not np.iscomplexobj(T.sym()):
        K = np.real(K)
    return BirmanSchwingerOperator(tau=float(tau), matrix=K,
                                   eigenvalues=np.linalg.eigvalsh(K))


class PrincipleCheck(NamedTuple):
    n_direct: int
    n_birman_schwinger: int
    tie_direct: float | None
    tie_birman_schwinger: float | None

    @property
    def agrees(self) -> bool:
        return self.n_direct == self.n_birman_schwinger


def birman_schwinger_check(T, V, tau: float = 0.0) -> PrincipleCheck:
    """Compare N(-tau, T - V) against the count of sandwich eigenvalues above 1."""
    direct = count_below(T, V, tau)
    bs = birman_schwinger(T, V, tau).count_above_one()
    return PrincipleCheck(direct.n, bs.n, direct.tie, bs.tie)


def liyau_upsilon(T, V):
    """The form of T realized on L^2 with measure V dx.

    Requires V > 0 everywhere and T positive definite; the spectrum is
    the elementwise reciprocal of the nonzero resolvent-sandwich
    spectrum at tau = 0.
    """
    from .operators import KineticOperator  # local import avoids a module cycle

    V = as_potential(T.space, V)
    if np.any(V <= 0.0):
        raise ValueError("requires a strictly positive potential; restrict the space first")
    if not T.is_positive_definite():
        raise ValueError("requires a positive definite operator")
    return KineticOperator(T.space, T.form, measure=V * T.measure,
                           name=f"{T.name}|upsilon", meta={"family": "upsilon"})


def heat_kernel(T, s: float) -> np.ndarray:
    """Kernel entries k(x, y, s) of exp(-sT) with respect to the measure:
    (exp(-sT) u)(x) = sum_y m_y k(x, y, s) u_y."""
    if not s > 0.0:
        raise ValueError(f"requires s > 0, got {s}")
    w, Q = T.eigensystem()
    E = (Q * np.exp(-s * w)[None, :]) @ Q.conj().T
    rs = 1.0 / np.sqrt(T.measure)
    K = rs[:, None] * E * rs[None, :]
    return np.real(K) if not np.iscomplexobj(K) else K


def heat_matrix_sym(T, s: float) -> np.ndarray:
    """exp(-s B) for the symmetrized matrix B (used for kernel comparisons)."""
    w, Q = T.eigensystem()
    E = (Q * np.exp(-s * w)[None, :]) @ Q.conj().T
    return np.real(E) if not np.iscomplexobj(E) else E


def heat_norms(T, s: float) -> tuple[float, float, float]:
    """(L1 -> Linf, L1 -> L2) operator norms of exp(-sT), and the kernel's
    minimum real entry.

    The 1->inf norm is the sup of |k|; the 1->2 norm is the largest
    weighted column 2-norm over the normalized point inputs delta_x/m_x.
    The minimum comes from the same kernel, so no caller builds it twice.
    """
    K = heat_kernel(T, s)
    m = T.measure
    n1inf = float(np.max(np.abs(K)))
    col = np.sqrt(np.sum(m[:, None] * np.abs(K) ** 2, axis=0))
    return n1inf, float(np.max(col)), float(np.min(np.real(K)))


@dataclass(frozen=True)
class ProfileFunction:
    """Spectral profile f with its exponential transform F.

    The hinge kind is f(mu) = max(mu - a, 0) (convex, f(0) = 0) with
    closed-form transform F(lam) = lam*exp(-a/lam) - a*E1(a/lam) and
    moment int f(mu) mu^(-kappa-1) dmu = a^(1-kappa)/(kappa(kappa-1)).
    The tabulated kind integrates a sampled profile by the trapezoid
    rule on its own grid.
    """

    kind: str
    a: float = 0.0
    mu_points: np.ndarray | None = None
    f_values: np.ndarray | None = None

    def f(self, mu):
        mu = np.asarray(mu, dtype=np.float64)
        if self.kind == "hinge":
            return np.maximum(mu - self.a, 0.0)
        return np.interp(mu, self.mu_points, self.f_values, left=0.0, right=0.0)

    def F(self, lam: float) -> float:
        if self.kind == "hinge":
            if lam <= 0.0:
                return 0.0
            x = self.a / lam
            if x > 700.0:
                return 0.0
            return lam * math.exp(-x) - self.a * exp_integral_e1(x)
        if lam <= 0.0:
            return 0.0
        integ = self.f_values * np.exp(-self.mu_points / lam) / self.mu_points
        return float(_trapezoid(integ, self.mu_points))

    def moment(self, kappa: float) -> float:
        """int_0^inf f(mu) mu^(-kappa-1) dmu."""
        if self.kind == "hinge":
            if not kappa > 1.0:
                raise ValueError(f"hinge moment requires kappa > 1, got {kappa}")
            return self.a ** (1.0 - kappa) / (kappa * (kappa - 1.0))
        integ = self.f_values * self.mu_points ** (-kappa - 1.0)
        return float(_trapezoid(integ, self.mu_points))


def hinge_profile(a: float) -> ProfileFunction:
    if not a > 0.0:
        raise ValueError(f"hinge parameter must be positive, got {a}")
    return ProfileFunction(kind="hinge", a=float(a))


def tabulated_profile(mu_points, f_values) -> ProfileFunction:
    mu = np.asarray(mu_points, dtype=np.float64)
    fv = np.asarray(f_values, dtype=np.float64)
    if mu.ndim != 1 or mu.shape != fv.shape or mu.size < 2:
        raise ValueError("tabulated profile needs matching 1-d grids")
    if np.any(np.diff(mu) <= 0.0) or mu[0] <= 0.0:
        raise ValueError("tabulated profile grid must be positive and increasing")
    if np.any(fv < 0.0) or not np.all(np.isfinite(fv)):
        raise ValueError("tabulated profile values must be finite and nonnegative")
    return ProfileFunction(kind="tabulated", mu_points=mu, f_values=fv)


def f_transform(profile: ProfileFunction, lam: float) -> float:
    """F(lam) = int_0^inf f(mu) exp(-mu/lam) dmu/mu."""
    return profile.F(lam)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _panels(lo: float, hi: float, kinks, max_ratio: float = 2.0) -> list[tuple[float, float]]:
    """Geometric subdivision of [lo, hi] refined at the supplied breakpoints."""
    pts = {lo, hi}
    for k in kinks:
        if lo < k < hi:
            pts.add(float(k))
    pts = sorted(pts)
    panels = []
    for a, b in zip(pts[:-1], pts[1:]):
        ratio = b / a
        pieces = max(1, int(math.ceil(math.log(ratio) / math.log(max_ratio))))
        grid = np.geomspace(a, b, pieces + 1)
        panels.extend(zip(grid[:-1], grid[1:]))
    return panels


@dataclass
class TrotterTrace:
    """Finite-n cyclic-path estimate of Tr F(V^(1/2) T^(-1) V^(1/2))."""

    n: int
    estimate: float
    exact: float
    bound: float | None          # diagonal-kernel convexity bound (n = 1 integrand)
    rel_error: float
    s_lo: float
    s_hi: float
    n_panels: int
    tail_fractions: tuple[float, float]
    tail_ok: bool


def _path_weights(T, s_over_n: float) -> np.ndarray:
    K = heat_kernel(T, s_over_n)
    return K * T.measure[None, :]  # P[y, x] = k(y, x) * m_x


def _cycle_sum(P: np.ndarray, classes: np.ndarray, n: int, n_classes: int) -> np.ndarray:
    """Sum of cyclic n-step path weights, resolved by visit counts per class.

    Returns an array over count vectors (classes 1..r-1; class 0 counts
    are implied) whose entries sum path weights with those visit counts.
    """
    ns = P.shape[0]
    r = n_classes
    cshape = (n + 1,) * (r - 1)
    D = np.zeros((ns, ns) + cshape)
    base = [0] * (r - 1)
    for y in range(ns):
        idx = list(base)
        g = classes[y]
        if g > 0:
            idx[g - 1] = 1
        D[(y, slice(None)) + tuple(idx)] = P[y, :]
    for _ in range(n - 1):
        E = np.tensordot(P, D, axes=(1, 0))
        D = np.empty_like(E)
        for g in range(r):
            rows = np.nonzero(classes == g)[0]
            if rows.size == 0:
                continue
            if g == 0:
                D[rows] = E[rows]
            else:
                axis = 1 + g  # count axis for class g within E[rows]
                block = np.zeros_like(E[rows])
                src = [slice(None)] * block.ndim
                dst = [slice(None)] * block.ndim
                src[axis] = slice(0, n)
                dst[axis] = slice(1, n + 1)
                block[tuple(dst)] = E[rows][tuple(src)]
                D[rows] = block
    return np.einsum("zz...->...", D)


def trotter_trace(T, V, profile: ProfileFunction, n: int, *, s_span=None,
                  max_states: int = 200_000) -> TrotterTrace:
    """Cyclic-path estimate of Tr F(V^(1/2) T^(-1) V^(1/2)) at Trotter order n.

    The s-integral uses log-spaced composite Gauss-Legendre panels over
    [1e-4, 1e3] times the spectral time scale, split additionally at the
    hinge kinks a/V_x, with endpoint-decay checks.  Also returns the
    exact value sum_j F(beta_j) over the resolvent-sandwich spectrum and
    (for convex hinge profiles) the diagonal-kernel upper bound.
    """
    if n < 1:
        raise ValueError(f"requires n >= 1, got {n}")
    V = as_potential(T.space, V)
    if not T.is_positive_definite():
        raise ValueError("requires a positive definite operator")
    w = T.eigenvalues()

    values, classes = np.unique(V, return_inverse=True)
    r = values.size
    if r >= 2 and (n + 1) ** (r - 1) > max_states:
        raise ValueError(
            f"{r} distinct potential values at order n={n} exceeds the count-state budget"
        )

    if profile.kind == "hinge":
        kinks = [profile.a / v for v in values if v > 0.0]
    else:
        kinks = []
    t0 = 1.0 / float(w[0])
    if s_span is None:
        lo, hi = 1e-4 * t0, 1e3 * t0
    else:
        lo, hi = float(s_span[0]), float(s_span[1])
    if kinks:
        lo = min(lo, 0.5 * min(kinks))
        hi = max(hi, 4.0 * max(kinks))
    panels = _panels(lo, hi, kinks)

    m = T.measure
    if r > 1:
        grids = np.meshgrid(*([np.arange(n + 1)] * (r - 1)), indexing="ij")
        cnt0 = n - sum(grids)
        W = cnt0 * values[0]
        for g in range(1, r):
            W = W + grids[g - 1] * values[g]

    def integrand(s: float) -> float:
        if r == 1:
            # every path sees the same potential; the cycle sum is Tr exp(-sB)
            val = float(np.sum(np.exp(-s * w)))
            return val * float(profile.f((s / n) * n * values[0]))
        P = _path_weights(T, s / n)
        counts = _cycle_sum(P, classes, n, r)
        fx = profile.f((s / n) * W)
        return float(np.sum(counts * fx))

    total = 0.0
    panel_vals = []
    for a, b in panels:
        mid = 0.5 * (b + a)
        rad = 0.5 * (b - a)
        sval = 0.0
        for node, wgt in zip(_GL_NODES, _GL_WEIGHTS):
            s = mid + rad * node
            sval += wgt * integrand(s) / s
        sval *= rad
        panel_vals.append(sval)
        total += sval

    abs_total = sum(abs(v) for v in panel_vals) or 1e-300
    tail = (float(abs(panel_vals[0]) / abs_total), float(abs(panel_vals[-1]) / abs_total))
    tail_ok = bool(tail[0] < 1e-8 and tail[1] < 1e-8)

    bs = birman_schwinger(T, V, 0.0)
    betas = bs.eigenvalues
    cutoff = 1e-13 * max(1.0, float(np.max(np.abs(betas))) if betas.size else 1.0)
    exact = float(sum(profile.F(float(b)) for b in betas if b > cutoff))

    bound = None
    if profile.kind == "hinge":
        bound = 0.0
        for a, b in panels:
            mid = 0.5 * (b + a)
            rad = 0.5 * (b - a)
            sval = 0.0
            for node, wgt in zip(_GL_NODES, _GL_WEIGHTS):
                s = mid + rad * node
                kd = np.diag(heat_kernel(T, s))
                sval += wgt * float(np.sum(m * kd * profile.f(s * V))) / s
            bound += rad * sval

    rel = abs(total - exact) / max(abs(exact), 1e-300)
    return TrotterTrace(n=n, estimate=total, exact=exact, bound=bound,
                        rel_error=rel, s_lo=lo, s_hi=hi, n_panels=len(panels),
                        tail_fractions=tail, tail_ok=tail_ok)
