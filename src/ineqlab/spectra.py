"""Spectra, eigenvalue counting, resolvent-sandwich operators, heat kernels,
profile transforms, and the cyclic-path trace formula.

Counting is strict ("less than -tau", "larger than one") with a relative
tie guard of 1e-9: ties are reported, never silently miscounted.  A
scenario's checks share one T - V spectrum per potential draw
(``shared_spectrum``), computed only when a check reads it.  A count on a
banded form (``KineticOperator.bandwidth``) is taken by Sylvester's law
of inertia from a block LDL^H factorization of T - V + tau, in O(n m^2)
work for blocks of m sites, whether or not the draw has a spectrum to
share; it returns the dense count unchanged and hands every tie or
doubtful pivot to the dense spectrum, the shared one when there is one.
So a count reads a dense spectrum only where the form has no inertia
route or the pass leaves the row undecided.  ``count_below`` counts a
k x n stack of potentials on one operator in one such pass, with one
stacked ``eigh`` per block for all rows and O(k m^2) memory per block; a
row whose pivot budget is spent or whose two shifted counts differ falls
back to the dense count alone, and every row's count is bit for bit the
one it gets alone.  A coupling axis N(0, T - cV) over many c with V > 0
(``count_couplings``) is read from one spectrum instead: by Sylvester's
law of inertia it is #{mu_j < c} over the eigenvalues mu of
V^(-1/2) T V^(-1/2), and a coupling whose certificate fails
goes to ``count_below``; short axes on banded forms keep the stacked
inertia pass.  The heat-kernel diagonal of a box Laplacian on the
transform route (``KineticOperator.transform``) is a product of one FFT
per axis and reads no eigenvectors.  All other eigenproblems use
full dense decompositions; the intended scale is a few thousand sites at
most.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._specfun import exp_integral_e1
from .lattice import as_potential
from .operators import abs_row_sums

TIE_REL = 1e-9

# Inertia counts cut a form of bandwidth b into blocks of
# m = max(b, INERTIA_BLOCK) sites and run only with at least
# INERTIA_MIN_BLOCKS blocks.  Measured at one OpenBLAS thread (numpy
# 2.4.6, OpenBLAS 0.3.31, x86-64): on the 1-d n = 1024 path, blocks of
# 8, 16, 24, 32, 48, 64 and 128 sites take 15, 12.5, 9, 9, 17, 21 and
# 35 ms per count, against about 135 ms for the dense eigvalsh.  The
# stacked m x m eigh costs about 0.3 ms per block, so small forms lose:
# at 4-6 blocks the inertia count took 0.8-1.4x the dense time (1-d
# n = 128-192, 2-d 12x12 and 14x14, 3-d 6^3), and from 7 blocks it took
# at most 0.73x on every shape tried (1-d n = 224, 256; 2-d 15x15 to
# 18x18; 3-d 7^3, 8^3).
INERTIA_BLOCK = 32
INERTIA_MIN_BLOCKS = 7


class CountResult(NamedTuple):
    n: int
    tie: float | None  # distance to the threshold when within the tie guard


def schrodinger_eigenvalues(T, V) -> np.ndarray:
    """Spectrum of T - V (V acting by multiplication)."""
    V = as_potential(T.space, V)
    return np.linalg.eigvalsh(_minus_diag(T.sym(), V[None])[0])


def shared_spectrum(T, V) -> Callable[[], np.ndarray]:
    """Spectrum of T - V as a zero-argument callable, computed on its first call.

    Checks of one potential draw pass it as their ``spectrum`` keyword, so
    they read one eigendecomposition, and a draw whose checks read no
    spectrum computes none: a vacuous check reads nothing, and
    ``count_below`` calls it only for a row its inertia pass leaves
    undecided or on a form with no inertia route.  Only the callable holds
    the spectrum; it is freed with it.
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


def _block_size(T) -> int | None:
    """Sites per inertia block, m = max(bandwidth, INERTIA_BLOCK), or None
    when the form is dense or has fewer than INERTIA_MIN_BLOCKS blocks."""
    b = T.bandwidth
    if b is None:
        return None
    m = max(b, INERTIA_BLOCK)
    return m if T.n >= INERTIA_MIN_BLOCKS * m else None


def _band_blocks(T, V):
    """Diagonal blocks B_kk of B = T.sym(), the blocks C_k below them
    (``KineticOperator.sym_band``, from the row list) and the k x m slices
    of the k x n potential stack V on each block, for consecutive m-site
    blocks (``_block_size``), so that every B - diag(V_j) is block
    tridiagonal.  None when the form takes no inertia route."""
    m = _block_size(T)
    if m is None:
        return None
    diag, sub = T.sym_band(m)
    return diag, sub, [V[:, i:i + m] for i in range(0, T.n, m)]


def _minus_diag(D, v) -> np.ndarray:
    """The stack D - diag(v_j), one m x m matrix per row v_j of the k x m v."""
    out = np.repeat(D[None], len(v), axis=0)
    out.reshape(len(v), D.size)[:, ::D.shape[0] + 1] -= v
    return out


def _inertia_counts(diag, sub, pots, shifts, tol):
    """Eigenvalues below -sigma of each block-tridiagonal B - diag(V_j), for
    the k x 2 array ``shifts`` of sigmas per member j: the indices of the
    members counted to the end and their counts, an array of two per
    member.  A member drops out once one of its pivot blocks' rounding
    bound exceeds tol[j].

    By Haynsworth's inertia additivity the count is the number of negative
    eigenvalues summed over the Schur complements
    S_k = B_kk - diag(V_j) + sigma - C_k S_(k-1)^-1 C_k^H of the block LDL^H
    factorization of B - diag(V_j) + sigma, with S^-1 taken from ``eigh`` of
    each S.  All members and shifts advance together: each block step builds
    the 2k pivots and makes one stacked ``eigh`` call, and each pivot goes
    through the same LAPACK and BLAS calls as it would alone.  The bound
    m eps (||C_(k+1)||_inf^2 / min|w(S_k)| + max|w(S_k)|), over both shifts
    of a member, sizes the rounding that S_k passes on to the next pivot.
    """
    eps = np.finfo(np.float64).eps
    live = np.arange(len(shifts))     # members still counted, in stack order
    vrows = np.repeat(live, 2)        # the potential of each pivot in the stack
    neg = np.zeros((len(shifts), 2), dtype=np.int64)
    sigma = shifts.reshape(-1, 1, 1)
    update = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero w_min fails below
        for step, (D, v) in enumerate(zip(diag, pots)):
            m = D.shape[0]
            P = _minus_diag(D, v[vrows])
            w, Q = np.linalg.eigh(P + sigma * np.eye(m) - update)
            neg += (w < 0.0).sum(axis=1).reshape(-1, 2)
            C = sub[step] if step < len(sub) else None
            c_norm = 0.0 if C is None else float(np.max(np.sum(np.abs(C), axis=1)))
            w_abs = np.abs(w).reshape(-1, 2 * m)
            w_min = w_abs.min(axis=1)
            bound = m * eps * (c_norm**2 / w_min + w_abs.max(axis=1))
            ok = (w_min != 0.0) & ~(bound > tol)
            if not ok.all():
                live, neg, tol = live[ok], neg[ok], tol[ok]
                if live.size == 0:
                    break
                keep = np.repeat(ok, 2)
                vrows, w, Q, sigma = vrows[keep], w[keep], Q[keep], sigma[keep]
            if C is not None:
                G = C @ Q
                update = (G / w[:, None, :]) @ np.swapaxes(G.conj(), -1, -2)
    return live, neg


def _inertia_count(T, V, tau: float) -> list | None:
    """N(-tau, T - V_j) by inertia for each row V_j of the k x n stack V: one
    CountResult per member, or None for a member only the dense route can
    answer, or None when the form takes no inertia route at all.

    With s_j = ||T.sym() - diag V_j||_inf >= max|eig| and
    delta_j = TIE_REL * s_j, it counts at -tau - 2 delta_j and
    -tau + 2 delta_j with a rounding budget of delta_j / 2 per pivot.  Equal
    counts leave no eigenvalue within 1.5 delta_j of -tau, a window that
    holds the dense tie window (TIE_REL * max|eig|) and the dense solver's
    own rounding, so the count is the dense count and there is no tie.
    Different counts or a spent budget give None for that member alone.
    """
    blocks = _band_blocks(T, V)
    if blocks is None:
        return None
    diag, sub, pots = blocks
    rows = [np.abs(_minus_diag(D, v)).sum(axis=2) for D, v in zip(diag, pots)]
    for k, C in enumerate(sub):
        a = np.abs(C)
        rows[k + 1] += np.sum(a, axis=1)
        rows[k] += np.sum(a, axis=0)  # the block above the diagonal is C^H
    delta = TIE_REL * np.concatenate(rows, axis=1).max(axis=1)
    shifts = np.stack((tau + 2.0 * delta, tau - 2.0 * delta), axis=1)
    live, neg = _inertia_counts(diag, sub, pots, shifts, 0.5 * delta)
    out = [None] * len(V)
    for j, (lo, hi) in zip(live.tolist(), neg.tolist()):
        if lo == hi:
            out[j] = CountResult(lo, None)
    return out


def count_below(T, V, tau: float, *, spectrum=None) -> CountResult | list:
    """N(-tau, T - V): number of eigenvalues strictly below -tau.

    ``V`` is one potential, or a k x n stack of potentials on the same
    operator; a stack returns a list of k CountResults, the result of each
    row counted alone.  Banded forms count every row in one inertia pass
    (``_inertia_count``).  The dense spectrum of a row is read only when
    the form has no inertia route or the pass cannot decide the row:
    ``spectrum`` (from ``shared_spectrum(T, V)``, single potentials only)
    when given, else one computed here.  Either way each result is that of
    the dense spectrum, tie field included.  ``riesz_mean`` and
    ``riesz_mean_from_counts`` take the same keyword but always need the
    eigenvalues.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    stacked = np.ndim(V) == 2
    if stacked and spectrum is not None:
        raise ValueError("a stack of potentials takes no spectrum")
    rows = V if stacked else [V]
    Vs = np.array([as_potential(T.space, v) for v in rows]).reshape(-1, T.n)
    counted = _inertia_count(T, Vs, tau) or [None] * len(Vs)
    out = [c if c is not None
           else count_from_eigenvalues(_eigenvalues(T, v, spectrum), tau)
           for c, v in zip(counted, Vs)]
    return out if stacked else out[0]


def _pencil_counts(T, V, couplings) -> list | None:
    """N(0, T - cV) for each c in ``couplings`` from one spectrum: a
    CountResult per coupling the certificate decides and None for the
    others, or None for all when V has a zero entry or a row of |W| does
    not sum to a finite number.  Besides W, it reads the dense T.sym(),
    which builds the dense form of an operator built as a row list.

    With B = T.sym() and V > 0, B - cV = V^(1/2) (W - c) V^(1/2) for
    W = V^(-1/2) B V^(-1/2), so by Sylvester's law of inertia
    N(0, T - cV) = #{mu_j < c} over the eigenvalues mu of W, which
    ``eigvalsh`` computes once.

    Certificate.  Take eps the machine epsilon, n the number of sites,
    g_c = min_j |mu_j - c| over the computed mu, s_c = ||B - cV||_inf,
    rho_c = n eps s_c and rho_W = n eps ||W||_inf (rounding models of the
    kind of ``_inertia_counts``' m eps bound: rho_W for forming W and for
    ``eigvalsh``, rho_c for the dense ``eigvalsh`` of B - cV).
    - The dense route reads B - fl(cV), and fl(c V_x) = c V_x (1 + d_x)
      with |d_x| <= eps / 2.  So B - fl(cV) = V^(1/2) (W - c - cD)
      V^(1/2) with ||cD|| <= c eps / 2, and the ascending eigenvalues
      nu_j of W - c - cD lie within rho_W + c eps of the ascending
      mu_j - c (Weyl): |nu_j| >= g_c - rho_W - c eps, and when that is
      positive nu_j < 0 exactly when mu_j < c.
    - By Ostrowski's theorem (Horn & Johnson, Matrix Analysis, Thm 4.5.9)
      the j-th eigenvalue of B - fl(cV) is theta_j nu_j with theta_j in
      [min V, max V]; it keeps the sign of nu_j and has modulus at least
      min V (g_c - rho_W - c eps).
    - The dense eigenvalues lam' lie within rho_c of the exact ones, and
      max|lam'| <= s_c + rho_c.  So when
          min V (g_c - rho_W - c eps) > TIE_REL s_c + 2 rho_c,
      every |lam'| exceeds TIE_REL s_c + rho_c, which is at least
      TIE_REL max|lam'| (TIE_REL < 1) with room for the rounding of s_c:
      the dense route reports no tie, every lam' has the sign of the
      exact one, and its count is #{mu_j < c}.  The inertia route returns
      the dense result whenever it decides, so ``count_below`` gives
      CountResult(#{mu_j < c}, None).
    Any other coupling is left to ``count_below``.
    """
    if not np.all(V > 0.0):
        return None
    B = T.sym()
    n = T.n
    r = 1.0 / np.sqrt(V)
    with np.errstate(over="ignore", invalid="ignore"):
        W = B * r[:, None]
        W *= r
        w_rows = abs_row_sums(W)
    if not np.all(np.isfinite(w_rows)):
        return None
    eps = np.finfo(np.float64).eps
    rho_w = n * eps * float(np.max(w_rows))
    mu = np.linalg.eigvalsh(W)
    del W
    d = B.diagonal().real
    off = abs_row_sums(B) - np.abs(d)
    s = np.max(off + np.abs(d - couplings[:, None] * V), axis=1)
    below = np.searchsorted(mu, couplings, side="left")   # #{mu_j < c}
    gap = np.minimum(np.abs(couplings - mu[np.maximum(below - 1, 0)]),
                     np.abs(mu[np.minimum(below, n - 1)] - couplings))
    sure = np.min(V) * (gap - rho_w - eps * couplings) > TIE_REL * s + 2.0 * n * eps * s
    return [CountResult(int(k), None) if ok else None
            for k, ok in zip(below.tolist(), sure.tolist())]


def count_couplings(T, V, couplings) -> list:
    """N(0, T - cV) for each coupling c >= 0 in ``couplings``: one
    CountResult per coupling, each equal to ``count_below(T, c * V, 0.0)``,
    tie field included.

    An axis of k >= 2 couplings takes one spectrum of the pencil
    (``_pencil_counts``) when the form takes no inertia route, or when the
    stacked inertia pass would make at least as many pivot ``eigh`` calls
    (2k per block) as there are blocks: one n x n ``eigvalsh`` costs about
    (n/m)^2 pivot calls of size m (146 ms against 32^2 x 0.14 ms at
    n = 1024, m = 32, one OpenBLAS thread).  Every coupling the pencil's
    certificate cannot decide, and every coupling of a shorter axis or of
    a V with a zero entry or an overflowing W, is counted by one stacked
    ``count_below`` call.
    """
    V = as_potential(T.space, V)
    cs = np.asarray(couplings, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(cs) & (cs >= 0.0)):
        raise ValueError(f"couplings must be finite and >= 0, got {cs}")
    k, m = cs.size, _block_size(T)
    out = [None] * k
    if k >= 2 and (m is None or 2 * k >= -(-T.n // m)):
        out = _pencil_counts(T, V, cs) or out
    rest = [j for j, c in enumerate(out) if c is None]
    if rest:
        for j, counted in zip(rest, count_below(T, cs[rest, None] * V, 0.0)):
            out[j] = counted
    return out


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
    magnitudes.  The count at each panel midpoint reads the same
    eigenvalues, all panels in one binary search of the sorted spectrum.
    """
    if not gamma > 0.0:
        raise ValueError(f"moment representation requires gamma > 0, got {gamma}")
    eigs = _eigenvalues(T, V, spectrum)
    mags = np.sort(-eigs[eigs < 0.0])
    if mags.size == 0:
        return 0.0
    breaks = np.concatenate(([0.0], mags))
    lows, highs = breaks[:-1], breaks[1:]
    # N(-mid) = #{e < -mid}: the left insertion point of -mid
    counts = np.searchsorted(np.sort(eigs), -(0.5 * (lows + highs)), side="left")
    total = 0.0
    for lo, hi, n_mid in zip(lows, highs, counts.tolist()):
        if hi <= lo:
            continue
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
        return count_from_eigenvalues(
            1.0 - b, 0.0, scale=max(1.0, float(np.max(np.abs(b))) if b.size else 1.0))


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
    if T.is_real:
        K = np.real(K)
    return BirmanSchwingerOperator(tau=float(tau), matrix=K,
                                   eigenvalues=np.linalg.eigvalsh(K))


class PrincipleCheck(NamedTuple):
    n_direct: int
    n_birman_schwinger: int
    tie_direct: float | None
    tie_birman_schwinger: float | None


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
    V = as_potential(T.space, V)
    if np.any(V <= 0.0):
        raise ValueError("requires a strictly positive potential; restrict the space first")
    if not T.is_positive_definite():
        raise ValueError("requires a positive definite operator")
    return T.with_measure(V * T.measure, {"family": "upsilon"})


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


def _heat_diagonal(T, s_values) -> np.ndarray:
    """Kernel diagonals k_s(x, x) = sum_j |Q_xj|^2 exp(-s w_j) / m_x of
    exp(-sT), as an n x G array over the G times in ``s_values``: on the
    transform route a product over the box's axes
    (``BoxBasis.heat_diagonal``), else from the cached eigensystem (w, Q)
    of T.sym() by one n x n x G product."""
    s_values = np.asarray(s_values, dtype=np.float64)
    if not np.all(s_values > 0.0):
        raise ValueError(f"requires s > 0, got {s_values}")
    if T.transform is not None:
        return T.transform.heat_diagonal(s_values) / T.measure[:, None]
    w, Q = T.eigensystem()
    P = Q.real**2 + Q.imag**2 if np.iscomplexobj(Q) else Q * Q
    return (P @ np.exp(-np.outer(w, s_values))) / T.measure[:, None]


def heat_norms(T, s) -> tuple[np.ndarray, np.ndarray]:
    """(L1 -> Linf, L1 -> L2) operator norms of exp(-sT), one of each per
    time in the array ``s``.

    Both come from the kernel diagonal (``_heat_diagonal``), not from a
    kernel.  The 1->inf norm is the sup of |k_s|, and
    ||exp(-sT)||_(1->inf) = max_x k_s(x, x) by Cauchy-Schwarz on the
    positive semidefinite kernel, real or complex.  The 1->2 norm is the
    largest weighted column 2-norm over the normalized point inputs
    delta_x/m_x, and ||exp(-sT)||_(1->2)^2 = max_x k_2s(x, x) by the
    semigroup property.
    """
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    D = _heat_diagonal(T, np.concatenate((s, 2.0 * s)))
    peaks = np.max(D, axis=0)
    return peaks[:s.size], np.sqrt(peaks[s.size:])


@dataclass(frozen=True)
class ProfileFunction:
    """Hinge profile f(mu) = max(mu - a, 0) (convex, f(0) = 0) with its
    exponential transform F(lam) = int_0^inf f(mu) exp(-mu/lam) dmu/mu,
    in closed form lam*exp(-a/lam) - a*E1(a/lam).
    """

    a: float

    def f(self, mu):
        return np.maximum(np.asarray(mu, dtype=np.float64) - self.a, 0.0)

    def F(self, lam: float) -> float:
        if lam <= 0.0:
            return 0.0
        x = self.a / lam
        if x > 700.0:
            return 0.0
        return lam * math.exp(-x) - self.a * exp_integral_e1(x)


def hinge_profile(a: float) -> ProfileFunction:
    if not a > 0.0:
        raise ValueError(f"hinge parameter must be positive, got {a}")
    return ProfileFunction(a=float(a))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

# trotter_trace refuses an order n whose ``_cycle_sum`` work exceeds this
# budget: n steps of an ns x ns by ns x ns x (n + 1)^(r - 1) product, so
# n ns^3 (n + 1)^(r - 1) units, for ns sites and r distinct potential
# values.  Measured at one OpenBLAS thread (numpy 2.4.6, x86-64): about
# 3e-10 s per unit from 1e7 units up, 6.3 ms per node at n = 32 on the
# bundled 3 x 3 trotter-sweep instance (2.5e7 units) and 67 ms at n = 64
# (2.0e8).  An order at the budget takes about 0.03 s per node, some 10 s
# over the 300 nodes of that instance, and its count array holds at most
# 1e8 / (n ns) entries.
TROTTER_MAX_WORK = 10**8


def check_trotter_orders(T, V, orders) -> None:
    """Raise ValueError naming the first Trotter order n in ``orders`` that is
    below 1 or whose ``_cycle_sum`` work n ns^3 (n + 1)^(r - 1) exceeds
    TROTTER_MAX_WORK; allocates nothing of the order's size."""
    r = np.unique(as_potential(T.space, V)).size
    for n in orders:
        if n < 1:
            raise ValueError(f"requires n >= 1, got {n}")
        work = n * T.n**3 * (n + 1) ** (r - 1)
        if work > TROTTER_MAX_WORK:
            raise ValueError(
                f"Trotter order n={n} with {r} distinct potential values on {T.n} "
                f"sites exceeds the work budget n ns^3 (n + 1)^(r - 1) <= "
                f"{TROTTER_MAX_WORK:.0e}")


def _panels(lo: float, hi: float, kinks) -> list[tuple[float, float]]:
    """Geometric subdivision of [lo, hi], refined at the supplied breakpoints,
    into panels of end ratio at most 2."""
    pts = {lo, hi}
    for k in kinks:
        if lo < k < hi:
            pts.add(float(k))
    pts = sorted(pts)
    panels = []
    for a, b in zip(pts[:-1], pts[1:]):
        ratio = b / a
        pieces = max(1, int(math.ceil(math.log(ratio) / math.log(2.0))))
        grid = np.geomspace(a, b, pieces + 1)
        panels.extend(zip(grid[:-1], grid[1:]))
    return panels


@dataclass
class TrotterTrace:
    """Finite-n cyclic-path estimate of Tr F(V^(1/2) T^(-1) V^(1/2))."""

    n: int
    estimate: float
    exact: float
    bound: float                 # diagonal-kernel convexity bound (n = 1 integrand)
    rel_error: float
    s_lo: float
    s_hi: float
    n_panels: int
    tail_fractions: tuple[float, float]
    tail_ok: bool


def _cycle_sum(P: np.ndarray, classes: np.ndarray, n: int, n_classes: int) -> np.ndarray:
    """Sum of the cyclic n-step path weights prod_j P[x_(j+1), x_j], resolved by
    the visit counts of the sites' classes.

    Returns an array over count vectors (classes 1..r-1 for r = n_classes;
    class 0 counts are implied) whose entries sum the weights of the cycles
    with those visit counts; with r = 1 it is the 0-d array Tr P^n.  The
    running D[y, x, c] sums the paths from x to y with counts c.  It starts
    from P at count zero, and each of the n steps (the first with no
    product) rolls the rows of class g one count up along axis g.  n visits
    never reach count n + 1, so the entry that wraps round is zero.

    At n = 1 the entry of class g is the sum of P[x, x] over its sites, the
    kernel diagonal that ``trotter_trace`` reads from ``_heat_diagonal`` for
    its bound at the same nodes as its estimate.
    """
    ns = P.shape[0]
    D = np.zeros((ns, ns) + (n + 1,) * (n_classes - 1), dtype=P.dtype)
    D.reshape(ns, ns, -1)[:, :, 0] = P
    for step in range(n):
        if step:
            D = np.tensordot(P, D, axes=(1, 0))
        for g in range(1, n_classes):
            rows = classes == g
            D[rows] = np.roll(D[rows], 1, axis=1 + g)
    return np.einsum("zz...->...", D)


def trotter_trace(T, V, profile: ProfileFunction, n: int) -> TrotterTrace:
    """Cyclic-path estimate of Tr F(V^(1/2) T^(-1) V^(1/2)) at Trotter order n.

    The s-integral uses log-spaced composite Gauss-Legendre panels over
    [1e-4, 1e3] times the spectral time scale, split additionally at the
    hinge kinks a/V_x, with endpoint-decay checks.  The estimate, its
    per-panel tail fractions and the bound all read one array of nodes
    and weights.  Also returns the exact value sum_j F(beta_j) over the
    resolvent-sandwich spectrum and the diagonal-kernel upper bound, which
    holds as the hinge is convex: the order-1 integrand
    sum_x m_x k_s(x, x) f(s V_x), taken from the kernel diagonal.
    """
    check_trotter_orders(T, V, [n])
    V = as_potential(T.space, V)
    if not T.is_positive_definite():
        raise ValueError("requires a positive definite operator")

    values, classes = np.unique(V, return_inverse=True)
    r = values.size

    kinks = [profile.a / v for v in values if v > 0.0]
    t0 = 1.0 / float(T.eigenvalues()[0])
    lo, hi = 1e-4 * t0, 1e3 * t0
    if kinks:
        lo = min(lo, 0.5 * min(kinks))
        hi = max(hi, 4.0 * max(kinks))
    panels = _panels(lo, hi, kinks)

    # every Gauss-Legendre node of every panel, with its weight rad * wgt
    ends = np.array(panels)
    mid = 0.5 * (ends[:, 1] + ends[:, 0])
    rad = 0.5 * (ends[:, 1] - ends[:, 0])
    nodes = (mid[:, None] + rad[:, None] * _GL_NODES[None, :]).ravel()
    weights = (rad[:, None] * _GL_WEIGHTS[None, :]).ravel()

    # W[c] = sum_g c_g values[g]: the potential summed over a cycle's n visits
    grids = np.meshgrid(*([np.arange(n + 1)] * (r - 1)), indexing="ij")
    W = sum((c * v for c, v in zip(grids, values[1:])), (n - sum(grids)) * values[0])

    def integrand(s) -> float:
        P = heat_kernel(T, s / n) * T.measure[None, :]  # P[y, x] = k(y, x) * m_x
        return float(np.sum(_cycle_sum(P, classes, n, r) * profile.f((s / n) * W)).real)

    terms = weights * np.array([integrand(s) for s in nodes]) / nodes
    total = float(np.sum(terms))
    panel_abs = np.abs(terms.reshape(len(panels), -1).sum(axis=1))
    tail = tuple(float(p) for p in panel_abs[[0, -1]] / (panel_abs.sum() or 1e-300))
    tail_ok = bool(tail[0] < 1e-8 and tail[1] < 1e-8)

    bs = birman_schwinger(T, V, 0.0)
    betas = bs.eigenvalues
    cutoff = 1e-13 * max(1.0, float(np.max(np.abs(betas))) if betas.size else 1.0)
    exact = float(sum(profile.F(float(b)) for b in betas if b > cutoff))

    kd = _heat_diagonal(T, nodes)
    vals = np.sum(T.measure[:, None] * kd * profile.f(np.outer(V, nodes)), axis=0)
    bound = float(np.sum(weights * vals / nodes))

    rel = abs(total - exact) / max(abs(exact), 1e-300)
    return TrotterTrace(n=n, estimate=total, exact=exact, bound=bound,
                        rel_error=rel, s_lo=lo, s_hi=hi, n_panels=len(panels),
                        tail_fractions=tail, tail_ok=tail_ok)
