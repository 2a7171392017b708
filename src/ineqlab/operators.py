"""Kinetic operator builders on lattice spaces.

Every operator is represented by its quadratic-form matrix A, acting
through t[u] = u* A u, together with the cell-measure vector m of the
underlying space: the operator itself is M^{-1} A and inner products
are <u, v> = sum_x m_x conj(u_x) v_x.  Spectral routines work with the
symmetrized matrix M^{-1/2} A M^{-1/2}, which has the same spectrum.

The plain Laplacian form is t[u] = sum_edges h^(d-2) |u_x - u_y|^2 plus
one h^(d-2) |u_x|^2 penalty per missing neighbor slot under Dirichlet
boundary conditions.

Forms are stored dense and read-only.  The constructor reads each form
once, in blocks of rows (``_scan``): a form with an entry that is not
finite, or with ||A - A^H||_inf above SYM_TOL max(1, max|A_ij|), is
rejected.  When its fullest row holds k nonzeros with
k * ROW_ROUTE_FACTOR < n, the scan also keeps a padded row list (per row,
the column indices and values of its nonzeros, padded to k slots) and the
bandwidth, which the inertia count in ``spectra`` reads.  form_product
(A @ u for each row u of a b x n block, a vector being the one-row block;
no row depends on the rows beside it) applies such a form in O(k n) work
per row, and any other form by one dense matrix-vector product per row.
Nearest-neighbour forms (k <= 2d + 1) take the row route on large
lattices; fractional and inverse-square forms stay dense.  Under the
measure 1, sym() of an exactly Hermitian form is the form itself,
sharing its memory.

KineticOperator.eigensystem() is computed on first use by one of two
routes.  A builder that knows the eigenpairs hands the constructor a
zero-argument callable for them.  The Laplacian of a box without
exclusions (``build_laplacian``, Dirichlet or periodic, any extents and
h) has tensor products of sine or real Fourier vectors with eigenvalues
h^-2 sum_axes (2 - 2 cos theta_k) (``box_eigensystem``; Strang, SIAM
Review 41, 1999), and a function of an operator
(``build_function_of_operator``) takes (f(w), Q) from its base.  Every
other form takes a dense ``eigh`` of sym().  KineticOperator.solve applies (A + shift M)^{-1} to rows from
the cached eigenbasis of the symmetrized matrix; it is the one place
that solves with a form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._specfun import hardy_constant
from .lattice import LatticeSpace, as_weight

SYM_TOL = 1e-12

# A form takes the row route when its fullest row has k nonzeros with
# k * ROW_ROUTE_FACTOR < n.  Measured for one vector at one OpenBLAS
# thread (numpy 2.4.6, OpenBLAS 0.3.31, x86-64): the dense matvec costs
# 2-3 us for n <= 81, 4 us at n = 128 and 440 us at n = 1024, while the
# row route costs 4-6 us at every n up to 256 and 13 us at n = 1024; the
# two break even near n = 40 k.  32 keeps every form with k >= 3 and
# n <= 96 dense.
ROW_ROUTE_FACTOR = 32


SCAN_BLOCK = 1 << 15       # entries (256 kB) of rows that a scan reads at a time


def _row_blocks(n: int) -> list:
    """Slices of consecutive rows of an n x n matrix, SCAN_BLOCK entries each."""
    step = max(1, SCAN_BLOCK // n)
    return [slice(i, i + step) for i in range(0, n, step)]


def abs_row_sums(M: np.ndarray) -> np.ndarray:
    """sum_j |M_ij| for every row i, one block of rows at a time."""
    out = np.empty(len(M))
    for r in _row_blocks(len(M)):
        np.sum(np.abs(M[r]), axis=1, out=out[r])
    return out


def _scan(form: np.ndarray):
    """(max|A_ij|, ||A - A^H||_inf, (max Re(A - diag A), its first (i, j)),
    padded row list or None, bandwidth or None) from one pass over the rows.
    The row list (cols, vals), kept while the rows read so far qualify for
    the row route, has shape (k, n): slot s of row i holds its s-th nonzero
    in column order, and short rows are padded with their own index and a 0.
    """
    n = form.shape[0]
    peaks, offs, defects, nonzeros = [], [], [], []
    counts = np.zeros(n, dtype=np.int64)
    for r in _row_blocks(n):
        blk = form[r]
        # column sums of A[:, r] - A[r]^H: the short block is transposed
        defects.append(np.max(np.sum(np.abs(form[:, r] - blk.conj().T), axis=0)))
        peaks.append(np.max(np.abs(blk)))
        off = blk.real.copy()
        np.fill_diagonal(off[:, r], 0.0)             # Re(A - diag A)
        at = int(np.argmax(off))
        offs.append((float(off.flat[at]), divmod(r.start * n + at, n)))
        if nonzeros is not None:
            nz = blk != 0
            counts[r] = np.count_nonzero(nz, axis=1)
            if max(1, int(counts.max())) * ROW_ROUTE_FACTOR < n:
                nonzeros.append(np.flatnonzero(nz) + r.start * n)
            else:
                nonzeros = None
    peak, defect = float(np.max(peaks)), float(max(defects))
    offdiag = max(offs, key=lambda o: o[0])     # the first maximum
    if nonzeros is None:
        return peak, defect, offdiag, None, None
    i, j = np.divmod(np.concatenate(nonzeros), n)
    k = int(counts.max(initial=1))
    slot = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = np.tile(np.arange(n), (k, 1))
    vals = np.zeros((k, n), dtype=form.dtype)
    cols[slot, i] = j
    vals[slot, i] = form[i, j]
    return peak, defect, offdiag, (cols, vals), int(np.max(np.abs(j - i), initial=0))


class KineticOperator:
    """Symmetric (or Hermitian) kinetic operator over a lattice space.

    measure defaults to the space's cell measures but may differ (the
    weighted transform and the L^2(V dx) realization both reuse this
    class with a modified measure).  The constructor marks the form array
    it is given read-only, without copying it.  eigensystem, when given,
    is a zero-argument callable that returns the eigenpairs of sym() as
    ``eigensystem()`` does; it is called on first use instead of ``eigh``.
    """

    def __init__(self, space: LatticeSpace, form: np.ndarray, *, measure=None,
                 meta: dict | None = None, eigensystem=None):
        form = np.asarray(form, dtype=None if np.iscomplexobj(form) else np.float64)
        if form.shape != (space.n, space.n):
            raise ValueError(f"form matrix has shape {form.shape}, expected square of size {space.n}")
        self.space = space
        form.setflags(write=False)
        self.form = form
        self.measure = np.asarray(space.measures if measure is None else measure, dtype=np.float64)
        if self.measure.shape != (space.n,) or np.any(self.measure <= 0.0):
            raise ValueError("measure must be a strictly positive vector over the sites")
        self.meta = dict(meta or {})
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite forms fail below
            peak, self._defect, self._offdiag, self._rows, self.bandwidth = _scan(self.form)
        if not np.isfinite(peak):
            raise ValueError("form matrix has an entry that is not finite")
        self.scale = max(1.0, peak)
        if self._defect > SYM_TOL * self.scale:
            raise ValueError("form matrix is not self-adjoint")
        self._sym = None
        self._eig = None
        self._eig_source = eigensystem

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.form)

    def sym(self) -> np.ndarray:
        """Symmetrized matrix 0.5 (B + B^H) for B = M^{-1/2} A M^{-1/2},
        read-only; the form itself when it is exactly Hermitian and M = 1."""
        if self._sym is None:
            if self._defect == 0.0 and np.all(self.measure == 1.0):
                self._sym = self.form
            else:
                rs = 1.0 / np.sqrt(self.measure)
                B = self.form * rs[:, None] * rs
                B = B + B.conj().T
                B *= 0.5
                B.setflags(write=False)
                self._sym = B
        return self._sym

    def eigensystem(self):
        """Cached (eigenvalues ascending, eigenvectors) of the symmetrized
        matrix, from the builder's closed form when it gave one, else from
        a dense ``eigh``."""
        if self._eig is None:
            if self._eig_source is None:
                self._eig = np.linalg.eigh(self.sym())
            else:
                self._eig = self._eig_source()
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem()[0]

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])

    def spectral_scale(self) -> float:
        w = self.eigenvalues()
        return max(float(np.max(np.abs(w))), 1e-300)

    def is_positive_definite(self) -> bool:
        return self.min_eigenvalue() > 1e-12 * self.spectral_scale()

    def form_product(self, U) -> np.ndarray:
        """A @ u for every row u of a b x n block (the rows of the result),
        or for a vector u of length n as for the one-row block."""
        U = np.asarray(U)
        if U.ndim == 1:
            return self.form_product(U[None])[0]
        rows = self._rows
        if rows is None:
            # one matrix-vector product per row, never a matrix-matrix
            # product: a BLAS GEMM rounds a row differently with the block's
            # height, so a row's result would depend on the rows beside it
            return np.matmul(U[:, None, :], self.form.T)[:, 0, :]
        # one slot at a time, so temporaries stay of size b x n.  take()
        # keeps the gathers (and so the result) row-major, where U[:, c]
        # would not.
        cols, vals = rows
        out = vals[0] * U.take(cols[0], axis=1)
        buf = np.empty_like(out)
        for c, v in zip(cols[1:], vals[1:]):
            np.multiply(v, U.take(c, axis=1), out=buf)
            out += buf
        return out

    def solve(self, B, shift=0.0) -> np.ndarray:
        """(A + shift M)^{-1} b for every row b of B, from the cached
        eigenbasis of T; the form must be real and T + shift positive
        definite.

        A k x n block takes one product pair for all its rows, with one
        shift or a k x 1 column of shifts, one per row.  A k x 1 x n stack
        takes one product per row, so each row's result is bit for bit its
        one-row solve and never depends on the rows beside it.
        """
        w, Q = self.eigensystem()
        rs = 1.0 / np.sqrt(self.measure)
        return rs * np.matmul(np.matmul(rs * B, Q) / (w + shift), Q.T)

    def quad_form(self, u) -> float:
        u = np.asarray(u)
        return float(np.real(np.conj(u) @ self.form_product(u)))

    def shifted(self, tau: float) -> "KineticOperator":
        """Operator T + tau (form A + tau * diag(m))."""
        tau = float(tau)
        form = self.form.copy()
        idx = np.arange(self.n)
        form[idx, idx] += tau * self.measure
        return KineticOperator(self.space, form, measure=self.measure, meta=dict(self.meta))

    def scaled(self, c: float) -> "KineticOperator":
        """Operator c*T (form c*A), c > 0."""
        c = float(c)
        if not c > 0.0:
            raise ValueError(f"scale factor must be positive, got {c}")
        return KineticOperator(self.space, c * self.form, measure=self.measure,
                               meta=dict(self.meta))


def _assemble_laplacian(space: LatticeSpace, edge_factors=None) -> np.ndarray:
    """Form matrix with optional complex factor exp(i*theta) per oriented edge;
    np.add.at sums the terms of each entry in edge order."""
    n = space.n
    complex_entries = edge_factors is not None and np.iscomplexobj(edge_factors)
    A = np.zeros((n, n), dtype=np.complex128 if complex_entries else np.float64)
    x, y = space.edges.T
    w = space.edge_weights
    if edge_factors is None:
        hop = back = w
    else:
        hop, back = w * edge_factors, w * np.conj(edge_factors)
    at = np.stack((x * (n + 1), y * (n + 1), x * n + y, y * n + x), axis=1)
    np.add.at(A.reshape(-1), at.reshape(-1), np.stack((w, w, -hop, -back), axis=1).reshape(-1))
    w_ghost = space.h ** (space.d - 2)
    A[np.arange(n), np.arange(n)] += w_ghost * space.boundary_counts
    return A


def _axis_eigensystem(L: int, periodic: bool):
    """(ascending eigenvalues, orthonormal eigenvector table Q[j, k]) of one
    axis's second difference of L sites: tridiag(-1, 2, -1) with Dirichlet
    ends, or its cyclic version.  The angle of entry (j, k) is reduced in
    integers before it is scaled, and the table is built in place."""
    if periodic:
        # columns: the constant, (cos, sin) pairs for k = 1 .. (L-1)//2, and
        # the alternating vector when L is even
        half = (L - 1) // 2
        k = np.array([0, *np.repeat(np.arange(1, half + 1), 2), *[L // 2] * (1 - L % 2)])
        period, theta = L, 2.0 * np.pi / L
        j = np.arange(L, dtype=np.float64)
        norm = np.where((k == 0) | (2 * k == L), math.sqrt(1.0 / L), math.sqrt(2.0 / L))
    else:
        k = np.arange(1, L + 1)
        period, theta = 2 * (L + 1), np.pi / (L + 1)
        j = np.arange(1, L + 1, dtype=np.float64)
        norm = np.full(L, math.sqrt(2.0 / (L + 1)))
    Q = np.multiply.outer(j, k)         # j k, exact in doubles
    np.remainder(Q, period, out=Q)
    Q *= theta
    if periodic:
        sines = slice(2, 2 * half + 1, 2)
        for cols in (slice(0, 1), slice(1, 2 * half, 2), slice(2 * half + 1, L)):
            np.cos(Q[:, cols], out=Q[:, cols])
        np.sin(Q[:, sines], out=Q[:, sines])
    else:
        np.sin(Q, out=Q)
    Q *= norm
    return 2.0 - 2.0 * np.cos(theta * k), Q


def box_eigensystem(space: LatticeSpace):
    """(ascending eigenvalues, eigenvectors) of sym() of the Laplacian of a
    box without exclusions, in closed form.

    The eigenvectors are tensor products of the per-axis tables
    (``_axis_eigensystem``); the eigenvalues, h^-2 times the outer sum of
    the per-axis ones over the modes in lexicographic order (axis 0
    slowest), are sorted by a stable argsort, so equal sums keep that
    order.  Q is filled one block of rows at a time.
    """
    if space.excluded:
        raise ValueError("closed-form eigensystems need a box without exclusions")
    axes = [_axis_eigensystem(L, space.bc == "periodic") for L in space.extents]
    if space.d == 1:
        w, Q = axes[0]
        return w / space.h**2, Q
    lam = functools.reduce(np.add.outer, [a[0] for a in axes]).reshape(-1)
    order = np.argsort(lam, kind="stable")
    modes = np.unravel_index(order, space.extents)
    tables = [Q_a[:, k_a] for (_, Q_a), k_a in zip(axes, modes)]     # L_a x n each
    sites = space.coords.T
    Q = np.empty((space.n, space.n))
    for r in _row_blocks(space.n):
        Q[r] = tables[0][sites[0][r]]
        for table, j in zip(tables[1:], sites[1:]):
            Q[r] *= table[j[r]]
    return lam[order] / space.h**2, Q


def build_laplacian(space: LatticeSpace) -> KineticOperator:
    """Nearest-neighbor Laplacian form with Dirichlet penalties at missing
    slots; a box without exclusions carries its closed-form eigensystem."""
    A = _assemble_laplacian(space)
    eig = None if space.excluded else (lambda: box_eigensystem(space))
    return KineticOperator(space, A, meta={"family": "laplacian"}, eigensystem=eig)


def build_function_of_operator(T: KineticOperator, f) -> KineticOperator:
    """Spectral calculus U f(Lambda) U* through T's eigensystem.

    f must be nonnegative and nondecreasing on [0, lambda_max]; the
    input operator must be positive semidefinite.  Covers fractional
    powers f(E) = E^s.  The result inherits the eigensystem (f(w), Q)
    when f(w) is ascending, as it is unless f dips within the tolerance
    of the nondecreasing check; it then takes its own ``eigh``.
    """
    w, Q = T.eigensystem()
    scale = T.spectral_scale()
    if w[0] < -1e-10 * scale:
        raise ValueError(f"operator is not positive semidefinite (min eigenvalue {w[0]:g})")
    wc = np.maximum(w, 0.0)
    fw = np.asarray(f(wc), dtype=np.float64)
    if fw.shape != wc.shape:
        raise ValueError("f must map the eigenvalue array to an equal-shaped array")
    fscale = max(1.0, float(np.max(np.abs(fw))))
    if np.any(fw < -1e-12 * fscale):
        raise ValueError("f takes negative values on the spectral range")
    if np.any(np.diff(fw) < -1e-12 * fscale):
        raise ValueError("f must be nondecreasing on the spectral range")
    Bp = (Q * fw[None, :]) @ Q.conj().T
    rs = np.sqrt(T.measure)
    Ap = rs[:, None] * Bp * rs[None, :]
    Ap = 0.5 * (Ap + Ap.conj().T)
    if T.is_real:
        Ap = np.real(Ap)
    meta = {"family": "function", "base_family": T.meta.get("family")}
    eig = (lambda: (fw, Q)) if np.all(np.diff(fw) >= 0.0) else None
    return KineticOperator(T.space, Ap, measure=T.measure, meta=meta, eigensystem=eig)


def fractional_laplacian(space: LatticeSpace, s: float) -> KineticOperator:
    """(-Laplacian)^s via spectral calculus."""
    s = float(s)
    if not (0.0 < s <= 1.0):
        raise ValueError(f"fractional power must satisfy 0 < s <= 1, got {s}")
    T = build_laplacian(space)
    out = build_function_of_operator(T, lambda E: E**s)
    out.meta.update({"family": "fractional", "s": s})
    return out


def build_magnetic_laplacian(space: LatticeSpace, phases) -> KineticOperator:
    """Laplacian with unit-modulus hopping factors exp(i*theta) per oriented edge.

    phases[k] is the phase along the stored orientation of edge k; the
    reverse orientation implicitly carries the opposite sign, so the
    form is Hermitian by construction.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.shape != (space.edges.shape[0],):
        raise ValueError(
            f"expected one phase per edge ({space.edges.shape[0]}), got shape {phases.shape}"
        )
    A = _assemble_laplacian(space, np.exp(1j * phases))
    return KineticOperator(space, A, meta={"family": "magnetic"})


def uniform_flux_phases(space: LatticeSpace, flux: float) -> np.ndarray:
    """Phase assignment giving the stated flux per unit plaquette in d = 2.

    Gauge: zero phase on axis-0 edges, phase flux * i on the axis-1 edge
    leaving column i.  On a torus whose axis-0 extent L does not satisfy
    flux * L in 2*pi*Z, the wrap column absorbs the defect.
    """
    if space.d != 2:
        raise ValueError("uniform flux phases are defined for d = 2 lattices")
    cx, cy = space.coords[space.edges[:, 0]], space.coords[space.edges[:, 1]]
    axis1 = (cy[:, 1] - cx[:, 1]) % space.extents[1] != 0
    return np.where(axis1, flux * cx[:, 0], 0.0)


def ring_flux_phases(space: LatticeSpace, total_flux: float) -> np.ndarray:
    """Evenly spread flux over a 1-d periodic ring (per stored edge orientation)."""
    if space.d != 1 or space.bc != "periodic":
        raise ValueError("ring flux phases require a 1-d periodic space")
    ne = space.edges.shape[0]
    return np.full(ne, total_flux / ne)


def random_phases(space: LatticeSpace, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * np.pi, size=space.edges.shape[0])


@dataclass
class PeriodicGroundState:
    """Ground-state bundle of a periodic Schroedinger operator T + W."""

    space: LatticeSpace
    potential: np.ndarray
    energy: float
    omega: np.ndarray            # strictly positive, normalized max = 1
    shifted: KineticOperator     # T + W - E, positive semidefinite with omega in kernel
    full_form: np.ndarray        # form matrix of T + W


def build_periodic_schrodinger(space: LatticeSpace, W) -> PeriodicGroundState:
    """Ground energy and positive ground state of the periodic operator T + W.

    The ground state is computed by inverse iteration from the all-ones
    vector (deterministic; cap 10^4 iterations, residual 1e-12 relative
    to the spectral scale) and normalized to max omega = 1.
    """
    if space.bc != "periodic":
        raise ValueError("periodic Schroedinger ground state requires periodic bc")
    W = np.asarray(W, dtype=np.float64)
    if W.shape != (space.n,):
        raise ValueError(f"potential has shape {W.shape}, expected ({space.n},)")
    AW = _assemble_laplacian(space)
    idx = np.arange(space.n)
    AW[idx, idx] += space.measures * W
    TW = KineticOperator(space, AW, meta={"family": "periodic"})
    w, _ = TW.eigensystem()
    E = float(w[0])
    scale = TW.spectral_scale()

    B = TW.sym()
    shift = E - 1e-8 * scale - 1e-300
    M_shift = B - shift * np.eye(space.n)
    v = np.ones(space.n)
    v /= np.linalg.norm(v)
    resid = np.inf
    for _ in range(10**4):
        v = np.linalg.solve(M_shift, v)
        v /= np.linalg.norm(v)
        resid = np.linalg.norm(B @ v - E * v)
        if resid <= 1e-12 * scale:
            break
    if float(np.sum(v)) < 0.0:
        v = -v
    omega = v / np.sqrt(space.measures)
    if np.any(omega <= 0.0):
        raise RuntimeError("ground state failed strict positivity")
    omega = omega / np.max(omega)

    A_shift = AW.copy()
    A_shift[idx, idx] -= E * space.measures
    shifted = KineticOperator(space, A_shift, meta={"family": "periodic-shifted", "energy": E,
                                                    "ground_residual": float(resid)})
    return PeriodicGroundState(space=space, potential=W, energy=E, omega=omega,
                               shifted=shifted, full_form=AW)


def build_hardy_operator(space: LatticeSpace, s: float, *, origin=None,
                         coupling=None) -> KineticOperator:
    """Fractional kinetic power minus the matched inverse-power potential.

    The subtracted multiplication operator is C * |x|^(-2s) with the
    sharp coupling C = hardy_constant(s, d) unless overridden.  The
    builder records the minimal eigenvalue; positivity of the continuum
    form is not claimed for this matrix surrogate, so callers should
    consult meta["lambda_min"] / meta["hardy_shift"].
    """
    d = space.d
    s = float(s)
    if not d > 2.0 * s:
        raise ValueError(f"requires d > 2s, got d={d}, s={s}")
    if origin is None:
        if len(space.excluded) == 1:
            origin = np.asarray(space.excluded[0], dtype=np.float64)
        else:
            raise ValueError("origin required unless exactly one site is excluded")
    origin = np.asarray(origin, dtype=np.float64)
    if origin.shape != (d,):
        raise ValueError(f"origin has shape {origin.shape}, expected ({d},)")
    r = space.h * np.sqrt(np.sum((space.coords - origin[None, :]) ** 2, axis=1))
    if np.any(r <= 0.0):
        raise ValueError("a site coincides with the origin; exclude or shift it")
    C = hardy_constant(s, d) if coupling is None else float(coupling)
    frac = fractional_laplacian(space, s)
    A = frac.form.copy()
    idx = np.arange(space.n)
    A[idx, idx] -= space.measures * C * r ** (-2.0 * s)
    op = KineticOperator(space, A, meta={"family": "hardy", "s": s, "coupling": C})
    lam_min = op.min_eigenvalue()
    op.meta["lambda_min"] = lam_min
    op.meta["hardy_shift"] = max(0.0, -lam_min)
    return op


@dataclass
class WeightedTransform:
    """Result of the ground-state-type change of variables u = omega * v."""

    operator: KineticOperator    # form t[omega v] in L^2 with the new measure
    measure: np.ndarray          # mu = omega^(2 kappa / (kappa - 1)) * m
    weight: np.ndarray
    kappa: float

    def potential_map(self, V) -> np.ndarray:
        """V -> omega^(-2/(kappa-1)) V, which preserves int V^kappa dx."""
        V = np.asarray(V, dtype=np.float64)
        return self.weight ** (-2.0 / (self.kappa - 1.0)) * V


def weighted_transform(T: KineticOperator, omega, kappa: float) -> WeightedTransform:
    """Conjugate the form by a positive weight and rescale the measure.

    t_omega[v] = t[omega v] realized in L^2 with measure
    mu = omega^(2 kappa/(kappa-1)) m; potentials map so that the kappa
    integral is preserved exactly and negative-eigenvalue counts at
    threshold zero are unchanged.  Requires kappa > 1 and T positive
    definite (shift first if needed).
    """
    kappa = float(kappa)
    if not kappa > 1.0:
        raise ValueError(f"weighted transform requires kappa > 1, got {kappa}")
    omega = as_weight(T.space, omega)
    if not T.is_positive_definite():
        raise ValueError("weighted transform requires a positive definite operator; apply a shift first")
    A_w = omega[:, None] * T.form * omega[None, :]
    mu = omega ** (2.0 * kappa / (kappa - 1.0)) * T.measure
    op = KineticOperator(T.space, A_w, measure=mu, meta={"family": "weighted", "kappa": kappa})
    return WeightedTransform(operator=op, measure=mu, weight=omega, kappa=kappa)


@dataclass
class BeurlingDenyReport:
    """Outcome of the positivity/contraction checks on a kinetic form.

    condition 1: the form is real.
    condition 2: no positive off-diagonal entries, equivalently the form
    does not increase under u -> |u|; when it fails, ``cond2_witness`` is
    the sign flip across the worst edge, for which it does.
    condition 3: t[min(u, omega)] <= t[u] for nonnegative u and the
    supplied weight omega; given condition 2 this holds iff (A omega)_x >= 0
    at every site (the Markov criterion after the ground-state transform
    by omega), and ``cond3_excess`` is max_x -(A omega)_x.
    The density requirement behind condition 3 is trivially satisfied on
    a finite space and recorded as such.
    """

    is_real: bool
    offdiag_max: float
    cond2_pass: bool
    cond2_witness: np.ndarray | None
    cond3_excess: float
    cond3_pass: bool
    cond3_omega: str
    density_clause: str = "trivially satisfied on a finite space"

    @property
    def passed(self) -> bool:
        return self.is_real and self.cond2_pass and self.cond3_pass


def beurling_deny_check(T: KineticOperator, omega=None) -> BeurlingDenyReport:
    """Decide the positivity-preservation conditions of the form matrix.

    Failures are reported, never raised.  omega defaults to the constant
    weight; pass the ground state for shifted periodic operators.
    """
    n = T.n
    scale = T.scale
    is_real = T.is_real

    offdiag_max = T._offdiag[0] if n > 1 else 0.0    # max Re(A - diag A)
    cond2_pass = is_real and offdiag_max <= 1e-14 * scale
    witness = None
    if is_real and not cond2_pass:
        # sign flip across the worst edge: t[|u|] - t[u] = 4 A_xy > 0
        x, y = T._offdiag[1]
        witness = np.zeros(n)
        witness[x], witness[y] = 1.0, -1.0

    if omega is None:
        omega_arr = np.ones(n)
        omega_label = "constant"
    else:
        omega_arr = as_weight(T.space, omega)
        omega_label = "supplied"
    cond3_excess = float(np.max(-T.form_product(omega_arr))) if is_real else np.inf

    return BeurlingDenyReport(
        is_real=is_real,
        offdiag_max=offdiag_max,
        cond2_pass=bool(cond2_pass),
        cond2_witness=witness,
        cond3_excess=cond3_excess,
        cond3_pass=bool(cond3_excess <= 1e-10 * scale),
        cond3_omega=omega_label,
    )


def diamagnetic_form_pair(T: KineticOperator, T_A: KineticOperator, u, v) -> tuple[float, float]:
    """Left and right side of the form inequality t[v, |u|] <= Re t_A[v sgn u, u].

    sgn u = u/|u| with the convention sgn 0 = 0.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.float64)
    absu = np.abs(u)
    lhs = float(np.real(v @ T.form_product(absu)))
    sgn = np.zeros_like(u)
    nz = absu > 0.0
    sgn[nz] = u[nz] / absu[nz]
    w = v * sgn
    rhs = float(np.real(np.conj(w) @ T_A.form_product(u)))
    return lhs, rhs
