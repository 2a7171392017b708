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

KineticOperator.eigensystem() is one dense ``eigh`` of sym(), computed on
first use and cached.  KineticOperator.solve applies (A + shift M)^{-1}
to rows in the eigenbasis of the symmetrized matrix; it is the one place
that solves with a form.  The Laplacian of a box without exclusions with
at least TRANSFORM_MIN_SITES sites (``build_laplacian``, Dirichlet or
periodic, any extents and h) takes the transform route: it carries its
``BoxBasis``, tensor products of sine or real Fourier vectors with
eigenvalues h^-2 sum_axes (2 - 2 cos theta_k) (Strang, SIAM Review 41,
1999).  It reads its eigenvalues from the basis, and ``solve`` and the
heat-kernel diagonal apply the basis by one FFT per axis (DST-I on
Dirichlet axes, a real DFT on periodic ones) in O(n log n) work per row.
Every other form, and every reader of a large box's eigenvectors,
multiplies by the ``eigh`` eigenvectors.
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


# A box Laplacian takes the transform route (``BoxBasis``) from
# TRANSFORM_MIN_SITES sites on.  Measured for a 17-row solve at one
# OpenBLAS thread (numpy 2.4.6, OpenBLAS 0.3.31, x86-64), dense product
# pair against transforms: 10 against 130 us at 8x8, 0.15 against 0.32 ms
# at 16x16, 0.36 against 0.35 ms at 20x20; 2.5 against 0.56 ms at n = 1024
# and 2.5 against 0.80 ms at 32x32 (Dirichlet), 2.8 against 0.30 and 2.9
# against 0.46 ms (periodic).  From 512 sites on the transforms took
# 0.1-0.8x the dense time on every shape tried (1-d, 2-d 23x23 to 36x36,
# 3-d 9^3 and 10^3) except 8x8x8 (1.1-1.2x, before counting the eigh that
# the route skips) and Dirichlet lines whose L + 1 is a large prime, where
# the FFT of length 2(L + 1) falls back to Bluestein's algorithm (1.2-2.3x
# up to 1100 sites).
TRANSFORM_MIN_SITES = 512

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
    it is given read-only, without copying it.  ``transform`` is the
    ``BoxBasis`` of sym() that the builder hands on when the operator takes
    the transform route (``build_laplacian``), else None.
    """

    def __init__(self, space: LatticeSpace, form: np.ndarray, *, measure=None,
                 meta: dict | None = None, transform: BoxBasis | None = None):
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
        self.transform = transform

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
        matrix, from one dense ``eigh``."""
        if self._eig is None:
            self._eig = np.linalg.eigh(self.sym())
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues; the transform route reads them without
        ``eigh``."""
        return self.eigensystem()[0] if self.transform is None else self.transform.values

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
        one-row solve and never depends on the rows beside it.  On the
        transform route the pair is applied by FFTs (``BoxBasis.solve``),
        and every row of a block is its one-row solve as well.
        """
        rs = 1.0 / np.sqrt(self.measure)
        if self.transform is not None:
            return rs * self.transform.solve(rs * B, shift)
        w, Q = self.eigensystem()
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


def _axis_values(L: int, periodic: bool) -> np.ndarray:
    """Ascending eigenvalues 2 - 2 cos(theta k) of one axis's second
    difference of L sites: tridiag(-1, 2, -1) with Dirichlet ends, or its
    cyclic version, one per column of its basis.  Periodic columns are the
    constant, (cos, sin) pairs for k = 1 .. (L-1)//2, and the alternating
    vector when L is even (theta = 2 pi / L); Dirichlet columns are sines,
    k = 1 .. L (theta = pi / (L + 1))."""
    if periodic:
        half = (L - 1) // 2
        k = np.array([0, *np.repeat(np.arange(1, half + 1), 2), *[L // 2] * (1 - L % 2)])
        theta = 2.0 * np.pi / L
    else:
        k, theta = np.arange(1, L + 1), np.pi / (L + 1)
    return 2.0 - 2.0 * np.cos(theta * k)


def _dst1(X: np.ndarray, axis: int) -> np.ndarray:
    """Orthonormal DST-I along ``axis``, sum_j X_j sqrt(2/(L+1)) sin(pi j k/(L+1))
    for j, k = 1 .. L: minus the imaginary parts of the rfft of X with one
    zero before it and L + 1 after.  It is its own inverse."""
    X = np.moveaxis(X, axis, -1)
    L = X.shape[-1]
    E = np.zeros(X.shape[:-1] + (2 * L + 2,))
    E[..., 1:L + 1] = X
    F = np.fft.rfft(E)[..., 1:L + 1].imag
    F *= -math.sqrt(2.0 / (L + 1))
    return np.moveaxis(F, -1, axis)


def _rdft(X: np.ndarray, axis: int, inverse: bool = False) -> np.ndarray:
    """The real DFT along ``axis`` in the orthonormal periodic basis of
    ``_axis_values``: coefficients X Q from the rfft of X, or with
    ``inverse`` the points Q C of coefficients C by one irfft."""
    X = np.moveaxis(X, axis, -1)
    L = X.shape[-1]
    half, even = (L - 1) // 2, L % 2 == 0
    cos, sin = slice(1, 2 * half, 2), slice(2, 2 * half + 1, 2)
    unit, pair = math.sqrt(1.0 / L), math.sqrt(2.0 / L)
    if inverse:
        Z = np.empty(X.shape[:-1] + (L // 2 + 1,), dtype=np.complex128)
        Z[..., 0] = X[..., 0] / unit
        Z.real[..., 1:half + 1] = X[..., cos] / pair
        Z.imag[..., 1:half + 1] = X[..., sin] / -pair
        if even:
            Z[..., L // 2] = X[..., L - 1] / unit
        return np.moveaxis(np.fft.irfft(Z, n=L), -1, axis)
    F = np.fft.rfft(X)
    C = np.empty(X.shape)
    C[..., 0] = F[..., 0].real * unit
    C[..., cos] = F.real[..., 1:half + 1] * pair
    C[..., sin] = F.imag[..., 1:half + 1] * -pair
    if even:
        C[..., L - 1] = F[..., L // 2].real * unit
    return np.moveaxis(C, -1, axis)


class BoxBasis:
    """The closed-form eigenbasis of sym() of the Laplacian of a box without
    exclusions: tensor products of one sine or real Fourier basis per axis
    (``_axis_values``), with eigenvalues h^-2 sum_axes (2 - 2 cos theta_k)
    (Strang, SIAM Review 41, 1999).

    ``mode_values`` holds the eigenvalues over the modes in lexicographic
    order (axis 0 slowest), and ``values`` holds them ascending.  ``solve``
    and ``heat_diagonal`` apply the basis by one FFT per axis; no n x n
    eigenvector array is ever formed.
    """

    def __init__(self, space: LatticeSpace):
        if space.excluded:
            raise ValueError("closed-form eigensystems need a box without exclusions")
        self.space = space
        self.periodic = space.bc == "periodic"
        self.axis_values = [_axis_values(L, self.periodic) for L in space.extents]
        lam = functools.reduce(np.add.outer, self.axis_values).reshape(-1)
        self.mode_values = lam / space.h**2
        self.values = np.sort(self.mode_values)

    def _transform(self, X: np.ndarray, inverse: bool) -> np.ndarray:
        lead = X.ndim - 1
        X = X.reshape(X.shape[:-1] + self.space.extents)
        for a in range(self.space.d):
            X = _rdft(X, lead + a, inverse) if self.periodic else _dst1(X, lead + a)
        return X.reshape(X.shape[:lead] + (-1,))

    def solve(self, B, shift=0.0) -> np.ndarray:
        """Q ((Q^T b) / (w + shift)) for every row b of B, Q the basis and w
        its eigenvalues: ``KineticOperator.solve``'s product pair, with the
        basis applied by the axis transforms.  A row's result never
        depends on the rows beside it, in a block or a k x 1 x n stack."""
        C = self._transform(np.asarray(B, dtype=np.float64), False)
        return self._transform(C / (self.mode_values + shift), True)

    def heat_diagonal(self, s_values) -> np.ndarray:
        """sum_j Q_xj^2 exp(-s w_j) for every site x and time s in
        ``s_values``, as an n x G array: the product over the axes of the
        per-axis sums.  On a periodic axis of L sites that sum is
        (1/L) sum_k g_k for g_k = exp(-s lam_k / h^2), the same at every
        site.  On a Dirichlet axis sin^2 = (1 - cos 2 theta)/2 makes it
        (F_0 - Re F_j) / (L + 1) at site j, for F the DFT of
        (0, g_1, .., g_L): one rfft of length L + 1 per time."""
        s_values = np.asarray(s_values, dtype=np.float64)
        out = np.ones((self.space.n, s_values.size))
        for a, (L, lam) in enumerate(zip(self.space.extents, self.axis_values)):
            g = np.exp(-np.outer(lam / self.space.h**2, s_values))      # L x G
            if self.periodic:
                out *= np.sum(g, axis=0) / L
            else:
                F = np.fft.rfft(np.concatenate((np.zeros((1, s_values.size)), g)), axis=0).real
                j = np.arange(1, L + 1)
                out *= ((F[0] - F[np.minimum(j, L + 1 - j)]) / (L + 1))[self.space.coords[:, a]]
        return out


def build_laplacian(space: LatticeSpace) -> KineticOperator:
    """Nearest-neighbor Laplacian form with Dirichlet penalties at missing
    slots; a box without exclusions with at least TRANSFORM_MIN_SITES sites
    takes the transform route with its ``BoxBasis``."""
    A = _assemble_laplacian(space)
    large_box = not space.excluded and space.n >= TRANSFORM_MIN_SITES
    return KineticOperator(space, A, meta={"family": "laplacian"},
                           transform=BoxBasis(space) if large_box else None)


def build_function_of_operator(T: KineticOperator, f) -> KineticOperator:
    """Spectral calculus U f(Lambda) U* through T's eigensystem.

    f must be nonnegative and nondecreasing on [0, lambda_max]; the
    input operator must be positive semidefinite.  Covers fractional
    powers f(E) = E^s.
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
    return KineticOperator(T.space, Ap, measure=T.measure, meta=meta)


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
