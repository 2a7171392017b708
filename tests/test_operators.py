"""Kinetic operator families: forms, spectra, and structure checks."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from ineqlab import (KineticOperator, beurling_deny_check, build_laplacian,
                     build_magnetic_laplacian, build_periodic_schrodinger,
                     build_hardy_operator, fractional_laplacian,
                     hardy_constant, make_lattice,
                     random_phases, ring_flux_phases, uniform_flux_phases)
from ineqlab import cli, spectra, verify
from ineqlab.operators import (ROW_ROUTE_FACTOR, SYM_TOL, TRANSFORM_MIN_SITES, BoxBasis,
                               _edge_rows, _scan, build_function_of_operator)
from oracles import weighted_transform


def manual_quad_form(space, u):
    t = 0.0
    for (i, j), w in zip(space.edges.tolist(), space.edge_weights):
        t += w * abs(u[i] - u[j]) ** 2
    w_edge = space.h ** (space.d - 2)
    t += w_edge * float(np.sum(space.boundary_counts * np.abs(u) ** 2))
    return t


def quad_form(T, u):
    """t[u] = u* A u, real for a Hermitian form."""
    return float(np.real(np.conj(u) @ T.form_product(u)))


def test_path_laplacian_matrix():
    sp = make_lattice(d=1, extents=3)
    A = build_laplacian(sp).form
    want = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    np.testing.assert_allclose(A, want, atol=1e-15)


def test_ring_laplacian_matrix():
    sp = make_lattice(d=1, extents=4, bc="periodic")
    A = build_laplacian(sp).form
    want = 2.0 * np.eye(4)
    for i in range(4):
        want[i, (i + 1) % 4] = want[(i + 1) % 4, i] = -1.0
    np.testing.assert_allclose(A, want, atol=1e-15)


def test_dirichlet_path_spectrum_analytic():
    n = 10
    T = build_laplacian(make_lattice(d=1, extents=n))
    want = np.sort([2.0 - 2.0 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)])
    np.testing.assert_allclose(T.eigenvalues(), want, rtol=1e-12, atol=1e-13)


def test_ring_spectrum_analytic():
    n = 8
    T = build_laplacian(make_lattice(d=1, extents=n, bc="periodic"))
    want = np.sort([2.0 - 2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)])
    np.testing.assert_allclose(T.eigenvalues(), want, rtol=1e-12, atol=1e-12)


def test_quad_form_matches_edge_sum():
    sp = make_lattice(d=2, extents=(4, 3), h=0.7)
    T = build_laplacian(sp)
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.standard_normal(sp.n)
        assert quad_form(T, u) == pytest.approx(manual_quad_form(sp, u), rel=1e-12)
    # complex arguments: the form is real symmetric, t[u] stays real
    w = rng.standard_normal(sp.n) + 1j * rng.standard_normal(sp.n)
    assert quad_form(T, w) == pytest.approx(manual_quad_form(sp, w), rel=1e-12)


def test_excluded_site_penalized_in_form():
    sp = make_lattice(d=2, extents=3, exclusions=[(1, 1)])
    T = build_laplacian(sp)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(sp.n)
    assert quad_form(T, u) == pytest.approx(manual_quad_form(sp, u), rel=1e-12)
    # diagonal keeps the full 2d neighbor count at every site
    np.testing.assert_allclose(np.diag(T.form), 4.0)


def test_operator_rejects_nonsymmetric_form():
    sp = make_lattice(d=1, extents=2)
    with pytest.raises(ValueError):
        KineticOperator(sp, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        KineticOperator(sp, np.eye(3))


def operator_on_route(sp, B, route):
    """The operator of the form B, handed over dense or as its row list."""
    if route == "dense":
        return KineticOperator(sp, B)
    return KineticOperator._from_rows(sp, padded_rows_reference(B, False))


@pytest.mark.parametrize("n, route", [(4, "dense"), (256, "row-route")], ids=["dense", "row-route"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_operator_rejects_non_finite_form(bad, n, route):
    sp = make_lattice(d=1, extents=n)
    A = build_laplacian(sp).form.copy()
    for entries in ([(1, 1)], [(0, 1), (1, 0)]):
        B = A.copy()
        for ij in entries:
            B[ij] = bad
        with pytest.raises(ValueError, match="not finite"):
            operator_on_route(sp, B, route)


def test_function_of_operator_matches_expm():
    T = build_laplacian(make_lattice(d=1, extents=7, h=0.5))
    Tf = build_function_of_operator(T, np.expm1)
    want = scipy.linalg.expm(T.sym()) - np.eye(T.n)
    np.testing.assert_allclose(Tf.sym(), want, rtol=1e-11, atol=1e-13)
    # the calculus is restricted to nondecreasing nonnegative functions
    with pytest.raises(ValueError, match="nondecreasing"):
        build_function_of_operator(T, lambda w: np.exp(-0.7 * w))
    with pytest.raises(ValueError, match="negative"):
        build_function_of_operator(T, lambda w: w - 1.0)


def test_fractional_powers():
    sp = make_lattice(d=1, extents=12)
    T = build_laplacian(sp)
    np.testing.assert_allclose(fractional_laplacian(sp, 1.0).form, T.form,
                               rtol=1e-12, atol=1e-12)
    Th = fractional_laplacian(sp, 0.5)
    np.testing.assert_allclose(Th.eigenvalues(), np.sqrt(T.eigenvalues()),
                               rtol=1e-11)
    with pytest.raises(ValueError):
        fractional_laplacian(sp, 0.0)
    with pytest.raises(ValueError):
        fractional_laplacian(sp, 1.5)


def test_fractional_keeps_markov_sign_structure():
    # subordinated generator: off-diagonal entries stay nonpositive
    for sp in (make_lattice(d=1, extents=16), make_lattice(d=2, extents=4)):
        for s in (0.25, 0.5, 0.75):
            T = fractional_laplacian(sp, s)
            assert beurling_deny_check(T).passed


def test_magnetic_zero_phase_reduces_to_base():
    sp = make_lattice(d=2, extents=4)
    base = build_laplacian(sp)
    TA = build_magnetic_laplacian(sp, np.zeros(len(sp.edges)))
    np.testing.assert_allclose(np.real(TA.form), base.form, atol=1e-15)
    np.testing.assert_allclose(np.imag(TA.form), 0.0, atol=1e-15)


def test_uniform_flux_plaquette_holonomy():
    sp = make_lattice(d=2, extents=4, bc="periodic")
    flux = 0.37
    phases = uniform_flux_phases(sp, flux)
    phase_of = {}
    for e, (i, j) in enumerate(sp.edges.tolist()):
        phase_of[(i, j)] = phases[e]
        phase_of[(j, i)] = -phases[e]
    index = {tuple(c): i for i, c in enumerate(sp.coords.tolist())}
    for x in range(3):          # interior plaquettes are unambiguous
        for y in range(3):
            a, b = index[(x, y)], index[(x + 1, y)]
            c, d = index[(x + 1, y + 1)], index[(x, y + 1)]
            hol = (phase_of[(a, b)] + phase_of[(b, c)]
                   - phase_of[(d, c)] - phase_of[(a, d)])
            assert math.remainder(hol - flux, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_magnetic_spectrum_gauge_periodic_in_ring_flux():
    sp = make_lattice(d=1, extents=6, bc="periodic")
    w0 = build_magnetic_laplacian(sp, ring_flux_phases(sp, 0.0)).eigenvalues()
    w2pi = build_magnetic_laplacian(sp, ring_flux_phases(sp, 2.0 * math.pi)).eigenvalues()
    np.testing.assert_allclose(w2pi, w0, atol=1e-12)
    # half flux quantum on an even ring: antiperiodic spectrum
    n = 6
    wpi = build_magnetic_laplacian(sp, ring_flux_phases(sp, math.pi)).eigenvalues()
    want = np.sort([2.0 - 2.0 * math.cos((2 * k + 1) * math.pi / n) for k in range(n)])
    np.testing.assert_allclose(wpi, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=16, derandomize=True, deadline=None)
@given(extents=st.lists(st.integers(1, 7), min_size=1, max_size=2),
       bc=st.sampled_from(["dirichlet", "periodic"]), h=st.sampled_from([0.5, 1.0, 2.0]),
       seed=st.integers(0, 2**16))
def test_magnetic_spectrum_invariant_under_gauge(extents, bc, h, seed):
    """theta_xy -> theta_xy + phi_y - phi_x conjugates the form by the unitary
    diag(exp(i phi)), which commutes with V, so eig(T_A - V) is unchanged
    up to rounding."""
    from ineqlab.spectra import schrodinger_eigenvalues

    sp = make_lattice(d=len(extents), extents=extents, h=h, bc=bc)
    rng = np.random.default_rng(seed)
    theta = random_phases(sp, seed)
    phi = rng.uniform(0.0, 2.0 * math.pi, sp.n)
    x, y = sp.edges.T
    T_A = build_magnetic_laplacian(sp, theta)
    gauged = build_magnetic_laplacian(sp, theta + phi[y] - phi[x])
    V = np.abs(rng.normal(0.0, T_A.spectral_scale(), sp.n))
    want = schrodinger_eigenvalues(T_A, V)
    got = schrodinger_eigenvalues(gauged, V)
    # each eigenvalue of a Hermitian eigensolver is exact to about
    # n eps ||T_A - V|| for either matrix
    scale = float(np.max(np.abs(want)))
    eps = float(np.finfo(np.float64).eps)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=2.0 * sp.n * eps * scale)


def test_ring_flux_phases_sum():
    sp = make_lattice(d=1, extents=9, bc="periodic")
    ph = ring_flux_phases(sp, 1.3)
    assert np.sum(ph) == pytest.approx(1.3, rel=1e-12)


def test_random_phases_deterministic():
    sp = make_lattice(d=2, extents=3, bc="periodic")
    np.testing.assert_array_equal(random_phases(sp, 42), random_phases(sp, 42))
    assert not np.array_equal(random_phases(sp, 42), random_phases(sp, 43))


def test_periodic_ground_state():
    sp = make_lattice(d=1, extents=16, bc="periodic")
    x = np.arange(16)
    W = 0.5 * np.cos(2.0 * math.pi * x / 16)
    gs = build_periodic_schrodinger(sp, W)
    assert np.all(gs.omega > 0.0)
    assert gs.omega.max() == pytest.approx(1.0)
    # energy is the bottom of the full operator
    full = KineticOperator(sp, gs.full_form)
    assert gs.energy == pytest.approx(full.min_eigenvalue(), rel=1e-12, abs=1e-12)
    # omega spans the kernel of the shifted form
    resid = np.linalg.norm(gs.shifted.form @ gs.omega)
    assert resid <= 1e-9 * max(1.0, np.abs(gs.shifted.form).max())
    assert gs.shifted.min_eigenvalue() >= -1e-10 * gs.shifted.spectral_scale()


def test_periodic_ground_state_flat_potential():
    sp = make_lattice(d=1, extents=10, bc="periodic")
    gs = build_periodic_schrodinger(sp, np.zeros(10))
    assert gs.energy == pytest.approx(0.0, abs=1e-12)
    assert np.ptp(gs.omega) <= 1e-9


def test_periodic_ground_state_requires_periodic_bc():
    sp = make_lattice(d=1, extents=10)
    with pytest.raises(ValueError):
        build_periodic_schrodinger(sp, np.zeros(10))


def test_hardy_operator_structure():
    sp = make_lattice(d=2, extents=9, exclusions=[(4, 4)])
    T = build_hardy_operator(sp, 0.5)
    # form = fractional power minus the matched inverse-power multiplier
    frac = fractional_laplacian(sp, 0.5)
    r = sp.h * np.sqrt(np.sum((sp.coords - 4.0) ** 2, axis=1))
    C = hardy_constant(0.5, 2)
    want = frac.form - np.diag(sp.measures * C / r)
    np.testing.assert_allclose(T.form, want, rtol=1e-12, atol=1e-12)
    assert T.meta["lambda_min"] == pytest.approx(0.44600222664247, rel=1e-8)
    assert T.meta["hardy_shift"] == 0.0
    assert T.is_positive_definite()


def test_hardy_operator_validation():
    sp = make_lattice(d=2, extents=3)
    with pytest.raises(ValueError):
        build_hardy_operator(sp, 0.5)            # no exclusion, no origin
    with pytest.raises(ValueError):
        build_hardy_operator(sp, 0.5, origin=(1.0, 1.0))   # sits on a site
    with pytest.raises(ValueError):
        build_hardy_operator(make_lattice(d=1, extents=4), 0.5, origin=(-1.0,))
    T = build_hardy_operator(sp, 0.5, origin=(-1.0, -1.0))
    assert T.meta["coupling"] == pytest.approx(hardy_constant(0.5, 2))
    Tc = build_hardy_operator(sp, 0.5, origin=(-1.0, -1.0), coupling=0.01)
    assert Tc.meta["coupling"] == 0.01


def test_weighted_transform_invariants():
    rng = np.random.default_rng(17)
    sp = make_lattice(d=1, extents=12)
    T = build_laplacian(sp)
    kappa = 1.5
    for _ in range(5):
        omega = np.exp(0.4 * rng.standard_normal(sp.n))
        wt = weighted_transform(T, omega, kappa)
        # the conjugated form evaluates t[omega v]
        v = rng.standard_normal(sp.n)
        assert quad_form(wt.operator, v) == pytest.approx(quad_form(T, omega * v), rel=1e-12)
        # the potential map preserves the kappa integral exactly
        V = np.abs(rng.standard_normal(sp.n))
        Vt = wt.potential_map(V)
        got = float(np.sum(wt.measure * Vt**kappa))
        want = float(np.sum(T.measure * V**kappa))
        assert got == pytest.approx(want, rel=1e-12)


def test_weighted_transform_requires_positive_definite():
    T = build_laplacian(make_lattice(d=1, extents=8, bc="periodic"))
    with pytest.raises(ValueError):
        weighted_transform(T, np.ones(8), 1.5)
    with pytest.raises(ValueError, match="kappa"):
        weighted_transform(build_laplacian(make_lattice(d=1, extents=8)), np.ones(8), 1.0)


def test_beurling_deny_detects_positive_offdiagonal():
    sp = make_lattice(d=1, extents=3)
    good = build_laplacian(sp)
    rep = beurling_deny_check(good)
    assert rep.passed and rep.cond2_pass and rep.cond3_pass and rep.is_real
    bad = KineticOperator(sp, np.array([[2.0, 0.5, 0.0],
                                        [0.5, 2.0, -1.0],
                                        [0.0, -1.0, 2.0]]))
    rep = beurling_deny_check(bad)
    assert not rep.passed and not rep.cond2_pass
    assert rep.cond2_witness is not None
    u = rep.cond2_witness
    assert quad_form(bad, np.abs(u)) > quad_form(bad, u)


def sampled_beurling_deny(T, omega=None, *, n_samples=100, seed=20240801):
    """Sampling oracle for conditions 2 and 3: the worst excess of
    t[|u|] - t[u] over real and complex u, and of t[min(u, omega)] - t[u]
    over nonnegative u, each passed against 1e-10 * scale."""
    n = T.n
    scale = max(1.0, float(np.max(np.abs(T.form))))
    rng = np.random.default_rng(seed)
    cond2 = -np.inf
    for i in range(n_samples):
        u = rng.standard_normal(n)
        if i % 2:
            u = u + 1j * rng.standard_normal(n)
        cond2 = max(cond2, quad_form(T, np.abs(u)) - quad_form(T, u))
    w = np.ones(n) if omega is None else np.asarray(omega)
    cond3 = -np.inf
    for _ in range(n_samples):
        u = np.abs(rng.standard_normal(n)) * float(rng.uniform(0.2, 2.0))
        cond3 = max(cond3, quad_form(T, np.minimum(u, w)) - quad_form(T, u))
    return cond2 <= 1e-10 * scale, cond3 <= 1e-10 * scale


def _bundled_forms():
    for sc in verify.validate_config(cli._load_config("paper-suite"))["scenarios"]:
        _, T, _, bundle, _ = verify._build_instance(sc)
        yield sc["id"], T, (bundle.omega if bundle is not None else None)


def test_beurling_deny_exact_matches_sampler():
    forms = list(_bundled_forms())
    assert len(forms) == 16
    # Markov sign structure whose only defect is one negative row sum
    sp = make_lattice(d=1, extents=6)

    def row_sum_defect(diag):
        A = build_laplacian(sp).form.copy()
        A[3, 3] = diag
        return KineticOperator(sp, A)

    forms.append(("negative-row-sum", row_sum_defect(1.0), None))
    verdicts = {}
    for sid, T, omega in forms:
        rep = beurling_deny_check(T, omega=omega)
        assert (rep.cond2_pass, rep.cond3_pass) == sampled_beurling_deny(T, omega), sid
        verdicts[sid] = rep.passed
    assert not verdicts["negative-row-sum"]
    assert verdicts["clr-1d-n32"]
    # a row sum of -0.5 escapes the 100 samples but not the exact test
    mild = row_sum_defect(1.5)
    assert sampled_beurling_deny(mild) == (True, True)
    rep = beurling_deny_check(mild)
    assert rep.cond2_pass and not rep.cond3_pass
    assert rep.cond3_excess == pytest.approx(0.5, rel=1e-14)


def test_beurling_deny_complex_form_fails_condition_one():
    sp = make_lattice(d=2, extents=3, bc="periodic")
    TA = build_magnetic_laplacian(sp, uniform_flux_phases(sp, 0.5))
    rep = beurling_deny_check(TA)
    assert not rep.is_real and not rep.passed


# --- form products: row route against the dense matrix ---------------------

def _row_route_operators(size):
    """Nearest-neighbour forms at one lattice size ("small": n = 16,
    dense route; "large": n = 256, row route), keyed by family, each built
    from its row list."""
    n1, e2 = (16, (4, 4)) if size == "small" else (256, (16, 16))
    path = make_lattice(d=1, extents=n1)
    ring = make_lattice(d=1, extents=n1, bc="periodic")
    grid = make_lattice(d=2, extents=e2)
    torus = make_lattice(d=2, extents=e2, bc="periodic")
    lap = build_laplacian(path)
    omega = np.exp(0.3 * np.random.default_rng(5).standard_normal(path.n))
    W = 0.5 * np.cos(2.0 * np.pi * np.arange(ring.n) / ring.n)
    return {
        "laplacian-1d": lap,
        "periodic-1d": build_laplacian(ring),
        "laplacian-2d": build_laplacian(grid),
        "periodic-2d": build_laplacian(torus),
        "magnetic-2d": build_magnetic_laplacian(grid, uniform_flux_phases(grid, 0.7)),
        "shifted": KineticOperator._from_rows(
            path, _edge_rows(path, diagonals=(0.3 * path.measures,))),
        "weighted": weighted_transform(lap, omega, 1.5).operator,
        "periodic-shifted": build_periodic_schrodinger(ring, W).shifted,
    }


def _dense_operators():
    hole = make_lattice(d=2, extents=(9, 9), exclusions=[(4, 4)])
    return {
        "fractional-1d": fractional_laplacian(make_lattice(d=1, extents=256), 0.5),
        "hardy-2d": build_hardy_operator(hole, 0.5),
    }


FORM_OPERATORS = {("small", k): T for k, T in _row_route_operators("small").items()}
FORM_OPERATORS.update({("large", k): T for k, T in _row_route_operators("large").items()})
FORM_OPERATORS.update({("full", k): T for k, T in _dense_operators().items()})


SOLVE_KEYS = [("small", "laplacian-1d"), ("small", "shifted"), ("small", "weighted"),
              ("large", "weighted"), ("full", "fractional-1d")]


@pytest.mark.parametrize("key", SOLVE_KEYS, ids="-".join)
def test_solve_matches_dense_solve(key):
    T = FORM_OPERATORS[key]
    rng = np.random.default_rng(11)
    B = rng.standard_normal((5, T.n))
    eps = float(np.finfo(np.float64).eps)
    for shift in (0.0, 0.7, rng.uniform(0.1, 2.0, size=(5, 1))):
        X = T.solve(B, shift)
        assert X.shape == B.shape
        for r in range(5):
            s = float(np.broadcast_to(shift, (5, 1))[r, 0])
            A = T.form + s * np.diag(T.measure)
            want = np.linalg.solve(A, B[r])
            # rounding of a backward-stable solve: n eps times the condition
            # number, relative to the solution
            w = np.linalg.eigvalsh(A)
            tol = T.n * eps * (w[-1] / w[0]) * np.linalg.norm(want)
            assert np.linalg.norm(X[r] - want) <= tol, (s, r)
    # a k x 1 x n stack: each row is bit for bit its one-row solve
    S = T.solve(B[:, None, :])
    assert S.shape == (5, 1, T.n)
    for r in range(5):
        assert np.array_equal(S[r, 0], T.solve(B[r:r + 1])[0]), r


def test_bundled_suite_forms_route_by_size():
    # every bundled form under 1024 sites stays dense; both n = 1024 forms
    # take the row route
    from ineqlab import cli, verify

    for sc in verify.validate_config(cli._load_config("paper-suite"))["scenarios"]:
        space, T, T_A, bundle, _ = verify._build_instance(sc)
        ops = [T, T_A, bundle.shifted if bundle is not None else None]
        for op in filter(None, ops):
            assert (op._rows is not None) == (space.n >= 1024), sc["id"]


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("width", [None, 1, 5])
@pytest.mark.parametrize("key", sorted(FORM_OPERATORS), ids="-".join)
@settings(max_examples=3, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_form_product_matches_dense_matrix(key, width, complex_input, seed):
    T = FORM_OPERATORS[key]
    assert (T._rows is not None) == (key[0] == "large")
    rng = np.random.default_rng(seed)
    shape = (T.n,) if width is None else (width, T.n)
    U = rng.standard_normal(shape)
    if complex_input:
        U = U + 1j * rng.standard_normal(shape)
    want = T.form @ U if width is None else U @ T.form.T
    got = T.form_product(U)
    assert got.shape == want.shape and got.dtype == want.dtype
    scale = float(np.max(np.abs(T.form))) * float(np.max(np.abs(U)))
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * scale)
    if width is not None:
        # a row of a block does not depend on the rows beside it, and a
        # vector is its one-row block
        for r in range(width):
            assert np.array_equal(got[r], T.form_product(U[r:r + 1].copy())[0])
            assert np.array_equal(got[r], T.form_product(U[r].copy()))
    if width is None:
        qf = float(np.real(np.conj(U) @ want))
        assert quad_form(T, U) == pytest.approx(qf, rel=1e-14, abs=1e-14 * scale * T.n)


# --- the form scan and sym() ------------------------------------------------

def padded_rows_reference(form, route_only=True):
    """The padded row list by its own dense pass over the form; None when
    ``route_only`` and the form does not take the row route."""
    n = form.shape[0]
    counts = np.count_nonzero(form, axis=1)
    k = int(counts.max(initial=1))
    if route_only and k * ROW_ROUTE_FACTOR >= n:
        return None
    rows, cols = np.nonzero(form)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    pad_cols = np.tile(np.arange(n), (k, 1))
    pad_vals = np.zeros((k, n), dtype=form.dtype)
    pad_cols[slot, rows] = cols
    pad_vals[slot, rows] = form[rows, cols]
    return pad_cols, pad_vals


def offdiag_reference(form):
    """max Re(A - diag A) and the first (i, j) attaining it."""
    off = form - np.diag(np.diag(form))
    at = np.unravel_index(np.argmax(np.real(off)), off.shape)
    return float(np.max(np.real(off))), (int(at[0]), int(at[1]))


def same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


def scan_cases():
    """Forms for the scan, keyed by name: every FORM_OPERATORS form, and
    matrices no operator accepts (not Hermitian), or whose one full row or
    worst entry sits in a late block of rows."""
    cases = {"-".join(k): np.array(T.form) for k, T in FORM_OPERATORS.items()}
    rng = np.random.default_rng(3)
    for n in (8, 256, 600):
        band = np.zeros((n, n))
        for off in (0, 1, 3):
            band += np.diag(rng.standard_normal(n - off), off)
        cases[f"upper-band-{n}"] = band                   # A_ji = 0 across the band
        cases[f"near-symmetric-{n}"] = band + band.T + np.diag(1e-3 * rng.standard_normal(n - 1), 1)
        cases[f"complex-{n}"] = band + 1j * band.T
        cases[f"zero-{n}"] = np.zeros((n, n))
        late = band + band.T
        late[-1] = rng.standard_normal(n)                 # one full row, in the last block
        cases[f"late-full-row-{n}"] = late
        ties = -np.abs(band + band.T)
        ties[n // 2, 0] = ties[1, n - 1] = ties[n - 1, 2] = 0.25   # the first in row order wins
        cases[f"ties-{n}"] = ties
    return cases


SCAN_CASES = scan_cases()


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_scan_matches_dense_passes(name):
    A = SCAN_CASES[name]
    peak, defect, offdiag = _scan(A)
    assert peak == np.max(np.abs(A))
    want_defect = np.linalg.norm(A - A.conj().T, ord=np.inf)
    assert defect == pytest.approx(want_defect, rel=1e-12, abs=0.0)
    assert offdiag == offdiag_reference(A)


def test_dense_nearest_neighbour_form_takes_the_dense_route():
    # a form handed over dense is applied densely, whatever its sparsity,
    # and multiplies and counts as its edge-built twin does
    T = build_laplacian(make_lattice(d=1, extents=256))
    D = KineticOperator(T.space, np.array(T.form))
    assert T._rows is not None and D._rows is None and D.bandwidth is None
    rng = np.random.default_rng(9)
    U = rng.standard_normal((3, T.n))
    np.testing.assert_allclose(D.form_product(U), T.form_product(U),
                               rtol=1e-14, atol=1e-14 * 2.0 * float(np.max(np.abs(U))))
    V = rng.uniform(0.0, 2.0, size=(4, T.n))
    counts = spectra.count_below(T, V, 0.0)
    assert all(c.tie is None for c in counts)
    assert spectra.count_below(D, V, 0.0) == counts


@pytest.mark.parametrize("key", sorted(FORM_OPERATORS), ids="-".join)
def test_operator_reads_its_scan(key):
    T = FORM_OPERATORS[key]
    A = np.array(T.form)
    assert T.scale == max(1.0, float(np.max(np.abs(A))))
    want = padded_rows_reference(A)
    assert (T._rows is None) == (want is None) == (T.bandwidth is None)
    if want is not None:
        assert all(same_bits(g, w) for g, w in zip(T._rows, want))
        assert T.bandwidth == int(np.max(np.abs(want[0] - np.arange(T.n))))


# --- nearest-neighbour forms built from the edges ----------------------------

def dense_assembly(space, edge_factors=None, diagonals=()):
    """The reference dense nearest-neighbour form: np.add.at sums each
    entry's edge terms in edge order into an n x n zero matrix, then the
    Dirichlet ghost term and each diagonal are added to the diagonal in
    turn (subtracting E m, as the periodic shift does, rounds as adding
    -(E m))."""
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
    idx = np.arange(n)
    A[idx, idx] += space.h ** (space.d - 2) * space.boundary_counts
    for diagonal in diagonals:
        A[idx, idx] += diagonal
    return A


def assert_rows_match_dense_assembly(T, A):
    """Everything T reads from its edge-built row list equals what the dense
    assembly A gives bit for bit: the row list, the scan's statistics, the
    lazily built form and the inertia blocks of sym()."""
    assert T._form is None                      # nothing dense read yet
    peak, defect, offdiag = _scan(A)
    assert all(same_bits(g, w) for g, w in zip(T._row_form, padded_rows_reference(A, False)))
    assert T.scale == max(1.0, peak) and T._defect == defect and T._offdiag == offdiag
    assert T.is_real == (not np.iscomplexobj(A))
    rows = padded_rows_reference(A)
    assert (T._rows is None) == (rows is None) == (T.bandwidth is None)
    if rows is not None:
        assert all(same_bits(g, w) for g, w in zip(T._rows, rows))
        assert T.bandwidth == int(np.max(np.abs(rows[0] - np.arange(T.n))))
    if spectra._block_size(T) is not None:
        V = np.zeros((1, T.n))
        diag, sub, pots = spectra._band_blocks(T, V)
        m = spectra._block_size(T)
        B = KineticOperator(T.space, A, measure=T.measure).sym()
        starts = range(0, T.n, m)
        assert len(diag) == len(starts) and len(sub) == len(starts) - 1
        assert all(same_bits(g, np.ascontiguousarray(B[i:i + m, i:i + m]))
                   for g, i in zip(diag, starts))
        assert all(same_bits(g, np.ascontiguousarray(B[i:i + m, i - m:i]))
                   for g, i in zip(sub, starts[1:]))
        assert T._form is None                  # the blocks read no dense form
    assert same_bits(T.form, A)
    assert not T.form.flags.writeable


def _bundled_edge_forms():
    """(id, operator, dense assembly) of every nearest-neighbour form the
    bundled suite builds, each rebuilt from its operator block."""
    for sc in verify.validate_config(cli._load_config("paper-suite"))["scenarios"]:
        space, T, T_A, bundle, _ = verify._build_instance(sc)
        op, sid = sc["operator"], sc["id"]
        if op["family"] in ("laplacian", "magnetic"):
            yield sid, T, dense_assembly(space)
        if op["family"] == "magnetic":
            if op["phases"] == "random":
                phases = random_phases(space, op["seed"])
            else:
                phases = (uniform_flux_phases if op["phases"] == "flux"
                          else ring_flux_phases)(space, op["flux"])
            yield f"{sid}-magnetic", T_A, dense_assembly(space, np.exp(1j * phases))
        if op["family"] == "periodic":
            mW = space.measures * bundle.potential
            E = bundle.energy
            yield sid, T, dense_assembly(space, diagonals=(mW, -(E * space.measures)))


BUNDLED_EDGE_FORMS = {sid: (T, A) for sid, T, A in _bundled_edge_forms()}


def test_bundled_edge_forms_cover_every_nearest_neighbour_family():
    fams = {T.meta["family"] for T, _ in BUNDLED_EDGE_FORMS.values()}
    assert fams == {"laplacian", "magnetic", "periodic-shifted"}
    assert any(T._rows is not None for T, _ in BUNDLED_EDGE_FORMS.values())
    # the form of T + W that the periodic bundle hands to gsrIdentity
    for sc in verify.validate_config(cli._load_config("paper-suite"))["scenarios"]:
        if sc["operator"]["family"] == "periodic":
            space, _, _, bundle, _ = verify._build_instance(sc)
            mW = space.measures * bundle.potential
            assert same_bits(bundle.full_form, dense_assembly(space, diagonals=(mW,))), sc["id"]


@pytest.mark.parametrize("sid", sorted(BUNDLED_EDGE_FORMS))
def test_bundled_edge_rows_match_the_dense_assembly(sid):
    T, A = BUNDLED_EDGE_FORMS[sid]
    assert_rows_match_dense_assembly(T, A)


@st.composite
def edge_spaces(draw):
    """Lattices of d = 1, 2, 3 (extent-1 and extent-2 periodic axes
    included) with up to two exclusions, large enough on some draws for the
    row route and the inertia blocks."""
    d = draw(st.integers(1, 3))
    extents = draw(st.lists(st.integers(1, {1: 300, 2: 20, 3: 8}[d]), min_size=d, max_size=d))
    bc = draw(st.sampled_from(["dirichlet", "periodic"]))
    h = draw(st.sampled_from([1.0, 0.5, 0.3]))
    exclusions = draw(st.lists(st.tuples(*[st.integers(0, e - 1) for e in extents]),
                               max_size=min(2, math.prod(extents) - 1)))
    return make_lattice(d, extents, h=h, bc=bc, exclusions=exclusions)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(space=edge_spaces(), kind=st.sampled_from(["laplacian", "random", "flux", "periodic-W"]),
       seed=st.integers(0, 2**16))
# forms with inertia blocks, where sym() rounds (h != 1) or is complex
@example(space=make_lattice(1, 300, h=0.3), kind="random", seed=1)
@example(space=make_lattice(1, 256, h=0.5, exclusions=[(9,)]), kind="periodic-W", seed=2)
@example(space=make_lattice(2, (16, 20), h=0.5), kind="flux", seed=3)
@example(space=make_lattice(2, (20, 12), h=0.3, exclusions=[(3, 4)]), kind="random", seed=4)
@example(space=make_lattice(3, 8, h=0.3), kind="random", seed=5)
@example(space=make_lattice(3, (8, 8, 7), h=1.0), kind="periodic-W", seed=6)
def test_edge_rows_match_the_dense_assembly(space, kind, seed):
    """The edge-built row list of the Laplacian, of magnetic forms (random
    phases; a uniform flux in d = 2, equal phases in d = 1) and of the
    periodic W diagonal with a -E shift equals the dense assembly bit for
    bit."""
    rng = np.random.default_rng(seed)
    if kind == "laplacian" or (kind == "flux" and space.d == 3):
        T, A = build_laplacian(space), dense_assembly(space)
    elif kind in ("random", "flux"):
        if kind == "random":
            phases = random_phases(space, seed)
        elif space.d == 2:
            phases = uniform_flux_phases(space, float(rng.choice([0.7, np.pi / 2, np.pi])))
        else:
            phases = np.full(len(space.edges), float(rng.choice([0.3, np.pi])))
        T = build_magnetic_laplacian(space, phases)
        A = dense_assembly(space, np.exp(1j * phases))
    else:
        # some sites cancel the Laplacian's diagonal exactly, so the
        # entry is dropped from the row list, and -E m may bring it back
        diag = np.diag(dense_assembly(space)).copy()
        W = rng.standard_normal(space.n)
        cancel = rng.random(space.n) < 0.2
        W[cancel] = -diag[cancel] / space.measures[cancel]
        mW = space.measures * W
        E = float(rng.choice([0.0, -0.0, 0.7]))
        diagonals = (mW, -(E * space.measures))
        T = KineticOperator._from_rows(space, _edge_rows(space, diagonals=diagonals))
        A = dense_assembly(space, diagonals=diagonals)
    assert_rows_match_dense_assembly(T, A)


def test_large_box_reads_no_dense_form():
    """A 64 x 64 Dirichlet box is minimized, counted and checked for its
    heat bound without building its form, or any array as large as it."""
    from ineqlab import heat_bound_check, sobolev_constant
    from ineqlab.spectra import count_below

    sp = make_lattice(d=2, extents=64)
    dense_bytes = sp.n**2 * 8                         # 128 MiB
    tracemalloc.start()
    try:
        T = build_laplacian(sp)
        S, _ = sobolev_constant(T, 4.0)
        V = np.random.default_rng(2).uniform(0.0, 4.0, size=(2, sp.n))
        counts = count_below(T, V, 0.0)
        heat_bound_check(T, 2.0, S, grid_points=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T._form is None and T._sym is None and T._eig is None
    assert len(counts) == 2 and all(c.tie is None for c in counts)
    assert peak < dense_bytes, peak


@pytest.mark.parametrize("route", ["dense", "row-route"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_hermitian_defect_threshold(route, dtype):
    sp = make_lattice(d=1, extents=6 if route == "dense" else 256)
    A = build_laplacian(sp).form.astype(dtype)
    assert (build_laplacian(sp)._rows is None) == (route == "dense")
    step = 1.0 if dtype is np.float64 else 1j
    scale = 2.0                            # max |A_ij| of the 1-d Laplacian
    for factor, accepted in ((0.99, True), (1.01, False)):
        B = A.copy()
        B[0, 1] += factor * SYM_TOL * scale * step
        if accepted:
            assert operator_on_route(sp, B, route)._defect > 0.0
        else:
            with pytest.raises(ValueError, match="not self-adjoint"):
                operator_on_route(sp, B, route)


def test_beurling_deny_reads_the_dense_offdiagonal():
    forms = [(sid, T) for sid, T, _ in _bundled_forms()]
    forms += [("-".join(k), T) for k, T in FORM_OPERATORS.items()]
    sp = make_lattice(d=1, extents=300)
    A = build_laplacian(sp).form.copy()
    A[7, 250] = A[250, 7] = A[100, 101] = A[101, 100] = 0.5   # two equal worst edges
    forms.append(("positive-offdiagonal", KineticOperator(sp, A)))
    for sid, T in forms:
        rep = beurling_deny_check(T)
        off_max, (x, y) = offdiag_reference(np.array(T.form))
        assert rep.offdiag_max == (off_max if T.n > 1 else 0.0), sid
        if rep.cond2_witness is not None:
            want = np.zeros(T.n)
            want[x], want[y] = 1.0, -1.0
            assert np.array_equal(rep.cond2_witness, want), sid
    assert not rep.cond2_pass and np.flatnonzero(rep.cond2_witness).tolist() == [7, 250]


@pytest.mark.parametrize("kind", ["real", "complex", "near-hermitian"])
@pytest.mark.parametrize("measure", ["unit", "uniform", "varying"])
def test_sym_matches_reference_bit_for_bit(measure, kind):
    # h = 0.7 makes the weights inexact, so M^(-1/2) A M^(-1/2) rounds
    sp = make_lattice(d=1, extents=30, h=0.7, bc="periodic")
    rng = np.random.default_rng(8)
    if kind == "complex":
        A = build_magnetic_laplacian(sp, random_phases(sp, 4)).form
    else:
        A = build_laplacian(sp).form.copy()
        if kind == "near-hermitian":
            A[0, 1] += 1e-14
    m = {"unit": np.ones(sp.n), "uniform": np.full(sp.n, 0.37),
         "varying": rng.uniform(0.5, 2.0, sp.n)}[measure]
    T = KineticOperator(sp, A, measure=m)
    rs = 1.0 / np.sqrt(m)
    B = rs[:, None] * A * rs[None, :]
    assert same_bits(T.sym(), 0.5 * (B + B.conj().T))
    shared = np.shares_memory(T.sym(), T.form)
    assert shared == (measure == "unit" and kind != "near-hermitian")


@pytest.mark.parametrize("measure", [1.0, 0.5])
def test_form_and_sym_are_read_only(measure):
    sp = make_lattice(d=1, extents=5)
    A = build_laplacian(sp).form.copy()
    T = KineticOperator(sp, A, measure=np.full(sp.n, measure))
    assert np.shares_memory(A, T.form)         # kept without a copy: the caller's array
    assert np.shares_memory(T.sym(), T.form) == (measure == 1.0)
    for M in (A, T.form, T.sym()):
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 1.0


def test_laplacian_build_peaks_near_one_dense_array():
    sp = make_lattice(d=2, extents=32)            # 1024 sites, Dirichlet
    tracemalloc.start()
    try:
        T = build_laplacian(sp)
        T.sym()
        assert T.bandwidth == 32
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * sp.n**2 * 8


@settings(max_examples=60, derandomize=True, deadline=None)
@given(extents=st.lists(st.integers(1, 7), min_size=1, max_size=3),
       bc=st.sampled_from(["dirichlet", "periodic"]), h=st.sampled_from([0.5, 1.0, 2.0]))
def test_box_basis_values_match_eigvalsh(extents, bc, h):
    """The closed-form eigenvalues of a box Laplacian are ascending and are
    those of sym() to rounding."""
    sp = make_lattice(d=len(extents), extents=extents, h=h, bc=bc)
    w = BoxBasis(sp).values
    we = np.linalg.eigvalsh(build_laplacian(sp).sym())
    n, eps = sp.n, float(np.finfo(np.float64).eps)
    scale = float(np.max(np.abs(we)))
    assert np.all(np.diff(w) >= 0.0)
    # each eigenvalue of eigvalsh is exact to about n eps ||B||
    np.testing.assert_allclose(w, we, rtol=0.0, atol=4.0 * n * eps * max(scale, 1e-300))


def _counting_eigh(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


def test_box_with_an_exclusion_takes_eigh(monkeypatch):
    # the Hardy lattice: its Laplacian and the Hardy form each take one
    # eigh; the fractional power between them is never asked for its own
    sp = make_lattice(d=2, extents=9, exclusions=[(4, 4)])
    shapes = _counting_eigh(monkeypatch)
    build_laplacian(sp).eigensystem()
    assert shapes == [(sp.n, sp.n)]
    shapes.clear()
    build_hardy_operator(sp, 0.5)
    assert shapes == [(sp.n, sp.n)] * 2


@settings(max_examples=80, derandomize=True, deadline=None)
@given(extents=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       bc=st.sampled_from(["dirichlet", "periodic"]), h=st.sampled_from([0.5, 1.0, 2.0]),
       shifts=st.sampled_from(["zero", "one", "column"]), seed=st.integers(0, 2**16))
def test_box_transforms_match_the_dense_basis(extents, bc, h, shifts, seed):
    """BoxBasis.solve and BoxBasis.heat_diagonal, called directly so that
    boxes on both sides of TRANSFORM_MIN_SITES are covered, equal the
    product pair and the n x n x G product in the eigh basis of sym() to
    rounding; a row of a block or of a k x 1 x n stack is bit for bit its
    one-row solve."""
    sp = make_lattice(d=len(extents), extents=extents, h=h, bc=bc)
    basis = BoxBasis(sp)
    w, Q = np.linalg.eigh(build_laplacian(sp).sym())
    n, eps = sp.n, float(np.finfo(np.float64).eps)
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((4, n))
    # a zero shift only where T is positive definite (Dirichlet)
    shift = {"zero": 0.0 if bc == "dirichlet" else 1.0 / h**2, "one": 1.0 / h**2,
             "column": rng.uniform(0.1, 2.0, size=(4, 1)) / h**2}[shifts]
    want = np.matmul(np.matmul(B, Q) / (w + shift), Q.T)
    got = basis.solve(B, shift)
    # each route rounds an entry by about n eps max|b| / min(w + shift): up
    # to 0.93 of that over 600 random boxes, so 4 leaves room
    scale = float(np.max(np.abs(B)) / np.min(w + shift))
    assert np.max(np.abs(got - want)) <= 4.0 * n * eps * scale
    for r in range(4):
        one = basis.solve(B[r:r + 1], np.broadcast_to(shift, (4, 1))[r:r + 1])
        assert np.array_equal(got[r], one[0]), r
    S = basis.solve(B[:, None, :], 1.0 / h**2)
    assert np.array_equal(S[:, 0], basis.solve(B, 1.0 / h**2))
    s = np.array([1e-3, 0.1, 1.0, 10.0]) * h**2
    want = (Q * Q) @ np.exp(-np.outer(w, s))
    got = basis.heat_diagonal(s)
    assert got.shape == (n, s.size)
    assert np.max(np.abs(got - want)) <= 4.0 * n * eps * float(np.max(want))


def test_box_laplacian_routes_by_size():
    # a box Laplacian takes the transform route from TRANSFORM_MIN_SITES
    # sites on and carries no BoxBasis below it; a box with an exclusion,
    # a shifted box handed over dense and a function of a box do not
    for extents in [(TRANSFORM_MIN_SITES - 1,), (TRANSFORM_MIN_SITES,), (16, 32), (8, 8)]:
        T = build_laplacian(make_lattice(d=len(extents), extents=extents))
        assert (T.transform is not None) == (T.n >= TRANSFORM_MIN_SITES), extents
        carried = [v for v in vars(T).values() if isinstance(v, BoxBasis)]
        assert carried == ([T.transform] if T.n >= TRANSFORM_MIN_SITES else []), extents
    big = make_lattice(d=2, extents=(16, 32), exclusions=[(3, 3)])
    assert build_laplacian(big).transform is None
    T = build_laplacian(make_lattice(d=1, extents=TRANSFORM_MIN_SITES))
    assert KineticOperator(T.space, T.form + 0.5 * np.eye(T.n)).transform is None
    assert build_function_of_operator(T, np.sqrt).transform is None


@pytest.mark.parametrize("extents, bc", [((TRANSFORM_MIN_SITES,), "dirichlet"),
                                         ((32, 32), "periodic")])
def test_large_box_eigenvector_readers_match_the_form_without_a_basis(extents, bc):
    # no workload reads a large box's eigenvectors: heat_kernel,
    # birman_schwinger and a function of T read them from eigh, as on the
    # same form built without a BoxBasis, while T reads its eigenvalues
    # from the basis
    from ineqlab.spectra import birman_schwinger, heat_kernel

    sp = make_lattice(d=len(extents), extents=extents, bc=bc)
    T = build_laplacian(sp)
    bare = KineticOperator(sp, T.form)
    assert T.transform is not None and bare.transform is None

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    assert close(T.eigenvalues(), bare.eigenvalues())
    assert close(heat_kernel(T, 0.5), heat_kernel(bare, 0.5))
    V = np.random.default_rng(7).uniform(0.0, 2.0, size=sp.n)
    tau = 0.0 if bc == "dirichlet" else 0.1          # T + tau positive definite
    bs, bs_bare = birman_schwinger(T, V, tau), birman_schwinger(bare, V, tau)
    assert close(bs.matrix, bs_bare.matrix) and close(bs.eigenvalues, bs_bare.eigenvalues)
    assert close(build_function_of_operator(T, np.sqrt).form,
                 build_function_of_operator(bare, np.sqrt).form)
