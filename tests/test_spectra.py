"""Counting, resolvent-sandwich, heat-kernel, and trace-formula layer."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from ineqlab import (birman_schwinger, birman_schwinger_check, build_laplacian,
                     count_below, count_from_eigenvalues, eigen_herm, eigen_sym,
                     f_transform, heat_kernel, heat_norms, hinge_profile,
                     liyau_upsilon, make_lattice, riesz_mean,
                     riesz_mean_from_counts, schrodinger_eigenvalues,
                     tabulated_profile, trotter_trace)
from ineqlab.operators import KineticOperator, build_magnetic_laplacian, uniform_flux_phases
from ineqlab.spectra import heat_matrix_sym


def single_site(t0=2.0, m0=1.0):
    sp = make_lattice(d=1, extents=1, h=1.0)
    op = KineticOperator(sp, np.array([[t0]]), measure=np.array([m0]))
    return sp, op


def test_eigen_sym_and_herm():
    T = build_laplacian(make_lattice(d=1, extents=5))
    np.testing.assert_allclose(eigen_sym(T).eigenvalues, T.eigenvalues(), rtol=1e-14)
    with pytest.raises(ValueError):
        eigen_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    sp = make_lattice(d=2, extents=3, bc="periodic")
    TA = build_magnetic_laplacian(sp, uniform_flux_phases(sp, 0.4))
    w = eigen_herm(TA).eigenvalues
    assert np.all(np.diff(w) >= -1e-12)
    with pytest.raises(ValueError):
        eigen_herm(np.array([[0.0, 1.0j], [1.0j, 0.0]]))


def test_count_strictness_and_ties():
    eigs = np.array([-2.0, -1.0, -0.5, 0.3])
    res = count_from_eigenvalues(eigs, 0.5)
    assert res.n == 2              # the eigenvalue at the threshold is not counted
    assert res.tie is not None and res.tie == pytest.approx(0.0, abs=1e-15)
    res = count_from_eigenvalues(eigs, 0.4)
    assert res.n == 3 and res.tie is None
    res = count_from_eigenvalues(eigs, 0.5 + 1e-3)
    assert res.n == 2 and res.tie is None


def test_count_below_matches_direct_spectrum():
    T = build_laplacian(make_lattice(d=1, extents=20))
    rng = np.random.default_rng(23)
    V = np.abs(rng.normal(0.0, 1.0, 20))
    eigs = schrodinger_eigenvalues(T, V)
    for tau in (0.0, 0.1, 1.0):
        got = count_below(T, V, tau)
        assert got.n == int(np.count_nonzero(eigs < -tau))


def test_birman_schwinger_single_site_closed_form():
    _, op = single_site(t0=2.0, m0=1.0)
    bs = birman_schwinger(op, np.array([3.0]), tau=0.5)
    # V^(1/2)(T+tau)^(-1)V^(1/2) = v/(t0 + tau)
    assert bs.matrix[0, 0] == pytest.approx(3.0 / 2.5, rel=1e-14)
    assert bs.count_above_one().n == 1


def test_birman_schwinger_agreement_random():
    rng = np.random.default_rng(31)
    for k in range(30):
        n = int(rng.integers(2, 21))
        bc = "dirichlet" if k % 2 == 0 else "periodic"
        T = build_laplacian(make_lattice(d=1, extents=n, bc=bc))
        tau = float(rng.choice([0.1, 0.5, 1.0]))
        V = np.abs(rng.normal(0.0, rng.choice([0.3, 1.0, 3.0]), n))
        chk = birman_schwinger_check(T, V, tau)
        assert chk.agrees, (k, chk)
        assert chk.tie_direct is None and chk.tie_birman_schwinger is None


def test_birman_schwinger_requires_invertible_shift():
    T = build_laplacian(make_lattice(d=1, extents=6, bc="periodic"))
    with pytest.raises(ValueError):
        birman_schwinger(T, np.ones(6), 0.0)
    with pytest.raises(ValueError):
        birman_schwinger(T, np.ones(6), -0.1)


def test_riesz_mean_values():
    T = build_laplacian(make_lattice(d=1, extents=12))
    rng = np.random.default_rng(7)
    V = np.abs(rng.normal(0.0, 2.0, 12))
    eigs = schrodinger_eigenvalues(T, V)
    neg = eigs[eigs < 0.0]
    assert riesz_mean(T, V, 0.0) == pytest.approx(len(neg))
    assert riesz_mean(T, V, 2.0) == pytest.approx(float(np.sum(neg**2)), rel=1e-12)
    with pytest.raises(ValueError):
        riesz_mean(T, V, -0.5)


def test_riesz_mean_from_counts_identity():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(4, 16))
        T = build_laplacian(make_lattice(d=1, extents=n))
        V = np.abs(rng.normal(0.0, 1.5, n))
        gamma = float(rng.uniform(0.5, 3.0))
        direct = riesz_mean(T, V, gamma)
        layered = riesz_mean_from_counts(T, V, gamma)
        assert layered == pytest.approx(direct, rel=1e-8, abs=1e-12)


def test_liyau_upsilon_spectrum_reciprocal():
    _, op = single_site(t0=2.0, m0=1.0)
    up = liyau_upsilon(op, np.array([4.0]))
    assert up.eigenvalues()[0] == pytest.approx(0.5, rel=1e-13)
    T = build_laplacian(make_lattice(d=1, extents=9))
    rng = np.random.default_rng(3)
    V = np.abs(rng.normal(0.0, 1.0, 9)) + 0.05
    up = liyau_upsilon(T, V)
    betas = birman_schwinger(T, V, 0.0).eigenvalues
    np.testing.assert_allclose(np.sort(up.eigenvalues()),
                               np.sort(1.0 / betas), rtol=1e-10)
    with pytest.raises(ValueError):
        liyau_upsilon(T, np.zeros(9))
    ring = build_laplacian(make_lattice(d=1, extents=9, bc="periodic"))
    with pytest.raises(ValueError):
        liyau_upsilon(ring, V)


def test_heat_kernel_limits_and_semigroup():
    sp = make_lattice(d=1, extents=8, h=0.5)
    T = build_laplacian(sp)
    with pytest.raises(ValueError):
        heat_kernel(T, 0.0)
    K0 = heat_kernel(T, 1e-12 / T.spectral_scale())
    np.testing.assert_allclose(K0, np.diag(1.0 / sp.measures),
                               atol=1e-10 * float(np.max(1.0 / sp.measures)))
    K1, K2, K3 = heat_kernel(T, 0.4), heat_kernel(T, 0.7), heat_kernel(T, 1.1)
    np.testing.assert_allclose((K1 * sp.measures[None, :]) @ K2, K3,
                               rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(K1, K1.T, atol=1e-13)


def test_heat_kernel_mass():
    ring = build_laplacian(make_lattice(d=1, extents=10, bc="periodic"))
    K = heat_kernel(ring, 0.8)
    mass = K.T @ ring.measure
    np.testing.assert_allclose(mass, 1.0, rtol=1e-12)
    path = build_laplacian(make_lattice(d=1, extents=10))
    Kp = heat_kernel(path, 0.8)
    assert np.all(Kp.T @ path.measure < 1.0)
    assert np.min(Kp) >= -1e-14


def test_heat_matrix_sym_matches_expm():
    T = build_laplacian(make_lattice(d=2, extents=3, h=0.7))
    want = scipy.linalg.expm(-0.9 * T.sym())
    np.testing.assert_allclose(heat_matrix_sym(T, 0.9), want, rtol=1e-11,
                               atol=1e-14)


def test_heat_norms_match_dense_definitions():
    sp = make_lattice(d=1, extents=7, h=0.6)
    T = build_laplacian(sp)
    s = 0.35
    K = heat_kernel(T, s)
    n1inf, n12, kmin = heat_norms(T, s)
    assert n1inf == pytest.approx(float(np.max(np.abs(K))), rel=1e-12)
    # 1 -> 2 norm: the largest L2(m) norm of a kernel column
    cols = np.sqrt(np.sum(sp.measures[:, None] * K * K, axis=0))
    assert n12 == pytest.approx(float(np.max(cols)), rel=1e-12)
    # the minimum entry comes from the same kernel, so it is exact
    assert kmin == float(np.min(np.real(K)))


def test_hinge_profile_transform_against_quadrature():
    prof = hinge_profile(1.3)
    for lam in (0.3, 1.0, 7.0):
        want, err = scipy.integrate.quad(
            lambda mu: (mu - 1.3) * math.exp(-mu / lam) / mu, 1.3, np.inf)
        assert f_transform(prof, lam) == pytest.approx(want, rel=1e-9)
    assert prof.F(0.0) == 0.0
    assert prof.f(1.0) == 0.0 and prof.f(2.3) == pytest.approx(1.0)


def test_hinge_profile_moment_against_quadrature():
    prof = hinge_profile(0.7)
    for kappa in (1.5, 2.0, 3.2):
        want, err = scipy.integrate.quad(
            lambda mu: (mu - 0.7) * mu ** (-kappa - 1.0), 0.7, np.inf)
        assert prof.moment(kappa) == pytest.approx(want, rel=1e-10)
    with pytest.raises(ValueError):
        prof.moment(1.0)
    with pytest.raises(ValueError):
        hinge_profile(0.0)


def test_tabulated_profile():
    a = 1.0
    # the kappa = 2 moment has a 1/mu tail, so the table must reach far out
    mu = np.geomspace(1e-3, 4e5, 60_000)
    prof = tabulated_profile(mu, np.maximum(mu - a, 0.0))
    hinge = hinge_profile(a)
    for lam in (0.5, 2.0):
        assert prof.F(lam) == pytest.approx(hinge.F(lam), rel=1e-3)
    assert prof.moment(2.0) == pytest.approx(hinge.moment(2.0), rel=1e-3)
    with pytest.raises(ValueError):
        tabulated_profile([1.0, 0.5, 2.0], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        tabulated_profile([1.0, 2.0], [0.0, -1.0])
    with pytest.raises(ValueError):
        tabulated_profile([1.0], [0.0])


def test_trotter_single_site_exact():
    _, op = single_site(t0=2.0, m0=1.0)
    prof = hinge_profile(1.0)
    tt = trotter_trace(op, np.array([3.0]), prof, 1)
    assert tt.exact == pytest.approx(prof.F(1.5), rel=1e-13)
    assert tt.rel_error <= 1e-8
    assert tt.tail_ok


def test_trotter_constant_potential_is_exact_at_order_one():
    T = build_laplacian(make_lattice(d=2, extents=3))
    V = np.full(9, 2.0)
    tt = trotter_trace(T, V, hinge_profile(1.0), 1)
    assert tt.rel_error <= 1e-8


def test_trotter_error_decreases_on_noncommuting_instance():
    T = build_laplacian(make_lattice(d=2, extents=3))
    V = np.array([0.5, 1.25, 0.5, 3.0, 1.25, 0.5, 1.25, 3.0, 0.5])
    prof = hinge_profile(1.0)
    errs = {n: trotter_trace(T, V, prof, n).rel_error for n in (1, 4, 16)}
    assert errs[16] < errs[4] < errs[1]
    tt = trotter_trace(T, V, prof, 4)
    assert tt.bound is not None
    assert tt.bound >= tt.exact * (1.0 - 1e-12)
    assert tt.estimate >= tt.exact * (1.0 - 1e-12)


def test_trotter_state_budget_guard():
    T = build_laplacian(make_lattice(d=1, extents=9))
    V = np.linspace(0.5, 3.0, 9)       # nine distinct values
    with pytest.raises(ValueError):
        trotter_trace(T, V, hinge_profile(1.0), 8)
    with pytest.raises(ValueError):
        trotter_trace(T, V, hinge_profile(1.0), 0)
    ring = build_laplacian(make_lattice(d=1, extents=4, bc="periodic"))
    with pytest.raises(ValueError):
        trotter_trace(ring, np.ones(4), hinge_profile(1.0), 2)
