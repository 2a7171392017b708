"""Counting, resolvent-sandwich, heat-kernel, and trace-formula layer."""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ineqlab import (birman_schwinger, birman_schwinger_check, build_laplacian,
                     cli, count_below, count_from_eigenvalues,
                     fractional_laplacian, heat_kernel, heat_norms, hinge_profile, integral,
                     liyau_upsilon, make_lattice, riesz_mean,
                     riesz_mean_from_counts, schrodinger_eigenvalues, spectra,
                     trotter_trace)
from ineqlab._specfun import e1_scaled
from ineqlab.functional import lieb_objective
from ineqlab.operators import (KineticOperator, _pad_rows, build_hardy_operator,
                               build_magnetic_laplacian, random_phases,
                               uniform_flux_phases)
from oracles import weighted_transform


def single_site(t0=2.0, m0=1.0):
    sp = make_lattice(d=1, extents=1, h=1.0)
    op = KineticOperator(sp, np.array([[t0]]), measure=np.array([m0]))
    return sp, op


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


def _dense_count(T, V, tau):
    return count_from_eigenvalues(schrodinger_eigenvalues(T, V), tau)


def _banded_cases():
    """(T, V) on forms that take the inertia route, fixed seeds."""
    rng = np.random.default_rng(2024)
    path = build_laplacian(make_lattice(d=1, extents=300))
    square = build_laplacian(make_lattice(d=2, extents=16))
    cube = build_laplacian(make_lattice(d=3, extents=7))
    holes = build_laplacian(make_lattice(d=2, extents=16,
                                         exclusions=[(3, 4), (8, 8), (12, 2)]))
    wt = weighted_transform(square, rng.uniform(0.5, 2.0, square.n), 1.5)
    sp = make_lattice(d=2, extents=16)
    magnetic = build_magnetic_laplacian(sp, uniform_flux_phases(sp, 0.7))
    cases = [("1d", path), ("2d", square), ("3d", cube), ("exclusions", holes),
             ("weighted", wt.operator), ("magnetic", magnetic)]
    out = []
    for label, T in cases:
        V = np.abs(rng.normal(0.0, 0.5 * T.spectral_scale(), T.n))
        out.append(pytest.param(T, V, id=label))
    return out


@pytest.mark.parametrize("T,V", _banded_cases())
def test_inertia_count_matches_dense_spectrum(T, V):
    rng = np.random.default_rng(17)
    taus = [0.0] + list(rng.uniform(0.0, float(np.max(V)), 12))
    for tau in taus:
        assert spectra._inertia_count(T, V[None], tau)[0] is not None, tau
        assert count_below(T, V, tau) == _dense_count(T, V, tau), tau


def test_inertia_count_exact_tie_returns_dense_result():
    T = build_laplacian(make_lattice(d=1, extents=300))
    lam = float(T.eigenvalues()[40])
    V = np.full(T.n, lam)          # T - V has an eigenvalue at 0 up to rounding
    want = _dense_count(T, V, 0.0)
    assert want.tie is not None
    assert spectra._inertia_count(T, V[None], 0.0) == [None]
    assert count_below(T, V, 0.0) == want


def test_inertia_count_singular_pivot_falls_back():
    T = build_laplacian(make_lattice(d=1, extents=300))
    m = spectra.INERTIA_BLOCK
    tau = 0.5
    rng = np.random.default_rng(5)
    V = np.abs(rng.normal(0.0, 1.0, T.n))
    # constant V on the first block puts an eigenvalue of its pivot
    # B_11 - V + tau at 0, so the shifted pivots sit 2 delta from singular
    w1 = np.linalg.eigvalsh(T.sym()[:m, :m])
    V[:m] = w1[3] + tau
    assert spectra._inertia_count(T, V[None], tau) == [None]
    assert count_below(T, V, tau) == _dense_count(T, V, tau)


def _spy_spectrum(T, V):
    """shared_spectrum(T, V) that records each call, cached or not."""
    shared, calls = spectra.shared_spectrum(T, V), []

    def spectrum():
        calls.append(1)
        return shared()

    return spectrum, calls


@pytest.mark.parametrize("T,V", _banded_cases())
def test_count_reads_shared_spectrum_only_when_inertia_cannot_decide(T, V):
    """On an inertia-route form a decided row never reads the draw's shared
    spectrum and gets the dense count and tie; an undecided row (an exact
    tie) reads it once and gets the dense result, tie included."""
    for tau in (0.0, 0.5 * float(np.max(V))):
        spectrum, calls = _spy_spectrum(T, V)
        assert count_below(T, V, tau, spectrum=spectrum) == _dense_count(T, V, tau)
        assert calls == [], tau
    tied = np.full(T.n, float(T.eigenvalues()[T.n // 5]))
    spectrum, calls = _spy_spectrum(T, tied)
    want = _dense_count(T, tied, 0.0)
    assert spectra._inertia_count(T, tied[None], 0.0) == [None]
    assert count_below(T, tied, 0.0, spectrum=spectrum) == want
    assert want.tie is not None and calls == [1]


def test_count_reads_shared_spectrum_without_inertia_route():
    T = fractional_laplacian(make_lattice(d=1, extents=40), 0.5)
    V = np.abs(np.random.default_rng(8).normal(0.0, 0.5 * T.spectral_scale(), T.n))
    spectrum, calls = _spy_spectrum(T, V)
    assert count_below(T, V, 0.0, spectrum=spectrum) == _dense_count(T, V, 0.0)
    assert calls == [1]


def test_inertia_route_skips_periodic_dense_and_small_forms():
    m = spectra.INERTIA_BLOCK
    small = spectra.INERTIA_MIN_BLOCKS * m - 1
    forms = [build_laplacian(make_lattice(d=1, extents=300, bc="periodic")),
             build_laplacian(make_lattice(d=2, extents=16, bc="periodic")),
             fractional_laplacian(make_lattice(d=1, extents=300), 0.5),
             build_laplacian(make_lattice(d=1, extents=small))]
    assert forms[-1].bandwidth == 1       # banded, but too few blocks
    rng = np.random.default_rng(9)
    for T in forms:
        V = np.abs(rng.normal(0.0, 0.5 * T.spectral_scale(), T.n))
        assert spectra._band_blocks(T, V[None]) is None
        assert count_below(T, V, 0.1) == _dense_count(T, V, 0.1)


def _stack_form(family, size):
    """A banded form with 7 to 10 inertia blocks."""
    if family == "1d":
        return build_laplacian(make_lattice(d=1, extents=7 * size))
    if family == "3d":
        return build_laplacian(make_lattice(d=3, extents=7))
    sp = make_lattice(d=2, extents=15 + size % 4)
    if family == "magnetic":
        return build_magnetic_laplacian(sp, uniform_flux_phases(sp, 0.7))
    return build_laplacian(sp)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(family=st.sampled_from(["1d", "2d", "3d", "magnetic"]), size=st.integers(32, 46),
       seed=st.integers(0, 2**16), n_random=st.integers(1, 4),
       tie_at=st.integers(0, 4), pivot_at=st.integers(0, 5),
       tau=st.sampled_from([0.0, 0.25, 1.0]))
def test_stacked_count_equals_single_and_dense_counts(family, size, seed, n_random,
                                                      tie_at, pivot_at, tau):
    """A stack of potentials counts as its rows counted alone and as the dense
    eigvalsh count off ties; a row with an exact tie and a row with a
    singular first pivot fall back alone while the other rows keep their
    inertia counts."""
    T = _stack_form(family, size)
    m = max(T.bandwidth, spectra.INERTIA_BLOCK)
    assert T.n >= spectra.INERTIA_MIN_BLOCKS * m
    rng = np.random.default_rng(seed)
    members = [np.abs(rng.normal(0.0, 0.5 * T.spectral_scale(), T.n))
               for _ in range(n_random)]
    # T - V has the eigenvalue lambda_j - lambda_j - tau = -tau up to rounding
    tie = np.full(T.n, float(T.eigenvalues()[T.n // 5]) + tau)
    # B_11 - V + tau has an eigenvalue at 0, so the shifted pivots of this
    # row sit 2 delta from singular
    singular = np.abs(rng.normal(0.0, 1.0, T.n))
    singular[:m] = np.linalg.eigvalsh(T.sym()[:m, :m])[3] + tau
    members.insert(min(tie_at, len(members)), tie)
    members.insert(min(pivot_at, len(members)), singular)
    Vs = np.array(members)
    fallback = [v is tie or v is singular for v in members]

    inertia = spectra._inertia_count(T, Vs, tau)
    assert [c is None for c in inertia] == fallback
    stacked = count_below(T, Vs, tau)
    assert stacked == [count_below(T, v, tau) for v in Vs]
    for v, got in zip(members, stacked):
        assert got == _dense_count(T, v, tau)
        assert (got.tie is not None) == (v is tie)


@settings(max_examples=16, derandomize=True, deadline=None)
@given(route=st.sampled_from(["inertia", "dense"]), size=st.integers(32, 46),
       seed=st.integers(0, 2**16), kind=st.sampled_from(["random", "tie"]),
       quarters=st.lists(st.integers(0, 16), min_size=1, max_size=6),
       tau=st.sampled_from([0.0, 0.25, 1.0]))
def test_count_monotone_in_coupling_and_threshold(route, size, seed, kind, quarters, tau):
    """N(-tau, T - cV) never falls as c >= 0 grows, for V >= 0, and never
    rises as tau grows.  The couplings always include c = 1, where the "tie"
    potential puts an eigenvalue of T - V at -tau up to rounding, and the
    thresholds include the negative of an eigenvalue of T - V."""
    if route == "inertia":      # banded, 7 to 10 inertia blocks
        T = _stack_form("2d" if size % 2 else "1d", size)
    else:
        T = fractional_laplacian(make_lattice(d=1, extents=size), 0.5)
    rng = np.random.default_rng(seed)
    if kind == "tie":
        V = np.full(T.n, float(T.eigenvalues()[T.n // 5]) + tau)
    else:
        V = np.abs(rng.normal(0.0, 0.5 * T.spectral_scale(), T.n))
    cs = sorted({0.0, 1.0, *(k / 4.0 for k in quarters)})
    Vs = np.array(cs)[:, None] * V
    assert (spectra._inertia_count(T, Vs, tau) is None) == (route == "dense")
    counts = count_below(T, Vs, tau)
    assert [c.n for c in counts] == sorted(c.n for c in counts), cs
    if kind == "tie":
        assert counts[cs.index(1.0)].tie is not None

    eigs = schrodinger_eigenvalues(T, V)
    ties = [-float(e) for e in eigs[eigs < 0.0][:3]]
    taus = sorted({0.0, 0.25, 1.0, tau, *ties})
    by_tau = [count_below(T, V, t) for t in taus]
    assert [c.n for c in by_tau] == sorted((c.n for c in by_tau), reverse=True), taus
    assert all(by_tau[taus.index(t)].tie is not None for t in ties)


def _relabelled(T, p):
    """T with site i relabelled p^-1(i): form P A P^T and measure P m, as a
    row list of its nonzeros when T has one."""
    A = T.form[np.ix_(p, p)]
    if T._row_form is None:
        return KineticOperator(T.space, A, measure=T.measure[p])
    i, j = np.nonzero(A)
    return KineticOperator._from_rows(T.space, _pad_rows(i, j, A[i, j], T.n),
                                      measure=T.measure[p])


@settings(max_examples=12, derandomize=True, deadline=None)
@given(route=st.sampled_from(["inertia", "dense"]), family=st.sampled_from(["1d", "2d", "magnetic"]),
       size=st.integers(32, 46), seed=st.integers(0, 2**16), n_random=st.integers(1, 3),
       tie_at=st.integers(0, 3), tau=st.sampled_from([0.0, 0.25, 1.0]))
def test_counts_invariant_under_site_relabelling(route, family, size, seed, n_random, tie_at,
                                                 tau):
    """N(-tau, T - V) is unchanged when the sites are relabelled, form, measure
    and potential alike, off ties; a tie is reported in both labellings.
    The stack holds a row with an exact tie."""
    rng = np.random.default_rng(seed)
    if route == "inertia":
        base = _stack_form(family, size)
        # reversal keeps the bandwidth, and swapping neighbouring sites
        # widens it by at most 2, so the relabelled form stays banded
        p = np.arange(base.n)[::-1].copy()
        for i in np.flatnonzero(rng.random(base.n // 2) < 0.5):
            p[[2 * i, 2 * i + 1]] = p[[2 * i + 1, 2 * i]]
    else:
        if family == "magnetic":
            sp = make_lattice(d=2, extents=(5, size // 6))
            base = build_magnetic_laplacian(sp, random_phases(sp, seed))
        else:
            d = 1 if family == "1d" else 2
            base = fractional_laplacian(make_lattice(d=d, extents=(size,) if d == 1 else 6),
                                        0.5)
        p = rng.permutation(base.n)
    # a measure off the lattice's own, so that no relabelling is a symmetry
    T = base.with_measure(rng.uniform(0.5, 2.0, base.n), {})
    Tp = _relabelled(T, p)
    members = [np.abs(rng.normal(0.0, 0.5 * T.spectral_scale(), T.n)) for _ in range(n_random)]
    # T - V has the eigenvalue lambda_j - lambda_j - tau = -tau up to rounding
    members.insert(min(tie_at, n_random), np.full(T.n, float(T.eigenvalues()[T.n // 5]) + tau))
    Vs = np.array(members)
    for op, V in ((T, Vs), (Tp, Vs[:, p])):
        assert (spectra._inertia_count(op, V, tau) is None) == (route == "dense")
    got, relabelled = count_below(T, Vs, tau), count_below(Tp, Vs[:, p], tau)
    for j, (a, b) in enumerate(zip(got, relabelled)):
        assert (a.tie is None) == (b.tie is None), j
        if a.tie is None:
            assert a.n == b.n, j
    assert got[min(tie_at, n_random)].tie is not None


def test_stacked_count_rejects_a_shared_spectrum():
    T = build_laplacian(make_lattice(d=1, extents=20))
    V = np.ones((2, T.n))
    with pytest.raises(ValueError, match="stack"):
        count_below(T, V, 0.0, spectrum=spectra.shared_spectrum(T, V[0]))
    assert count_below(T, V[:0], 0.0) == []


def _pencil_form(family, size, seed):
    """Forms for coupling axes: banded ones that take the inertia route with
    7 to 11 blocks, and dense, complex and periodic ones that do not."""
    if family in ("1d", "2d"):
        return _stack_form(family, size)
    if family == "exclusions":
        return build_laplacian(make_lattice(d=2, extents=16,
                                            exclusions=[(3, 4), (8, 8), (size % 16, 2)]))
    if family == "fractional":
        return fractional_laplacian(make_lattice(d=1, extents=size), 0.5)
    if family == "magnetic":
        sp = make_lattice(d=2, extents=(5, size // 6))
        return build_magnetic_laplacian(sp, random_phases(sp, seed))
    return build_laplacian(make_lattice(d=1, extents=size, bc="periodic"))  # kernel


def _pencil_spectrum(T, V):
    """Eigenvalues of V^(-1/2) T.sym() V^(-1/2)."""
    r = 1.0 / np.sqrt(V)
    return np.linalg.eigvalsh(r[:, None] * T.sym() * r[None, :])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(family=st.sampled_from(["1d", "2d", "exclusions", "fractional", "magnetic",
                               "periodic"]),
       size=st.integers(32, 46), seed=st.integers(0, 2**16), n_random=st.integers(4, 8))
def test_count_couplings_equals_count_below_per_coupling(family, size, seed, n_random):
    """Each coupling of an axis counts as count_below(T, c V, 0), tie field
    included.  The axis holds c = 0, a coupling exactly at an eigenvalue
    mu_k of the pencil and one 1e-12 above it, which the certificate must
    hand to count_below, and random couplings across the spectrum."""
    T = _pencil_form(family, size, seed)
    rng = np.random.default_rng(seed)
    V = np.abs(rng.normal(0.0, 0.5 * T.spectral_scale(), T.n))
    mu = _pencil_spectrum(T, V)
    k = int(rng.integers(T.n // 4, T.n))
    ties = [float(mu[k]), float(mu[k]) * (1.0 + 1e-12)]
    cs = [0.0, *ties, *rng.uniform(0.0, 1.2 * float(mu[T.n // 2]), n_random)]
    rng.shuffle(cs)
    want = [count_below(T, c * V, 0.0) for c in cs]

    pencil = spectra._pencil_counts(T, V, np.array(cs))
    assert pencil is not None
    for c, got, exact in zip(cs, pencil, want):
        assert got is None or got == exact, c
        if c in ties:
            assert got is None and exact.tie is not None, c
    assert spectra.count_couplings(T, V, cs) == want


def test_count_couplings_certificate_scales_by_min_V():
    """An eigenvalue of T - cV is theta (mu_j - c) with theta as small as
    min V.  With V over six decades, the top pencil eigenvalue sits on the
    smallest V, and couplings 1e-4 off it give dense ties of about
    V_min mu_max 1e-4, far below max V times the gap: the certificate must
    refuse them, and it decides those 1e-3 off, where the ties are gone."""
    T = build_laplacian(make_lattice(d=1, extents=40))
    V = 10.0 ** np.random.default_rng(5).uniform(-6.0, 0.0, T.n)
    top = float(_pencil_spectrum(T, V)[-1])
    cs = np.array([top * (1.0 - 1e-4), top * (1.0 + 1e-4), top * (1.0 - 1e-3),
                   top * (1.0 + 1e-3)])
    want = [count_below(T, c * V, 0.0) for c in cs]
    assert [w.tie is not None for w in want] == [True, True, False, False]
    assert spectra._pencil_counts(T, V, cs) == [None, None, *want[2:]]
    assert spectra.count_couplings(T, V, cs) == want


@pytest.mark.parametrize("family", ["2d", "fractional"])
@pytest.mark.parametrize("low", [0.0, 1e-310])
def test_count_couplings_falls_back_without_a_finite_pencil(family, low):
    """A zero entry of V leaves no congruence to W, and an entry of 1e-310
    makes W overflow: the whole axis goes to count_below."""
    T = _pencil_form(family, 40, 7)
    rng = np.random.default_rng(11)
    V = np.abs(rng.normal(0.0, 0.5 * T.spectral_scale(), T.n))
    V[T.n // 3] = low
    cs = np.geomspace(0.05, 5.0, 12)
    assert spectra._pencil_counts(T, V, cs) is None
    assert spectra.count_couplings(T, V, cs) == [count_below(T, c * V, 0.0) for c in cs]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(d=st.sampled_from([1, 2]), size=st.integers(3, 260), seed=st.integers(0, 2**16),
       kappa=st.floats(1.2, 3.0), n_random=st.integers(2, 8))
def test_weighted_transform_preserves_counts_and_integral(d, size, seed, kappa, n_random):
    """With T_w = weighted_transform(T, omega, kappa), N(0, T - cV) equals
    N(0, T_w - c potential_map(V)) at every coupling where neither side
    reports a tie, and int (cV)^kappa is preserved within rounding.  The
    axis holds a coupling at an eigenvalue of the pencil, where ties may
    occur; no coupling is dropped for being one.  Near kappa = 1 the
    measure omega^(2 kappa/(kappa - 1)) spreads the spectrum of T_w past
    1 / TIE_REL, so the relative tie guard may flag every weighted count;
    from kappa = 1.5 on, each random coupling must be compared."""
    T = build_laplacian(make_lattice(d=d, extents=size if d == 1 else 3 + size % 15))
    rng = np.random.default_rng(seed)
    omega = np.exp(0.5 * rng.standard_normal(T.n))
    V = np.abs(rng.normal(0.0, 0.5 * T.spectral_scale(), T.n))
    wt = weighted_transform(T, omega, kappa)
    Vw = wt.potential_map(V)
    mu = _pencil_spectrum(T, V)
    cs = [0.0, float(mu[int(rng.integers(T.n))]),
          *rng.uniform(0.0, 1.2 * float(mu[T.n // 2]), n_random)]
    compared = 0
    for c, a, b in zip(cs, spectra.count_couplings(T, V, cs),
                       spectra.count_couplings(wt.operator, Vw, cs)):
        if a.tie is None and b.tie is None:
            assert a.n == b.n, c
            compared += 1
        iv = integral(c * V, kappa, T.space, measure=T.measure)
        iw = integral(c * Vw, kappa, T.space, measure=wt.measure)
        assert iw == pytest.approx(iv, rel=1e-12, abs=0.0), c
    if kappa >= 1.5:
        assert compared >= n_random


def test_coupling_sweep_runs_no_full_size_eigvalsh(tmp_path, monkeypatch, capsys):
    side = 32
    rng = np.random.default_rng(0)
    V = np.abs(rng.normal(0.0, 1.5, side * side))
    cfg = {"schema": 1, "sweep": {
        "axis": "coupling", "values": [0.1, 0.5, 2.0],
        "instance": {"lattice": {"d": 2, "extents": [side, side]},
                     "potential": {"values": V.tolist()}}}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert side * side not in sizes
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    T = build_laplacian(make_lattice(d=2, extents=side))
    counts = [int(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert counts == [_dense_count(T, c * V, 0.0).n for c in (0.1, 0.5, 2.0)]


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
        assert chk.n_direct == chk.n_birman_schwinger, (k, chk)
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


def _riesz_per_panel(eigs, gamma):
    # the moment representation with one strict count per panel midpoint
    mags = np.sort(-eigs[eigs < 0.0])
    if mags.size == 0:
        return 0.0
    breaks = np.concatenate(([0.0], mags))
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi <= lo:
            continue
        total += count_from_eigenvalues(eigs, 0.5 * (lo + hi)).n * (hi**gamma - lo**gamma)
    return float(total)


def test_riesz_mean_from_counts_matches_per_panel_counts_bitwise():
    # repeated eigenvalues (empty panels) and zeros included
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        eigs = np.round(rng.normal(-0.5, 2.0, n), int(rng.integers(0, 3)))
        eigs[rng.integers(0, n, n // 4)] = 0.0
        eigs = rng.permutation(eigs)
        gamma = float(rng.uniform(0.2, 3.0))
        got = riesz_mean_from_counts(None, None, gamma, spectrum=lambda: eigs)
        assert got == _riesz_per_panel(eigs, gamma)


# worst-case relative error of a recursive binary64 sum over the suite's
# largest lattice, 1024 eps, as the golden comparison's residual floor
RESIDUAL_FLOOR = 1024 * float(np.finfo(np.float64).eps)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(eigs=st.lists(st.one_of(st.sampled_from([-3.0, -1.0, -1.0, -0.5, 0.0, 2.0]),
                               st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)),
                     min_size=1, max_size=128),
       gamma=st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5]), st.floats(0.05, 4.0)),
       tau=st.sampled_from([None, 0.0, 1.0]))
def test_riesz_mean_from_counts_matches_riesz_mean(eigs, gamma, tau):
    """The moment representation gamma int N(-t) t^(gamma-1) dt equals
    sum |lambda_j|^gamma over the negative eigenvalues within RESIDUAL_FLOOR
    relative, ties and repeated eigenvalues included; ``tau`` also plants
    the tie -tau and repeats it."""
    eigs = np.array(eigs + ([] if tau is None else [-tau] * 3))
    direct = riesz_mean(None, None, gamma, spectrum=lambda: eigs)
    layered = riesz_mean_from_counts(None, None, gamma, spectrum=lambda: eigs)
    assert abs(layered - direct) <= RESIDUAL_FLOOR * max(abs(direct), abs(layered))


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


def test_heat_kernel_matches_expm():
    # k_s = M^-1/2 exp(-s B) M^-1/2 for the symmetrized matrix B
    T = build_laplacian(make_lattice(d=2, extents=3, h=0.7))
    rs = 1.0 / np.sqrt(T.measure)
    want = rs[:, None] * scipy.linalg.expm(-0.9 * T.sym()) * rs[None, :]
    np.testing.assert_allclose(heat_kernel(T, 0.9), want, rtol=1e-11,
                               atol=1e-14)


def test_heat_norms_match_dense_definitions():
    sp = make_lattice(d=1, extents=7, h=0.6)
    T = build_laplacian(sp)
    s = np.array([0.35, 1.2])
    n1inf, n12 = heat_norms(T, s)
    assert n1inf.shape == n12.shape == (2,)
    for j, sj in enumerate(s):
        K = heat_kernel(T, sj)
        assert n1inf[j] == pytest.approx(float(np.max(np.abs(K))), rel=1e-12)
        # 1 -> 2 norm: the largest L2(m) norm of a kernel column
        cols = np.sqrt(np.sum(sp.measures[:, None] * K * K, axis=0))
        assert n12[j] == pytest.approx(float(np.max(cols)), rel=1e-12)
    with pytest.raises(ValueError):
        heat_norms(T, np.array([0.5, 0.0]))


def _identity_operator(family, n, h, seed):
    """An operator of the named family on at most 40 sites."""
    rng = np.random.default_rng(seed)
    if family in ("dirichlet", "periodic"):
        bc = "dirichlet" if family == "dirichlet" else "periodic"
        return build_laplacian(make_lattice(d=1, extents=n, h=h, bc=bc))
    if family == "weighted":
        T = build_laplacian(make_lattice(d=1, extents=n, h=h))
        return weighted_transform(T, rng.uniform(0.5, 2.0, n), 2.5).operator
    side = max(2, min(6, int(math.isqrt(n))))
    if family == "magnetic":
        sp = make_lattice(d=2, extents=side, h=h)
        return build_magnetic_laplacian(sp, random_phases(sp, seed))
    if family == "fractional":
        return fractional_laplacian(make_lattice(d=2, extents=side, h=h),
                                    float(rng.uniform(0.3, 1.0)))
    # hardy: d = 2 > 2s, the origin is the one excluded site
    sp = make_lattice(d=2, extents=max(side, 3), h=h, exclusions=[(1, 1)])
    return build_hardy_operator(sp, float(rng.uniform(0.2, 0.8)))


@pytest.mark.parametrize("family", ["dirichlet", "periodic", "weighted", "magnetic",
                                    "fractional", "hardy"])
@settings(max_examples=8, derandomize=True, deadline=None)
@given(n=st.integers(min_value=4, max_value=40),
       h=st.sampled_from([0.3, 0.7, 1.9]),
       t=st.lists(st.floats(min_value=1e-2, max_value=20.0), min_size=1, max_size=4),
       seed=st.integers(min_value=0, max_value=2**16))
def test_heat_norms_diagonal_identities(family, n, h, t, seed):
    # ||e^-sT||_(1->inf) = max_x k_s(x, x) and ||e^-sT||_(1->2)^2 = max_x k_2s(x, x)
    # against the dense kernel, on real and complex forms and non-uniform measures
    T = _identity_operator(family, n, h, seed)
    s = np.array(t) / T.spectral_scale()
    n1inf, n12 = heat_norms(T, s)
    diag = spectra._heat_diagonal(T, s)
    for j, sj in enumerate(s):
        K = heat_kernel(T, sj)
        assert n1inf[j] == pytest.approx(float(np.max(np.abs(K))), rel=1e-12)
        col2 = np.sum(T.measure[:, None] * np.abs(K) ** 2, axis=0)
        assert n12[j] ** 2 == pytest.approx(float(np.max(col2)), rel=1e-12)
        kd = np.real(np.diag(K))
        np.testing.assert_allclose(diag[:, j], kd, rtol=1e-12,
                                   atol=1e-12 * float(np.max(kd)))


def test_hinge_profile_transform_against_quadrature():
    prof = hinge_profile(1.3)
    for lam in (0.3, 1.0, 7.0):
        want, err = scipy.integrate.quad(
            lambda mu: (mu - 1.3) * math.exp(-mu / lam) / mu, 1.3, np.inf)
        assert prof.F(lam) == pytest.approx(want, rel=1e-9)
    assert prof.F(0.0) == 0.0
    assert prof.f(1.0) == 0.0 and prof.f(2.3) == pytest.approx(1.0)


def test_hinge_profile_moment_against_quadrature():
    # the moment int f(mu) mu^(-kappa-1) dmu of the hinge at a is the factor
    # a^(1-kappa)/(kappa(kappa-1)) of the Lieb objective at K = 1
    a = 0.7
    for kappa in (1.5, 2.0, 3.2):
        want, err = scipy.integrate.quad(
            lambda mu: (mu - a) * mu ** (-kappa - 1.0), a, np.inf)
        moment = lieb_objective(a, 1.0, kappa) * (1.0 - a * e1_scaled(a)) / math.exp(a)
        assert moment == pytest.approx(want, rel=1e-10)
    with pytest.raises(ValueError):
        hinge_profile(0.0)


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

    # the budget bounds the work n ns^3 (n + 1)^(r - 1) of _cycle_sum: on the
    # bundled 3 x 3 instance (r = 3) the edge lies between n = 50 and 51
    T = build_laplacian(make_lattice(d=2, extents=3))
    V = np.array([0.5, 1.25, 0.5, 3.0, 1.25, 0.5, 1.25, 3.0, 0.5])
    assert 50 * 9**3 * 51**2 <= spectra.TROTTER_MAX_WORK < 51 * 9**3 * 52**2
    spectra.check_trotter_orders(T, V, [1, 2, 4, 8, 16, 32, 50])
    for orders, named in (([51], "n=51"), ([1, 446], "n=446"), ([4, 0], "got 0")):
        with pytest.raises(ValueError, match=named):
            spectra.check_trotter_orders(T, V, orders)
    with pytest.raises(ValueError, match="n=51"):
        trotter_trace(T, V, hinge_profile(1.0), 51)


@pytest.mark.parametrize("ns,r", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_cycle_sum_matches_path_enumeration(ns, r):
    """Every cyclic path x_0 -> x_1 -> ... -> x_n = x_0 adds
    prod_j P[x_(j+1), x_j] at its per-class visit counts."""
    rng = np.random.default_rng(100 * ns + r)
    space = make_lattice(d=1, extents=ns)
    T = build_laplacian(space).with_measure(rng.uniform(0.5, 2.0, ns), {})
    P = heat_kernel(T, 0.3) * T.measure[None, :]
    classes = rng.permutation(np.arange(ns) % r)
    for n in range(1, 5):
        want = np.zeros((n + 1,) * (r - 1))
        for path in itertools.product(range(ns), repeat=n):
            weight = np.prod([P[path[(j + 1) % n], path[j]] for j in range(n)])
            visits = np.bincount(classes[list(path)], minlength=r)
            want[tuple(visits[1:])] += weight
        got = spectra._cycle_sum(P, classes, n, r)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * want.sum()


def test_trotter_order_one_estimate_equals_diagonal_bound():
    """At n = 1 both routes integrate sum_x m_x k_s(x, x) f(s V_x) over the
    same nodes: the estimate by ``_cycle_sum``, the bound by ``_heat_diagonal``."""
    prof = hinge_profile(1.0)
    cfg = cli._load_config("trotter-sweep")["sweep"]["instance"]
    T = build_laplacian(make_lattice(d=2, extents=cfg["lattice"]["extents"]))
    rng = np.random.default_rng(5)
    base = build_laplacian(make_lattice(d=1, extents=8, h=0.7))
    W = weighted_transform(base, rng.uniform(0.5, 2.0, 8), 2.0).operator
    for op, V in ((T, np.array(cfg["potential"]["values"])),
                  (W, np.array([0.4, 2.0, 0.4, 2.0, 0.4, 2.0, 0.4, 2.0]))):
        tt = trotter_trace(op, V, prof, 1)
        assert tt.estimate == pytest.approx(tt.bound, rel=1e-13)


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_trotter_trace_on_magnetic_operator_converges():
    """Complex kernels keep their phases along every path: the cycle sums
    are real, and the error falls with the order as on real forms."""
    space = make_lattice(d=2, extents=3)
    T = build_magnetic_laplacian(space, uniform_flux_phases(space, 0.3))
    V = np.array([0.5, 1.25, 0.5, 3.0, 1.25, 0.5, 1.25, 3.0, 0.5])
    tts = [trotter_trace(T, V, hinge_profile(1.0), n) for n in (1, 2, 4, 8)]
    errs = [tt.rel_error for tt in tts]
    assert errs[3] < errs[2] < errs[1] < errs[0]
    assert tts[0].estimate == pytest.approx(tts[0].bound, rel=1e-13)


def _bound_per_node(T, V, profile, tt):
    """The diagonal-kernel bound of ``trotter_trace`` with one dense kernel per
    Gauss-Legendre node."""
    kinks = [profile.a / v for v in np.unique(V) if v > 0.0]
    bound = 0.0
    for a, b in spectra._panels(tt.s_lo, tt.s_hi, kinks):
        mid, rad = 0.5 * (b + a), 0.5 * (b - a)
        sval = 0.0
        for node, wgt in zip(*np.polynomial.legendre.leggauss(12)):
            s = mid + rad * node
            kd = np.diag(heat_kernel(T, s))
            sval += wgt * float(np.sum(T.measure * kd * profile.f(s * V))) / s
        bound += rad * sval
    return bound


def test_trotter_bound_matches_per_node_kernels():
    prof = hinge_profile(1.0)
    T = build_laplacian(make_lattice(d=2, extents=3))
    V = np.array([0.5, 1.25, 0.5, 3.0, 1.25, 0.5, 1.25, 3.0, 0.5])
    tt = trotter_trace(T, V, prof, 1)
    assert tt.bound == pytest.approx(_bound_per_node(T, V, prof, tt), rel=1e-12)
    rng = np.random.default_rng(5)
    base = build_laplacian(make_lattice(d=1, extents=8, h=0.7))
    W = weighted_transform(base, rng.uniform(0.5, 2.0, 8), 2.0).operator
    Vw = np.array([0.4, 2.0, 0.4, 2.0, 0.4, 2.0, 0.4, 2.0])
    tw = trotter_trace(W, Vw, prof, 2)
    assert tw.bound == pytest.approx(_bound_per_node(W, Vw, prof, tw), rel=1e-12)
