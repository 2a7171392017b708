"""Variational constants: minimization, interpolation, brackets, heat/Nash."""

import itertools
import json
import math
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import example, given, settings, strategies as st

from ineqlab import (aizenman_lieb_factor, build_laplacian, clr_bounds_from_S,
                     heat_bound_check, lieb_bound_from_K, lieb_objective,
                     ltw_bounds_from_S, make_lattice, nash_check, sobolev_constant,
                     sobolev_interp_constant, tau_min_value)
from ineqlab import cli, functional, spectra
from ineqlab.lattice import exponents_from_gamma_kappa
from ineqlab.operators import (KineticOperator, build_hardy_operator, build_magnetic_laplacian,
                               fractional_laplacian, uniform_flux_phases)
from ineqlab.verify import HEAT_REL, NASH_REL
from oracles import continuum_sobolev_d3

mpmath.mp.dps = 30

# reference minima, cross-checked against multi-start L-BFGS on the raw
# Rayleigh quotient (agreement at or below 1.5e-13 relative)
REFERENCE_S = [
    (dict(d=1, extents=16), 4.0, 0.11289120949871466),
    (dict(d=1, extents=32), 6.0, 0.06627347694804109),
    (dict(d=2, extents=(8, 8)), 4.0, 1.340223404615804),
    (dict(d=3, extents=(3, 3, 3)), 10.0 / 3.0, 4.45811085681244),
]


def shifted(T, tau):
    """T + tau: the form A + tau M, handed over dense, on the measure of T."""
    return KineticOperator(T.space, T.form + tau * np.diag(T.measure), measure=T.measure)


def single_site_op(t0=2.0, m0=3.0):
    sp = make_lattice(d=1, extents=1)
    return KineticOperator(sp, np.array([[t0]]), measure=np.array([m0]))


def test_sobolev_single_site_closed_form():
    t0, m0, q = 2.0, 3.0, 4.0
    S, trace = sobolev_constant(single_site_op(t0, m0), q)
    assert S == pytest.approx(t0 * m0 ** (-2.0 / q), rel=1e-12)
    assert trace.residual <= 1e-10
    assert not trace.vacuous


def test_sobolev_reference_values():
    for kw, q, want in REFERENCE_S:
        T = build_laplacian(make_lattice(bc="dirichlet", h=1.0, **kw))
        S, trace = sobolev_constant(T, q)
        assert S == pytest.approx(want, rel=1e-9), (kw, q)
        assert trace.residual <= 1e-9
        assert _ladder_holds(T, q, S, trace)


def _ladder_holds(T, q, S, trace):
    # the Nash ladder on the minimizer: at a minimized S no probe falls short
    return nash_check(T, q, S, trace.minimizer).min_slack_rel >= -NASH_REL


def test_sobolev_scaling_homogeneity():
    T = build_laplacian(make_lattice(d=1, extents=16))
    S1, _ = sobolev_constant(T, 4.0)
    S2, _ = sobolev_constant(KineticOperator(T.space, 3.7 * T.form), 4.0)
    assert S2 == pytest.approx(3.7 * S1, rel=1e-9)


@settings(max_examples=24, derandomize=True, deadline=None)
@given(extents=st.lists(st.integers(2, 4), min_size=1, max_size=3),
       h=st.floats(0.25, 4.0), q=st.sampled_from([3.0, 4.0, 6.0]))
def test_sobolev_homogeneous_in_h(extents, h, q):
    """Spacing h scales the form by h^(d-2) and the measure by h^d, so
    S(h) = h^(d - 2 - 2d/q) S(1)."""
    d = len(extents)
    S1, _ = sobolev_constant(build_laplacian(make_lattice(d, extents)), q)
    Sh, _ = sobolev_constant(build_laplacian(make_lattice(d, extents, h=h)), q)
    assert Sh == pytest.approx(h ** (d - 2 - 2 * d / q) * S1, rel=1e-12)


def test_sobolev_two_site_against_scan():
    # two-site path: nonnegative minimizers live on a quarter circle, so a
    # bounded scalar minimization is an independent oracle
    op = build_laplacian(make_lattice(d=1, extents=2))
    q = 4.0

    def quotient(phi):
        u = np.array([math.cos(phi), math.sin(phi)])
        t = float(u @ (op.form @ u))
        return t / float(np.sum(np.abs(u) ** q)) ** (2.0 / q)

    res = scipy.optimize.minimize_scalar(quotient, bounds=(1e-6, math.pi / 2),
                                         method="bounded",
                                         options={"xatol": 1e-12})
    S, _ = sobolev_constant(op, q)
    assert S == pytest.approx(res.fun, rel=1e-9)
    assert S == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_sobolev_kernel_is_vacuous():
    T = build_laplacian(make_lattice(d=1, extents=8, bc="periodic"))
    S, trace = sobolev_constant(T, 4.0)
    assert S == 0.0
    assert trace.vacuous and trace.minimizer is None


def test_vacuous_sobolev_builds_nothing_dense():
    # a ring on the transform route reads its kernel from the basis's
    # eigenvalues and builds neither its form nor an eigensystem
    T = build_laplacian(make_lattice(1, 1024, bc="periodic"))
    S, trace = sobolev_constant(T, 6.0)
    assert S == 0.0 and trace.vacuous
    assert T._form is None and T._eig is None


def test_sobolev_nearly_singular_form():
    # lambda_1 = 5e-11 lambda_max lies above the kernel test, so the fixed
    # point must run; the minimizer is then the ground state phi to within
    # lambda_1 / gap, and S = lambda_1 / ||phi||_q^2 for ||phi||_2 = 1
    T = build_laplacian(make_lattice(d=1, extents=32))
    w = T.eigenvalues()
    T = shifted(T, 5e-11 * w[-1] - w[0])
    w, Q = T.eigensystem()
    S, trace = sobolev_constant(T, 6.0)
    assert not trace.vacuous
    want = w[0] / np.sum(Q[:, 0] ** 6) ** (1.0 / 3.0)
    assert S == pytest.approx(want, rel=1e-5, abs=0.0)


def test_sobolev_row_route_matches_dense_route(monkeypatch):
    T = build_laplacian(make_lattice(d=1, extents=256))
    assert T._rows is not None
    S_row, trace = sobolev_constant(T, 6.0)
    dense = build_laplacian(make_lattice(d=1, extents=256))
    monkeypatch.setattr(dense, "_rows", None)
    S_dense, _ = sobolev_constant(dense, 6.0)
    assert S_row == pytest.approx(S_dense, rel=1e-10)
    assert _ladder_holds(T, 6.0, S_row, trace)


def _starts(n, restarts=16):
    # the first `restarts` seeded starts and the positive start of
    # sobolev_constant and sobolev_interp_constant, whose block is _starts(n)
    return np.array([np.random.default_rng(k).standard_normal(n) for k in range(restarts)]
                    + [np.ones(n)])


def test_polish_guard_reverts_only_the_rising_row():
    # a row handed over at half its unit-norm scale has a quarter of the value
    # its normalized update would have, so the guard keeps it as it came;
    # the other rows iterate as they do alone, to rounding, since one solve
    # in the eigenbasis serves all rows
    T = build_laplacian(make_lattice(d=1, extents=32))
    q = 6.0
    U0 = _starts(T.n)[:3]
    _, U, _, rounds = functional._polish(
        T, q, U0 / functional._norm_q(U0, T.measure, q)[:, None], max_iter=20)
    assert np.all(rounds == 20)
    U[1] *= 0.5
    t_in, *_ = functional._value_grad(U, T, q)
    t, P, res, rounds = functional._polish(T, q, U)
    assert np.array_equal(P[1], U[1]) and t[1] == t_in[1]
    assert res[1] > 1e-3 and rounds[1] == 1
    for r in (0, 2):
        t1, P1, res1, rounds1 = functional._polish(T, q, U[r:r + 1])
        assert t[r] < t_in[r]
        assert t[r] == pytest.approx(t1[0], rel=1e-12)
        assert res[r] <= 1e-9 and res1[0] <= 1e-9
        assert rounds[r] >= 1 and rounds1[0] >= 1
        np.testing.assert_allclose(P[r], P1[0], rtol=0, atol=1e-8)


def _merge_distance(u, v, m):
    """||u -+ v|| / ||v|| in the m-weighted 2-norm, the nearer sign taken."""
    nv = math.sqrt(np.sum(m * v * v))
    return min(math.sqrt(np.sum(m * (u - v) ** 2)), math.sqrt(np.sum(m * (u + v) ** 2))) / nv


def test_polish_merge_contract_on_one_basin():
    # every default start on the 32-site path at q = 6 ends in one basin:
    # the positive start settles first, and the rows that fall within
    # MERGE_REL of it stop there.  A merged row took fewer rounds than it
    # takes alone and ends near a settled row with a value no lower than
    # it; every other row iterates as it does alone, to rounding
    T = build_laplacian(make_lattice(d=1, extents=32))
    q, m = 6.0, T.measure
    U0 = _starts(T.n)
    U0 = U0 / functional._norm_q(U0, m, q)[:, None]
    t, P, res, rounds = functional._polish(T, q, U0)
    settled = np.flatnonzero(res <= 1e-10 * np.maximum(1.0, np.abs(t)))
    merged = 0
    for r in range(U0.shape[0]):
        t1, P1, res1, rounds1 = functional._polish(T, q, U0[r:r + 1])
        if r in settled:
            assert t[r] == pytest.approx(t1[0], rel=1e-12)
            assert res[r] <= 1e-9 and res1[0] <= 1e-9
            assert rounds[r] >= 1 and rounds1[0] >= 1
            np.testing.assert_allclose(P[r], P1[0], rtol=0, atol=1e-8)
            continue
        merged += 1
        assert rounds[r] < rounds1[0]
        into = [j for j in settled
                if _merge_distance(P[r], P[j], m) <= functional.MERGE_REL and t[r] >= t[j]]
        assert into, r
    assert merged >= U0.shape[0] // 2
    assert t.min() == pytest.approx(REFERENCE_S[1][2], rel=1e-12)


def _polish_unmerged(T, q, U, *, tau=0.0, theta=None, max_iter=500):
    """``functional._polish`` without the merge: every row runs until its
    residual stop, its value guard or the round cap, as it would alone."""
    m = T.measure
    U = np.array(U, dtype=np.float64)
    tau = np.full(U.shape[0], tau, dtype=np.float64)
    t, G, _ = functional._value_grad(U, T, q, tau)
    res = np.sqrt(functional._rowdot(G, G))
    rounds = np.zeros(U.shape[0], dtype=np.int64)
    live = np.flatnonzero(res > 1e-10 * np.maximum(1.0, np.abs(t)))
    for _ in range(max_iter):
        if not live.size:
            break
        rounds[live] += 1
        Ul, tl, sl = U[live], t[live], tau[live]
        X = T.solve(m * np.abs(Ul) ** (q - 1.0) * np.sign(Ul), sl[:, None])
        nq = functional._norm_q(X, m, q)
        ok = nq > 0.0
        live, X, nq, tl, sl = live[ok], X[ok], nq[ok], tl[ok], sl[ok]
        Un = X / nq[:, None]
        tn, Gn, _ = functional._value_grad(Un, T, q, sl)
        keep = ~(tn > tl + 1e-14 * np.maximum(1.0, np.abs(tl)))
        live, Un, tn, Gn, sl = live[keep], Un[keep], tn[keep], Gn[keep], sl[keep]
        U[live], t[live] = Un, tn
        res[live] = rn = np.sqrt(functional._rowdot(Gn, Gn))
        settled = rn <= 1e-10 * np.maximum(1.0, np.abs(tn))
        if theta is not None:
            n2 = functional._rowdot(Un, m * Un)
            t0 = tn - sl * n2
            tau[live] = sn = tau_min_value(t0, n2, theta).tau_star
            t[live] = t0 + sn * n2
            settled &= np.abs(sn - sl) <= 1e-8 * sl
        live = live[~settled]
    return t, U, res, rounds


@settings(max_examples=24, derandomize=True, deadline=None)
# a merge at any distance loses the lowest basin on these two: by 5.0e-4
# and by 2.2 % relative
@example(family="fractional", d=1, side=6, seed=0, q=6.0, varying=False, theta=0.5)
@example(family="fractional", d=2, side=5, seed=59208, q=4.0, varying=True, theta=0.5)
@given(family=st.sampled_from(["laplacian", "fractional", "hardy"]),
       d=st.integers(1, 2), side=st.integers(3, 6), seed=st.integers(0, 2**16),
       q=st.sampled_from([3.0, 4.0, 6.0]), varying=st.booleans(),
       theta=st.sampled_from([0.25, 0.5, 0.75]))
def test_polish_merge_never_costs_a_basin(family, d, side, seed, q, varying, theta):
    """A row merges only into a settled row near it with a value no higher,
    so the block's least value, S on the Sobolev path and S_interp on the
    joint path, is the unmerged loop's to rounding and never above it."""
    T = _small_form(family, d, side, np.random.default_rng(seed) if varying else None)
    with mock.patch.object(functional, "_polish", _polish_unmerged):
        S_ref, _ = sobolev_constant(T, q)
        J_ref = sobolev_interp_constant(T, q, theta).value
    S, _ = sobolev_constant(T, q)
    J = sobolev_interp_constant(T, q, theta).value
    assert abs(S - S_ref) <= 1e-12 * S_ref
    assert abs(J - J_ref) <= 1e-12 * J_ref


def test_sobolev_default_starts_reach_the_lowest_basin():
    # lattice ground states localize at large q, so on the 8 x 8 Dirichlet
    # Laplacian at q = 6 the quotient has many basins.  The fixed point from
    # the 17 default starts reaches the one that 65 starts find; Euclidean
    # descent from the same starts settles at 1.98428 (+3.7 %)
    T = build_laplacian(make_lattice(d=2, extents=(8, 8)))
    S, trace = sobolev_constant(T, 6.0)
    U0 = _starts(T.n, 64)
    t_wide, *_ = functional._polish(T, 6.0, U0 / functional._norm_q(U0, T.measure, 6.0)[:, None])
    S_wide = float(t_wide.min())
    assert S == pytest.approx(1.913880, rel=1e-6)
    assert S == pytest.approx(S_wide, rel=1e-6)
    assert trace.residual <= 1e-10
    assert _ladder_holds(T, 6.0, S, trace)


REFERENCE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _reference_case(sid):
    # the bundled scenario's operator and exponents, and its reference constants
    want = json.loads(REFERENCE_PATH.read_text())["constants"][sid]
    sc = next(s for s in cli._load_config("paper-suite")["scenarios"] if s["id"] == sid)
    lat = sc["lattice"]
    T = build_laplacian(make_lattice(lat["d"], lat["extents"], h=lat["h"], bc=lat["bc"]))
    return want, T, sc["exponents"]


@pytest.mark.parametrize("sid", ["clr-1d-n32", "clr-2d-8x8"])
def test_sobolev_matches_benchmark_reference(sid):
    want, T, exps = _reference_case(sid)
    q = exponents_from_gamma_kappa(0.0, exps["kappa"]).q
    S, trace = sobolev_constant(T, q)
    assert S == pytest.approx(want["S"], rel=1e-10)
    assert _ladder_holds(T, q, S, trace)


@pytest.mark.parametrize("sid", ["clr-1d-n32", "clr-2d-8x8"])
def test_interp_matches_benchmark_reference(sid):
    want, T, exps = _reference_case(sid)
    e = exponents_from_gamma_kappa(exps["gamma"], exps["kappa"])
    ic = sobolev_interp_constant(T, e.q, e.theta)
    assert ic.value == pytest.approx(want["S_interp"], rel=1e-10)


@pytest.mark.parametrize("shift", [0.0, 1.5], ids=["default", "first-tau-solve"])
def test_sobolev_given_seeded_starts_is_the_default_call(shift):
    # the fixed point from the seeded block at one shift, solved in the
    # eigenbasis of T, is the call on T + shift: bit for bit at shift 0,
    # where the S path adds +0.0, and to rounding otherwise, where
    # w + shift stands for the eigenvalues of the shifted form
    T = build_laplacian(make_lattice(d=1, extents=32))
    q = 6.0
    S, trace = sobolev_constant(shifted(T, shift) if shift else T, q)
    U0 = _starts(T.n)
    assert np.array_equal(U0, functional._seeded_starts(T.n))
    t, P, res, rounds = functional._polish(
        T, q, U0 / functional._norm_q(U0, T.measure, q)[:, None], tau=shift)
    i = int(np.argmin(t))
    if shift:
        assert t[i] == pytest.approx(S, rel=1e-12)
        # the two routes may settle on u and -u
        u = P[i] * np.sign(P[i] @ trace.minimizer)
        np.testing.assert_allclose(u, trace.minimizer, rtol=0, atol=1e-8)
    else:
        assert t[i] == S and np.array_equal(P[i], trace.minimizer)
        assert int(rounds.sum()) == trace.iterations
        assert res[i] / max(1.0, abs(S)) == trace.residual


def _counting_products(monkeypatch):
    calls = []
    product = KineticOperator.form_product

    def counted(self, U):
        calls.append(1)
        return product(self, U)

    monkeypatch.setattr(KineticOperator, "form_product", counted)
    return calls


def test_sobolev_block_cuts_form_products(monkeypatch):
    # all 17 starts share one form product per round; a loop that runs the
    # starts one row at a time makes 731 calls here
    T = build_laplacian(make_lattice(d=1, extents=32))
    calls = _counting_products(monkeypatch)
    S, trace = sobolev_constant(T, 6.0)
    assert S == pytest.approx(REFERENCE_S[1][2], rel=1e-10)
    assert 1 <= len(calls) <= 735 // 3


def test_sobolev_rejects_bad_input():
    T = build_laplacian(make_lattice(d=1, extents=4))
    with pytest.raises(ValueError):
        sobolev_constant(T, 2.0)
    sp = make_lattice(d=2, extents=3, bc="periodic")
    TA = build_magnetic_laplacian(sp, uniform_flux_phases(sp, 0.3))
    with pytest.raises(ValueError):
        sobolev_constant(TA, 4.0)


def test_interp_constant_rejects_a_complex_form():
    # the same real-form check as sobolev_constant, before any minimization
    # casts the complex form to real
    sp = make_lattice(d=2, extents=4, bc="periodic")
    TA = build_magnetic_laplacian(sp, uniform_flux_phases(sp, 0.7))
    with pytest.raises(ValueError, match="real symmetric forms only"):
        sobolev_interp_constant(TA, 4.0, 0.5)


def test_interp_limit_recovers_sobolev():
    T = build_laplacian(make_lattice(d=1, extents=16))
    q = 4.0
    S, _ = sobolev_constant(T, q)
    ic = sobolev_interp_constant(T, q, 1.0 - 1e-6)
    assert ic.value == pytest.approx(S, rel=1e-3)


def _golden_log(f, lo, hi, *, iterations):
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


def _nested_interp(T, q, theta):
    # the scaling identity S_interp = c_theta min_tau tau^(theta-1) S(T + tau),
    # c_theta = theta^theta (1-theta)^(1-theta), in nested form: a golden
    # section over tau in [1e-2, 1e2] lambda_1(T), each S(T + tau) its own
    # Sobolev solve of the shifted form; returns (value, tau)
    lam1 = float(T.eigenvalues()[0])
    tau, J = _golden_log(
        lambda tau: tau ** (theta - 1.0)
        * sobolev_constant(shifted(T, tau), q)[0],
        1e-2 * lam1, 1e2 * lam1, iterations=60)
    return theta**theta * (1.0 - theta) ** (1.0 - theta) * J, tau


def _assert_nested_identity(ic, nested):
    # the joint route agrees with the nested form to rounding (1.01e-14 at
    # worst here); a tau step scaled by 1.01 moves the value by 2.9e-7 or
    # more and tau_star by 2.5e-4 or more
    value, tau = nested
    assert ic.value == pytest.approx(value, rel=1e-12)
    assert ic.tau_star == pytest.approx(tau, rel=1e-5)


def test_interp_two_routes_agree():
    for T in (build_laplacian(make_lattice(d=1, extents=16)),
              build_laplacian(make_lattice(d=2, extents=6))):
        ic = sobolev_interp_constant(T, 4.0, 0.5)
        _assert_nested_identity(ic, _nested_interp(T, 4.0, 0.5))
        assert ic.tau_star > 0.0
        assert not ic.vacuous


INTERP_MINIMIZER_FORMS = {
    "path-16": lambda: build_laplacian(make_lattice(d=1, extents=16)),
    "path-32": lambda: build_laplacian(make_lattice(d=1, extents=32)),
    "box-6x6": lambda: build_laplacian(make_lattice(d=2, extents=(6, 6))),
    "box-8x8": lambda: build_laplacian(make_lattice(d=2, extents=(8, 8))),
    "fractional-path-24": lambda: fractional_laplacian(make_lattice(d=1, extents=24), 0.5),
}


@pytest.mark.parametrize("q, theta", [(4.0, 0.5), (10.0 / 3.0, 0.6), (3.0, 2.0 / 3.0)])
@pytest.mark.parametrize("form", INTERP_MINIMIZER_FORMS)
def test_interp_value_is_attained_at_its_minimizer(form, q, theta):
    # S_interp is the interpolated quotient of the reported point, recomputed
    # from the form alone: t[u]^theta ||u||^(2(1-theta)) / ||u||_q^2
    T = INTERP_MINIMIZER_FORMS[form]()
    ic = sobolev_interp_constant(T, q, theta)
    u, m = ic.minimizer, T.measure
    assert u.shape == (T.n,)
    t = float(u @ T.form_product(u))
    quotient = (t**theta * float(np.sum(m * u * u)) ** (1.0 - theta)
                / float(np.sum(m * np.abs(u) ** q)) ** (2.0 / q))
    assert ic.value == pytest.approx(quotient, rel=16 * np.finfo(float).eps, abs=0.0)


def test_interp_scaling_homogeneity():
    T = build_laplacian(make_lattice(d=1, extents=12))
    theta = 0.5
    a = sobolev_interp_constant(T, 4.0, theta)
    b = sobolev_interp_constant(KineticOperator(T.space, 3.0 * T.form), 4.0, theta)
    assert b.value == pytest.approx(3.0**theta * a.value, rel=1e-9)


# the two bundled interpolation scenarios: (lattice, gamma, kappa)
INTERP_CASES = [(dict(d=1, extents=32), 1.0, 1.5), (dict(d=2, extents=(8, 8)), 1.0, 2.0)]


def _counting_solves(monkeypatch):
    calls = []
    solve = functional.sobolev_constant

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(functional, "sobolev_constant", counted)
    return calls


@pytest.mark.parametrize("lat, gamma, kappa", INTERP_CASES)
def test_interp_tau_step_solve_count(monkeypatch, lat, gamma, kappa):
    # the tau step runs inside the fixed point in the cached eigenbasis of
    # T: no Sobolev solve of T + tau and no eigensystem beyond T's own
    T = build_laplacian(make_lattice(**lat))
    T.eigensystem()
    e = exponents_from_gamma_kappa(gamma, kappa)
    nested = _nested_interp(T, e.q, e.theta)
    solves = _counting_solves(monkeypatch)
    eighs = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        eighs.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    ic = sobolev_interp_constant(T, e.q, e.theta)
    assert not solves and not eighs
    _assert_nested_identity(ic, nested)


def _recorded_polish(monkeypatch):
    seen = []
    polish = functional._polish

    def recorded(*args, **kwargs):
        out = polish(*args, **kwargs)
        seen.append((kwargs, out))
        return out

    monkeypatch.setattr(functional, "_polish", recorded)
    return seen


def test_interp_tau_step_stops_at_cap(monkeypatch):
    # a tau step that never settles is cut after 500 rounds of every row
    T = build_laplacian(make_lattice(d=1, extents=6))
    seen = _recorded_polish(monkeypatch)
    taus = itertools.cycle([1.0, 2.0])
    monkeypatch.setattr(functional, "tau_min_value",
                        lambda a, b, th: functional.TauMinimum(a, np.full_like(a, next(taus))))
    sobolev_interp_constant(T, 4.0, 0.5)
    [(kwargs, (_, _, _, rounds))] = seen
    assert kwargs["theta"] == 0.5
    assert rounds.tolist() == [500] * 17


@pytest.mark.parametrize("lat, gamma, kappa, parent_products",
                         [(*case, n) for case, n in zip(INTERP_CASES, [1837, 1272])])
def test_interp_joint_route_cuts_form_products(monkeypatch, lat, gamma, kappa,
                                               parent_products):
    # parent_products is what this route took when it made one Sobolev solve
    # of T + tau per tau step and ran a direct cross-check
    T = build_laplacian(make_lattice(**lat))
    e = exponents_from_gamma_kappa(gamma, kappa)
    nested = _nested_interp(T, e.q, e.theta)
    calls = _counting_products(monkeypatch)
    ic = sobolev_interp_constant(T, e.q, e.theta)
    _assert_nested_identity(ic, nested)
    assert 1 <= len(calls) <= parent_products * 2 // 5


def test_interp_joint_value_non_increasing_in_round_cap():
    # the guarded solve lowers J(u, tau) = tau^(theta-1) (t[u] + tau ||u||^2)
    # at a fixed tau and the tau step minimizes it over tau, so each row's J
    # at its best tau never rises from one round cap to the next
    T = build_laplacian(make_lattice(d=1, extents=16))
    q, theta = 4.0, 0.5
    m = T.measure
    U0 = _starts(T.n, 3)
    U0 = U0 / functional._norm_q(U0, m, q)[:, None]

    def joint(U):
        t = functional._rowdot(U, T.form_product(U))
        n2 = functional._rowdot(U, m * U)
        tau = tau_min_value(t, n2, theta).tau_star
        return tau ** (theta - 1.0) * (t + tau * n2)

    tau0 = tau_min_value(functional._rowdot(U0, T.form_product(U0)),
                         functional._rowdot(U0, m * U0), theta).tau_star
    J = [joint(functional._polish(T, q, U0, tau=tau0, theta=theta, max_iter=r)[1])
         for r in range(40)]
    assert np.array_equal(J[0], joint(U0))
    for a, b in zip(J, J[1:]):
        assert np.all(b <= a * (1.0 + 1e-13))
    assert np.all(J[-1] < 0.9 * J[0])


# the tau-grid cases: the two bundled Laplacians, then two dense forms
GRID_CASES = INTERP_CASES + [(dict(d=1, extents=64, family="fractional", s=0.5), 1.0, 1.5),
                             (dict(d=2, extents=(9, 9), exclusions=[(4, 4)],
                                   family="hardy", s=0.5), 1.0, 2.0)]


def _grid_operator(lat):
    lat = dict(lat)
    family, s = lat.pop("family", "laplacian"), lat.pop("s", None)
    space = make_lattice(**lat)
    if family == "fractional":
        return fractional_laplacian(space, s)
    if family == "hardy":
        return build_hardy_operator(space, s)
    return build_laplacian(space)


@pytest.mark.parametrize("lat, gamma, kappa", GRID_CASES)
def test_interp_tau_step_beats_global_tau_grid(lat, gamma, kappa):
    # the joint (u, tau) fixed point keeps the global-in-tau guarantee of a
    # log sweep over [1e-4, 1e4] lambda_max
    T = _grid_operator(lat)
    e = exponents_from_gamma_kappa(gamma, kappa)
    ic = sobolev_interp_constant(T, e.q, e.theta)
    coef = e.theta**e.theta * (1.0 - e.theta) ** (1.0 - e.theta)
    grid = [coef * tau ** (e.theta - 1.0)
            * sobolev_constant(shifted(T, tau), e.q)[0]
            for tau in np.geomspace(1e-4, 1e4, 9) * T.eigenvalues()[-1]]
    assert ic.value <= (1.0 + 1e-10) * min(grid)


def _interp_from_block(T, q, theta, U0):
    # sobolev_interp_constant's value from the start block U0: the joint
    # fixed point from each row at its best shift, the least J scaled by
    # theta^theta (1-theta)^(1-theta)
    m = T.measure
    U0 = U0 / functional._norm_q(U0, m, q)[:, None]

    def parts(U):
        return functional._rowdot(U, T.form_product(U)), functional._rowdot(U, m * U)

    _, U, _, _ = functional._polish(T, q, U0, tau=tau_min_value(*parts(U0), theta).tau_star,
                                    theta=theta)
    t, n2 = parts(U)
    tau = tau_min_value(t, n2, theta).tau_star
    J = tau ** (theta - 1.0) * (t + tau * n2)
    return theta**theta * (1.0 - theta) ** (1.0 - theta) * float(J.min())


@settings(max_examples=24, derandomize=True, deadline=None)
# the first 8 seeded starts and the positive one settle at 1.639243869
# here, the 17 starts at 1.501426622
@example(family="hardy", d=2, side=5, seed=1137, q=6.0, varying=True, theta=0.5)
@given(family=st.sampled_from(["laplacian", "fractional", "hardy"]),
       d=st.integers(1, 2), side=st.integers(3, 6), seed=st.integers(0, 2**16),
       q=st.sampled_from([3.0, 4.0, 6.0]), varying=st.booleans(),
       theta=st.sampled_from([0.25, 0.5, 0.75]))
def test_interp_block_is_never_above_its_first_nine_rows(family, d, side, seed, q, varying,
                                                        theta):
    """S_interp polishes the 17 starts of sobolev_constant; the merge only
    stops a row in a basin that has settled, so no basin that the first 8
    seeded starts and the positive one reach is lost."""
    T = _small_form(family, d, side, np.random.default_rng(seed) if varying else None)
    ic = sobolev_interp_constant(T, q, theta)
    assert ic.value <= (1.0 + 1e-12) * _interp_from_block(T, q, theta, _starts(T.n, 8))


def test_interp_all_seventeen_starts_reach_a_lower_basin():
    # on this form the rows that S_interp polished before the blocks were
    # shared, the first 8 seeded starts and the positive one, miss the
    # lowest basin that the 17 starts of sobolev_constant reach
    T = _small_form("hardy", 2, 5, np.random.default_rng(1137))
    assert _interp_from_block(T, 6.0, 0.5, _starts(T.n, 8)) == pytest.approx(1.639243869,
                                                                            rel=1e-9)
    assert sobolev_interp_constant(T, 6.0, 0.5).value == pytest.approx(1.501426622, rel=1e-9)


def test_interp_vacuous_on_kernel():
    T = build_laplacian(make_lattice(d=1, extents=8, bc="periodic"))
    ic = sobolev_interp_constant(T, 4.0, 0.5)
    assert ic.value == 0.0 and ic.vacuous


def test_tau_min_closed_form():
    tm = tau_min_value(1.0, 1.0, 0.5)
    assert tm.value == pytest.approx(2.0, rel=1e-14)
    assert tm.tau_star == pytest.approx(1.0, rel=1e-14)
    rng = np.random.default_rng(12)
    for _ in range(10):
        alpha = float(rng.uniform(0.1, 10.0))
        beta = float(rng.uniform(0.1, 10.0))
        theta = float(rng.uniform(0.05, 0.95))
        tm = tau_min_value(alpha, beta, theta)
        taus = np.geomspace(tm.tau_star * 1e-3, tm.tau_star * 1e3, 20_001)
        grid = np.min(alpha * taus ** (theta - 1.0) + beta * taus**theta)
        assert tm.value == pytest.approx(float(grid), rel=1e-7)
        # stationarity
        f = lambda t: alpha * t ** (theta - 1.0) + beta * t**theta
        assert f(tm.tau_star) <= f(tm.tau_star * 1.001)
        assert f(tm.tau_star) <= f(tm.tau_star * 0.999)
    # arrays give the scalar results entry by entry
    alpha, beta = rng.uniform(0.1, 10.0, 5), rng.uniform(0.1, 10.0, 5)
    tm = tau_min_value(alpha, beta, 0.3)
    for a, b, v, t in zip(alpha, beta, tm.value, tm.tau_star):
        one = tau_min_value(float(a), float(b), 0.3)
        assert (one.value, one.tau_star) == (v, t)
    with pytest.raises(ValueError):
        tau_min_value(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        tau_min_value(np.array([1.0, 0.0]), np.ones(2), 0.5)
    with pytest.raises(ValueError):
        tau_min_value(1.0, 1.0, 1.0)


def test_nash_single_site_equality():
    op = single_site_op(t0=2.0, m0=3.0)
    q = 4.0
    S, trace = sobolev_constant(op, q)
    rep = nash_check(op, q, S, trace.minimizer)
    assert rep.min_slack_rel == pytest.approx(0.0, abs=1e-10)


def test_nash_on_path():
    T = build_laplacian(make_lattice(d=1, extents=16))
    S, trace = sobolev_constant(T, 4.0)
    rep = nash_check(T, 4.0, S, trace.minimizer)
    assert rep.min_slack_rel >= -NASH_REL
    assert rep.power in functional.NASH_POWERS


@settings(max_examples=24, derandomize=True, deadline=None)
@given(family=st.sampled_from(["laplacian", "fractional", "hardy"]),
       d=st.integers(1, 2), side=st.integers(3, 6), seed=st.integers(0, 2**16),
       q=st.sampled_from([3.0, 4.0, 6.0]), varying=st.booleans())
def test_nash_ladder_passes_at_the_minimized_constant(family, d, side, seed, q, varying):
    """The Nash bound follows from S by Hoelder's inequality, so at a
    minimized S no probe |u|^k of its minimizer falls short; one that did
    would show S too large.  The check draws no random numbers: it runs
    with numpy's generator constructor made to raise."""
    T = _small_form(family, d, side, np.random.default_rng(seed) if varying else None)
    S, trace = sobolev_constant(T, q)

    def no_generator(*args, **kwargs):
        raise AssertionError("nash_check drew random numbers")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", no_generator)
        rep = nash_check(T, q, S, trace.minimizer)
    assert S > 0.0 and not rep.vacuous
    assert rep.min_slack_rel >= -NASH_REL
    assert rep.power in functional.NASH_POWERS


def test_nash_vacuous():
    T = build_laplacian(make_lattice(d=1, extents=8, bc="periodic"))
    rep = nash_check(T, 4.0, 0.0, np.ones(T.n))
    assert rep.vacuous and rep.min_slack_rel == math.inf and rep.power is None


def test_heat_bound_single_site_sharp_value():
    lam, kappa = 2.0, 1.5
    op = single_site_op(t0=lam, m0=1.0)
    q = 2.0 * kappa / (kappa - 1.0)
    S, _ = sobolev_constant(op, q)
    assert S == pytest.approx(lam, rel=1e-12)
    # the default range [1e-2 / lam, 50 / lam] holds the maximizer s = kappa / lam
    rep = heat_bound_check(op, kappa, S, grid_points=4001)
    # sup_s s^k e^(-s lam) = (k/lam)^k e^-k, so the measured/bound ratio is e^-k
    assert rep.K_measured == pytest.approx((kappa / lam) ** kappa * math.exp(-kappa),
                                           rel=1e-4)
    assert rep.K_bound == pytest.approx((kappa / lam) ** kappa, rel=1e-13)
    assert rep.K_measured <= rep.K_bound * (1.0 + HEAT_REL)
    assert rep.K12_measured <= rep.K12_bound * (1.0 + HEAT_REL)


def test_heat_bound_on_path():
    T = build_laplacian(make_lattice(d=1, extents=16))
    kappa = 1.5
    S, _ = sobolev_constant(T, 2.0 * kappa / (kappa - 1.0))
    rep = heat_bound_check(T, kappa, S)
    assert rep.K_measured <= rep.K_bound * (1.0 + HEAT_REL)
    assert rep.K12_measured <= rep.K12_bound * (1.0 + HEAT_REL)
    with pytest.raises(ValueError):
        heat_bound_check(T, kappa, 0.0)
    with pytest.raises(ValueError):
        heat_bound_check(T, 0.0, S)


def test_heat_bound_check_builds_no_kernel(monkeypatch):
    # both norms come from the kernel diagonal, so no n x n kernel is built
    def no_kernel(T, s):
        raise AssertionError("heat_bound_check built a dense heat kernel")

    T = build_laplacian(make_lattice(d=1, extents=256))
    monkeypatch.setattr(spectra, "heat_kernel", no_kernel)
    rep = heat_bound_check(T, 1.5, 0.05)
    assert rep.s_grid.shape == (60,)
    assert 0.0 < rep.K_measured < math.inf and 0.0 < rep.K12_measured < math.inf


def test_counting_brackets():
    lo, hi = clr_bounds_from_S(1.0, 2.0)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(math.e, rel=1e-14)
    lo, hi = clr_bounds_from_S(2.0, 1.5)
    assert lo == pytest.approx(2.0**-1.5, rel=1e-14)
    assert hi / lo == pytest.approx(math.exp(0.5), rel=1e-14)
    # the weak bracket at gamma = 0 degenerates to the counting bracket
    assert ltw_bounds_from_S(2.0, 0.0, 1.5) == pytest.approx(clr_bounds_from_S(2.0, 1.5))
    lo, hi = ltw_bounds_from_S(2.0, 1.0, 1.5)
    theta = 1.5 / 2.5
    s_eff = 2.0 / (theta**theta * (1 - theta) ** (1 - theta))
    assert lo == pytest.approx(s_eff**-2.5, rel=1e-13)
    assert hi / lo == pytest.approx(math.exp(1.5), rel=1e-13)
    with pytest.raises(ValueError):
        clr_bounds_from_S(0.0, 1.5)
    with pytest.raises(ValueError):
        ltw_bounds_from_S(1.0, 0.5, 0.4)


def test_lieb_objective_against_mpmath():
    for a, K, kappa in [(1.0, 1.0, 2.0), (0.25, 0.5, 1.5), (3.0, 2.0, 2.5)]:
        denom = 1.0 - float(a * mpmath.exp(a) * mpmath.e1(a))
        want = K / (kappa * (kappa - 1.0)) * a ** (1.0 - kappa) * math.exp(a) / denom
        assert lieb_objective(a, K, kappa) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        lieb_objective(0.0, 1.0, 2.0)


def test_lieb_bound_matches_scalar_oracle():
    K = (4.0 * math.pi) ** -1.5
    for kappa in (4.0 / 3.0, 1.5, 2.0, 2.5):
        lb = lieb_bound_from_K(K, kappa)
        res = scipy.optimize.minimize_scalar(
            lambda la: lieb_objective(math.exp(la), K, kappa),
            bounds=(math.log(1e-3), math.log(10.0)), method="bounded",
            options={"xatol": 1e-13})
        assert lb.value == pytest.approx(res.fun, rel=1e-9)
        assert lb.a_star == pytest.approx(math.exp(res.x), rel=1e-6)
        # linear in K
        lb2 = lieb_bound_from_K(2.0 * K, kappa)
        assert lb2.value == pytest.approx(2.0 * lb.value, rel=1e-10)
    with pytest.raises(ValueError):
        lieb_bound_from_K(K, 1.0)
    with pytest.raises(ValueError):
        lieb_bound_from_K(0.0, 1.5)


def test_lieb_bound_at_small_and_large_a_star():
    # minima far from a = 1: above 10 at large kappa, below 1e-4 as
    # kappa -> 1
    for kappa, lo, hi in ((40.0, 10.0, 100.0), (1.00001, 1e-8, 1e-4)):
        lb = lieb_bound_from_K(1.0, kappa)
        res = scipy.optimize.minimize_scalar(
            lambda la: lieb_objective(math.exp(la), 1.0, kappa),
            bounds=(math.log(lo), math.log(hi)), method="bounded",
            options={"xatol": 1e-13})
        assert lo < lb.a_star < hi
        assert lb.value == pytest.approx(res.fun, rel=1e-9)
        assert lb.a_star == pytest.approx(math.exp(res.x), rel=1e-5)
    with pytest.raises(ValueError, match="kappa = 700"):
        lieb_bound_from_K(1.0, 700.0)
    # past kappa = 9e15, 1 - a e^a E1(a) rounds to 0 inside the bracket
    with pytest.raises(ValueError, match=r"kappa = 1e\+17"):
        lieb_bound_from_K(1.0, 1e17)


def test_lieb_bound_at_large_kappa():
    # a^(1 - kappa) overflows at a = 1e-4 once kappa > 78; only the minimum
    # itself must be a finite double
    lb = lieb_bound_from_K(1.0, 80.0)
    assert math.isfinite(lb.value) and lb.value > 0.0
    assert lb.a_star == pytest.approx(78.0, abs=0.1)
    assert lb.value <= lieb_objective(78.0, 1.0, 80.0)
    # at kappa = 150 a^(1 - kappa) underflows near the minimum, 5.4e-262
    lb = lieb_bound_from_K(1.0, 150.0)
    a = mpmath.mpf(lb.a_star)
    want = a ** -149 * mpmath.exp(a) / (1 - a * mpmath.exp(a) * mpmath.e1(a)) / (150 * 149)
    assert lb.value == pytest.approx(float(want), rel=1e-12)
    assert lb.a_star == pytest.approx(148.0, abs=0.1)


def _lieb_h(a):
    # h(a) = a + a (g (1 + a) - 1) / (1 - a g), g = e^a E1(a), in mpmath:
    # the Lieb objective is stationary where h(a) = kappa - 1
    a = mpmath.mpf(a)
    g = mpmath.exp(a) * mpmath.e1(a)
    return a + a * (g * (1 + a) - 1) / (1 - a * g)


def test_lieb_stationarity_is_increasing_within_one_of_a():
    # so the one root of h(a) = kappa - 1 lies in [kappa - 2, kappa - 1]
    a = [mpmath.mpf(10) ** e for e in mpmath.linspace(-15, 3, 181)]
    h = [_lieb_h(x) for x in a]
    assert all(x < y < x + 1 for x, y in zip(a, h))
    assert all(y0 < y1 for y0, y1 in zip(h, h[1:]))


@pytest.mark.parametrize("kappa", [1.00001, 4.0 / 3.0, 1.5, 2.0, 2.5, 40.0, 80.0, 150.0])
def test_lieb_bound_a_star_is_the_stationarity_root(kappa):
    root = mpmath.findroot(lambda a: _lieb_h(a) - (kappa - 1),
                           (max(kappa - 2, 1e-300), kappa - 1), solver="anderson")
    assert lieb_bound_from_K(1.0, kappa).a_star == pytest.approx(float(root), rel=1e-12)


def test_lieb_bound_is_one_objective_evaluation(monkeypatch):
    # the root search evaluates h alone, at most 64 times, and the
    # objective once, at a*
    calls = {"h": 0, "f": 0}
    h, f = functional._lieb_stationarity, functional.lieb_objective

    def counted_h(a):
        calls["h"] += 1
        return h(a)

    def counted_f(*args):
        calls["f"] += 1
        return f(*args)

    monkeypatch.setattr(functional, "_lieb_stationarity", counted_h)
    monkeypatch.setattr(functional, "lieb_objective", counted_f)
    for kappa in (1.0 + 2.0**-52, 1.00001, 1.5, 2.0, 2.5, 80.0, 150.0):
        calls.update(h=0, f=0)
        lieb_bound_from_K(1.0, kappa)
        assert calls["f"] == 1 and 1 <= calls["h"] <= 64, (kappa, calls)


def test_lieb_bound_reference_point():
    lb = lieb_bound_from_K((4.0 * math.pi) ** -1.5, 1.5)
    assert lb.value == pytest.approx(0.1156219174140979, rel=1e-10)
    assert lb.a_star == pytest.approx(0.24721890573152816, rel=1e-6)


def test_aizenman_lieb_factor_rational_point():
    assert aizenman_lieb_factor(1.0, 2.0, 1.5) == pytest.approx(16.0 / 7.0, rel=1e-12)


def aizenman_lieb_unminimized(gamma: float, gamma_tilde: float, kappa: float,
                              s: float) -> float:
    """The s-dependent expression gt (1-s)^-g s^-(gt-g) B(g+k+1, gt-g)
    that ``aizenman_lieb_factor`` minimizes over s in (0, 1)."""
    g, gt, k = float(gamma), float(gamma_tilde), float(kappa)
    if not (gt > g > 0.0):
        raise ValueError(f"requires gamma_tilde > gamma > 0, got {g}, {gt}")
    if not (0.0 < s < 1.0):
        raise ValueError(f"requires s in (0, 1), got {s}")
    return (gt * (1.0 - s) ** (-g) * s ** (-(gt - g))
            * float(scipy.special.beta(g + k + 1.0, gt - g)))


def test_aizenman_lieb_factor_is_minimum_of_unminimized():
    for g, gt, k in [(1.0, 2.0, 1.5), (0.5, 1.25, 2.0), (2.0, 3.5, 1.2)]:
        res = scipy.optimize.minimize_scalar(
            lambda s: aizenman_lieb_unminimized(g, gt, k, s),
            bounds=(1e-9, 1.0 - 1e-9), method="bounded",
            options={"xatol": 1e-13})
        assert aizenman_lieb_factor(g, gt, k) == pytest.approx(res.fun, rel=1e-9)
        s_star = (gt - g) / gt
        assert aizenman_lieb_unminimized(g, gt, k, s_star) == pytest.approx(
            aizenman_lieb_factor(g, gt, k), rel=1e-12)


def test_aizenman_lieb_validation_and_pole():
    assert aizenman_lieb_factor(1.0, 1.0 + 1e-6, 1.5) > 1e4
    with pytest.raises(ValueError):
        aizenman_lieb_factor(1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        aizenman_lieb_factor(0.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        aizenman_lieb_unminimized(1.0, 2.0, 1.5, 0.0)


def test_continuum_sharp_constant_value():
    assert continuum_sobolev_d3() == pytest.approx(3.0 * (math.pi / 2.0) ** (4.0 / 3.0),
                                                   rel=1e-15)


def _small_form(family, d, side, rng=None):
    """A Laplacian, fractional or Hardy form on side^2 sites in d = 1 or 2,
    with the lattice's measure, or with a random one drawn from rng."""
    extents = [side * side] if d == 1 else [side, side]
    if family == "hardy":
        # one excluded origin in the middle; 2s < d
        space = make_lattice(d, extents, exclusions=[[e // 2 for e in extents]])
        base = build_hardy_operator(space, 0.4 if d == 1 else 0.75)
    elif family == "fractional":
        base = fractional_laplacian(make_lattice(d, extents), 0.5 if d == 1 else 0.75)
    else:
        base = build_laplacian(make_lattice(d, extents))
    measure = base.measure if rng is None else rng.uniform(0.5, 2.0, base.n)
    return KineticOperator(base.space, base.form, measure=measure)


def _relabelled(T, p):
    """T with site i relabelled p^-1(i): form P A P^T and measure P m."""
    return KineticOperator(T.space, T.form[np.ix_(p, p)], measure=T.measure[p])


@pytest.mark.xfail(strict=True, reason="sobolev_constant misses the lowest basin on "
                   "some relabelled forms (about 4 % of small cases); its seeded starts "
                   "are not relabelled with the sites")
@settings(max_examples=24, derandomize=True, deadline=None)
@example(family="fractional", d=1, side=3, seed=3672, q=6.0, varying=True)
@given(family=st.sampled_from(["laplacian", "fractional", "hardy"]),
       d=st.integers(1, 2), side=st.integers(3, 6), seed=st.integers(0, 2**16),
       q=st.sampled_from([3.0, 4.0, 6.0]), varying=st.booleans())
def test_sobolev_invariant_under_site_relabelling(family, d, side, seed, q, varying):
    """S = inf t[u] / ||u||_q^2 is a function of the form and the measure
    alone, so relabelling the sites (form P A P^T, measure P m) leaves it
    unchanged; the minimizer's seeded starts are not relabelled with them,
    so a missed basin would show here.  Forms of at most 36 sites; the
    measure is the lattice's own or a random one, so that no relabelling
    is a symmetry."""
    rng = np.random.default_rng(seed)
    T = _small_form(family, d, side, rng if varying else None)
    p = rng.permutation(T.n)
    S, _ = sobolev_constant(T, q)
    Sp, _ = sobolev_constant(_relabelled(T, p), q)
    assert S > 0.0
    assert Sp == pytest.approx(S, rel=1e-9)
