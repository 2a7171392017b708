"""Theorem checks, reductions, config validation, and scenario runs."""

import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ineqlab import (beurling_deny_check, build_laplacian,
                     build_magnetic_laplacian, build_periodic_schrodinger,
                     count_below, exponents_from_gamma_kappa, integral,
                     ltw_bounds_from_S, make_lattice, make_report,
                     run_scenario, sobolev_constant, sobolev_interp_constant,
                     spectra, uniform_flux_phases, validate_config, verify_clr,
                     verify_diamagnetic, verify_gsr_identity, verify_heat_nash,
                     verify_liyau_trace, verify_lt_moments,
                     verify_magnetic_clr, verify_weak_lt, weighted_transform)
from ineqlab import cli, functional
from ineqlab.cli import _load_config
from ineqlab.operators import KineticOperator
from ineqlab.verify import (HEAT_REL, NASH_REL, ConfigError, _draw_potentials,
                            run_scenario_jsonable, validate_scenario, validate_sweep)


def path_op(n=16, **kw):
    return build_laplacian(make_lattice(d=1, extents=n, **kw))


def draw(T, sigma, seed, floor=0.0):
    rng = np.random.default_rng(seed)
    scale = T.spectral_scale()
    return np.abs(rng.normal(0.0, sigma * scale, T.n)) + floor * scale


# --- make_report -----------------------------------------------------------

def test_make_report_margin_rule():
    r = make_report("s", "CLR", 1.0, 1.0 - 5e-10)
    assert r.status == "pass" and r.passed          # inside the relative floor
    r = make_report("s", "CLR", 1.0, 1.0 - 5e-9)
    assert r.status == "fail" and not r.passed
    assert r.margin == pytest.approx(-5e-9)


def test_make_report_scale_floor_for_zero_rhs():
    r = make_report("s", "diamagnetic", 5e-10, 0.0, scale=1.0)
    assert r.status == "pass"
    r = make_report("s", "diamagnetic", 5e-9, 0.0, scale=1.0)
    assert r.status == "fail"
    # without a scale the zero right side tolerates nothing
    r = make_report("s", "diamagnetic", 5e-10, 0.0)
    assert r.status == "fail"


def test_make_report_statuses():
    r = make_report("s", "CLR", 2.0, 1.0, applicable=False)
    assert r.status == "not-applicable" and r.passed
    r = make_report("s", "CLR", 2.0, 1.0, vacuous=True, applicable=False)
    assert r.status == "vacuous" and r.passed
    with pytest.raises(ValueError):
        make_report("s", "no-such-theorem", 0.0, 0.0)


def test_report_jsonable_is_plain_python():
    r = make_report("s", "CLR", np.float64(1.0), np.float64(2.0),
                    extras={"count": np.int64(3), "arr": np.array([1.0, 2.0])})
    d = r.to_jsonable()
    assert json.loads(json.dumps(d)) == d


# --- counting checks -------------------------------------------------------

def test_clr_zero_potential_trivial():
    T = path_op()
    S, _ = sobolev_constant(T, 6.0)
    r = verify_clr(T, np.zeros(T.n), 1.5, S)
    assert r.status == "pass" and r.lhs == 0.0 and r.rhs == 0.0


def test_clr_random_draws_pass():
    T = path_op(16)
    kappa = 1.5
    S, _ = sobolev_constant(T, 2.0 * kappa / (kappa - 1.0))
    bd = beurling_deny_check(T)
    for k in range(30):
        V = draw(T, [0.1, 1.0, 10.0][k % 3], 1000 + k)
        r = verify_clr(T, V, kappa, S, bd=bd, scenario_id="t")
        assert r.status == "pass", (k, r.margin)
        assert r.extras["count"] == count_below(T, V, 0.0).n


def test_clr_adversarial_saturates_lower_bracket_end():
    # V = c S |u*|^(q-2) puts the ground state exactly at energy S(1-c), and
    # int V^kappa = (cS)^kappa, so the count/integral ratio approaches the
    # bracket's lower end S^-kappa as c -> 1+
    T = path_op(16)
    kappa = 1.5
    q = 2.0 * kappa / (kappa - 1.0)
    S, trace = sobolev_constant(T, q)
    u = trace.minimizer
    for c in (1.0 + 3e-7, 1.001, 2.0, 8.0):
        V = c * S * np.abs(u) ** (q - 2.0)
        r = verify_clr(T, V, kappa, S)
        assert r.status == "pass"
        intV = r.extras["integral"]
        assert intV == pytest.approx((c * S) ** kappa, rel=1e-9)
        assert r.extras["count"] >= 1
        ratio = r.extras["ratio"]
        lo = S**-kappa
        assert ratio <= math.exp(kappa - 1.0) * lo * (1.0 + 1e-9)
        if c < 1.0 + 1e-6:
            assert ratio == pytest.approx(lo, rel=1e-5)


def test_clr_vacuous_and_validation():
    ring = path_op(8, bc="periodic")
    r = verify_clr(ring, np.ones(8), 1.5, 0.0)
    assert r.status == "vacuous" and r.passed
    with pytest.raises(ValueError):
        verify_clr(path_op(), np.ones(16), 1.0, 1.0)


def test_clr_not_applicable_when_assumptions_fail():
    sp = make_lattice(d=1, extents=3)
    bad = KineticOperator(sp, np.array([[2.0, 0.5, 0.0],
                                        [0.5, 2.0, -1.0],
                                        [0.0, -1.0, 2.0]]))
    bd = beurling_deny_check(bad)
    S, _ = sobolev_constant(bad, 6.0)
    r = verify_clr(bad, np.ones(3), 1.5, S, bd=bd)
    assert r.status == "not-applicable" and r.passed
    assert r.assumptions["status"] == "failed"


def test_weak_lt_random_draws_pass():
    T = path_op(16)
    gamma, kappa = 1.0, 1.5
    e = exponents_from_gamma_kappa(gamma, kappa)
    ic = sobolev_interp_constant(T, e.q, e.theta)
    L = ltw_bounds_from_S(ic.value, gamma, kappa)[1]
    for k in range(10):
        V = draw(T, [0.1, 1.0, 10.0][k % 3], 2000 + k)
        r = verify_weak_lt(T, V, gamma, kappa, ic.value, scenario_id="t")
        assert r.status == "pass", (k, r.margin)
        assert r.rhs == L * integral(V, gamma + kappa, T.space, measure=T.measure)
        n, tau_star = r.extras["count"], r.extras["tau_star"]
        assert n >= 1 and r.lhs == n * tau_star ** gamma
        assert count_below(T, V, np.nextafter(tau_star, 0.0)).n == n


def test_weak_lt_verdict_scales_with_potential():
    # T - cV falls as c grows, so every count, and with them the supremum
    # over tau, can only grow
    T = path_op(12)
    gamma, kappa = 0.5, 1.0
    e = exponents_from_gamma_kappa(gamma, kappa)
    ic = sobolev_interp_constant(T, e.q, e.theta)
    V = draw(T, 1.0, 77)
    reports = [verify_weak_lt(T, c * V, gamma, kappa, ic.value) for c in (0.5, 1.0, 2.0, 4.0)]
    assert all(r.status == "pass" for r in reports)
    lhs = [r.lhs for r in reports]
    assert lhs == sorted(lhs) and lhs[-1] > 0.0


# magnitudes drawn from a short list repeat; 0.0 puts an eigenvalue exactly at 0
_EIGENVALUES = st.lists(st.one_of(st.sampled_from([-2.0, -1.0, -0.25, 0.0, 0.5]),
                                  st.floats(-8.0, 8.0, allow_subnormal=False)),
                        max_size=10)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(eigs=_EIGENVALUES, gamma=st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
def test_weak_lt_lhs_is_the_supremum_over_tau(eigs, gamma):
    eigs = np.array(eigs, dtype=np.float64)
    T = path_op(4)
    V = np.ones(T.n)
    r = verify_weak_lt(T, V, gamma, 1.5, 1.0, spectrum=lambda: eigs)
    a = np.unique(-eigs[eigs < 0.0])

    def n_below(tau):
        return spectra.count_from_eigenvalues(eigs, tau).n

    # tau on a dense grid and just below each magnitude
    taus = [*np.geomspace(1e-3, 1e2, 400).tolist(), *(np.nextafter(a, 0.0).tolist())]
    assert all(r.lhs >= tau ** gamma * n_below(tau) for tau in taus)
    tau_star, n = r.extras["tau_star"], r.extras["count"]
    if a.size:
        # the supremum is the limit as tau rises to tau_star
        assert tau_star in a
        n_star = n_below(float(np.nextafter(tau_star, 0.0)))
        assert (n, r.lhs) == (n_star, tau_star ** gamma * n_star)
    else:
        assert (r.lhs, n, tau_star) == (0.0, 0, None)
    if gamma == 0.0:
        # N(0, T - V), with a tie at threshold 0 reported as the CLR check does
        clr = verify_clr(T, V, 1.5, 1.0, spectrum=lambda: eigs)
        assert (r.lhs, r.ties) == (clr.lhs, clr.ties)
        if 0.0 in eigs:
            assert r.ties == [{"tau": 0.0, "distance": 0.0}]
    else:
        assert r.ties == []


def test_lt_moments_pass_and_identity():
    T = path_op(16)
    gamma, kappa, gt = 1.0, 1.5, 2.0
    e = exponents_from_gamma_kappa(gamma, kappa)
    ic = sobolev_interp_constant(T, e.q, e.theta)
    _, L_weak = ltw_bounds_from_S(ic.value, gamma, kappa)
    for k in range(10):
        V = draw(T, 1.0, 3000 + k)
        r = verify_lt_moments(T, V, gt, gamma, kappa, L_weak)
        assert r.status == "pass", k
        # the lhs is the Riesz mean, which its moment representation reproduces
        assert spectra.riesz_mean_from_counts(T, V, gt) == pytest.approx(r.lhs, rel=1e-12)
    with pytest.raises(ValueError):
        verify_lt_moments(T, V, gamma, gamma, kappa, L_weak)


# --- reductions ------------------------------------------------------------

def test_weighted_reduction_preserves_count_and_integral():
    rng = np.random.default_rng(91)
    for k in range(10):
        n = int(rng.integers(6, 14))
        T = path_op(n)
        kappa = float(rng.uniform(1.2, 3.0))
        omega = np.exp(0.5 * rng.standard_normal(n))
        V = np.abs(rng.normal(0.0, 2.0, n)) + 0.01
        wt = weighted_transform(T, omega, kappa)
        Vt = wt.potential_map(V)
        n0 = count_below(T, V, 0.0).n
        n1 = count_below(wt.operator, Vt, 0.0).n
        assert n0 == n1, k
        i0 = integral(V, kappa, T.space, measure=T.measure)
        i1 = integral(Vt, kappa, T.space, measure=wt.measure)
        assert i1 == pytest.approx(i0, rel=1e-12)


def test_tau_shift_reduction_matches_counting_verdict():
    # the weak bound at (tau, gamma, kappa) is the counting bound for the
    # operator tau^(theta-1) (T + tau) at exponent gamma + kappa
    rng = np.random.default_rng(17)
    for k in range(20):
        n = int(rng.integers(8, 17))
        T = path_op(n)
        gamma = float(rng.uniform(0.3, 2.0))
        kappa = float(rng.uniform(max(0.3, 1.05 - gamma), 2.5))
        e = exponents_from_gamma_kappa(gamma, kappa)
        tau = float(rng.uniform(0.05, 5.0))
        V = np.abs(rng.normal(0.0, 2.0, n))

        c = tau ** (e.theta - 1.0)
        T_tau = T.shifted(tau).scaled(c)
        n_weak = count_below(T, V, tau).n
        n_clr = count_below(T_tau, c * V, 0.0).n
        assert n_weak == n_clr, k

        S_tau, _ = sobolev_constant(T_tau, e.q)
        r_clr = verify_clr(T_tau, c * V, gamma + kappa, S_tau)
        ic = sobolev_interp_constant(T, e.q, e.theta)
        r_weak = verify_weak_lt(T, V, gamma, kappa, ic.value)
        assert r_weak.status == r_clr.status == "pass"
        # the weak check reads the supremum over tau, this tau among them
        assert r_weak.lhs >= n_weak * tau ** gamma


# --- magnetic and ground-state checks ---------------------------------------

def test_diamagnetic_zero_phase_is_tight():
    sp = make_lattice(d=2, extents=4, bc="periodic")
    T = build_laplacian(sp)
    TA = build_magnetic_laplacian(sp, np.zeros(len(sp.edges)))
    r = verify_diamagnetic(T, TA, [0.1, 1.0, 10.0])
    assert r.status == "pass"
    assert abs(r.extras["kernel_rel"]) <= 1e-12


def test_diamagnetic_flux_and_random_phases():
    sp = make_lattice(d=2, extents=4, bc="periodic")
    T = build_laplacian(sp)
    for phases in (uniform_flux_phases(sp, math.pi / 2),
                   np.random.default_rng(5).uniform(-math.pi, math.pi, len(sp.edges))):
        TA = build_magnetic_laplacian(sp, phases)
        r = verify_diamagnetic(T, TA, [0.1, 1.0, 10.0], n_pairs=50)
        assert r.status == "pass", r.lhs
        assert r.rhs == 0.0


def test_diamagnetic_requires_matching_structure():
    sp = make_lattice(d=2, extents=4, bc="periodic")
    T = build_laplacian(sp).scaled(2.0)
    TA = build_magnetic_laplacian(sp, uniform_flux_phases(sp, 0.5))
    with pytest.raises(ValueError):
        verify_diamagnetic(T, TA, [1.0])


def test_magnetic_clr_zero_flux_reduces_to_plain():
    sp = make_lattice(d=1, extents=16)
    T = build_laplacian(sp)
    TA = build_magnetic_laplacian(sp, np.zeros(len(sp.edges)))
    kappa = 1.5
    S, _ = sobolev_constant(T, 6.0)
    V = draw(T, 1.0, 55)
    rm = verify_magnetic_clr(TA, V, kappa, S)
    rp = verify_clr(T, V, kappa, S)
    assert rm.tag == "magneticCLR"
    assert rm.lhs == rp.lhs
    assert rm.rhs == pytest.approx(rp.rhs, rel=1e-14)


def test_magnetic_clr_with_flux_passes():
    sp = make_lattice(d=2, extents=4, bc="dirichlet")
    T = build_laplacian(sp)
    TA = build_magnetic_laplacian(sp, uniform_flux_phases(sp, math.pi / 2))
    S, _ = sobolev_constant(T, 4.0)       # kappa = 2
    V = draw(T, 1.0, 66)
    r = verify_magnetic_clr(TA, V, 2.0, S)
    assert r.status == "pass"


def test_liyau_single_site_closed_form():
    sp = make_lattice(d=1, extents=1)
    t0, m0, v = 2.0, 1.0, 4.0
    op = KineticOperator(sp, np.array([[t0]]), measure=np.array([m0]))
    kappa = 1.5
    S, _ = sobolev_constant(op, 2.0 * kappa / (kappa - 1.0))
    ups = t0 / (v * m0)
    r = verify_liyau_trace(op, np.array([v]), S, kappa, [0.3, 1.0])
    assert r.status == "pass"
    row = r.extras["per_s"][0]
    s = row["s"]
    assert row["trace_lhs"] == pytest.approx(math.exp(-2 * s * ups) / (2 * ups), rel=1e-12)
    assert r.extras["count"] == (1 if ups < 1.0 else 0)


def test_liyau_chain_reproduces_counting_constant():
    T = path_op(12)
    kappa = 1.5
    S, _ = sobolev_constant(T, 6.0)
    V = draw(T, 1.0, 44, floor=0.01)
    r = verify_liyau_trace(T, V, S, kappa, [0.05, 0.5, 5.0])
    assert r.status == "pass"
    assert r.extras["chain_rel_gap"] <= 1e-12
    ss = [row["s"] for row in r.extras["per_s"]]
    assert any(abs(s - 0.25) < 1e-12 for s in ss)       # t* = (kappa-1)/2
    with pytest.raises(ValueError):
        verify_liyau_trace(T, V, S, 1.0, [0.5])
    with pytest.raises(ValueError):
        verify_liyau_trace(T, V, S, kappa, [-0.5, 1.0])


def test_gsr_identity_on_ring():
    sp = make_lattice(d=1, extents=16, bc="periodic")
    x = np.arange(16)
    W = 2.0 * np.cos(2.0 * math.pi * x / 16)
    bundle = build_periodic_schrodinger(sp, W)
    r = verify_gsr_identity(bundle, n_samples=100)
    assert r.status == "pass"
    assert r.lhs <= 1e-10
    assert r.extras["energy"] == pytest.approx(bundle.energy)


def test_gsr_identity_flat_potential():
    sp = make_lattice(d=1, extents=10, bc="periodic")
    bundle = build_periodic_schrodinger(sp, np.zeros(10))
    r = verify_gsr_identity(bundle, n_samples=25)
    assert r.status == "pass"


# --- configuration ---------------------------------------------------------

def minimal_scenario(**over):
    sc = {
        "id": "unit-mini",
        "lattice": {"d": 1, "extents": [8], "h": 1.0, "bc": "dirichlet"},
        "operator": {"family": "laplacian"},
        "exponents": {"kappa": 1.5},
        "potential": {"seed": 5, "sigmas": [1.0], "draws": 1},
        "checks": ["CLR"],
        "seed": 1,
    }
    sc.update(copy.deepcopy(over))
    return sc


def test_validate_config_roundtrip():
    cfg = {"schema": 1, "scenarios": [minimal_scenario()]}
    assert validate_config(copy.deepcopy(cfg))["scenarios"][0]["id"] == "unit-mini"


def test_validate_scenario_fills_every_default():
    sc = validate_scenario({"id": "bare", "lattice": {"d": 1, "extents": [4]}})
    assert sc == {
        "id": "bare",
        "lattice": {"d": 1, "extents": [4], "h": 1.0, "bc": "dirichlet", "exclusions": []},
        "operator": {"family": "laplacian"},
        "exponents": {"kappa": None, "gamma": None, "gamma_tilde": None},
        "potential": {"values": None, "seed": None, "sigmas": [0.1, 1.0, 10.0], "draws": 2,
                      "adversarial": None},
        "checks": [],
        "heat_nash": None,
        "seed": None,
    }
    # a normalized copy validates to itself, and true turns heat_nash on
    assert validate_scenario(copy.deepcopy(sc)) == sc
    on = validate_scenario(dict(sc, heat_nash=True, exponents={"kappa": 2}))
    assert on["heat_nash"] == {"grid_points": 60, "nash_samples": 10_000}
    assert on["exponents"]["kappa"] == 2.0 and isinstance(on["exponents"]["kappa"], float)


def test_validate_explicit_values_leave_draw_fields_null():
    # nothing reads the random-draw fields beside explicit values, so they
    # get no defaults, nulls pass, and the normalized copies still validate
    # to themselves
    values = [0.5, 1.0, 2.0, 0.0]
    sc = validate_scenario({"id": "vals", "lattice": {"d": 1, "extents": [4]},
                            "potential": {"values": values, "seed": None, "draws": None}})
    assert sc["potential"] == {"values": values, "seed": None, "sigmas": None,
                               "draws": None, "adversarial": None}
    assert validate_scenario(copy.deepcopy(sc)) == sc
    sweep = validate_sweep({"schema": 1, "sweep": {
        "axis": "coupling", "values": [1.0],
        "instance": {"lattice": {"d": 1, "extents": [4]}, "potential": {"values": values}}}})
    assert sweep["instance"]["potential"] == {"values": values, "seed": None, "sigma": None}
    assert validate_sweep({"schema": 1, "sweep": copy.deepcopy(sweep)}) == sweep


def test_validate_config_rejects_bad_schema_and_duplicates():
    with pytest.raises(ConfigError):
        validate_config({"schema": 2, "scenarios": []})
    with pytest.raises(ConfigError, match="duplicate"):
        validate_config({"schema": 1,
                         "scenarios": [minimal_scenario(), minimal_scenario()]})


def test_validate_scenario_rejects_small_kappa_for_counting():
    sc = minimal_scenario(exponents={"kappa": 0.9})
    with pytest.raises(ConfigError, match="kappa"):
        validate_scenario(sc)


def test_validate_scenario_field_paths_in_errors():
    with pytest.raises(ConfigError, match="checks"):
        validate_scenario(minimal_scenario(checks=["CLR", "noSuchTag"]))
    with pytest.raises(ConfigError, match="potential.seed"):
        validate_scenario(minimal_scenario(potential={"sigmas": [1.0]}))
    with pytest.raises(ConfigError, match="family"):
        validate_scenario(minimal_scenario(operator={"family": "airy"}))
    with pytest.raises(ConfigError, match="gamma"):
        sc = minimal_scenario(checks=["weakLT"], exponents={"kappa": 1.5})
        validate_scenario(sc)


@pytest.mark.parametrize("over, field", [
    ({"checks": ["magneticCLR"]}, "checks"),        # needs the magnetic family
    ({"checks": ["diamagnetic"]}, "checks"),
    ({"checks": ["gsrIdentity"]}, "checks"),        # needs the periodic family
    ({"checks": [], "heat_nash": True, "exponents": {}}, "exponents.kappa"),
])
def test_validate_rejects_what_a_check_cannot_run_on(over, field):
    cfg = {"schema": 1, "scenarios": [minimal_scenario(**over)]}
    with pytest.raises(ConfigError, match=re.escape(f"scenario 'unit-mini'.{field}:")):
        validate_config(cfg)


def test_lt_moment_alone_matches_lt_moment_after_weak_lt():
    common = {"exponents": {"gamma": 1.0, "kappa": 1.5, "gamma_tilde": 2.0}}
    alone = run_scenario(minimal_scenario(checks=["LTmoment"], **common)).reports
    paired = run_scenario(minimal_scenario(checks=["weakLT", "LTmoment"], **common)).reports
    paired = [r for r in paired if r.tag == "LTmoment"]
    assert [(r.status, r.lhs, r.rhs) for r in alone] == \
        [(r.status, r.lhs, r.rhs) for r in paired]
    assert alone and all(r.status == "pass" for r in alone)


def test_run_scenario_empty_checks():
    res = run_scenario(minimal_scenario(checks=[]))
    assert res.reports == []
    assert not res.failed


def test_run_scenario_counting_suite():
    sc = minimal_scenario(checks=["CLR"], heat_nash=True,
                          exponents={"gamma": 1.0, "kappa": 1.5, "gamma_tilde": 2.0})
    res = run_scenario(sc)
    assert [r.tag for r in res.reports] == ["CLR", "heatBound", "heatBound", "nash"]
    assert res.scenario_id == "unit-mini"
    assert all(r.status == "pass" for r in res.reports)
    assert res.constants.S > 0.0
    assert res.constants.provenance["S"] == "minimized"
    assert res.assumptions["beurling_deny"] is True


def test_run_scenario_deterministic():
    sc = minimal_scenario(checks=["CLR", "weakLT", "LTmoment"],
                          exponents={"gamma": 1.0, "kappa": 1.5, "gamma_tilde": 2.0})
    a = run_scenario_jsonable(copy.deepcopy(sc))
    b = run_scenario_jsonable(copy.deepcopy(sc))
    assert a == b
    assert a == run_scenario(copy.deepcopy(sc)).to_jsonable()


def test_run_scenario_torus_counting_is_vacuous():
    sc = minimal_scenario(lattice={"d": 1, "extents": [8], "h": 1.0, "bc": "periodic"})
    res = run_scenario(sc)
    assert [r.status for r in res.reports] == ["vacuous"]
    assert res.constants.S == 0.0


# --- one T - V spectrum per draw ----------------------------------------------

def _bundled(sid):
    return next(sc for sc in _load_config("paper-suite")["scenarios"] if sc["id"] == sid)


def _count_spectra(monkeypatch, sc):
    calls = []
    original = spectra.schrodinger_eigenvalues

    def counted(T, V):
        calls.append(T)
        return original(T, V)

    monkeypatch.setattr(spectra, "schrodinger_eigenvalues", counted)
    return run_scenario(sc), calls


def _n_draws(sc):
    pot = sc["potential"]
    return len(pot["sigmas"]) * pot["draws"]


def test_checks_share_one_spectrum_per_draw(monkeypatch):
    sc = _bundled("clr-1d-n32")
    res, calls = _count_spectra(monkeypatch, sc)
    # every draw check reads T - V once; each adversarial coupling is its own T - V
    assert len(calls) == _n_draws(sc) + len(sc["potential"]["adversarial"])
    # the heat_nash block reads no T - V spectrum
    assert {r.tag for r in res.reports} == set(sc["checks"]) | {"heatBound", "nash"}


def test_magnetic_draw_computes_one_spectrum_per_operator(monkeypatch):
    sc = _bundled("magclr-4x4-flux-pi2")
    res, calls = _count_spectra(monkeypatch, sc)
    n = _n_draws(sc)
    # CLR reads T - V and magneticCLR reads T_A - V, once each per draw
    assert len(calls) == 2 * n
    assert len({id(T) for T in calls}) == 2
    assert sum(r.tag == "magneticCLR" and r.status == "pass" for r in res.reports) == n


def test_magnetic_clr_alone_computes_no_nonmagnetic_spectrum(monkeypatch):
    sc = copy.deepcopy(_bundled("magclr-4x4-flux-pi2"))
    sc["checks"] = ["magneticCLR"]
    res, calls = _count_spectra(monkeypatch, sc)
    n = _n_draws(sc)
    # one T_A - V spectrum per draw, and none of T - V
    assert len(calls) == n and len({id(T) for T in calls}) == 1
    assert not calls[0].is_real
    assert [r.tag for r in res.reports] == ["magneticCLR"] * n + ["heatBound", "heatBound", "nash"]


def test_vacuous_draw_checks_compute_no_spectrum(monkeypatch):
    sc = copy.deepcopy(_bundled("periodic-1d-n1024"))
    sc["lattice"]["extents"] = [32]
    sc["checks"] = ["weakLT"]
    res, calls = _count_spectra(monkeypatch, sc)
    assert [r.status for r in res.reports] == ["vacuous"] * _n_draws(sc)
    assert calls == []


def test_banded_draw_counts_by_inertia_computes_no_spectrum(monkeypatch):
    # 256 sites make 8 inertia blocks: the CLR count of every draw is decided
    # by the inertia pass, so no draw computes its T - V spectrum
    sc = minimal_scenario(lattice={"d": 1, "extents": [256], "h": 1.0, "bc": "dirichlet"},
                          potential={"seed": 5, "sigmas": [0.1, 1.0], "draws": 2})
    res, calls = _count_spectra(monkeypatch, sc)
    assert calls == []
    assert [r.status for r in res.reports] == ["pass"] * 4
    T = build_laplacian(make_lattice(d=1, extents=256))
    draws = dict(_draw_potentials(T, validate_scenario(sc)["potential"], positive_floor=False))
    for r in res.reports:
        V = draws[r.extras["potential"]]
        want = spectra.count_from_eigenvalues(np.linalg.eigvalsh(T.sym() - np.diag(V)), 0.0)
        assert (r.lhs, r.ties) == (float(want.n), [])


# --- the heat-kernel and Nash reports -----------------------------------------

def test_heat_nash_reports_carry_the_heat_and_nash_verdicts():
    T = path_op(16)
    kappa = 1.5
    q = exponents_from_gamma_kappa(0.0, kappa).q
    S, _ = sobolev_constant(T, q)
    reports, hb = verify_heat_nash(T, kappa, S, scenario_id="p", grid_points=30,
                                   nash_samples=500, bd=beurling_deny_check(T))
    assert [(r.tag, r.status, r.extras.get("norm")) for r in reports] == [
        ("heatBound", "pass", "1->inf"), ("heatBound", "pass", "1->2"), ("nash", "pass", None)]
    want = functional.heat_bound_check(T, kappa, S, grid_points=30)
    assert (reports[0].lhs, reports[0].rhs) == (want.K_measured, want.K_bound) == \
        (hb.K_measured, hb.K_bound)
    assert (reports[1].lhs, reports[1].rhs) == (want.K12_measured, want.K12_bound)
    nr = functional.nash_check(T, q, S, n_samples=500)
    assert (reports[2].lhs, reports[2].rhs) == (-nr.min_slack_rel, 0.0)

    # the pass rules: 1e-8 relative for the heat bounds, 1e-10
    # for the Nash bound; the heat bounds need Beurling-Deny, Nash does not
    for slack, status in ((0.99e-8, "pass"), (1.01e-8, "fail")):
        r = make_report("p", "heatBound", 2.0 * (1.0 + slack), 2.0, rel=HEAT_REL)
        assert r.status == status
    for shortfall, status in ((0.99e-10, "pass"), (1.01e-10, "fail")):
        r = make_report("p", "nash", shortfall, 0.0, scale=1.0, rel=NASH_REL)
        assert r.status == status
    A = T.form.copy()
    A[0, 1] = A[1, 0] = -A[0, 1]          # a gauge of the path: same spectrum
    flipped = KineticOperator(T.space, A)
    bd = beurling_deny_check(flipped)
    assert not bd.passed
    reports, _ = verify_heat_nash(flipped, kappa, S, bd=bd, grid_points=30, nash_samples=500)
    assert [r.status for r in reports] == ["not-applicable", "not-applicable", "pass"]

    reports, hb = verify_heat_nash(path_op(8, bc="periodic"), kappa, 0.0)
    assert hb is None
    assert [(r.tag, r.status, r.extras["reason"]) for r in reports] == [
        (tag, "vacuous", "S = 0 (operator has kernel)")
        for tag in ("heatBound", "heatBound", "nash")]


def test_tenfold_sobolev_constant_fails_heat_and_nash(monkeypatch, tmp_path, capsys):
    """With S replaced by 10 S on clr-2d-8x8, both heat bounds and the Nash
    bound fail (measured 19.7 and 19.6 times the heat bounds, Nash shortfall
    0.31), and verify exits 1."""
    sc = copy.deepcopy(_bundled("clr-2d-8x8"))
    sc["checks"] = []
    original = functional.sobolev_constant

    def tenfold(T, q, **kw):
        S, trace = original(T, q, **kw)
        return 10.0 * S, trace

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": 1, "scenarios": [sc]}))
    argv = ["verify", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    monkeypatch.setattr(functional, "sobolev_constant", tenfold)
    assert cli.main(argv) == 1
    assert "3 fail (heatBound; nash)" in capsys.readouterr().out
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [(r["tag"], r["status"]) for r in payload["results"][0]["reports"]] == [
        ("heatBound", "fail"), ("heatBound", "fail"), ("nash", "fail")]
