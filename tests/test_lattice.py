"""Lattice construction, norms, and the exponent relations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ineqlab import (ExponentSet, exponents_from_gamma_kappa,
                     exponents_from_q_theta, integral, lp_norm, make_lattice)
from ineqlab.lattice import as_potential, as_weight


def test_path_counts():
    sp = make_lattice(d=1, extents=5)
    assert sp.n == 5
    assert len(sp.edges) == 4
    # one ghost slot at each end, none in the middle
    assert list(sp.boundary_counts) == [1, 0, 0, 0, 1]


def test_ring_counts():
    sp = make_lattice(d=1, extents=5, bc="periodic")
    assert sp.n == 5
    assert len(sp.edges) == 5
    assert not sp.boundary_counts.any()
    pairs = {frozenset(e) for e in sp.edges.tolist()}
    assert frozenset((4, 0)) in pairs


def test_periodic_extent_two_doubles_the_bond():
    sp = make_lattice(d=1, extents=2, bc="periodic")
    assert len(sp.edges) == 2
    assert all(frozenset(e) == frozenset((0, 1)) for e in sp.edges.tolist())


def test_periodic_extent_one_axis_folds():
    sp = make_lattice(d=2, extents=(1, 4), bc="periodic")
    assert sp.n == 4
    # the length-1 axis contributes neither edges nor boundary slots
    assert len(sp.edges) == 4
    assert not sp.boundary_counts.any()


def test_grid_2d_counts():
    sp = make_lattice(d=2, extents=3)
    assert sp.n == 9
    assert len(sp.edges) == 12
    corner = sp.index_of((0, 0))
    center = sp.index_of((1, 1))
    assert sp.boundary_counts[corner] == 2
    assert sp.boundary_counts[center] == 0


def test_exclusion_becomes_ghost_under_both_bcs():
    for bc in ("dirichlet", "periodic"):
        sp = make_lattice(d=2, extents=3, bc=bc, exclusions=[(1, 1)])
        assert sp.n == 8
        with pytest.raises(KeyError):
            sp.index_of((1, 1))
        # each edge-neighbor of the removed site picks up one penalty slot
        for c in [(0, 1), (2, 1), (1, 0), (1, 2)]:
            i = sp.index_of(c)
            if bc == "periodic":
                assert sp.boundary_counts[i] == 1
            else:
                assert sp.boundary_counts[i] >= 1


def test_h_scaling():
    sp1 = make_lattice(d=1, extents=4, h=0.5)
    assert sp1.edge_weights[0] == pytest.approx(2.0)     # h^(d-2) = 1/h
    assert sp1.measures[0] == pytest.approx(0.5)
    sp3 = make_lattice(d=3, extents=2, h=0.5)
    assert sp3.edge_weights[0] == pytest.approx(0.5)
    assert sp3.measures[0] == pytest.approx(0.125)
    sp2 = make_lattice(d=2, extents=2, h=0.7)
    assert sp2.edge_weights[0] == pytest.approx(1.0)


def test_make_lattice_rejects_bad_input():
    with pytest.raises(ValueError):
        make_lattice(d=0, extents=3)
    with pytest.raises(ValueError):
        make_lattice(d=1, extents=0)
    with pytest.raises(ValueError):
        make_lattice(d=1, extents=3, h=0.0)
    with pytest.raises(ValueError):
        make_lattice(d=1, extents=3, bc="neumann")
    with pytest.raises(ValueError):
        make_lattice(d=2, extents=2, exclusions=[(5, 0)])
    with pytest.raises(ValueError):
        make_lattice(d=1, extents=1, exclusions=[(0,)])
    with pytest.raises(ValueError):
        make_lattice(d=2, extents=(2, 2, 2))


def test_index_roundtrip():
    sp = make_lattice(d=2, extents=(3, 4), exclusions=[(2, 3)])
    for i, c in enumerate(sp.coords):
        assert sp.index_of(tuple(c)) == i


def test_lp_norm_and_integral():
    sp = make_lattice(d=2, extents=(2, 3), h=0.5)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(sp.n)
    m = sp.measures
    for p in (1.0, 2.0, 3.5):
        want = (m * np.abs(u) ** p).sum() ** (1.0 / p)
        assert lp_norm(u, p, sp) == pytest.approx(want, rel=1e-14)
    assert lp_norm(u, math.inf, sp) == pytest.approx(np.abs(u).max())
    V = np.abs(u)
    assert integral(V, 1.5, sp) == pytest.approx((m * V**1.5).sum(), rel=1e-14)
    assert integral(V, 1.5, sp) == pytest.approx(lp_norm(V, 1.5, sp) ** 1.5, rel=1e-13)
    with pytest.raises(ValueError):
        lp_norm(u, 0.5, sp)
    with pytest.raises(ValueError):
        integral(V, 0.0, sp)
    with pytest.raises(ValueError):
        lp_norm(np.full(sp.n, np.nan), 2, sp)


def test_potential_and_weight_validation():
    sp = make_lattice(d=1, extents=3)
    with pytest.raises(ValueError):
        as_potential(sp, [1.0, -0.1, 0.0])
    with pytest.raises(ValueError):
        as_potential(sp, [1.0, 2.0])
    with pytest.raises(ValueError):
        as_weight(sp, [1.0, 0.0, 2.0])
    assert as_potential(sp, [0.0, 1.0, 2.0]).dtype == np.float64


def test_exponent_relations_exact_case():
    e = exponents_from_gamma_kappa(1.0, 1.5)
    assert e.q == pytest.approx(10.0 / 3.0, rel=1e-15)
    assert e.theta == pytest.approx(0.6, rel=1e-15)
    back = exponents_from_q_theta(e.q, e.theta)
    assert back.gamma == pytest.approx(1.0, rel=1e-12)
    assert back.kappa == pytest.approx(1.5, rel=1e-12)


def test_counting_case_theta_one():
    e = exponents_from_gamma_kappa(0.0, 1.5)
    assert e.theta == 1.0
    assert e.q == pytest.approx(6.0, rel=1e-15)


@given(st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.05, max_value=6.0))
def test_exponent_roundtrip_property(gamma, kappa):
    if gamma + kappa <= 1.0 + 1e-9:
        return
    e = exponents_from_gamma_kappa(gamma, kappa)
    back = exponents_from_q_theta(e.q, e.theta)
    assert back.gamma == pytest.approx(gamma, rel=1e-12, abs=1e-12)
    assert back.kappa == pytest.approx(kappa, rel=1e-12)
    assert e.q > 2.0 and 0.0 < e.theta <= 1.0


def test_exponent_validation():
    with pytest.raises(ValueError):
        exponents_from_gamma_kappa(-0.5, 2.0)
    with pytest.raises(ValueError):
        exponents_from_gamma_kappa(0.5, 0.5)      # gamma + kappa <= 1
    with pytest.raises(ValueError):
        exponents_from_q_theta(2.0, 0.5)          # q must exceed 2
    with pytest.raises(ValueError):
        exponents_from_q_theta(4.0, 1.5)
    with pytest.raises(ValueError):
        ExponentSet(gamma=1.0, kappa=1.5, q=4.0, theta=0.6)   # inconsistent
