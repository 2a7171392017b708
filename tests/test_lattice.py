"""Lattice construction, integrals, and the exponent relations."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ineqlab import (ExponentSet, build_laplacian, build_magnetic_laplacian,
                     exponents_from_gamma_kappa, integral, make_lattice, random_phases,
                     uniform_flux_phases)
from ineqlab.lattice import as_potential, as_weight
from oracles import exponents_from_q_theta


def site_index(sp):
    """Site index by integer coordinates."""
    return {tuple(c): i for i, c in enumerate(sp.coords.tolist())}


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
    corner = site_index(sp)[(0, 0)]
    center = site_index(sp)[(1, 1)]
    assert sp.boundary_counts[corner] == 2
    assert sp.boundary_counts[center] == 0


def test_exclusion_becomes_ghost_under_both_bcs():
    for bc in ("dirichlet", "periodic"):
        sp = make_lattice(d=2, extents=3, bc=bc, exclusions=[(1, 1)])
        assert sp.n == 8
        index = site_index(sp)
        assert (1, 1) not in index
        # each edge-neighbor of the removed site picks up one penalty slot
        for c in [(0, 1), (2, 1), (1, 0), (1, 2)]:
            i = index[c]
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


# --- array builds against the per-site and per-edge loops they replaced ---

def loop_lattice(d, ext, bc, excl):
    """Sites, +axis edges and ghost-slot counts by one pass over every site
    and every neighbour slot: the reference for make_lattice."""
    excl_set = set(excl)
    sites = [c for c in itertools.product(*(range(e) for e in ext)) if c not in excl_set]
    index = {c: i for i, c in enumerate(sites)}
    edges = []
    boundary = np.zeros(len(sites), dtype=np.int64)
    for c, i in index.items():
        for axis in range(d):
            for step in (+1, -1):
                nb = list(c)
                nb[axis] += step
                wrapped = False
                if bc == "periodic":
                    nb[axis] %= ext[axis]
                    wrapped = True
                nbt = tuple(nb)
                inside = wrapped or (0 <= nbt[axis] < ext[axis])
                if not inside or nbt in excl_set:
                    boundary[i] += 1
                    continue
                if nbt == c:
                    continue  # periodic extent-1 axis folds onto itself
                if step == +1:
                    edges.append((i, index[nbt]))
    edges = np.array(edges, dtype=np.int64) if edges else np.zeros((0, 2), dtype=np.int64)
    return np.array(sites, dtype=np.int64), edges, boundary


def loop_form(space, edge_factors=None):
    """The form matrix by one pass over the edges in edge order."""
    n = space.n
    complex_entries = edge_factors is not None and np.iscomplexobj(edge_factors)
    A = np.zeros((n, n), dtype=np.complex128 if complex_entries else np.float64)
    for k in range(space.edges.shape[0]):
        x, y = space.edges[k]
        w = space.edge_weights[k]
        fac = 1.0 if edge_factors is None else edge_factors[k]
        A[x, x] += w
        A[y, y] += w
        A[x, y] -= w * fac
        A[y, x] -= w * np.conj(fac)
    A[np.arange(n), np.arange(n)] += space.h ** (space.d - 2) * space.boundary_counts
    return A


def loop_flux_phases(space, flux):
    phases = np.zeros(space.edges.shape[0])
    for k in range(space.edges.shape[0]):
        x, y = space.edges[k]
        cx, cy = space.coords[x], space.coords[y]
        if (cy[1] - cx[1]) % space.extents[1] != 0:  # axis-1 edge
            phases[k] = flux * cx[0]
    return phases


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


@st.composite
def lattices(draw):
    d = draw(st.integers(1, 3))
    ext = tuple(draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
    sites = list(itertools.product(*(range(e) for e in ext)))
    # repeats included: make_lattice keeps the first of each
    excl = draw(st.lists(st.sampled_from(sites), max_size=min(6, len(sites) - 1)))
    if len(set(excl)) == len(sites):
        excl = excl[:-1]
    bc = draw(st.sampled_from(["dirichlet", "periodic"]))
    h = draw(st.sampled_from([1.0, 0.7, 0.3, 2.5]))
    return d, ext, bc, excl, h


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=lattices(), seed=st.integers(0, 2**16))
def test_array_builds_match_the_loops_bit_for_bit(case, seed):
    d, ext, bc, excl, h = case
    sp = make_lattice(d, ext, h=h, bc=bc, exclusions=excl)
    coords, edges, boundary = loop_lattice(d, ext, bc, set(map(tuple, excl)))
    assert sp.excluded == tuple(dict.fromkeys(map(tuple, excl)))
    assert same_bits(sp.coords, coords)
    assert same_bits(sp.edges, edges)
    assert same_bits(sp.boundary_counts, boundary)
    assert same_bits(sp.measures, np.full(len(coords), h**d))
    assert same_bits(sp.edge_weights, np.full(len(edges), h ** (d - 2)))
    # real forms, and complex forms with random and with zero phases, whose
    # diagonal and doubled periodic bonds each sum several edges
    assert same_bits(build_laplacian(sp).form, loop_form(sp))
    phases = random_phases(sp, seed)
    assert same_bits(build_magnetic_laplacian(sp, phases).form,
                     loop_form(sp, np.exp(1j * phases)))
    assert same_bits(build_magnetic_laplacian(sp, 0.0 * phases).form,
                     loop_form(sp).astype(np.complex128))
    if d == 2:
        assert same_bits(uniform_flux_phases(sp, 0.37), loop_flux_phases(sp, 0.37))


def test_lp_norm_and_integral():
    # ||u||_p = (int |u|^p)^(1/p)
    sp = make_lattice(d=2, extents=(2, 3), h=0.5)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(sp.n)
    m = sp.measures
    for p in (1.0, 2.0, 3.5):
        want = (m * np.abs(u) ** p).sum() ** (1.0 / p)
        assert integral(np.abs(u), p, sp) ** (1.0 / p) == pytest.approx(want, rel=1e-14)
    V = np.abs(u)
    assert integral(V, 1.5, sp) == pytest.approx((m * V**1.5).sum(), rel=1e-14)
    with pytest.raises(ValueError):
        integral(V, 0.0, sp)
    with pytest.raises(ValueError):
        integral(np.full(sp.n, np.nan), 2, sp)


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
