"""Finite lattice measure spaces, weighted norms, and exponent algebra.

A lattice space is a finite set of integer-coordinate sites with cell
measure h^d per site and nearest-neighbor adjacency.  All integrals are
plain weighted sums in a fixed lexicographic site order, which anchors
determinism for everything downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-12

_BCS = ("dirichlet", "periodic")


@dataclass(frozen=True, eq=False)
class LatticeSpace:
    """Finite measure space on a d-dimensional grid.

    coords hold the live sites in lexicographic order; edges are stored
    oriented from each site to its +axis neighbor (so a 2-site periodic
    axis yields the same unordered pair twice, keeping every periodic
    site at exactly 2d neighbor slots).  boundary_counts records, per
    site, how many neighbor slots fall outside the live set; those
    slots become Dirichlet penalty terms in the kinetic form.
    """

    d: int
    extents: tuple[int, ...]
    h: float
    bc: str
    coords: np.ndarray          # (n, d) int
    measures: np.ndarray        # (n,) positive
    edges: np.ndarray           # (E, 2) int site indices, oriented source -> +axis target
    edge_weights: np.ndarray    # (E,) positive
    boundary_counts: np.ndarray  # (n,) int
    excluded: tuple[tuple[int, ...], ...] = ()

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def index_of(self, coord) -> int:
        """Index of a site given its integer coordinates."""
        key = tuple(int(c) for c in coord)
        idx = self._index_map().get(key)
        if idx is None:
            raise KeyError(f"no live site at coordinates {key}")
        return idx

    def _index_map(self) -> dict:
        cache = getattr(self, "_idx_cache", None)
        if cache is None:
            cache = {tuple(int(c) for c in row): i for i, row in enumerate(self.coords)}
            object.__setattr__(self, "_idx_cache", cache)
        return cache


def make_lattice(d, extents, h=1.0, bc="dirichlet", exclusions=()) -> LatticeSpace:
    """Build a d-dimensional grid with spacing h and the given boundary condition.

    extents may be a single int (applied to every axis) or one int per
    axis.  exclusions is an iterable of coordinate tuples removed from
    the site set; edges into an excluded site are treated as Dirichlet
    penalty slots regardless of bc.
    """
    d = int(d)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if np.isscalar(extents):
        ext = (int(extents),) * d
    else:
        ext = tuple(int(e) for e in extents)
    if len(ext) != d:
        raise ValueError(f"expected {d} extents, got {len(ext)}")
    if any(e < 1 for e in ext):
        raise ValueError(f"every extent must be >= 1, got {ext}")
    h = float(h)
    if not h > 0.0:
        raise ValueError(f"spacing h must be positive, got {h}")
    if bc not in _BCS:
        raise ValueError(f"bc must be one of {_BCS}, got {bc!r}")

    excl = []
    for c in exclusions:
        key = tuple(int(v) for v in c)
        if len(key) != d:
            raise ValueError(f"exclusion {key} has wrong dimension (expected {d})")
        if any(not (0 <= key[a] < ext[a]) for a in range(d)):
            raise ValueError(f"exclusion {key} lies outside the grid {ext}")
        if key not in excl:
            excl.append(key)
    excl_set = set(excl)

    sites = [c for c in itertools.product(*(range(e) for e in ext)) if c not in excl_set]
    if not sites:
        raise ValueError("no live sites remain after exclusions")
    index = {c: i for i, c in enumerate(sites)}
    n = len(sites)

    w_edge = h ** (d - 2)
    edges = []
    boundary = np.zeros(n, dtype=np.int64)
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

    edges_arr = (
        np.array(edges, dtype=np.int64) if edges else np.zeros((0, 2), dtype=np.int64)
    )
    space = LatticeSpace(
        d=d,
        extents=ext,
        h=h,
        bc=bc,
        coords=np.array(sites, dtype=np.int64),
        measures=np.full(n, h**d, dtype=np.float64),
        edges=edges_arr,
        edge_weights=np.full(len(edges), w_edge, dtype=np.float64),
        boundary_counts=boundary,
        excluded=tuple(excl),
    )
    return space


def _measure_vector(space: LatticeSpace, measure) -> np.ndarray:
    m = space.measures if measure is None else np.asarray(measure, dtype=np.float64)
    if m.shape != (space.n,):
        raise ValueError(f"measure has shape {m.shape}, expected ({space.n},)")
    return m


def as_potential(space: LatticeSpace, values) -> np.ndarray:
    """Validate values as a nonnegative real potential."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (space.n,):
        raise ValueError(f"potential has shape {v.shape}, expected ({space.n},)")
    if not np.all(np.isfinite(v)):
        raise ValueError("potential values must be finite")
    if np.any(v < 0.0):
        raise ValueError("potential values must be nonnegative")
    return v


def as_weight(space: LatticeSpace, values) -> np.ndarray:
    """Validate values as a strictly positive weight."""
    w = np.asarray(values, dtype=np.float64)
    if w.shape != (space.n,):
        raise ValueError(f"weight has shape {w.shape}, expected ({space.n},)")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight values must be finite")
    if np.any(w <= 0.0):
        raise ValueError("weight values must be strictly positive")
    return w


def lp_norm(u, p, space: LatticeSpace, *, measure=None) -> float:
    """Weighted L^p norm (sum_x m_x |u_x|^p)^(1/p); p = inf gives max |u|."""
    m = _measure_vector(space, measure)
    u = np.asarray(u)
    if not np.all(np.isfinite(u)):
        raise ValueError("lp_norm requires finite values")
    if np.isinf(p):
        return float(np.max(np.abs(u))) if u.size else 0.0
    p = float(p)
    if p < 1.0:
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    return float(np.sum(m * np.abs(u) ** p) ** (1.0 / p))


def integral(V, p, space: LatticeSpace, *, measure=None) -> float:
    """Weighted power integral sum_x m_x V_x^p for p > 0."""
    m = _measure_vector(space, measure)
    V = np.asarray(V, dtype=np.float64)
    if not np.all(np.isfinite(V)):
        raise ValueError("integral requires finite values")
    p = float(p)
    if not p > 0.0:
        raise ValueError(f"integral exponent must be positive, got {p}")
    return float(np.sum(m * V**p))


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class ExponentSet:
    """Parameter bundle (gamma, kappa, q, theta) with both relation sets enforced.

    gamma = q(1-theta)/(q-2) and kappa = q*theta/(q-2), equivalently
    q = 2(gamma+kappa)/(gamma+kappa-1) and theta = kappa/(gamma+kappa).
    gamma = 0 corresponds to theta = 1 (the pure counting case).
    """

    gamma: float
    kappa: float
    q: float
    theta: float

    def __post_init__(self):
        g, k, q, th = self.gamma, self.kappa, self.q, self.theta
        if g < 0.0:
            raise ValueError(f"gamma must be >= 0, got {g}")
        if not k > 0.0:
            raise ValueError(f"kappa must be > 0, got {k}")
        if not q > 2.0:
            raise ValueError(f"q must be > 2, got {q}")
        if not (0.0 < th <= 1.0):
            raise ValueError(f"theta must lie in (0, 1], got {th}")
        if not g + k > 1.0:
            raise ValueError(f"gamma + kappa must exceed 1, got {g + k}")
        checks = (
            (g, q * (1.0 - th) / (q - 2.0)),
            (k, q * th / (q - 2.0)),
            (q, 2.0 * (g + k) / (g + k - 1.0)),
            (th, k / (g + k)),
        )
        for got, want in checks:
            if _rel_err(got, want) > REL_TOL:
                raise ValueError(
                    f"inconsistent exponent set gamma={g}, kappa={k}, q={q}, theta={th}"
                )


def exponents_from_gamma_kappa(gamma, kappa) -> ExponentSet:
    gamma = float(gamma)
    kappa = float(kappa)
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if not kappa > 0.0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if not gamma + kappa > 1.0:
        raise ValueError(
            f"gamma + kappa must exceed 1 to form q, got {gamma + kappa}"
        )
    q = 2.0 * (gamma + kappa) / (gamma + kappa - 1.0)
    theta = kappa / (gamma + kappa)
    return ExponentSet(gamma, kappa, q, theta)


def exponents_from_q_theta(q, theta) -> ExponentSet:
    q = float(q)
    theta = float(theta)
    if not q > 2.0:
        raise ValueError(f"q must be > 2, got {q}")
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    gamma = q * (1.0 - theta) / (q - 2.0)
    kappa = q * theta / (q - 2.0)
    return ExponentSet(gamma, kappa, q, theta)
