"""Finite lattice measure spaces, weighted integrals, and exponent algebra.

A lattice space is a finite set of integer-coordinate sites with cell
measure h^d per site and nearest-neighbor adjacency.  All integrals are
plain weighted sums in a fixed lexicographic site order, which anchors
determinism for everything downstream.
"""

from __future__ import annotations

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
    ext = (int(extents),) * d if np.isscalar(extents) else tuple(int(e) for e in extents)
    if len(ext) != d:
        raise ValueError(f"expected {d} extents, got {len(ext)}")
    if any(e < 1 for e in ext):
        raise ValueError(f"every extent must be >= 1, got {ext}")
    h = float(h)
    if not h > 0.0:
        raise ValueError(f"spacing h must be positive, got {h}")
    if bc not in _BCS:
        raise ValueError(f"bc must be one of {_BCS}, got {bc!r}")

    excl = tuple(dict.fromkeys(tuple(int(v) for v in c) for c in exclusions))
    off_grid = [c for c in excl if len(c) != d or not all(0 <= v < e for v, e in zip(c, ext))]
    if off_grid:
        raise ValueError(f"exclusion {off_grid[0]} is not a site of the grid {ext}")

    live = np.ones(ext, dtype=bool)
    live[tuple(np.array(excl, dtype=np.int64).reshape(-1, d).T)] = False
    n = int(np.count_nonzero(live))
    if n == 0:
        raise ValueError("no live sites remain after exclusions")
    # index[c] is the position of site c in lexicographic order, -1 when
    # c is excluded; the boolean mask fills it in that order
    index = np.full(ext, -1, dtype=np.int64)
    index[live] = np.arange(n)

    # per live site, its +axis neighbour along each axis (-1 for none) and
    # the count of neighbour slots that are off the grid or excluded
    targets = np.empty((n, d), dtype=np.int64)
    boundary = np.zeros(n, dtype=np.int64)
    for axis in range(d):
        up, down = (np.roll(index, -step, axis=axis) for step in (+1, -1))
        if bc != "periodic":        # the roll wrapped the outer layers around
            np.moveaxis(up, axis, 0)[-1] = -1
            np.moveaxis(down, axis, 0)[0] = -1
        up, down = up[live], down[live]
        boundary += (up < 0).astype(np.int64) + (down < 0)
        # a periodic extent-1 axis folds each site onto itself
        targets[:, axis] = np.where(up == np.arange(n), -1, up)
    # ordered by source site, then axis
    src, axis_of = np.nonzero(targets >= 0)
    edges = np.stack((src, targets[src, axis_of]), axis=1)

    return LatticeSpace(d=d, extents=ext, h=h, bc=bc, coords=np.argwhere(live),
                        measures=np.full(n, h**d), edges=edges,
                        edge_weights=np.full(len(edges), h ** (d - 2)),
                        boundary_counts=boundary, excluded=excl)


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


def integral(V, p, space: LatticeSpace, *, measure=None) -> float:
    """Weighted power integral sum_x m_x V_x^p for p > 0."""
    m = space.measures if measure is None else np.asarray(measure, dtype=np.float64)
    if m.shape != (space.n,):
        raise ValueError(f"measure has shape {m.shape}, expected ({space.n},)")
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
