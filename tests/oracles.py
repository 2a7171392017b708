"""Routines that only the tests read: the change-of-measure reduction, the
map from (q, theta) back to the exponents, and the continuum sharp
Sobolev constant in d = 3."""

import math
from dataclasses import dataclass

import numpy as np

from ineqlab.lattice import ExponentSet, as_weight
from ineqlab.operators import KineticOperator


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
    threshold zero are unchanged.  Requires kappa > 1, T positive
    definite and built from its row list (every nearest-neighbour
    builder); the entries omega_x A_xy omega_y round as in the dense
    product, and the row list is kept, so a large form keeps the row route.
    """
    kappa = float(kappa)
    if not kappa > 1.0:
        raise ValueError(f"weighted transform requires kappa > 1, got {kappa}")
    omega = as_weight(T.space, omega)
    if not T.is_positive_definite():
        raise ValueError("weighted transform requires a positive definite operator; "
                         "apply a shift first")
    cols, vals = T._row_form
    mu = omega ** (2.0 * kappa / (kappa - 1.0)) * T.measure
    op = KineticOperator._from_rows(T.space, (cols, omega * vals * omega[cols]), measure=mu,
                                    meta={"family": "weighted", "kappa": kappa})
    return WeightedTransform(operator=op, measure=mu, weight=omega, kappa=kappa)


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


def continuum_sobolev_d3() -> float:
    """Sharp constant of the d = 3, q = 6 gradient-vs-L6 inequality: 3 (pi/2)^(4/3).

    Used as a configured input in the factor comparison against the
    semigroup-method constant; validated by radial quadrature of the trial
    profile (1+|x|^2)^(-1/2) in acceptance criterion 1.
    """
    return 3.0 * (math.pi / 2.0) ** (4.0 / 3.0)
