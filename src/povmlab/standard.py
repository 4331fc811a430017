"""Ready-made POVMs and ensembles used throughout tests and the CLI."""

from __future__ import annotations

import numpy as np

from .hs import DEFAULT_TOL, Tolerances
from .povm import Ensemble, Observable, Povm, spectral_povm

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# Regular tetrahedron on the Bloch sphere with the first vertex at the north
# pole; pairwise overlaps n_i . n_j = -1/3.
TETRAHEDRON = np.array(
    [
        [0.0, 0.0, 1.0],
        [2.0 * np.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0],
        [-np.sqrt(2.0) / 3.0, np.sqrt(2.0 / 3.0), -1.0 / 3.0],
        [-np.sqrt(2.0) / 3.0, -np.sqrt(2.0 / 3.0), -1.0 / 3.0],
    ]
)


def bloch_vector_operator(n) -> np.ndarray:
    """The operator ``n . sigma`` for a 3-vector n."""
    n = np.asarray(n, dtype=float)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def sic_povm(tol: Tolerances = DEFAULT_TOL) -> Povm:
    """Qubit symmetric informationally complete POVM ``(1/4)(1 + n_i . sigma)``."""
    elements = [0.25 * (I2 + bloch_vector_operator(n)) for n in TETRAHEDRON]
    return Povm(elements, labels=list(range(4)), tol=tol)


def projective_povm(axis, tol: Tolerances = DEFAULT_TOL) -> Povm:
    """Two-outcome projective measurement along a Bloch axis ('x','y','z' or 3-vector)."""
    if isinstance(axis, str):
        axis = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[axis]
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    op = bloch_vector_operator(n)
    return Povm([0.5 * (I2 + op), 0.5 * (I2 - op)], labels=[+1, -1], tol=tol)


def trine_povm(offset: float = 0.0, tol: Tolerances = DEFAULT_TOL) -> Povm:
    """Three symmetric rank-one outcomes in the xy-plane of the Bloch sphere."""
    elements = []
    for k in range(3):
        phi = offset + 2.0 * np.pi * k / 3.0
        n = (np.cos(phi), np.sin(phi), 0.0)
        elements.append((1.0 / 3.0) * (I2 + bloch_vector_operator(n)))
    return Povm(elements, tol=tol)


def six_state_ensemble(tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """Uniform ensemble over the six Pauli eigenstates; barycenter 1/2."""
    states = []
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        states.append(0.5 * (I2 + sigma))
        states.append(0.5 * (I2 - sigma))
    return Ensemble(np.full(6, 1.0 / 6.0), states, tol=tol)


def maximally_mixed_ensemble(dim: int = 2, tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """Single-state ensemble holding only the maximally mixed state."""
    return Ensemble([1.0], [np.eye(dim, dtype=complex) / dim], tol=tol)


ENSEMBLE_PRESETS = {
    "isotropic-six-state": six_state_ensemble,
    "six-state": six_state_ensemble,
    "maximally-mixed-only": maximally_mixed_ensemble,
}


def pauli_observable(axis: str, tol: Tolerances = DEFAULT_TOL) -> Observable:
    sigma = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}[axis]
    return Observable(sigma, tol=tol)


def pauli_projective(axis: str, tol: Tolerances = DEFAULT_TOL) -> Povm:
    return spectral_povm(pauli_observable(axis, tol))
