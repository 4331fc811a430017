"""Closed-form qubit analysis for joint noisy x/y Pauli estimation.

A qubit POVM is written element-wise as
``P_i = alpha_i 1 + beta_i sx + gamma_i sy + delta_i sz``.  For POVMs
supported on the x-y plane (``delta_i = 0``) the minimum ensemble error
for the rotated targets ``s_pm(theta) = cos(theta) sx +- sin(theta) sy``
under an isotropic ensemble reduces to scalar noise quantities

    B = 2 sum beta_i^2/alpha_i,  G = 2 sum gamma_i^2/alpha_i,
    Dlt = -2 sum beta_i gamma_i / alpha_i,  Dtm = B*G - Dlt^2,

from which the per-target errors, their sum, the family-independent
lower bound ``2 (1 + sin 2 theta - kappa)`` and the bound-achieving
three- and four-outcome measurement families all follow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hs import DEFAULT_TOL, Tolerances
from .povm import Ensemble, Povm
from .standard import I2, SIGMA_X, SIGMA_Y, SIGMA_Z

_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class NotIsotropicError(ValueError):
    """The ensemble barycenter is not the maximally mixed state."""


class DegenerateNoiseError(ValueError):
    """The noise matrix is singular: the POVM cannot estimate both rotated targets."""


class ZeroAlphaWarning(UserWarning):
    """Trace-zero elements were dropped before forming the noise quantities."""


class DegeneratePovmWarning(UserWarning):
    """An endpoint of the theta range produced a degenerate measurement."""


def bloch_coefficients(P: Povm) -> np.ndarray:
    """The ``(N, 4)`` rows ``(alpha, beta, gamma, delta)`` of a qubit POVM, ``Re Tr[m s]/2``."""
    if P.dim != 2:
        raise ValueError("Bloch coordinates exist for qubit POVMs only")
    return np.array([
        [float(np.real(np.trace(m @ basis))) / 2.0 for basis in (I2,) + _PAULIS]
        for m in P.elements
    ])


def bloch_povm(rows, tol: Tolerances = DEFAULT_TOL) -> Povm:
    """The validated qubit POVM with elements ``a 1 + b sx + g sy + d sz``, one per row."""
    return Povm(
        [a * I2 + b * SIGMA_X + g * SIGMA_Y + d * SIGMA_Z for a, b, g, d in rows],
        tol=tol,
    )


def sigma_pm(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The rotated targets ``cos(theta) sx +- sin(theta) sy``.

    They commute only at the range endpoints; outside ``(0, pi/2)`` a
    warning is emitted but the operators are still returned.
    """
    if not (0.0 < theta < np.pi / 2.0):
        warnings.warn(
            f"theta={theta!r} is outside (0, pi/2); the two targets degenerate",
            DegeneratePovmWarning,
            stacklevel=2,
        )
    plus = np.cos(theta) * SIGMA_X + np.sin(theta) * SIGMA_Y
    minus = np.cos(theta) * SIGMA_X - np.sin(theta) * SIGMA_Y
    return plus, minus


def error_bound(theta: float, kappa: float) -> float:
    """Joint-error lower bound ``2 (1 + sin 2 theta - kappa)``.

    ``kappa`` is the ensemble second-moment offset
    ``(avg<s_plus>^2 + avg<s_minus>^2) / 2``; no x-y plane POVM can estimate
    both rotated targets with a total ensemble error below this value.
    """
    return 2.0 * (1.0 + np.sin(2.0 * theta) - kappa)


@dataclass(frozen=True)
class NoiseSummary:
    """Scalar summary of a planar qubit POVM's joint estimation performance."""

    theta: float
    B: float
    Gamma: float
    Delta: float
    Dtm: float
    kappa: float
    error_plus: float
    error_minus: float
    total_error: float
    bound: float


def noise_quantities(P: Povm, ensemble: Ensemble, theta: float) -> NoiseSummary:
    """Noise quantities and joint error of a planar POVM at angle ``theta``.

    Parameters
    ----------
    P:
        Qubit POVM with all elements in the x-y plane (``delta_i = 0``);
        its ``tol`` sets every threshold.
    ensemble:
        State ensemble whose barycenter must be the maximally mixed state.
    theta:
        Angle of the rotated targets ``s_pm(theta)``.

    Raises
    ------
    NotIsotropicError
        If the ensemble barycenter differs from 1/2.
    DegenerateNoiseError
        If ``B*Gamma - Delta^2`` vanishes, as at the ends of (0, pi/2).
    ValueError
        If some element leaves the x-y plane; the scalar reduction does
        not apply then (use the general minimum-error routine instead).
    """
    tol = P.tol
    if float(np.linalg.norm(ensemble.barycenter - 0.5 * I2)) > tol.lin_solve:
        raise NotIsotropicError(
            "noise quantities assume an isotropic ensemble (barycenter 1/2)"
        )
    coeffs = bloch_coefficients(P)
    if np.any(np.abs(coeffs[:, 3]) > tol.lin_solve):
        raise ValueError(
            "POVM has sigma_z components; the planar noise reduction does not apply"
        )
    live = coeffs[:, 0] > tol.eig_zero
    if not np.all(live):
        warnings.warn(
            f"dropping {int(np.count_nonzero(~live))} trace-zero element(s) "
            "before forming B/Gamma/Delta",
            ZeroAlphaWarning,
            stacklevel=2,
        )
        coeffs = coeffs[live]
    alpha, beta, gamma = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    B = 2.0 * float(np.sum(beta ** 2 / alpha))
    Gamma = 2.0 * float(np.sum(gamma ** 2 / alpha))
    Delta = -2.0 * float(np.sum(beta * gamma / alpha))
    Dtm = B * Gamma - Delta ** 2
    if Dtm <= tol.eig_zero:
        raise DegenerateNoiseError(
            "degenerate noise matrix (B*Gamma - Delta^2 ~ 0); the POVM cannot "
            "estimate both rotated targets"
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePovmWarning)
        s_plus, s_minus = sigma_pm(theta)
    m_plus = ensemble.second_moment(s_plus)
    m_minus = ensemble.second_moment(s_minus)
    kappa = 0.5 * (m_plus + m_minus)

    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    cross = np.sin(2.0 * theta)
    error_plus = (2.0 / Dtm) * (c2 * Gamma + s2 * B + cross * Delta) - m_plus
    error_minus = (2.0 / Dtm) * (c2 * Gamma + s2 * B - cross * Delta) - m_minus
    total = error_plus + error_minus

    return NoiseSummary(
        theta=float(theta),
        B=B,
        Gamma=Gamma,
        Delta=Delta,
        Dtm=Dtm,
        kappa=kappa,
        error_plus=float(error_plus),
        error_minus=float(error_minus),
        total_error=float(total),
        bound=float(error_bound(theta, kappa)),
    )


def _check_theta(theta: float) -> None:
    if not (0.0 <= theta <= np.pi / 2.0):
        raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")
    if theta == 0.0 or theta == np.pi / 2.0:
        warnings.warn(
            "theta at an endpoint of (0, pi/2): the optimal measurement degenerates "
            "(the two targets commute there)",
            DegeneratePovmWarning,
            stacklevel=3,
        )


def optimal_three_outcome(theta: float, tol: Tolerances = DEFAULT_TOL) -> Povm:
    """Minimal bound-achieving family: one sx-aligned and two mirrored outcomes.

    With ``p = cos t / (2 cos t + sin t)`` the elements are
    ``p (1 + sx)`` and ``(1-p)/2 1 - p/2 sx +- sqrt(1-2p)/2 sy``.
    All three are rank one and the joint error meets the bound for every
    ``theta`` in the open interval.
    """
    _check_theta(theta)
    p = np.cos(theta) / (2.0 * np.cos(theta) + np.sin(theta))
    root = np.sqrt(max(1.0 - 2.0 * p, 0.0))
    coeffs = np.array(
        [
            [p, p, 0.0, 0.0],
            [(1.0 - p) / 2.0, -p / 2.0, root / 2.0, 0.0],
            [(1.0 - p) / 2.0, -p / 2.0, -root / 2.0, 0.0],
        ]
    )
    return bloch_povm(coeffs, tol)


def optimal_four_outcome(theta: float, tol: Tolerances = DEFAULT_TOL) -> Povm:
    """Symmetric bound-achieving family: rescaled sx and sy projective pairs.

    With ``p = cos t / (cos t + sin t)`` the elements are
    ``(p/2)(1 +- sx)`` and ``((1-p)/2)(1 +- sy)``.
    """
    _check_theta(theta)
    p = np.cos(theta) / (np.cos(theta) + np.sin(theta))
    coeffs = np.array(
        [
            [p / 2.0, p / 2.0, 0.0, 0.0],
            [p / 2.0, -p / 2.0, 0.0, 0.0],
            [(1.0 - p) / 2.0, 0.0, (1.0 - p) / 2.0, 0.0],
            [(1.0 - p) / 2.0, 0.0, -(1.0 - p) / 2.0, 0.0],
        ]
    )
    return bloch_povm(coeffs, tol)
