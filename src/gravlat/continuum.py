"""Target field theory: gamma algebra, single-particle symbol, quadratic
boson sector, normal modes, and the induced current-current interaction.

The quadratic boson Hamiltonian density carries the mass sign set by the
Legendre transform of the quadratic Lagrangian (:func:`hgr_quadratic_form`).
The induced current-current interaction is derived against the form with the
opposite mass sign (see :func:`integrate_out_geometry`); it is a coefficient
of the epsilon contraction of diagonal currents, checked at one node against
Gauss-Hermite quadrature (:func:`gaussian_elimination_oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import TopologicalLimitError
from .geometry import ModelParams

__all__ = [
    "GammaSet",
    "gamma_set",
    "single_particle_symbol",
    "dressed_velocities",
    "GravitonQuadraticForm",
    "hgr_quadratic_form",
    "normal_mode_frequencies",
    "symplectic_frequencies",
    "ELIMINATION_RATIO",
    "EffectiveInteraction",
    "integrate_out_geometry",
    "gaussian_elimination_oracle",
]

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class GammaSet:
    """4x4 Dirac matrices in the two-cone block representation.

    g0 = [[0, -1], [1, 0]], gi = [[0, sigma_i], [sigma_i, 0]] in 2x2 blocks.
    They satisfy {gA, gB} = 2 eta^{AB} with eta = diag(-, +, +); note that
    g0 is anti-Hermitian in this representation while g1, g2 are Hermitian,
    so the products g0 g1 and g0 g2 are Hermitian.
    """

    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    def all(self):
        return (self.g0, self.g1, self.g2)

    def anticommutator_defects(self) -> float:
        """Max deviation of the six anticommutators from 2*eta*identity."""
        eta = np.diag([-1.0, 1.0, 1.0])
        gammas = self.all()
        worst = 0.0
        for a in range(3):
            for b in range(3):
                anti = gammas[a] @ gammas[b] + gammas[b] @ gammas[a]
                worst = max(worst, np.abs(anti - 2 * eta[a, b] * np.eye(4)).max())
        return worst


def gamma_set() -> GammaSet:
    zero = np.zeros((2, 2), dtype=complex)
    g0 = np.block([[zero, -_I2], [_I2, zero]])
    g1 = np.block([[zero, _SIGMA1], [_SIGMA1, zero]])
    g2 = np.block([[zero, _SIGMA2], [_SIGMA2, zero]])
    return GammaSet(g0, g1, g2)


def dressed_velocities(params: ModelParams, xi1x: float, xi2y: float):
    """(v_x, v_y) = (1/l - 8 pi G xi1x / l^2, 1/l - 8 pi G xi2y / l^2)."""
    pref = 8.0 * np.pi * params.G / params.l ** 2
    return 1.0 / params.l - pref * xi1x, 1.0 / params.l - pref * xi2y


def single_particle_symbol(params: ModelParams, xi_point, p) -> np.ndarray:
    """Single-particle kernel at one point of the fluctuation field.

    Parameters
    ----------
    xi_point : tuple
        (xi1x, xi2y, d_x xi1x, d_y xi2y) sampled at the evaluation point.
    p : tuple
        Real momentum 2-vector (p_x, p_y).

    Returns the 4x4 matrix

        v_x g0 g1 p_x + v_y g0 g2 p_y
        + (4 pi G / l^2) (d_x xi1x * i g0 g1 + d_y xi2y * i g0 g2)

    with the dressed velocities of :func:`dressed_velocities`.  The gradient
    term is the symmetrization remainder -(i/2)(dv) that makes the
    position-space quadratic form Hermitian; as a pointwise matrix it is
    anti-Hermitian (i g0 ga is i times a Hermitian matrix), so the returned
    symbol is Hermitian exactly when the gradient inputs vanish.  Callers
    that need an operator-level Hermiticity check should discretize, as the
    tests do.
    """
    xi1x, xi2y, dxi1x_dx, dxi2y_dy = xi_point
    px, py = p
    g = gamma_set()
    vx, vy = dressed_velocities(params, xi1x, xi2y)
    grad_pref = 4.0 * np.pi * params.G / params.l ** 2
    mat = vx * (g.g0 @ g.g1) * px + vy * (g.g0 @ g.g2) * py
    mat = mat + grad_pref * (dxi1x_dx * 1j * (g.g0 @ g.g1)
                             + dxi2y_dy * 1j * (g.g0 @ g.g2))
    return mat


@dataclass(frozen=True)
class GravitonQuadraticForm:
    """Quadratic boson Hamiltonian density over (xi1x, xi2y, pi1x, pi2y).

    Only the two cross terms are populated:

        H = kinetic_coeff * pi1x pi2y + mass_coeff * xi1x xi2y

    with kinetic_coeff = -1/(8 pi G) and mass_coeff = -8 pi G mu^2, the sign
    set by the Legendre transform.  ``q_minus_coeff``/``q_plus_coeff`` are
    the coefficients of (q1+ - q1)(q2+ - q2) and (q1+ + q1)(q2+ + q2) in the
    ladder-operator form of the same density.
    """

    kinetic_coeff: float
    mass_coeff: float

    @property
    def q_minus_coeff(self) -> float:
        # pi_a = -(i/sqrt2)(q_a+ - q_a)  =>  pi1 pi2 = -(q1+ - q1)(q2+ - q2)/2
        return -self.kinetic_coeff / 2.0

    @property
    def q_plus_coeff(self) -> float:
        # xi_a = (q_a+ + q_a)/sqrt2      =>  xi1 xi2 = +(q1+ + q1)(q2+ + q2)/2
        return self.mass_coeff / 2.0

    def matrix(self) -> np.ndarray:
        """Symmetric 4x4 Q with H = z^T Q z / 2, z = (xi1, xi2, pi1, pi2)."""
        q = np.zeros((4, 4))
        q[0, 1] = q[1, 0] = self.mass_coeff
        q[2, 3] = q[3, 2] = self.kinetic_coeff
        return q

    def density(self, xi1x, xi2y, pi1x, pi2y):
        return (self.kinetic_coeff * np.asarray(pi1x) * np.asarray(pi2y)
                + self.mass_coeff * np.asarray(xi1x) * np.asarray(xi2y))


def hgr_quadratic_form(params: ModelParams) -> GravitonQuadraticForm:
    """Quadratic boson sector of the total Hamiltonian.

    Raises
    ------
    TopologicalLimitError
        For G = 0, where the momentum-sector coefficient 1/(8 pi G) is
        undefined (the theory degenerates to its topological limit).
    """
    if params.G == 0:
        raise TopologicalLimitError("G = 0: momentum coefficient 1/(8 pi G) undefined")
    return GravitonQuadraticForm(kinetic_coeff=-1.0 / (8.0 * np.pi * params.G),
                                 mass_coeff=-8.0 * np.pi * params.G * params.mu ** 2)


def symplectic_frequencies(q_matrix: np.ndarray):
    """Normal-mode frequencies of H = z^T Q z / 2 over (x1, x2, p1, p2).

    Eigenvalues of J Q come in pairs +-(i omega) for stable quadratic
    forms; returns the two |omega| values sorted ascending.  Used as the
    independent oracle for :func:`normal_mode_frequencies`.
    """
    n = q_matrix.shape[0] // 2
    j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    eig = np.linalg.eigvals(j @ q_matrix)
    omegas = np.sort(np.abs(eig.imag))
    return omegas[::2]  # eigenvalues come in +-(i omega) pairs


def normal_mode_frequencies(params: ModelParams):
    """Frequencies and definiteness pattern of the quadratic boson sector.

    Rotating to the sum/difference combinations (mode1 +- mode2)/sqrt(2)
    splits the default-sign density into one negative-definite (sum)
    and one positive-definite (difference) oscillator, both of frequency

        omega = sqrt( |kinetic_coeff| * |mass_coeff| ) = mu ,

    independent of G.  Returns (omega_plus, omega_minus, signature) with
    signature (+1, -1): one positive and one negative mode.
    """
    if params.G == 0:
        raise TopologicalLimitError("normal modes undefined at G = 0")
    form = hgr_quadratic_form(params)
    omega = float(np.sqrt(form.kinetic_coeff * form.mass_coeff))
    return omega, omega, (+1, -1)


# Stationary value of f(xi) = s (xi1 J1 + xi2 J2) + m xi1 xi2 with
# s = 8 pi G / l and m = 8 pi G mu^2 (the opposite mass sign) is
# f* = -s^2 J1 J2 / m, i.e. this multiple of (pi G / (l^2 mu^2)) times the
# epsilon contraction 2 J1 J2 of diagonal currents.
ELIMINATION_RATIO = Fraction(-4)
ORACLE_ORDER = 80  # Gauss-Hermite nodes per axis of gaussian_elimination_oracle


@dataclass(frozen=True)
class EffectiveInteraction:
    """Induced current-current interaction after eliminating the geometry:
    the density coefficient * eps_ab eps^ij J^a_i J^b_j."""

    coefficient: float
    coefficient_over_unit: Fraction  # exact multiple of pi G / (l^2 mu^2)


def integrate_out_geometry(params: ModelParams) -> EffectiveInteraction:
    """Current-current interaction left after Gaussian elimination of
    (xi, pi).

    Eliminating the momenta contributes only a current-independent factor;
    completing the square in xi against the opposite-mass-sign form with the
    linear source from the fermion coupling leaves

        -(4 pi G / (l^2 mu^2)) eps_ab eps^ij J^a_i J^b_j .

    The exact rational prefactor is :data:`ELIMINATION_RATIO` (-4, in units
    of pi G / (l^2 mu^2)); the test suite re-derives it symbolically.
    """
    coeff = float(ELIMINATION_RATIO) * np.pi * params.G / (params.l ** 2 * params.mu ** 2)
    return EffectiveInteraction(coefficient=coeff, coefficient_over_unit=ELIMINATION_RATIO)


def gaussian_elimination_oracle(params: ModelParams, j1: float, j2: float) -> float:
    """Brute-force check of the induced density at a single node.

    Computes -log(Z[J]/Z[0]) for the two-variable weight exp(-f(xi)) by
    Gauss-Hermite quadrature of order :data:`ORACLE_ORDER`.  The xi1 xi2
    mass form is hyperbolic, so the integral is taken along rotated
    contours: the sum combination is integrated on the real line and the
    difference combination on the imaginary line, where both are
    Gaussian-damped; the current-dependent factor is contour-independent.
    """
    s = 8.0 * np.pi * params.G / params.l
    m = 8.0 * np.pi * params.G * params.mu ** 2
    nodes, weights = np.polynomial.hermite.hermgauss(ORACLE_ORDER)
    # weight exp(-(m/2) u^2) on each rotated axis -> substitution
    scale = np.sqrt(2.0 / m)
    u = nodes * scale  # plus combination (xi1 + xi2)/sqrt2
    w = nodes * scale  # minus combination, integrated along i * real line
    cu = s * (j1 + j2) / np.sqrt(2.0)
    cw = s * (j1 - j2) / np.sqrt(2.0)
    int_u = np.sum(weights * np.exp(-cu * u))
    int_w = np.sum(weights * np.exp(-1j * cw * w))
    ratio = (int_u / np.sum(weights)) * (int_w / np.sum(weights))
    return float(-np.log(np.real(ratio)))
