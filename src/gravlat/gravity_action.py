"""Action functionals of the geometry sector on discretized slabs.

All integrals use the trapezoid rule on periodic grids (plain mean times
volume), which is exact for trigonometric polynomials below the Nyquist
limit.  Every functional here takes its derivatives by Fourier
differentiation, so the quadratic cross-checks hold at 1e-8 .. 1e-12
instead of being O(h^2)-limited; the O(h^2) central stencil belongs to the
geometry module's refinement study alone.

Every slab contraction runs over the nonzero entries only: the six of
epsilon, those of M, the diagonals of ebar and eta, and the components
that a field's component map holds (a connection with all nine components
in its map is contracted in full).

Value bookkeeping, verified against each other in the tests:

    total(e, omega)  =  s0/(8 pi G) + s1 + 8 pi G * s2      (s0 = s1 = 0 flat)
    8 pi G * s2      =  quadratic_form(xi)                  (double-eps form)
    quadratic_form   =  massless limit of massive_action
    quadratic_form   =  (2 pi G / l^2) * standard FP form of h_munu
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .conventions import EPS3, ETA
from .geometry import (DiagonalFluctuationSlab, ModelParams, SpinConnectionSlab,
                       background_frame, frame_pair_tensor, spectral_difference,
                       spin_connection_general, _contract, _LazyMap, _slab_derivatives)

__all__ = [
    "ActionReport",
    "palatini_orders",
    "palatini_total",
    "fierz_pauli_quadratic",
    "fp_standard_form",
    "massive_fp_action",
    "massive_fp_density",
    "legendre_hamiltonian_density",
]


@dataclass
class ActionReport:
    """Per-order action values plus named consistency residuals, and the
    double-epsilon quadratic action (:func:`fierz_pauli_quadratic`) when the
    residuals needed it (G > 0), else None; :meth:`to_pairs` leaves it out."""

    s0: float
    s1: float
    s2: float
    s_massive: float
    residuals: dict = field(default_factory=dict)
    fp_quadratic: Optional[float] = None

    def to_pairs(self):
        pairs = [("s0", self.s0), ("s1", self.s1), ("s2", self.s2),
                 ("s_massive", self.s_massive)]
        pairs.extend((f"residual_{k}", v) for k, v in sorted(self.residuals.items()))
        return pairs


def _integral(grid, density) -> float:
    return float(np.sum(density) * grid.volume_element)


def palatini_total(params: ModelParams, xi: DiagonalFluctuationSlab,
                   v: SpinConnectionSlab) -> float:
    """First-order action of the full pair (ebar + 8 pi G xi, 8 pi G v).

    (1/8 pi G) Int eps^{mu nu rho} e^A_mu ( d_nu w_{A rho}
                                            + eps_{ABC} w^B_nu w^C_rho / 2 ).
    Derivatives are spectral.  Requires G > 0 because of the overall
    1/(8 pi G).
    """
    if params.G == 0:
        raise ValueError("total action undefined at G = 0 (1/G prefactor)")
    g8 = 8.0 * np.pi * params.G
    # e = ebar + 8 pi G xi; its (0, t) entry stays the constant 1
    e_full = {(0, 0): 1.0, (1, 1): params.l + g8 * xi.xi1x, (2, 2): params.l + g8 * xi.xi2y}
    omega = {key: g8 * comp for key, comp in v.components.items()}
    dv = _slab_derivatives(v.components, v.grid.spacings, "spectral")

    def domega(key):  # scaled in place: d *= g8 is the same IEEE product as g8 * d
        d = dv[key]
        d *= g8
        return d

    t1 = _contract("mnr,am...,nar...->...", EPS3, e_full, _LazyMap(dv, domega))
    t2 = 0.5 * _contract("mnr,abc,am...,bn...,cr...->...", EPS3, EPS3, e_full, omega, omega)
    return _integral(xi.grid, t1 + t2) / g8


def palatini_orders(params: ModelParams, xi: DiagonalFluctuationSlab,
                    v: Optional[SpinConnectionSlab] = None) -> ActionReport:
    """Order-by-order expansion values around the flat, torsion-free background.

    s0 and s1 are contractions with the background curvature and torsion,
    both of which vanish identically here, so they are returned as exact
    zeros.  s2 is evaluated from the slab (``v`` defaults to the
    torsionless connection of ``xi``, on spectral derivatives),

        s2 = Int eps^{mu nu rho} ( xi^A_mu d_nu v_{A rho}
                                   + eps_{ABC} ebar^A_mu v^B_nu v^C_rho / 2 ),

    and the report carries the bookkeeping residual
    total - (s0/(8 pi G) + s1 + 8 pi G s2), which vanishes for this
    quadratic theory (for G > 0; it is reported as 0 when G = 0).
    """
    if v is None:
        v = spin_connection_general(params, xi, scheme="spectral")
    if v.grid.shape != xi.grid.shape:
        raise ValueError("xi and v slabs have mismatched shapes")
    t1 = _contract("mnr,am...,nar...->...", EPS3, xi.components(),
                   _slab_derivatives(v.components, v.grid.spacings, "spectral"))
    t2 = 0.5 * _contract("mnr,abc,am,bn...,cr...->...", EPS3, EPS3,
                         background_frame(params), v.components, v.components)
    s2 = _integral(xi.grid, t1 + t2)
    s_massive = massive_fp_action(params, xi)
    residuals, fp = {}, None
    if params.G > 0:
        g8 = 8.0 * np.pi * params.G
        total = palatini_total(params, xi, v)
        fp = fierz_pauli_quadratic(params, xi)
        residuals["order_bookkeeping"] = total - g8 * s2
        residuals["quadratic_vs_double_eps"] = g8 * s2 - fp
    else:
        residuals["order_bookkeeping"] = 0.0
    return ActionReport(s0=0.0, s1=0.0, s2=s2, s_massive=s_massive,
                        residuals=residuals, fp_quadratic=fp)


def fierz_pauli_quadratic(params: ModelParams, xi: DiagonalFluctuationSlab) -> float:
    """Massless quadratic action as the double-epsilon contraction

        -4 pi G Int M^{AB}_{mu nu} eps^{mu alpha beta} eps^{nu gamma delta}
                    d_alpha xi_{A beta} d_gamma xi_{B delta} ,

    on spectral derivatives.  For diagonal fields every spatial-gradient
    contribution cancels and the value reduces to
    -8 pi G Int (d_t xi1x)(d_t xi2y).  The tests verify
    that this equals the standard Fierz-Pauli quadratic form of
    h_munu = ebar_{A mu} xi^A_nu + ebar_{A nu} xi^A_mu up to the fixed
    normalization 2 pi G / l^2 (see :func:`fp_standard_form`).
    """
    dxi = _slab_derivatives(xi.components(), xi.grid.spacings, "spectral")
    W = _contract("mab,aAb...->Am...", EPS3, dxi)
    q = _contract("aBmn,am...,Bn...->...", frame_pair_tensor(params), W, W)
    return -4.0 * np.pi * params.G * _integral(xi.grid, q)


def fp_standard_form(params: ModelParams, xi: DiagonalFluctuationSlab) -> float:
    """Textbook massless spin-2 quadratic form of h_munu, as an oracle.

        (2 pi G / l^2) Int [ -d_l h_mn d^l h^mn / 2 + d_m h_nl d^n h^ml
                             - d_m h^mn d_n h + d_l h d^l h / 2 ]

    with h = diag(0, 2 l xi1x, 2 l xi2y) (spatial, so h^mn = h_mn under
    eta = diag(-,+,+)), on spectral derivatives.  The prefactor is the
    unique constant matching :func:`fierz_pauli_quadratic`; it is pinned
    here once and tested.
    """
    grid = xi.grid
    h = {(1, 1): 2.0 * params.l * xi.xi1x, (2, 2): 2.0 * params.l * xi.xi2y}
    dh = dict(_slab_derivatives(h, grid.spacings, "spectral"))  # each read many times
    del h
    term1 = -0.5 * _contract("lmn...,ls,smn...->...", dh, ETA, dh)
    term2 = _contract("mnl...,ns,sml...->...", dh, ETA, dh)
    div_h = _contract("mmn...->n...", dh)
    trace_d = _contract("mn,lmn...->l...", ETA, dh)
    del dh
    term3 = -_contract("n...,n...->...", div_h, trace_d)
    term4 = 0.5 * _contract("l...,ls,s...->...", trace_d, ETA, trace_d)
    dens = term1 + term2 + term3 + term4
    return (2.0 * np.pi * params.G / params.l ** 2) * _integral(grid, dens)


def massive_fp_density(params: ModelParams, xi1x, xi2y, xi1x_dot, xi2y_dot):
    """Lagrangian density -8 pi G [ (d_t xi1x)(d_t xi2y) - mu^2 xi1x xi2y ].

    This is the full eps^{ij} eps_{ab} contraction of the mass-deformed
    quadratic action restricted to diagonal fields (the contraction yields
    exactly twice the xy cross term, with no diagonal-squared terms).
    """
    g8 = 8.0 * np.pi * params.G
    return -g8 * (np.asarray(xi1x_dot) * np.asarray(xi2y_dot)
                  - params.mu ** 2 * np.asarray(xi1x) * np.asarray(xi2y))


def massive_fp_action(params: ModelParams, xi: DiagonalFluctuationSlab) -> float:
    """Mass-deformed quadratic action integrated over a periodic slab, with
    spectral time derivatives."""
    ht = xi.grid.ht
    d1 = spectral_difference(xi.xi1x, 0, ht)
    d2 = spectral_difference(xi.xi2y, 0, ht)
    dens = massive_fp_density(params, xi.xi1x, xi.xi2y, d1, d2)
    return _integral(xi.grid, dens)


def legendre_hamiltonian_density(params: ModelParams, xi1x, xi2y, pi1x, pi2y):
    """Hamiltonian density reconstructed from the quadratic Lagrangian.

    The canonical momenta of :func:`massive_fp_density` are
    pi1x = -8 pi G d_t xi2y and pi2y = -8 pi G d_t xi1x; eliminating the
    velocities gives

        H = -(1/(8 pi G)) pi1x pi2y - 8 pi G mu^2 xi1x xi2y ,

    which the tests compare against the quadratic-form module at 1e-12.
    """
    if params.G == 0:
        raise ValueError("Legendre transform undefined at G = 0")
    g8 = 8.0 * np.pi * params.G
    xi1x_dot = -np.asarray(pi2y) / g8
    xi2y_dot = -np.asarray(pi1x) / g8
    lag = massive_fp_density(params, xi1x, xi2y, xi1x_dot, xi2y_dot)
    return np.asarray(pi1x) * xi1x_dot + np.asarray(pi2y) * xi2y_dot - lag
