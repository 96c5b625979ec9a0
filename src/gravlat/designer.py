"""Design dictionary for the cold-atom realization.

Maps the physical triple (G, l, mu) onto condensate amplitudes and
boson-fermion interaction strengths, checks the weak-fluctuation validity
window, and evaluates Wannier overlap integrals for a separable optical
potential.

Sign note: the condensate amplitudes come out negative; they are coherent
amplitudes (a pi phase), not particle counts, and enter all formulas only
through D^2 and linear couplings where the sign is physical.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .geometry import ModelParams

__all__ = [
    "OpticalParams",
    "optical_params",
    "WEAK_FLUCTUATION_THRESHOLD",
    "WeakFluctuationReport",
    "weak_fluctuation_check",
    "HubbardIntegrals",
    "hubbard_integrals",
    "lowest_band_hopping",
    "design_sheet_pairs",
]


@dataclass(frozen=True)
class OpticalParams:
    """Condensate amplitudes, interaction strengths and the prefactors of
    the simulator's boson Hamiltonian per (x, z) pair,

        kinetic_coeff (az+ - az)(sqrt2 (ax+ - ax) - (az+ - az)/2)
        + number_coeff (N_z + N_x) - quartic_coeff N_z (N_x - N_z / 2).

    Invariants (construction guarantees the first two exactly):
      d_x = sqrt(2) * d_z,  delta_z = 2 * delta_x,
      delta_x * d_x**2 = delta_z * d_z**2 = 2 / (3 l).
    Every field is a finite nonzero float.
    """

    d_x: float
    d_z: float
    delta_x: float
    delta_z: float
    kinetic_coeff: float
    number_coeff: float
    quartic_coeff: float

    @property
    def j_x0(self) -> float:
        return self.delta_x * self.d_x ** 2

    @property
    def j_z0(self) -> float:
        return self.delta_z * self.d_z ** 2

    def amplitude(self, species: str) -> float:
        return {"x": self.d_x, "z": self.d_z}[species]

    def strength(self, species: str) -> float:
        return {"x": self.delta_x, "z": self.delta_z}[species]


def optical_params(params: ModelParams) -> OpticalParams:
    """Closed-form design point:

        D_x = -l / (4 pi G)        D_z = D_x / sqrt(2)
        Delta_x = 32 pi^2 G^2 / (3 l^3)   Delta_z = 2 Delta_x

    D scales as 1/G and Delta as G^2, so the background coupling
    Delta D^2 = 2/(3 l) is G-independent (the isolated conical point with
    velocity 1/l).  The boson prefactors are 1/(24 pi G), 8 pi G mu^2 / 3
    and 256 pi^3 G^3 mu^2 / (3 l^2).

    Raises
    ------
    ValueError
        For G = 0 (unbounded condensate), and when a constant overflows or
        underflows: a finite triple such as mu = 1e200 or G = 1e-320.
    """
    g, l, mu = params.G, params.l, params.mu
    if g == 0:
        raise ValueError("G = 0: condensate amplitude unbounded")
    try:
        d_x = -l / (4.0 * np.pi * g)
        delta_x = 32.0 * np.pi ** 2 * g ** 2 / (3.0 * l ** 3)
        opt = OpticalParams(
            d_x=d_x, d_z=d_x / np.sqrt(2.0), delta_x=delta_x, delta_z=2.0 * delta_x,
            kinetic_coeff=1.0 / (24.0 * np.pi * g),
            number_coeff=8.0 * np.pi * g * mu ** 2 / 3.0,
            quartic_coeff=256.0 * np.pi ** 3 * g ** 3 * mu ** 2 / (3.0 * l ** 2))
    except (OverflowError, ZeroDivisionError):   # a float ** overflowing, or / 0.0
        opt = None
    if opt is None or not all(np.isfinite(v) and v != 0 for v in astuple(opt)):
        raise ValueError("the design constants (D, Delta and the boson prefactors) "
                         "overflow or underflow")
    return opt


# the largest <d+d>/D^2 ratio at which the weak-fluctuation window holds
WEAK_FLUCTUATION_THRESHOLD = 1e-2


@dataclass(frozen=True)
class WeakFluctuationReport:
    """Per-mode <d+d>/D^2 ratios against WEAK_FLUCTUATION_THRESHOLD."""

    ratios: tuple
    labels: tuple

    @property
    def passed(self) -> bool:
        return all(r <= WEAK_FLUCTUATION_THRESHOLD for r in self.ratios)

    def to_pairs(self):
        pairs = [("threshold", WEAK_FLUCTUATION_THRESHOLD), ("passed", self.passed)]
        pairs.extend((f"ratio_{lab}", r) for lab, r in zip(self.labels, self.ratios))
        return pairs


def weak_fluctuation_check(occupations: Sequence[float], species: Sequence[str],
                           optical: OpticalParams) -> WeakFluctuationReport:
    """Compare mode occupations <d_m+ d_m> against D_m^2.

    ``occupations`` and ``species`` run over the boson modes of the state
    (species "x" or "z" per mode).  The linearized coupling and the quartic
    reductions are trustworthy only while every ratio is small.
    """
    ratios = tuple(float(occ) / optical.amplitude(s) ** 2
                   for occ, s in zip(occupations, species))
    labels = tuple(f"{i}{s}" for i, s in enumerate(species))
    return WeakFluctuationReport(ratios=ratios, labels=labels)


# ---------------------------------------------------------------------------
# Wannier overlap integrals
# ---------------------------------------------------------------------------

def lowest_band_hopping(v0: float, n_plane_waves: int = 25) -> float:
    """Nearest-neighbor hopping of the lowest band of V = v0 E_r sin^2(pi x / a).

    Plane-wave diagonalization of the 1-D periodic problem in recoil units
    (E_r = pi^2 / (2 m a^2) with hbar = 1); the tight-binding hopping is a
    quarter of the lowest-band width, t = (E(k_edge) - E(0)) / 4, returned
    in units of E_r.  Numerically exact for the retained basis (error falls
    off factorially in n_plane_waves).
    """
    if v0 < 0:
        raise ValueError("lattice depth must be >= 0")
    ns = np.arange(-n_plane_waves, n_plane_waves + 1)

    def band_energy(q):  # q in units of k_L = pi/a
        diag = (q + 2.0 * ns) ** 2 + 0.5 * v0
        mat = np.diag(diag)
        off = -0.25 * v0 * np.ones(len(ns) - 1)
        mat += np.diag(off, 1) + np.diag(off, -1)
        return np.linalg.eigvalsh(mat)[0]

    return (band_energy(1.0) - band_energy(0.0)) / 4.0


@dataclass(frozen=True)
class HubbardIntegrals:
    """Hopping and on-site interaction from the overlap integrals.

    ``t`` per axis and ``u`` are in absolute energy units (hbar = 1);
    ``t_recoil`` is the per-axis value in recoil units.  u always uses the
    Gaussian-orbital approximation with per-axis width
    sigma = spacing * v0^(-1/4) / pi, which ``to_pairs`` records as
    ``gaussian_u=true``; ``tight_binding_ok`` is False when any axis depth
    is below one recoil.
    """

    t: tuple
    t_recoil: tuple
    u: float
    sigma: tuple
    tight_binding_ok: bool

    def to_pairs(self):
        pairs = [(f"t_axis{i}", v) for i, v in enumerate(self.t)]
        pairs += [(f"t_recoil_axis{i}", v) for i, v in enumerate(self.t_recoil)]
        pairs += [("u", self.u)]
        pairs += [(f"sigma_axis{i}", v) for i, v in enumerate(self.sigma)]
        pairs += [("tight_binding_ok", self.tight_binding_ok),
                  ("gaussian_u", True)]
        return pairs


def hubbard_integrals(v0, a_s: float, mass: float, spacing: float) -> HubbardIntegrals:
    """Overlap integrals (t, U) for a separable sin^2 optical potential.

    Parameters
    ----------
    v0 : float or 3-sequence
        Lattice depth per axis in recoil units; scalars are isotropic.
    a_s : float
        s-wave scattering length.
    mass : float
        Atomic mass.
    spacing : float
        Lattice constant a (same along each axis).

    The hopping comes from the numerically exact 1-D band calculation per
    axis; U = (4 pi a_s / m) Int |w|^4 d^3x with a product of Gaussian
    orbitals of width sigma_axis = a * v0_axis^(-1/4) / pi (harmonic
    approximation about the well minimum), giving
    U = (4 pi a_s / m) (2 pi)^(-3/2) / (sigma_x sigma_y sigma_z).
    """
    depths = np.atleast_1d(np.asarray(v0, dtype=float))
    if depths.size == 1:
        depths = np.repeat(depths, 3)
    if depths.size != 3:
        raise ValueError("v0 must be a scalar or a 3-sequence")
    if np.any(depths <= 0):
        raise ValueError("lattice depths must be > 0")
    if mass <= 0 or spacing <= 0:
        raise ValueError("mass and spacing must be > 0")
    recoil = np.pi ** 2 / (2.0 * mass * spacing ** 2)
    t_recoil = tuple(lowest_band_hopping(d) for d in depths)
    t_abs = tuple(tr * recoil for tr in t_recoil)
    sigma = tuple(spacing * d ** (-0.25) / np.pi for d in depths)
    u = (4.0 * np.pi * a_s / mass) * (2.0 * np.pi) ** (-1.5) / np.prod(sigma)
    return HubbardIntegrals(
        t=t_abs, t_recoil=t_recoil, u=float(u), sigma=sigma,
        tight_binding_ok=bool(np.all(depths >= 1.0)),
    )


def design_sheet_pairs(params: ModelParams):
    """Key-value rows for the design sheet artifact: every derived constant
    with its defining expression and the validity flags."""
    opt = optical_params(params)
    return [
        ("G", params.G),
        ("l", params.l),
        ("mu", params.mu),
        ("weak_coupling_ratio", params.weak_coupling_ratio),
        ("weak_coupling_ok", params.weak_coupling_ok),
        ("d_x", opt.d_x),
        ("d_x_formula", "-l/(4*pi*G)"),
        ("d_z", opt.d_z),
        ("d_z_formula", "d_x/sqrt(2)"),
        ("delta_x", opt.delta_x),
        ("delta_x_formula", "32*pi^2*G^2/(3*l^3)"),
        ("delta_z", opt.delta_z),
        ("delta_z_formula", "2*delta_x"),
        ("j_background", opt.j_x0),
        ("j_background_formula", "delta_x*d_x^2 = 2/(3*l)"),
        ("velocity", 1.0 / params.l),
        ("velocity_formula", "3*j_background/2 = 1/l"),
        ("amplitude_sign_note", "coherent amplitude with pi phase, not a count"),
    ]
