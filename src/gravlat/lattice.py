"""Honeycomb tight-binding sector: Bloch symbol, conical points, slopes,
the coupling <-> frame-fluctuation dictionary, and real-space matrices.

The real-space bond graph lives in :meth:`LatticeSpec.bonds`;
:func:`build_tight_binding` and the many-body assemblers iterate it.

Cell translation vectors are fixed to n1 = (sqrt3/2, 3/2) and
n2 = (-sqrt3/2, 3/2).  The Bloch function is

    f(k) = J_x exp(-i k.n1) + J_y exp(-i k.n2) + J_z ,

with symbol [[0, f], [f*, 0]] and bands +-|f(k)|.  All conical-point
operations require J_x = J_y and the gapless window 0 < J_z < 2 J_x.

Orientation note: the closed-form slope pair is quoted in the frame with
the y axis flipped, where the expansion reads f(P +- p) ~ A p_x + i B p_y.
In this package's fixed global frame the finite-difference y-gradient of f
at the conical points is +i |B|, so the bridge used by the validation is
B = -Im(df/dky).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuum import dressed_velocities
from .exceptions import DiracRegimeError, InversionError
from .geometry import ModelParams

__all__ = [
    "N1",
    "N2",
    "CouplingField",
    "LatticeSpec",
    "bloch_f",
    "bloch_gradient",
    "fermi_points",
    "dirac_slopes",
    "slope_closed_form",
    "dreibein_from_couplings",
    "couplings_from_dreibein",
    "build_tight_binding",
    "bloch_spectrum",
    "reciprocal_vectors",
]

N1 = np.array([np.sqrt(3.0) / 2.0, 1.5])
N2 = np.array([-np.sqrt(3.0) / 2.0, 1.5])
N1.setflags(write=False)
N2.setflags(write=False)

FD_STEP = 1e-6  # central-difference step of bloch_gradient
FD_TOL = 1e-6   # relative tolerance of the slope validation in dirac_slopes


@dataclass(frozen=True)
class CouplingField:
    """Tunneling amplitudes, either uniform scalars or per-cell arrays.

    ``jx_equals_jy`` is required by every conical-point operation; the
    Dirac-regime window 0 < J_z < 2 J_x is representable when violated but
    flagged by :meth:`dirac_regime_ok`.
    """

    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "jx", np.asarray(self.jx, dtype=float))
        object.__setattr__(self, "jy", np.asarray(self.jy, dtype=float))
        object.__setattr__(self, "jz", np.asarray(self.jz, dtype=float))
        if not (self.jx.shape == self.jy.shape == self.jz.shape):
            raise ValueError("jx, jy, jz must share a shape")

    @classmethod
    def uniform(cls, jx: float, jy: float, jz: float) -> "CouplingField":
        return cls(np.float64(jx), np.float64(jy), np.float64(jz))

    @property
    def jx_equals_jy(self) -> bool:
        return bool(np.array_equal(self.jx, self.jy))

    def dirac_regime_ok(self) -> bool:
        return bool(np.all(self.jz > 0) and np.all(self.jz < 2 * self.jx))

    def _require_conical(self, who: str):
        if not self.jx_equals_jy:
            raise DiracRegimeError(f"{who} requires J_x = J_y")
        if not self.dirac_regime_ok():
            raise DiracRegimeError(
                f"{who} requires 0 < J_z < 2 J_x (cones merge at J_z = 2 J_x)")


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic cell grid: ncx x ncy unit cells, two fermion modes each."""

    ncx: int
    ncy: int

    def __post_init__(self):
        if self.ncx < 1 or self.ncy < 1:
            raise ValueError("cell counts must be >= 1")

    @property
    def n_cells(self) -> int:
        return self.ncx * self.ncy

    @property
    def n_modes(self) -> int:
        return 2 * self.n_cells

    def cell_index(self, cx: int, cy: int) -> int:
        return (cx % self.ncx) * self.ncy + (cy % self.ncy)

    def bonds(self) -> list:
        """(cell, direction, b_cell) for every bond a_cell -> b_{b_cell}.

        Cell i owns three bonds, listed cell by cell in ``cell_index``
        order: z (a_i -> b_i), x (a_i -> b_{i+n1}) and y (a_i -> b_{i+n2}),
        wrapping around the periodic torus.
        """
        bonds = []
        for cx in range(self.ncx):
            for cy in range(self.ncy):
                i = self.cell_index(cx, cy)
                bonds.append((i, "z", i))
                bonds.append((i, "x", self.cell_index(cx + 1, cy)))
                bonds.append((i, "y", self.cell_index(cx, cy + 1)))
        return bonds


def reciprocal_vectors():
    """g1, g2 with g_i . n_j = 2 pi delta_ij."""
    det = N1[0] * N2[1] - N1[1] * N2[0]
    g1 = 2.0 * np.pi / det * np.array([N2[1], -N2[0]])
    g2 = 2.0 * np.pi / det * np.array([-N1[1], N1[0]])
    return g1, g2


def bloch_f(c: CouplingField, k) -> complex:
    """f(k) for uniform couplings; k is a 2-vector or (..., 2) array."""
    k = np.asarray(k, dtype=float)
    kn1 = k[..., 0] * N1[0] + k[..., 1] * N1[1]
    kn2 = k[..., 0] * N2[0] + k[..., 1] * N2[1]
    return c.jx * np.exp(-1j * kn1) + c.jy * np.exp(-1j * kn2) + c.jz


def bloch_gradient(c: CouplingField, k):
    """Central-difference gradient (df/dkx, df/dky) of the complex f, step
    :data:`FD_STEP`."""
    k = np.asarray(k, dtype=float)
    ex = np.array([FD_STEP, 0.0])
    ey = np.array([0.0, FD_STEP])
    dfx = (bloch_f(c, k + ex) - bloch_f(c, k - ex)) / (2 * FD_STEP)
    dfy = (bloch_f(c, k + ey) - bloch_f(c, k - ey)) / (2 * FD_STEP)
    return dfx, dfy


def _kx_star(jx: float, jz: float) -> float:
    """Root of J_z + 2 J_x cos(sqrt3 kx / 2) on (0, 2 pi / sqrt3).

    The closed form (2/sqrt3) arccos(-J_z / (2 J_x)), followed by two Newton
    steps on the analytic derivative, pushes the residual below 1e-13.
    """
    root = 2.0 / np.sqrt(3.0) * np.arccos(-jz / (2.0 * jx))

    def g(kx):
        return jz + 2.0 * jx * np.cos(np.sqrt(3.0) * kx / 2.0)

    for _ in range(2):  # Newton polish on the analytic derivative
        gp = -np.sqrt(3.0) * jx * np.sin(np.sqrt(3.0) * root / 2.0)
        if gp != 0:
            root -= g(root) / gp
    return root


def fermi_points(c: CouplingField):
    """The pair of conical points +-(kx*, 0).

    Returns (p_plus, p_minus) as 2-vectors with |f| residual <= 1e-12.

    Raises
    ------
    DiracRegimeError
        Outside 0 < J_z < 2 J_x (including the merged-cone boundary) or
        when J_x != J_y.
    """
    if np.shape(c.jx) != ():
        raise ValueError("fermi_points requires uniform couplings")
    c._require_conical("fermi_points")
    jx = float(c.jx)
    jz = float(c.jz)
    kx = _kx_star(jx, jz)
    p_plus = np.array([kx, 0.0])
    p_minus = -p_plus
    res = max(abs(bloch_f(c, p_plus)), abs(bloch_f(c, p_minus)))
    if res > 1e-12:
        raise RuntimeError(f"conical-point residual {res:g} above 1e-12")
    return p_plus, p_minus


def slope_closed_form(jx: float, jz: float):
    """(A_plus, A_minus, B_plus, B_minus) from the closed expressions

        A_+- = -+ v_x,   B_+- = -v_y

    with the cone velocities of the coupling dictionary,
    v_x = (sqrt3/2) sqrt(4 J_x^2 - J_z^2) and v_y = (3/2) J_z.
    """
    vx, vy = _velocities_from_couplings(jx, jz)
    return -vx, vx, -vy, -vy


def dirac_slopes(c: CouplingField):
    """Closed-form cone slopes, validated against the Bloch gradient.

    Returns ((A_plus, B_plus), (A_minus, B_minus)).  The validation
    evaluates df at the conical points by central differences and requires
    |A - Re df/dkx| and |B + Im df/dky| below :data:`FD_TOL` relative.
    """
    if np.shape(c.jx) != ():
        raise ValueError("dirac_slopes requires uniform couplings")
    c._require_conical("dirac_slopes")
    jx = float(c.jx)
    jz = float(c.jz)
    a_p, a_m, b_p, b_m = slope_closed_form(jx, jz)
    p_plus, p_minus = fermi_points(c)
    scale = max(abs(a_p), abs(b_p))
    for (point, a_ref, b_ref) in ((p_plus, a_p, b_p), (p_minus, a_m, b_m)):
        dfx, dfy = bloch_gradient(c, point)
        if abs(dfx.real - a_ref) > FD_TOL * scale or abs(dfx.imag) > FD_TOL * scale:
            raise RuntimeError("kx-gradient disagrees with closed-form slope")
        if abs(-dfy.imag - b_ref) > FD_TOL * scale or abs(dfy.real) > FD_TOL * scale:
            raise RuntimeError("ky-gradient disagrees with closed-form slope")
    return (a_p, b_p), (a_m, b_m)


# ---------------------------------------------------------------------------
# coupling <-> fluctuation dictionary
# ---------------------------------------------------------------------------

def _velocities_from_couplings(jx, jz):
    """Cone velocities (v_x, v_y) of the couplings; inverse of the forward
    dictionary of :func:`couplings_from_dreibein`."""
    vx = np.sqrt(3.0) / 2.0 * np.sqrt(4.0 * jx ** 2 - jz ** 2)
    vy = 1.5 * jz
    return vx, vy


def _at_cells(bad) -> str:
    """' at cells [...]' naming the True entries of a per-cell mask; empty
    for uniform (scalar) input, which has no cells to name."""
    return f" at cells {np.argwhere(bad).tolist()}" if np.ndim(bad) else ""


def dreibein_from_couplings(c: CouplingField, params: ModelParams):
    """Invert the slope dictionary to per-cell fluctuations (xi1x, xi2y).

        (sqrt3/2) sqrt(4 J_x^2 - J_z^2) = 1/l - (8 pi G / l^2) xi1x
        (3/2) J_z                       = 1/l - (8 pi G / l^2) xi2y

    For G = 0 the couplings must sit exactly on the background point
    J = 2/(3 l) (velocity 1/l); anything else is unreachable.
    """
    if not c.jx_equals_jy:
        raise DiracRegimeError("dictionary requires J_x = J_y")
    if not c.dirac_regime_ok():
        bad = ~((c.jz > 0) & (c.jz < 2 * c.jx))
        raise DiracRegimeError(f"couplings outside the conical window{_at_cells(bad)}")
    vx, vy = _velocities_from_couplings(c.jx, c.jz)
    target = 1.0 / params.l
    if params.G == 0:
        if np.max(np.abs(vx - target)) > 1e-12 or np.max(np.abs(vy - target)) > 1e-12:
            raise InversionError("G = 0 admits only the exact background couplings")
        zero = np.zeros(np.shape(c.jx))
        return zero, zero.copy()
    pref = params.l ** 2 / (8.0 * np.pi * params.G)
    xi1x = (target - vx) * pref
    xi2y = (target - vy) * pref
    return xi1x, xi2y


def couplings_from_dreibein(xi1x, xi2y, params: ModelParams) -> CouplingField:
    """Forward dictionary: per-cell couplings realizing given fluctuations.

    J_z = (2/3) v_y and J_x = J_y = sqrt(J_z^2 + (4/3) v_x^2) / 2 with the
    dressed velocities of :func:`gravlat.continuum.dressed_velocities`;
    requires both velocities positive.
    """
    vx, vy = dressed_velocities(params, np.asarray(xi1x, dtype=float),
                                np.asarray(xi2y, dtype=float))
    if np.any(vx <= 0) or np.any(vy <= 0):
        raise InversionError(f"dressed velocity <= 0{_at_cells((vx <= 0) | (vy <= 0))}")
    jz = 2.0 / 3.0 * vy
    jx = 0.5 * np.sqrt(jz ** 2 + 4.0 / 3.0 * vx ** 2)
    return CouplingField(jx, jx.copy(), jz)


# ---------------------------------------------------------------------------
# real-space matrices
# ---------------------------------------------------------------------------

def build_tight_binding(c: CouplingField, spec: LatticeSpec) -> np.ndarray:
    """Hermitian hopping matrix over modes (a_0..a_{N-1}, b_0..b_{N-1}).

    Periodic cell torus; per-cell couplings, of shape (ncx, ncy) or
    broadcast from scalars.  Each bond of :meth:`LatticeSpec.bonds` adds
    the owning cell's J of its direction (J_x, J_y or J_z) to a -> b.
    """
    n = spec.n_cells
    per_cell = {direction: np.broadcast_to(j, (spec.ncx, spec.ncy)).ravel()
                for direction, j in (("x", c.jx), ("y", c.jy), ("z", c.jz))}
    f_block = np.zeros((n, n), dtype=complex)
    for cell, direction, b_cell in spec.bonds():
        f_block[cell, b_cell] += per_cell[direction][cell]
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    mat[:n, n:] = f_block
    mat[n:, :n] = f_block.conj().T
    return mat


def bloch_spectrum(c: CouplingField, spec: LatticeSpec):
    """{+-|f(k)|} over the discrete reciprocal grid, sorted ascending.

    Independent oracle for the uniform-coupling spectrum of
    :func:`build_tight_binding`.
    """
    if np.shape(c.jx) != ():
        raise ValueError("bloch_spectrum requires uniform couplings")
    g1, g2 = reciprocal_vectors()
    energies = []
    for m1 in range(spec.ncx):
        for m2 in range(spec.ncy):
            k = (m1 / spec.ncx) * g1 + (m2 / spec.ncy) * g2
            val = abs(bloch_f(c, k))
            energies.extend((-val, val))
    return np.sort(np.array(energies))
