"""Frame-field algebra on a flat background with diagonal fluctuations.

The background frame is ebar = diag(1, l, l) over (t, x, y); fluctuations
enter as ``e = ebar + 8*pi*G*xi`` with only the two diagonal spatial
components xi1x, xi2y alive.  The connection perturbation returned here is
the G-free solution ``v`` of the linearized zero-torsion condition

    eps^{mu nu rho} ( d_nu xi^A_rho + eps^A_BC ebar^B_nu v^C_rho ) = 0 ,

so the physical connection perturbation is ``8*pi*G*v``.  Closed-form
components for diagonal fields:

    v^0_t = 0
    v^0_x = -(1/l) d_y xi1x        v^0_y = +(1/l) d_x xi2y
    v^a_t = 0
    v^1_x = 0,  v^1_y = -d_t xi2y
    v^2_x = +d_t xi1x,  v^2_y = 0

The same solution is reproduced index-blind by ``v = -M eps dxi`` with
M^{AB}_{mu nu} = (1/det ebar)(ebar^A_mu ebar^B_nu / 2 - ebar^A_nu ebar^B_mu);
with the permutation-symbol epsilon convention of :mod:`gravlat.conventions`
the overall minus sign is required for the torsion residual to vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .conventions import EPS3
from .exceptions import DegenerateMetricError

__all__ = [
    "ModelParams",
    "Grid2D",
    "SpacetimeGrid",
    "DiagonalFluctuationField",
    "DiagonalFluctuationSlab",
    "MetricField",
    "SpinConnectionField",
    "SpinConnectionSlab",
    "metric_from_fluctuation",
    "spin_connection_gauge_fixed",
    "spin_connection_general",
    "torsion_residual",
    "background_frame",
    "frame_pair_tensor",
    "central_difference",
    "spectral_difference",
]


@dataclass(frozen=True)
class ModelParams:
    """The physical triple (G, l, mu) in units hbar = 1, lattice constant = 1.

    Attributes
    ----------
    G : float
        Coupling constant of the geometry sector (dimensionless), >= 0.
    l : float
        Background frame scale (length), > 0.
    mu : float
        Fluctuation mass (inverse length), > 0.
    """

    G: float
    l: float
    mu: float

    def __post_init__(self):
        if self.G < 0:
            raise ValueError(f"G must be >= 0, got {self.G}")
        if self.l <= 0:
            raise ValueError(f"l must be > 0, got {self.l}")
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")

    @property
    def weak_coupling_ratio(self) -> float:
        """8*pi*G/l; linear-order results assume this is << 1."""
        return 8.0 * np.pi * self.G / self.l

    @property
    def weak_coupling_ok(self) -> bool:
        return self.weak_coupling_ratio < 0.1


@dataclass(frozen=True)
class Grid2D:
    """Periodic spatial sample grid: nx x ny nodes at spacing h."""

    nx: int
    ny: int
    h: float

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid needs nx, ny >= 4")
        if self.h <= 0:
            raise ValueError("grid spacing must be > 0")

    @property
    def shape(self):
        return (self.nx, self.ny)


@dataclass(frozen=True)
class SpacetimeGrid:
    """Periodic (t, x, y) slab: nt x nx x ny nodes, spacings (ht, h)."""

    nt: int
    nx: int
    ny: int
    ht: float
    h: float

    def __post_init__(self):
        if self.nt < 3:
            raise ValueError("slab needs at least 3 time slices")
        if self.nx < 4 or self.ny < 4:
            raise ValueError("slab needs nx, ny >= 4")
        if self.ht <= 0 or self.h <= 0:
            raise ValueError("grid spacings must be > 0")

    @property
    def shape(self):
        return (self.nt, self.nx, self.ny)

    @property
    def spacings(self):
        return (self.ht, self.h, self.h)

    @property
    def volume_element(self) -> float:
        return self.ht * self.h * self.h


def _check_shape(grid_shape, *arrays):
    for arr in arrays:
        if arr is not None and np.shape(arr) != tuple(grid_shape):
            raise ValueError(f"field shape {np.shape(arr)} != grid shape {tuple(grid_shape)}")


@dataclass(frozen=True)
class DiagonalFluctuationField:
    """Grid samples of the two diagonal frame fluctuations (2D snapshot).

    Off-diagonal components are identically zero by construction.  Time
    derivatives are optional and default to zero fields.
    """

    grid: Grid2D
    xi1x: np.ndarray
    xi2y: np.ndarray
    xi1x_dot: Optional[np.ndarray] = None
    xi2y_dot: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_shape(self.grid.shape, self.xi1x, self.xi2y, self.xi1x_dot, self.xi2y_dot)

    def dots(self):
        z = np.zeros(self.grid.shape)
        d1 = self.xi1x_dot if self.xi1x_dot is not None else z
        d2 = self.xi2y_dot if self.xi2y_dot is not None else z
        return d1, d2

    @classmethod
    def zero(cls, grid: Grid2D) -> "DiagonalFluctuationField":
        z = np.zeros(grid.shape)
        return cls(grid, z, z.copy())


@dataclass(frozen=True)
class DiagonalFluctuationSlab:
    """Space-time samples of (xi1x, xi2y) on a periodic slab."""

    grid: SpacetimeGrid
    xi1x: np.ndarray
    xi2y: np.ndarray

    def __post_init__(self):
        _check_shape(self.grid.shape, self.xi1x, self.xi2y)

    @classmethod
    def zero(cls, grid: SpacetimeGrid) -> "DiagonalFluctuationSlab":
        z = np.zeros(grid.shape)
        return cls(grid, z, z.copy())

    def as_tensor(self) -> np.ndarray:
        """xi[A, mu] with only (1, x) and (2, y) populated."""
        out = np.zeros((3, 3) + self.grid.shape)
        out[1, 1] = self.xi1x
        out[2, 2] = self.xi2y
        return out


@dataclass(frozen=True)
class MetricField:
    """Per-node diagonal spacetime metric; g_tt = -1 exactly."""

    grid: Grid2D
    gxx: np.ndarray
    gyy: np.ndarray

    def as_matrices(self) -> np.ndarray:
        out = np.zeros(self.grid.shape + (3, 3))
        out[..., 0, 0] = -1.0
        out[..., 1, 1] = self.gxx
        out[..., 2, 2] = self.gyy
        return out


_CONNECTION_COMPONENTS = ("v0t", "v0x", "v0y", "v1x", "v1y", "v2x", "v2y")


@dataclass(frozen=True)
class SpinConnectionField:
    """Connection perturbation components on a 2D grid; v^a_t = 0 by gauge."""

    grid: Grid2D
    v0t: np.ndarray
    v0x: np.ndarray
    v0y: np.ndarray
    v1x: np.ndarray
    v1y: np.ndarray
    v2x: np.ndarray
    v2y: np.ndarray

    def as_tensor(self) -> np.ndarray:
        """v[A, mu] over axis order (t, x, y); v^a_t entries are zero."""
        out = np.zeros((3, 3) + self.grid.shape)
        out[0, 0] = self.v0t
        out[0, 1] = self.v0x
        out[0, 2] = self.v0y
        out[1, 1] = self.v1x
        out[1, 2] = self.v1y
        out[2, 1] = self.v2x
        out[2, 2] = self.v2y
        return out


@dataclass(frozen=True)
class SpinConnectionSlab:
    """Connection perturbation v[A, mu] sampled over a space-time slab."""

    grid: SpacetimeGrid
    tensor: np.ndarray  # shape (3, 3, nt, nx, ny)

    def __post_init__(self):
        if self.tensor.shape != (3, 3) + self.grid.shape:
            raise ValueError("connection tensor shape mismatch")

    def slice_field(self, it: int, grid2d: Optional[Grid2D] = None) -> SpinConnectionField:
        g2 = grid2d or Grid2D(self.grid.nx, self.grid.ny, self.grid.h)
        v = self.tensor
        return SpinConnectionField(
            g2, v[0, 0, it], v[0, 1, it], v[0, 2, it],
            v[1, 1, it], v[1, 2, it], v[2, 1, it], v[2, 2, it],
        )


def background_frame(params: ModelParams) -> np.ndarray:
    """ebar[A, mu] = diag(1, l, l)."""
    return np.diag([1.0, params.l, params.l])


def frame_pair_tensor(params: ModelParams) -> np.ndarray:
    """M[A, B, mu, nu] = (ebar^A_mu ebar^B_nu / 2 - ebar^A_nu ebar^B_mu) / det(ebar)."""
    ebar = background_frame(params)
    det = params.l * params.l
    return (0.5 * np.einsum("am,bn->abmn", ebar, ebar)
            - np.einsum("an,bm->abmn", ebar, ebar)) / det


# ---------------------------------------------------------------------------
# periodic derivatives
# ---------------------------------------------------------------------------

def central_difference(arr: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Second-order central difference with periodic wrap."""
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * spacing)


def spectral_difference(arr: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Fourier derivative; exact for band-limited periodic samples.

    The unpaired Nyquist coefficient (even lengths) is dropped so the
    operator has a real convolution kernel; fields must stay below the
    Nyquist limit for exactness, which every caller's contract assumes.
    """
    n = arr.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
    if n % 2 == 0:
        k[n // 2] = 0.0
    shape = [1] * arr.ndim
    shape[axis] = n
    out = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(arr, axis=axis), axis=axis)
    return out.real if np.isrealobj(arr) else out


def _deriv(arr, axis, spacing, scheme):
    if scheme == "central":
        return central_difference(arr, axis, spacing)
    if scheme == "spectral":
        return spectral_difference(arr, axis, spacing)
    raise ValueError(f"unknown derivative scheme {scheme!r}")


# ---------------------------------------------------------------------------
# sparse slab contractions
# ---------------------------------------------------------------------------

def _components(tensor: np.ndarray) -> dict:
    """{(A, mu): tensor[A, mu]} over the components not identically zero."""
    return {idx: tensor[idx] for idx in np.ndindex(tensor.shape[:2])
            if np.any(tensor[idx])}


def _slab_derivatives(components: dict, spacings, scheme: str) -> dict:
    """{(alpha, A, mu): d_alpha T[A, mu]} for every component of a map."""
    return {(alpha,) + idx: _deriv(arr, alpha, spacings[alpha], scheme)
            for idx, arr in components.items() for alpha in range(3)}


def _contract(subscripts: str, *operands):
    """``np.einsum`` summed over the nonzero entries only.

    An operand is either a constant array over small indices (epsilon,
    ebar, eta, M) or a component map {index tuple: grid array} whose
    subscript ends in ``...``; constants contribute their nonzero entries
    and maps the components they hold, so a contraction costs one grid
    product per surviving term instead of one per index combination.
    Each term multiplies its constant factors first, then its fields left
    to right, and each output adds its terms in lexicographic order of
    the summed labels; where the dense contraction meets the nonzero terms
    in that order too, the result is bitwise the same.

    Returns a component map keyed by the output labels, or, when the
    output is ``...`` alone, the grid array itself (0.0 if no term
    survives).
    """
    inputs, output = subscripts.split("->")
    specs = [s.replace("...", "") for s in inputs.split(",")]
    out_labels = output.replace("...", "")
    summed = sorted(set("".join(specs)) - set(out_labels))
    terms = [({}, 1.0, ())]  # (label binding, constant factor, fields)
    for spec, op in zip(specs, operands):
        is_field = isinstance(op, dict)
        entries = (op.items() if is_field else
                   [(idx, op[idx]) for idx in map(tuple, np.argwhere(op).tolist())])
        grown = []
        for binding, coef, fields in terms:
            for idx, value in entries:
                bound = dict(binding)
                if all(bound.setdefault(lab, i) == i for lab, i in zip(spec, idx)):
                    grown.append((bound, coef, fields + (value,)) if is_field
                                 else (bound, coef * value, fields))
        terms = grown
    out = {}
    for binding, coef, fields in sorted(terms, key=lambda t: [t[0][lab] for lab in summed]):
        prod = coef * fields[0]
        for f in fields[1:]:
            prod = prod * f
        key = tuple(binding[lab] for lab in out_labels)
        out[key] = out[key] + prod if key in out else prod
    if out_labels:
        return out
    return out.get((), 0.0)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def metric_from_fluctuation(params: ModelParams, xi: DiagonalFluctuationField) -> MetricField:
    """Diagonal metric g = diag(-1, l^2 + 8 pi G h_xx, l^2 + 8 pi G h_yy).

    The metric perturbations are h_xx = 2 l xi1x and h_yy = 2 l xi2y; the
    evaluation is exact (no discretization enters).

    Raises
    ------
    DegenerateMetricError
        If any spatial diagonal entry is <= 0 (fluctuation too large for
        the linear split to describe a spatial metric).
    """
    pref = 8.0 * np.pi * params.G * 2.0 * params.l
    gxx = params.l ** 2 + pref * xi.xi1x
    gyy = params.l ** 2 + pref * xi.xi2y
    if np.any(gxx <= 0) or np.any(gyy <= 0):
        bad = int(np.sum(gxx <= 0) + np.sum(gyy <= 0))
        raise DegenerateMetricError(
            f"metric signature violated at {bad} node(s): spatial diagonal <= 0")
    return MetricField(xi.grid, gxx, gyy)


def spin_connection_gauge_fixed(params: ModelParams,
                                xi: DiagonalFluctuationField) -> SpinConnectionField:
    """Closed-form torsionless connection for diagonal fluctuations.

    Spatial derivatives are second-order central differences on the
    periodic grid; time derivatives are taken from the field's stored
    ``xi1x_dot`` / ``xi2y_dot`` samples (zero when absent).  v^0_t vanishes
    identically for diagonal fields: the antisymmetric contraction it is
    built from has no diagonal support.
    """
    l = params.l
    h = xi.grid.h
    d1, d2 = xi.dots()
    zero = np.zeros(xi.grid.shape)
    return SpinConnectionField(
        grid=xi.grid,
        v0t=zero,
        v0x=-central_difference(xi.xi1x, 1, h) / l,
        v0y=+central_difference(xi.xi2y, 0, h) / l,
        v1x=zero.copy(),
        v1y=-d2,
        v2x=+d1,
        v2y=zero.copy(),
    )


def spin_connection_general(params: ModelParams, xi: DiagonalFluctuationSlab,
                            scheme: str = "central") -> SpinConnectionSlab:
    """Evaluate the torsionless solution as the full M-eps-dxi contraction.

    Works on a space-time slab (>= 3 time slices) with finite differences
    along every axis; ``scheme="spectral"`` switches to Fourier derivatives
    for band-limited fields.  Agrees with the closed-form gauge-fixed
    components to O(h^2) (exactly, for spectral derivatives).
    """
    grid = xi.grid
    dxi = _slab_derivatives(_components(xi.as_tensor()), grid.spacings, scheme)
    # W[B, nu] = eps[nu, alpha, beta] d_alpha xi_{B beta}; lower frame index
    # is the plain symbol view (the A = 0 row carries no field).
    W = _contract("nab,aBb...->Bn...", EPS3, dxi)
    tensor = np.zeros((3, 3) + grid.shape)
    for (a, m), comp in _contract("aBmn,Bn...->am...", frame_pair_tensor(params), W).items():
        tensor[a, m] = -comp
    return SpinConnectionSlab(grid, tensor)


def torsion_residual(params: ModelParams, xi: DiagonalFluctuationSlab,
                     v: SpinConnectionSlab, scheme: str = "central") -> float:
    """Max-norm of the linearized torsion of (xi, v).

    Computes eps^{mu nu rho}(d_nu xi^A_rho + eps^A_BC ebar^B_nu v^C_rho)
    with periodic differences and returns its max absolute value over the
    interior time slices: the first and last are dropped, so slabs that are
    not time-periodic (e.g. 3-slice probes) are still scored on slices where
    the central difference is one-sided-free.
    """
    dxi = _slab_derivatives(_components(xi.as_tensor()), xi.grid.spacings, scheme)
    conn = _contract("abc,bn,cr...->anr...", EPS3, background_frame(params),
                     _components(v.tensor))
    grad = {(A, n, r): d for (n, A, r), d in dxi.items()}  # -> [A, nu, rho]
    total = {key: grad.get(key, 0.0) + conn.get(key, 0.0) for key in grad.keys() | conn.keys()}
    res = _contract("mnr,anr...->am...", EPS3, total)
    return max((float(np.abs(comp[1:-1]).max()) for comp in res.values()), default=0.0)
