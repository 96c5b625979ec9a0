"""Frame-field algebra on a flat background with diagonal fluctuations.

The background frame is ebar = diag(1, l, l) over (t, x, y); fluctuations
enter as ``e = ebar + 8*pi*G*xi`` with only the two diagonal spatial
components xi1x, xi2y alive.  Fields live on a periodic space-time slab
(:class:`DiagonalFluctuationSlab` on a :class:`SpacetimeGrid`, axes
(t, x, y)), the one frame-field representation of this module; connections
are returned on the same slab.  Slabs are contracted as component maps
{(A, mu): grid array} holding only the components a field carries, never as
dense (3, 3, nt, nx, ny) tensors.  The connection perturbation returned here
is the G-free solution ``v`` of the linearized zero-torsion condition

    eps^{mu nu rho} ( d_nu xi^A_rho + eps^A_BC ebar^B_nu v^C_rho ) = 0 ,

so the physical connection perturbation is ``8*pi*G*v``.  Closed-form
components for diagonal fields:

    v^0_t = 0,  v^0_x = -(1/l) d_y xi1x,  v^0_y = +(1/l) d_x xi2y
    v^1_t = v^1_x = 0,  v^1_y = -d_t xi2y
    v^2_t = v^2_y = 0,  v^2_x = +d_t xi1x

They are written once, in ``_closed_form_connection``, which takes the four
derivatives they read: :func:`spin_connection_gauge_fixed` feeds it central
differences and :func:`sampled_slab` analytic derivatives.

The same solution is reproduced index-blind by ``v = -M eps dxi`` with
M^{AB}_{mu nu} = (1/det ebar)(ebar^A_mu ebar^B_nu / 2 - ebar^A_nu ebar^B_mu)
(:func:`spin_connection_general`); with the permutation-symbol epsilon
convention of :mod:`gravlat.conventions` the overall minus sign is required
for the torsion residual to vanish.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conventions import EPS3

__all__ = [
    "ModelParams",
    "SpacetimeGrid",
    "DiagonalFluctuationSlab",
    "SpinConnectionSlab",
    "spin_connection_gauge_fixed",
    "spin_connection_general",
    "torsion_residual",
    "background_frame",
    "frame_pair_tensor",
    "central_difference",
    "spectral_difference",
    "TrigField",
    "random_bandlimited_slab",
    "sampled_slab",
    "connection_refinement",
]


@dataclass(frozen=True)
class ModelParams:
    """The physical triple (G, l, mu) in units hbar = 1, lattice constant = 1:
    G >= 0 the dimensionless coupling of the geometry sector, l > 0 the
    background frame scale (a length), mu > 0 the fluctuation mass."""

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


@dataclass(frozen=True)
class DiagonalFluctuationSlab:
    """Space-time samples of (xi1x, xi2y) on a periodic slab."""

    grid: SpacetimeGrid
    xi1x: np.ndarray
    xi2y: np.ndarray

    def __post_init__(self):
        for arr in (self.xi1x, self.xi2y):
            if np.shape(arr) != self.grid.shape:
                raise ValueError(f"field shape {np.shape(arr)} != grid shape {self.grid.shape}")

    @classmethod
    def zero(cls, grid: SpacetimeGrid) -> "DiagonalFluctuationSlab":
        z = np.zeros(grid.shape)
        return cls(grid, z, z.copy())

    def components(self) -> dict:
        """The component map of xi[A, mu]: only (1, x) and (2, y) exist."""
        return {(1, 1): self.xi1x, (2, 2): self.xi2y}


@dataclass(frozen=True)
class SpinConnectionSlab:
    """Connection perturbation v[A, mu] sampled over a space-time slab:
    ``components`` maps (A, mu) to a grid array, an absent one is zero."""

    grid: SpacetimeGrid
    components: dict

    def __post_init__(self):
        for (a, m), arr in self.components.items():
            if not (0 <= a < 3 and 0 <= m < 3) or np.shape(arr) != self.grid.shape:
                raise ValueError(f"connection component {(a, m)} does not fit the grid")


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
    """Second-order central difference with periodic wrap.

    Bitwise ``(np.roll(arr, -1, axis) - np.roll(arr, 1, axis)) / (2 h)``,
    written into one array through slices instead of two rolled copies."""
    a = np.moveaxis(arr, axis, 0)
    out = np.empty(np.shape(arr), np.result_type(arr, 1.0))
    o = np.moveaxis(out, axis, 0)
    np.subtract(a[2:], a[:-2], out=o[1:-1])
    np.subtract(a[1:2], a[-1:], out=o[:1])
    np.subtract(a[:1], a[-2:-1], out=o[-1:])
    out /= 2.0 * spacing
    return out


def spectral_difference(arr: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Fourier derivative; exact for band-limited periodic samples.

    The unpaired Nyquist coefficient (even lengths) is dropped so the
    operator has a real convolution kernel; fields must stay below the
    Nyquist limit for exactness, which every caller's contract assumes.
    A real input goes through ``rfft``/``irfft`` and comes back real, a
    complex one through ``fft``/``ifft``."""
    n = arr.shape[axis]
    real = np.isrealobj(arr)
    k = 2.0 * np.pi * (np.fft.rfftfreq if real else np.fft.fftfreq)(n, d=spacing)
    if n % 2 == 0:
        k[n // 2] = 0.0
    shape = [1] * arr.ndim
    shape[axis] = len(k)
    if real:
        return np.fft.irfft(1j * k.reshape(shape) * np.fft.rfft(arr, axis=axis), n, axis=axis)
    return np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(arr, axis=axis), axis=axis)


_DIFFERENCES = {"central": central_difference, "spectral": spectral_difference}


# ---------------------------------------------------------------------------
# sparse slab contractions
# ---------------------------------------------------------------------------

class _LazyMap(Mapping):
    """A component map whose arrays ``build(key)`` makes at each read: a
    contraction reading each once holds one at a time (:func:`_contract`)."""

    def __init__(self, keys, build):
        self._keys, self._build = tuple(keys), build

    def __getitem__(self, key):
        return self._build(key)

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


def _slab_derivatives(components: dict, spacings, scheme: str) -> _LazyMap:
    """{(alpha, A, mu): d_alpha T[A, mu]} for every component of a map,
    each derivative taken when it is read (``dict(...)`` keeps them all)."""
    diff = _DIFFERENCES[scheme]
    return _LazyMap([(alpha,) + idx for idx in components for alpha in range(3)],
                    lambda key: diff(components[key[1:]], key[0], spacings[key[0]]))


def _contract(subscripts: str, *operands):
    """``np.einsum`` summed over the nonzero entries only.

    An operand is either a constant array over small indices (epsilon,
    ebar, eta, M) or a component map {index tuple: grid array} whose
    subscript ends in ``...``; constants contribute their nonzero entries
    and maps the components they hold, so a contraction costs one grid
    product per surviving term instead of one per index combination.
    Each term reads its fields as it multiplies them (so a :class:`_LazyMap`
    builds only the arrays some term reads), its constant factors first,
    then its fields left to right, and each output adds its terms in place
    in lexicographic order of the summed labels; where the dense
    contraction meets the nonzero terms in that order too, the result is
    bitwise the same.

    Returns a component map keyed by the output labels, or, when the
    output is ``...`` alone, the grid array itself (0.0 if no term
    survives).
    """
    inputs, output = subscripts.split("->")
    specs = [s.replace("...", "") for s in inputs.split(",")]
    out_labels = output.replace("...", "")
    summed = sorted(set("".join(specs)) - set(out_labels))
    terms = [({}, 1.0, ())]  # (label binding, constant factor, (map, key) of each field)
    for spec, op in zip(specs, operands):
        is_field = isinstance(op, Mapping)
        entries = ([(idx, op) for idx in op] if is_field else
                   [(idx, op[idx]) for idx in map(tuple, np.argwhere(op).tolist())])
        grown = []
        for binding, coef, fields in terms:
            for idx, value in entries:
                bound = dict(binding)
                if all(bound.setdefault(lab, i) == i for lab, i in zip(spec, idx)):
                    grown.append((bound, coef, fields + ((value, idx),)) if is_field
                                 else (bound, coef * value, fields))
        terms = grown
    out = {}
    for binding, coef, fields in sorted(terms, key=lambda t: [t[0][lab] for lab in summed]):
        (op, idx), *rest = fields
        prod = coef * op[idx]  # a fresh array, so the products and sums below are in place
        for op, idx in rest:
            prod *= op[idx]
        key = tuple(binding[lab] for lab in out_labels)
        if key in out:
            out[key] += prod
        else:
            out[key] = prod
    if out_labels:
        return out
    return out.get((), 0.0)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _closed_form_connection(l: float, dy_xi1x, dx_xi2y, dt_xi1x, dt_xi2y) -> dict:
    """The component map of v[A, mu] of the module docstring, from the four
    derivatives it reads (which it takes over: dt_xi1x is stored as is)."""
    return {(0, 1): -dy_xi1x / l, (0, 2): dx_xi2y / l,
            (1, 2): -dt_xi2y, (2, 1): dt_xi1x}


def spin_connection_gauge_fixed(params: ModelParams,
                                xi: DiagonalFluctuationSlab) -> SpinConnectionSlab:
    """Closed-form torsionless connection for diagonal fluctuations.

    Derivatives along t, x and y are second-order central differences on
    the periodic slab.  v^0_t vanishes identically for diagonal fields: the
    antisymmetric contraction it is built from has no diagonal support.
    This is the reference that :func:`spin_connection_general` is tested
    against.
    """
    grid, d = xi.grid, central_difference
    return SpinConnectionSlab(grid, _closed_form_connection(
        params.l, d(xi.xi1x, 2, grid.h), d(xi.xi2y, 1, grid.h),
        d(xi.xi1x, 0, grid.ht), d(xi.xi2y, 0, grid.ht)))


def spin_connection_general(params: ModelParams, xi: DiagonalFluctuationSlab,
                            scheme: str = "central") -> SpinConnectionSlab:
    """Evaluate the torsionless solution as the full M-eps-dxi contraction.

    Finite differences along every axis of the slab; ``scheme="spectral"``
    switches to Fourier derivatives for band-limited fields (the one
    derivative option: :func:`connection_refinement` scores the central
    differences, the action functionals need the spectral connection).
    With central differences it equals :func:`spin_connection_gauge_fixed`
    to rounding; against the closed form on analytic derivatives it is
    O(h^2) off (exact, for spectral derivatives).
    """
    # W[B, nu] = eps[nu, alpha, beta] d_alpha xi_{B beta}; lower frame index
    # is the plain symbol view (the A = 0 row carries no field).
    W = _contract("nab,aBb...->Bn...", EPS3,
                  _slab_derivatives(xi.components(), xi.grid.spacings, scheme))
    v = _contract("aBmn,Bn...->am...", frame_pair_tensor(params), W)
    for comp in v.values():  # each a fresh array of _contract
        np.negative(comp, out=comp)
    return SpinConnectionSlab(xi.grid, v)


def torsion_residual(params: ModelParams, xi: DiagonalFluctuationSlab,
                     v: SpinConnectionSlab) -> float:
    """Max-norm of the linearized torsion of (xi, v).

    Computes eps^{mu nu rho}(d_nu xi^A_rho + eps^A_BC ebar^B_nu v^C_rho)
    with periodic second-order central differences (the O(h^2) scheme that
    :func:`connection_refinement` verifies), one frame index A at a time,
    and returns its max absolute value over the interior time slices: the
    first and last are dropped, so slabs that are not time-periodic (e.g.
    3-slice probes) are scored where the central difference is one-sided-free.
    """
    dxi = _slab_derivatives(xi.components(), xi.grid.spacings, "central")
    worst = []
    for a in range(3):
        # total[nu, rho] = d_nu xi^a_rho + eps^a_BC ebar^B_nu v^C_rho, summed
        # into the fresh arrays of the connection term
        total = _contract("bc,bn,cr...->nr...", EPS3[a], background_frame(params),
                          v.components)
        for n, r in [(n, r) for n, b, r in dxi if b == a and n != r]:  # eps reads nu != rho
            if (n, r) in total:
                total[n, r] += dxi[n, a, r]
            else:
                total[n, r] = dxi[n, a, r]
        res = _contract("mnr,nr...->m...", EPS3, total)
        worst += [float(np.abs(comp[1:-1]).max()) for comp in res.values()]
        del total, res
    return max(worst, default=0.0)


# ---------------------------------------------------------------------------
# continuum check fields and the connection refinement study
# ---------------------------------------------------------------------------

class TrigField:
    """A random continuum sine series with analytic derivatives.

    Spatial wavenumbers are integer multiples of 2 pi over fixed periods
    (lx, ly), so the same continuum function can be resampled on refined
    grids; the time frequency of each mode is a free real number in
    [0.5, 1.5).  Each of the ``n_modes`` modes draws from ``rng``, in this
    order: its wavenumbers (kx, ky) != (0, 0), its amplitude
    ``amp * normal``, its time frequency and its phase."""

    def __init__(self, rng, n_modes, amp, lx, ly):
        self.terms = []
        while len(self.terms) < n_modes:
            kx = int(rng.integers(-3, 4))
            ky = int(rng.integers(-3, 4))
            if (kx, ky) == (0, 0):
                continue
            self.terms.append((amp * rng.normal(), rng.uniform(0.5, 1.5),
                               2 * np.pi * kx / lx, 2 * np.pi * ky / ly,
                               rng.uniform(0.0, 2 * np.pi)))

    def sample(self, t, x, y, derivatives):
        """The partial derivatives d^(dt+dx+dy) / dt^dt dx^dx dy^dy of the
        field, one array per (dt, dx, dy) in ``derivatives``, on the grid
        that ``t``, ``x`` and ``y`` broadcast to, one mode at a time.

        Each mode's wave is separable: exp(i(w t + phase)), exp(i kx x) and
        exp(i ky y) are taken on their own axes and broadcast together, so
        the grid costs one complex product per point, whose imaginary and
        real parts are the sine and cosine that every derivative reads."""
        outs = [np.zeros(np.broadcast(t, x, y).shape) for _ in derivatives]
        for amp, w, kx, ky, phase in self.terms:
            wave = np.exp(1j * (w * t + phase)) * np.exp(1j * kx * x) * np.exp(1j * ky * y)
            waves = (wave.imag, wave.real)
            for out, (dt, dx, dy) in zip(outs, derivatives):
                order = (dt + dx + dy) % 4
                coef = amp * ((w ** dt) * (kx ** dx) * (ky ** dy))
                out += (coef if order < 2 else -coef) * waves[order % 2]
        return outs


def random_bandlimited_slab(rng, grid: SpacetimeGrid, n_modes: int,
                            amp: float) -> DiagonalFluctuationSlab:
    """A periodic random slab of (xi1x, xi2y) from ``n_modes`` sine modes.

    The integer wavenumbers (|kt| <= 2, |kx|, |ky| <= 3, not all zero) are
    over the slab's own periods and shared by both components, so their
    cross-term integrals are O(1) instead of vanishing by orthogonality;
    each component then draws a phase and an ``amp * normal`` amplitude
    per mode."""
    t = (np.arange(grid.nt) * grid.ht)[:, None, None]
    x = (np.arange(grid.nx) * grid.h)[None, :, None]
    y = (np.arange(grid.ny) * grid.h)[None, None, :]
    periods = (grid.nt * grid.ht, grid.nx * grid.h, grid.ny * grid.h)
    modes = []
    while len(modes) < n_modes:
        cand = (int(rng.integers(-2, 3)), int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        if cand != (0, 0, 0):
            modes.append(cand)

    def component():
        out = np.zeros(grid.shape)
        for kt, kx, ky in modes:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            out += rng.normal() * amp * np.sin(
                2 * np.pi * (kt * t / periods[0] + kx * x / periods[1]
                             + ky * y / periods[2]) + phase)
        return out

    return DiagonalFluctuationSlab(grid, component(), component())


def sampled_slab(params: ModelParams, f1: TrigField, f2: TrigField,
                 grid: SpacetimeGrid, t: Optional[np.ndarray] = None):
    """The slab of (xi1x, xi2y) = (f1, f2) on ``grid`` and the closed-form
    torsionless connection (module docstring) from their analytic
    derivatives.  ``t`` holds the times of the ``grid.nt`` slices; by
    default slice ``nt // 2`` sits at t = 0."""
    if t is None:
        t = (np.arange(grid.nt) - grid.nt // 2) * grid.ht
    t = t[:, None, None]
    x = (np.arange(grid.nx) * grid.h)[None, :, None]
    y = (np.arange(grid.ny) * grid.h)[None, None, :]
    xi1, xi1_y, xi1_t = f1.sample(t, x, y, ((0, 0, 0), (0, 0, 1), (1, 0, 0)))
    xi2, xi2_x, xi2_t = f2.sample(t, x, y, ((0, 0, 0), (0, 1, 0), (1, 0, 0)))
    v = _closed_form_connection(params.l, xi1_y, xi2_x, xi1_t, xi2_t)
    return DiagonalFluctuationSlab(grid, xi1, xi2), SpinConnectionSlab(grid, v)


def _connection_errors(params: ModelParams, f1: TrigField, f2: TrigField,
                       grid: SpacetimeGrid, t: Optional[np.ndarray] = None):
    """(torsion residual, agreement) of one sampled slab, both over its
    interior time slices."""
    slab, v_ref = sampled_slab(params, f1, f2, grid, t)
    residual = torsion_residual(params, slab, v_ref)
    gen, ref = spin_connection_general(params, slab).components, v_ref.components

    def interior(comps, key):  # an absent component is identically zero
        return comps[key][1:-1] if key in comps else 0.0

    agreement = max((float(np.abs(interior(gen, key) - interior(ref, key)).max())
                     for key in gen.keys() | ref.keys()), default=0.0)
    return residual, agreement


def connection_refinement(params: ModelParams, f1: TrigField, f2: TrigField,
                          grid: SpacetimeGrid):
    """The O(h^2) refinement study of the central-difference connection.

    Returns ((torsion residual, agreement) at the spacings of ``grid``,
    the same at half of them): the torsion of the slab sampled from
    (f1, f2) with its closed-form connection, and the max difference
    between :func:`spin_connection_general` and that connection.  Both
    come from analytic derivatives, so each is a pure O(h^2)
    discretization error whose h to h/2 ratio should be near 4.

    Both are scored on the interior time slices (all but the first and
    last), so the h/2 level has 2 nt - 3 slices, placed so that its
    interior covers exactly the h level's interior.  It is evaluated in
    time chunks of at most max(3, (nt + 8) // 4) slices that overlap by 2:
    the central difference reaches one slice either side, so each chunk
    scores its interior as the whole slab would, and the chunk interiors
    tile the level's.  A refined slice has 4x the points of a coarse one,
    so a chunk holds at most (nt + 8) / nt times the points of ``grid``
    for nt >= 4 (1.5x at nt = 16): the study's memory peak is one chunk's.
    """
    nt = grid.nt
    size = max(3, (nt + 8) // 4)
    fine_t = (np.arange(2 * nt - 3) - (2 * (nt // 2) - 1)) * (grid.ht / 2)
    chunks = [fine_t[start:start + size] for start in range(0, len(fine_t) - 2, size - 2)]
    fine = [_connection_errors(params, f1, f2,
                               SpacetimeGrid(len(t), 2 * grid.nx, 2 * grid.ny,
                                             grid.ht / 2, grid.h / 2), t)
            for t in chunks]
    return (_connection_errors(params, f1, f2, grid),
            (max(res for res, _ in fine), max(agr for _, agr in fine)))
