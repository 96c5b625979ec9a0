"""Shared fixtures, continuum test fields and the reference oracles.

The symbolic oracles derive in sympy the exact constants the library
hard-codes, so sympy is a test-only dependency.  The full-space assembly
and correlator oracles are the references for the sector-basis
Hamiltonians and observables; the dense ``np.einsum`` oracles are the
references for the sparse slab contractions of the geometry sector.
"""

from typing import Optional

import numpy as np
import pytest
import scipy.sparse as sparse
import sympy as sp

from gravlat.continuum import hgr_quadratic_form
from gravlat.conventions import EPS3, ETA
from gravlat.designer import optical_params
from gravlat.geometry import (DiagonalFluctuationSlab, ModelParams,
                              SpinConnectionSlab, _deriv, background_frame,
                              frame_pair_tensor)
from gravlat.gravity_action import ActionReport, _integral, massive_fp_action
from gravlat.lattice import LatticeSpec
from gravlat.manybody import (CorrelatorReport, FockSpace, GroundStateResult,
                              ModeOperators, _bond_list, _hermitize, _pairs,
                              operator_algebra)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class TrigField3:
    """Continuum test field: sum of sines with analytic partial derivatives.

    Spatial wavenumbers are commensurate with the given periods so the same
    function can be sampled on refined grids; the time frequency is free.
    """

    def __init__(self, rng, lx, ly, n_modes=3, amp=0.1, time_freq=True):
        self.terms = []
        while len(self.terms) < n_modes:
            kx = int(rng.integers(-3, 4))
            ky = int(rng.integers(-3, 4))
            if (kx, ky) == (0, 0):
                continue
            w = rng.uniform(0.5, 1.5) if time_freq else 0.0
            self.terms.append((amp * rng.normal(), w,
                               2 * np.pi * kx / lx, 2 * np.pi * ky / ly,
                               rng.uniform(0, 2 * np.pi)))

    def __call__(self, t, x, y, dt=0, dx=0, dy=0):
        out = np.zeros(np.broadcast(t, x, y).shape)
        waves = (np.sin, np.cos, lambda a: -np.sin(a), lambda a: -np.cos(a))
        for amp, w, kx, ky, phase in self.terms:
            arg = w * t + kx * x + ky * y + phase
            out += amp * (w ** dt) * (kx ** dx) * (ky ** dy) * waves[(dt + dx + dy) % 4](arg)
        return out


@pytest.fixture
def trig_field_factory(rng):
    def make(lx, ly, n_modes=3, amp=0.1, time_freq=True):
        return TrigField3(rng, lx, ly, n_modes=n_modes, amp=amp, time_freq=time_freq)
    return make


# ---------------------------------------------------------------------------
# symbolic oracles
# ---------------------------------------------------------------------------

def symbolic_elimination_ratio() -> sp.Rational:
    """Exact coefficient of the induced interaction, by completing squares.

    Works in the flipped-mass convention: the geometry-dependent part of
    the Hamiltonian density is

        f(xi) = s (xi1 J1 + xi2 J2) + m xi1 xi2 ,
        s = 8 pi G / l^2 * l = 8 pi G / l ,   m = +8 pi G mu^2 ,

    whose stationary value is f* = -s^2 J1 J2 / m.  Returns the exact
    rational r with f* = r * (pi G / (l^2 mu^2)) * (eps contraction), where
    the epsilon contraction equals 2 J1 J2 for diagonal currents.
    """
    G, l, mu = sp.symbols("G l mu", positive=True)
    j1, j2, x1, x2 = sp.symbols("J1 J2 x1 x2", real=True)
    s = 8 * sp.pi * G / l
    m = 8 * sp.pi * G * mu ** 2
    f = s * (x1 * j1 + x2 * j2) + m * x1 * x2
    sol = sp.solve([sp.diff(f, x1), sp.diff(f, x2)], [x1, x2], dict=True)
    if len(sol) != 1:
        raise RuntimeError("stationary point of the quadratic form not unique")
    f_star = sp.simplify(f.subs(sol[0]))
    unit = sp.pi * G / (l ** 2 * mu ** 2) * 2 * j1 * j2
    ratio = sp.simplify(f_star / unit)
    if not ratio.is_Rational:
        raise RuntimeError(f"elimination coefficient is not rational: {ratio}")
    return ratio


def q_map_commutators():
    """Exact commutator matrix of the ladder redefinition, in sympy.

    Returns the 2x2 matrix K with K[a, b] = [q_a, q_b+] computed from
    [d_m, d_n+] = delta_mn:

        K = [[1, -1/3], [-1/3, 1]] .

    The self-commutators are preserved exactly ( (2 sqrt2/3)^2 + (1/3)^2
    = 1 ) but the pair is not canonical: the off-diagonal entry is -1/3,
    so the pair substitution genuinely deforms the quadratic spectrum and
    every mapping in :mod:`gravlat.manybody` works in the d modes directly.
    """
    alpha = 2 * sp.sqrt(2) / 3
    beta = -sp.Rational(1, 3)
    coeffs = {  # q_a = sum_m coeffs[a][m] d_m over m in (x, z)
        1: {"x": alpha, "z": beta},
        2: {"x": sp.Integer(0), "z": sp.Integer(1)},
    }
    k = sp.zeros(2, 2)
    for a in (1, 2):
        for b in (1, 2):
            k[a - 1, b - 1] = sp.nsimplify(sum(
                coeffs[a][m] * coeffs[b][m] for m in ("x", "z")))
    return sp.simplify(k)


# ---------------------------------------------------------------------------
# full-space assembly oracle
# ---------------------------------------------------------------------------
#
# The assemblers as they were before the many-body layer moved to the
# sector basis: every operator on the full 2^nf x boson space, built from
# the full-space mode operators ``ops.c`` / ``ops.d``.  Sliced by
# ``space.sector_indices()``, they must equal the library's sector-basis
# Hamiltonians exactly.

def full_space_hopping(ops: ModeOperators, spec: LatticeSpec, coupling_ops):
    """sum_bonds J_op (a_i+ b_k) + h.c. with J_op per (cell, species)."""
    space = ops.space
    n = spec.n_cells
    half = sparse.csr_matrix((space.dimension, space.dimension))
    for cell, species, a_cell, b_cell in _bond_list(spec):
        a_dag = ops.c[a_cell].getH()
        b = ops.c[n + b_cell]
        half = half + coupling_ops[(cell, species)] @ (a_dag @ b)
    return half + half.getH()


def full_space_simulator(params: ModelParams, spec: LatticeSpec,
                         space: FockSpace,
                         ops: Optional[ModeOperators] = None):
    """Hopping with condensate-linearized coupling operators plus the
    quartic boson Hamiltonian in the shifted modes.

    Coupling operators: J_m = Delta_m D_m^2 + Delta_m D_m (d_m + d_m+),
    the x operator serving both outgoing bonds of its cell.  The boson
    part, per pair (alpha_m = D_m + d_m, N_m = alpha_m+ alpha_m exact):

        (1/(24 pi G)) (az+ - az)(sqrt2 (ax+ - ax) - (az+ - az)/2)
        + (8 pi G mu^2 / 3)(N_z + N_x)
        - (256 pi^3 G^3 mu^2 / (3 l^2)) N_z (N_x - N_z / 2)

    Fermion modes are ordered a_0..a_{N-1}, b_0..b_{N-1}; requires
    space.n_fermion_modes == 2 * spec.n_cells.
    """
    if space.n_fermion_modes != spec.n_modes:
        raise ValueError("space fermion modes do not match the lattice")
    if ops is None:
        ops = operator_algebra(space)
    opt = optical_params(params)
    dim = space.dimension
    eye = sparse.identity(dim, format="csr")

    coupling_ops = {}
    for cell, species, _, _ in _bond_list(spec):
        key = (cell, species)
        if key in coupling_ops:
            continue
        amp = opt.amplitude(species)
        strength = opt.strength(species)
        background = strength * amp * amp * eye
        try:
            dm = ops.d[space.boson_mode_index(cell, species)]
        except KeyError:
            # bond without a fluctuation mode stays at the background value
            coupling_ops[key] = background
            continue
        coupling_ops[key] = background + strength * amp * (dm + dm.getH())
    h = full_space_hopping(ops, spec, coupling_ops)

    g = params.G
    pref_pi = 1.0 / (24.0 * np.pi * g)
    pref_n = 8.0 * np.pi * g * params.mu ** 2 / 3.0
    pref_q = 256.0 * np.pi ** 3 * g ** 3 * params.mu ** 2 / (3.0 * params.l ** 2)
    for cell in _pairs(space):
        dx = ops.d[space.boson_mode_index(cell, "x")]
        dz = ops.d[space.boson_mode_index(cell, "z")]
        bx = dx + opt.d_x * eye   # alpha_x in the number basis of d_x
        bz = dz + opt.d_z * eye
        abar_x = bx.getH() - bx   # equals dx+ - dx exactly
        abar_z = bz.getH() - bz
        n_x = bx.getH() @ bx
        n_z = bz.getH() @ bz
        h = h + pref_pi * (abar_z @ (np.sqrt(2.0) * abar_x - 0.5 * abar_z))
        h = h + pref_n * (n_z + n_x)
        h = h - pref_q * (n_z @ (n_x - 0.5 * n_z))
    return _hermitize(h)


def full_space_background(l: float, spec: LatticeSpec, space: FockSpace,
                          ops: Optional[ModeOperators] = None):
    """Hopping at the uniform background coupling 2/(3 l), bosons inert.

    This is the exact G -> 0 limit of the fermion sector (the simulator's
    boson energies diverge as 1/G, so the decoupled point is assembled
    directly instead of by taking tiny G numerically).
    """
    if space.n_fermion_modes != spec.n_modes:
        raise ValueError("space fermion modes do not match the lattice")
    if ops is None:
        ops = operator_algebra(space)
    j0 = 2.0 / (3.0 * l)
    eye = sparse.identity(space.dimension, format="csr")
    coupling_ops = {(cell, species): j0 * eye
                    for cell, species, _, _ in _bond_list(spec)}
    return _hermitize(full_space_hopping(ops, spec, coupling_ops))


def full_space_target(params: ModelParams, spec: LatticeSpec,
                      space: FockSpace,
                      ops: Optional[ModeOperators] = None):
    """Field-theory Hamiltonian on the same hopping graph.

    The velocity operators are written through the q combination,

        v_x = 1/l - (4 sqrt2 pi G / l^2)(q1 + q1+)
        v_y = 1/l - (4 sqrt2 pi G / l^2)(q2 + q2+) ,

    and converted to bond couplings by the dictionary linearized about the
    background point: J_z = (2/3) v_y and
    delta J_x = (delta v_x + delta J_z / 2) / 2.  The boson sector is the
    exact quadratic density in the same substitution,

        (1/(16 pi G))(q1+ - q1)(q2+ - q2) - 4 pi G mu^2 (q1+ + q1)(q2+ + q2).
    """
    if space.n_fermion_modes != spec.n_modes:
        raise ValueError("space fermion modes do not match the lattice")
    if ops is None:
        ops = operator_algebra(space)
    dim = space.dimension
    eye = sparse.identity(dim, format="csr")
    j0 = 2.0 / (3.0 * params.l)
    slope = 4.0 * np.sqrt(2.0) * np.pi * params.G / params.l ** 2

    coupling_ops = {}
    for cell in _pairs(space):
        q1, q2 = ops.q_pair(cell)
        q1p = q1 + q1.getH()
        q2p = q2 + q2.getH()
        delta_jz = (2.0 / 3.0) * (-slope) * q2p
        delta_vx = -slope * q1p
        delta_jx = 0.5 * (delta_vx + 0.5 * delta_jz)
        coupling_ops[(cell, "z")] = j0 * eye + delta_jz
        coupling_ops[(cell, "x")] = j0 * eye + delta_jx
    for cell, species, _, _ in _bond_list(spec):
        if (cell, species) in coupling_ops:
            continue
        if (None, species) in coupling_ops:
            coupling_ops[(cell, species)] = coupling_ops[(None, species)]
        else:
            coupling_ops[(cell, species)] = j0 * eye  # no mode: background bond
    h = full_space_hopping(ops, spec, coupling_ops)

    form = hgr_quadratic_form(params, convention="legendre")
    for cell in _pairs(space):
        q1, q2 = ops.q_pair(cell)
        q1m = q1.getH() - q1
        q2m = q2.getH() - q2
        q1p = q1.getH() + q1
        q2p = q2.getH() + q2
        h = h + form.q_minus_coeff * (q1m @ q2m) + form.q_plus_coeff * (q1p @ q2p)
    return _hermitize(h)


# ---------------------------------------------------------------------------
# full-space correlator oracle
# ---------------------------------------------------------------------------
#
# The observables as they were before they moved to the sector basis: every
# quadruple enumerated with the full-space ``ops.c`` / ``ops.d`` applied to
# full-space vectors.

def full_space_mixture(state, space: FockSpace):
    """(weights, full-space vectors) of a GroundStateResult or of a vector
    on the sector basis, embedded by ``space.sector_indices()``."""
    if isinstance(state, GroundStateResult):
        n = state.multiplicity
        return [1.0 / n] * n, state.states
    full = np.zeros(space.dimension, dtype=complex)
    full[space.sector_indices()] = state
    return [1.0], [full]


def full_space_correlators(state, space: FockSpace, ops: ModeOperators) -> CorrelatorReport:
    """Every field of :class:`CorrelatorReport` by full enumeration of the
    nf^4 quadruples <c_i+ c_j+ c_k c_l> in lexicographic order."""
    weights, states = full_space_mixture(state, space)
    nf = space.n_fermion_modes
    nb = space.n_boson_modes
    c_mat = np.zeros((nf, nf), dtype=complex)
    d_dag_d = np.zeros((nb, nb), dtype=complex)
    d_dag_ddag = np.zeros((nb, nb), dtype=complex)
    q_corr = {}
    quads = [(i, j, k, l) for i in range(nf) for j in range(nf)
             for k in range(nf) for l in range(nf)]
    four = np.zeros(len(quads), dtype=complex)
    for w, psi in zip(weights, states):
        cvecs = [ops.c[i] @ psi for i in range(nf)]
        for i in range(nf):
            for j in range(nf):
                c_mat[i, j] += w * np.vdot(cvecs[i], cvecs[j])
        dvecs = [dm @ psi for dm in ops.d]
        ddagvecs = [dm.getH() @ psi for dm in ops.d]
        for m in range(nb):
            for n in range(nb):
                d_dag_d[m, n] += w * np.vdot(dvecs[m], dvecs[n])
                d_dag_ddag[m, n] += w * np.vdot(dvecs[m], ddagvecs[n])
        for cell in _pairs(space):
            q1, q2 = ops.q_pair(cell)
            q1v = q1 @ psi
            acc = q_corr.setdefault(cell, {"q1dag_q2": 0.0, "q1dag_q2dag": 0.0})
            acc["q1dag_q2"] += w * np.vdot(q1v, q2 @ psi)
            acc["q1dag_q2dag"] += w * np.vdot(q1v, q2.getH() @ psi)
        for t, (i, j, k, l) in enumerate(quads):
            four[t] += w * np.vdot(ops.c[j] @ (ops.c[i] @ psi),
                                   ops.c[k] @ (ops.c[l] @ psi))
    wick = np.array([c_mat[i, l] * c_mat[j, k] - c_mat[i, k] * c_mat[j, l]
                     for (i, j, k, l) in quads])
    diff = np.abs(four - wick)
    top = int(np.argmax(diff)) if len(diff) else 0
    return CorrelatorReport(
        c_matrix=c_mat, d_dag_d=d_dag_d, d_dag_ddag=d_dag_ddag, q_corr=q_corr,
        wick_residual=float(diff.max()) if len(diff) else 0.0,
        wick_argmax=quads[top] if quads else ())


# ---------------------------------------------------------------------------
# dense slab-contraction oracles
# ---------------------------------------------------------------------------
# Every contraction runs np.einsum over all 3^k small-index combinations,
# zeros included, with no knowledge of which entries vanish.

def dense_xi_derivatives(xi: DiagonalFluctuationSlab, scheme: str) -> np.ndarray:
    grid = xi.grid
    spac = grid.spacings
    xit = xi.as_tensor()
    dxi = np.zeros((3, 3, 3) + grid.shape)
    for (A, m) in ((1, 1), (2, 2)):
        for alpha in range(3):
            dxi[alpha, A, m] = _deriv(xit[A, m], alpha, spac[alpha], scheme)
    return dxi


def dense_v_derivatives(v: SpinConnectionSlab, scheme: str) -> np.ndarray:
    grid = v.grid
    spac = grid.spacings
    dv = np.zeros((3, 3, 3) + grid.shape)
    for A in range(3):
        for m in range(3):
            if np.any(v.tensor[A, m]):
                for alpha in range(3):
                    dv[alpha, A, m] = _deriv(v.tensor[A, m], alpha, spac[alpha], scheme)
    return dv


def dense_spin_connection_general(params: ModelParams, xi: DiagonalFluctuationSlab,
                                  scheme: str = "central") -> SpinConnectionSlab:
    grid = xi.grid
    dxi = dense_xi_derivatives(xi, scheme)
    M = frame_pair_tensor(params)
    W = np.einsum("nab,aBb...->Bn...", EPS3, dxi)
    tensor = -np.einsum("aBmn,Bn...->am...", M, W)
    return SpinConnectionSlab(grid, tensor)


def dense_torsion_residual(params: ModelParams, xi: DiagonalFluctuationSlab,
                           v: SpinConnectionSlab, scheme: str = "central") -> float:
    grid = xi.grid
    spac = grid.spacings
    xit = xi.as_tensor()
    vt = v.tensor
    dxi = np.zeros((3, 3, 3) + grid.shape)
    for A in range(3):
        for m in range(3):
            if np.any(xit[A, m]):
                for alpha in range(3):
                    dxi[alpha, A, m] = _deriv(xit[A, m], alpha, spac[alpha], scheme)
    ebar = background_frame(params)
    conn = np.einsum("abc,bn,cr...->anr...", EPS3, ebar, vt)
    grad = dxi.transpose(1, 0, 2, 3, 4, 5)  # -> [A, nu, rho, ...]
    res = np.einsum("mnr,anr...->am...", EPS3, grad + conn)
    return float(np.abs(res[:, :, 1:-1]).max())


def dense_palatini_total(params: ModelParams, xi: DiagonalFluctuationSlab,
                         v: SpinConnectionSlab, scheme: str = "spectral") -> float:
    g8 = 8.0 * np.pi * params.G
    grid = xi.grid
    ebar = background_frame(params)
    e_full = ebar.reshape(3, 3, 1, 1, 1) + g8 * xi.as_tensor()
    omega = g8 * v.tensor
    domega = g8 * dense_v_derivatives(v, scheme)
    t1 = np.einsum("mnr,am...,nar...->...", EPS3, e_full, domega)
    t2 = 0.5 * np.einsum("mnr,abc,am...,bn...,cr...->...", EPS3, EPS3, e_full, omega, omega)
    return _integral(grid, t1 + t2) / g8


def dense_fierz_pauli_quadratic(params: ModelParams, xi: DiagonalFluctuationSlab,
                                scheme: str = "spectral") -> float:
    dxi = dense_xi_derivatives(xi, scheme)
    M = frame_pair_tensor(params)
    W = np.einsum("mab,aAb...->Am...", EPS3, dxi)
    q = np.einsum("aBmn,am...,Bn...->...", M, W, W)
    return -4.0 * np.pi * params.G * _integral(xi.grid, q)


def dense_palatini_orders(params: ModelParams, xi: DiagonalFluctuationSlab,
                          v: Optional[SpinConnectionSlab] = None,
                          scheme: str = "spectral") -> ActionReport:
    if v is None:
        v = dense_spin_connection_general(params, xi, scheme=scheme)
    grid = xi.grid
    ebar = background_frame(params)
    dv = dense_v_derivatives(v, scheme)
    t1 = np.einsum("mnr,am...,nar...->...", EPS3, xi.as_tensor(), dv)
    t2 = 0.5 * np.einsum("mnr,abc,am,bn...,cr...->...", EPS3, EPS3, ebar,
                         v.tensor, v.tensor)
    s2 = _integral(grid, t1 + t2)
    s_massive = massive_fp_action(params, xi, scheme=scheme)
    residuals = {}
    if params.G > 0:
        g8 = 8.0 * np.pi * params.G
        total = dense_palatini_total(params, xi, v, scheme=scheme)
        residuals["order_bookkeeping"] = total - g8 * s2
        residuals["quadratic_vs_double_eps"] = (
            g8 * s2 - dense_fierz_pauli_quadratic(params, xi, scheme=scheme))
    else:
        residuals["order_bookkeeping"] = 0.0
    return ActionReport(s0=0.0, s1=0.0, s2=s2, s_massive=s_massive,
                        residuals=residuals)


def dense_fp_standard_form(params: ModelParams, xi: DiagonalFluctuationSlab,
                           scheme: str = "spectral") -> float:
    grid = xi.grid
    spac = grid.spacings
    h = np.zeros((3, 3) + grid.shape)
    h[1, 1] = 2.0 * params.l * xi.xi1x
    h[2, 2] = 2.0 * params.l * xi.xi2y
    dh = np.zeros((3, 3, 3) + grid.shape)
    for (m, n) in ((1, 1), (2, 2)):
        for alpha in range(3):
            dh[alpha, m, n] = _deriv(h[m, n], alpha, spac[alpha], scheme)
    dh_up = np.einsum("ma,nb,lab...->lmn...", ETA, ETA, dh)
    trace_d = np.einsum("mn,lmn...->l...", ETA, dh)
    term1 = -0.5 * np.einsum("lmn...,ls,smn...->...", dh, ETA, dh_up)
    term2 = np.einsum("mnl...,ns,sml...->...", dh, ETA, dh_up)
    div_h = np.einsum("mmn...->n...", dh_up)
    term3 = -np.einsum("n...,n...->...", div_h, trace_d)
    term4 = 0.5 * np.einsum("l...,ls,s...->...", trace_d, ETA, trace_d)
    dens = term1 + term2 + term3 + term4
    return (2.0 * np.pi * params.G / params.l ** 2) * _integral(grid, dens)
