"""Shared fixtures and the reference oracles.

The symbolic oracles derive in sympy the exact constants the library
hard-codes, so sympy is a test-only dependency.  ``sector_csr`` gives the
tests a scipy CSR form of a library operator.  The full-space mode
operators (``full_space_d``, ``q_pair``, ``fermion_number``) are scipy kron
chains built here, and the full-space assembly and correlator oracles
built from them are the references for the sector-basis Hamiltonians and
observables, and ``full_sector_mapping_residual`` (the
window block cut from full-sector Hamiltonians) for the window-native
mapping residual; ``stored_basis_lanczos`` (the Lanczos that kept its
Krylov basis) is the reference for the rerun sums, Ritz vectors included;
``stacked_sort_on_sector`` (the assembly that stacked its pieces, B's copies
included, and sorted them by row) is the reference for the materialized
arrays of the in-place assembly; the dense
``np.einsum`` oracles are the references for the sparse slab
contractions of the geometry sector.
"""

from functools import reduce
from typing import Optional

import numpy as np
import pytest
import scipy.sparse as sparse
import sympy as sp

import gravlat.manybody as manybody
from gravlat.continuum import hgr_quadratic_form
from gravlat.conventions import EPS3, ETA
from gravlat.designer import optical_params
from gravlat.exceptions import ConvergenceError
from gravlat.geometry import (DiagonalFluctuationSlab, ModelParams,
                              SpinConnectionSlab, _DIFFERENCES, background_frame,
                              central_difference, frame_pair_tensor,
                              spectral_difference)
from gravlat.gravity_action import ActionReport, _integral, massive_fp_action
from gravlat.lattice import LatticeSpec
from gravlat.manybody import (Q1_X, Q1_Z, CorrelatorReport, FockSpace,
                              GroundStateResult, ModeOperators, SectorOperator,
                              operator_algebra)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# symbolic oracles
# ---------------------------------------------------------------------------

def symbolic_elimination_ratio() -> sp.Rational:
    """Exact coefficient of the induced interaction, by completing squares.

    Works with the mass sign opposite to ``hgr_quadratic_form``: the
    geometry-dependent part of the Hamiltonian density is

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


def sector_csr(h: SectorOperator) -> sparse.csr_matrix:
    """A scipy CSR copy of a sector operator's materialized entries, column
    indices sorted in each row (the library keeps its entries in assembly
    order and loads no scipy)."""
    h = h.materialized()
    m = sparse.csr_matrix((h.data, h.cols, h.indptr), shape=h.shape, copy=True)
    m.sort_indices()
    return m


# ---------------------------------------------------------------------------
# full-space mode operators
# ---------------------------------------------------------------------------

def pair_modes(space: FockSpace, cell) -> Optional[tuple]:
    """(x mode, z mode) of the pair serving ``cell``, modes 2p and 2p + 1 of
    pair p: the shared pair, or the cell's own; None when no pair serves it."""
    if space.pairs == (None,):
        return 0, 1
    if cell not in space.pairs:
        return None
    p = space.pairs.index(cell)
    return 2 * p, 2 * p + 1


def boson_ladders(space: FockSpace) -> tuple:
    """The boson annihilators on the boson factor as scipy kron chains of
    the number-basis ladder d[n - 1, n] = sqrt(n), mode m at stride
    (n_max + 1)^m of the boson index: the per-mode layout, which the
    library's one digit per pair (x the low half) must equal."""
    ladder = sparse.diags([np.sqrt(np.arange(1.0, space.n_max + 1))], [1],
                          shape=(space.n_max + 1, space.n_max + 1), format="csr")
    eye = sparse.identity(space.n_max + 1, format="csr")
    bs = []
    for m in range(space.n_boson_modes):
        factors = [ladder if j == m else eye for j in reversed(range(space.n_boson_modes))]
        bs.append(sparse.csr_matrix(
            reduce(lambda a, b: sparse.kron(a, b, format="csr"), factors)))
    return tuple(bs)


def full_space_d(space: FockSpace) -> tuple:
    """Boson annihilation operators on the full space."""
    eye_f = sparse.identity(space.fermion_dim, format="csr")
    return tuple(sparse.kron(eye_f, bm, format="csr") for bm in boson_ladders(space))


def q_pair(d, space: FockSpace, cell):
    """(q1, q2) on the full space for the pair serving ``cell``, from the
    full-space ladders ``d``."""
    mx, mz = pair_modes(space, cell)
    return Q1_X * d[mx] + Q1_Z * d[mz], d[mz]


def fermion_number(ops: ModeOperators):
    n = sparse.csr_matrix((ops.space.dimension, ops.space.dimension))
    for ci in ops.c:
        n = n + ci.getH() @ ci
    return n


def full_space_particle_hole(ops: ModeOperators, spec: LatticeSpec,
                             sublattice_sign: bool = True):
    """prod_i (c_i + eps_i c_i+) on the full space, eps_i = -1 on the B
    modes (n_cells..) when ``sublattice_sign``, else +1."""
    w = sparse.identity(ops.space.dimension, format="csr")
    for i, c in enumerate(ops.c):
        eps = -1.0 if sublattice_sign and i >= spec.n_cells else 1.0
        w = w @ (c + eps * c.getH())
    return w.tocsr()


# ---------------------------------------------------------------------------
# full-space assembly oracle
# ---------------------------------------------------------------------------
#
# The assemblers as they were before the many-body layer moved to the
# sector basis: every operator on the full 2^nf x boson space, built from
# the full-space mode operators ``ops.c`` and ``full_space_d``.  Sliced by
# ``space.sector_indices()``, they must equal the library's sector-basis
# Hamiltonians exactly.  ``_hermitize`` is the whole-matrix Hermiticity
# check and symmetrization they ended with.

def _hermitize(h, tol: float = 1e-12):
    """Assert Hermiticity of the raw assembly, then symmetrize exactly."""
    h = sparse.csr_matrix(h)
    defect = abs(h - h.getH()).max() if h.nnz else 0.0
    scale = abs(h).max() if h.nnz else 1.0
    if defect > tol * max(scale, 1.0):
        raise AssertionError(f"anti-Hermitian assembly: defect {defect:g}")
    return sparse.csr_matrix((h + h.getH()) * 0.5)


def _species_bonds(spec: LatticeSpec):
    """(cell, species, a_cell, b_cell) per bond of ``spec.bonds()``; the
    cell's x boson drives both its x and its y bond."""
    return [(cell, "z" if direction == "z" else "x", cell, b_cell)
            for cell, direction, b_cell in spec.bonds()]


def full_space_hopping(ops: ModeOperators, spec: LatticeSpec, coupling_ops):
    """sum_bonds J_op (a_i+ b_k) + h.c. with J_op per (cell, species)."""
    space = ops.space
    n = spec.n_cells
    half = sparse.csr_matrix((space.dimension, space.dimension))
    for cell, species, a_cell, b_cell in _species_bonds(spec):
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
    d = full_space_d(space)

    coupling_ops = {}
    for cell, species, _, _ in _species_bonds(spec):
        key = (cell, species)
        if key in coupling_ops:
            continue
        amp = opt.amplitude(species)
        strength = opt.strength(species)
        background = strength * amp * amp * eye
        modes = pair_modes(space, cell)
        if modes is None:
            # bond without a fluctuation mode stays at the background value
            coupling_ops[key] = background
            continue
        dm = d[modes["xz".index(species)]]
        coupling_ops[key] = background + strength * amp * (dm + dm.getH())
    h = full_space_hopping(ops, spec, coupling_ops)

    g = params.G
    pref_pi = 1.0 / (24.0 * np.pi * g)
    pref_n = 8.0 * np.pi * g * params.mu ** 2 / 3.0
    pref_q = 256.0 * np.pi ** 3 * g ** 3 * params.mu ** 2 / (3.0 * params.l ** 2)
    for cell in space.pairs:
        mx, mz = pair_modes(space, cell)
        dx, dz = d[mx], d[mz]
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
                    for cell, species, _, _ in _species_bonds(spec)}
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
    d = full_space_d(space)
    j0 = 2.0 / (3.0 * params.l)
    slope = 4.0 * np.sqrt(2.0) * np.pi * params.G / params.l ** 2

    coupling_ops = {}
    for cell in space.pairs:
        q1, q2 = q_pair(d, space, cell)
        q1p = q1 + q1.getH()
        q2p = q2 + q2.getH()
        delta_jz = (2.0 / 3.0) * (-slope) * q2p
        delta_vx = -slope * q1p
        delta_jx = 0.5 * (delta_vx + 0.5 * delta_jz)
        coupling_ops[(cell, "z")] = j0 * eye + delta_jz
        coupling_ops[(cell, "x")] = j0 * eye + delta_jx
    for cell, species, _, _ in _species_bonds(spec):
        if (cell, species) in coupling_ops:
            continue
        if (None, species) in coupling_ops:
            coupling_ops[(cell, species)] = coupling_ops[(None, species)]
        else:
            coupling_ops[(cell, species)] = j0 * eye  # no mode: background bond
    h = full_space_hopping(ops, spec, coupling_ops)

    form = hgr_quadratic_form(params)
    for cell in space.pairs:
        q1, q2 = q_pair(d, space, cell)
        q1m = q1.getH() - q1
        q2m = q2.getH() - q2
        q1p = q1.getH() + q1
        q2p = q2.getH() + q2
        h = h + form.q_minus_coeff * (q1m @ q2m) + form.q_plus_coeff * (q1p @ q2p)
    return _hermitize(h)


def full_sector_mapping_residual(h_sim, h_target, space: FockSpace, window: int) -> float:
    """The mapping residual cut from two full-sector Hamiltonians: min over
    c of the spectral norm of (H_sim - H_target - c) restricted to total
    boson occupation <= window, as (lambda_max - lambda_min) / 2 of the
    sliced block."""
    if window > space.n_max:
        raise ValueError(f"window {window} exceeds n_max {space.n_max}")
    diff = sector_csr(h_sim) - sector_csr(h_target)
    keep_b = np.flatnonzero(space.boson_occupation_table() <= window)
    n_states = space.sector_dimension // space.boson_dim
    idx = (np.arange(n_states)[:, None] * space.boson_dim + keep_b[None, :]).ravel()
    block = diff[idx][:, idx].toarray()
    evals = np.linalg.eigvalsh(block)
    return float((evals[-1] - evals[0]) / 2.0)


# ---------------------------------------------------------------------------
# full-space correlator oracle
# ---------------------------------------------------------------------------
#
# The observables as they were before they moved to the sector basis: every
# quadruple enumerated with the full-space ``ops.c`` and ``full_space_d``
# applied to full-space vectors.

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
    d = full_space_d(space)
    quads = [(i, j, k, l) for i in range(nf) for j in range(nf)
             for k in range(nf) for l in range(nf)]
    four = np.zeros(len(quads), dtype=complex)
    for w, psi in zip(weights, states):
        cvecs = [ops.c[i] @ psi for i in range(nf)]
        for i in range(nf):
            for j in range(nf):
                c_mat[i, j] += w * np.vdot(cvecs[i], cvecs[j])
        dvecs = [dm @ psi for dm in d]
        ddagvecs = [dm.getH() @ psi for dm in d]
        for m in range(nb):
            for n in range(nb):
                d_dag_d[m, n] += w * np.vdot(dvecs[m], dvecs[n])
                d_dag_ddag[m, n] += w * np.vdot(dvecs[m], ddagvecs[n])
        for cell in space.pairs:
            q1, q2 = q_pair(d, space, cell)
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
    # the first quadruple within manybody.WICK_ARGMAX_RTOL of the maximum
    top = 0
    if len(diff):
        top = int(np.argmax(diff >= diff.max() * (1.0 - manybody.WICK_ARGMAX_RTOL)))
    return CorrelatorReport(
        c_matrix=c_mat, d_dag_d=d_dag_d, d_dag_ddag=d_dag_ddag, q_corr=q_corr,
        wick_residual=float(diff.max()) if len(diff) else 0.0,
        wick_argmax=quads[top] if quads else ())


# ---------------------------------------------------------------------------
# stored-basis Lanczos oracle
# ---------------------------------------------------------------------------
#
# ``manybody._lanczos_lowest`` and ``manybody._lanczos`` as they were while
# each run kept its Krylov basis for the Ritz vector, with the library's
# ``_dot``, ``_tridiagonal_lowest`` and ``LANCZOS_MAXITER``.  The library now
# reruns the recurrence and sums the basis vector by vector as it is made;
# its levels and vectors, and its sums over any coefficient list, must
# equal these bit for bit.

def stored_basis_run(h, v: np.ndarray, deflate: list, tol: float):
    """(lowest Ritz value, its coefficients s, the Lanczos vectors, alpha,
    beta) of pass 1 of a run on h + sum over the (u, shift) of ``deflate``
    of shift u u+, the basis kept."""
    v /= np.sqrt(manybody._dot(v, v).real)
    basis, alpha, beta = [v], [], []
    for step in range(1, manybody.LANCZOS_MAXITER + 1):
        w = h @ v
        for u, shift in deflate:
            w += (shift * manybody._dot(u, v)) * u
        alpha.append(float(manybody._dot(v, w).real))
        w -= alpha[-1] * v
        if step > 1:
            w -= beta[-1] * basis[-2]
        beta.append(float(np.sqrt(manybody._dot(w, w).real)))
        if beta[-1] <= tol or step % 8 == 0:
            theta, s = manybody._tridiagonal_lowest(alpha, beta[:-1])
            if abs(beta[-1] * s[-1]) <= tol:
                break
        v = w / beta[-1]
        basis.append(v)
    else:
        raise ConvergenceError(
            f"Lanczos did not converge in {manybody.LANCZOS_MAXITER} steps")
    return theta, s, basis, alpha, beta[:-1]


def stored_basis_sum(basis: list, coefficients) -> np.ndarray:
    """sum_j c_j v_j over the first len(coefficients) vectors of ``basis``,
    added in order, not normalized."""
    total = np.zeros_like(basis[0])
    for coeff, b in zip(coefficients, basis):
        total += coeff * b
    return total


def stored_basis_lanczos_lowest(h, v: np.ndarray, deflate: list, tol: float):
    """(lowest Ritz value, its unit Ritz vector, steps, highest Ritz value)
    of h + sum over the (u, shift) of ``deflate`` of shift u u+, the basis
    kept for the Ritz vector."""
    theta, s, basis, alpha, beta = stored_basis_run(h, v, deflate, tol)
    ritz = stored_basis_sum(basis, s)
    del basis
    ritz /= np.sqrt(manybody._dot(ritz, ritz).real)
    top = -manybody._tridiagonal_lowest([-a for a in alpha], beta)[0]
    return theta, ritz, len(alpha), top


def stored_basis_lanczos(h, dim: int, scale: float, level_tol: float):
    """(levels, vectors, matvecs) as ``manybody._lanczos`` returns them, one
    level per :func:`stored_basis_lanczos_lowest` run; ``matvecs`` counts
    the runs' steps, the gap witness's included.  Run r starts from the
    library's ``manybody._start_vector(r, dim)``."""
    dtype = np.result_type(h.dtype, np.float64)
    levels, deflate, matvecs = [], [], 0
    while len(deflate) < dim:
        start = manybody._start_vector(len(levels), dim).astype(dtype, copy=False)
        level, vector, steps, top = stored_basis_lanczos_lowest(h, start, deflate,
                                                                1e-11 * scale)
        matvecs += steps
        levels.append(level)
        if level < levels[0] - level_tol:   # the first run missed the ground level
            raise ConvergenceError(f"Lanczos run {len(levels)} found {level:g} "
                                   f"below E0 = {levels[0]:g}")
        if level - levels[0] > level_tol:
            break
        if not deflate:
            ceiling = top + scale
        deflate.append((vector, ceiling - level))
    return levels, [u for u, _ in deflate], matvecs


# ---------------------------------------------------------------------------
# stacked-sort assembly oracle
# ---------------------------------------------------------------------------
#
# ``manybody._on_sector``'s tail as it was while the pieces, B's copies on
# every fermion state among them, were stacked and put in row order by one
# stable sort.  The library now scatters each hopping entry into its final
# slot and keeps B factored; the data, columns and row starts of
# ``SectorOperator.materialized`` must equal these raw, bit for bit, before
# any ``sort_indices``: the order inside a row is the order the rows were
# summed in while B was stored.

def stacked_sort_on_sector(spec: LatticeSpec, space: FockSpace,
                           hamiltonian) -> SectorOperator:
    """``manybody._on_sector(spec, space, hamiltonian)`` by stacking and one
    stable sort by row."""
    n_states, hops, boson = manybody._sector_pieces(spec, space, hamiltonian)
    n_b = space.boson_dim
    hops = [(blk, manybody._embed(space, local, pair)) for blk, pair, local in hops]
    dim = n_states * n_b
    index = np.int32 if dim <= np.iinfo(np.int32).max else np.int64
    rows, cols, data = [], [], []
    for (f_rows, f_cols, signs), (j_rows, j_cols, j_data) in hops:
        r = (f_rows.astype(index)[:, None] * n_b + j_rows.astype(index)).ravel()
        c = (f_cols.astype(index)[:, None] * n_b + j_cols.astype(index)).ravel()
        v = (signs[:, None] * j_data).ravel()
        rows += [r, c]
        cols += [c, r]
        data += [v, v.conj()]
    if boson is not None:
        b_rows, b_cols, b_data = boson.entries
        offset = np.arange(n_states, dtype=index)[:, None] * n_b
        rows.append((offset + b_rows.astype(index)).ravel())
        cols.append((offset + b_cols.astype(index)).ravel())
        data.append(np.tile(b_data, n_states))
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(dim + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    del rows
    data = np.concatenate(data)
    data = data[order]
    cols = np.concatenate(cols)
    cols = cols[order]
    del order
    return SectorOperator(data, cols.astype(np.intp), indptr, (dim, dim))


# ---------------------------------------------------------------------------
# dense slab-contraction oracles
# ---------------------------------------------------------------------------
# Every contraction runs np.einsum over all 3^k small-index combinations,
# zeros included, with no knowledge of which entries vanish.  The library's
# component maps are turned back into dense (3, 3) + grid tensors here, and
# the oracles' connections are returned with all nine components in the map.

def dense_tensor(components: dict, shape) -> np.ndarray:
    """The dense (3, 3) + ``shape`` tensor of a component map."""
    out = np.zeros((3, 3) + tuple(shape))
    for idx, arr in components.items():
        out[idx] = arr
    return out


def dense_xi(xi: DiagonalFluctuationSlab) -> np.ndarray:
    """xi[A, mu] with only (1, x) and (2, y) populated, from the two fields."""
    return dense_tensor({(1, 1): xi.xi1x, (2, 2): xi.xi2y}, xi.grid.shape)


def component_map(tensor: np.ndarray) -> dict:
    """All nine components of a dense (3, 3, ...) tensor as a map."""
    return {idx: tensor[idx] for idx in np.ndindex(3, 3)}


def dense_xi_derivatives(xi: DiagonalFluctuationSlab, scheme: str) -> np.ndarray:
    grid = xi.grid
    spac = grid.spacings
    xit = dense_xi(xi)
    dxi = np.zeros((3, 3, 3) + grid.shape)
    for (A, m) in ((1, 1), (2, 2)):
        for alpha in range(3):
            dxi[alpha, A, m] = _DIFFERENCES[scheme](xit[A, m], alpha, spac[alpha])
    return dxi


def dense_v_derivatives(v: SpinConnectionSlab) -> np.ndarray:
    grid = v.grid
    spac = grid.spacings
    vt = dense_tensor(v.components, grid.shape)
    dv = np.zeros((3, 3, 3) + grid.shape)
    for A in range(3):
        for m in range(3):
            if np.any(vt[A, m]):
                for alpha in range(3):
                    dv[alpha, A, m] = spectral_difference(vt[A, m], alpha, spac[alpha])
    return dv


def dense_spin_connection_general(params: ModelParams, xi: DiagonalFluctuationSlab,
                                  scheme: str = "central") -> SpinConnectionSlab:
    grid = xi.grid
    dxi = dense_xi_derivatives(xi, scheme)
    M = frame_pair_tensor(params)
    W = np.einsum("nab,aBb...->Bn...", EPS3, dxi)
    tensor = -np.einsum("aBmn,Bn...->am...", M, W)
    return SpinConnectionSlab(grid, component_map(tensor))


def dense_torsion_residual(params: ModelParams, xi: DiagonalFluctuationSlab,
                           v: SpinConnectionSlab) -> float:
    grid = xi.grid
    spac = grid.spacings
    xit = dense_xi(xi)
    vt = dense_tensor(v.components, grid.shape)
    dxi = np.zeros((3, 3, 3) + grid.shape)
    for A in range(3):
        for m in range(3):
            if np.any(xit[A, m]):
                for alpha in range(3):
                    dxi[alpha, A, m] = central_difference(xit[A, m], alpha, spac[alpha])
    ebar = background_frame(params)
    conn = np.einsum("abc,bn,cr...->anr...", EPS3, ebar, vt)
    grad = dxi.transpose(1, 0, 2, 3, 4, 5)  # -> [A, nu, rho, ...]
    res = np.einsum("mnr,anr...->am...", EPS3, grad + conn)
    return float(np.abs(res[:, :, 1:-1]).max())


def dense_palatini_total(params: ModelParams, xi: DiagonalFluctuationSlab,
                         v: SpinConnectionSlab) -> float:
    g8 = 8.0 * np.pi * params.G
    grid = xi.grid
    ebar = background_frame(params)
    e_full = ebar.reshape(3, 3, 1, 1, 1) + g8 * dense_xi(xi)
    omega = g8 * dense_tensor(v.components, grid.shape)
    domega = g8 * dense_v_derivatives(v)
    t1 = np.einsum("mnr,am...,nar...->...", EPS3, e_full, domega)
    t2 = 0.5 * np.einsum("mnr,abc,am...,bn...,cr...->...", EPS3, EPS3, e_full, omega, omega)
    return _integral(grid, t1 + t2) / g8


def dense_fierz_pauli_quadratic(params: ModelParams, xi: DiagonalFluctuationSlab) -> float:
    dxi = dense_xi_derivatives(xi, "spectral")
    M = frame_pair_tensor(params)
    W = np.einsum("mab,aAb...->Am...", EPS3, dxi)
    q = np.einsum("aBmn,am...,Bn...->...", M, W, W)
    return -4.0 * np.pi * params.G * _integral(xi.grid, q)


def dense_palatini_orders(params: ModelParams, xi: DiagonalFluctuationSlab,
                          v: Optional[SpinConnectionSlab] = None) -> ActionReport:
    if v is None:
        v = dense_spin_connection_general(params, xi, scheme="spectral")
    grid = xi.grid
    ebar = background_frame(params)
    dv = dense_v_derivatives(v)
    vt = dense_tensor(v.components, grid.shape)
    t1 = np.einsum("mnr,am...,nar...->...", EPS3, dense_xi(xi), dv)
    t2 = 0.5 * np.einsum("mnr,abc,am,bn...,cr...->...", EPS3, EPS3, ebar, vt, vt)
    s2 = _integral(grid, t1 + t2)
    s_massive = massive_fp_action(params, xi)
    residuals = {}
    if params.G > 0:
        g8 = 8.0 * np.pi * params.G
        total = dense_palatini_total(params, xi, v)
        residuals["order_bookkeeping"] = total - g8 * s2
        residuals["quadratic_vs_double_eps"] = (
            g8 * s2 - dense_fierz_pauli_quadratic(params, xi))
    else:
        residuals["order_bookkeeping"] = 0.0
    return ActionReport(s0=0.0, s1=0.0, s2=s2, s_massive=s_massive,
                        residuals=residuals)


def dense_fp_standard_form(params: ModelParams, xi: DiagonalFluctuationSlab) -> float:
    grid = xi.grid
    spac = grid.spacings
    h = np.zeros((3, 3) + grid.shape)
    h[1, 1] = 2.0 * params.l * xi.xi1x
    h[2, 2] = 2.0 * params.l * xi.xi2y
    dh = np.zeros((3, 3, 3) + grid.shape)
    for (m, n) in ((1, 1), (2, 2)):
        for alpha in range(3):
            dh[alpha, m, n] = spectral_difference(h[m, n], alpha, spac[alpha])
    dh_up = np.einsum("ma,nb,lab...->lmn...", ETA, ETA, dh)
    trace_d = np.einsum("mn,lmn...->l...", ETA, dh)
    term1 = -0.5 * np.einsum("lmn...,ls,smn...->...", dh, ETA, dh_up)
    term2 = np.einsum("mnl...,ns,sml...->...", dh, ETA, dh_up)
    div_h = np.einsum("mmn...->n...", dh_up)
    term3 = -np.einsum("n...,n...->...", div_h, trace_d)
    term4 = 0.5 * np.einsum("l...,ls,s...->...", trace_d, ETA, trace_d)
    dens = term1 + term2 + term3 + term4
    return (2.0 * np.pi * params.G / params.l ** 2) * _integral(grid, dens)
