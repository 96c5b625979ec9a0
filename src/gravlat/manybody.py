"""Truncated Fock-space exact diagonalization of the coupled lattice.

Two Hamiltonians live on the same space and are compared operator-to-
operator:

* the simulator: hopping with operator-valued couplings
  J_m = Delta_m D_m (D_m + d_m + d_m+) plus the quartic boson Hamiltonian
  written in the shifted modes alpha_m = D_m + d_m, and
* the target: the same hopping graph with coefficients produced by the
  linearized coupling <-> velocity dictionary written through the ladder
  combination q1 = (2 sqrt2 / 3) d_x - d_z / 3, q2 = d_z, plus the exact
  quadratic boson density in the same substitution.

The q pair preserves each self-commutator ((2 sqrt2 / 3)^2 + (1/3)^2 = 1)
but is not canonical: [q1, q2+] = -1/3 exactly, so all
substitutions are performed literally in the d modes and no canonical
structure is assumed anywhere.

Fermions use a Jordan-Wigner encoding (mode i = bit i of the basis index);
bosons are number-basis ladders truncated at n_max with the standard
commutator defect -(n_max + 1) on the top level.  The full-space ordering
is fermion-major: index = fermion_index * boson_dim + boson_index.

Hamiltonians are assembled directly on the sector basis: the fermion
factor is the sorted list of basis integers with the sector's number of
set bits (all integers when no sector is set), and the sector basis keeps
the fermion-major order, index = position_in_that_list * boson_dim +
boson_index (the order of :meth:`FockSpace.sector_indices`).  Every
Hamiltonian is sum_bonds kron(c_p+ c_q, J_bond) + h.c. + kron(1, H_boson),
with the hopping blocks looked up by ``searchsorted`` in the sorted basis
(H. Q. Lin, PRB 42, 6561 (1990)) and every boson operator acting on the
boson factor alone.

Observables are computed on the same basis.  A fermion annihilator c_i maps
the N-particle basis to the (N-1)-particle one by the same lookup, with the
Jordan-Wigner sign of the occupied modes below i; boson observables act on
the rows of the state reshaped to (fermion states, boson_dim).  The
full-space ``ModeOperators.c``/``d`` remain as an exact reference only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb
from typing import Optional

import numpy as np
import scipy.sparse as sparse

from .continuum import hgr_quadratic_form
from .designer import optical_params, weak_fluctuation_check
from .exceptions import ConvergenceError, DimensionCapError
from .geometry import ModelParams
from .lattice import LatticeSpec

__all__ = [
    "FockSpace",
    "ModeOperators",
    "operator_algebra",
    "assemble_simulator_hamiltonian",
    "assemble_target_hamiltonian",
    "assemble_background_hopping",
    "mapping_residual",
    "sector_block",
    "GroundStateResult",
    "ground_state",
    "thermal_expectation",
    "CorrelatorReport",
    "correlators_and_wick",
    "boson_occupations",
    "weak_fluctuation_report",
    "per_cell_pairs",
    "uniform_pair",
]

_FERMION_A = np.array([[0.0, 1.0], [0.0, 0.0]])
_FERMION_Z = np.diag([1.0, -1.0])

Q1_X = 2.0 * np.sqrt(2.0) / 3.0
Q1_Z = -1.0 / 3.0


def per_cell_pairs(spec: LatticeSpec):
    """One (x, z) boson pair per unit cell."""
    modes = []
    for cell in range(spec.n_cells):
        modes.append((cell, "x"))
        modes.append((cell, "z"))
    return tuple(modes)


def uniform_pair():
    """A single (x, z) pair shared by every cell (the k = 0 fluctuation)."""
    return ((None, "x"), (None, "z"))


@dataclass(frozen=True)
class FockSpace:
    """Tensor basis: fermion occupation bits x truncated boson numbers.

    ``boson_modes`` is a tuple of (cell, species) pairs; a cell tag of
    ``None`` marks a mode shared by every cell.  ``sector`` optionally
    restricts the fermion factor to a fixed total number.
    """

    n_fermion_modes: int
    boson_modes: tuple
    n_max: int
    sector: Optional[int] = None
    nnz_cap: int = 2 ** 22

    def __post_init__(self):
        if self.n_fermion_modes < 0 or self.n_max < 0:
            raise ValueError("negative mode counts")
        for cell, species in self.boson_modes:
            if species not in ("x", "z"):
                raise ValueError(f"unknown boson species {species!r}")
        if self.sector is not None and not (0 <= self.sector <= self.n_fermion_modes):
            raise ValueError("fermion sector out of range")

    @property
    def n_boson_modes(self) -> int:
        return len(self.boson_modes)

    @property
    def fermion_dim(self) -> int:
        return 2 ** self.n_fermion_modes

    @property
    def boson_dim(self) -> int:
        return (self.n_max + 1) ** self.n_boson_modes

    @property
    def dimension(self) -> int:
        return self.fermion_dim * self.boson_dim

    def boson_mode_index(self, cell, species: str) -> int:
        """Mode serving (cell, species), falling back to a shared mode."""
        for idx, (c, s) in enumerate(self.boson_modes):
            if s == species and (c == cell or c is None):
                return idx
        raise KeyError(f"no boson mode for cell {cell}, species {species}")

    def boson_occupation_table(self) -> np.ndarray:
        """Total boson occupation per boson basis index."""
        base = self.n_max + 1
        occ = np.zeros(self.boson_dim, dtype=int)
        idx = np.arange(self.boson_dim)
        for _ in range(self.n_boson_modes):
            occ += idx % base
            idx //= base
        return occ

    def sector_fermion_states(self) -> np.ndarray:
        """Sorted fermion basis integers of the sector (all when unset)."""
        return _fermion_basis(self.n_fermion_modes, self.sector)

    @property
    def sector_dimension(self) -> int:
        """Dimension of the sector basis the Hamiltonians are assembled on."""
        if self.sector is None:
            return self.dimension
        return comb(self.n_fermion_modes, self.sector) * self.boson_dim

    def sector_indices(self) -> np.ndarray:
        """Full-space indices of the (sector x all-boson) subspace."""
        fs = self.sector_fermion_states()
        return (fs[:, None] * self.boson_dim + np.arange(self.boson_dim)[None, :]).ravel()

    def with_n_max(self, n_max: int) -> "FockSpace":
        return FockSpace(self.n_fermion_modes, self.boson_modes, n_max,
                         self.sector, self.nnz_cap)


def _fermion_basis(n_modes: int, number: Optional[int]) -> np.ndarray:
    """Sorted basis integers with ``number`` set bits (all when None)."""
    states = np.arange(2 ** n_modes)
    if number is None:
        return states
    return states[_popcount(states, n_modes) == number]


def _popcount(x: np.ndarray, n_bits: int) -> np.ndarray:
    """Number of set bits among the lowest ``n_bits`` of each entry."""
    count = np.zeros_like(x)
    for bit in range(n_bits):
        count += (x >> bit) & 1
    return count


def _kron_chain(mats):
    out = reduce(lambda a, b: sparse.kron(a, b, format="csr"), mats)
    return sparse.csr_matrix(out)


def _boson_ladder(n_max: int) -> np.ndarray:
    d = np.zeros((n_max + 1, n_max + 1))
    for n in range(1, n_max + 1):
        d[n - 1, n] = np.sqrt(n)
    return d


def _hopping_block(states: np.ndarray, p: int, q: int):
    """c_p+ c_q (p != q) on the sorted fermion basis ``states``, as CSR.

    The Jordan-Wigner sign is the parity of the occupied modes below q in
    s times that of the occupied modes below p in s with q emptied; the
    target row is looked up by ``searchsorted`` in the sorted basis.
    """
    bit_p, bit_q = 1 << p, 1 << q
    cols = np.flatnonzero(((states & bit_q) != 0) & ((states & bit_p) == 0))
    emptied = states[cols] ^ bit_q
    parity = (_popcount(states[cols], q) + _popcount(emptied, p)) & 1
    rows = np.searchsorted(states, emptied | bit_p)
    n = len(states)
    return sparse.csr_matrix((1.0 - 2.0 * parity, (rows, cols)), shape=(n, n))


def _annihilation_map(states: np.ndarray, lowered: np.ndarray, i: int):
    """c_i from the sorted fermion basis ``states`` to the sorted basis
    ``lowered`` that holds every image, as CSR.

    The Jordan-Wigner sign is the parity of the occupied modes below i;
    the target row is looked up by ``searchsorted`` in ``lowered``.
    """
    bit = 1 << i
    cols = np.flatnonzero(states & bit)
    rows = np.searchsorted(lowered, states[cols] ^ bit)
    signs = 1.0 - 2.0 * (_popcount(states[cols], i) & 1)
    return sparse.csr_matrix((signs, (rows, cols)), shape=(len(lowered), len(states)))


def _ladder_pair(ladders, space: FockSpace, cell):
    """(q1, q2) built from the x and z ladders serving ``cell``."""
    dx = ladders[space.boson_mode_index(cell, "x")]
    dz = ladders[space.boson_mode_index(cell, "z")]
    return Q1_X * dx + Q1_Z * dz, dz


@dataclass(frozen=True)
class ModeOperators:
    """The mode operators of a space.

    The assemblers use the sector building blocks: ``states``, the sorted
    fermion basis of the sector, and ``b``, the boson annihilation
    operators on the boson factor.  The full-space annihilation operators
    ``c`` and ``d`` are an exact reference for tests and oracles, built on
    first use; no command builds them.
    """

    space: FockSpace
    states: np.ndarray   # sorted fermion basis integers of the sector
    b: tuple             # boson annihilation operators on the boson factor

    @cached_property
    def c(self) -> tuple:
        """Fermion annihilation operators on the full space."""
        space = self.space
        eye_b = sparse.identity(space.boson_dim, format="csr")
        eye2 = sparse.identity(2, format="csr")
        a_mat = sparse.csr_matrix(_FERMION_A)
        z_mat = sparse.csr_matrix(_FERMION_Z)
        cs = []
        for i in range(space.n_fermion_modes):
            # mode j occupies bit j; the kron chain runs most-significant first
            factors = []
            for j in reversed(range(space.n_fermion_modes)):
                factors.append(a_mat if j == i else (z_mat if j < i else eye2))
            cs.append(sparse.kron(_kron_chain(factors), eye_b, format="csr"))
        return tuple(cs)

    @cached_property
    def d(self) -> tuple:
        """Boson annihilation operators on the full space."""
        eye_f = sparse.identity(self.space.fermion_dim, format="csr")
        return tuple(sparse.kron(eye_f, bm, format="csr") for bm in self.b)

    def fermion_number(self):
        n = sparse.csr_matrix((self.space.dimension, self.space.dimension))
        for ci in self.c:
            n = n + ci.getH() @ ci
        return n

    def q_pair(self, cell):
        """(q1, q2) on the full space for the pair serving ``cell``."""
        return _ladder_pair(self.d, self.space, cell)


def operator_algebra(space: FockSpace) -> ModeOperators:
    """The sector fermion basis and the boson-factor ladders of ``space``.

    Raises
    ------
    DimensionCapError
        When the estimated nonzero count over all full-space mode
        operators, (n_modes) * dimension, exceeds ``space.nnz_cap``.  This
        also bounds the sector assembly and the lazily built ``c``/``d``.
    """
    n_modes = space.n_fermion_modes + space.n_boson_modes
    estimate = n_modes * space.dimension
    if estimate > space.nnz_cap:
        raise DimensionCapError(f"~{estimate} nonzeros exceed cap {space.nnz_cap}")
    ladder = sparse.csr_matrix(_boson_ladder(space.n_max))
    eyeb1 = sparse.identity(space.n_max + 1, format="csr")
    bs = []
    for m in range(space.n_boson_modes):
        factors = []
        for j in reversed(range(space.n_boson_modes)):
            factors.append(ladder if j == m else eyeb1)
        bs.append(_kron_chain(factors))
    return ModeOperators(space=space, states=space.sector_fermion_states(), b=tuple(bs))


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------

def _bond_list(spec: LatticeSpec):
    """(cell, species, a_cell, b_cell) for every bond; species x covers the
    two outgoing bonds controlled by the cell's x boson."""
    bonds = []
    for cx in range(spec.ncx):
        for cy in range(spec.ncy):
            i = spec.cell_index(cx, cy)
            bonds.append((i, "z", i, i))
            bonds.append((i, "x", i, spec.cell_index(cx + 1, cy)))
            bonds.append((i, "x", i, spec.cell_index(cx, cy + 1)))
    return bonds


def _pairs(space: FockSpace):
    cells = sorted({c for c, s in space.boson_modes if s == "x"},
                   key=lambda c: (c is None, c))
    return cells


def _hermitize(h, tol: float = 1e-12):
    """Assert Hermiticity of the raw assembly, then symmetrize exactly."""
    h = sparse.csr_matrix(h)
    defect = abs(h - h.getH()).max() if h.nnz else 0.0
    scale = abs(h).max() if h.nnz else 1.0
    if defect > tol * max(scale, 1.0):
        raise AssertionError(f"anti-Hermitian assembly: defect {defect:g}")
    return sparse.csr_matrix((h + h.getH()) * 0.5)


def _hopping_matrix(ops: ModeOperators, spec: LatticeSpec, coupling_ops):
    """sum_bonds kron(a_i+ b_k, J) + h.c. on the sector basis, with J the
    boson-factor coupling operator of the bond's (cell, species)."""
    n = spec.n_cells
    per_pair = {}  # bonds sharing (a_i, b_k) add their couplings in bond order
    for cell, species, a_cell, b_cell in _bond_list(spec):
        key = (a_cell, n + b_cell)
        j = coupling_ops[(cell, species)]
        per_pair[key] = per_pair[key] + j if key in per_pair else j
    blocks = [sparse.kron(_hopping_block(ops.states, p, q), j, format="coo")
              for (p, q), j in per_pair.items()]
    # distinct (p, q) blocks share no entry, so they are stacked, not summed
    dim = ops.space.sector_dimension
    half = sparse.coo_matrix(
        (np.concatenate([blk.data for blk in blocks]),
         (np.concatenate([blk.row for blk in blocks]),
          np.concatenate([blk.col for blk in blocks]))),
        shape=(dim, dim)).tocsr()
    return half + half.getH()


def _boson_on_sector(boson, ops: ModeOperators):
    """A boson-factor operator as kron(1, boson) on the sector basis."""
    eye = sparse.identity(len(ops.states), format="csr")
    return sparse.kron(eye, boson, format="csr")


def _lattice_algebra(spec: LatticeSpec, space: FockSpace,
                     ops: Optional[ModeOperators]) -> ModeOperators:
    if space.n_fermion_modes != spec.n_modes:
        raise ValueError("space fermion modes do not match the lattice")
    if ops is None:
        return operator_algebra(space)
    if ops.space != space:
        raise ValueError("mode operators belong to another space")
    return ops


def assemble_simulator_hamiltonian(params: ModelParams, spec: LatticeSpec,
                                   space: FockSpace,
                                   ops: Optional[ModeOperators] = None):
    """Hopping with condensate-linearized coupling operators plus the
    quartic boson Hamiltonian in the shifted modes, on the sector basis.

    Coupling operators: J_m = Delta_m D_m^2 + Delta_m D_m (d_m + d_m+),
    the x operator serving both outgoing bonds of its cell.  The boson
    part, per pair (alpha_m = D_m + d_m, N_m = alpha_m+ alpha_m exact):

        (1/(24 pi G)) (az+ - az)(sqrt2 (ax+ - ax) - (az+ - az)/2)
        + (8 pi G mu^2 / 3)(N_z + N_x)
        - (256 pi^3 G^3 mu^2 / (3 l^2)) N_z (N_x - N_z / 2)

    Fermion modes are ordered a_0..a_{N-1}, b_0..b_{N-1}; requires
    space.n_fermion_modes == 2 * spec.n_cells.
    """
    ops = _lattice_algebra(spec, space, ops)
    opt = optical_params(params)
    eye = sparse.identity(space.boson_dim, format="csr")

    coupling_ops = {}
    for cell, species, _, _ in _bond_list(spec):
        key = (cell, species)
        if key in coupling_ops:
            continue
        amp = opt.amplitude(species)
        strength = opt.strength(species)
        background = strength * amp * amp * eye
        try:
            dm = ops.b[space.boson_mode_index(cell, species)]
        except KeyError:
            # bond without a fluctuation mode stays at the background value
            coupling_ops[key] = background
            continue
        coupling_ops[key] = background + strength * amp * (dm + dm.getH())
    hop = _hopping_matrix(ops, spec, coupling_ops)

    g = params.G
    pref_pi = 1.0 / (24.0 * np.pi * g)
    pref_n = 8.0 * np.pi * g * params.mu ** 2 / 3.0
    pref_q = 256.0 * np.pi ** 3 * g ** 3 * params.mu ** 2 / (3.0 * params.l ** 2)
    boson = sparse.csr_matrix(eye.shape)
    for cell in _pairs(space):
        dx = ops.b[space.boson_mode_index(cell, "x")]
        dz = ops.b[space.boson_mode_index(cell, "z")]
        bx = dx + opt.d_x * eye   # alpha_x in the number basis of d_x
        bz = dz + opt.d_z * eye
        abar_x = bx.getH() - bx   # equals dx+ - dx exactly
        abar_z = bz.getH() - bz
        n_x = bx.getH() @ bx
        n_z = bz.getH() @ bz
        boson = boson + pref_pi * (abar_z @ (np.sqrt(2.0) * abar_x - 0.5 * abar_z))
        boson = boson + pref_n * (n_z + n_x)
        boson = boson - pref_q * (n_z @ (n_x - 0.5 * n_z))
    return _hermitize(hop + _boson_on_sector(boson, ops))


def assemble_background_hopping(l: float, spec: LatticeSpec, space: FockSpace,
                                ops: Optional[ModeOperators] = None):
    """Hopping at the uniform background coupling 2/(3 l), bosons inert,
    on the sector basis.

    This is the exact G -> 0 limit of the fermion sector (the simulator's
    boson energies diverge as 1/G, so the decoupled point is assembled
    directly instead of by taking tiny G numerically).
    """
    ops = _lattice_algebra(spec, space, ops)
    j0 = 2.0 / (3.0 * l)
    eye = sparse.identity(space.boson_dim, format="csr")
    coupling_ops = {(cell, species): j0 * eye
                    for cell, species, _, _ in _bond_list(spec)}
    return _hermitize(_hopping_matrix(ops, spec, coupling_ops))


def assemble_target_hamiltonian(params: ModelParams, spec: LatticeSpec,
                                space: FockSpace,
                                ops: Optional[ModeOperators] = None):
    """Field-theory Hamiltonian on the same hopping graph, on the sector
    basis.

    The velocity operators are written through the q combination,

        v_x = 1/l - (4 sqrt2 pi G / l^2)(q1 + q1+)
        v_y = 1/l - (4 sqrt2 pi G / l^2)(q2 + q2+) ,

    and converted to bond couplings by the dictionary linearized about the
    background point: J_z = (2/3) v_y and
    delta J_x = (delta v_x + delta J_z / 2) / 2.  The boson sector is the
    exact quadratic density in the same substitution,

        (1/(16 pi G))(q1+ - q1)(q2+ - q2) - 4 pi G mu^2 (q1+ + q1)(q2+ + q2).
    """
    ops = _lattice_algebra(spec, space, ops)
    eye = sparse.identity(space.boson_dim, format="csr")
    j0 = 2.0 / (3.0 * params.l)
    slope = 4.0 * np.sqrt(2.0) * np.pi * params.G / params.l ** 2

    coupling_ops = {}
    for cell in _pairs(space):
        q1, q2 = _ladder_pair(ops.b, space, cell)
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
    hop = _hopping_matrix(ops, spec, coupling_ops)

    form = hgr_quadratic_form(params, convention="legendre")
    boson = sparse.csr_matrix(eye.shape)
    for cell in _pairs(space):
        q1, q2 = _ladder_pair(ops.b, space, cell)
        q1m = q1.getH() - q1
        q2m = q2.getH() - q2
        q1p = q1.getH() + q1
        q2p = q2.getH() + q2
        boson = boson + form.q_minus_coeff * (q1m @ q2m) + form.q_plus_coeff * (q1p @ q2p)
    return _hermitize(hop + _boson_on_sector(boson, ops))


def _sector_matrix(h, space: FockSpace):
    """``h`` as CSR; raises ValueError unless it is square on the sector basis."""
    dim = space.sector_dimension
    if h.shape != (dim, dim):
        raise ValueError(f"operator of shape {h.shape} is not on the sector basis "
                         f"of dimension {dim}")
    return sparse.csr_matrix(h)


def mapping_residual(h_sim, h_target, space: FockSpace, window: int) -> float:
    """min over c of the spectral norm of (H_sim - H_target - c) restricted
    to total boson occupation <= window, for two sector-basis Hamiltonians.

    For a Hermitian difference the minimizing shift is the spectral
    midpoint, so the value is (lambda_max - lambda_min) / 2 of the
    restricted block.
    """
    if window > space.n_max:
        raise ValueError(f"window {window} exceeds n_max {space.n_max}")
    diff = _sector_matrix(h_sim - h_target, space)
    keep_b = np.flatnonzero(space.boson_occupation_table() <= window)
    n_states = space.sector_dimension // space.boson_dim
    idx = (np.arange(n_states)[:, None] * space.boson_dim + keep_b[None, :]).ravel()
    block = diff[idx][:, idx].toarray()
    evals = np.linalg.eigvalsh(block)
    return float((evals[-1] - evals[0]) / 2.0)


# ---------------------------------------------------------------------------
# eigen machinery and observables
# ---------------------------------------------------------------------------

def sector_block(obs, space: FockSpace):
    """A full-space operator restricted to the configured fermion sector,
    as CSR on the sector basis."""
    idx = space.sector_indices()
    return sparse.csr_matrix(obs)[idx][:, idx]


@dataclass
class GroundStateResult:
    """Extremal eigenpair data; ``vectors`` are on the sector basis of
    ``space`` and ``states`` embeds them in the full space on first use."""

    energy: float
    vectors: list         # sector-basis vectors spanning the ground multiplet
    multiplicity: int
    residual: float
    k: int                # eigenpairs computed by the final solve
    space: FockSpace

    @property
    def sector_dimension(self) -> int:
        return self.space.sector_dimension

    @cached_property
    def states(self) -> list:
        """The multiplet embedded in the full space by ``sector_indices``."""
        idx = self.space.sector_indices()
        states = []
        for v in self.vectors:
            full = np.zeros(self.space.dimension, dtype=v.dtype)
            full[idx] = v
            states.append(full)
        return states

    @property
    def state(self) -> np.ndarray:
        return self.states[0]


def _operator_scale(h) -> float:
    return float(abs(h).max()) if h.nnz else 1.0


def ground_state(h, space: FockSpace, degeneracy_tol: float = 1e-9,
                 maxiter: int = 100000) -> GroundStateResult:
    """Lowest eigenpair of a Hamiltonian on the sector basis.

    ``h`` must be square with the sector dimension (ValueError otherwise);
    the returned vectors are on the sector basis.  It is solved in real
    arithmetic whenever it is real (a complex input with an exactly zero
    imaginary part is cast to real first); a genuinely complex one keeps
    the Hermitian solvers.  Dense diagonalization up to dimension 512,
    ARPACK Lanczos above (``scipy.sparse.linalg`` is imported there), started
    from the fixed-seed Gaussian vector
    ``np.random.default_rng(0).standard_normal(dim)``: reruns are
    byte-stable, and the vector overlaps ground states that a symmetry
    makes orthogonal to the uniform vector.  Lanczos asks for
    k = 2 eigenpairs and doubles k only while the top returned level is
    still within ``degeneracy_tol`` * scale of E0; levels within that
    tolerance are returned as the full multiplet, and ``k`` records the
    final request (the sector dimension on the dense path).  A restarted
    Lanczos can under-count a multiplicity above 3: on a block-diagonal
    matrix of sixteen 64x64 blocks with a 4-fold ground level, k = 4
    returned 3 copies.

    The residual ||Hv - E v|| of every returned pair must come out below
    1e-10 * scale(H) or ConvergenceError is raised.
    """
    hs = _sector_matrix(h, space)
    if np.iscomplexobj(hs) and not hs.data.imag.any():
        hs = hs.real
    dim = hs.shape[0]
    scale = max(_operator_scale(hs), 1.0)
    level_tol = degeneracy_tol * scale
    if dim <= 512:
        k = dim
        evals, evecs = np.linalg.eigh(hs.toarray())
    else:
        import scipy.sparse.linalg as spla

        v0 = np.random.default_rng(0).standard_normal(dim)
        k = 2
        while True:
            try:
                evals, evecs = spla.eigsh(hs, k=k, which="SA", v0=v0,
                                          maxiter=maxiter, tol=1e-12)
            except spla.ArpackNoConvergence as exc:
                raise ConvergenceError(f"Lanczos failed to converge: {exc}") from exc
            order = np.argsort(evals)
            evals, evecs = evals[order], evecs[:, order]
            if evals[-1] - evals[0] > level_tol or k == dim - 1:
                break
            k = min(2 * k, dim - 1)
    e0 = float(evals[0])
    members = [j for j in range(len(evals)) if evals[j] - e0 <= level_tol]
    vectors = []
    residual0 = None
    for j in members:
        v = evecs[:, j].copy()
        res = float(np.linalg.norm(hs @ v - evals[j] * v))
        if res > 1e-10 * scale:
            raise ConvergenceError(f"eigenpair residual {res:g} above 1e-10*scale")
        if residual0 is None:
            residual0 = res
        vectors.append(v)
    return GroundStateResult(energy=e0, vectors=vectors, multiplicity=len(members),
                             residual=residual0, k=k, space=space)


def thermal_expectation(h, temperature: float, obs, space: FockSpace,
                        dense_cap: int = 4096) -> float:
    """tr(obs exp(-H/T)) / tr(exp(-H/T)) in the configured sector, k_B = 1.

    ``h`` is on the sector basis and ``obs`` on the full space.  Requires the full spectrum, so the sector dimension must not exceed
    ``dense_cap``.  T = 0 returns the uniform average over the ground
    multiplet; T = inf the uniform average over the sector.
    """
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    hs = _sector_matrix(h, space)
    if hs.shape[0] > dense_cap:
        raise DimensionCapError(f"sector dimension {hs.shape[0]} exceeds {dense_cap}")
    obs_s = sector_block(obs, space).toarray()
    evals, evecs = np.linalg.eigh(hs.toarray())
    diag_obs = np.einsum("ik,ij,jk->k", evecs.conj(), obs_s, evecs).real
    if temperature == 0:
        mask = (evals - evals[0]) <= 1e-12 * max(1.0, abs(evals[0]))
        return float(diag_obs[mask].mean())
    if np.isinf(temperature):
        return float(diag_obs.mean())
    weights = np.exp(-(evals - evals[0]) / temperature)
    return float((diag_obs * weights).sum() / weights.sum())


def _boson_rows(vector, space: FockSpace):
    """(fermion basis, fermion number, X) of a vector on the sector basis
    or on the full space: X[row, boson index] over the sorted fermion basis
    (every integer, with number None, for a full-space vector)."""
    vector = np.asarray(vector)
    if len(vector) == space.sector_dimension:
        number = space.sector
    elif len(vector) == space.dimension:
        number = None
    else:
        raise ValueError(f"vector of length {len(vector)} is on neither the sector "
                         f"basis ({space.sector_dimension}) nor the full space")
    basis = _fermion_basis(space.n_fermion_modes, number)
    return basis, number, vector.reshape(len(basis), space.boson_dim)


def _on_boson_factor(op, x):
    """kron(1, op) applied to the vector with rows ``x``, flattened."""
    return (op @ x.T).T.ravel()


def boson_occupations(states, weights, ops: ModeOperators) -> np.ndarray:
    """<d_m+ d_m> per boson mode for a (mixture of) vector(s), each on the
    sector basis or on the full space."""
    out = np.zeros(len(ops.b))
    for w, v in zip(weights, states):
        x = _boson_rows(v, ops.space)[2]
        for m, bm in enumerate(ops.b):
            dv = _on_boson_factor(bm, x)
            out[m] += w * float(np.real(np.vdot(dv, dv)))
    return out


def weak_fluctuation_report(state, space: FockSpace, ops: ModeOperators,
                            optical, threshold: float = 1e-2):
    """Per-mode <d+d>/D^2 validity report for a state on this space.

    Thin bridge to :func:`gravlat.designer.weak_fluctuation_check`: the
    linearized couplings and quartic reductions are only trustworthy while
    every ratio stays small.
    """
    weights, states = _as_mixture(state)
    occ = boson_occupations(states, weights, ops)
    species = [s for _, s in space.boson_modes]
    return weak_fluctuation_check(occ, species, optical, threshold=threshold)


@dataclass
class CorrelatorReport:
    """Two- and four-point data plus the Wick factorization residual."""

    c_matrix: np.ndarray          # <c_i+ c_j>
    d_dag_d: np.ndarray           # <d_m+ d_n>
    d_dag_ddag: np.ndarray        # <d_m+ d_n+>
    q_corr: dict                  # per pair: {"q1dag_q2": .., "q1dag_q2dag": ..}
    wick_residual: float
    wick_argmax: tuple


def _as_mixture(state):
    if isinstance(state, GroundStateResult):
        n = state.multiplicity
        return [1.0 / n] * n, state.vectors
    state = np.asarray(state)
    if state.ndim == 1:
        return [1.0], [state.astype(complex)]
    raise TypeError("state must be a vector or GroundStateResult")


def correlators_and_wick(state, space: FockSpace, ops: ModeOperators) -> CorrelatorReport:
    """Correlation data of a normalized state (or ground multiplet mixture).

    ``state`` is a :class:`GroundStateResult` or a single vector on the
    sector basis or on the full space.  Fermion two-point matrix
    C_ij = <c_i+ c_j> is the Gram matrix of the vectors c_i psi, with c_i
    mapping the N-particle basis to the (N-1)-particle one.  The four-point
    function comes from the Gram matrix of the nf(nf-1)/2 pair vectors
    c_k c_l psi (k < l) on the (N-2)-particle basis: by antisymmetry
    <c_i+ c_j+ c_k c_l> = (c_j c_i psi, c_k c_l psi) is a signed entry of
    it.  ``wick_residual`` is the exact maximum over every index quadruple
    of the two-body cumulant |<c_i+ c_j+ c_k c_l> - (C_il C_jk - C_ik C_jl)|
    (Kutzelnigg & Mukherjee, J. Chem. Phys. 110, 2800 (1999)), and
    ``wick_argmax`` the lexicographically first quadruple reaching it.
    Boson matrices <d+ d>, <d+ d+> and the ladder-pair correlators act
    with the boson-factor ladders ``ops.b`` on the rows of the state.
    """
    weights, states = _as_mixture(state)
    nf = space.n_fermion_modes
    nb = space.n_boson_modes
    n_b = space.boson_dim
    pair_a, pair_b = np.triu_indices(nf, 1)   # pairs (a, b), a < b, lexicographic
    n_pairs = len(pair_a)

    c_mat = np.zeros((nf, nf), dtype=complex)
    gram = np.zeros((n_pairs, n_pairs), dtype=complex)
    d_dag_d = np.zeros((nb, nb), dtype=complex)
    d_dag_ddag = np.zeros((nb, nb), dtype=complex)
    q_corr_acc = {}

    # the N-, (N-1)- and (N-2)-particle bases (all three every integer
    # for a full-space vector) and the maps c_i between them
    basis, number, _ = _boson_rows(states[0], space)
    once, twice = (_fermion_basis(nf, n) for n in
                   ((None, None) if number is None else (number - 1, number - 2)))
    first = [_annihilation_map(basis, once, i) for i in range(nf)]
    second = [_annihilation_map(once, twice, i) for i in range(nf)]

    for w, psi in zip(weights, states):
        x = _boson_rows(psi, space)[2]
        # row i: c_i psi on the (N-1)-particle basis
        cvecs = np.array([(ci @ x).ravel() for ci in first]).reshape(nf, len(once) * n_b)
        c_mat += w * (cvecs.conj() @ cvecs.T)
        # row (a, b): c_a c_b psi on the (N-2)-particle basis
        pvecs = np.array([(second[a] @ cvecs[b].reshape(len(once), n_b)).ravel()
                          for a, b in zip(pair_a, pair_b)]).reshape(n_pairs, len(twice) * n_b)
        gram += w * (pvecs.conj() @ pvecs.T)
        dvecs = np.array([_on_boson_factor(bm, x) for bm in ops.b]).reshape(nb, x.size)
        ddagvecs = np.array([_on_boson_factor(bm.getH(), x)
                             for bm in ops.b]).reshape(nb, x.size)
        d_dag_d += w * (dvecs.conj() @ dvecs.T)
        d_dag_ddag += w * (dvecs.conj() @ ddagvecs.T)
        for cell in _pairs(space):
            q1, q2 = _ladder_pair(ops.b, space, cell)
            q1v = _on_boson_factor(q1, x)
            acc = q_corr_acc.setdefault(cell, {"q1dag_q2": 0.0, "q1dag_q2dag": 0.0})
            acc["q1dag_q2"] += w * np.vdot(q1v, _on_boson_factor(q2, x))
            acc["q1dag_q2dag"] += w * np.vdot(q1v, _on_boson_factor(q2.getH(), x))

    # c_x c_y psi = sign[x, y] * (row pair[x, y] of the pair vectors),
    # with sign 0 for x == y; pair is symmetric, sign antisymmetric
    pair = np.zeros((nf, nf), dtype=int)
    pair[pair_a, pair_b] = pair[pair_b, pair_a] = np.arange(n_pairs)
    sign = np.zeros((nf, nf))
    sign[pair_a, pair_b], sign[pair_b, pair_a] = 1.0, -1.0
    four = np.zeros((nf,) * 4, dtype=complex)
    if n_pairs:
        # <c_i+ c_j+ c_k c_l> = sign[j, i] sign[k, l] gram[pair[i, j], pair[k, l]]
        four = ((sign.T[:, :, None, None] * sign[None, None])
                * gram[pair[:, :, None, None], pair[None, None]])
    wick = (c_mat[:, None, None, :] * c_mat[None, :, :, None]
            - c_mat[:, None, :, None] * c_mat[None, :, None, :])
    diff = np.abs(four - wick)
    residual, argmax = 0.0, ()
    if diff.size:   # np.argmax returns the first maximum in C (lexicographic) order
        residual = float(diff.max())
        argmax = tuple(int(i) for i in np.unravel_index(np.argmax(diff), diff.shape))
    return CorrelatorReport(c_matrix=c_mat, d_dag_d=d_dag_d, d_dag_ddag=d_dag_ddag,
                            q_corr=q_corr_acc, wick_residual=residual,
                            wick_argmax=argmax)
