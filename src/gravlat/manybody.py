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

Boson modes are (cell, species) pairs placed by :func:`boson_modes` (cell
None: a pair shared by every cell); :meth:`FockSpace.boson_mode_index`
alone decides which mode serves a cell, and every assembler checks the
modes against the lattice, rejecting a mode that it never returns (one
shadowed by a shared or repeated mode).  Each assembler states its bond couplings as one
rule ``coupling(cell, species)`` over the bonds of :meth:`LatticeSpec.bonds`;
the x boson drives both the x and the y bond.

Hamiltonians are assembled directly on the sector basis: the fermion
factor is the sorted list of basis integers with the sector's number of
set bits (all integers when no sector is set), and the sector basis keeps
the fermion-major order, index = position_in_that_list * boson_dim +
boson_index (the order of :meth:`FockSpace.sector_indices`).  Every
Hamiltonian is sum_(p, q) kron(c_p+ c_q, J_pq) + h.c. + kron(1, B), with
the hopping blocks looked up by ``searchsorted`` in the sorted basis
(H. Q. Lin, PRB 42, 6561 (1990)), and it is built in two steps.  First each
assembler builds its boson-factor terms once: J_pq, the coupling operators
of the bonds joining fermion modes p and q summed, and the boson
Hamiltonian B.  Then one shared step puts them on the sector by ``kron``.
Hermiticity is checked in that step on the boson factor: the hopping part
is Hermitian by construction, so B is checked (defect at most 1e-12 times
the largest |entry| of H, or 1) and symmetrized as (B + B+) / 2.  The same
step can first restrict every boson-factor operator to the boson indices a
window keeps, so :func:`mapping_residual` assembles only its window block.

Observables read a state on the same basis, and only there.  A fermion
annihilator c_i maps the N-particle basis to the (N-1)-particle one by the
same lookup, with the Jordan-Wigner sign of the occupied modes below i;
boson observables act on the rows of the state reshaped to (fermion states,
boson_dim).  No command builds a full-space object: ``ModeOperators.c`` and
``GroundStateResult.states`` are kept for the pair-Gram oracle of
``perfbench/make_reference.py``, and ``ModeOperators.d``, ``q_pair`` and
``fermion_number`` for the reference implementations of the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb
from typing import Optional

import numpy as np
import scipy.sparse as sparse

from .continuum import hgr_quadratic_form
from .designer import optical_params
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
    "GroundStateResult",
    "ground_state",
    "CorrelatorReport",
    "correlators_and_wick",
    "boson_modes",
]

_FERMION_A = np.array([[0.0, 1.0], [0.0, 0.0]])
_FERMION_Z = np.diag([1.0, -1.0])

Q1_X = 2.0 * np.sqrt(2.0) / 3.0
Q1_Z = -1.0 / 3.0


def boson_modes(spec: LatticeSpec, placement: str) -> tuple:
    """The (cell, species) boson modes of a placement on ``spec``.

    ``per_cell``: one (x, z) pair per unit cell; ``uniform``: a single pair
    shared by every cell (cell tag None, the k = 0 fluctuation); ``cell0``:
    one pair on cell 0 only.  ValueError for any other placement.
    """
    cells = {"per_cell": range(spec.n_cells), "uniform": (None,), "cell0": (0,)}
    if placement not in cells:
        raise ValueError(f"unknown placement {placement!r}; one of {', '.join(cells)}")
    return tuple((cell, species) for cell in cells[placement] for species in ("x", "z"))


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

    def boson_mode_index(self, cell, species: str) -> Optional[int]:
        """Mode serving (cell, species), falling back to a shared mode;
        None when no mode serves it."""
        for idx, (c, s) in enumerate(self.boson_modes):
            if s == species and (c == cell or c is None):
                return idx
        return None

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
    """Entries (rows, cols, signs) of c_p+ c_q (p != q) on the sorted
    fermion basis ``states``.

    The Jordan-Wigner sign is the parity of the occupied modes below q in
    s times that of the occupied modes below p in s with q emptied; the
    target row is looked up by ``searchsorted`` in the sorted basis.
    """
    bit_p, bit_q = 1 << p, 1 << q
    cols = np.flatnonzero(((states & bit_q) != 0) & ((states & bit_p) == 0))
    emptied = states[cols] ^ bit_q
    parity = (_popcount(states[cols], q) + _popcount(emptied, p)) & 1
    rows = np.searchsorted(states, emptied | bit_p)
    return rows, cols, 1.0 - 2.0 * parity


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

    The assemblers and observables use the sector building blocks:
    ``states``, the sorted fermion basis of the sector, and ``b``, the
    boson annihilation operators on the boson factor.  The full-space
    operators are built on first use and no command builds them: ``c`` is
    kept for the pair-Gram oracle of ``perfbench/make_reference.py``, and
    ``d``, ``q_pair`` and ``fermion_number`` for the test oracles.
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

def _pairs(space: FockSpace):
    cells = sorted({c for c, s in space.boson_modes if s == "x"},
                   key=lambda c: (c is None, c))
    return cells


_BOSON_SPECIES = {"z": "z", "x": "x", "y": "x"}   # the x boson serves the y bond


def _bond_couplings(spec: LatticeSpec, coupling):
    """{(p, q): J_pq} for every fermion pair (a_i, b_k) a bond of
    :meth:`LatticeSpec.bonds` joins.  Each bond of cell i carries the
    boson-factor operator ``coupling(i, species)`` of the boson species
    driving it; the rule is called once per (cell, species), and bonds
    sharing a pair add their couplings in bond order."""
    n = spec.n_cells
    per_bond, per_pair = {}, {}
    for cell, direction, b_cell in spec.bonds():
        key = (cell, _BOSON_SPECIES[direction])
        if key not in per_bond:
            per_bond[key] = coupling(*key)
        pair = (cell, n + b_cell)
        j = per_bond[key]
        per_pair[pair] = per_pair[pair] + j if pair in per_pair else j
    return per_pair


def _max_abs(op) -> float:
    return float(np.abs(op.data).max()) if op.nnz else 0.0


def _on_sector(ops: ModeOperators, couplings, boson=None, keep=None):
    """sum_(p, q) kron(c_p+ c_q, J_pq) + h.c. + kron(1, B) on the sector
    basis, from the boson-factor terms ``couplings`` ({(p, q): J_pq}) and
    ``boson`` (B, or None).

    B is checked on the full boson factor, the only place an anti-Hermitian
    defect can enter: AssertionError when max|B - B+| exceeds
    1e-12 * max(scale, 1), with scale the largest |entry| of the sector H
    (the largest |J_pq| over nonempty hopping blocks, or the largest |B|).
    B then enters as (B + B+) / 2.  With ``keep`` (sorted boson indices),
    every boson-factor operator is restricted to those indices before the
    kron, so the result is the block of the full H on rows and columns
    position * boson_dim + keep, entry for entry.
    """
    hops = [(_hopping_block(ops.states, p, q), j) for (p, q), j in couplings.items()]
    if boson is not None:
        scale = max([_max_abs(j) for (rows, _, _), j in hops if len(rows)]
                    + [_max_abs(boson)])
        defect = _max_abs(boson - boson.getH())
        if defect > 1e-12 * max(scale, 1.0):
            raise AssertionError(f"anti-Hermitian assembly: defect {defect:g}")
        boson = (boson + boson.getH()) * 0.5
    n_b = ops.space.boson_dim
    if keep is not None:
        hops = [(blk, j[keep][:, keep]) for blk, j in hops]
        boson = None if boson is None else boson[keep][:, keep]
        n_b = len(keep)
    # kron(c_p+ c_q, J) puts sign * J_ab at (row * n_b + a, col * n_b + b);
    # these blocks, their transposes and the diagonal boson blocks share no
    # entry, so they are stacked into one matrix, not summed
    rows, cols, data = [], [], []
    for (f_rows, f_cols, signs), j in hops:
        j = j.tocoo()
        r = (f_rows[:, None] * n_b + j.row).ravel()
        c = (f_cols[:, None] * n_b + j.col).ravel()
        v = (signs[:, None] * j.data).ravel()
        rows += [r, c]
        cols += [c, r]
        data += [v, v.conj()]
    n_states = len(ops.states)
    if boson is not None:
        b = boson.tocoo()
        offset = np.arange(n_states)[:, None] * n_b
        rows.append((offset + b.row).ravel())
        cols.append((offset + b.col).ravel())
        data.append(np.tile(b.data, n_states))
    dim = n_states * n_b
    h = sparse.csr_matrix((np.concatenate(data),
                           (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim))
    h.eliminate_zeros()
    return h


def _lattice_algebra(spec: LatticeSpec, space: FockSpace,
                     ops: Optional[ModeOperators]) -> ModeOperators:
    if space.n_fermion_modes != spec.n_modes:
        raise ValueError("space fermion modes do not match the lattice")
    for idx, (cell, species) in enumerate(space.boson_modes):
        if cell is not None and cell not in range(spec.n_cells):
            raise ValueError(f"boson mode on cell {cell!r} outside the "
                             f"{spec.n_cells} cells of the lattice")
        served_by = space.boson_mode_index(cell, species)
        if served_by != idx:
            raise ValueError(f"boson mode {idx} ({cell!r}, {species!r}) is shadowed by "
                             f"mode {served_by}: no term would use it")
        if None in (space.boson_mode_index(cell, "x"), space.boson_mode_index(cell, "z")):
            raise ValueError(f"cell {cell!r} lacks its x or z boson mode")
    if ops is None:
        return operator_algebra(space)
    if ops.space != space:
        raise ValueError("mode operators belong to another space")
    return ops


def _simulator_terms(params: ModelParams, spec: LatticeSpec, ops: ModeOperators):
    """(couplings, B) of the simulator on the boson factor."""
    space = ops.space
    opt = optical_params(params)
    eye = sparse.identity(space.boson_dim, format="csr")

    def coupling(cell, species):
        amp = opt.amplitude(species)
        strength = opt.strength(species)
        background = strength * amp * amp * eye
        m = space.boson_mode_index(cell, species)
        if m is None:   # bond without a fluctuation mode stays at the background
            return background
        return background + strength * amp * (ops.b[m] + ops.b[m].getH())

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
    return _bond_couplings(spec, coupling), boson


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
    return _on_sector(ops, *_simulator_terms(params, spec, ops))


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
    return _on_sector(ops, _bond_couplings(spec, lambda cell, species: j0 * eye))


def _target_terms(params: ModelParams, spec: LatticeSpec, ops: ModeOperators):
    """(couplings, B) of the target on the boson factor."""
    space = ops.space
    eye = sparse.identity(space.boson_dim, format="csr")
    j0 = 2.0 / (3.0 * params.l)
    slope = 4.0 * np.sqrt(2.0) * np.pi * params.G / params.l ** 2

    def coupling(cell, species):
        if space.boson_mode_index(cell, species) is None:
            return j0 * eye   # no mode: background bond
        q1, q2 = _ladder_pair(ops.b, space, cell)
        delta_jz = (2.0 / 3.0) * (-slope) * (q2 + q2.getH())
        if species == "z":
            return j0 * eye + delta_jz
        delta_vx = -slope * (q1 + q1.getH())
        return j0 * eye + 0.5 * (delta_vx + 0.5 * delta_jz)

    form = hgr_quadratic_form(params)
    boson = sparse.csr_matrix(eye.shape)
    for cell in _pairs(space):
        q1, q2 = _ladder_pair(ops.b, space, cell)
        q1m = q1.getH() - q1
        q2m = q2.getH() - q2
        q1p = q1.getH() + q1
        q2p = q2.getH() + q2
        boson = boson + form.q_minus_coeff * (q1m @ q2m) + form.q_plus_coeff * (q1p @ q2p)
    return _bond_couplings(spec, coupling), boson


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
    return _on_sector(ops, *_target_terms(params, spec, ops))


def _sector_matrix(h, space: FockSpace):
    """``h`` as CSR; raises ValueError unless it is square on the sector basis."""
    dim = space.sector_dimension
    if h.shape != (dim, dim):
        raise ValueError(f"operator of shape {h.shape} is not on the sector basis "
                         f"of dimension {dim}")
    return sparse.csr_matrix(h)


def mapping_residual(params: ModelParams, spec: LatticeSpec, space: FockSpace,
                     window: int, ops: Optional[ModeOperators] = None) -> float:
    """min over c of the spectral norm of (H_sim - H_target - c) restricted
    to total boson occupation <= window, on the sector basis.

    Only that block is assembled: the simulator and target terms are built
    on the boson factor, checked for Hermiticity there (see the assembly
    note of the module docstring), and restricted to the boson indices the
    window keeps before their kron onto the sector.  The block equals the
    one cut from the full-sector Hamiltonians, entry for entry.  For a
    Hermitian difference the minimizing shift is the spectral midpoint, so
    the value is (lambda_max - lambda_min) / 2 of the block.  ValueError
    for a negative window or one above n_max.
    """
    if window < 0:
        raise ValueError(f"window {window} is negative")
    if window > space.n_max:
        raise ValueError(f"window {window} exceeds n_max {space.n_max}")
    ops = _lattice_algebra(spec, space, ops)
    keep = np.flatnonzero(space.boson_occupation_table() <= window)
    diff = (_on_sector(ops, *_simulator_terms(params, spec, ops), keep=keep)
            - _on_sector(ops, *_target_terms(params, spec, ops), keep=keep))
    evals = np.linalg.eigvalsh(diff.toarray())
    return float((evals[-1] - evals[0]) / 2.0)


# ---------------------------------------------------------------------------
# eigen machinery and observables
# ---------------------------------------------------------------------------

@dataclass
class GroundStateResult:
    """Extremal eigenpair data; ``vectors`` are on the sector basis of
    ``space``.  ``states`` embeds them in the full space on first use, for
    the pair-Gram oracle of ``perfbench/make_reference.py``."""

    energy: float
    vectors: list         # sector-basis vectors spanning the ground multiplet
    multiplicity: int
    residual: float
    k: int                # eigenpairs computed by the final solve
    space: FockSpace

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


DEGENERACY_TOL = 1e-9     # levels within this times scale(H) of E0 form the multiplet
LANCZOS_MAXITER = 100000  # ARPACK iteration limit of one eigsh call


def _operator_scale(h) -> float:
    return float(abs(h).max()) if h.nnz else 1.0


def ground_state(h, space: FockSpace) -> GroundStateResult:
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
    still within ``DEGENERACY_TOL`` * scale of E0; levels within that
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
    level_tol = DEGENERACY_TOL * scale
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
                                          maxiter=LANCZOS_MAXITER, tol=1e-12)
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


def _boson_rows(vector, space: FockSpace) -> np.ndarray:
    """X[row, boson index] of a vector on the sector basis, the rows running
    over the sorted sector fermion basis; ValueError for any other length."""
    vector = np.asarray(vector)
    if vector.shape != (space.sector_dimension,):
        raise ValueError(f"vector of shape {vector.shape} is not on the sector basis "
                         f"of dimension {space.sector_dimension}")
    return vector.reshape(-1, space.boson_dim)


def _on_boson_factor(op, x):
    """kron(1, op) applied to the vector with rows ``x``, flattened."""
    return (op @ x.T).T.ravel()


@dataclass
class CorrelatorReport:
    """Two- and four-point data plus the Wick factorization residual."""

    c_matrix: np.ndarray          # <c_i+ c_j>
    d_dag_d: np.ndarray           # <d_m+ d_n>
    d_dag_ddag: np.ndarray        # <d_m+ d_n+>
    q_corr: dict                  # per pair: {"q1dag_q2": .., "q1dag_q2dag": ..}
    wick_residual: float
    wick_argmax: tuple


def _as_mixture(state, space: FockSpace):
    """(weights, boson rows) of a GroundStateResult or of a single vector,
    every vector on the sector basis of ``space``."""
    if isinstance(state, GroundStateResult):
        n = state.multiplicity
        weights, vectors = [1.0 / n] * n, state.vectors
    else:
        state = np.asarray(state)
        if state.ndim != 1:
            raise TypeError("state must be a vector or GroundStateResult")
        weights, vectors = [1.0], [state.astype(complex)]
    return weights, [_boson_rows(v, space) for v in vectors]


def correlators_and_wick(state, space: FockSpace, ops: ModeOperators) -> CorrelatorReport:
    """Correlation data of a normalized state (or ground multiplet mixture).

    ``state`` is a :class:`GroundStateResult` or a single vector on the
    sector basis (ValueError for any other length).  Fermion two-point matrix
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
    weights, rows = _as_mixture(state, space)
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
    # when no sector is set) and the maps c_i between them
    number = space.sector
    once, twice = (_fermion_basis(nf, None if number is None else number - k)
                   for k in (1, 2))
    first = [_annihilation_map(ops.states, once, i) for i in range(nf)]
    second = [_annihilation_map(once, twice, i) for i in range(nf)]

    for w, x in zip(weights, rows):
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
