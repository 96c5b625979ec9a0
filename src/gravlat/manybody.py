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
the full-space ordering is fermion-major, index = fermion_index *
boson_dim + boson_index.  The bosons come in (x, z) pairs, one on each
cell that :func:`boson_pairs` places (cell None: one pair shared by every
cell, :meth:`FockSpace.pair_of`); pair p holds modes 2p (x) and 2p + 1 (z)
and is digit p of the boson index (:meth:`FockSpace.pair_digits`).  Only
:class:`FockSpace` knows a pair's basis and the order inside it: its
``pair_occupations`` and ``pair_ladders`` (number-basis ladders truncated
at n_max) are what every reader takes.  Each Hamiltonian is a table of
the model values and those ladders alone: a vertex {species: (J0, V)} and
B's pair-local terms (:func:`_simulator_terms`, :func:`_target_terms`).
One rule, :func:`_bond_couplings`, wires a vertex to the bonds of
:meth:`LatticeSpec.bonds`; the x boson drives both the x and the y bond.

Hamiltonians are assembled directly on the sector basis: the sorted
fermion integers with the sector's number of set bits (all when no sector
is set), in the fermion-major order of :meth:`FockSpace.sector_indices`.
Every Hamiltonian is sum_(p, q) kron(c_p+ c_q, J_pq) + h.c. + kron(1, B),
the hopping blocks looked up by ``searchsorted`` in the sorted basis
(H. Q. Lin, PRB 42, 6561 (1990)).  The bond rule turns the vertex into
J_pq, a small dense matrix local to one pair (1 x 1 where no pair serves
the cell).  :func:`_sector_pieces` builds and checks B on the boson
factor (the hopping part is Hermitian by construction); :func:`_on_sector`
embeds each J_pq there by index arithmetic on the pair digits, and
:func:`mapping_residual` writes its window block densely from the same
pieces.  The result of :func:`_on_sector` is a :class:`SectorOperator`
on the whole sector: the hopping part in its own compressed-row form,
each entry scattered straight into its final slot (rows counted first,
then one row cursor per row), and kron(1, B) kept factored, as B's
diagonal over the boson factor and the one off-diagonal block that every
pair shares, never as a copy per fermion state.  Its
``materialized`` form writes B's entries into the rows, the same entries
in the same order as when they were stored; ``toarray``, the momentum
blocks and the tests read that.

Observables read a state on the same basis, and only there.  A fermion
annihilator c_i maps the N-particle basis to the (N-1)-particle one by the
same lookup, with the Jordan-Wigner sign of the occupied modes below i, as
index arrays applied to the rows of the state reshaped to (fermion states,
boson_dim); a pair-local boson matrix is applied on its pair's axis of
those rows by one ``matmul`` (:func:`_on_pair_axis`), the kernel B's
product uses too.

Ground states above dimension 512 come from a numpy Lanczos on
``SectorOperator @ x`` (:func:`ground_state`) that keeps no Krylov basis:
each locked level's Ritz vector comes from a rerun of its run's
recurrence with the Ritz coefficients (:func:`_lanczos_lowest`), so a
solve holds a fixed number of vectors whatever its number of steps.
Each run starts from a SplitMix64 hash vector (:func:`_start_vector`), so
no ``numpy.random`` is loaded.  The product runs through row blocks of
at most 2^15 hopping entries, each row summed as one ``reduceat``
segment in entry order, so the loop holds no scratch array as long as
the entries and the hopping product is bitwise the unblocked one; it
then adds B x, one BLAS ``matmul`` per pair.  The assemblers,
:func:`mapping_residual` and the observables take the :class:`FockSpace`
and build no full-space object; each assembler first runs
:func:`operator_algebra` as its nnz-cap check.  Only ``ModeOperators.c``
loads scipy (``scipy.sparse``, inside the property).  It,
``GroundStateResult.states`` and the optional ``ops`` of
:func:`assemble_simulator_hamiltonian` are kept for the pair-Gram oracle
of ``perfbench/make_reference.py``, which passes its ``ModeOperators``
there.  The test oracles build their own full-space operators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from math import comb, copysign, hypot, isfinite
from typing import Optional

import numpy as np

from .continuum import hgr_quadratic_form
from .designer import optical_params
from .exceptions import ConvergenceError, DimensionCapError
from .geometry import ModelParams
from .lattice import BOSON_PLACEMENTS, LatticeSpec

__all__ = [
    "FockSpace",
    "ModeOperators",
    "operator_algebra",
    "assemble_simulator_hamiltonian",
    "assemble_target_hamiltonian",
    "assemble_background_hopping",
    "mapping_residual",
    "SectorOperator",
    "GroundStateResult",
    "max_abs_entry",
    "ground_state",
    "CorrelatorReport",
    "correlators_and_wick",
    "top_level_weight",
    "boson_pairs",
]

_FERMION_A = np.array([[0.0, 1.0], [0.0, 0.0]])
_FERMION_Z = np.diag([1.0, -1.0])

Q1_X = 2.0 * np.sqrt(2.0) / 3.0
Q1_Z = -1.0 / 3.0


def boson_pairs(spec: LatticeSpec, placement: str) -> tuple:
    """The cells of ``spec`` that carry one (x, z) boson pair under a
    placement, as ``lattice.BOSON_PLACEMENTS`` lists them (None: one pair
    shared by every cell).  ValueError for any other placement.
    """
    if placement not in BOSON_PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r}; "
                         f"one of {', '.join(BOSON_PLACEMENTS)}")
    return tuple(BOSON_PLACEMENTS[placement](spec))


_PAIR_SPECIES = ("x", "z")   # the modes of one pair, in mode order


@dataclass(frozen=True)
class FockSpace:
    """Tensor basis: fermion occupation bits x truncated boson numbers.

    ``pairs`` lists the cells that carry one (x, z) boson pair, each cell
    at most once (stored as a tuple), or is ``(None,)`` for one pair shared
    by every cell.  Pair p holds boson modes 2p (x) and 2p + 1 (z), and its
    digit, the index into its factor, sits at stride pair_dim^p of the
    boson index.  ``sector`` optionally restricts the fermion factor to a
    fixed total number.  The pair basis, ``pair_occupations`` and
    ``pair_ladders``, is built from n_max on first use and kept.
    """

    n_fermion_modes: int
    pairs: tuple
    n_max: int
    sector: Optional[int] = None
    nnz_cap: int = 2 ** 22

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if self.n_fermion_modes < 0 or self.n_max < 0:
            raise ValueError("negative mode counts")
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError(f"boson pairs {self.pairs} repeat a cell")
        if None in self.pairs and len(self.pairs) > 1:
            raise ValueError(f"boson pairs {self.pairs} put a shared pair next to a cell's")
        if self.sector is not None and not (0 <= self.sector <= self.n_fermion_modes):
            raise ValueError("fermion sector out of range")

    @property
    def boson_modes(self) -> tuple:
        """(cell, species) of each boson mode, in mode order."""
        return tuple((cell, species) for cell in self.pairs for species in _PAIR_SPECIES)

    @property
    def n_boson_modes(self) -> int:
        return len(_PAIR_SPECIES) * len(self.pairs)

    @cached_property
    def pair_occupations(self) -> np.ndarray:
        """[pair digit j, species]: the occupations of one pair's states,
        species in mode order, j = n_x + (n_max + 1) n_z (read-only)."""
        base = self.n_max + 1
        occ = _digits(base ** len(_PAIR_SPECIES), base, len(_PAIR_SPECIES))
        occ.flags.writeable = False
        return occ

    @cached_property
    def pair_ladders(self) -> dict:
        """{species: d_s} on one pair's factor, in mode order and indexed as
        ``pair_occupations``: d_s[j', j] = sqrt(n_s) where state j' is state j
        with one s quantum less (read-only)."""
        occ = self.pair_occupations
        ladders = {}
        for s, unit in zip(_PAIR_SPECIES, np.eye(len(_PAIR_SPECIES), dtype=int)):
            d = (occ[:, None] == occ[None] - unit).all(axis=2) * np.sqrt(occ @ unit)
            d.flags.writeable = False
            ladders[s] = d
        return ladders

    @property
    def fermion_dim(self) -> int:
        return 2 ** self.n_fermion_modes

    @property
    def pair_dim(self) -> int:
        return len(self.pair_occupations)

    @property
    def boson_dim(self) -> int:
        return self.pair_dim ** len(self.pairs)

    @property
    def dimension(self) -> int:
        return self.fermion_dim * self.boson_dim

    def pair_of(self, cell) -> Optional[int]:
        """The pair serving ``cell``: the shared pair, or the cell's own;
        None when no pair serves it."""
        if self.pairs == (None,):
            return 0
        return self.pairs.index(cell) if cell in self.pairs else None

    def pair_digits(self) -> np.ndarray:
        """[boson index, pair]: the pair digits of the boson index."""
        return _digits(self.boson_dim, self.pair_dim, len(self.pairs))

    def boson_occupation_table(self) -> np.ndarray:
        """Total boson occupation per boson basis index."""
        return self.pair_occupations.sum(axis=1)[self.pair_digits()].sum(axis=1)

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


def _digits(size: int, base: int, n_digits: int) -> np.ndarray:
    """[index, t] for index < ``size``: digit t of the index, little-endian
    in ``base``."""
    return np.arange(size)[:, None] // base ** np.arange(n_digits) % base


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
    """Entries (rows, cols, signs) of c_i from the sorted fermion basis
    ``states`` to the sorted basis ``lowered`` that holds every image.

    The Jordan-Wigner sign is the parity of the occupied modes below i;
    the target row is looked up by ``searchsorted`` in ``lowered``.
    """
    bit = 1 << i
    cols = np.flatnonzero(states & bit)
    rows = np.searchsorted(lowered, states[cols] ^ bit)
    signs = 1.0 - 2.0 * (_popcount(states[cols], i) & 1)
    return rows, cols, signs


def _annihilate(entries, x: np.ndarray, n_lowered: int) -> np.ndarray:
    """The rows of c_i psi on a basis of ``n_lowered`` states, from the rows
    ``x`` of psi and the entries of :func:`_annihilation_map`."""
    rows, cols, signs = entries
    out = np.zeros((n_lowered,) + x.shape[1:], dtype=np.result_type(signs, x))
    out[rows] = signs[:, None] * x[cols]
    return out


def _on_pair_axis(x: np.ndarray, local: np.ndarray, p: int) -> np.ndarray:
    """kron(1, ``local`` on pair p) applied to the vector with boson rows
    ``x`` (fermion states, boson_dim), shaped as ``x``: one ``matmul`` on
    axis 1 of x reshaped to (fermion states x higher pairs, pair_dim,
    pair_dim^p); pair 0, the last axis, as one (rows, pair_dim) product
    with local^T."""
    k = len(local)
    if p == 0:
        return (x.reshape(-1, k) @ local.T).reshape(x.shape)
    return (local @ x.reshape(-1, k, k ** p)).reshape(x.shape)


@dataclass(frozen=True)
class ModeOperators:
    """The full-space fermion annihilators ``c`` of a space, built on first
    use with ``scipy.sparse``.  No command builds them: they are kept for
    the pair-Gram oracle of ``perfbench/make_reference.py``.
    """

    space: FockSpace

    @cached_property
    def c(self) -> tuple:
        """Fermion annihilation operators on the full space."""
        import scipy.sparse as sparse

        space = self.space
        eye_b = sparse.identity(space.boson_dim, format="csr")
        eye2 = sparse.identity(2, format="csr")
        a_mat = sparse.csr_matrix(_FERMION_A)
        z_mat = sparse.csr_matrix(_FERMION_Z)
        cs = []
        for i in range(space.n_fermion_modes):
            # mode j occupies bit j; the kron chain runs most-significant first
            factors = [a_mat if j == i else (z_mat if j < i else eye2)
                       for j in reversed(range(space.n_fermion_modes))]
            chain = reduce(lambda a, b: sparse.kron(a, b, format="csr"), factors)
            cs.append(sparse.kron(chain, eye_b, format="csr"))
        return tuple(cs)


def operator_algebra(space: FockSpace) -> ModeOperators:
    """The mode operators of ``space``.

    Raises
    ------
    DimensionCapError
        When the estimated nonzero count over all full-space mode
        operators, (n_modes) * dimension, exceeds ``space.nnz_cap``.  This
        also bounds the sector assembly and the lazily built ``c``.
    """
    n_modes = space.n_fermion_modes + space.n_boson_modes
    estimate = n_modes * space.dimension
    if estimate > space.nnz_cap:
        raise DimensionCapError(f"~{estimate} nonzeros exceed cap {space.nnz_cap}")
    return ModeOperators(space=space)


# ---------------------------------------------------------------------------
# boson-factor operators
# ---------------------------------------------------------------------------

def _embed(space: FockSpace, local: np.ndarray, pair: Optional[int] = None):
    """(rows, cols, data) of the kron of the dense ``local`` on pair
    ``pair``'s factor with the identity on every other pair, in row-major
    order, zero entries left out; with no pair, ``local`` is 1 x 1, a
    multiple of the identity.

    ``local`` is indexed by the pair's digit (:meth:`FockSpace.pair_digits`,
    stride pair_dim^pair): boson row r repeats the entries of local row
    digit(r), each moved by its column offset times the stride.
    """
    stride = space.pair_dim ** (pair or 0)
    digit = np.arange(space.boson_dim) // stride % len(local)
    lr, lc = np.nonzero(local)
    start = np.searchsorted(lr, np.arange(len(local) + 1))   # local row starts
    count = np.diff(start)[digit]
    rows = np.repeat(np.arange(space.boson_dim), count)
    entry = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count - start[digit], count)
    return rows, rows + (lc[entry] - lr[entry]) * stride, local[lr, lc][entry]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with each entry's terms a[i, j] b[j, k] added one at a time,
    those with j != k in index order and the j == k term last.

    For the ladder polynomials assembled here (at most three terms per
    entry, three only on the diagonal of n_z (n_x - n_z / 2)) that is the
    order scipy's sparse product adds them in, so the Hamiltonians equal
    the full-space kron-chain oracle of the tests bit for bit; a BLAS
    product would fuse and reorder the additions.
    """
    out = np.zeros((a.shape[0], b.shape[1]))
    for j in range(a.shape[1]):
        term = np.outer(a[:, j], b[j])
        term[:, j] = 0.0
        out += term
    return out + a * np.diagonal(b)


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------

_BOSON_SPECIES = {"z": "z", "x": "x", "y": "x"}   # the x boson serves the y bond


def _bond_couplings(spec: LatticeSpec, space: FockSpace, vertex) -> dict:
    """{(p, q): (pair, J_pq)} for every fermion pair (a_i, b_k) a bond of
    :meth:`LatticeSpec.bonds` joins, J_pq local to its pair as :func:`_embed`
    takes it.  ``vertex`` is {species: (J0, V)}: a bond of cell i driven by
    species s couples J0 * 1 + V on the pair serving cell i, or the 1 x 1
    J0 where no pair serves it or V is None (every V is a sum of d + d+,
    zero on the diagonal).  The bonds joining one fermion pair belong to
    one cell, so they share its pair and add their local matrices in bond
    order."""
    on_pair = {species: None if v is None else j0 * np.eye(len(v)) + v
               for species, (j0, v) in vertex.items()}
    per_pair = {}
    for cell, direction, b_cell in spec.bonds():
        species = _BOSON_SPECIES[direction]
        pair, local = space.pair_of(cell), on_pair[species]
        if pair is None or local is None:   # no fluctuation mode: the background bond
            pair, local = None, np.full((1, 1), vertex[species][0])
        fermions = (cell, spec.n_cells + b_cell)
        if fermions in per_pair:
            local = per_pair[fermions][1] + local
        per_pair[fermions] = (pair, local)
    return per_pair


_ROW_BLOCK = 1 << 15     # entries of one row block of SectorOperator @ x


@dataclass(frozen=True)
class _FactoredBoson:
    """kron(1, B) of a :class:`SectorOperator`, B = (B0 + B0+) / 2 kept in
    factored form: ``diag``, B's diagonal over the whole boson factor of
    ``space``, and ``off``, the off-diagonal block local to one pair (zero
    diagonal), which every pair shares.
    """

    space: FockSpace
    diag: np.ndarray
    off: np.ndarray

    @property
    def dtype(self):
        return np.result_type(self.diag, self.off)

    @property
    def real(self) -> "_FactoredBoson":
        return replace(self, diag=self.diag.real, off=self.off.real)

    @cached_property
    def entries(self):
        """(rows, cols, data) of B on the boson factor in row-major
        order, zero entries left out: the diagonal's nonzero entries and
        ``off`` embedded on each pair (the pairs' blocks share no entry)."""
        space = self.space
        on = np.flatnonzero(self.diag)
        pieces = [(on, on, self.diag[on])] + [_embed(space, self.off, p)
                                              for p in range(len(space.pairs))]
        rows, cols, data = (np.concatenate(x) for x in zip(*pieces))
        order = np.argsort(rows * space.boson_dim + cols)
        return rows[order], cols[order], data[order]

    def add_product(self, x: np.ndarray, out: np.ndarray) -> None:
        """out += kron(1, B) x, both (fermion states, boson_dim) arrays:
        ``x * diag``, then ``off`` on each pair's axis (:func:`_on_pair_axis`)."""
        out += x * self.diag
        for p in range(len(self.space.pairs)):
            out += _on_pair_axis(x, self.off, p)


@dataclass(frozen=True)
class SectorOperator:
    """An operator on the sector basis: its hopping part in compressed-row
    form, plus kron(1, B) in factored form (``boson``, None for no B).

    Row i of the hopping part holds the entries ``indptr[i]:indptr[i + 1]``
    of ``data`` and of the column indices ``cols`` (intp, so ``@`` gathers
    without converting them).  B is kept as its diagonal over the boson
    factor and the one off-diagonal block that every pair shares
    (:class:`_FactoredBoson`), not as one copy per fermion state.

    The operator's entries are what :meth:`materialized` writes out: per
    row the hopping entries, then B's entries of that boson row.  Each
    (row, col) appears once and no entry is zero, so ``nnz`` counts them
    all and is the count of a scipy CSR matrix built from the materialized
    arrays.  ``toarray`` reads them; :meth:`values` and
    :meth:`row_lengths` are the same entries' values and row counts, read
    from the two stored parts without writing them out.

    ``@`` (on a vector) works through row blocks of the hopping part, runs
    of consecutive rows holding at most ``_ROW_BLOCK`` entries (a longer
    row is a block of its own): per block it gathers x at the columns,
    multiplies by the entries in place and sums each row with
    ``np.add.reduceat``.  So no scratch array as long as ``data`` is made,
    and each row is summed as one segment in its entry order, the same
    floating-point sums as one unblocked ``reduceat`` over all hopping
    entries.  It then adds B x on each pair's axis
    (:meth:`_FactoredBoson.add_product`), whose ``matmul`` calls BLAS.
    """

    data: np.ndarray
    cols: np.ndarray
    indptr: np.ndarray   # row starts, then the hopping entry count
    shape: tuple
    boson: Optional[_FactoredBoson] = None

    @property
    def dtype(self):
        return self.data.dtype if self.boson is None else np.result_type(self.data,
                                                                          self.boson.dtype)

    @property
    def nnz(self) -> int:
        if self.boson is None:
            return len(self.data)
        n_states = self.shape[0] // self.boson.space.boson_dim
        return len(self.data) + n_states * len(self.boson.entries[2])

    @property
    def real(self) -> "SectorOperator":
        return SectorOperator(self.data.real, self.cols, self.indptr, self.shape,
                              None if self.boson is None else self.boson.real)

    def entry_rows(self) -> np.ndarray:
        """The row index of each entry of ``data``."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def values(self) -> list:
        """Arrays holding every entry's value and nothing else: ``data`` and
        B's entries on the boson factor, which repeat on every fermion state."""
        return [self.data] + ([] if self.boson is None else [self.boson.entries[2]])

    def row_lengths(self) -> np.ndarray:
        """The number of entries on each row."""
        counts = np.diff(self.indptr)
        if self.boson is not None:
            n_b = self.boson.space.boson_dim
            counts = (counts.reshape(-1, n_b)
                      + np.bincount(self.boson.entries[0], minlength=n_b)).ravel()
        return counts

    def materialized(self) -> "SectorOperator":
        """The operator with B's entries written into the compressed rows:
        each row holds its hopping entries, then B's entries of its boson
        row in column order, with the values and order of the assembly that
        stored B's copies."""
        if self.boson is None:
            return self
        _, b_cols, b_data = self.boson.entries
        n_b = self.boson.space.boson_dim
        n_states = self.shape[0] // n_b
        lengths, hop_counts = self.row_lengths(), np.diff(self.indptr)
        indptr = np.zeros(self.shape[0] + 1, dtype=np.intp)
        np.cumsum(lengths, out=indptr[1:])
        # hop marks each row's first slots, one per hopping entry; a mask
        # assignment fills its slots in order, so the hopping entries land
        # row by row and B's, tiled over the fermion states, in the rest
        hop = np.repeat(np.tile([True, False], self.shape[0]),
                        np.column_stack([hop_counts, lengths - hop_counts]).ravel())
        data = np.empty(indptr[-1], dtype=self.dtype)
        cols = np.empty(indptr[-1], dtype=np.intp)
        data[hop], cols[hop] = self.data, self.cols
        rest = ~hop
        data[rest] = np.tile(b_data, n_states)
        cols[rest] = (np.arange(n_states)[:, None] * n_b + b_cols).ravel()
        return SectorOperator(data, cols, indptr, self.shape)

    def toarray(self) -> np.ndarray:
        h = self.materialized()
        out = np.zeros(self.shape, dtype=h.data.dtype)
        out[h.entry_rows(), h.cols] = h.data
        return out

    @cached_property
    def _blocks(self) -> list:
        """[(entry start, entry end, rows holding entries, their starts
        relative to the entry start)] per row block.  ``np.add.reduceat``
        returns the entry at the start of an empty segment, not 0, so empty
        rows are left out of it, and a block of empty rows is dropped."""
        indptr = self.indptr
        blocks, r0 = [], 0
        while r0 < self.shape[0]:
            a = indptr[r0]
            r1 = max(int(np.searchsorted(indptr, a + _ROW_BLOCK, side="right")) - 1, r0 + 1)
            rows = r0 + np.flatnonzero(np.diff(indptr[r0:r1 + 1]))
            if len(rows):
                blocks.append((a, indptr[r1], rows, indptr[rows] - a))
            r0 = r1
        return blocks

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = x.astype(np.result_type(x, self.dtype), copy=False)
        out = np.zeros(self.shape[0], dtype=x.dtype)
        for a, b, rows, starts in self._blocks:
            g = np.take(x, self.cols[a:b])
            g *= self.data[a:b]
            out[rows] = np.add.reduceat(g, starts)
        if self.boson is not None:
            n_b = self.boson.space.boson_dim
            self.boson.add_product(x.reshape(-1, n_b), out.reshape(-1, n_b))
        return out


def _hermitian_part(space: FockSpace, terms, scale: float) -> _FactoredBoson:
    """(B + B+) / 2 in factored form, B the sum of the pair-local ``terms``
    on every pair, after checking it: AssertionError when max|B - B+|
    exceeds 1e-12 * max(scale, max|B|, 1).

    B's diagonal is built over the boson factor, each entry adding the
    terms' diagonals term by term, pair by pair; its off-diagonal is one
    local block, the terms' sum, on every pair (the pairs' blocks share no
    entry).  Both checks and both halves are taken on those two pieces.
    """
    digits = space.pair_digits()
    diag = np.zeros(space.boson_dim, dtype=np.result_type(*terms))
    for p in range(len(space.pairs)):
        for term in terms:
            diag += np.diagonal(term)[digits[:, p]]
    off = sum(terms)
    np.fill_diagonal(off, 0.0)
    scale = max(scale, np.abs(diag).max(), np.abs(off).max())
    defect = max(np.abs(diag - diag.conj()).max(), np.abs(off - off.conj().T).max())
    if defect > 1e-12 * max(scale, 1.0):
        raise AssertionError(f"anti-Hermitian assembly: defect {defect:g}")
    return _FactoredBoson(space, (diag + diag.conj()) * 0.5, (off + off.conj().T) * 0.5)


def _sector_pieces(spec: LatticeSpec, space: FockSpace, hamiltonian):
    """(fermion states, hops, B) of a Hamiltonian's table, the one step from
    the table that :func:`_on_sector` and :func:`_window_block` share: each
    hop is the fermion block (rows, cols, signs) of one c_p+ c_q, its pair
    and its J_pq local to that pair, and B is (B + B+) / 2 in factored form
    (None without terms)."""
    vertex, terms = hamiltonian
    states = space.sector_fermion_states()
    hops = [(_hopping_block(states, p, q), pair, local)
            for (p, q), (pair, local) in _bond_couplings(spec, space, vertex).items()]
    boson = None
    if terms:
        scale = max([float(np.abs(local).max()) for (rows, _, _), _, local in hops
                     if len(rows)], default=0.0)
        boson = _hermitian_part(space, terms, scale)
    return len(states), hops, boson


def _ranks(rows: np.ndarray, n: int):
    """(entries on each of range(n), each entry's place among its row's
    entries in entry order) of the entries with row indices ``rows``."""
    counts = np.bincount(rows, minlength=n)
    rank = np.empty(len(rows), dtype=np.intp)
    rank[np.argsort(rows, kind="stable")] = (
        np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts))
    return counts, rank


def _on_sector(spec: LatticeSpec, space: FockSpace, hamiltonian) -> SectorOperator:
    """sum_(p, q) kron(c_p+ c_q, J_pq) + h.c. + kron(1, B) on the sector
    basis, from a Hamiltonian's table (vertex, terms): the vertex wired to
    the bonds of ``spec`` as J_pq by :func:`_bond_couplings`, and the
    pair-local boson ``terms`` that every pair shares (B is their sum on
    every pair).

    B is checked on the boson factor, the only place an anti-Hermitian
    defect can enter (:func:`_hermitian_part`), with scale the largest
    |entry| of the sector H (the largest |J_pq| over nonempty hopping
    blocks, or the largest |B|), and enters as (B + B+) / 2, kept in
    factored form.

    The hopping part is written in place: the entry count of every row
    comes first, then each piece is scattered straight into its final
    slots, a chunk of at most ``_ROW_BLOCK`` entries at a time, so the
    assembly holds no array as long as the entries beyond the operator's
    own.
    """
    n_states, hops, boson = _sector_pieces(spec, space, hamiltonian)
    n_b = space.boson_dim
    hops = [(blk, _embed(space, local, pair)) for blk, pair, local in hops]
    # kron(c_p+ c_q, J) puts sign * J_ab at (row * n_b + a, col * n_b + b)
    # and its transpose the conjugate at (col * n_b + b, row * n_b + a).
    # These pieces share no entry.  A row holds them hop by hop, forward
    # then backward, each piece's entries in their boson-factor order.  A
    # piece meets a fermion row at most once (a hop's forward and backward
    # rows are disjoint), so an entry's slot is its row's cursor plus its
    # rank among the piece's boson-factor entries on its boson row: one
    # small rank vector per piece, shared by its fermion rows.
    cursor = np.zeros((n_states, n_b), dtype=np.intp)   # the row counts first
    for (f_rows, f_cols, _), (j_rows, j_cols, _) in hops:
        cursor[f_rows] += np.bincount(j_rows, minlength=n_b)
        cursor[f_cols] += np.bincount(j_cols, minlength=n_b)
    indptr = np.zeros(n_states * n_b + 1, dtype=np.intp)
    np.cumsum(cursor, out=indptr[1:])
    cursor.reshape(-1)[:] = indptr[:-1]
    dtype = np.result_type(*[np.result_type(signs, j_data)
                             for (_, _, signs), (_, _, j_data) in hops])
    data = np.empty(indptr[-1], dtype=dtype)
    cols = np.empty(indptr[-1], dtype=np.intp)

    def scatter(f_to, f_from, j_to, j_from, ranked, values):
        """Write a piece's entries on the fermion rows ``f_to`` at their
        cursors, and move the cursors past them."""
        counts, rank = ranked
        start = cursor[f_to]
        cursor[f_to] = start + counts
        # a C-ordered index array: numpy writes through it about twice as
        # fast as through the column-major one the gather returns
        at = np.add(start[:, j_to], rank, order="C")
        cols[at] = f_from[:, None] * n_b + j_from
        data[at] = values

    for (f_rows, f_cols, signs), (j_rows, j_cols, j_data) in hops:
        forward, backward = _ranks(j_rows, n_b), _ranks(j_cols, n_b)
        step = max(_ROW_BLOCK // max(len(j_data), 1), 1)
        for a in range(0, len(signs), step):
            r, c = f_rows[a:a + step], f_cols[a:a + step]
            v = signs[a:a + step, None] * j_data
            scatter(r, c, j_rows, j_cols, forward, v)
            scatter(c, r, j_cols, j_rows, backward, v.conj())
    return SectorOperator(data, cols, indptr, (n_states * n_b,) * 2, boson)


def _window_block(spec: LatticeSpec, space: FockSpace, hamiltonian,
                  kept: np.ndarray) -> np.ndarray:
    """The dense block of :func:`_on_sector`'s H on the rows and columns
    position * boson_dim + kept[i], the sorted boson indices ``kept``: each
    entry H stores there written once, with its value, and +0.0 elsewhere.
    ``cut`` restricts a matrix local to a pair, or a 1 x 1 one local to no
    pair, to the kept indices by :func:`_on_pair_axis` on unit vectors."""
    n_states, hops, boson = _sector_pieces(spec, space, hamiltonian)
    k = len(kept)
    units = (kept[:, None] == np.arange(space.boson_dim)).astype(float)

    def cut(local, pair):
        return _on_pair_axis(units, local, pair or 0)[:, kept].T

    dtypes = [np.result_type(signs, local) for (_, _, signs), _, local in hops]
    if boson is not None:
        dtypes.append(boson.dtype)
    block = np.zeros((n_states, k, n_states, k), dtype=np.result_type(*dtypes))
    for (rows, cols, signs), pair, local in hops:
        v = signs[:, None, None] * cut(local, pair)
        block[rows, :, cols, :] = v
        block[cols, :, rows, :] = v.conj().transpose(0, 2, 1)
    if boson is not None:
        states = np.arange(n_states)
        block[states, :, states, :] = np.diag(boson.diag[kept]) + sum(
            cut(boson.off, p) for p in range(len(space.pairs)))
    block[block == 0] = 0.0   # H stores no zero entry: no -0.0 where it reads +0.0
    return block.reshape(n_states * k, n_states * k)


def _check_space(spec: LatticeSpec, space: FockSpace) -> None:
    """ValueError when ``space`` does not fit the lattice; then the nnz-cap
    check of :func:`operator_algebra`."""
    if space.n_fermion_modes != spec.n_modes:
        raise ValueError("space fermion modes do not match the lattice")
    for cell in space.pairs:
        if cell is not None and cell not in range(spec.n_cells):
            raise ValueError(f"boson pair on cell {cell!r} outside the "
                             f"{spec.n_cells} cells of the lattice")
    operator_algebra(space)


def _simulator_terms(params: ModelParams, ladders: dict):
    """(vertex, B's pair-local terms) of the simulator on the factor of one
    pair with ``ladders`` ({species: d_s}, :attr:`FockSpace.pair_ladders`),
    as :func:`_bond_couplings` and :func:`_on_sector` read them:
    J0 = Delta_s D_s^2 and V = Delta_s D_s (d_s + d_s+)."""
    opt = optical_params(params)
    vertex = {s: (opt.strength(s) * opt.amplitude(s) * opt.amplitude(s),
                  opt.strength(s) * opt.amplitude(s) * (d + d.T))
              for s, d in ladders.items()}
    dx, dz = ladders["x"], ladders["z"]
    bx = dx + opt.d_x * np.eye(len(dx))   # alpha_x in the number basis of d_x
    bz = dz + opt.d_z * np.eye(len(dz))
    abar_x = bx.T - bx        # equals dx+ - dx exactly
    abar_z = bz.T - bz
    n_x = _product(bx.T, bx)
    n_z = _product(bz.T, bz)
    terms = (opt.kinetic_coeff * _product(abar_z, np.sqrt(2.0) * abar_x - 0.5 * abar_z),
             opt.number_coeff * (n_z + n_x),
             -opt.quartic_coeff * _product(n_z, n_x - 0.5 * n_z))
    return vertex, terms


def assemble_simulator_hamiltonian(params: ModelParams, spec: LatticeSpec,
                                   space: FockSpace,
                                   ops: Optional[ModeOperators] = None) -> SectorOperator:
    """Hopping with condensate-linearized coupling operators plus the
    quartic boson Hamiltonian in the shifted modes, on the sector basis.

    Coupling operators: J_m = Delta_m D_m^2 + Delta_m D_m (d_m + d_m+),
    the x operator serving both outgoing bonds of its cell.  The boson
    part, per pair (alpha_m = D_m + d_m, N_m = alpha_m+ alpha_m exact):

        (1/(24 pi G)) (az+ - az)(sqrt2 (ax+ - ax) - (az+ - az)/2)
        + (8 pi G mu^2 / 3)(N_z + N_x)
        - (256 pi^3 G^3 mu^2 / (3 l^2)) N_z (N_x - N_z / 2)

    Fermion modes are ordered a_0..a_{N-1}, b_0..b_{N-1}; requires
    space.n_fermion_modes == 2 * spec.n_cells.  ``ops``, if given, must be
    the mode operators of ``space``; nothing else reads it.
    """
    if ops is not None and ops.space != space:
        raise ValueError("mode operators belong to another space")
    _check_space(spec, space)
    return _on_sector(spec, space, _simulator_terms(params, space.pair_ladders))


def assemble_background_hopping(l: float, spec: LatticeSpec,
                                space: FockSpace) -> SectorOperator:
    """Hopping at the uniform background coupling 2/(3 l), bosons inert,
    on the sector basis.

    This is the exact G -> 0 limit of the fermion sector (the simulator's
    boson energies diverge as 1/G, so the decoupled point is assembled
    directly instead of by taking tiny G numerically).
    """
    _check_space(spec, space)
    j0 = 2.0 / (3.0 * l)
    return _on_sector(spec, space, ({"x": (j0, None), "z": (j0, None)}, ()))


def _target_terms(params: ModelParams, ladders: dict):
    """(vertex, B's pair-local terms) of the target from the same
    ``ladders``, as :func:`_simulator_terms` returns them: J0 = 2/(3 l),
    V_x = (delta v_x + delta J_z / 2) / 2 and V_z = delta J_z."""
    j0 = 2.0 / (3.0 * params.l)
    slope = 4.0 * np.sqrt(2.0) * np.pi * params.G / params.l ** 2
    dx, dz = ladders["x"], ladders["z"]
    q1, q2 = Q1_X * dx + Q1_Z * dz, dz
    delta_jz = (2.0 / 3.0) * (-slope) * (q2 + q2.T)
    delta_vx = -slope * (q1 + q1.T)
    vertex = {"x": (j0, 0.5 * (delta_vx + 0.5 * delta_jz)), "z": (j0, delta_jz)}
    form = hgr_quadratic_form(params)
    q1m, q2m = q1.T - q1, q2.T - q2
    q1p, q2p = q1.T + q1, q2.T + q2
    terms = (form.q_minus_coeff * _product(q1m, q2m),
             form.q_plus_coeff * _product(q1p, q2p))
    return vertex, terms


def assemble_target_hamiltonian(params: ModelParams, spec: LatticeSpec,
                                space: FockSpace) -> SectorOperator:
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
    _check_space(spec, space)
    return _on_sector(spec, space, _target_terms(params, space.pair_ladders))


def mapping_residual(params: ModelParams, spec: LatticeSpec, space: FockSpace,
                     window: int) -> float:
    """min over c of the spectral norm of (H_sim - H_target - c) restricted
    to total boson occupation <= window, on the sector basis.

    Only that block is written, densely (:func:`_window_block`), entry for
    entry the block cut from the full-sector Hamiltonians; the target's is
    subtracted in place.  For a Hermitian difference the minimizing shift
    is the spectral midpoint, so the value is (lambda_max - lambda_min) / 2
    of the block.  ValueError for a negative window or one above n_max.
    """
    if window < 0:
        raise ValueError(f"window {window} is negative")
    if window > space.n_max:
        raise ValueError(f"window {window} exceeds n_max {space.n_max}")
    _check_space(spec, space)
    kept = np.flatnonzero(space.boson_occupation_table() <= window)
    block = _window_block(spec, space, _simulator_terms(params, space.pair_ladders), kept)
    block -= _window_block(spec, space, _target_terms(params, space.pair_ladders), kept)
    evals = np.linalg.eigvalsh(block)
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
    k: int                # Lanczos runs; the sector dimension on the dense path
    space: FockSpace
    matvecs: int = 0      # H-vector products of the Lanczos runs and reruns

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


DEGENERACY_TOL = 1e-9     # levels within this times scale(H) of E0 form the multiplet
LANCZOS_MAXITER = 1000    # Lanczos steps of one run


def _start_vector(run: int, dim: int) -> np.ndarray:
    """The start vector of Lanczos run ``run`` (0 first): entry i is output
    i of the SplitMix64 stream seeded with ``run``, the finalizer of
    run + (i + 1) * 0x9E3779B97F4A7C15 mod 2^64 (Steele, Lea & Flood,
    OOPSLA 2014), its top 53 bits mapped to [-1/2, 1/2).

    A fixed integer hash in numpy alone: no ``numpy.random`` is loaded, and
    the vectors are the same on every platform.  Each entry is independent
    of the others, so the start overlaps every eigenvector a symmetry would
    hide from a structured one (the uniform vector, for instance).
    """
    u64 = np.uint64
    z = np.arange(1, dim + 1, dtype=u64) * u64(0x9E3779B97F4A7C15) + u64(run)
    z ^= z >> u64(30)
    z *= u64(0xBF58476D1CE4E5B9)
    z ^= z >> u64(27)
    z *= u64(0x94D049BB133111EB)
    z ^= z >> u64(31)
    return (z >> u64(11)) * 2.0 ** -53 - 0.5


def _dot(x: np.ndarray, y: np.ndarray):
    """(x, y) as a numpy (pairwise) reduction.  BLAS ``vdot`` is about 3x
    faster on a vector of 51 480 entries, but it sums in another order: the
    Lanczos coefficients, and so every ED artifact, would move in their
    last digits."""
    return (x.conj() * y).sum()


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _tridiagonal_lowest(alpha: list, beta: list):
    """(theta, s): the lowest eigenvalue of the symmetric tridiagonal
    matrix T with diagonal ``alpha`` and off-diagonal ``beta`` (lists of
    floats, ``len(beta) == len(alpha) - 1``) and its unit eigenvector, a
    list whose first entry is positive.

    LAPACK's dstebz/dstein scheme in scalar arithmetic, so no BLAS or
    LAPACK call runs.  Called every 8 Lanczos steps, it is faster than
    ``np.linalg.eigh`` on the longer runs (totals over a run of 128 / 240
    steps: 8-12 / 33-55 ms against 12-16 / 78-92 ms; about even at 56), and
    it fixes the Ritz values' last digits, which the artifacts carry.

    Bisection brackets theta between the Gershgorin lower bound, widened
    by a few eps, and min(alpha): a midpoint x is above theta when a pivot
    of the LDL+ factorization of T - x is below pivmin = tiny * max(1,
    beta^2), which also keeps every divisor at least pivmin.  It stops at a width of 2 eps * max(|lo|, |hi|,
    Gershgorin bound on ||T||), or pivmin, so a level at 0 costs no more
    halvings than any other; theta is the midpoint.  Then two
    inverse-iteration steps from e_1 on T - lo, which is positive definite
    (its pivots are the bisection's at lo), give s.  Every eigenvector of
    an unreduced T overlaps e_1; for a Lanczos matrix that overlap is the
    start vector's with the Ritz vector.
    """
    m = len(alpha)
    b2 = [0.0] + [b * b for b in beta]
    pivmin = _TINY * max(1.0, *b2)
    radius = [0.0] + [abs(b) for b in beta] + [0.0]
    g_lo = min(a - radius[i] - radius[i + 1] for i, a in enumerate(alpha))
    g_hi = max(a + radius[i] + radius[i + 1] for i, a in enumerate(alpha))
    tnorm = max(abs(g_lo), abs(g_hi))
    lo = g_lo - 2.1 * (m * _EPS * tnorm + 2.0 * pivmin)
    hi = min(alpha)
    while hi - lo > max(2.0 * _EPS * max(abs(lo), abs(hi), tnorm), pivmin):
        mid = 0.5 * (lo + hi)
        q = 1.0
        for a, bb in zip(alpha, b2):
            q = a - mid - bb / q
            if q < pivmin:
                hi = mid
                break
        else:
            lo = mid
    pivots, q = [], 1.0
    for a, bb in zip(alpha, b2):
        q = max(a - lo - bb / q, pivmin)    # lo may be the untested initial bound
        pivots.append(q)
    s = [1.0] + [0.0] * (m - 1)
    for _ in range(2):
        # solve (T - lo) y = s through T - lo = L D L+, L[i+1, i] = beta[i] / pivots[i]
        for i in range(1, m):
            s[i] -= beta[i - 1] / pivots[i - 1] * s[i - 1]
        s[-1] /= pivots[-1]
        for i in range(m - 2, -1, -1):
            s[i] = (s[i] - beta[i] * s[i + 1]) / pivots[i]
        norm = copysign(hypot(*s), s[0])
        s = [x / norm for x in s]
    return 0.5 * (lo + hi), s


@dataclass(frozen=True)
class _LanczosRun:
    """Pass 1 of a Lanczos run (:func:`_lanczos_lowest`): the lowest Ritz
    value ``theta``, its coefficients ``s`` on the run's Lanczos vectors
    v_1 .. v_m, and the diagonal ``alpha`` and off-diagonal ``beta`` of the
    tridiagonal matrix T (Python floats).  No vector is kept."""

    theta: float
    s: list
    alpha: list
    beta: list

    @property
    def steps(self) -> int:
        return len(self.alpha)


def _lanczos_lowest(h, v: np.ndarray, deflate: list, tol: float, coefficients=None):
    """A Lanczos run on h + sum over the (u, shift) of ``deflate`` of
    shift u u+: pass 1 (a :class:`_LanczosRun`), or with ``coefficients``
    the sum of c_j v_j over them (an array).

    Three-term recurrence from ``v`` (Dagotto, RMP 66, 763 (1994)),
    normalized in place into v_1.  Pass 1: every 8 steps, and on a
    breakdown, :func:`_tridiagonal_lowest` gives the lowest Ritz pair of
    the tridiagonal matrix; the run stops when the residual estimate
    |beta_m s_m| is at most ``tol``, and ConvergenceError after
    ``LANCZOS_MAXITER`` steps.  No BLAS or LAPACK call runs in the
    recurrence's own arithmetic between the first and the last product
    with h (a :class:`SectorOperator` product's pair ``matmul`` does call
    BLAS).  Only the last two Lanczos vectors are held.

    The Ritz vector is built by a second pass (Cullum & Willoughby,
    *Lanczos Algorithms for Large Symmetric Eigenvalue Computations*
    (1985)): given ``coefficients``, the same recurrence from the same
    start, with the same products, dot products and deflation terms,
    reruns without the stop rule.  Each v_j is added into the sum as it is
    made, in order, and the rerun stops after m = len(coefficients) vectors
    and m - 1 products; with pass 1's s, from the same unnormalized start,
    the sum is bitwise the one a stored basis gives.
    """
    v /= np.sqrt(_dot(v, v).real)
    prev = None
    alpha, beta = [], []
    total = None if coefficients is None else np.zeros_like(v)
    for step in range(1, LANCZOS_MAXITER + 1):
        if total is not None:
            total += coefficients[step - 1] * v
            if step == len(coefficients):
                return total
        w = h @ v
        for u, shift in deflate:
            w += (shift * _dot(u, v)) * u
        alpha.append(float(_dot(v, w).real))
        w -= alpha[-1] * v
        if prev is not None:
            w -= beta[-1] * prev
        beta.append(float(np.sqrt(_dot(w, w).real)))
        if total is None and (beta[-1] <= tol or step % 8 == 0):
            theta, s = _tridiagonal_lowest(alpha, beta[:-1])
            if abs(beta[-1] * s[-1]) <= tol:
                return _LanczosRun(theta, s, alpha, beta[:-1])
        w /= beta[-1]
        prev, v = v, w
    raise ConvergenceError(f"Lanczos did not converge in {LANCZOS_MAXITER} steps")


def _lanczos(h, dim: int, scale: float, level_tol: float):
    """(levels, vectors, matvecs): the ground multiplet, one level per
    Lanczos run.

    Run r starts from ``_start_vector(r, dim)``, in the dtype of ``h``
    (at least float64).  A level within ``level_tol`` of E0 (the
    first run's) is locked: its run is rerun from a fresh
    ``_start_vector(r, dim)`` (pass 1 normalized its own in place) with
    the Ritz coefficients s, against the ``deflate`` list the run saw
    (:func:`_lanczos_lowest`), and the sum is normalized.  The runs after
    it see h with that vector's level moved up to the first run's highest
    Ritz value plus ``scale`` (Hotelling deflation), so the next run finds
    the lowest level on the rest of the space.  The first run that lands
    above the tolerance, the gap witness, ends the search and builds no
    vector, so a g-fold level takes g + 1 runs and g reruns; its level is
    returned last.  ``matvecs`` counts the products of both.
    """
    dtype = np.result_type(h.dtype, np.float64)
    tol = 1e-11 * scale
    levels, deflate, matvecs = [], [], 0
    while len(deflate) < dim:
        r = len(levels)
        run = _lanczos_lowest(h, _start_vector(r, dim).astype(dtype, copy=False), deflate, tol)
        matvecs += run.steps
        level = run.theta
        levels.append(level)
        if level < levels[0] - level_tol:   # the first run missed the ground level
            raise ConvergenceError(f"Lanczos run {len(levels)} found {level:g} "
                                   f"below E0 = {levels[0]:g}")
        if level - levels[0] > level_tol:
            break
        if not deflate:   # the highest Ritz value, the lowest of -T, plus scale
            ceiling = -_tridiagonal_lowest([-a for a in run.alpha], run.beta)[0] + scale
        vector = _lanczos_lowest(h, _start_vector(r, dim).astype(dtype, copy=False),
                                 deflate, tol, run.s)
        vector /= np.sqrt(_dot(vector, vector).real)
        matvecs += run.steps - 1
        deflate.append((vector, ceiling - level))
    return levels, [u for u, _ in deflate], matvecs


def _entry_values(h) -> list:
    """Arrays holding every entry value of ``h`` and nothing else: the
    :meth:`SectorOperator.values` of a sector operator, else ``[h.data]``
    (a scipy sparse matrix)."""
    return h.values() if isinstance(h, SectorOperator) else [h.data]


def max_abs_entry(values: np.ndarray) -> float:
    """max |entry| of ``values``, 0.0 when there is none, and nan or inf
    when an entry is not finite.  Real entries are read by a max and a min
    reduction, so no array as long as ``values`` is made; complex ones
    through ``np.abs``."""
    if np.iscomplexobj(values):
        return float(np.abs(values).max(initial=0.0))
    return float(np.maximum(values.max(initial=0.0), -values.min(initial=0.0)))


def ground_state(h, space: FockSpace) -> GroundStateResult:
    """Lowest eigenpair of a Hamiltonian on the sector basis.

    ``h`` is a :class:`SectorOperator` or anything else with ``shape``,
    ``data``, ``toarray``, ``real`` and ``@`` on a vector (a scipy sparse
    matrix), square with the sector dimension and finite in every entry
    (ValueError otherwise, before any solve).  It is solved in real
    arithmetic whenever its imaginary part is exactly zero.  Dense
    diagonalization of ``h.toarray()`` up to dimension 512; above, numpy
    Lanczos on ``h @ x`` (:func:`_lanczos`), run r started from the
    SplitMix64 hash vector :func:`_start_vector` (no ``numpy.random``):
    reruns are byte-stable, and the start overlaps ground states that a
    symmetry makes orthogonal to the uniform vector.  Levels within ``DEGENERACY_TOL`` *
    scale of E0 are returned as the full multiplet.  ``k`` records the
    Lanczos runs (the multiplicity plus one, or the sector dimension on the
    dense path) and ``matvecs`` their H-vector products, those of the
    reruns that build the multiplet's vectors included (steps - 1 per
    level).  The scale of H, its largest |entry| (at least 1), and the
    finiteness check are read by :func:`max_abs_entry`, and the real-part
    test by ``.imag``, on every entry: a sector operator's hopping data and
    B's entries (:func:`_entry_values`), without writing B's copies out.
    ConvergenceError
    unless the residual ||Hv - E v|| of every returned pair is at most
    1e-10 * scale(H).
    """
    dim = space.sector_dimension
    if h.shape != (dim, dim):
        raise ValueError(f"operator of shape {h.shape} is not on the sector basis "
                         f"of dimension {dim}")
    dense = dim <= 512
    hs = h.toarray() if dense else h
    values = [hs] if dense else _entry_values(hs)
    largest = max(max_abs_entry(v) for v in values)
    if not isfinite(largest):
        raise ValueError("operator has a non-finite entry")
    if (any(np.iscomplexobj(v) for v in values)
            and not any(np.iscomplexobj(v) and v.imag.any() for v in values)):
        hs = hs.real
    scale = max(largest, 1.0)
    level_tol = DEGENERACY_TOL * scale
    matvecs = 0
    if dense:
        k = dim
        evals, evecs = np.linalg.eigh(hs)
        evecs = list(evecs.T)
    else:
        evals, evecs, matvecs = _lanczos(hs, dim, scale, level_tol)
        k = len(evals)
    e0 = float(evals[0])
    members = [j for j in range(len(evecs)) if evals[j] - e0 <= level_tol]
    vectors = []
    residual0 = None
    for j in members:
        v = evecs[j].copy()
        r = hs @ v - evals[j] * v
        res = float(np.sqrt(_dot(r, r).real))
        if res > 1e-10 * scale:
            raise ConvergenceError(f"eigenpair residual {res:g} above 1e-10*scale")
        if residual0 is None:
            residual0 = res
        vectors.append(v)
    return GroundStateResult(energy=e0, vectors=vectors, multiplicity=len(members),
                             residual=residual0, k=k, space=space, matvecs=matvecs)


WICK_ARGMAX_RTOL = 1e-9   # cumulants this close to the maximum, relative, tie for wick_argmax


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
    """(weights, boson rows X[row, boson index]) of a GroundStateResult or of
    a single vector, the rows running over the sorted sector fermion basis;
    ValueError for a vector not on the sector basis of ``space``."""
    if isinstance(state, GroundStateResult):
        n = state.multiplicity
        weights, vectors = [1.0 / n] * n, state.vectors
    else:
        state = np.asarray(state)
        if state.ndim != 1:
            raise TypeError("state must be a vector or GroundStateResult")
        weights, vectors = [1.0], [state.astype(complex)]
    for v in vectors:
        if v.shape != (space.sector_dimension,):
            raise ValueError(f"vector of shape {v.shape} is not on the sector basis "
                             f"of dimension {space.sector_dimension}")
    return weights, [v.reshape(-1, space.boson_dim) for v in vectors]


def correlators_and_wick(state, space: FockSpace) -> CorrelatorReport:
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
    (Kutzelnigg & Mukherjee, J. Chem. Phys. 110, 2800 (1999)), taken over
    the quadruples with i < j and k < l, which reach it; ``wick_argmax`` is
    the lexicographically first of those within ``WICK_ARGMAX_RTOL`` of it,
    relative: (0, 1, 0, 1) when the residual is exactly 0, and () with
    fewer than two fermion modes.  Quadruples a symmetry of the state maps
    onto each other carry the same cumulant up to rounding, so the
    tolerance makes the argmax a property of the state, not of the
    rounding (a state and its lattice translate report the same one).
    Boson matrices <d+ d>, <d+ d+> and the ladder-pair correlators apply
    each ladder along its pair's axis of the rows of the state.
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

    # the N-, (N-1)- and (N-2)-particle bases (all three every integer
    # when no sector is set) and the maps c_i between them
    number = space.sector
    states, once, twice = (_fermion_basis(nf, None if number is None else number - k)
                           for k in (0, 1, 2))
    first = [_annihilation_map(states, once, i) for i in range(nf)]
    second = [_annihilation_map(once, twice, i) for i in range(nf)]
    n_once, n_twice = len(once), len(twice)
    ladders = [(p, d) for p in range(len(space.pairs)) for d in space.pair_ladders.values()]

    for w, x in zip(weights, rows):
        # row i: c_i psi on the (N-1)-particle basis
        cvecs = np.array([_annihilate(ci, x, n_once).ravel()
                          for ci in first]).reshape(nf, n_once * n_b)
        c_mat += w * (cvecs.conj() @ cvecs.T)
        # row (a, b): c_a c_b psi on the (N-2)-particle basis
        pvecs = np.array([_annihilate(second[a], cvecs[b].reshape(n_once, n_b), n_twice).ravel()
                          for a, b in zip(pair_a, pair_b)]).reshape(n_pairs, n_twice * n_b)
        gram += w * (pvecs.conj() @ pvecs.T)
        # row m, mode m of space.boson_modes: d_m psi and d_m+ psi
        dvecs = np.array([_on_pair_axis(x, d, p) for p, d in ladders]).reshape(nb, x.size)
        ddagvecs = np.array([_on_pair_axis(x, d.T, p) for p, d in ladders]).reshape(nb, x.size)
        d_dag_d += w * (dvecs.conj() @ dvecs.T)
        d_dag_ddag += w * (dvecs.conj() @ ddagvecs.T)
    # q1 = Q1_X d_x + Q1_Z d_z and q2 = d_z of each pair
    mode = {m: i for i, m in enumerate(space.boson_modes)}
    q_corr = {}
    for cell in space.pairs:
        x, z = mode[cell, "x"], mode[cell, "z"]
        q_corr[cell] = {"q1dag_q2": Q1_X * d_dag_d[x, z] + Q1_Z * d_dag_d[z, z],
                        "q1dag_q2dag": Q1_X * d_dag_ddag[x, z] + Q1_Z * d_dag_ddag[z, z]}

    # for i < j and k < l, <c_i+ c_j+ c_k c_l> = -gram[(i, j), (k, l)]; every
    # other quadruple is 0 on both sides of the cumulant (a repeated index)
    # or an exact negation of one of these, so the block holds the maximum
    i, j = pair_a[:, None], pair_b[:, None]
    k, l = pair_a[None, :], pair_b[None, :]
    diff = np.abs(-gram - (c_mat[i, l] * c_mat[j, k] - c_mat[i, k] * c_mat[j, l]))
    residual, argmax = 0.0, ()
    if diff.size:   # np.argmax returns the first True in C (lexicographic) order
        residual = float(diff.max())
        p, q = np.unravel_index(np.argmax(diff >= residual * (1.0 - WICK_ARGMAX_RTOL)),
                                diff.shape)
        argmax = tuple(int(x) for x in (pair_a[p], pair_b[p], pair_a[q], pair_b[q]))
    return CorrelatorReport(c_matrix=c_mat, d_dag_d=d_dag_d, d_dag_ddag=d_dag_ddag,
                            q_corr=q_corr, wick_residual=residual,
                            wick_argmax=argmax)


def top_level_weight(state, space: FockSpace) -> float:
    """max over the boson modes m of the probability that n_m sits at the
    cut, the top occupation of ``space.pair_occupations`` (the truncation
    check of Zhang, Jeckelmann & White, PRL 80, 2661 (1998)); ``state`` is
    read as by :func:`correlators_and_wick`, a multiplet with weight 1/g per
    vector.  About one over the levels kept per mode when the weight is
    spread evenly over them; 0.0 with no boson modes."""
    weights, rows = _as_mixture(state, space)
    p = sum(w * (np.abs(x) ** 2).sum(axis=0) for w, x in zip(weights, rows))
    occ = space.pair_occupations
    top = occ == occ.max(axis=0)    # [pair digit, species]: the states at the cut
    on_top = top[space.pair_digits()].reshape(space.boson_dim, -1)   # [index, mode]
    return float((p[:, None] * on_top).sum(axis=0).max(initial=0.0))
