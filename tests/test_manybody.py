import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
import sympy as sp

import gravlat.manybody as manybody
from gravlat.continuum import hgr_quadratic_form, symplectic_frequencies
from gravlat.exceptions import ConvergenceError, DimensionCapError
from gravlat.geometry import ModelParams
from gravlat.lattice import CouplingField, LatticeSpec, build_tight_binding
from gravlat.manybody import (FockSpace, assemble_background_hopping,
                              assemble_simulator_hamiltonian,
                              assemble_target_hamiltonian,
                              correlators_and_wick, GroundStateResult,
                              boson_pairs, ground_state, mapping_residual,
                              operator_algebra)

from conftest import (boson_ladders, fermion_number, full_sector_mapping_residual,
                      full_space_background, full_space_correlators,
                      full_space_d, full_space_particle_hole,
                      full_space_simulator, full_space_target,
                      q_map_commutators, q_pair, sector_csr,
                      stacked_sort_on_sector, stored_basis_lanczos,
                      stored_basis_run, stored_basis_sum)


# ---------------------------------------------------------------------------
# operator algebra
# ---------------------------------------------------------------------------

def test_single_fermion_mode_anticommutator():
    ops = operator_algebra(FockSpace(1, (), 0))
    c = ops.c[0].toarray()
    np.testing.assert_array_equal(c, [[0, 1], [0, 0]])
    np.testing.assert_array_equal(c @ c.conj().T + c.conj().T @ c, np.eye(2))


def test_cross_mode_anticommutators_vanish_exactly():
    ops = operator_algebra(FockSpace(3, (), 0))
    for i in range(3):
        for j in range(3):
            anti = ops.c[i] @ ops.c[j] + ops.c[j] @ ops.c[i]
            assert abs(anti).max() == 0.0
            mixed = (ops.c[i] @ ops.c[j].getH() + ops.c[j].getH() @ ops.c[i]).toarray()
            np.testing.assert_array_equal(mixed, np.eye(8) * (i == j))


def test_boson_ladder_matrix_and_cutoff_defect():
    # d_x = kron(1, d): the x mode is the low digit, so its n_z = 0 block is d
    d = full_space_d(FockSpace(0, (0,), 3))[0].toarray()[:4, :4]
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2.0)
    expected[2, 3] = np.sqrt(3.0)
    np.testing.assert_allclose(d, expected, atol=1e-15)
    comm = d @ d.conj().T - d.conj().T @ d
    defect = comm - np.eye(4)
    # identity on |0..2>, defect -(n_max+1) localized on the top level
    np.testing.assert_allclose(defect[:3, :3], 0, atol=1e-14)
    assert defect[3, 3] == pytest.approx(-4.0)


def test_algebra_exhaustive_on_mixed_space():
    space = FockSpace(3, (0,), 1)
    ops = operator_algebra(space)
    d = full_space_d(space)
    dim = space.dimension
    eye = sparse.identity(dim)
    for i, ci in enumerate(ops.c):
        for j, cj in enumerate(ops.c):
            assert abs(ci @ cj + cj @ ci).max() == 0.0
            anti = ci @ cj.getH() + cj.getH() @ ci - (eye if i == j else 0 * eye)
            assert abs(anti).max() < 1e-14
        for dm in d:
            assert abs(ci @ dm - dm @ ci).max() == 0.0  # sectors commute
    for m, dm in enumerate(d):
        for n, dn in enumerate(d):
            if m != n:
                assert abs(dm @ dn.getH() - dn.getH() @ dm).max() == 0.0


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        spec = LatticeSpec(2, 2)
        operator_algebra(FockSpace(8, boson_pairs(spec, "per_cell"), 3, nnz_cap=1000))


@pytest.mark.parametrize("nf", range(11))
def test_sector_fermion_states_match_bit_count_loop(nf):
    for sector in range(nf + 1):
        space = FockSpace(nf, (), 0, sector=sector)
        loop = [f for f in range(2 ** nf) if bin(f).count("1") == sector]
        states = space.sector_fermion_states()
        assert states.dtype == np.int64
        np.testing.assert_array_equal(states, loop)
        assert space.sector_dimension == len(loop)


def test_q_map_commutators_exact():
    k = q_map_commutators()
    assert k[0, 0] == 1 and k[1, 1] == 1
    assert k[0, 1] == sp.Rational(-1, 3)
    assert k[1, 0] == sp.Rational(-1, 3)


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------

PARAMS = ModelParams(G=1e-2, l=1.0, mu=1.0)
SPEC1 = LatticeSpec(1, 1)


def test_simulator_hermitian_exactly():
    space = FockSpace(2, boson_pairs(SPEC1, "per_cell"), 3)
    h = sector_csr(assemble_simulator_hamiltonian(PARAMS, SPEC1, space))
    assert h.dtype == np.float64
    assert abs(h - h.getH()).max() == 0.0


def test_target_hermitian_exactly():
    space = FockSpace(2, boson_pairs(SPEC1, "per_cell"), 3)
    h = sector_csr(assemble_target_hamiltonian(PARAMS, SPEC1, space))
    assert h.dtype == np.float64
    assert abs(h - h.getH()).max() == 0.0


def test_background_hermitian_exactly():
    spec = LatticeSpec(2, 1)
    space = FockSpace(spec.n_modes, boson_pairs(spec, "per_cell"), 1)
    h = sector_csr(assemble_background_hopping(PARAMS.l, spec, space))
    assert h.dtype == np.float64
    assert abs(h - h.getH()).max() == 0.0


def _canonical(h):
    h = sparse.csr_matrix(h).copy()
    h.sort_indices()
    return h


_ORACLE_SPACES = [
    (2, "per_cell", 2),   # a_0 -> b_0 hops cross a_1: the JW signs matter
    (1, "per_cell", 1),
    (2, "cell0", None),   # no sector: the sector basis is the full space
    # the pairs out of cell order: cell 0 is served by modes 2 and 3
    pytest.param(2, (1, 0), 2, id="2-reversed-2"),
    (2, "uniform", 2),    # one pair shared by both cells
]


def _oracle_space(ncx, placement, sector):
    spec = LatticeSpec(ncx, 1)
    cells = boson_pairs(spec, placement) if isinstance(placement, str) else placement
    return spec, FockSpace(spec.n_modes, cells, 2, sector=sector)


@pytest.mark.parametrize("ncx,placement,sector", _ORACLE_SPACES)
def test_sector_assembly_matches_full_space_oracle(ncx, placement, sector):
    spec, space = _oracle_space(ncx, placement, sector)
    ops = operator_algebra(space)
    idx = space.sector_indices()
    pairs = [
        (assemble_simulator_hamiltonian(PARAMS, spec, space, ops),
         full_space_simulator(PARAMS, spec, space, ops)),
        (assemble_target_hamiltonian(PARAMS, spec, space),
         full_space_target(PARAMS, spec, space, ops)),
        (assemble_background_hopping(PARAMS.l, spec, space),
         full_space_background(PARAMS.l, spec, space, ops)),
    ]
    for h, oracle in pairs:
        h, ref = sector_csr(h), _canonical(oracle.tocsr()[idx][:, idx])
        assert h.shape == (space.sector_dimension,) * 2
        np.testing.assert_array_equal(h.indptr, ref.indptr)
        np.testing.assert_array_equal(h.indices, ref.indices)
        np.testing.assert_array_equal(h.data, ref.data)
    if spec.n_modes > 2:  # hops cross occupied modes: the JW signs take both values
        hop = pairs[2][0].data
        assert (hop > 0).any() and (hop < 0).any()
    # the window block and the boson observables read the same boson digits
    oracle = full_sector_mapping_residual(pairs[0][0], pairs[1][0], space, 1)
    assert mapping_residual(PARAMS, spec, space, 1) == oracle
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(space.sector_dimension) + 1j * rng.standard_normal(
        space.sector_dimension)
    psi /= np.linalg.norm(psi)
    rep, want = correlators_and_wick(psi, space), full_space_correlators(psi, space, ops)
    for field in ("d_dag_d", "d_dag_ddag"):
        assert np.abs(getattr(rep, field) - getattr(want, field)).max() <= 1e-12
    assert rep.q_corr.keys() == want.q_corr.keys()
    for cell, qc in rep.q_corr.items():
        for key, value in qc.items():
            assert abs(value - want.q_corr[cell][key]) <= 1e-12


def _tables(space):
    """The simulator, target and background tables on ``space``, and a
    complex Hermitian one."""
    j0 = 2.0 / (3.0 * PARAMS.l)
    dx = space.pair_ladders["x"]
    return (manybody._simulator_terms(PARAMS, space.pair_ladders),
            manybody._target_terms(PARAMS, space.pair_ladders),
            ({"x": (j0, None), "z": (j0, None)}, ()),
            # V = i (d - d+) and B = i (d+ - d) are Hermitian, complex data
            ({"x": (j0, 1e-2j * (dx - dx.T)), "z": (j0, None)}, (1e-3j * (dx.T - dx),)))


def _assert_scatter_is_the_stacked_sort(spec, space):
    """The materialized data, columns and row starts, dtypes included, are
    the stacked-sort oracle's for the simulator, target, background and a
    complex Hermitian table, so the order inside a row is pinned too, not
    only the entries.  The counts and values read from the stored parts are
    the materialized ones."""
    for table in _tables(space):
        stored = manybody._on_sector(spec, space, table)
        h = stored.materialized()
        ref = stacked_sort_on_sector(spec, space, table)
        assert h.shape == ref.shape
        for got, want in ((h.data, ref.data), (h.cols, ref.cols), (h.indptr, ref.indptr)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert stored.nnz == h.nnz and stored.dtype == h.dtype
        np.testing.assert_array_equal(stored.row_lengths(), np.diff(ref.indptr))
        assert (max(map(manybody.max_abs_entry, stored.values()))
                == manybody.max_abs_entry(ref.data))
        assert (any(v.imag.any() for v in stored.values() if np.iscomplexobj(v))
                == bool(ref.data.imag.any()))
    assert h.data.dtype == np.complex128


@pytest.mark.parametrize("ncx,placement,sector", _ORACLE_SPACES)
def test_sector_assembly_is_the_stacked_sort_entry_for_entry(ncx, placement, sector):
    _assert_scatter_is_the_stacked_sort(*_oracle_space(ncx, placement, sector))


@pytest.mark.parametrize("placement", ["cell0", "per_cell", "uniform"])
@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_factored_product_is_the_materialized_one(placement, n_max):
    # B applied on each pair's axis against the dense matrix of the
    # materialized entries, which the stacked-sort test above pins
    spec = LatticeSpec(2, 1)
    space = FockSpace(spec.n_modes, boson_pairs(spec, placement), n_max, sector=1)
    rng = np.random.default_rng(n_max)
    x = rng.standard_normal(space.sector_dimension)
    z = x + 1j * rng.standard_normal(space.sector_dimension)
    for table in _tables(space):
        h = manybody._on_sector(spec, space, table)
        dense = h.toarray()
        for v in (x, z):
            y = h @ v
            want = dense @ v
            assert y.dtype == want.dtype
            bound = 1e-13 * (np.abs(dense) @ np.abs(v)).max()
            np.testing.assert_allclose(y, want, rtol=0, atol=bound)


@pytest.mark.parametrize("config,nnz", [
    # (b): 3x1, one pair per cell, n_max 2, sector 3 (dimension 14 580)
    ("command = correlators\n[lattice]\nncx = 3\nncy = 1\n[truncation]\nn_max = 2\n"
     "[manybody]\nplacement = per_cell\n", 395_604),
    # (d): 4x2, one pair on cell 0, n_max 1, sector 8 (dimension 51 480)
    ("command = ground-state\n[lattice]\nncx = 4\nncy = 2\n[truncation]\nn_max = 1\n"
     "nnz_cap = 8388608\n[manybody]\nplacement = cell0\n", 947_232),
])
def test_sector_operator_nnz_is_the_csr_count(config, nnz):
    """nnz counts unique nonzero entries, so it is the CSR count the tracer
    reports as ``manybody.h_nnz`` (the values of the ED configs (b), (d))."""
    from gravlat.cli import parse_config
    cfg = parse_config(config)
    h = assemble_simulator_hamiltonian(cfg.params, cfg.lattice, cfg.fock_space())
    assert h.nnz == nnz
    assert sector_csr(h).nnz == nnz


@pytest.mark.parametrize("ncx,ncy,placement,n_max", [
    (3, 1, "per_cell", 1),   # (b)-shaped: a pair on every cell
    (2, 2, "cell0", 1),      # (d)-shaped: one pair, two rows of cells
])
def test_sector_operator_dense_and_csr_forms_agree(ncx, ncy, placement, n_max):
    spec = LatticeSpec(ncx, ncy)
    space = FockSpace(spec.n_modes, boson_pairs(spec, placement), n_max,
                      sector=spec.n_modes // 2)
    for h in (assemble_simulator_hamiltonian(PARAMS, spec, space),
              assemble_target_hamiltonian(PARAMS, spec, space)):
        assert h.shape == (space.sector_dimension,) * 2
        np.testing.assert_array_equal(h.toarray(), sector_csr(h).toarray())


def test_assembly_rejects_operators_of_another_space():
    space = FockSpace(2, boson_pairs(SPEC1, "per_cell"), 2, sector=1)
    ops = operator_algebra(replace(space, n_max=1))
    with pytest.raises(ValueError, match="another space"):
        assemble_simulator_hamiltonian(PARAMS, SPEC1, space, ops)


@pytest.mark.parametrize("modes,match", [
    ((5,), "outside"),   # 1x1 has no cell 5
    ((0, 5), "outside"),
])
def test_boson_modes_are_checked_against_the_lattice(modes, match):
    space = FockSpace(2, modes, 1, sector=1)
    for build in (lambda: assemble_simulator_hamiltonian(PARAMS, SPEC1, space),
                  lambda: assemble_target_hamiltonian(PARAMS, SPEC1, space),
                  lambda: assemble_background_hopping(PARAMS.l, SPEC1, space),
                  lambda: mapping_residual(PARAMS, SPEC1, space, window=1)):
        with pytest.raises(ValueError, match=match):
            build()


@pytest.mark.parametrize("pairs,match", [
    # the second copy would only multiply every level
    pytest.param((0, 0), "repeat a cell", id="repeated"),
    # the shared pair would serve cell 0 first
    pytest.param((None, 0), "shared pair", id="shared"),
])
def test_fock_space_rejects_a_pair_no_term_would_use(pairs, match):
    with pytest.raises(ValueError, match=match):
        FockSpace(2, pairs, 1)


@pytest.mark.parametrize("pairs", [[None], [0, 1], [1]], ids=["shared", "per_cell", "cell1"])
def test_a_list_of_pairs_is_the_tuple_of_pairs(pairs):
    """A list once failed the ``pairs == (None,)`` test, so the shared pair
    served no bond (2x1 at G = 1e-2: E0 -2.29908 instead of -2.34169)."""
    spec = LatticeSpec(2, 1)
    listed = FockSpace(4, pairs, 2, sector=2)
    tupled = FockSpace(4, tuple(pairs), 2, sector=2)
    assert listed.pairs == tuple(pairs)
    assert listed == tupled and hash(listed) == hash(tupled)
    for build in (assemble_simulator_hamiltonian, assemble_target_hamiltonian):
        np.testing.assert_array_equal(build(PARAMS, spec, listed).toarray(),
                                      build(PARAMS, spec, tupled).toarray())
    if pairs == [None]:
        h = assemble_simulator_hamiltonian(PARAMS, spec, listed)
        assert ground_state(h, listed).energy == pytest.approx(-2.341692597737355, abs=1e-9)


@pytest.mark.parametrize("n_max", [0, 1, 2])
@pytest.mark.parametrize("ncx,ncy", [(2, 1), (2, 2)])
@pytest.mark.parametrize("placement", ["per_cell", "uniform", "cell0"])
def test_pair_digits_are_the_per_mode_digits(ncx, ncy, placement, n_max):
    """Pair p's digit is n_x + (n_max + 1) n_z of its modes 2p and 2p + 1 in
    the per-mode layout (mode m at stride (n_max + 1)^m), and the tables
    read off the pair digits equal the per-mode ones."""
    spec = LatticeSpec(ncx, ncy)
    space = FockSpace(spec.n_modes, boson_pairs(spec, placement), n_max)
    base = n_max + 1
    per_mode = np.arange(space.boson_dim)[:, None] // base ** np.arange(space.n_boson_modes) % base
    digits = space.pair_digits()
    assert space.pair_dim == base ** 2
    assert digits.shape == (space.boson_dim, len(space.pairs))
    np.testing.assert_array_equal(digits, per_mode[:, 0::2] + base * per_mode[:, 1::2])
    occupations = space.pair_occupations[digits].reshape(space.boson_dim, -1)
    np.testing.assert_array_equal(occupations, per_mode)
    np.testing.assert_array_equal(space.boson_occupation_table(), per_mode.sum(axis=1))
    # each pair-local ladder embedded on its pair is the per-mode kron chain
    ladders = full_space_d(FockSpace(0, space.pairs, n_max))
    for p in range(len(space.pairs)):
        for s, d in enumerate(space.pair_ladders.values()):
            rows, cols, data = manybody._embed(space, d, p)
            embedded = sparse.csr_matrix((data, (rows, cols)),
                                         shape=(space.boson_dim,) * 2)
            assert (embedded != ladders[2 * p + s]).nnz == 0


@pytest.mark.parametrize("n_max", [0, 1, 3])
def test_the_space_owns_one_read_only_pair_basis(n_max):
    """The pair's occupations and ladders are built once per space, in mode
    order, read-only, and equal the one-pair kron chains of the oracle; a
    space with another n_max gets its own."""
    space = FockSpace(2, (None,), n_max)
    assert space.pair_ladders is space.pair_ladders
    assert space.pair_occupations is space.pair_occupations
    assert list(space.pair_ladders) == [s for _, s in space.boson_modes]
    assert space.pair_dim == len(space.pair_occupations) == (n_max + 1) ** 2
    for d, oracle in zip(space.pair_ladders.values(), boson_ladders(space)):
        np.testing.assert_array_equal(d, oracle.toarray())
        with pytest.raises(ValueError, match="read-only"):
            d[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        space.pair_occupations[0, 0] = 1
    wider = replace(space, n_max=n_max + 1)
    assert wider.pair_dim == (n_max + 2) ** 2 and space.pair_dim == (n_max + 1) ** 2


@pytest.mark.parametrize("placement", ["per_cell", "uniform"])
def test_pair_local_matrix_may_hold_several_entries_per_row(placement, rng):
    """q1 = Q1_X d_x + Q1_Z d_z has two entries in a row; applied along its
    pair's axis of the sector rows it is the full-space q1 of the oracle."""
    spec = LatticeSpec(2, 1)
    space = FockSpace(spec.n_modes, boson_pairs(spec, placement), 2, sector=2)
    q1 = manybody.Q1_X * space.pair_ladders["x"] + manybody.Q1_Z * space.pair_ladders["z"]
    assert np.count_nonzero(q1, axis=1).max() == 2
    psi = rng.standard_normal(space.sector_dimension) + 1j * rng.standard_normal(
        space.sector_dimension)
    idx = space.sector_indices()
    full = np.zeros(space.dimension, dtype=complex)
    full[idx] = psi
    d = full_space_d(space)
    for p, cell in enumerate(space.pairs):
        got = manybody._on_pair_axis(psi.reshape(-1, space.boson_dim), q1, p)
        np.testing.assert_allclose(got.ravel(), (q_pair(d, space, cell)[0] @ full)[idx],
                                   rtol=0, atol=1e-14)


def test_boson_pairs_accepts_exactly_the_config_placements():
    spec = LatticeSpec(2, 1)
    assert boson_pairs(spec, "per_cell") == (0, 1)
    assert boson_pairs(spec, "uniform") == (None,)
    assert boson_pairs(spec, "cell0") == (0,)
    with pytest.raises(ValueError, match="unknown placement") as err:
        boson_pairs(spec, "per_bond")
    assert str(err.value).split("one of ", 1)[1] == "per_cell, uniform, cell0"


@pytest.mark.parametrize("ncx,ncy", [(2, 1), (2, 2)])
@pytest.mark.parametrize("placement", ["per_cell", "uniform", "cell0"])
def test_fock_space_boson_modes_are_the_per_mode_tuple(ncx, ncy, placement):
    """The derived per-mode tuple, x then z on each pair, is the one the
    ``ground_state.csv`` header and the ``d_correlators.csv`` indices show."""
    spec = LatticeSpec(ncx, ncy)
    cells = {"per_cell": range(spec.n_cells), "uniform": (None,), "cell0": (0,)}[placement]
    space = FockSpace(spec.n_modes, boson_pairs(spec, placement), 1)
    assert space.boson_modes == tuple((c, s) for c in cells for s in ("x", "z"))
    assert space.n_boson_modes == len(space.boson_modes)
    for m, (cell, species) in enumerate(space.boson_modes):
        assert 2 * space.pair_of(cell) + "xz".index(species) == m


def test_boson_vacuum_projection_is_background_hopping():
    # projecting onto the boson vacuum leaves the uniform background
    # hopping (J = 2/(3l) on every bond) plus a constant shift
    space = FockSpace(2, boson_pairs(SPEC1, "per_cell"), 3)
    h = assemble_simulator_hamiltonian(PARAMS, SPEC1, space).toarray()
    bdim = space.boson_dim
    block = h[0::bdim, :][:, 0::bdim]  # boson vacuum sits at boson index 0
    shift = block[0, 0]
    free = assemble_background_hopping(PARAMS.l, SPEC1,
                                       FockSpace(2, (), 0)).toarray()
    np.testing.assert_allclose(block - shift * np.eye(4), free, atol=1e-12)
    # consistency of the single-particle picture: (a, b) couple with 3 J
    tb = build_tight_binding(CouplingField.uniform(2 / 3, 2 / 3, 2 / 3), SPEC1)
    assert np.abs(np.sort(np.linalg.eigvalsh(tb)) - [-2.0, 2.0]).max() < 1e-12
    assert np.abs(np.linalg.eigvalsh(block - shift * np.eye(4))
                  - np.array([-2.0, 0.0, 0.0, 2.0])).max() < 1e-12


def test_trivial_truncation_reduces_to_background():
    # n_max = 0: no fluctuations representable, pure hopping plus a constant
    space = FockSpace(2, boson_pairs(SPEC1, "per_cell"), 0)
    h = assemble_simulator_hamiltonian(PARAMS, SPEC1, space).toarray()
    shift = h[0, 0]
    free = assemble_background_hopping(PARAMS.l, SPEC1,
                                       FockSpace(2, (), 0)).toarray()
    np.testing.assert_allclose(h - shift * np.eye(4), free, atol=1e-12)


def test_fermion_number_conserved():
    space = FockSpace(2, boson_pairs(SPEC1, "per_cell"), 2)
    ops = operator_algebra(space)
    n_op = fermion_number(ops)
    for h in (sector_csr(assemble_simulator_hamiltonian(PARAMS, SPEC1, space)),
              sector_csr(assemble_target_hamiltonian(PARAMS, SPEC1, space))):
        assert abs(h @ n_op - n_op @ h).max() < 1e-12


def test_hopping_sectors_of_sim_and_target_coincide():
    """The condensate-linearized couplings and the dictionary-linearized
    ladder couplings are the same operators, so the whole mapping defect
    lives in the boson sector."""
    space = FockSpace(2, boson_pairs(SPEC1, "per_cell"), 2)
    ops = operator_algebra(space)
    h_sim = sector_csr(assemble_simulator_hamiltonian(PARAMS, SPEC1, space))
    h_tgt = sector_csr(assemble_target_hamiltonian(PARAMS, SPEC1, space))
    diff = (h_sim - h_tgt).toarray()
    # the difference must commute with every fermion mode occupation, i.e.
    # act on the boson factor only
    for ci in ops.c:
        n_i = (ci.getH() @ ci).toarray()
        assert np.abs(diff @ n_i - n_i @ diff).max() < 1e-12


def test_momentum_line_sector_matches_exactly():
    # coefficients sqrt2/(24 pi G) and 1/(48 pi G) agree exactly between the
    # shifted-mode product and the ladder-pair product
    space = FockSpace(0, (0,), 3)
    d = full_space_d(space)
    dx, dz = d
    abar_x = dx.getH() - dx
    abar_z = dz.getH() - dz
    line_sim = (1 / (24 * np.pi * PARAMS.G)) * (abar_z @ (np.sqrt(2) * abar_x - 0.5 * abar_z))
    q1, q2 = q_pair(d, space, 0)
    line_tgt = (1 / (16 * np.pi * PARAMS.G)) * ((q1.getH() - q1) @ (q2.getH() - q2))
    assert abs(line_sim - line_tgt).max() < 1e-12


def test_target_boson_block_frequencies_shifted_by_noncanonical_pair():
    """The ladder substitution is not canonical ([q1, q2+] = -1/3), so the
    realized boson sector oscillates at (2/3) mu and (4/3) mu instead of mu.
    The symplectic oracle of the substituted quadratic form pins this."""
    mu = 1.3
    p = ModelParams(G=5e-3, l=1.0, mu=mu)
    # quadratic form over (x_x, x_z, p_x, p_z) after substituting the pair
    s_pattern = np.array([[0.0, -np.sqrt(2.0)], [-np.sqrt(2.0), 1.0]])
    q = np.zeros((4, 4))
    q[:2, :2] = (16 * np.pi * p.G * mu ** 2 / 3) * s_pattern
    q[2:, 2:] = (1 / (12 * np.pi * p.G)) * s_pattern
    freqs = symplectic_frequencies(q)
    np.testing.assert_allclose(freqs, [2 * mu / 3, 4 * mu / 3], rtol=1e-10)
    # the canonical pair would give (mu, mu); the shift is the documented
    # consequence of the -1/3 cross commutator
    assert abs(freqs[0] - mu) > 0.3 * mu


def test_target_boson_block_matches_quadratic_form_matrix():
    # the ladder operator assembled from the pair substitution equals the
    # oscillator-variable quadratic form with the same matrix
    p = ModelParams(G=5e-3, l=1.0, mu=1.3)
    space = FockSpace(0, (0,), 6)
    d = full_space_d(space)
    q1, q2 = q_pair(d, space, 0)
    form = hgr_quadratic_form(p)
    h_q = (form.q_minus_coeff * ((q1.getH() - q1) @ (q2.getH() - q2))
           + form.q_plus_coeff * ((q1.getH() + q1) @ (q2.getH() + q2)))
    dx, dz = d
    xs = [(dx + dx.getH()) / np.sqrt(2), (dz + dz.getH()) / np.sqrt(2)]
    ps = [1j * (dx.getH() - dx) / np.sqrt(2), 1j * (dz.getH() - dz) / np.sqrt(2)]
    s_pattern = np.array([[0.0, -np.sqrt(2.0)], [-np.sqrt(2.0), 1.0]])
    bmat = (16 * np.pi * p.G * p.mu ** 2 / 3) * s_pattern
    amat = (1 / (12 * np.pi * p.G)) * s_pattern
    h_xp = sparse.csr_matrix((space.dimension, space.dimension), dtype=complex)
    for a in range(2):
        for b in range(2):
            h_xp = h_xp + 0.5 * bmat[a, b] * (xs[a] @ xs[b]) \
                + 0.5 * amat[a, b] * (ps[a] @ ps[b])
    assert abs(h_q - h_xp).max() < 1e-10


# ---------------------------------------------------------------------------
# vertex tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g,l", [(1e-3, 1.0), (3e-3, 1.0), (1e-2, 0.7), (2e-2, 1.3)])
@pytest.mark.parametrize("n_max", [1, 3])
def test_vertex_single_quantum_amplitudes_are_the_closed_form(g, l, n_max):
    """With slope = 4 sqrt2 pi G / l^2, the target's x bond is
    -(sqrt2/3) slope X_x and its z bond -(2/3) slope X_z, X_s = d_s + d_s+;
    the simulator's Delta_s D_s X_s is the same, and both have
    J0 = 2/(3 l).  V[one s quantum, vacuum] is the amplitude on X_s."""
    p = ModelParams(G=g, l=l, mu=1.0)
    slope = 4.0 * np.sqrt(2.0) * np.pi * g / l ** 2
    space = FockSpace(0, (None,), n_max)
    occ = space.pair_occupations
    one = {s: int(np.flatnonzero((occ == unit).all(axis=1))[0])   # the pair digit of 1_s
           for s, unit in zip("xz", np.eye(2, dtype=int))}
    assert one == {"x": 1, "z": n_max + 1}   # n_x + (n_max + 1) n_z
    closed = {"x": -(np.sqrt(2.0) / 3.0) * slope, "z": -(2.0 / 3.0) * slope}
    target, _ = manybody._target_terms(p, space.pair_ladders)
    simulator, _ = manybody._simulator_terms(p, space.pair_ladders)
    for species in "xz":
        assert target[species][0] == 2.0 / (3.0 * l)
        assert simulator[species][0] == pytest.approx(2.0 / (3.0 * l), rel=1e-15)
        for vertex in (target, simulator):
            v = vertex[species][1]
            assert v[one[species], 0] == pytest.approx(closed[species], rel=1e-15)
            np.testing.assert_array_equal(v, v.T)
    # the x bond's X_z amplitude is -slope (Q1_Z / 2 + 1/6): zero up to rounding
    assert abs(target["x"][1][one["z"], 0]) <= 1e-15 * slope
    assert target["z"][1][one["x"], 0] == 0.0
    assert simulator["x"][1][one["z"], 0] == simulator["z"][1][one["x"], 0] == 0.0


def test_background_table_is_j0_with_no_vertex(monkeypatch):
    tables = []
    monkeypatch.setattr(manybody, "_on_sector",
                        lambda spec, space, table: tables.append(table))
    assemble_background_hopping(0.7, SPEC1, FockSpace(2, boson_pairs(SPEC1, "per_cell"), 2))
    j0 = 2.0 / (3.0 * 0.7)
    assert tables == [({"x": (j0, None), "z": (j0, None)}, ())]


# ---------------------------------------------------------------------------
# mapping residual
# ---------------------------------------------------------------------------

def test_mapping_residual_window_guard():
    space = FockSpace(2, boson_pairs(SPEC1, "per_cell"), 2)
    with pytest.raises(ValueError):
        mapping_residual(PARAMS, SPEC1, space, window=3)


def test_mapping_residual_negative_window_is_value_error():
    space = FockSpace(2, boson_pairs(SPEC1, "per_cell"), 2)
    with pytest.raises(ValueError, match="negative"):
        mapping_residual(PARAMS, SPEC1, space, window=-1)


@pytest.mark.parametrize("ncx,placement,sector,n_max,window,g", [
    (1, "per_cell", 1, 2, 0, 1e-2),
    (1, "per_cell", 1, 2, 1, 1e-3),
    (1, "per_cell", None, 2, 2, 1e-2),
    (2, "per_cell", 2, 1, 1, 1e-3),
    (2, "uniform", 2, 2, 2, 1e-2),
    (2, "uniform", None, 2, 0, 1e-3),
    (2, "cell0", 2, 2, 1, 1e-2),
    (2, "cell0", None, 2, 2, 1e-3),
    (3, "per_cell", 3, 1, 1, 1e-2),
])
def test_window_mapping_residual_matches_the_full_sector_oracle(
        ncx, placement, sector, n_max, window, g):
    """Only the window block is assembled, and it is the block the oracle
    cuts from the full-sector Hamiltonians, so the residuals agree bit for
    bit."""
    spec = LatticeSpec(ncx, 1)
    p = ModelParams(G=g, l=1.0, mu=1.0)
    space = FockSpace(spec.n_modes, boson_pairs(spec, placement), n_max, sector=sector)
    oracle = full_sector_mapping_residual(
        assemble_simulator_hamiltonian(p, spec, space),
        assemble_target_hamiltonian(p, spec, space), space, window)
    assert mapping_residual(p, spec, space, window) == oracle


def test_window_block_is_the_slice_of_the_full_sector_hamiltonian():
    """The dense window block is the full-sector H's block, byte for byte
    (signed zeros included) and dtype included, for every table of
    ``_tables`` and every window 0..n_max, on one pair per cell, one pair
    on cell 0 and one shared pair, in one and two rows of cells."""
    for ncx, ncy, placement, sector in ((2, 1, "cell0", 2), (2, 1, "per_cell", 2),
                                        (2, 1, "uniform", 2), (1, 1, "per_cell", None),
                                        (2, 2, "cell0", 4), (2, 2, "uniform", 4)):
        spec = LatticeSpec(ncx, ncy)
        space = FockSpace(spec.n_modes, boson_pairs(spec, placement), 2, sector=sector)
        occupation = space.boson_occupation_table()
        n_states = len(space.sector_fermion_states())
        for table in _tables(space):
            full = manybody._on_sector(spec, space, table).toarray()
            for window in range(space.n_max + 1):
                kept = np.flatnonzero(occupation <= window)
                idx = (np.arange(n_states)[:, None] * space.boson_dim + kept).ravel()
                want = full[np.ix_(idx, idx)]
                block = manybody._window_block(spec, space, table, kept)
                assert block.dtype == want.dtype and block.shape == want.shape
                assert block.tobytes() == want.tobytes()


def test_mapping_residual_peak_is_bounded_in_window_blocks():
    # the simulator block and the target block are held together, the
    # target's subtracted in place; with the zero mask of the target's
    # writer that is 2.14 blocks of 630 x 630 float64 traced, bounded 10 %
    # above (eigvalsh's own copy is allocated outside the traced heap)
    spec = LatticeSpec(2, 2)
    space = FockSpace(spec.n_modes, boson_pairs(spec, "per_cell"), 1, sector=4)
    mapping_residual(PARAMS, spec, space, 1)   # builds the cached pair basis
    tracemalloc.start()
    try:
        mapping_residual(PARAMS, spec, space, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(space.sector_fermion_states()) * int((space.boson_occupation_table() <= 1).sum())
    assert n == 630
    assert peak < 2.36 * n * n * 8


@pytest.mark.parametrize("skew", [lambda dx: 1e-3 * dx, lambda dx: 1e-3j * (dx.T @ dx)],
                         ids=["off-diagonal", "diagonal"])
def test_non_hermitian_boson_term_is_rejected(monkeypatch, skew):
    """The hopping part is Hermitian by construction, so the boson factor is
    where the Hermiticity check looks: a skewed boson term must raise,
    whether it skews B's off-diagonal block (1e-3 d_x) or its diagonal
    (1e-3 i n_x)."""
    space = FockSpace(2, boson_pairs(SPEC1, "per_cell"), 2)
    real_terms = manybody._simulator_terms

    def skewed_terms(params, ladders):
        vertex, terms = real_terms(params, ladders)
        return vertex, terms + (skew(ladders["x"]),)

    monkeypatch.setattr(manybody, "_simulator_terms", skewed_terms)
    with pytest.raises(AssertionError, match="anti-Hermitian"):
        assemble_simulator_hamiltonian(PARAMS, SPEC1, space)
    with pytest.raises(AssertionError, match="anti-Hermitian"):
        mapping_residual(PARAMS, SPEC1, space, window=1)


def test_mapping_residual_quadratic_in_coupling():
    """Measured scaling regression: the residual falls like G^2 because the
    quartic-reduction defect operators (order 1/D ~ G) sit inside terms
    whose prefactors are themselves proportional to G mu^2.  The window
    keeps the restricted norms G-independent."""
    vals = {}
    for g in (1e-2, 1e-3):
        p = ModelParams(G=g, l=1.0, mu=1.0)
        space = FockSpace(2, boson_pairs(SPEC1, "per_cell"), 3)
        vals[g] = mapping_residual(p, SPEC1, space, window=2)
    ratio = vals[1e-2] / vals[1e-3]
    assert 80 < ratio < 120


def test_ground_energy_agreement_within_residual_bound():
    # eigenvalue perturbation: |E0_sim - E0_target - c*| <= residual
    p = ModelParams(G=1e-3, l=1.0, mu=1.0)
    space = FockSpace(2, boson_pairs(SPEC1, "per_cell"), 2, sector=1)
    h_sim = assemble_simulator_hamiltonian(p, SPEC1, space)
    h_tgt = assemble_target_hamiltonian(p, SPEC1, space)
    e_sim = ground_state(h_sim, space).energy
    e_tgt = ground_state(h_tgt, space).energy
    block = (sector_csr(h_sim) - sector_csr(h_tgt)).toarray()  # both are on the sector basis
    evals = np.linalg.eigvalsh(block)
    c_star = (evals[-1] + evals[0]) / 2
    r_full = (evals[-1] - evals[0]) / 2
    assert abs((e_sim - e_tgt) - c_star) <= r_full + 1e-12
    # and the windowed residual bounds it in practice at this size
    r_w2 = mapping_residual(p, SPEC1, space, window=2)
    assert abs((e_sim - e_tgt) - c_star) <= r_w2


@pytest.mark.parametrize("ncx, ncy, placement", [(2, 1, "per_cell"), (3, 1, "per_cell"),
                                                 (2, 1, "cell0"), (2, 2, "cell0")])
def test_the_particle_hole_symmetry_carries_a_sublattice_sign(ncx, ncy, placement):
    # W = prod_i (c_i + eps_i c_i+) acts on the fermions alone and commutes
    # exactly with both Hamiltonians; the boson parity (-1)^(N_b) with eps = 1
    # does not, since d -> -d flips the linear vertex
    spec = LatticeSpec(ncx, ncy)
    space = FockSpace(spec.n_modes, boson_pairs(spec, placement), 1)
    ops = operator_algebra(space)
    w = full_space_particle_hole(ops, spec)
    assert abs(w @ w - sparse.identity(space.dimension)).max() == 0.0
    parity = sparse.kron(sparse.identity(space.fermion_dim),
                         sparse.diags((-1.0) ** space.boson_occupation_table()))
    w_parity = parity @ full_space_particle_hole(ops, spec, sublattice_sign=False)
    for h in (full_space_simulator(PARAMS, spec, space, ops),
              full_space_target(PARAMS, spec, space, ops)):
        assert abs(w @ h - h @ w).max() == 0.0
        assert abs(w_parity @ h - h @ w_parity).max() > 1.0


# ---------------------------------------------------------------------------
# eigen machinery
# ---------------------------------------------------------------------------

def test_ground_state_free_fermion_oracle():
    spec = LatticeSpec(2, 2)
    space = FockSpace(spec.n_modes, (), 0, sector=spec.n_modes // 2)
    h = assemble_background_hopping(1.0, spec, space)
    gs = ground_state(h, space)
    single = build_tight_binding(CouplingField.uniform(2 / 3, 2 / 3, 2 / 3), spec)
    evals = np.linalg.eigvalsh(single)
    expected = evals[evals < 0].sum()
    assert gs.energy == pytest.approx(expected, abs=1e-10)


def test_ground_state_unit_couplings_single_fermion():
    # background j = 2/(3l) = 1 at l = 2/3: one fermion on one cell -> -3
    spec = LatticeSpec(1, 1)
    space = FockSpace(2, (), 0, sector=1)
    h = assemble_background_hopping(2 / 3, spec, space)
    assert ground_state(h, space).energy == pytest.approx(-3.0, abs=1e-12)


def test_ground_state_rejects_a_matrix_off_the_sector_basis():
    spec = LatticeSpec(1, 1)
    space = FockSpace(2, (), 0, sector=1)
    full = full_space_background(1.0, spec, space)
    assert full.shape == (4, 4) and space.sector_dimension == 2
    with pytest.raises(ValueError, match="sector basis"):
        ground_state(full, space)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("n_max", [1, 3], ids=["dense", "lanczos"])
def test_ground_state_rejects_a_non_finite_entry_before_any_solve(monkeypatch, value, n_max):
    spec = LatticeSpec(2, 1)
    space = FockSpace(4, boson_pairs(spec, "per_cell"), n_max, sector=2)
    h = assemble_simulator_hamiltonian(PARAMS, spec, space)
    assert (space.sector_dimension <= 512) == (n_max == 1)
    h.data[7] = value

    def forbidden(*args, **kwargs):
        raise RuntimeError("solver called")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(manybody, "_lanczos", forbidden)
    with pytest.raises(ValueError, match="non-finite"):
        ground_state(h, space)


def test_ground_state_identity_matrix():
    space = FockSpace(2, (), 0)
    eye = sparse.identity(space.dimension, format="csr")
    gs = ground_state(eye, space)
    assert gs.energy == pytest.approx(1.0)
    assert gs.multiplicity == space.dimension


def _banded_block(n, rng):
    """Tridiagonal block whose lowest level sits well below the rest."""
    diag = np.linspace(0.0, 4.0, n)
    diag[0] = -1.0
    off = 0.1 * rng.standard_normal(n - 1)
    return sparse.diags([off, diag, off], [-1, 0, 1], format="csr")


def _fold_matrix(fold):
    """Four identical 256-wide blocks, all but ``fold`` of them shifted up:
    the lowest level is ``fold``-fold."""
    block = _banded_block(256, np.random.default_rng(0))
    shifted = block + 0.5 * sparse.identity(256, format="csr")
    return sparse.block_diag([block] * fold + [shifted] * (4 - fold), format="csr")


@pytest.mark.parametrize("fold", [1, 2, 3])
def test_ground_state_lanczos_multiplicity(fold):
    # a uniform start vector would see the copies only in their symmetric
    # combination and report multiplicity 1
    h = _fold_matrix(fold)
    space = FockSpace(10, (), 0)
    assert space.dimension == 1024
    gs = ground_state(h, space)
    evals = np.linalg.eigvalsh(h.toarray())
    dense_count = int(np.sum(evals - evals[0] <= 1e-9 * abs(h).max()))
    assert dense_count == fold
    assert gs.multiplicity == dense_count
    assert gs.energy == pytest.approx(evals[0], abs=1e-10)
    assert gs.k > gs.multiplicity


def test_ground_state_lanczos_four_fold_level():
    # sixteen 64x64 blocks, four of them lowest: one locked level per run,
    # and the fifth run lands on the next level up
    block = _banded_block(64, np.random.default_rng(0))
    shifted = block + 0.5 * sparse.identity(64, format="csr")
    h = sparse.block_diag([block] * 4 + [shifted] * 12, format="csr")
    space = FockSpace(10, (), 0)
    gs = ground_state(h, space)
    evals = np.linalg.eigvalsh(h.toarray())
    assert gs.multiplicity == 4
    assert gs.k == 5
    assert gs.energy == pytest.approx(evals[0], abs=1e-10)
    gram = np.array([[v @ w for w in gs.vectors] for v in gs.vectors])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-9)


def test_ground_state_lanczos_positive_spectrum():
    # every level above 0: a locked vector must not come back as a level 0
    # of the deflated operator (projecting it out alone leaves exactly that)
    block = _banded_block(256, np.random.default_rng(0)) + 4.0 * sparse.identity(256)
    h = sparse.block_diag([block] * 2 + [block + 0.5 * sparse.identity(256)] * 2,
                          format="csr")
    gs = ground_state(h, FockSpace(10, (), 0))
    evals = np.linalg.eigvalsh(h.toarray())
    assert evals[0] > 2.0
    assert gs.multiplicity == 2 and gs.k == 3
    assert gs.energy == pytest.approx(evals[0], abs=1e-10)


def test_ground_state_lanczos_zero_ground_level():
    # the positive spectrum moved down so that E0 is 0 to rounding
    block = _banded_block(256, np.random.default_rng(0)) + 4.0 * sparse.identity(256)
    h = sparse.block_diag([block] * 2 + [block + 0.5 * sparse.identity(256)] * 2,
                          format="csr")
    h = (h - np.linalg.eigvalsh(h.toarray())[0] * sparse.identity(1024)).tocsr()
    gs = ground_state(h, FockSpace(10, (), 0))
    evals = np.linalg.eigvalsh(h.toarray())
    assert abs(evals[0]) < 1e-14
    assert gs.multiplicity == 2 and gs.k == 3
    assert gs.energy == pytest.approx(0.0, abs=1e-10)


def _lanczos_case(name):
    """(h, space, fold) of a Lanczos-path ground state: a ``fold``-fold
    block-diagonal matrix, or the simulator on the (c) job's sector."""
    if name == "c":
        spec, space = _ladder_space("c")
        return assemble_simulator_hamiltonian(PARAMS, spec, space), space, 1
    fold = int(name[-1])
    return _fold_matrix(fold), FockSpace(10, (), 0), fold


def _lanczos_args(h, space):
    scale = max(*map(manybody.max_abs_entry, manybody._entry_values(h)), 1.0)
    return h, space.sector_dimension, scale, manybody.DEGENERACY_TOL * scale


@pytest.mark.parametrize("name", ["fold-1", "fold-2", "fold-3", "c"])
def test_replayed_ritz_vectors_are_bitwise_the_stored_basis_ones(monkeypatch, name):
    h, space, fold = _lanczos_case(name)
    levels, vectors, _ = manybody._lanczos(*_lanczos_args(h, space))
    oracle_levels, oracle_vectors, _ = stored_basis_lanczos(*_lanczos_args(h, space))
    assert levels == oracle_levels and len(levels) == fold + 1
    assert len(vectors) == len(oracle_vectors) == fold
    for v, oracle in zip(vectors, oracle_vectors):
        np.testing.assert_array_equal(v, oracle)
    gs = ground_state(h, space)
    monkeypatch.setattr(manybody, "_lanczos", stored_basis_lanczos)
    oracle = ground_state(h, space)
    assert (gs.energy, gs.multiplicity, gs.k, gs.residual) == (
        oracle.energy, oracle.multiplicity, oracle.k, oracle.residual)
    assert gs.multiplicity == fold
    for v, w in zip(gs.vectors, oracle.vectors):
        np.testing.assert_array_equal(v, w)


def test_start_vectors_are_the_splitmix64_streams():
    # run r's entry i is output i of SplitMix64 seeded with r (its first
    # output at seed 0 is 0xe220a8397b1dcdaf), top 53 bits in [-1/2, 1/2)
    mask = (1 << 64) - 1

    def splitmix64(seed, n):
        state, out = seed, []
        for _ in range(n):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    assert splitmix64(0, 1) == [0xE220A8397B1DCDAF]
    assert [v.hex() for v in manybody._start_vector(0, 3)] == [
        "0x1.8882a0e5ec772p-2", "-0x1.18761955e46a0p-4", "-0x1.e4ee8b9dffdb0p-2"]
    assert [v.hex() for v in manybody._start_vector(1, 3)] == [
        "0x1.10a2dec890258p-4", "0x1.f75c6d0b2c774p-3", "0x1.e24e8bbbecc94p-2"]
    for run in (0, 1, 7):
        v = manybody._start_vector(run, 1000)
        assert v.dtype == np.float64 and -0.5 <= v.min() and v.max() < 0.5
        assert v.tolist() == [(z >> 11) * 2.0 ** -53 - 0.5 for z in splitmix64(run, 1000)]
        np.testing.assert_array_equal(manybody._start_vector(run, 10), v[:10])


@pytest.mark.parametrize("imag", [1e-3, 0.0], ids=["complex", "real-valued"])
def test_the_real_arithmetic_switch_reads_the_boson_part(imag):
    # real hopping entries and a B whose only complex entries are i (d+ - d):
    # the solve stays complex unless B's imaginary part is exactly zero
    spec = LatticeSpec(3, 1)
    space = FockSpace(spec.n_modes, boson_pairs(spec, "per_cell"), 1, sector=3)
    j0 = 2.0 / (3.0 * PARAMS.l)
    dx = space.pair_ladders["x"]
    table = ({"x": (j0, 0.1 * (dx + dx.T)), "z": (j0, None)},
             (dx.T @ dx + 0j, imag * 1j * (dx.T - dx)))
    h = manybody._on_sector(spec, space, table)
    assert h.data.dtype == np.float64 and h.boson.dtype == np.complex128
    gs = ground_state(h, space)
    assert space.sector_dimension == 1280 and gs.matvecs > 0
    assert gs.vectors[0].dtype == (np.complex128 if imag else np.float64)
    dense = np.linalg.eigvalsh(h.toarray())
    assert gs.energy == pytest.approx(dense[0], rel=0, abs=1e-10)


class _CountedProducts:
    """An operator that counts its products with a vector."""

    def __init__(self, h):
        self.h, self.dtype, self.shape, self.products = h, h.dtype, h.shape, 0

    def __matmul__(self, x):
        self.products += 1
        return self.h @ x


@pytest.mark.parametrize("name", ["fold-1", "fold-2", "fold-3", "c"])
def test_only_the_multiplet_runs_are_replayed(monkeypatch, name):
    # each locked level reruns its run with its Ritz coefficients (steps - 1
    # products); the gap witness, the last run, builds no vector
    h, space, fold = _lanczos_case(name)
    steps, reruns, run_lowest = [], [], manybody._lanczos_lowest

    def recording(h, v, deflate, tol, coefficients=None):
        if coefficients is not None:
            reruns.append(len(coefficients))
            return run_lowest(h, v, deflate, tol, coefficients)
        run = run_lowest(h, v, deflate, tol)
        steps.append(run.steps)
        return run

    monkeypatch.setattr(manybody, "_lanczos_lowest", recording)
    counted = _CountedProducts(h)
    _, vectors, matvecs = manybody._lanczos(counted, *_lanczos_args(h, space)[1:])
    assert len(steps) == fold + 1 and len(vectors) == fold and steps[-1] > 1
    assert reruns == steps[:-1]
    assert counted.products == matvecs == sum(steps) + sum(n - 1 for n in steps[:-1])


@pytest.mark.parametrize("name", ["fold-2", "c"])
def test_a_rerun_sums_any_coefficients_over_the_stored_basis(name):
    # the second run sees the first one's locked level; any coefficient
    # list, not only the Ritz one, and any prefix of the run, gives the
    # stored basis's sum_j c_j v_j bit for bit
    h, space, _ = _lanczos_case(name)
    _, dim, scale, _ = _lanczos_args(h, space)
    levels, vectors, _ = manybody._lanczos(h, dim, scale, manybody.DEGENERACY_TOL * scale)
    deflate = [(vectors[0], 2.0 * scale)]
    tol = 1e-11 * scale
    basis = stored_basis_run(h, manybody._start_vector(1, dim), deflate, tol)[2]
    assert len(basis) > 8
    for coefficients in ([(-1) ** j / (j + 1) for j in range(len(basis))],
                         [0.5] * (len(basis) // 2)):
        got = manybody._lanczos_lowest(h, manybody._start_vector(1, dim), deflate, tol,
                                       coefficients)
        np.testing.assert_array_equal(got, stored_basis_sum(basis, coefficients))


def test_ground_state_holds_a_fixed_number_of_vectors():
    # besides H and one product's scratch, the solve holds the start vector,
    # two Lanczos vectors, the Ritz sum and one locked vector; a stored
    # basis would add one vector per step (over 100 here), and the scale
    # and finiteness checks no longer make an array as long as H's entries
    h, space, _ = _lanczos_case("c")
    x = np.ones(h.shape[0])
    ground_state(h, space)      # builds the cached row blocks and B's entries
    tracemalloc.start()
    try:
        h @ x
        product = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        gs = ground_state(h, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vector = h.shape[0] * 8
    assert gs.matvecs > 100 and h.nnz * 8 > 10 * vector
    # the Python-float coefficient lists take under 200 bytes per step
    assert peak <= product + 4 * vector + 512 * gs.matvecs


def _check_tridiagonal_lowest(alpha, beta):
    # the vector to 1e-12 where the gap to the next level pins it; next to a
    # near-degenerate level (the Lanczos gap-witness run has gaps down to
    # 3e-8) only to the Davis-Kahan bound residual / gap
    t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    evals, evecs = np.linalg.eigh(t)
    theta, s = manybody._tridiagonal_lowest(list(alpha), list(beta))
    scale = np.abs(t).max()
    gap = evals[1] - evals[0] if len(alpha) > 1 else np.inf
    assert s[0] > 0
    assert abs(theta - evals[0]) <= 1e-14 * scale
    assert np.abs(t @ s - theta * np.asarray(s)).max() <= 1e-14 * scale
    np.testing.assert_allclose(s, np.sign(evecs[0, 0]) * evecs[:, 0], rtol=0,
                               atol=max(1e-12, 1e-14 * scale / gap))


@pytest.mark.parametrize("m", [1, 2, 8, 31, 32, 128, 400])
def test_tridiagonal_lowest_matches_eigh(m):
    # the lowest level sits near -1, the rest of the diagonal in [0, 4]
    rng = np.random.default_rng(m)
    for _ in range(5):
        alpha = rng.uniform(0.0, 4.0, m)
        alpha[0] = -1.0
        _check_tridiagonal_lowest(alpha.tolist(), (0.1 * rng.standard_normal(m - 1)).tolist())


def test_tridiagonal_lowest_on_the_lanczos_tridiagonals(monkeypatch):
    seen = []
    solve = manybody._tridiagonal_lowest

    def recording(alpha, beta):
        seen.append((list(alpha), list(beta)))
        return solve(alpha, beta)

    spec = LatticeSpec(3, 1)
    space = FockSpace(spec.n_modes, boson_pairs(spec, "per_cell"), 1, sector=3)
    h = assemble_simulator_hamiltonian(PARAMS, spec, space)
    monkeypatch.setattr(manybody, "_tridiagonal_lowest", recording)
    ground_state(h, space)
    monkeypatch.undo()
    assert space.sector_dimension == 1280 and len(seen) > 4
    for alpha, beta in seen:
        _check_tridiagonal_lowest(alpha, beta)


class _CountedList(list):
    """A list that counts the passes over it."""
    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("alpha, beta", [([1.0, 1.0], [1.0]), ([0.0, 0.0, 0.0], [0.0, 0.0]),
                                         ([0.0], []), ([2.0, -1.0, 2.0], [1.0, 1.0])])
def test_tridiagonal_lowest_at_a_zero_level(alpha, beta):
    # a level at 0 (or T = 0): the bisection stops at a width of a few eps
    # times ||T|| in about 60 Sturm counts, not at adjacent floats near 0,
    # and a zero pivot neither divides by zero nor overflows the vector
    counted = _CountedList(alpha)
    theta, s = manybody._tridiagonal_lowest(counted, beta)
    assert counted.passes < 70
    t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    evals = np.linalg.eigvalsh(t)
    assert abs(theta - evals[0]) <= 1e-15 * max(np.abs(t).max(), 1.0)
    assert s[0] > 0 and np.isclose(np.linalg.norm(s), 1.0)
    np.testing.assert_allclose(t @ s, theta * np.asarray(s), rtol=0, atol=1e-14)


def test_ground_state_lanczos_calls_no_linalg(monkeypatch):
    # the Lanczos path calls none of np.linalg's eigh, eigvalsh and norm nor
    # np.dot and np.vdot: its dot products are numpy reductions and its
    # tridiagonal solve is scalar arithmetic.  The product's per-pair
    # matmul does call BLAS, on one thread under the CLI; the dense path
    # keeps eigh
    spec = LatticeSpec(3, 1)
    space = FockSpace(spec.n_modes, boson_pairs(spec, "per_cell"), 1, sector=3)
    h = assemble_simulator_hamiltonian(PARAMS, spec, space)
    small = FockSpace(spec.n_modes, (), 0, sector=3)
    h_small = assemble_background_hopping(1.0, spec, small)
    expected = ground_state(h, space)

    def forbidden(*args, **kwargs):
        raise RuntimeError("BLAS/LAPACK call")

    for name in ("eigh", "eigvalsh", "norm"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for name in ("dot", "vdot"):
        monkeypatch.setattr(np, name, forbidden)
    gs = ground_state(h, space)
    assert space.sector_dimension == 1280 and gs.matvecs > 0
    assert gs.energy == expected.energy
    with pytest.raises(RuntimeError, match="BLAS/LAPACK"):
        ground_state(h_small, small)


def test_ground_state_lanczos_on_a_sector_operator_with_complex_storage():
    spec = LatticeSpec(3, 1)
    space = FockSpace(spec.n_modes, boson_pairs(spec, "per_cell"), 1, sector=3)
    h = assemble_simulator_hamiltonian(PARAMS, spec, space)
    real = ground_state(h, space)
    cast = ground_state(replace(h, data=h.data.astype(complex)), space)
    assert space.sector_dimension == 1280 and real.k == 2 and real.matvecs > 0
    assert cast.vectors[0].dtype == np.float64
    assert cast.energy == real.energy
    np.testing.assert_array_equal(cast.vectors[0], real.vectors[0])
    assert real.residual <= 1e-11 * max(np.abs(v).max() for v in h.values())


def test_ground_state_lanczos_iteration_limit(monkeypatch):
    monkeypatch.setattr(manybody, "LANCZOS_MAXITER", 5)
    with pytest.raises(ConvergenceError, match="did not converge in 5 steps"):
        ground_state(_swap_block_matrix(), FockSpace(10, (), 0))


def test_sector_operator_matvec_with_empty_rows():
    # rows 0, 2 and 4 hold no entry; np.add.reduceat alone would return the
    # entry at the start of each of them instead of 0
    dense = np.zeros((5, 5))
    dense[1, [0, 3]] = [2.0, -1.0]
    dense[3, [1, 2, 4]] = [0.5, 3.0, -4.0]
    rows, cols = np.nonzero(dense)
    h = manybody.SectorOperator(dense[rows, cols], cols.astype(np.intp),
                                np.searchsorted(rows, np.arange(6)), (5, 5))
    np.testing.assert_array_equal(h.toarray(), dense)
    x = np.random.default_rng(3).standard_normal(5)
    np.testing.assert_allclose(h @ x, dense @ x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(h @ (1j * x), 1j * (dense @ x), rtol=0, atol=1e-15)
    empty = manybody.SectorOperator(np.zeros(0), np.zeros(0, dtype=np.intp),
                                    np.zeros(4, dtype=np.intp), (3, 3))
    np.testing.assert_array_equal(empty @ x[:3], np.zeros(3))


def _unblocked_product(h, x):
    """h @ x as one gather, multiply and ``np.add.reduceat`` over all entries."""
    filled = np.flatnonzero(np.diff(h.indptr))
    g = np.take(x.astype(np.result_type(x, h.data), copy=False), h.cols) * h.data
    out = np.zeros(h.shape[0], dtype=g.dtype)
    out[filled] = np.add.reduceat(g, h.indptr[filled])
    return out


def _ladder_space(name):
    """The sector spaces of the ED ladder's (b), (c) and (d) jobs."""
    if name == "b":
        spec = LatticeSpec(3, 1)
        return spec, FockSpace(spec.n_modes, boson_pairs(spec, "per_cell"), 2, sector=3)
    if name == "c":
        spec = LatticeSpec(3, 2)
        return spec, FockSpace(spec.n_modes, boson_pairs(spec, "cell0"), 2, sector=6)
    spec = LatticeSpec(4, 2)
    return spec, FockSpace(spec.n_modes, boson_pairs(spec, "cell0"), 1, sector=8,
                           nnz_cap=2 ** 23)


@pytest.mark.parametrize("name", ["b", "d"])
def test_row_blocked_product_is_bitwise_the_unblocked_one(name):
    # on the hopping CSR alone; B's product is tested against toarray
    spec, space = _ladder_space(name)
    h = replace(assemble_simulator_hamiltonian(PARAMS, spec, space), boson=None)
    assert len(h._blocks) > 1
    for a, b, rows, _ in h._blocks:
        assert b - a <= manybody._ROW_BLOCK or len(rows) == 1
    rng = np.random.default_rng(5)
    x = rng.standard_normal(h.shape[0])
    np.testing.assert_array_equal(h @ x, _unblocked_product(h, x))
    z = x + 1j * rng.standard_normal(h.shape[0])
    np.testing.assert_array_equal(h @ z, _unblocked_product(h, z))


def test_row_blocked_product_edge_blocks(monkeypatch):
    # blocks of at most 4 entries: row 3 (6 entries) is a block of its own,
    # and the empty rows 0, 2, 4, 7, 8 and 11 sit at block edges
    monkeypatch.setattr(manybody, "_ROW_BLOCK", 4)
    rng = np.random.default_rng(7)
    counts = [0, 3, 0, 6, 0, 1, 2, 0, 0, 2, 2, 0]
    cols = np.concatenate([rng.permutation(12)[:n] for n in counts]).astype(np.intp)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
    data = rng.standard_normal(len(cols))
    real = manybody.SectorOperator(data, cols, indptr, (12, 12))
    cplx = manybody.SectorOperator(data + 1j * rng.standard_normal(len(cols)), cols, indptr,
                                   (12, 12))
    assert [(a, b) for a, b, _, _ in real._blocks] == [(0, 3), (3, 9), (9, 12), (12, 16)]
    x = rng.standard_normal(12)
    z = x + 1j * rng.standard_normal(12)
    for h in (real, cplx):
        for v in (x, z):
            y = h @ v
            np.testing.assert_array_equal(y, _unblocked_product(h, v))
            np.testing.assert_allclose(y, h.toarray() @ v, rtol=0, atol=1e-14)
            assert y[[0, 2, 4, 7, 8, 11]].tolist() == [0.0] * 6


def test_row_blocked_product_allocates_a_fraction_of_its_entries():
    # the unblocked product allocates nnz * 8 bytes of scratch (3.3 MB on (b))
    spec, space = _ladder_space("b")
    h = assemble_simulator_hamiltonian(PARAMS, spec, space)
    x = np.random.default_rng(5).standard_normal(h.shape[0])
    h @ x                                   # builds the cached block table
    tracemalloc.start()
    try:
        h @ x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < h.nnz * 8 / 3


@pytest.mark.parametrize("name", ["b", "c", "d"])
def test_ladder_assembly_is_the_stacked_sort_entry_for_entry(name):
    _assert_scatter_is_the_stacked_sort(*_ladder_space(name))


@pytest.mark.parametrize("name,bound", [("b", 25.7), ("d", 23.2)], ids=["b", "d"])
def test_assembly_peak_is_bounded_in_entries(name, bound):
    # each hopping entry is scattered straight into its slot, a bounded
    # chunk at a time, and B is kept factored: 23.4 bytes per stored entry
    # on (b) and 21.1 on (d), H's own 16 among them, bounded 10 % above
    spec, space = _ladder_space(name)
    assemble_simulator_hamiltonian(PARAMS, spec, space)   # builds the cached pair basis
    tracemalloc.start()
    try:
        h = assemble_simulator_hamiltonian(PARAMS, spec, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * len(h.data)


def _swap_block_matrix():
    # kron(X, A): the ground state is (1, -1)/sqrt2 x top(A), orthogonal to
    # the uniform vector, which spans only the +lambda(A) half
    a = _banded_block(512, np.random.default_rng(1)) + 2.0 * sparse.identity(512)
    return sparse.kron(sparse.csr_matrix([[0.0, 1.0], [1.0, 0.0]]), a, format="csr")


def test_ground_state_orthogonal_to_uniform_vector():
    h = _swap_block_matrix()
    gs = ground_state(h, FockSpace(10, (), 0))
    e0 = np.linalg.eigvalsh(h.toarray())[0]
    assert e0 < -5.0
    assert gs.energy == pytest.approx(e0, abs=1e-10)
    assert gs.multiplicity == 1


def test_ground_state_real_path_and_complex_input():
    h = _swap_block_matrix()
    space = FockSpace(10, (), 0)
    real = ground_state(h, space)
    assert real.vectors[0].dtype == np.float64
    # complex storage with a zero imaginary part takes the same real path
    cast = ground_state(h.astype(complex), space)
    assert cast.vectors[0].dtype == np.float64
    assert cast.energy == real.energy
    # a genuinely complex Hermitian input keeps the Hermitian solver
    twist = sparse.kron(sparse.csr_matrix([[0.0, -1.0], [1.0, 0.0]]),
                        sparse.identity(512), format="csr")
    hc = h + 0.1j * twist
    gs = ground_state(hc, space)
    assert gs.vectors[0].dtype == np.complex128
    assert gs.energy == pytest.approx(np.linalg.eigvalsh(hc.toarray())[0], abs=1e-10)


# ---------------------------------------------------------------------------
# correlators and the factorization residual
# ---------------------------------------------------------------------------

def test_free_state_satisfies_factorization():
    spec = LatticeSpec(2, 1)
    space = FockSpace(4, (), 0, sector=2)
    h = assemble_background_hopping(1.0, spec, space)
    gs = ground_state(h, space)
    rep = correlators_and_wick(gs, space)
    assert rep.wick_residual <= 1e-10


def test_boson_vacuum_correlators_vanish():
    spec = LatticeSpec(1, 1)
    space = FockSpace(2, boson_pairs(spec, "per_cell"), 2, sector=1)
    # product state: fermion ground (from the boson-free problem) x |0_b>
    f_space = FockSpace(2, (), 0, sector=1)
    f_gs = ground_state(assemble_background_hopping(1.0, spec, f_space), f_space)
    (f_psi,) = f_gs.vectors
    psi = np.zeros(space.sector_dimension, dtype=complex)
    psi[np.arange(len(f_psi)) * space.boson_dim] = f_psi
    rep = correlators_and_wick(psi, space)
    assert np.abs(rep.d_dag_d).max() < 1e-14
    assert np.abs(rep.d_dag_ddag).max() < 1e-14
    for qc in rep.q_corr.values():
        assert abs(qc["q1dag_q2"]) < 1e-14 and abs(qc["q1dag_q2dag"]) < 1e-14
    assert rep.wick_residual <= 1e-12


def _oracle_case(name):
    """(state, space, ops) of one sector-native correlator oracle case.

    Ground states of the uniform, 1x1 and sector-free spaces have a Wick
    residual at rounding level, where the argmax is decided by rounding;
    those spaces get a fixed-seed two-state mixture instead, whose residual
    and argmax are well defined.
    """
    rng = np.random.default_rng(5)
    if name == "complex-sector-vector":
        space = FockSpace(4, (0,), 1, sector=2)
        dim = space.sector_dimension
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return psi / np.linalg.norm(psi), space, operator_algebra(space)
    spec, placement, n_max, sector = {
        "2x1-per_cell-ground": (LatticeSpec(2, 1), "per_cell", 2, 2),
        "2x1-per_cell": (LatticeSpec(2, 1), "per_cell", 2, 2),
        "2x1-uniform": (LatticeSpec(2, 1), "uniform", 2, 2),
        "1x1": (LatticeSpec(1, 1), "per_cell", 2, 1),
        "sector-none": (LatticeSpec(2, 1), "cell0", 1, None),
    }[name]
    space = FockSpace(spec.n_modes, boson_pairs(spec, placement), n_max, sector=sector)
    ops = operator_algebra(space)
    if name.endswith("-ground"):
        h = assemble_simulator_hamiltonian(ModelParams(G=1e-2, l=1.0, mu=1.0), spec, space, ops)
        return ground_state(h, space), space, ops
    vectors = [v / np.linalg.norm(v) for v in rng.standard_normal((2, space.sector_dimension))]
    mixture = GroundStateResult(energy=0.0, vectors=vectors, multiplicity=2, residual=0.0,
                                k=2, space=space)
    return mixture, space, ops


@pytest.mark.parametrize("name", ["2x1-per_cell-ground", "2x1-per_cell", "2x1-uniform",
                                  "1x1", "sector-none", "complex-sector-vector"])
def test_sector_correlators_match_full_space_oracle(name):
    state, space, ops = _oracle_case(name)
    rep = correlators_and_wick(state, space)
    want = full_space_correlators(state, space, ops)
    for field in ("c_matrix", "d_dag_d", "d_dag_ddag"):
        assert np.abs(getattr(rep, field) - getattr(want, field)).max(initial=0.0) <= 1e-12
    assert rep.q_corr.keys() == want.q_corr.keys()
    for cell, qc in rep.q_corr.items():
        for key, value in qc.items():
            assert abs(value - want.q_corr[cell][key]) <= 1e-12
    assert rep.wick_residual > 1e-6
    assert rep.wick_residual == pytest.approx(want.wick_residual, rel=0.0, abs=1e-12)
    assert rep.wick_argmax == want.wick_argmax
    i, j, k, l = rep.wick_argmax   # the pair-pair block of the Gram matrix
    assert i < j and k < l


def test_wick_cumulant_needs_two_fermion_modes():
    rep = correlators_and_wick(np.ones(1), FockSpace(1, (), 0, sector=1))
    assert rep.wick_residual == 0.0 and rep.wick_argmax == ()


def test_correlators_reject_a_full_space_vector_on_a_sector_space():
    space = FockSpace(4, (0,), 1, sector=2)
    psi = np.zeros(space.dimension)
    psi[space.sector_indices()[0]] = 1.0
    with pytest.raises(ValueError, match="not on the sector basis"):
        correlators_and_wick(psi, space)


def test_top_level_weight_of_a_single_vector():
    # boson index n_x + 2 n_z; probabilities 1/2 on (0, 0), 1/4 on (1, 0) and
    # on (1, 1): P(n_x = 1) = 1/2, P(n_z = 1) = 1/4
    space = FockSpace(2, (0,), 1, sector=1)
    psi = np.zeros(space.sector_dimension)
    psi[[0, 1, 3]] = np.sqrt([0.5, 0.25, 0.25])
    assert manybody.top_level_weight(psi, space) == pytest.approx(0.5, rel=1e-15)
    shifted = -1j * np.roll(psi, 4)   # the same boson weights on the other fermion state
    assert manybody.top_level_weight(shifted, space) == pytest.approx(0.5, rel=1e-15)
    bare = FockSpace(2, (), 0, sector=1)
    assert manybody.top_level_weight(np.array([0.6, 0.8]), bare) == 0.0
    with pytest.raises(ValueError, match="not on the sector basis"):
        manybody.top_level_weight(np.ones(space.dimension), space)


def test_ground_state_embeds_its_sector_vectors_on_access():
    state, space, _ = _oracle_case("2x1-per_cell-ground")
    assert "states" not in vars(state)
    assert all(len(v) == space.sector_dimension for v in state.vectors)
    for v, full in zip(state.vectors, state.states):
        assert full.shape == (space.dimension,)
        assert np.array_equal(full[space.sector_indices()], v)
        assert np.linalg.norm(full) == pytest.approx(1.0)


def test_perfbench_exact_wick_maximum_matches_the_library(monkeypatch):
    """The pair-Gram oracle of ``perfbench/make_reference.py`` runs on the
    library's full-space path (``operator_algebra``, ``ModeOperators.c``,
    the ``ops`` of ``assemble_simulator_hamiltonian`` and
    ``GroundStateResult.states``); it must keep running and agree with the
    sector-basis Wick residual."""
    from pathlib import Path

    from gravlat.cli import parse_config

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from make_reference import exact_wick_maximum

    config = ("command = correlators\n[lattice]\nncx = 2\nncy = 1\n"
              "[truncation]\nn_max = 2\n[manybody]\nplacement = cell0\n")
    cfg = parse_config(config)
    space = cfg.fock_space()
    assert cfg.params.G > 0 and space.pairs == (0,)
    gs = ground_state(assemble_simulator_hamiltonian(cfg.params, cfg.lattice, space), space)
    want = correlators_and_wick(gs, space).wick_residual
    assert want > 1e-6
    assert exact_wick_maximum(config) == pytest.approx(want, rel=1e-10, abs=0.0)


def test_coupled_residual_positive_monotone_cubic():
    """Measured scaling regression on the criterion-9 geometry: R grows
    monotonically and, in the regime where the 1/G momentum line dominates
    the truncated boson sector, follows G^3 (vertex^2 ~ G^2 times a boson
    response ~ G)."""
    spec = LatticeSpec(2, 1)
    gvals = (1e-3, 3e-3, 1e-2)
    rs = []
    for g in gvals:
        p = ModelParams(G=g, l=1.0, mu=1.0)
        space = FockSpace(4, (0,), 2, sector=2)
        ops = operator_algebra(space)
        h = assemble_simulator_hamiltonian(p, spec, space, ops)
        gs = ground_state(h, space)
        rs.append(correlators_and_wick(gs, space).wick_residual)
    assert rs[0] > 0 and rs[0] < rs[1] < rs[2]
    slope = np.polyfit(np.log(gvals), np.log(rs), 1)[0]
    assert 2.7 < slope < 3.2


def test_uniform_pair_on_two_cells_is_structurally_free():
    """With one shared pair on the 2x1 torus the x/y and z hopping sums
    commute, the ground state is an exact product of a determinant state
    with a boson state, and the factorization residual collapses."""
    spec = LatticeSpec(2, 1)
    p = ModelParams(G=1e-2, l=1.0, mu=1.0)
    space = FockSpace(4, boson_pairs(spec, "uniform"), 2, sector=2)
    ops = operator_algebra(space)
    h = assemble_simulator_hamiltonian(p, spec, space, ops)
    gs = ground_state(h, space)
    rep = correlators_and_wick(gs, space)
    assert rep.wick_residual < 1e-10
