from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
import sympy as sp

import gravlat.manybody as manybody
from gravlat.continuum import hgr_quadratic_form, symplectic_frequencies
from gravlat.exceptions import DimensionCapError
from gravlat.geometry import ModelParams
from gravlat.lattice import CouplingField, LatticeSpec, build_tight_binding
from gravlat.manybody import (FockSpace, assemble_background_hopping,
                              assemble_simulator_hamiltonian,
                              assemble_target_hamiltonian,
                              correlators_and_wick, GroundStateResult,
                              boson_modes, ground_state, mapping_residual,
                              operator_algebra)

from conftest import (full_sector_mapping_residual, full_space_background,
                      full_space_correlators, full_space_simulator,
                      full_space_target, q_map_commutators)


def small_space(nf=2, nb=1, n_max=2, sector=None):
    modes = tuple((0, "x" if m % 2 == 0 else "z") for m in range(nb))
    return FockSpace(nf, modes, n_max, sector=sector)


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
    ops = operator_algebra(FockSpace(0, ((0, "x"),), 3))
    d = ops.d[0].toarray()
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
    space = small_space(nf=3, nb=2, n_max=1)
    ops = operator_algebra(space)
    dim = space.dimension
    eye = sparse.identity(dim)
    for i, ci in enumerate(ops.c):
        for j, cj in enumerate(ops.c):
            assert abs(ci @ cj + cj @ ci).max() == 0.0
            anti = ci @ cj.getH() + cj.getH() @ ci - (eye if i == j else 0 * eye)
            assert abs(anti).max() < 1e-14
        for dm in ops.d:
            assert abs(ci @ dm - dm @ ci).max() == 0.0  # sectors commute
    for m, dm in enumerate(ops.d):
        for n, dn in enumerate(ops.d):
            if m != n:
                assert abs(dm @ dn.getH() - dn.getH() @ dm).max() == 0.0


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        spec = LatticeSpec(2, 2)
        operator_algebra(FockSpace(8, boson_modes(spec, "per_cell"), 3, nnz_cap=1000))


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
    space = FockSpace(2, boson_modes(SPEC1, "per_cell"), 3)
    h = assemble_simulator_hamiltonian(PARAMS, SPEC1, space)
    assert h.dtype == np.float64
    assert abs(h - h.getH()).max() == 0.0


def test_target_hermitian_exactly():
    space = FockSpace(2, boson_modes(SPEC1, "per_cell"), 3)
    h = assemble_target_hamiltonian(PARAMS, SPEC1, space)
    assert h.dtype == np.float64
    assert abs(h - h.getH()).max() == 0.0


def test_background_hermitian_exactly():
    spec = LatticeSpec(2, 1)
    space = FockSpace(spec.n_modes, boson_modes(spec, "per_cell"), 1)
    h = assemble_background_hopping(PARAMS.l, spec, space)
    assert h.dtype == np.float64
    assert abs(h - h.getH()).max() == 0.0


def _canonical(h):
    h = sparse.csr_matrix(h).copy()
    h.sort_indices()
    return h


@pytest.mark.parametrize("ncx,placement,sector", [
    (2, "per_cell", 2),   # a_0 -> b_0 hops cross a_1: the JW signs matter
    (1, "per_cell", 1),
    (2, "cell0", None),   # no sector: the sector basis is the full space
])
def test_sector_assembly_matches_full_space_oracle(ncx, placement, sector):
    spec = LatticeSpec(ncx, 1)
    space = FockSpace(spec.n_modes, boson_modes(spec, placement), 2, sector=sector)
    ops = operator_algebra(space)
    idx = space.sector_indices()
    pairs = [
        (assemble_simulator_hamiltonian(PARAMS, spec, space, ops),
         full_space_simulator(PARAMS, spec, space, ops)),
        (assemble_target_hamiltonian(PARAMS, spec, space, ops),
         full_space_target(PARAMS, spec, space, ops)),
        (assemble_background_hopping(PARAMS.l, spec, space, ops),
         full_space_background(PARAMS.l, spec, space, ops)),
    ]
    for h, oracle in pairs:
        h, ref = _canonical(h), _canonical(oracle.tocsr()[idx][:, idx])
        assert h.shape == (space.sector_dimension,) * 2
        np.testing.assert_array_equal(h.indptr, ref.indptr)
        np.testing.assert_array_equal(h.indices, ref.indices)
        np.testing.assert_array_equal(h.data, ref.data)
    if spec.n_modes > 2:  # hops cross occupied modes: the JW signs take both values
        hop = pairs[2][0].data
        assert (hop > 0).any() and (hop < 0).any()


def test_assembly_rejects_operators_of_another_space():
    space = FockSpace(2, boson_modes(SPEC1, "per_cell"), 2, sector=1)
    ops = operator_algebra(replace(space, n_max=1))
    with pytest.raises(ValueError, match="another space"):
        assemble_simulator_hamiltonian(PARAMS, SPEC1, space, ops)


@pytest.mark.parametrize("modes,match", [
    (((5, "x"), (5, "z")), "outside"),   # 1x1 has no cell 5
    (((0, "x"),), "lacks"),              # an x mode without its z mode
    (((None, "z"),), "lacks"),
    # the shared pair serves cell 0 first, so the cell-0 pair drives no term
    (((None, "x"), (None, "z"), (0, "x"), (0, "z")), "shadowed"),
    # a repeated pair: the second copy only multiplies every level
    (((0, "x"), (0, "z")) * 2, "shadowed"),
])
def test_boson_modes_are_checked_against_the_lattice(modes, match):
    space = FockSpace(2, modes, 1, sector=1)
    for build in (lambda: assemble_simulator_hamiltonian(PARAMS, SPEC1, space),
                  lambda: assemble_target_hamiltonian(PARAMS, SPEC1, space),
                  lambda: assemble_background_hopping(PARAMS.l, SPEC1, space),
                  lambda: mapping_residual(PARAMS, SPEC1, space, window=1)):
        with pytest.raises(ValueError, match=match):
            build()


def test_boson_modes_accepts_exactly_the_config_placements():
    from gravlat.cli import _PLACEMENTS
    spec = LatticeSpec(2, 1)
    assert boson_modes(spec, "per_cell") == ((0, "x"), (0, "z"), (1, "x"), (1, "z"))
    assert boson_modes(spec, "uniform") == ((None, "x"), (None, "z"))
    assert boson_modes(spec, "cell0") == ((0, "x"), (0, "z"))
    with pytest.raises(ValueError, match="unknown placement") as err:
        boson_modes(spec, "per_bond")
    assert str(err.value).split("one of ", 1)[1].split(", ") == list(_PLACEMENTS)


def test_boson_vacuum_projection_is_background_hopping():
    # projecting onto the boson vacuum leaves the uniform background
    # hopping (J = 2/(3l) on every bond) plus a constant shift
    space = FockSpace(2, boson_modes(SPEC1, "per_cell"), 3)
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
    space = FockSpace(2, boson_modes(SPEC1, "per_cell"), 0)
    h = assemble_simulator_hamiltonian(PARAMS, SPEC1, space).toarray()
    shift = h[0, 0]
    free = assemble_background_hopping(PARAMS.l, SPEC1,
                                       FockSpace(2, (), 0)).toarray()
    np.testing.assert_allclose(h - shift * np.eye(4), free, atol=1e-12)


def test_fermion_number_conserved():
    space = FockSpace(2, boson_modes(SPEC1, "per_cell"), 2)
    ops = operator_algebra(space)
    n_op = ops.fermion_number()
    for h in (assemble_simulator_hamiltonian(PARAMS, SPEC1, space, ops),
              assemble_target_hamiltonian(PARAMS, SPEC1, space, ops)):
        assert abs(h @ n_op - n_op @ h).max() < 1e-12


def test_hopping_sectors_of_sim_and_target_coincide():
    """The condensate-linearized couplings and the dictionary-linearized
    ladder couplings are the same operators, so the whole mapping defect
    lives in the boson sector."""
    space = FockSpace(2, boson_modes(SPEC1, "per_cell"), 2)
    ops = operator_algebra(space)
    h_sim = assemble_simulator_hamiltonian(PARAMS, SPEC1, space, ops)
    h_tgt = assemble_target_hamiltonian(PARAMS, SPEC1, space, ops)
    diff = (h_sim - h_tgt).toarray()
    # the difference must commute with every fermion mode occupation, i.e.
    # act on the boson factor only
    for ci in ops.c:
        n_i = (ci.getH() @ ci).toarray()
        assert np.abs(diff @ n_i - n_i @ diff).max() < 1e-12


def test_momentum_line_sector_matches_exactly():
    # coefficients sqrt2/(24 pi G) and 1/(48 pi G) agree exactly between the
    # shifted-mode product and the ladder-pair product
    space = FockSpace(0, ((0, "x"), (0, "z")), 3)
    ops = operator_algebra(space)
    dx, dz = ops.d
    abar_x = dx.getH() - dx
    abar_z = dz.getH() - dz
    line_sim = (1 / (24 * np.pi * PARAMS.G)) * (abar_z @ (np.sqrt(2) * abar_x - 0.5 * abar_z))
    q1, q2 = ops.q_pair(0)
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
    space = FockSpace(0, ((0, "x"), (0, "z")), 6)
    ops = operator_algebra(space)
    q1, q2 = ops.q_pair(0)
    form = hgr_quadratic_form(p)
    h_q = (form.q_minus_coeff * ((q1.getH() - q1) @ (q2.getH() - q2))
           + form.q_plus_coeff * ((q1.getH() + q1) @ (q2.getH() + q2)))
    dx, dz = ops.d
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
# mapping residual
# ---------------------------------------------------------------------------

def test_mapping_residual_window_guard():
    space = FockSpace(2, boson_modes(SPEC1, "per_cell"), 2)
    with pytest.raises(ValueError):
        mapping_residual(PARAMS, SPEC1, space, window=3)


def test_mapping_residual_negative_window_is_value_error():
    space = FockSpace(2, boson_modes(SPEC1, "per_cell"), 2)
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
    space = FockSpace(spec.n_modes, boson_modes(spec, placement), n_max, sector=sector)
    ops = operator_algebra(space)
    oracle = full_sector_mapping_residual(
        assemble_simulator_hamiltonian(p, spec, space, ops),
        assemble_target_hamiltonian(p, spec, space, ops), space, window)
    assert mapping_residual(p, spec, space, window, ops) == oracle
    assert mapping_residual(p, spec, space, window) == oracle


def test_window_block_is_the_slice_of_the_full_sector_hamiltonian():
    spec = LatticeSpec(2, 1)
    space = FockSpace(spec.n_modes, boson_modes(spec, "per_cell"), 2, sector=2)
    ops = operator_algebra(space)
    keep = np.flatnonzero(space.boson_occupation_table() <= 1)
    idx = (np.arange(len(ops.states))[:, None] * space.boson_dim + keep).ravel()
    for terms, full in (
            (manybody._simulator_terms(PARAMS, spec, ops),
             assemble_simulator_hamiltonian(PARAMS, spec, space, ops)),
            (manybody._target_terms(PARAMS, spec, ops),
             assemble_target_hamiltonian(PARAMS, spec, space, ops))):
        block = manybody._on_sector(ops, *terms, keep=keep)
        ref = _canonical(full[idx][:, idx])
        np.testing.assert_array_equal(block.indptr, ref.indptr)
        np.testing.assert_array_equal(block.indices, ref.indices)
        np.testing.assert_array_equal(block.data, ref.data)


def test_non_hermitian_boson_term_is_rejected(monkeypatch):
    """The hopping part is Hermitian by construction, so the boson factor is
    where the Hermiticity check looks: a skewed boson term must raise."""
    space = FockSpace(2, boson_modes(SPEC1, "per_cell"), 2)
    real_terms = manybody._simulator_terms

    def skewed_terms(params, spec, ops):
        couplings, boson = real_terms(params, spec, ops)
        return couplings, boson + 1e-3 * ops.b[0]

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
        space = FockSpace(2, boson_modes(SPEC1, "per_cell"), 3)
        vals[g] = mapping_residual(p, SPEC1, space, window=2)
    ratio = vals[1e-2] / vals[1e-3]
    assert 80 < ratio < 120


def test_ground_energy_agreement_within_residual_bound():
    # eigenvalue perturbation: |E0_sim - E0_target - c*| <= residual
    p = ModelParams(G=1e-3, l=1.0, mu=1.0)
    space = FockSpace(2, boson_modes(SPEC1, "per_cell"), 2, sector=1)
    ops = operator_algebra(space)
    h_sim = assemble_simulator_hamiltonian(p, SPEC1, space, ops)
    h_tgt = assemble_target_hamiltonian(p, SPEC1, space, ops)
    e_sim = ground_state(h_sim, space).energy
    e_tgt = ground_state(h_tgt, space).energy
    block = (h_sim - h_tgt).toarray()  # both are on the sector basis
    evals = np.linalg.eigvalsh(block)
    c_star = (evals[-1] + evals[0]) / 2
    r_full = (evals[-1] - evals[0]) / 2
    assert abs((e_sim - e_tgt) - c_star) <= r_full + 1e-12
    # and the windowed residual bounds it in practice at this size
    r_w2 = mapping_residual(p, SPEC1, space, window=2, ops=ops)
    assert abs((e_sim - e_tgt) - c_star) <= r_w2


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


@pytest.mark.parametrize("fold", [1, 2, 3])
def test_ground_state_lanczos_multiplicity(fold):
    # four identical blocks, all but ``fold`` of them shifted up: a
    # uniform start vector sees the copies only in their symmetric
    # combination and reports multiplicity 1
    block = _banded_block(256, np.random.default_rng(0))
    shifted = block + 0.5 * sparse.identity(256, format="csr")
    h = sparse.block_diag([block] * fold + [shifted] * (4 - fold), format="csr")
    space = FockSpace(10, (), 0)
    assert space.dimension == 1024
    gs = ground_state(h, space)
    evals = np.linalg.eigvalsh(h.toarray())
    dense_count = int(np.sum(evals - evals[0] <= 1e-9 * abs(h).max()))
    assert dense_count == fold
    assert gs.multiplicity == dense_count
    assert gs.energy == pytest.approx(evals[0], abs=1e-10)
    assert gs.k > gs.multiplicity


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
    assert real.state.dtype == np.float64
    # complex storage with a zero imaginary part takes the same real path
    cast = ground_state(h.astype(complex), space)
    assert cast.state.dtype == np.float64
    assert cast.energy == real.energy
    # a genuinely complex Hermitian input keeps the Hermitian solver
    twist = sparse.kron(sparse.csr_matrix([[0.0, -1.0], [1.0, 0.0]]),
                        sparse.identity(512), format="csr")
    hc = h + 0.1j * twist
    gs = ground_state(hc, space)
    assert gs.state.dtype == np.complex128
    assert gs.energy == pytest.approx(np.linalg.eigvalsh(hc.toarray())[0], abs=1e-10)


# ---------------------------------------------------------------------------
# correlators and the factorization residual
# ---------------------------------------------------------------------------

def test_free_state_satisfies_factorization():
    spec = LatticeSpec(2, 1)
    space = FockSpace(4, (), 0, sector=2)
    ops = operator_algebra(space)
    h = assemble_background_hopping(1.0, spec, space, ops)
    gs = ground_state(h, space)
    rep = correlators_and_wick(gs, space, ops)
    assert rep.wick_residual <= 1e-10


def test_boson_vacuum_correlators_vanish():
    spec = LatticeSpec(1, 1)
    space = FockSpace(2, boson_modes(spec, "per_cell"), 2, sector=1)
    ops = operator_algebra(space)
    # product state: fermion ground (from the boson-free problem) x |0_b>
    f_space = FockSpace(2, (), 0, sector=1)
    f_gs = ground_state(assemble_background_hopping(1.0, spec, f_space), f_space)
    (f_psi,) = f_gs.vectors
    psi = np.zeros(space.sector_dimension, dtype=complex)
    psi[np.arange(len(f_psi)) * space.boson_dim] = f_psi
    rep = correlators_and_wick(psi, space, ops)
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
        space = FockSpace(4, ((0, "x"), (0, "z")), 1, sector=2)
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
    space = FockSpace(spec.n_modes, boson_modes(spec, placement), n_max, sector=sector)
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
    rep = correlators_and_wick(state, space, ops)
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


def test_correlators_reject_a_full_space_vector_on_a_sector_space():
    space = FockSpace(4, ((0, "x"), (0, "z")), 1, sector=2)
    psi = np.zeros(space.dimension)
    psi[space.sector_indices()[0]] = 1.0
    with pytest.raises(ValueError, match="not on the sector basis"):
        correlators_and_wick(psi, space, operator_algebra(space))


def test_ground_state_embeds_its_sector_vectors_on_access():
    state, space, _ = _oracle_case("2x1-per_cell-ground")
    assert "states" not in vars(state)
    assert all(len(v) == space.sector_dimension for v in state.vectors)
    for v, full in zip(state.vectors, state.states):
        assert full.shape == (space.dimension,)
        assert np.array_equal(full[space.sector_indices()], v)
        assert np.linalg.norm(full) == pytest.approx(1.0)


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
        space = FockSpace(4, ((0, "x"), (0, "z")), 2, sector=2)
        ops = operator_algebra(space)
        h = assemble_simulator_hamiltonian(p, spec, space, ops)
        gs = ground_state(h, space)
        rs.append(correlators_and_wick(gs, space, ops).wick_residual)
    assert rs[0] > 0 and rs[0] < rs[1] < rs[2]
    slope = np.polyfit(np.log(gvals), np.log(rs), 1)[0]
    assert 2.7 < slope < 3.2


def test_uniform_pair_on_two_cells_is_structurally_free():
    """With one shared pair on the 2x1 torus the x/y and z hopping sums
    commute, the ground state is an exact product of a determinant state
    with a boson state, and the factorization residual collapses."""
    spec = LatticeSpec(2, 1)
    p = ModelParams(G=1e-2, l=1.0, mu=1.0)
    space = FockSpace(4, boson_modes(spec, "uniform"), 2, sector=2)
    ops = operator_algebra(space)
    h = assemble_simulator_hamiltonian(p, spec, space, ops)
    gs = ground_state(h, space)
    rep = correlators_and_wick(gs, space, ops)
    assert rep.wick_residual < 1e-10
