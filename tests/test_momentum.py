import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from gravlat.geometry import ModelParams
from gravlat.lattice import LatticeSpec
from gravlat.manybody import (FockSpace, assemble_background_hopping,
                              assemble_simulator_hamiltonian,
                              assemble_target_hamiltonian, boson_pairs,
                              correlators_and_wick, ground_state,
                              operator_algebra)
from gravlat.momentum import (block_spectrum, momentum_blocks,
                              sector_particle_hole, sector_shift,
                              translation_periods)

from conftest import full_space_particle_hole, sector_csr

PARAMS = ModelParams(G=1e-2, l=1.0, mu=1.0)


def _space(ncx, ncy, placement, n_max, filling=None):
    spec = LatticeSpec(ncx, ncy)
    sector = spec.n_modes // 2 if filling is None else filling
    return spec, FockSpace(spec.n_modes, boson_pairs(spec, placement), n_max, sector=sector)


# (ncx, ncy, placement, n_max, filling): 2x2 per_cell at filling 1 has
# dimension 8 x 2^8 = 2048
INVARIANT = [(2, 1, "per_cell", 2, None), (3, 1, "per_cell", 1, None),
             (2, 2, "per_cell", 1, 1), (2, 2, "uniform", 2, None)]


def _sector_matrix(space, image, sign):
    dim = space.sector_dimension
    return sparse.csr_matrix((sign, (image, np.arange(dim))), shape=(dim, dim))


def _shift_matrix(spec, space, j1, j2):
    return _sector_matrix(space, *sector_shift(spec, space, j1, j2))


def _hamiltonians(spec, space):
    return [assemble_simulator_hamiltonian(PARAMS, spec, space),
            assemble_target_hamiltonian(PARAMS, spec, space),
            assemble_background_hopping(PARAMS.l, spec, space)]


def _half_filled(case):
    return case[4] is None


@pytest.mark.parametrize("case", INVARIANT)
def test_translation_generators_commute_with_every_hamiltonian(case):
    spec, space = _space(*case)
    assert translation_periods(spec, space) == (spec.ncx, spec.ncy)
    hams = _hamiltonians(spec, space)
    for g in ((1, 0), (0, 1)):
        t = _shift_matrix(spec, space, *g)
        # a signed permutation, and not the identity along an axis of length > 1
        assert abs(t @ t.T - sparse.identity(t.shape[0])).max() == 0.0
        moved = t.diagonal().sum() < t.shape[0]
        assert moved == (spec.ncx > 1 if g == (1, 0) else spec.ncy > 1)
        for h in hams:
            m = sector_csr(h)
            scale = max(abs(m).max(), 1.0)
            assert abs(t @ m - m @ t).max() <= 1e-12 * scale


@pytest.mark.parametrize("case", INVARIANT)
def test_block_dimensions_add_up_to_the_sector(case):
    spec, space = _space(*case)
    h = assemble_background_hopping(PARAMS.l, spec, space)
    dims = [len(block) for _, block in momentum_blocks(h, spec, space)]
    # at half filling each momentum splits into W = +1 and W = -1
    assert len(dims) == spec.n_cells * (2 if _half_filled(case) else 1)
    assert sum(dims) == space.sector_dimension


# (ncx, ncy, placement, n_max): the half-filled INVARIANT cases, and cell0,
# whose one symmetry is W
HALF_FILLED = [case[:4] for case in INVARIANT if _half_filled(case)] + [
    (2, 1, "cell0", 2), (2, 2, "cell0", 1)]


@pytest.mark.parametrize("case", HALF_FILLED)
def test_particle_hole_map_is_w_on_the_sector_and_commutes_exactly(case):
    spec, space = _space(*case)
    w = _sector_matrix(space, *sector_particle_hole(spec, space))
    keep = space.sector_indices()
    full = full_space_particle_hole(operator_algebra(space), spec)
    assert abs(w - full[keep][:, keep]).max() == 0.0
    assert abs(w @ w - sparse.identity(w.shape[0])).max() == 0.0
    periods = translation_periods(spec, space)
    for j1 in range(periods[0]):
        for j2 in range(periods[1]):
            t = _shift_matrix(spec, space, j1, j2)
            assert abs(w @ t - t @ w).max() == 0.0
    for h in _hamiltonians(spec, space):
        m = sector_csr(h)
        assert abs(w @ m - m @ w).max() == 0.0


@pytest.mark.parametrize("filling", [1, 3, None])
def test_particle_hole_map_needs_half_filling(filling):
    spec = LatticeSpec(2, 1)
    space = FockSpace(spec.n_modes, boson_pairs(spec, "per_cell"), 1, sector=filling)
    with pytest.raises(ValueError, match="not half filled"):
        sector_particle_hole(spec, space)


@pytest.mark.parametrize("filling", [0, 4])
def test_a_momentum_no_orbit_carries_is_an_empty_block(filling):
    # the empty and the full 2x1 sector: one state, even under the shift
    spec = LatticeSpec(2, 1)
    space = FockSpace(spec.n_modes, (), 0, sector=filling)
    h = assemble_background_hopping(1.0, spec, space)
    assert block_spectrum(h, spec, space)[0] == [1, 0]


def _dense_reference(h):
    evals = np.linalg.eigvalsh(h.toarray())
    return evals, max(1.0, float(np.abs(evals).max()))


@pytest.mark.parametrize("case", [(2, 1, "per_cell", 2, None), (3, 1, "per_cell", 1, None),
                                  (2, 2, "uniform", 1, None), (2, 1, "cell0", 2, None),
                                  (3, 1, "uniform", 1, None)])
def test_union_of_block_spectra_is_the_sector_spectrum(case):
    spec, space = _space(*case)
    for h in (assemble_simulator_hamiltonian(PARAMS, spec, space),
              assemble_target_hamiltonian(PARAMS, spec, space)):
        dims, evals = block_spectrum(h, spec, space)
        want, scale = _dense_reference(h)
        assert sum(dims) == len(want)
        np.testing.assert_allclose(evals, want, rtol=0.0, atol=1e-12 * scale)


def test_three_cell_chain_has_complex_blocks_at_nonzero_momentum():
    spec, space = _space(3, 1, "per_cell", 1)
    h = assemble_simulator_hamiltonian(PARAMS, spec, space)
    kinds = {k: np.iscomplexobj(block) for k, block in momentum_blocks(h, spec, space)}
    assert list(kinds) == [(0, 0, 1), (0, 0, -1), (1, 0, 1), (1, 0, -1), (2, 0, 1), (2, 0, -1)]
    assert kinds == {(0, 0, 1): False, (0, 0, -1): False, (1, 0, 1): True, (1, 0, -1): True,
                     (2, 0, 1): True, (2, 0, -1): True}


def test_a_filling_other_than_half_keeps_the_momentum_blocks():
    spec, space = _space(2, 2, "per_cell", 1, 1)
    h = assemble_simulator_hamiltonian(PARAMS, spec, space)
    labels = [k for k, _ in momentum_blocks(h, spec, space)]
    assert labels == [(0, 0), (0, 1), (1, 0), (1, 1)]
    dims, evals = block_spectrum(h, spec, space)
    assert dims == [512, 512, 512, 512]
    want, scale = _dense_reference(h)
    np.testing.assert_allclose(evals, want, rtol=0.0, atol=1e-12 * scale)


def test_the_benchmark_spectrum_job_never_holds_a_block_as_wide_as_a_momentum_block():
    # 2x1 per_cell at n_max 3: momentum blocks 752 and 784, each halved by
    # W; the 784 block alone takes 784^2 doubles, and the whole solve stays
    # under that (about 2.9 MB here, 6.5 MB with the unsplit blocks)
    spec, space = _space(2, 1, "per_cell", 3)
    h = assemble_simulator_hamiltonian(PARAMS, spec, space)
    tracemalloc.start()
    try:
        dims, evals = block_spectrum(h, spec, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 784 * 784 * 8
    assert dims == [376, 376, 392, 392]
    want, scale = _dense_reference(h)
    np.testing.assert_allclose(evals, want, rtol=0.0, atol=1e-12 * scale)


def test_zero_coupling_space_blocks_by_fermion_translations():
    # the g = 0 space of a per_cell run: bosons dropped, 3x2 complex blocks,
    # each momentum split by W
    spec = LatticeSpec(3, 2)
    space = FockSpace(spec.n_modes, (), 0, sector=spec.n_cells)
    h = assemble_background_hopping(1.0, spec, space)
    dims, evals = block_spectrum(h, spec, space)
    assert len(dims) == 12 and sum(dims) == 924
    want, scale = _dense_reference(h)
    np.testing.assert_allclose(evals, want, rtol=0.0, atol=1e-12 * scale)


def test_cell0_is_one_block_equal_to_the_dense_sector_matrix():
    # off half filling cell0 has no symmetry: its one block is the sector
    spec, space = _space(2, 1, "cell0", 2, 1)
    assert translation_periods(spec, space) == (1, 1)
    with pytest.raises(ValueError, match="not invariant"):
        sector_shift(spec, space, 1, 0)
    h = assemble_simulator_hamiltonian(PARAMS, spec, space)
    (k, block), = momentum_blocks(h, spec, space)
    assert k == (0, 0)
    np.testing.assert_array_equal(block, h.toarray())



def test_a_ground_state_and_its_translates_report_one_wick_argmax():
    # the 2x2 per_cell ground state is one momentum level, so each translate
    # is the state up to a phase and carries its cumulants up to rounding;
    # an exact argmax read the rounding (1-6-1-6, 3-4-3-4, 0-7-0-7, 2-5-2-5)
    spec, space = _space(2, 2, "per_cell", 1)
    gs = ground_state(assemble_simulator_hamiltonian(PARAMS, spec, space), space)
    assert gs.multiplicity == 1
    v = gs.vectors[0]
    rep = correlators_and_wick(v, space)
    assert rep.wick_argmax == (0, 7, 0, 7)
    for shift in ((1, 0), (0, 1), (1, 1)):
        image, sign = sector_shift(spec, space, *shift)
        moved = np.zeros_like(v)
        moved[image] = sign * v
        assert abs(moved @ v) == pytest.approx(1.0, abs=1e-12)
        translate = correlators_and_wick(moved, space)
        assert translate.wick_argmax == rep.wick_argmax
        assert translate.wick_residual == pytest.approx(rep.wick_residual, rel=1e-12)
