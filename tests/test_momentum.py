import numpy as np
import pytest
import scipy.sparse as sparse

from gravlat.geometry import ModelParams
from gravlat.lattice import LatticeSpec
from gravlat.manybody import (FockSpace, assemble_background_hopping,
                              assemble_simulator_hamiltonian,
                              assemble_target_hamiltonian, boson_pairs)
from gravlat.momentum import (block_spectrum, momentum_blocks, sector_shift,
                              translation_periods)

from conftest import sector_csr

PARAMS = ModelParams(G=1e-2, l=1.0, mu=1.0)


def _space(ncx, ncy, placement, n_max, filling=None):
    spec = LatticeSpec(ncx, ncy)
    sector = spec.n_modes // 2 if filling is None else filling
    return spec, FockSpace(spec.n_modes, boson_pairs(spec, placement), n_max, sector=sector)


# (ncx, ncy, placement, n_max, filling): 2x2 per_cell at filling 1 has
# dimension 8 x 2^8 = 2048
INVARIANT = [(2, 1, "per_cell", 2, None), (3, 1, "per_cell", 1, None),
             (2, 2, "per_cell", 1, 1), (2, 2, "uniform", 2, None)]


def _shift_matrix(spec, space, j1, j2):
    image, sign = sector_shift(spec, space, j1, j2)
    dim = space.sector_dimension
    return sparse.csr_matrix((sign, (image, np.arange(dim))), shape=(dim, dim))


@pytest.mark.parametrize("case", INVARIANT)
def test_translation_generators_commute_with_every_hamiltonian(case):
    spec, space = _space(*case)
    assert translation_periods(spec, space) == (spec.ncx, spec.ncy)
    hams = [assemble_simulator_hamiltonian(PARAMS, spec, space),
            assemble_target_hamiltonian(PARAMS, spec, space),
            assemble_background_hopping(PARAMS.l, spec, space)]
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
    assert len(dims) == spec.n_cells
    assert sum(dims) == space.sector_dimension


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
                                  (2, 2, "uniform", 1, None)])
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
    assert kinds == {(0, 0): False, (1, 0): True, (2, 0): True}


def test_zero_coupling_space_blocks_by_fermion_translations():
    # the g = 0 space of a per_cell run: bosons dropped, 3x2 complex blocks
    spec = LatticeSpec(3, 2)
    space = FockSpace(spec.n_modes, (), 0, sector=spec.n_cells)
    h = assemble_background_hopping(1.0, spec, space)
    dims, evals = block_spectrum(h, spec, space)
    assert len(dims) == 6 and sum(dims) == 924
    want, scale = _dense_reference(h)
    np.testing.assert_allclose(evals, want, rtol=0.0, atol=1e-12 * scale)


def test_cell0_is_one_block_equal_to_the_dense_sector_matrix():
    spec, space = _space(2, 1, "cell0", 2)
    assert translation_periods(spec, space) == (1, 1)
    with pytest.raises(ValueError, match="not invariant"):
        sector_shift(spec, space, 1, 0)
    h = assemble_simulator_hamiltonian(PARAMS, spec, space)
    (k, block), = momentum_blocks(h, spec, space)
    assert k == (0, 0)
    np.testing.assert_array_equal(block, h.toarray())
