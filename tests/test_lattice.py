import numpy as np
import pytest

from gravlat.continuum import dressed_velocities
from gravlat.exceptions import DiracRegimeError, InversionError
from gravlat.geometry import ModelParams
from gravlat.lattice import (CouplingField, LatticeSpec, bloch_f,
                             bloch_gradient, bloch_spectrum,
                             build_tight_binding, couplings_from_dreibein,
                             dirac_slopes, dreibein_from_couplings,
                             fermi_points, reciprocal_vectors,
                             slope_closed_form)

K_POINT = 4 * np.pi / (3 * np.sqrt(3))


def test_bloch_at_zone_center():
    c = CouplingField.uniform(1.0, 1.0, 1.0)
    assert bloch_f(c, (0.0, 0.0)) == pytest.approx(3.0)


def test_bloch_vanishes_at_standard_cone():
    c = CouplingField.uniform(1.0, 1.0, 1.0)
    assert abs(bloch_f(c, (K_POINT, 0.0))) < 1e-12


def test_bloch_gapped_beyond_merging():
    c = CouplingField.uniform(1.0, 1.0, 2.5)
    g1, g2 = reciprocal_vectors()
    n = 64
    vals = []
    for m1 in range(n):
        for m2 in range(n):
            vals.append(abs(bloch_f(c, (m1 / n) * g1 + (m2 / n) * g2)))
    assert min(vals) > 0.3  # fully gapped sweep


def test_fermi_points_isotropic_reference():
    c = CouplingField.uniform(2 / 3, 2 / 3, 2 / 3)
    p_plus, p_minus = fermi_points(c)
    np.testing.assert_allclose(p_plus, [2.4183991523122903, 0.0], atol=1e-9)
    np.testing.assert_allclose(p_minus, -p_plus, atol=0)
    assert abs(bloch_f(c, p_plus)) <= 1e-12


def test_fermi_points_sweep_residuals():
    # ratios J_z / (2 J_x) reach within 1e-9 of both ends of the conical regime
    ratios = (1e-9, 1e-6, 1e-3, 0.25, 0.5, 0.75, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9)
    for jx in (0.3, 1.0, 2.7):
        for ratio in ratios:
            jz = 2.0 * jx * ratio
            c = CouplingField.uniform(jx, jx, jz)
            p_plus, p_minus = fermi_points(c)
            assert abs(bloch_f(c, p_plus)) <= 1e-12
            assert abs(bloch_f(c, p_minus)) <= 1e-12
            seed = 2 / np.sqrt(3) * np.arccos(-jz / (2.0 * jx))
            assert abs(p_plus[0] - seed) < 1e-9


def test_fermi_points_merge_toward_zone_edge():
    c = CouplingField.uniform(1.0, 1.0, 1.999999)
    p_plus, _ = fermi_points(c)
    assert p_plus[0] == pytest.approx(2 * np.pi / np.sqrt(3), rel=1e-3)


def test_fermi_points_merged_cone_error():
    with pytest.raises(DiracRegimeError):
        fermi_points(CouplingField.uniform(1.0, 1.0, 2.0))
    with pytest.raises(DiracRegimeError):
        fermi_points(CouplingField.uniform(1.0, 1.0, 2.4))


def test_fermi_points_require_equal_xy():
    with pytest.raises(DiracRegimeError):
        fermi_points(CouplingField.uniform(1.0, 1.1, 1.0))


def test_uncompensated_arccos_form_fails_residual():
    # inverting the cosine without the factor 2 on J_x misses the root
    jx, jz = 1.0, 1.0
    kx_alt = 2 / np.sqrt(3) * np.arccos(-jz / jx)
    c = CouplingField.uniform(jx, jx, jz)
    assert abs(bloch_f(c, (kx_alt, 0.0))) > 0.5  # far off the 1e-12 gate


def test_slopes_isotropic_values():
    (a_p, b_p), (a_m, b_m) = dirac_slopes(CouplingField.uniform(2 / 3, 2 / 3, 2 / 3))
    assert a_p == pytest.approx(-1.0, rel=1e-12)
    assert a_m == pytest.approx(+1.0, rel=1e-12)
    assert b_p == b_m == pytest.approx(-1.0, rel=1e-12)
    (a_p, b_p), _ = dirac_slopes(CouplingField.uniform(1.0, 1.0, 1.0))
    assert abs(a_p) == pytest.approx(1.5, rel=1e-12)
    assert abs(b_p) == pytest.approx(1.5, rel=1e-12)


def test_slopes_gradient_validation_sweep():
    # the closed forms agree with the finite-difference Bloch gradient
    for jz in np.arange(0.1, 2.0, 0.1):
        c = CouplingField.uniform(1.0, 1.0, float(jz))
        (a_p, b_p), (a_m, b_m) = dirac_slopes(c)  # raises on disagreement
        p_plus, _ = fermi_points(c)
        dfx, dfy = bloch_gradient(c, p_plus)
        assert abs(dfx.real - a_p) <= 1e-6 * max(abs(a_p), abs(b_p))
        assert abs(-dfy.imag - b_p) <= 1e-6 * max(abs(a_p), abs(b_p))


def test_slopes_closed_form_boundary_vanishes():
    # the x-slope magnitude collapses at the merging point; the public
    # operation refuses the point itself (no isolated cones there)
    a_p, a_m, _, _ = slope_closed_form(1.0, 2.0)
    assert a_p == 0.0 and a_m == 0.0
    with pytest.raises(DiracRegimeError):
        dirac_slopes(CouplingField.uniform(1.0, 1.0, 2.0))


# ---------------------------------------------------------------------------
# dictionary
# ---------------------------------------------------------------------------

def test_background_couplings_map_to_zero_fluctuation():
    p = ModelParams(G=0.01, l=1.5, mu=1.0)
    j0 = 2 / (3 * p.l)
    xi1, xi2 = dreibein_from_couplings(CouplingField.uniform(j0, j0, j0), p)
    assert abs(xi1) < 1e-12 and abs(xi2) < 1e-12


def test_zero_fluctuation_maps_to_background():
    p = ModelParams(G=0.02, l=1.25, mu=1.0)
    c = couplings_from_dreibein(0.0, 0.0, p)
    np.testing.assert_allclose([c.jx, c.jy, c.jz], 2 / (3 * p.l), rtol=1e-13)


def test_direct_inversion_example():
    # (3/2) J_z = 1/l - 8 pi G * 0.1 / l^2  =>  xi2y = 0.1
    p = ModelParams(G=0.01, l=1.0, mu=1.0)
    jz = (2 / 3) * (1 / p.l - 8 * np.pi * p.G * 0.1 / p.l ** 2)
    jx = 0.5 * np.sqrt(jz ** 2 + 4 / 3 * (1 / p.l) ** 2)
    _, xi2 = dreibein_from_couplings(CouplingField.uniform(jx, jx, jz), p)
    assert xi2 == pytest.approx(0.1, rel=1e-10)


def test_dictionary_round_trips(rng):
    p = ModelParams(G=0.008, l=1.1, mu=1.0)
    for _ in range(20):
        xi1, xi2 = rng.normal(size=2) * 0.5
        c = couplings_from_dreibein(xi1, xi2, p)
        b1, b2 = dreibein_from_couplings(c, p)
        assert abs(b1 - xi1) < 1e-12 and abs(b2 - xi2) < 1e-12
    for _ in range(20):
        jz = rng.uniform(0.3, 0.9)
        jx = rng.uniform(jz / 2 + 0.05, 1.2)
        c = CouplingField.uniform(jx, jx, jz)
        xi1, xi2 = dreibein_from_couplings(c, p)
        c2 = couplings_from_dreibein(xi1, xi2, p)
        assert abs(float(c2.jx) - jx) < 1e-12 and abs(float(c2.jz) - jz) < 1e-12


def test_zero_coupling_limit_errors():
    p = ModelParams(G=0.01, l=1.0, mu=1.0)
    # fluctuation large enough to zero J_z: dressed y velocity <= 0
    bad = p.l / (8 * np.pi * p.G)
    with pytest.raises(InversionError) as err:
        couplings_from_dreibein(0.0, bad, p)
    assert str(err.value) == "dressed velocity <= 0"  # uniform input has no cells
    with pytest.raises(InversionError) as err:
        couplings_from_dreibein(np.zeros((2, 2)), np.array([[0.0, bad], [0.0, 0.0]]), p)
    assert str(err.value) == "dressed velocity <= 0 at cells [[0, 1]]"


def test_conical_window_error_names_cells_only_for_per_cell_input():
    p = ModelParams(G=0.01, l=1.0, mu=1.0)
    with pytest.raises(DiracRegimeError) as err:
        dreibein_from_couplings(CouplingField.uniform(1.0, 1.0, 2.5), p)
    assert str(err.value) == "couplings outside the conical window"
    jz = np.array([1.0, 2.5, 1.0])
    with pytest.raises(DiracRegimeError) as err:
        dreibein_from_couplings(CouplingField(np.ones(3), np.ones(3), jz), p)
    assert str(err.value) == "couplings outside the conical window at cells [[1]]"


def test_g_zero_dictionary_is_background_only():
    p = ModelParams(G=0.0, l=1.0, mu=1.0)
    j0 = 2 / (3 * p.l)
    xi1, xi2 = dreibein_from_couplings(CouplingField.uniform(j0, j0, j0), p)
    assert xi1 == 0.0 and xi2 == 0.0
    with pytest.raises(InversionError):
        dreibein_from_couplings(CouplingField.uniform(j0 * 1.01, j0 * 1.01, j0), p)


def test_velocity_consistency_with_continuum(rng):
    # uniform fluctuations: lattice slope magnitudes == dressed velocities
    p = ModelParams(G=0.005, l=1.2, mu=1.0)
    for _ in range(10):
        xi1, xi2 = rng.normal(size=2) * 0.4
        c = couplings_from_dreibein(xi1, xi2, p)
        (a_p, b_p), _ = dirac_slopes(CouplingField.uniform(float(c.jx), float(c.jy),
                                                           float(c.jz)))
        vx, vy = dressed_velocities(p, xi1, xi2)
        assert abs(abs(a_p) - vx) < 1e-10
        assert abs(abs(b_p) - vy) < 1e-10


# ---------------------------------------------------------------------------
# real-space matrices
# ---------------------------------------------------------------------------

def test_single_cell_spectrum():
    h = build_tight_binding(CouplingField.uniform(1.0, 1.0, 1.0), LatticeSpec(1, 1))
    np.testing.assert_allclose(np.linalg.eigvalsh(h), [-3.0, 3.0], atol=1e-14)


def test_uniform_spectrum_matches_bloch_grid():
    c = CouplingField.uniform(1.0, 1.0, 1.0)
    spec = LatticeSpec(6, 6)
    h = build_tight_binding(c, spec)
    np.testing.assert_allclose(np.linalg.eigvalsh(h), bloch_spectrum(c, spec),
                               atol=1e-12)


def test_anisotropic_spectrum_matches_bloch_grid():
    c = CouplingField.uniform(0.8, 0.8, 1.1)
    spec = LatticeSpec(4, 5)
    h = build_tight_binding(c, spec)
    np.testing.assert_allclose(np.linalg.eigvalsh(h), bloch_spectrum(c, spec),
                               atol=1e-12)


def test_matrix_exactly_hermitian(rng):
    spec = LatticeSpec(3, 3)
    c = CouplingField(rng.uniform(0.5, 1.0, size=(3, 3)),
                      rng.uniform(0.5, 1.0, size=(3, 3)),
                      rng.uniform(0.5, 1.0, size=(3, 3)))
    h = build_tight_binding(c, spec)
    assert np.array_equal(h, h.conj().T)


def test_spectrum_chiral_symmetry(rng):
    spec = LatticeSpec(3, 4)
    c = CouplingField(rng.uniform(0.5, 1.0, size=(3, 4)),
                      rng.uniform(0.5, 1.0, size=(3, 4)),
                      rng.uniform(0.5, 1.0, size=(3, 4)))
    evals = np.linalg.eigvalsh(build_tight_binding(c, spec))
    np.testing.assert_allclose(evals, -evals[::-1], atol=1e-12)


def test_per_cell_bond_ownership_on_two_by_two():
    # cell index cx * 2 + cy; cell i owns a_i -> b_i (J_z), a_i -> b_{i+n1}
    # (J_x, +1 in cx) and a_i -> b_{i+n2} (J_y, +1 in cy), wrapping around
    jx = np.array([[1.1, 1.2], [1.3, 1.4]])
    jy = np.array([[2.1, 2.2], [2.3, 2.4]])
    jz = np.array([[3.1, 3.2], [3.3, 3.4]])
    x, y, z = jx.ravel(), jy.ravel(), jz.ravel()
    f = np.array([[z[0], y[0], x[0], 0.0],
                  [y[1], z[1], 0.0, x[1]],
                  [x[2], 0.0, z[2], y[2]],
                  [0.0, x[3], y[3], z[3]]])
    expected = np.block([[np.zeros((4, 4)), f], [f.T, np.zeros((4, 4))]])
    h = build_tight_binding(CouplingField(jx, jy, jz), LatticeSpec(2, 2))
    np.testing.assert_array_equal(h, expected)


@pytest.mark.parametrize("ncx,ncy", [(1, 1), (2, 2), (3, 4)])
def test_bonds_give_each_cell_three_and_each_b_cell_one_per_direction(ncx, ncy):
    spec = LatticeSpec(ncx, ncy)
    bonds = spec.bonds()
    assert [cell for cell, _, _ in bonds] == [i for i in range(spec.n_cells) for _ in "zxy"]
    assert [direction for _, direction, _ in bonds] == ["z", "x", "y"] * spec.n_cells
    for direction in "zxy":
        b_cells = sorted(b for _, d, b in bonds if d == direction)
        assert b_cells == list(range(spec.n_cells))
