import numpy as np
import pytest

from gravlat.geometry import (DiagonalFluctuationSlab, ModelParams, SpacetimeGrid,
                              SpinConnectionSlab, TrigField, central_difference,
                              connection_refinement, sampled_slab,
                              spectral_difference, spin_connection_gauge_fixed,
                              spin_connection_general, torsion_residual)

from conftest import dense_spin_connection_general, dense_torsion_residual


def make_grid(nt=4, nx=12, ny=12, ht=0.25, h=0.5):
    return SpacetimeGrid(nt, nx, ny, ht, h)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(G=-0.1, l=1.0, mu=1.0)
    with pytest.raises(ValueError):
        ModelParams(G=0.1, l=0.0, mu=1.0)
    with pytest.raises(ValueError):
        ModelParams(G=0.1, l=1.0, mu=0.0)
    p = ModelParams(G=0.01, l=2.0, mu=1.0)
    np.testing.assert_allclose(p.weak_coupling_ratio, 8 * np.pi * 0.01 / 2.0)


# ---------------------------------------------------------------------------
# connection, closed form
# ---------------------------------------------------------------------------

def _zero_except(v, *components):
    """Every v[A, mu] outside ``components`` is identically zero."""
    return all(np.abs(v.tensor[idx]).max() == 0.0
               for idx in np.ndindex(3, 3) if idx not in components)


def test_gauge_fixed_zero_field():
    p = ModelParams(G=0.1, l=1.3, mu=1.0)
    v = spin_connection_gauge_fixed(p, DiagonalFluctuationSlab.zero(make_grid()))
    assert isinstance(v, SpinConnectionSlab)
    assert np.abs(v.tensor).max() == 0.0


def test_gauge_fixed_static_profile():
    # static xi1x = eps sin(2 pi y / L): only v0x responds, via -d_y xi1x / l
    p = ModelParams(G=0.05, l=2.0, mu=1.0)
    grid = make_grid(nx=16, ny=16, h=0.25)
    ly = grid.ny * grid.h
    y = np.arange(grid.ny) * grid.h
    xi1 = 0.03 * np.sin(2 * np.pi * y / ly) * np.ones(grid.shape)
    v = spin_connection_gauge_fixed(p, DiagonalFluctuationSlab(grid, xi1, np.zeros(grid.shape)))
    v0x = v.tensor[0, 1]
    # contract: the stencil derivative exactly, the analytic one at O(h^2)
    np.testing.assert_array_equal(v0x, -central_difference(xi1, 2, grid.h) / p.l)
    dxi1_dy = 0.03 * (2 * np.pi / ly) * np.cos(2 * np.pi * y / ly)
    np.testing.assert_allclose(v0x, -dxi1_dy / p.l * np.ones(grid.shape),
                               atol=1.5e-3)  # O(h^2) stencil error bound
    assert np.abs(v0x).max() > 1e-3  # genuinely nonzero
    assert _zero_except(v, (0, 1))


def test_gauge_fixed_constant_velocity():
    # xi1x = c t: the time components land in v2x, everything else flat;
    # the contraction feeding v0t has no diagonal support, so v0t = 0.  A
    # linear-in-t field is not periodic, so v2x is scored on interior slices
    # (dyadic c and ht keep the stencil exact there).
    p = ModelParams(G=0.02, l=1.0, mu=1.0)
    grid = make_grid(nt=5)
    c = 0.75
    t = np.arange(grid.nt) * grid.ht
    xi1 = c * t[:, None, None] * np.ones(grid.shape)
    v = spin_connection_gauge_fixed(p, DiagonalFluctuationSlab(grid, xi1, np.zeros(grid.shape)))
    np.testing.assert_array_equal(v.tensor[2, 1, 1:-1], np.full(grid.shape, c)[1:-1])
    assert _zero_except(v, (2, 1))


# ---------------------------------------------------------------------------
# connection, general M-contraction on slabs
# ---------------------------------------------------------------------------

def _trig_pair(rng, grid):
    """Two sine series periodic over the grid's x-y box."""
    return [TrigField(rng, 3, 0.1, grid.nx * grid.h, grid.ny * grid.h) for _ in range(2)]


def test_general_zero_slab():
    p = ModelParams(G=0.1, l=1.0, mu=1.0)
    grid = SpacetimeGrid(4, 8, 8, 0.1, 0.5)
    v = spin_connection_general(p, DiagonalFluctuationSlab.zero(grid))
    assert np.abs(v.tensor).max() == 0.0


def test_general_matches_gauge_fixed_identically(rng):
    # same finite-difference inputs -> the two formulas give the same tensor
    # on every slice, the wrapped first and last ones included
    p = ModelParams(G=0.03, l=1.4, mu=1.0)
    grid = SpacetimeGrid(6, 12, 12, 0.2, 0.5)
    slab, _ = sampled_slab(p, *_trig_pair(rng, grid), grid)
    v_gen = spin_connection_general(p, slab)
    v_gf = spin_connection_gauge_fixed(p, slab)
    np.testing.assert_allclose(v_gen.tensor, v_gf.tensor, rtol=0, atol=1e-14)


def test_discrete_torsion_identity(rng):
    # the FD solution satisfies the FD torsion equation exactly
    p = ModelParams(G=0.03, l=0.8, mu=1.0)
    grid = SpacetimeGrid(6, 12, 12, 0.2, 0.5)
    slab, _ = sampled_slab(p, *_trig_pair(rng, grid), grid)
    v = spin_connection_general(p, slab)
    assert torsion_residual(p, slab, v) < 1e-14


def test_torsion_residual_second_order(rng):
    # against the analytic solution the residual is pure O(h^2): ratio ~ 4
    p = ModelParams(G=0.02, l=1.1, mu=1.0)
    grid = SpacetimeGrid(3, 12, 12, 0.2, 0.5)
    (res_h, agree_h), (res_half, agree_half) = connection_refinement(
        p, *_trig_pair(rng, grid), grid)
    assert 3.0 < res_h / res_half < 5.0
    assert 3.0 < agree_h / agree_half < 5.0


def test_refinement_chunks_match_one_slab(rng):
    # nt = 5: the h/2 level has 7 slices, evaluated as chunks of 5 and 4
    p = ModelParams(G=0.02, l=1.1, mu=1.0)
    grid = SpacetimeGrid(5, 8, 8, 0.2, 0.75)
    f1, f2 = _trig_pair(rng, grid)
    _, (res_half, agree_half) = connection_refinement(p, f1, f2, grid)
    fine = SpacetimeGrid(7, 16, 16, grid.ht / 2, grid.h / 2)
    # interior slices 1..5 span t in [-2 ht/2, 2 ht/2] = the h interior [-ht, ht]
    slab, v_ref = sampled_slab(p, f1, f2, fine, (np.arange(7) - 3) * fine.ht)
    v_gen = spin_connection_general(p, slab)
    assert res_half == torsion_residual(p, slab, v_ref)
    assert agree_half == np.abs(v_gen.tensor - v_ref.tensor)[:, :, 1:-1].max()


def test_connection_linearity(rng):
    p = ModelParams(G=0.02, l=1.0, mu=1.0)
    grid = SpacetimeGrid(5, 8, 8, 0.2, 0.75)
    f1, f2 = _trig_pair(rng, grid)
    a, _ = sampled_slab(p, f1, f2, grid)
    b, _ = sampled_slab(p, f2, f1, grid)
    combo = DiagonalFluctuationSlab(grid, 2.0 * a.xi1x - 0.5 * b.xi1x,
                                    2.0 * a.xi2y - 0.5 * b.xi2y)
    v_combo = spin_connection_general(p, combo)
    v_sum = 2.0 * spin_connection_general(p, a).tensor \
        - 0.5 * spin_connection_general(p, b).tensor
    np.testing.assert_allclose(v_combo.tensor, v_sum, rtol=0, atol=1e-13)


@pytest.mark.parametrize("scheme", ["central", "spectral"])
def test_sparse_contractions_match_dense_oracles(rng, scheme):
    # random xi (also with one component identically zero) and a connection
    # with all nine components populated, so no structural zero is assumed
    p = ModelParams(G=0.03, l=1.3, mu=1.0)
    grid = SpacetimeGrid(5, 8, 10, 0.2, 0.45)
    v = SpinConnectionSlab(grid, rng.normal(size=(3, 3) + grid.shape))
    for xi2y in (rng.normal(size=grid.shape), np.zeros(grid.shape)):
        xi = DiagonalFluctuationSlab(grid, rng.normal(size=grid.shape), xi2y)
        got = spin_connection_general(p, xi, scheme)
        want = dense_spin_connection_general(p, xi, scheme)
        np.testing.assert_allclose(got.tensor, want.tensor, rtol=1e-12, atol=0)
        for conn in (v, got):
            assert torsion_residual(p, xi, conn, scheme) == pytest.approx(
                dense_torsion_residual(p, xi, conn, scheme), rel=1e-12, abs=1e-15)


def test_slab_needs_three_time_slices():
    with pytest.raises(ValueError):
        SpacetimeGrid(2, 8, 8, 0.1, 0.5)


def test_spectral_derivative_exact_below_nyquist():
    n = 16
    h = 0.37
    x = np.arange(n) * h
    length = n * h
    f = np.sin(2 * np.pi * 3 * x / length + 0.4)
    df = (2 * np.pi * 3 / length) * np.cos(2 * np.pi * 3 * x / length + 0.4)
    np.testing.assert_allclose(spectral_difference(f, 0, h), df, atol=1e-12)
