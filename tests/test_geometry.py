import numpy as np
import pytest

from gravlat.exceptions import DegenerateMetricError
from gravlat.geometry import (DiagonalFluctuationField, DiagonalFluctuationSlab,
                              Grid2D, ModelParams, SpacetimeGrid,
                              SpinConnectionSlab, central_difference,
                              metric_from_fluctuation, spectral_difference,
                              spin_connection_gauge_fixed,
                              spin_connection_general, torsion_residual)

from conftest import dense_spin_connection_general, dense_torsion_residual


def make_grid(nx=12, ny=12, h=0.5):
    return Grid2D(nx, ny, h)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(G=-0.1, l=1.0, mu=1.0)
    with pytest.raises(ValueError):
        ModelParams(G=0.1, l=0.0, mu=1.0)
    with pytest.raises(ValueError):
        ModelParams(G=0.1, l=1.0, mu=0.0)
    p = ModelParams(G=0.01, l=2.0, mu=1.0)
    np.testing.assert_allclose(p.weak_coupling_ratio, 8 * np.pi * 0.01 / 2.0)


def test_metric_flat_background():
    p = ModelParams(G=0.5, l=1.0, mu=1.0)
    xi = DiagonalFluctuationField.zero(make_grid())
    g = metric_from_fluctuation(p, xi)
    mats = g.as_matrices()
    assert np.array_equal(mats[3, 4], np.diag([-1.0, 1.0, 1.0]))


def test_metric_constant_fluctuation_value():
    # h_xx = 2 l xi1x with 8 pi G = 1: g_xx = 1 + 2*0.1 = 1.2 exactly
    p = ModelParams(G=1.0 / (8 * np.pi), l=1.0, mu=1.0)
    grid = make_grid()
    xi = DiagonalFluctuationField(grid, np.full(grid.shape, 0.1), np.zeros(grid.shape))
    g = metric_from_fluctuation(p, xi)
    np.testing.assert_allclose(g.gxx, 1.2, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(g.gyy, np.full(grid.shape, 1.0))


def test_metric_is_exact_bitwise(rng):
    p = ModelParams(G=0.013, l=1.7, mu=1.0)
    grid = make_grid()
    f1 = rng.normal(size=grid.shape) * 0.01
    f2 = rng.normal(size=grid.shape) * 0.01
    g = metric_from_fluctuation(p, DiagonalFluctuationField(grid, f1, f2))
    pref = 8 * np.pi * p.G * 2 * p.l
    assert np.array_equal(g.gxx, p.l ** 2 + pref * f1)
    assert np.array_equal(g.gyy, p.l ** 2 + pref * f2)


def test_metric_degeneracy_error():
    p = ModelParams(G=1.0, l=1.0, mu=1.0)
    grid = make_grid()
    bad = -1.0 / (16 * np.pi * p.G)  # makes l^2 + 16 pi G l xi = 0
    xi = DiagonalFluctuationField(grid, np.full(grid.shape, bad), np.zeros(grid.shape))
    with pytest.raises(DegenerateMetricError):
        metric_from_fluctuation(p, xi)


# ---------------------------------------------------------------------------
# connection, closed form
# ---------------------------------------------------------------------------

def test_gauge_fixed_zero_field():
    p = ModelParams(G=0.1, l=1.3, mu=1.0)
    v = spin_connection_gauge_fixed(p, DiagonalFluctuationField.zero(make_grid()))
    assert np.abs(v.as_tensor()).max() == 0.0


def test_gauge_fixed_static_profile():
    # static xi1x = eps sin(2 pi y / L): only v0x responds, via -d_y xi1x / l
    p = ModelParams(G=0.05, l=2.0, mu=1.0)
    grid = make_grid(16, 16, 0.25)
    ly = grid.ny * grid.h
    y = np.arange(grid.ny) * grid.h
    xi1 = 0.03 * np.sin(2 * np.pi * y / ly)[None, :] * np.ones((grid.nx, 1))
    fld = DiagonalFluctuationField(grid, xi1, np.zeros(grid.shape))
    v = spin_connection_gauge_fixed(p, fld)
    # contract: the stencil derivative exactly, the analytic one at O(h^2)
    np.testing.assert_array_equal(v.v0x, -central_difference(xi1, 1, grid.h) / p.l)
    dxi1_dy = 0.03 * (2 * np.pi / ly) * np.cos(2 * np.pi * y / ly)
    np.testing.assert_allclose(v.v0x, -dxi1_dy[None, :] / p.l * np.ones((grid.nx, 1)),
                               atol=1.5e-3)  # O(h^2) stencil error bound
    assert np.abs(v.v0x).max() > 1e-3  # genuinely nonzero
    for comp in (v.v0t, v.v0y, v.v1x, v.v1y, v.v2x, v.v2y):
        assert np.abs(comp).max() == 0.0


def test_gauge_fixed_constant_velocity():
    # constant d_t xi1x = c: the time components land in v2x, everything else
    # flat; the contraction feeding v0t has no diagonal support, so v0t = 0.
    p = ModelParams(G=0.02, l=1.0, mu=1.0)
    grid = make_grid()
    c = 0.7
    fld = DiagonalFluctuationField(grid, np.zeros(grid.shape), np.zeros(grid.shape),
                                   xi1x_dot=np.full(grid.shape, c))
    v = spin_connection_gauge_fixed(p, fld)
    assert np.abs(v.v0t).max() == 0.0
    np.testing.assert_array_equal(v.v2x, np.full(grid.shape, c))
    assert np.abs(v.v1y).max() == 0.0
    assert np.abs(v.v1x).max() == 0.0 and np.abs(v.v2y).max() == 0.0


# ---------------------------------------------------------------------------
# connection, general M-contraction on slabs
# ---------------------------------------------------------------------------

def _sampled_slab(field1, field2, grid):
    tt = (np.arange(grid.nt) - grid.nt // 2) * grid.ht
    xx = np.arange(grid.nx) * grid.h
    yy = np.arange(grid.ny) * grid.h
    t3, x3, y3 = np.meshgrid(tt, xx, yy, indexing="ij")
    return (DiagonalFluctuationSlab(grid, field1(t3, x3, y3), field2(t3, x3, y3)),
            (t3, x3, y3))


def _reference_connection(params, f1, f2, grid, coords):
    """Closed-form torsionless solution with analytic derivatives."""
    t3, x3, y3 = coords
    v = np.zeros((3, 3) + grid.shape)
    v[0, 1] = -f1(t3, x3, y3, dy=1) / params.l
    v[0, 2] = +f2(t3, x3, y3, dx=1) / params.l
    v[1, 2] = -f2(t3, x3, y3, dt=1)
    v[2, 1] = +f1(t3, x3, y3, dt=1)
    return SpinConnectionSlab(grid, v)


def test_general_zero_slab():
    p = ModelParams(G=0.1, l=1.0, mu=1.0)
    grid = SpacetimeGrid(4, 8, 8, 0.1, 0.5)
    v = spin_connection_general(p, DiagonalFluctuationSlab.zero(grid))
    assert np.abs(v.tensor).max() == 0.0


def test_general_matches_gauge_fixed_identically(trig_field_factory):
    # same finite-difference inputs -> the two formulas give the same matrix
    p = ModelParams(G=0.03, l=1.4, mu=1.0)
    grid = SpacetimeGrid(6, 12, 12, 0.2, 0.5)
    f1 = trig_field_factory(grid.nx * grid.h, grid.ny * grid.h)
    f2 = trig_field_factory(grid.nx * grid.h, grid.ny * grid.h)
    slab, _ = _sampled_slab(f1, f2, grid)
    v_gen = spin_connection_general(p, slab)
    mid = grid.nt // 2
    dots1 = central_difference(slab.xi1x, 0, grid.ht)[mid]
    dots2 = central_difference(slab.xi2y, 0, grid.ht)[mid]
    fld = DiagonalFluctuationField(Grid2D(grid.nx, grid.ny, grid.h),
                                   slab.xi1x[mid], slab.xi2y[mid], dots1, dots2)
    v_gf = spin_connection_gauge_fixed(p, fld)
    np.testing.assert_allclose(v_gen.slice_field(mid).as_tensor(), v_gf.as_tensor(),
                               rtol=0, atol=1e-14)


def test_discrete_torsion_identity(trig_field_factory):
    # the FD solution satisfies the FD torsion equation exactly
    p = ModelParams(G=0.03, l=0.8, mu=1.0)
    grid = SpacetimeGrid(6, 12, 12, 0.2, 0.5)
    f1 = trig_field_factory(grid.nx * grid.h, grid.ny * grid.h)
    f2 = trig_field_factory(grid.nx * grid.h, grid.ny * grid.h)
    slab, _ = _sampled_slab(f1, f2, grid)
    v = spin_connection_general(p, slab)
    assert torsion_residual(p, slab, v) < 1e-14


def test_torsion_residual_second_order(trig_field_factory):
    # against the analytic solution the residual is pure O(h^2): ratio ~ 4
    p = ModelParams(G=0.02, l=1.1, mu=1.0)
    lx = ly = 6.0
    f1 = trig_field_factory(lx, ly)
    f2 = trig_field_factory(lx, ly)
    values = {}
    for factor in (1, 2):
        grid = SpacetimeGrid(3, int(12 * factor), int(12 * factor),
                             0.2 / factor, lx / (12 * factor))
        slab, coords = _sampled_slab(f1, f2, grid)
        v_ref = _reference_connection(p, f1, f2, grid, coords)
        res = torsion_residual(p, slab, v_ref)
        v_gen = spin_connection_general(p, slab)
        agree = np.abs((v_gen.tensor - v_ref.tensor)[:, :, 1:-1]).max()
        values[factor] = (res, agree)
    res_ratio = values[1][0] / values[2][0]
    agree_ratio = values[1][1] / values[2][1]
    assert 3.0 < res_ratio < 5.0
    assert 3.0 < agree_ratio < 5.0


def test_connection_linearity(trig_field_factory):
    p = ModelParams(G=0.02, l=1.0, mu=1.0)
    grid = SpacetimeGrid(5, 8, 8, 0.2, 0.75)
    f1 = trig_field_factory(grid.nx * grid.h, grid.ny * grid.h)
    f2 = trig_field_factory(grid.nx * grid.h, grid.ny * grid.h)
    a, _ = _sampled_slab(f1, f2, grid)
    b, _ = _sampled_slab(f2, f1, grid)
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
