import tracemalloc

import numpy as np
import pytest

from gravlat import geometry
from gravlat.geometry import (DiagonalFluctuationSlab, ModelParams, SpacetimeGrid,
                              SpinConnectionSlab, TrigField, central_difference,
                              connection_refinement, sampled_slab,
                              spectral_difference, spin_connection_gauge_fixed,
                              spin_connection_general, torsion_residual)

from conftest import (component_map, dense_spin_connection_general, dense_tensor,
                      dense_torsion_residual)


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
    return all(np.abs(arr).max() == 0.0
               for idx, arr in v.components.items() if idx not in components)


def test_gauge_fixed_zero_field():
    p = ModelParams(G=0.1, l=1.3, mu=1.0)
    v = spin_connection_gauge_fixed(p, DiagonalFluctuationSlab.zero(make_grid()))
    assert isinstance(v, SpinConnectionSlab)
    assert _zero_except(v)


def test_gauge_fixed_static_profile():
    # static xi1x = eps sin(2 pi y / L): only v0x responds, via -d_y xi1x / l
    p = ModelParams(G=0.05, l=2.0, mu=1.0)
    grid = make_grid(nx=16, ny=16, h=0.25)
    ly = grid.ny * grid.h
    y = np.arange(grid.ny) * grid.h
    xi1 = 0.03 * np.sin(2 * np.pi * y / ly) * np.ones(grid.shape)
    v = spin_connection_gauge_fixed(p, DiagonalFluctuationSlab(grid, xi1, np.zeros(grid.shape)))
    v0x = v.components[0, 1]
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
    np.testing.assert_array_equal(v.components[2, 1][1:-1], np.full(grid.shape, c)[1:-1])
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
    assert _zero_except(v)


def test_general_matches_gauge_fixed_identically(rng):
    # same finite-difference inputs -> the two formulas give the same tensor
    # on every slice, the wrapped first and last ones included
    p = ModelParams(G=0.03, l=1.4, mu=1.0)
    grid = SpacetimeGrid(6, 12, 12, 0.2, 0.5)
    slab, _ = sampled_slab(p, *_trig_pair(rng, grid), grid)
    v_gen = spin_connection_general(p, slab)
    v_gf = spin_connection_gauge_fixed(p, slab)
    np.testing.assert_allclose(dense_tensor(v_gen.components, grid.shape),
                               dense_tensor(v_gf.components, grid.shape), rtol=0, atol=1e-14)


def test_discrete_torsion_identity(rng):
    # the FD solution satisfies the FD torsion equation exactly
    p = ModelParams(G=0.03, l=0.8, mu=1.0)
    grid = SpacetimeGrid(6, 12, 12, 0.2, 0.5)
    slab, _ = sampled_slab(p, *_trig_pair(rng, grid), grid)
    v = spin_connection_general(p, slab)
    assert torsion_residual(p, slab, v) < 1e-14


def test_torsion_residual_takes_only_the_derivatives_epsilon_reads(rng, monkeypatch):
    # eps^{mu nu rho} vanishes at nu = rho: of the six d_nu xi^A_rho of a
    # diagonal slab, d_x xi^1_x and d_y xi^2_y are never read, so never taken
    p = ModelParams(G=0.03, l=0.8, mu=1.0)
    grid = SpacetimeGrid(6, 12, 12, 0.2, 0.5)
    slab, _ = sampled_slab(p, *_trig_pair(rng, grid), grid)
    v = spin_connection_general(p, slab)
    taken = []

    def counting(arr, axis, spacing):
        taken.append(axis)
        return central_difference(arr, axis, spacing)

    monkeypatch.setitem(geometry._DIFFERENCES, "central", counting)
    torsion_residual(p, slab, v)
    assert sorted(taken) == [0, 0, 1, 2]


def test_torsion_residual_second_order(rng):
    # against the analytic solution the residual is pure O(h^2): ratio ~ 4
    p = ModelParams(G=0.02, l=1.1, mu=1.0)
    grid = SpacetimeGrid(3, 12, 12, 0.2, 0.5)
    (res_h, agree_h), (res_half, agree_half) = connection_refinement(
        p, *_trig_pair(rng, grid), grid)
    assert 3.0 < res_h / res_half < 5.0
    assert 3.0 < agree_h / agree_half < 5.0


@pytest.mark.parametrize("nt", [5, 6, 10, 16])
def test_refinement_chunks_match_one_slab(rng, nt):
    # the h/2 level has 2 nt - 3 slices, evaluated in chunks: 5 of 3 slices
    # at nt = 5, 7 of 3 at nt = 6, 8 of 3-4 at nt = 10 and 7 of 5-6 at nt = 16
    p = ModelParams(G=0.02, l=1.1, mu=1.0)
    grid = SpacetimeGrid(nt, 8, 8, 0.2, 0.75)
    f1, f2 = _trig_pair(rng, grid)
    _, (res_half, agree_half) = connection_refinement(p, f1, f2, grid)
    fine = SpacetimeGrid(2 * nt - 3, 16, 16, grid.ht / 2, grid.h / 2)
    # the fine interior spans the h interior [t_1, t_{nt-2}] of the default times
    t = (np.arange(2 * nt - 3) - (2 * (nt // 2) - 1)) * fine.ht
    slab, v_ref = sampled_slab(p, f1, f2, fine, t)
    v_gen = spin_connection_general(p, slab)
    assert res_half == torsion_residual(p, slab, v_ref)
    assert agree_half == np.abs(dense_tensor(v_gen.components, fine.shape)
                                - dense_tensor(v_ref.components, fine.shape))[:, :, 1:-1].max()


@pytest.mark.parametrize("nt", [3, 4, 5, 7, 16])
def test_refinement_chunks_tile_the_fine_interior(rng, monkeypatch, nt):
    # the h/2 level (2 nt - 3 slices) runs in chunks of at most
    # max(3, (nt + 8) // 4) slices whose interiors cover its interior once
    # each, in time order
    p = ModelParams(G=0.02, l=1.1, mu=1.0)
    grid = SpacetimeGrid(nt, 4, 6, 0.2, 0.75)
    calls = []

    def recording(params, f1, f2, g, t=None):
        calls.append((g, t))
        return real(params, f1, f2, g, t)

    real = geometry._connection_errors
    monkeypatch.setattr(geometry, "_connection_errors", recording)
    connection_refinement(p, *_trig_pair(rng, grid), grid)
    assert [(g, t) for g, t in calls if t is None] == [(grid, None)]
    chunks = [t for _, t in calls if t is not None]
    assert [g for g, t in calls if t is not None] == [
        SpacetimeGrid(len(t), 8, 12, grid.ht / 2, grid.h / 2) for t in chunks]
    assert all(3 <= len(t) <= max(3, (nt + 8) // 4) for t in chunks)
    interiors = np.concatenate([t[1:-1] for t in chunks])
    coarse_t = (np.arange(nt) - nt // 2) * grid.ht  # sampled_slab's default times
    assert len(interiors) == 2 * nt - 5
    assert interiors[0] == coarse_t[1] and interiors[-1] == coarse_t[-2]
    np.testing.assert_allclose(np.diff(interiors), grid.ht / 2, rtol=1e-12)


def test_refinement_memory_is_bounded_in_coarse_fields(rng):
    # traced peak of the whole study on a 16 x 32 x 32 slab, in units of one
    # coarse field: 21.3 measured (a refined chunk of 6 slices, derivatives
    # built as they are read); 50 with chunks of nt // 2 slices and whole
    # derivative maps, 160 with dense (3, 3) slab tensors and nt-slice chunks
    p = ModelParams(G=0.02, l=1.1, mu=1.0)
    grid = SpacetimeGrid(16, 32, 32, 0.2, 0.25)
    f1, f2 = _trig_pair(rng, grid)
    field_bytes = np.zeros(grid.shape).nbytes
    tracemalloc.start()
    try:
        connection_refinement(p, f1, f2, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24.5 * field_bytes


def test_connection_slab_rejects_misfit_components():
    grid = make_grid()
    with pytest.raises(ValueError):
        SpinConnectionSlab(grid, {(0, 1): np.zeros((3, 12, 12))})
    with pytest.raises(ValueError):
        SpinConnectionSlab(grid, {(3, 0): np.zeros(grid.shape)})


def test_connection_linearity(rng):
    p = ModelParams(G=0.02, l=1.0, mu=1.0)
    grid = SpacetimeGrid(5, 8, 8, 0.2, 0.75)
    f1, f2 = _trig_pair(rng, grid)
    a, _ = sampled_slab(p, f1, f2, grid)
    b, _ = sampled_slab(p, f2, f1, grid)
    combo = DiagonalFluctuationSlab(grid, 2.0 * a.xi1x - 0.5 * b.xi1x,
                                    2.0 * a.xi2y - 0.5 * b.xi2y)
    def dense(xi):
        return dense_tensor(spin_connection_general(p, xi).components, grid.shape)

    np.testing.assert_allclose(dense(combo), 2.0 * dense(a) - 0.5 * dense(b),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("scheme", ["central", "spectral"])
def test_sparse_contractions_match_dense_oracles(rng, scheme):
    # random xi (also with one component identically zero) and a connection
    # with all nine components populated, so no structural zero is assumed;
    # the scheme is the connection's, the torsion is always central
    p = ModelParams(G=0.03, l=1.3, mu=1.0)
    grid = SpacetimeGrid(5, 8, 10, 0.2, 0.45)
    v = SpinConnectionSlab(grid, component_map(rng.normal(size=(3, 3) + grid.shape)))
    for xi2y in (rng.normal(size=grid.shape), np.zeros(grid.shape)):
        xi = DiagonalFluctuationSlab(grid, rng.normal(size=grid.shape), xi2y)
        got = spin_connection_general(p, xi, scheme)
        want = dense_spin_connection_general(p, xi, scheme)
        np.testing.assert_allclose(dense_tensor(got.components, grid.shape),
                                   dense_tensor(want.components, grid.shape),
                                   rtol=1e-12, atol=0)
        for conn in (v, got):
            assert torsion_residual(p, xi, conn) == pytest.approx(
                dense_torsion_residual(p, xi, conn), rel=1e-12, abs=1e-15)


def test_slab_needs_three_time_slices():
    with pytest.raises(ValueError):
        SpacetimeGrid(2, 8, 8, 0.1, 0.5)


@pytest.mark.parametrize("shape", [(3, 4, 5), (4, 3, 6), (5, 6, 3), (4, 4, 4)])
def test_central_difference_is_the_roll_formula(rng, shape):
    arr = rng.normal(size=shape)
    for axis in range(3):
        want = (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * 0.3)
        np.testing.assert_array_equal(central_difference(arr, axis, 0.3), want)


def test_spectral_derivative_exact_below_nyquist():
    n = 16
    h = 0.37
    x = np.arange(n) * h
    length = n * h
    f = np.sin(2 * np.pi * 3 * x / length + 0.4)
    df = (2 * np.pi * 3 / length) * np.cos(2 * np.pi * 3 * x / length + 0.4)
    np.testing.assert_allclose(spectral_difference(f, 0, h), df, atol=1e-12)
