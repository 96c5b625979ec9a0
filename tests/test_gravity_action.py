import tracemalloc

import numpy as np
import pytest

from gravlat.continuum import hgr_quadratic_form
from gravlat.geometry import (DiagonalFluctuationSlab, ModelParams,
                              SpacetimeGrid, SpinConnectionSlab,
                              random_bandlimited_slab, spin_connection_general)
from gravlat.gravity_action import (fierz_pauli_quadratic, fp_standard_form,
                                    legendre_hamiltonian_density,
                                    massive_fp_action, massive_fp_density,
                                    palatini_orders, palatini_total)

from conftest import (component_map, dense_fierz_pauli_quadratic, dense_fp_standard_form,
                      dense_palatini_orders, dense_palatini_total)


GRID = SpacetimeGrid(10, 12, 12, 0.17, 0.43)


def test_zero_slab_all_zero():
    p = ModelParams(G=0.07, l=1.0, mu=1.0)
    slab = DiagonalFluctuationSlab.zero(GRID)
    rep = palatini_orders(p, slab)
    assert rep.s0 == 0.0 and rep.s1 == 0.0 and rep.s2 == 0.0
    assert fierz_pauli_quadratic(p, slab) == 0.0
    assert massive_fp_action(p, slab) == 0.0


def test_flat_background_orders_vanish(rng):
    # s0 and s1 are contractions with vanishing background curvature/torsion
    p = ModelParams(G=0.03, l=1.2, mu=0.9)
    rep = palatini_orders(p, random_bandlimited_slab(rng, GRID, 4, 0.2))
    assert rep.s0 == 0.0
    assert rep.s1 == 0.0


def test_second_order_matches_double_eps_form(rng):
    p = ModelParams(G=0.021, l=1.31, mu=0.8)
    g8 = 8 * np.pi * p.G
    for _ in range(5):
        slab = random_bandlimited_slab(rng, GRID, 4, 0.2)
        rep = palatini_orders(p, slab)
        fp = fierz_pauli_quadratic(p, slab)
        assert rep.fp_quadratic == fp   # carried for the CLI, not recomputed
        assert abs(g8 * rep.s2 - fp) < 1e-10 * max(abs(fp), 1e-3)


def test_order_bookkeeping_total_action(rng):
    # total of (ebar + 8piG xi, 8piG v) equals s0/(8piG) + s1 + 8piG s2:
    # the expansion terminates at second order for this quadratic theory
    p = ModelParams(G=0.13, l=0.9, mu=1.1)
    slab = random_bandlimited_slab(rng, GRID, 4, 0.2)
    v = spin_connection_general(p, slab, scheme="spectral")
    total = palatini_total(p, slab, v)
    rep = palatini_orders(p, slab, v)
    target = rep.s0 / (8 * np.pi * p.G) + rep.s1 + 8 * np.pi * p.G * rep.s2
    assert abs(total - target) < 1e-10 * max(abs(total), 1e-3)
    assert abs(rep.residuals["order_bookkeeping"]) < 1e-10 * max(abs(total), 1e-3)


def test_sparse_actions_match_dense_oracles(rng):
    # a connection with all nine components populated, and the torsionless one
    p = ModelParams(G=0.021, l=1.31, mu=0.8)
    xi = random_bandlimited_slab(rng, GRID, 4, 0.2)
    v = SpinConnectionSlab(GRID, component_map(0.2 * rng.normal(size=(3, 3) + GRID.shape)))
    pairs = [(palatini_total(p, xi, v), dense_palatini_total(p, xi, v)),
             (fierz_pauli_quadratic(p, xi), dense_fierz_pauli_quadratic(p, xi)),
             (fp_standard_form(p, xi), dense_fp_standard_form(p, xi))]
    for conn in (v, None):
        got = palatini_orders(p, xi, conn).to_pairs()
        want = dense_palatini_orders(p, xi, conn).to_pairs()
        assert [k for k, _ in got] == [k for k, _ in want]
        pairs += [(g, w) for (_, g), (_, w) in zip(got, want)]
    # residuals that cancel to rounding are held to the scale of their terms
    scale = max(abs(w) for _, w in pairs)
    for g, w in pairs:
        assert g == pytest.approx(w, rel=1e-12, abs=1e-12 * scale)


def test_single_component_mode_gives_zero(rng):
    # one populated component: the cross-contraction annihilates everything
    p = ModelParams(G=1 / (8 * np.pi), l=1.0, mu=1.0)
    tt = np.arange(GRID.nt) * GRID.ht
    xx = np.arange(GRID.nx) * GRID.h
    t3, x3, _ = np.meshgrid(tt, xx, np.zeros(GRID.ny), indexing="ij")
    lt, lx = GRID.nt * GRID.ht, GRID.nx * GRID.h
    wave = 0.3 * np.sin(2 * np.pi * (x3 / lx - 2 * t3 / lt))
    slab = DiagonalFluctuationSlab(GRID, wave, np.zeros(GRID.shape))
    rep = palatini_orders(p, slab)
    fp = fierz_pauli_quadratic(p, slab)
    assert abs(rep.s2) < 1e-12
    assert abs(fp) < 1e-12


def test_standard_fp_oracle_agreement(rng):
    # the double-eps value equals the textbook quadratic form of h_munu
    # under the pinned 2 pi G / l^2 normalization
    p = ModelParams(G=0.017, l=1.23, mu=1.0)
    for _ in range(5):
        slab = random_bandlimited_slab(rng, GRID, 4, 0.2)
        fp = fierz_pauli_quadratic(p, slab)
        std = fp_standard_form(p, slab)
        assert abs(fp - std) < 1e-8 * max(abs(fp), 1e-3)


def test_massive_constant_field_value():
    # xi1x = xi2y = c, mu = 1, 8 pi G = 1: the action is +c^2 * volume
    p = ModelParams(G=1 / (8 * np.pi), l=1.0, mu=1.0)
    c = 0.42
    slab = DiagonalFluctuationSlab(GRID, np.full(GRID.shape, c), np.full(GRID.shape, c))
    volume = GRID.nt * GRID.ht * GRID.nx * GRID.h * GRID.ny * GRID.h
    np.testing.assert_allclose(massive_fp_action(p, slab), c * c * volume, rtol=1e-12)


def test_massive_swap_symmetry(rng):
    p = ModelParams(G=0.045, l=1.0, mu=0.7)
    slab = random_bandlimited_slab(rng, GRID, 4, 0.2)
    swapped = DiagonalFluctuationSlab(GRID, slab.xi2y, slab.xi1x)
    np.testing.assert_allclose(massive_fp_action(p, slab),
                               massive_fp_action(p, swapped), rtol=1e-12)


def test_massive_equals_quadratic_plus_mass_term(rng):
    # the mass deformation only adds +8 pi G mu^2 Int xi1 xi2
    p = ModelParams(G=0.05, l=1.1, mu=0.83)
    slab = random_bandlimited_slab(rng, GRID, 4, 0.2)
    fp = fierz_pauli_quadratic(p, slab)
    vol = GRID.volume_element
    mass_term = 8 * np.pi * p.G * p.mu ** 2 * float((slab.xi1x * slab.xi2y).sum()) * vol
    np.testing.assert_allclose(massive_fp_action(p, slab), fp + mass_term, rtol=1e-9)


def test_legendre_reconstruction_matches_quadratic_form(rng):
    p = ModelParams(G=0.037, l=1.4, mu=0.81)
    z = rng.normal(size=(4, 100))
    h_leg = legendre_hamiltonian_density(p, *z)
    h_form = hgr_quadratic_form(p).density(*z)
    assert np.abs(h_leg - h_form).max() < 1e-12


def test_legendre_rejects_topological_limit():
    p = ModelParams(G=0.0, l=1.0, mu=1.0)
    with pytest.raises(ValueError):
        legendre_hamiltonian_density(p, 0.1, 0.1, 0.0, 0.0)


def test_density_contraction_has_no_diagonal_squares():
    # eps^{ij} eps_{ab} on diagonal fields yields exactly twice the cross
    # term: scaling one component scales the density linearly
    p = ModelParams(G=0.1, l=1.0, mu=1.3)
    base = massive_fp_density(p, 1.0, 1.0, 0.5, 0.5)
    doubled_first = massive_fp_density(p, 2.0, 1.0, 1.0, 0.5)
    assert doubled_first == pytest.approx(2.0 * base, rel=1e-14)


def test_report_pairs_serialize(rng):
    p = ModelParams(G=0.05, l=1.0, mu=1.0)
    rep = palatini_orders(p, random_bandlimited_slab(rng, GRID, 4, 0.2))
    keys = [k for k, _ in rep.to_pairs()]
    assert keys[:4] == ["s0", "s1", "s2", "s_massive"]
    assert "fp_quadratic" not in keys
    assert any(k.startswith("residual_") for k in keys)


def test_action_functionals_memory_is_bounded_in_fields():
    # traced peak of action-check's slab functionals on a 16 x 32 x 32 slab,
    # in units of one field: 18.3 measured (derivatives built as their one
    # contraction reads them); 37.0 with whole derivative maps
    p = ModelParams(G=0.05, l=1.2, mu=0.9)
    grid = SpacetimeGrid(16, 32, 32, 0.2, 0.25)
    slab = random_bandlimited_slab(np.random.default_rng(20240817), grid, 4, 0.2)
    tracemalloc.start()
    try:
        palatini_orders(p, slab)
        fp_standard_form(p, slab)
        massive_fp_action(p, slab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 21 * slab.xi1x.nbytes


def test_fp_standard_form_memory_is_bounded_in_fields():
    # traced peak of fp_standard_form on a 16 x 32 x 32 slab, in units of one
    # field, after one untraced call (the first call holds one field more):
    # 15.04 measured contracting dh directly; 16.04 with its raised-index
    # copy dh_up, bitwise dh because h is spatial, where eta = +1
    p = ModelParams(G=0.05, l=1.2, mu=0.9)
    grid = SpacetimeGrid(16, 32, 32, 0.2, 0.25)
    slab = random_bandlimited_slab(np.random.default_rng(20240817), grid, 4, 0.2)
    fp_standard_form(p, slab)
    tracemalloc.start()
    try:
        fp_standard_form(p, slab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 15.5 * slab.xi1x.nbytes
