from fractions import Fraction

import numpy as np
import pytest

from gravlat.continuum import (ELIMINATION_RATIO, dressed_velocities, gamma_set,
                               gaussian_elimination_oracle,
                               hgr_quadratic_form, integrate_out_geometry,
                               normal_mode_frequencies, single_particle_symbol,
                               symplectic_frequencies)
from gravlat.exceptions import TopologicalLimitError
from gravlat.geometry import ModelParams

from conftest import symbolic_elimination_ratio


def test_clifford_algebra():
    assert gamma_set().anticommutator_defects() < 1e-15


def test_gamma_hermiticity_pattern():
    g = gamma_set()
    assert np.array_equal(g.g0.conj().T, -g.g0)
    assert np.array_equal(g.g1.conj().T, g.g1)
    assert np.array_equal(g.g2.conj().T, g.g2)
    for ga in (g.g1, g.g2):
        prod = g.g0 @ ga
        np.testing.assert_allclose(prod.conj().T, prod, atol=0)


def test_symbol_flat_point():
    p = ModelParams(G=0.0, l=1.0, mu=1.0)
    h = single_particle_symbol(p, (0, 0, 0, 0), (1.0, 0.0))
    evals = np.sort(np.linalg.eigvalsh(h))
    np.testing.assert_allclose(evals, [-1, -1, 1, 1], atol=1e-14)


def test_symbol_velocity_scale():
    p = ModelParams(G=0.0, l=2.0, mu=1.0)
    h = single_particle_symbol(p, (0, 0, 0, 0), (0.0, 3.0))
    evals = np.sort(np.linalg.eigvalsh(h))
    np.testing.assert_allclose(evals, [-1.5, -1.5, 1.5, 1.5], atol=1e-14)


def test_symbol_velocity_renormalized_to_zero():
    # 8 pi G xi / l^2 = 1/l exactly: the x velocity collapses
    p = ModelParams(G=1 / (8 * np.pi), l=1.0, mu=1.0)
    h = single_particle_symbol(p, (1.0, 0.0, 0.0, 0.0), (1.0, 0.0))
    np.testing.assert_allclose(np.linalg.eigvalsh(h), np.zeros(4), atol=1e-14)


def test_symbol_hermitian_without_gradients(rng):
    p = ModelParams(G=0.05, l=1.3, mu=1.0)
    for _ in range(25):
        xi = rng.normal(size=2) * 0.3
        momentum = rng.normal(size=2)
        h = single_particle_symbol(p, (xi[0], xi[1], 0.0, 0.0), momentum)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


def test_symbol_closed_form_eigenvalues(rng):
    p = ModelParams(G=0.02, l=1.1, mu=1.0)
    for _ in range(20):
        xi = rng.normal(size=2) * 0.2
        momentum = rng.normal(size=2)
        h = single_particle_symbol(p, (xi[0], xi[1], 0.0, 0.0), momentum)
        vx, vy = dressed_velocities(p, xi[0], xi[1])
        e = np.sqrt(vx ** 2 * momentum[0] ** 2 + vy ** 2 * momentum[1] ** 2)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h)),
                                   [-e, -e, e, e], atol=1e-12)


def test_symbol_flat_limit_as_coupling_vanishes():
    ps = ModelParams(G=1e-9, l=1.0, mu=1.0)
    p0 = ModelParams(G=0.0, l=1.0, mu=1.0)
    h_small = single_particle_symbol(ps, (0.4, -0.2, 0.1, 0.3), (0.7, -0.4))
    h_flat = single_particle_symbol(p0, (0.4, -0.2, 0.1, 0.3), (0.7, -0.4))
    assert np.abs(h_small - h_flat).max() < 1e-7


def test_symbol_gradient_term_is_operator_hermitian():
    """The gradient piece is the symmetrization remainder: on a ring,
    v(x)(-i d_x) + i (4 pi G / l^2)(d_x xi) equals the manifestly Hermitian
    {v, -i d_x}/2 on band-limited states, while the pointwise symbol with
    nonzero gradients is not a Hermitian matrix."""
    p = ModelParams(G=0.02, l=1.0, mu=1.0)
    n = 64
    length = 2 * np.pi
    hstep = length / n
    x = np.arange(n) * hstep
    xi_prof = 0.3 * np.sin(x)
    dxi_prof = 0.3 * np.cos(x)
    vx = dressed_velocities(p, xi_prof, 0.0)[0]
    grad_coeff = 4 * np.pi * p.G / p.l ** 2 * dxi_prof  # equals -(dv/dx)/2
    k = 2 * np.pi * np.fft.fftfreq(n, d=hstep)
    k[n // 2] = 0.0
    fourier = np.fft.fft(np.eye(n), axis=0)
    p_op = np.fft.ifft(k[:, None] * fourier, axis=0)  # -i d/dx on the ring
    h_sym = 0.5 * (np.diag(vx) @ p_op + p_op @ np.diag(vx))
    assert np.abs(h_sym - h_sym.conj().T).max() < 1e-12
    h_symbol_form = np.diag(vx) @ p_op + 1j * np.diag(grad_coeff)
    for mode in range(-8, 9):
        psi = np.exp(1j * mode * x)
        np.testing.assert_allclose(h_symbol_form @ psi, h_sym @ psi, atol=1e-10)
    # and the pointwise symbol with a gradient is genuinely non-Hermitian
    h_point = single_particle_symbol(p, (0.1, 0.0, 0.5, 0.0), (1.0, 0.0))
    assert np.abs(h_point - h_point.conj().T).max() > 1e-3


# ---------------------------------------------------------------------------
# quadratic boson sector
# ---------------------------------------------------------------------------

def test_quadratic_form_reference_coefficients():
    p = ModelParams(G=1 / (8 * np.pi), l=1.0, mu=1.0)
    form = hgr_quadratic_form(p)
    assert form.kinetic_coeff == pytest.approx(-1.0, rel=1e-14)
    assert form.mass_coeff == pytest.approx(-1.0, rel=1e-14)
    assert form.q_minus_coeff == pytest.approx(0.5, rel=1e-14)
    assert form.q_plus_coeff == pytest.approx(-0.5, rel=1e-14)


def test_quadratic_form_swap_symmetry(rng):
    p = ModelParams(G=0.03, l=1.0, mu=1.2)
    form = hgr_quadratic_form(p)
    z = rng.normal(size=4)
    swapped = np.array([z[1], z[0], z[3], z[2]])
    assert form.density(*z) == pytest.approx(form.density(*swapped), rel=1e-14)


def test_quadratic_form_topological_limit():
    with pytest.raises(TopologicalLimitError):
        hgr_quadratic_form(ModelParams(G=0.0, l=1.0, mu=1.0))


@pytest.mark.parametrize("G", [1e-3, 1e-2])
@pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
def test_normal_modes_equal_mu(G, mu):
    p = ModelParams(G=G, l=1.0, mu=mu)
    omega_p, omega_m, signature = normal_mode_frequencies(p)
    assert omega_p == pytest.approx(mu, abs=1e-12)
    assert omega_m == pytest.approx(mu, abs=1e-12)
    assert signature == (+1, -1)
    oracle = symplectic_frequencies(hgr_quadratic_form(p).matrix())
    np.testing.assert_allclose(oracle, [mu, mu], atol=1e-10)


def test_normal_modes_massless_scaling():
    p = ModelParams(G=0.01, l=1.0, mu=1e-8)
    omega_p, _, _ = normal_mode_frequencies(p)
    assert omega_p < 1e-7


def test_normal_modes_reject_topological_limit():
    with pytest.raises(TopologicalLimitError):
        normal_mode_frequencies(ModelParams(G=0.0, l=1.0, mu=1.0))


# ---------------------------------------------------------------------------
# the induced interaction
# ---------------------------------------------------------------------------

def test_integrate_out_reference_coefficient():
    # -4 pi G / (l^2 mu^2) at G = 1/(4 pi), l = mu = 1 is exactly -1
    p = ModelParams(G=1 / (4 * np.pi), l=1.0, mu=1.0)
    eff = integrate_out_geometry(p)
    assert eff.coefficient == pytest.approx(-1.0, rel=1e-14)
    assert eff.coefficient_over_unit == -4


def test_elimination_ratio_matches_symbolic_oracle():
    assert symbolic_elimination_ratio() == ELIMINATION_RATIO
    assert ELIMINATION_RATIO == Fraction(-4)


def test_integrate_out_quadrature_oracle(rng):
    for _ in range(5):
        p = ModelParams(G=rng.uniform(0.005, 0.05), l=rng.uniform(0.7, 1.6),
                        mu=rng.uniform(0.5, 1.5))
        j1, j2 = rng.normal(size=2)
        closed = -4 * np.pi * p.G / (p.l ** 2 * p.mu ** 2) * 2 * j1 * j2
        oracle = gaussian_elimination_oracle(p, j1, j2)
        assert abs(oracle - closed) < 1e-8 * max(1.0, abs(closed))


def test_integrate_out_linear_in_coupling():
    e1 = integrate_out_geometry(ModelParams(G=1e-3, l=1.0, mu=1.0))
    e2 = integrate_out_geometry(ModelParams(G=2e-3, l=1.0, mu=1.0))
    assert e2.coefficient == pytest.approx(2 * e1.coefficient, rel=1e-12)


def test_massless_limit_rejected_at_type_level():
    # the massless divergence of the elimination is unreachable: mu = 0 is
    # already an invalid parameter set
    with pytest.raises(ValueError):
        ModelParams(G=0.01, l=1.0, mu=0.0)
