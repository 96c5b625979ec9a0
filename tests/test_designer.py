import numpy as np
import pytest

from gravlat.designer import (WEAK_FLUCTUATION_THRESHOLD, hubbard_integrals,
                              lowest_band_hopping, optical_params,
                              weak_fluctuation_check)
from gravlat.geometry import ModelParams
from gravlat.lattice import CouplingField, dirac_slopes


def test_reference_point_values():
    opt = optical_params(ModelParams(G=0.01, l=1.0, mu=1.0))
    assert opt.d_x == pytest.approx(-7.957747154594767, rel=1e-9)
    assert opt.d_z == pytest.approx(-5.626976975981912, rel=1e-9)
    assert opt.delta_x == pytest.approx(0.01052757802782865, rel=1e-9)
    assert opt.delta_z == pytest.approx(0.0210551560556573, rel=1e-9)
    assert opt.j_x0 == pytest.approx(2 / 3, rel=1e-12)


@pytest.mark.parametrize("G", [1e-3, 1e-2])
@pytest.mark.parametrize("l", [1.0, 2.0])
def test_exact_ratios_and_background(G, l):
    opt = optical_params(ModelParams(G=G, l=l, mu=1.0))
    assert opt.d_x / opt.d_z == np.sqrt(2.0)
    assert opt.delta_z == 2.0 * opt.delta_x
    assert abs(opt.j_x0 - 2 / (3 * l)) < 1e-12
    assert abs(opt.j_z0 - 2 / (3 * l)) < 1e-12
    # the induced background sits on the isotropic cone with velocity 1/l
    (a_p, b_p), _ = dirac_slopes(CouplingField.uniform(opt.j_x0, opt.j_x0, opt.j_z0))
    assert abs(abs(a_p) - 1 / l) < 1e-10
    assert abs(abs(b_p) - 1 / l) < 1e-10


def test_amplitude_is_g_scaled_but_coupling_product_is_not():
    a = optical_params(ModelParams(G=1e-3, l=1.0, mu=1.0))
    b = optical_params(ModelParams(G=1e-2, l=1.0, mu=1.0))
    assert a.d_x / b.d_x == pytest.approx(10.0, rel=1e-12)
    assert a.delta_x / b.delta_x == pytest.approx(0.01, rel=1e-12)
    assert a.j_x0 == pytest.approx(b.j_x0, rel=1e-12)


def test_unbounded_condensate_at_zero_coupling():
    with pytest.raises(ValueError):
        optical_params(ModelParams(G=0.0, l=1.0, mu=1.0))


@pytest.mark.parametrize("G,l,mu", [
    (1e300, 1.0, 1.0), (0.01, 1e200, 1.0), (0.01, 1.0, 1e200),   # overflow
    (0.01, 1e-200, 1.0),                                         # l^3 underflows to 0
    (1e-320, 1.0, 1.0),                                          # 1/G overflows
    (1e-150, 1.0, 1.0),                                          # G^3 underflows to 0
])
def test_constants_that_overflow_or_underflow_raise_value_error(G, l, mu):
    with pytest.raises(ValueError, match="overflow or underflow"):
        optical_params(ModelParams(G=G, l=l, mu=mu))


def test_weak_fluctuation_vacuum_passes():
    opt = optical_params(ModelParams(G=0.01, l=1.0, mu=1.0))
    rep = weak_fluctuation_check([0.0, 0.0], ["x", "z"], opt)
    assert rep.passed
    assert rep.ratios == (0.0, 0.0)


def test_weak_fluctuation_threshold_example():
    # <d+d> = 1 against D_x^2 ~ 63.3 is a ratio of 1.58e-2: above the 1e-2 window
    opt = optical_params(ModelParams(G=0.01, l=1.0, mu=1.0))
    fail = weak_fluctuation_check([1.0], ["x"], opt)
    assert not fail.passed
    assert fail.ratios[0] == pytest.approx(0.015791367, rel=1e-6)
    assert ("threshold", 0.01) in fail.to_pairs()


def test_weak_fluctuation_ratio_at_the_threshold_passes():
    # D = -10 exactly (G = 1/(40 pi) at l = 1) and <d+d> = 1: the ratio is
    # exactly 1e-2, and the window is closed, so the mode passes
    opt = optical_params(ModelParams(G=1 / (40 * np.pi), l=1.0, mu=1.0))
    assert opt.d_x == -10.0
    rep = weak_fluctuation_check([1.0, 0.0], ["x", "z"], opt)
    assert rep.ratios[0] == WEAK_FLUCTUATION_THRESHOLD == 1e-2
    assert rep.passed
    assert not weak_fluctuation_check([np.nextafter(1.0, 2.0)], ["x"], opt).passed


# ---------------------------------------------------------------------------
# overlap integrals
# ---------------------------------------------------------------------------

def test_band_hopping_basis_converged():
    t25 = lowest_band_hopping(10.0, n_plane_waves=25)
    t40 = lowest_band_hopping(10.0, n_plane_waves=40)
    assert abs(t25 - t40) < 1e-10


def test_band_hopping_deep_lattice_asymptotics():
    # t(v0) falls toward zero monotonically for isolated wells
    depths = [2.0, 5.0, 10.0, 20.0, 40.0]
    ts = [lowest_band_hopping(v) for v in depths]
    assert all(a > b > 0 for a, b in zip(ts, ts[1:]))
    assert ts[-1] < 2e-4


def test_hubbard_monotonicity_grid():
    depths = [2.0, 4.0, 8.0, 16.0]
    res = [hubbard_integrals(v, 0.05, 1.0, 1.0) for v in depths]
    t_vals = [r.t[0] for r in res]
    u_vals = [r.u for r in res]
    assert all(a > b for a, b in zip(t_vals, t_vals[1:]))
    assert all(a < b for a, b in zip(u_vals, u_vals[1:]))


def test_hubbard_u_scalings():
    base = hubbard_integrals(10.0, 0.05, 1.0, 1.0)
    double_as = hubbard_integrals(10.0, 0.10, 1.0, 1.0)
    assert double_as.u == pytest.approx(2 * base.u, rel=1e-12)
    # u ~ sigma^-3 under the Gaussian orbital approximation
    wider = hubbard_integrals(10.0, 0.05, 1.0, 2.0)
    assert wider.u == pytest.approx(base.u * (base.sigma[0] / wider.sigma[0]) ** 3,
                                    rel=1e-12)


def test_hubbard_anisotropic_depths_and_validity_flag():
    r = hubbard_integrals((4.0, 9.0, 16.0), 0.05, 1.0, 1.0)
    assert r.t[0] > r.t[1] > r.t[2]
    assert r.tight_binding_ok
    shallow = hubbard_integrals(0.5, 0.05, 1.0, 1.0)
    assert not shallow.tight_binding_ok  # flagged but still computed
    assert shallow.t[0] > 0


@pytest.mark.parametrize("v0", [0.0, -1.0, (4.0, 0.0, 9.0)])
def test_hubbard_rejects_a_depth_that_is_not_positive(v0):
    # a zero depth gave sigma = inf and u = 0.0 with a divide-by-zero warning
    with pytest.raises(ValueError, match="lattice depths must be > 0"):
        hubbard_integrals(v0, 0.05, 1.0, 1.0)
