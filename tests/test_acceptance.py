"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 7 and 9 carry scaling windows that the faithful construction does
not reach (the measured exponents are one power of the coupling steeper
than the windows assume, because the quartic-reduction defects sit inside
terms whose prefactors already scale with the coupling).  Those sub-checks
are asserted as stated and fail honestly; the companion regression tests in
test_manybody.py pin the measured exponents.  See notes outside the
package for the full analysis.
"""

import time

import numpy as np
import sympy as sp

from gravlat.cli import main
from gravlat.continuum import (gaussian_elimination_oracle, hgr_quadratic_form,
                               integrate_out_geometry, normal_mode_frequencies,
                               symplectic_frequencies)
from gravlat.geometry import (ModelParams, SpacetimeGrid, TrigField,
                              connection_refinement, random_bandlimited_slab)
from gravlat.gravity_action import (fierz_pauli_quadratic,
                                    legendre_hamiltonian_density,
                                    palatini_orders)
from gravlat.designer import optical_params
from gravlat.lattice import (CouplingField, LatticeSpec, bloch_f,
                             bloch_gradient, dirac_slopes, fermi_points)
from gravlat.manybody import (FockSpace, assemble_background_hopping,
                              assemble_simulator_hamiltonian,
                              correlators_and_wick, ground_state,
                              mapping_residual)

from conftest import full_space_d, q_map_commutators, q_pair


def _report(number, checks, started, limit):
    elapsed = time.perf_counter() - started
    ok = all(flag for _, flag, _ in checks) and elapsed < limit
    details = "; ".join(f"{name}{'' if flag else ' <-- FAIL'} ({info})"
                        for name, flag, info in checks)
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.2f}s/{limit:.0f}s] {details}")
    assert elapsed < limit, f"runtime {elapsed:.2f}s over the {limit}s budget"
    for name, flag, info in checks:
        assert flag, f"criterion {number} sub-check '{name}' failed: {info}"


def test_criterion_01_fermi_points():
    started = time.perf_counter()
    worst_res = 0.0
    worst_seed = 0.0
    for jz in np.arange(0.1, 2.0, 0.1):
        c = CouplingField.uniform(1.0, 1.0, float(jz))
        p_plus, p_minus = fermi_points(c)
        worst_res = max(worst_res, abs(bloch_f(c, p_plus)), abs(bloch_f(c, p_minus)))
        closed = 2 / np.sqrt(3) * np.arccos(-jz / 2.0)
        worst_seed = max(worst_seed, abs(p_plus[0] - closed))
    # the cosine inversion without the factor 2 misses the root at J_z = 1
    c1 = CouplingField.uniform(1.0, 1.0, 1.0)
    alt = 2 / np.sqrt(3) * np.arccos(-1.0)
    alt_residual = abs(bloch_f(c1, (alt, 0.0)))
    checks = [
        ("root residuals <= 1e-12", worst_res <= 1e-12, f"max {worst_res:.2e}"),
        ("closed form to 1e-9", worst_seed <= 1e-9, f"max {worst_seed:.2e}"),
        ("uncompensated arccos fails", alt_residual > 1e-12, f"residual {alt_residual:.3f}"),
    ]
    _report(1, checks, started, 1.0)


def test_criterion_02_dirac_slopes():
    started = time.perf_counter()
    worst = 0.0
    for jz in np.arange(0.1, 2.0, 0.1):
        c = CouplingField.uniform(1.0, 1.0, float(jz))
        (a_p, b_p), (a_m, b_m) = dirac_slopes(c)
        p_plus, p_minus = fermi_points(c)
        scale = max(abs(a_p), abs(b_p))
        for point, a_ref, b_ref in ((p_plus, a_p, b_p), (p_minus, a_m, b_m)):
            dfx, dfy = bloch_gradient(c, point)
            worst = max(worst, abs(dfx.real - a_ref) / scale,
                        abs(-dfy.imag - b_ref) / scale)
    (a1, b1), _ = dirac_slopes(CouplingField.uniform(1.0, 1.0, 1.0))
    (a23, b23), _ = dirac_slopes(CouplingField.uniform(2 / 3, 2 / 3, 2 / 3))
    checks = [
        ("gradient agreement 1e-6", worst <= 1e-6, f"max rel {worst:.2e}"),
        ("isotropic J=1 speed 1.5", abs(abs(a1) - 1.5) < 1e-12 and abs(abs(b1) - 1.5) < 1e-12,
         f"|A|={abs(a1)}, |B|={abs(b1)}"),
        ("isotropic J=2/3 speed 1.0", abs(abs(a23) - 1.0) < 1e-12 and abs(abs(b23) - 1.0) < 1e-12,
         f"|A|={abs(a23)}"),
    ]
    _report(2, checks, started, 1.0)


def test_criterion_03_geometry_refinement():
    started = time.perf_counter()
    rng = np.random.default_rng(90210)
    params = ModelParams(G=0.02, l=1.1, mu=1.0)
    lx = ly = 6.4
    f1 = TrigField(rng, 3, 0.05, lx, ly)
    f2 = TrigField(rng, 3, 0.05, lx, ly)
    (res_h, agr_h), (res_half, agr_half) = connection_refinement(
        params, f1, f2, SpacetimeGrid(3, 16, 16, 0.2, lx / 16))
    res_ratio = res_h / res_half
    agr_ratio = agr_h / agr_half
    checks = [
        ("torsion residual ratio ~ 4", 3.0 < res_ratio < 5.0, f"ratio {res_ratio:.2f}"),
        ("agreement ratio ~ 4", 3.0 < agr_ratio < 5.0, f"ratio {agr_ratio:.2f}"),
    ]
    _report(3, checks, started, 10.0)


def test_criterion_04_action_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(41)
    params = ModelParams(G=1 / (8 * np.pi), l=1.0, mu=0.9)  # 8 pi G = 1
    grid = SpacetimeGrid(10, 12, 12, 0.17, 0.43)
    flat_ok = True
    quad_worst = 0.0
    for _ in range(5):
        slab = random_bandlimited_slab(rng, grid, 4, 0.2)
        rep = palatini_orders(params, slab)
        flat_ok &= (abs(rep.s0) <= 1e-12 and abs(rep.s1) <= 1e-12)
        fp = fierz_pauli_quadratic(params, slab)
        order2 = 8 * np.pi * params.G * rep.s2  # equals s2 here: 8 pi G = 1
        quad_worst = max(quad_worst, abs(order2 - fp) / max(abs(fp), 1e-12))
    z = np.random.default_rng(7).normal(size=(4, 100))
    leg = legendre_hamiltonian_density(params, *z)
    form = hgr_quadratic_form(params)
    leg_worst = float(np.abs(leg - form.density(*z)).max())
    checks = [
        ("flat orders vanish to 1e-12", flat_ok, "s0 = s1 = 0"),
        ("order-2 vs double-eps form 1e-8", quad_worst <= 1e-8, f"max rel {quad_worst:.2e}"),
        ("Legendre reconstruction 1e-12", leg_worst <= 1e-12, f"max {leg_worst:.2e}"),
    ]
    _report(4, checks, started, 30.0)


def test_criterion_05_graviton_mass():
    started = time.perf_counter()
    worst = 0.0
    signature_ok = True
    for g in (1e-3, 1e-2):
        for mu in (0.1, 0.5, 1.0):
            p = ModelParams(G=g, l=1.0, mu=mu)
            omega_p, omega_m, signature = normal_mode_frequencies(p)
            worst = max(worst, abs(omega_p - mu), abs(omega_m - mu))
            oracle = symplectic_frequencies(hgr_quadratic_form(p).matrix())
            worst = max(worst, float(np.abs(oracle - mu).max()))
            signature_ok &= signature == (+1, -1)
    checks = [
        ("frequencies equal mu to 1e-10", worst <= 1e-10, f"max dev {worst:.2e}"),
        ("signature (+,-)", signature_ok, "one positive, one negative mode"),
    ]
    _report(5, checks, started, 1.0)


def test_criterion_06_designer_consistency():
    started = time.perf_counter()
    ratio_ok = True
    product_worst = 0.0
    velocity_worst = 0.0
    for g in (1e-3, 1e-2):
        for l in (1.0, 2.0):
            opt = optical_params(ModelParams(G=g, l=l, mu=1.0))
            ratio_ok &= (opt.d_x / opt.d_z == np.sqrt(2.0)
                         and opt.delta_z == 2.0 * opt.delta_x)
            product_worst = max(product_worst, abs(opt.j_x0 - 2 / (3 * l)),
                                abs(opt.j_z0 - 2 / (3 * l)))
            c = CouplingField.uniform(opt.j_x0, opt.j_x0, opt.j_z0)
            (a_p, b_p), _ = dirac_slopes(c)
            velocity_worst = max(velocity_worst, abs(abs(a_p) - 1 / l),
                                 abs(abs(b_p) - 1 / l))
    checks = [
        ("amplitude/strength ratios exact", ratio_ok, "sqrt2 and 2"),
        ("background product 2/(3l) to 1e-12", product_worst <= 1e-12,
         f"max dev {product_worst:.2e}"),
        ("isotropic cone velocity 1/l to 1e-10", velocity_worst <= 1e-10,
         f"max dev {velocity_worst:.2e}"),
    ]
    _report(6, checks, started, 1.0)


def test_criterion_07_hamiltonian_mapping():
    started = time.perf_counter()
    spec = LatticeSpec(1, 1)
    residuals = {}
    for g in (1e-2, 1e-3):
        p = ModelParams(G=g, l=1.0, mu=1.0)
        space = FockSpace(2, (0,), 3)
        residuals[g] = mapping_residual(p, spec, space, window=2)
    ratio = residuals[1e-2] / residuals[1e-3]
    # exact-equality sector: the sqrt2/(24 pi G) and 1/(48 pi G) lines
    p = ModelParams(G=1e-2, l=1.0, mu=1.0)
    space_b = FockSpace(0, (0,), 3)
    d_b = full_space_d(space_b)
    dx, dz = d_b
    abar_x, abar_z = dx.getH() - dx, dz.getH() - dz
    line_sim = (1 / (24 * np.pi * p.G)) * (abar_z @ (np.sqrt(2) * abar_x - 0.5 * abar_z))
    q1, q2 = q_pair(d_b, space_b, 0)
    line_tgt = (1 / (16 * np.pi * p.G)) * ((q1.getH() - q1) @ (q2.getH() - q2))
    sector_residual = float(abs(line_sim - line_tgt).max())
    checks = [
        ("momentum-line sector <= 1e-12", sector_residual <= 1e-12,
         f"residual {sector_residual:.2e}"),
        ("residual ratio in [5, 20]", 5.0 <= ratio <= 20.0,
         f"measured {ratio:.1f}: the defect scales as G^2, see ledger"),
    ]
    _report(7, checks, started, 120.0)


def test_criterion_08_ladder_pair_commutators():
    started = time.perf_counter()
    k = q_map_commutators()
    checks = [
        ("self-commutators exactly 1", k[0, 0] == 1 and k[1, 1] == 1,
         f"{k[0, 0]}, {k[1, 1]}"),
        ("cross commutator exactly -1/3", k[0, 1] == sp.Rational(-1, 3)
         and k[1, 0] == sp.Rational(-1, 3),
         "pair not canonical; substitutions never assume it"),
    ]
    _report(8, checks, started, 1.0)


def test_criterion_09_wick_signature():
    started = time.perf_counter()
    spec = LatticeSpec(2, 1)
    # free point, assembled exactly at zero coupling
    space0 = FockSpace(4, (), 0, sector=2)
    h0 = assemble_background_hopping(1.0, spec, space0)
    r0 = correlators_and_wick(ground_state(h0, space0), space0).wick_residual
    gvals = (1e-3, 3e-3, 1e-2)
    rs = []
    for g in gvals:
        p = ModelParams(G=g, l=1.0, mu=1.0)
        space = FockSpace(4, (0,), 2, sector=2)
        h = assemble_simulator_hamiltonian(p, spec, space)
        rep = correlators_and_wick(ground_state(h, space), space)
        rs.append(rep.wick_residual)
    slope = float(np.polyfit(np.log(gvals), np.log(rs), 1)[0])
    checks = [
        ("free point <= 1e-10", r0 <= 1e-10, f"R(0) = {r0:.2e}"),
        ("monotone increasing", rs[0] < rs[1] < rs[2],
         "R = " + ", ".join(f"{r:.3e}" for r in rs)),
        ("log-log slope in [0.7, 1.3]", 0.7 <= slope <= 1.3,
         f"measured {slope:.2f}: response is truncation-limited, see ledger"),
    ]
    _report(9, checks, started, 300.0)


def test_criterion_10_integrate_out_coefficient():
    started = time.perf_counter()
    p = ModelParams(G=0.0125, l=1.2, mu=0.75)
    j1, j2 = 0.8, -0.45
    eff = integrate_out_geometry(p)
    symbolic_ok = eff.coefficient_over_unit == sp.Rational(-4)
    closed = eff.coefficient * 2 * j1 * j2
    oracle = gaussian_elimination_oracle(p, j1, j2)
    checks = [
        ("symbolic coefficient -4 * piG/(l^2 mu^2)", bool(symbolic_ok),
         str(eff.coefficient_over_unit)),
        ("quadrature oracle to 1e-8", abs(oracle - closed) <= 1e-8,
         f"|diff| = {abs(oracle - closed):.2e}"),
    ]
    _report(10, checks, started, 10.0)


def test_criterion_11_determinism(tmp_path):
    started = time.perf_counter()
    config = tmp_path / "sweep.txt"
    config.write_text("""
command = wick-sweep
seed = 12345
[model]
g = 0.01
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 2
[manybody]
placement = cell0
[sweep]
g_values = 0,1e-3,3e-3,1e-2
""")
    code_a = main([str(config), "--output", str(tmp_path / "a")])
    code_b = main([str(config), "--output", str(tmp_path / "b")])
    bytes_a = (tmp_path / "a" / "wick_sweep.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "wick_sweep.csv").read_bytes()
    checks = [
        ("both runs succeed", code_a == 0 and code_b == 0, f"exit {code_a}, {code_b}"),
        ("byte-identical data artifacts", bytes_a == bytes_b,
         f"{len(bytes_a)} bytes"),
    ]
    _report(11, checks, started, 60.0)
