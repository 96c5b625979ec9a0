"""Shared fixtures, continuum test fields and the symbolic oracles.

The symbolic oracles derive in sympy the exact constants the library
hard-codes, so sympy is a test-only dependency.
"""

import numpy as np
import pytest
import sympy as sp


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class TrigField3:
    """Continuum test field: sum of sines with analytic partial derivatives.

    Spatial wavenumbers are commensurate with the given periods so the same
    function can be sampled on refined grids; the time frequency is free.
    """

    def __init__(self, rng, lx, ly, n_modes=3, amp=0.1, time_freq=True):
        self.terms = []
        while len(self.terms) < n_modes:
            kx = int(rng.integers(-3, 4))
            ky = int(rng.integers(-3, 4))
            if (kx, ky) == (0, 0):
                continue
            w = rng.uniform(0.5, 1.5) if time_freq else 0.0
            self.terms.append((amp * rng.normal(), w,
                               2 * np.pi * kx / lx, 2 * np.pi * ky / ly,
                               rng.uniform(0, 2 * np.pi)))

    def __call__(self, t, x, y, dt=0, dx=0, dy=0):
        out = np.zeros(np.broadcast(t, x, y).shape)
        waves = (np.sin, np.cos, lambda a: -np.sin(a), lambda a: -np.cos(a))
        for amp, w, kx, ky, phase in self.terms:
            arg = w * t + kx * x + ky * y + phase
            out += amp * (w ** dt) * (kx ** dx) * (ky ** dy) * waves[(dt + dx + dy) % 4](arg)
        return out


@pytest.fixture
def trig_field_factory(rng):
    def make(lx, ly, n_modes=3, amp=0.1, time_freq=True):
        return TrigField3(rng, lx, ly, n_modes=n_modes, amp=amp, time_freq=time_freq)
    return make


# ---------------------------------------------------------------------------
# symbolic oracles
# ---------------------------------------------------------------------------

def symbolic_elimination_ratio() -> sp.Rational:
    """Exact coefficient of the induced interaction, by completing squares.

    Works in the flipped-mass convention: the geometry-dependent part of
    the Hamiltonian density is

        f(xi) = s (xi1 J1 + xi2 J2) + m xi1 xi2 ,
        s = 8 pi G / l^2 * l = 8 pi G / l ,   m = +8 pi G mu^2 ,

    whose stationary value is f* = -s^2 J1 J2 / m.  Returns the exact
    rational r with f* = r * (pi G / (l^2 mu^2)) * (eps contraction), where
    the epsilon contraction equals 2 J1 J2 for diagonal currents.
    """
    G, l, mu = sp.symbols("G l mu", positive=True)
    j1, j2, x1, x2 = sp.symbols("J1 J2 x1 x2", real=True)
    s = 8 * sp.pi * G / l
    m = 8 * sp.pi * G * mu ** 2
    f = s * (x1 * j1 + x2 * j2) + m * x1 * x2
    sol = sp.solve([sp.diff(f, x1), sp.diff(f, x2)], [x1, x2], dict=True)
    if len(sol) != 1:
        raise RuntimeError("stationary point of the quadratic form not unique")
    f_star = sp.simplify(f.subs(sol[0]))
    unit = sp.pi * G / (l ** 2 * mu ** 2) * 2 * j1 * j2
    ratio = sp.simplify(f_star / unit)
    if not ratio.is_Rational:
        raise RuntimeError(f"elimination coefficient is not rational: {ratio}")
    return ratio


def q_map_commutators():
    """Exact commutator matrix of the ladder redefinition, in sympy.

    Returns the 2x2 matrix K with K[a, b] = [q_a, q_b+] computed from
    [d_m, d_n+] = delta_mn:

        K = [[1, -1/3], [-1/3, 1]] .

    The self-commutators are preserved exactly ( (2 sqrt2/3)^2 + (1/3)^2
    = 1 ) but the pair is not canonical: the off-diagonal entry is -1/3,
    so the pair substitution genuinely deforms the quadratic spectrum and
    every mapping in :mod:`gravlat.manybody` works in the d modes directly.
    """
    alpha = 2 * sp.sqrt(2) / 3
    beta = -sp.Rational(1, 3)
    coeffs = {  # q_a = sum_m coeffs[a][m] d_m over m in (x, z)
        1: {"x": alpha, "z": beta},
        2: {"x": sp.Integer(0), "z": sp.Integer(1)},
    }
    k = sp.zeros(2, 2)
    for a in (1, 2):
        for b in (1, 2):
            k[a - 1, b - 1] = sp.nsimplify(sum(
                coeffs[a][m] * coeffs[b][m] for m in ("x", "z")))
    return sp.simplify(k)
