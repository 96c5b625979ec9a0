"""Shared index and orientation conventions.

Everything downstream contracts against these fixed objects, so the sign
choices live in exactly one place:

* spacetime index order is (t, x, y) = (0, 1, 2), local-frame order (0, 1, 2),
* every Levi-Civita epsilon is the plain permutation symbol with
  eps(0,1,2) = +1 (the two-index spatial epsilon is eps(x,y) = +1),
* the tangent metric is eta = diag(-1, +1, +1),
* units: hbar = 1, lattice constant = 1, k_B = 1.
"""

import numpy as np

ETA = np.diag([-1.0, 1.0, 1.0])


def levi_civita_3() -> np.ndarray:
    """3-index permutation symbol, eps[0,1,2] = +1."""
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    return eps


EPS3 = levi_civita_3()

EPS3.setflags(write=False)
ETA.setflags(write=False)
