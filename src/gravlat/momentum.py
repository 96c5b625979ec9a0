"""Translation-momentum and particle-hole blocks of a Hamiltonian on the
sector basis.

A shift by j1 n1 + j2 n2 maps cell (cx, cy) to (cx + j1, cy + j2), the
fermion modes a_i and b_i to a_(T i) and b_(T i), and the boson pair on
cell c to the pair on T c, its whole digit of the boson index; a shared
pair (cell None) stays.  When every pair has an image (``per_cell``,
``uniform`` and every space without bosons), the shifts form the group
Z_ncx x Z_ncy, which commutes with every Hamiltonian of
:mod:`gravlat.manybody`; otherwise (``cell0``) the shifts are the identity
alone.

On the sector basis a shift maps |f, b> to sign |f', b'>.  With
|f> = c+_m1 ... c+_mk |0>, m1 < ... < mk (the Jordan-Wigner order of
:mod:`gravlat.manybody`), the sign is the parity of the inversions among
the images of the occupied modes; the pair digits move without a sign.

At half filling (N = n_cells fermions on the 2N modes) the group gains the
particle-hole map W = prod_i (c_i + eps_i c_i+), its factors in increasing
mode order, eps_i = +1 on the A modes a_i and -1 on the B modes b_i; the
group is Z_ncx x Z_ncy x Z_2 (Z_2 alone for ``cell0``).  W maps |f, b> to
sign |~f, b>, ~f the complement of f, which mirrors f's position in the
sorted sector basis, and leaves the boson digits alone.  Factor i acts
after the factors above it, so it meets the bits of f below i unchanged:
the sign is (-1)^(sum of 2N - 1 - j over the occupied modes j) times
eps_i for each empty mode i.  W^2 = 1, and W commutes with every
Hamiltonian: W c_p+ c_q W^-1 = -eps_p eps_q c_q+ c_p, which is c_q+ c_p on
a bond (A to B), and each bond's coupling is Hermitian and acts on the
bosons alone.  W commutes with every shift: a shift conjugates W into the
same product with its factors permuted, the A modes and the B modes by one
cell permutation each, so the 2N odd factors reorder with sign +1 and keep
their eps.  At other fillings W leaves the sector and the group is the
shifts alone.

The blocks follow Sandvik, AIP Conf. Proc. 1297, 135 (2010), and the
``kblock`` of QuSpin (Weinberg & Bukov, SciPost Phys. 2, 003 (2017)).  A
state s has the orbit representative r = min_g g(s), reached first by the
group element h_s.  Momentum k = 2 pi (m1 / ncx, m2 / ncy) and W
eigenvalue w, with the character chi(T_j W^e) = exp(-i k.j) w^e, are
carried by the orbits on whose stabilizer the signs equal chi.  The block
state of such an orbit is sum_s beta(s) |s>,
beta(s) = chi(h_s) sign_(h_s)(s) / sqrt(|orbit|), so
H_(k, w)[a, b] = sum conj(beta(s)) H[s, t] beta(t) over the entries of H
with s in orbit a and t in orbit b.  A block is real when every character
is real (k in {0, pi} on each axis) and complex Hermitian otherwise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["translation_periods", "sector_shift", "sector_particle_hole",
           "momentum_blocks", "block_spectrum"]


def _mode_images(spec, space, j1: int, j2: int):
    """(fermion mode images, boson pair images) of the shift (j1, j2); the
    pair images are None when a boson pair has no image."""
    n = spec.n_cells
    cell = [spec.cell_index(cx + j1, cy + j2)
            for cx in range(spec.ncx) for cy in range(spec.ncy)]
    fermion = cell + [n + c for c in cell]
    moved = [None if c is None else cell[c] for c in space.pairs]
    if not set(moved) <= set(space.pairs):
        return fermion, None
    return fermion, [space.pairs.index(c) for c in moved]


def translation_periods(spec, space) -> tuple:
    """(ncx, ncy) when every boson pair of ``space`` has an image under the
    one-cell shifts, else (1, 1)."""
    if all(_mode_images(spec, space, *g)[1] is not None for g in ((1, 0), (0, 1))):
        return spec.ncx, spec.ncy
    return 1, 1


def sector_shift(spec, space, j1: int, j2: int):
    """(image, sign): the shift (j1, j2) maps sector state s to
    sign[s] |image[s]>.  ValueError when a boson pair has no image."""
    fermion, boson = _mode_images(spec, space, j1, j2)
    if boson is None:
        raise ValueError(f"the boson pairs are not invariant under the shift {(j1, j2)}")
    states = space.sector_fermion_states()
    moved = np.zeros_like(states)
    inversions = np.zeros_like(states)
    for p, target in enumerate(fermion):
        occupied = (states >> p) & 1
        moved |= occupied << target
        for q in range(p + 1, len(fermion)):
            if fermion[q] < target:
                inversions += occupied & (states >> q)
    boson_image = space.pair_digits() @ space.pair_dim ** np.array(boson, dtype=int)
    image = np.searchsorted(states, moved)[:, None] * space.boson_dim + boson_image
    sign = np.repeat(1.0 - 2.0 * (inversions & 1), space.boson_dim)
    return image.ravel(), sign


def _half_filled(space) -> bool:
    return space.sector is not None and 2 * space.sector == space.n_fermion_modes


def sector_particle_hole(spec, space):
    """(image, sign): W = prod_i (c_i + eps_i c_i+) maps sector state s to
    sign[s] |image[s]>.  ValueError when the sector is not half filled."""
    if not _half_filled(space):
        raise ValueError(f"the fermion sector {space.sector} of {space.n_fermion_modes} "
                         "modes is not half filled")
    n_modes = space.n_fermion_modes
    states = space.sector_fermion_states()
    exponent = np.zeros_like(states)
    for j in range(n_modes):
        occupied = (states >> j) & 1
        exponent += occupied * (n_modes - 1 - j)
        if j >= spec.n_cells:        # eps_j = -1 on an empty B mode
            exponent += 1 - occupied
    mirror = np.arange(len(states))[::-1, None] * space.boson_dim
    image = mirror + np.arange(space.boson_dim)
    sign = np.repeat(1.0 - 2.0 * (exponent & 1), space.boson_dim)
    return image.ravel(), sign


def _characters(m1: int, m2: int, shifts, periods):
    """chi_k(g) = exp(-i k.g) over ``shifts``: exactly +-1 floats when every
    phase is real, complex otherwise."""
    n = periods[0] * periods[1]
    turns = [(m1 * j1 * periods[1] + m2 * j2 * periods[0]) % n for j1, j2 in shifts]
    if all(2 * t % n == 0 for t in turns):
        return np.array([1.0 if t == 0 else -1.0 for t in turns])
    return np.exp(-2j * np.pi * np.array(turns) / n)


def _gather(h, rows, inside, slot, beta, n_k: int) -> np.ndarray:
    """The n_k x n_k block sum conj(beta(s)) H[s, t] beta(t) over the
    entries (rows, h.cols) that ``inside`` keeps, at (slot[s], slot[t])."""
    r, c = rows[inside], h.cols[inside]
    key = slot[r] * n_k + slot[c]
    weight = beta[r].conj() * h.data[inside] * beta[c]
    block = np.bincount(key, weights=weight.real, minlength=n_k * n_k)
    if np.iscomplexobj(weight):
        block = block + 1j * np.bincount(key, weights=weight.imag, minlength=n_k * n_k)
    return block.reshape(n_k, n_k)


def momentum_blocks(h, spec, space):
    """Yield (label, H_block): label (m1, m2) for k = 2 pi (m1 / ncx,
    m2 / ncy), m2 inner, and at half filling (m1, m2, w), each momentum
    followed by its W = +1 then its W = -1 block; a label that no orbit
    carries gets a 0 x 0 block.

    ``h`` is a :class:`gravlat.manybody.SectorOperator` on the sector basis
    of ``space``.  Each dense block is gathered from its materialized
    entries (:meth:`~gravlat.manybody.SectorOperator.materialized`) by one
    ``np.bincount`` (two when complex) when it is asked for, and the
    generator keeps no reference to it, so a caller that drops each block
    before asking for the next holds one at a time.
    """
    periods = translation_periods(spec, space)
    shifts = [(j1, j2) for j1 in range(periods[0]) for j2 in range(periods[1])]
    actions = [sector_shift(spec, space, *g) for g in shifts]
    parities = [()]          # the W part of a label: none off half filling
    if _half_filled(space):
        w_image, w_sign = sector_particle_hole(spec, space)
        # T_j W: W first, then the shift
        actions += [(image[w_image], w_sign * sign[w_image]) for image, sign in actions]
        parities = [(1,), (-1,)]
    images = np.array([image for image, _ in actions])
    signs = np.array([sign for _, sign in actions])
    h = h.materialized()
    states = np.arange(h.shape[0])
    rep = images.min(axis=0)
    first = np.argmax(images == rep, axis=0)           # h_s
    sign = signs[first, states]
    fixed = images == states                           # each state's stabilizer
    norm = np.sqrt(fixed.sum(axis=0) / len(actions))   # 1 / sqrt(|orbit|)
    rows = h.entry_rows()
    for m1 in range(periods[0]):
        for m2 in range(periods[1]):
            chi_k = _characters(m1, m2, shifts, periods)
            for w in parities:
                # chi on the shifts, then on each shift times W
                chi = np.concatenate([chi_k] + [p * chi_k for p in w])
                carried = np.abs((fixed * signs * chi.conj()[:, None]).sum(axis=0)) > 0.5
                reps = np.sort(rep[carried])    # np.unique would load numpy.ma
                reps = reps[np.diff(reps, prepend=-1) > 0]
                yield (m1, m2, *w), _gather(h, rows, carried[rows] & carried[h.cols],
                                            np.searchsorted(reps, rep),
                                            chi[first] * sign * norm, len(reps))


def block_spectrum(h, spec, space):
    """(block dimensions, sorted eigenvalues): every block of
    :func:`momentum_blocks` diagonalized by ``np.linalg.eigvalsh`` and
    dropped before the next is built; the union of the block spectra is
    the spectrum of ``h``."""
    dims, levels = [], []
    for _, block in momentum_blocks(h, spec, space):
        dims.append(len(block))
        levels.append(np.linalg.eigvalsh(block))
        del block
    return dims, np.sort(np.concatenate(levels))
