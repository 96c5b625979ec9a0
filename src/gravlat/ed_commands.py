"""The many-body commands: truncated Fock-space exact diagonalization.

:func:`gravlat.cli.run_command` imports this module the first time it
meets one of the commands in :data:`DISPATCH`, so the check commands start
without :mod:`gravlat.manybody`.  The handlers run on numpy alone, the
Lanczos solves of :func:`gravlat.manybody.ground_state` (sector dimension
above 512) included: no many-body command imports scipy.  ``spectrum``
diagonalizes the translation-momentum blocks of its sector one at a time
(:mod:`gravlat.momentum`, imported by that handler alone); its
``dense_cap`` still bounds the sector dimension.

The handlers pass the :class:`gravlat.manybody.FockSpace` alone, built
from a config whose filling and window :func:`gravlat.cli.parse_config`
has checked; each assembler checks its nnz cap before it builds
anything (exit code 4).  Each handler solves once per coupling and reads
its truncation check off the solved state
(:func:`gravlat.manybody.top_level_weight`, the largest over a sweep's
couplings), with its verdict beside it: ``truncation_converged`` when the
weight is at most 1e-6, the rule ``truncation_rule`` names.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

from .cli import _coupling_location
from .designer import optical_params, weak_fluctuation_check
from .exceptions import ConfigError, DimensionCapError
from .manybody import (assemble_background_hopping,
                       assemble_simulator_hamiltonian, correlators_and_wick,
                       ground_state, mapping_residual, max_abs_entry,
                       top_level_weight)
from .serialize import fmt, write_keyvalue, write_table


def _space(cfg, params):
    """The space of a run at coupling ``params.G``.

    At G = 0 the bosons decouple from the fermions, so they are dropped:
    kept inert, they would only multiply every level by the boson dimension.
    """
    space = cfg.fock_space()
    if params.G == 0:
        space = replace(space, pairs=(), n_max=0)
    return space


def _hamiltonian(params, spec, space):
    if params.G == 0:
        return assemble_background_hopping(params.l, spec, space)
    return assemble_simulator_hamiltonian(params, spec, space)


def _solve(cfg, params):
    """The ground state of the run's Hamiltonian at coupling ``params.G``;
    ConfigError before the solve unless (12 s r)^2 n < float max, s the
    scale of :func:`ground_state` (max |entry|, at least 1), r the longest
    row, n the dimension.  Every norm the solver squares is then finite:
    ||H|| <= s r, a deflation shift is at most 3 s r, and so a Lanczos
    vector or a residual H v - E v has norm at most 12 s r (n is margin:
    an entrywise estimate, n entries of at most that size)."""
    space = _space(cfg, params)
    h = _hamiltonian(params, cfg.lattice, space)
    scale = max(*(max_abs_entry(v) for v in h.values()), 1.0)
    row, dim = int(h.row_lengths().max(initial=0)), h.shape[0]
    bound = 12.0 * scale * row   # Python floats: inf, no warning
    if not bound * bound * dim < sys.float_info.max:
        where = _coupling_location(params, sweep=cfg.command == "wick-sweep")
        raise ConfigError([f"{where}: the Hamiltonian's entries (up to {fmt(scale)}, "
                           f"rows of up to {row}, dimension {dim}) overflow the "
                           "eigensolver's norms: (12 scale row)^2 dim exceeds float max"])
    return ground_state(h, space)


def _truncation_lines(weight: float) -> list:
    """The truncation verdict: ``top_level_weight``, whether it meets the
    rule, and the rule in words.  The rule reads the weight on the cut
    alone; it does not compare the results at n_max and n_max + 2."""
    return [("top_level_weight", weight), ("truncation_converged", weight <= 1e-6),
            ("truncation_rule", "top_level_weight <= 1e-6")]


def _solver_lines(gs) -> list:
    return [("eigen_residual", gs.residual), ("eigen_k", gs.k), ("eigen_matvecs", gs.matvecs),
            ("sector_dimension", gs.space.sector_dimension),
            *_truncation_lines(top_level_weight(gs, gs.space))]


def _cmd_spectrum(cfg, outdir, extras):
    from .momentum import block_spectrum

    params, spec = cfg.params, cfg.lattice
    space = _space(cfg, params)
    dim = space.sector_dimension
    if dim > cfg[("truncation", "dense_cap")]:
        raise DimensionCapError(f"sector dimension {dim} exceeds dense cap for spectrum")
    blocks, evals = block_spectrum(_hamiltonian(params, spec, space), spec, space)
    k = min(len(evals), 32)
    write_table(outdir / "spectrum.csv", "index,energy", (np.arange(k), evals[:k]))
    extras.append(("sector_dimension", dim))
    extras.append(("momentum_blocks", ",".join(str(n) for n in blocks)))


def _cmd_ground_state(cfg, outdir, extras):
    gs = _solve(cfg, cfg.params)
    space = gs.space
    header = "\n".join([
        f"# modes={space.n_fermion_modes} fermion + {space.n_boson_modes} boson",
        f"# boson_modes={space.boson_modes}",
        f"# n_max={space.n_max}",
        f"# sector={space.sector}",
        "# ordering=fermion_major(bit i = fermion mode i; boson digits little-endian)",
        "index,re,im"])
    # the nonzero amplitudes, at their full-space indices
    vector = gs.vectors[0]
    nz = np.flatnonzero(np.abs(vector) > 0)
    write_table(outdir / "ground_state.csv", header,
                (space.sector_indices()[nz], vector.real[nz], vector.imag[nz]))
    extras.append(("ground_energy", gs.energy))
    extras.append(("multiplicity", gs.multiplicity))
    extras.extend(_solver_lines(gs))


def _cmd_correlators(cfg, outdir, extras):
    params = cfg.params
    gs = _solve(cfg, params)
    space = gs.space
    rep = correlators_and_wick(gs, space)
    i, j = np.indices(rep.c_matrix.shape).reshape(2, -1)
    write_table(outdir / "c_matrix.csv", "i,j,re,im",
                (i, j, rep.c_matrix.real.ravel(), rep.c_matrix.imag.ravel()))
    m, n = np.indices(rep.d_dag_d.shape).reshape(2, -1)
    write_table(outdir / "d_correlators.csv", "m,n,dagd_re,dagd_im,dagdag_re,dagdag_im",
                (m, n, rep.d_dag_d.real.ravel(), rep.d_dag_d.imag.ravel(),
                 rep.d_dag_ddag.real.ravel(), rep.d_dag_ddag.imag.ravel()))
    pairs = [("wick_residual", rep.wick_residual),
             ("wick_argmax", "-".join(str(i) for i in rep.wick_argmax)),
             ("ground_energy", gs.energy), ("multiplicity", gs.multiplicity)]
    if space.n_boson_modes:  # none at G = 0
        species = [s for _, s in space.boson_modes]
        wf = weak_fluctuation_check(rep.d_dag_d.diagonal().real, species,
                                    optical_params(params))
        pairs.extend(wf.to_pairs())
    extras.extend(_solver_lines(gs))
    for cell, qc in rep.q_corr.items():
        tag = "shared" if cell is None else f"cell{cell}"
        pairs.append((f"q1dag_q2_{tag}_re", complex(qc["q1dag_q2"]).real))
        pairs.append((f"q1dag_q2_{tag}_im", complex(qc["q1dag_q2"]).imag))
        pairs.append((f"q1dag_q2dag_{tag}_re", complex(qc["q1dag_q2dag"]).real))
        pairs.append((f"q1dag_q2dag_{tag}_im", complex(qc["q1dag_q2dag"]).imag))
    write_keyvalue(outdir / "correlator_summary.txt", pairs)


def _cmd_wick_sweep(cfg, outdir, extras):
    rows, top = [], 0.0
    for g in cfg[("sweep", "g_values")]:
        gs = _solve(cfg, replace(cfg.params, G=g))
        rep = correlators_and_wick(gs, gs.space)
        rows.append((g, rep.wick_residual, gs.energy, gs.multiplicity))
        top = max(top, top_level_weight(gs, gs.space))
    write_table(outdir / "wick_sweep.csv", "g,wick_residual,ground_energy,multiplicity",
                zip(*rows))
    extras.extend(_truncation_lines(top))


def _cmd_map_residual(cfg, outdir, extras):
    spec = cfg.lattice
    window = cfg[("truncation", "window")]
    space = cfg.fock_space()
    # the mapping comparison needs G > 0 (1/G boson line)
    positive = [g for g in cfg[("sweep", "g_values")] if g > 0]
    write_table(outdir / "map_residual.csv", "g,residual",
                (positive, [mapping_residual(replace(cfg.params, G=g), spec, space, window)
                            for g in positive]))
    extras.append(("window", window))
    skipped = len(cfg[("sweep", "g_values")]) - len(positive)
    if skipped:
        extras.append(("skipped_zero_g_points", skipped))


DISPATCH = {
    "spectrum": _cmd_spectrum,
    "ground-state": _cmd_ground_state,
    "correlators": _cmd_correlators,
    "wick-sweep": _cmd_wick_sweep,
    "map-residual": _cmd_map_residual,
}
