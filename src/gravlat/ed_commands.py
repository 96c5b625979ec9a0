"""The many-body commands: truncated Fock-space exact diagonalization.

:func:`gravlat.cli.run_command` imports this module the first time it
meets one of the commands in :data:`DISPATCH`, so the check commands start
without :mod:`gravlat.manybody`.  The handlers run on numpy alone, the
Lanczos solves of :func:`gravlat.manybody.ground_state` (sector dimension
above 512) included: no many-body command imports scipy.  ``spectrum``
diagonalizes the translation-momentum blocks of its sector one at a time
(:mod:`gravlat.momentum`, imported by that handler alone); its
``dense_cap`` still bounds the sector dimension.
"""

from __future__ import annotations

from dataclasses import replace

from .designer import optical_params, weak_fluctuation_check
from .exceptions import ConfigError, DimensionCapError
from .geometry import ModelParams
from .manybody import (assemble_background_hopping,
                       assemble_simulator_hamiltonian, correlators_and_wick,
                       ground_state, mapping_residual, operator_algebra)
from .serialize import write_csv, write_keyvalue, write_state_csv


def _many_body_setup(cfg, params):
    """The space and operator algebra of a run at coupling ``params.G``.

    At G = 0 the bosons decouple from the fermions, so they are dropped:
    kept inert, they would only multiply every level by the boson dimension.
    """
    space = cfg.fock_space()
    if params.G == 0:
        space = replace(space, boson_modes=(), n_max=0)
    return space, operator_algebra(space)


def _assemble_for(params, spec, space, ops):
    if params.G == 0:
        return assemble_background_hopping(params.l, spec, space, ops)
    return assemble_simulator_hamiltonian(params, spec, space, ops)


def _truncation_delta(params, spec, space, energy) -> float:
    if space.n_max == 0:  # also every G = 0 space
        return 0.0
    reduced = replace(space, n_max=space.n_max - 1)
    h_red = assemble_simulator_hamiltonian(params, spec, reduced)
    return energy - ground_state(h_red, reduced).energy


def _cmd_spectrum(cfg, outdir, extras):
    from .momentum import block_spectrum

    params, spec = cfg.params, cfg.lattice
    space, ops = _many_body_setup(cfg, params)
    dim = space.sector_dimension
    if dim > cfg[("truncation", "dense_cap")]:
        raise DimensionCapError(f"sector dimension {dim} exceeds dense cap for spectrum")
    blocks, evals = block_spectrum(_assemble_for(params, spec, space, ops), spec, space)
    k = min(len(evals), 32)
    write_csv(outdir / "spectrum.csv", "index,energy",
              [(i, evals[i]) for i in range(k)])
    extras.append(("sector_dimension", dim))
    extras.append(("momentum_blocks", ",".join(str(n) for n in blocks)))


def _cmd_ground_state(cfg, outdir, extras):
    params, spec = cfg.params, cfg.lattice
    space, ops = _many_body_setup(cfg, params)
    h = _assemble_for(params, spec, space, ops)
    gs = ground_state(h, space)
    header_meta = [
        f"# modes={space.n_fermion_modes} fermion + {space.n_boson_modes} boson",
        f"# boson_modes={space.boson_modes}",
        f"# n_max={space.n_max}",
        f"# sector={space.sector}",
        f"# ordering=fermion_major(bit i = fermion mode i; boson digits little-endian)",
    ]
    write_state_csv(outdir / "ground_state.csv", header_meta, space.sector_indices(),
                    gs.vectors[0])
    extras.append(("ground_energy", gs.energy))
    extras.append(("multiplicity", gs.multiplicity))
    extras.append(("eigen_residual", gs.residual))
    extras.append(("eigen_k", gs.k))
    extras.append(("eigen_matvecs", gs.matvecs))
    extras.append(("sector_dimension", space.sector_dimension))
    extras.append(("truncation_delta", _truncation_delta(params, spec, space, gs.energy)))


def _cmd_correlators(cfg, outdir, extras):
    params, spec = cfg.params, cfg.lattice
    space, ops = _many_body_setup(cfg, params)
    h = _assemble_for(params, spec, space, ops)
    gs = ground_state(h, space)
    rep = correlators_and_wick(gs, space, ops)
    nf = space.n_fermion_modes
    write_csv(outdir / "c_matrix.csv", "i,j,re,im",
              [(i, j, rep.c_matrix[i, j].real, rep.c_matrix[i, j].imag)
               for i in range(nf) for j in range(nf)])
    nb = space.n_boson_modes
    write_csv(outdir / "d_correlators.csv", "m,n,dagd_re,dagd_im,dagdag_re,dagdag_im",
              [(m, n, rep.d_dag_d[m, n].real, rep.d_dag_d[m, n].imag,
                rep.d_dag_ddag[m, n].real, rep.d_dag_ddag[m, n].imag)
               for m in range(nb) for n in range(nb)])
    pairs = [("wick_residual", rep.wick_residual),
             ("wick_argmax", "-".join(str(i) for i in rep.wick_argmax)),
             ("ground_energy", gs.energy), ("multiplicity", gs.multiplicity)]
    if space.n_boson_modes:  # none at G = 0
        species = [s for _, s in space.boson_modes]
        wf = weak_fluctuation_check(rep.d_dag_d.diagonal().real, species,
                                    optical_params(params))
        pairs.extend(wf.to_pairs())
    extras.append(("eigen_residual", gs.residual))
    extras.append(("eigen_k", gs.k))
    extras.append(("eigen_matvecs", gs.matvecs))
    extras.append(("sector_dimension", space.sector_dimension))
    extras.append(("truncation_delta", _truncation_delta(params, spec, space, gs.energy)))
    for cell, qc in sorted(rep.q_corr.items(), key=lambda kv: (kv[0] is None, kv[0])):
        tag = "shared" if cell is None else f"cell{cell}"
        pairs.append((f"q1dag_q2_{tag}_re", complex(qc["q1dag_q2"]).real))
        pairs.append((f"q1dag_q2_{tag}_im", complex(qc["q1dag_q2"]).imag))
        pairs.append((f"q1dag_q2dag_{tag}_re", complex(qc["q1dag_q2dag"]).real))
        pairs.append((f"q1dag_q2dag_{tag}_im", complex(qc["q1dag_q2dag"]).imag))
    write_keyvalue(outdir / "correlator_summary.txt", pairs)


def _cmd_wick_sweep(cfg, outdir, extras):
    spec = cfg.lattice
    setups = {}  # (space, ops) keyed by g > 0: they depend on g through that only
    rows = []
    energies = {}
    for g in cfg[("sweep", "g_values")]:
        params = ModelParams(G=g, l=cfg.params.l, mu=cfg.params.mu)
        if (g > 0) not in setups:
            setups[g > 0] = _many_body_setup(cfg, params)
        space, ops = setups[g > 0]
        gs = ground_state(_assemble_for(params, spec, space, ops), space)
        rep = correlators_and_wick(gs, space, ops)
        rows.append((g, rep.wick_residual, gs.energy, gs.multiplicity))
        energies[g] = gs.energy
    write_csv(outdir / "wick_sweep.csv", "g,wick_residual,ground_energy,multiplicity", rows)
    if True in setups and cfg[("truncation", "n_max")] > 0:
        g_top = max(energies)
        params_top = ModelParams(G=g_top, l=cfg.params.l, mu=cfg.params.mu)
        extras.append(("truncation_delta_at_g_max",
                       _truncation_delta(params_top, spec, setups[True][0], energies[g_top])))


def _cmd_map_residual(cfg, outdir, extras):
    spec = cfg.lattice
    window = cfg[("truncation", "window")]
    n_max = cfg[("truncation", "n_max")]
    if window > n_max:
        raise ConfigError([f"map-residual window {window} exceeds n_max {n_max}"])
    positive = [g for g in cfg[("sweep", "g_values")] if g > 0]
    if positive:  # the mapping comparison needs G > 0 (1/G boson line)
        space = cfg.fock_space()
        ops = operator_algebra(space)
    rows = []
    for g in positive:
        params = ModelParams(G=g, l=cfg.params.l, mu=cfg.params.mu)
        rows.append((g, mapping_residual(params, spec, space, window, ops)))
    write_csv(outdir / "map_residual.csv", "g,residual", rows)
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
