"""The three benchmark workloads as batches of gravlat CLI jobs.

Each job is one ``gravlat <cfg> --seed S`` process.  The letters (a)-(d)
are the ED config ladder of ROADMAP.md.  Mapping-residual at window 2 on
(c) is left out on purpose: one dense solve there takes about 40 s and
would swamp every other number.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """One CLI process, expected to exit 0; ``name`` keys its reference values."""

    name: str
    config: str


def _cfg(*lines: str) -> str:
    return "\n".join(lines) + "\n"


ED_LADDER = (
    Job("a-wick-sweep", _cfg(
        "command = wick-sweep",
        "[lattice]", "ncx = 2", "ncy = 1",
        "[truncation]", "n_max = 2",
        "[manybody]", "placement = cell0",
        "[sweep]", "g_values = 0, 1e-3, 3e-3, 1e-2")),
    Job("b-correlators", _cfg(
        "command = correlators",
        "[lattice]", "ncx = 3", "ncy = 1",
        "[truncation]", "n_max = 2",
        "[manybody]", "placement = per_cell")),
    # nf = 12 > 8: correlators_and_wick takes its sampled-quadruple branch.
    Job("c-correlators", _cfg(
        "command = correlators",
        "[lattice]", "ncx = 3", "ncy = 2",
        "[truncation]", "n_max = 2",
        "[manybody]", "placement = cell0")),
    # The default nnz_cap of 2^22 rejects this config with exit code 4.
    Job("d-ground-state", _cfg(
        "command = ground-state",
        "[lattice]", "ncx = 4", "ncy = 2",
        "[truncation]", "n_max = 1", "nnz_cap = 8388608",
        "[manybody]", "placement = cell0")),
)

MAP_DENSE = (
    Job("map-residual", _cfg(
        "command = map-residual",
        "[lattice]", "ncx = 3", "ncy = 1",
        "[truncation]", "n_max = 2", "window = 1",
        "[manybody]", "placement = per_cell",
        "[sweep]", "g_values = 0, 1e-3, 3e-3, 1e-2")),
    # Dense eigvalsh on a sector of dimension 1536; n_max = 4 (3750) is too slow.
    Job("spectrum", _cfg(
        "command = spectrum",
        "[lattice]", "ncx = 2", "ncy = 1",
        "[truncation]", "n_max = 3",
        "[manybody]", "placement = per_cell")),
)

_SLAB = ("[fields]", "nt = 16", "nx = 64", "ny = 64")

CHECKS = (
    Job("dispersion", _cfg("command = dispersion", "[couplings]", "nk = 96")),
    Job("fermi-points", _cfg("command = fermi-points")),
    Job("slopes", _cfg("command = slopes")),
    Job("map-couplings", _cfg("command = map-couplings",
                              "[map]", "xi1x = 0.02", "xi2y = -0.01")),
    Job("spin-connection", _cfg("command = spin-connection", *_SLAB)),
    Job("action-check", _cfg("command = action-check", *_SLAB)),
    Job("graviton-modes", _cfg("command = graviton-modes")),
    Job("design", _cfg("command = design")),
    Job("integrate-out", _cfg("command = integrate-out")),
)

WORKLOADS = {
    "ed-ladder": ED_LADDER,
    "map-dense": MAP_DENSE,
    "checks": CHECKS,
}
