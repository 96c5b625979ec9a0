"""Batch front door: parse a config file, run one command, emit artifacts.

Every run writes its data files plus ``manifest.txt`` (full resolved config,
code version, wall time, validity ratios) into the output directory.  Data
CSVs are byte-stable across reruns of the same config and seed: floats are
written in shortest round-trip form and all summation orders are fixed.
The wall-time line makes the manifest itself non-identical between runs;
everything else in it is deterministic too.

Exit codes: 0 success, 2 config error, 3 eigensolver non-convergence,
4 resource cap exceeded, 1 any other library error.

Runtime: importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless the
environment already sets it, before numpy loads (``import gravlat`` loads
nothing).  OpenBLAS then starts no worker thread: none spins on the other
core after a BLAS call, and no call waits for a sleeping one to wake.  The
BLAS calls here are small (the correlators' Gram products, the dense
``spectrum`` blocks of at most a few thousand), and they run as fast or
faster on one thread.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import difflib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .exceptions import (ConfigError, ConvergenceError, DimensionCapError,
                         GravlatError)
from .geometry import (ModelParams, SpacetimeGrid, TrigField,
                       connection_refinement, random_bandlimited_slab)
from .gravity_action import (fp_standard_form, legendre_hamiltonian_density,
                             palatini_orders)
from .continuum import (gaussian_elimination_oracle,
                        hgr_quadratic_form, integrate_out_geometry,
                        normal_mode_frequencies, symplectic_frequencies)
from .designer import design_sheet_pairs, hubbard_integrals, optical_params
from .lattice import (BOSON_PLACEMENTS, CouplingField, LatticeSpec, bloch_f,
                      couplings_from_dreibein, dirac_slopes,
                      dreibein_from_couplings, fermi_points,
                      reciprocal_vectors)
from .serialize import fmt, write_keyvalue, write_table

if TYPE_CHECKING:
    from .manybody import FockSpace

COMMANDS = (
    "dispersion", "fermi-points", "slopes", "map-couplings",
    "spin-connection", "action-check", "graviton-modes", "design",
    "spectrum", "ground-state", "correlators", "wick-sweep",
    "map-residual", "integrate-out",
)


def _parse_scalar(kind, raw: str):
    if kind == "float":
        value = float(raw)
    elif kind == "floatlist":
        value = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    else:
        return int(raw) if kind == "int" else raw
    if not np.isfinite(value).all():
        raise ValueError(f"non-finite float in {raw!r}")   # 1e400 included
    return value


# (section, key) -> (kind, default, validator, description)
_SCHEMA = {
    ("", "command"): ("str", None, lambda v: v in COMMANDS,
                      f"one of {', '.join(COMMANDS)}"),
    ("", "seed"): ("int", 0, lambda v: 0 <= v < 2 ** 63, "64-bit non-negative"),
    ("", "output"): ("str", "gravlat_out", lambda v: True, "directory path"),
    ("model", "g"): ("float", 0.01, lambda v: v >= 0, ">= 0"),
    ("model", "l"): ("float", 1.0, lambda v: v > 0, "> 0"),
    ("model", "mu"): ("float", 1.0, lambda v: v > 0, "> 0"),
    ("lattice", "ncx"): ("int", 1, lambda v: v >= 1, ">= 1"),
    ("lattice", "ncy"): ("int", 1, lambda v: v >= 1, ">= 1"),
    ("truncation", "n_max"): ("int", 2, lambda v: v >= 0, ">= 0"),
    ("truncation", "window"): ("int", 2, lambda v: v >= 0, ">= 0"),
    ("truncation", "dense_cap"): ("int", 4096, lambda v: v >= 1, ">= 1"),
    ("truncation", "nnz_cap"): ("int", 2 ** 22, lambda v: v >= 1, ">= 1"),
    ("manybody", "placement"): ("str", "per_cell", lambda v: v in BOSON_PLACEMENTS,
                                f"one of {', '.join(BOSON_PLACEMENTS)}"),
    ("manybody", "filling"): ("str", "half",   # int() reads 640 digits under any digit limit
                              lambda v: v == "half" or v.isdecimal() and len(v) <= 640,
                              "'half' or a fermion count"),
    ("sweep", "g_values"): ("floatlist", (0.0, 1e-3, 3e-3, 1e-2),
                            lambda v: len(v) > 0 and all(x >= 0 for x in v),
                            "one or more floats >= 0"),
    ("couplings", "jx"): ("float", 1.0, lambda v: v > 0, "> 0"),
    ("couplings", "jz"): ("float", 1.0, lambda v: v > 0, "> 0"),
    ("couplings", "nk"): ("int", 24, lambda v: v >= 2, ">= 2"),
    ("map", "xi1x"): ("float", 0.0, lambda v: True, "real"),
    ("map", "xi2y"): ("float", 0.0, lambda v: True, "real"),
    ("fields", "nt"): ("int", 6, lambda v: v >= 3, ">= 3"),
    ("fields", "nx"): ("int", 16, lambda v: v >= 4, ">= 4"),
    ("fields", "ny"): ("int", 16, lambda v: v >= 4, ">= 4"),
    ("fields", "ht"): ("float", 0.1, lambda v: v > 0, "> 0"),
    ("fields", "h"): ("float", 0.4, lambda v: v > 0, "> 0"),
    ("fields", "modes"): ("int", 3, lambda v: v >= 1, ">= 1"),
    ("fields", "amplitude"): ("float", 0.05, lambda v: v > 0, "> 0"),
    ("hubbard", "v0"): ("float", 10.0, lambda v: v > 0, "> 0"),
    ("hubbard", "a_s"): ("float", 0.01, lambda v: True, "real"),
    ("hubbard", "mass"): ("float", 1.0, lambda v: v > 0, "> 0"),
    ("hubbard", "spacing"): ("float", 1.0, lambda v: v > 0, "> 0"),
}

_REQUIRED = (("", "command"),)


@dataclass
class RunConfig:
    """Fully resolved run description; every artifact is a function of this
    plus the code version."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    @property
    def command(self) -> str:
        return self.values[("", "command")]

    @property
    def params(self) -> ModelParams:
        return ModelParams(G=self.values[("model", "g")],
                           l=self.values[("model", "l")],
                           mu=self.values[("model", "mu")])

    @property
    def couplings(self) -> CouplingField:
        """Uniform couplings (jx, jy = jx, jz) of the band-structure commands."""
        jx = self.values[("couplings", "jx")]
        return CouplingField.uniform(jx, jx, self.values[("couplings", "jz")])

    @property
    def slab_grid(self) -> SpacetimeGrid:
        """The [fields] slab of the geometry check commands."""
        v = self.values
        return SpacetimeGrid(v[("fields", "nt")], v[("fields", "nx")], v[("fields", "ny")],
                             v[("fields", "ht")], v[("fields", "h")])

    @property
    def lattice(self) -> LatticeSpec:
        return LatticeSpec(self.values[("lattice", "ncx")],
                           self.values[("lattice", "ncy")])

    def fock_space(self) -> FockSpace:
        from .manybody import FockSpace, boson_pairs
        spec = self.lattice
        pairs = boson_pairs(spec, self.values[("manybody", "placement")])
        filling = self.values[("manybody", "filling")]
        sector = spec.n_modes // 2 if filling == "half" else int(filling)
        return FockSpace(spec.n_modes, pairs, self.values[("truncation", "n_max")],
                         sector=sector, nnz_cap=self.values[("truncation", "nnz_cap")])

    def to_pairs(self):
        pairs = []
        for (section, key) in sorted(_SCHEMA):
            name = f"{section}.{key}" if section else key
            value = self.values[(section, key)]
            if isinstance(value, tuple):
                value = ",".join(fmt(v) for v in value)
            pairs.append((name, value))
        return pairs


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError carrying every problem found."""
    problems = []
    seen = {}
    values = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, rawval = line.partition("=")
        key = key.strip()
        rawval = rawval.strip()
        full = (section, key)
        if full in seen:
            problems.append(
                f"line {lineno}: duplicate key '{key}' in section '{section or '(top)'}'"
                f" (first set at line {seen[full]})")
            continue
        seen[full] = lineno
        if full not in _SCHEMA:
            candidates = [k for (s, k) in _SCHEMA if s == section]
            hint = difflib.get_close_matches(key, candidates, n=1)
            suggestion = f"; nearest valid key: '{hint[0]}'" if hint else ""
            problems.append(
                f"line {lineno}: unknown key '{key}' in section "
                f"'{section or '(top)'}'{suggestion}")
            continue
        kind, _, validator, description = _SCHEMA[full]
        try:
            value = _parse_scalar(kind, rawval)
        except ValueError:
            problems.append(f"line {lineno}: key '{key}' expects {kind}, got {rawval!r}")
            continue
        if not validator(value):
            problems.append(f"line {lineno}: key '{key}' out of range (expected {description})")
            continue
        values[full] = value
    for full in _REQUIRED:
        if full not in values:
            problems.append(f"missing required key '{full[1]}'")
    if problems:
        raise ConfigError(problems)
    for full, (kind, default, _, _) in _SCHEMA.items():
        values.setdefault(full, default)
    problems = _cross_key_problems(values)
    if problems:
        raise ConfigError(problems)
    return RunConfig(values=values)


def _coupling_location(params: ModelParams, sweep: bool) -> str:
    """Where a config problem's coupling is set: "[model] g = ..., l = ...,
    mu = ..." or, for a [sweep] g_values entry (``sweep``), "[sweep]
    g_values entry ... (at [model] l = ..., mu = ...)"."""
    at = f"l = {fmt(params.l)}, mu = {fmt(params.mu)}"
    if sweep:
        return f"[sweep] g_values entry {fmt(params.G)} (at [model] {at})"
    return f"[model] g = {fmt(params.G)}, {at}"


def _cross_key_problems(values) -> list:
    """Problems of values against the command and other keys: the filling,
    window and g = 0 checks below, and one for [model] g and, for the two
    commands that read them (wick-sweep, map-residual), for each [sweep]
    g_values entry that is positive and whose design constants
    (:func:`optical_params`, which the simulator reads) overflow or
    underflow at the [model] l and mu.  A coupling a many-body command
    assembles the simulator at ([sweep] g_values for wick-sweep and
    map-residual, [model] g for the others) also needs D_x^2 D_z^2 =
    l^4 / (512 pi^4 G^4) finite: the simulator forms its boson number
    product N_z N_x, about that size, before it scales it by the quartic
    prefactor (so G below about 5.8e-79 l fails)."""
    l, mu = values[("model", "l")], values[("model", "mu")]
    command = values[("", "command")]
    many_body = command not in _DISPATCH
    sweep = command in ("wick-sweep", "map-residual")
    problems = []
    filling = values[("manybody", "filling")]
    n_modes = LatticeSpec(values[("lattice", "ncx")], values[("lattice", "ncy")]).n_modes
    if many_body and filling != "half" and int(filling) > n_modes:
        problems.append(f"filling {int(filling)} exceeds the {n_modes} "
                        "fermion modes of the lattice")
    window, n_max = values[("truncation", "window")], values[("truncation", "n_max")]
    if command == "map-residual" and window > n_max:
        problems.append(f"map-residual window {window} exceeds n_max {n_max}")
    if command in ("action-check", "design", "integrate-out") and values[("model", "g")] == 0:
        problems.append(f"{command} requires g > 0")
    couplings = [(values[("model", "g")], False, many_body and not sweep)]
    if sweep:
        couplings += [(x, True, True) for x in dict.fromkeys(values[("sweep", "g_values")])]
    for g, in_sweep, simulated in couplings:
        if g > 0:
            params = ModelParams(G=g, l=l, mu=mu)
            where = _coupling_location(params, in_sweep)
            try:
                opt = optical_params(params)
            except ValueError as exc:
                problems.append(f"{where}: {exc}")
                continue
            d_xz = float(opt.d_x) * float(opt.d_z)   # Python floats: inf, no warning
            if simulated and d_xz * d_xz == float("inf"):
                problems.append(f"{where}: the simulator's boson number product "
                                "N_z N_x, about D_x^2 D_z^2, overflows")
    return problems


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_dispersion(cfg, outdir, extras):
    c = cfg.couplings
    nk = cfg[("couplings", "nk")]
    g1, g2 = reciprocal_vectors()
    frac = np.arange(nk) / nk
    k = frac[:, None, None] * g1 + frac[None, :, None] * g2  # (m1, m2, 2), m2 inner
    f = bloch_f(c, k)
    # hypot is the scalar abs() of a complex; np.abs can differ in the last bit
    e = np.hypot(f.real, f.imag).ravel()
    write_table(outdir / "dispersion.csv", "kx,ky,E1,E2",
                (k[..., 0].ravel(), k[..., 1].ravel(), -e, e))


def _cmd_fermi_points(cfg, outdir, extras):
    c = cfg.couplings
    points = fermi_points(c)
    # scalar abs() per point, as in _cmd_dispersion: np.abs can differ in the last bit
    write_table(outdir / "fermi_points.csv", "kx,ky,residual",
                ([p[0] for p in points], [p[1] for p in points],
                 [abs(bloch_f(c, p)) for p in points]))


def _cmd_slopes(cfg, outdir, extras):
    c = cfg.couplings
    (a_p, b_p), (a_m, b_m) = dirac_slopes(c)
    write_table(outdir / "slopes.csv", "a_plus,b_plus,a_minus,b_minus",
                ([a_p], [b_p], [a_m], [b_m]))


def _cmd_map_couplings(cfg, outdir, extras):
    params = cfg.params
    xi1, xi2 = cfg[("map", "xi1x")], cfg[("map", "xi2y")]
    c = couplings_from_dreibein(np.array(xi1), np.array(xi2), params)
    back1, back2 = dreibein_from_couplings(c, params)
    pairs = [
        ("xi1x", xi1), ("xi2y", xi2),
        ("jx", float(c.jx)), ("jy", float(c.jy)), ("jz", float(c.jz)),
        ("xi1x_roundtrip", float(back1)), ("xi2y_roundtrip", float(back2)),
        ("roundtrip_residual", max(abs(float(back1) - xi1), abs(float(back2) - xi2))),
    ]
    write_keyvalue(outdir / "map_couplings.txt", pairs)


def _cmd_spin_connection(cfg, outdir, extras):
    params = cfg.params
    rng = np.random.default_rng(cfg[("", "seed")])
    grid = cfg.slab_grid
    modes, amp = cfg[("fields", "modes")], cfg[("fields", "amplitude")]
    f1 = TrigField(rng, modes, amp, grid.nx * grid.h, grid.ny * grid.h)
    f2 = TrigField(rng, modes, amp, grid.nx * grid.h, grid.ny * grid.h)
    (res_h, agr_h), (res_half, agr_half) = connection_refinement(params, f1, f2, grid)
    write_keyvalue(outdir / "spin_connection.txt", [
        ("torsion_residual_h", res_h),
        ("gauge_fixed_agreement_h", agr_h),
        ("torsion_residual_h_half", res_half),
        ("gauge_fixed_agreement_h_half", agr_half),
        ("torsion_ratio", res_h / res_half),
        ("agreement_ratio", agr_h / agr_half),
        ("weak_coupling_ratio", params.weak_coupling_ratio),
    ])


def _cmd_action_check(cfg, outdir, extras):
    params = cfg.params
    rng = np.random.default_rng(cfg[("", "seed")])
    slab = random_bandlimited_slab(rng, cfg.slab_grid, cfg[("fields", "modes")],
                                   cfg[("fields", "amplitude")])
    report = palatini_orders(params, slab)
    fp = report.fp_quadratic
    fp_std = fp_standard_form(params, slab)
    z = rng.normal(size=(4, 100))
    leg = legendre_hamiltonian_density(params, *z)
    form = hgr_quadratic_form(params)
    leg_residual = float(np.abs(leg - form.density(*z)).max())
    pairs = report.to_pairs()
    pairs += [
        ("fp_quadratic", fp),
        ("fp_standard_form", fp_std),
        ("fp_vs_standard_residual", fp - fp_std),
        ("legendre_vs_quadratic_form", leg_residual),
        ("weak_coupling_ratio", params.weak_coupling_ratio),
    ]
    write_keyvalue(outdir / "action_check.txt", pairs)


def _cmd_graviton_modes(cfg, outdir, extras):
    params = cfg.params
    omega_p, omega_m, signature = normal_mode_frequencies(params)
    oracle = symplectic_frequencies(hgr_quadratic_form(params).matrix())
    write_keyvalue(outdir / "graviton_modes.txt", [
        ("omega_plus", omega_p),
        ("omega_minus", omega_m),
        ("signature", f"{'+' if signature[0] > 0 else '-'}{'-' if signature[1] < 0 else '+'}"),
        ("oracle_omega_low", float(oracle[0])),
        ("oracle_omega_high", float(oracle[1])),
        ("g_independent", True),
    ])


def _cmd_design(cfg, outdir, extras):
    pairs = design_sheet_pairs(cfg.params)
    hub = hubbard_integrals(cfg[("hubbard", "v0")], cfg[("hubbard", "a_s")],
                            cfg[("hubbard", "mass")], cfg[("hubbard", "spacing")])
    pairs += hub.to_pairs()
    write_keyvalue(outdir / "design_sheet.txt", pairs)


def _cmd_integrate_out(cfg, outdir, extras):
    params = cfg.params
    j1, j2 = 0.7, -0.3
    eff = integrate_out_geometry(params)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite oracle is refused below
        oracle = gaussian_elimination_oracle(params, j1, j2)
    where = _coupling_location(params, sweep=False)
    if not np.isfinite(oracle):
        raise ConfigError([f"{where}: the Gauss-Hermite quadrature "
                           f"oracle of integrate-out is not finite ({fmt(oracle)})"])
    closed = eff.coefficient * 2.0 * j1 * j2
    # the quadrature drifts from the closed form well before it overflows:
    # relative gap 8.5e-11 at g = 3 and 4.2e-4 at g = 5 (l = mu = 1)
    if abs(oracle - closed) > 1e-8 * abs(closed):
        raise ConfigError([f"{where}: the Gauss-Hermite quadrature oracle of "
                           f"integrate-out ({fmt(oracle)}) does not resolve the "
                           f"closed form ({fmt(closed)})"])
    write_keyvalue(outdir / "integrate_out.txt", [
        ("coefficient", eff.coefficient),
        ("coefficient_exact_multiple_of_piG_over_l2mu2", str(eff.coefficient_over_unit)),
        ("sample_j1", j1), ("sample_j2", j2),
        ("density_closed_form", closed),
        ("density_quadrature_oracle", oracle),
        ("oracle_residual", oracle - closed),
        ("weak_coupling_ratio", params.weak_coupling_ratio),
    ])


_DISPATCH = {
    "dispersion": _cmd_dispersion,
    "fermi-points": _cmd_fermi_points,
    "slopes": _cmd_slopes,
    "map-couplings": _cmd_map_couplings,
    "spin-connection": _cmd_spin_connection,
    "action-check": _cmd_action_check,
    "graviton-modes": _cmd_graviton_modes,
    "design": _cmd_design,
    "integrate-out": _cmd_integrate_out,
}


def run_command(cfg: RunConfig, output: Path) -> int:
    """Execute one command; returns the exit status and writes artifacts."""
    handler = _DISPATCH.get(cfg.command)
    if handler is None:  # a many-body command: loads manybody (numpy only)
        from .ed_commands import DISPATCH
        handler = DISPATCH[cfg.command]
    output.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    extras = []
    handler(cfg, output, extras)
    wall = time.perf_counter() - started
    manifest = [("code_version", __version__)]
    manifest += cfg.to_pairs()
    manifest += [("weak_coupling_ratio", cfg.params.weak_coupling_ratio)]
    manifest += extras
    manifest += [("wall_time_s", wall)]
    write_keyvalue(output / "manifest.txt", manifest)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gravlat",
        description="Batch runner for the lattice/geometry numerics suite.")
    parser.add_argument("config", help="path to the run configuration file")
    parser.add_argument("--output", default=None, help="artifact directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: category=config cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        _, _, validator, description = _SCHEMA[("", "seed")]
        if args.seed is not None and not validator(args.seed):
            raise ConfigError([f"--seed {args.seed} out of range (expected {description})"])
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.values[("", "seed")] = args.seed
        outdir = Path(args.output) if args.output else Path(cfg.values[("", "output")])
        return run_command(cfg, outdir)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: category=config {problem}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: category=convergence {exc}", file=sys.stderr)
        return 3
    except DimensionCapError as exc:
        print(f"error: category=resource-cap {exc}", file=sys.stderr)
        return 4
    except GravlatError as exc:
        print(f"error: category=domain {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
