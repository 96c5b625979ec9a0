"""Artifact checks: a run passes only if it exits with code 0 and its
artifacts agree with the reference values in ``reference.json``.

Only quantities that every correct implementation reproduces are checked:
ground energies and multiplicities, the trace and Hermiticity of the
fermion two-point matrix, mapping residuals, the 32 lowest spectrum levels,
the Wick residual where every quadruple is enumerated (nf <= 8), and the
residual keys of the check commands.  For nf > 8 any Wick residual between
0 and the exact maximum (from the pair-Gram oracle in make_reference.py)
is accepted, so a switch from sampled to exact maximum is not a failure.
Seeded random fields (spin-connection, action-check) are checked only
through their seed-independent residuals and refinement ratios.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_keyvalue(path: Path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition("=")
            if sep:
                out[key] = value
    return out


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class _Problems(list):
    def close(self, what, got, want, rel=1e-9, abs_=1e-12):
        got, want = float(got), float(want)
        if not abs(got - want) <= abs_ + rel * abs(want):
            self.append(f"{what}={got!r}, reference {want!r}")

    def small(self, what, got, bound):
        got = float(got)
        if not abs(got) <= bound:
            self.append(f"|{what}|={abs(got):g} above {bound:g}")

    def equal(self, what, got, want):
        if got != want:
            self.append(f"{what}={got!r}, expected {want!r}")


def _energy_tol(value) -> float:
    """Absolute tolerance on an eigenvalue; Lanczos converges to 1e-12 * scale."""
    return 1e-9 * max(1.0, abs(float(value)))


def _wick_sweep(out, ref, p):
    rows = read_csv(out / "wick_sweep.csv")
    p.equal("rows", len(rows), len(ref["rows"]))
    for row, want in zip(rows, ref["rows"]):
        g = want["g"]
        p.close("g", row["g"], g, rel=0.0, abs_=0.0)
        p.close(f"ground_energy(g={g})", row["ground_energy"], want["ground_energy"],
                rel=0.0, abs_=_energy_tol(want["ground_energy"]))
        p.equal(f"multiplicity(g={g})", int(row["multiplicity"]), want["multiplicity"])
        p.close(f"wick_residual(g={g})", row["wick_residual"], want["wick_residual"],
                rel=1e-6, abs_=1e-10)


def _correlators(out, ref, p):
    kv = read_keyvalue(out / "correlator_summary.txt")
    p.close("ground_energy", kv["ground_energy"], ref["ground_energy"],
            rel=0.0, abs_=_energy_tol(ref["ground_energy"]))
    p.equal("multiplicity", int(kv["multiplicity"]), ref["multiplicity"])
    wick = float(kv["wick_residual"])
    if "wick_residual" in ref:
        p.close("wick_residual", wick, ref["wick_residual"], rel=1e-6, abs_=1e-10)
    else:
        top = ref["wick_residual_exact_max"]
        if not -1e-12 <= wick <= top * (1 + 1e-6) + 1e-10:
            p.append(f"wick_residual={wick!r} outside [0, exact maximum {top!r}]")
    nf = ref["nf"]
    c = {}
    for row in read_csv(out / "c_matrix.csv"):
        c[int(row["i"]), int(row["j"])] = complex(float(row["re"]), float(row["im"]))
    p.equal("c_matrix entries", len(c), nf * nf)
    trace = sum(c[i, i] for i in range(nf))
    p.close("c_matrix trace", trace.real, ref["n_fermions"], rel=0.0, abs_=1e-9)
    p.small("c_matrix trace imag", trace.imag, 1e-9)
    herm = max(abs(c[i, j] - c[j, i].conjugate()) for i in range(nf) for j in range(nf))
    p.small("c_matrix - c_matrix^H", herm, 1e-10)


def _ground_state(out, ref, p):
    kv = read_keyvalue(out / "manifest.txt")
    p.close("ground_energy", kv["ground_energy"], ref["ground_energy"],
            rel=0.0, abs_=_energy_tol(ref["ground_energy"]))
    p.equal("multiplicity", int(kv["multiplicity"]), ref["multiplicity"])
    norm = math.fsum(float(r["re"]) ** 2 + float(r["im"]) ** 2
                     for r in read_csv(out / "ground_state.csv"))
    p.close("state norm", norm, 1.0, rel=0.0, abs_=1e-9)


def _map_residual(out, ref, p):
    rows = read_csv(out / "map_residual.csv")
    p.equal("rows", len(rows), len(ref["rows"]))
    for row, want in zip(rows, ref["rows"]):
        p.close("g", row["g"], want["g"], rel=0.0, abs_=0.0)
        p.close(f"residual(g={want['g']})", row["residual"], want["residual"],
                rel=1e-7, abs_=1e-10)


def _spectrum(out, ref, p):
    rows = read_csv(out / "spectrum.csv")
    p.equal("levels", len(rows), len(ref["levels"]))
    for k, (row, want) in enumerate(zip(rows, ref["levels"])):
        p.equal("index", int(row["index"]), k)
        p.close(f"level {k}", row["energy"], want, rel=0.0, abs_=_energy_tol(want))


def _dispersion(out, ref, p):
    rows = read_csv(out / "dispersion.csv")
    p.equal("rows", len(rows), ref["rows"])
    upper = [float(r["E2"]) for r in rows]
    p.small("E1 + E2", max(abs(float(r["E1"]) + e) for r, e in zip(rows, upper)), 1e-12)
    p.close("max E2", max(upper), ref["max_E2"], rel=1e-12)
    p.small("min E2 (Dirac point on the grid)", min(upper), 1e-9)


def _fermi_points(out, ref, p):
    rows = read_csv(out / "fermi_points.csv")
    p.equal("rows", len(rows), len(ref["points"]))
    for row, (kx, ky) in zip(rows, ref["points"]):
        p.close("kx", row["kx"], kx, rel=1e-12)
        p.close("ky", row["ky"], ky, rel=1e-12)
        p.small("|f(K)|", row["residual"], 1e-12)


def _slopes(out, ref, p):
    (row,) = read_csv(out / "slopes.csv")
    for key, want in ref.items():
        p.close(key, row[key], want, rel=1e-9)


def _map_couplings(out, ref, p):
    kv = read_keyvalue(out / "map_couplings.txt")
    for key in ("jx", "jy", "jz"):
        p.close(key, kv[key], ref[key], rel=1e-12)
    p.small("roundtrip_residual", kv["roundtrip_residual"], 1e-12)


def _spin_connection(out, ref, p):
    kv = read_keyvalue(out / "spin_connection.txt")
    low, high = ref["torsion_ratio_window"]
    for key in ("torsion_ratio", "agreement_ratio"):
        if not low <= float(kv[key]) <= high:
            p.append(f"{key}={kv[key]} outside [{low}, {high}] (second order)")


def _action_check(out, ref, p):
    kv = read_keyvalue(out / "action_check.txt")
    p.small("s0", kv["s0"], 0.0)  # flat, torsion-free background: exact zeros
    p.small("s1", kv["s1"], 0.0)
    scale = max(1.0, abs(float(kv["s2"])), abs(float(kv["fp_quadratic"])))
    for key in ("residual_order_bookkeeping", "residual_quadratic_vs_double_eps",
                "fp_vs_standard_residual"):
        p.small(key, kv[key], 1e-10 * scale)
    p.small("legendre_vs_quadratic_form", kv["legendre_vs_quadratic_form"], 1e-10)


def _graviton_modes(out, ref, p):
    kv = read_keyvalue(out / "graviton_modes.txt")
    p.equal("signature", kv["signature"], ref["signature"])
    for key in ("omega_plus", "omega_minus"):
        p.close(key, kv[key], ref[key], rel=1e-12)
    omegas = sorted((float(kv["omega_plus"]), float(kv["omega_minus"])))
    p.close("oracle_omega_low", kv["oracle_omega_low"], omegas[0], rel=1e-9)
    p.close("oracle_omega_high", kv["oracle_omega_high"], omegas[1], rel=1e-9)


def _design(out, ref, p):
    kv = read_keyvalue(out / "design_sheet.txt")
    for key, want in ref.items():
        p.close(key, kv[key], want, rel=1e-9)


def _integrate_out(out, ref, p):
    kv = read_keyvalue(out / "integrate_out.txt")
    p.close("coefficient", kv["coefficient"], ref["coefficient"], rel=1e-12)
    p.small("oracle_residual", kv["oracle_residual"],
            1e-10 * abs(float(kv["density_closed_form"])))


CHECKERS = {
    "a-wick-sweep": _wick_sweep,
    "b-correlators": _correlators,
    "c-correlators": _correlators,
    "d-ground-state": _ground_state,
    "map-residual": _map_residual,
    "spectrum": _spectrum,
    "dispersion": _dispersion,
    "fermi-points": _fermi_points,
    "slopes": _slopes,
    "map-couplings": _map_couplings,
    "spin-connection": _spin_connection,
    "action-check": _action_check,
    "graviton-modes": _graviton_modes,
    "design": _design,
    "integrate-out": _integrate_out,
}


def check_job(job, outdir: Path, exit_code: int, reference: dict) -> list:
    """Problems found with one run; an empty list means the run passed."""
    if exit_code != 0:
        return [f"{job.name}: exit code {exit_code}, expected 0"]
    problems = _Problems()
    try:
        CHECKERS[job.name](Path(outdir), reference[job.name], problems)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        problems.append(f"unreadable artifact: {exc!r}")
    return [f"{job.name}: {msg}" for msg in problems]


def compare_trees(untraced: Path, traced: Path) -> list:
    """Byte differences between two artifact directories.

    ``manifest.txt`` is compared without its ``wall_time_s`` line, the one
    line the CLI documents as run-dependent.
    """
    problems = []
    names = sorted(p.name for p in Path(untraced).iterdir())
    other = sorted(p.name for p in Path(traced).iterdir())
    if names != other:
        return [f"artifact sets differ: {names} vs {other}"]
    for name in names:
        a = (Path(untraced) / name).read_bytes()
        b = (Path(traced) / name).read_bytes()
        if name == "manifest.txt":
            a, b = (b"".join(line for line in blob.splitlines(keepends=True)
                             if not line.startswith(b"wall_time_s="))
                    for blob in (a, b))
        if a != b:
            problems.append(f"{name} differs between traced and untraced runs")
    return problems
