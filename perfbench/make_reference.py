"""Regenerate ``reference.json`` from the current gravlat sources.

    python3 perfbench/make_reference.py

Runs every benchmark job once and stores the seed-independent quantities
that check.py compares.  For the nf > 8 correlator config the stored Wick
bound is the exact maximum over all quadruples, computed here with the
pair-Gram oracle: the four-point function <c_i+ c_j+ c_k c_l> of a state
psi is the Gram matrix of the vectors c_a c_b psi (a < b), so one matrix
product gives every quadruple up to antisymmetry.  Rerun this script only
when the physics of an artifact changes on purpose, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

from check import REFERENCE, read_csv, read_keyvalue
from run import CLI, SRC, WORK, spawn
from workloads import WORKLOADS

sys.path.insert(0, str(SRC))


def _sweep_rows(out):
    return [{"g": float(r["g"]), "wick_residual": float(r["wick_residual"]),
             "ground_energy": float(r["ground_energy"]),
             "multiplicity": int(r["multiplicity"])}
            for r in read_csv(out / "wick_sweep.csv")]


def _correlators(out, job):
    kv = read_keyvalue(out / "correlator_summary.txt")
    nf = int(round(len(read_csv(out / "c_matrix.csv")) ** 0.5))
    ref = {"nf": nf, "n_fermions": nf // 2, "ground_energy": float(kv["ground_energy"]),
           "multiplicity": int(kv["multiplicity"])}
    if nf <= 8:
        ref["wick_residual"] = float(kv["wick_residual"])
    else:
        ref["wick_residual_exact_max"] = exact_wick_maximum(job.config)
    return ref


def exact_wick_maximum(config: str) -> float:
    """max |<c_i+ c_j+ c_k c_l> - (C_il C_jk - C_ik C_jl)| over all quadruples,
    in the simulator ground state of a correlators config with g > 0."""
    from gravlat.cli import parse_config
    from gravlat.manybody import (assemble_simulator_hamiltonian, ground_state,
                                  operator_algebra)

    cfg = parse_config(config)
    space = cfg.fock_space()
    ops = operator_algebra(space)
    h = assemble_simulator_hamiltonian(cfg.params, cfg.lattice, space, ops)
    gs = ground_state(h, space)
    nf = space.n_fermion_modes
    pairs = [(a, b) for a in range(nf) for b in range(a + 1, nf)]
    gram = np.zeros((len(pairs), len(pairs)), dtype=complex)
    c_mat = np.zeros((nf, nf), dtype=complex)
    for psi in gs.states:
        w = 1.0 / gs.multiplicity
        cvecs = np.array([ops.c[i] @ psi for i in range(nf)])
        c_mat += w * cvecs.conj() @ cvecs.T
        # rows: c_b c_a psi, so gram[(a,b),(k,l)] = <c_a+ c_b+ c_k c_l>
        left = np.array([ops.c[b] @ (ops.c[a] @ psi) for a, b in pairs])
        right = np.array([ops.c[k] @ (ops.c[l] @ psi) for k, l in pairs])
        gram += w * left.conj() @ right.T
    worst = 0.0
    for p, (i, j) in enumerate(pairs):
        for q, (k, l) in enumerate(pairs):
            wick = c_mat[i, l] * c_mat[j, k] - c_mat[i, k] * c_mat[j, l]
            worst = max(worst, abs(gram[p, q] - wick))
    return float(worst)


def extract(job, out):
    if job.name == "a-wick-sweep":
        return {"rows": _sweep_rows(out)}
    if job.name in ("b-correlators", "c-correlators"):
        return _correlators(out, job)
    if job.name == "d-ground-state":
        kv = read_keyvalue(out / "manifest.txt")
        return {"ground_energy": float(kv["ground_energy"]),
                "multiplicity": int(kv["multiplicity"])}
    if job.name == "map-residual":
        return {"rows": [{"g": float(r["g"]), "residual": float(r["residual"])}
                         for r in read_csv(out / "map_residual.csv")]}
    if job.name == "spectrum":
        return {"levels": [float(r["energy"]) for r in read_csv(out / "spectrum.csv")]}
    if job.name == "dispersion":
        rows = read_csv(out / "dispersion.csv")
        return {"rows": len(rows), "max_E2": max(float(r["E2"]) for r in rows)}
    if job.name == "fermi-points":
        return {"points": [[float(r["kx"]), float(r["ky"])]
                           for r in read_csv(out / "fermi_points.csv")]}
    if job.name == "slopes":
        (row,) = read_csv(out / "slopes.csv")
        return {key: float(value) for key, value in row.items()}
    if job.name == "spin-connection":
        return {"torsion_ratio_window": [3.5, 4.5]}
    if job.name == "action-check":
        return {}
    if job.name == "graviton-modes":
        kv = read_keyvalue(out / "graviton_modes.txt")
        return {"signature": kv["signature"], "omega_plus": float(kv["omega_plus"]),
                "omega_minus": float(kv["omega_minus"])}
    if job.name == "map-couplings":
        kv = read_keyvalue(out / "map_couplings.txt")
        return {key: float(kv[key]) for key in ("jx", "jy", "jz")}
    if job.name == "design":
        kv = read_keyvalue(out / "design_sheet.txt")
        return {key: float(value) for key, value in kv.items() if _is_number(value)}
    if job.name == "integrate-out":
        kv = read_keyvalue(out / "integrate_out.txt")
        return {"coefficient": float(kv["coefficient"])}
    raise KeyError(f"no reference extractor for {job.name}")


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def main() -> int:
    workdir = WORK / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reference = {}
    try:
        for jobs in WORKLOADS.values():
            for job in jobs:
                cfg = workdir / f"{job.name}.cfg"
                cfg.write_text(job.config)
                out = workdir / job.name
                code = spawn([sys.executable, "-c", CLI, str(cfg), "--seed", "0",
                              "--output", str(out)])[0]
                if code != 0:
                    raise SystemExit(f"{job.name}: exit code {code}")
                reference[job.name] = extract(job, out)
                print(job.name, "ok", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
