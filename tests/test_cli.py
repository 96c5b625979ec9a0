import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gravlat
from gravlat.cli import main, parse_config
from gravlat.exceptions import ConfigError

MINIMAL = """
command = graviton-modes
[model]
g = 0.01
mu = 0.5
"""


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.command == "graviton-modes"
    assert cfg[("lattice", "ncx")] == 1
    assert cfg[("truncation", "n_max")] == 2
    assert cfg[("", "seed")] == 0
    assert cfg.params.mu == 0.5


def test_parse_reports_every_problem_at_once():
    bad = """
comand = spectrum
[model]
g = -1
g = 0.5
mue = 2
"""
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    text = "\n".join(err.value.problems)
    assert "nearest valid key: 'command'" in text
    assert "out of range" in text and "'g'" in text
    assert "duplicate key 'g'" in text and "first set at line" in text
    assert "nearest valid key: 'mu'" in text
    assert "missing required key 'command'" in text
    assert len(err.value.problems) == 5


def test_parse_list_values():
    cfg = parse_config(MINIMAL + "\n[sweep]\ng_values = 0, 1e-3 ,2e-3\n")
    assert cfg[("sweep", "g_values")] == (0.0, 1e-3, 2e-3)


def test_parse_type_errors_are_collected():
    with pytest.raises(ConfigError) as err:
        parse_config("command = spectrum\n[lattice]\nncx = two\n")
    assert any("expects int" in p for p in err.value.problems)


def test_unknown_command_is_range_error():
    with pytest.raises(ConfigError):
        parse_config("command = not-a-command\n")


def _run(tmp_path, text, name="cfg.txt", out="out"):
    cfg = tmp_path / name
    cfg.write_text(text)
    return main([str(cfg), "--output", str(tmp_path / out)]), tmp_path / out


def test_main_config_error_exit_code(tmp_path):
    code, _ = _run(tmp_path, "command = nope\n")
    assert code == 2


def test_main_missing_file_exit_code(tmp_path):
    assert main([str(tmp_path / "absent.txt")]) == 2


def test_main_resource_cap_exit_code(tmp_path):
    code, _ = _run(tmp_path, """
command = spectrum
[lattice]
ncx = 2
ncy = 2
[truncation]
n_max = 3
nnz_cap = 100
""")
    assert code == 4


def test_main_domain_error_exit_code(tmp_path, capsys):
    # J_z = 2.5 > 2 J_x: no isolated conical points (DiracRegimeError)
    code, _ = _run(tmp_path, "command = fermi-points\n[couplings]\njz = 2.5\n")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: category=domain")


def test_main_convergence_error_exit_code(tmp_path, monkeypatch, capsys):
    import gravlat.ed_commands as ed
    from gravlat.exceptions import ConvergenceError

    def refuse(h, space):
        raise ConvergenceError("eigsh did not converge")

    monkeypatch.setattr(ed, "ground_state", refuse)
    code, _ = _run(tmp_path, "command = ground-state\n")
    assert code == 3
    assert capsys.readouterr().err.startswith("error: category=convergence")


@pytest.mark.parametrize("g", ["0.01", "0"])
def test_spectrum_dense_cap_rejects_before_assembly(tmp_path, monkeypatch, capsys, g):
    import gravlat.ed_commands as ed

    def refuse(*args, **kwargs):
        raise AssertionError("assembled a config the dense cap rejects")

    monkeypatch.setattr(ed, "assemble_simulator_hamiltonian", refuse)
    monkeypatch.setattr(ed, "assemble_background_hopping", refuse)
    dim = 96 if g != "0" else 6  # C(4, 2) x 2^4; at g = 0 the bosons are dropped
    code, out = _run(tmp_path, f"""
command = spectrum
[model]
g = {g}
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 1
dense_cap = {dim - 1}
""")
    assert code == 4
    assert (f"category=resource-cap sector dimension {dim} exceeds dense cap for spectrum"
            in capsys.readouterr().err)
    assert not (out / "spectrum.csv").exists()


def test_wick_sweep_zero_coupling_point_respects_nnz_cap(tmp_path):
    code, _ = _run(tmp_path, """
command = wick-sweep
[lattice]
ncx = 2
ncy = 1
[truncation]
nnz_cap = 10
[manybody]
placement = cell0
[sweep]
g_values = 0
""")
    assert code == 4


@pytest.mark.parametrize("command", ["ground-state", "correlators"])
@pytest.mark.parametrize("cap, expected", [(863, 4), (864, 0)])
def test_nnz_cap_counts_the_full_space_mode_operators(tmp_path, command, cap, expected):
    # 6 modes x full dimension 144 = 864; the sector (dimension 54) alone
    # would count 324
    code, _ = _run(tmp_path, f"""
command = {command}
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 2
nnz_cap = {cap}
[manybody]
placement = cell0
""")
    assert code == expected


@pytest.mark.parametrize("command, observables", [
    ("map-residual", False), ("wick-sweep", True)])
def test_sweeps_build_one_operator_algebra(tmp_path, monkeypatch, command, observables):
    import gravlat.ed_commands as ed
    real_algebra = ed.operator_algebra
    built = []

    def recording_algebra(space):
        built.append(real_algebra(space))
        return built[-1]

    monkeypatch.setattr(ed, "operator_algebra", recording_algebra)
    code, _ = _run(tmp_path, f"""
command = {command}
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 1
window = 1
[manybody]
placement = cell0
[sweep]
g_values = 1e-3, 3e-3, 1e-2
""")
    assert code == 0
    assert len(built) == 1
    # observables or not, no command builds the full-space mode operators
    assert "c" not in vars(built[0]) and "d" not in vars(built[0])


def test_removed_thermal_key_is_unknown(tmp_path, capsys):
    code, _ = _run(tmp_path, MINIMAL + "[thermal]\ntemperature = 0.5\n")
    assert code == 2
    assert "unknown key 'temperature' in section 'thermal'" in capsys.readouterr().err


def test_removed_threads_flag_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(MINIMAL)
    with pytest.raises(SystemExit) as exc:
        main([str(cfg), "--threads", "2"])
    assert exc.value.code == 2


def test_map_residual_window_above_n_max_is_config_error(tmp_path, capsys):
    code, out = _run(tmp_path, """
command = map-residual
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 1
window = 2
[manybody]
placement = cell0
""")
    assert code == 2
    assert "category=config map-residual window 2 exceeds n_max 1" in capsys.readouterr().err
    assert not (out / "map_residual.csv").exists()


def test_design_at_zero_coupling_is_config_error(tmp_path, capsys):
    code, out = _run(tmp_path, "command = design\n[model]\ng = 0\n")
    assert code == 2
    err = capsys.readouterr().err
    assert "error: category=config design requires g > 0" in err
    assert "Traceback" not in err
    assert not (out / "design_sheet.txt").exists()


def test_filling_above_the_mode_count_is_config_error(tmp_path, capsys):
    code, _ = _run(tmp_path, """
command = ground-state
[manybody]
filling = 99
""")
    assert code == 2
    err = capsys.readouterr().err
    assert "error: category=config filling 99 exceeds the 2 fermion modes of the lattice" in err
    assert "Traceback" not in err


def test_import_loads_no_sympy_optimize_or_sparse():
    src = Path(gravlat.__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import gravlat.cli; "
             "print(','.join(m for m in ('sympy', 'scipy.optimize', 'scipy.sparse')"
             " if m in sys.modules))")
    loaded = subprocess.run([sys.executable, "-c", probe, str(src)], check=True,
                            capture_output=True, text=True).stdout.strip()
    assert loaded == ""


def test_dense_path_leaves_sparse_linalg_unloaded(tmp_path):
    # every sector of this sweep is below the Lanczos threshold of 512
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("""
command = wick-sweep
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 2
[manybody]
placement = cell0
[sweep]
g_values = 0, 1e-3, 1e-2
""")
    src = Path(gravlat.__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); from gravlat.cli import main; "
             "code = main(sys.argv[2:]); print(code, 'scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe, str(src), str(cfg),
                          "--output", str(tmp_path / "out")],
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 False"
    assert (tmp_path / "out" / "wick_sweep.csv").exists()


@pytest.mark.parametrize("command", ["correlators", "wick-sweep", "ground-state"])
def test_no_full_space_operator_on_the_cli_path(tmp_path, monkeypatch, command):
    from gravlat.manybody import FockSpace, ModeOperators, operator_algebra

    def refuse(self):
        raise AssertionError("full-space mode operator built")

    monkeypatch.setattr(ModeOperators, "c", property(refuse))
    monkeypatch.setattr(ModeOperators, "d", property(refuse))
    with pytest.raises(AssertionError):
        operator_algebra(FockSpace(2, ((0, "x"),), 1)).c
    code, _ = _run(tmp_path, f"""
command = {command}
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 1
[manybody]
placement = per_cell
[sweep]
g_values = 0, 1e-3, 1e-2
""")
    assert code == 0


CONFIG_C = """
command = correlators
[lattice]
ncx = 3
ncy = 2
[truncation]
n_max = 2
[manybody]
placement = cell0
"""


def test_wick_residual_is_exact_and_seed_independent_at_nf_12(tmp_path):
    # nf = 12: the exact maximum over all 12^4 quadruples (pair-Gram
    # cumulant); a maximum over 512 seeded samples read 1.045e-4 at seed 1
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG_C)
    summaries = []
    for seed in ("1", "7"):
        out = tmp_path / f"seed{seed}"
        assert main([str(cfg), "--seed", seed, "--output", str(out)]) == 0
        summaries.append((out / "correlator_summary.txt").read_bytes())
    assert summaries[0] == summaries[1]
    summary = dict(line.split("=", 1) for line in summaries[0].decode().splitlines())
    assert float(summary["wick_residual"]) == pytest.approx(2.262693e-4, rel=1e-6)
    assert summary["wick_argmax"] == "0-6-0-6"


def test_weak_fluctuation_ratios_read_the_correlator_occupations(tmp_path):
    # <d_m+ d_m> has one reader: each ratio_* line is the diagonal of
    # d_dag_d over D_m^2, to the last bit
    from gravlat.designer import optical_params
    from gravlat.manybody import (assemble_simulator_hamiltonian, correlators_and_wick,
                                  ground_state, operator_algebra)
    config = """
command = correlators
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 2
[manybody]
placement = cell0
"""
    code, out = _run(tmp_path, config)
    assert code == 0
    cfg = parse_config(config)
    space = cfg.fock_space()
    ops = operator_algebra(space)
    gs = ground_state(assemble_simulator_hamiltonian(cfg.params, cfg.lattice, space, ops), space)
    occupations = correlators_and_wick(gs, space, ops).d_dag_d.diagonal().real
    opt = optical_params(cfg.params)
    summary = dict(line.split("=", 1)
                   for line in (out / "correlator_summary.txt").read_text().splitlines())
    ratios = {key: float(value) for key, value in summary.items() if key.startswith("ratio_")}
    assert ratios == {f"ratio_{m}{species}": occupations[m] / opt.amplitude(species) ** 2
                      for m, (_, species) in enumerate(space.boson_modes)}


def _per_row_state_csv(path, header_lines, full):
    """The ground_state.csv writer as it was: one ``fmt`` call per value."""
    from gravlat.serialize import fmt
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write("index,re,im\n")
        for i in np.flatnonzero(np.abs(full) > 0):
            fh.write(f"{i},{fmt(full[i].real)},{fmt(full[i].imag)}\n")


def test_state_csv_writer_matches_the_per_row_writer(tmp_path):
    from gravlat.manybody import assemble_simulator_hamiltonian, ground_state
    from gravlat.serialize import write_state_csv
    config = """
command = ground-state
[lattice]
ncx = 3
ncy = 1
[truncation]
n_max = 1
[manybody]
placement = per_cell
"""
    code, out = _run(tmp_path, config)
    assert code == 0
    cfg = parse_config(config)
    space = cfg.fock_space()
    gs = ground_state(assemble_simulator_hamiltonian(cfg.params, cfg.lattice, space), space)
    assert space.sector_dimension > 512  # Lanczos path
    written = (out / "ground_state.csv").read_bytes()
    header = written.decode().splitlines()[:5]
    _per_row_state_csv(tmp_path / "old.csv", header, gs.state)
    assert written == (tmp_path / "old.csv").read_bytes()

    # negative, sub-1e-300 (subnormal) and exactly zero entries, real and complex
    v = gs.vectors[0].copy()
    v[:6] = [0.0, -0.0, -0.75, 1e-310, -5e-324, 2.5e-301]
    for vec in (v, v * np.exp(0.3j)):
        full = np.zeros(space.dimension, dtype=vec.dtype)
        full[space.sector_indices()] = vec
        write_state_csv(tmp_path / "new.csv", header, space.sector_indices(), vec)
        _per_row_state_csv(tmp_path / "old.csv", header, full)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert len(new.splitlines()) == 6 + np.count_nonzero(vec)
        if vec.dtype == float:
            assert all(row in new for row in (b",-0.75,0.0\n", b",1e-310,0.0\n",
                                              b",-5e-324,0.0\n", b",2.5e-301,0.0\n"))


def test_dispersion_matches_the_per_point_writer(tmp_path, monkeypatch):
    import gravlat.cli as cli
    from gravlat.lattice import reciprocal_vectors
    from gravlat.serialize import write_csv
    real_bloch_f = cli.bloch_f
    calls = []

    def counting_bloch_f(c, k):
        calls.append(np.shape(k))
        return real_bloch_f(c, k)

    monkeypatch.setattr(cli, "bloch_f", counting_bloch_f)
    config = "command = dispersion\n[couplings]\nnk = 12\njx = 1.3\njz = 0.7\n"
    code, out = _run(tmp_path, config)
    assert code == 0
    assert calls == [(12, 12, 2)]  # one call on the whole k-grid

    nk = 12
    c = parse_config(config).couplings
    g1, g2 = reciprocal_vectors()
    rows = []
    for m1 in range(nk):
        for m2 in range(nk):
            k = (m1 / nk) * g1 + (m2 / nk) * g2
            e = abs(real_bloch_f(c, k))
            rows.append((k[0], k[1], -e, e))
    write_csv(tmp_path / "per_point.csv", "kx,ky,E1,E2", rows)
    assert (out / "dispersion.csv").read_bytes() == (tmp_path / "per_point.csv").read_bytes()


def test_fermi_points_artifact(tmp_path):
    code, out = _run(tmp_path, """
command = fermi-points
[couplings]
jx = 0.6666666666666666
jz = 0.6666666666666666
""")
    assert code == 0
    lines = (out / "fermi_points.csv").read_text().splitlines()
    assert lines[0] == "kx,ky,residual"
    kx, _, residual = map(float, lines[1].split(","))
    assert kx == pytest.approx(2.4183991523122903, abs=1e-9)
    assert residual < 1e-12
    manifest = (out / "manifest.txt").read_text()
    assert "code_version=" in manifest
    assert "wall_time_s=" in manifest


def test_graviton_modes_artifact(tmp_path):
    code, out = _run(tmp_path, MINIMAL)
    assert code == 0
    text = (out / "graviton_modes.txt").read_text()
    assert "omega_plus=0.5" in text
    assert "omega_minus=0.5" in text
    assert "signature=+-" in text


def test_wick_sweep_deterministic_artifacts(tmp_path):
    config = """
command = wick-sweep
seed = 11
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
g_values = 0,1e-3,1e-2
"""
    code_a, out_a = _run(tmp_path, config, out="run_a")
    code_b, out_b = _run(tmp_path, config, out="run_b")
    assert code_a == 0 and code_b == 0
    assert (out_a / "wick_sweep.csv").read_bytes() == (out_b / "wick_sweep.csv").read_bytes()
    strip = lambda p: [ln for ln in p.read_text().splitlines()
                       if not ln.startswith("wall_time_s=")]
    assert strip(out_a / "manifest.txt") == strip(out_b / "manifest.txt")


def test_ground_state_manifest_records_solver_size(tmp_path):
    config = """
command = ground-state
[lattice]
ncx = 3
ncy = 1
[truncation]
n_max = 1
[manybody]
placement = per_cell
"""
    code_a, out_a = _run(tmp_path, config, out="run_a")
    code_b, out_b = _run(tmp_path, config, out="run_b")
    assert code_a == 0 and code_b == 0
    manifest = (out_a / "manifest.txt").read_text().splitlines()
    assert "sector_dimension=1280" in manifest  # C(6, 3) x 2^6, Lanczos path
    assert "eigen_k=2" in manifest
    assert ((out_a / "ground_state.csv").read_bytes()
            == (out_b / "ground_state.csv").read_bytes())


def test_zero_coupling_drops_the_bosons(tmp_path):
    # at g = 0 the bosons decouple; kept inert they made the ground level of
    # this config 64-fold, and Lanczos reported multiplicity=6
    lattice = """
[lattice]
ncx = 3
ncy = 1
[truncation]
n_max = 1
[manybody]
placement = per_cell
"""
    code_gs, out_gs = _run(tmp_path, "command = ground-state\n[model]\ng = 0\n" + lattice,
                           out="gs")
    code_sw, out_sw = _run(tmp_path, "command = wick-sweep\n" + lattice
                           + "[sweep]\ng_values = 0\n", out="sweep")
    assert code_gs == 0 and code_sw == 0
    manifest = dict(line.split("=", 1) for line in
                    (out_gs / "manifest.txt").read_text().splitlines())
    assert manifest["multiplicity"] == "1"
    assert "# boson_modes=()" in (out_gs / "ground_state.csv").read_text().splitlines()
    g, _, energy, multiplicity = (out_sw / "wick_sweep.csv").read_text().splitlines()[1].split(",")
    assert float(g) == 0.0 and multiplicity == "1"
    assert float(manifest["ground_energy"]) == pytest.approx(float(energy), rel=0, abs=1e-12)
    assert float(energy) == pytest.approx(-4.30940107675, rel=0, abs=1e-10)


@pytest.mark.parametrize("command, artifact", [
    ("correlators", "correlator_summary.txt"), ("map-residual", "map_residual.csv")])
def test_many_body_command_writes_its_artifact(tmp_path, command, artifact):
    code, out = _run(tmp_path, f"""
command = {command}
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 1
window = 1
[manybody]
placement = cell0
""")
    assert code == 0
    assert (out / artifact).stat().st_size > 0


def test_map_couplings_roundtrip_artifact(tmp_path):
    code, out = _run(tmp_path, """
command = map-couplings
[model]
g = 0.005
[map]
xi1x = 0.2
xi2y = -0.1
""")
    assert code == 0
    text = dict(line.split("=", 1) for line in
                (out / "map_couplings.txt").read_text().splitlines())
    assert float(text["roundtrip_residual"]) < 1e-12
    assert float(text["jx"]) > 0


def test_spin_connection_refinement_artifact(tmp_path):
    code, out = _run(tmp_path, """
command = spin-connection
seed = 3
[model]
g = 0.02
[fields]
nt = 3
nx = 12
ny = 12
""")
    assert code == 0
    text = dict(line.split("=", 1) for line in
                (out / "spin_connection.txt").read_text().splitlines())
    assert 3.0 < float(text["torsion_ratio"]) < 5.0
    assert 3.0 < float(text["agreement_ratio"]) < 5.0


def test_spin_connection_refinement_scores_one_time_window(tmp_path):
    # the h/2 level covers the h level's interior time window; scoring nt
    # slices at ht/2 (half that window) read 5.85 for both ratios here
    code, out = _run(tmp_path, """
command = spin-connection
seed = 2008
[fields]
nt = 16
nx = 32
ny = 32
h = 0.8
""")
    assert code == 0
    text = dict(line.split("=", 1) for line in
                (out / "spin_connection.txt").read_text().splitlines())
    assert 3.9 < float(text["torsion_ratio"]) < 4.1
    assert 3.9 < float(text["agreement_ratio"]) < 4.1


def test_integrate_out_artifact(tmp_path):
    code, out = _run(tmp_path, """
command = integrate-out
[model]
g = 0.02
mu = 0.8
l = 1.1
""")
    assert code == 0
    text = dict(line.split("=", 1) for line in
                (out / "integrate_out.txt").read_text().splitlines())
    assert text["coefficient_exact_multiple_of_piG_over_l2mu2"] == "-4"
    assert abs(float(text["oracle_residual"])) < 1e-8
