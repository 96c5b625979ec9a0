import os
import subprocess
import sys
from dataclasses import replace
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
        raise ConvergenceError("Lanczos did not converge")

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


def _manifest(out):
    return dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())


def test_spectrum_builds_no_full_sector_matrix(tmp_path, monkeypatch):
    from gravlat.manybody import SectorOperator

    def refuse(self):
        raise AssertionError("full-sector dense matrix built")

    monkeypatch.setattr(SectorOperator, "toarray", refuse)
    code, out = _run(tmp_path, """
command = spectrum
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 2
[manybody]
placement = per_cell
""")
    assert code == 0
    manifest = _manifest(out)
    assert manifest["sector_dimension"] == "486"   # C(4, 2) x 3^4
    assert manifest["momentum_blocks"] == "117,117,126,126"


def _per_value_csv(path, header, rows):
    """A CSV table as the per-value writer wrote it: one ``fmt`` call per value."""
    from gravlat.serialize import fmt
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def test_write_table_matches_the_per_value_writer(tmp_path):
    from gravlat.serialize import write_table
    header = "# first basis line\n# second basis line\nindex,value,other"
    index = np.array([0, 7, -3, 2 ** 40, 5, 6])
    value = np.array([-0.0, 5e-324, 1e-310, 1e300, np.nan, np.inf])
    other = [0.1, -np.inf, 2.5, -1e-310, 1.0, 3.0]   # a list of Python floats
    write_table(tmp_path / "table.csv", header, (index, value, other))
    _per_value_csv(tmp_path / "oracle.csv", header, zip(index, value, other))
    written = (tmp_path / "table.csv").read_bytes()
    assert written == (tmp_path / "oracle.csv").read_bytes()
    assert written == (b"# first basis line\n# second basis line\nindex,value,other\n"
                       b"0,-0.0,0.1\n7,5e-324,-inf\n-3,1e-310,2.5\n"
                       b"1099511627776,1e+300,-1e-310\n5,nan,1.0\n6,inf,3.0\n")
    # zero rows: the header alone
    write_table(tmp_path / "empty.csv", header, (index[:0], value[:0], []))
    assert (tmp_path / "empty.csv").read_bytes() == header.encode() + b"\n"
    # columns of unequal length: no file
    with pytest.raises(ValueError):
        write_table(tmp_path / "ragged.csv", header, (index, value[:-1], other))
    assert not (tmp_path / "ragged.csv").exists()


def test_write_table_streams_chunks_byte_for_byte(tmp_path):
    from gravlat.serialize import _CHUNK_ROWS, write_table
    n = 3 * _CHUNK_ROWS + 1   # three full chunks and a one-row tail
    rng = np.random.default_rng(11)
    index = np.arange(n) * 7 - 5
    value = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    other = [float(x) for x in rng.standard_normal(n)]
    header = "# a basis line\nindex,value,other"
    write_table(tmp_path / "table.csv", header, (index, value, other))
    _per_value_csv(tmp_path / "oracle.csv", header, zip(index, value, other))
    written = (tmp_path / "table.csv").read_bytes()
    assert written == (tmp_path / "oracle.csv").read_bytes()
    assert written.count(b"\n") == n + 2
    # columns as a zip of row tuples, as wick-sweep passes them
    rows = [(0.0, 1e-3, -2.5, 1), (1e-3, 2e-3, -2.25, 2)]
    write_table(tmp_path / "zipped.csv", "g,r,e,m", zip(*rows))
    _per_value_csv(tmp_path / "rows.csv", "g,r,e,m", rows)
    assert (tmp_path / "zipped.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    # ragged past the first chunk: refused before anything is written
    with pytest.raises(ValueError):
        write_table(tmp_path / "ragged.csv", header, (index, value[:-1], other))
    assert not (tmp_path / "ragged.csv").exists()


def test_write_table_peak_is_one_chunk(tmp_path):
    # the size of (d)'s ground_state.csv: 51 480 rows of (int, float, float);
    # written in one piece, this table's strings and text traced 19.2 MB
    import tracemalloc

    from gravlat.serialize import write_table
    n = 51_480
    rng = np.random.default_rng(2)
    columns = (np.arange(n) * 9, rng.standard_normal(n), rng.standard_normal(n) * 1e-3)
    tracemalloc.start()
    try:
        write_table(tmp_path / "ground_state.csv", "index,re,im", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_cell0_spectrum_is_the_dense_sector_spectrum_byte_for_byte(tmp_path):
    # off half filling cell0 has no symmetry: one block, the whole sector
    from gravlat.manybody import assemble_simulator_hamiltonian

    text = """
command = spectrum
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 2
[manybody]
placement = cell0
filling = 1
"""
    code, out = _run(tmp_path, text)
    assert code == 0
    assert _manifest(out)["momentum_blocks"] == "36"
    cfg = parse_config(text)
    space = cfg.fock_space()
    h = assemble_simulator_hamiltonian(cfg.params, cfg.lattice, space)
    evals = np.linalg.eigvalsh(h.toarray())   # the unblocked solve
    _per_value_csv(tmp_path / "dense.csv", "index,energy", [(i, evals[i]) for i in range(32)])
    assert (out / "spectrum.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


def test_half_filled_cell0_spectrum_splits_by_particle_hole(tmp_path):
    from gravlat.manybody import assemble_simulator_hamiltonian

    text = """
command = spectrum
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 2
[manybody]
placement = cell0
"""
    code, out = _run(tmp_path, text)
    assert code == 0
    assert _manifest(out)["momentum_blocks"] == "27,27"
    cfg = parse_config(text)
    h = assemble_simulator_hamiltonian(cfg.params, cfg.lattice, cfg.fock_space())
    evals = np.linalg.eigvalsh(h.toarray())[:32]
    rows = (out / "spectrum.csv").read_text().splitlines()[1:]
    got = np.array([float(row.split(",")[1]) for row in rows])
    scale = max(1.0, float(np.abs(evals).max()))
    np.testing.assert_allclose(got, evals, rtol=0.0, atol=1e-12 * scale)


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
    # every coupling at 0: map-residual solves nothing, yet the space is still
    # checked, as it is when one coupling is positive
    for command in ("map-residual", "wick-sweep"):
        for n, g_values in enumerate(("0", "0, 1e-3")):
            code, out = _run(tmp_path, f"""
command = {command}
[lattice]
ncx = 2
[manybody]
filling = 9
[sweep]
g_values = {g_values}
""", out=f"{command}-{n}")
            assert code == 2
            assert ("error: category=config filling 9 exceeds the 4 fermion modes of the "
                    "lattice") in capsys.readouterr().err
            assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("filling", ["\u00b2", "9" * 641, "1" * 5000],
                         ids=["superscript-2", "641-digits", "5000-digits"])
def test_a_filling_int_cannot_read_is_config_error(tmp_path, capsys, filling):
    # before: '²' passed str.isdigit, then int() raised ValueError (exit 1); int()
    # also refuses digits past the interpreter's limit (4300 by default, >= 640)
    code, out = _run(tmp_path, f"command = ground-state\n[manybody]\nfilling = {filling}\n")
    assert code == 2
    assert capsys.readouterr().err == ("error: category=config line 3: key 'filling' "
                                       "out of range (expected 'half' or a fermion count)\n")
    assert not out.exists()


def test_map_residual_reports_its_window_and_filling_problems_together(tmp_path, capsys):
    # before: the window alone, from the handler, after the output directory was made
    code, out = _run(tmp_path, """
command = map-residual
[truncation]
n_max = 1
window = 2
[manybody]
filling = 3
""")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: category=config filling 3 exceeds the 2 fermion modes of the lattice\n"
        "error: category=config map-residual window 2 exceeds n_max 1\n")
    assert not out.exists()


@pytest.mark.parametrize("text,problem", [
    ("command = ground-state\n[manybody]\nfilling = 3\n",
     "filling 3 exceeds the 2 fermion modes of the lattice"),
    ("command = map-residual\n[truncation]\nn_max = 1\n",
     "map-residual window 2 exceeds n_max 1"),
    ("command = action-check\n[model]\ng = 0\n", "action-check requires g > 0"),
    ("command = design\n[model]\ng = 0\n", "design requires g > 0"),
    ("command = integrate-out\n[model]\ng = 0\n", "integrate-out requires g > 0"),
])
def test_a_value_refused_against_another_key_leaves_no_output(tmp_path, capsys, text,
                                                              problem):
    # parse_config refuses these before run_command makes the output directory
    code, out = _run(tmp_path, text)
    assert code == 2
    assert capsys.readouterr().err == f"error: category=config {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "command = dispersion\n[manybody]\nfilling = 99\n",
    "command = slopes\n[truncation]\nn_max = 0\nwindow = 3\n",
    "command = fermi-points\n[model]\ng = 0\n",
])
def test_a_value_check_holds_for_its_commands_only(tmp_path, text):
    code, out = _run(tmp_path, text)
    assert code == 0
    assert (out / "manifest.txt").exists()


@pytest.mark.parametrize("command", ["wick-sweep", "map-residual"])
@pytest.mark.parametrize("g_values", ["", " , ,"])
def test_an_empty_sweep_is_config_error(tmp_path, capsys, command, g_values):
    # an empty sweep would solve nothing yet exit 0 with a header-only table
    code, out = _run(tmp_path, f"command = {command}\n[sweep]\ng_values = {g_values}\n")
    assert code == 2
    assert ("error: category=config line 3: key 'g_values' out of range "
            "(expected one or more floats >= 0)") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,section,key,raw,kind", [
    # before: an IndexError traceback from an empty multiplet, exit 1
    ("ground-state", "model", "g", "inf", "float"),
    ("ground-state", "model", "g", "1e400", "float"),   # parses to inf
    # before: ZeroDivisionError, exit 1
    ("wick-sweep", "sweep", "g_values", "0, inf", "floatlist"),
    ("wick-sweep", "sweep", "g_values", "1e-3, 1e400", "floatlist"),
    # before: exit 0 and u=nan in the design sheet
    ("design", "hubbard", "a_s", "nan", "float"),
    # before: exit 1 with "dictionary requires J_x = J_y"
    ("map-couplings", "map", "xi1x", "nan", "float"),
    ("map-couplings", "map", "xi2y", "-inf", "float"),
])
def test_a_non_finite_float_is_config_error(tmp_path, capsys, command, section, key, raw, kind):
    code, out = _run(tmp_path, f"command = {command}\n[{section}]\n{key} = {raw}\n")
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: category=config line 3: key '{key}' expects {kind}, got '{raw}'" in err
    assert "Traceback" not in err
    assert not out.exists()


_OVERFLOW = "the design constants (D, Delta and the boson prefactors) overflow or underflow"


@pytest.mark.parametrize("command,key,raw", [
    # before: an OverflowError traceback, exit 1
    *[(command, "mu", "1e200") for command in (
        "ground-state", "correlators", "wick-sweep", "map-residual", "spectrum",
        "graviton-modes", "integrate-out")],
    ("ground-state", "l", "1e200"),
    ("ground-state", "g", "1e300"),
    # before: a ZeroDivisionError traceback, exit 1
    ("ground-state", "l", "1e-200"),
    # before: "operator has a non-finite entry" or a LinAlgError, exit 1
    ("ground-state", "g", "1e-320"),
    ("graviton-modes", "g", "1e-320"),
    ("spectrum", "g", "1e-320"),
])
def test_a_model_value_whose_constants_overflow_is_config_error(tmp_path, capsys,
                                                                command, key, raw):
    code, out = _run(tmp_path, f"command = {command}\n[model]\n{key} = {raw}\n")
    assert code == 2
    err = capsys.readouterr().err
    model = {"g": "0.01", "l": "1.0", "mu": "1.0"} | {key: repr(float(raw))}
    assert err.startswith(f"error: category=config [model] g = {model['g']}, "
                          f"l = {model['l']}, mu = {model['mu']}: {_OVERFLOW}\n")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,g_values,bad", [
    ("wick-sweep", "0, 1e300, 1e-3", "1e+300"),
    ("map-residual", "1e-3, 1e300", "1e+300"),
    ("map-residual", "1e-3, 1e-320", "1e-320"),
])
def test_a_sweep_entry_whose_constants_overflow_is_config_error(tmp_path, capsys,
                                                                command, g_values, bad):
    code, out = _run(tmp_path, f"command = {command}\n[sweep]\ng_values = {g_values}\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: category=config [sweep] g_values entry {bad} "
        f"(at [model] l = 1.0, mu = 1.0): {_OVERFLOW}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["dispersion", "ground-state", "spectrum", "design"])
def test_a_sweep_entry_is_checked_only_by_the_commands_that_read_it(tmp_path, command):
    # before: exit 2 with the sweep entry's overflow message for every command
    text = f"command = {command}\n[sweep]\ng_values = 1e-3, 1e300\n"
    if command in ("ground-state", "spectrum"):
        text += "[lattice]\nncx = 1\nncy = 1\n[truncation]\nn_max = 1\n"
    code, out = _run(tmp_path, text)
    assert code == 0
    assert (out / "manifest.txt").exists()


_SMALL_ED = "[lattice]\nncx = 2\nncy = 1\n[truncation]\nn_max = 2\n[manybody]\nplacement = cell0\n"


@pytest.mark.parametrize("command,text,where", [
    ("correlators", "[model]\ng = 1e-100\n", "[model] g = 1e-100, l = 1.0, mu = 1.0"),
    ("ground-state", "[model]\ng = 1e-100\n", "[model] g = 1e-100, l = 1.0, mu = 1.0"),
    ("wick-sweep", "[sweep]\ng_values = 1e-3, 1e-100\n",
     "[sweep] g_values entry 1e-100 (at [model] l = 1.0, mu = 1.0)"),
])
def test_a_coupling_whose_boson_number_product_overflows_is_config_error(tmp_path, capsys,
                                                                        command, text, where):
    # before: exit 1 with "ValueError: operator has a non-finite entry"; the
    # simulator's N_z N_x, about D_x^2 D_z^2, overflows below G ~ 5.8e-79 l
    code, out = _run(tmp_path, f"command = {command}\n{_SMALL_ED}{text}")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: category=config {where}: the simulator's "
        "boson number product N_z N_x, about D_x^2 D_z^2, overflows\n")
    assert not out.exists()


_SOLVER_OVERFLOW = "overflow the eigensolver's norms: (12 scale row)^2 dim exceeds float max"


@pytest.mark.parametrize("command,key,raw,where", [
    # before: exit 3, "eigenpair residual inf" (operator scale 5.3e303,
    # 4.1e300 and 1.7e199 on the 54-dimensional sector)
    *[(command, key, raw, f"[model] {model}")
      for command in ("ground-state", "correlators")
      for key, raw, model in (("g", "1e100", "g = 1e+100, l = 1.0, mu = 1.0"),
                              ("mu", "1e150", "g = 0.01, l = 1.0, mu = 1e+150"),
                              ("l", "1e-100", "g = 0.01, l = 1e-100, mu = 1.0"))],
    ("wick-sweep", "mu", "1e150", "[sweep] g_values entry 0.001 (at [model] l = 1.0, mu = 1e+150)"),
    ("wick-sweep", "l", "1e-100", "[sweep] g_values entry 0.001 (at [model] l = 1e-100, mu = 1.0)"),
    ("ground-state", "l", "1.4e-76", "[model] g = 0.01, l = 1.4e-76, mu = 1.0"),   # just outside
])
def test_a_hamiltonian_too_large_for_the_solver_norms_is_config_error(tmp_path, capsys,
                                                                     command, key, raw, where):
    code, out = _run(tmp_path, f"command = {command}\n{_SMALL_ED}[model]\n{key} = {raw}\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: category=config {where}: the Hamiltonian's entries")
    assert err.endswith(f"{_SOLVER_OVERFLOW}\n") and "Traceback" not in err
    assert not (out / "manifest.txt").exists()


def test_a_sweep_entry_too_large_for_the_solver_norms_is_config_error(tmp_path, capsys):
    code, _ = _run(tmp_path, f"command = wick-sweep\n{_SMALL_ED}[sweep]\ng_values = 0, 1e100\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: category=config [sweep] g_values entry 1e+100 "
                          "(at [model] l = 1.0, mu = 1.0): the Hamiltonian's entries")
    assert err.endswith(f"{_SOLVER_OVERFLOW}\n")


@pytest.mark.parametrize("command,text", [
    # just inside the solver-norm bound: largest entry 7.4e150, rows of 19
    ("ground-state", f"{_SMALL_ED}[model]\nl = 1.5e-76\n"),
    # no Lanczos or residual: these print finite values
    ("spectrum", f"{_SMALL_ED}[model]\ng = 1e100\n"),
    ("map-residual", f"{_SMALL_ED}[model]\nl = 1e-100\n"),
])
def test_a_hamiltonian_the_solver_norm_bound_lets_through_runs(tmp_path, command, text):
    code, out = _run(tmp_path, f"command = {command}\n{text}")
    assert code == 0
    assert (out / "manifest.txt").exists()


@pytest.mark.parametrize("command,text", [
    ("ground-state", f"{_SMALL_ED}[model]\ng = 1e-78\n"),   # just inside the bound
    ("graviton-modes", "[model]\ng = 1e-100\n"),          # builds no simulator
    ("wick-sweep", f"{_SMALL_ED}[model]\ng = 1e-100\n"),   # reads [sweep] g_values only
])
def test_a_coupling_the_boson_number_product_bound_lets_through_runs(tmp_path, command,
                                                                    text):
    code, out = _run(tmp_path, f"command = {command}\n{text}")
    assert code == 0
    assert (out / "manifest.txt").exists()


def test_a_zero_lattice_depth_is_config_error(tmp_path, capsys):
    # before: exit 0 with sigma_axis0..2=inf and u=0.0 in the design sheet
    code, out = _run(tmp_path, "command = design\n[hubbard]\nv0 = 0\n")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: category=config line 3: key 'v0' out of range (expected > 0)\n")
    assert not out.exists()


def test_seed_flag_is_checked_like_the_config_seed(tmp_path, capsys):
    # the --seed override goes through the same "64-bit non-negative" check
    for command, seed in (("spin-connection", "-3"), ("design", str(10 ** 23))):
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(f"command = {command}\n")
        out = tmp_path / command
        assert main([str(cfg), "--seed", seed, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: category=config --seed {seed} out of range "
                       "(expected 64-bit non-negative)\n")
        assert not (out / "manifest.txt").exists()
    code, out = _run(tmp_path, "command = design\nseed = 11\n")
    assert code == 0 and "seed=11" in (out / "manifest.txt").read_text().splitlines()
    cfg = tmp_path / "cfg.txt"
    assert main([str(cfg), "--seed", "5", "--output", str(out)]) == 0
    assert "seed=5" in (out / "manifest.txt").read_text().splitlines()


def test_import_loads_no_sympy_optimize_or_sparse():
    src = Path(gravlat.__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import gravlat.cli; "
             "print(','.join(m for m in sys.modules"
             " if m.split('.')[0] in ('sympy', 'scipy')"
             " or m in ('gravlat.manybody', 'gravlat.momentum')))")
    loaded = subprocess.run([sys.executable, "-c", probe, str(src)], check=True,
                            capture_output=True, text=True).stdout.strip()
    assert loaded == ""


def _fresh_child(code: str, **env) -> str:
    """Standard output of ``code`` in a new interpreter on this ``src``.
    OPENBLAS_NUM_THREADS is dropped from its environment, since this test
    process imported gravlat.cli, which set it, and ``env`` is added."""
    src = Path(gravlat.__file__).resolve().parents[1]
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = str(src)
    return subprocess.run([sys.executable, "-c", code], env=child_env | env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_gravlat_loads_no_numpy():
    # gravlat.cli can cap the OpenBLAS threads only before numpy loads
    assert _fresh_child("import sys, gravlat; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("user_value,expected", [(None, "1"), ("2", "2")])
def test_cli_caps_the_openblas_threads_unless_the_user_did(user_value, expected):
    env = {} if user_value is None else {"OPENBLAS_NUM_THREADS": user_value}
    probe = "import os, gravlat.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_child(probe, **env) == expected


def test_idle_openblas_workers_do_not_spin_after_import_of_the_cli():
    # OpenBLAS's default lets its worker spin on the other core for 55-135 ms
    # after a threaded call: about 135 ms of CPU during this sleep
    probe = """
import resource, time
import gravlat.cli
import numpy as np
a = np.random.default_rng(0).normal(size=(400, 400))
a @ a
def cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime
before = cpu()
time.sleep(0.3)
print(cpu() - before)
"""
    assert float(_fresh_child(probe)) < 0.02


# (config, artifact): no many-body command loads scipy, nor numpy.ma (which
# np.unique loads on first use: 12-17 ms per process).  The dense ones are
# spectrum (1536, one dense eigvalsh per momentum block: 752 and 784),
# map-residual (window blocks) and a wick-sweep whose sectors are all at
# most 512; the ground-state (1280) takes the Lanczos path
_SCIPY_CONTRACT = {
    "wick-sweep": ("""
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
""", "wick_sweep.csv"),
    "spectrum": ("""
command = spectrum
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 3
[manybody]
placement = per_cell
""", "spectrum.csv"),
    "map-residual": ("""
command = map-residual
[lattice]
ncx = 3
ncy = 1
[truncation]
n_max = 2
window = 1
[manybody]
placement = per_cell
[sweep]
g_values = 0, 1e-3, 3e-3, 1e-2
""", "map_residual.csv"),
    "ground-state": ("""
command = ground-state
[lattice]
ncx = 3
ncy = 1
[truncation]
n_max = 1
[manybody]
placement = per_cell
""", "ground_state.csv"),
}


def test_many_body_commands_load_no_scipy(tmp_path):
    src = Path(gravlat.__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); from gravlat.cli import main; "
             "code = main(sys.argv[2:]); "
             "print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules),"
             " 'numpy.ma' in sys.modules)")
    for name, (config, artifact) in _SCIPY_CONTRACT.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config)
        out = subprocess.run([sys.executable, "-c", probe, str(src), str(cfg),
                              "--output", str(tmp_path / name)],
                             check=True, capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "0 False False", name
        assert (tmp_path / name / artifact).exists()


def test_a_lanczos_path_run_loads_no_numpy_random(tmp_path):
    # the start vectors are a numpy integer hash; importing numpy.random for
    # them alone raised the ED ladder's peak RSS by 5.2 MB
    src = Path(gravlat.__file__).resolve().parents[1]
    cfg = tmp_path / "correlators.cfg"
    cfg.write_text(_SCIPY_CONTRACT["ground-state"][0].replace("ground-state", "correlators"))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); from gravlat.cli import main; "
             "code = main(sys.argv[2:]); print(code, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe, str(src), str(cfg),
                          "--output", str(tmp_path / "out")],
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 False"
    manifest = _manifest(tmp_path / "out")
    assert int(manifest["sector_dimension"]) == 1280 and int(manifest["eigen_matvecs"]) > 0


def test_lanczos_iteration_limit_exits_3(tmp_path, monkeypatch, capsys):
    import gravlat.manybody as manybody

    monkeypatch.setattr(manybody, "LANCZOS_MAXITER", 5)
    code, out = _run(tmp_path, _SCIPY_CONTRACT["ground-state"][0])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "error: category=convergence Lanczos did not converge in 5 steps")
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("command", ["correlators", "wick-sweep", "ground-state",
                                     "map-residual", "spectrum"])
def test_no_full_space_operator_on_the_cli_path(tmp_path, monkeypatch, command):
    from gravlat.manybody import FockSpace, ModeOperators, operator_algebra

    def refuse(self):
        raise AssertionError("full-space mode operator built")

    monkeypatch.setattr(ModeOperators, "c", property(refuse))
    with pytest.raises(AssertionError):
        operator_algebra(FockSpace(2, (0,), 1)).c
    code, _ = _run(tmp_path, f"""
command = {command}
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 1
window = 1
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


def test_an_exactly_zero_wick_residual_reports_the_first_pair_quadruple(tmp_path):
    # no fermion on 1x1: every c_i psi vanishes, so the cumulant is exactly 0
    code, out = _run(tmp_path, "command = correlators\n[manybody]\nfilling = 0\n")
    assert code == 0
    summary = dict(line.split("=", 1)
                   for line in (out / "correlator_summary.txt").read_text().splitlines())
    assert summary["wick_residual"] == "0.0"
    assert summary["wick_argmax"] == "0-1-0-1"


def test_weak_fluctuation_ratios_read_the_correlator_occupations(tmp_path):
    # <d_m+ d_m> has one reader: each ratio_* line is the diagonal of
    # d_dag_d over D_m^2, to the last bit
    from gravlat.designer import optical_params
    from gravlat.manybody import (assemble_simulator_hamiltonian, correlators_and_wick,
                                  ground_state)
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
    gs = ground_state(assemble_simulator_hamiltonian(cfg.params, cfg.lattice, space), space)
    occupations = correlators_and_wick(gs, space).d_dag_d.diagonal().real
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


def test_state_csv_writer_matches_the_per_row_writer(tmp_path, monkeypatch):
    import gravlat.ed_commands as ed_commands
    from gravlat.manybody import assemble_simulator_hamiltonian, ground_state
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
    _per_row_state_csv(tmp_path / "old.csv", header, gs.states[0])
    assert written == (tmp_path / "old.csv").read_bytes()

    # negative, sub-1e-300 (subnormal) and exactly zero entries, real and complex
    v = gs.vectors[0].copy()
    v[:6] = [0.0, -0.0, -0.75, 1e-310, -5e-324, 2.5e-301]
    for vec in (v, v * np.exp(0.3j)):
        full = np.zeros(space.dimension, dtype=vec.dtype)
        full[space.sector_indices()] = vec
        monkeypatch.setattr(ed_commands, "_solve",
                            lambda cfg, params, vec=vec: replace(gs, vectors=[vec]))
        ed_commands.DISPATCH["ground-state"](cfg, tmp_path, [])
        _per_row_state_csv(tmp_path / "old.csv", header, full)
        new = (tmp_path / "ground_state.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert len(new.splitlines()) == 6 + np.count_nonzero(vec)
        if vec.dtype == float:
            assert all(row in new for row in (b",-0.75,0.0\n", b",1e-310,0.0\n",
                                              b",-5e-324,0.0\n", b",2.5e-301,0.0\n"))


def test_dispersion_matches_the_per_point_writer(tmp_path, monkeypatch):
    import gravlat.cli as cli
    from gravlat.lattice import reciprocal_vectors
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
    _per_value_csv(tmp_path / "per_point.csv", "kx,ky,E1,E2", rows)
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
    assert "eigen_k=2" in manifest  # one run finds E0, one the level above
    matvecs = [int(ln.split("=")[1]) for ln in manifest if ln.startswith("eigen_matvecs=")]
    assert len(matvecs) == 1 and matvecs[0] > 0
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


@pytest.mark.parametrize("ncx, placement, k", [(2, "cell0", "24"), (3, "per_cell", "2")])
def test_correlators_manifest_records_solver_statistics(tmp_path, ncx, placement, k):
    # 2x1 cell0 (dimension 24) is solved densely, 3x1 per_cell (1280) by Lanczos
    code, out = _run(tmp_path, f"""
command = correlators
[lattice]
ncx = {ncx}
ncy = 1
[truncation]
n_max = 1
[manybody]
placement = {placement}
""")
    assert code == 0
    manifest = dict(line.split("=", 1) for line in
                    (out / "manifest.txt").read_text().splitlines())
    assert manifest["eigen_k"] == k
    assert (int(manifest["eigen_matvecs"]) > 0) == (k == "2")
    assert 0.0 <= float(manifest["eigen_residual"]) < 1e-10


_TRUNCATION_CONFIG = """
[lattice]
ncx = 2
ncy = 1
[truncation]
n_max = 2
[manybody]
placement = cell0
"""


def _solved(cfg, g):
    """The ground state of the simulator of ``cfg`` at coupling g > 0."""
    from gravlat.geometry import ModelParams
    from gravlat.manybody import assemble_simulator_hamiltonian, ground_state

    space = cfg.fock_space()
    params = ModelParams(G=g, l=cfg.params.l, mu=cfg.params.mu)
    return ground_state(assemble_simulator_hamiltonian(params, cfg.lattice, space), space)


def _top_level_weight_oracle(gs):
    """max over boson modes m of P(n_m = n_max), summed over the full-space
    embedding of each multiplet vector, each weighted 1/g."""
    space = gs.space
    base = space.n_max + 1
    boson = np.arange(space.dimension) % space.boson_dim
    weight = np.zeros(space.n_boson_modes)
    for psi in gs.states:
        prob = np.abs(psi) ** 2
        for m in range(space.n_boson_modes):
            on_top = boson // base ** m % base == space.n_max
            weight[m] += prob[on_top].sum() / gs.multiplicity
    return weight.max()


@pytest.mark.parametrize("command", ["ground-state", "correlators"])
def test_top_level_weight_is_the_weight_on_the_top_boson_level(tmp_path, command):
    text = f"command = {command}\n" + _TRUNCATION_CONFIG
    code, out = _run(tmp_path, text)
    assert code == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert sum(ln.startswith("top_level_weight=") for ln in manifest) == 1
    want = _top_level_weight_oracle(_solved(parse_config(text), 1e-2))
    assert 0.0 < want < 1.0
    assert float(_manifest(out)["top_level_weight"]) == pytest.approx(want, rel=1e-12, abs=0)


def test_wick_sweep_top_level_weight_is_the_largest_over_its_couplings(tmp_path):
    text = ("command = wick-sweep\n" + _TRUNCATION_CONFIG
            + "[sweep]\ng_values = 1e-2, 0, 1e-3\n")
    code, out = _run(tmp_path, text)
    assert code == 0
    cfg = parse_config(text)
    weights = [_top_level_weight_oracle(_solved(cfg, g)) for g in (1e-2, 1e-3)]
    assert weights[0] != weights[1]
    assert float(_manifest(out)["top_level_weight"]) == pytest.approx(max(weights),
                                                                      rel=1e-12, abs=0)


@pytest.mark.parametrize("command", ["ground-state", "correlators", "wick-sweep"])
@pytest.mark.parametrize("g, n_max, want", [
    ("1e-2", 0, 1.0),   # every mode sits on its one kept level
    ("0", 2, 0.0),      # the bosons are dropped at g = 0
])
def test_top_level_weight_limits(tmp_path, command, g, n_max, want):
    text = (f"command = {command}\n[model]\ng = {g}\n"
            + _TRUNCATION_CONFIG.replace("n_max = 2", f"n_max = {n_max}")
            + f"[sweep]\ng_values = {g}\n")
    code, out = _run(tmp_path, text)
    assert code == 0
    assert float(_manifest(out)["top_level_weight"]) == pytest.approx(want, rel=0, abs=1e-12)


@pytest.mark.parametrize("command", ["ground-state", "correlators", "wick-sweep"])
@pytest.mark.parametrize("g, converged", [("0", "true"), ("1e-2", "false")])
def test_the_truncation_verdict_stands_beside_the_top_level_weight(tmp_path, command, g,
                                                                    converged):
    # at g = 0 no boson is kept, so nothing sits on the cut; at 1e-2 every
    # state of the d-number basis does (about 1 / (n_max + 1))
    text = (f"command = {command}\n[model]\ng = {g}\n" + _TRUNCATION_CONFIG
            + f"[sweep]\ng_values = {g}\n")
    code, out = _run(tmp_path, text)
    assert code == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("top_level_weight="))
    assert lines[at + 1:at + 3] == [f"truncation_converged={converged}",
                                    "truncation_rule=top_level_weight <= 1e-6"]


@pytest.mark.parametrize("ncx, placement, n_max", [
    (2, "cell0", 2),      # dimension 54, solved densely
    (3, "per_cell", 1),   # dimension 1280, Lanczos
])
@pytest.mark.parametrize("g", ["0", "1e-3", "1e-2"])
def test_half_filled_correlators_are_particle_hole_symmetric(tmp_path, ncx, placement,
                                                             n_max, g):
    # W = prod_i (c_i + eps_i c_i+), eps = +1 on A and -1 on B, acts on the
    # fermions alone and commutes with H at half filling; it maps c_i+ c_j to
    # delta_ij - c_j+ c_i on a sublattice: C_ii = 1/2, and C_ij = 0 for
    # i != j on the same sublattice of a real state
    code, out = _run(tmp_path, f"""
command = correlators
[model]
g = {g}
[lattice]
ncx = {ncx}
ncy = 1
[truncation]
n_max = {n_max}
[manybody]
placement = {placement}
""")
    assert code == 0
    nf = 2 * ncx
    c = np.zeros((nf, nf), dtype=complex)
    for row in (out / "c_matrix.csv").read_text().splitlines()[1:]:
        i, j, re, im = row.split(",")
        c[int(i), int(j)] = complex(float(re), float(im))
    np.testing.assert_allclose(c.diagonal(), 0.5, rtol=0, atol=1e-10)
    for sublattice in (slice(0, ncx), slice(ncx, nf)):
        block = c[sublattice, sublattice]
        np.testing.assert_allclose(block - np.diag(block.diagonal()), 0.0, rtol=0, atol=1e-10)


_MANY_BODY_CONFIGS = {
    "spectrum": "",
    "ground-state": "",
    "correlators": "",
    "wick-sweep": "[sweep]\ng_values = 0, 1e-2\n",
    "map-residual": "[sweep]\ng_values = 0, 1e-2\n",   # the g = 0 point is skipped
}


def test_every_many_body_manifest_key_is_documented(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    common = {"code_version", "weak_coupling_ratio", "wall_time_s"}
    undocumented = {}
    for command, extra in _MANY_BODY_CONFIGS.items():
        text = (f"command = {command}\n"
                + _TRUNCATION_CONFIG.replace("n_max = 2", "n_max = 1\nwindow = 1") + extra)
        code, out = _run(tmp_path, text, out=command)
        assert code == 0
        echo = {name for name, _ in parse_config(text).to_pairs()}
        added = set(_manifest(out)) - echo - common
        assert added, command
        missing = sorted(key for key in added if f"`{key}`" not in readme)
        if missing:
            undocumented[command] = missing
    assert undocumented == {}


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


def test_integrate_out_default_artifact_bytes(tmp_path):
    code, out = _run(tmp_path, "command = integrate-out\n")
    assert code == 0
    assert (out / "integrate_out.txt").read_text() == (
        "coefficient=-0.12566370614359174\n"
        "coefficient_exact_multiple_of_piG_over_l2mu2=-4\n"
        "sample_j1=0.7\n"
        "sample_j2=-0.3\n"
        "density_closed_form=0.05277875658030852\n"
        "density_quadrature_oracle=0.05277875658030843\n"
        "oracle_residual=-9.020562075079397e-17\n"
        "weak_coupling_ratio=0.25132741228718347\n")


@pytest.mark.parametrize("g,oracle", [("1e3", "-inf"), ("1e4", "-inf"), ("1e100", "-inf"),
                                      ("10", "nan")])
def test_a_non_finite_integrate_out_oracle_is_config_error(tmp_path, capsys, g, oracle):
    # before: exit 0 with density_quadrature_oracle and oracle_residual -inf
    # (the Gauss-Hermite sum overflows) or nan (its real part goes negative)
    code, out = _run(tmp_path, f"command = integrate-out\n[model]\ng = {g}\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: category=config [model] g = {float(g)!r}, l = 1.0, mu = 1.0: the "
        f"Gauss-Hermite quadrature oracle of integrate-out is not finite ({oracle})\n")
    assert not (out / "integrate_out.txt").exists()


@pytest.mark.parametrize("g,oracle,closed", [("5", "26.37827773956052", "26.389378290154262"),
                                             ("100", "-100.45512517571592", "527.7875658030852")])
def test_an_unresolved_integrate_out_oracle_is_config_error(tmp_path, capsys, g, oracle,
                                                            closed):
    # before: exit 0 with an oracle 4.2e-4 (g = 5) or 2.2 (g = 100) off the
    # closed form, relative
    code, out = _run(tmp_path, f"command = integrate-out\n[model]\ng = {g}\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: category=config [model] g = {float(g)!r}, l = 1.0, mu = 1.0: the "
        f"Gauss-Hermite quadrature oracle of integrate-out ({oracle}) does not resolve "
        f"the closed form ({closed})\n")
    assert not (out / "integrate_out.txt").exists()


def test_integrate_out_at_g_3_still_writes_its_bytes(tmp_path):
    # relative oracle gap 8.5e-11, inside the 1e-8 bound
    code, out = _run(tmp_path, "command = integrate-out\n[model]\ng = 3\n")
    assert code == 0
    lines = (out / "integrate_out.txt").read_text().splitlines()
    assert lines[4:7] == ["density_closed_form=15.833626974092557",
                          "density_quadrature_oracle=15.833626972753699",
                          "oracle_residual=-1.3388579134243628e-09"]
