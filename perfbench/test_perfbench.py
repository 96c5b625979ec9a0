"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` (about 75 s).

The checker must reject a corrupted artifact and a wrong exit code, the
traced run must leave artifacts byte-identical to the untraced run, and a
one-pass run of every workload must report no failed runs and exactly the
metric names BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from check import check_job, compare_trees, load_reference
from make_reference import exact_wick_maximum
from run import CLI, ROOT, spawn
from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
JOBS = {job.name: job for jobs in WORKLOADS.values() for job in jobs}


def _run_cli(job, outdir):
    cfg = outdir.parent / f"{job.name}.cfg"
    cfg.write_text(job.config)
    return spawn([sys.executable, "-c", CLI, str(cfg), "--seed", "3",
                  "--output", str(outdir)])[0]


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("name,artifact,key", [
    ("map-couplings", "map_couplings.txt", "jx="),
    ("a-wick-sweep", "wick_sweep.csv", "0.003,"),
])
def test_checker_rejects_corrupted_artifact(tmp_path, name, artifact, key):
    job, reference = JOBS[name], load_reference()
    out = tmp_path / name
    assert _run_cli(job, out) == 0
    assert check_job(job, out, 0, reference) == []
    path = out / artifact
    lines = path.read_text().splitlines(keepends=True)
    (row,) = [i for i, line in enumerate(lines) if line.startswith(key)]
    # perturb the first significant digit after the key
    head, tail = lines[row][:len(key)], lines[row][len(key):]
    digit = next(i for i, ch in enumerate(tail) if ch in "123456789")
    lines[row] = head + tail[:digit] + str(int(tail[digit]) % 9 + 1) + tail[digit + 1:]
    path.write_text("".join(lines))
    assert check_job(job, out, 0, reference)


def test_checker_rejects_wrong_exit_code(tmp_path):
    job = JOBS["d-ground-state"]
    capped = Job(job.name, job.config.replace("nnz_cap = 8388608\n", ""))
    code = _run_cli(capped, tmp_path / "d")
    assert code == 4  # the default nnz_cap rejects config (d)
    problems = check_job(job, tmp_path / "d", code, load_reference())
    assert problems and "exit code 4" in problems[0]


def test_compare_trees_ignores_only_the_wall_time_line(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, wall in ((a, "1.5"), (b, "2.5")):
        d.mkdir()
        (d / "manifest.txt").write_text(f"seed=3\nwall_time_s={wall}\n")
        (d / "data.csv").write_text("x\n1.0\n")
    assert compare_trees(a, b) == []
    (b / "data.csv").write_text("x\n1.0000000000000002\n")
    assert compare_trees(a, b) == ["data.csv differs between traced and untraced runs"]


def test_pair_gram_oracle_matches_full_enumeration():
    # config (b) has nf = 6, where the CLI enumerates every quadruple
    exact = exact_wick_maximum(JOBS["b-correlators"].config)
    assert exact == pytest.approx(load_reference()["b-correlators"]["wick_residual"],
                                  rel=1e-9)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_one_pass_smoke(workload):
    code, out = _bench("--workload", workload, "--seed", "2", "--seconds", "0",
                       "--trace", "0")
    assert code == 0, out
    result = json.loads(out.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), out
    assert result["attempted"] == len(WORKLOADS[workload])
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_is_byte_identical_and_reports_every_layer():
    code, out = _bench("--workload", "map-dense", "--seed", "2", "--seconds", "0",
                       "--trace", "1")
    assert code == 0, out
    result = json.loads(out.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), out
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["solver.dense_eig_dim_max"]["value"] == 1536


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = _bench("--workload", "checks", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert "{" not in out
