import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import artifact_diff  # noqa: E402


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_compare_ignores_the_wall_time_and_reports_every_other_difference(tmp_path):
    manifest = b"command=spectrum\nwall_time_s=%s\nsector_dimension=54\n"
    old = _tree(tmp_path / "old", {
        "1/job/manifest.txt": manifest % b"0.25",
        "1/job/spectrum.csv": b"index,energy\n0,-2.5\n1,-1.0\n",
        "1/job/only_old.csv": b"x\n",
        "7/job/same.csv": b"a\n1\n",
    })
    new = _tree(tmp_path / "new", {
        "1/job/manifest.txt": manifest % b"0.31",
        "1/job/spectrum.csv": b"index,energy\n0,-2.5\n1,-1.0000000000000002\n",
        "7/job/only_new.csv": b"y\n",
        "7/job/same.csv": b"a\n1\n",
    })
    assert artifact_diff.compare(old, new) == [
        "1/job/only_old.csv: only in REV",
        "1/job/spectrum.csv: line 3: '1,-1.0' -> '1,-1.0000000000000002'",
        "7/job/only_new.csv: only in working tree",
    ]


def test_compare_reports_a_manifest_change_besides_the_wall_time(tmp_path):
    old = _tree(tmp_path / "old", {"job/manifest.txt": b"wall_time_s=1\neigen_k=2\n"})
    new = _tree(tmp_path / "new", {"job/manifest.txt": b"wall_time_s=2\neigen_k=3\n"})
    assert artifact_diff.compare(old, new) == [
        "job/manifest.txt: line 1: 'eigen_k=2' -> 'eigen_k=3'"]


def test_extra_jobs_add_names_no_benchmark_job_has():
    names = [job.name for jobs in artifact_diff.WORKLOADS.values() for job in jobs]
    extra = [job.name for job in artifact_diff.EXTRA_JOBS]
    assert len(extra) == 16 and len(set(names + extra)) == len(names) + 16


@pytest.mark.parametrize("seeds", ["", ",", " , "])
def test_an_empty_seed_list_exits_2_before_anything_runs(monkeypatch, capsys, seeds):
    def refuse(*args):
        raise AssertionError("nothing may run on an empty seed list")

    monkeypatch.setattr(artifact_diff, "extract_src", refuse)
    monkeypatch.setattr(artifact_diff, "run_jobs", refuse)
    with pytest.raises(SystemExit) as exc:
        artifact_diff.main(["HEAD", "--seeds", seeds])
    assert exc.value.code == 2
    assert "lists no seed" in capsys.readouterr().err


def test_a_non_zero_exit_is_reported_even_when_both_sides_agree():
    old = {(1, "a"): 0, (1, "b"): 1, (7, "a"): 0, (7, "b"): 4}
    new = {(1, "a"): 0, (1, "b"): 1, (7, "a"): 3, (7, "b"): 0}
    assert artifact_diff.exit_code_problems(old, new) == [
        "1/b: exit code 1 on both sides",
        "7/a: exit code 0 -> 3",
        "7/b: exit code 4 -> 0",
    ]
