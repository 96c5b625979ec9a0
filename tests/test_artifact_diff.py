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
        "1/job/spectrum.csv: line 3: '1,-1.0' -> '1,-1.0000000000000002'"
        "; largest change 2.22e-16 abs, 2.22e-16 rel",
        "7/job/only_new.csv: only in working tree",
    ]


def test_compare_reports_a_manifest_change_besides_the_wall_time(tmp_path):
    old = _tree(tmp_path / "old", {"job/manifest.txt": b"wall_time_s=1\neigen_k=2\n"})
    new = _tree(tmp_path / "new", {"job/manifest.txt": b"wall_time_s=2\neigen_k=3\n"})
    assert artifact_diff.compare(old, new) == [
        "job/manifest.txt: line 1: 'eigen_k=2' -> 'eigen_k=3'"
        "; largest change 1 abs, 0.333 rel"]


def test_extra_jobs_add_names_no_benchmark_job_has():
    names = [job.name for jobs in artifact_diff.WORKLOADS.values() for job in jobs]
    extra = [job.name for job in artifact_diff.EXTRA_JOBS]
    assert len(extra) == 17 and len(set(names + extra)) == len(names) + 17


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


def test_the_largest_change_is_read_only_where_both_sides_have_one_shape(tmp_path):
    old = _tree(tmp_path / "old", {
        "a.csv": b"g,w,note\n0.001,1.0,x\n0.01,-2.0,y\n",
        "b.csv": b"g,w\n0.001,1.0\n",
        "summary.txt": b"e=1.0\nz=1.0+2.0j\nargmax=0-1-0-1\n",
        "manifest.txt": b"wall_time_s=1\ne=1.0\n",
        "notes.txt": b"free text\n",
        "zero.csv": b"a,b\n1,-0.0\n",
    })
    new = _tree(tmp_path / "new", {
        # the largest absolute change (0.5) and the largest relative one
        # (0.5 / 1.5 against 1e-3 / 2.0) come from different fields
        "a.csv": b"g,w,note\n0.001,1.5,z\n0.01,-2.001,y\n",
        "b.csv": b"g,w\n0.001,1.0\n0.01,2.0\n",          # a line more
        "summary.txt": b"e=1.0\nz=1.0+2.5j\nargmax=0-1-1-2\n",
        "manifest.txt": b"wall_time_s=2\ne=1.0\ntruncation_converged=false\n",  # a key more
        "notes.txt": b"other text\n",
        "zero.csv": b"a,b\n1,0.0\n",                    # a signed zero flips
    })
    assert artifact_diff.compare(old, new) == [
        "a.csv: line 2: '0.001,1.0,x' -> '0.001,1.5,z'; largest change 0.5 abs, 0.333 rel",
        "b.csv: 2 -> 3 lines",
        "manifest.txt: 1 -> 2 lines",
        "notes.txt: line 1: 'free text' -> 'other text'",
        "summary.txt: line 2: 'z=1.0+2.0j' -> 'z=1.0+2.5j'; largest change 0.5 abs, 0.186 rel",
        "zero.csv: line 2: '1,-0.0' -> '1,0.0'; largest change 0 abs, 0 rel",
    ]
