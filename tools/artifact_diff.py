"""Compare the artifacts of every benchmark job between a revision and the working tree.

    python3 tools/artifact_diff.py REV [--seeds 1,7]

Extracts ``src`` of the git revision REV with ``git archive`` into a
temporary directory, then runs every job of ``perfbench/workloads.py``
(imported, never written) and every job of :data:`EXTRA_JOBS` once per
seed as one ``gravlat <cfg> --seed S`` process against REV's ``src`` and
once against the working tree's ``src``.  Exit codes are compared, and
every artifact byte for byte; ``manifest.txt`` is compared without its
``wall_time_s`` line.  Every job is expected to exit 0, so a non-zero
exit on the working tree is reported even when REV exits the same way.
Each difference is printed on one line, with the first differing line of
a file that exists on both sides.  When both sides of a differing CSV or
key=value file have the same shape (the same number of fields on every
CSV line, the same keys in the same order), the line ends with the
largest absolute and relative change over the fields that read as numbers
on both sides, relative to the larger magnitude (0 for a change of zero,
a signed zero that flips).  Exits 1 on any difference, 0
otherwise, and 2, before anything runs, when ``--seeds`` lists no seed.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = "import sys; from gravlat.cli import main; sys.exit(main())"
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, Job, _cfg  # noqa: E402


# Paths no benchmark job takes: the shared (``uniform``) pair, a 2D
# many-body lattice, a filling other than half, window 0, window = n_max
# (the whole boson factor kept: 2x1 ``per_cell`` at n_max = 2, a 486 x 486
# block), the mapping residual on background bonds (``cell0``) and on the
# shared pair, the particle-hole split alone (half-filled ``cell0``, no
# translations), the one-state pair basis (n_max = 0), a Lanczos-path
# multiplet (3x1 ``per_cell`` at filling 2: sector 960, multiplicity 2, so
# the second level's run, which sees the first one's deflation, is rerun),
# a ground-state table of several write chunks on the 729-state boson factor
# (3x1 ``per_cell``, n_max = 2: 14 580 rows of ``ground_state.csv``), and
# the slab checks on a non-square slab: the refinement study at nt = 3
# (one chunk), 5 and 7 (chunks of 3 slices; 7 is the largest nt with that
# size) and action-check at nt = 5 with 5 modes.
EXTRA_JOBS = (
    Job("uniform-correlators", _cfg(
        "command = correlators",
        "[lattice]", "ncx = 2", "ncy = 1",
        "[truncation]", "n_max = 2",
        "[manybody]", "placement = uniform")),
    Job("uniform-spectrum", _cfg(
        "command = spectrum",
        "[lattice]", "ncx = 3", "ncy = 1",
        "[truncation]", "n_max = 3",
        "[manybody]", "placement = uniform")),
    Job("cell0-spectrum", _cfg(
        "command = spectrum",
        "[lattice]", "ncx = 2", "ncy = 1",
        "[truncation]", "n_max = 2",
        "[manybody]", "placement = cell0")),
    Job("per-cell-2x2-correlators", _cfg(
        "command = correlators",
        "[lattice]", "ncx = 2", "ncy = 2",
        "[truncation]", "n_max = 1",
        "[manybody]", "placement = per_cell")),
    Job("per-cell-2x2-filling-1-spectrum", _cfg(
        "command = spectrum",
        "[lattice]", "ncx = 2", "ncy = 2",
        "[truncation]", "n_max = 1",
        "[manybody]", "placement = per_cell", "filling = 1")),
    Job("filling-1-wick-sweep", _cfg(
        "command = wick-sweep",
        "[lattice]", "ncx = 3", "ncy = 1",
        "[truncation]", "n_max = 1",
        "[manybody]", "placement = per_cell", "filling = 1",
        "[sweep]", "g_values = 0, 1e-3, 1e-2")),
    Job("filling-2-multiplet-correlators", _cfg(
        "command = correlators",
        "[lattice]", "ncx = 3", "ncy = 1",
        "[truncation]", "n_max = 1",
        "[manybody]", "placement = per_cell", "filling = 2")),
    Job("per-cell-ground-state", _cfg(
        "command = ground-state",
        "[lattice]", "ncx = 3", "ncy = 1",
        "[truncation]", "n_max = 2",
        "[manybody]", "placement = per_cell")),
    Job("window-0-map-residual", _cfg(
        "command = map-residual",
        "[lattice]", "ncx = 2", "ncy = 2",
        "[truncation]", "n_max = 1", "window = 0",
        "[manybody]", "placement = per_cell",
        "[sweep]", "g_values = 0, 1e-3, 1e-2")),
    Job("window-n-max-map-residual", _cfg(
        "command = map-residual",
        "[lattice]", "ncx = 2", "ncy = 1",
        "[truncation]", "n_max = 2", "window = 2",
        "[manybody]", "placement = per_cell",
        "[sweep]", "g_values = 0, 1e-3, 1e-2")),
    *(Job(f"{placement}-map-residual", _cfg(
        "command = map-residual",
        "[lattice]", "ncx = 3", "ncy = 1",
        "[truncation]", "n_max = 2", "window = 1",
        "[manybody]", f"placement = {placement}",
        "[sweep]", "g_values = 0, 1e-3, 1e-2")) for placement in ("cell0", "uniform")),
    Job("n-max-0-correlators", _cfg(
        "command = correlators",
        "[lattice]", "ncx = 2", "ncy = 1",
        "[truncation]", "n_max = 0",
        "[manybody]", "placement = per_cell")),
    *(Job(f"spin-connection-nt-{nt}", _cfg(
        "command = spin-connection",
        "[fields]", f"nt = {nt}", "nx = 16", "ny = 24")) for nt in (3, 5, 7)),
    Job("action-check-nt-5", _cfg(
        "command = action-check",
        "[fields]", "nt = 5", "nx = 16", "ny = 24", "modes = 5")),
)


def extract_src(rev: str, dest: Path) -> Path:
    """``src`` of ``rev`` unpacked under ``dest``; returns the ``src`` directory."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return dest / "src"


def run_jobs(src: Path, seeds, workdir: Path) -> dict:
    """{(seed, job name): exit code}; artifacts land in ``workdir/<seed>/<job>``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    codes = {}
    for seed in seeds:
        for jobs in (*WORKLOADS.values(), EXTRA_JOBS):
            for job in jobs:
                outdir = workdir / str(seed) / job.name
                outdir.parent.mkdir(parents=True, exist_ok=True)
                cfg = outdir.parent / f"{job.name}.cfg"
                cfg.write_text(job.config)
                codes[seed, job.name] = subprocess.run(
                    [sys.executable, "-c", CLI, str(cfg), "--seed", str(seed),
                     "--output", str(outdir)],
                    cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return codes


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "manifest.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"wall_time_s="))
    return data


def _first_difference(a: bytes, b: bytes) -> str:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {n}: {x.decode(errors='replace')!r} -> {y.decode(errors='replace')!r}"
    return f"{len(a.splitlines())} -> {len(b.splitlines())} lines"


def _rows(data: bytes, name: Path):
    """The lines of a CSV file as lists of fields, or of a key=value file
    (a ``.txt`` file whose every line holds ``=``) as [key, value]; None
    for any other file."""
    lines = data.decode(errors="replace").splitlines()
    if name.suffix == ".csv":
        return [line.split(",") for line in lines]
    if name.suffix == ".txt" and all("=" in line for line in lines):
        return [line.split("=", 1) for line in lines]
    return None


def _number(text: str):
    try:
        return complex(text)
    except ValueError:
        return None


def _largest_change(a: bytes, b: bytes, name: Path) -> str:
    """'; largest change A abs, R rel' over the numeric fields of two files
    of the same shape, or '' when the shapes differ or no number changed."""
    rows_a, rows_b = _rows(a, name), _rows(b, name)
    if rows_a is None or rows_b is None:
        return ""
    keyed = name.suffix == ".txt"
    shape = [row[0] if keyed else len(row) for row in rows_a]
    if shape != [row[0] if keyed else len(row) for row in rows_b]:
        return ""
    worst_abs = worst_rel = None
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a[keyed:], row_b[keyed:]):
            if x == y:
                continue
            x, y = _number(x), _number(y)
            if x is None or y is None:
                continue
            change = abs(x - y)
            rel = change / max(abs(x), abs(y)) if change else 0.0   # -0.0 -> 0.0
            worst_abs = change if worst_abs is None else max(worst_abs, change)
            worst_rel = rel if worst_rel is None else max(worst_rel, rel)
    if worst_abs is None:
        return ""
    return f"; largest change {worst_abs:.3g} abs, {worst_rel:.3g} rel"


def compare(old: Path, new: Path) -> list:
    """One line per file that differs between the two artifact trees."""
    names = sorted({p.relative_to(old) for p in old.rglob("*") if p.is_file()}
                   | {p.relative_to(new) for p in new.rglob("*") if p.is_file()})
    lines = []
    for name in names:
        a, b = old / name, new / name
        if not a.exists() or not b.exists():
            lines.append(f"{name}: only in {'REV' if a.exists() else 'working tree'}")
            continue
        x, y = _content(a), _content(b)
        if x != y:
            lines.append(f"{name}: {_first_difference(x, y)}{_largest_change(x, y, name)}")
    return lines


def exit_code_problems(old_codes: dict, new_codes: dict) -> list:
    """One line per (seed, job) whose exit code differs between REV and the
    working tree, or is non-zero on both sides."""
    lines = []
    for seed, name in old_codes:
        old, new = old_codes[seed, name], new_codes[seed, name]
        if old != new:
            lines.append(f"{seed}/{name}: exit code {old} -> {new}")
        elif new:
            lines.append(f"{seed}/{name}: exit code {new} on both sides")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--seeds", default="1,7", help="comma-separated seeds (default 1,7)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        parser.error(f"--seeds {args.seeds!r} lists no seed")
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        tmp = Path(tmp)
        old_src = extract_src(args.rev, tmp / "rev")
        old_codes = run_jobs(old_src, seeds, tmp / "old")
        new_codes = run_jobs(ROOT / "src", seeds, tmp / "new")
        problems = exit_code_problems(old_codes, new_codes) + compare(tmp / "old", tmp / "new")
    for line in problems:
        print(line)
    n_jobs = len(old_codes)
    print(f"{n_jobs} runs per side, seeds {','.join(map(str, seeds))}: "
          f"{len(problems)} difference(s) against {args.rev}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
