"""gravlat benchmark: drive the real CLI, one child process at a time.

    python3 perfbench/run.py --workload ed-ladder --seed 1 --seconds 30 --trace 0

A closed loop with one client: the benchmark starts the next ``gravlat
<cfg> --seed S`` process only after the previous one exited.  One pass
runs every job of the workload once; passes repeat while the next one is
expected to end within ``--seconds`` (at least one pass), and each
end-to-end metric is the median over passes.  Every run's exit code and
artifacts are checked against ``reference.json``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``   wall time of one pass, each process timed from spawn to exit;
* ``cpu_s``    user plus system CPU time of those processes (``os.wait4``);
* ``peak_rss_mb``  the largest ``ru_maxrss`` of any process in the pass;
* ``setup_s``  median wall time of fresh processes that only run
  ``import gravlat.cli``, after one untimed warm-up import.

``--trace 1`` runs one untraced and one traced pass (tracer.py), checks
that their artifacts are byte-identical, and reports the per-layer metrics
plus ``import.*`` cumulative times from ``python -X importtime``.

Failed runs are reported as ``failed`` of ``attempted`` in the result line,
which is the last line of standard output.  ``--workload all`` runs every
workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import check_job, compare_trees, load_reference
from tracer import layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
CLI = "import sys; from gravlat.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 150.0
SETUP_PROBES = 5
IMPORT_PROBES = 3
IMPORT_MODULES = {
    "import.gravlat_cli_s": "gravlat.cli",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.sympy_s": "sympy",
    "import.scipy_sparse_linalg_s": "scipy.sparse.linalg",
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, stderr=subprocess.DEVNULL):
    """Run one child to completion: (exit code, wall s, cpu s, max RSS MB, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        err = proc.stderr.read() if proc.stderr else b""
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stderr:
        proc.stderr.close()
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, err.decode(errors="replace"))


def run_pass(jobs, seed, passdir, reference, traced=False):
    """One pass over ``jobs``: per-pass totals and {job name: problems}."""
    passdir.mkdir(parents=True)
    totals = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
    failures = {}
    for job in jobs:
        outdir = passdir / job.name
        cfg = passdir / f"{job.name}.cfg"
        cfg.write_text(job.config)
        args = [str(cfg), "--seed", str(seed), "--output", str(outdir)]
        if traced:
            argv = [sys.executable, str(TRACER), str(passdir / f"{job.name}.spans.json")]
        else:
            argv = [sys.executable, "-c", CLI]
        code, wall, cpu, rss, _ = spawn(argv + args)
        totals["wall_s"] += wall
        totals["cpu_s"] += cpu
        totals["peak_rss_mb"] = max(totals["peak_rss_mb"], rss)
        problems = check_job(job, outdir, code, reference)
        if problems:
            failures[job.name] = problems
    return totals, failures


def setup_time(probes=SETUP_PROBES):
    """Median wall time of fresh ``import gravlat.cli`` processes."""
    probe = [sys.executable, "-c", "import gravlat.cli"]
    spawn(probe)  # warm-up: bytecode cache and page cache
    return statistics.median(spawn(probe)[1] for _ in range(probes))


def import_times(probes=IMPORT_PROBES):
    """Median cumulative ``-X importtime`` seconds of the IMPORT_MODULES."""
    samples = {metric: [] for metric in IMPORT_MODULES}
    for _ in range(probes):
        code, _, _, _, err = spawn([sys.executable, "-X", "importtime", "-c",
                                    "import gravlat.cli"], stderr=subprocess.PIPE)
        if code != 0:
            raise RuntimeError(f"import gravlat.cli failed:\n{err}")
        cumulative = {}
        for line in err.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
        for metric, module in IMPORT_MODULES.items():
            samples[metric].append(cumulative.get(module, 0.0))
    return {metric: statistics.median(v) for metric, v in samples.items()}


def blas_threads() -> str:
    """OpenBLAS thread count in a fresh child, or "unknown"."""
    probe = ("import ctypes, glob, os, numpy\n"
             "libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), '..',"
             " 'numpy.libs', '*openblas*'))\n"
             "lib = ctypes.CDLL(libs[0])\n"
             "for sym in ('scipy_openblas_get_num_threads64_',"
             " 'openblas_get_num_threads64_', 'openblas_get_num_threads'):\n"
             "    if hasattr(lib, sym):\n"
             "        print(getattr(lib, sym)())\n"
             "        break\n")
    try:
        out = subprocess.run([sys.executable, "-c", probe], env=_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60).stdout.strip()
    except subprocess.TimeoutExpired:
        out = ""
    return out or "unknown"


def measure(jobs, seed, seconds, workdir, reference):
    """Untraced passes for ``seconds``: (metrics, passes, failures)."""
    setup_s = setup_time()
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        passdir = workdir / f"pass{len(passes)}"
        totals, failed = run_pass(jobs, seed, passdir, reference)
        passes.append(totals)
        failures.append(failed)
        shutil.rmtree(passdir)
        # start another pass only if it should end within ``seconds``
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    metrics["setup_s"] = setup_s
    return metrics, len(passes), failures


def measure_traced(jobs, seed, workdir, reference):
    """One untraced and one traced pass: (per-layer metrics, 2, failures)."""
    metrics = import_times()
    plain, traced = workdir / "untraced", workdir / "traced"
    base, plain_failed = run_pass(jobs, seed, plain, reference)
    totals, traced_failed = run_pass(jobs, seed, traced, reference, traced=True)
    for job in jobs:
        if job.name in plain_failed or job.name in traced_failed:
            continue
        diff = compare_trees(plain / job.name, traced / job.name)
        if diff:
            traced_failed[job.name] = diff
    metrics.update(layer_metrics(sorted(traced.glob("*.spans.json"))))
    metrics["serialize.bytes_written"] = sum(
        f.stat().st_size for job in jobs if (traced / job.name).is_dir()
        for f in (traced / job.name).iterdir())
    metrics["trace.overhead_s"] = totals["wall_s"] - base["wall_s"]
    return metrics, 2, [plain_failed, traced_failed]


def run_workload(name, seed, seconds, trace, reference):
    """Measure one workload: (metrics, passes, failures per pass)."""
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if trace:
            return measure_traced(WORKLOADS[name], seed, workdir, reference)
        return measure(WORKLOADS[name], seed, seconds, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def _report(name, seed, metrics, units, passes, failures, jobs):
    attempted = passes * jobs
    failed = sum(len(f) for f in failures)
    print(f"workload={name} seed={seed} passes={passes} loop=closed clients=1")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(f"  failed_runs = {failed} of runs = {attempted}")
    for failed_pass in failures:
        for problems in failed_pass.values():
            for msg in problems:
                print(f"  FAILED {msg}")
    return attempted, failed


def metric_units(trace: bool) -> dict:
    """Declared metric name -> unit, from BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "gravlat" / "cli.py").is_file():
        print(f"error: no gravlat sources under {SRC}", file=sys.stderr)
        return 2
    reference = load_reference()
    units = metric_units(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"cores={os.cpu_count()} blas_threads={blas_threads()}")
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, passes, failures = run_workload(name, args.seed, args.seconds,
                                                 args.trace, reference)
        attempted, failed = _report(name, args.seed, metrics, units, passes,
                                    failures, len(WORKLOADS[name]))
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in metrics.items():
            result["metrics"][prefix + key] = {"value": value, "unit": units[key]}
    result["correct"] = result["failed"] == 0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
