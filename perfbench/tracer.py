"""Run one gravlat CLI invocation with every layer timed from outside.

    python3 perfbench/tracer.py SPANS_JSON CONFIG [gravlat options ...]

Each public function of a gravlat layer module is replaced by a wrapper
that records a span: name, start, end, parent span and, for a few
functions, a small info dict (matrix nnz, dimension, matvec count).  The
wrapper goes into the defining module and into every gravlat module that
imported the function by name, as ``gravlat.cli`` does.  The ``solver``
pseudo-layer wraps ``scipy.sparse.linalg.eigsh`` (with a matvec-counting
LinearOperator) and ``numpy.linalg.eigh`` / ``eigvalsh``, recording them
only when a ``manybody`` or ``cli`` span calls them.  Spans are kept in
memory and written once, when the CLI returns.

:func:`layer_metrics` turns the span files of a batch into the per-layer
metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "serialize", "manybody", "lattice", "continuum",
          "geometry", "gravity_action", "designer")
SOLVER_CALLERS = ("manybody", "cli")
_ASSEMBLY = ("manybody.assemble_simulator_hamiltonian",
             "manybody.assemble_target_hamiltonian",
             "manybody.assemble_background_hopping")


class Tracer:
    """Span recorder; ``spans`` rows are [name, start, end, parent, info]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def caller_layer(self):
        return self.spans[self.stack[-1]][0].split(".", 1)[0] if self.stack else None

    def wrap(self, name, fn, annotate=None, callers=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if callers is not None and self.caller_layer() not in callers:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if annotate is not None:
                record[4] = annotate(args, result)
            return result

        return traced

    def install(self):
        """Wrap the gravlat layers and the solver entry points in place."""
        modules = {layer: importlib.import_module(f"gravlat.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("gravlat")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, _ANNOTATE.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
        self._install_solvers()

    def _install_solvers(self):
        import numpy.linalg
        import scipy.sparse.linalg as spla

        eigsh = spla.eigsh
        matvecs = [0]

        def counted_eigsh(a, *args, **kwargs):
            if "sigma" in kwargs:
                return eigsh(a, *args, **kwargs)

            def matvec(x):
                matvecs[0] += 1
                return a @ x

            matvecs[0] = 0
            op = spla.LinearOperator(a.shape, matvec=matvec, dtype=a.dtype)
            return eigsh(op, *args, **kwargs)

        spla.eigsh = self.wrap(
            "solver.eigsh", counted_eigsh, callers=SOLVER_CALLERS,
            annotate=lambda args, _: {"dim": args[0].shape[0], "matvecs": matvecs[0]})
        for attr in ("eigh", "eigvalsh"):
            setattr(numpy.linalg, attr, self.wrap(
                f"solver.{attr}", getattr(numpy.linalg, attr), callers=SOLVER_CALLERS,
                annotate=lambda args, _: {"dim": args[0].shape[-1]}))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _matrix_info(args, h):
    return {"nnz": int(h.nnz), "dim": int(h.shape[0])}


def _space_info(args, ops):
    space = ops.space
    return {"dim": space.dimension,
            "sector_fraction": len(space.sector_fermion_states()) / space.fermion_dim}


_ANNOTATE = dict.fromkeys(_ASSEMBLY, _matrix_info)
_ANNOTATE["manybody.operator_algebra"] = _space_info


# per-layer metric -> span names whose self time it sums; a trailing "."
# selects every span of that layer
SELF_TIME = {
    "manybody.operator_algebra_s": ("manybody.operator_algebra",),
    "manybody.assemble_simulator_s": ("manybody.assemble_simulator_hamiltonian",),
    "manybody.assemble_target_s": ("manybody.assemble_target_hamiltonian",),
    "manybody.assemble_background_s": ("manybody.assemble_background_hopping",),
    "manybody.ground_state_s": ("manybody.ground_state",),
    "solver.eigsh_s": ("solver.eigsh",),
    "solver.dense_eig_s": ("solver.eigh", "solver.eigvalsh"),
    "manybody.mapping_residual_s": ("manybody.mapping_residual",),
    "manybody.correlators_and_wick_s": ("manybody.correlators_and_wick",),
    "geometry.spin_connection_general_s": ("geometry.spin_connection_general",),
    "geometry.torsion_residual_s": ("geometry.torsion_residual",),
    "gravity_action.palatini_orders_s": ("gravity_action.palatini_orders",),
    "gravity_action.fp_standard_form_s": ("gravity_action.fp_standard_form",),
    "continuum.integrate_out_geometry_s": ("continuum.integrate_out_geometry",),
    "continuum.hgr_quadratic_form_s": ("continuum.hgr_quadratic_form",),
    "lattice.bloch_f_s": ("lattice.bloch_f",),
    "lattice.fermi_points_s": ("lattice.fermi_points",),
    "lattice.dirac_slopes_s": ("lattice.dirac_slopes",),
    "designer.optical_params_s": ("designer.optical_params",),
    "designer.hubbard_integrals_s": ("designer.hubbard_integrals",),
    "cli.parse_config_s": ("cli.parse_config",),
    "cli.self_s": ("cli.",),
    "serialize.write_s": ("serialize.",),
}
CALLS = {
    "manybody.ground_state_calls": "manybody.ground_state",
    "lattice.bloch_f_calls": "lattice.bloch_f",
}


def _selected(name, patterns):
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)


def layer_metrics(span_files) -> dict:
    """Sum self times and counters over the span files of one batch.

    Self time is a span's duration minus the durations of its direct
    children.  ``manybody.h_nnz`` is the largest assembled Hamiltonian's
    nonzero count; ``manybody.sector_fraction`` is sector over full
    dimension for the largest Fock space the batch built.
    """
    out = dict.fromkeys(SELF_TIME, 0.0)
    out.update(dict.fromkeys(CALLS, 0))
    out.update({"manybody.h_nnz": 0, "manybody.sector_fraction": 0.0,
                "solver.eigsh_matvecs": 0, "solver.dense_eig_dim_max": 0})
    largest_space = 0
    targets = {}  # span name -> the SELF_TIME metrics it feeds
    for path in span_files:
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        self_time = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                self_time[parent] -= end - start
        for (name, _, _, _, info), own in zip(spans, self_time):
            if name not in targets:
                targets[name] = [metric for metric, patterns in SELF_TIME.items()
                                 if _selected(name, patterns)]
            for metric in targets[name]:
                out[metric] += own
            for metric, target in CALLS.items():
                out[metric] += name == target
            if info is None:  # no annotation, or the call raised
                continue
            if name in _ASSEMBLY:
                out["manybody.h_nnz"] = max(out["manybody.h_nnz"], info["nnz"])
            elif name == "manybody.operator_algebra" and info["dim"] > largest_space:
                largest_space = info["dim"]
                out["manybody.sector_fraction"] = info["sector_fraction"]
            elif name == "solver.eigsh":
                out["solver.eigsh_matvecs"] += info["matvecs"]
            elif name in ("solver.eigh", "solver.eigvalsh"):
                out["solver.dense_eig_dim_max"] = max(out["solver.dense_eig_dim_max"],
                                                      info["dim"])
    return out


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = perf_counter()
    import gravlat.cli
    tracer.spans.append(["import.gravlat_cli", start, perf_counter(), -1, None])
    tracer.install()
    try:
        return gravlat.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
