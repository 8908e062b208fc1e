"""Which program functions make up each layer, and the per-layer metrics.

Every time metric is the self time of the layer's spans (span duration minus
the part its child spans cover), so the layers partition the traced time.
Count metrics come from the same spans. A metric is reported per workload
repetition: the spans of one traced set-up plus the mean over the traced
repetitions. A function a later version of the program no longer has is
simply not wrapped, and its metrics read 0.

The end-to-end metric each layer metric should move:

- mesh.build_s, mesh.classify_s: setup_s, mostly on probe-m400.
- fem.factor_*, fem.lu_fill*: wall_s on recon-m200 and probe-m400,
  peak_rss_mb; small on sweep-cli.
- fem.trisolve_*, fem.solve_overhead_s, forward.*: wall_s on probe-m400.
- fem.assemble_*, fem.bc_s, fem.gradient_*, kernels.*: wall_s on sweep-cli
  and recon-m200.
- disentangle.recover_*: ok_frac on probe-m400.
- reconstruct.*: wall_s on recon-m200 and sweep-cli.
- diagnostics.*, cli.*: wall_s on sweep-cli.
"""

import importlib
import sys
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse.linalg as spla

import spans
from spans import Span, Tracer, self_times

KERNELS = ("element_geometry", "local_matrices", "triangle_gradients",
           "nodal_average", "gradient_load")

# module -> function -> layer bucket; a bucket "x.y" reports "x.y_s"
LAYER_FUNCTIONS = {
    "mesh": {"build_disk_mesh": "mesh.build",
             "coefficient_from_phantom": "mesh.classify",
             "classify_nodes": "mesh.classify"},
    "fem": {"assemble": "fem.assemble",
            "assemble_operator": "fem.assemble",
            "assemble_operator_elementwise": "fem.assemble",
            "stiffness_matrix": "fem.assemble",
            "mass_matrix": "fem.assemble",
            "load_vector": "fem.assemble",
            "apply_dirichlet": "fem.bc",
            "apply_neumann": "fem.bc",
            "solve": "fem.solve_overhead",
            "gradient": "fem.gradient"},
    "kernels": {name: f"kernels.{name}" for name in KERNELS},
    "forward": {"probe_sweep": "forward.measure",
                "measure_probe": "forward.measure",
                "boundary_energy_difference": "forward.measure",
                "probe_element_fractions": "forward.fractions",
                "internal_data": "forward.internal_data"},
    "disentangle": {"recover": "disentangle.recover"},
    "reconstruct": {"run": "reconstruct.loop",
                    "compute_gamma_error": "reconstruct.misfit",
                    "compute_q_error": "reconstruct.misfit",
                    "solve_gamma_corrector": "reconstruct.gamma_corrector",
                    "kernels_gradient_load": "reconstruct.gamma_corrector",
                    "solve_q_corrector": "reconstruct.q_corrector",
                    "update_gamma": "reconstruct.update",
                    "update_q": "reconstruct.update",
                    # private solver paths: the cast to complex and the
                    # residual check, beside fem.solve's own
                    "_forward_solve_monitored": "reconstruct.solve_overhead",
                    "_splu_solve": "reconstruct.solve_overhead",
                    "_direct_solve": "reconstruct.solve_overhead",
                    "_dirichlet_homogeneous": "fem.bc"},
    "diagnostics": {"synthetic_run": "diagnostics.synthetic_run",
                    "frequency_sweep": "diagnostics.sweep",
                    "save_sweep_csv": "cli.io",
                    "save_sweep_summary_csv": "cli.io"},
    # main's self time is the command line outside the reconstructions:
    # config handling plus the echo, manifest and summary writes
    "cli": {"main": "cli.io"},
}

FACTOR = "scipy.splu"
TRISOLVE = "SuperLU.solve"
TRACER_BUCKET = "trace.fill"  # the tracer's own work, charged to no layer

# (name, unit); the order BENCHMARK.json lists them in
METRICS: List[Tuple[str, str]] = [
    ("mesh.build_s", "s"), ("mesh.classify_s", "s"),
    ("fem.factor_s", "s"), ("fem.factor_count", "count"),
    ("fem.factor_complex_count", "count"), ("fem.lu_fill", "count"),
    ("fem.lu_fill_ratio", "ratio"),
    ("fem.trisolve_s", "s"), ("fem.trisolve_count", "count"),
    ("fem.solve_overhead_s", "s"),
    ("fem.assemble_s", "s"), ("fem.assemble_calls", "count"),
    ("fem.bc_s", "s"), ("fem.gradient_s", "s"), ("fem.gradient_calls", "count"),
    *[(f"kernels.{k}_{x}", unit) for k in KERNELS
      for x, unit in (("s", "s"), ("calls", "count"))],
    ("kernels.bytes_computed", "B"),
    ("forward.fractions_s", "s"), ("forward.measure_s", "s"),
    ("forward.internal_data_s", "s"),
    ("disentangle.recover_s", "s"), ("disentangle.recover_calls", "count"),
    ("disentangle.recover_failed", "count"),
    ("disentangle.recover_yield", "ratio"),
    ("reconstruct.gamma_corrector_s", "s"), ("reconstruct.q_corrector_s", "s"),
    ("reconstruct.update_s", "s"), ("reconstruct.misfit_s", "s"),
    ("reconstruct.solve_overhead_s", "s"), ("reconstruct.loop_s", "s"),
    ("reconstruct.iterations", "count"),
    ("reconstruct.corrector_failed", "count"),
    ("reconstruct.factor_per_iter", "ratio"),
    ("diagnostics.synthetic_run_s", "s"), ("diagnostics.sweep_s", "s"),
    ("diagnostics.pool_busy_frac", "ratio"),
    ("cli.io_s", "s"), ("cli.bytes_written", "B"),
    ("trace.spans", "count"), ("trace.wall_untraced_s", "s"),
    ("trace.wall_traced_s", "s"), ("trace.overhead_s", "s"),
]


def _array_bytes(values) -> int:
    if isinstance(values, np.ndarray):
        return values.nbytes
    if isinstance(values, tuple):
        return sum(_array_bytes(v) for v in values)
    return 0


def _kernel_bytes(span: Span, args, result) -> None:
    """Computed from array sizes (arguments read plus results written)."""
    span.info = {"bytes": _array_bytes(tuple(args)) + _array_bytes(result)}


def _run_counts(span: Span, args, trace) -> None:
    span.info = {"iterations": len(trace.records),
                 "corrector_failed": sum(r.corrector_failed for r in trace.records)}


class _TracedLU:
    """Stands in for scipy's SuperLU and times its triangular solves."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        with self._tracer.span(TRISOLVE, "fem.trisolve"):
            return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def traced_splu(tracer: Tracer, splu):
    def splu_proxy(matrix, *args, **kwargs):
        with tracer.span(FACTOR, "fem.factor") as sp:
            lu = splu(matrix, *args, **kwargs)
        with tracer.span("trace.lu_fill", TRACER_BUCKET):
            sp.info = {"fill": lu.L.nnz + lu.U.nnz, "nnz": matrix.nnz,
                       "complex": bool(np.iscomplexobj(matrix.data))}
        return _TracedLU(lu, tracer)

    return splu_proxy


def wrappers(tracer: Tracer, modules: Dict[str, object]) -> Dict:
    """Original function -> traced function, for every layer function present."""
    observers = {"reconstruct.run": _run_counts}
    observers.update({f"kernels.{k}": _kernel_bytes for k in KERNELS})
    out = {spla.splu: traced_splu(tracer, spla.splu)}
    for module, functions in LAYER_FUNCTIONS.items():
        for attr, bucket in functions.items():
            fn = getattr(modules[module], attr, None)
            if callable(fn) and fn not in out:
                name = f"{module}.{attr}"
                out[fn] = tracer.wrap(fn, name, bucket, observers.get(name))
    return out


def _ancestors(span: Span, by_id: Dict[int, Span]):
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent)


def _totals(chosen: Sequence[Span], all_spans: Sequence[Span],
            selfs: Dict[int, float], pool_jobs: int) -> Dict[str, float]:
    """Additive per-layer totals over ``chosen``; helper keys start with _."""
    t: Dict[str, float] = {}

    def add(key, value=1.0):
        t[key] = t.get(key, 0.0) + value

    by_id = {sp.id: sp for sp in all_spans}
    for sp in chosen:
        if sp.bucket == TRACER_BUCKET:
            continue
        add("trace.spans")
        add(sp.bucket + "_s", selfs[sp.id])
        if sp.name == FACTOR:
            add("fem.factor_count")
            if sp.info:  # none when the factorization raised
                add("fem.factor_complex_count", float(sp.info["complex"]))
                add("fem.lu_fill", sp.info["fill"])
                add("_matrix_nnz", sp.info["nnz"])
            if any(a.name == "reconstruct.run" for a in _ancestors(sp, by_id)):
                add("_factor_in_run")
        elif sp.name == TRISOLVE:
            add("fem.trisolve_count")
        elif sp.name == "fem.assemble_operator_elementwise":
            add("fem.assemble_calls")
        elif sp.name == "fem.gradient":
            add("fem.gradient_calls")
        elif sp.bucket.startswith("kernels."):
            add(sp.bucket + "_calls")
            add("kernels.bytes_computed", sp.info["bytes"] if sp.info else 0)
        elif sp.name == "disentangle.recover":
            add("disentangle.recover_calls")
            add("disentangle.recover_failed", float(sp.error is not None))
        elif sp.name == "reconstruct.run" and sp.info:
            add("reconstruct.iterations", sp.info["iterations"])
            add("reconstruct.corrector_failed", sp.info["corrector_failed"])
        elif sp.name == "diagnostics.frequency_sweep":
            # cell work: mesh builds and reconstructions started by the pool
            # threads (parentless) or inline by the sweep itself
            busy = sum(c.duration for c in all_spans
                       if c.name in ("mesh.build_disk_mesh",
                                     "diagnostics.synthetic_run")
                       and (c.parent is None or c.parent == sp.id)
                       and sp.t0 <= c.t0 <= sp.t1)
            add("_pool_busy", busy)
            add("_pool_capacity", pool_jobs * sp.duration)
    return t


def metrics(recorded: Sequence[Span], setup_window: Tuple[float, float],
            op_windows: Sequence[Tuple[float, float]],
            pool_jobs: int) -> Dict[str, float]:
    """Per-repetition layer metrics: one set-up plus the mean traced op."""
    selfs = self_times(recorded)

    def inside(window):
        return [sp for sp in recorded if window[0] <= sp.t0 <= window[1]]

    setup = _totals(inside(setup_window), recorded, selfs, pool_jobs)
    ops = [_totals(inside(w), recorded, selfs, pool_jobs) for w in op_windows]
    keys = set(setup).union(*ops)
    t = {k: setup.get(k, 0.0) + sum(o.get(k, 0.0) for o in ops) / len(ops)
         for k in keys}

    def ratio(num, den):
        return t.get(num, 0.0) / t[den] if t.get(den) else 0.0

    t["fem.lu_fill_ratio"] = ratio("fem.lu_fill", "_matrix_nnz")
    t["disentangle.recover_yield"] = (
        1.0 - ratio("disentangle.recover_failed", "disentangle.recover_calls")
        if t.get("disentangle.recover_calls") else 0.0)
    t["reconstruct.factor_per_iter"] = ratio("_factor_in_run",
                                             "reconstruct.iterations")
    t["diagnostics.pool_busy_frac"] = ratio("_pool_busy", "_pool_capacity")
    return {name: float(t[name]) for name, _ in METRICS if name in t}


def install(tracer: Tracer) -> list:
    """Wrap every layer function, rebinding it in every helmpert module."""
    modules = {name: importlib.import_module(f"helmpert.{name}")
               for name in LAYER_FUNCTIONS}
    targets = [mod for name, mod in sorted(sys.modules.items())
               if mod is not None
               and (name == "helmpert" or name.startswith("helmpert."))]
    return spans.install(targets + [spla], wrappers(tracer, modules))
