"""Per-run extrema series, synthetic runs and frequency/mesh sweep summaries.

Sweeps rerun the two-frequency reconstruction over a grid of frequency
exponents and mesh resolutions; a failed cell is recorded with its error
message and never aborts the grid. The error norms in the sweep series are
the trace's own (``fem.masked_field_norms`` over the unknown region).
"""

import csv
import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fem, forward
from . import mesh as meshmod
from .mesh import PhantomSpec, TriangleMesh
from .reconstruct import (ReconstructionConfig, ReconstructionTrace,
                          dirichlet_condition, run)


@dataclass(frozen=True)
class ExtremaSeries:
    """Per-iteration breakdown indicators of one reconstruction run."""

    iterations: np.ndarray
    min_grad_sq: np.ndarray
    min_u_sq: np.ndarray
    max_corrector_sq: np.ndarray


def extrema_series(trace: ReconstructionTrace) -> ExtremaSeries:
    """Extract the breakdown indicators verbatim from the trace records.

    The corrector series takes the larger of the two corrector magnitudes
    of each iteration.
    """
    if not trace.records:
        raise ValueError("trace has no records")
    recs = trace.records
    return ExtremaSeries(
        iterations=np.array([r.iteration for r in recs], dtype=np.int64),
        min_grad_sq=np.array([r.min_grad_sq for r in recs], dtype=np.float64),
        min_u_sq=np.array([r.min_u_sq for r in recs], dtype=np.float64),
        max_corrector_sq=np.array(
            [max(r.max_corr_gamma_sq, r.max_corr_q_sq) for r in recs],
            dtype=np.float64),
    )


def synthetic_run(mesh: TriangleMesh, config: ReconstructionConfig,
                  phantom: Optional[PhantomSpec] = None) -> ReconstructionTrace:
    """Generate truth data on the mesh and reconstruct against it.

    The data solves use the same boundary values the reconstruction will
    use, so the run starts from exactly consistent internal data.
    """
    ph = phantom if phantom is not None else PhantomSpec()
    gamma_true = meshmod.coefficient_from_phantom(mesh, ph, "conductivity")
    q_true = meshmod.coefficient_from_phantom(mesh, ph, "permittivity")
    bc = dirichlet_condition(mesh, config)
    u1 = fem.solve_bvp(mesh, gamma_true, q_true, config.k1, bc)
    u2 = fem.solve_bvp(mesh, gamma_true, q_true, config.k2, bc)
    data1 = forward.internal_data(u1, gamma_true, q_true, config.k1)
    data2 = forward.internal_data(u2, gamma_true, q_true, config.k2)
    return run(mesh, data1.J, data2.j, (gamma_true, q_true), config)


# Series written into sweep CSVs: misfit decay, truth errors, and the
# breakdown extrema, one long-format row per (iteration, quantity, cell).
SERIES_QUANTITIES = (
    "misfit_J_linf", "misfit_J_l2", "misfit_j_linf", "misfit_j_l2",
    "min_grad_sq", "min_u_sq", "max_corr_gamma_sq", "max_corr_q_sq",
    "gamma_err_linf", "gamma_err_l2", "q_err_linf", "q_err_l2",
)

STATUS_FAILED = "Failed"


@dataclass
class SweepEntry:
    """Outcome of one (frequency exponent, mesh resolution) cell."""

    m: int
    mesh_points: int
    key: str
    status: str
    detail: str
    n_iterations: int
    final_misfit_J_linf: float
    final_misfit_j_linf: float
    iterations: np.ndarray
    series: Dict[str, np.ndarray]


@dataclass
class SweepResult:
    """All cells of one sweep, ordered by (exponent, mesh resolution)."""

    entries: List[SweepEntry]

    def by_key(self) -> Dict[str, SweepEntry]:
        return {e.key: e for e in self.entries}

    def statuses(self) -> Dict[str, str]:
        return {e.key: e.status for e in self.entries}

    def all_converged(self) -> bool:
        return all(e.status == "Converged" for e in self.entries)


def _cell_key(m: int, n: int) -> str:
    return f"m={m};mesh={n}"


def _entry_from_trace(m: int, n: int, trace: ReconstructionTrace) -> SweepEntry:
    recs = trace.records
    series = {q: np.array([getattr(r, q) for r in recs], dtype=np.float64)
              for q in SERIES_QUANTITIES}
    last = recs[-1]
    return SweepEntry(
        m=m, mesh_points=n, key=_cell_key(m, n),
        status=trace.status, detail=trace.detail, n_iterations=len(recs),
        final_misfit_J_linf=last.misfit_J_linf,
        final_misfit_j_linf=last.misfit_j_linf,
        iterations=np.array([r.iteration for r in recs], dtype=np.int64),
        series=series)


def _failed_entry(m: int, n: int, err: Exception) -> SweepEntry:
    return SweepEntry(
        m=m, mesh_points=n, key=_cell_key(m, n),
        status=STATUS_FAILED, detail=repr(err), n_iterations=0,
        final_misfit_J_linf=math.nan, final_misfit_j_linf=math.nan,
        iterations=np.empty(0, dtype=np.int64),
        series={q: np.empty(0, dtype=np.float64) for q in SERIES_QUANTITIES})


def frequency_pair(m: float) -> Tuple[float, float]:
    """The frequency pair of exponent m: k1 = pi*10^m, k2 = pi*10^-m."""
    return math.pi * 10.0 ** m, math.pi * 10.0 ** -m


def frequency_sweep(
    base_config: ReconstructionConfig,
    exponents: Sequence[int],
    mesh_points: Sequence[int],
    jobs: int = 1,
    phantom: Optional[PhantomSpec] = None,
) -> SweepResult:
    """Reconstruction grid over the pairs frequency_pair(m) and mesh sizes.

    Cells run independently (in parallel when ``jobs`` > 1); the returned
    entries are sorted by (m, mesh points) regardless of completion order.
    """
    ph = phantom if phantom is not None else PhantomSpec()
    cells = [(int(m), int(n)) for m in exponents for n in mesh_points]

    def run_cell(cell: Tuple[int, int]):
        m, n = cell
        try:
            k1, k2 = frequency_pair(m)
            cfg = dataclasses.replace(base_config, k1=k1, k2=k2)
            mesh_obj = meshmod.build_disk_mesh(ph.disk_radius, n)
            entry = _entry_from_trace(m, n, synthetic_run(mesh_obj, cfg, ph))
        except Exception as err:
            entry = _failed_entry(m, n, err)
        return cell, entry

    results: Dict[Tuple[int, int], SweepEntry] = {}
    if jobs <= 1 or len(cells) <= 1:
        for cell in cells:
            key, entry = run_cell(cell)
            results[key] = entry
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for key, entry in pool.map(run_cell, cells):
                results[key] = entry
    return SweepResult(entries=[results[c] for c in sorted(results)])


def save_sweep_csv(path, sweep: SweepResult,
                   quantities: Optional[Sequence[str]] = None) -> None:
    """Long-format series CSV with columns (iteration, quantity, value, config)."""
    wanted = tuple(quantities) if quantities is not None else SERIES_QUANTITIES
    for q in wanted:
        if q not in SERIES_QUANTITIES:
            raise ValueError(f"unknown sweep quantity {q!r}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "quantity", "value", "config"])
        for entry in sweep.entries:
            for quantity in wanted:
                values = entry.series[quantity]
                for it, value in zip(entry.iterations, values):
                    writer.writerow([int(it), quantity, repr(float(value)),
                                     entry.key])


def save_sweep_summary_csv(path, sweep: SweepResult) -> None:
    """One row per cell: status, iteration count, and final misfits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "m", "mesh_points", "status", "iterations",
                         "final_misfit_J_linf", "final_misfit_j_linf",
                         "detail"])
        for e in sweep.entries:
            writer.writerow([e.key, e.m, e.mesh_points, e.status,
                             e.n_iterations, repr(float(e.final_misfit_J_linf)),
                             repr(float(e.final_misfit_j_linf)), e.detail])
