"""Synthetic runs and the frequency/mesh sweep.

A sweep reruns the two-frequency reconstruction over a grid of frequency
exponents and mesh resolutions and keeps each cell's ReconstructionTrace, the
same record the reconstruct command writes with reconstruct.save_trace_csv.
A failed cell is a trace with status Failed, the error in its detail and no
records; it never aborts the grid.
"""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import forward
from . import mesh as meshmod
from .fem import CoefficientField
from .mesh import PhantomSpec, TriangleMesh
from .reconstruct import (STATUS_CONVERGED, IterationRecord,
                          ReconstructionConfig, ReconstructionTrace,
                          dirichlet_condition, run, write_csv)


def true_coefficients(mesh: TriangleMesh, phantom: PhantomSpec
                      ) -> Tuple[CoefficientField, CoefficientField]:
    """The phantom's conductivity and permittivity on the mesh."""
    return (meshmod.coefficient_from_phantom(mesh, phantom, "conductivity"),
            meshmod.coefficient_from_phantom(mesh, phantom, "permittivity"))


def synthetic_run(mesh: TriangleMesh, config: ReconstructionConfig,
                  truth: Optional[Tuple[CoefficientField, CoefficientField]] = None
                  ) -> ReconstructionTrace:
    """Generate data from truth, the true (gamma, q) on the mesh (default:
    the default phantom's), and reconstruct against it.

    The data solves use the same boundary values the reconstruction will
    use, so the run starts from exactly consistent internal data.
    """
    gamma_true, q_true = truth or true_coefficients(mesh, PhantomSpec())
    _, _, J, j = forward.two_frequency_data(mesh, gamma_true, q_true,
                                            config.k1, config.k2,
                                            dirichlet_condition(mesh, config))
    return run(mesh, J, j, (gamma_true, q_true), config)


STATUS_FAILED = "Failed"

Cell = Tuple[int, int]  # (frequency exponent m, mesh boundary points)


def cell_key(cell: Cell) -> str:
    """The cell's name in the summary, the manifest and the printed lines."""
    return f"m={cell[0]};mesh={cell[1]}"


@dataclass
class SweepResult:
    """Each cell's trace, keyed and ordered by (exponent, mesh resolution)."""

    traces: Dict[Cell, ReconstructionTrace]

    def statuses(self) -> Dict[str, str]:
        return {cell_key(c): t.status for c, t in self.traces.items()}

    def all_converged(self) -> bool:
        return all(t.status == STATUS_CONVERGED for t in self.traces.values())


def frequency_pair(m: float) -> Tuple[float, float]:
    """The frequency pair of exponent m: k1 = pi*10^m, k2 = pi*10^-m."""
    return math.pi * 10.0 ** m, math.pi * 10.0 ** -m


def whole_numbers(values: Sequence, name: str) -> List[int]:
    """The values as ints; ValueError naming ``name`` if one is fractional."""
    for v in values:
        if not float(v).is_integer():
            raise ValueError(f"{name} must hold whole numbers; got {v!r}")
    return [int(v) for v in values]


def frequency_sweep(
    base_config: ReconstructionConfig,
    exponents: Sequence[int],
    mesh_points: Sequence[int],
    jobs: int = 1,
    phantom: Optional[PhantomSpec] = None,
) -> SweepResult:
    """Reconstruction grid over the pairs frequency_pair(m) and mesh sizes.

    Cells run independently (in parallel when ``jobs`` > 1); the returned
    traces are sorted by (m, mesh points) regardless of completion order.
    A fractional exponent or mesh size raises ValueError before any cell runs.
    """
    ph = phantom if phantom is not None else PhantomSpec()
    cells = [(m, n) for m in whole_numbers(exponents, "exponents")
             for n in whole_numbers(mesh_points, "mesh_points")]

    def run_cell(cell: Cell) -> ReconstructionTrace:
        m, n = cell
        try:
            k1, k2 = frequency_pair(m)
            cfg = dataclasses.replace(base_config, k1=k1, k2=k2)
            mesh_obj = meshmod.build_disk_mesh(ph.disk_radius, n)
            return synthetic_run(mesh_obj, cfg, true_coefficients(mesh_obj, ph))
        except Exception as err:
            return ReconstructionTrace(status=STATUS_FAILED, detail=repr(err))

    if jobs <= 1 or len(cells) <= 1:
        traces = list(map(run_cell, cells))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            traces = list(pool.map(run_cell, cells))
    results = dict(zip(cells, traces))
    return SweepResult(traces={c: results[c] for c in sorted(results)})


def save_sweep_summary_csv(path, sweep: SweepResult) -> None:
    """One row per cell: status, iteration count, and final misfits."""
    rows = []
    for (m, n), trace in sweep.traces.items():
        # a failed cell has no records: its final misfits are NaN
        last = trace.records[-1] if trace.records else IterationRecord(0)
        rows.append([cell_key((m, n)), m, n, trace.status, len(trace.records),
                     last.misfit_J_linf, last.misfit_j_linf, trace.detail])
    write_csv(path, ["config", "m", "mesh_points", "status", "iterations",
                     "final_misfit_J_linf", "final_misfit_j_linf", "detail"],
              rows)
