"""Alternating perturbative reconstruction of (gamma, q) from internal data.

The data are the two interior energy maps: J collected at a high frequency
and j at a low one. Each outer iteration solves the forward problem with the
current guess at both frequencies, forms the quotient misfits

    E0 = J / |grad u0|^2 - gamma0        (high-frequency pass)
    eps0 = j / |u0|^2 - q0               (low-frequency pass)

and, when a misfit is above the precision target, solves a linearized
corrector problem for the first-order solution change and updates the guess
with the corrected quotient. Both corrector operators are the forward form
K(a) + M(c) with other coefficients, through the mesh's assembly map: the
gradient corrector by fem.assemble_operator, the mass corrector's 2 x 2
block system as one product whose four data columns the mesh's two-block
Dirichlet gather turns into the eliminated system
(fem.eliminate_dirichlet_data). Each pass factors its forward operator
once and solves its corrector on that factor by gated defect correction
(fem.Factor.refined_solve), which stops once the residual is at roundoff:
at a high k1 the gradient corrector differs from the forward operator by a
stiffness term small beside the mass term, and at a low k2 the mass
corrector's blocks differ from it by mass terms scaled by k2^2. Where a
corrector is not that close, it factors its own system. A pass whose k lies
below the first discrete resonance or above the top of the discrete
spectrum has a sign-definite forward operator, which fem.Factor factors by
banded Cholesky on the meshes of 50, 100 and 200 boundary points; the other
passes, mesh 400, and the corrector systems that are not sign-definite or
too wide for the band (mesh 200's two-block system) get its sparse LU. The
factor is passed to the corrector explicitly, and the next pass refactors
it (fem.Factor.refactor), so one is alive at a time and the band passes
share one band storage; IterationRecord.n_factor counts
the factorizations of both kinds in each iteration. The mesh caches that
the loop uses are built before its first factorization.
Material values on the near-boundary annulus are known and reset after
every update. The iteration stops when both misfits pass in the same sweep
(Converged), when the iteration budget runs out (IterationCap), when a field
floor is violated (Diverged, the structured stand-in for the
division-by-zero breakdown the quotients suffer on degenerate fields), or
when the corrector magnitudes stop decaying (Stalled).

Field floors are relative to the current field maximum. The low-frequency
floor is the operative breakdown signal: a collapsing min|u|^2 is what a
diverging run shows first. The high-frequency floor must sit far lower,
because the unresolved-wavelength regime makes the discrete solution decay
geometrically toward the disk center (measured interior-to-peak ratios of
|grad u|^2: about 2e-7 on the 50-point mesh, 2e-16 on the 100-point mesh,
1e-34 on the 200-point mesh), and those runs are expected to proceed, not
to be cut off at the first solve; its default is low enough that the
low-frequency signal always fires first on the meshes studied here.
"""

import csv
import dataclasses
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import fem
from .fem import (BoundaryCondition, CoefficientField, ComplexField,
                  GradientField, NonConvergence, SingularSystem)
from .forward import PHASE_CONVENTIONS, boundary_phase
from .mesh import PhantomSpec, TriangleMesh

GAMMA_VALUE_FLOOR = 1e-6  # absolute clamp applied to updated coefficients
STALL_WINDOW = 10  # iterations without a new corrector-magnitude minimum
CORRECTOR_CAP = 1.0  # max |u1|^2 beyond which the linearization premise fails

STATUS_CONVERGED = "Converged"
STATUS_ITERATION_CAP = "IterationCap"
STATUS_DIVERGED = "Diverged"
STATUS_STALLED = "Stalled"


class FloorViolation(Exception):
    """A field dropped below its admissible floor; quotients are meaningless."""

    def __init__(self, which: str, minimum: float, floor: float):
        self.which = which
        self.minimum = minimum
        self.floor = floor
        super().__init__(f"min {which} = {minimum:.3e} below floor {floor:.3e}")


@dataclass
class ReconstructionConfig:
    k1: float
    k2: float
    eps_precision: float = 1e-3
    max_outer_iterations: int = 50
    # relative floors (fraction of the current field maximum); see module
    # docstring for why the gradient floor sits so low
    floor_grad: float = 1e-60
    floor_u: float = 1e-12
    boundary_data: Optional[BoundaryCondition] = None
    phase_convention: str = "xy"
    known_annulus_radius: float = PhantomSpec.annulus_radius
    gamma_guess: float = 3.5
    q_guess: float = 11.5
    damping: float = 1.0

    def __post_init__(self):
        if self.k1 == self.k2:
            raise ValueError("the two frequencies must differ")
        if self.eps_precision <= 0:
            raise ValueError("eps_precision must be positive")
        if self.floor_grad <= 0 or self.floor_u <= 0:
            raise ValueError("floors must be positive")
        if self.max_outer_iterations < 1:
            raise ValueError("need at least one outer iteration")
        if self.boundary_data is not None and self.boundary_data.kind != "dirichlet":
            raise ValueError("reconstruction drives the medium with dirichlet data")
        if self.phase_convention not in PHASE_CONVENTIONS:
            raise ValueError(f"unknown phase convention {self.phase_convention!r}")


@dataclass
class IterationRecord:
    iteration: int
    misfit_J_linf: float = math.nan
    misfit_J_l2: float = math.nan
    misfit_j_linf: float = math.nan
    misfit_j_l2: float = math.nan
    min_grad_sq: float = math.nan
    min_u_sq: float = math.nan
    max_corr_gamma_sq: float = 0.0
    max_corr_q_sq: float = 0.0
    gamma_err_linf: float = math.nan
    gamma_err_l1: float = math.nan
    gamma_err_l2: float = math.nan
    q_err_linf: float = math.nan
    q_err_l1: float = math.nan
    q_err_l2: float = math.nan
    n_gamma_clamped: int = 0
    n_q_clamped: int = 0
    corrector_failed: int = 0
    n_factor: int = 0
    forward_residual_k1: float = math.nan
    forward_residual_k2: float = math.nan


@dataclass
class ReconstructionTrace:
    records: List[IterationRecord] = field(default_factory=list)
    status: str = ""
    detail: str = ""
    final_gamma: Optional[CoefficientField] = None
    final_q: Optional[CoefficientField] = None


def dirichlet_condition(mesh: TriangleMesh,
                        config: ReconstructionConfig) -> BoundaryCondition:
    """The configured Dirichlet data, or the unit phase profile by default."""
    if config.boundary_data is not None:
        return config.boundary_data
    return BoundaryCondition("dirichlet",
                             boundary_phase(mesh, config.phase_convention))


def _quotient_misfit(data: np.ndarray, energy: np.ndarray,
                     guess: CoefficientField, floor_rel: float,
                     region_mask: Optional[np.ndarray],
                     which: str) -> Tuple[CoefficientField, float]:
    """data / energy - guess and its region sup, after the relative floor check."""
    mesh = guess.mesh
    if region_mask is None:
        region_mask = np.ones(mesh.n_nodes, dtype=bool)
    floor = floor_rel * energy.max()
    minimum = float(energy[region_mask].min())
    if minimum < floor:
        raise FloorViolation(which, minimum, floor)
    misfit = CoefficientField(mesh, data / energy - guess.values)
    return misfit, float(np.max(np.abs(misfit.values[region_mask])))


def compute_gamma_error(
    J: np.ndarray,
    grad0: GradientField,
    gamma0: CoefficientField,
    floor_grad: float = ReconstructionConfig.floor_grad,
    region_mask: Optional[np.ndarray] = None,
) -> Tuple[CoefficientField, float]:
    """E0 = J / |grad u0|^2 - gamma0 and its sup norm; grad0 is grad u0."""
    return _quotient_misfit(J, grad0.node_magnitude_squared(), gamma0,
                            floor_grad, region_mask, "|grad u|^2")


def compute_q_error(
    j: np.ndarray,
    u0: ComplexField,
    q0: CoefficientField,
    floor_u: float = ReconstructionConfig.floor_u,
    region_mask: Optional[np.ndarray] = None,
) -> Tuple[CoefficientField, float]:
    """eps0 = j / |u0|^2 - q0 and its sup norm."""
    return _quotient_misfit(j, np.abs(u0.values) ** 2, q0, floor_u,
                            region_mask, "|u|^2")


def _forward_solve_monitored(mesh: TriangleMesh, gamma: CoefficientField,
                             q: CoefficientField, k: float,
                             bc: BoundaryCondition,
                             lu: Optional[fem.Factor] = None
                             ) -> Tuple[ComplexField, float, fem.Factor]:
    """Forward solve that reports, instead of gating on, the residual.

    The outer loop has to keep iterating through the badly conditioned
    passes a diverging run produces; breakdown is diagnosed by the floors
    and the stall detector, not by the linear solver. The factor of the
    Dirichlet-eliminated operator comes back for the pass's corrector: the
    previous pass's factor lu, refactored (in its storage where both take
    the band), or a fresh one on the first pass.
    """
    matrix, rhs = fem.assemble(mesh, gamma, q, k, bc)
    lu = fem.Factor(matrix) if lu is None else lu.refactor(matrix)
    x, rel = lu.solve(rhs, gate=False)
    return ComplexField(mesh, x), rel, lu


def solve_gamma_corrector(
    u0: ComplexField,
    E0: CoefficientField,
    gamma0: CoefficientField,
    q0: CoefficientField,
    k1: float,
    near: fem.Factor,
) -> ComplexField:
    """First-order solution change induced by the gradient-energy misfit.

    Real and imaginary parts each satisfy the same scalar problem: principal
    part weighted by (gamma0 - E0) (the misfit flips sign against the
    principal coefficient), plus-signed mass term, driven in weak form by
    (E0 grad u0, grad phi_i), the E0-weighted stiffness applied to u0, with
    homogeneous dirichlet walls.

    near is the pass's forward factor, K(gamma0) - k1^2 M(q0) with the
    boundary eliminated. The negated system is that operator plus
    K(E0 - 2 gamma0), small beside the mass term at a high k1, so it is
    solved on near by gated defect correction (Factor.refined_solve).
    """
    mesh = u0.mesh
    matrix = fem.assemble_operator(mesh, E0.values - gamma0.values,
                                   -(k1 ** 2) * q0.values)
    rhs = -(fem.assemble_operator(mesh, E0.values, None) @ u0.values)
    values, _ = near.refined_solve(*fem.eliminate_dirichlet(mesh, matrix, rhs))
    return ComplexField(mesh, values)


def solve_q_corrector(
    u0: ComplexField,
    eps0: CoefficientField,
    j: np.ndarray,
    gamma0: CoefficientField,
    q0: CoefficientField,
    k2: float,
    near: fem.Factor,
) -> ComplexField:
    """First-order solution change induced by the mass-energy misfit.

    The u0-weighted rank-one coupling mixes real and imaginary parts, so the
    two parts form one real 2 x 2 block system: diagonal blocks carry the
    divergence-form principal part and the mass k^2 (2 q0 re^2 - j)/|u0|^2
    (im^2 in the second), the off-diagonal blocks the cross-coupling mass
    2 k^2 q0 re im/|u0|^2. The four nodal coefficients are averaged per
    element at once, one product with the mesh's assembly map gives the
    data of the four blocks, and the mesh's two-block Dirichlet gather
    fills the eliminated system from it (fem.eliminate_dirichlet_data).

    near is the pass's forward factor, K(gamma0) - k2^2 M(q0) with the
    boundary eliminated. At a low k2 every mass term is small, so the block
    system is near blockdiag(near, near) and is solved on it by gated
    defect correction (Factor.refined_solve).
    """
    mesh = u0.mesh
    re = u0.values.real
    im = u0.values.imag
    u2 = re * re + im * im
    if np.min(u2) <= 0:
        raise FloorViolation("|u|^2", float(np.min(u2)), 0.0)
    k_sq = k2 ** 2
    q = q0.values

    # gamma0 and the masses of blocks (0, 0), (0, 1) = (1, 0) and (1, 1)
    nodal = np.column_stack([gamma0.values,
                             k_sq * (2.0 * q * re * re - j) / u2,
                             2.0 * k_sq * q * re * im / u2,
                             k_sq * (2.0 * q * im * im - j) / u2])
    centroid = fem.element_average(mesh, nodal)
    # stiffness rows, then mass rows; one column per block
    n_tris = mesh.n_triangles
    coeffs = np.zeros((2 * n_tris, 4))
    coeffs[:n_tris, 0] = coeffs[:n_tris, 3] = centroid[:, 0]
    coeffs[n_tris:, 0] = centroid[:, 1]
    coeffs[n_tris:, 1] = coeffs[n_tris:, 2] = centroid[:, 2]
    coeffs[n_tris:, 3] = centroid[:, 3]

    load = k_sq * (mesh.unit_mass @ (eps0.values * u0.values))
    rhs = np.concatenate([load.real, load.imag])
    sol, _ = near.refined_solve(*fem.eliminate_dirichlet_data(
        mesh, mesh.assembly_map @ coeffs, rhs))
    n = mesh.n_nodes
    return ComplexField(mesh, sol[:n] + 1j * sol[n:])


def _bounded_corrector(solve, *args
                       ) -> Tuple[Optional[ComplexField], float, int]:
    """Solve a corrector: (u1 or None, max |u1|^2, failures). Past
    CORRECTOR_CAP u1 is no first-order term, so the update gets None (the
    plain quotient)."""
    try:
        u1 = solve(*args)
    except (SingularSystem, NonConvergence):
        return None, 0.0, 1
    size = float(np.max(np.abs(u1.values) ** 2))
    if size > CORRECTOR_CAP:
        u1 = None
    return u1, size, 0


def _apply_update(current: CoefficientField, proposed: np.ndarray,
                  annulus_mask: Optional[np.ndarray],
                  annulus_values: Optional[np.ndarray],
                  damping: float) -> Tuple[CoefficientField, int]:
    """Damped step, clamp, annulus reset (to the current values by default)."""
    new = current.values + damping * (proposed - current.values)
    clamped = int(np.count_nonzero(new < GAMMA_VALUE_FLOOR))
    new = np.maximum(new, GAMMA_VALUE_FLOOR)
    if annulus_mask is not None:
        known = current.values if annulus_values is None else annulus_values
        new[annulus_mask] = known[annulus_mask]
    return CoefficientField(current.mesh, new), clamped


def update_gamma(
    J: np.ndarray,
    grad0: GradientField,
    u1_tilde: Optional[ComplexField],
    gamma0: CoefficientField,
    annulus_mask: Optional[np.ndarray] = None,
    annulus_values: Optional[np.ndarray] = None,
    damping: float = 1.0,
) -> Tuple[CoefficientField, int]:
    """Corrected quotient update of the conductivity guess; grad0 is grad u0."""
    cross = 0.0
    if u1_tilde is not None:
        g0 = grad0.node_values
        g1 = fem.gradient(u1_tilde).node_values
        cross = (g0.real * g1.real).sum(axis=1) + (g0.imag * g1.imag).sum(axis=1)
    proposed = (J - 2.0 * gamma0.values * cross) / grad0.node_magnitude_squared()
    return _apply_update(gamma0, proposed, annulus_mask, annulus_values, damping)


def update_q(
    j: np.ndarray,
    u0: ComplexField,
    u1_tilde: Optional[ComplexField],
    q0: CoefficientField,
    annulus_mask: Optional[np.ndarray] = None,
    annulus_values: Optional[np.ndarray] = None,
    damping: float = 1.0,
) -> Tuple[CoefficientField, int]:
    """Corrected quotient update of the permittivity guess."""
    cross = 0.0
    if u1_tilde is not None:
        cross = (u0.values.real * u1_tilde.values.real
                 + u0.values.imag * u1_tilde.values.imag)
    proposed = (j - 2.0 * q0.values * cross) / np.abs(u0.values) ** 2
    return _apply_update(q0, proposed, annulus_mask, annulus_values, damping)


def run(
    mesh: TriangleMesh,
    J: np.ndarray,
    j: np.ndarray,
    truth: Optional[Tuple[CoefficientField, CoefficientField]],
    config: ReconstructionConfig,
) -> ReconstructionTrace:
    """Alternating outer loop over the high- and low-frequency passes."""
    annulus_mask = mesh.node_radii() >= config.known_annulus_radius
    unknown_mask = ~annulus_mask
    gamma_guess, q_guess = float(config.gamma_guess), float(config.q_guess)
    if truth is None:
        gamma_annulus = np.full(mesh.n_nodes, gamma_guess)
        q_annulus = np.full(mesh.n_nodes, q_guess)
    else:
        gamma_annulus, q_annulus = truth[0].values, truth[1].values
    gamma0 = CoefficientField(mesh, np.where(annulus_mask, gamma_annulus,
                                             gamma_guess))
    q0 = CoefficientField(mesh, np.where(annulus_mask, q_annulus, q_guess))
    bc = dirichlet_condition(mesh, config)
    # build the mesh's caches that the loop uses before its first LU:
    # built between the LUs, they stay on the heap above the LUs' freed
    # memory and keep it resident (recon-m200 peak RSS 83-92 MB instead of
    # 82.5 MB)
    mesh.unit_mass
    mesh.dirichlet_gather(2)
    mesh.lumped_weights(unknown_mask)
    mesh.gradient_map
    mesh.average_map

    trace = ReconstructionTrace()
    best_corr = math.inf
    stall_streak = 0
    # the one factor of the loop: each pass refactors the last pass's
    lu = None

    for it in range(1, config.max_outer_iterations + 1):
        rec = IterationRecord(iteration=it)
        try:
            # high-frequency pass: conductivity test and update; one factor
            # serves the pass and is spent when the next pass refactors it
            rec.n_factor += 1
            u0, rec.forward_residual_k1, lu = _forward_solve_monitored(
                mesh, gamma0, q0, config.k1, bc, lu)
            grad0 = fem.gradient(u0)
            rec.min_grad_sq = float(
                grad0.node_magnitude_squared()[unknown_mask].min())
            E0, rec.misfit_J_linf = compute_gamma_error(
                J, grad0, gamma0, floor_grad=config.floor_grad,
                region_mask=unknown_mask)
            _, _, rec.misfit_J_l2 = fem.masked_field_norms(mesh, E0.values,
                                                           unknown_mask)
            gamma_ok = rec.misfit_J_linf < config.eps_precision
            if not gamma_ok:
                u1g, rec.max_corr_gamma_sq, failed = _bounded_corrector(
                    solve_gamma_corrector, u0, E0, gamma0, q0, config.k1, lu)
                rec.corrector_failed += failed
                rec.n_factor += lu.fallbacks
                gamma0, rec.n_gamma_clamped = update_gamma(
                    J, grad0, u1g, gamma0, annulus_mask, gamma_annulus,
                    config.damping)

            # low-frequency pass: permittivity test and update
            rec.n_factor += 1
            u0b, rec.forward_residual_k2, lu = _forward_solve_monitored(
                mesh, gamma0, q0, config.k2, bc, lu)
            rec.min_u_sq = float((np.abs(u0b.values) ** 2)[unknown_mask].min())
            eps0, rec.misfit_j_linf = compute_q_error(
                j, u0b, q0, floor_u=config.floor_u, region_mask=unknown_mask)
            _, _, rec.misfit_j_l2 = fem.masked_field_norms(mesh, eps0.values,
                                                           unknown_mask)
            q_ok = rec.misfit_j_linf < config.eps_precision
            if not q_ok:
                u1q, rec.max_corr_q_sq, failed = _bounded_corrector(
                    solve_q_corrector,
                    u0b, eps0, j, gamma0, q0, config.k2, lu)
                rec.corrector_failed += failed
                rec.n_factor += lu.fallbacks
                q0, rec.n_q_clamped = update_q(
                    j, u0b, u1q, q0, annulus_mask, q_annulus, config.damping)
        except (FloorViolation, SingularSystem, ValueError) as err:
            trace.status = STATUS_DIVERGED
            trace.detail = str(err)

        _record_truth_errors(rec, gamma0, q0, truth, unknown_mask)
        trace.records.append(rec)
        if trace.status == STATUS_DIVERGED:
            break
        if gamma_ok and q_ok:
            trace.status = STATUS_CONVERGED
            trace.detail = f"both misfits below {config.eps_precision:g}"
            break

        corr = max(rec.max_corr_gamma_sq, rec.max_corr_q_sq)
        if corr < best_corr:
            best_corr = corr
            stall_streak = 0
        else:
            stall_streak += 1
            if stall_streak >= STALL_WINDOW:
                trace.status = STATUS_STALLED
                trace.detail = (f"corrector magnitude made no progress for "
                                f"{STALL_WINDOW} iterations")
                break
    else:
        trace.status = STATUS_ITERATION_CAP
        trace.detail = f"no convergence in {config.max_outer_iterations} iterations"

    trace.final_gamma = gamma0
    trace.final_q = q0
    return trace


def _record_truth_errors(rec: IterationRecord, gamma0: CoefficientField,
                         q0: CoefficientField, truth,
                         mask: np.ndarray) -> None:
    if truth is None:
        return
    gamma_true, q_true = truth
    mesh = gamma0.mesh
    rec.gamma_err_linf, rec.gamma_err_l1, rec.gamma_err_l2 = \
        fem.masked_field_norms(mesh, gamma0.values - gamma_true.values, mask)
    rec.q_err_linf, rec.q_err_l1, rec.q_err_l2 = \
        fem.masked_field_norms(mesh, q0.values - q_true.values, mask)


# one column per IterationRecord field, in declaration order, then the status
TRACE_COLUMNS = [f.name for f in dataclasses.fields(IterationRecord)] + ["status"]


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The CSV writer of every table: floats (numpy's too) as repr(float(v)),
    which parses back to the same double, other values as they are."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)


def save_trace_csv(path, trace: ReconstructionTrace) -> None:
    """One row per iteration; the status column is filled on the last row."""
    last = len(trace.records) - 1
    write_csv(path, TRACE_COLUMNS,
              [[getattr(rec, col) for col in TRACE_COLUMNS[:-1]]
               + [trace.status if i == last else ""]
               for i, rec in enumerate(trace.records)])
