"""Localized-perturbation probe experiments on the Helmholtz model.

A probe sets the material to known values (scaled by a known amplitude) on a
small disk w around a chosen interior point. The same flux data is applied to
the unperturbed and the perturbed medium, and the difference of the two
solutions is integrated along the boundary against the conjugated data. As
the probe shrinks, that rescaled scalar approaches a closed rational form in
the amplitude whose coefficients are the gradient energy gamma*|grad u|^2 and
the mass energy q*|u|^2 at the probe center; collecting it at several
amplitudes is what makes those interior quantities recoverable from the
boundary.

The perturbed medium blends element coefficients with the covered-area
fraction, clipped exactly by signed sectors in one vectorized call, so that
probes smaller than the local element size still displace the correct
amount of material.

A probe changes the operator A only on the elements its disk covers, so a
sweep factors A once (factor_medium, which also solves the unperturbed
field) and treats every probe as a low-rank update on the node set S of
those elements (measure_on_medium; Woodbury; Hager, "Updating the inverse
of a matrix", SIAM Review 1989): one block solve per disk gives (A^-1)_SS,
and each amplitude costs one |S| x |S| dense solve. probe_sweep is the two
steps in one call. The tests hold it to the reference path in
tests/reference.py: two full factorizations per probe, with the datum
solved for in difference form.
predict_probe and the recovery that inverts it (disentangle) share one
contrast law, f_contrast; sample_field takes a point's gradient from the
rows of the mesh's gradient map that fem.gradient uses.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fem, kernels
from .fem import BoundaryCondition, CoefficientField, ComplexField
from .mesh import TriangleMesh

# fraction of the mesh radius treated as the known-material zone; probes must
# keep their whole disk strictly inside the complement
DEFAULT_INTERIOR_FRACTION = 0.75

# identity columns per block solve of (A^-1)_SS: a few dense (n_nodes, 8)
# arrays at a time, however many nodes a disk covers. On mesh 400's LU a
# block solve holds two of them, the block and SuperLU's copy of it; on a
# band it holds the band's permuted copy as well
INVERSE_BLOCK_COLUMNS = 8

# barycentric slack of the point location: a point it accepts lies in the
# element scaled by 1 + 3 LOCATE_SLACK about its centroid, so bounding boxes
# widened by LOCATE_BOX_PAD times the mesh radius never drop an accepted one
LOCATE_SLACK = 1e-12
LOCATE_BOX_PAD = 1e-9


@dataclass(frozen=True)
class PerturbationProbe:
    """One localized experiment: disk, amplitude, and inclusion values;
    the center is a pair of finite floats (x, y)."""

    center: Tuple[float, float]
    radius: float
    amplitude: float
    gamma_tilde: float
    q_tilde: float

    def __post_init__(self):
        x, y = map(float, self.center)
        if not (math.isfinite(x) and math.isfinite(y)):  # NaN passes _check_disks
            raise ValueError(f"probe center must be finite, not {(x, y)!r}")
        object.__setattr__(self, "center", (x, y))
        if not self.radius > 0:
            raise ValueError("probe radius must be positive")
        if not self.amplitude > 0:
            raise ValueError("probe amplitude must be positive")
        if not (self.gamma_tilde > 0 and self.q_tilde > 0):
            raise ValueError("perturbed material values must be positive")

    @property
    def area(self) -> float:
        return math.pi * self.radius ** 2


@dataclass
class ProbeMeasurement:
    """Boundary-energy datum of one probe: raw is the boundary integral of
    the field change against the conjugated data, D = raw.real / area."""

    probe: PerturbationProbe
    D: float
    raw: complex


PHASE_CONVENTIONS = ("xy", "yx")


def boundary_phase(mesh: TriangleMesh, convention: str = "xy") -> np.ndarray:
    """Unit-modulus angular data on the boundary nodes.

    ``xy`` uses the angle with tangent x/y, ``yx`` the usual polar angle;
    both appear in the literature and differ by a rotation of the pattern.
    """
    if convention not in PHASE_CONVENTIONS:
        raise ValueError(f"unknown phase convention {convention!r}")
    x = mesh.nodes[mesh.boundary_nodes, 0]
    y = mesh.nodes[mesh.boundary_nodes, 1]
    angle = np.arctan2(x, y) if convention == "xy" else np.arctan2(y, x)
    return np.exp(1j * angle)


def _check_medium(mesh: TriangleMesh, gamma: CoefficientField,
                  q: CoefficientField, bc: BoundaryCondition) -> None:
    if bc.kind != "neumann":
        raise ValueError("probe measurements need flux (neumann) data")
    if gamma.mesh is not mesh or q.mesh is not mesh:
        raise ValueError("coefficient fields must live on the given mesh")


def _check_disks(disk_radius: float,
                 probes: Sequence[PerturbationProbe]) -> None:
    """Reject a probe disk that reaches past the interior zone, the disk of
    DEFAULT_INTERIOR_FRACTION times the mesh radius."""
    limit = DEFAULT_INTERIOR_FRACTION * disk_radius
    for probe in probes:
        dist = math.hypot(*probe.center)
        if dist + probe.radius > limit:
            raise ValueError(
                f"probe disk (|z|={dist:.3f}, r={probe.radius:.3f}) reaches past "
                f"the interior region of radius {limit:.3f}")


def gradient_energy(u: ComplexField, gamma: CoefficientField) -> np.ndarray:
    """The nodal gradient energy gamma |grad u|^2, the J that
    two_frequency_data returns."""
    return gamma.values * fem.gradient(u).node_magnitude_squared()


def mass_energy(u: ComplexField, q: CoefficientField) -> np.ndarray:
    """The nodal mass energy q |u|^2, the j that two_frequency_data
    returns."""
    return q.values * np.abs(u.values) ** 2


def two_frequency_data(mesh: TriangleMesh, gamma: CoefficientField,
                       q: CoefficientField, k1: float, k2: float,
                       bc: BoundaryCondition) -> tuple:
    """The fields u1 at k1 and u2 at k2 under bc, and the internal data the
    reconstruction inverts: J = gamma |grad u1|^2 and j = q |u2|^2. The
    second solve refactors the first one's factor."""
    if bc.kind == "neumann" and 0.0 in (k1, k2):
        # constants are in the nullspace of the zero-frequency flux problem
        raise fem.SingularSystem("pure flux data at k = 0 determines the "
                                 "field only up to a constant")
    u1, _, lu = fem.solve_bvp(mesh, gamma, q, k1, bc)
    u2, _, _ = fem.solve_bvp(mesh, gamma, q, k2, bc, lu=lu)
    return u1, u2, gradient_energy(u1, gamma), mass_energy(u2, q)


def disk_triangle_area(center, radius: float, verts):
    """Area of the intersection of a disk with a ccw triangle (3, 2), as a
    float, or with each of a stack (m, 3, 2) of them, as an (m,) array.

    Signed sectors: each edge (a, b), taken relative to the centre, adds the
    signed area the disk shares with the triangle (centre, a, b). The edge
    a + t (b - a) meets the circle at t0 <= t1, clipped to [0, 1] (t0 = t1
    where the line misses), at p and q; its share is the triangle
    (centre, p, q) plus the sectors from a to p and from q to b. A triangle
    that no edge enters and that does not hold the centre gets exactly 0.
    """
    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    def angle(u, v):
        return np.arctan2(cross(u, v), (u * v).sum(axis=-1))

    r2 = radius * radius
    a = np.asarray(verts, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    b = np.roll(a, -1, axis=-2)
    d = b - a
    dd = (d * d).sum(axis=-1)
    ad = (a * d).sum(axis=-1)
    sq = np.sqrt(np.maximum(ad * ad - dd * ((a * a).sum(axis=-1) - r2), 0.0))
    # a zero-length edge gets t0 = t1 = 0 and so no share
    scale = np.where(dd > 0.0, dd, 1.0)
    t0 = np.clip((-ad - sq) / scale, 0.0, 1.0)
    t1 = np.clip((-ad + sq) / scale, 0.0, 1.0)
    # exact at t = 0 and t = 1, and p = q where t0 = t1: no spurious angle at
    # a vertex next to the centre, no spurious chord outside the disk
    p, q = (a * (1.0 - t[..., None]) + b * t[..., None] for t in (t0, t1))
    share = cross(p, q) + r2 * (angle(a, p) + angle(q, b))
    meets = (t1 > t0).any(axis=-1) | (cross(a, b) > 0.0).all(axis=-1)
    area = np.where(meets, 0.5 * share.sum(axis=-1), 0.0)
    return float(area) if area.ndim == 0 else area


def probe_element_fractions(mesh: TriangleMesh,
                            probe: PerturbationProbe) -> np.ndarray:
    """Covered-area fraction of each element under the probe disk."""
    area, _, _ = mesh.geometry
    lo, hi = mesh.element_boxes
    zx, zy = probe.center
    # candidate prefilter: the disk must meet the triangle bounding box
    near = ((lo[:, 0] - probe.radius <= zx) & (zx <= hi[:, 0] + probe.radius)
            & (lo[:, 1] - probe.radius <= zy) & (zy <= hi[:, 1] + probe.radius))
    cut = disk_triangle_area((zx, zy), probe.radius, mesh.nodes[mesh.triangles[near]])
    frac = np.zeros(mesh.n_triangles)
    frac[near] = np.clip(cut / area[near], 0.0, 1.0)
    return frac


def f_contrast(x: float) -> float:
    """Disk polarization factor 2(x-1)/(x+1) of the gradient channel (Ammari
    & Kang, Polarization and Moment Tensors, 2007), x the conductivity
    contrast ratio."""
    if x == -1.0:
        raise ValueError("contrast factor has a pole at -1")
    return 2.0 * (x - 1.0) / (x + 1.0)


def predict_probe(gamma_at_z: float, q_at_z: float, grad_u_at_z, u_at_z: complex,
                  k: float, probe: PerturbationProbe) -> float:
    """Closed-form small-probe limit of the rescaled datum.

    The gradient channel carries the disk polarization factor f_contrast(a)
    with a the conductivity amplitude ratio, so it changes sign with a - 1;
    the value channel is linear in the permittivity amplitude ratio.
    """
    if gamma_at_z <= 0 or q_at_z <= 0:
        raise ValueError("material values at the probe center must be positive")
    grad = np.asarray(grad_u_at_z, dtype=np.complex128).ravel()
    if grad.shape != (2,):
        raise ValueError("grad_u_at_z must be a 2-vector")
    grad_sq = float(np.abs(grad[0]) ** 2 + np.abs(grad[1]) ** 2)
    val_sq = float(abs(complex(u_at_z)) ** 2)
    a = probe.amplitude * probe.gamma_tilde / gamma_at_z
    b = probe.amplitude * probe.q_tilde / q_at_z
    return (gamma_at_z * grad_sq * f_contrast(a)
            - k ** 2 * q_at_z * val_sq * (b - 1.0))


def sample_field(u: ComplexField, p) -> Tuple[complex, np.ndarray]:
    """Value and gradient of the P1 field at an interior point: the
    barycentric interpolant of the containing element, and that element's
    rows of the mesh's gradient map, so the gradient is bit for bit
    fem.gradient(u).tri_values of the element."""
    mesh = u.mesh
    t, (l0, l1, l2) = _containing_triangle(mesh, float(p[0]), float(p[1]))
    i, jn, kn = mesh.triangles[t]
    value = l0 * u.values[i] + l1 * u.values[jn] + l2 * u.values[kn]
    pairs = np.ascontiguousarray(u.values).view(np.float64).reshape(-1, 2)
    grad = (mesh.gradient_map[2 * t:2 * t + 2] @ pairs).view(np.complex128)
    return complex(value), grad.ravel()


def _containing_triangle(mesh: TriangleMesh, x: float, y: float
                         ) -> Tuple[int, Tuple[float, float, float]]:
    """First element, in index order, whose barycentric coordinates of the
    point pass -LOCATE_SLACK, and those coordinates; only elements whose
    bounding box, widened by LOCATE_BOX_PAD times the mesh radius, holds the
    point are tested."""
    lo, hi = mesh.element_boxes
    pad = LOCATE_BOX_PAD * mesh.radius
    near = np.nonzero((lo[:, 0] - pad <= x) & (x <= hi[:, 0] + pad)
                      & (lo[:, 1] - pad <= y) & (y <= hi[:, 1] + pad))[0]
    verts = mesh.nodes[mesh.triangles[near]]
    v0 = verts[:, 0]
    e1 = verts[:, 1] - v0
    e2 = verts[:, 2] - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    rx = x - v0[:, 0]
    ry = y - v0[:, 1]
    l1 = (rx * e2[:, 1] - e2[:, 0] * ry) / det
    l2 = (e1[:, 0] * ry - rx * e1[:, 1]) / det
    ok = ((l1 >= -LOCATE_SLACK) & (l2 >= -LOCATE_SLACK)
          & (l1 + l2 <= 1.0 + LOCATE_SLACK))
    hits = np.flatnonzero(ok)
    if len(hits) == 0:
        raise ValueError(f"point ({x}, {y}) is outside the mesh")
    h = hits[0]
    return int(near[h]), (1.0 - l1[h] - l2[h], l1[h], l2[h])


def probe_sweep(
    mesh: TriangleMesh,
    gamma: CoefficientField,
    q: CoefficientField,
    k: float,
    bc: BoundaryCondition,
    probes: Sequence[PerturbationProbe],
) -> List[ProbeMeasurement]:
    """Measure a batch of probes on one factorization of the medium:
    measure_on_medium(factor_medium(...), probes)."""
    return measure_on_medium(factor_medium(mesh, gamma, q, k, bc), probes)


@dataclass
class FactoredMedium:
    """A medium's factored Neumann operator A, its field u = A^-1 b and the
    adjoint v = A^-1 w of the boundary datum (see measure_on_medium)."""

    mesh: TriangleMesh
    gamma: CoefficientField
    q: CoefficientField
    k: float
    lu: fem.Factor
    u: np.ndarray
    v: np.ndarray


def factor_medium(mesh: TriangleMesh, gamma: CoefficientField,
                  q: CoefficientField, k: float,
                  bc: BoundaryCondition) -> FactoredMedium:
    """Factor the Neumann operator once and solve u and v in one block."""
    _check_medium(mesh, gamma, q, bc)
    matrix, rhs = fem.assemble(mesh, gamma, q, k, bc)
    lu = fem.Factor(matrix)
    adjoint_load = np.zeros(mesh.n_nodes, dtype=np.complex128)
    adjoint_load[mesh.boundary_nodes] = fem.boundary_weights(mesh) * np.conj(bc.data)
    uv, _ = lu.solve(np.column_stack([rhs, adjoint_load]))
    return FactoredMedium(mesh, gamma, q, k, lu, uv[:, 0], uv[:, 1])


def measure_on_medium(medium: FactoredMedium,
                      probes: Sequence[PerturbationProbe]
                      ) -> List[ProbeMeasurement]:
    """Measure every probe as a low-rank update of the factored medium.

    The Neumann operator A (real and symmetric) was factored once, and one
    4-column block solve gave the field u = A^-1 b and the adjoint
    v = A^-1 w, where w is the boundary trapezoid weights times the
    conjugated data, so that the boundary datum of any field f is w^T f.
    A probe adds dA to A on the node set S of the elements its disk covers.
    Per disk, a block solve against the identity columns of S gives
    G = (A^-1)_SS, shared by every amplitude at that disk. Per probe, the
    perturbed field on S solves (I + G dA_SS) x = u_S, and the datum is
    w^T (u - u_w) = v_S^T dA_SS x.

    Every solve is gated against fem.RESIDUAL_RTOL: u and v, each column of
    the G block, and the |S| x |S| system. The perturbed field
    u_w = u - A^-1 P dA_SS x (P the columns of S) then satisfies
    (A + P dA_SS P^T) u_w - b = r_u - R_G dA_SS x - P dA_SS r_x, with r_u,
    R_G and r_x the residuals of those three solves, so the perturbed
    system's residual is bounded by theirs. The data agree to roundoff with
    the two-factorization reference in tests/reference.py.
    """
    mesh, k, lu, u, v = medium.mesh, medium.k, medium.lu, medium.u, medium.v
    _check_disks(mesh.radius, probes)
    ge = fem.element_average(mesh, medium.gamma.values)
    qe = fem.element_average(mesh, medium.q.values)
    area, b, c = mesh.geometry
    disks: Dict[Tuple[Tuple[float, float], float], List[int]] = {}
    for i, probe in enumerate(probes):
        disks.setdefault((probe.center, probe.radius), []).append(i)

    out: List[Optional[ProbeMeasurement]] = [None] * len(probes)
    for members in disks.values():
        frac = probe_element_fractions(mesh, probes[members[0]])
        cov = np.nonzero(frac)[0]
        frac = frac[cov]
        support, local = np.unique(mesh.triangles[cov], return_inverse=True)
        local = local.reshape(-1, 3)
        scatter = (local[:, :, None] * len(support) + local[:, None, :]).ravel()
        green = _inverse_block(lu, support)
        for i in members:
            probe = probes[i]
            d_stiff = frac * (probe.amplitude * probe.gamma_tilde - ge[cov])
            d_mass = -(k ** 2) * frac * (probe.amplitude * probe.q_tilde - qe[cov])
            elem = kernels.local_matrices(area[cov], b[cov], c[cov], d_stiff, d_mass)
            d_a = np.bincount(scatter, weights=elem.ravel(),
                              minlength=len(support) ** 2).reshape(len(support), -1)
            x = _update_solve(np.eye(len(support)) + green @ d_a, u[support])
            raw = complex(v[support] @ (d_a @ x))
            out[i] = ProbeMeasurement(probe=probe, D=raw.real / probe.area,
                                      raw=raw)
    return out


def _inverse_block(lu: fem.Factor, nodes: np.ndarray) -> np.ndarray:
    """(A^-1)[nodes, nodes] from gated block solves against identity columns."""
    block = np.empty((len(nodes), len(nodes)))
    for lo in range(0, len(nodes), INVERSE_BLOCK_COLUMNS):
        cols = nodes[lo:lo + INVERSE_BLOCK_COLUMNS]
        eye = np.zeros((lu.matrix.shape[0], len(cols)), order="F")
        eye[cols, np.arange(len(cols))] = 1.0
        y, _ = lu.solve(eye)
        block[:, lo:lo + len(cols)] = y[nodes]
    return block


def _update_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gated dense solve of a probe's real |S| x |S| system, complex rhs."""
    cols = np.column_stack([rhs.real, rhs.imag])
    try:
        y = np.linalg.solve(matrix, cols)
    except np.linalg.LinAlgError as exc:
        raise fem.SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(y)):
        raise fem.SingularSystem("probe update produced non-finite values")
    fem.residual_gate(matrix, y, cols, 1)
    return y[:, 0] + 1j * y[:, 1]
