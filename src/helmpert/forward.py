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

The perturbed medium blends element coefficients with the exactly clipped
covered-area fraction, so that probes smaller than the local element size
still displace the correct amount of material.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import fem
from .fem import BoundaryCondition, CoefficientField, ComplexField
from .mesh import Point2, TriangleMesh

# fraction of the mesh radius treated as the known-material zone; probes must
# keep their whole disk strictly inside the complement
DEFAULT_INTERIOR_FRACTION = 0.75


@dataclass(frozen=True)
class PerturbationProbe:
    """One localized experiment: disk, amplitude, and inclusion values."""

    center: Point2
    radius: float
    amplitude: float
    gamma_tilde: float
    q_tilde: float

    def __post_init__(self):
        if not isinstance(self.center, Point2):
            x, y = self.center
            object.__setattr__(self, "center", Point2(float(x), float(y)))
        if self.radius <= 0:
            raise ValueError("probe radius must be positive")
        if self.amplitude <= 0:
            raise ValueError("probe amplitude must be positive")
        if self.gamma_tilde <= 0 or self.q_tilde <= 0:
            raise ValueError("perturbed material values must be positive")

    @property
    def area(self) -> float:
        return math.pi * self.radius ** 2


@dataclass
class InternalData:
    """Nodal gradient-energy and mass-energy maps of one solution."""

    mesh: TriangleMesh
    J: np.ndarray
    j: np.ndarray
    k: float

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=np.float64)
        self.j = np.asarray(self.j, dtype=np.float64)
        n = self.mesh.n_nodes
        if self.J.shape != (n,) or self.j.shape != (n,):
            raise ValueError("internal data must be one value per node")
        if np.min(self.J) < 0 or np.min(self.j) < 0:
            raise ValueError("internal data fields are nonnegative by construction")


@dataclass
class ProbeMeasurement:
    """Rescaled boundary-energy datum of one probe."""

    probe: PerturbationProbe
    D: float
    boundary_integral_raw: complex


def boundary_phase(mesh: TriangleMesh, convention: str = "xy") -> np.ndarray:
    """Unit-modulus angular data on the boundary nodes.

    ``xy`` uses the angle with tangent x/y, ``yx`` the usual polar angle;
    both appear in the literature and differ by a rotation of the pattern.
    """
    x = mesh.nodes[mesh.boundary_nodes, 0]
    y = mesh.nodes[mesh.boundary_nodes, 1]
    if convention == "xy":
        angle = np.arctan2(x, y)
    elif convention == "yx":
        angle = np.arctan2(y, x)
    else:
        raise ValueError(f"unknown phase convention {convention!r}")
    return np.exp(1j * angle)


def _check_probe_inside(mesh: TriangleMesh, probe: PerturbationProbe) -> None:
    limit = DEFAULT_INTERIOR_FRACTION * mesh.radius
    dist = math.hypot(probe.center.x, probe.center.y)
    if dist + probe.radius > limit:
        raise ValueError(
            f"probe disk (|z|={dist:.3f}, r={probe.radius:.3f}) reaches past the "
            f"interior region of radius {limit:.3f}")


def internal_data(u: ComplexField, gamma: CoefficientField, q: CoefficientField,
                  k: float) -> InternalData:
    grad_sq = fem.gradient(u).node_magnitude_squared()
    val_sq = np.abs(u.values) ** 2
    return InternalData(mesh=u.mesh, J=gamma.values * grad_sq,
                        j=q.values * val_sq, k=k)


def _cross2(ax: float, ay: float, bx: float, by: float) -> float:
    return ax * by - ay * bx


def disk_triangle_area(center, radius: float, verts) -> float:
    """Area of the intersection of a disk with a ccw triangle.

    Green's theorem around the intersection boundary: straight pieces are the
    in-disk parts of the triangle edges, circular arcs connect each exit
    crossing to the next entry crossing. Tangential contact counts as no
    crossing.
    """
    cx, cy = float(center[0]), float(center[1])
    p = np.asarray(verts, dtype=np.float64) - np.array([cx, cy])
    r2 = radius * radius
    total = 0.0
    events: List[Tuple[int, np.ndarray]] = []  # (+1 enter / -1 exit, point)
    inside = [float(v @ v) <= r2 for v in p]
    for i in range(3):
        a = p[i]
        b = p[(i + 1) % 3]
        d = b - a
        aa = float(d @ d)
        if aa == 0.0:
            continue
        bb = 2.0 * float(a @ d)
        cc = float(a @ a) - r2
        disc = bb * bb - 4.0 * aa * cc
        if disc <= 0.0:
            if inside[i] and inside[(i + 1) % 3]:
                total += 0.5 * _cross2(a[0], a[1], b[0], b[1])
            continue
        sq = math.sqrt(disc)
        t0 = (-bb - sq) / (2.0 * aa)
        t1 = (-bb + sq) / (2.0 * aa)
        lo = max(t0, 0.0)
        hi = min(t1, 1.0)
        if hi - lo <= 1e-12:
            continue
        pa = a + lo * d
        pb = a + hi * d
        total += 0.5 * _cross2(pa[0], pa[1], pb[0], pb[1])
        if t0 > 0.0:
            events.append((1, pa))
        if t1 < 1.0:
            events.append((-1, pb))
    if not events:
        if all(inside):
            return total
        if _origin_in_triangle(p):
            return math.pi * r2
        return 0.0
    n = len(events)
    for idx in range(n):
        kind, pt = events[idx]
        if kind != -1:
            continue
        jdx = (idx + 1) % n
        while events[jdx][0] != 1:
            jdx = (jdx + 1) % n
        a0 = math.atan2(pt[1], pt[0])
        a1 = math.atan2(events[jdx][1][1], events[jdx][1][0])
        da = a1 - a0
        while da < 0.0:
            da += 2.0 * math.pi
        total += 0.5 * r2 * da
    return total


def _origin_in_triangle(p: np.ndarray) -> bool:
    for i in range(3):
        a = p[i]
        b = p[(i + 1) % 3]
        if _cross2(b[0] - a[0], b[1] - a[1], -a[0], -a[1]) < 0.0:
            return False
    return True


def probe_element_fractions(mesh: TriangleMesh, probe: PerturbationProbe) -> np.ndarray:
    """Covered-area fraction of each element under the probe disk."""
    area, _, _ = mesh.geometry
    verts = mesh.nodes[mesh.triangles]  # (n_tris, 3, 2)
    zx, zy = probe.center.x, probe.center.y
    # candidate prefilter: the disk must meet the triangle bounding box
    lo = verts.min(axis=1)
    hi = verts.max(axis=1)
    near = ((lo[:, 0] - probe.radius <= zx) & (zx <= hi[:, 0] + probe.radius)
            & (lo[:, 1] - probe.radius <= zy) & (zy <= hi[:, 1] + probe.radius))
    frac = np.zeros(mesh.n_triangles)
    for t in np.nonzero(near)[0]:
        cut = disk_triangle_area((zx, zy), probe.radius, verts[t])
        if cut > 0.0:
            frac[t] = min(cut / area[t], 1.0)
    return frac


def boundary_energy_difference(u: ComplexField, u_w: ComplexField,
                               bc: BoundaryCondition) -> complex:
    """Boundary integral of (u - u_w) against the conjugated data."""
    mesh = u.mesh
    phi = np.zeros(mesh.n_nodes, dtype=np.complex128)
    phi[mesh.boundary_nodes] = bc.data
    diff = ComplexField(mesh, u.values - u_w.values)
    return fem.boundary_integral(diff, phi)


def measure_probe(
    mesh: TriangleMesh,
    gamma: CoefficientField,
    q: CoefficientField,
    k: float,
    bc: BoundaryCondition,
    probe: PerturbationProbe,
) -> ProbeMeasurement:
    """Solve with and without the probe and form the rescaled datum.

    The perturbed operator blends element coefficients with the exact covered
    fraction from ``probe_element_fractions``; the datum is the real part of
    the boundary difference integral divided by the exact disk area. The
    orientation (unperturbed minus perturbed) is the one that matches
    ``predict_probe`` in sign; the imaginary residue is kept for diagnostics.
    """
    if bc.kind != "neumann":
        raise ValueError("probe measurements need flux (neumann) data")
    if gamma.mesh is not mesh or q.mesh is not mesh:
        raise ValueError("coefficient fields must live on the given mesh")
    _check_probe_inside(mesh, probe)

    u = fem.solve_bvp(mesh, gamma, q, k, bc)

    ge = fem.element_average(mesh, gamma.values)
    qe = fem.element_average(mesh, q.values)
    frac = probe_element_fractions(mesh, probe)
    stiff_e = ge + frac * (probe.amplitude * probe.gamma_tilde - ge)
    mass_e = -(k ** 2) * (qe + frac * (probe.amplitude * probe.q_tilde - qe))
    matrix = fem.assemble_operator_elementwise(mesh, stiff_e, mass_e)
    system = fem.SparseSystem(mesh=mesh, matrix=matrix,
                              rhs=np.zeros(mesh.n_nodes, dtype=np.complex128))
    u_w = fem.solve(fem.apply_neumann(system, bc))

    raw = boundary_energy_difference(u, u_w, bc)
    return ProbeMeasurement(probe=probe, D=raw.real / probe.area,
                            boundary_integral_raw=raw)


def predict_probe(gamma_at_z: float, q_at_z: float, grad_u_at_z, u_at_z: complex,
                  k: float, probe: PerturbationProbe) -> float:
    """Closed-form small-probe limit of the rescaled datum.

    The gradient channel carries the disk polarization factor 2(a-1)/(a+1)
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
    return (gamma_at_z * grad_sq * 2.0 * (a - 1.0) / (a + 1.0)
            - k ** 2 * q_at_z * val_sq * (b - 1.0))


def sample_field(u: ComplexField, p) -> Tuple[complex, np.ndarray]:
    """Value and gradient of the P1 field at an interior point."""
    mesh = u.mesh
    x, y = float(p[0]), float(p[1])
    t = _containing_triangle(mesh, x, y)
    i, jn, kn = mesh.triangles[t]
    (x0, y0), (x1, y1), (x2, y2) = mesh.nodes[[i, jn, kn]]
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    l1 = ((x - x0) * (y2 - y0) - (x2 - x0) * (y - y0)) / det
    l2 = ((x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)) / det
    l0 = 1.0 - l1 - l2
    value = l0 * u.values[i] + l1 * u.values[jn] + l2 * u.values[kn]
    grad = fem.gradient(u).tri_values[t]
    return complex(value), np.asarray(grad)


def _containing_triangle(mesh: TriangleMesh, x: float, y: float) -> int:
    verts = mesh.nodes[mesh.triangles]
    v0 = verts[:, 0]
    e1 = verts[:, 1] - v0
    e2 = verts[:, 2] - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    rx = x - v0[:, 0]
    ry = y - v0[:, 1]
    l1 = (rx * e2[:, 1] - e2[:, 0] * ry) / det
    l2 = (e1[:, 0] * ry - rx * e1[:, 1]) / det
    ok = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1.0 + 1e-12)
    hits = np.nonzero(ok)[0]
    if len(hits) == 0:
        raise ValueError(f"point ({x}, {y}) is outside the mesh")
    return int(hits[0])


def probe_sweep(
    mesh: TriangleMesh,
    gamma: CoefficientField,
    q: CoefficientField,
    k: float,
    bc: BoundaryCondition,
    probes: Sequence[PerturbationProbe],
    jobs: int = 1,
) -> List[ProbeMeasurement]:
    """Measure a batch of probes; distinct centers are independent solves."""
    if jobs <= 1 or len(probes) <= 1:
        return [measure_probe(mesh, gamma, q, k, bc, p) for p in probes]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(measure_probe, mesh, gamma, q, k, bc, p)
                   for p in probes]
        return [f.result() for f in futures]
