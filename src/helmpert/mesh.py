"""Disk triangulations and the three-inclusion material phantom.

The mesh generator lays nodes on concentric rings (angular count grows with
radius, outermost ring is the boundary circle) and triangulates with
Delaunay. No node is placed at the origin: the probing boundary data used
downstream vanishes toward the disk center, and a node exactly there would
pin the field minimum at zero instead of at the innermost ring.

Region classification uses open inclusion interiors, so boundary-of-inclusion
points fall back to the surrounding region. Everything here is deterministic;
a built mesh is immutable (arrays are locked) and safe to share.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

import numpy as np
from scipy.spatial import Delaunay

from . import kernels

MIN_BOUNDARY_POINTS = 16

MESH_FORMAT_HEADER = "helmpert-mesh 1"


@dataclass(frozen=True)
class Point2:
    x: float
    y: float


def _as_xy(p) -> Tuple[float, float]:
    if isinstance(p, Point2):
        return p.x, p.y
    x, y = p
    return float(x), float(y)


class RegionTag:
    """Material region labels for phantom classification."""

    BACKGROUND = "Background"
    TRIANGLE = "Triangle"
    ELLIPSE = "Ellipse"
    LSHAPE = "LShape"
    NEAR_BOUNDARY = "NearBoundary"

    ALL = (BACKGROUND, TRIANGLE, ELLIPSE, LSHAPE, NEAR_BOUNDARY)


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry and material values of the synthetic test medium.

    The inclusion coordinates are a fixed choice (one convex, one smooth,
    one non-convex inclusion, all inside the known annulus); the method does
    not depend on the exact placement. Conductivity/permittivity values per
    region follow the reference experiment. Points farther than
    ``annulus_radius`` from the origin are tagged NearBoundary: the material
    there is treated as known.
    """

    disk_radius: float = 8.0
    annulus_radius: float = 6.0
    triangle_vertices: Tuple[Tuple[float, float], ...] = ((-4.0, 1.0), (-1.0, 1.0), (-2.5, 4.0))
    ellipse_center: Tuple[float, float] = (2.5, 2.5)
    ellipse_semi_axes: Tuple[float, float] = (1.5, 0.8)
    ellipse_angle_deg: float = 30.0
    lshape_rects: Tuple[Tuple[float, float, float, float], ...] = (
        (-1.0, 3.0, -4.0, -2.5),
        (-1.0, 0.5, -2.5, 0.0),
    )
    conductivity: dict = field(
        default_factory=lambda: {
            RegionTag.BACKGROUND: 1.0,
            RegionTag.TRIANGLE: 2.5,
            RegionTag.ELLIPSE: 1.75,
            RegionTag.LSHAPE: 3.05,
            RegionTag.NEAR_BOUNDARY: 1.0,
        }
    )
    permittivity: dict = field(
        default_factory=lambda: {
            RegionTag.BACKGROUND: 3.0,
            RegionTag.TRIANGLE: 2.0,
            RegionTag.ELLIPSE: 1.0,
            RegionTag.LSHAPE: 2.55,
            RegionTag.NEAR_BOUNDARY: 3.0,
        }
    )

    def values(self, which: str) -> dict:
        if which == "conductivity":
            return self.conductivity
        if which == "permittivity":
            return self.permittivity
        raise ValueError(f"unknown coefficient kind {which!r}")


@dataclass(eq=False)
class TriangleMesh:
    """Conforming P1 triangulation of the disk.

    nodes: (n_nodes, 2) float64. triangles: (n_tris, 3) int32, positively
    oriented. boundary_nodes: indices on the circle, one closed loop in
    increasing angle. element_areas: positive areas per triangle.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray
    n_boundary_points: int
    radius: float
    element_areas: np.ndarray = None

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int32)
        self.boundary_nodes = np.ascontiguousarray(self.boundary_nodes, dtype=np.int32)
        if self.element_areas is None:
            area, _, _ = kernels.element_geometry(self.nodes, self.triangles)
            self.element_areas = area
        self.element_areas = np.ascontiguousarray(self.element_areas, dtype=np.float64)
        for arr in (self.nodes, self.triangles, self.boundary_nodes, self.element_areas):
            arr.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """(n_boundary, 2) consecutive index pairs along the closed loop."""
        loop = self.boundary_nodes
        return np.stack([loop, np.roll(loop, -1)], axis=1)

    @cached_property
    def geometry(self):
        """(area, b, c) per element; grad(phi_i) = (b_i, c_i)/(2 area)."""
        return kernels.element_geometry(self.nodes, self.triangles)

    def node_radii(self) -> np.ndarray:
        return np.hypot(self.nodes[:, 0], self.nodes[:, 1])


def build_disk_mesh(radius: float, n_boundary_points: int) -> TriangleMesh:
    """Triangulate the disk of the given radius.

    Nodes sit on ``m = floor(n/2pi)`` concentric rings so radial and angular
    spacings match the boundary arc length; the innermost ring leaves the
    origin uncovered. Consecutive rings are staggered by half an angular
    step to avoid slivers.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not float(n_boundary_points).is_integer():
        raise ValueError(f"n_boundary_points must be a whole number, got "
                         f"{n_boundary_points!r}")
    n = int(n_boundary_points)
    if n < MIN_BOUNDARY_POINTS:
        raise ValueError(
            f"n_boundary_points must be at least {MIN_BOUNDARY_POINTS}, got {n}"
        )
    m = max(2, int(n / (2.0 * math.pi)))
    pts = []
    for j in range(1, m + 1):
        r_j = radius * j / m
        n_j = n if j == m else max(6, int(n * j / m))
        offset = 0.5 * (j % 2)
        theta = 2.0 * math.pi * (np.arange(n_j) + offset) / n_j
        pts.append(np.stack([r_j * np.cos(theta), r_j * np.sin(theta)], axis=1))
    nodes = np.concatenate(pts, axis=0)
    n_nodes = nodes.shape[0]
    boundary = np.arange(n_nodes - n, n_nodes, dtype=np.int32)

    tri = Delaunay(nodes)
    triangles = np.ascontiguousarray(tri.simplices, dtype=np.int32)
    area, _, _ = kernels.element_geometry(nodes, triangles)
    flip = area < 0
    if np.any(flip):
        triangles[flip] = triangles[flip][:, [0, 2, 1]]
        area = np.abs(area)
    keep = area > 1e-12 * radius ** 2
    triangles = triangles[keep]
    area = area[keep]

    mesh = TriangleMesh(
        nodes=nodes,
        triangles=triangles,
        boundary_nodes=boundary,
        n_boundary_points=n,
        radius=float(radius),
        element_areas=area,
    )
    _validate_mesh(mesh)
    return mesh


def _edge_counts(triangles: np.ndarray):
    edges = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]], axis=0
    )
    edges = np.sort(edges, axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    return uniq, counts


def _validate_mesh(mesh: TriangleMesh) -> None:
    if np.any(mesh.element_areas <= 0):
        raise ValueError("mesh contains non-positively oriented triangles")
    uniq, counts = _edge_counts(mesh.triangles)
    if counts.max() > 2:
        raise ValueError("mesh has an edge shared by more than two triangles")
    hull_edges = {tuple(e) for e in uniq[counts == 1]}
    loop_edges = {tuple(sorted(e)) for e in mesh.boundary_edges.tolist()}
    if hull_edges != loop_edges:
        raise ValueError("boundary loop does not match the set of single-count edges")
    r = np.hypot(*mesh.nodes[mesh.boundary_nodes].T)
    if not np.allclose(r, mesh.radius, rtol=1e-12, atol=1e-12 * mesh.radius):
        raise ValueError("boundary nodes do not lie on the circle")


def _in_triangle(x: float, y: float, verts) -> bool:
    (x0, y0), (x1, y1), (x2, y2) = verts
    d0 = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
    d1 = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    d2 = (x0 - x2) * (y - y2) - (y0 - y2) * (x - x2)
    return (d0 > 0 and d1 > 0 and d2 > 0) or (d0 < 0 and d1 < 0 and d2 < 0)


def _in_ellipse(x: float, y: float, phantom: PhantomSpec) -> bool:
    cx, cy = phantom.ellipse_center
    a, b = phantom.ellipse_semi_axes
    t = math.radians(phantom.ellipse_angle_deg)
    dx, dy = x - cx, y - cy
    u = dx * math.cos(t) + dy * math.sin(t)
    v = -dx * math.sin(t) + dy * math.cos(t)
    return (u / a) ** 2 + (v / b) ** 2 < 1.0


def _in_lshape(x: float, y: float, phantom: PhantomSpec) -> bool:
    for x0, x1, y0, y1 in phantom.lshape_rects:
        if x0 < x < x1 and y0 < y < y1:
            return True
    return False


def classify_point(p, phantom: PhantomSpec) -> str:
    """Assign the material region tag of a point.

    Open inclusion interiors; anything farther than the known annulus radius
    from the origin (including points outside the disk) is NearBoundary.
    """
    x, y = _as_xy(p)
    if math.hypot(x, y) > phantom.annulus_radius:
        return RegionTag.NEAR_BOUNDARY
    if _in_triangle(x, y, phantom.triangle_vertices):
        return RegionTag.TRIANGLE
    if _in_ellipse(x, y, phantom):
        return RegionTag.ELLIPSE
    if _in_lshape(x, y, phantom):
        return RegionTag.LSHAPE
    return RegionTag.BACKGROUND


def classify_nodes(mesh: TriangleMesh, phantom: PhantomSpec) -> list:
    return [classify_point((x, y), phantom) for x, y in mesh.nodes]


def coefficient_from_phantom(mesh: TriangleMesh, phantom: PhantomSpec, which: str):
    """Nodal coefficient field of the phantom (kind: conductivity|permittivity)."""
    from .fem import CoefficientField

    table = phantom.values(which)
    vals = np.array([table[tag] for tag in classify_nodes(mesh, phantom)], dtype=np.float64)
    return CoefficientField(mesh=mesh, values=vals)


def save_mesh(mesh: TriangleMesh, path) -> None:
    """Write the plain-text mesh format (exact float round-trip).

    Layout: header line, radius, n_boundary_points, then a node table
    ("nodes N" followed by N lines "x y"), a triangle table ("triangles M"
    followed by M lines "i j k"), and the ordered boundary loop
    ("boundary K" followed by K node indices, one per line).
    """
    lines = [MESH_FORMAT_HEADER]
    lines.append(f"radius {float(mesh.radius)!r}")
    lines.append(f"n_boundary_points {mesh.n_boundary_points}")
    lines.append(f"nodes {mesh.n_nodes}")
    lines.extend(f"{float(x)!r} {float(y)!r}" for x, y in mesh.nodes)
    lines.append(f"triangles {mesh.n_triangles}")
    lines.extend(f"{i} {j} {k}" for i, j, k in mesh.triangles)
    lines.append(f"boundary {len(mesh.boundary_nodes)}")
    lines.extend(str(i) for i in mesh.boundary_nodes)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path) -> TriangleMesh:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines[0] != MESH_FORMAT_HEADER:
        raise ValueError(f"not a mesh file (header {lines[0]!r})")
    radius = float(lines[1].split()[1])
    n_boundary = int(lines[2].split()[1])
    pos = 3
    n_nodes = int(lines[pos].split()[1])
    pos += 1
    nodes = np.array(
        [[float(t) for t in ln.split()] for ln in lines[pos : pos + n_nodes]],
        dtype=np.float64,
    )
    pos += n_nodes
    n_tris = int(lines[pos].split()[1])
    pos += 1
    triangles = np.array(
        [[int(t) for t in ln.split()] for ln in lines[pos : pos + n_tris]],
        dtype=np.int32,
    )
    pos += n_tris
    n_bd = int(lines[pos].split()[1])
    pos += 1
    boundary = np.array([int(ln) for ln in lines[pos : pos + n_bd]], dtype=np.int32)
    mesh = TriangleMesh(
        nodes=nodes,
        triangles=triangles,
        boundary_nodes=boundary,
        n_boundary_points=n_boundary,
        radius=radius,
    )
    _validate_mesh(mesh)
    return mesh
