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
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.spatial import Delaunay

from . import kernels

MIN_BOUNDARY_POINTS = 16

MESH_FORMAT_HEADER = "helmpert-mesh 1"


class RegionTag:
    """Material region labels for phantom classification; they are also the
    region keys of a config's phantom conductivity and permittivity."""

    BACKGROUND = "background"
    TRIANGLE = "triangle"
    ELLIPSE = "ellipse"
    LSHAPE = "lshape"
    NEAR_BOUNDARY = "near_boundary"

    ALL = (BACKGROUND, TRIANGLE, ELLIPSE, LSHAPE, NEAR_BOUNDARY)


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry and material values of the synthetic test medium.

    The inclusion coordinates are a fixed choice (one convex, one smooth,
    one non-convex inclusion, all inside the known annulus); the method does
    not depend on the exact placement. Conductivity/permittivity values per
    region follow the reference experiment. Points farther than
    ``annulus_radius`` from the origin are tagged near_boundary: the material
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

    def __post_init__(self):
        # the method's hypotheses: a coercive conductivity and a positive
        # permittivity in every region
        for which in ("conductivity", "permittivity"):
            for region, value in getattr(self, which).items():
                if not 0 < value < math.inf:
                    raise ValueError(f"phantom {which} of region {region} must "
                                     f"be positive and finite, not {value!r}")

    def values(self, which: str) -> dict:
        if which not in ("conductivity", "permittivity"):
            raise ValueError(f"unknown coefficient kind {which!r}")
        return getattr(self, which)


class DirichletGather(NamedTuple):
    """How to eliminate the boundary rows and columns of a stack of nodal
    blocks from its blocks' CSR data (TriangleMesh.dirichlet_gather)."""

    # boundary rows of every block, in block order
    boundary: np.ndarray
    # position of every entry of the eliminated operator in the block data,
    # an (nnz, blocks^2) array read in C order whose column r blocks + c
    # holds block (r, c) on csr_pattern; intp, because np.take casts any
    # other index type on every call (int32: 0.8 ms instead of 0.14 ms for
    # the 80k entries of a two-block gather on mesh 200)
    keep: np.ndarray
    # positions of the boundary diagonals among those entries
    diagonal: np.ndarray
    # pattern of the eliminated operator
    indptr: np.ndarray
    indices: np.ndarray


@dataclass(eq=False)
class TriangleMesh:
    """Conforming P1 triangulation of the disk.

    nodes: (n_nodes, 2) float64. triangles: (n_tris, 3) int32, positively
    oriented. boundary_nodes: indices on the circle, one closed loop in
    increasing angle.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray
    n_boundary_points: int
    radius: float
    _dirichlet_gathers: dict = field(default_factory=dict, init=False, repr=False)
    _lumped_weights: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int32)
        self.boundary_nodes = np.ascontiguousarray(self.boundary_nodes, dtype=np.int32)
        for arr in (self.nodes, self.triangles, self.boundary_nodes):
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
        """(area, b, c) per element; grad(phi_i) = (b_i, c_i)/(2 area).
        Locked like the mesh arrays, because every caller shares them."""
        geometry = kernels.element_geometry(self.nodes, self.triangles)
        for arr in geometry:
            arr.flags.writeable = False
        return geometry

    @property
    def element_areas(self) -> np.ndarray:
        """Signed area per triangle, positive for the ccw ones."""
        return self.geometry[0]

    @cached_property
    def csr_pattern(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, slot) of the P1 matrix pattern, canonical CSR.

        slot[9 e + 3 i + j] is the position in the CSR data of element e's
        local entry (i, j); assembly_map is built from it. Built on first
        use; locked like the mesh arrays, because every matrix assembled on
        the mesh shares it.
        """
        n = self.n_nodes
        t = self.triangles.astype(np.int64)
        keys = (np.repeat(t, 3, axis=1) * n + np.tile(t, (1, 3))).ravel()
        entries, slot = np.unique(keys, return_inverse=True)
        row_counts = np.bincount(entries // n, minlength=n)
        indptr = np.concatenate([[0], np.cumsum(row_counts)]).astype(np.int32)
        indices = (entries % n).astype(np.int32)
        for arr in (indptr, indices, slot):
            arr.flags.writeable = False
        return indptr, indices, slot

    @cached_property
    def assembly_map(self) -> sp.csr_matrix:
        """Sparse map E from per-element coefficients to assembled CSR data.

        E @ concat(s, m) is the data, on csr_pattern, of K(s) + M(m) for
        centroid stiffness coefficients s and mass coefficients m, one per
        element. Row p of E holds, for each element with a local entry in
        slot p, that entry of its unit stiffness (column e) and of its unit
        mass (column n_tris + e), each in increasing element order. Built
        on first use; locked like csr_pattern.
        """
        n_tris = self.n_triangles
        area, b, c = self.geometry
        ones, zeros = np.ones(n_tris), np.zeros(n_tris)
        unit = np.concatenate([kernels.local_matrices(area, b, c, ones, zeros),
                               kernels.local_matrices(area, b, c, zeros, ones)])
        _, indices, slot = self.csr_pattern
        # E^T has one row per column of E, its nine entries at the element's
        # slots; the CSR transpose is a stable counting sort into E's rows
        transpose = sp.csr_matrix(
            (unit.ravel(), np.tile(slot, 2), 9 * np.arange(2 * n_tris + 1)),
            shape=(2 * n_tris, len(indices)))
        E = transpose.T.tocsr()
        for arr in (E.data, E.indices, E.indptr):
            arr.flags.writeable = False
        return E

    @cached_property
    def unit_mass(self) -> sp.csr_matrix:
        """M(1), the consistent mass matrix: assembly_map applied to unit
        mass coefficients. Built on first use; locked like csr_pattern."""
        n_tris = self.n_triangles
        indptr, indices, _ = self.csr_pattern
        data = self.assembly_map @ np.concatenate([np.zeros(n_tris),
                                                   np.ones(n_tris)])
        data.flags.writeable = False
        return sp.csr_matrix((data, indices, indptr),
                             shape=(self.n_nodes, self.n_nodes))

    def dirichlet_gather(self, blocks: int) -> DirichletGather:
        """The gather that eliminates the boundary rows and columns of a
        blocks x blocks stack of operators on csr_pattern: interior entries
        stay, a boundary row keeps only its diagonal. Built once per block
        count from the canonical CSR layout of the stack, as scipy's sp.bmat
        lays it out, and kept with the mesh, its arrays locked."""
        gather = self._dirichlet_gathers.get(blocks)
        if gather is not None:
            return gather
        indptr, indices, _ = self.csr_pattern
        n = self.n_nodes
        # block (r, c) holds at pattern entry p the tag 1 + p blocks^2 +
        # r blocks + c, one past its value's place in the blocks' (nnz,
        # blocks^2) data: no tag is 0, so every entry stays, in nonzero() too
        tags = np.arange(1, blocks * blocks * len(indices) + 1,
                         dtype=np.int32).reshape(-1, blocks, blocks)
        stack = sp.bmat([[sp.csr_matrix((tags[:, r, c], indices, indptr), shape=(n, n))
                          for c in range(blocks)] for r in range(blocks)], format="csr")
        boundary = (self.boundary_nodes
                    + n * np.arange(blocks, dtype=np.int32)[:, None]).ravel()
        inner = np.ones(blocks * n, dtype=bool)
        inner[boundary] = False
        rows, cols = stack.nonzero()
        diag = (rows == cols) & ~inner[rows]
        if np.count_nonzero(diag) != len(boundary):
            raise ValueError("mesh pattern lacks a boundary diagonal entry")
        stays = (inner[rows] & inner[cols]) | diag
        # dropping the other entries' tags leaves the eliminated pattern
        stack.data[~stays] = 0
        stack.eliminate_zeros()
        gather = DirichletGather(
            boundary=boundary,
            keep=(stack.data - 1).astype(np.intp),
            diagonal=np.flatnonzero(diag[stays]).astype(np.int32),
            indptr=stack.indptr.astype(np.int32),
            indices=stack.indices.astype(np.int32))
        for arr in gather:
            arr.flags.writeable = False
        self._dirichlet_gathers[blocks] = gather
        return gather

    @cached_property
    def gradient_map(self) -> sp.csr_matrix:
        """Sparse map G (2 n_tris x n_nodes) from nodal values to the exact
        P1 gradient of every element: rows 2 e and 2 e + 1 are element e's
        x and y derivatives, so (G @ u).reshape(n_tris, 2) holds the element
        gradients. Built on first use; locked like csr_pattern."""
        area, b, c = self.geometry
        n_tris = self.n_triangles
        inv2a = (0.5 / area)[:, None]
        G = sp.csr_matrix(
            (np.stack([b * inv2a, c * inv2a], axis=1).ravel(),
             np.repeat(self.triangles, 2, axis=0).ravel(),
             3 * np.arange(2 * n_tris + 1, dtype=np.int32)),
            shape=(2 * n_tris, self.n_nodes))
        for arr in (G.data, G.indices, G.indptr):
            arr.flags.writeable = False
        return G

    @cached_property
    def average_map(self) -> sp.csr_matrix:
        """Sparse map A (n_nodes x n_tris), the area-weighted average of
        per-element values onto the nodes: row i holds area_e / (the area
        of the elements around i) for each element e at node i, in
        increasing element order. Built on first use; locked like
        csr_pattern."""
        area, _, _ = self.geometry
        t = self.triangles
        n_tris = self.n_triangles
        around = np.bincount(t.ravel(), weights=np.repeat(area, 3),
                             minlength=self.n_nodes)
        # built as A^T, one row of three entries per element, and
        # transposed (a stable counting sort into A's rows)
        transpose = sp.csr_matrix(
            ((area[:, None] / around[t]).ravel(), t.ravel(),
             3 * np.arange(n_tris + 1, dtype=np.int32)),
            shape=(n_tris, self.n_nodes))
        A = transpose.T.tocsr()
        for arr in (A.data, A.indices, A.indptr):
            arr.flags.writeable = False
        return A

    def lumped_weights(self, node_mask: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """(nodes, weights): the mass-lumped quadrature weight of each node
        over the elements whose three vertices are all in node_mask (a third
        of each such element's area per vertex), for the nodes where it is
        positive. The mesh keeps the weights of the last mask, keyed by its
        bytes, so a mask changed in place gets its own weights; their arrays
        are locked."""
        mask = np.asarray(node_mask, dtype=bool)
        key = mask.tobytes()
        if self._lumped_weights is not None and self._lumped_weights[0] == key:
            return self._lumped_weights[1]
        area, _, _ = self.geometry
        inside = mask[self.triangles].all(axis=1)
        weights = np.bincount(self.triangles[inside].ravel(),
                              weights=np.repeat(area[inside] / 3.0, 3),
                              minlength=self.n_nodes)
        nodes = np.flatnonzero(weights > 0)
        lumped = (nodes, weights[nodes])
        for arr in lumped:
            arr.flags.writeable = False
        self._lumped_weights = (key, lumped)
        return lumped

    @cached_property
    def element_boxes(self) -> Tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corners of every element's bounding box, (n_tris, 2) each."""
        verts = self.nodes[self.triangles]  # (n_tris, 3, 2)
        return verts.min(axis=1), verts.max(axis=1)

    def node_radii(self) -> np.ndarray:
        return _point_radii(self.nodes)


def disk_mesh_size(radius: float, n_boundary_points) -> int:
    """n_boundary_points as an int; ValueError unless radius is positive and
    it is a whole number of at least MIN_BOUNDARY_POINTS."""
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
    return n


def build_disk_mesh(radius: float, n_boundary_points: int) -> TriangleMesh:
    """Triangulate the disk of the given radius.

    Nodes sit on ``m = floor(n/2pi)`` concentric rings so radial and angular
    spacings match the boundary arc length; the innermost ring leaves the
    origin uncovered. Consecutive rings are staggered by half an angular
    step to avoid slivers.
    """
    n = disk_mesh_size(radius, n_boundary_points)
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
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    area = np.abs(area)
    keep = area > 1e-12 * radius ** 2
    triangles = triangles[keep]

    mesh = TriangleMesh(
        nodes=nodes,
        triangles=triangles,
        boundary_nodes=boundary,
        n_boundary_points=n,
        radius=float(radius),
    )
    _validate_mesh(mesh)
    return mesh


def _edge_counts(triangles: np.ndarray):
    """Distinct edges (lo, hi), in lexicographic order, and how many
    elements share each; sorted as the 1-D keys lo n + hi."""
    first = triangles.ravel()
    second = triangles[:, [1, 2, 0]].ravel()
    n = int(first.max()) + 1
    keys = np.minimum(first, second).astype(np.int64) * n
    keys += np.maximum(first, second)
    keys, counts = np.unique(keys, return_counts=True)
    uniq = np.stack(np.divmod(keys, n), axis=1).astype(triangles.dtype)
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


def _in_triangle(x: np.ndarray, y: np.ndarray, verts) -> np.ndarray:
    (x0, y0), (x1, y1), (x2, y2) = verts
    d0 = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
    d1 = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    d2 = (x0 - x2) * (y - y2) - (y0 - y2) * (x - x2)
    return ((d0 > 0) & (d1 > 0) & (d2 > 0)) | ((d0 < 0) & (d1 < 0) & (d2 < 0))


def _in_ellipse(x: np.ndarray, y: np.ndarray, phantom: PhantomSpec) -> np.ndarray:
    cx, cy = phantom.ellipse_center
    a, b = phantom.ellipse_semi_axes
    t = math.radians(phantom.ellipse_angle_deg)
    dx, dy = x - cx, y - cy
    u = dx * math.cos(t) + dy * math.sin(t)
    v = -dx * math.sin(t) + dy * math.cos(t)
    return (u / a) ** 2 + (v / b) ** 2 < 1.0


def _in_lshape(x: np.ndarray, y: np.ndarray, phantom: PhantomSpec) -> np.ndarray:
    inside = np.zeros(x.shape, dtype=bool)
    for x0, x1, y0, y1 in phantom.lshape_rects:
        inside |= (x0 < x) & (x < x1) & (y0 < y) & (y < y1)
    return inside


def _point_radii(points: np.ndarray) -> np.ndarray:
    """Distance from the origin of each point of an (n, 2) array, by
    math.hypot: np.hypot can differ in the last bit on the annulus circle."""
    return np.fromiter(map(math.hypot, points[:, 0], points[:, 1]),
                       dtype=np.float64, count=len(points))


def _region_index(points: np.ndarray, phantom: PhantomSpec) -> np.ndarray:
    """Index into RegionTag.ALL of each point of an (n, 2) array.

    Open inclusion interiors, tested in the order triangle, ellipse, L-shape;
    anything farther than the known annulus radius from the origin
    (including points outside the disk) is near_boundary.
    """
    x, y = points[:, 0], points[:, 1]
    conditions = [_point_radii(points) > phantom.annulus_radius,
                  _in_triangle(x, y, phantom.triangle_vertices),
                  _in_ellipse(x, y, phantom),
                  _in_lshape(x, y, phantom)]
    choices = [RegionTag.ALL.index(tag) for tag in
               (RegionTag.NEAR_BOUNDARY, RegionTag.TRIANGLE, RegionTag.ELLIPSE,
                RegionTag.LSHAPE)]
    return np.select(conditions, choices,
                     default=RegionTag.ALL.index(RegionTag.BACKGROUND))


def classify_point(p, phantom: PhantomSpec) -> str:
    """Material region tag of the point p = (x, y) (see _region_index)."""
    points = np.array([p], dtype=np.float64)
    return RegionTag.ALL[int(_region_index(points, phantom)[0])]


def coefficient_from_phantom(mesh: TriangleMesh, phantom: PhantomSpec, which: str):
    """Nodal coefficient field of the phantom (kind: conductivity|permittivity)."""
    from .fem import CoefficientField

    table = phantom.values(which)
    region_values = np.array([table[tag] for tag in RegionTag.ALL], dtype=np.float64)
    values = region_values[_region_index(mesh.nodes, phantom)]
    return CoefficientField(mesh=mesh, values=values)


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
    rows = iter(lines[3:])

    def table(kind):
        # a "name count" line, then count rows (TriangleMesh sets the dtype)
        count = int(next(rows).split()[1])
        return np.array([[kind(t) for t in next(rows).split()]
                         for _ in range(count)])

    nodes = table(float)
    triangles = table(int)
    mesh = TriangleMesh(
        nodes=nodes,
        triangles=triangles,
        boundary_nodes=table(int).ravel(),
        n_boundary_points=int(lines[2].split()[1]),
        radius=float(lines[1].split()[1]),
    )
    _validate_mesh(mesh)
    return mesh
