"""P1 finite elements for div(gamma grad u) + k^2 q u = f on disk meshes.

Assembly follows the convention that the stored system represents
-div(gamma grad u) - k^2 q u = -source, so the matrix is
K(gamma) - k^2 M(q) with K the coefficient-weighted stiffness and M the
consistent mass. assemble_operator, K(a) + M(c) for nodal coefficients a and
c, is the one assembly path: every load vector is such an operator applied
to a nodal field. Coefficients enter through element_average (one-point
centroid quadrature), adequate for the piecewise-constant phantoms used here.
Dirichlet data is enforced by row elimination with the symmetric column
correction (eliminate_dirichlet, shared by the forward problem and the
reconstruction's stacked corrector blocks); Neumann data adds consistent edge
loads. Every linear solve goes through factor_solve: a sparse LU in the
common dtype of matrix and rhs, checked against a relative residual of 1e-10.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import kernels
from .mesh import TriangleMesh

RESIDUAL_RTOL = 1e-10


class SingularSystem(Exception):
    """Factorization failed or produced a non-finite solution."""


class NonConvergence(Exception):
    """Solution exists but the residual check failed."""

    def __init__(self, residual: float, rhs_norm: float):
        self.residual = residual
        self.rhs_norm = rhs_norm
        super().__init__(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:.0e} * |rhs| = "
                         f"{RESIDUAL_RTOL * rhs_norm:.3e}")


@dataclass
class CoefficientField:
    """Real nodal material parameter on a mesh."""

    mesh: TriangleMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError("coefficient values must be one per node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("coefficient values must be finite")


@dataclass
class ComplexField:
    """Complex nodal field (potentials, correctors)."""

    mesh: TriangleMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError("field values must be one per node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


@dataclass
class GradientField:
    """Exact per-triangle P1 gradients plus area-averaged nodal recovery."""

    mesh: TriangleMesh
    tri_values: np.ndarray
    node_values: np.ndarray

    def node_magnitude_squared(self) -> np.ndarray:
        g = self.node_values
        return (np.abs(g[:, 0]) ** 2 + np.abs(g[:, 1]) ** 2).astype(np.float64)


@dataclass
class BoundaryCondition:
    """kind is 'dirichlet' or 'neumann'; data is complex per boundary node,
    aligned with mesh.boundary_nodes order."""

    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition kind {self.kind!r}")
        self.data = np.asarray(self.data, dtype=np.complex128)


@dataclass
class SparseSystem:
    mesh: TriangleMesh
    matrix: sp.csr_matrix
    rhs: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def element_average(mesh: TriangleMesh, nodal: np.ndarray) -> np.ndarray:
    """Mean of a nodal field over the vertices of each element."""
    return nodal[mesh.triangles].mean(axis=1)


def _coo_pattern(mesh: TriangleMesh):
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    return rows, cols


def assemble_operator_elementwise(
    mesh: TriangleMesh,
    stiff_elem: np.ndarray,
    mass_elem: np.ndarray,
) -> sp.csr_matrix:
    """K + M from per-element (centroid) coefficient values."""
    area, b, c = mesh.geometry
    data = kernels.local_matrices(area, b, c,
                                  np.ascontiguousarray(stiff_elem, dtype=np.float64),
                                  np.ascontiguousarray(mass_elem, dtype=np.float64))
    rows, cols = _coo_pattern(mesh)
    n = mesh.n_nodes
    mat = sp.coo_matrix((data.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def assemble_operator(
    mesh: TriangleMesh,
    stiff_nodal: Optional[np.ndarray],
    mass_nodal: Optional[np.ndarray],
) -> sp.csr_matrix:
    """K(stiff) + M(mass) with signed nodal coefficient fields.

    Corrector coefficients may vanish or change sign; no positivity checks.
    """
    n_tris = mesh.n_triangles
    sc = np.zeros(n_tris) if stiff_nodal is None else element_average(mesh, stiff_nodal)
    mc = np.zeros(n_tris) if mass_nodal is None else element_average(mesh, mass_nodal)
    return assemble_operator_elementwise(mesh, sc, mc)


def masked_field_norms(mesh: TriangleMesh, values: np.ndarray,
                       node_mask: np.ndarray) -> Tuple[float, float, float]:
    """(l_inf, l1, l2) of a nodal field over a node mask.

    l_inf is the max over masked nodes; l1 and l2 use mass-lumped quadrature
    over the elements whose three vertices are all masked, so the same
    measure backs both integral norms.
    """
    if not np.any(node_mask):
        raise ValueError("node mask selects no nodes")
    v = np.abs(np.asarray(values))
    linf = float(v[node_mask].max())
    area, _, _ = mesh.geometry
    elem_in = node_mask[mesh.triangles].all(axis=1)
    tri = mesh.triangles[elem_in]
    w = area[elem_in] / 3.0
    l1 = float(np.sum(w * v[tri].sum(axis=1)))
    l2 = float(math.sqrt(np.sum(w * (v[tri] ** 2).sum(axis=1))))
    return linf, l1, l2


def assemble(
    mesh: TriangleMesh,
    gamma: CoefficientField,
    q: CoefficientField,
    k: float,
    source: Optional[ComplexField] = None,
) -> SparseSystem:
    """Weak form of -div(gamma grad u) - k^2 q u = -source."""
    if gamma.mesh is not mesh or q.mesh is not mesh:
        raise ValueError("coefficient fields must live on the given mesh")
    if np.min(gamma.values) <= 0 or np.min(q.values) <= 0:
        raise ValueError("gamma and q must be strictly positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    matrix = assemble_operator(mesh, gamma.values, -(k ** 2) * q.values)
    rhs = np.zeros(mesh.n_nodes, dtype=np.complex128)
    if source is not None:
        rhs -= assemble_operator(mesh, None, np.ones(mesh.n_nodes)) @ source.values
    return SparseSystem(mesh=mesh, matrix=matrix, rhs=rhs)


def eliminate_dirichlet(mesh: TriangleMesh, matrix: sp.spmatrix, rhs: np.ndarray,
                        values: Optional[np.ndarray] = None
                        ) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Eliminate the boundary rows and columns of every stacked nodal block.

    The matrix holds one or more nodal blocks (matrix.shape[0] is a multiple
    of mesh.n_nodes); boundary rows and columns become identity, and the
    known values move to the rhs so the pattern stays symmetric. values
    covers the boundary nodes of all blocks in order; without it the data is
    homogeneous and the rhs keeps its dtype.
    """
    n = matrix.shape[0]
    bnodes = np.concatenate([mesh.boundary_nodes + offset
                             for offset in range(0, n, mesh.n_nodes)])
    interior = np.ones(n)
    interior[bnodes] = 0.0
    if values is None:
        rhs = rhs * interior
    else:
        u_bc = np.zeros(n, dtype=np.result_type(rhs, values))
        u_bc[bnodes] = values
        rhs = rhs - matrix @ u_bc
        rhs[bnodes] = values
    d_int = sp.diags(interior)
    d_bd = sp.diags(1.0 - interior)
    return (d_int @ matrix @ d_int + d_bd).tocsr(), rhs


def apply_dirichlet(system: SparseSystem, bc: BoundaryCondition) -> SparseSystem:
    """Eliminate boundary rows and columns, keeping the pattern symmetric."""
    if bc.kind != "dirichlet":
        raise ValueError("apply_dirichlet requires a Dirichlet boundary condition")
    mesh = system.mesh
    if bc.data.shape != (len(mesh.boundary_nodes),):
        raise ValueError("boundary data must match the boundary node count")
    matrix, rhs = eliminate_dirichlet(mesh, system.matrix, system.rhs, bc.data)
    return SparseSystem(mesh=mesh, matrix=matrix, rhs=rhs)


def _boundary_segments(mesh: TriangleMesh) -> Tuple[np.ndarray, np.ndarray]:
    """Successor of each boundary node along the loop, and segment lengths."""
    pts = mesh.nodes[mesh.boundary_nodes]
    nxt = np.roll(np.arange(len(pts)), -1)
    seg = pts[nxt] - pts
    return nxt, np.hypot(seg[:, 0], seg[:, 1])


def apply_neumann(system: SparseSystem, bc: BoundaryCondition) -> SparseSystem:
    """Add the consistent boundary load (flux, phi_i) along the loop."""
    if bc.kind != "neumann":
        raise ValueError("apply_neumann requires a Neumann boundary condition")
    mesh = system.mesh
    bnodes = mesh.boundary_nodes
    if bc.data.shape != (len(bnodes),):
        raise ValueError("boundary data must match the boundary node count")
    rhs = system.rhs.copy()
    nxt, lengths = _boundary_segments(mesh)
    phi_a = bc.data
    phi_b = bc.data[nxt]
    contrib_a = lengths / 6.0 * (2.0 * phi_a + phi_b)
    contrib_b = lengths / 6.0 * (phi_a + 2.0 * phi_b)
    np.add.at(rhs, bnodes, contrib_a)
    np.add.at(rhs, bnodes[nxt], contrib_b)
    return SparseSystem(mesh=mesh, matrix=system.matrix, rhs=rhs)


def factor_solve(matrix: sp.spmatrix, rhs: np.ndarray,
                 gate: bool = True) -> Tuple[np.ndarray, float]:
    """Sparse LU solve; returns the solution and its relative residual.

    Factors in the common dtype of matrix and rhs, so a real system stays in
    real arithmetic. Raises SingularSystem on breakdown and, when gate is
    set, NonConvergence above RESIDUAL_RTOL.
    """
    dtype = np.result_type(matrix.dtype, rhs.dtype)
    matrix = matrix.tocsc().astype(dtype, copy=False)
    rhs = rhs.astype(dtype, copy=False)
    try:
        x = spla.splu(matrix).solve(rhs)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("factorization produced non-finite values")
    rhs_norm = float(np.linalg.norm(rhs))
    residual = float(np.linalg.norm(matrix @ x - rhs))
    rel = residual / max(rhs_norm, np.finfo(float).tiny)
    if gate and rel > RESIDUAL_RTOL:
        raise NonConvergence(residual, rhs_norm)
    return x, rel


def solve(system: SparseSystem) -> ComplexField:
    x, _ = factor_solve(system.matrix, system.rhs)
    return ComplexField(mesh=system.mesh, values=x)


def solve_bvp(
    mesh: TriangleMesh,
    gamma: CoefficientField,
    q: CoefficientField,
    k: float,
    bc: BoundaryCondition,
    source: Optional[ComplexField] = None,
) -> ComplexField:
    """Assemble, apply the boundary condition, and solve in one call."""
    system = assemble(mesh, gamma, q, k, source)
    if bc.kind == "dirichlet":
        system = apply_dirichlet(system, bc)
    else:
        system = apply_neumann(system, bc)
    return solve(system)


def gradient(u: ComplexField) -> GradientField:
    mesh = u.mesh
    area, b, c = mesh.geometry
    tri = kernels.triangle_gradients(u.values, mesh.triangles, b, c, area)
    node = kernels.nodal_average(tri, mesh.triangles, area, mesh.n_nodes)
    return GradientField(mesh=mesh, tri_values=tri, node_values=node)


def boundary_integral(f: Union[ComplexField, np.ndarray], g: Union[ComplexField, np.ndarray]) -> complex:
    """Trapezoidal integral of f * conj(g) along the boundary loop."""
    if isinstance(f, ComplexField):
        mesh = f.mesh
        fv = f.values
    else:
        raise TypeError("f must be a ComplexField (need its mesh)")
    if isinstance(g, ComplexField):
        if g.mesh is not mesh:
            raise ValueError("fields must share a mesh")
        gv = g.values
    else:
        gv = np.asarray(g, dtype=np.complex128)
        if gv.shape != fv.shape:
            raise ValueError("g must match f in shape")
    bnodes = mesh.boundary_nodes
    vals = fv[bnodes] * np.conj(gv[bnodes])
    nxt, lengths = _boundary_segments(mesh)
    return complex(np.sum(0.5 * lengths * (vals + vals[nxt])))
