"""P1 finite elements for div(gamma grad u) + k^2 q u = f on disk meshes.

Assembly follows the convention that the stored system represents
-div(gamma grad u) - k^2 q u = -source, so the matrix is
K(gamma) - k^2 M(q) with K the coefficient-weighted stiffness and M the
consistent mass. assemble_operator, K(a) + M(c) for nodal coefficients a and
c, is the one assembly path: every load vector is such an operator applied
to a nodal field. Coefficients enter through element_average (one-point
centroid quadrature), adequate for the piecewise-constant phantoms used here,
so the CSR data of K + M is linear in the per-element coefficients: each
mesh builds that linear map once (TriangleMesh.assembly_map, on the cached
pattern TriangleMesh.csr_pattern), and every assembly is one product with
it (the unit mass M(1) is kept as TriangleMesh.unit_mass). A boundary-value
problem takes one path: assemble applies the boundary condition and returns
(matrix, rhs), Dirichlet data by row elimination with the symmetric column
correction, Neumann data as consistent edge loads. Integrals along the
boundary loop have one quadrature, the trapezoid weights of
boundary_weights, which the probe datum and its adjoint use. There is one
Dirichlet elimination, eliminate_dirichlet_data: a gather, cached per mesh
and block count and read off the sp.bmat layout, from the data of a stack of
nodal blocks on the mesh pattern to the eliminated CSR data for homogeneous
data (explicit zeros are kept, so the pattern is fixed). eliminate_dirichlet
makes the column correction of a boundary condition's values and hands it
one operator's data; the reconstruction's q-corrector hands it the data of
its four blocks from one product with the assembly map. Gradients are two
products with per-mesh maps (TriangleMesh.gradient_map,
TriangleMesh.average_map), and the masked integral norms dot products with
cached lumped weights. Every operator is real, and every linear solve goes
through one factor object, Factor, built once and reused for blocks of
right-hand sides (a complex one as its real and imaginary columns), each
column of its one residual block held to a relative 1e-10 (residual_gate). The
matrix chooses the factorization. A symmetric matrix whose nonzero entries
couple only rows whose diagonals share a sign, on a pattern whose reverse
Cuthill-McKee band is narrow (BAND_HALF_WIDTH: the meshes of 50, 100 and
200 boundary points), is scaled by those signs S and factored by banded
Cholesky (LAPACK dpbtrf) where S A is positive definite: the eliminated
forward operator of a pass below the first resonance or above the top of
the discrete spectrum. Every other matrix, and one whose Cholesky fails,
gets a float64 sparse LU with a symmetric minimum-degree ordering and
supernode constants measured on these operators (LU_RELAX, LU_PANEL_SIZE).
The band (BandOrder), or its absence, comes from a least-recently-used
cache of the last BAND_ORDER_PATTERNS sparsity patterns.
solve_bvp assembles, factors and solves a boundary-value problem, and
returns the field, its relative residual and the factor.
Factor.refined_solve solves a system near the factored one (or a stack of
nodal blocks near copies of it) by defect correction on the same factor,
stopping once the residual is at roundoff, behind the same gate, and
factors the system itself only when the refinement misses the gate: that
is how each reconstruction pass solves its corrector on its forward factor.
Factor.refactor factors the next matrix in a factor's storage where both
take the band of one cached order (BandCholesky keeps its work band and its
upper factor for that), as solve_bvp does with a factor it is given, so the
second data solve and the reconstruction's later passes allocate no band
storage; the old factor is spent, and solving on it raises.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .mesh import TriangleMesh

RESIDUAL_RTOL = 1e-10
# a refined solve stops once its worst column's relative residual is this
# close to roundoff: further steps stagnate at the working precision
REFINE_FLOOR = 1e3 * np.finfo(float).eps
# Every operator here is symmetric in pattern: a minimum-degree ordering of
# A + A^T, with SuperLU preferring diagonal pivots (at its default pivot
# threshold), fills about a third less than COLAMD on these meshes. Every
# LU runs its own analysis: keeping a pattern's order saved 7 of 32 ms per
# mesh-400 LU, but permuting the rows of every solve cost more (a probe-m400
# repetition, one CPU, 16 interleaved pairs: 154 ms with it, 141 without).
LU_ORDERING = "MMD_AT_PLUS_A"
LU_OPTIONS = dict(SymmetricMode=True)
# SuperLU's supernode relaxation and panel width, measured on these
# operators (one CPU, interleaved, ordering analysis excluded): (1, 1)
# factors the eliminated mesh-200 forward operators in 7.8-8.1 ms against
# 9.9-10.4 ms at scipy's defaults (5, 10), the mesh-400 Neumann one at
# k = 0.35 in 54 against 82 ms, with the same fill. The panel width is what
# counts: widths 2, 4 and 10 were slower on every mesh, and relax 1-5 within
# noise at width 1. Strongly indefinite operators, whose pivoting fills many
# times more, lose instead (mesh 200 at k = 5: 473 against 334 ms).
LU_RELAX = 1
LU_PANEL_SIZE = 1
# A sign-definite matrix is factored by banded Cholesky (LAPACK dpbtrf) in
# its pattern's reverse Cuthill-McKee order where that order's half-bandwidth
# is at most this. Per factorization on one CPU, against the LU with its
# ordering analysis excluded, for the eliminated operator above the
# spectrum: mesh 50 (half-bandwidth 19) 0.06 against 0.16 ms, mesh 100 (40)
# 0.32 against 0.93 ms, mesh 200 (80, Neumann 84) 3.7-4.1 against 5.7-6.5
# ms, with its 2-column solves no slower (0.44-0.50 against 0.61-0.67 ms).
# Mesh 400 (153, Neumann 157) would gain nothing: 29-35 against 28-32 ms
# per factorization, and 3.3-3.9 against 2.3-3.0 ms per 2-column solve. So
# the cap takes mesh 200 and the two-block corrector systems of meshes 50
# (42) and 100 (86), and leaves mesh 400 and mesh 200's two-block system
# (159) on the LU.
BAND_HALF_WIDTH = 100
# the size of the least-recently-used cache of band orders (None for a
# pattern with no band): a mesh has at most three patterns here (Neumann,
# eliminated and the two-block corrector), and two sweep cells may run at
# once
BAND_ORDER_PATTERNS = 8


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


def element_average(mesh: TriangleMesh, nodal: np.ndarray) -> np.ndarray:
    """Mean of a nodal field, (n,) or (n, m), over the vertices of each
    element, summed in vertex order (bit-equal to nodal[tri].mean(axis=1))."""
    t = mesh.triangles
    corner = [np.take(nodal, t[:, i], axis=0) for i in range(3)]
    return (corner[0] + corner[1] + corner[2]) / 3.0


def assemble_operator_elementwise(
    mesh: TriangleMesh,
    stiff_elem: np.ndarray,
    mass_elem: np.ndarray,
) -> sp.csr_matrix:
    """K + M from per-element (centroid) coefficient values: the mesh's
    assembly map applied to the stacked coefficients."""
    coeffs = np.concatenate([stiff_elem, mass_elem], dtype=np.float64)
    indptr, indices, _ = mesh.csr_pattern
    n = mesh.n_nodes
    return sp.csr_matrix((mesh.assembly_map @ coeffs, indices, indptr), shape=(n, n))


def assemble_operator(
    mesh: TriangleMesh,
    stiff_nodal: Optional[np.ndarray],
    mass_nodal: Optional[np.ndarray],
) -> sp.csr_matrix:
    """K(stiff) + M(mass) with signed nodal coefficient fields, averaged per
    element as one (n, 2) pair.

    Corrector coefficients may vanish or change sign; no positivity checks.
    """
    pair = np.zeros((mesh.n_nodes, 2))
    if stiff_nodal is not None:
        pair[:, 0] = stiff_nodal
    if mass_nodal is not None:
        pair[:, 1] = mass_nodal
    centroid = element_average(mesh, pair)
    return assemble_operator_elementwise(mesh, centroid[:, 0], centroid[:, 1])


def masked_field_norms(mesh: TriangleMesh, values: np.ndarray,
                       node_mask: np.ndarray) -> Tuple[float, float, float]:
    """(l_inf, l1, l2) of a nodal field over a node mask.

    l_inf is the max over masked nodes; l1 and l2 use mass-lumped quadrature
    over the elements whose three vertices are all masked, so the same
    measure backs both integral norms: l1 = w . |v| and l2 = sqrt(w . |v|^2)
    with the mesh's cached nodal weights w of the mask
    (TriangleMesh.lumped_weights).
    """
    if not np.any(node_mask):
        raise ValueError("node mask selects no nodes")
    v = np.abs(np.asarray(values))
    linf = float(v[node_mask].max())
    nodes, weights = mesh.lumped_weights(node_mask)
    v = v[nodes]
    return linf, float(weights @ v), float(math.sqrt(weights @ (v * v)))


def usable_wavenumber(k: float) -> bool:
    """Whether k >= 0 and k^2, the mass term's factor, is a finite double."""
    return k >= 0 and math.isfinite(float(k) * float(k))


def assemble(
    mesh: TriangleMesh,
    gamma: CoefficientField,
    q: CoefficientField,
    k: float,
    bc: BoundaryCondition,
    source: Optional[ComplexField] = None,
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Matrix and rhs of -div(gamma grad u) - k^2 q u = -source, Dirichlet
    data eliminated or the consistent Neumann load (flux, phi_i) added."""
    if gamma.mesh is not mesh or q.mesh is not mesh:
        raise ValueError("coefficient fields must live on the given mesh")
    if np.min(gamma.values) <= 0 or np.min(q.values) <= 0:
        raise ValueError("gamma and q must be strictly positive")
    if not usable_wavenumber(k):
        raise ValueError(f"k must be nonnegative with a finite square, not {k!r}")
    bnodes = mesh.boundary_nodes
    if bc.data.shape != (len(bnodes),):
        raise ValueError("boundary data must match the boundary node count")
    matrix = assemble_operator(mesh, gamma.values, -(k ** 2) * q.values)
    rhs = np.zeros(mesh.n_nodes, dtype=np.complex128)
    if source is not None:
        rhs -= mesh.unit_mass @ source.values
    if bc.kind == "dirichlet":
        return eliminate_dirichlet(mesh, matrix, rhs, bc.data)
    nxt, lengths = _boundary_segments(mesh)
    phi_a = bc.data
    phi_b = bc.data[nxt]
    np.add.at(rhs, bnodes, lengths / 6.0 * (2.0 * phi_a + phi_b))
    np.add.at(rhs, bnodes[nxt], lengths / 6.0 * (phi_a + 2.0 * phi_b))
    return matrix, rhs


def _canonical_csr(matrix: sp.spmatrix) -> sp.csr_matrix:
    """matrix as canonical CSR (sorted, no duplicates), canonicalized on a
    copy where it is not, so the caller's matrix never changes."""
    csr = matrix.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    return csr


def eliminate_dirichlet(mesh: TriangleMesh, matrix: sp.spmatrix, rhs: np.ndarray,
                        values: Optional[np.ndarray] = None
                        ) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Eliminate the boundary rows and columns of a nodal operator on the
    mesh's CSR pattern.

    Boundary rows and columns become identity, and the known values move to
    the rhs so the matrix stays symmetric. Without values the data is
    homogeneous and the rhs keeps its dtype. Raises ValueError for a matrix
    off the pattern. The matrix's CSR data goes through
    eliminate_dirichlet_data.
    """
    n = mesh.n_nodes
    if matrix.shape != (n, n):
        raise ValueError("matrix must be a nodal operator of the mesh")
    csr = _canonical_csr(matrix)
    indptr, indices, _ = mesh.csr_pattern
    if not (np.array_equal(csr.indptr, indptr)
            and np.array_equal(csr.indices, indices)):
        raise ValueError("matrix is off the mesh's CSR pattern")
    if values is not None:
        u_bc = np.zeros(n, dtype=np.result_type(rhs, values))
        u_bc[mesh.boundary_nodes] = values
        rhs = rhs - matrix @ u_bc
    matrix, rhs = eliminate_dirichlet_data(mesh, csr.data, rhs)
    if values is not None:
        rhs[mesh.boundary_nodes] = values
    return matrix, rhs


def eliminate_dirichlet_data(mesh: TriangleMesh, data: np.ndarray,
                             rhs: np.ndarray) -> Tuple[sp.csr_matrix, np.ndarray]:
    """The eliminated system, for homogeneous Dirichlet data, of a
    blocks x blocks stack given by its blocks' data on csr_pattern: data is
    (nnz, blocks^2), column r blocks + c block (r, c), or (nnz,) for one
    block.

    The mesh's cached gather (TriangleMesh.dirichlet_gather) picks the
    entries that stay, explicit zeros too, so the eliminated pattern is
    fixed; boundary diagonals are set to one and the rhs's boundary entries
    to zero (eliminate_dirichlet moves inhomogeneous values to the rhs).
    """
    nnz = len(mesh.csr_pattern[1])
    blocks = math.isqrt(data.size // nnz)
    if data.shape[0] != nnz or data.size != blocks * blocks * nnz:
        raise ValueError("data must hold square blocks of the mesh pattern")
    gather = mesh.dirichlet_gather(blocks)
    out = np.take(data, gather.keep)
    out[gather.diagonal] = 1.0
    rhs = rhs.copy()
    rhs[gather.boundary] = 0.0
    n = blocks * mesh.n_nodes
    return sp.csr_matrix((out, gather.indices, gather.indptr),
                         shape=(n, n)), rhs


def _boundary_segments(mesh: TriangleMesh) -> Tuple[np.ndarray, np.ndarray]:
    """Successor of each boundary node along the loop, and segment lengths."""
    pts = mesh.nodes[mesh.boundary_nodes]
    nxt = np.roll(np.arange(len(pts)), -1)
    seg = pts[nxt] - pts
    return nxt, np.hypot(seg[:, 0], seg[:, 1])


def boundary_weights(mesh: TriangleMesh) -> np.ndarray:
    """Trapezoid weight of each boundary node (half its two segments): the
    one boundary quadrature, the integral of f conj(g) along the loop being
    sum(w * f[boundary_nodes] * conj(g))."""
    _, lengths = _boundary_segments(mesh)
    return 0.5 * (lengths + np.roll(lengths, 1))


class BandOrder(NamedTuple):
    """The reverse Cuthill-McKee band of one structurally symmetric
    sparsity pattern that holds every diagonal entry. Entry p of a matrix A
    of the pattern, in canonical CSR form, is (rows[p], indices[p]), its
    transpose is entry transpose[p], and row i's diagonal is entry
    diagonal[i]. Row i of the band is A's row perm[i]; the entries
    `lower`, on or below the band's diagonal, go to the flat positions
    `scatter` of a C-ordered (n, width + 1) array, whose transpose is
    LAPACK's lower band storage of half-bandwidth width."""

    # intp: a band is at most BAND_HALF_WIDTH wide, so its pattern is small
    # (4,773 entries on mesh 100, 20,703 on mesh 200) and its gathers skip
    # the int32 cast
    perm: np.ndarray
    inverse: np.ndarray
    rows: np.ndarray
    transpose: np.ndarray
    diagonal: np.ndarray
    lower: np.ndarray
    scatter: np.ndarray
    width: int


@functools.lru_cache(maxsize=BAND_ORDER_PATTERNS)
def _band_order(n: int, indptr: bytes, indices: bytes,
                dtype: np.dtype) -> Optional[BandOrder]:
    """The BandOrder of the n x n CSR pattern whose index arrays of dtype
    have the bytes indptr and indices (a hashable key), or None where the
    pattern is not symmetric, misses a diagonal entry or has a reverse
    Cuthill-McKee half-bandwidth above BAND_HALF_WIDTH. In a symmetric
    pattern the CSC form of the entry positions (each entry holding its CSR
    position) has the pattern's own index arrays and holds, at each entry,
    the position of its transpose."""
    indptr = np.frombuffer(indptr, dtype)
    indices = np.frombuffer(indices, dtype)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    diagonal = np.flatnonzero(rows == indices)
    positions = sp.csr_matrix((np.arange(len(indices), dtype=np.int32),
                               indices, indptr), shape=(n, n))
    transposed = positions.tocsc()
    if len(diagonal) != n or not (
            np.array_equal(transposed.indptr, indptr)
            and np.array_equal(transposed.indices, indices)):
        return None
    perm = reverse_cuthill_mckee(positions, symmetric_mode=True).astype(np.intp)
    inverse = np.argsort(perm)
    below = inverse[rows] - inverse[indices]
    width = int(below.max(initial=0))
    if width > BAND_HALF_WIDTH:
        return None
    lower = np.flatnonzero(below >= 0)
    scatter = inverse[indices[lower]] * (width + 1) + below[lower]
    order = BandOrder(perm=perm, inverse=inverse, rows=rows,
                      transpose=transposed.data.astype(np.intp),
                      diagonal=diagonal, lower=lower, scatter=scatter,
                      width=width)
    for arr in order[:-1]:
        arr.flags.writeable = False
    return order


class BandCholesky(NamedTuple):
    """The Cholesky factor L L^T of S A in the band of `order`, S the signs
    of A's diagonal (in band order), kept as the upper band storage of
    L^T. work is the C-ordered (n, width + 1) buffer whose transpose
    dpbtrf factored in place, LAPACK's lower band storage of L: a
    refactorization of the same order overwrites work and factor in place
    (_band_cholesky's reuse)."""

    order: BandOrder
    signs: np.ndarray
    factor: np.ndarray
    work: np.ndarray

    def solve(self, cols: np.ndarray) -> np.ndarray:
        """The solution of A y = cols: S A y = S cols, in the band's order."""
        n = cols.shape[0]
        # permuted as (m, n) rows, so that its transpose is the Fortran
        # order dpbtrs solves in place
        side = np.take(cols.reshape(n, -1).T, self.order.perm, axis=1)
        side *= self.signs
        y, _ = lapack.dpbtrs(self.factor, side.T, overwrite_b=1)
        return np.take(y, self.order.inverse, axis=0).reshape(cols.shape)


def _band_cholesky(csr: sp.csr_matrix, order: BandOrder,
                   reuse: Optional[BandCholesky] = None
                   ) -> Optional[BandCholesky]:
    """The BandCholesky of csr, or None where csr is not symmetric, a
    nonzero entry couples rows whose diagonals differ in sign, or S A is
    not positive definite (dpbtrf fails). Given a symmetric matrix, S A is
    symmetric exactly when its nonzero entries couple rows of one sign.
    reuse, a spent BandCholesky, lends its two buffers where its order is
    order: the result is the same as in fresh storage, bit for bit."""
    data = csr.data
    signs = np.where(data[order.diagonal] < 0, -1.0, 1.0)
    scaled = data * signs[order.rows]
    if not (np.array_equal(data, data[order.transpose])
            and np.array_equal(scaled, scaled[order.transpose])):
        return None
    if reuse is not None and reuse.order is order:
        band, upper = reuse.work, reuse.factor
        band.fill(0.0)
    else:
        band, upper = np.zeros((len(signs), order.width + 1)), None
    np.put(band, order.scatter, scaled[order.lower])
    lower, info = lapack.dpbtrf(band.T, lower=1, overwrite_ab=1)
    if info:
        return None
    return BandCholesky(order, signs[order.perm], _upper_band(lower, upper),
                        band)


def _upper_band(lower: np.ndarray, out: Optional[np.ndarray] = None
                ) -> np.ndarray:
    """The upper band storage of L^T from dpbtrf's lower band storage of L,
    by one strided copy: row d of column j goes to row width - d of column
    j + d, flat position width + d width + j (width + 1) of a column-major
    buffer padded for the last columns' overhang. out, an earlier result
    for a band of lower's shape, is overwritten through its padded buffer
    (out.base); the copy writes the same positions every time, so the
    unreferenced corner above the band stays zero.

    Factoring in lower and solving in upper storage is the fast pair in
    OpenBLAS on two BLAS threads (mesh 100, half-bandwidth 40): dpbtrf in
    upper storage took 2.2 against 0.27 ms, and dpbtrs in lower storage
    109 against 51 us for two columns. On one pinned CPU and one BLAS
    thread, as the benchmark runs, 2-column solves took 0.079 ms in lower
    and 0.037 in upper storage on mesh 100 (the copy 0.032 ms), and 0.311
    and 0.252 ms on mesh 200 (the copy 0.35-0.48 ms). So the copy pays
    where a factor serves many solves, and dropping it trades one workload
    against the other (in process, 12 alternating repetitions, medians):
    recon-m200 (58 factors, 247 solves) took 368 ms with the copy, 356
    solving in lower storage and 399 factoring in upper storage; the six
    sweep-cli cells, serial (190 factors, 1,011 solves), 313, 325 and 313 ms."""
    width, n = lower.shape[0] - 1, lower.shape[1]
    flat = np.zeros((width + 1) * (n + width)) if out is None else out.base
    skewed = as_strided(flat[width:], shape=lower.shape,
                        strides=(width * flat.itemsize,
                                 (width + 1) * flat.itemsize))
    skewed[...] = lower
    return flat[:(width + 1) * n].reshape((width + 1, n), order="F")


def _factorize(csr: sp.csr_matrix, reuse: Optional[BandCholesky] = None
               ) -> Union[BandCholesky, spla.SuperLU]:
    """The one factorization of a canonical CSR matrix: its BandCholesky
    where it has one, else its SuperLU LU. Its pattern's BandOrder, or None
    where it has no band, comes from _band_order's cache. reuse is a spent
    BandCholesky (Factor.refactor's), whose storage a band of its order
    takes."""
    order = _band_order(csr.shape[0], csr.indptr.tobytes(),
                        csr.indices.tobytes(), csr.indices.dtype)
    if order is not None:
        band = _band_cholesky(csr, order, reuse)
        if band is not None:
            return band
    try:
        return spla.splu(csr.tocsc(), permc_spec=LU_ORDERING, relax=LU_RELAX,
                         panel_size=LU_PANEL_SIZE, options=LU_OPTIONS)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc


class Factor:
    """Float64 factorization of a real matrix, gated solves over rhs blocks.

    A matrix whose pattern has a BandOrder, that is symmetric and whose
    nonzero entries couple only rows whose diagonals share a sign, is
    factored as S A, S those signs, by banded Cholesky (BandCholesky) where
    S A is positive definite: on the meshes of 50, 100 and 200 boundary
    points, the eliminated forward operators of the passes below the first
    resonance or above the top of the discrete spectrum. Every other
    matrix, and one whose Cholesky fails (on mesh 200 the failed attempt
    takes 1.8-2.7 ms of the 8.3-11 ms it and the LU take), gets a SuperLU
    LU with LU_ORDERING, LU_OPTIONS, LU_RELAX and LU_PANEL_SIZE. The band
    order, or its absence, is cached for the BAND_ORDER_PATTERNS patterns
    last used. solve takes a right-hand side of shape (n,) or (n, m), real
    or complex, and solves a complex block as the real columns [Re, Im] of
    one triangular solve; matrix is the caller's, and the gate measures the
    residual against it. refined_solve solves a nearby system on the same factor.
    refactor(matrix) factors another matrix in this factor's storage where
    both take the band of one cached order (two buffers of about 2 MB each
    on mesh 200, which a loop of fresh factors would have the allocator
    hand back to the kernel and fault in again on every pass), and as a
    fresh Factor otherwise; either way this factor is spent, and its solve
    and refined_solve raise RuntimeError.
    Raises TypeError on a complex matrix and SingularSystem on breakdown.
    """

    def __init__(self, matrix: sp.spmatrix,
                 _reuse: Optional[BandCholesky] = None):
        if np.iscomplexobj(matrix):
            raise TypeError("Factor takes a real matrix")
        self.matrix = matrix.astype(np.float64, copy=False)
        # refined solves that missed the gate and factored their own matrix
        self.fallbacks = 0
        self._solver = _factorize(_canonical_csr(self.matrix), _reuse)

    def refactor(self, matrix: sp.spmatrix) -> "Factor":
        """The Factor of matrix, in this factor's band storage where it
        can; this factor is spent before the new one is made, so only one
        factorization is alive at a time."""
        reuse = self._solver if isinstance(self._solver, BandCholesky) else None
        self._solver = None
        return Factor(matrix, reuse)

    def _live_solver(self) -> Union[BandCholesky, spla.SuperLU]:
        if self._solver is None:
            raise RuntimeError("this factor is spent: it was refactored")
        return self._solver

    def solve(self, rhs: np.ndarray, gate: bool = True) -> Tuple[np.ndarray, float]:
        """Solution and its relative residual (see residual_gate)."""
        solver = self._live_solver()
        cols = _real_columns(rhs)
        try:
            y = solver.solve(cols)
        except RuntimeError as exc:
            raise SingularSystem(str(exc)) from exc
        if not np.all(np.isfinite(y)):
            raise SingularSystem("factorization produced non-finite values")
        rel = residual_gate(self.matrix, y, cols, _rhs_count(rhs), gate)
        return _from_real_columns(y, rhs), rel

    def refined_solve(self, matrix: sp.spmatrix, rhs: np.ndarray
                      ) -> Tuple[np.ndarray, float]:
        """Gated solve of matrix x = rhs by defect correction on this factor.

        matrix is an operator near the factored one F, or a stack of nodal
        blocks of F's size near blockdiag(F, ...) (the layout
        eliminate_dirichlet_data fills); F^-1 acts on each block of each
        column.
        The step x <- x + F^-1 (rhs - matrix x) runs from x = 0 until a step
        fails to halve the worst column's relative residual (residual_gate's
        measure), or an accepted step brings it to REFINE_FLOOR: there the
        correction has stagnated at the working precision, and another
        step would cost a triangular solve and gain nothing. A result that
        misses RESIDUAL_RTOL (or is not finite) counts in fallbacks and is
        replaced by a gated solve on matrix's own factor.
        """
        solver = self._live_solver()
        n = self.matrix.shape[0]
        if matrix.shape[0] % n:
            raise ValueError("matrix must stack nodal blocks of the factor's size")
        cols = _real_columns(rhs)
        n_rhs = _rhs_count(rhs)

        def near_solve(r):
            side = r.reshape(-1, n, r.size // r.shape[0]).transpose(1, 0, 2)
            y = solver.solve(side.reshape(n, -1))
            return y.reshape(side.shape).transpose(1, 0, 2).reshape(r.shape)

        x, res, rel = np.zeros_like(cols), cols, math.inf
        while True:
            step = x + near_solve(res)
            step_res = cols - matrix @ step
            step_rel = max(_relative_residuals(step_res, cols, n_rhs))[0]
            if not step_rel < 0.5 * rel:
                break
            x, res, rel = step, step_res, step_rel
            if rel <= REFINE_FLOOR:
                break
        if rel <= RESIDUAL_RTOL:
            return _from_real_columns(x, rhs), rel
        self.fallbacks += 1
        return Factor(matrix).solve(rhs)


def _rhs_count(rhs: np.ndarray) -> int:
    return 1 if rhs.ndim == 1 else rhs.shape[1]


def _real_columns(rhs: np.ndarray) -> np.ndarray:
    """rhs as float64 columns, a complex block as [Re, Im]."""
    cols = np.column_stack([rhs.real, rhs.imag]) if np.iscomplexobj(rhs) else rhs
    return cols.astype(np.float64, copy=False)


def _from_real_columns(y: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution in rhs's shape and kind, from its real columns y."""
    if not np.iscomplexobj(rhs):
        return y
    n_rhs = _rhs_count(rhs)
    x = y[:, :n_rhs] + 1j * y[:, n_rhs:]
    return x[:, 0] if rhs.ndim == 1 else x


def _relative_residuals(res: np.ndarray, cols: np.ndarray, n_rhs: int) -> list:
    """(relative, absolute, rhs norm) residual of each rhs column of a
    residual block; see residual_gate for the column layout."""
    out = []
    for j in range(n_rhs):
        residual = float(np.linalg.norm(res[..., j::n_rhs]))
        rhs_norm = float(np.linalg.norm(cols[..., j::n_rhs]))
        out.append((residual / max(rhs_norm, np.finfo(float).tiny),
                    residual, rhs_norm))
    return out


def residual_gate(matrix, y: np.ndarray, cols: np.ndarray, n_rhs: int,
                  gate: bool = True) -> float:
    """Largest relative residual of matrix @ y = cols over its rhs columns.

    cols holds n_rhs real columns, or 2 n_rhs as [Re, Im] halves; a complex
    column is measured by the Frobenius norm of its [Re, Im] pair. The
    residual block matrix @ y - cols is formed once and measured column by
    column by _relative_residuals, the measure refined_solve stops on. When
    gate is set, one column above RESIDUAL_RTOL raises NonConvergence.
    """
    res = matrix @ y
    res -= cols
    rel, residual, rhs_norm = max(_relative_residuals(res, cols, n_rhs))
    if gate and rel > RESIDUAL_RTOL:
        raise NonConvergence(residual, rhs_norm)
    return rel


def solve_bvp(
    mesh: TriangleMesh,
    gamma: CoefficientField,
    q: CoefficientField,
    k: float,
    bc: BoundaryCondition,
    source: Optional[ComplexField] = None,
    gate: bool = True,
    lu: Optional[Factor] = None,
) -> Tuple[ComplexField, float, Factor]:
    """Assemble with the boundary condition applied, factor and solve: the
    field, its relative residual (gated when gate is set) and the factor,
    for a nearby system's refined_solve or the next solve's lu. lu, a
    factor the caller is done with, is refactored (Factor.refactor, in its
    storage where both take the band of one order) and spent."""
    matrix, rhs = assemble(mesh, gamma, q, k, bc, source)
    lu = Factor(matrix) if lu is None else lu.refactor(matrix)
    x, rel = lu.solve(rhs, gate)
    return ComplexField(mesh, x), rel, lu


def gradient(u: ComplexField) -> GradientField:
    """Exact element gradients and their area-weighted nodal average: one
    product with each of the mesh's gradient maps, the complex field taken
    as its [Re, Im] pair columns."""
    mesh = u.mesh
    pairs = np.ascontiguousarray(u.values).view(np.float64).reshape(-1, 2)
    tri = (mesh.gradient_map @ pairs).view(np.complex128).reshape(-1, 2)
    node = (mesh.average_map @ tri.view(np.float64)).view(np.complex128)
    return GradientField(mesh=mesh, tri_values=tri, node_values=node)

