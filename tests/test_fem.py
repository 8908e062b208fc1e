"""Assembly, boundary conditions, solves, gradients, boundary quadrature."""

import gc
import math
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmpert import fem, kernels
from helmpert import mesh as hm

from conftest import (boundary_quadrature, constant_field, eliminate_by_products,
                      interior_mask)
from reference import nodal_average, triangle_gradients

# First two zeros of the zeroth-order Bessel function; resonances of the unit
# disk with constant data sit at these wavenumbers.
BESSEL_J0_ZERO_1 = 2.404825557695773
BESSEL_J0_ZERO_2 = 5.520078110286311


def unit_right_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2]])
    return hm.TriangleMesh(nodes=nodes, triangles=triangles,
                           boundary_nodes=np.array([0, 1, 2]),
                           n_boundary_points=3, radius=1.0)


def full_mask(mesh):
    return np.ones(mesh.n_nodes, dtype=bool)


def l2_norm(mesh, values):
    _, _, l2 = fem.masked_field_norms(mesh, values, full_mask(mesh))
    return l2


def quadratic_saddle(mesh):
    """x^2 - y^2 + i x y, harmonic in both parts."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return x ** 2 - y ** 2 + 1j * x * y


def unit_mass(mesh):
    return fem.assemble_operator(mesh, None, np.ones(mesh.n_nodes))


def boundary_angles(mesh):
    pts = mesh.nodes[mesh.boundary_nodes]
    return np.arctan2(pts[:, 1], pts[:, 0])


def no_flux(mesh):
    """Zero Neumann data: assemble then returns the bare operator."""
    return fem.BoundaryCondition("neumann", np.zeros(len(mesh.boundary_nodes)))


def operator(mesh, gamma, q, k):
    matrix, _ = fem.assemble(mesh, gamma, q, k, no_flux(mesh))
    return matrix


# ---------------------------------------------------------------------------
# element matrices


def test_single_triangle_stiffness_and_mass():
    mesh = unit_right_triangle()
    k_ref = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    m_ref = (0.5 / 12.0) * (1.0 + np.eye(3))
    one = constant_field(mesh, 1.0)
    np.testing.assert_allclose(
        operator(mesh, one, one, 0.0).toarray(), k_ref,
        rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(unit_mass(mesh).toarray(),
                               m_ref, rtol=0.0, atol=1e-16)
    np.testing.assert_allclose(
        operator(mesh, one, one, 1.0).toarray(), k_ref - m_ref,
        rtol=0.0, atol=1e-15)


def test_assemble_zero_k_is_pure_stiffness(disk50, truth50):
    gamma, q = truth50
    a0 = operator(disk50, gamma, q, 0.0)
    k_only = fem.assemble_operator(disk50, gamma.values, None)
    assert abs(a0 - k_only).max() == 0.0


def test_doubling_gamma_doubles_stiffness_part(disk50, truth50):
    gamma, q = truth50
    k = 0.7
    a1 = operator(disk50, gamma, q, k)
    gamma2 = fem.CoefficientField(mesh=disk50, values=2.0 * gamma.values)
    a2 = operator(disk50, gamma2, q, k)
    diff = (a2 - a1) - fem.assemble_operator(disk50, gamma.values, None)
    assert abs(diff).max() < 1e-12


def test_load_vector_of_ones_matches_lumped_areas(disk50):
    # the load of f = 1 is one third of the area of each incident element
    ones = np.ones(disk50.n_nodes)
    lumped = np.bincount(disk50.triangles.ravel(),
                         weights=np.repeat(disk50.element_areas / 3.0, 3),
                         minlength=disk50.n_nodes)
    np.testing.assert_allclose(unit_mass(disk50) @ ones, lumped, rtol=1e-12)


def test_lumped_node_areas_partition_total_area(disk100):
    lumped = unit_mass(disk100) @ np.ones(disk100.n_nodes)
    assert np.all(lumped > 0)
    np.testing.assert_allclose(lumped.sum(), disk100.element_areas.sum(),
                               rtol=1e-12)


def coo_reference(mesh, stiff_elem, mass_elem):
    """Reference assembly: element matrices summed through a COO triplet
    list by scipy's duplicate summation."""
    area, b, c = mesh.geometry
    local = kernels.local_matrices(area, b, c, stiff_elem, mass_elem)
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


@pytest.mark.parametrize("fixture", ["disk50", "disk100"])
def test_pattern_fill_matches_coo_assembly(fixture, request):
    mesh = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    stiff = rng.uniform(0.5, 3.0, mesh.n_triangles)
    mass = rng.uniform(-2.0, 2.0, mesh.n_triangles)
    a = rng.uniform(0.5, 3.0, mesh.n_nodes)
    c = rng.uniform(-2.0, 2.0, mesh.n_nodes)
    a_elem = a[mesh.triangles].mean(axis=1)
    c_elem = c[mesh.triangles].mean(axis=1)
    none = np.zeros(mesh.n_triangles)
    cases = [(fem.assemble_operator_elementwise(mesh, stiff, mass), stiff, mass),
             (fem.assemble_operator(mesh, a, c), a_elem, c_elem),
             (fem.assemble_operator(mesh, a, None), a_elem, none),
             (fem.assemble_operator(mesh, None, c), none, c_elem)]
    for got, stiff_elem, mass_elem in cases:
        want = coo_reference(mesh, stiff_elem, mass_elem)
        assert got.has_canonical_format
        assert got.nnz == want.nnz
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.data, want.data, rtol=0.0,
                                   atol=1e-14 * abs(want.data).max())


@pytest.mark.parametrize("shape", [(), (2,)])
def test_element_average_is_the_vertex_mean(disk50, shape):
    nodal = np.random.default_rng(8).standard_normal((disk50.n_nodes, *shape))
    np.testing.assert_array_equal(fem.element_average(disk50, nodal),
                                  nodal[disk50.triangles].mean(axis=1))


def test_pattern_is_built_once_per_mesh(monkeypatch):
    mesh = hm.build_disk_mesh(8.0, 40)
    # lazy: mesh set-up builds none of the pattern and the maps
    for name in ("csr_pattern", "assembly_map", "unit_mass", "gradient_map",
                 "average_map"):
        assert name not in vars(mesh)
    calls = []

    def counted(*args):
        calls.append(1)
        return local_matrices(*args)

    local_matrices = kernels.local_matrices
    monkeypatch.setattr(kernels, "local_matrices", counted)
    ones = np.ones(mesh.n_nodes)
    a = fem.assemble_operator(mesh, ones, None)
    assembly_map = mesh.assembly_map
    b = fem.assemble_operator(mesh, None, ones)
    c = fem.assemble_operator_elementwise(mesh, np.ones(mesh.n_triangles),
                                          np.ones(mesh.n_triangles))
    # the unit stiffness and the unit mass, once, for the map; none per call
    assert len(calls) == 2
    assert mesh.assembly_map is assembly_map
    indptr, indices, _ = mesh.csr_pattern
    for matrix in (a, b, c):
        assert np.shares_memory(matrix.indices, indices)
        assert np.shares_memory(matrix.indptr, indptr)
    assert not indices.flags.writeable
    for arr in (assembly_map.data, assembly_map.indices, assembly_map.indptr):
        assert not arr.flags.writeable
    assert assembly_map.shape == (len(indices), 2 * mesh.n_triangles)
    assert assembly_map.has_canonical_format
    # the unit mass is the assembled M(1), kept
    np.testing.assert_array_equal(mesh.unit_mass.data, b.data)
    assert mesh.unit_mass is mesh.unit_mass
    assert not mesh.unit_mass.data.flags.writeable
    # the gradient maps: built on the first gradient, the same objects after
    u = fem.ComplexField(mesh, ones)
    fem.gradient(u)
    maps = (mesh.gradient_map, mesh.average_map)
    fem.gradient(u)
    assert (mesh.gradient_map, mesh.average_map) == maps
    assert maps[0].shape == (2 * mesh.n_triangles, mesh.n_nodes)
    assert maps[1].shape == (mesh.n_nodes, mesh.n_triangles)
    for m in maps:
        assert m.indices.dtype == m.indptr.dtype == np.int32
        for arr in (m.data, m.indices, m.indptr):
            assert not arr.flags.writeable
    assert len(calls) == 2


def test_meshes_do_not_share_a_pattern():
    m1 = hm.build_disk_mesh(8.0, 40)
    m2 = hm.build_disk_mesh(8.0, 40)
    assert not np.shares_memory(m1.csr_pattern[1], m2.csr_pattern[1])
    assert not np.shares_memory(m1.assembly_map.data, m2.assembly_map.data)
    for name in ("gradient_map", "average_map", "unit_mass"):
        assert not np.shares_memory(getattr(m1, name).data,
                                    getattr(m2, name).data)
    eliminated(m1, fem.assemble_operator(m1, np.ones(m1.n_nodes), None))
    fem.masked_field_norms(m1, np.ones(m1.n_nodes), interior_mask(m1))
    # the pattern, the maps, the Dirichlet gather and the lumped weights
    # live and die with their mesh
    dead = [weakref.ref(m1.csr_pattern[1]), weakref.ref(m1.assembly_map),
            weakref.ref(m1.dirichlet_gather(1).keep),
            weakref.ref(m1.gradient_map), weakref.ref(m1.average_map),
            weakref.ref(m1.unit_mass),
            weakref.ref(m1.lumped_weights(interior_mask(m1))[1])]
    del m1
    gc.collect()
    assert all(ref() is None for ref in dead)


# ---------------------------------------------------------------------------
# validation


def test_assemble_rejects_bad_inputs(disk50, truth50):
    gamma, q = truth50
    zero_gamma = fem.CoefficientField(mesh=disk50, values=0.0 * gamma.values)
    neg_q = fem.CoefficientField(mesh=disk50, values=q.values - q.values.max() - 1.0)
    other = hm.build_disk_mesh(8.0, 50)
    data = np.zeros(len(disk50.boundary_nodes))
    for kind in ("dirichlet", "neumann"):
        bc = fem.BoundaryCondition(kind, data)
        with pytest.raises(ValueError):
            fem.assemble(disk50, zero_gamma, q, 1.0, bc)
        with pytest.raises(ValueError):
            fem.assemble(disk50, gamma, neg_q, 1.0, bc)
        # a negative or non-finite k, or one whose square overflows
        for k in (-0.5, math.nan, math.inf, 1e200):
            with pytest.raises(ValueError):
                fem.assemble(disk50, gamma, q, k, bc)
        with pytest.raises(ValueError):
            fem.assemble(other, gamma, q, 1.0, bc)
        with pytest.raises(ValueError):
            fem.assemble(disk50, gamma, q, 1.0, fem.BoundaryCondition(kind, data[:-1]))


def test_field_shape_and_finiteness_validation(disk50):
    with pytest.raises(ValueError):
        fem.CoefficientField(mesh=disk50, values=np.ones(3))
    bad = np.ones(disk50.n_nodes)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        fem.CoefficientField(mesh=disk50, values=bad)
    with pytest.raises(ValueError):
        fem.ComplexField(mesh=disk50, values=np.zeros(disk50.n_nodes - 1))
    with pytest.raises(ValueError):
        fem.BoundaryCondition(kind="robin", data=np.zeros(4))


# ---------------------------------------------------------------------------
# Dirichlet solves


def test_dirichlet_zero_data_gives_zero_solution(disk50, truth50):
    gamma, q = truth50
    bc = fem.BoundaryCondition("dirichlet", np.zeros(len(disk50.boundary_nodes)))
    u, _, _ = fem.solve_bvp(disk50, gamma, q, 0.5, bc)
    assert np.max(np.abs(u.values)) == 0.0


def test_dirichlet_constant_data_at_zero_k_is_constant(disk50, truth50):
    gamma, q = truth50
    c = 2.0 - 1.0j
    bc = fem.BoundaryCondition("dirichlet", np.full(len(disk50.boundary_nodes), c))
    u, _, _ = fem.solve_bvp(disk50, gamma, q, 0.0, bc)
    np.testing.assert_allclose(u.values, c, rtol=1e-12)


def test_dirichlet_data_is_baked_exactly(disk50, truth50):
    gamma, q = truth50
    data = np.exp(1j * boundary_angles(disk50))
    bc = fem.BoundaryCondition("dirichlet", data)
    u, _, _ = fem.solve_bvp(disk50, gamma, q, 1.3, bc)
    np.testing.assert_array_equal(u.values[disk50.boundary_nodes], data)
    assert np.max(np.abs(np.abs(data) - 1.0)) < 1e-14


def test_conjugated_data_gives_conjugated_solution(disk50, truth50):
    gamma, q = truth50
    data = np.exp(1j * boundary_angles(disk50))
    matrix, _ = fem.assemble(disk50, gamma, q, 1.3,
                             fem.BoundaryCondition("dirichlet", data))
    asym = abs(matrix - matrix.T)
    assert asym.nnz == 0 or asym.max() < 1e-13
    u1, _, _ = fem.solve_bvp(disk50, gamma, q, 1.3, fem.BoundaryCondition("dirichlet", data))
    u2, _, _ = fem.solve_bvp(disk50, gamma, q, 1.3,
                             fem.BoundaryCondition("dirichlet", np.conj(data)))
    np.testing.assert_allclose(u2.values, np.conj(u1.values), rtol=0.0, atol=1e-12)


def test_tiny_k_matches_zero_k(disk50):
    gamma = constant_field(disk50, 1.0)
    q = constant_field(disk50, 3.0)
    bc = fem.BoundaryCondition("dirichlet", np.exp(1j * boundary_angles(disk50)))
    u_tiny, _, _ = fem.solve_bvp(disk50, gamma, q, math.pi * 1e-3, bc)
    u_zero, _, _ = fem.solve_bvp(disk50, gamma, q, 0.0, bc)
    rel = l2_norm(disk50, u_tiny.values - u_zero.values) / l2_norm(disk50, u_zero.values)
    assert rel < 1e-4


def test_manufactured_dirichlet_second_order(disk50, disk100, disk200):
    # gamma = q = 1, k = 1: the saddle is harmonic, so the source is u itself.
    errs = []
    for mesh in (disk50, disk100, disk200):
        u_exact = quadratic_saddle(mesh)
        source = fem.ComplexField(mesh=mesh, values=u_exact)
        bc = fem.BoundaryCondition("dirichlet", u_exact[mesh.boundary_nodes])
        u, _, _ = fem.solve_bvp(mesh, constant_field(mesh, 1.0),
                                constant_field(mesh, 1.0), 1.0, bc,
                                source=source)
        errs.append(l2_norm(mesh, u.values - u_exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 10.0


# ---------------------------------------------------------------------------
# Neumann solves


def test_neumann_zero_flux_gives_zero_solution(disk50):
    gamma = constant_field(disk50, 1.0)
    q = constant_field(disk50, 1.0)
    bc = fem.BoundaryCondition("neumann", np.zeros(len(disk50.boundary_nodes)))
    u, _, _ = fem.solve_bvp(disk50, gamma, q, 0.5, bc)
    assert np.max(np.abs(u.values)) == 0.0


def test_manufactured_neumann_flux_reproduction(disk50, disk100, disk200):
    errs = []
    for mesh in (disk50, disk100, disk200):
        u_exact = quadratic_saddle(mesh)
        source = fem.ComplexField(mesh=mesh, values=u_exact)
        flux = (2.0 / mesh.radius) * u_exact[mesh.boundary_nodes]
        bc = fem.BoundaryCondition("neumann", flux)
        u, _, _ = fem.solve_bvp(mesh, constant_field(mesh, 1.0),
                                constant_field(mesh, 1.0), 1.0, bc,
                                source=source)
        errs.append(l2_norm(mesh, u.values - u_exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] < 1.0


def test_incompatible_flux_at_zero_k_is_detected(disk50):
    gamma = constant_field(disk50, 1.0)
    q = constant_field(disk50, 1.0)
    bc = fem.BoundaryCondition("neumann", np.ones(len(disk50.boundary_nodes)))
    with pytest.raises((fem.NonConvergence, fem.SingularSystem)):
        fem.solve_bvp(disk50, gamma, q, 0.0, bc)


# ---------------------------------------------------------------------------
# solver plumbing


def test_solve_identity_system_returns_rhs(disk50):
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal(disk50.n_nodes) + 1j * rng.standard_normal(disk50.n_nodes)
    x, _ = fem.Factor(sp.identity(disk50.n_nodes, format="csr")).solve(rhs)
    np.testing.assert_allclose(x, rhs, rtol=1e-15, atol=0.0)


def test_nonconvergence_reports_residual():
    exc = fem.NonConvergence(residual=3.0, rhs_norm=5.0)
    assert exc.residual == 3.0
    assert exc.rhs_norm == 5.0
    assert "residual" in str(exc)


def test_factor_solve_keeps_real_systems_real(disk50, truth50):
    gamma, q = truth50
    matrix = fem.assemble_operator(disk50, gamma.values, q.values)
    rng = np.random.default_rng(12)
    rhs = rng.standard_normal(disk50.n_nodes)
    x, rel = fem.Factor(matrix).solve(rhs)
    assert x.dtype == np.float64
    assert rel <= fem.RESIDUAL_RTOL
    xc, _ = fem.Factor(matrix).solve(rhs + 0j)
    assert xc.dtype == np.complex128
    np.testing.assert_allclose(xc.real, x, rtol=1e-12, atol=0.0)


def test_factor_solve_singular_matrix_raises():
    matrix = sp.diags([1.0, 0.0, 1.0]).tocsr()
    with pytest.raises(fem.SingularSystem):
        fem.Factor(matrix).solve(np.ones(3))


def test_factor_solve_gates_on_residual():
    # the 12x12 Hilbert matrix (condition ~1e16): LU is backward stable but
    # the residual relative to |rhs| lands far above RESIDUAL_RTOL
    idx = np.arange(12)
    matrix = sp.csr_matrix(1.0 / (idx[:, None] + idx[None, :] + 1.0))
    rhs = np.random.default_rng(0).standard_normal(12)
    _, rel = fem.Factor(matrix).solve(rhs, gate=False)
    assert rel > fem.RESIDUAL_RTOL
    with pytest.raises(fem.NonConvergence) as info:
        fem.Factor(matrix).solve(rhs)
    assert info.value.residual / info.value.rhs_norm == pytest.approx(rel)


def test_complex_rhs_solves_as_two_real_columns(disk50, truth50):
    gamma, q = truth50
    matrix = fem.assemble_operator(disk50, gamma.values, -(0.7 ** 2) * q.values)
    rng = np.random.default_rng(13)
    rhs = rng.standard_normal(disk50.n_nodes) + 1j * rng.standard_normal(disk50.n_nodes)
    x, rel = fem.Factor(matrix).solve(rhs)
    assert x.dtype == np.complex128
    assert rel <= fem.RESIDUAL_RTOL
    ref = spla.splu(matrix.tocsc().astype(np.complex128)).solve(rhs)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_solve_bvp_factors_only_real_matrices(disk50, truth50, factorizations):
    gamma, q = truth50
    data = np.exp(1j * boundary_angles(disk50))
    for kind in ("dirichlet", "neumann"):
        u, _, _ = fem.solve_bvp(disk50, gamma, q, 0.7, fem.BoundaryCondition(kind, data))
        assert np.abs(u.values.imag).max() > 0.0
    assert [call.dtype for call in factorizations] == [np.float64, np.float64]


def test_factor_solve_rejects_complex_matrix():
    matrix = sp.identity(3, format="csc", dtype=np.complex128)
    with pytest.raises(TypeError):
        fem.Factor(matrix).solve(np.ones(3))


def test_factor_block_solve_matches_column_solves(disk50, truth50):
    gamma, q = truth50
    n = disk50.n_nodes
    # the Neumann-like operator at k = 0.7 is indefinite: the LU; the
    # eliminated forward operator at k = 0.1 is definite: the band
    lu = fem.assemble_operator(disk50, gamma.values, -(0.7 ** 2) * q.values)
    bc = fem.BoundaryCondition("dirichlet", np.exp(1j * boundary_angles(disk50)))
    band, _ = fem.assemble(disk50, gamma, q, 0.1, bc)
    rng = np.random.default_rng(14)
    real = rng.standard_normal((n, 8))
    blocks = (real[:, :3], real[:, :3] + 1j * rng.standard_normal((n, 3)),
              real, real[:, :2] + 1j * real[:, 2:4])
    for matrix, solver in ((lu, spla.SuperLU), (band, fem.BandCholesky)):
        factor = fem.Factor(matrix)
        assert isinstance(factor._solver, solver)
        for block in blocks:
            x, rel = factor.solve(block)
            assert x.shape == block.shape and x.dtype == block.dtype
            assert rel <= fem.RESIDUAL_RTOL
            # the gate measures each column of the residual block as its
            # column measured alone
            cols, rhs = fem._real_columns(x), fem._real_columns(block)
            m = block.shape[1]
            measured = fem._relative_residuals(matrix @ cols - rhs, rhs, m)
            alone = []
            for j in range(m):
                res = matrix @ cols[:, j::m]
                res -= rhs[:, j::m]
                alone += fem._relative_residuals(res, rhs[:, j::m], 1)
            assert measured == alone and rel == max(alone)[0]
            for j in range(m):
                ref, _ = fem.Factor(matrix).solve(block[:, j])
                assert np.linalg.norm(x[:, j] - ref) <= 1e-13 * np.linalg.norm(ref)


def test_factor_block_solve_gates_on_residual():
    idx = np.arange(12)
    hilbert = 1.0 / (idx[:, None] + idx[None, :] + 1.0)
    lu = fem.Factor(sp.csr_matrix(hilbert))
    block = np.random.default_rng(0).standard_normal((12, 3))
    _, rel = lu.solve(block, gate=False)
    assert rel > fem.RESIDUAL_RTOL
    with pytest.raises(fem.NonConvergence):
        lu.solve(block)
    with pytest.raises(fem.NonConvergence):
        lu.solve(block + 1j * block[:, ::-1])
    # a column solved to roundoff and 1e12 times larger would hide the bad
    # one in a whole-block norm (about 3e-15); each column is gated alone
    easy = 1e12 * (hilbert @ np.ones(12))
    with pytest.raises(fem.NonConvergence):
        lu.solve(np.column_stack([block[:, 0], easy]))


def test_residual_gate_checks_each_column():
    # column 0 is off by 5e-7 of its norm; over the whole block, which the
    # 1e6-scaled column 1 dominates, that would read as 5e-13
    cols = np.ones((4, 2))
    cols[:, 1] = 1e6
    y = cols.copy()
    y[0, 0] += 1e-6
    identity = sp.identity(4, format="csr")
    assert fem.residual_gate(identity, y, cols, 2, gate=False) == pytest.approx(5e-7)
    with pytest.raises(fem.NonConvergence):
        fem.residual_gate(identity, y, cols, 2)
    # as one complex column, [Re, Im] = columns (0, 1) are measured together
    assert fem.residual_gate(identity, y, cols, 1, gate=False) < fem.RESIDUAL_RTOL


def eliminated(mesh, *blocks):
    """One operator, or the 2 x 2 stack of blocks (0, 0), (0, 1), (1, 0),
    (1, 1), each on the mesh pattern, with the boundary rows and columns of
    every block eliminated."""
    data = np.column_stack([block.data for block in blocks])
    rhs = np.zeros(math.isqrt(len(blocks)) * mesh.n_nodes)
    return fem.eliminate_dirichlet_data(mesh, data, rhs)[0]


def near_systems(mesh, gamma, q, k):
    """A forward operator and two systems near it: one with the stiffness
    changed by K(E), one 2 x 2 block stack with a small mass coupling."""
    n = mesh.n_nodes
    rng = np.random.default_rng(21)
    forward = fem.assemble_operator(mesh, gamma.values, -(k ** 2) * q.values)
    single = fem.assemble_operator(mesh, gamma.values + rng.uniform(-1, 1, n),
                                   -(k ** 2) * q.values)
    coupling = fem.assemble_operator(mesh, None, rng.uniform(-1, 1, n))
    return (eliminated(mesh, forward), eliminated(mesh, single),
            eliminated(mesh, single, coupling, coupling, forward))


def test_refined_solve_matches_factor_solve_on_a_near_factor(disk50, truth50):
    # at k = 300 the mass term dominates: the changes are about 1e-4 of it
    gamma, q = truth50
    forward, single, stacked = near_systems(disk50, gamma, q, 300.0)
    near = fem.Factor(forward)
    rng = np.random.default_rng(22)
    n = disk50.n_nodes
    cases = [(single, rng.standard_normal(n) + 1j * rng.standard_normal(n)),
             (single, rng.standard_normal((n, 3))),
             (stacked, rng.standard_normal(2 * n)),
             (stacked, rng.standard_normal((2 * n, 2)) * (1 - 2j))]
    for matrix, rhs in cases:
        x, rel = near.refined_solve(matrix, rhs)
        ref, _ = fem.Factor(matrix).solve(rhs)
        assert x.shape == rhs.shape and x.dtype == rhs.dtype
        assert rel <= fem.RESIDUAL_RTOL
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    assert near.fallbacks == 0


def test_refined_solve_falls_back_on_a_far_factor(disk50, truth50):
    # the k = 300 operator is no approximation of the k = 0.35 one
    gamma, q = truth50
    far = fem.Factor(near_systems(disk50, gamma, q, 300.0)[0])
    matrix = near_systems(disk50, gamma, q, 0.35)[1]
    rhs = np.random.default_rng(23).standard_normal(disk50.n_nodes) * (1 + 1j)
    x, rel = far.refined_solve(matrix, rhs)
    ref, ref_rel = fem.Factor(matrix).solve(rhs)
    np.testing.assert_array_equal(x, ref)
    assert rel == ref_rel <= fem.RESIDUAL_RTOL
    assert far.fallbacks == 1


def test_refined_solve_of_zero_rhs_is_zero(disk50, truth50):
    gamma, q = truth50
    forward, single, _ = near_systems(disk50, gamma, q, 300.0)
    near = fem.Factor(forward)
    x, rel = near.refined_solve(single, np.zeros(disk50.n_nodes))
    assert np.max(np.abs(x)) == 0.0 and rel == 0.0
    assert near.fallbacks == 0


def test_refined_solve_rejects_a_foreign_block_size(disk50, truth50):
    gamma, q = truth50
    near = fem.Factor(near_systems(disk50, gamma, q, 300.0)[0])
    with pytest.raises(ValueError):
        near.refined_solve(sp.identity(disk50.n_nodes + 1, format="csr"),
                           np.ones(disk50.n_nodes + 1))


@pytest.fixture
def fresh_orders():
    """fem's cache of band orders, emptied for one test, so that its first
    factor of each pattern analyses the pattern."""
    orders = fem._band_order
    orders.cache_clear()
    yield orders
    orders.cache_clear()


@pytest.fixture
def splu_calls(monkeypatch):
    """Every spla.splu call as (permc_spec, relax, panel_size, options)."""
    calls = []
    real_splu = spla.splu

    def recording_splu(matrix, permc_spec=None, relax=None, panel_size=None,
                       options=None, **kwargs):
        calls.append((permc_spec, relax, panel_size, options))
        return real_splu(matrix, permc_spec=permc_spec, relax=relax,
                         panel_size=panel_size, options=options, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    return calls


def fresh_lu(matrix):
    """The LU of matrix with its own minimum-degree analysis."""
    return spla.splu(sp.csc_matrix(matrix), permc_spec=fem.LU_ORDERING,
                     relax=fem.LU_RELAX, panel_size=fem.LU_PANEL_SIZE,
                     options=fem.LU_OPTIONS)


@pytest.fixture
def band_order_calls(monkeypatch, fresh_orders):
    """Every band analysis as (matrix size, BandOrder or None): the misses
    of fem's emptied cache of band orders."""
    calls = []

    def recording_band_order(n, *pattern):
        misses = fresh_orders.cache_info().misses
        order = fresh_orders(n, *pattern)
        if fresh_orders.cache_info().misses > misses:
            calls.append((n, order))
        return order

    monkeypatch.setattr(fem, "_band_order", recording_band_order)
    return calls


def upper_bidiagonal(n):
    """An n x n matrix whose pattern is not symmetric, so it has no band and
    takes the LU."""
    return sp.diags([np.full(n, 2.0), np.ones(n - 1)], [0, 1], format="csr")


def test_lu_orders_are_keyed_by_pattern(disk50, disk100, disk400, fresh_orders,
                                        band_order_calls):
    # the band analysis runs once per pattern, and a pattern without a band
    # (too wide on mesh 400, not symmetric for the bidiagonal matrix) is
    # recorded as None, so that its later LUs skip the analysis too
    def operators():
        for mesh in (disk50, disk100, disk400):
            one = constant_field(mesh, 1.0)
            data = np.ones(len(mesh.boundary_nodes))
            for kind in ("neumann", "dirichlet"):
                bc = fem.BoundaryCondition(kind, data)
                yield fem.assemble(mesh, one, one, 0.35, bc)[0]
        yield upper_bidiagonal(5)

    for matrix in operators():
        fem.Factor(matrix)
    # the Neumann and the eliminated operator of one mesh, and the meshes,
    # each analyse their own pattern
    assert ([order is None for _, order in band_order_calls]
            == [False] * 4 + [True] * 3)
    assert fresh_orders.cache_info().currsize == 7
    for matrix in operators():
        fem.Factor(matrix)
    assert len(band_order_calls) == 7
    assert fresh_orders.cache_info().hits == 7
    for order in filter(None, (order for _, order in band_order_calls)):
        assert all(not arr.flags.writeable for arr in order[:-1])
        np.testing.assert_array_equal(order.perm[order.inverse],
                                      np.arange(len(order.perm)))


def test_lu_orders_keep_the_latest_patterns(fresh_orders):
    # one more pattern than the cache holds, each without a band
    for n in range(2, fem.BAND_ORDER_PATTERNS + 3):
        fem.Factor(upper_bidiagonal(n))
    info = fresh_orders.cache_info()
    assert info.maxsize == info.currsize == fem.BAND_ORDER_PATTERNS
    assert info.misses == fem.BAND_ORDER_PATTERNS + 1


def test_threads_factoring_new_patterns_solve_correctly(disk50, truth50,
                                                          fresh_orders,
                                                          factorizations):
    # more threads than CPUs, switching often: all start on one new mesh
    # pattern, then factor more small patterns than the cache keeps; half of
    # the matrices are sign-definite and take the band
    gamma, q = truth50
    bc = fem.BoundaryCondition("dirichlet", np.exp(1j * boundary_angles(disk50)))
    rng = np.random.default_rng(32)

    def tridiagonal(n, symmetric):
        upper = rng.uniform(-1, 1, n - 1)
        lower = upper if symmetric else rng.uniform(-1, 1, n - 1)
        return sp.diags([lower, rng.uniform(4, 5, n), upper], [-1, 0, 1],
                        format="csr")

    groups = []
    for k in (0.35, 0.7, 1.4, 2.8):
        small = [tridiagonal(n, symmetric=bool(n % 2))
                 for n in rng.permutation(np.arange(20, 22 + fem.BAND_ORDER_PATTERNS))]
        groups.append([fem.assemble(disk50, gamma, q, k, bc)[0],
                       fem.assemble(disk50, gamma, q, 1e3 * k, bc)[0]] + small)
    start = threading.Barrier(len(groups))

    def solve_all(group):
        start.wait(timeout=60)
        return [fem.Factor(matrix).solve(np.ones(matrix.shape[0]))[0]
                for matrix in group]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(groups)) as pool:
            futures = [pool.submit(solve_all, group) for group in groups]
            solved = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    kinds = {call.kind for call in factorizations}
    assert "band" in kinds and kinds - {"band"}
    for group, xs in zip(groups, solved):
        for matrix, x in zip(group, xs):
            ones = np.ones(matrix.shape[0])
            ref = fresh_lu(matrix).solve(ones)
            again = fem.Factor(matrix)
            if isinstance(again._solver, fem.BandCholesky):
                # a pattern's band is the same whichever thread analysed it
                np.testing.assert_array_equal(x, again.solve(ones)[0])
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            else:
                np.testing.assert_array_equal(x, ref)
    assert fresh_orders.cache_info().currsize == fem.BAND_ORDER_PATTERNS


def test_factor_takes_unsorted_duplicate_entries(fresh_orders):
    dense = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    # row 0 holds (0, 1) twice and out of order
    matrix = sp.csr_matrix((np.array([0.5, 4.0, 0.5, 1.0, 3.0, 1.0, 1.0, 2.0]),
                            np.array([1, 0, 1, 0, 1, 2, 1, 2]),
                            np.array([0, 3, 6, 8])), shape=(3, 3))
    data = matrix.data.copy()
    rhs = np.array([1.0, -2.0, 0.5])
    for _ in range(2):  # the analysed pattern, then its kept band
        x, _ = fem.Factor(matrix).solve(rhs)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-14)
    np.testing.assert_array_equal(matrix.data, data)
    assert fresh_orders.cache_info()[:2] == (1, 1)  # one hit, one miss


def phantom_operator(mesh, k, kind="dirichlet"):
    """The forward operator of the phantom at k, eliminated for Dirichlet
    data or the Neumann one, and its rhs."""
    phantom = hm.PhantomSpec()
    gamma = hm.coefficient_from_phantom(mesh, phantom, "conductivity")
    q = hm.coefficient_from_phantom(mesh, phantom, "permittivity")
    bc = fem.BoundaryCondition(kind, np.exp(1j * boundary_angles(mesh)))
    return fem.assemble(mesh, gamma, q, k, bc)


@pytest.mark.parametrize("exponent", [-3, -2, 2, 3])
def test_band_solutions_match_the_lu(disk50, disk100, disk200, exponent,
                                     factorizations):
    # componentwise: at k = pi 10^2 and pi 10^3 mesh 100's field decays
    # toward the centre to about 1.4e-8 of its maximum
    for mesh in (disk50, disk100, disk200):
        matrix, rhs = phantom_operator(mesh, math.pi * 10.0 ** exponent)
        x, rel = fem.Factor(matrix).solve(rhs)
        ref = fresh_lu(matrix).solve(np.column_stack([rhs.real, rhs.imag]))
        ref = ref[:, 0] + 1j * ref[:, 1]
        assert rel <= fem.RESIDUAL_RTOL
        assert np.all(np.abs(x - ref) <= 1e-11 * np.abs(ref))
    assert [call.kind for call in factorizations] == ["band"] * 3


def test_factor_takes_the_band_where_the_matrix_is_sign_definite(
        disk100, disk400, band_order_calls, factorizations):
    above, _ = phantom_operator(disk100, math.pi * 1e3)  # top of spectrum 9.73
    below, _ = phantom_operator(disk100, math.pi * 1e-3)  # first resonance 0.183
    inside, _ = phantom_operator(disk100, 0.35)
    # symmetric in pattern, not in value: one interior coupling changed
    nonsymmetric = below.copy()
    rows = np.repeat(np.arange(disk100.n_nodes), np.diff(below.indptr))
    coupling = np.flatnonzero((rows != below.indices) & (below.data != 0.0))[0]
    nonsymmetric.data[coupling] *= 1.5
    # symmetric, but its coupling joins rows whose diagonals differ in sign
    mixed = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, -2.0]]))
    # not symmetric, though S A is symmetric positive definite
    skew = sp.csr_matrix(np.array([[2.0, 1.0], [-1.0, -2.0]]))
    wide, _ = phantom_operator(disk400, math.pi * 1e3)
    cases = [(above, True), (below, True), (inside, False),
             (nonsymmetric, False), (mixed, False), (skew, False), (wide, False)]
    for matrix, band in cases:
        lu = fem.Factor(matrix)
        rhs = np.random.default_rng(33).standard_normal(matrix.shape[0])
        x, rel = lu.solve(rhs)
        assert rel <= fem.RESIDUAL_RTOL
        np.testing.assert_allclose(x, spla.spsolve(matrix.tocsc(), rhs),
                                   rtol=1e-9, atol=1e-12 * np.abs(x).max())
    assert [call.kind == "band" for call in factorizations] == [
        band for _, band in cases]
    # the boundary rows are the identity rows of the elimination: +1 beside
    # a negative definite interior above the spectrum, all +1 below it
    n_boundary = len(disk100.boundary_nodes)
    signs_above, signs_below = (call.solver.signs for call in factorizations[:2])
    assert np.count_nonzero(signs_above > 0) == n_boundary
    assert np.count_nonzero(signs_above < 0) == disk100.n_nodes - n_boundary
    assert np.all(signs_below > 0)
    widths = [order and order.width for _, order in band_order_calls]
    assert max(width for width in widths if width) <= fem.BAND_HALF_WIDTH
    assert None in widths  # mesh 400's band is too wide


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_an_indefinite_operator_falls_back_to_the_lu(disk200, kind, monkeypatch,
                                                      band_order_calls, splu_calls,
                                                      factorizations):
    # k = 0.35 lies inside mesh 200's spectrum: the pattern's band is within
    # the cap, so the band is tried, dpbtrf fails, and the matrix gets the
    # LU of its own minimum-degree analysis
    tried = []
    real_band_cholesky = fem._band_cholesky

    def recording_band_cholesky(csr, order, reuse=None):
        tried.append(real_band_cholesky(csr, order, reuse))
        return tried[-1]

    monkeypatch.setattr(fem, "_band_cholesky", recording_band_cholesky)
    matrix, rhs = phantom_operator(disk200, 0.35, kind)
    lu = fem.Factor(matrix)
    x, rel = lu.solve(rhs)
    assert lu.matrix is matrix
    assert tried == [None]
    assert [call.kind for call in factorizations] == [fem.LU_ORDERING]
    assert isinstance(factorizations[0].solver, spla.SuperLU)
    assert splu_calls == [(fem.LU_ORDERING, fem.LU_RELAX, fem.LU_PANEL_SIZE,
                           fem.LU_OPTIONS)]
    [(_, order)] = band_order_calls
    assert order.width <= fem.BAND_HALF_WIDTH
    assert rel <= fem.RESIDUAL_RTOL
    ref = fresh_lu(matrix).solve(np.column_stack([rhs.real, rhs.imag]))
    np.testing.assert_array_equal(x, ref[:, 0] + 1j * ref[:, 1])


def band_storage(factor):
    """The two buffers of a Factor's BandCholesky: the work band dpbtrf
    factored in and the padded buffer of the upper factor."""
    return factor._solver.work, factor._solver.factor.base


def test_refactor_overwrites_the_band_storage_bit_for_bit(disk200):
    # recon-m200's two passes: above the spectrum, then below it
    above, rhs_above = phantom_operator(disk200, math.pi * 1e3)
    below, rhs_below = phantom_operator(disk200, math.pi * 1e-3)
    first = fem.Factor(above)
    storage = band_storage(first)
    x_above, _ = first.solve(rhs_above)
    second = first.refactor(below)
    fresh = fem.Factor(below)
    assert all(np.shares_memory(new, old) for new, old in
               zip(band_storage(second), storage))
    assert not np.shares_memory(band_storage(fresh)[0], storage[0])
    # the whole upper band, with the unreferenced corner above it
    np.testing.assert_array_equal(second._solver.factor, fresh._solver.factor)
    x, rel = second.solve(rhs_below)
    y, fresh_rel = fresh.solve(rhs_below)
    assert x.tobytes() == y.tobytes() and rel == fresh_rel
    third = second.refactor(above)
    assert np.shares_memory(band_storage(third)[1], storage[1])
    np.testing.assert_array_equal(third.solve(rhs_above)[0], x_above)
    for spent in (first, second):
        with pytest.raises(RuntimeError, match="spent"):
            spent.solve(rhs_below)
        with pytest.raises(RuntimeError, match="spent"):
            spent.refined_solve(below, rhs_below)


def test_refactor_off_the_band_storage_factors_afresh(disk100, disk200,
                                                      factorizations):
    # the band's storage serves only a band of its own order: an indefinite
    # operator of the pattern (dpbtrf fails in it) gets the LU, and after
    # it, or on another pattern, a band takes new storage
    above, rhs_above = phantom_operator(disk200, math.pi * 1e3)
    inside, rhs_inside = phantom_operator(disk200, 0.35)
    neumann, rhs_neumann = phantom_operator(disk200, math.pi * 1e3, "neumann")
    other, rhs_other = phantom_operator(disk100, math.pi * 1e3)
    lu = fem.Factor(above)
    kept = band_storage(lu)
    lu = lu.refactor(inside)
    x, rel = lu.solve(rhs_inside)
    assert rel <= fem.RESIDUAL_RTOL
    ref = fresh_lu(inside).solve(np.column_stack([rhs_inside.real,
                                                  rhs_inside.imag]))
    np.testing.assert_array_equal(x, ref[:, 0] + 1j * ref[:, 1])
    steps = [(above, rhs_above), (neumann, rhs_neumann), (other, rhs_other)]
    for matrix, rhs in steps:
        lu = lu.refactor(matrix)
        assert not any(np.shares_memory(new, old) for new in band_storage(lu)
                       for old in kept)
        kept += band_storage(lu)
        x, rel = lu.solve(rhs)
        assert rel <= fem.RESIDUAL_RTOL
        np.testing.assert_array_equal(x, fem.Factor(matrix).solve(rhs)[0])
    kinds = [call.kind for call in factorizations]
    assert kinds == ["band", fem.LU_ORDERING] + ["band", "band"] * len(steps)


@pytest.mark.parametrize("k, band", [(math.pi * 1e3, True), (0.35, False)],
                         ids=["band", "lu"])
def test_solve_bvp_refactors_the_given_factor(disk50, truth50, k, band):
    # a reconstruction pass after a band pass below the spectrum: at m = 3's
    # k1 the band, at k = 0.35 the LU; either way the field and residual
    # are a fresh solve's, bit for bit, and the given factor is spent
    gamma, q = truth50
    bc = fem.BoundaryCondition("dirichlet", np.exp(1j * boundary_angles(disk50)))
    _, _, old = fem.solve_bvp(disk50, gamma, q, math.pi * 1e-3, bc)
    storage = band_storage(old)
    u, rel, lu = fem.solve_bvp(disk50, gamma, q, k, bc, gate=False, lu=old)
    fresh, fresh_rel, _ = fem.solve_bvp(disk50, gamma, q, k, bc, gate=False)
    assert u.values.tobytes() == fresh.values.tobytes() and rel == fresh_rel
    assert isinstance(lu._solver, fem.BandCholesky) is band
    if band:
        assert all(np.shares_memory(new, kept) for new, kept in
                   zip(band_storage(lu), storage))
    with pytest.raises(RuntimeError, match="spent"):
        old.solve(np.ones(disk50.n_nodes))


@pytest.mark.parametrize("k", [0.0, 0.35])
def test_eliminate_dirichlet_is_the_masked_product(disk100, disk200, disk400, k):
    for mesh in (disk100, disk200, disk400):
        check_masked_product(mesh, k)


def check_masked_product(mesh, k):
    phantom = hm.PhantomSpec()
    gamma = hm.coefficient_from_phantom(mesh, phantom, "conductivity")
    q = hm.coefficient_from_phantom(mesh, phantom, "permittivity")
    a = fem.assemble_operator(mesh, gamma.values, -(k ** 2) * q.values)
    coupling = fem.assemble_operator(mesh, None, 0.3 * q.values)
    block = sp.bmat([[a, coupling], [0.5 * coupling, 2.0 * a]], format="csr")
    block_data = np.column_stack([a.data, coupling.data, 0.5 * coupling.data,
                                  2.0 * a.data])
    # an explicit zero on an interior entry: the reference drops it, the
    # gather keeps it, so the eliminated pattern is the same for every call
    zeroed = a.copy()
    indptr = zeroed.indptr
    interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    zeroed.data[indptr[interior[0]]:indptr[interior[0] + 1]] = 0.0
    n = mesh.n_nodes
    data = np.exp(1j * boundary_angles(mesh))
    # the full eliminated pattern of one and of two blocks, whatever the
    # values: the reference elimination of all-ones blocks on csr_pattern
    pattern_indptr, pattern_indices, _ = mesh.csr_pattern
    ones = sp.csr_matrix((np.ones(len(pattern_indices)), pattern_indices,
                          pattern_indptr), shape=(n, n))
    full = {count: eliminate_by_products(
                mesh, sp.bmat([[ones] * count] * count, format="csr"),
                np.zeros(count * n))[0]
            for count in (1, 2)}

    def operator(matrix, rhs, values):
        return fem.eliminate_dirichlet(mesh, matrix, rhs, values)

    def blocks(matrix, rhs, values):
        return fem.eliminate_dirichlet_data(mesh, block_data, rhs)

    cases = [(operator, a, np.ones(n, dtype=np.complex128), data),
             (operator, a, np.ones(n), None),
             (operator, zeroed, np.ones(n), None),
             (operator, a.tocsc(), np.ones(n), data),
             (blocks, block, np.ones(2 * n), None)]
    for eliminate, matrix, rhs, values in cases:
        # the second call goes through the gather the first one cached
        first, _ = eliminate(matrix, rhs, values)
        got, got_rhs = eliminate(matrix, rhs, values)
        assert np.shares_memory(got.indices, first.indices)
        want, want_rhs = eliminate_by_products(mesh, matrix, rhs, values)
        # the gathered pattern is fixed: it is the full pattern, explicit
        # zeros included, as in zeroed and in two stiffness entries of mesh
        # 200 at k = 0 (edges opposite right angles), which the reference
        # drops
        np.testing.assert_array_equal(got.indptr, full[len(rhs) // n].indptr)
        np.testing.assert_array_equal(got.indices, full[len(rhs) // n].indices)
        kept = got.nnz
        got = got.copy()  # the gathered pattern is locked
        got.eliminate_zeros()
        if matrix is zeroed:
            assert got.nnz < kept
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(got_rhs, want_rhs)
    # keep is intp, because np.take casts any other index type on every
    # call; the other arrays are int32 like the mesh pattern
    for count in (1, 2):
        gather = mesh.dirichlet_gather(count)
        assert gather.keep.dtype == np.intp
        assert {arr.dtype for arr in (gather.boundary, gather.diagonal,
                                      gather.indptr, gather.indices)} == {np.dtype(np.int32)}
        assert not any(arr.flags.writeable for arr in gather)


def test_eliminate_dirichlet_rejects_a_matrix_off_the_mesh_pattern(disk50, truth50):
    gamma, q = truth50
    n = disk50.n_nodes
    a = fem.assemble_operator(disk50, gamma.values, -q.values)
    dropped = a.copy()
    dropped.data[1] = 0.0
    dropped.eliminate_zeros()
    half = sp.bmat([[a, None], [None, a]], format="csr")
    # as many entries as the pattern: two rows of one length swapped
    lengths = np.diff(a.indptr)
    i, j = np.flatnonzero(lengths == np.bincount(lengths).argmax())[:2]
    rows = np.arange(n)
    rows[[i, j]] = j, i
    swapped = a[rows]
    assert swapped.nnz == a.nnz
    for matrix in (sp.identity(n, format="csr"), dropped, half, swapped,
                   sp.identity(n + 1, format="csr")):
        with pytest.raises(ValueError):
            fem.eliminate_dirichlet(disk50, matrix, np.zeros(matrix.shape[0]))
    # block data of the wrong length, or of a non-square block count
    nnz = a.nnz
    for data in (np.zeros(nnz + 1), np.zeros((nnz, 3)), np.zeros((nnz - 1, 4))):
        with pytest.raises(ValueError):
            fem.eliminate_dirichlet_data(disk50, data, np.zeros(n))


def test_eliminate_dirichlet_leaves_a_non_canonical_matrix_unchanged(disk50, truth50):
    gamma, q = truth50
    a = fem.assemble_operator(disk50, gamma.values, -q.values)
    # every entry stored twice, as two halves: CSR with duplicates
    doubled = sp.csr_matrix((np.repeat(0.5 * a.data, 2), np.repeat(a.indices, 2),
                             2 * a.indptr), shape=a.shape)
    assert not doubled.has_canonical_format
    before = [arr.copy() for arr in (doubled.data, doubled.indices, doubled.indptr)]
    rhs = np.ones(disk50.n_nodes)
    got, got_rhs = fem.eliminate_dirichlet(disk50, doubled, rhs)
    fem.Factor(doubled)
    assert doubled.nnz == 2 * a.nnz
    for have, want in zip((doubled.data, doubled.indices, doubled.indptr), before):
        np.testing.assert_array_equal(have, want)
    want, want_rhs = fem.eliminate_dirichlet(disk50, a, rhs)
    for have, ref in ((got.indptr, want.indptr), (got.indices, want.indices),
                      (got.data, want.data), (got_rhs, want_rhs)):
        np.testing.assert_array_equal(have, ref)


def test_eliminate_dirichlet_two_blocks(disk50, truth50):
    gamma, q = truth50
    a = fem.assemble_operator(disk50, gamma.values, -q.values)
    coupling = fem.assemble_operator(disk50, None, q.values)
    matrix = sp.bmat([[a, coupling], [coupling, 2.0 * a]], format="csr")
    data = np.column_stack([a.data, coupling.data, coupling.data, 2.0 * a.data])
    n = disk50.n_nodes
    rhs = np.random.default_rng(13).standard_normal(2 * n)
    mat, out = fem.eliminate_dirichlet_data(disk50, data, rhs)

    bnodes = np.concatenate([disk50.boundary_nodes, disk50.boundary_nodes + n])
    interior = np.setdiff1d(np.arange(2 * n), bnodes)
    dense = mat.toarray()
    np.testing.assert_array_equal(dense[bnodes][:, bnodes], np.eye(len(bnodes)))
    np.testing.assert_array_equal(dense[bnodes][:, interior], 0.0)
    np.testing.assert_array_equal(dense[interior][:, bnodes], 0.0)
    np.testing.assert_array_equal(dense[np.ix_(interior, interior)],
                                  matrix.toarray()[np.ix_(interior, interior)])
    assert out.dtype == rhs.dtype
    np.testing.assert_array_equal(out[bnodes], 0.0)
    np.testing.assert_array_equal(out[interior], rhs[interior])


def test_resonance_shows_up_as_amplification():
    # Constant data couples to the radial modes, so the response blows up
    # near the first radial eigenvalue and stays tame halfway to the second.
    mesh = hm.build_disk_mesh(1.0, 100)
    gamma = constant_field(mesh, 1.0)
    q = constant_field(mesh, 1.0)
    bc = fem.BoundaryCondition("dirichlet", np.ones(len(mesh.boundary_nodes)))

    def response(k):
        try:
            u, _, _ = fem.solve_bvp(mesh, gamma, q, k, bc)
        except (fem.NonConvergence, fem.SingularSystem):
            return math.inf
        return float(np.max(np.abs(u.values) ** 2))

    peak = max(response(k)
               for k in np.linspace(0.97 * BESSEL_J0_ZERO_1,
                                    1.03 * BESSEL_J0_ZERO_1, 61))
    midway = response(math.sqrt((BESSEL_J0_ZERO_1 ** 2 + BESSEL_J0_ZERO_2 ** 2) / 2.0))
    assert peak / midway >= 10.0


# ---------------------------------------------------------------------------
# gradients


def test_gradient_of_linear_field_is_exact(disk50):
    x, y = disk50.nodes[:, 0], disk50.nodes[:, 1]
    u = fem.ComplexField(mesh=disk50, values=x + 1j * y)
    g = fem.gradient(u)
    np.testing.assert_allclose(g.tri_values[:, 0], 1.0, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(g.tri_values[:, 1], 1j, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(g.node_values[:, 0], 1.0, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(g.node_magnitude_squared(), 2.0, rtol=1e-12)


def test_gradient_of_constant_field_vanishes(disk50):
    u = fem.ComplexField(mesh=disk50, values=np.full(disk50.n_nodes, 3.0 - 2.0j))
    g = fem.gradient(u)
    assert np.max(np.abs(g.tri_values)) < 1e-12
    assert np.max(np.abs(g.node_values)) < 1e-12


@pytest.mark.parametrize("fixture", ["disk50", "disk100"])
def test_gradient_maps_match_the_kernels(fixture, request):
    mesh = request.getfixturevalue(fixture)
    rng = np.random.default_rng(17)
    u = fem.ComplexField(mesh, rng.standard_normal(mesh.n_nodes)
                         + 1j * rng.standard_normal(mesh.n_nodes))
    area, b, c = mesh.geometry
    tri = triangle_gradients(u.values, mesh.triangles, b, c, area)
    node = nodal_average(tri, mesh.triangles, area, mesh.n_nodes)
    got = fem.gradient(u)
    for have, want in ((got.tri_values, tri), (got.node_values, node)):
        assert have.shape == want.shape and have.dtype == want.dtype
        np.testing.assert_allclose(have, want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max())
    # a field that is no contiguous array of its own
    strided = fem.ComplexField(mesh, np.stack([u.values, u.values], axis=1)[:, 1])
    np.testing.assert_array_equal(fem.gradient(strided).node_values,
                                  got.node_values)


def test_gradient_recovery_improves_with_refinement(disk50, disk100):
    errs = []
    for mesh in (disk50, disk100):
        x = mesh.nodes[:, 0]
        g = fem.gradient(fem.ComplexField(mesh=mesh, values=x ** 2 + 0j))
        err = np.hypot(np.abs(g.node_values[:, 0] - 2.0 * x),
                       np.abs(g.node_values[:, 1]))
        errs.append(l2_norm(mesh, err))
    assert errs[1] < errs[0]


# ---------------------------------------------------------------------------
# boundary quadrature


def test_boundary_weights_integrate_ones_to_the_circumference(disk50):
    ones = np.ones(len(disk50.boundary_nodes))
    got = boundary_quadrature(disk50, np.ones(disk50.n_nodes), ones)
    assert abs(got - 16.0 * math.pi) < 0.01 * 16.0 * math.pi
    # the triangle's loop has unequal segments (1, sqrt 2, 1); the trapezoid
    # rule is exact for the perimeter and for x + iy along each edge
    mesh = unit_right_triangle()
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    ones = np.ones(mesh.n_nodes)
    assert boundary_quadrature(mesh, ones, ones) == pytest.approx(
        2.0 + math.sqrt(2.0), rel=1e-15)
    linear = boundary_quadrature(mesh, x + 1j * y, ones)
    half = 0.5 + 0.5 * math.sqrt(2.0)
    assert linear == pytest.approx(half + 1j * half, rel=1e-15)


def test_boundary_weights_trivial_and_phase_cases(disk50):
    ones = np.ones(len(disk50.boundary_nodes))
    assert boundary_quadrature(disk50, np.zeros(disk50.n_nodes), ones) == 0.0
    theta = np.arctan2(disk50.nodes[:, 1], disk50.nodes[:, 0])
    phase = np.exp(1j * theta)
    paired = boundary_quadrature(disk50, phase, phase[disk50.boundary_nodes])
    assert abs(paired - 16.0 * math.pi) < 0.01 * 16.0 * math.pi
    # A whole number of turns sums to zero against constant weight.
    assert abs(boundary_quadrature(disk50, phase, ones)) < 1e-10 * 16.0 * math.pi


# ---------------------------------------------------------------------------
# masked norms


def test_masked_field_norms_constants(disk50):
    mask = full_mask(disk50)
    total = disk50.element_areas.sum()
    linf, l1, l2 = fem.masked_field_norms(disk50, np.ones(disk50.n_nodes), mask)
    assert linf == 1.0
    np.testing.assert_allclose(l1, total, rtol=1e-12)
    np.testing.assert_allclose(l2, math.sqrt(total), rtol=1e-12)
    linf, l1, l2 = fem.masked_field_norms(disk50, np.zeros(disk50.n_nodes), mask)
    assert (linf, l1, l2) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        fem.masked_field_norms(disk50, np.ones(disk50.n_nodes),
                               np.zeros(disk50.n_nodes, dtype=bool))


def test_masked_field_norms_interior_only(disk50):
    # Interior mask drops every element touching the boundary ring.
    mask = interior_mask(disk50)
    linf, l1, l2 = fem.masked_field_norms(disk50, np.ones(disk50.n_nodes), mask)
    assert linf == 1.0
    assert 0.0 < l1 < disk50.element_areas.sum()
    assert abs(l2 - math.sqrt(l1)) < 1e-12


def masked_norms_by_elements(mesh, values, node_mask):
    """(l_inf, l1, l2) summed over the fully masked elements, per call."""
    v = np.abs(np.asarray(values))
    area, _, _ = mesh.geometry
    inside = node_mask[mesh.triangles].all(axis=1)
    tri = mesh.triangles[inside]
    w = area[inside] / 3.0
    return (float(v[node_mask].max()), float(np.sum(w * v[tri].sum(axis=1))),
            float(math.sqrt(np.sum(w * (v[tri] ** 2).sum(axis=1)))))


def test_masked_field_norms_match_the_element_sums():
    mesh = hm.build_disk_mesh(8.0, 50)
    rng = np.random.default_rng(31)
    values = rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
    # non-finite values off the mask stay out of every norm
    values[mesh.boundary_nodes[0]] = np.nan
    mask = interior_mask(mesh)
    disk = mesh.node_radii() < 6.0
    for node_mask in (mask, disk, mask, disk):
        np.testing.assert_allclose(
            fem.masked_field_norms(mesh, values, node_mask),
            masked_norms_by_elements(mesh, values, node_mask), rtol=1e-13)
    # a mask changed in place gets its own weights
    mask[np.flatnonzero(mask)[::7]] = False
    np.testing.assert_allclose(
        fem.masked_field_norms(mesh, values, mask),
        masked_norms_by_elements(mesh, values, mask), rtol=1e-13)
    nodes, weights = mesh.lumped_weights(mask)
    assert not weights.flags.writeable and np.all(weights > 0)
    # the same mask again is served from the mesh
    assert mesh.lumped_weights(mask.copy())[1] is weights
