"""Assembly, boundary conditions, solves, gradients, boundary integrals."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from helmpert import fem
from helmpert import mesh as hm

from conftest import constant_field, interior_mask

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


# ---------------------------------------------------------------------------
# element matrices


def test_single_triangle_stiffness_and_mass():
    mesh = unit_right_triangle()
    k_ref = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    m_ref = (0.5 / 12.0) * (1.0 + np.eye(3))
    one = constant_field(mesh, 1.0)
    np.testing.assert_allclose(
        fem.assemble(mesh, one, one, 0.0).matrix.toarray(), k_ref,
        rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(unit_mass(mesh).toarray(),
                               m_ref, rtol=0.0, atol=1e-16)
    np.testing.assert_allclose(
        fem.assemble(mesh, one, one, 1.0).matrix.toarray(), k_ref - m_ref,
        rtol=0.0, atol=1e-15)


def test_assemble_zero_k_is_pure_stiffness(disk50, truth50):
    gamma, q = truth50
    a0 = fem.assemble(disk50, gamma, q, 0.0).matrix
    k_only = fem.assemble_operator(disk50, gamma.values, None)
    assert abs(a0 - k_only).max() == 0.0


def test_doubling_gamma_doubles_stiffness_part(disk50, truth50):
    gamma, q = truth50
    k = 0.7
    a1 = fem.assemble(disk50, gamma, q, k).matrix
    gamma2 = fem.CoefficientField(mesh=disk50, values=2.0 * gamma.values)
    a2 = fem.assemble(disk50, gamma2, q, k).matrix
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


# ---------------------------------------------------------------------------
# validation


def test_assemble_rejects_bad_inputs(disk50, truth50):
    gamma, q = truth50
    zero_gamma = fem.CoefficientField(mesh=disk50, values=0.0 * gamma.values)
    with pytest.raises(ValueError):
        fem.assemble(disk50, zero_gamma, q, 1.0)
    neg_q = fem.CoefficientField(mesh=disk50, values=q.values - q.values.max() - 1.0)
    with pytest.raises(ValueError):
        fem.assemble(disk50, gamma, neg_q, 1.0)
    with pytest.raises(ValueError):
        fem.assemble(disk50, gamma, q, -0.5)
    other = hm.build_disk_mesh(8.0, 50)
    with pytest.raises(ValueError):
        fem.assemble(other, gamma, q, 1.0)


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


def test_boundary_condition_kind_mismatch(disk50, truth50):
    gamma, q = truth50
    system = fem.assemble(disk50, gamma, q, 1.0)
    data = np.zeros(len(disk50.boundary_nodes))
    with pytest.raises(ValueError):
        fem.apply_dirichlet(system, fem.BoundaryCondition("neumann", data))
    with pytest.raises(ValueError):
        fem.apply_neumann(system, fem.BoundaryCondition("dirichlet", data))
    with pytest.raises(ValueError):
        fem.apply_dirichlet(system, fem.BoundaryCondition("dirichlet", data[:-1]))


# ---------------------------------------------------------------------------
# Dirichlet solves


def test_dirichlet_zero_data_gives_zero_solution(disk50, truth50):
    gamma, q = truth50
    bc = fem.BoundaryCondition("dirichlet", np.zeros(len(disk50.boundary_nodes)))
    u = fem.solve_bvp(disk50, gamma, q, 0.5, bc)
    assert np.max(np.abs(u.values)) == 0.0


def test_dirichlet_constant_data_at_zero_k_is_constant(disk50, truth50):
    gamma, q = truth50
    c = 2.0 - 1.0j
    bc = fem.BoundaryCondition("dirichlet", np.full(len(disk50.boundary_nodes), c))
    u = fem.solve_bvp(disk50, gamma, q, 0.0, bc)
    np.testing.assert_allclose(u.values, c, rtol=1e-12)


def test_dirichlet_data_is_baked_exactly(disk50, truth50):
    gamma, q = truth50
    data = np.exp(1j * boundary_angles(disk50))
    bc = fem.BoundaryCondition("dirichlet", data)
    u = fem.solve_bvp(disk50, gamma, q, 1.3, bc)
    np.testing.assert_array_equal(u.values[disk50.boundary_nodes], data)
    assert np.max(np.abs(np.abs(data) - 1.0)) < 1e-14


def test_conjugated_data_gives_conjugated_solution(disk50, truth50):
    gamma, q = truth50
    matrix = fem.assemble(disk50, gamma, q, 1.3).matrix
    asym = abs(matrix - matrix.T)
    assert asym.nnz == 0 or asym.max() < 1e-13
    data = np.exp(1j * boundary_angles(disk50))
    u1 = fem.solve_bvp(disk50, gamma, q, 1.3, fem.BoundaryCondition("dirichlet", data))
    u2 = fem.solve_bvp(disk50, gamma, q, 1.3,
                       fem.BoundaryCondition("dirichlet", np.conj(data)))
    np.testing.assert_allclose(u2.values, np.conj(u1.values), rtol=0.0, atol=1e-12)


def test_tiny_k_matches_zero_k(disk50):
    gamma = constant_field(disk50, 1.0)
    q = constant_field(disk50, 3.0)
    bc = fem.BoundaryCondition("dirichlet", np.exp(1j * boundary_angles(disk50)))
    u_tiny = fem.solve_bvp(disk50, gamma, q, math.pi * 1e-3, bc)
    u_zero = fem.solve_bvp(disk50, gamma, q, 0.0, bc)
    rel = l2_norm(disk50, u_tiny.values - u_zero.values) / l2_norm(disk50, u_zero.values)
    assert rel < 1e-4


def test_manufactured_dirichlet_second_order(disk50, disk100, disk200):
    # gamma = q = 1, k = 1: the saddle is harmonic, so the source is u itself.
    errs = []
    for mesh in (disk50, disk100, disk200):
        u_exact = quadratic_saddle(mesh)
        source = fem.ComplexField(mesh=mesh, values=u_exact)
        bc = fem.BoundaryCondition("dirichlet", u_exact[mesh.boundary_nodes])
        u = fem.solve_bvp(mesh, constant_field(mesh, 1.0), constant_field(mesh, 1.0),
                          1.0, bc, source=source)
        errs.append(l2_norm(mesh, u.values - u_exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 10.0


# ---------------------------------------------------------------------------
# Neumann solves


def test_neumann_zero_flux_gives_zero_solution(disk50):
    gamma = constant_field(disk50, 1.0)
    q = constant_field(disk50, 1.0)
    bc = fem.BoundaryCondition("neumann", np.zeros(len(disk50.boundary_nodes)))
    u = fem.solve_bvp(disk50, gamma, q, 0.5, bc)
    assert np.max(np.abs(u.values)) == 0.0


def test_manufactured_neumann_flux_reproduction(disk50, disk100, disk200):
    errs = []
    for mesh in (disk50, disk100, disk200):
        u_exact = quadratic_saddle(mesh)
        source = fem.ComplexField(mesh=mesh, values=u_exact)
        flux = (2.0 / mesh.radius) * u_exact[mesh.boundary_nodes]
        bc = fem.BoundaryCondition("neumann", flux)
        u = fem.solve_bvp(mesh, constant_field(mesh, 1.0), constant_field(mesh, 1.0),
                          1.0, bc, source=source)
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
    system = fem.SparseSystem(mesh=disk50,
                              matrix=sp.identity(disk50.n_nodes, format="csr"),
                              rhs=rhs)
    u = fem.solve(system)
    np.testing.assert_allclose(u.values, rhs, rtol=1e-15, atol=0.0)


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
    x, rel = fem.factor_solve(matrix, rhs)
    assert x.dtype == np.float64
    assert rel <= fem.RESIDUAL_RTOL
    xc, _ = fem.factor_solve(matrix, rhs + 0j)
    assert xc.dtype == np.complex128
    np.testing.assert_allclose(xc.real, x, rtol=1e-12, atol=0.0)


def test_factor_solve_singular_matrix_raises():
    matrix = sp.diags([1.0, 0.0, 1.0]).tocsr()
    with pytest.raises(fem.SingularSystem):
        fem.factor_solve(matrix, np.ones(3))


def test_factor_solve_gates_on_residual():
    # the 12x12 Hilbert matrix (condition ~1e16): LU is backward stable but
    # the residual relative to |rhs| lands far above RESIDUAL_RTOL
    idx = np.arange(12)
    matrix = sp.csr_matrix(1.0 / (idx[:, None] + idx[None, :] + 1.0))
    rhs = np.random.default_rng(0).standard_normal(12)
    _, rel = fem.factor_solve(matrix, rhs, gate=False)
    assert rel > fem.RESIDUAL_RTOL
    with pytest.raises(fem.NonConvergence) as info:
        fem.factor_solve(matrix, rhs)
    assert info.value.residual / info.value.rhs_norm == pytest.approx(rel)


def test_eliminate_dirichlet_two_blocks(disk50, truth50):
    gamma, q = truth50
    a = fem.assemble_operator(disk50, gamma.values, -q.values)
    coupling = fem.assemble_operator(disk50, None, q.values)
    matrix = sp.bmat([[a, coupling], [coupling, 2.0 * a]], format="csr")
    n = disk50.n_nodes
    rhs = np.random.default_rng(13).standard_normal(2 * n)
    mat, out = fem.eliminate_dirichlet(disk50, matrix, rhs)

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
            u = fem.solve_bvp(mesh, gamma, q, k, bc)
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
# boundary integrals


def test_boundary_integral_of_ones_is_circumference(disk50):
    ones = fem.ComplexField(mesh=disk50, values=np.ones(disk50.n_nodes))
    got = fem.boundary_integral(ones, ones)
    assert isinstance(got, complex)
    assert abs(got - 16.0 * math.pi) < 0.01 * 16.0 * math.pi


def test_boundary_integral_trivial_and_phase_cases(disk50):
    zero = fem.ComplexField(mesh=disk50, values=np.zeros(disk50.n_nodes))
    ones = fem.ComplexField(mesh=disk50, values=np.ones(disk50.n_nodes))
    assert fem.boundary_integral(zero, ones) == 0.0
    theta = np.arctan2(disk50.nodes[:, 1], disk50.nodes[:, 0])
    phase = fem.ComplexField(mesh=disk50, values=np.exp(1j * theta))
    paired = fem.boundary_integral(phase, phase)
    assert abs(paired - 16.0 * math.pi) < 0.01 * 16.0 * math.pi
    # A whole number of turns sums to zero against constant weight.
    assert abs(fem.boundary_integral(phase, ones)) < 1e-10 * 16.0 * math.pi


def test_boundary_integral_accepts_raw_arrays(disk50):
    ones = fem.ComplexField(mesh=disk50, values=np.ones(disk50.n_nodes))
    via_field = fem.boundary_integral(ones, ones)
    via_array = fem.boundary_integral(ones, np.ones(disk50.n_nodes))
    assert via_field == via_array
    with pytest.raises(TypeError):
        fem.boundary_integral(np.ones(disk50.n_nodes), ones)
    with pytest.raises(ValueError):
        fem.boundary_integral(ones, np.ones(3))
    other = hm.build_disk_mesh(8.0, 50)
    with pytest.raises(ValueError):
        fem.boundary_integral(ones, fem.ComplexField(mesh=other,
                                                     values=np.ones(other.n_nodes)))


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
