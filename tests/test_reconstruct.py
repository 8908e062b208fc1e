"""Alternating reconstruction: misfits, correctors, updates, and the outer loop."""

import csv
import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from helmpert import diagnostics, fem, forward
from helmpert import mesh as hm
from helmpert import reconstruct as rc

from conftest import constant_field, eliminate_by_products

K1_DEFAULT = math.pi * 1e3
K2_DEFAULT = math.pi * 1e-3


def phase_dirichlet(mesh):
    return fem.BoundaryCondition("dirichlet", forward.boundary_phase(mesh, "xy"))


def forward_pass(mesh, gamma, q, k):
    """A pass's forward field and the factor its corrector is solved on."""
    u0, _, lu = fem.solve_bvp(mesh, gamma, q, k, phase_dirichlet(mesh),
                              gate=False)
    return u0, lu


def synthetic_data(mesh, gamma, q, k1, k2):
    bc = phase_dirichlet(mesh)
    u1, _, _ = fem.solve_bvp(mesh, gamma, q, k1, bc)
    u2, _, _ = fem.solve_bvp(mesh, gamma, q, k2, bc)
    J = gamma.values * fem.gradient(u1).node_magnitude_squared()
    j = q.values * np.abs(u2.values) ** 2
    return J, j


@pytest.fixture(scope="module")
def truth_data50(disk50, truth50):
    gamma, q = truth50
    J, j = synthetic_data(disk50, gamma, q, K1_DEFAULT, K2_DEFAULT)
    return J, j


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        rc.ReconstructionConfig(k1=1.0, k2=1.0)
    with pytest.raises(ValueError):
        rc.ReconstructionConfig(k1=1.0, k2=2.0, eps_precision=0.0)
    with pytest.raises(ValueError):
        rc.ReconstructionConfig(k1=1.0, k2=2.0, floor_u=-1e-12)
    with pytest.raises(ValueError):
        rc.ReconstructionConfig(k1=1.0, k2=2.0, max_outer_iterations=0)
    with pytest.raises(ValueError, match="max_outer_iterations"):
        rc.ReconstructionConfig(k1=1.0, k2=2.0, max_outer_iterations=2.5)
    # a negative or non-finite frequency, or one whose square overflows
    for bad in (-1.0, math.nan, math.inf, 1e200):
        with pytest.raises(ValueError, match="k1"):
            rc.ReconstructionConfig(k1=bad, k2=2.0)
        with pytest.raises(ValueError, match="k2"):
            rc.ReconstructionConfig(k1=1.0, k2=bad)
    with pytest.raises(ValueError):
        rc.ReconstructionConfig(
            k1=1.0, k2=2.0,
            boundary_data=fem.BoundaryCondition("neumann", np.zeros(4)))


# ---------------------------------------------------------------------------
# quotient misfits


def test_gamma_misfit_vanishes_on_truth(disk50, truth50):
    gamma, q = truth50
    u0, _, _ = fem.solve_bvp(disk50, gamma, q, K1_DEFAULT, phase_dirichlet(disk50))
    J = gamma.values * fem.gradient(u0).node_magnitude_squared()
    E0, linf = rc.compute_gamma_error(J, fem.gradient(u0), gamma)
    assert linf < 1e-12
    assert np.max(np.abs(E0.values)) < 1e-10


def test_gamma_misfit_of_constant_guess_is_the_contrast(disk50, truth50):
    gamma, q = truth50
    u0, _, _ = fem.solve_bvp(disk50, gamma, q, K1_DEFAULT, phase_dirichlet(disk50))
    J = gamma.values * fem.gradient(u0).node_magnitude_squared()
    guess = constant_field(disk50, 3.5)
    E0, linf = rc.compute_gamma_error(J, fem.gradient(u0), guess)
    np.testing.assert_allclose(E0.values, gamma.values - 3.5, rtol=0.0, atol=1e-10)
    assert linf == pytest.approx(2.5, abs=1e-10)


def test_gamma_misfit_is_linear_in_data(disk50, truth50):
    gamma, q = truth50
    u0, _, _ = fem.solve_bvp(disk50, gamma, q, K1_DEFAULT, phase_dirichlet(disk50))
    grad_sq = fem.gradient(u0).node_magnitude_squared()
    J = gamma.values * grad_sq
    E1, _ = rc.compute_gamma_error(J, fem.gradient(u0), gamma)
    E2, _ = rc.compute_gamma_error(2.0 * J, fem.gradient(u0), gamma)
    np.testing.assert_allclose(E2.values - E1.values, J / grad_sq, rtol=1e-12)


def test_gamma_floor_violation(disk50):
    x = disk50.nodes[:, 0]
    u0 = fem.ComplexField(disk50, x ** 2 + 0j)  # gradient dies along x = 0
    gamma = constant_field(disk50, 1.0)
    with pytest.raises(rc.FloorViolation) as err:
        rc.compute_gamma_error(np.ones(disk50.n_nodes), fem.gradient(u0), gamma,
                               floor_grad=1e-2)
    assert "grad" in str(err.value)


def test_q_misfit_with_unit_modulus_field(disk50, truth50):
    gamma, q = truth50
    x, y = disk50.nodes[:, 0], disk50.nodes[:, 1]
    u0 = fem.ComplexField(disk50, np.exp(1j * (x + y)))
    guess = constant_field(disk50, 1.0)
    eps0, linf = rc.compute_q_error(q.values, u0, guess)
    np.testing.assert_allclose(eps0.values, q.values - 1.0, rtol=0.0, atol=1e-12)
    assert linf == pytest.approx(np.max(np.abs(q.values - 1.0)), abs=1e-12)


def test_q_floor_violation(disk50):
    x, y = disk50.nodes[:, 0], disk50.nodes[:, 1]
    u0 = fem.ComplexField(disk50, x + 1j * y)  # |u|^2 collapses at the center
    q0 = constant_field(disk50, 1.0)
    with pytest.raises(rc.FloorViolation):
        rc.compute_q_error(np.ones(disk50.n_nodes), u0, q0, floor_u=0.5)


# ---------------------------------------------------------------------------
# correctors


def test_gamma_corrector_of_zero_misfit_is_zero(disk50, truth50):
    gamma, q = truth50
    u0, lu = forward_pass(disk50, gamma, q, K1_DEFAULT)
    zero = fem.CoefficientField(disk50, np.zeros(disk50.n_nodes))
    corr = rc.solve_gamma_corrector(u0, zero, gamma, q, K1_DEFAULT, lu)
    assert np.max(np.abs(corr.values)) == 0.0


def test_gamma_corrector_conjugation(disk50, truth50):
    gamma, q = truth50
    u0, _, _ = fem.solve_bvp(disk50, gamma, q, K2_DEFAULT, phase_dirichlet(disk50))
    _, lu = forward_pass(disk50, gamma, q, K1_DEFAULT)
    rng = np.random.default_rng(2)
    E0 = fem.CoefficientField(disk50, rng.uniform(-0.3, 0.3, disk50.n_nodes))
    c1 = rc.solve_gamma_corrector(u0, E0, gamma, q, K1_DEFAULT, lu)
    u0c = fem.ComplexField(disk50, np.conj(u0.values))
    c2 = rc.solve_gamma_corrector(u0c, E0, gamma, q, K1_DEFAULT, lu)
    scale = np.max(np.abs(c1.values))
    assert np.max(np.abs(c2.values - np.conj(c1.values))) < 1e-12 * scale


def gamma_corrector_system(mesh, u0, E0, gamma, q, k):
    """The corrector's eliminated system, its load (E0 grad u0, grad phi_i)
    summed element by element, E0 averaged per element."""
    area, b, c = mesh.geometry
    rhs = np.zeros(mesh.n_nodes, dtype=complex)
    for e, tri in enumerate(mesh.triangles):
        grad_phi = np.stack([b[e], c[e]], axis=1) / (2.0 * area[e])
        grad_u = grad_phi.T @ u0.values[tri]
        rhs[tri] += area[e] * E0.values[tri].mean() * (grad_phi @ grad_u)
    matrix = fem.assemble_operator(mesh, gamma.values - E0.values,
                                   k ** 2 * q.values)
    return fem.eliminate_dirichlet(mesh, matrix, rhs)


def random_misfit(mesh, seed, size):
    return fem.CoefficientField(
        mesh, np.random.default_rng(seed).uniform(-size, size, mesh.n_nodes))


def test_gamma_corrector_matches_element_loop(disk50, truth50):
    gamma, q = truth50
    k = 0.35
    u0, lu = forward_pass(disk50, gamma, q, k)
    E0 = random_misfit(disk50, 3, 0.3)
    matrix, rhs = gamma_corrector_system(disk50, u0, E0, gamma, q, k)
    ref, _ = fem.Factor(matrix).solve(rhs)
    got = rc.solve_gamma_corrector(u0, E0, gamma, q, k, lu).values
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_gamma_corrector_falls_back_on_a_far_factor(disk50, truth50):
    # at k = 0.35 the stiffness change K(E0 - 2 gamma) is no perturbation of
    # the forward operator: the refinement misses the gate and the corrector
    # is what a factorization of its own (negated) system gives
    gamma, q = truth50
    k = 0.35
    u0, lu = forward_pass(disk50, gamma, q, k)
    E0 = random_misfit(disk50, 3, 0.3)
    got = rc.solve_gamma_corrector(u0, E0, gamma, q, k, lu).values
    assert lu.fallbacks == 1
    negated = fem.assemble_operator(disk50, E0.values - gamma.values,
                                    -(k ** 2) * q.values)
    load = -(fem.assemble_operator(disk50, E0.values, None) @ u0.values)
    matrix, rhs = fem.eliminate_dirichlet(disk50, negated, load)
    ref, _ = fem.Factor(matrix).solve(rhs)
    np.testing.assert_array_equal(got, ref)
    matrix, rhs = gamma_corrector_system(disk50, u0, E0, gamma, q, k)
    assert fem.residual_gate(matrix, np.column_stack([got.real, got.imag]),
                             np.column_stack([rhs.real, rhs.imag]), 1,
                             gate=False) <= fem.RESIDUAL_RTOL


def q_corrector_by_kind(mesh, u0, eps0, j, gamma, q, k):
    """The q-corrector solved on one fresh factorization, its blocks a sum
    of five single-coefficient matrices, then bmat."""
    re, im = u0.values.real, u0.values.imag
    u2 = re * re + im * im

    def mass(coeff):
        return fem.assemble_operator(mesh, None, coeff)

    diag = (fem.assemble_operator(mesh, gamma.values, None)
            - k ** 2 * mass(j / u2))
    a11 = diag + 2.0 * k ** 2 * mass(q.values * re * re / u2)
    a12 = 2.0 * k ** 2 * mass(q.values * re * im / u2)
    a22 = diag + 2.0 * k ** 2 * mass(q.values * im * im / u2)
    matrix = sp.bmat([[a11, a12], [a12, a22]], format="csc")
    ones = np.ones(mesh.n_nodes)
    rhs = k ** 2 * np.concatenate([mass(ones) @ (eps0.values * re),
                                   mass(ones) @ (eps0.values * im)])
    matrix, rhs = eliminate_by_products(mesh, matrix, rhs)
    sol, _ = fem.Factor(matrix).solve(rhs)
    return sol[:mesh.n_nodes] + 1j * sol[mesh.n_nodes:]


def test_q_corrector_matches_the_summed_per_kind_blocks(disk50, truth50):
    gamma, q = truth50
    k = 0.35
    u0, lu = forward_pass(disk50, gamma, q, k)
    j = q.values * np.abs(u0.values) ** 2
    eps0 = random_misfit(disk50, 4, 0.5)
    ref = q_corrector_by_kind(disk50, u0, eps0, j, gamma, q, k)
    got = rc.solve_q_corrector(u0, eps0, j, gamma, q, k, lu).values
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_correctors_on_their_pass_factor_match_a_fresh_factorization(
        disk50, truth50):
    # at the reconstruction's frequencies each corrector is refined on its
    # pass's forward factor, with no fallback, to a tighter bound
    gamma, q = truth50
    u0, lu = forward_pass(disk50, gamma, q, K1_DEFAULT)
    E0 = random_misfit(disk50, 3, 0.3)
    matrix, rhs = gamma_corrector_system(disk50, u0, E0, gamma, q, K1_DEFAULT)
    ref, _ = fem.Factor(matrix).solve(rhs)
    got = rc.solve_gamma_corrector(u0, E0, gamma, q, K1_DEFAULT, lu).values
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert lu.fallbacks == 0

    u0, lu = forward_pass(disk50, gamma, q, K2_DEFAULT)
    j = q.values * np.abs(u0.values) ** 2
    eps0 = random_misfit(disk50, 4, 0.5)
    ref = q_corrector_by_kind(disk50, u0, eps0, j, gamma, q, K2_DEFAULT)
    got = rc.solve_q_corrector(u0, eps0, j, gamma, q, K2_DEFAULT, lu).values
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert lu.fallbacks == 0


class SystemSpy:
    """Stands in for a pass factor and keeps the system it is asked to
    solve."""

    def refined_solve(self, matrix, rhs):
        self.system = (matrix, rhs)
        return np.zeros(rhs.shape), 0.0


@pytest.mark.parametrize("fixture", ["disk50", "disk100"])
@pytest.mark.parametrize("k", [K2_DEFAULT, 0.35])
def test_q_corrector_system_is_the_stacked_blocks(fixture, k, request):
    # the block data filled through the mesh's two-block gather is, bit for
    # bit, sp.bmat of the three assembled blocks with the boundary rows and
    # columns of both blocks eliminated by diagonal products
    mesh = request.getfixturevalue(fixture)
    phantom = hm.PhantomSpec()
    gamma = hm.coefficient_from_phantom(mesh, phantom, "conductivity")
    q = hm.coefficient_from_phantom(mesh, phantom, "permittivity")
    u0, _ = forward_pass(mesh, gamma, q, k)
    re, im = u0.values.real, u0.values.imag
    u2 = re * re + im * im
    j = 1.1 * q.values * u2
    eps0 = random_misfit(mesh, 4, 0.5)
    spy = SystemSpy()
    rc.solve_q_corrector(u0, eps0, j, gamma, q, k, spy)
    got, got_rhs = spy.system

    k_sq, qv = k ** 2, q.values
    a11 = fem.assemble_operator(mesh, gamma.values,
                                k_sq * (2.0 * qv * re * re - j) / u2)
    a12 = fem.assemble_operator(mesh, None, 2.0 * k_sq * qv * re * im / u2)
    a22 = fem.assemble_operator(mesh, gamma.values,
                                k_sq * (2.0 * qv * im * im - j) / u2)
    load = k_sq * (fem.assemble_operator(mesh, None, np.ones(mesh.n_nodes))
                   @ (eps0.values * u0.values))
    want, want_rhs = eliminate_by_products(
        mesh, sp.bmat([[a11, a12], [a12, a22]], format="csr"),
        np.concatenate([load.real, load.imag]))
    assert got.shape == want.shape
    # the products drop explicit zeros; the gather kept none here
    assert np.count_nonzero(got.data) == got.nnz
    for have, ref in ((got.data, want.data), (got.indices, want.indices),
                      (got.indptr, want.indptr), (got_rhs, want_rhs)):
        np.testing.assert_array_equal(have, ref)


class CountingSolves:
    """Counts the triangular solves of a factor, of either kind."""

    def __init__(self, solver):
        self.solver = solver
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.solver.solve(rhs)


@pytest.mark.parametrize("k, corrector, most", [
    (K1_DEFAULT, rc.solve_gamma_corrector, 3),
    (K2_DEFAULT, rc.solve_q_corrector, 4)])
def test_refined_solve_stops_at_roundoff(disk50, truth50, k, corrector, most):
    # each defect-correction step gains three to five digits here; the
    # refinement stops at the first one whose residual is at roundoff
    # (REFINE_FLOOR), where one more would gain nothing
    gamma, q = truth50
    u0, lu = forward_pass(disk50, gamma, q, k)
    if corrector is rc.solve_gamma_corrector:
        args = (u0, random_misfit(disk50, 3, 0.3), gamma, q, k)
    else:
        j = q.values * np.abs(u0.values) ** 2
        args = (u0, random_misfit(disk50, 4, 0.5), j, gamma, q, k)
    spy = SystemSpy()
    corrector(*args, spy)
    lu._solver = CountingSolves(lu._solver)
    _, rel = lu.refined_solve(*spy.system)
    assert lu.fallbacks == 0
    assert rel <= fem.REFINE_FLOOR
    assert 2 <= lu._solver.solves <= most


def test_q_corrector_of_zero_misfit_is_zero(disk50, truth50):
    gamma, q = truth50
    u0, lu = forward_pass(disk50, gamma, q, K2_DEFAULT)
    j = q.values * np.abs(u0.values) ** 2
    zero = fem.CoefficientField(disk50, np.zeros(disk50.n_nodes))
    corr = rc.solve_q_corrector(u0, zero, j, gamma, q, K2_DEFAULT, lu)
    assert np.max(np.abs(corr.values)) == 0.0


def test_q_corrector_scales_linearly(disk50, truth50):
    gamma, q = truth50
    u0, lu = forward_pass(disk50, gamma, q, K2_DEFAULT)
    j = q.values * np.abs(u0.values) ** 2
    rng = np.random.default_rng(2)
    eps = fem.CoefficientField(disk50, rng.uniform(-0.5, 0.5, disk50.n_nodes))
    eps2 = fem.CoefficientField(disk50, 2.0 * eps.values)
    c1 = rc.solve_q_corrector(u0, eps, j, gamma, q, K2_DEFAULT, lu)
    c2 = rc.solve_q_corrector(u0, eps2, j, gamma, q, K2_DEFAULT, lu)
    np.testing.assert_array_equal(c2.values, 2.0 * c1.values)


# ---------------------------------------------------------------------------
# updates


def test_update_gamma_plain_quotient(disk50):
    x, y = disk50.nodes[:, 0], disk50.nodes[:, 1]
    u0 = fem.ComplexField(disk50, x + 1j * y)
    grad_sq = fem.gradient(u0).node_magnitude_squared()
    gamma0 = constant_field(disk50, 1.0)
    new, clamped = rc.update_gamma(2.0 * grad_sq, fem.gradient(u0), None,
                                   gamma0)
    np.testing.assert_allclose(new.values, 2.0, rtol=1e-12)
    assert clamped == 0
    half, _ = rc.update_gamma(2.0 * grad_sq, fem.gradient(u0), None, gamma0,
                              damping=0.5)
    np.testing.assert_allclose(half.values, 1.5, rtol=1e-12)


def test_update_gamma_fixed_point(disk50, truth50):
    gamma, _ = truth50
    x, y = disk50.nodes[:, 0], disk50.nodes[:, 1]
    u0 = fem.ComplexField(disk50, x + 1j * y)
    grad_sq = fem.gradient(u0).node_magnitude_squared()
    new, clamped = rc.update_gamma(gamma.values * grad_sq, fem.gradient(u0),
                                   None, gamma)
    np.testing.assert_allclose(new.values, gamma.values, rtol=1e-12)
    assert clamped == 0


def test_update_gamma_annulus_reset_and_clamp(disk50, truth50):
    gamma, _ = truth50
    x, y = disk50.nodes[:, 0], disk50.nodes[:, 1]
    u0 = fem.ComplexField(disk50, x + 1j * y)
    annulus = disk50.node_radii() > 6.0
    new, clamped = rc.update_gamma(np.zeros(disk50.n_nodes), fem.gradient(u0),
                                   None, constant_field(disk50, 1.0),
                                   annulus_mask=annulus,
                                   annulus_values=gamma.values)
    np.testing.assert_array_equal(new.values[annulus], gamma.values[annulus])
    np.testing.assert_array_equal(new.values[~annulus], rc.GAMMA_VALUE_FLOOR)
    assert clamped == disk50.n_nodes  # counted before the annulus reset


def test_update_q_plain_quotient(disk50):
    x, y = disk50.nodes[:, 0], disk50.nodes[:, 1]
    u0 = fem.ComplexField(disk50, (x + 1.0) + 1j * y)
    val_sq = np.abs(u0.values) ** 2
    new, clamped = rc.update_q(3.0 * val_sq, u0, None, constant_field(disk50, 1.0))
    np.testing.assert_allclose(new.values, 3.0, rtol=1e-12)
    assert clamped == 0


# ---------------------------------------------------------------------------
# the outer loop


def test_run_converges_in_one_iteration_from_truth(disk50):
    gamma = constant_field(disk50, 2.0)
    q = constant_field(disk50, 3.0)
    J, j = synthetic_data(disk50, gamma, q, K1_DEFAULT, K2_DEFAULT)
    cfg = rc.ReconstructionConfig(k1=K1_DEFAULT, k2=K2_DEFAULT,
                                  gamma_guess=2.0, q_guess=3.0)
    trace = rc.run(disk50, J, j, (gamma, q), cfg)
    assert trace.status == rc.STATUS_CONVERGED
    assert len(trace.records) == 1
    assert trace.records[0].misfit_J_linf < 1e-10


def test_run_default_phantom_converges(disk50, truth50, truth_data50):
    gamma, q = truth50
    J, j = truth_data50
    cfg = rc.ReconstructionConfig(k1=K1_DEFAULT, k2=K2_DEFAULT)
    trace = rc.run(disk50, J, j, (gamma, q), cfg)
    assert trace.status == rc.STATUS_CONVERGED
    assert len(trace.records) <= 50
    last = trace.records[-1]
    assert last.misfit_J_linf < 1e-3 and last.misfit_j_linf < 1e-3
    assert last.gamma_err_l2 < 0.05
    assert last.q_err_l2 < 0.1
    # the known annulus is pinned to the truth, exactly
    annulus = disk50.node_radii() > cfg.known_annulus_radius
    np.testing.assert_array_equal(trace.final_gamma.values[annulus],
                                  gamma.values[annulus])
    np.testing.assert_array_equal(trace.final_q.values[annulus],
                                  q.values[annulus])
    for rec in trace.records:
        assert math.isfinite(rec.forward_residual_k1)
        assert math.isfinite(rec.forward_residual_k2)
        assert rec.forward_residual_k1 < 1e-8
        assert rec.forward_residual_k2 < 1e-8


def test_run_knows_exactly_the_phantoms_near_boundary_nodes(phantom):
    # mesh 52 has a ring of nodes on the annulus circle r = 6, where np.hypot
    # and math.hypot can differ in the last bit. A precision target every
    # misfit meets stops the run before its first update, so the final
    # fields are the start: the truth on the known nodes, the guess
    # elsewhere (no region of the phantom holds a guess's value)
    mesh = hm.build_disk_mesh(phantom.disk_radius, 52)
    radii = mesh.node_radii()
    assert np.count_nonzero(np.abs(radii - phantom.annulus_radius) < 1e-12)
    cfg = rc.ReconstructionConfig(k1=K1_DEFAULT, k2=K2_DEFAULT,
                                  eps_precision=1e300)
    trace = diagnostics.synthetic_run(mesh, cfg)
    assert (trace.status, len(trace.records)) == (rc.STATUS_CONVERGED, 1)
    near = np.array([hm.classify_point(p, phantom) == hm.RegionTag.NEAR_BOUNDARY
                     for p in mesh.nodes])
    np.testing.assert_array_equal(trace.final_gamma.values != cfg.gamma_guess,
                                  near)
    np.testing.assert_array_equal(trace.final_q.values != cfg.q_guess, near)
    np.testing.assert_array_equal(radii > cfg.known_annulus_radius, near)


def test_run_unresolved_wavelength_diverges(disk50, truth50):
    gamma, q = truth50
    J, j = synthetic_data(disk50, gamma, q, math.pi * 10.0, math.pi / 10.0)
    cfg = rc.ReconstructionConfig(k1=math.pi * 10.0, k2=math.pi / 10.0)
    trace = rc.run(disk50, J, j, (gamma, q), cfg)
    assert trace.status == rc.STATUS_DIVERGED
    assert "|u|^2" in trace.detail
    mins = [rec.min_u_sq for rec in trace.records]
    assert all(b < a for a, b in zip(mins, mins[1:]))


def test_run_stalls_on_the_intermediate_mesh(disk100):
    # Resolution-dependent: on the 100-point mesh the low-frequency field
    # develops a wandering interior zero that keeps the correctors from
    # making progress, and the stall detector is what fires.
    ph = hm.PhantomSpec()
    gamma = hm.coefficient_from_phantom(disk100, ph, "conductivity")
    q = hm.coefficient_from_phantom(disk100, ph, "permittivity")
    J, j = synthetic_data(disk100, gamma, q, K1_DEFAULT, K2_DEFAULT)
    cfg = rc.ReconstructionConfig(k1=K1_DEFAULT, k2=K2_DEFAULT)
    trace = rc.run(disk100, J, j, (gamma, q), cfg)
    assert trace.status == rc.STATUS_STALLED
    assert "no progress" in trace.detail


def test_run_without_truth_hits_iteration_cap(disk50, truth_data50):
    J, j = truth_data50
    cfg = rc.ReconstructionConfig(k1=K1_DEFAULT, k2=K2_DEFAULT,
                                  max_outer_iterations=2)
    trace = rc.run(disk50, J, j, None, cfg)
    assert trace.status == rc.STATUS_ITERATION_CAP
    assert len(trace.records) == 2
    for rec in trace.records:
        assert math.isnan(rec.gamma_err_linf)
        assert math.isnan(rec.q_err_l2)


def test_run_gates_correctors_over_the_cap_but_still_records(
        disk50, truth50, truth_data50, monkeypatch):
    gamma, q = truth50
    J, j = truth_data50
    monkeypatch.setattr(rc, "CORRECTOR_CAP", 1e-30)
    cfg = rc.ReconstructionConfig(k1=K1_DEFAULT, k2=K2_DEFAULT,
                                  max_outer_iterations=3)
    trace = rc.run(disk50, J, j, (gamma, q), cfg)
    recorded = [max(r.max_corr_gamma_sq, r.max_corr_q_sq) for r in trace.records]
    assert max(recorded) > 1e-30


def test_run_differentiates_each_high_frequency_field_once(
        disk50, truth50, truth_data50, monkeypatch):
    # with every corrector over the cap, the only field to differentiate is
    # the high-frequency forward field of each record
    gamma, q = truth50
    J, j = truth_data50
    calls = []
    gradient = fem.gradient

    def counting(u):
        calls.append(u)
        return gradient(u)

    monkeypatch.setattr(fem, "gradient", counting)
    monkeypatch.setattr(rc, "CORRECTOR_CAP", 1e-30)
    cfg = rc.ReconstructionConfig(k1=K1_DEFAULT, k2=K2_DEFAULT,
                                  max_outer_iterations=3)
    trace = rc.run(disk50, J, j, (gamma, q), cfg)
    assert len(trace.records) == 3
    assert len(calls) == len(trace.records)


# m = 3 converges with every corrector solved on its pass's factor; at
# m = 1 the forward operators are too far from the correctors, and one
# corrector per iteration factors its own system
@pytest.mark.parametrize("m, expected, per_iteration", [
    (3, (rc.STATUS_CONVERGED, 23), [2] * 23),
    (1, (rc.STATUS_DIVERGED, 3), [3] * 3)])
def test_run_counts_its_factorizations(disk50, factorizations, m, expected,
                                       per_iteration):
    k1, k2 = diagnostics.frequency_pair(m)
    trace = diagnostics.synthetic_run(disk50,
                                      rc.ReconstructionConfig(k1=k1, k2=k2))
    assert (trace.status, len(trace.records)) == expected
    assert [r.n_factor for r in trace.records] == per_iteration
    # the two data solves, then the factorizations the records count
    assert len(factorizations) == 2 + sum(per_iteration)
    if m == 3:
        assert {call.shape for call in factorizations} == {(disk50.n_nodes,
                                                            disk50.n_nodes)}


def test_run_refactors_one_band_storage(disk50, factorizations, monkeypatch):
    # Converged/23 at m = 3: both passes of every iteration take the band,
    # and the loop's 46 factorizations overwrite the first one's storage;
    # with a fresh factor per pass the records are the same, bit for bit
    cfg = rc.ReconstructionConfig(*diagnostics.frequency_pair(3))
    trace = diagnostics.synthetic_run(disk50, cfg)
    loop = [call.solver for call in factorizations[2:]]
    assert len(loop) == 46
    assert all(isinstance(solver, fem.BandCholesky) for solver in loop)
    first = loop[0]
    for solver in loop[1:]:
        assert np.shares_memory(solver.work, first.work)
        assert np.shares_memory(solver.factor, first.factor)
    monkeypatch.setattr(fem.Factor, "refactor",
                        lambda self, matrix: fem.Factor(matrix))
    fresh = diagnostics.synthetic_run(disk50, cfg)
    assert [repr(dataclasses.astuple(r)) for r in trace.records] == [
        repr(dataclasses.astuple(r)) for r in fresh.records]
    np.testing.assert_array_equal(trace.final_gamma.values,
                                  fresh.final_gamma.values)
    np.testing.assert_array_equal(trace.final_q.values, fresh.final_q.values)


def test_save_trace_csv_round_trip(disk50, truth50, truth_data50, tmp_path):
    gamma, q = truth50
    J, j = truth_data50
    cfg = rc.ReconstructionConfig(k1=K1_DEFAULT, k2=K2_DEFAULT,
                                  max_outer_iterations=4)
    trace = rc.run(disk50, J, j, (gamma, q), cfg)
    path = tmp_path / "trace.csv"
    rc.save_trace_csv(path, trace)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "iteration", "misfit_J_linf", "misfit_J_l2", "misfit_j_linf",
        "misfit_j_l2", "min_grad_sq", "min_u_sq", "max_corr_gamma_sq",
        "max_corr_q_sq", "gamma_err_linf", "gamma_err_l1", "gamma_err_l2",
        "q_err_linf", "q_err_l1", "q_err_l2", "n_gamma_clamped",
        "n_q_clamped", "corrector_failed", "n_factor", "forward_residual_k1",
        "forward_residual_k2", "status"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(trace.records)
    assert [r["status"] for r in rows[:-1]] == [""] * (len(rows) - 1)
    assert rows[-1]["status"] == trace.status
    for row, rec in zip(rows, trace.records):
        assert int(row["iteration"]) == rec.iteration
        assert float(row["misfit_J_linf"]) == rec.misfit_J_linf
        assert float(row["min_u_sq"]) == rec.min_u_sq
        assert int(row["n_gamma_clamped"]) == rec.n_gamma_clamped
        assert int(row["n_factor"]) == rec.n_factor


def test_write_csv_round_trip(tmp_path):
    # python floats, then numpy float64 scalars
    floats = [0.1, 1.0 / 3.0, -2.5e-300, 6.02e23, math.nan, -math.inf,
              *np.random.default_rng(3).standard_normal(4)]
    rows = [[i, f"cell {i}", v, ""] for i, v in enumerate(floats)]
    path = tmp_path / "table.csv"
    rc.write_csv(path, ["n", "name", "value", "note"], rows)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["n", "name", "value", "note"]
    assert len(got) == len(rows) + 1
    for (n, name, value, note), want in zip(got[1:], rows):
        # ints and strings are written as they are, floats parse back exactly
        assert (n, name, note) == (str(want[0]), want[1], want[3])
        assert value == repr(float(want[2]))
        parsed = float(value)
        assert parsed == want[2] or (math.isnan(parsed) and math.isnan(want[2]))
