"""Alternating reconstruction: misfits, correctors, updates, and the outer loop."""

import csv
import math

import numpy as np
import pytest
import scipy.sparse as sp

from helmpert import fem, forward
from helmpert import mesh as hm
from helmpert import reconstruct as rc

from conftest import constant_field

K1_DEFAULT = math.pi * 1e3
K2_DEFAULT = math.pi * 1e-3


def phase_dirichlet(mesh):
    return fem.BoundaryCondition("dirichlet", forward.boundary_phase(mesh, "xy"))


def synthetic_data(mesh, gamma, q, k1, k2):
    bc = phase_dirichlet(mesh)
    u1 = fem.solve_bvp(mesh, gamma, q, k1, bc)
    u2 = fem.solve_bvp(mesh, gamma, q, k2, bc)
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
    with pytest.raises(ValueError):
        rc.ReconstructionConfig(
            k1=1.0, k2=2.0,
            boundary_data=fem.BoundaryCondition("neumann", np.zeros(4)))


# ---------------------------------------------------------------------------
# quotient misfits


def test_gamma_misfit_vanishes_on_truth(disk50, truth50):
    gamma, q = truth50
    u0 = fem.solve_bvp(disk50, gamma, q, K1_DEFAULT, phase_dirichlet(disk50))
    J = gamma.values * fem.gradient(u0).node_magnitude_squared()
    E0, linf = rc.compute_gamma_error(J, fem.gradient(u0), gamma)
    assert linf < 1e-12
    assert np.max(np.abs(E0.values)) < 1e-10


def test_gamma_misfit_of_constant_guess_is_the_contrast(disk50, truth50):
    gamma, q = truth50
    u0 = fem.solve_bvp(disk50, gamma, q, K1_DEFAULT, phase_dirichlet(disk50))
    J = gamma.values * fem.gradient(u0).node_magnitude_squared()
    guess = constant_field(disk50, 3.5)
    E0, linf = rc.compute_gamma_error(J, fem.gradient(u0), guess)
    np.testing.assert_allclose(E0.values, gamma.values - 3.5, rtol=0.0, atol=1e-10)
    assert linf == pytest.approx(2.5, abs=1e-10)


def test_gamma_misfit_is_linear_in_data(disk50, truth50):
    gamma, q = truth50
    u0 = fem.solve_bvp(disk50, gamma, q, K1_DEFAULT, phase_dirichlet(disk50))
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
    u0 = fem.solve_bvp(disk50, gamma, q, K1_DEFAULT, phase_dirichlet(disk50))
    zero = fem.CoefficientField(disk50, np.zeros(disk50.n_nodes))
    corr = rc.solve_gamma_corrector(u0, zero, gamma, q, K1_DEFAULT)
    assert np.max(np.abs(corr.values)) == 0.0


def test_gamma_corrector_conjugation(disk50, truth50):
    gamma, q = truth50
    u0 = fem.solve_bvp(disk50, gamma, q, K2_DEFAULT, phase_dirichlet(disk50))
    rng = np.random.default_rng(2)
    E0 = fem.CoefficientField(disk50, rng.uniform(-0.3, 0.3, disk50.n_nodes))
    c1 = rc.solve_gamma_corrector(u0, E0, gamma, q, K1_DEFAULT)
    u0c = fem.ComplexField(disk50, np.conj(u0.values))
    c2 = rc.solve_gamma_corrector(u0c, E0, gamma, q, K1_DEFAULT)
    scale = np.max(np.abs(c1.values))
    assert np.max(np.abs(c2.values - np.conj(c1.values))) < 1e-12 * scale


def test_gamma_corrector_matches_element_loop(disk50, truth50):
    # the load is (E0 grad u0, grad phi_i), E0 averaged per element
    gamma, q = truth50
    k = 0.35
    u0 = fem.solve_bvp(disk50, gamma, q, k, phase_dirichlet(disk50))
    E0 = fem.CoefficientField(
        disk50, np.random.default_rng(3).uniform(-0.3, 0.3, disk50.n_nodes))
    area, b, c = disk50.geometry
    rhs = np.zeros(disk50.n_nodes, dtype=complex)
    for e, tri in enumerate(disk50.triangles):
        grad_phi = np.stack([b[e], c[e]], axis=1) / (2.0 * area[e])
        grad_u = grad_phi.T @ u0.values[tri]
        rhs[tri] += area[e] * E0.values[tri].mean() * (grad_phi @ grad_u)
    matrix = fem.assemble_operator(disk50, gamma.values - E0.values,
                                   k ** 2 * q.values)
    ref, _ = fem.factor_solve(*fem.eliminate_dirichlet(disk50, matrix, rhs))
    got = rc.solve_gamma_corrector(u0, E0, gamma, q, k).values
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_q_corrector_matches_the_summed_per_kind_blocks(disk50, truth50):
    # the blocks as a sum of five single-coefficient matrices, then bmat
    gamma, q = truth50
    k = 0.35
    u0 = fem.solve_bvp(disk50, gamma, q, k, phase_dirichlet(disk50))
    j = q.values * np.abs(u0.values) ** 2
    eps0 = fem.CoefficientField(
        disk50, np.random.default_rng(4).uniform(-0.5, 0.5, disk50.n_nodes))
    re, im = u0.values.real, u0.values.imag
    u2 = re * re + im * im

    def mass(coeff):
        return fem.assemble_operator(disk50, None, coeff)

    diag = (fem.assemble_operator(disk50, gamma.values, None)
            - k ** 2 * mass(j / u2))
    a11 = diag + 2.0 * k ** 2 * mass(q.values * re * re / u2)
    a12 = 2.0 * k ** 2 * mass(q.values * re * im / u2)
    a22 = diag + 2.0 * k ** 2 * mass(q.values * im * im / u2)
    matrix = sp.bmat([[a11, a12], [a12, a22]], format="csc")
    ones = np.ones(disk50.n_nodes)
    rhs = k ** 2 * np.concatenate([mass(ones) @ (eps0.values * re),
                                   mass(ones) @ (eps0.values * im)])
    sol, _ = fem.factor_solve(*fem.eliminate_dirichlet(disk50, matrix, rhs))
    ref = sol[:disk50.n_nodes] + 1j * sol[disk50.n_nodes:]
    got = rc.solve_q_corrector(u0, eps0, j, gamma, q, k).values
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_q_corrector_of_zero_misfit_is_zero(disk50, truth50):
    gamma, q = truth50
    u0 = fem.solve_bvp(disk50, gamma, q, K2_DEFAULT, phase_dirichlet(disk50))
    j = q.values * np.abs(u0.values) ** 2
    zero = fem.CoefficientField(disk50, np.zeros(disk50.n_nodes))
    corr = rc.solve_q_corrector(u0, zero, j, gamma, q, K2_DEFAULT)
    assert np.max(np.abs(corr.values)) == 0.0


def test_q_corrector_scales_linearly(disk50, truth50):
    gamma, q = truth50
    u0 = fem.solve_bvp(disk50, gamma, q, K2_DEFAULT, phase_dirichlet(disk50))
    j = q.values * np.abs(u0.values) ** 2
    rng = np.random.default_rng(2)
    eps = fem.CoefficientField(disk50, rng.uniform(-0.5, 0.5, disk50.n_nodes))
    eps2 = fem.CoefficientField(disk50, 2.0 * eps.values)
    c1 = rc.solve_q_corrector(u0, eps, j, gamma, q, K2_DEFAULT)
    c2 = rc.solve_q_corrector(u0, eps2, j, gamma, q, K2_DEFAULT)
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
    annulus = disk50.node_radii() >= 6.0
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
    annulus = disk50.node_radii() >= cfg.known_annulus_radius
    np.testing.assert_array_equal(trace.final_gamma.values[annulus],
                                  gamma.values[annulus])
    np.testing.assert_array_equal(trace.final_q.values[annulus],
                                  q.values[annulus])
    for rec in trace.records:
        assert math.isfinite(rec.forward_residual_k1)
        assert math.isfinite(rec.forward_residual_k2)
        assert rec.forward_residual_k1 < 1e-8
        assert rec.forward_residual_k2 < 1e-8


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


def test_run_corrector_cap_gates_but_still_records(disk50, truth50, truth_data50):
    gamma, q = truth50
    J, j = truth_data50
    cfg = rc.ReconstructionConfig(k1=K1_DEFAULT, k2=K2_DEFAULT,
                                  max_outer_iterations=3, corrector_cap=1e-30)
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
    cfg = rc.ReconstructionConfig(k1=K1_DEFAULT, k2=K2_DEFAULT,
                                  max_outer_iterations=3, corrector_cap=1e-30)
    trace = rc.run(disk50, J, j, (gamma, q), cfg)
    assert len(trace.records) == 3
    assert len(calls) == len(trace.records)


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
        "n_q_clamped", "corrector_failed", "forward_residual_k1",
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
