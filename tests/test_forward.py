"""Probe experiments: geometry clipping, measurements, and the small-probe law."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helmpert import fem, forward
from helmpert import mesh as hm

from conftest import boundary_quadrature, constant_field
from reference import measure_probe


def cross2(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


def ccw(verts):
    v = np.asarray(verts, dtype=np.float64)
    if cross2(v[1] - v[0], v[2] - v[0]) < 0:
        return v[::-1].copy()
    return v


def mc_disk_triangle_area(center, radius, verts, n=200000, seed=0):
    """Monte Carlo reference: uniform samples in the triangle."""
    rng = np.random.default_rng(seed)
    t = rng.random((n, 2))
    flip = t.sum(axis=1) > 1
    t[flip] = 1.0 - t[flip]
    v = np.asarray(verts, dtype=np.float64)
    pts = v[0] + t[:, :1] * (v[1] - v[0]) + t[:, 1:] * (v[2] - v[0])
    tri_area = 0.5 * abs(cross2(v[1] - v[0], v[2] - v[0]))
    d2 = ((pts - np.asarray(center, dtype=np.float64)) ** 2).sum(axis=1)
    return tri_area * float(np.mean(d2 <= radius * radius))


def phase_bc(mesh):
    return fem.BoundaryCondition("neumann", forward.boundary_phase(mesh, "yx"))


# ---------------------------------------------------------------------------
# disk/triangle clipping


def test_disk_triangle_area_exact_cases():
    verts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    assert forward.disk_triangle_area((1.0, 1.0), 10.0, verts) == pytest.approx(8.0, rel=1e-12)
    assert forward.disk_triangle_area((1.0, 1.0), 0.5, verts) == pytest.approx(
        math.pi * 0.25, rel=1e-12)
    assert forward.disk_triangle_area((10.0, 10.0), 1.0, verts) == 0.0
    # centered on the right-angle vertex: a quarter of the disk is covered
    assert forward.disk_triangle_area((0.0, 0.0), 1.0, verts) == pytest.approx(
        math.pi / 4.0, rel=1e-9)
    # centered on the hypotenuse midpoint: half of the disk
    assert forward.disk_triangle_area((2.0, 2.0), 0.5, verts) == pytest.approx(
        math.pi * 0.125, rel=1e-9)


def test_disk_triangle_area_against_monte_carlo():
    rng = np.random.default_rng(42)
    for trial in range(12):
        verts = ccw(rng.normal(size=(3, 2)) * rng.uniform(0.3, 3.0))
        center = rng.normal(size=2) * 1.5
        radius = rng.uniform(0.05, 3.0)
        exact = forward.disk_triangle_area(center, radius, verts)
        approx = mc_disk_triangle_area(center, radius, verts, seed=trial)
        tri_area = 0.5 * abs(cross2(verts[1] - verts[0], verts[2] - verts[0]))
        cap = min(math.pi * radius ** 2, tri_area)
        assert -1e-12 <= exact <= cap * (1.0 + 1e-9) + 1e-12
        # MC standard error is below 0.5 * tri_area / sqrt(n); 0.8% is ~7 sigma
        assert abs(exact - approx) <= 0.008 * tri_area + 1e-12


@given(st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
       st.floats(0.05, 3.0), st.integers(0, 2))
# a vertex 1e-38 from the centre: a + (b - a) is not b there
@example(xs=[1e-38, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1e-38], radius=2.0, edge=0)
def test_disk_triangle_area_adds_over_a_split(xs, radius, edge):
    """Cutting a triangle at an edge midpoint splits the clipped area."""
    verts = np.roll(ccw(np.reshape(xs[:6], (3, 2))), edge, axis=0)
    center = xs[6:]
    area = 0.5 * cross2(verts[1] - verts[0], verts[2] - verts[0])
    assume(area > 1e-3)
    mid = 0.5 * (verts[1] + verts[2])
    whole = forward.disk_triangle_area(center, radius, verts)
    halves = (forward.disk_triangle_area(center, radius, [verts[0], verts[1], mid])
              + forward.disk_triangle_area(center, radius, [verts[0], mid, verts[2]]))
    # the sector sum cancels: at a tangency it leaves about 1e-16 r^2
    tol = 1e-12 * max(radius ** 2, area)
    assert abs(whole - halves) <= tol
    assert -tol <= whole <= min(math.pi * radius ** 2, area) + tol


def test_disk_triangle_area_stack_matches_single_calls():
    rng = np.random.default_rng(7)
    verts = np.array([ccw(v) for v in rng.normal(size=(64, 3, 2))])
    verts[0, 1] = verts[0, 0]  # a zero-length edge takes no share
    stacked = forward.disk_triangle_area((0.3, -0.2), 0.8, verts)
    single = [forward.disk_triangle_area((0.3, -0.2), 0.8, v) for v in verts]
    assert stacked.shape == (64,)
    assert all(type(s) is float for s in single)
    np.testing.assert_array_equal(stacked, single)
    assert 0.0 < np.count_nonzero(stacked) < 64


def test_probe_element_fractions_cover_exactly_the_met_elements(disk50):
    """Elements whose bounding box meets the disk but which stay outside it
    get a fraction of exactly 0, not the roundoff of a sector sum."""
    verts = disk50.nodes[disk50.triangles]
    lo, hi = disk50.element_boxes
    for center, radius in [((0.3, 0.2), 0.4), ((2.3, 1.1), 0.9),
                           ((-1.7, 2.6), 0.25)]:
        probe = forward.PerturbationProbe(center=center, radius=radius,
                                          amplitude=1.0, gamma_tilde=1.0,
                                          q_tilde=1.0)
        frac = forward.probe_element_fractions(disk50, probe)
        rel = verts - np.asarray(center)
        nxt = np.roll(rel, -1, axis=1)
        d = nxt - rel
        t = np.clip(-(rel * d).sum(axis=2) / (d * d).sum(axis=2), 0.0, 1.0)
        gap = np.hypot(*np.moveaxis(rel + t[:, :, None] * d, 2, 0)).min(axis=1)
        holds = np.all(rel[:, :, 0] * nxt[:, :, 1] - rel[:, :, 1] * nxt[:, :, 0]
                       > 0.0, axis=1)
        meets = holds | (gap < radius)
        boxed = np.all((lo - radius <= center) & (np.asarray(center) <= hi + radius),
                       axis=1)
        assert np.any(boxed & ~meets)
        np.testing.assert_array_equal(frac > 0.0, meets)


def test_probe_element_fractions_cover_disk_area(disk50):
    probe = forward.PerturbationProbe(center=(0.0, 0.0), radius=1.0,
                                      amplitude=1.0, gamma_tilde=1.0, q_tilde=1.0)
    frac = forward.probe_element_fractions(disk50, probe)
    area, _, _ = disk50.geometry
    assert np.all((frac >= 0.0) & (frac <= 1.0))
    np.testing.assert_allclose((frac * area).sum(), probe.area, rtol=1e-9)


# ---------------------------------------------------------------------------
# probe definition and coefficient switching


def test_probe_validation():
    probe = forward.PerturbationProbe(center=(1.0, 2.0), radius=0.5,
                                      amplitude=2.0, gamma_tilde=0.5, q_tilde=3.0)
    assert isinstance(probe.center, hm.Point2)
    assert probe.area == pytest.approx(math.pi * 0.25)
    with pytest.raises(ValueError):
        forward.PerturbationProbe(center=(0, 0), radius=0.0, amplitude=1.0,
                                  gamma_tilde=1.0, q_tilde=1.0)
    with pytest.raises(ValueError):
        forward.PerturbationProbe(center=(0, 0), radius=0.5, amplitude=-1.0,
                                  gamma_tilde=1.0, q_tilde=1.0)
    with pytest.raises(ValueError):
        forward.PerturbationProbe(center=(0, 0), radius=0.5, amplitude=1.0,
                                  gamma_tilde=0.0, q_tilde=1.0)


def test_probe_must_stay_inside_known_zone(disk50, truth50):
    gamma, q = truth50
    # 5.9 + 0.2 reaches past 0.75 * 8 = 6
    probe = forward.PerturbationProbe(center=(5.9, 0.0), radius=0.2,
                                      amplitude=1.0, gamma_tilde=1.0, q_tilde=1.0)
    with pytest.raises(ValueError):
        forward.probe_sweep(disk50, gamma, q, 1.0, phase_bc(disk50), [probe])


# ---------------------------------------------------------------------------
# internal data: the gradient energy J and the mass energy j


def test_internal_data_of_zero_field(disk50, truth50):
    gamma, q = truth50
    u = fem.ComplexField(disk50, np.zeros(disk50.n_nodes))
    assert np.max(forward.gradient_energy(u, gamma)) == 0.0
    assert np.max(forward.mass_energy(u, q)) == 0.0


def test_internal_data_of_linear_field(disk50):
    x, y = disk50.nodes[:, 0], disk50.nodes[:, 1]
    u = fem.ComplexField(disk50, x + 1j * y)
    gamma = constant_field(disk50, 2.0)
    q = constant_field(disk50, 3.0)
    np.testing.assert_allclose(forward.gradient_energy(u, gamma), 4.0, rtol=1e-12)
    np.testing.assert_allclose(forward.mass_energy(u, q), 3.0 * (x ** 2 + y ** 2),
                               rtol=1e-12, atol=1e-12)


def test_internal_data_is_phase_invariant(disk50, truth50):
    gamma, q = truth50
    data = np.exp(1j * np.arctan2(disk50.nodes[disk50.boundary_nodes, 1],
                                  disk50.nodes[disk50.boundary_nodes, 0]))
    k = 0.8
    u1, _, _ = fem.solve_bvp(disk50, gamma, q, k, fem.BoundaryCondition("dirichlet", data))
    u2, _, _ = fem.solve_bvp(disk50, gamma, q, k,
                             fem.BoundaryCondition("dirichlet",
                                                   np.exp(0.7j) * data))
    np.testing.assert_allclose(forward.gradient_energy(u2, gamma),
                               forward.gradient_energy(u1, gamma),
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(forward.mass_energy(u2, q), forward.mass_energy(u1, q),
                               rtol=1e-10, atol=1e-12)


def test_two_frequency_data_refactors_the_first_factor(disk50, truth50,
                                                       monkeypatch):
    # m = 3's pair, both solves on the band: the k2 solve factors in the k1
    # solve's band storage, and the data are two fresh solves', bit for bit
    gamma, q = truth50
    k1, k2 = math.pi * 1e3, math.pi * 1e-3
    bc = fem.BoundaryCondition("dirichlet", forward.boundary_phase(disk50))
    fresh = [fem.solve_bvp(disk50, gamma, q, k, bc)[0] for k in (k1, k2)]
    work = []
    solve_bvp = fem.solve_bvp

    def recording_solve_bvp(*args, **kwargs):
        u, rel, lu = solve_bvp(*args, **kwargs)
        work.append(lu._solver.work)
        return u, rel, lu

    monkeypatch.setattr(fem, "solve_bvp", recording_solve_bvp)
    u1, u2, J, j = forward.two_frequency_data(disk50, gamma, q, k1, k2, bc)
    assert len(work) == 2 and np.shares_memory(work[1], work[0])
    np.testing.assert_array_equal(u1.values, fresh[0].values)
    np.testing.assert_array_equal(u2.values, fresh[1].values)
    np.testing.assert_array_equal(J, forward.gradient_energy(fresh[0], gamma))
    np.testing.assert_array_equal(j, forward.mass_energy(fresh[1], q))


# ---------------------------------------------------------------------------
# measurements


def test_measure_probe_requires_flux_data(disk50, truth50):
    gamma, q = truth50
    bc = fem.BoundaryCondition("dirichlet", np.ones(len(disk50.boundary_nodes)))
    probe = forward.PerturbationProbe(center=(2.3, 1.1), radius=0.3,
                                      amplitude=1.0, gamma_tilde=1.0, q_tilde=1.0)
    with pytest.raises(ValueError):
        forward.probe_sweep(disk50, gamma, q, 1.0, bc, [probe])


def test_noop_probe_measures_nothing(disk50, truth50):
    # Amplitude times inclusion equals the local truth: the perturbed system
    # is the unperturbed one and the datum must vanish against the scale of
    # the boundary energy itself.
    gamma, q = truth50
    bc = phase_bc(disk50)
    k = math.pi * 10.0
    probe = forward.PerturbationProbe(center=(5.0, 0.0), radius=0.5,
                                      amplitude=1.0, gamma_tilde=1.0, q_tilde=3.0)
    meas = measure_probe(disk50, gamma, q, k, bc, probe)
    u0, _, _ = fem.solve_bvp(disk50, gamma, q, k, bc)
    scale = abs(boundary_quadrature(disk50, u0.values, bc.data)) / probe.area
    assert abs(meas.D) <= 1e-8 * scale


def test_value_channel_probe_matches_prediction(disk100):
    # amplitude * gamma_tilde = gamma kills the gradient channel, leaving the
    # linear value channel that predict_probe models.
    gamma = constant_field(disk100, 1.0)
    q = constant_field(disk100, 3.0)
    k = 0.35
    bc = phase_bc(disk100)
    probe = forward.PerturbationProbe(center=(2.3, 1.1), radius=0.2,
                                      amplitude=2.0, gamma_tilde=0.5, q_tilde=3.0)
    meas = measure_probe(disk100, gamma, q, k, bc, probe)
    u, _, _ = fem.solve_bvp(disk100, gamma, q, k, bc)
    val, grad = forward.sample_field(u, (2.3, 1.1))
    pred = forward.predict_probe(1.0, 3.0, grad, val, k, probe)
    assert pred < 0.0
    assert abs(meas.D - pred) < 0.05 * abs(pred)


@pytest.mark.parametrize("gamma_tilde, sign", [(0.25, -1.0), (0.5, -1.0),
                                               (2.0, 1.0), (4.0, 1.0)])
def test_gradient_channel_sign_follows_contrast(disk100, gamma_tilde, sign):
    # b = 1 silences the value channel: the datum is F f(a) with F > 0, so
    # a weaker inclusion (a < 1) must read negative and a stronger one
    # positive, in the measurement and in the small-probe law alike
    gamma = constant_field(disk100, 1.0)
    q = constant_field(disk100, 3.0)
    k = 0.35
    bc = phase_bc(disk100)
    probe = forward.PerturbationProbe(center=(2.3, 1.1), radius=0.2,
                                      amplitude=1.0, gamma_tilde=gamma_tilde,
                                      q_tilde=3.0)
    meas = measure_probe(disk100, gamma, q, k, bc, probe)
    u, _, _ = fem.solve_bvp(disk100, gamma, q, k, bc)
    val, grad = forward.sample_field(u, (2.3, 1.1))
    pred = forward.predict_probe(1.0, 3.0, grad, val, k, probe)
    assert sign * meas.D > 0.0
    assert sign * pred > 0.0


def test_predict_probe_validation():
    probe = forward.PerturbationProbe(center=(0.0, 0.0), radius=0.1,
                                      amplitude=1.0, gamma_tilde=1.0, q_tilde=1.0)
    with pytest.raises(ValueError):
        forward.predict_probe(0.0, 1.0, (1.0, 0.0), 1.0, 1.0, probe)
    with pytest.raises(ValueError):
        forward.predict_probe(1.0, 1.0, (1.0, 0.0, 0.0), 1.0, 1.0, probe)


def truth_medium(mesh, phantom):
    return (hm.coefficient_from_phantom(mesh, phantom, "conductivity"),
            hm.coefficient_from_phantom(mesh, phantom, "permittivity"))


def sweep_cases(disk100, disk200, phantom):
    n = disk200.n_nodes
    flat = (fem.CoefficientField(disk200, np.full(n, 1.0)),
            fem.CoefficientField(disk200, np.full(n, 3.0)))
    truth = truth_medium(disk200, phantom)
    probe = forward.PerturbationProbe
    # criterion 3: the value channel alone at three radii
    crit3 = [probe(center=(2.3, 1.1), radius=r, amplitude=2.0, gamma_tilde=0.5,
                   q_tilde=3.0) for r in (0.4, 0.2, 0.1)]
    # a disk across the ellipse's edge, at four amplitudes
    t = math.radians(phantom.ellipse_angle_deg)
    a, _ = phantom.ellipse_semi_axes
    edge = (phantom.ellipse_center[0] + a * math.cos(t),
            phantom.ellipse_center[1] + a * math.sin(t))
    straddle = [probe(center=edge, radius=0.4, amplitude=lam, gamma_tilde=0.5,
                      q_tilde=1.0) for lam in (0.5, 1.5, 2.0, 3.0)]
    # two radii at one centre, interleaved
    two_radii = [probe(center=(-1.0, 1.5), radius=r, amplitude=lam,
                       gamma_tilde=2.0, q_tilde=1.0)
                 for lam in (0.5, 3.0) for r in (0.2, 0.5)]
    # the raw datum is about 1e-5 of the boundary energy (65), so forming it
    # as a difference of two full solutions loses about 1.6e-10 of it
    small = [probe(center=(2.3, 1.1), radius=0.1, amplitude=0.5,
                   gamma_tilde=0.5, q_tilde=3.0)]
    return {"criterion-3": (disk200, flat, crit3),
            "inclusion-edge": (disk200, truth, straddle),
            "two-radii": (disk200, truth, two_radii),
            "small-datum": (disk100, truth_medium(disk100, phantom), small)}


@pytest.mark.parametrize("case", ["criterion-3", "inclusion-edge", "two-radii",
                                  "small-datum"])
def test_probe_sweep_matches_measure_probe(disk100, disk200, phantom, case):
    mesh, (gamma, q), probes = sweep_cases(disk100, disk200, phantom)[case]
    bc = fem.BoundaryCondition("neumann", forward.boundary_phase(mesh))
    swept = forward.probe_sweep(mesh, gamma, q, 0.35, bc, probes)
    assert [m.probe for m in swept] == probes
    for got, probe in zip(swept, probes):
        want = measure_probe(mesh, gamma, q, 0.35, bc, probe)
        assert abs(got.D - want.D) <= 1e-10 * abs(want.D)
        assert abs(got.raw - want.raw) <= 1e-10 * abs(want.raw)


def test_probe_sweep_noop_probe_measures_nothing(disk50, truth50):
    gamma, q = truth50
    bc = phase_bc(disk50)
    k = math.pi * 10.0
    probe = forward.PerturbationProbe(center=(5.0, 0.0), radius=0.5,
                                      amplitude=1.0, gamma_tilde=1.0, q_tilde=3.0)
    (meas,) = forward.probe_sweep(disk50, gamma, q, k, bc, [probe])
    u0, _, _ = fem.solve_bvp(disk50, gamma, q, k, bc)
    scale = abs(boundary_quadrature(disk50, u0.values, bc.data)) / probe.area
    assert abs(meas.D) <= 1e-8 * scale


def test_probe_sweep_factors_once(disk100, factorizations):
    gamma = constant_field(disk100, 1.0)
    q = constant_field(disk100, 3.0)
    centres = [(0.0, 0.0), (2.0, 1.0), (-3.0, 2.0), (1.0, -4.0), (-2.0, -2.0), (4.0, 0.0)]
    probes = [forward.PerturbationProbe(center=c, radius=0.3, amplitude=lam,
                                        gamma_tilde=0.5, q_tilde=3.0)
              for c in centres for lam in (0.5, 1.5, 2.0, 3.0)]
    measured = forward.probe_sweep(disk100, gamma, q, 0.35, phase_bc(disk100), probes)
    assert len(measured) == 24
    assert [call.shape for call in factorizations] == [(disk100.n_nodes,
                                                         disk100.n_nodes)]


def test_probe_update_solve_is_gated():
    with pytest.raises(fem.SingularSystem):
        forward._update_solve(np.zeros((3, 3)), np.ones(3) + 1j)
    idx = np.arange(12)
    hilbert = 1.0 / (idx[:, None] + idx[None, :] + 1.0)
    rhs = np.random.default_rng(0).standard_normal(12) * (1 + 1j)
    with pytest.raises(fem.NonConvergence):
        forward._update_solve(hilbert, rhs)
    x = forward._update_solve(np.eye(3) * 2.0, np.array([2.0, 4j, 6.0]))
    np.testing.assert_array_equal(x, [1.0, 2j, 3.0])


# ---------------------------------------------------------------------------
# sampling and boundary data


def test_sample_field_linear_exact(disk50):
    x, y = disk50.nodes[:, 0], disk50.nodes[:, 1]
    u = fem.ComplexField(disk50, x + 1j * y)
    val, grad = forward.sample_field(u, (2.3, 1.1))
    assert val == pytest.approx(2.3 + 1.1j, rel=1e-12)
    np.testing.assert_allclose(grad, [1.0, 1j], rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError):
        forward.sample_field(u, (9.0, 0.0))


def test_sample_field_gradient_is_the_gradient_map_row(disk100):
    rng = np.random.default_rng(5)
    u = fem.ComplexField(disk100, rng.standard_normal(disk100.n_nodes)
                         + 1j * rng.standard_normal(disk100.n_nodes))
    tri = fem.gradient(u).tri_values
    for p in ((2.3, 1.1), (-4.0, 0.7), (0.0, 0.0), (5.2, -3.1), (-1.5, -5.5)):
        t, _ = forward._containing_triangle(disk100, *p)
        _, grad = forward.sample_field(u, p)
        assert grad.shape == (2,) and grad.dtype == np.complex128
        np.testing.assert_array_equal(grad, tri[t])


def linear_search_locate(mesh, x, y):
    """The containing element by testing every element, first hit in index
    order: the search the bounding-box prefilter narrows."""
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
    return int(hits[0]) if len(hits) else None


def test_point_location_matches_the_linear_search(disk100):
    # random interior points, every vertex (shared by several elements, so
    # the first in index order must win), points on edges, and points just
    # off a vertex, which the barycentric slack still puts in elements whose
    # bounding box they miss
    mesh = disk100
    rng = np.random.default_rng(31)
    radius = mesh.radius * np.sqrt(rng.random(400))
    angle = 2.0 * np.pi * rng.random(400)
    inside = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    a = mesh.nodes[mesh.triangles[::3, 0]]
    b = mesh.nodes[mesh.triangles[::3, 1]]
    t = rng.random((len(a), 1))
    on_edges = np.concatenate([a + t * (b - a), 0.5 * (a + b)])
    off_vertex = np.concatenate([mesh.nodes[::3] + 1e-13 * np.array(d)
                                 for d in ((1, 1), (1, -1), (-1, 1), (-1, -1))])
    points = np.concatenate([inside, mesh.nodes, on_edges, off_vertex])
    for x, y in points:
        want = linear_search_locate(mesh, x, y)
        if want is None:  # rounding put a boundary point outside the disk
            with pytest.raises(ValueError):
                forward._containing_triangle(mesh, x, y)
        else:
            got, bary = forward._containing_triangle(mesh, x, y)
            assert got == want
            # the coordinates locate the point in that element
            verts = mesh.nodes[mesh.triangles[got]]
            np.testing.assert_allclose(np.asarray(bary) @ verts, (x, y),
                                       rtol=0.0, atol=1e-12 * mesh.radius)
    with pytest.raises(ValueError):
        forward._containing_triangle(mesh, mesh.radius * 1.01, 0.0)


def test_boundary_phase_conventions(disk50):
    for convention in ("xy", "yx"):
        vals = forward.boundary_phase(disk50, convention)
        np.testing.assert_allclose(np.abs(vals), 1.0, rtol=1e-14)
    pts = disk50.nodes[disk50.boundary_nodes]
    np.testing.assert_allclose(forward.boundary_phase(disk50, "yx"),
                               np.exp(1j * np.arctan2(pts[:, 1], pts[:, 0])),
                               rtol=1e-14)
    np.testing.assert_allclose(forward.boundary_phase(disk50, "xy"),
                               np.exp(1j * np.arctan2(pts[:, 0], pts[:, 1])),
                               rtol=1e-14)
    with pytest.raises(ValueError):
        forward.boundary_phase(disk50, "polar")


def test_solve_bvp_default_phantom_finite(disk50, truth50):
    gamma, q = truth50
    u, _, _ = fem.solve_bvp(disk50, gamma, q, math.pi * 10.0, phase_bc(disk50))
    assert np.all(np.isfinite(u.values))
    assert np.max(np.abs(u.values)) > 0.0
