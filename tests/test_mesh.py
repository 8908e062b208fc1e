import math

import numpy as np
import pytest

from helmpert import mesh as hm

from conftest import max_element_diameter


def _boundary_edge_check(mesh):
    """Every boundary edge in exactly one triangle, interior edges in two."""
    counts = {}
    for tri in mesh.triangles:
        for i in range(3):
            a, b = int(tri[i]), int(tri[(i + 1) % 3])
            counts[(min(a, b), max(a, b))] = counts.get((min(a, b), max(a, b)), 0) + 1
    loop = mesh.boundary_nodes
    boundary_edges = {(min(int(a), int(b)), max(int(a), int(b)))
                      for a, b in zip(loop, np.roll(loop, -1))}
    for edge, count in counts.items():
        if edge in boundary_edges:
            assert count == 1, f"boundary edge {edge} in {count} triangles"
        else:
            assert count == 2, f"interior edge {edge} in {count} triangles"
    assert set(counts) >= boundary_edges


@pytest.mark.parametrize("n", [50, 100, 200])
def test_disk_mesh_invariants(n):
    mesh = hm.build_disk_mesh(8.0, n)
    assert len(mesh.boundary_nodes) == n
    radii = np.hypot(mesh.nodes[mesh.boundary_nodes, 0],
                     mesh.nodes[mesh.boundary_nodes, 1])
    np.testing.assert_allclose(radii, 8.0, rtol=1e-12)
    # equally spaced in angle, one closed increasing loop
    ang = np.arctan2(mesh.nodes[mesh.boundary_nodes, 1],
                     mesh.nodes[mesh.boundary_nodes, 0])
    steps = np.diff(np.unwrap(ang))
    np.testing.assert_allclose(steps, 2 * math.pi / n, rtol=1e-9)
    assert np.all(mesh.element_areas > 0)
    assert abs(mesh.element_areas.sum() - math.pi * 64) < 0.02 * math.pi * 64
    arc = 2 * math.pi * 8.0 / n
    assert max_element_diameter(mesh) <= 3.0 * arc
    _boundary_edge_check(mesh)


def test_edge_counts_match_the_row_unique(disk50):
    # the 1-D keys lo n + hi sort in the lexicographic order of (lo, hi)
    t = disk50.triangles
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                    axis=1)
    want, want_counts = np.unique(edges, axis=0, return_counts=True)
    got, counts = hm._edge_counts(t)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(counts, want_counts)
    assert got.dtype == want.dtype


def test_mesh_400_boundary_points():
    mesh = hm.build_disk_mesh(8.0, 400)
    assert len(mesh.boundary_nodes) == 400


def test_unit_disk_16_points_basics():
    mesh = hm.build_disk_mesh(1.0, 16)
    assert len(mesh.boundary_nodes) == 16
    assert np.all(mesh.element_areas > 0)
    _boundary_edge_check(mesh)


@pytest.mark.xfail(
    strict=True,
    reason="a triangulation with 16 straight boundary edges covers at most "
           "the inscribed 16-gon, whose area is 2.55% below the disk; the "
           "2% figure is unreachable at this resolution")
def test_unit_disk_16_points_area_within_2_percent():
    mesh = hm.build_disk_mesh(1.0, 16)
    assert abs(mesh.element_areas.sum() - math.pi) < 0.02 * math.pi


def test_rejects_degenerate_boundary_counts():
    with pytest.raises(ValueError):
        hm.build_disk_mesh(8.0, 8)
    with pytest.raises(ValueError):
        hm.build_disk_mesh(8.0, 15)
    with pytest.raises(ValueError):
        hm.build_disk_mesh(8.0, 50.7)  # a fractional count, not 50
    with pytest.raises(ValueError):
        hm.build_disk_mesh(0.0, 50)


def test_refinement_halves_max_diameter():
    for n in (16, 50, 100):
        coarse = max_element_diameter(hm.build_disk_mesh(8.0, n))
        fine = max_element_diameter(hm.build_disk_mesh(8.0, 2 * n))
        assert fine <= 0.5 * coarse


def test_classify_point_examples(phantom):
    assert hm.classify_point((0.0, 0.0), phantom) == hm.RegionTag.BACKGROUND
    assert hm.classify_point((7.0, 0.0), phantom) == hm.RegionTag.NEAR_BOUNDARY
    centroid = np.mean(np.asarray(phantom.triangle_vertices), axis=0)
    assert hm.classify_point(tuple(centroid), phantom) == hm.RegionTag.TRIANGLE
    assert hm.classify_point(phantom.ellipse_center, phantom) == hm.RegionTag.ELLIPSE
    assert hm.classify_point((0.0, -3.0), phantom) == hm.RegionTag.LSHAPE


def classify_point_by_point(x, y, phantom):
    """Scalar reference of the region rule: open interiors, annulus first."""
    if math.hypot(x, y) > phantom.annulus_radius:
        return hm.RegionTag.NEAR_BOUNDARY
    (x0, y0), (x1, y1), (x2, y2) = phantom.triangle_vertices
    d = [(x1 - x0) * (y - y0) - (y1 - y0) * (x - x0),
         (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1),
         (x0 - x2) * (y - y2) - (y0 - y2) * (x - x2)]
    if all(v > 0 for v in d) or all(v < 0 for v in d):
        return hm.RegionTag.TRIANGLE
    cx, cy = phantom.ellipse_center
    a, b = phantom.ellipse_semi_axes
    t = math.radians(phantom.ellipse_angle_deg)
    u = (x - cx) * math.cos(t) + (y - cy) * math.sin(t)
    v = -(x - cx) * math.sin(t) + (y - cy) * math.cos(t)
    if (u / a) ** 2 + (v / b) ** 2 < 1.0:
        return hm.RegionTag.ELLIPSE
    if any(x0 < x < x1 and y0 < y < y1 for x0, x1, y0, y1 in phantom.lshape_rects):
        return hm.RegionTag.LSHAPE
    return hm.RegionTag.BACKGROUND


def test_vectorized_classification_matches_point_rule(phantom):
    for n in (50, 100, 200, 400):
        mesh = hm.build_disk_mesh(8.0, n)
        want = [classify_point_by_point(x, y, phantom) for x, y in mesh.nodes]
        assert list(hm.classify_nodes(mesh, phantom)) == want
    grid = [(float(x), float(y)) for x in range(-6, 7) for y in range(-6, 7)]
    # on the annulus circle np.hypot and math.hypot differ in the last bit
    circle = [(phantom.annulus_radius * math.cos(t), phantom.annulus_radius * math.sin(t))
              for t in np.linspace(0.0, 2.0 * math.pi, 1001)]
    (x0, y0), (x1, y1), _ = phantom.triangle_vertices
    edge = [(x0 + t * (x1 - x0), y0 + t * (y1 - y0)) for t in np.linspace(0, 1, 11)]
    scattered = [tuple(p) for p in np.random.default_rng(3).uniform(-9.0, 9.0, (2000, 2))]
    for x, y in grid + circle + edge + scattered:
        assert hm.classify_point((x, y), phantom) == classify_point_by_point(x, y, phantom)


def test_classify_partition(disk50, phantom):
    radii = disk50.node_radii()
    tags = hm.classify_nodes(disk50, phantom)
    for tag, r in zip(tags, radii):
        assert tag in hm.RegionTag.ALL
        assert (tag == hm.RegionTag.NEAR_BOUNDARY) == (r > phantom.annulus_radius)


def test_coefficient_values(disk50, phantom):
    gamma = hm.coefficient_from_phantom(disk50, phantom, "conductivity")
    q = hm.coefficient_from_phantom(disk50, phantom, "permittivity")
    tags = np.array(hm.classify_nodes(disk50, phantom))
    assert np.all(gamma.values[tags == hm.RegionTag.BACKGROUND] == 1.0)
    assert np.all(q.values[tags == hm.RegionTag.ELLIPSE] == 1.0)
    assert np.all(gamma.values[tags == hm.RegionTag.LSHAPE] == 3.05)
    assert np.all(q.values[tags == hm.RegionTag.TRIANGLE] == 2.0)
    for field in (gamma, q):
        table = phantom.values("conductivity" if field is gamma else "permittivity")
        assert field.values.min() >= min(table.values())
        assert field.values.max() <= max(table.values())
        assert field.values.min() > 0
    with pytest.raises(ValueError):
        phantom.values("density")


@pytest.mark.parametrize("which, value", [
    ("conductivity", -1.0), ("conductivity", 0.0), ("permittivity", math.nan),
    ("permittivity", math.inf)])
def test_phantom_rejects_nonpositive_or_non_finite_values(which, value):
    # the method's hypotheses: a coercive conductivity and a positive
    # permittivity, in every region
    values = dict(hm.PhantomSpec().values(which), lshape=value)
    with pytest.raises(ValueError, match=f"{which} of region lshape"):
        hm.PhantomSpec(**{which: values})


def test_mesh_save_load_round_trip(tmp_path, disk50):
    path = tmp_path / "mesh.txt"
    hm.save_mesh(disk50, path)
    loaded = hm.load_mesh(path)
    np.testing.assert_array_equal(loaded.nodes, disk50.nodes)
    np.testing.assert_array_equal(loaded.triangles, disk50.triangles)
    np.testing.assert_array_equal(loaded.boundary_nodes, disk50.boundary_nodes)
    assert [a.dtype for a in (loaded.nodes, loaded.triangles, loaded.boundary_nodes)] \
        == [np.float64, np.int32, np.int32]
    assert loaded.radius == disk50.radius
    assert loaded.n_boundary_points == disk50.n_boundary_points
    # determinism of the generator and the writer
    path2 = tmp_path / "mesh2.txt"
    hm.save_mesh(hm.build_disk_mesh(8.0, 50), path2)
    assert path.read_text() == path2.read_text()
