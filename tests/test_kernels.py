"""Assembly kernels against independent per-element references, on real mesh data.

Single-triangle K/M and the exact gradient of a linear field are covered in
test_fem.py; these tests hold the vectorized kernels, and the nodal average
of tests/reference.py, to plain loops over the element formulas.
"""

import numpy as np
import pytest

from helmpert import kernels

from reference import nodal_average


def test_backend_reports_known_name():
    assert kernels.BACKEND == "python"
    for name in ("element_geometry", "local_matrices"):
        assert callable(getattr(kernels, name))


def test_local_matrices_match_per_element_loop(disk50):
    area, b, c = kernels.element_geometry(disk50.nodes, disk50.triangles)
    rng = np.random.default_rng(3)
    stiff = rng.uniform(0.5, 4.0, size=area.size)
    mass = rng.uniform(-2.0, 2.0, size=area.size)  # signed, like -k^2 q
    got = kernels.local_matrices(area, b, c, stiff, mass)
    assert got.shape == (area.size, 3, 3)
    for e in range(area.size):
        ref = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                k_ij = (b[e, i] * b[e, j] + c[e, i] * c[e, j]) / (4.0 * area[e])
                m_ij = area[e] / 12.0 * (2.0 if i == j else 1.0)
                ref[i, j] = stiff[e] * k_ij + mass[e] * m_ij
        np.testing.assert_allclose(got[e], ref, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("shape", ["flat-real", "flat-complex", "stacked"])
def test_nodal_average_matches_loop_and_keeps_constants(disk50, shape):
    area, _, _ = kernels.element_geometry(disk50.nodes, disk50.triangles)
    tris = disk50.triangles
    n_tris = tris.shape[0]
    rng = np.random.default_rng(5)
    if shape == "flat-real":
        tri_values = rng.standard_normal(n_tris)
        const = np.full(n_tris, 2.5)
    elif shape == "flat-complex":
        tri_values = rng.standard_normal(n_tris) + 1j * rng.standard_normal(n_tris)
        const = np.full(n_tris, 2.5 - 1.5j)
    else:
        tri_values = (rng.standard_normal((n_tris, 2))
                      + 1j * rng.standard_normal((n_tris, 2)))
        const = np.tile([2.5 - 1.5j, -0.5 + 4.0j], (n_tris, 1))

    got = nodal_average(tri_values, tris, area, disk50.n_nodes)
    num = np.zeros((disk50.n_nodes,) + tri_values.shape[1:], dtype=tri_values.dtype)
    den = np.zeros(disk50.n_nodes)
    for e in range(n_tris):
        for v in tris[e]:
            num[v] += area[e] * tri_values[e]
            den[v] += area[e]
    ref = num / den.reshape((-1,) + (1,) * (num.ndim - 1))
    assert got.shape == ref.shape
    assert np.iscomplexobj(got) == np.iscomplexobj(tri_values)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)

    flat = nodal_average(const, tris, area, disk50.n_nodes)
    np.testing.assert_allclose(flat, np.broadcast_to(const[0], flat.shape),
                               rtol=1e-14, atol=0.0)

