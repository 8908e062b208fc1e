"""Vectorized numpy kernels for P1 element assembly and gradient recovery.

Four functions cover the per-element loops: geometry, the local
stiffness/mass blocks (each mesh's assembly map is built from the unit
blocks, and the probe sweep's per-disk changes from scaled ones), and two
that only the tests call, as references for the mesh's gradient maps: exact
element gradients and their area-weighted nodal average. Scatter
accumulation uses bincount, which keeps them usable on meshes with a few
hundred thousand elements.
"""

import numpy as np

# name of the kernel implementation, for run reports
BACKEND = "python"

__all__ = [
    "BACKEND",
    "element_geometry",
    "local_matrices",
    "triangle_gradients",
    "nodal_average",
]


def element_geometry(nodes, triangles):
    """Per-triangle signed areas and P1 shape-gradient coefficients.

    The gradient of the hat function attached to local vertex i on element e
    is (b[e, i], c[e, i]) / (2 * area[e]).

    Parameters
    ----------
    nodes : (n_nodes, 2) float array
    triangles : (n_tris, 3) int array

    Returns
    -------
    area : (n_tris,) float array, signed (positive for ccw orientation)
    b, c : (n_tris, 3) float arrays
    """
    p0 = nodes[triangles[:, 0]]
    p1 = nodes[triangles[:, 1]]
    p2 = nodes[triangles[:, 2]]
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    area = 0.5 * (
        (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
        - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    )
    return area, b, c


def local_matrices(area, b, c, stiff_coeff, mass_coeff):
    """3x3 element contributions stiff_coeff*K_e + mass_coeff*M_e.

    K_e[i, j] = (b_i b_j + c_i c_j) / (4 area), the P1 stiffness of the
    element, and M_e = area/12 * (1 + delta_ij), the consistent mass.
    Signs and scalings (for instance -k^2 q) are the caller's business.
    """
    gs = stiff_coeff / (4.0 * area)
    data = gs[:, None, None] * (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    mscale = mass_coeff * area / 12.0
    data += mscale[:, None, None] * (1.0 + np.eye(3))[None, :, :]
    return data


def triangle_gradients(values, triangles, b, c, area):
    """Exact P1 gradient on each element for nodal values (complex ok)."""
    v = values[triangles]
    inv2a = 1.0 / (2.0 * area)
    gx = (v * b).sum(axis=1) * inv2a
    gy = (v * c).sum(axis=1) * inv2a
    return np.stack([gx, gy], axis=1)


def nodal_average(tri_values, triangles, area, n_nodes):
    """Area-weighted average of per-triangle values onto the nodes.

    tri_values may be (n_tris,) or (n_tris, k); complex supported.
    """
    tri_values = np.asarray(tri_values)
    flat_idx = triangles.ravel()
    w = np.repeat(area, 3)
    den = np.bincount(flat_idx, weights=w, minlength=n_nodes)

    def accumulate(col):
        vals = np.repeat(col, 3)
        out_r = np.bincount(flat_idx, weights=w * vals.real, minlength=n_nodes)
        if np.iscomplexobj(tri_values):
            out_i = np.bincount(flat_idx, weights=w * vals.imag, minlength=n_nodes)
            return out_r + 1j * out_i
        return out_r

    if tri_values.ndim == 1:
        return accumulate(tri_values) / den
    cols = [accumulate(tri_values[:, j]) / den for j in range(tri_values.shape[1])]
    return np.stack(cols, axis=1)
