"""Vectorized numpy kernels for P1 element assembly.

Two functions cover the per-element loops: geometry, and the local
stiffness/mass blocks (each mesh's assembly map is built from the unit
blocks, and the probe sweep's per-disk changes from scaled ones). The
references for the mesh's gradient maps, exact element gradients and their
area-weighted nodal average, are in tests/reference.py.
"""

import numpy as np

# name of the kernel implementation, for run reports
BACKEND = "python"

__all__ = [
    "BACKEND",
    "element_geometry",
    "local_matrices",
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
