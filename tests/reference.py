"""Reference paths the tests compare the package against.

None of these runs in the program. measure_probe is the probe datum by two
full factorizations per probe, the reference for forward.probe_sweep and
forward.measure_on_medium; triangle_gradients and nodal_average are the
element gradients and their area-weighted nodal average, the references for
the mesh's gradient maps that fem.gradient applies.
"""

import numpy as np

from helmpert import fem, forward
from helmpert.fem import BoundaryCondition, CoefficientField
from helmpert.forward import PerturbationProbe, ProbeMeasurement
from helmpert.mesh import TriangleMesh


def measure_probe(
    mesh: TriangleMesh,
    gamma: CoefficientField,
    q: CoefficientField,
    k: float,
    bc: BoundaryCondition,
    probe: PerturbationProbe,
) -> ProbeMeasurement:
    """Solve with and without the probe and form the rescaled datum.

    The perturbed operator A + dA blends element coefficients with the exact
    covered fraction from ``probe_element_fractions``. d = u - u_w solves
    (A + dA) d = dA u, so the datum, the boundary integral of d against the
    conjugated data, subtracts no two full solutions; D is its real part
    divided by the exact disk area. The orientation (unperturbed minus
    perturbed) matches ``predict_probe`` in sign; the imaginary residue is
    kept for diagnostics.
    """
    forward._check_medium(mesh, gamma, q, bc)
    forward._check_disks(mesh.radius, [probe])
    matrix, rhs = fem.assemble(mesh, gamma, q, k, bc)
    u, _ = fem.Factor(matrix).solve(rhs)

    ge = fem.element_average(mesh, gamma.values)
    qe = fem.element_average(mesh, q.values)
    frac = forward.probe_element_fractions(mesh, probe)
    stiff_e = ge + frac * (probe.amplitude * probe.gamma_tilde - ge)
    mass_e = -(k ** 2) * (qe + frac * (probe.amplitude * probe.q_tilde - qe))
    perturbed = fem.assemble_operator_elementwise(mesh, stiff_e, mass_e)
    d, _ = fem.Factor(perturbed).solve((perturbed - matrix) @ u)

    w = fem.boundary_weights(mesh)
    raw = complex(np.sum(w * d[mesh.boundary_nodes] * np.conj(bc.data)))
    return ProbeMeasurement(probe=probe, D=raw.real / probe.area, raw=raw)


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
