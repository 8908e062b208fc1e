from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, settings

from helmpert import disentangle, fem
from helmpert import mesh as hm

settings.register_profile(
    "suite", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


class Factorization(NamedTuple):
    """One factorization: kind is "band" for a banded Cholesky, else
    fem.LU_ORDERING for the SuperLU LU; solver is what fem._factorize
    returned."""

    kind: str
    shape: tuple
    dtype: np.dtype
    solver: object


@pytest.fixture
def factorizations(monkeypatch):
    """Every factorization of either kind, recorded at fem._factorize, the
    one call that makes them."""
    calls = []
    real_factorize = fem._factorize

    def recording_factorize(csr, reuse=None):
        solver = real_factorize(csr, reuse)
        kind = "band" if isinstance(solver, fem.BandCholesky) else fem.LU_ORDERING
        calls.append(Factorization(kind, csr.shape, csr.dtype, solver))
        return solver

    monkeypatch.setattr(fem, "_factorize", recording_factorize)
    return calls


@pytest.fixture(scope="session")
def disk50():
    return hm.build_disk_mesh(8.0, 50)


@pytest.fixture(scope="session")
def disk100():
    return hm.build_disk_mesh(8.0, 100)


@pytest.fixture(scope="session")
def disk200():
    return hm.build_disk_mesh(8.0, 200)


@pytest.fixture(scope="session")
def disk400():
    return hm.build_disk_mesh(8.0, 400)


@pytest.fixture(scope="session")
def phantom():
    return hm.PhantomSpec()


@pytest.fixture(scope="session")
def truth50(disk50, phantom):
    gamma = hm.coefficient_from_phantom(disk50, phantom, "conductivity")
    q = hm.coefficient_from_phantom(disk50, phantom, "permittivity")
    return gamma, q


def constant_field(mesh, value):
    return fem.CoefficientField(mesh=mesh, values=np.full(mesh.n_nodes, float(value)))


def interior_mask(mesh):
    """Boolean per node: not a boundary node."""
    mask = np.ones(mesh.n_nodes, dtype=bool)
    mask[mesh.boundary_nodes] = False
    return mask


def eliminate_by_products(mesh, matrix, rhs, values=None):
    """Dirichlet elimination of every nodal block of a stacked matrix by
    diagonal products: the reference for the gathered elimination (it drops
    explicit zeros, which the gather keeps)."""
    n = matrix.shape[0]
    bnodes = np.concatenate([mesh.boundary_nodes + offset
                             for offset in range(0, n, mesh.n_nodes)])
    interior = np.ones(n)
    interior[bnodes] = 0.0
    if values is None:
        rhs = rhs * interior
    else:
        u_bc = np.zeros(n, dtype=np.result_type(rhs, values))
        u_bc[bnodes] = values
        rhs = rhs - matrix @ u_bc
        rhs[bnodes] = values
    d_int = sp.diags(interior)
    return (d_int @ matrix @ d_int + sp.diags(1.0 - interior)).tocsr(), rhs


def boundary_quadrature(mesh, f, g):
    """The integral of f conj(g) along the boundary loop by
    fem.boundary_weights, f nodal and g per boundary node."""
    return np.sum(fem.boundary_weights(mesh) * f[mesh.boundary_nodes] * np.conj(g))


def max_element_diameter(mesh):
    """Longest element edge of the mesh."""
    p = mesh.nodes[mesh.triangles]
    return float(max(np.hypot(*(p[:, i] - p[:, (i + 1) % 3]).T).max()
                     for i in range(3)))


def model_datum(F, G, a, b, lam):
    """Forward evaluation of the four-parameter datum model of disentangle."""
    return F * disentangle.f_contrast(a * lam) + G * (b * lam - 1.0)
