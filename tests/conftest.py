import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from helmpert import disentangle, fem
from helmpert import mesh as hm

settings.register_profile(
    "suite", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


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


def max_element_diameter(mesh):
    """Longest element edge of the mesh."""
    p = mesh.nodes[mesh.triangles]
    return float(max(np.hypot(*(p[:, i] - p[:, (i + 1) % 3]).T).max()
                     for i in range(3)))


def model_datum(F, G, a, b, lam):
    """Forward evaluation of the four-parameter datum model of disentangle."""
    return F * disentangle.f_contrast(a * lam) + G * (b * lam - 1.0)
