"""Field norms, trace extrema, and the frequency/mesh sweep grid."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helmpert import diagnostics as diag
from helmpert import fem
from helmpert import mesh as hm
from helmpert import reconstruct as rc

from conftest import constant_field, interior_mask

K1 = math.pi * 1e3
K2 = math.pi * 1e-3


def base_config(**overrides):
    return rc.ReconstructionConfig(k1=K1, k2=K2, **overrides)


# ---------------------------------------------------------------------------
# norms


def test_field_norms_sup_of_constant(disk50):
    f = constant_field(disk50, 4.0)
    mask = interior_mask(disk50)
    linf, _, _ = fem.masked_field_norms(disk50, f.values, mask)
    assert linf == 4.0
    linf, _, _ = fem.masked_field_norms(
        disk50, np.full(disk50.n_nodes, -2.0 + 0j), mask)
    assert linf == 2.0


@given(st.integers(0, 2 ** 32 - 1))
def test_norm_inequality_l2_sq_below_l1_linf(seed):
    # Cauchy-Schwarz with the shared quadrature measure; holds for any field.
    mesh = test_norm_inequality_l2_sq_below_l1_linf.mesh
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(mesh.n_nodes) * 10.0 ** rng.uniform(-3, 3)
    linf, l1, l2 = fem.masked_field_norms(mesh, values + 0j,
                                          np.ones(mesh.n_nodes, dtype=bool))
    assert l2 ** 2 <= l1 * linf * (1.0 + 1e-12)


test_norm_inequality_l2_sq_below_l1_linf.mesh = hm.build_disk_mesh(8.0, 50)


# ---------------------------------------------------------------------------
# extrema series: the per-iteration breakdown indicators of the trace


def test_extrema_series_matches_trace(disk50):
    trace = diag.synthetic_run(disk50, base_config())
    assert trace.status == rc.STATUS_CONVERGED
    n = len(trace.records)
    np.testing.assert_array_equal([r.iteration for r in trace.records],
                                  np.arange(1, n + 1))
    # the low-frequency field keeps a healthy floor on a convergent run
    assert trace.records[-1].min_u_sq > 1e-3


def test_extrema_series_on_a_diverging_run(disk50):
    cfg = rc.ReconstructionConfig(k1=math.pi * 10.0, k2=math.pi / 10.0)
    trace = diag.synthetic_run(disk50, cfg)
    assert trace.status == rc.STATUS_DIVERGED
    drops = np.diff([r.min_u_sq for r in trace.records])
    assert np.all(drops < 0.0)


# ---------------------------------------------------------------------------
# sweeps


def test_frequency_sweep_known_cells(disk50):
    sweep = diag.frequency_sweep(base_config(), exponents=[1, 3],
                                 mesh_points=[50])
    statuses = sweep.statuses()
    assert statuses["m=3;mesh=50"] == rc.STATUS_CONVERGED
    assert statuses["m=1;mesh=50"] == rc.STATUS_DIVERGED
    assert not sweep.all_converged()
    assert list(sweep.traces) == [(1, 50), (3, 50)]
    trace = sweep.traces[(3, 50)]
    assert trace.records[-1].misfit_J_linf < 1e-3
    assert [r.iteration for r in trace.records] == \
        list(range(1, len(trace.records) + 1))


def test_frequency_sweep_empty_grid():
    sweep = diag.frequency_sweep(base_config(), exponents=[], mesh_points=[50])
    assert sweep.traces == {}
    assert sweep.all_converged()  # vacuously


def test_frequency_sweep_records_failures_without_aborting(tmp_path):
    # mesh_points=8 is below the mesh builder's minimum: that cell fails,
    # the valid cell still completes.
    sweep = diag.frequency_sweep(base_config(), exponents=[3],
                                 mesh_points=[8, 50])
    statuses = sweep.statuses()
    assert statuses["m=3;mesh=8"] == diag.STATUS_FAILED
    assert statuses["m=3;mesh=50"] == rc.STATUS_CONVERGED
    failed = sweep.traces[(3, 8)]
    assert "ValueError" in failed.detail
    assert failed.records == []
    # the summary row of a cell without records
    path = tmp_path / "summary.csv"
    diag.save_sweep_summary_csv(path, sweep)
    row = path.read_text().splitlines()[1].split(",")
    assert row[:7] == ["m=3;mesh=8", "3", "8", diag.STATUS_FAILED, "0",
                       "nan", "nan"]


def test_frequency_sweep_rejects_fractional_cells(monkeypatch):
    # m = 2.5 is not the m=2 cell, nor 20.9 points the mesh-20 one; the
    # check comes before any cell runs
    ran = []
    monkeypatch.setattr(diag, "synthetic_run", lambda *args: ran.append(args))
    for exponents, mesh_points in (([2.5], [50]), ([3], [20.9])):
        with pytest.raises(ValueError):
            diag.frequency_sweep(base_config(), exponents, mesh_points)
    assert ran == []


def test_frequency_sweep_thread_determinism(tmp_path):
    # two cells, so jobs=2 runs them on the pool
    serial = diag.frequency_sweep(base_config(), exponents=[1, 3],
                                  mesh_points=[50], jobs=1)
    threaded = diag.frequency_sweep(base_config(), exponents=[1, 3],
                                    mesh_points=[50], jobs=2)
    assert list(serial.traces) == list(threaded.traces)
    p1, p2 = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    for cell in serial.traces:
        rc.save_trace_csv(p1, serial.traces[cell])
        rc.save_trace_csv(p2, threaded.traces[cell])
        assert p1.read_bytes() == p2.read_bytes()


def test_save_sweep_summary_csv(tmp_path):
    sweep = diag.frequency_sweep(base_config(), exponents=[1, 3],
                                 mesh_points=[50])
    path = tmp_path / "summary.csv"
    diag.save_sweep_summary_csv(path, sweep)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(sweep.traces)
    assert lines[0].startswith("config,m,mesh_points,status")
    assert "m=1;mesh=50" in lines[1] and "Diverged" in lines[1]
    assert "m=3;mesh=50" in lines[2] and "Converged" in lines[2]
