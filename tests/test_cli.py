"""Command-line driver: config handling, artifacts, exit codes."""

import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from helmpert import cli, fem
from helmpert import mesh as hm
from helmpert import reconstruct as rc


def run_cli(*args):
    return cli.main([str(a) for a in args])


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [row[key] for row in rows] for key in rows[0]} if rows else {}


def constant_phantom_config(gamma=1.0, q=3.0):
    regions = ["background", "triangle", "ellipse", "lshape", "near_boundary"]
    return {"phantom": {"conductivity": {r: gamma for r in regions},
                        "permittivity": {r: q for r in regions}}}


# ---------------------------------------------------------------------------
# mesh


def test_mesh_command_writes_loadable_mesh(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("mesh", "--out", out) == 0
    mesh = hm.load_mesh(out / "mesh.txt")
    assert len(mesh.boundary_nodes) == 50
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "mesh"
    assert sorted(manifest["artifacts"]) == ["config_echo.json", "mesh.txt"]
    assert manifest["summary"]["n_nodes"] == mesh.n_nodes
    assert "nodes" in capsys.readouterr().out


def test_mesh_command_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("mesh", "--out", a) == 0
    assert run_cli("mesh", "--out", b) == 0
    assert (a / "mesh.txt").read_bytes() == (b / "mesh.txt").read_bytes()


def test_mesh_points_flag_override(tmp_path):
    out = tmp_path / "out"
    assert run_cli("mesh", "--out", out, "--mesh-points", 80) == 0
    mesh = hm.load_mesh(out / "mesh.txt")
    assert len(mesh.boundary_nodes) == 80
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["mesh"]["n_boundary_points"] == 80


def test_mesh_rejects_too_few_boundary_points(tmp_path, capsys):
    assert run_cli("mesh", "--out", tmp_path / "out", "--mesh-points", 8) == 2
    assert "configuration error" in capsys.readouterr().err


def test_mesh_rejects_fractional_boundary_points(tmp_path, capsys):
    # 50.7 points is not the 50-point mesh the echo would then misreport
    cfg = write_config(tmp_path, {"mesh": {"n_boundary_points": 50.7}})
    out = tmp_path / "out"
    assert run_cli("mesh", "--config", cfg, "--out", out) == 2
    assert "n_boundary_points" in capsys.readouterr().err
    assert not (out / "mesh.txt").exists()


# ---------------------------------------------------------------------------
# config handling


def test_unknown_config_key_rejected(tmp_path, capsys):
    # a phantom region is a RegionTag value; any other name is an unknown key
    for doc, key in (({"mesh": {"n_boundary_pts": 50}}, "n_boundary_pts"),
                     ({"phantom": {"conductivity": {"sphere": 2.0}}}, "sphere")):
        cfg = write_config(tmp_path, doc)
        assert run_cli("mesh", "--config", cfg, "--out", tmp_path / "out") == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, key", [
    ("reconstruct", {"phantom": {"annulus_radius": None}},
     "phantom.annulus_radius"),
    ("reconstruct", {"mesh": {"n_boundary_points": None}},
     "mesh.n_boundary_points"),
    ("reconstruct", {"reconstruction": {"damping": None}},
     "reconstruction.damping"),
    ("probe", {"probes": {"gamma_tilde": None},
               "boundary": {"condition": "neumann"}}, "probes.gamma_tilde"),
    ("probe", {"probes": {"radii": [0.4, None]},
               "boundary": {"condition": "neumann"}}, "probes.radii"),
], ids=["annulus_radius", "n_boundary_points", "damping", "gamma_tilde",
        "radii"])
def test_null_config_value_rejected(tmp_path, capsys, command, doc, key):
    # a null where a value belongs is a configuration error (exit 2), not
    # a crash; frequencies.m, k1, k2 and probes.grid_spacing may be null
    cfg = write_config(tmp_path, doc)
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("command, doc, key", [
    ("reconstruct", {"reconstruction": {"damping": [1.0]}},
     "reconstruction.damping"),
    ("probe", {"probes": {"radii": 0.4}, "boundary": {"condition": "neumann"}},
     "probes.radii"),
    ("mesh", {"mesh": {"radius": "8"}}, "mesh.radius"),
    ("reconstruct", {"reconstruction": {"max_iterations": True}},
     "reconstruction.max_iterations"),
], ids=["damping", "radii", "radius", "max_iterations"])
def test_wrong_type_config_value_rejected(tmp_path, capsys, command, doc, key):
    # a value of another JSON type than its default is a configuration
    # error (exit 2) before anything runs or is written: not a crash, a
    # string echoed as the mesh radius, or a boolean read as one iteration
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (out / "config_echo.json").exists()


@pytest.mark.parametrize("command, doc, key", [
    ("forward", {"phantom": {"ellipse_center": [1]}}, "phantom.ellipse_center"),
    ("probe", {"probes": {"centers": [[1]]}, "boundary": {"condition": "neumann"}},
     "probes.centers[0]"),
    ("mesh", {"phantom": {"ellipse_center": [1]}}, "phantom.ellipse_center"),
], ids=["forward", "probe", "mesh"])
def test_wrong_length_config_list_rejected(tmp_path, capsys, command, doc, key):
    # a point, a semi-axis pair, a rectangle or the triangle's vertex list
    # of another length is a configuration error naming the key, not an
    # unpacking error, and not a phantom the mesh command echoes
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (out / "config_echo.json").exists()


def test_fractional_max_iterations_rejected(tmp_path, capsys):
    # 2.5 iterations is not the 2 the loop would run while the echo
    # recorded 2.5
    cfg = write_config(tmp_path, {"reconstruction": {"max_iterations": 2.5},
                                  "mesh": {"n_boundary_points": 50}})
    out = tmp_path / "out"
    assert run_cli("reconstruct", "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert "reconstruction.max_iterations" in err and "Traceback" not in err
    assert not (out / "config_echo.json").exists()


def test_phantom_section_reads_back_the_default_phantom():
    assert cli.phantom_from_config(cli.default_config()) == hm.PhantomSpec()


def test_reconstruction_section_reads_back_the_default_settings():
    cfg = cli.default_config()
    k1, k2 = cli.resolve_frequencies(cfg)
    mesh = hm.build_disk_mesh(8.0, 50)
    got = cli._reconstruction_config(cfg, mesh, cli.phantom_from_config(cfg),
                                     k1, k2)
    assert dataclasses.replace(got, boundary_data=None) == \
        rc.ReconstructionConfig(k1, k2)


def test_output_formats_is_not_a_config_key(tmp_path, capsys):
    # every artifact is CSV or JSON; there is no format switch to set
    cfg = write_config(tmp_path, {"output": {"formats": ["vtk"]}})
    assert run_cli("mesh", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "formats" in capsys.readouterr().err


def test_malformed_json_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("mesh", "--config", bad, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_eps_precision_flag_lands_in_echo(tmp_path):
    out = tmp_path / "out"
    assert run_cli("mesh", "--out", out, "--eps-precision", 1e-5) == 0
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["reconstruction"]["eps_precision"] == 1e-5


# ---------------------------------------------------------------------------
# forward


def test_forward_default_outputs(tmp_path):
    out = tmp_path / "out"
    assert run_cli("forward", "--out", out) == 0
    for name in ("field_k1.csv", "field_k2.csv", "internal_data.csv"):
        assert (out / name).exists()
    data = read_csv_columns(out / "internal_data.csv")
    J = np.array([float(v) for v in data["J"]])
    j = np.array([float(v) for v in data["j"]])
    assert np.all(J >= 0.0) and np.all(j >= 0.0)
    assert J.max() > 0.0 and j.max() > 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["k1"] == pytest.approx(math.pi * 1e3)
    assert manifest["summary"]["k2"] == pytest.approx(math.pi * 1e-3)


def test_forward_constant_medium_constant_data(tmp_path):
    doc = constant_phantom_config(gamma=1.0, q=3.0)
    doc["frequencies"] = {"k1": 0.0, "k2": 0.0, "m": None}
    doc["boundary"] = {"condition": "dirichlet", "profile": "constant",
                       "value": 2.0}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_cli("forward", "--config", cfg, "--out", out) == 0
    field = read_csv_columns(out / "field_k1.csv")
    u_re = np.array([float(v) for v in field["u_re"]])
    u_im = np.array([float(v) for v in field["u_im"]])
    np.testing.assert_allclose(u_re, 2.0, rtol=1e-12)
    np.testing.assert_allclose(u_im, 0.0, atol=1e-12)
    data = read_csv_columns(out / "internal_data.csv")
    np.testing.assert_allclose([float(v) for v in data["j"]], 12.0, rtol=1e-9)
    np.testing.assert_allclose([float(v) for v in data["J"]], 0.0, atol=1e-9)


def test_forward_zero_frequency_flux_is_reported(tmp_path, capsys):
    doc = {"frequencies": {"k1": 0.0, "k2": 1.0, "m": None},
           "boundary": {"condition": "neumann", "profile": "phase"}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_cli("forward", "--config", cfg, "--out", out) == 3
    report = json.loads((out / "error_report.json").read_text())
    assert report["error"] == "SingularSystem"
    assert "constant" in report["message"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["status"] == "SolverFailure"
    assert "solver failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# probe


def probe_config(**probes_overrides):
    doc = constant_phantom_config(gamma=1.0, q=3.0)
    doc["frequencies"] = {"k1": 0.35, "k2": 0.1, "m": None}
    doc["boundary"] = {"condition": "neumann", "profile": "phase"}
    probes = {"radii": [0.2], "centers": [[2.3, 1.1]]}
    probes.update(probes_overrides)
    doc["probes"] = probes
    return doc


def test_probe_compare_has_one_row_per_probe(tmp_path):
    cfg = write_config(tmp_path, probe_config())
    out = tmp_path / "out"
    assert run_cli("probe", "--config", cfg, "--out", out) == 0
    table = read_csv_columns(out / "probe_compare.csv")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["n_probes"] == 4  # 1 center x 1 radius x 4 amps
    assert len(table["D"]) == 4
    assert manifest["summary"]["k"] == pytest.approx(0.35)
    recovered = manifest["summary"]["n_recovered"]
    failed = manifest["summary"]["n_recover_failed"]
    assert recovered + failed == 1  # one (center, radius) group either way


def test_probe_command_factors_once(tmp_path, factorizations):
    # the sampled field comes from the sweep's own factorization
    doc = probe_config()
    doc["mesh"] = {"n_boundary_points": 100}
    cfg = write_config(tmp_path, doc)
    assert run_cli("probe", "--config", cfg, "--out", tmp_path / "out") == 0
    n = hm.build_disk_mesh(8.0, 100).n_nodes
    assert [call.shape for call in factorizations] == [(n, n)]


def test_probe_grid_spacing_generates_centers(tmp_path):
    cfg = write_config(tmp_path, probe_config(centers=[], grid_spacing=3.0,
                                              amplitudes=[2.0]))
    out = tmp_path / "out"
    assert run_cli("probe", "--config", cfg, "--out", out) == 0
    table = read_csv_columns(out / "probe_compare.csv")
    xs = np.array([float(v) for v in table["z.x"]])
    ys = np.array([float(v) for v in table["z.y"]])
    assert len(xs) == 9  # 3x3 grid of spacing 3 inside radius 5.8
    assert np.all(np.hypot(xs, ys) <= 0.75 * 8.0 - 0.2)


def test_probe_center_outside_interior_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, probe_config(centers=[[7.5, 0.0]]))
    assert run_cli("probe", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "interior" in capsys.readouterr().err


def test_probe_requires_flux_boundary(tmp_path, capsys):
    doc = probe_config()
    doc["boundary"]["condition"] = "dirichlet"
    cfg = write_config(tmp_path, doc)
    assert run_cli("probe", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "neumann" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reconstruct


def assert_reruns_from_echo(tmp_path, command, first):
    """Rerunning from first's config_echo.json writes the same artifacts
    byte for byte; the echo differs only in output.directory."""
    second = tmp_path / "second"
    assert run_cli(command, "--config", first / "config_echo.json",
                   "--out", second) == 0
    names = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in second.iterdir()) == names
    for name in names:
        if name == "config_echo.json":
            echoes = [json.loads((d / name).read_text()) for d in (first, second)]
            for echo in echoes:
                del echo["output"]["directory"]
            assert echoes[0] == echoes[1]
        else:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_reconstruct_converges_and_reruns_from_echo(tmp_path, monkeypatch):
    # the true coefficients are built once, for the data and the report
    calls = []
    build = hm.coefficient_from_phantom
    monkeypatch.setattr(hm, "coefficient_from_phantom",
                        lambda *args: calls.append(args[2]) or build(*args))
    first = tmp_path / "first"
    assert run_cli("reconstruct", "--out", first) == 0
    assert calls == ["conductivity", "permittivity"]
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["summary"]["status"] == "Converged"
    # the run total of the factorizations each trace row counts
    trace = read_csv_columns(first / "trace.csv")
    assert manifest["summary"]["n_factor"] == sum(int(v) for v in trace["n_factor"])
    assert_reruns_from_echo(tmp_path, "reconstruct", first)


@pytest.mark.parametrize("command, doc", [("forward", {}),
                                          ("probe", probe_config())])
def test_forward_and_probe_rerun_from_echo(tmp_path, command, doc):
    first = tmp_path / "first"
    cfg = write_config(tmp_path, doc)
    assert run_cli(command, "--config", cfg, "--out", first) == 0
    assert_reruns_from_echo(tmp_path, command, first)


def test_reconstruct_truth_guess_converges_immediately(tmp_path):
    doc = constant_phantom_config(gamma=2.0, q=3.0)
    doc["reconstruction"] = {"gamma_guess": 2.0, "q_guess": 3.0}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_cli("reconstruct", "--config", cfg, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["iterations"] == 1


def test_reconstruct_divergent_run_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("reconstruct", "--out", out, "--m", 1) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["status"] == "Diverged"
    assert "Diverged" in capsys.readouterr().out
    trace = read_csv_columns(out / "trace.csv")
    assert trace["status"][-1] == "Diverged"
    assert all(s == "" for s in trace["status"][:-1])


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_cell_matches_reconstruct(tmp_path):
    rdir = tmp_path / "reconstruct"
    assert run_cli("reconstruct", "--out", rdir) == 0
    sdir = tmp_path / "sweep"
    cfg = write_config(tmp_path, {"frequencies": {"m": [3]},
                                  "mesh": {"n_boundary_points": [50]}})
    assert run_cli("sweep", "--config", cfg, "--out", sdir) == 0
    assert (sdir / "trace_m3_mesh50.csv").read_bytes() == \
        (rdir / "trace.csv").read_bytes()


def test_sweep_pins_the_benchmark_cells_on_one_and_two_jobs(tmp_path):
    # the grid of the sweep-cli benchmark workload: every cell's status and
    # iteration count, and the same bytes from one job and from two, each
    # run starting from an empty cache of band orders
    cfg = write_config(tmp_path, {"frequencies": {"m": [1, 2, 3]},
                                  "mesh": {"n_boundary_points": [50, 100]}})
    outs = [tmp_path / "jobs1", tmp_path / "jobs2"]
    for jobs, out in enumerate(outs, start=1):
        fem._band_order.cache_clear()
        assert run_cli("sweep", "--config", cfg, "--out", out,
                       "--jobs", jobs) == 1
    summary = read_csv_columns(outs[0] / "sweep_summary.csv")
    cells = zip(summary["m"], summary["mesh_points"], summary["status"],
                summary["iterations"])
    assert {(int(m), int(n)): (status, int(iterations))
            for m, n, status, iterations in cells} == {
        (1, 50): ("Diverged", 3), (1, 100): ("Diverged", 3),
        (2, 50): ("Converged", 23), (2, 100): ("Diverged", 18),
        (3, 50): ("Converged", 23), (3, 100): ("Stalled", 20)}
    names = sorted(path.name for path in outs[0].glob("*.csv"))
    assert len(names) == 7  # six traces and the summary
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_mixed_statuses_exit_nonzero(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"frequencies": {"m": [1, 3]}})
    assert run_cli("sweep", "--config", cfg, "--out", out) == 1
    printed = capsys.readouterr().out
    assert "m=1;mesh=50: Diverged" in printed
    assert "m=3;mesh=50: Converged" in printed
    summary = read_csv_columns(out / "sweep_summary.csv")
    assert summary["status"] == ["Diverged", "Converged"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["all_converged"] is False
    for name in manifest["artifacts"]:
        assert (out / name).exists()


def test_sweep_caps_jobs_at_cpu_count(tmp_path):
    # one cell runs serially, so asking for more jobs starts no threads
    out = tmp_path / "out"
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    cfg = write_config(tmp_path, {"frequencies": {"m": [3]},
                                  "mesh": {"n_boundary_points": [50]}})
    assert run_cli("sweep", "--config", cfg, "--out", out,
                   "--jobs", cpus + 1) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["jobs"] == cpus


def test_sweep_caps_jobs_at_a_pinned_process(tmp_path, monkeypatch):
    # a process pinned to one CPU runs its cells one at a time, however
    # many CPUs the machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"frequencies": {"m": [3]},
                                  "mesh": {"n_boundary_points": [50]}})
    assert run_cli("sweep", "--config", cfg, "--out", out, "--jobs", 2) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["jobs"] == 1


@pytest.mark.parametrize("command", ["mesh", "forward", "probe", "reconstruct"])
def test_jobs_is_a_sweep_only_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--jobs", 2)
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_sweep_rejects_fractional_exponent(tmp_path, capsys):
    # k1 = pi*10^2.5 is not the m=2 cell the sweep would otherwise run
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"frequencies": {"m": [2.5]},
                                  "mesh": {"n_boundary_points": [50]}})
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    assert "frequencies.m" in capsys.readouterr().err
    assert not (out / "sweep_summary.csv").exists()


@pytest.mark.parametrize("doc, key", [
    ({"boundary": {"convention": "zz"}}, "convention"),
    ({"mesh": {"n_boundary_points": [8]}}, "n_boundary_points"),
    ({"mesh": {"radius": -1}}, "radius"),
], ids=["convention", "n_boundary_points", "radius"])
def test_sweep_rejects_bad_settings_before_any_cell(tmp_path, capsys, doc,
                                                    key):
    # the settings reconstruct rejects are configuration errors here too,
    # not a grid of failed cells
    out = tmp_path / "out"
    cfg = write_config(tmp_path, doc)
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not (out / "sweep_summary.csv").exists()


def test_sweep_rejects_explicit_frequencies(tmp_path, capsys):
    cfg = write_config(tmp_path, {"frequencies": {"k1": 1.0, "k2": 2.0,
                                                  "m": None}})
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "frequencies.m" in capsys.readouterr().err
