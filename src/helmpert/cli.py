"""Configuration-driven experiment runner exposing the pipeline as subcommands.

One JSON document drives every command: defaults are applied first, unknown
keys are rejected, and the effective configuration is echoed into the output
directory next to a manifest of the written artifacts, so any run can be
reproduced exactly from its own outputs. Exit code 0 means success, and for
the reconstruction commands that every requested run converged; 1 flags a
completed but non-converged run, 2 a configuration problem, 3 a solver
breakdown (reported in a structured error file).
"""

import argparse
import copy
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics, disentangle, fem, forward
from . import mesh as meshmod
from . import reconstruct
from .fem import (BoundaryCondition, CoefficientField, NonConvergence,
                  SingularSystem)
from .forward import PerturbationProbe
from .mesh import PhantomSpec, RegionTag, TriangleMesh

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_REGION_KEY = {
    RegionTag.BACKGROUND: "background",
    RegionTag.TRIANGLE: "triangle",
    RegionTag.ELLIPSE: "ellipse",
    RegionTag.LSHAPE: "lshape",
    RegionTag.NEAR_BOUNDARY: "near_boundary",
}
_REGION_FROM_KEY = {v: k for k, v in _REGION_KEY.items()}


class ConfigError(ValueError):
    """Invalid, inconsistent, or unknown configuration content."""


def default_config() -> dict:
    ph = PhantomSpec()
    return {
        "mesh": {"radius": ph.disk_radius, "n_boundary_points": 50},
        "phantom": {
            "annulus_radius": ph.annulus_radius,
            "triangle_vertices": [list(v) for v in ph.triangle_vertices],
            "ellipse_center": list(ph.ellipse_center),
            "ellipse_semi_axes": list(ph.ellipse_semi_axes),
            "ellipse_angle_deg": ph.ellipse_angle_deg,
            "lshape_rects": [list(r) for r in ph.lshape_rects],
            "conductivity": {_REGION_KEY[t]: v for t, v in ph.conductivity.items()},
            "permittivity": {_REGION_KEY[t]: v for t, v in ph.permittivity.items()},
        },
        "frequencies": {"k1": None, "k2": None, "m": 3},
        "boundary": {"condition": "dirichlet", "profile": "phase",
                     "convention": "xy", "value": 1.0},
        "probes": {"amplitudes": [0.5, 1.5, 2.0, 3.0],
                   "radii": [0.4, 0.2, 0.1],
                   "centers": [[2.3, 1.1]],
                   "grid_spacing": None,
                   "gamma_tilde": 0.5,
                   "q_tilde": 3.0},
        "reconstruction": {"eps_precision": 1e-3, "max_iterations": 50,
                           "floor_grad": 1e-60, "floor_u": 1e-12,
                           "gamma_guess": 3.5, "q_guess": 11.5,
                           "damping": 1.0, "corrector_cap": 1.0},
        "output": {"directory": "out"},
    }


def _merge_strict(defaults: dict, user: dict, path: str = "") -> dict:
    """Overlay user values onto defaults, rejecting keys not in the schema."""
    unknown = sorted(set(user) - set(defaults))
    if unknown:
        where = path.rstrip(".") or "top level"
        raise ConfigError(f"unknown config keys {unknown} at {where}")
    merged = {}
    for key, dval in defaults.items():
        if key in user and isinstance(dval, dict):
            if not isinstance(user[key], dict):
                raise ConfigError(f"config section {path}{key} must be a mapping")
            merged[key] = _merge_strict(dval, user[key], f"{path}{key}.")
        elif key in user:
            merged[key] = copy.deepcopy(user[key])
        else:
            merged[key] = copy.deepcopy(dval)
    return merged


def load_config(path: Optional[Path]) -> dict:
    if path is None:
        return default_config()
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    return _merge_strict(default_config(), raw)


def apply_flag_overrides(cfg: dict, args: argparse.Namespace) -> None:
    """Flags mirror config paths one-to-one and win over the file."""
    if args.mesh_points is not None:
        cfg["mesh"]["n_boundary_points"] = args.mesh_points
    if args.m is not None:
        cfg["frequencies"]["m"] = args.m
        cfg["frequencies"]["k1"] = None
        cfg["frequencies"]["k2"] = None
    if args.eps_precision is not None:
        cfg["reconstruction"]["eps_precision"] = args.eps_precision
    if args.out is not None:
        cfg["output"]["directory"] = str(args.out)


def resolve_frequencies(cfg: dict) -> Tuple[float, float]:
    freq = cfg["frequencies"]
    k1, k2, m = freq["k1"], freq["k2"], freq["m"]
    if k1 is not None or k2 is not None:
        if k1 is None or k2 is None:
            raise ConfigError("frequencies.k1 and frequencies.k2 must be set together")
        return float(k1), float(k2)
    if m is None:
        raise ConfigError("set frequencies.k1/k2 or the exponent frequencies.m")
    if isinstance(m, (list, tuple)):
        raise ConfigError("frequencies.m must be a single exponent here; "
                          "lists are only valid for the sweep command")
    return diagnostics.frequency_pair(float(m))


def phantom_from_config(cfg: dict) -> PhantomSpec:
    ph = cfg["phantom"]
    for section in ("conductivity", "permittivity"):
        unknown = sorted(set(ph[section]) - set(_REGION_FROM_KEY))
        if unknown:
            raise ConfigError(f"unknown phantom regions {unknown} in {section}")
    return PhantomSpec(
        disk_radius=float(cfg["mesh"]["radius"]),
        annulus_radius=float(ph["annulus_radius"]),
        triangle_vertices=tuple(tuple(float(c) for c in v)
                                for v in ph["triangle_vertices"]),
        ellipse_center=tuple(float(c) for c in ph["ellipse_center"]),
        ellipse_semi_axes=tuple(float(c) for c in ph["ellipse_semi_axes"]),
        ellipse_angle_deg=float(ph["ellipse_angle_deg"]),
        lshape_rects=tuple(tuple(float(c) for c in r)
                           for r in ph["lshape_rects"]),
        conductivity={_REGION_FROM_KEY[k]: float(v)
                      for k, v in ph["conductivity"].items()},
        permittivity={_REGION_FROM_KEY[k]: float(v)
                      for k, v in ph["permittivity"].items()},
    )


def _require_scalar_mesh_points(cfg: dict):
    """The configured boundary point count; build_disk_mesh checks its value."""
    n = cfg["mesh"]["n_boundary_points"]
    if isinstance(n, (list, tuple)):
        raise ConfigError("mesh.n_boundary_points must be a single value here; "
                          "lists are only valid for the sweep command")
    return n


def _medium(cfg: dict) -> Tuple[PhantomSpec, TriangleMesh, CoefficientField,
                                CoefficientField]:
    """The configured phantom, its disk mesh and its true coefficients."""
    n = _require_scalar_mesh_points(cfg)
    ph = phantom_from_config(cfg)
    mesh_obj = meshmod.build_disk_mesh(ph.disk_radius, n)
    gamma = meshmod.coefficient_from_phantom(mesh_obj, ph, "conductivity")
    q = meshmod.coefficient_from_phantom(mesh_obj, ph, "permittivity")
    return ph, mesh_obj, gamma, q


def boundary_from_config(cfg: dict, mesh_obj: TriangleMesh) -> BoundaryCondition:
    b = cfg["boundary"]
    if b["condition"] not in ("dirichlet", "neumann"):
        raise ConfigError(f"unknown boundary condition {b['condition']!r}")
    if b["profile"] == "phase":
        data = forward.boundary_phase(mesh_obj, b["convention"])
    elif b["profile"] == "constant":
        data = np.full(len(mesh_obj.boundary_nodes), complex(b["value"]))
    else:
        raise ConfigError(f"unknown boundary profile {b['profile']!r}")
    return BoundaryCondition(b["condition"], data)


def _prepare_out(cfg: dict) -> Path:
    out_dir = Path(cfg["output"]["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _echo_config(out_dir: Path, cfg: dict) -> str:
    (out_dir / "config_echo.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return "config_echo.json"


def _write_manifest(out_dir: Path, command: str, artifacts: Sequence[str],
                    summary: Optional[dict] = None) -> None:
    doc = {"command": command, "artifacts": sorted(artifacts)}
    if summary:
        doc["summary"] = summary
    (out_dir / "manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _field_csv(path: Path, mesh_obj: TriangleMesh,
               columns: Dict[str, np.ndarray]) -> None:
    """Nodal table: x, y, then one column per entry (complex -> _re/_im)."""
    names: List[str] = ["x", "y"]
    cols: List[np.ndarray] = [mesh_obj.nodes[:, 0], mesh_obj.nodes[:, 1]]
    for name, values in columns.items():
        values = np.asarray(values)
        if np.iscomplexobj(values):
            names += [f"{name}_re", f"{name}_im"]
            cols += [values.real, values.imag]
        else:
            names.append(name)
            cols.append(values)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*cols):
            writer.writerow([repr(float(v)) for v in row])


def _solver_failure(out_dir: Path, command: str, err: Exception,
                    artifacts: List[str]) -> int:
    report = {"command": command, "error": type(err).__name__,
              "message": str(err)}
    (out_dir / "error_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    artifacts.append("error_report.json")
    _write_manifest(out_dir, command, artifacts, {"status": "SolverFailure"})
    print(f"solver failure ({type(err).__name__}): {err}", file=sys.stderr)
    return EXIT_SOLVER


def cmd_mesh(cfg: dict, out_dir: Path, jobs: int) -> int:
    n = _require_scalar_mesh_points(cfg)
    mesh_obj = meshmod.build_disk_mesh(float(cfg["mesh"]["radius"]), n)
    artifacts = [_echo_config(out_dir, cfg), "mesh.txt"]
    meshmod.save_mesh(mesh_obj, out_dir / "mesh.txt")
    summary = {"n_nodes": mesh_obj.n_nodes,
               "n_triangles": mesh_obj.n_triangles,
               "n_boundary": int(len(mesh_obj.boundary_nodes))}
    _write_manifest(out_dir, "mesh", artifacts, summary)
    print(f"mesh: {summary['n_nodes']} nodes, {summary['n_triangles']} "
          f"triangles, {summary['n_boundary']} boundary points")
    return EXIT_OK


def cmd_forward(cfg: dict, out_dir: Path, jobs: int) -> int:
    _, mesh_obj, gamma, q = _medium(cfg)
    bc = boundary_from_config(cfg, mesh_obj)
    k1, k2 = resolve_frequencies(cfg)
    artifacts = [_echo_config(out_dir, cfg)]
    if bc.kind == "neumann" and (k1 == 0.0 or k2 == 0.0):
        # zero-frequency flux problem: constants are in the nullspace, so
        # any computed field is arbitrary up to a constant
        err = SingularSystem(
            "pure flux data at k = 0 determines the field only up to a "
            "constant")
        return _solver_failure(out_dir, "forward", err, artifacts)
    try:
        u1 = fem.solve_bvp(mesh_obj, gamma, q, k1, bc)
        u2 = fem.solve_bvp(mesh_obj, gamma, q, k2, bc)
    except (SingularSystem, NonConvergence) as err:
        return _solver_failure(out_dir, "forward", err, artifacts)
    data1 = forward.internal_data(u1, gamma, q, k1)
    data2 = forward.internal_data(u2, gamma, q, k2)
    _field_csv(out_dir / "field_k1.csv", mesh_obj, {"u": u1.values})
    _field_csv(out_dir / "field_k2.csv", mesh_obj, {"u": u2.values})
    _field_csv(out_dir / "internal_data.csv", mesh_obj,
               {"J": data1.J, "j": data2.j})
    artifacts += ["field_k1.csv", "field_k2.csv", "internal_data.csv"]
    _write_manifest(out_dir, "forward", artifacts,
                    {"k1": k1, "k2": k2, "n_nodes": mesh_obj.n_nodes})
    print(f"forward: solved at k1={k1:g} and k2={k2:g} on "
          f"{mesh_obj.n_nodes} nodes")
    return EXIT_OK


def _probe_centers(cfg: dict, mesh_radius: float) -> List[Tuple[float, float]]:
    probes_cfg = cfg["probes"]
    radii = [float(r) for r in probes_cfg["radii"]]
    if not radii:
        raise ConfigError("probes.radii must not be empty")
    spacing = probes_cfg["grid_spacing"]
    if spacing is None:
        return [(float(x), float(y)) for x, y in probes_cfg["centers"]]
    s = float(spacing)
    if s <= 0:
        raise ConfigError("probes.grid_spacing must be positive")
    # probes must fit strictly inside the interior disk used by the
    # measurement check
    limit = forward.DEFAULT_INTERIOR_FRACTION * mesh_radius - max(radii)
    if limit <= 0:
        raise ConfigError("probe radii leave no room for grid centers")
    steps = int(limit // s)
    axis = [i * s for i in range(-steps, steps + 1)]
    return [(x, y) for y in axis for x in axis if math.hypot(x, y) <= limit]


def cmd_probe(cfg: dict, out_dir: Path, jobs: int) -> int:
    if cfg["boundary"]["condition"] != "neumann":
        raise ConfigError("probe measurements need flux data; set "
                          "boundary.condition to 'neumann'")
    ph, mesh_obj, gamma, q = _medium(cfg)
    bc = boundary_from_config(cfg, mesh_obj)
    k, _ = resolve_frequencies(cfg)

    probes_cfg = cfg["probes"]
    amplitudes = [float(a) for a in probes_cfg["amplitudes"]]
    radii = [float(r) for r in probes_cfg["radii"]]
    centers = _probe_centers(cfg, ph.disk_radius)
    if not amplitudes or not centers:
        raise ConfigError("probes need at least one amplitude and one center")
    probes = [PerturbationProbe(center=c, radius=r, amplitude=lam,
                                gamma_tilde=float(probes_cfg["gamma_tilde"]),
                                q_tilde=float(probes_cfg["q_tilde"]))
              for c in centers for r in radii for lam in amplitudes]

    artifacts = [_echo_config(out_dir, cfg)]
    try:
        u = fem.solve_bvp(mesh_obj, gamma, q, k, bc)
        measurements = forward.probe_sweep(mesh_obj, gamma, q, k, bc, probes,
                                           jobs=jobs)
    except (SingularSystem, NonConvergence) as err:
        return _solver_failure(out_dir, "probe", err, artifacts)

    with open(out_dir / "probe_compare.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z.x", "z.y", "r", "lambda", "D", "predicted",
                         "rel_gap"])
        for meas in measurements:
            z = meas.probe.center
            tag = meshmod.classify_point((z.x, z.y), ph)
            val, grad = forward.sample_field(u, (z.x, z.y))
            predicted = forward.predict_probe(ph.conductivity[tag],
                                              ph.permittivity[tag], grad, val,
                                              k, meas.probe)
            gap = abs(meas.D - predicted) / max(abs(predicted),
                                                np.finfo(float).tiny)
            writer.writerow([repr(float(z.x)), repr(float(z.y)),
                             repr(float(meas.probe.radius)),
                             repr(float(meas.probe.amplitude)),
                             repr(float(meas.D)), repr(float(predicted)),
                             repr(float(gap))])
    artifacts.append("probe_compare.csv")

    # four distinct amplitudes at one (center, radius) admit the algebraic
    # round-trip back to the internal energies; groups whose data is too far
    # from the small-probe model to invert are skipped, not fatal
    recover_rows = []
    n_recover_failed = 0
    if len(set(amplitudes)) == 4:
        groups: Dict[Tuple[float, float, float], list] = {}
        for meas in measurements:
            z = meas.probe.center
            groups.setdefault((z.x, z.y, meas.probe.radius), []).append(
                (meas.probe.amplitude, meas.D))
        for (zx, zy, r), pairs in sorted(groups.items()):
            try:
                point = disentangle.recover(pairs)
            except (disentangle.NoRoot, disentangle.DegenerateData,
                    ValueError) as err:
                n_recover_failed += 1
                print(f"recover failed at ({zx:g}, {zy:g}) r={r:g}: {err}",
                      file=sys.stderr)
                continue
            recover_rows.append([zx, zy, r, point.F, point.G, point.a,
                                 point.b, point.residual])
    if recover_rows:
        with open(out_dir / "recover.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["z.x", "z.y", "r", "F", "G", "a", "b",
                             "residual"])
            for row in recover_rows:
                writer.writerow([repr(float(v)) for v in row])
        artifacts.append("recover.csv")

    _write_manifest(out_dir, "probe", artifacts,
                    {"n_probes": len(probes), "k": k, "jobs": jobs,
                     "n_recovered": len(recover_rows),
                     "n_recover_failed": n_recover_failed})
    print(f"probe: {len(probes)} measurements, {len(recover_rows)} "
          f"round-trip recoveries")
    return EXIT_OK


def _reconstruction_config(cfg: dict, mesh_obj: Optional[TriangleMesh],
                           ph: PhantomSpec,
                           k1: float, k2: float) -> reconstruct.ReconstructionConfig:
    if cfg["boundary"]["condition"] != "dirichlet":
        raise ConfigError("reconstruction uses dirichlet boundary data")
    rec = cfg["reconstruction"]
    bc = boundary_from_config(cfg, mesh_obj) if mesh_obj is not None else None
    return reconstruct.ReconstructionConfig(
        k1=k1, k2=k2,
        eps_precision=float(rec["eps_precision"]),
        max_outer_iterations=int(rec["max_iterations"]),
        floor_grad=float(rec["floor_grad"]),
        floor_u=float(rec["floor_u"]),
        boundary_data=bc,
        phase_convention=cfg["boundary"]["convention"],
        known_annulus_radius=ph.annulus_radius,
        gamma_guess=float(rec["gamma_guess"]),
        q_guess=float(rec["q_guess"]),
        damping=float(rec["damping"]),
        corrector_cap=float(rec["corrector_cap"]),
    )


def cmd_reconstruct(cfg: dict, out_dir: Path, jobs: int) -> int:
    ph, mesh_obj, gamma_true, q_true = _medium(cfg)
    k1, k2 = resolve_frequencies(cfg)
    rc_cfg = _reconstruction_config(cfg, mesh_obj, ph, k1, k2)
    artifacts = [_echo_config(out_dir, cfg)]
    try:
        trace = diagnostics.synthetic_run(mesh_obj, rc_cfg, ph)
    except (SingularSystem, NonConvergence) as err:
        return _solver_failure(out_dir, "reconstruct", err, artifacts)

    reconstruct.save_trace_csv(out_dir / "trace.csv", trace)
    _field_csv(out_dir / "fields_final.csv", mesh_obj,
               {"gamma": trace.final_gamma.values,
                "q": trace.final_q.values,
                "gamma_true": gamma_true.values,
                "q_true": q_true.values})
    artifacts += ["trace.csv", "fields_final.csv"]
    _write_manifest(out_dir, "reconstruct", artifacts,
                    {"status": trace.status, "iterations": len(trace.records),
                     "detail": trace.detail})
    print(f"reconstruct: {trace.status} after {len(trace.records)} "
          f"iterations ({trace.detail})")
    return EXIT_OK if trace.status == reconstruct.STATUS_CONVERGED \
        else EXIT_NOT_CONVERGED


def cmd_sweep(cfg: dict, out_dir: Path, jobs: int) -> int:
    freq = cfg["frequencies"]
    if freq["k1"] is not None or freq["k2"] is not None:
        raise ConfigError("the sweep is driven by frequencies.m; "
                          "unset frequencies.k1/k2")
    m = freq["m"]
    if m is None:
        raise ConfigError("the sweep needs frequencies.m")
    exponents = diagnostics.whole_numbers(
        m if isinstance(m, (list, tuple)) else [m], "frequencies.m")
    n = cfg["mesh"]["n_boundary_points"]
    mesh_points = diagnostics.whole_numbers(
        n if isinstance(n, (list, tuple)) else [n], "mesh.n_boundary_points")
    if cfg["boundary"]["profile"] != "phase":
        raise ConfigError("the sweep uses the phase boundary profile on "
                          "every mesh")

    ph = phantom_from_config(cfg)
    # base frequencies are placeholders: the sweep replaces them per cell
    base_cfg = _reconstruction_config(cfg, None, ph,
                                      *diagnostics.frequency_pair(1))

    artifacts = [_echo_config(out_dir, cfg)]
    sweep = diagnostics.frequency_sweep(base_cfg, exponents, mesh_points,
                                        jobs=jobs, phantom=ph)
    for quantity in diagnostics.SERIES_QUANTITIES:
        name = f"sweep_{quantity}.csv"
        diagnostics.save_sweep_csv(out_dir / name, sweep, [quantity])
        artifacts.append(name)
    diagnostics.save_sweep_summary_csv(out_dir / "sweep_summary.csv", sweep)
    artifacts.append("sweep_summary.csv")

    statuses = sweep.statuses()
    _write_manifest(out_dir, "sweep", artifacts,
                    {"statuses": statuses,
                     "all_converged": sweep.all_converged(), "jobs": jobs})
    for entry in sweep.entries:
        print(f"{entry.key}: {entry.status} ({entry.n_iterations} iterations)")
    return EXIT_OK if sweep.all_converged() else EXIT_NOT_CONVERGED


COMMANDS = {
    "mesh": (cmd_mesh, "triangulate the disk and write the mesh file"),
    "forward": (cmd_forward, "solve at both frequencies and write the "
                             "internal data maps"),
    "probe": (cmd_probe, "run localized-perturbation measurements and the "
                         "algebraic round-trip"),
    "reconstruct": (cmd_reconstruct, "recover both coefficients from "
                                     "synthetic internal data"),
    "sweep": (cmd_sweep, "reconstruction grid over frequency exponents and "
                         "mesh sizes"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helmpert",
        description="hybrid two-frequency coefficient imaging on a disk")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON experiment configuration")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (overrides output.directory)")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel runs inside sweeps (at most the CPU count)")
        p.add_argument("--mesh-points", dest="mesh_points", type=int,
                       default=None,
                       help="override mesh.n_boundary_points")
        p.add_argument("--m", type=int, default=None,
                       help="override frequencies.m (clears k1/k2)")
        p.add_argument("--eps-precision", dest="eps_precision", type=float,
                       default=None,
                       help="override reconstruction.eps_precision")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command, _ = COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        apply_flag_overrides(cfg, args)
        out_dir = _prepare_out(cfg)
        # more threads than CPUs only adds contention to the same work
        jobs = min(max(1, int(args.jobs)), os.cpu_count() or 1)
        return command(cfg, out_dir, jobs)
    except (ConfigError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
