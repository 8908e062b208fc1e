"""Configuration-driven experiment runner exposing the pipeline as subcommands.

One JSON document drives every command: defaults are applied first, unknown
keys are rejected, and the effective configuration is echoed into the output
directory next to a manifest of the written artifacts, so any run can be
reproduced exactly from its own outputs. A command writes its artifacts and
returns its exit code, their names and its summary; main writes the echo and
the manifest once it has returned, so a configuration error, wherever in the
run it is found, exits 2 without writing either. Exit code 0 means success,
and for the reconstruction commands that every requested run converged; 1
flags a completed but non-converged run, 2 a configuration problem, 3 a
solver breakdown (reported in a structured error file).
"""

import argparse
import copy
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics, disentangle, forward
from . import mesh as meshmod
from . import reconstruct
from .fem import (BoundaryCondition, CoefficientField, ComplexField,
                  NonConvergence, SingularSystem)
from .forward import PerturbationProbe
from .mesh import PhantomSpec, TriangleMesh

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# the phantom section: every PhantomSpec field but the disk radius, which is
# mesh.radius; its region maps are keyed by the RegionTag values
_PHANTOM_FIELDS = tuple(f.name for f in dataclasses.fields(PhantomSpec)
                        if f.name != "disk_radius")

# the reconstruction section: config key -> (ReconstructionConfig field, type)
_RECONSTRUCTION_KEYS = {
    "eps_precision": ("eps_precision", float),
    "max_iterations": ("max_outer_iterations", int),
    "floor_grad": ("floor_grad", float),
    "floor_u": ("floor_u", float),
    "gamma_guess": ("gamma_guess", float),
    "q_guess": ("q_guess", float),
    "damping": ("damping", float),
}

# the lists of a fixed length, by config key with "[]" for each element of
# a list: the triangle's three vertices, the points (x, y), the semi-axes
# and the rectangles (x0, x1, y0, y1)
_FIXED_LENGTHS = {
    "phantom.triangle_vertices": 3,
    "phantom.triangle_vertices[]": 2,
    "phantom.ellipse_center": 2,
    "phantom.ellipse_semi_axes": 2,
    "phantom.lshape_rects[]": 4,
    "probes.centers[]": 2,
}

# the flags that set one config key each: flag -> (section, key, type, note)
_FLAGS = {
    "--out": ("output", "directory", str, ""),
    "--mesh-points": ("mesh", "n_boundary_points", int, ""),
    "--m": ("frequencies", "m", int, " (clears k1/k2)"),
    "--eps-precision": ("reconstruction", "eps_precision", float, ""),
}


class ConfigError(ValueError):
    """Invalid, inconsistent, or unknown configuration content."""


def default_config() -> dict:
    ph = PhantomSpec()
    rc = reconstruct.ReconstructionConfig
    return {
        "mesh": {"radius": ph.disk_radius, "n_boundary_points": 50},
        # tuples become JSON lists
        "phantom": json.loads(json.dumps(
            {name: getattr(ph, name) for name in _PHANTOM_FIELDS})),
        "frequencies": {"k1": None, "k2": None, "m": 3},
        "boundary": {"condition": "dirichlet", "profile": "phase",
                     "convention": "xy", "value": 1.0},
        "probes": {"amplitudes": list(disentangle.AmplitudeQuad().as_tuple()),
                   "radii": [0.4, 0.2, 0.1],
                   "centers": [[2.3, 1.1]],
                   "grid_spacing": None,
                   "gamma_tilde": 0.5,
                   "q_tilde": 3.0},
        "reconstruction": {key: getattr(rc, name)
                           for key, (name, _) in _RECONSTRUCTION_KEYS.items()},
        "output": {"directory": "out"},
    }


def _json_type(value) -> str:
    """The JSON type of a parsed JSON value, with its article."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "a number"
    return {type(None): "null", bool: "a boolean", str: "a string",
            list: "a list", dict: "a mapping"}[type(value)]


def _merge_value(default, value, key: str):
    """value, of its default's JSON type, merged into the default: a
    mapping by _merge_strict, a list element by element against the
    default's first element, at its length where _FIXED_LENGTHS has one.
    A null default stands for an optional number.
    A null stands only there and for frequencies.m, which frequencies.k1/k2
    replace. The sweep command's keys also take a list of numbers, which
    _single rejects for the other commands."""
    got = _json_type(value)
    if got == "a mapping" and isinstance(default, dict):
        return _merge_strict(default, value, key + ".")
    if got == "a list" and (isinstance(default, list) or key in (
            "mesh.n_boundary_points", "frequencies.m")):
        length = _FIXED_LENGTHS.get(re.sub(r"\[\d+\]", "[]", key))
        if length is not None and len(value) != length:
            raise ConfigError(f"config key {key} must hold {length} values, "
                              f"not {len(value)}")
        item = default[0] if isinstance(default, list) else default
        return [_merge_value(item, v, f"{key}[{i}]") for i, v in enumerate(value)]
    allowed = {"a number", "null"} if default is None else {_json_type(default)}
    if key == "frequencies.m":
        allowed.add("null")
    if got not in allowed:
        want = ("not be null" if got == "null"
                else f"be {' or '.join(sorted(allowed))}, not {got}")
        raise ConfigError(f"config key {key} must {want}")
    # Python's json reads NaN and Infinity, which no setting can use
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {key} must be a finite number, "
                          f"not {value!r}")
    return value


def _merge_strict(defaults: dict, user: dict, path: str = "") -> dict:
    """Overlay user values onto defaults, rejecting keys not in the schema
    and values not of their default's JSON type (_merge_value)."""
    unknown = sorted(set(user) - set(defaults))
    if unknown:
        where = path.rstrip(".") or "top level"
        raise ConfigError(f"unknown config keys {unknown} at {where}")
    return {key: _merge_value(dval, user[key], path + key) if key in user
            else copy.deepcopy(dval) for key, dval in defaults.items()}


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
    """Flags mirror config paths one-to-one, win over the file and pass the
    same checks (_merge_value)."""
    defaults = default_config()
    for flag, (section, key, _, _) in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            cfg[section][key] = _merge_value(defaults[section][key], value,
                                             f"{section}.{key}")
    if args.m is not None:
        cfg["frequencies"].update(k1=None, k2=None)


def _single(cfg: dict, section: str, key: str):
    """cfg[section][key], which only the sweep command may give as a list."""
    value = cfg[section][key]
    if isinstance(value, (list, tuple)):
        raise ConfigError(f"{section}.{key} must be a single value here; "
                          "lists are only valid for the sweep command")
    return value


def resolve_frequencies(cfg: dict) -> Tuple[float, float]:
    k1, k2 = cfg["frequencies"]["k1"], cfg["frequencies"]["k2"]
    if k1 is not None or k2 is not None:
        if k1 is None or k2 is None:
            raise ConfigError("frequencies.k1 and frequencies.k2 must be set together")
        for key, k in (("k1", k1), ("k2", k2)):
            if not k >= 0:
                raise ConfigError(f"config key frequencies.{key} must be "
                                  f"nonnegative, not {k!r}")
        return float(k1), float(k2)
    m = _single(cfg, "frequencies", "m")
    if m is None:
        raise ConfigError("set frequencies.k1/k2 or the exponent frequencies.m")
    return diagnostics.frequency_pair(float(m))


def _floats(value):
    """A JSON value with its numbers as floats, its lists as tuples and its
    nulls as None."""
    if isinstance(value, dict):
        return {k: _floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return tuple(_floats(v) for v in value)
    return None if value is None else float(value)


def phantom_from_config(cfg: dict) -> PhantomSpec:
    return PhantomSpec(disk_radius=float(cfg["mesh"]["radius"]),
                       **{name: _floats(cfg["phantom"][name])
                          for name in _PHANTOM_FIELDS})


def _medium(cfg: dict) -> Tuple[PhantomSpec, TriangleMesh, CoefficientField,
                                CoefficientField]:
    """The configured phantom, its disk mesh and its true coefficients."""
    n = _single(cfg, "mesh", "n_boundary_points")
    ph = phantom_from_config(cfg)
    mesh_obj = meshmod.build_disk_mesh(ph.disk_radius, n)
    gamma, q = diagnostics.true_coefficients(mesh_obj, ph)
    return ph, mesh_obj, gamma, q


def boundary_from_config(cfg: dict, mesh_obj: TriangleMesh) -> BoundaryCondition:
    b = cfg["boundary"]
    if b["profile"] == "phase":
        data = forward.boundary_phase(mesh_obj, b["convention"])
    elif b["profile"] == "constant":
        data = np.full(len(mesh_obj.boundary_nodes), complex(b["value"]))
    else:
        raise ConfigError(f"unknown boundary profile {b['profile']!r}")
    return BoundaryCondition(b["condition"], data)


def _write_json(path: Path, doc: dict) -> None:
    """The one JSON artifact format: sorted keys, two-space indent, final
    newline."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
    reconstruct.write_csv(path, names, zip(*cols))


def cmd_mesh(cfg: dict, out_dir: Path) -> Tuple[int, List[str], dict]:
    n = _single(cfg, "mesh", "n_boundary_points")
    mesh_obj = meshmod.build_disk_mesh(float(cfg["mesh"]["radius"]), n)
    meshmod.save_mesh(mesh_obj, out_dir / "mesh.txt")
    summary = {"n_nodes": mesh_obj.n_nodes,
               "n_triangles": mesh_obj.n_triangles,
               "n_boundary": int(len(mesh_obj.boundary_nodes))}
    print(f"mesh: {summary['n_nodes']} nodes, {summary['n_triangles']} "
          f"triangles, {summary['n_boundary']} boundary points")
    return EXIT_OK, ["mesh.txt"], summary


def cmd_forward(cfg: dict, out_dir: Path) -> Tuple[int, List[str], dict]:
    _, mesh_obj, gamma, q = _medium(cfg)
    bc = boundary_from_config(cfg, mesh_obj)
    k1, k2 = resolve_frequencies(cfg)
    u1, u2, J, j = forward.two_frequency_data(mesh_obj, gamma, q, k1, k2, bc)
    _field_csv(out_dir / "field_k1.csv", mesh_obj, {"u": u1.values})
    _field_csv(out_dir / "field_k2.csv", mesh_obj, {"u": u2.values})
    _field_csv(out_dir / "internal_data.csv", mesh_obj, {"J": J, "j": j})
    print(f"forward: solved at k1={k1:g} and k2={k2:g} on "
          f"{mesh_obj.n_nodes} nodes")
    return (EXIT_OK, ["field_k1.csv", "field_k2.csv", "internal_data.csv"],
            {"k1": k1, "k2": k2, "n_nodes": mesh_obj.n_nodes})


def _probes(cfg: dict, mesh_radius: float) -> List[PerturbationProbe]:
    """A probe at every center, radius and amplitude of the probes section.
    Every disk must stay in forward's interior zone (_check_disks): a listed
    center whose disks leave it is an error, a grid center is left out."""
    p = _floats(cfg["probes"])
    s = p["grid_spacing"]
    if s is not None and not s > 0:
        raise ConfigError("probes.grid_spacing must be positive")
    centers = p["centers"]
    if s is not None:
        steps = int(forward.DEFAULT_INTERIOR_FRACTION * mesh_radius // s)
        axis = [i * s for i in range(-steps, steps + 1)]
        centers = [(x, y) for y in axis for x in axis]
    probes: List[PerturbationProbe] = []
    for c in centers:
        group = [PerturbationProbe(center=c, radius=r, amplitude=lam,
                                   gamma_tilde=p["gamma_tilde"],
                                   q_tilde=p["q_tilde"])
                 for r in p["radii"] for lam in p["amplitudes"]]
        try:
            forward._check_disks(mesh_radius, group)
            probes += group
        except ValueError as err:
            if s is None:
                raise ConfigError(f"probes.centers: {err}") from err
    if not probes:
        raise ConfigError("probes need at least one radius, one amplitude and "
                          "one center whose disks fit in the interior zone")
    return probes


def cmd_probe(cfg: dict, out_dir: Path) -> Tuple[int, List[str], dict]:
    if cfg["boundary"]["condition"] != "neumann":
        raise ConfigError("probe measurements need flux data; set "
                          "boundary.condition to 'neumann'")
    ph, mesh_obj, gamma, q = _medium(cfg)
    bc = boundary_from_config(cfg, mesh_obj)
    k, _ = resolve_frequencies(cfg)
    probes = _probes(cfg, ph.disk_radius)

    # one factorization serves the sweep and the sampled field
    medium = forward.factor_medium(mesh_obj, gamma, q, k, bc)
    measurements = forward.measure_on_medium(medium, probes)
    u = ComplexField(mesh_obj, medium.u)

    samples = {z: forward.sample_field(u, (z.x, z.y))
               for z in {p.center for p in probes}}
    compare_rows = []
    for meas in measurements:
        z = meas.probe.center
        tag = meshmod.classify_point((z.x, z.y), ph)
        val, grad = samples[z]
        predicted = forward.predict_probe(ph.conductivity[tag],
                                          ph.permittivity[tag], grad, val,
                                          k, meas.probe)
        gap = abs(meas.D - predicted) / max(abs(predicted),
                                            np.finfo(float).tiny)
        compare_rows.append([z.x, z.y, meas.probe.radius,
                             meas.probe.amplitude, meas.D, predicted, gap])
    reconstruct.write_csv(out_dir / "probe_compare.csv",
                          ["z.x", "z.y", "r", "lambda", "D", "predicted",
                           "rel_gap"], compare_rows)
    artifacts = ["probe_compare.csv"]

    # four distinct amplitudes at one (center, radius) admit the algebraic
    # round-trip back to the internal energies; groups whose data is too far
    # from the small-probe model to invert are skipped, not fatal
    recover_rows = []
    n_recover_failed = 0
    if len({p.amplitude for p in probes}) == 4:
        groups: Dict[Tuple[float, float, float], list] = {}
        for meas in measurements:
            z = meas.probe.center
            groups.setdefault((z.x, z.y, meas.probe.radius), []).append(
                (meas.probe.amplitude, meas.D))
        for (zx, zy, r), pairs in sorted(groups.items()):
            try:
                point = disentangle.recover(pairs)
            except (disentangle.NoRoot, ValueError) as err:
                n_recover_failed += 1
                print(f"recover failed at ({zx:g}, {zy:g}) r={r:g}: {err}",
                      file=sys.stderr)
                continue
            recover_rows.append([zx, zy, r, point.F, point.G, point.a,
                                 point.b, point.residual])
    if recover_rows:
        reconstruct.write_csv(out_dir / "recover.csv",
                              ["z.x", "z.y", "r", "F", "G", "a", "b",
                               "residual"], recover_rows)
        artifacts.append("recover.csv")

    print(f"probe: {len(probes)} measurements, {len(recover_rows)} "
          f"round-trip recoveries")
    return EXIT_OK, artifacts, {"n_probes": len(probes), "k": k,
                                "n_recovered": len(recover_rows),
                                "n_recover_failed": n_recover_failed}


def _reconstruction_config(cfg: dict, mesh_obj: Optional[TriangleMesh],
                           ph: PhantomSpec,
                           k1: float, k2: float) -> reconstruct.ReconstructionConfig:
    if cfg["boundary"]["condition"] != "dirichlet":
        raise ConfigError("reconstruction uses dirichlet boundary data")
    rec = cfg["reconstruction"]
    for key, (_, cast) in _RECONSTRUCTION_KEYS.items():
        if cast is int and not float(rec[key]).is_integer():
            raise ConfigError(f"config key reconstruction.{key} must be a "
                              f"whole number, not {rec[key]!r}")
    bc = boundary_from_config(cfg, mesh_obj) if mesh_obj is not None else None
    return reconstruct.ReconstructionConfig(
        k1=k1, k2=k2, boundary_data=bc,
        phase_convention=cfg["boundary"]["convention"],
        known_annulus_radius=ph.annulus_radius,
        **{name: cast(rec[key])
           for key, (name, cast) in _RECONSTRUCTION_KEYS.items()})


def cmd_reconstruct(cfg: dict, out_dir: Path) -> Tuple[int, List[str], dict]:
    ph, mesh_obj, gamma_true, q_true = _medium(cfg)
    k1, k2 = resolve_frequencies(cfg)
    rc_cfg = _reconstruction_config(cfg, mesh_obj, ph, k1, k2)
    trace = diagnostics.synthetic_run(mesh_obj, rc_cfg, (gamma_true, q_true))
    reconstruct.save_trace_csv(out_dir / "trace.csv", trace)
    _field_csv(out_dir / "fields_final.csv", mesh_obj,
               {"gamma": trace.final_gamma.values,
                "q": trace.final_q.values,
                "gamma_true": gamma_true.values,
                "q_true": q_true.values})
    print(f"reconstruct: {trace.status} after {len(trace.records)} "
          f"iterations ({trace.detail})")
    code = (EXIT_OK if trace.status == reconstruct.STATUS_CONVERGED
            else EXIT_NOT_CONVERGED)
    return code, ["trace.csv", "fields_final.csv"], {
        "status": trace.status, "iterations": len(trace.records),
        "detail": trace.detail,
        "n_factor": sum(r.n_factor for r in trace.records)}


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def cmd_sweep(cfg: dict, out_dir: Path, jobs: int) -> Tuple[int, List[str], dict]:
    freq = cfg["frequencies"]
    if freq["k1"] is not None or freq["k2"] is not None:
        raise ConfigError("the sweep is driven by frequencies.m; "
                          "unset frequencies.k1/k2")
    if freq["m"] is None:
        raise ConfigError("the sweep needs frequencies.m")
    exponents = diagnostics.whole_numbers(_as_list(freq["m"]), "frequencies.m")
    if cfg["boundary"]["profile"] != "phase":
        raise ConfigError("the sweep uses the phase boundary profile on "
                          "every mesh")
    ph = phantom_from_config(cfg)
    # every mesh passes build_disk_mesh's checks before any cell runs
    mesh_points = [meshmod.disk_mesh_size(ph.disk_radius, n)
                   for n in _as_list(cfg["mesh"]["n_boundary_points"])]
    for key, values in (("frequencies.m", exponents),
                        ("mesh.n_boundary_points", mesh_points)):
        if len(set(values)) < len(values):
            raise ConfigError(f"config key {key} repeats a value: {values}")
    # base frequencies are placeholders: the sweep replaces them per cell
    base_cfg = _reconstruction_config(cfg, None, ph,
                                      *diagnostics.frequency_pair(1))

    # more threads than the CPUs this process may run on (its affinity mask,
    # where the platform has one) only adds contention
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    jobs = min(max(1, int(jobs)), cpus)
    sweep = diagnostics.frequency_sweep(base_cfg, exponents, mesh_points,
                                        jobs=jobs, phantom=ph)
    diagnostics.save_sweep_summary_csv(out_dir / "sweep_summary.csv", sweep)
    artifacts = ["sweep_summary.csv"]
    for (m, n), trace in sweep.traces.items():
        artifacts.append(f"trace_m{m}_mesh{n}.csv")
        reconstruct.save_trace_csv(out_dir / artifacts[-1], trace)
        print(f"{diagnostics.cell_key((m, n))}: {trace.status} "
              f"({len(trace.records)} iterations)")
    code = EXIT_OK if sweep.all_converged() else EXIT_NOT_CONVERGED
    return code, artifacts, {"statuses": sweep.statuses(),
                             "all_converged": sweep.all_converged(),
                             "jobs": jobs}


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
        for flag, (section, key, kind, note) in _FLAGS.items():
            p.add_argument(flag, type=kind, default=None,
                           help=f"override {section}.{key}{note}")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1,
                           help="cells run in parallel (at most the usable CPUs)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command, _ = COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        apply_flag_overrides(cfg, args)
        out_dir = Path(cfg["output"]["directory"])
        out_dir.mkdir(parents=True, exist_ok=True)
        jobs = (args.jobs,) if args.command == "sweep" else ()
        code, artifacts, summary = command(cfg, out_dir, *jobs)
    except (ConfigError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularSystem, NonConvergence) as err:
        # raised only inside the command, so out_dir exists
        error = type(err).__name__
        print(f"solver failure ({error}): {err}", file=sys.stderr)
        _write_json(out_dir / "error_report.json", {
            "command": args.command, "error": error, "message": str(err)})
        code, artifacts, summary = (EXIT_SOLVER, ["error_report.json"],
                                    {"status": "SolverFailure"})
    _write_json(out_dir / "config_echo.json", cfg)
    _write_json(out_dir / "manifest.json", {
        "command": args.command,
        "artifacts": sorted(artifacts + ["config_echo.json"]),
        "summary": summary})
    return code
