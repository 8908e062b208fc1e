"""The benchmark's workloads: inputs drawn from a seed, one measured
repetition, and the checks on its outputs.

A workload object is built from the seed and a scratch directory inside the
checkout. ``setup()`` prepares the inputs (the runner times it as set-up),
``run()`` performs one repetition of the measured work and returns its raw
outputs, and ``check(outputs)`` counts the operations of that repetition and
the ones that failed. The program only ever sees the generated inputs.

Why these workloads:

- ``recon-m200`` is factorization-bound: one two-frequency reconstruction on
  mesh 200 makes 112 sparse LUs (85 complex n x n, 27 real 2n x 2n). A
  cheaper factorization shows here.
- ``probe-m400`` is the 24-probe sweep on mesh 400 followed by the algebraic
  recovery at each of its 6 centres. It refactors the matrix twice per probe,
  so a shared factorization with a low-rank update shows here and not on
  ``recon-m200``. The recovery fails on every centre at the seed commit (the
  gradient-channel contrast law defect); those failures are counted, never
  avoided.
- ``sweep-cli`` is the command-line sweep over three frequency exponents and
  two small meshes with two jobs. Small meshes make it overhead-bound, so
  per-call costs, the thread pool and the CSV/manifest writes show here
  first. Its cells end in all three stop statuses.
"""

import cmath
import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from helmpert import cli, diagnostics, disentangle, fem, forward
from helmpert import mesh as hm
from helmpert import reconstruct

HERE = Path(__file__).resolve().parent
PROBE_REFERENCE = HERE / "reference_probe_m400.json"

# --- recon-m200 -----------------------------------------------------------
RECON_MESH_POINTS = 200
RECON_K1 = math.pi * 1e3
RECON_K2 = math.pi * 1e-3
RECON_EXPECTED = (reconstruct.STATUS_CONVERGED, 28)
RECON_MISFIT_LIMIT = 1e-3

# --- probe-m400 -----------------------------------------------------------
PROBE_MESH_POINTS = 400
PROBE_K = 0.35
PROBE_RADIUS = 0.2
# the inclusion values of the command line's default probe configuration
PROBE_GAMMA_TILDE = 0.5
PROBE_Q_TILDE = 3.0
PROBE_CENTRES = 6
# candidate centres are the integer grid points of the probe-admissible disk,
# so the datum of every centre a seed can draw has a stored reference
PROBE_CANDIDATE_SPACING = 1.0
PROBE_DATUM_RTOL = 1e-8
# amplitude * inclusion value equals the background medium at this centre:
# the probe changes nothing and its datum must vanish
NOOP_PROBE = dict(center=(2.3, 1.1), radius=0.2, amplitude=2.0,
                  gamma_tilde=0.5, q_tilde=1.5)
# documented "cannot fit" outcomes of disentangle.recover; the command line
# counts them per group instead of aborting, and so does the benchmark
RECOVER_ERRORS = (disentangle.NoRoot, disentangle.DegenerateData, ValueError)

# --- sweep-cli ------------------------------------------------------------
SWEEP_EXPONENTS = (1, 2, 3)
SWEEP_MESH_POINTS = (50, 100)
SWEEP_JOBS = 2
SWEEP_EXPECTED = {
    (1, 50): ("Diverged", 3), (1, 100): ("Diverged", 3),
    (2, 50): ("Converged", 23), (2, 100): ("Diverged", 18),
    (3, 50): ("Converged", 23), (3, 100): ("Stalled", 20),
}
SWEEP_EXIT_CODE = cli.EXIT_NOT_CONVERGED


@dataclass
class Tally:
    """Operations attempted and failed, with one message per failure.

    ``wrong`` counts failures that are not a documented outcome of the
    program: an output that disagrees with its check, or an exception the
    call is not documented to raise.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, message: str, wrong: bool = True) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong += int(wrong)
        self.problems.append(message)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.problems.extend(other.problems)
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value


class Workload:
    """Defaults of the workload interface described in the module docstring.

    A workload also has ``name``, ``__init__(seed, scratch)``, ``setup()``,
    ``run()`` and ``check(outputs) -> Tally``.
    """

    pool_jobs = 1  # worker threads the program runs, for the pool metric

    def report(self, walls) -> dict:
        """Workload-specific figures for the report line."""
        return {}

    def final_check(self) -> Tally:
        """Checks made once per benchmark run, after the timed repetitions."""
        return Tally()


def truth_coefficients(mesh):
    ph = hm.PhantomSpec()
    return (hm.coefficient_from_phantom(mesh, ph, "conductivity"),
            hm.coefficient_from_phantom(mesh, ph, "permittivity"))


class ReconM200(Workload):
    name = "recon-m200"

    def __init__(self, seed: int, scratch: Path):
        # a global phase on the Dirichlet data; internal data cannot see it
        self.phase = 2.0 * math.pi * float(np.random.default_rng(seed).random())

    def setup(self) -> None:
        self.mesh = hm.build_disk_mesh(hm.PhantomSpec().disk_radius,
                                       RECON_MESH_POINTS)
        self.gamma_true, self.q_true = truth_coefficients(self.mesh)
        data = cmath.exp(1j * self.phase) * forward.boundary_phase(self.mesh)
        self.config = reconstruct.ReconstructionConfig(
            k1=RECON_K1, k2=RECON_K2,
            boundary_data=fem.BoundaryCondition("dirichlet", data))
        self.annulus = self.mesh.node_radii() >= self.config.known_annulus_radius

    def run(self):
        return diagnostics.synthetic_run(self.mesh, self.config)

    def check(self, trace) -> Tally:
        tally = Tally()
        problems = []
        got = (trace.status, len(trace.records))
        if got != RECON_EXPECTED:
            problems.append(f"status/iterations {got}, expected {RECON_EXPECTED}")
        if trace.records:
            last = trace.records[-1]
            for name in ("misfit_J_linf", "misfit_j_linf"):
                value = getattr(last, name)
                if not value < RECON_MISFIT_LIMIT:
                    problems.append(f"final {name} {value!r} not below "
                                    f"{RECON_MISFIT_LIMIT:g}")
        for name, final, true in (("gamma", trace.final_gamma, self.gamma_true),
                                  ("q", trace.final_q, self.q_true)):
            if final is None or not np.array_equal(
                    final.values[self.annulus], true.values[self.annulus]):
                problems.append(f"known annulus of {name} was not kept exactly")
        if problems:
            tally.fail("recon-m200: " + "; ".join(problems))
        else:
            tally.ok()
        return tally


def probe_candidates() -> List[Tuple[float, float]]:
    """Integer grid points whose probe disk fits the admissible region."""
    limit = (forward.DEFAULT_INTERIOR_FRACTION * hm.PhantomSpec().disk_radius
             - PROBE_RADIUS)
    steps = int(limit // PROBE_CANDIDATE_SPACING)
    axis = [i * PROBE_CANDIDATE_SPACING for i in range(-steps, steps + 1)]
    return [(x, y) for y in axis for x in axis if math.hypot(x, y) <= limit]


def draw_centres(seed: int) -> List[Tuple[float, float]]:
    candidates = probe_candidates()
    picks = np.random.default_rng(seed).choice(len(candidates), PROBE_CENTRES,
                                               replace=False)
    return [candidates[i] for i in picks]


def centre_key(centre: Tuple[float, float]) -> str:
    return f"{centre[0]:g},{centre[1]:g}"


def probes_at(centre) -> list:
    return [forward.PerturbationProbe(center=centre, radius=PROBE_RADIUS,
                                      amplitude=lam,
                                      gamma_tilde=PROBE_GAMMA_TILDE,
                                      q_tilde=PROBE_Q_TILDE)
            for lam in disentangle.AmplitudeQuad().as_tuple()]


def probe_medium(mesh):
    gamma, q = truth_coefficients(mesh)
    bc = fem.BoundaryCondition("neumann", forward.boundary_phase(mesh))
    return gamma, q, bc


class ProbeM400(Workload):
    name = "probe-m400"

    def __init__(self, seed: int, scratch: Path):
        self.centres = draw_centres(seed)

    def setup(self) -> None:
        self.mesh = hm.build_disk_mesh(hm.PhantomSpec().disk_radius,
                                       PROBE_MESH_POINTS)
        self.gamma, self.q, self.bc = probe_medium(self.mesh)
        self.probes = [p for c in self.centres for p in probes_at(c)]
        table = json.loads(PROBE_REFERENCE.read_text())["datum"]
        self.reference = [table[centre_key(c)] for c in self.centres]

    def run(self):
        measured = forward.probe_sweep(self.mesh, self.gamma, self.q, PROBE_K,
                                       self.bc, self.probes)
        recovered = []
        for i in range(len(self.centres)):
            group = measured[4 * i:4 * i + 4]
            try:
                recovered.append(disentangle.recover(
                    [(m.probe.amplitude, m.D) for m in group]))
            except RECOVER_ERRORS as err:
                recovered.append(err)
        return [m.D for m in measured], recovered

    def check(self, outputs) -> Tally:
        datums, recovered = outputs
        tally = Tally()
        expected = [d for ref in self.reference for d in ref]
        if len(datums) != len(expected):
            tally.fail(f"probe-m400: {len(datums)} data for "
                       f"{len(expected)} probes")
            return tally
        for probe, got, want in zip(self.probes, datums, expected):
            if abs(got - want) <= PROBE_DATUM_RTOL * abs(want):
                tally.ok()
            else:
                tally.fail(f"probe-m400: datum at {probe.center} lambda="
                           f"{probe.amplitude:g} is {got!r}, reference {want!r}")
        for centre, rec in zip(self.centres, recovered):
            if isinstance(rec, Exception):
                tally.fail(f"probe-m400: recover at {centre}: {rec}",
                           wrong=False)
            elif all(math.isfinite(v) for v in (rec.F, rec.G, rec.residual)):
                tally.ok()
            else:
                tally.fail(f"probe-m400: recover at {centre} returned {rec}")
        return tally

    def report(self, walls) -> dict:
        """Milliseconds per probe of each sweep, for the report line."""
        per_probe = [1e3 * w / len(self.probes) for w in walls]
        return {"probe_ms": {"p50": float(np.percentile(per_probe, 50)),
                             "p90": float(np.percentile(per_probe, 90)),
                             "n_sweeps": len(walls)}}

    def final_check(self) -> Tally:
        """The no-op probe must leave the boundary datum null."""
        tally = Tally()
        probe = forward.PerturbationProbe(**NOOP_PROBE)
        (meas,) = forward.probe_sweep(self.mesh, self.gamma, self.q, PROBE_K,
                                      self.bc, [probe])
        scale = max(abs(d) for ref in self.reference for d in ref)
        if abs(meas.D) <= PROBE_DATUM_RTOL * scale:
            tally.ok()
        else:
            tally.fail(f"probe-m400: no-op probe datum {meas.D!r} is not null")
        return tally


class SweepCli(Workload):
    name = "sweep-cli"
    pool_jobs = SWEEP_JOBS

    def __init__(self, seed: int, scratch: Path):
        # The cells are fixed: their statuses are the expected output, and
        # reordering them changed the pool's makespan by up to a third on two
        # CPUs, which would make the seed a source of timing spread. The seed
        # only names the output directories.
        self.scratch = scratch
        self.config_path = scratch / "sweep.json"
        self.out_prefix = f"seed{seed}-"
        self.runs = 0

    def setup(self) -> None:
        self.config_path.write_text(json.dumps(
            {"frequencies": {"m": list(SWEEP_EXPONENTS)},
             "mesh": {"n_boundary_points": list(SWEEP_MESH_POINTS)}}))
        # every cell builds its mesh and phantom inside the command; doing
        # the same once here makes those layers part of this workload's
        # set-up time, as they are on the other two
        radius = hm.PhantomSpec().disk_radius
        for n in SWEEP_MESH_POINTS:
            truth_coefficients(hm.build_disk_mesh(radius, n))

    def run(self):
        self.runs += 1
        out = self.scratch / f"{self.out_prefix}out{self.runs}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", str(self.config_path),
                             "--out", str(out), "--jobs", str(SWEEP_JOBS)])
        return code, out

    def check(self, outputs) -> Tally:
        code, out = outputs
        tally = Tally()
        tally.counters["cli.bytes_written"] = float(sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file()))
        if code == SWEEP_EXIT_CODE:
            tally.ok()
        else:
            tally.fail(f"sweep-cli: exit code {code}, expected {SWEEP_EXIT_CODE}")
        cells = {}
        summary = out / "sweep_summary.csv"
        if summary.is_file():
            with open(summary, newline="") as fh:
                for row in csv.DictReader(fh):
                    cells[(int(row["m"]), int(row["mesh_points"]))] = (
                        row["status"], int(row["iterations"]))
        for cell, want in sorted(SWEEP_EXPECTED.items()):
            got = cells.get(cell)
            if got == want:
                tally.ok()
            else:
                tally.fail(f"sweep-cli: cell m={cell[0]} mesh={cell[1]} "
                           f"ended {got}, expected {want}")
        shutil.rmtree(out, ignore_errors=True)
        return tally


WORKLOADS = {w.name: w for w in (ReconM200, ProbeM400, SweepCli)}


def make_reference(path: Path = PROBE_REFERENCE) -> None:
    """Measure every candidate centre once and store its four data."""
    mesh = hm.build_disk_mesh(hm.PhantomSpec().disk_radius, PROBE_MESH_POINTS)
    gamma, q, bc = probe_medium(mesh)
    table = {}
    for centre in probe_candidates():
        measured = forward.probe_sweep(mesh, gamma, q, PROBE_K, bc,
                                       probes_at(centre))
        table[centre_key(centre)] = [m.D for m in measured]
    doc = {"mesh_points": PROBE_MESH_POINTS, "k": PROBE_K,
           "radius": PROBE_RADIUS, "gamma_tilde": PROBE_GAMMA_TILDE,
           "q_tilde": PROBE_Q_TILDE,
           "amplitudes": list(disentangle.AmplitudeQuad().as_tuple()),
           "datum": table}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
