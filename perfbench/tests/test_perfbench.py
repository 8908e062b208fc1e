"""Tests of the benchmark itself: span arithmetic, output checks, seeds.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import layers
import program
import run
import spans
import workloads


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    tracer = spans.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("root", "x") as root:
        with tracer.span("a", "x") as a:
            with tracer.span("leaf", "x") as leaf:
                pass
        with tracer.span("b", "x") as b:
            pass
    assert (a.parent, leaf.parent, b.parent) == (root.id, a.id, root.id)
    selfs = spans.self_times(tracer.spans)
    assert selfs == {root.id: 3, a.id: 2, leaf.id: 1, b.id: 4}


def test_self_time_counts_overlapping_children_once():
    parent = spans.Span(1, None, "p", "x", 0, t0=0.0, t1=10.0)
    kids = [spans.Span(2, 1, "c", "x", 0, t0=1.0, t1=5.0),
            spans.Span(3, 1, "c", "x", 0, t0=4.0, t1=6.0),
            spans.Span(4, 1, "c", "x", 0, t0=8.0, t1=12.0)]
    # covered: [1, 6] and [8, 10] -> 7 of the parent's 10
    assert spans.self_times([parent] + kids)[1] == pytest.approx(3.0)


def test_wrapped_exception_is_recorded_and_reraised():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("no fit")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom", "x")()
    assert tracer.spans[0].error == "ValueError: no fit"


def test_install_rebinds_names_imported_into_other_modules():
    from helmpert import diagnostics, reconstruct

    original = reconstruct.run
    tracer = spans.Tracer()
    patches = layers.install(tracer)
    try:
        assert diagnostics.run is reconstruct.run is not original
    finally:
        spans.uninstall(patches)
    assert diagnostics.run is reconstruct.run is original


def test_layer_metrics_count_one_forward_solve():
    from helmpert import fem, forward
    from helmpert import mesh as hm

    mesh = hm.build_disk_mesh(8.0, 50)
    gamma, q = workloads.truth_coefficients(mesh)
    bc = fem.BoundaryCondition("dirichlet", forward.boundary_phase(mesh))
    tracer = spans.Tracer()
    patches = layers.install(tracer)
    try:
        t0 = tracer.clock()
        fem.solve_bvp(mesh, gamma, q, 1.0, bc)
        t1 = tracer.clock()
    finally:
        spans.uninstall(patches)
    got = layers.metrics(tracer.spans, (t0, t0), [(t0, t1)], pool_jobs=1)
    counts = {k: got[k] for k in ("fem.factor_count", "fem.factor_complex_count",
                                  "fem.trisolve_count", "fem.assemble_calls",
                                  "kernels.local_matrices_calls")}
    assert counts == dict.fromkeys(counts, 1.0)
    assert got["fem.lu_fill_ratio"] > 1.0
    assert all(v >= 0.0 for k, v in got.items() if k.endswith("_s"))


@pytest.fixture(scope="module")
def recon(tmp_path_factory):
    w = workloads.ReconM200(1, tmp_path_factory.mktemp("recon"))
    w.setup()
    return w


def recon_outputs(w, **changes):
    records = [SimpleNamespace(misfit_J_linf=1e-4, misfit_j_linf=1e-4)] * 28
    fields = dict(status="Converged", records=records,
                  final_gamma=w.gamma_true, final_q=w.q_true)
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_recon_check_passes_expected_outputs(recon):
    tally = recon.check(recon_outputs(recon))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 0, 0)


@pytest.mark.parametrize("corruption", ["status", "iterations", "misfit",
                                        "annulus"])
def test_recon_corrupted_output_is_a_failure(recon, corruption):
    outputs = recon_outputs(recon)
    if corruption == "status":
        outputs.status = "Stalled"
    elif corruption == "iterations":
        outputs.records = outputs.records[:27]
    elif corruption == "misfit":
        outputs.records = outputs.records[:27] + [
            SimpleNamespace(misfit_J_linf=2e-3, misfit_j_linf=1e-4)]
    else:
        values = recon.q_true.values.copy()
        values[np.argmax(recon.annulus)] += 1e-12
        outputs.final_q = SimpleNamespace(values=values)
    tally = recon.check(outputs)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    w = workloads.ProbeM400(3, tmp_path_factory.mktemp("probe"))
    w.setup()
    return w


def test_probe_centres_come_from_the_seed_and_fit_the_disk():
    assert workloads.draw_centres(5) == workloads.draw_centres(5)
    assert workloads.draw_centres(5) != workloads.draw_centres(6)
    for x, y in workloads.draw_centres(5):
        assert np.hypot(x, y) + workloads.PROBE_RADIUS <= 6.0


def test_probe_corrupted_datum_is_a_failure(probe):
    datums = [d for ref in probe.reference for d in ref]
    recovered = [ValueError("gradient energy F cannot be negative")] * 6
    clean = probe.check((datums, recovered))
    assert (clean.attempted, clean.failed, clean.wrong) == (30, 6, 0)
    datums[5] *= 1.0 + 1e-6
    tally = probe.check((datums, recovered))
    assert (tally.attempted, tally.failed, tally.wrong) == (30, 7, 1)


def write_summary(out, cells):
    out.mkdir()
    with open(out / "sweep_summary.csv", "w") as fh:
        fh.write("config,m,mesh_points,status,iterations\n")
        for (m, n), (status, iterations) in cells.items():
            fh.write(f"m={m};mesh={n},{m},{n},{status},{iterations}\n")


def test_sweep_corrupted_outputs_are_failures(tmp_path):
    w = workloads.SweepCli(1, tmp_path)
    write_summary(tmp_path / "good", workloads.SWEEP_EXPECTED)
    good = w.check((workloads.SWEEP_EXIT_CODE, tmp_path / "good"))
    assert (good.attempted, good.failed) == (7, 0)
    cells = dict(workloads.SWEEP_EXPECTED)
    cells[(3, 100)] = ("Stalled", 21)
    write_summary(tmp_path / "bad", cells)
    bad = w.check((0, tmp_path / "bad"))
    assert (bad.attempted, bad.failed, bad.wrong) == (7, 2, 2)


def test_two_seeds_give_identical_statuses(tmp_path):
    recon_runs = []
    for seed in (11, 12):
        w = workloads.ReconM200(seed, tmp_path)
        w.setup()
        trace = w.run()
        recon_runs.append((w.phase, trace.status, len(trace.records)))
        assert w.check(trace).failed == 0
    assert recon_runs[0][0] != recon_runs[1][0]
    assert recon_runs[0][1:] == recon_runs[1][1:] == workloads.RECON_EXPECTED

    for seed in (11, 12):
        scratch = tmp_path / f"sweep{seed}"
        scratch.mkdir()
        w = workloads.SweepCli(seed, scratch)
        w.setup()
        tally = w.check(w.run())
        assert (tally.attempted, tally.failed) == (7, 0), tally.problems


def test_benchmark_json_names_every_metric():
    doc = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.METRICS
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "wall_s", "ok_frac", "peak_rss_mb"}
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(program.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail(list(range(19))) is None
    pct, value = run.tail(list(range(100)))
    assert (pct, value) == (90, 89)
