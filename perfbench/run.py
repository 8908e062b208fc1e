"""End-to-end and per-layer benchmark of helmpert.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recon-m200 --seed 1 --seconds 35 --trace 0

Workloads: recon-m200, probe-m400, sweep-cli (workloads.py says what each
runs and why). The program is imported from the checkout's own ``src/``.
Set-up (building the workload's inputs) runs several times and is reported
as its median. Then repetitions of the workload run back to back (a closed
loop with one client) until the next one would overrun ``--seconds``, and
every repetition's outputs are checked.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing: ``setup_s`` and ``wall_s`` (medians), ``ok_frac`` (the share of
attempted operations that succeeded with correct output) and
``peak_rss_mb``. With ``--trace 1`` the first half of the time runs
untraced and the second half with spans recorded around the program's
layers; the metrics are the per-layer ones of layers.py, including the
tracing overhead (traced minus untraced median wall time).

Standard output carries one ``perfbench-report`` line (environment, samples,
tail percentile, failure messages) and, as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``. ``failed`` counts every
failed operation; ``correct`` is false only when an output disagreed with
its check or a call raised an error it is not documented to raise. A traced
run also writes its spans to ``.perfbench/`` in the checkout.

The benchmark runs on one CPU (the highest-numbered one it may use) with
one BLAS thread; BLAS variables the caller sets are kept. On the two shared
vCPUs it was written on, sweep-cli's two worker threads ran between 1.0x and
1.3x parallel depending on what else the host ran: its median wall time
spread by 27% across five runs, against 4% across three runs on one CPU
right after. Threaded OpenBLAS made recon-m200 slower (7.1 s against 5.6 s
per run).

Even on one CPU the speed of those vCPUs drifted by 10-20% over tens of
seconds with the host's load. Across sets of ten runs the median wall time
of a workload spread by 5-19% (first to third quartile, as a share of the
median) and the set-up time by up to 28%; the bounds in BENCHMARK.json
allow for that.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import program

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-up runs at least this often and for at least this long, so that the
# median of a cheap set-up is taken over enough samples
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SCRATCH = program.ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_to_one_cpu():
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when that percentile is below the median."""
    n = len(samples)
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    if pct < 50:
        return None
    return pct, sorted(samples)[math.ceil(pct / 100.0 * n) - 1]


def summary(samples):
    out = {"median": statistics.median(samples), "n": len(samples),
           "samples": samples}
    t = tail(samples)
    if t is not None:
        out[f"p{t[0]}"] = t[1]
    return out


def timed_setups(workload):
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def repetitions(workload, budget, tally, windows=None):
    """Run the workload until the next repetition would overrun ``budget``.

    Returns the wall time of each repetition; at least one runs. A
    repetition that raises counts as one failed operation with wrong output.
    """
    import workloads

    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            outputs = workload.run()
            error = None
        except Exception:
            error = traceback.format_exc()
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        if windows is not None:
            windows.append((t0, t1))
        if error is None:
            tally.merge(workload.check(outputs))
        else:
            print(error, file=sys.stderr)
            failed = workloads.Tally()
            failed.fail(f"{workload.name}: repetition raised "
                        f"{error.strip().splitlines()[-1]}")
            tally.merge(failed)
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return walls


def source_facts(root):
    """Hand-written source lines under src/ and a digest of those files."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            data = path.read_bytes()
            digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
            lines += data.count(b"\n")
    return lines, digest.hexdigest()


def git_commit(root):
    """The checkout's commit, or None when it is not a git repository."""
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment(seed):
    import numpy
    import scipy
    from helmpert import kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    lines, digest = source_facts(program.ROOT)
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "kernels_backend": kernels.BACKEND,
        "commit": git_commit(program.ROOT),
        "src_sha256": digest,
        "src_lines": lines,
        "seed": seed,
    }


def end_to_end(setup_times, walls, tally):
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "ok_frac": {"value": (tally.attempted - tally.failed)
                    / tally.attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer(workload, budget, tally, spans_path):
    """Untraced, then traced repetitions; returns (metrics, report part)."""
    import layers
    import spans

    untraced = repetitions(workload, budget / 2.0, tally)
    tracer = spans.Tracer()
    patches = layers.install(tracer)
    windows = []
    try:
        t0 = time.perf_counter()
        workload.setup()
        setup_window = (t0, time.perf_counter())
        traced = repetitions(workload, budget / 2.0, tally, windows)
    finally:
        spans.uninstall(patches)
    write_spans(spans_path, tracer.spans)

    values = layers.metrics(tracer.spans, setup_window, windows,
                            workload.pool_jobs)
    values["cli.bytes_written"] = (tally.counters.get("cli.bytes_written", 0.0)
                                   / (len(untraced) + len(traced)))
    values["trace.wall_untraced_s"] = statistics.median(untraced)
    values["trace.wall_traced_s"] = statistics.median(traced)
    values["trace.overhead_s"] = (values["trace.wall_traced_s"]
                                  - values["trace.wall_untraced_s"])
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in layers.METRICS}
    return metrics, {"untraced": summary(untraced), "traced": summary(traced)}


def write_spans(path, recorded):
    with open(path, "w") as fh:
        for sp in recorded:
            fh.write(json.dumps({"id": sp.id, "parent": sp.parent,
                                 "name": sp.name, "bucket": sp.bucket,
                                 "thread": sp.thread, "t0": sp.t0,
                                 "t1": sp.t1, "error": sp.error}) + "\n")


def main(argv=None):
    args = parse_args(argv)
    pin_to_one_cpu()
    try:
        program.load()
    except ImportError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        setup_times = timed_setups(workload)
        tally = workloads.Tally()
        report = {"workload": args.workload, "trace": args.trace,
                  "environment": environment(args.seed),
                  "setup_s": summary(setup_times)}
        if args.trace:
            spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, report["wall_s"] = per_layer(workload, args.seconds,
                                                  tally, spans_path)
        else:
            walls = repetitions(workload, args.seconds, tally)
            report["wall_s"] = summary(walls)
            report.update(workload.report(walls))
        tally.merge(workload.final_check())
        if not args.trace:
            metrics = end_to_end(setup_times, walls, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report["fail_frac"] = tally.failed / tally.attempted
    report["problems"] = sorted(set(tally.problems))
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
