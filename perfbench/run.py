"""vibropol benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py [--workload all|cli-cold|angle-sweep|fit-film]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is taken from
``src/`` (put on PYTHONPATH for the child processes, nothing is
installed).  Each workload runs in its own interpreter, one operation at
a time (a closed loop with one client).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Set-up and operation times are gated at a fixed host speed (see
reference.py); the raw wall times are printed beside them.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import stats
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli-cold", "angle-sweep", "fit-film")
REQUIRED = ("src/vibropol/__init__.py", "src/vibropol/cli.py", "configs/cavity_coupled.yaml",
            "configs/cavity_dispersion.yaml", "configs/film_absorption.yaml",
            "configs/cavity_uncoupled.yaml")
# set-up is measured in this many extra fresh interpreters, plus the one
# that goes on to measure; the median of them is setup_s
SETUP_PROBES = 2
# one run must end well inside three minutes
DEADLINE_S = 170.0
RECORDED_ENV = ("VIBROPOL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "wall_norm_tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.total_s": "s", "import.scipy_signal_s": "s", "import.scipy_optimize_s": "s",
    "import.modules": "count",
    "cli.simulate_s": "s", "cli.analyze_s": "s", "cli.estimate_s": "s", "cli.field_map_s": "s",
    "config.load_s": "s", "config.calls": "count",
    "materials.epsilon_s": "s", "materials.calls": "count", "materials.points": "count",
    "tmm.stack_response_s": "s", "tmm.self_s": "s", "tmm.calls": "count",
    "tmm.layer_points": "count", "tmm.points_per_s": "1/s",
    "fields.field_map_s": "s", "fields.field_profile_calls": "count", "fields.cells": "count",
    "spectra.find_peaks_s": "s", "spectra.find_peaks_calls": "count",
    "spectra.build_dispersion_s": "s",
    "fit.solve_s": "s", "fit.self_s": "s", "fit.model_calls": "count", "fit.nfev": "count",
    "fit.converged_starts_ratio": "ratio",
    "io.write_s": "s", "io.read_s": "s", "io.bytes_written": "B", "io.files_written": "count",
    "polariton.estimate_report_s": "s",
    "host.ref_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, deadline):
    """stdout and stderr of argv; the child and anything it started are
    killed if the deadline passes first."""
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{' '.join(argv[1:5])} did not finish in time") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:5])} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out, err


def run_worker(name, seed, workdir, extra, deadline):
    argv = [sys.executable, WORKER, "--workload", name, "--seed", str(seed),
            "--root", ROOT, "--workdir", workdir, *extra]
    out, _ = run_child(argv, deadline)
    return json.loads(out.strip().splitlines()[-1])


IMPORT_PROBE = ("import sys; sys.stderr.write('perfbench-mark\\n'); sys.stderr.flush(); "
                "import vibropol.cli; print(len(sys.modules))")


def import_probe(deadline):
    """Cumulative import times (s) from ``-X importtime`` in a fresh
    interpreter, and len(sys.modules) after ``import vibropol.cli``."""
    out, err = run_child([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], deadline)
    rows = []
    for line in err.split("perfbench-mark\n", 1)[1].splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        indent = len(parts[2]) - len(parts[2].lstrip())
        rows.append((indent, parts[2].strip(), int(parts[1]) * 1e-6))
    top = min(indent for indent, _, _ in rows)
    cumulative = {name: seconds for _, name, seconds in rows}
    return {
        "import.total_s": sum(seconds for indent, _, seconds in rows if indent == top),
        "import.scipy_signal_s": cumulative.get("scipy.signal", 0.0),
        "import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
        "import.modules": int(out.strip().splitlines()[-1]),
    }


def durations(run):
    """Raw wall time of each operation."""
    return [sample[1] for sample in run["samples"]]


def normalised(run, label=None):
    """Time of each operation (or of each one labelled `label`) at the
    nominal host speed."""
    return [sample[4] for sample in run["samples"] if label in (None, sample[0])]


def reference_times(run):
    """Every reference time of a run, the one before the first operation
    included."""
    samples = run["samples"]
    return [samples[0][2]] + [sample[3] for sample in samples]


def end_to_end(setups, worker):
    """End-to-end metrics, the raw times shown beside them (not gated:
    they carry the host's drift) and the notes for both.  `setups` holds
    one worker result per fresh interpreter."""
    run = worker["untraced"]
    walls, norms = durations(run), normalised(run)
    tail, percentile, n = stats.tail(norms)
    raw_tail = stats.tail(walls)[0]
    metrics = {
        "setup_s": stats.median([s["setup_norm_s"] for s in setups]),
        "wall_norm_s": stats.median(norms),
        "wall_norm_tail_s": tail,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    shown = {
        "setup_raw_s": stats.median([s["setup_s"] for s in setups]),
        "wall_s": stats.median(walls),
        "wall_tail_s": raw_tail,
        "host.ref_s": stats.median(reference_times(run)),
    }
    beyond = f"{stats.TAIL_BEYOND} beyond it"
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters at the nominal host speed",
        "setup_raw_s": "raw median, not gated",
        "wall_norm_s": "median of {} operations at the nominal host speed, quartiles "
                       "{:.4g} to {:.4g} s".format(n, *stats.quartiles(norms)),
        "wall_norm_tail_s": f"p{percentile:.1f} of {n} operations, {beyond}",
        "wall_s": "raw median, not gated; quartiles {:.4g} to {:.4g} s".format(
            *stats.quartiles(walls)),
        "wall_tail_s": f"raw p{percentile:.1f}, not gated",
        "host.ref_s": "median {} reference, {:.4g} s nominal; not gated".format(
            worker["reference"], worker["reference_nominal_s"]),
    }
    return metrics, shown, notes


def per_layer(name, worker, probe):
    """Per-layer metrics of the traced half, with notes on counts."""
    cycles = worker["traced"]["layers"]
    metrics, notes = dict(probe), {"import.modules": "exact"}
    for metric in cycles[0]:
        values = [cycle[metric] for cycle in cycles]
        if metric in tracer.EXACT_COUNTS:
            metrics[metric] = values[0]
            notes[metric] = "exact" if len(set(values)) == 1 else f"varied over cycles: {values}"
        else:
            metrics[metric] = stats.median(values)
    for metric in ("config.load_s", "config.calls"):
        metrics[metric] += worker["setup_layers"][metric]
    untraced, traced = worker["untraced"], worker["traced"]
    for command in ("simulate", "analyze", "estimate", "field-map"):
        times = normalised(untraced, command)
        metrics[f"cli.{command.replace('-', '_')}_s"] = stats.median(times) if times else 0.0
    metrics["host.ref_s"] = stats.median(reference_times(untraced) + reference_times(traced))
    notes["host.ref_s"] = "median {} reference, {:.4g} s nominal".format(
        worker["reference"], worker["reference_nominal_s"])
    base = stats.median(normalised(untraced))
    metrics["trace.overhead_frac"] = (stats.median(normalised(traced)) - base) / base
    notes["trace.overhead_frac"] = (
        f"at the nominal host speed, traced {len(traced['samples'])} vs untraced "
        f"{len(untraced['samples'])} operations")
    for metric, value in metrics.items():
        if value == 0:
            notes[metric] = f"layer not exercised by {name}"
    return metrics, notes


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when it is not its own git work tree."""
    if shutil.which("git") is None:
        return None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except subprocess.TimeoutExpired:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def provenance(args, name, versions):
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(), "src_sha256": source_digest(), **versions,
        "nproc": os.cpu_count(), "env": {var: os.environ.get(var) for var in RECORDED_ENV},
    }


def run_workload(name, args, workroot):
    deadline = time.monotonic() + DEADLINE_S
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=workroot)
    try:
        if args.trace:
            worker = run_worker(name, args.seed, workdir,
                                ["--seconds", str(args.seconds), "--trace"], deadline)
            runs = [worker["untraced"], worker["traced"]]
            metrics, notes = per_layer(name, worker, import_probe(deadline))
            shown = {}
        else:
            setups = [run_worker(name, args.seed, workdir, ["--setup-only"], deadline)
                      for _ in range(SETUP_PROBES)]
            worker = run_worker(name, args.seed, workdir, ["--seconds", str(args.seconds)],
                                deadline)
            runs = [worker["untraced"]]
            metrics, shown, notes = end_to_end(setups + [worker], worker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(f"== {name} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    table = {**metrics, **shown}
    for metric in sorted(metrics) + sorted(shown):
        note = f"  ({notes[metric]})" if metric in notes else ""
        value = table[metric]
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        unit = units.get(metric, "s")  # the shown raw times are all seconds
        print(f"  {metric:30s} {text:<22s} {unit}{note}")
    print(f"  {'error_rate':30s} {failed / attempted:<22.6g} ratio"
          f"  ({failed} failed of {attempted} operations)")
    for problem in [p for run in runs for p in run["problems"]]:
        print(f"  FAILED: {problem}")
    print("provenance " + json.dumps(provenance(args, name, worker["versions"]), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in sorted(metrics)},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    missing = [path for path in REQUIRED if not os.path.isfile(os.path.join(ROOT, path))]
    if missing:
        print(f"perfbench: not a vibropol source checkout, missing {missing}", file=sys.stderr)
        return 2

    workroot = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(workroot, exist_ok=True)
    try:
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            result = run_workload(name, args, workroot)
            print(json.dumps(result), flush=True)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
