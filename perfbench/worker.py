"""One workload in a fresh interpreter.

    python perfbench/worker.py --workload NAME --seed N --root ROOT --workdir DIR
                               (--setup-only | --seconds S [--trace])

Prints one JSON line: the set-up time, raw and at the nominal host speed
(see reference.py), and unless --setup-only the timed samples, the
failure count and the peak resident memory.  With --trace the run is
split in two halves, the second with the per-layer wrappers installed,
and the traced half adds per-cycle layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import reference
import stats
import tracer as tracing
import workloads


def _failure(label):
    return f"{label}: {traceback.format_exc(limit=2).strip().splitlines()[-1]}"


def measure(workload, seconds, min_samples, tracer=None):
    """Repeat whole cycles until `seconds` have passed and at least
    `min_samples` operations were timed.  The workload's reference runs
    before the first operation and right after each one, so every sample
    is ``[label, seconds, reference before, reference after, seconds at
    the nominal host speed]``.  Checks run after that, outside all
    timing."""
    ref = workload.reference
    samples, problems, layers = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    before = ref.timed()
    while True:
        for label, op, check in workload.cycle():
            attempted += 1
            output, issues = None, []
            t0 = time.perf_counter()
            try:
                output = op()
            except Exception:
                issues = [_failure(label)]
            elapsed = time.perf_counter() - t0
            after = ref.timed()
            samples.append([label, elapsed, before, after,
                            ref.normalised(elapsed, before, after)])
            before = after
            if not issues:
                try:
                    issues = check(output)
                except Exception:
                    issues = [_failure(label + " check")]
            if issues:
                failed += 1
                problems.extend(issues)
        if tracer is not None:
            layers.append(tracer.take_summary())
        if time.perf_counter() - start >= seconds and len(samples) >= min_samples:
            break
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "problems": problems[:20], "layers": layers}


def peak_rss_mb(workload):
    """Peak resident set of the process doing the work: the CLI children
    for cli-cold, this process otherwise (ru_maxrss is in KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if workload.work_in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    # one CPU for this process and the children it starts, so that an
    # operation and the reference around it run on the same CPU
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload](args.root, args.workdir, args.seed)
    # a set-up is mostly imports, so a cold start gauges the host around it
    before = reference.COLD_START.timed()
    t0 = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - t0
    after = reference.COLD_START.timed()
    result = {"setup_s": setup_s,
              "setup_norm_s": reference.COLD_START.normalised(setup_s, before, after)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        half = args.seconds / 2.0
        result["untraced"] = measure(workload, half, 1)
        spans = tracing.Tracer()
        workload.start_trace(spans)
        # set-up once more, traced (modules are cached by now), so that
        # config loading shows for the workloads that only load in set-up
        workload.setup()
        result["setup_layers"] = spans.take_summary()
        result["traced"] = measure(workload, half, 1, spans)
    else:
        result["untraced"] = measure(workload, args.seconds, stats.TAIL_BEYOND + 1)
    result["peak_rss_mb"] = peak_rss_mb(workload)
    result["reference"] = workload.reference.name
    result["reference_nominal_s"] = workload.reference.nominal_s

    import numpy
    import scipy

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
